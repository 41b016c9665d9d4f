//! Sim-time structured event tracing.
//!
//! Engines emit typed [`TraceRecord`]s stamped with the simulation clock
//! through a boxed [`Tracer`].  [`NullTracer`] is the zero-cost default — its
//! `enabled()` returns `false`, and every emission site checks that flag
//! before even constructing the record, so an untraced run does no extra
//! work.  [`JsonlTracer`] buffers one JSON line per event (file IO stays in
//! the CLI, keeping the engine deterministic and side-effect free).
//!
//! Records use plain integer ids (node, chunk, file, domain, outage) rather
//! than the workspace's newtypes: this crate sits below every sim crate, and
//! the flat encoding is what `repro trace-summary` parses back.

use serde::{Deserialize, Serialize};

/// The effective configuration of a run, emitted as the first record of every
/// trace so a trace describes itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Scenario or experiment name.
    pub scenario: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Scale label ("small", "medium", "paper", or a custom tag).
    pub scale: String,
    /// Flattened `key = value` configuration entries, in emission order.
    pub config: Vec<(String, String)>,
}

impl RunManifest {
    /// A manifest with no configuration entries yet.
    pub fn new(scenario: &str, seed: u64, scale: &str) -> Self {
        RunManifest {
            scenario: scenario.to_string(),
            seed,
            scale: scale.to_string(),
            config: Vec::new(),
        }
    }

    /// Append one `key = value` entry.
    pub fn push(&mut self, key: &str, value: String) {
        self.config.push((key.to_string(), value));
    }

    /// Append many entries.
    pub fn extend(&mut self, entries: Vec<(String, String)>) {
        self.config.extend(entries);
    }

    /// Look an entry up by key (first match).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.config
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One typed trace record.  Times inside records (`done_at_ns`) are sim-clock
/// nanoseconds, like the [`TraceEvent`] stamp.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceRecord {
    /// Header record: the run's effective configuration.
    Manifest(RunManifest),
    /// A node left the overlay.  `outage` links group departures to their
    /// [`TraceRecord::OutageStart`]; individual departures carry `None`.
    NodeDown {
        /// The departed node.
        node: usize,
        /// The node's failure domain, when a topology is in play.
        domain: Option<u32>,
        /// The outage that took the node down, for group departures.
        outage: Option<u64>,
        /// True when the churn process drew a permanent failure.
        permanent: bool,
    },
    /// A down node returned.
    NodeReturn {
        /// The returning node.
        node: usize,
        /// True when the node had already been declared dead — the
        /// declaration is now known to have been false.
        false_declaration: bool,
    },
    /// A whole failure domain went down at once.
    OutageStart {
        /// Unique outage id, referenced by `NodeDown` / verdict records.
        outage: u64,
        /// The affected topology domain.
        group: u32,
        /// Members the outage took down.
        members: usize,
    },
    /// A group outage ended.
    OutageEnd {
        /// The outage id from the matching `OutageStart`.
        outage: u64,
        /// The affected topology domain.
        group: u32,
    },
    /// The failure detector ruled on a due declaration.
    DeclarationVerdict {
        /// The absent node.
        node: usize,
        /// The down generation the declaration belongs to.
        generation: u64,
        /// "declare", "hold" or "cancel".
        verdict: String,
        /// The outage the node's current down period belongs to, if any.
        outage: Option<u64>,
    },
    /// A held declaration was released: `declared` tells whether it went
    /// through (hold cap expired) or was cancelled by the node returning.
    HoldReleased {
        /// The node whose declaration was held.
        node: usize,
        /// True when the release was a declaration, false for a cancellation.
        declared: bool,
    },
    /// A declaration deregistered blocks of a chunk.
    BlocksWrittenOff {
        /// The damaged chunk.
        chunk: u32,
        /// The declared node that held the blocks.
        node: usize,
        /// How many blocks the declaration wrote off.
        blocks: usize,
    },
    /// A chunk fell below its decode threshold with its blocks written off:
    /// the data is permanently gone.
    ChunkLost {
        /// The lost chunk.
        chunk: u32,
        /// The file the chunk belongs to.
        file: u32,
        /// The declared node whose write-off pushed the chunk under.
        cause_node: usize,
        /// The outage the causing declaration belongs to, if any.
        outage: Option<u64>,
    },
    /// A file lost its first chunk — the file is permanently damaged.
    FileLost {
        /// The damaged file.
        file: u32,
        /// The first lost chunk.
        chunk: u32,
        /// The declared node whose write-off caused the loss.
        cause_node: usize,
        /// The outage the causing declaration belongs to, if any.
        outage: Option<u64>,
    },
    /// The placement strategy chose repair targets for a chunk.
    PlacementDecision {
        /// The chunk under repair.
        chunk: u32,
        /// The strategy's label.
        strategy: String,
        /// Blocks the repair policy asked for.
        want: usize,
        /// Targets the strategy produced.
        got: usize,
    },
    /// A regeneration was scheduled.
    RepairScheduled {
        /// The chunk under repair.
        chunk: u32,
        /// Blocks being rebuilt.
        blocks: usize,
        /// Network bytes the repair will move.
        traffic: u64,
        /// Sim-clock nanoseconds at which the transfers finish.
        done_at_ns: u64,
    },
    /// A scheduled regeneration finished its transfers.
    RepairCompleted {
        /// The repaired chunk.
        chunk: u32,
        /// Blocks that landed on live targets.
        placed: u64,
        /// Blocks dropped (target died, or the chunk was lost meanwhile).
        dropped: u64,
        /// Network bytes the repair moved.
        traffic: u64,
    },
    /// Periodic availability/durability sample.
    Sample {
        /// Files currently unavailable.
        files_unavailable: u64,
        /// Files permanently lost so far.
        files_lost: u64,
        /// Cumulative repair traffic, bytes.
        repair_bytes: u64,
        /// Repairs in flight.
        repairs_in_flight: u64,
    },
}

/// A record stamped with the sim clock (nanoseconds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Sim-clock nanoseconds.
    pub t_ns: u64,
    /// The typed record.
    pub record: TraceRecord,
}

impl TraceEvent {
    /// Render as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }
}

/// What a tracer hands back when a run finishes.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOutput {
    /// Nothing was recorded ([`NullTracer`]).
    None,
    /// The full trace as JSONL text.
    Jsonl(String),
}

/// The sink engines emit trace events into.
pub trait Tracer {
    /// False for the null tracer: emission sites check this before even
    /// constructing a record, so untraced runs pay (almost) nothing.
    fn enabled(&self) -> bool;

    /// Record one event.  Events arrive in sim-time order (the engine's event
    /// queue is ordered), so backends need not sort.
    fn record(&mut self, event: TraceEvent);

    /// Consume the tracer and hand back whatever it accumulated.
    fn finish(self: Box<Self>) -> TraceOutput;
}

/// The zero-cost default tracer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: TraceEvent) {}

    fn finish(self: Box<Self>) -> TraceOutput {
        TraceOutput::None
    }
}

/// Buffers the whole trace as JSONL text.  No file IO: the engine stays free
/// of side effects, and the CLI decides where the bytes go.
#[derive(Debug, Clone, Default)]
pub struct JsonlTracer {
    lines: String,
}

impl JsonlTracer {
    /// An empty JSONL tracer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Tracer for JsonlTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        self.lines.push_str(&event.to_jsonl());
        self.lines.push('\n');
    }

    fn finish(self: Box<Self>) -> TraceOutput {
        TraceOutput::Jsonl(self.lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event(t_ns: u64) -> TraceEvent {
        TraceEvent {
            t_ns,
            record: TraceRecord::NodeDown {
                node: 3,
                domain: Some(1),
                outage: None,
                permanent: false,
            },
        }
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let events = vec![
            TraceEvent {
                t_ns: 0,
                record: TraceRecord::Manifest(RunManifest::new("repair-mini", 42, "small")),
            },
            sample_event(1_000_000_000),
            TraceEvent {
                t_ns: 2_000_000_000,
                record: TraceRecord::FileLost {
                    file: 7,
                    chunk: 19,
                    cause_node: 3,
                    outage: Some(2),
                },
            },
        ];
        for event in events {
            let line = event.to_jsonl();
            let back: TraceEvent = serde_json::from_str(&line).unwrap();
            assert_eq!(back, event);
        }
    }

    #[test]
    fn null_tracer_is_disabled_and_empty() {
        let tracer = NullTracer;
        assert!(!tracer.enabled());
        let mut boxed: Box<dyn Tracer> = Box::new(tracer);
        boxed.record(sample_event(1));
        assert_eq!(boxed.finish(), TraceOutput::None);
    }

    #[test]
    fn jsonl_tracer_emits_one_line_per_event() {
        let mut tracer = JsonlTracer::new();
        tracer.record(sample_event(1));
        tracer.record(sample_event(2));
        let TraceOutput::Jsonl(text) = Box::new(tracer).finish() else {
            panic!("expected jsonl output");
        };
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let _: TraceEvent = serde_json::from_str(line).unwrap();
        }
    }

    #[test]
    fn manifest_lookup_finds_entries() {
        let mut manifest = RunManifest::new("s", 1, "small");
        manifest.push("policy", "eager".to_string());
        manifest.extend(vec![("nodes".to_string(), "250".to_string())]);
        assert_eq!(manifest.get("policy"), Some("eager"));
        assert_eq!(manifest.get("nodes"), Some("250"));
        assert_eq!(manifest.get("missing"), None);
    }
}

//! The benchmark's metric tables: the single place a metric's name, unit and
//! direction are written down.  `BENCHMARK.json` repeats them for the
//! driver; a self-test keeps the two identical.

use serde::value::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The direction as `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the share of the baseline's median it may
/// worsen by before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A single layer's metric.  `exact` marks counts that repeat exactly for a
/// seed, which `compare` requires to be identical between two result sets.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Only `BENCHMARK.json` states a layer metric's direction; nothing
    /// gates on it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    pub exact: bool,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Lower,
        bound,
    }
}

/// Every end-to-end metric; each workload reports all of them (see
/// `bench/README.md` for what each means on the simulator).
pub const END_TO_END: &[EndToEnd] = &[
    e2e("store_p50_ms", "ms", 0.25),
    e2e("fetch_p50_ms", "ms", 0.25),
    e2e("degraded_fetch_p50_ms", "ms", 0.25),
    e2e("repair_block_p50_ms", "ms", 0.25),
    e2e("stored_bytes_per_user_byte", "ratio", 0.02),
    e2e("peak_rss_mb", "MiB", 0.15),
    e2e("setup_s", "s", 0.25),
];

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Lower,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Higher,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// Every per-layer metric.  A layer that does no work in a workload reports
/// 0 there (the simulator moves no bytes; the ring runs no engine).
pub const PER_LAYER: &[PerLayer] = &[
    timing("core.client.store_self_ms", "ms"),
    timing("core.client.fetch_self_ms", "ms"),
    timing("core.client.repair_self_ms", "ms"),
    timing("core.client.store_unattributed_share", "ratio"),
    timing("core.client.store_tail_ms", "ms"),
    rate("core.client.store_tail_pct", "%"),
    rate("core.client.store_samples", "count"),
    timing("core.client.fetch_tail_ms", "ms"),
    rate("core.client.fetch_tail_pct", "%"),
    rate("core.client.fetch_samples", "count"),
    timing("core.client.degraded_fetch_tail_ms", "ms"),
    rate("core.client.degraded_fetch_tail_pct", "%"),
    rate("core.client.degraded_fetch_samples", "count"),
    exact("core.client.backend_calls_per_store", "count", Lower),
    exact("core.client.backend_calls_per_fetch", "count", Lower),
    exact(
        "core.client.backend_calls_per_degraded_fetch",
        "count",
        Lower,
    ),
    exact(
        "core.client.backend_calls_per_repaired_block",
        "count",
        Lower,
    ),
    rate("core.pack_payload_MBps", "MB/s"),
    rate("core.unpack_payload_MBps", "MB/s"),
    rate("erasure.encode_MBps", "MB/s"),
    rate("erasure.decode_MBps", "MB/s"),
    rate("erasure.decode_degraded_MBps", "MB/s"),
    rate("erasure.reencode_MBps", "MB/s"),
    timing("erasure.share_of_store", "ratio"),
    timing("erasure.share_of_fetch", "ratio"),
    timing("net.gateway.probe_rpc_p50_ms", "ms"),
    timing("net.gateway.store_block_rpc_p50_ms", "ms"),
    timing("net.gateway.fetch_block_rpc_p50_ms", "ms"),
    timing("net.gateway.remove_block_rpc_p50_ms", "ms"),
    rate("net.gateway.store_block_MBps", "MB/s"),
    rate("net.gateway.fetch_block_MBps", "MB/s"),
    exact("net.gateway.rpcs_per_store", "count", Lower),
    exact("net.gateway.rpcs_per_fetch", "count", Lower),
    exact("net.gateway.rpcs_per_degraded_fetch", "count", Lower),
    exact("net.gateway.rpcs_per_repaired_block", "count", Lower),
    exact("net.gateway.rpc_errors_per_round", "count", Lower),
    timing("net.node.handle_mean_ms.get_capacity", "ms"),
    timing("net.node.handle_mean_ms.store_block", "ms"),
    timing("net.node.handle_mean_ms.fetch_block", "ms"),
    timing("net.wire_overhead_ms.store_block", "ms"),
    timing("net.wire_overhead_ms.fetch_block", "ms"),
    timing("net.node.store_inproc_us", "us"),
    timing("net.node.fetch_inproc_us", "us"),
    rate("net.protocol.frame_MBps", "MB/s"),
    rate("net.protocol.small_frames_per_s", "1/s"),
    timing("net.ring.spawn_ms", "ms"),
    timing("placement.plan_chunk_p50_us", "us"),
    timing("placement.plan_chunk_self_us", "us"),
    exact("placement.plan_chunk_calls_per_store", "count", Lower),
    exact("placement.plan_success_ratio", "ratio", Higher),
    timing("placement.repair_targets_p50_us", "us"),
    exact("placement.repair_targets_calls_per_round", "count", Lower),
    timing("placement.share_of_deploy", "ratio"),
    timing("placement.share_of_engine", "ratio"),
    exact("repair.engine.events", "count", Lower),
    rate("repair.engine.events_per_s", "1/s"),
    timing("repair.engine.self_s", "s"),
    exact("repair.engine.blocks_regenerated", "count", Lower),
    exact("repair.engine.repair_bytes", "B", Lower),
    exact("repair.engine.false_declarations", "count", Lower),
    exact("repair.engine.files_lost_ratio", "ratio", Lower),
    rate("sim.deploy_files_per_s", "1/s"),
    exact("sim.degraded_available_ratio", "ratio", Higher),
    timing("sim.cluster_build_s", "s"),
    timing("trace.generate_s", "s"),
    timing("overlay.route_p50_ns", "ns"),
    timing("telemetry.trace_overhead_pct.store", "%"),
    timing("telemetry.trace_overhead_pct.fetch", "%"),
    timing("telemetry.trace_overhead_pct.degraded_fetch", "%"),
    timing("telemetry.trace_overhead_pct.repair", "%"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// Measured values by metric name.  Setting a name that is in neither table
/// is a bug in the harness, caught on the spot.
#[derive(Default)]
pub struct Measured(BTreeMap<&'static str, f64>);

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is in no table");
        assert!(value.is_finite(), "metric {name} is not finite");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `{name: {"value": v, "unit": u}}` for the named metrics, in table
    /// order; a metric the workload does not produce reads 0.
    pub fn to_value<'a>(&self, names: impl Iterator<Item = &'a str>) -> Value {
        Value::Obj(
            names
                .map(|name| {
                    let unit = unit_of(name).unwrap_or("");
                    (
                        name.to_string(),
                        Value::Obj(vec![
                            ("value".to_string(), num(self.get(name))),
                            ("unit".to_string(), Value::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The field `key` of a JSON object.
pub fn field<'a>(obj: &'a Value, key: &str) -> Option<&'a Value> {
    obj.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A JSON number with all the digits the measurement has.
pub fn num(v: f64) -> Value {
    Value::Num(format!("{v}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn field<'a>(obj: &'a Value, key: &str) -> &'a Value {
        super::field(obj, key).unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(name), "{name} is listed twice");
            assert!(name.len() <= 64);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` at the repo root must list exactly these tables.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");

        let listed: Vec<(String, String, String, Option<String>)> = ["end_to_end", "per_layer"]
            .iter()
            .flat_map(|section| field(&doc, section).as_arr().unwrap().iter())
            .map(|m| {
                let text = |k: &str| field(m, k).as_str().unwrap().to_string();
                let bound = super::field(m, "bound").map(|v| v.as_num().unwrap().to_string());
                (text("name"), text("unit"), text("better"), bound)
            })
            .collect();
        let expected: Vec<(String, String, String, Option<String>)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better, Some(format!("{}", m.bound))))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better, None)))
            .map(|(n, u, b, bound)| (n.to_string(), u.to_string(), b.label().to_string(), bound))
            .collect();
        assert_eq!(listed, expected);

        let workloads: Vec<&str> = field(&doc, "workloads")
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| field(w, "name").as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}

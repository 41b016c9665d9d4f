//! In-memory span recording for the traced rounds.
//!
//! The benchmark records spans from its own files, around the calls into
//! each layer (`TracedBackend`, `TracedPlacement`, and a root span around
//! every client call).  Spans stay in a pre-sized vector while the workload
//! runs and are written out only after it ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one ([`NO_PARENT`] for a client call).
    pub parent: u32,
    /// Shared by every span of one client call.
    pub op_id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Payload bytes the call moved (0 when it moves none).
    pub bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans and boundary counts of one traced pass.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    next_op: u32,
    counts: BTreeMap<&'static str, u64>,
}

/// The recorder is shared by the backend wrapper (called through `&self`),
/// the placement wrapper and the workload loop, all on one thread.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

impl Recorder {
    pub fn shared() -> SharedRecorder {
        Rc::new(RefCell::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 18),
            open: Vec::with_capacity(8),
            next_op: 0,
            counts: BTreeMap::new(),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn count_of(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// Open a span under the innermost open span; a span opened with none open
/// is a root and starts a new operation.
pub fn enter(rec: &SharedRecorder, name: &'static str) -> u32 {
    let mut r = rec.borrow_mut();
    let id = r.spans.len() as u32;
    let parent = r.open.last().copied().unwrap_or(NO_PARENT);
    let op_id = if parent == NO_PARENT {
        r.next_op += 1;
        r.next_op
    } else {
        r.spans[parent as usize].op_id
    };
    let start_ns = r.now_ns();
    r.spans.push(Span {
        id,
        parent,
        op_id,
        name,
        start_ns,
        end_ns: start_ns,
        bytes: 0,
    });
    r.open.push(id);
    id
}

/// Close the innermost open span, which must be `id`.
pub fn exit(rec: &SharedRecorder, id: u32, bytes: u64) {
    let mut r = rec.borrow_mut();
    let end_ns = r.now_ns();
    let top = r.open.pop();
    debug_assert_eq!(top, Some(id), "spans close innermost first");
    let span = &mut r.spans[id as usize];
    span.end_ns = end_ns;
    span.bytes = bytes;
}

/// Run `f` and return its wall time in milliseconds; when `rec` is given the
/// call is also recorded as a span (a root, if none is open).
pub fn timed<T>(
    rec: Option<&SharedRecorder>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let id = rec.map(|r| enter(r, name));
    let start = Instant::now();
    let out = f();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if let (Some(r), Some(id)) = (rec, id) {
        exit(r, id, 0);
    }
    (out, ms)
}

/// Add to a boundary counter.
pub fn count(rec: &SharedRecorder, name: &'static str, by: u64) {
    *rec.borrow_mut().counts.entry(name).or_insert(0) += by;
}

/// Nanoseconds of `span`'s interval covered by at least one of `children`,
/// which may overlap each other and may stick out of the parent.
pub fn covered_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// A layer's self time: its span's duration minus the part of that interval
/// its child spans cover.
pub fn self_ns(span: &Span, children: &[&Span]) -> u64 {
    span.duration_ns() - covered_ns(span, children)
}

/// The direct children of every span, indexed by span id.
pub fn children_index(spans: &[Span]) -> Vec<Vec<u32>> {
    let mut index = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            index[s.parent as usize].push(s.id);
        }
    }
    index
}

/// Write the spans as one JSON object per line.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}",
            s.id, parent, s.op_id, s.name, s.start_ns, s.end_ns, s.bytes
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op_id: 1,
            name: "t",
            start_ns,
            end_ns,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(0, NO_PARENT, 100, 200);
        // Disjoint children.
        let a = span(1, 0, 110, 120);
        let b = span(2, 0, 150, 170);
        assert_eq!(self_ns(&root, &[&a, &b]), 70);
        // Overlapping children count their union once.
        let c = span(3, 0, 115, 130);
        assert_eq!(covered_ns(&root, &[&a, &c]), 20);
        // A child nested in another adds nothing.
        let d = span(4, 0, 152, 160);
        assert_eq!(self_ns(&root, &[&b, &d]), 80);
        // Children are clipped to the parent's interval.
        let e = span(5, 0, 90, 105);
        let f = span(6, 0, 195, 260);
        assert_eq!(covered_ns(&root, &[&e, &f]), 10);
        // No children: all self.
        assert_eq!(self_ns(&root, &[]), 100);
    }

    #[test]
    fn recorder_nests_spans_and_numbers_operations() {
        let rec = Recorder::shared();
        let store = enter(&rec, "store");
        let plan = enter(&rec, "plan");
        let probe = enter(&rec, "probe");
        exit(&rec, probe, 0);
        exit(&rec, plan, 0);
        let push = enter(&rec, "push");
        exit(&rec, push, 4096);
        exit(&rec, store, 0);
        let fetch = enter(&rec, "fetch");
        exit(&rec, fetch, 0);
        count(&rec, "plan_ok", 1);
        count(&rec, "plan_ok", 2);

        let r = rec.borrow();
        let s = r.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[plan as usize].parent, store);
        assert_eq!(s[probe as usize].parent, plan);
        assert_eq!(s[push as usize].parent, store);
        assert_eq!(s[push as usize].bytes, 4096);
        assert_eq!(s[fetch as usize].parent, NO_PARENT);
        assert_eq!(s[probe as usize].op_id, s[store as usize].op_id);
        assert_ne!(s[fetch as usize].op_id, s[store as usize].op_id);
        assert_eq!(children_index(s)[store as usize], vec![plan, push]);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert_eq!(r.count_of("plan_ok"), 3);
        assert_eq!(r.count_of("absent"), 0);

        let mut out = Vec::new();
        write_jsonl(s, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
    }
}

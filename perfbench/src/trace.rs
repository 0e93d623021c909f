//! The benchmark's own span recorder.
//!
//! Spans go around the public library calls the benchmark makes (step,
//! adapt, snapshot write, rebalance, ...). Each span keeps its name,
//! start, end, parent and lane (one lane per rank; the control thread is
//! lane 0). Spans stay in memory; self time is derived at the end, and
//! the whole set is written as Chrome trace-event JSON, which Perfetto
//! and `chrome://tracing` open offline.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub lane: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
}

/// A per-lane span recorder. A disabled tracer records nothing, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    lane: usize,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

/// Handle for an open span; close it with [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool, lane: usize, origin: Instant) -> Self {
        Tracer {
            enabled,
            lane,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            lane: self.lane,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        // spans close innermost-first; truncating also recovers from a
        // handle dropped without `end`
        if let Some(pos) = self.stack.iter().rposition(|&i| i == idx) {
            self.stack.truncate(pos);
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans
    }
}

/// Self time of each span: its duration minus the part covered by its
/// direct children (children nest inside their parent on one lane).
fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Totals per span name: (count, total ns, self ns).
pub fn summarize(lanes: &[Vec<SpanRec>]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for spans in lanes {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own;
        }
    }
    out
}

/// Chrome trace-event JSON ("X" complete events, one `tid` per lane).
pub fn chrome_json(lanes: &[Vec<SpanRec>]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for spans in lanes {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or("", |p| spans[p].name);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"parent\":\"{}\",\"self_us\":{:.3}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                parent,
                own as f64 / 1e3
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            SpanRec {
                name: "a",
                lane: 0,
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            SpanRec {
                name: "b",
                lane: 0,
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            SpanRec {
                name: "c",
                lane: 0,
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
            },
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
        let sum = summarize(&[spans]);
        assert_eq!(sum["a"], (1, 100, 60));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 0, Instant::now());
        t.time("x", || ());
        assert!(t.into_spans().is_empty());
    }
}

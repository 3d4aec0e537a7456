//! In-memory span recorder for the traced run.
//!
//! Every public library call the traced run makes is wrapped in a span
//! (static name, monotonic start/end, parent, run id). Spans live in a
//! plain vector while the run executes and are written out as JSON lines
//! when it ends, so recording costs one `Instant::now()` pair per call.
//! A layer's *self time* is its spans' durations minus the durations of
//! their direct children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, `crate.step` (e.g. `core.cluster`).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which repetition of the traced work this span belongs to.
    pub run: u32,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans; nesting follows the call stack of [`Recorder::span`].
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    /// Tags the spans recorded from now on with `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` (through
    /// the recorder it is handed) become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span, plus a header line naming the
    /// workload and seed.
    pub fn write_jsonl(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed}}}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per-run totals of each layer's self time (ns) and inclusive time (ns),
/// keyed by layer name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerTimes {
    /// Σ self time per layer name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Σ inclusive duration per layer name.
    pub total_ns: BTreeMap<&'static str, u64>,
}

/// Sums self and inclusive times per layer for the spans of `run`.
pub fn layer_times(spans: &[Span], run: u32) -> LayerTimes {
    let own = self_times(spans);
    let mut out = LayerTimes::default();
    for (s, own) in spans.iter().zip(own) {
        if s.run == run {
            *out.self_ns.entry(s.name).or_default() += own;
            *out.total_ns.entry(s.name).or_default() += s.duration_ns();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 35, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        // root 100 − (30 + 40); a 30 − 20; grandchildren don't count twice
        assert_eq!(self_times(&spans), vec![30, 10, 20, 40]);
        let t = layer_times(&spans, 0);
        assert_eq!(t.self_ns["root"], 30);
        assert_eq!(t.total_ns["a"], 30);
        assert_eq!(t.self_ns.values().sum::<u64>(), 100);
        assert!(layer_times(&spans, 1).self_ns.is_empty());
    }

    #[test]
    fn repeated_layers_accumulate() {
        let spans = [
            span("root", 0, 100, None),
            span("parse", 0, 10, Some(0)),
            span("parse", 20, 25, Some(0)),
        ];
        let t = layer_times(&spans, 0);
        assert_eq!(t.self_ns["parse"], 15);
        assert_eq!(t.self_ns["root"], 85);
    }

    #[test]
    fn recorder_nests_by_call_stack() {
        let mut rec = Recorder::new();
        let v = rec.span("outer", |rec| {
            rec.span("inner", |_| 1) + rec.span("inner", |_| 2)
        });
        rec.set_run(1);
        rec.span("later", |_| ());
        assert_eq!(v, 3);
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[1].parent, s[2].parent, s[3].parent),
            (Some(0), Some(0), None)
        );
        assert_eq!((s[0].run, s[3].run), (0, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
    }
}

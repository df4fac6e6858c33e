//! Harness-side span recorder.
//!
//! Every call the benchmark makes into the program — and every layer probe
//! — runs inside [`Recorder::span`], which always times the call (that is
//! where the metrics come from) and, when tracing is on, also appends a
//! `{id, parent, op, name, start_ns, end_ns}` record to an in-memory
//! vector that is written out once, when the workload ends.  The harness
//! drives the program from one thread, so nesting is a plain stack.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::clock::now_ns;
use crate::report::json_str;

/// A timed interval on the harness clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct Interval {
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Interval {
    pub fn ns(self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct SpanRec {
    parent: Option<usize>,
    op: u32,
    name: &'static str,
    at: Interval,
}

/// Each span's duration minus the part its child spans cover.
fn self_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.at.ns()).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.at.ns());
        }
    }
    own
}

/// Times spans; records them while `on`.
#[derive(Default)]
pub struct Recorder {
    on: Cell<bool>,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<usize>>,
    op: Cell<u32>,
}

impl Recorder {
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Starts a new operation (one checkpoint, restart or migration): the
    /// spans recorded until the next call share its id.
    pub fn next_op(&self) {
        self.op.set(self.op.get() + 1);
    }

    /// Runs `f`, timing it; records the span when tracing is on.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, Interval) {
        if !self.on.get() {
            let start_ns = now_ns();
            let out = f();
            return (
                out,
                Interval {
                    start_ns,
                    end_ns: now_ns(),
                },
            );
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(SpanRec {
                parent: self.stack.borrow().last().copied(),
                op: self.op.get(),
                name,
                at: Interval::default(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let start_ns = now_ns();
        let out = f();
        let at = Interval {
            start_ns,
            end_ns: now_ns(),
        };
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].at = at;
        (out, at)
    }

    /// Self time of every recorded span — its duration minus the part its
    /// child spans cover — grouped by span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let spans = self.spans.borrow();
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, own) in spans.iter().zip(self_ns(&spans)) {
            out.entry(s.name).or_default().push(own);
        }
        out
    }

    /// Writes the recorded spans as one JSON document.
    pub fn write_json(&self, path: &Path, meta: &[(&str, String)]) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{")?;
        for (k, v) in meta {
            write!(w, "{}:{},", json_str(k), json_str(v))?;
        }
        writeln!(w, "\"spans\":[")?;
        for (id, (s, own)) in spans.iter().zip(self_ns(&spans)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                if id == 0 { "" } else { "," },
                s.op,
                json_str(s.name),
                s.at.start_ns,
                s.at.end_ns,
                own,
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

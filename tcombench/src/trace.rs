//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, a parent, and the id of the op it
//! belongs to (shared by every span of one op). Spans are kept in memory
//! and written out when the run ends. A layer's self time is its span's
//! duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Layer call, e.g. `query.parse`.
    pub name: &'static str,
    /// Op the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
}

/// Per-thread span recorder. When off, every call is a no-op.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    next_op: u64,
    op: u64,
}

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

/// Self and total time of all spans of one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanStat {
    /// Spans of this name.
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of self times, nanoseconds.
    pub self_ns: u64,
}

impl SpanStat {
    /// Mean self time in microseconds.
    pub fn self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1_000.0
        }
    }

    /// Mean duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1_000.0
        }
    }
}

impl Tracer {
    /// A tracer whose op ids start at `first_op` (threads use disjoint
    /// ranges so merged spans keep distinct ops).
    pub fn new(first_op: u64) -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: first_op,
            op: first_op,
        }
    }

    /// Turns recording on or off (between ops).
    pub fn set(&mut self, on: bool) {
        self.on = on;
    }

    /// True while recording.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a new op: later spans share its id.
    pub fn new_op(&mut self) {
        self.next_op += 1;
        self.op = self.next_op;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        if let Some(pos) = self.stack.iter().rposition(|&i| i == idx) {
            self.stack.truncate(pos);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Appends another tracer's spans (re-indexing their parents).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Self and total time per span name.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStat> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `op name parent start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tname\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.op, s.name, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

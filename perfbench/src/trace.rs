//! Spans around every call the benchmark makes into a layer.
//!
//! A span has a name (`<layer>.<call>`), a start and an end, the index of
//! the span that encloses it in the same trace, and a request id that all
//! spans of one operation share: the wire call and, later, the core and
//! store replay of the same request. Spans stay in memory; the run
//! aggregates them when it ends and can write them out as TSV.

use std::collections::HashMap;
use std::io::{self, Write};
use std::time::Instant;

/// `parent` of a span that no other span in its trace encloses.
pub const NO_PARENT: u32 = u32::MAX;
/// `req` of a span that belongs to no single operation.
pub const NO_REQ: u64 = 0;

/// Request id of operation `index` of stream `stream` (a connection or a
/// probe). Never [`NO_REQ`].
pub fn req_id(stream: u64, index: usize) -> u64 {
    ((stream + 1) << 40) | index as u64
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Request id, or [`NO_REQ`].
    pub req: u64,
    /// Index of the enclosing span in the same trace, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A span recorder; records nothing while off.
#[derive(Debug, Clone)]
pub struct Trace {
    on: bool,
    epoch: Instant,
    /// Spans in the order they ended.
    pub spans: Vec<Span>,
}

impl Trace {
    /// A recorder sharing `epoch` with the run's other recorders.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self { on, epoch, spans: Vec::new() }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turn recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Record a span that ran from `start` to `end`; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, req, parent, start_ns: ns(start), end_ns: ns(end) });
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans per trace")
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, req, NO_PARENT, start, Instant::now());
        out
    }

    /// Append another recorder's spans, keeping parent links valid.
    pub fn absorb(&mut self, other: Trace) {
        let offset = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += offset;
            }
            s
        }));
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::us).collect()
    }

    /// Total duration (µs) of the replay spans (`core.*`, `store.*`) of
    /// each request.
    pub fn replay_by_req(&self) -> HashMap<u64, f64> {
        let mut out: HashMap<u64, f64> = HashMap::new();
        for s in &self.spans {
            if s.req != NO_REQ && (s.name.starts_with("core.") || s.name.starts_with("store.")) {
                *out.entry(s.req).or_default() += s.us();
            }
        }
        out
    }

    /// Write every span as one TSV line.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "name\treq\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            writeln!(out, "{}\t{}\t{}\t{}\t{}", s.name, s.req, parent, s.start_ns, s.end_ns)?;
        }
        Ok(())
    }
}

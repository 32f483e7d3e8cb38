//! In-memory span tracer for the traced (`--trace 1`) mode.
//!
//! Spans wrap the benchmark's own calls into the simulator's public API.
//! Each span has a name, start, end, parent and request id; spans stay in
//! memory and are aggregated when the run ends. With tracing off every
//! call is a no-op that never reads the clock.
//!
//! Telemetry observation is too fine-grained for one span per event: the
//! recorder sink adds the nanoseconds it spends per event to a shared
//! counter instead, and a span's self time excludes the telemetry time
//! that accrued while it was open. That time is reported as its own
//! `telemetry.observe` layer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Spans of one request (or one iteration) share an id.
    pub req: u64,
    child_ns: u64,
    tel_start: u64,
    tel_in_children: u64,
    tel_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration minus child spans and telemetry time observed inside.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns()
            .saturating_sub(self.child_ns)
            .saturating_sub(self.tel_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// A per-thread span recorder. Threads share the epoch `t0` and the
/// telemetry clock so their spans merge onto one timeline.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
    telemetry: Arc<AtomicU64>,
}

impl Tracer {
    pub fn new(on: bool, t0: Instant, telemetry: Arc<AtomicU64>) -> Self {
        Tracer {
            on,
            t0,
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
            telemetry,
        }
    }

    /// A tracer for another thread on the same timeline.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.on, self.t0, Arc::clone(&self.telemetry))
    }

    /// Tag the spans opened from now on with request id `req`.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            req: self.req,
            child_ns: 0,
            tel_start: self.telemetry.load(Ordering::Relaxed),
            tel_in_children: 0,
            tel_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = self.t0.elapsed().as_nanos() as u64;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans must nest");
        let tel_now = self.telemetry.load(Ordering::Relaxed);
        let span = &mut self.spans[idx];
        span.end_ns = now;
        let tel_total = tel_now.saturating_sub(span.tel_start);
        // Telemetry time inside a child is already inside the child's
        // duration, which the parent subtracts as child time.
        span.tel_ns = tel_total.saturating_sub(span.tel_in_children);
        let dur = span.dur_ns();
        if let Some(p) = span.parent {
            self.spans[p].child_ns += dur;
            self.spans[p].tel_in_children += tel_total;
        }
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-layer aggregate of a set of spans.
#[derive(Default, Clone, Copy, Debug)]
pub struct Layer {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregate spans by name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for s in spans {
        let l = out.entry(s.name).or_default();
        l.calls += 1;
        l.total_ns += s.dur_ns();
        l.self_ns += s.self_ns();
    }
    out
}

/// Share of `[0, wall_ns)` covered by the union of root spans across all
/// threads' span lists.
pub fn coverage(threads: &[Vec<Span>], wall_ns: u64) -> f64 {
    let mut iv: Vec<(u64, u64)> = threads
        .iter()
        .flatten()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns.min(wall_ns)))
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered as f64 / wall_ns.max(1) as f64
}

/// Cost of one `Instant::now()` on this host, in nanoseconds.
pub fn clock_read_ns() -> f64 {
    const N: u32 = 200_000;
    let start = Instant::now();
    let mut last = start;
    for _ in 0..N {
        last = std::hint::black_box(Instant::now());
    }
    (last - start).as_nanos() as f64 / f64::from(N)
}

/// Distinct request ids among a set of spans.
pub fn requests(threads: &[Vec<Span>]) -> usize {
    let mut ids: Vec<u64> = threads.iter().flatten().map(|s| s.req).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len()
}

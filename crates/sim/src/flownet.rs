//! Fluid (rate-based) network model with max-min fair bandwidth sharing.
//!
//! A [`FlowNet`] holds directed links with finite capacity and a set of
//! active flows, each following a fixed path of links. Paths are interned
//! ([`crate::path`]): a flow spec carries a 4-byte [`PathId`] rather than a
//! link vector, and the deduplicated link sequences live in the net's
//! [`crate::path::PathInterner`].
//!
//! Rates are assigned by **progressive filling**: all flows ramp up together
//! until a link saturates or a flow reaches its source demand; saturated
//! flows freeze and the rest keep filling. This yields the classic max-min
//! fair allocation, which is the standard fluid approximation for
//! congestion-controlled traffic (RDMA with DCQCN in the paper's clusters).
//! The solver lives behind the [`crate::alloc::RateAllocator`] trait; by
//! default an incremental implementation recomputes only the connected
//! component of flows around each perturbation (see [`crate::alloc`]).
//! Recomputes are lazy: every perturbation at one simulated instant folds
//! into the one recompute made when rates are next observed or time next
//! moves.
//!
//! Two measurement facilities drive the paper's figures:
//!
//! * **Carried bits per link** — integrated rate, for the Aggregation-switch
//!   traffic statistics of Fig 15b.
//! * **Queue model per link** — the *offered* load on a link is the sum of
//!   its flows' source demands; while offered load exceeds capacity the
//!   queue integrates the excess (clamped to the buffer, with overflow
//!   counted as drops), and drains otherwise. This captures the persistent
//!   queue build-up on hash-imbalanced ToR downlinks that Fig 13/14 report,
//!   without simulating individual packets.

use crate::alloc::{AllocCtx, AllocatorKind, RateAllocator};
use crate::arena::{Flow, FlowArena};
use crate::path::{PathId, PathInterner};
use crate::probe::NetProbe;
use crate::sketch::QuantileSketch;
use crate::stats::RecomputeScope;
use crate::tail::{LinkView, TailEstimator};
use crate::time::SimTime;

/// Index of a link within a [`FlowNet`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

/// Stable handle to a flow (valid until the flow completes or is killed).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowHandle(pub u64);

/// Description of a flow to inject into the network.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// Interned path, from [`FlowNet::intern_path`] on the same net.
    pub path: PathId,
    /// Flow size in bits. Must be positive and finite.
    pub size_bits: f64,
    /// Maximum sending rate in bits/s (e.g. the 400Gbps NIC limit).
    /// `f64::INFINITY` means "only network-limited".
    pub demand_bps: f64,
    /// Opaque tag returned on completion; carries application context.
    pub tag: u64,
}

/// Per-link state and accumulated statistics.
#[derive(Clone, Debug)]
pub struct LinkState {
    /// Nominal capacity in bits/s.
    pub nominal_bps: f64,
    /// Whether the link is administratively/physically up.
    pub up: bool,
    /// Queue buffer size in bits (excess beyond this is dropped).
    pub buffer_bits: f64,
    /// Current queue occupancy in bits.
    pub queue_bits: f64,
    /// Total bits carried (integrated allocated rate).
    pub carried_bits: f64,
    /// Total bits dropped at this link's queue.
    pub dropped_bits: f64,
    /// Peak queue occupancy observed.
    pub peak_queue_bits: f64,
    /// Current number of flows crossing this link (updated on recompute).
    pub active_flows: usize,
    /// Sum of allocated flow rates (bits/s), updated on recompute.
    pub allocated_bps: f64,
    /// Sum of flow demands (bits/s), updated on recompute; the queue model's
    /// offered load.
    pub offered_bps: f64,
}

impl LinkState {
    /// Effective capacity: nominal when up, zero when down.
    pub fn capacity_bps(&self) -> f64 {
        if self.up {
            self.nominal_bps
        } else {
            0.0
        }
    }

    /// Utilization of nominal capacity in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.nominal_bps > 0.0 {
            self.allocated_bps / self.nominal_bps
        } else {
            0.0
        }
    }
}

/// Marks a link absent from a [`HotLinks`] set.
const NOT_HOT: u32 = u32::MAX;

/// The links that carry flows or hold a standing queue: the only links
/// [`FlowNet`]'s integration step must touch. A dense list of link indices,
/// kept in no particular order, plus each link's position in it, so insert
/// and remove (each with its membership test) are O(1) and a walk costs
/// O(hot links).
#[derive(Clone, Debug, Default)]
pub struct HotLinks {
    /// Hot link indices, unordered.
    list: Vec<u32>,
    /// Per link of the net: its index in `list`, or `NOT_HOT`.
    pos: Vec<u32>,
}

impl HotLinks {
    /// Make room for one more (cold) link.
    fn push_link(&mut self) {
        self.pos.push(NOT_HOT);
    }

    /// Add `link`; a no-op if it is already hot.
    pub(crate) fn insert(&mut self, link: usize) {
        if self.pos[link] == NOT_HOT {
            self.pos[link] = self.list.len() as u32;
            self.list.push(link as u32);
        }
    }

    /// Drop `link`; a no-op if it is not hot. The last listed link takes
    /// its slot.
    pub(crate) fn remove(&mut self, link: usize) {
        let p = self.pos[link];
        if p != NOT_HOT {
            self.pos[link] = NOT_HOT;
            let last = self.list.pop().expect("a hot link is listed");
            if last as usize != link {
                self.list[p as usize] = last;
                self.pos[last as usize] = p;
            }
        }
    }

    /// Keep only the links for which `keep` returns `true`, in one pass.
    fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        let mut w = 0;
        for r in 0..self.list.len() {
            let l = self.list[r];
            if keep(l) {
                self.list[w] = l;
                self.pos[l as usize] = w as u32;
                w += 1;
            } else {
                self.pos[l as usize] = NOT_HOT;
            }
        }
        self.list.truncate(w);
    }

    /// The hot links, in no particular order.
    pub fn as_slice(&self) -> &[u32] {
        &self.list
    }
}

/// Completion record returned by [`FlowNet::advance`].
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// Handle of the completed flow.
    pub handle: FlowHandle,
    /// The application tag from the flow's spec.
    pub tag: u64,
    /// When the flow was injected.
    pub started: SimTime,
    /// Completion time (the `advance` target).
    pub finished: SimTime,
    /// Flow size in bits.
    pub size_bits: f64,
}

/// Tolerance (bits) under which a flow counts as finished; absorbs the
/// floating-point residue of advancing exactly to a computed finish time.
const DONE_EPS_BITS: f64 = 1e-3;
/// Tolerance (bits/s) for link saturation in progressive filling.
pub(crate) const RATE_EPS: f64 = 1e-6;
/// Standing-queue relaxation time constant when a link is not over-offered
/// (models congestion-control backoff draining the queue).
const QUEUE_RELAX_TAU_S: f64 = 0.05;

/// The fluid network: links, flows, and fair-share rate allocation.
///
/// ```
/// use hpn_sim::{FlowNet, FlowSpec, SimTime};
///
/// let mut net = FlowNet::new();
/// let link = net.add_link(100e9, f64::INFINITY); // 100Gbps
/// let path = net.intern_path(&[link]);
/// net.start_flow(SimTime::ZERO, FlowSpec {
///     path,
///     size_bits: 100e9, // 100 Gbit
///     demand_bps: f64::INFINITY,
///     tag: 7,
/// });
/// let done_at = net.next_completion().unwrap();
/// assert_eq!(done_at.as_nanos(), 1_000_000_000, "exactly one second");
/// assert_eq!(net.advance(done_at)[0].tag, 7);
/// ```
pub struct FlowNet {
    links: Vec<LinkState>,
    flows: FlowArena,
    paths: PathInterner,
    next_flow: u64,
    /// Time up to which all flow progress and queue integrals are applied.
    clock: SimTime,
    rates_dirty: bool,
    /// Links that currently carry flows or hold a non-empty queue; the only
    /// links `integrate_to` must touch.
    hot_links: HotLinks,
    allocator: Box<dyn RateAllocator>,
    scope: RecomputeScope,
    probe: Option<Box<dyn NetProbe + Send>>,
    estimator: Option<Box<dyn TailEstimator>>,
    /// Streaming sketch of completed-flow FCTs (seconds). Always on — one
    /// log-bucket update per completion — so figures and oracles can read
    /// tail quantiles without pre-arranging instrumentation.
    fct: QuantileSketch,
}

/// The counters [`FlowNet::surrogate_stats`] is typed by. No value is
/// ever produced: the type exists only so that alias keeps its signature.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Memo lookups.
    pub lookups: u64,
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Memo answers that disagreed with the exact solver.
    pub mismatches: u64,
}

impl Default for FlowNet {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowNet {
    /// An empty network at time zero, using the default allocator
    /// ([`AllocatorKind::Incremental`]).
    pub fn new() -> Self {
        Self::with_allocator(AllocatorKind::default())
    }

    /// An empty network using the given rate allocator.
    pub fn with_allocator(kind: AllocatorKind) -> Self {
        Self::with_allocator_box(kind.build())
    }

    /// An empty network using a caller-supplied allocator instance.
    ///
    /// This is the injection point the correctness harness (`hpn-check`)
    /// uses to wrap a stock allocator in a deliberately buggy mutant and
    /// prove the invariant oracles catch it; production code should go
    /// through [`FlowNet::with_allocator`].
    pub fn with_allocator_box(allocator: Box<dyn RateAllocator>) -> Self {
        FlowNet {
            links: Vec::new(),
            flows: FlowArena::new(),
            paths: PathInterner::new(),
            next_flow: 0,
            clock: SimTime::ZERO,
            rates_dirty: false,
            hot_links: HotLinks::default(),
            allocator,
            scope: RecomputeScope::default(),
            probe: None,
            estimator: None,
            fct: QuantileSketch::default(),
        }
    }

    /// Attach an observation probe (see [`crate::probe`]). Pass `None` to
    /// detach. A net without a probe pays no observation cost. The probe
    /// must be `Send` so a `FlowNet` (and every session built on one) can
    /// move between threads — e.g. experiment cells on the worker pool.
    pub fn set_probe(&mut self, probe: Option<Box<dyn NetProbe + Send>>) {
        self.probe = probe;
    }

    /// Whether a probe is attached.
    pub fn has_probe(&self) -> bool {
        self.probe.is_some()
    }

    /// Detach and return the probe, if any — lets callers recover state a
    /// probe accumulated (e.g. a counting probe's totals).
    pub fn take_probe(&mut self) -> Option<Box<dyn NetProbe + Send>> {
        self.probe.take()
    }

    /// Attach a tail-latency estimator (see [`crate::tail`]). Pass `None`
    /// to detach. Each subsequent [`FlowNet::start_flow`] feeds the
    /// estimator a [`LinkView`] snapshot of the flow's path, taken after
    /// the rate allocator has accounted for the new flow — which costs one
    /// extra (otherwise lazy) rate recompute per injection, so a net
    /// without an estimator pays nothing.
    pub fn set_estimator(&mut self, estimator: Option<Box<dyn TailEstimator>>) {
        self.estimator = estimator;
    }

    /// Whether a tail estimator is attached.
    pub fn has_estimator(&self) -> bool {
        self.estimator.is_some()
    }

    /// Read-only view of the attached estimator, if any.
    pub fn estimator(&self) -> Option<&dyn TailEstimator> {
        self.estimator.as_deref()
    }

    /// Detach and return the estimator, if any — callers recover its
    /// accumulated prediction sketch.
    pub fn take_estimator(&mut self) -> Option<Box<dyn TailEstimator>> {
        self.estimator.take()
    }

    /// Streaming sketch of the FCTs (seconds) of every *completed* flow —
    /// killed flows are excluded. See [`crate::sketch`].
    pub fn fct_sketch(&self) -> &QuantileSketch {
        &self.fct
    }

    /// Which rate allocator this net runs.
    pub fn allocator_kind(&self) -> AllocatorKind {
        self.allocator.kind()
    }

    /// Recompute-scope counters accumulated by the allocator: how many
    /// flows/links each rate recompute touched. Snapshot and diff with
    /// [`RecomputeScope::since`] to attribute work to a window.
    pub fn alloc_scope(&self) -> RecomputeScope {
        self.scope
    }

    /// Internal clock: everything is integrated up to this instant.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Add a link with the given capacity (bits/s) and queue buffer (bits).
    pub fn add_link(&mut self, capacity_bps: f64, buffer_bits: f64) -> LinkId {
        assert!(capacity_bps >= 0.0, "negative link capacity");
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkState {
            nominal_bps: capacity_bps,
            up: true,
            buffer_bits,
            queue_bits: 0.0,
            carried_bits: 0.0,
            dropped_bits: 0.0,
            peak_queue_bits: 0.0,
            active_flows: 0,
            allocated_bps: 0.0,
            offered_bps: 0.0,
        });
        self.hot_links.push_link();
        self.allocator.on_link_added(id);
        id
    }

    /// Intern a path (non-empty sequence of known links) for use in flow
    /// specs. Interning the same sequence twice returns the same id.
    ///
    /// # Panics
    /// Panics on an empty path or a link this net does not have.
    pub fn intern_path(&mut self, links: &[LinkId]) -> PathId {
        for l in links {
            assert!(
                (l.0 as usize) < self.links.len(),
                "flow path references unknown link {l:?}"
            );
        }
        self.paths.intern(links)
    }

    /// Resolve an interned path back to its link sequence.
    pub fn path(&self, id: PathId) -> &[LinkId] {
        self.paths.get(id)
    }

    /// Number of distinct interned paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// A frozen snapshot of every interned path (insertion order,
    /// `Arc`-shared) — the cacheable route-set artifact of this net. See
    /// [`FlowNet::seed_paths`].
    pub fn path_snapshot(&self) -> crate::path::PathSet {
        self.paths.snapshot()
    }

    /// Warm a **fresh** net's interner from a snapshot taken off an
    /// identical fabric: every path is re-interned in the donor's
    /// insertion order, so later `intern_path` calls for the same routes
    /// become lookups instead of allocations. `PathId` values never reach
    /// simulation output bytes (events carry path *lengths*; allocator
    /// math is id-independent), so seeding cannot change results — see
    /// DESIGN.md §9 for the full argument.
    ///
    /// # Panics
    /// Panics if this net already interned paths, or if the snapshot
    /// references a link this net does not have.
    pub fn seed_paths(&mut self, set: &crate::path::PathSet) {
        if let Some(max) = set.max_link() {
            assert!(
                (max.0 as usize) < self.links.len(),
                "path snapshot references unknown link {max:?}"
            );
        }
        self.paths.seed(set);
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The links that carry flows or hold a standing queue. After a
    /// recompute or an advance, this is exactly the set of links with
    /// `active_flows > 0` or `queue_bits > 0`.
    pub fn hot_links(&self) -> &HotLinks {
        &self.hot_links
    }

    /// Number of active flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Read-only view of a link's state.
    ///
    /// The aggregates `active_flows`, `allocated_bps` and `offered_bps`
    /// reflect the last rate recompute, which runs lazily: call
    /// [`FlowNet::recompute_if_dirty`] first to see the effect of flow or
    /// link changes since then. The integrated fields (`queue_bits`,
    /// `carried_bits`, `dropped_bits`, `peak_queue_bits`) are current up to
    /// [`FlowNet::clock`].
    pub fn link(&self, id: LinkId) -> &LinkState {
        &self.links[id.0 as usize]
    }

    /// Bring a link up or down. Rates are recomputed lazily.
    pub fn set_link_up(&mut self, id: LinkId, up: bool) {
        let l = &mut self.links[id.0 as usize];
        if l.up != up {
            l.up = up;
            self.allocator.on_link_changed(id);
            self.rates_dirty = true;
            if let Some(p) = self.probe.as_mut() {
                p.link_state(self.clock, id.0, up);
            }
        }
    }

    /// Change a link's nominal capacity (bits/s).
    pub fn set_link_capacity(&mut self, id: LinkId, capacity_bps: f64) {
        assert!(capacity_bps >= 0.0, "negative link capacity");
        let l = &mut self.links[id.0 as usize];
        if l.nominal_bps != capacity_bps {
            l.nominal_bps = capacity_bps;
            self.allocator.on_link_changed(id);
            self.rates_dirty = true;
        }
    }

    /// Inject a flow at time `now` (which must be ≥ the net's clock).
    ///
    /// Rates are recomputed lazily: every start, kill and link change at
    /// one instant folds into the one recompute the next observation (or
    /// the next advance past that instant) makes.
    pub fn start_flow(&mut self, now: SimTime, spec: FlowSpec) -> FlowHandle {
        assert!(
            self.paths.contains(spec.path),
            "flow path {:?} was not interned by this net",
            spec.path
        );
        assert!(
            spec.size_bits > 0.0 && spec.size_bits.is_finite(),
            "flow size must be positive and finite, got {}",
            spec.size_bits
        );
        assert!(spec.demand_bps > 0.0, "flow demand must be positive");
        self.integrate_to(now);
        let id = self.next_flow;
        self.next_flow += 1;
        self.flows.insert(
            id,
            Flow {
                remaining_bits: spec.size_bits,
                rate_bps: 0.0,
                started: now,
                spec,
            },
        );
        self.allocator
            .on_flow_added(id, &spec, self.paths.get(spec.path));
        self.rates_dirty = true;
        if let Some(p) = self.probe.as_mut() {
            let path_links = self.paths.get(spec.path).len() as u32;
            p.flow_added(now, id, path_links, spec.size_bits);
        }
        if self.estimator.is_some() {
            // Snapshot the path after the allocator accounts for the new
            // flow, so `active_flows`/utilization include it.
            self.recompute_if_dirty();
            let views: Vec<LinkView> = self
                .paths
                .get(spec.path)
                .iter()
                .map(|&l| {
                    let s = &self.links[l.0 as usize];
                    LinkView {
                        capacity_bps: s.capacity_bps(),
                        active_flows: s.active_flows,
                        queue_bits: s.queue_bits,
                        utilization: s.utilization(),
                    }
                })
                .collect();
            if let Some(e) = self.estimator.as_mut() {
                e.on_flow_start(spec.size_bits, spec.demand_bps, &views);
            }
        }
        FlowHandle(id)
    }

    /// Forcibly remove a flow (e.g. the job it belonged to crashed).
    /// Returns `true` if the flow was still active.
    pub fn kill_flow(&mut self, now: SimTime, h: FlowHandle) -> bool {
        self.integrate_to(now);
        match self.flows.remove(h.0) {
            Some(f) => {
                self.allocator
                    .on_flow_removed(h.0, self.paths.get(f.spec.path));
                self.rates_dirty = true;
                if let Some(p) = self.probe.as_mut() {
                    p.flow_removed(now, h.0, false);
                }
                true
            }
            None => false,
        }
    }

    /// Current allocated rate of a flow (bits/s), or `None` if finished/killed.
    pub fn flow_rate(&mut self, h: FlowHandle) -> Option<f64> {
        self.recompute_if_dirty();
        self.flows.get(h.0).map(|f| f.rate_bps)
    }

    /// Remaining bits of a flow, or `None` if finished/killed.
    pub fn flow_remaining(&self, h: FlowHandle) -> Option<f64> {
        self.flows.get(h.0).map(|f| f.remaining_bits)
    }

    /// Advance the model to `now`, applying flow progress and queue
    /// integrals, and return the flows that completed (in deterministic
    /// handle order). Completions are *detected* here, so drivers should
    /// advance to the time reported by [`FlowNet::next_completion`].
    pub fn advance(&mut self, now: SimTime) -> Vec<Completion> {
        self.integrate_to(now);
        let mut done = Vec::new();
        let finished: Vec<u64> = self
            .flows
            .iter()
            .filter(|(_, f)| f.remaining_bits <= DONE_EPS_BITS)
            .map(|(id, _)| id)
            .collect();
        for id in finished {
            let f = self.flows.remove(id).expect("flow disappeared");
            self.allocator
                .on_flow_removed(id, self.paths.get(f.spec.path));
            if let Some(p) = self.probe.as_mut() {
                p.flow_removed(now, id, true);
            }
            self.fct.record((now - f.started).as_secs_f64());
            done.push(Completion {
                handle: FlowHandle(id),
                tag: f.spec.tag,
                started: f.started,
                finished: now,
                size_bits: f.spec.size_bits,
            });
            self.rates_dirty = true;
        }
        done
    }

    /// The earliest instant at which some flow will complete under current
    /// rates, or `None` if no flow is making progress.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        self.recompute_if_dirty();
        let mut best: Option<f64> = None;
        for (_, f) in self.flows.iter() {
            if f.rate_bps > RATE_EPS {
                let secs = f.remaining_bits / f.rate_bps;
                best = Some(match best {
                    Some(b) => b.min(secs),
                    None => secs,
                });
            }
        }
        best.map(|secs| {
            let ns = (secs * 1e9).ceil().max(1.0) as u64;
            SimTime::from_nanos(self.clock.as_nanos().saturating_add(ns))
        })
    }

    /// Sum of allocated rates over a set of links (e.g. all Aggregation
    /// ingress ports), in bits/s.
    pub fn aggregate_rate(&mut self, links: &[LinkId]) -> f64 {
        self.recompute_if_dirty();
        links
            .iter()
            .map(|l| self.links[l.0 as usize].allocated_bps)
            .sum()
    }

    /// Recompute fair-share rates if topology/flow membership changed.
    pub fn recompute_if_dirty(&mut self) {
        if self.rates_dirty {
            let before = self.scope;
            let FlowNet {
                ref mut links,
                ref mut flows,
                ref paths,
                ref mut hot_links,
                ref mut allocator,
                ref mut scope,
                ..
            } = *self;
            allocator.recompute(&mut AllocCtx {
                flows,
                links,
                paths,
                hot_links,
                scope,
            });
            self.rates_dirty = false;
            if let Some(p) = self.probe.as_mut() {
                let d = self.scope.since(&before);
                p.rate_recompute(self.clock, d.flows_touched, d.links_touched, d.flows_active);
            }
        }
    }

    /// Inert alias, kept because external benchmark code reads it: no
    /// allocator memoizes rates, so this always returns `None`.
    pub fn surrogate_stats(&self) -> Option<MemoStats> {
        None
    }

    /// Apply progress/queues from `clock` to `now` using current rates.
    ///
    /// Rates are only needed once time moves: at the same instant nothing
    /// integrates, so the recompute waits and same-instant mutations batch.
    fn integrate_to(&mut self, now: SimTime) {
        assert!(
            now >= self.clock,
            "FlowNet time went backwards: {:?} < {:?}",
            now,
            self.clock
        );
        if now == self.clock {
            return;
        }
        self.recompute_if_dirty();
        let dt = (now - self.clock).as_secs_f64();
        for (_, f) in self.flows.iter_mut() {
            if f.rate_bps > 0.0 {
                f.remaining_bits = (f.remaining_bits - f.rate_bps * dt).max(0.0);
            }
        }
        // Only hot links can change: idle links have zero rate, zero
        // offered load and an empty queue. Each link integrates on its own,
        // so the walk order does not matter.
        let relax = (-dt / QUEUE_RELAX_TAU_S).exp();
        let FlowNet {
            ref mut links,
            ref mut hot_links,
            ..
        } = *self;
        hot_links.retain(|li| {
            let l = &mut links[li as usize];
            l.carried_bits += l.allocated_bps * dt;
            // Queue model: integrate offered-minus-capacity while the
            // link is over-offered. When offered load is at or below
            // capacity the standing queue relaxes exponentially — RDMA
            // congestion control (DCQCN-style) backs senders off just
            // under line rate, so a queue with no *sustained* overload
            // drains within tens of milliseconds instead of standing
            // forever at the offered == capacity fixed point.
            let net_in = l.offered_bps - l.capacity_bps();
            if net_in > 0.0 {
                let q = l.queue_bits + net_in * dt;
                if q > l.buffer_bits {
                    l.dropped_bits += q - l.buffer_bits;
                    l.queue_bits = l.buffer_bits;
                } else {
                    l.queue_bits = q;
                }
            } else {
                let drained = (l.queue_bits + net_in * dt).max(0.0);
                l.queue_bits = drained * relax;
            }
            l.peak_queue_bits = l.peak_queue_bits.max(l.queue_bits);
            let still_hot = l.active_flows > 0 || l.queue_bits > 1.0;
            if !still_hot {
                l.queue_bits = 0.0;
            }
            still_hot
        });
        self.clock = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::CountingProbe;
    use std::sync::{Arc, Mutex};

    const GBPS: f64 = 1e9;

    /// Test probe sharing its counters with the asserting test body.
    /// `Arc<Mutex<...>>` (not `Rc<RefCell<...>>`) so the probe is `Send`
    /// like every production probe must be.
    struct SharedCounting(Arc<Mutex<CountingProbe>>);

    impl NetProbe for SharedCounting {
        fn flow_added(&mut self, t: SimTime, flow: u64, path_links: u32, size_bits: f64) {
            self.0
                .lock()
                .unwrap()
                .flow_added(t, flow, path_links, size_bits);
        }
        fn flow_removed(&mut self, t: SimTime, flow: u64, completed: bool) {
            self.0.lock().unwrap().flow_removed(t, flow, completed);
        }
        fn rate_recompute(&mut self, t: SimTime, f: u64, l: u64, a: u64) {
            self.0.lock().unwrap().rate_recompute(t, f, l, a);
        }
        fn link_state(&mut self, t: SimTime, link: u32, up: bool) {
            self.0.lock().unwrap().link_state(t, link, up);
        }
    }

    #[test]
    fn flownet_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<FlowNet>();
    }

    #[test]
    fn probe_sees_flow_lifecycle_and_recomputes() {
        let counts = Arc::new(Mutex::new(CountingProbe::default()));
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        net.set_probe(Some(Box::new(SharedCounting(counts.clone()))));
        assert!(net.has_probe());
        let s = spec(&mut net, &l, 100.0 * GBPS, f64::INFINITY, 1);
        let h1 = net.start_flow(SimTime::ZERO, s);
        let s2 = spec(&mut net, &l, 100.0 * GBPS, f64::INFINITY, 2);
        let _h2 = net.start_flow(SimTime::ZERO, s2);
        net.kill_flow(SimTime::ZERO, h1);
        let t = net.next_completion().expect("one flow left");
        let done = net.advance(t);
        assert_eq!(done.len(), 1);
        net.set_link_up(l[0], false);
        net.set_link_up(l[0], false); // no-op: no state change, no callback
        let c = *counts.lock().unwrap();
        assert_eq!(c.flows_added, 2);
        assert_eq!(c.flows_killed, 1);
        assert_eq!(c.flows_completed, 1);
        assert_eq!(c.link_changes, 1);
        // The two starts and the kill happen at one instant and batch into
        // the single recompute `next_completion` makes; the completion and
        // the link change leave rates dirty but are never observed.
        assert_eq!(c.recomputes, 1, "same-instant mutations batch");
    }

    #[test]
    fn hot_links_insert_remove_retain() {
        let mut hot = HotLinks::default();
        for _ in 0..5 {
            hot.push_link();
        }
        for l in [3, 1, 4, 1] {
            hot.insert(l);
        }
        assert_eq!(hot.as_slice(), &[3, 1, 4], "insert is idempotent");
        hot.remove(3);
        hot.remove(0);
        assert_eq!(hot.as_slice(), &[4, 1], "the last link fills the gap");
        hot.insert(2);
        hot.retain(|l| l != 1);
        assert_eq!(hot.as_slice(), &[4, 2]);
        hot.insert(1);
        hot.remove(4);
        assert_eq!(hot.as_slice(), &[1, 2], "positions survive retain");
        hot.remove(1);
        hot.remove(2);
        assert!(hot.as_slice().is_empty());
        assert!(hot.pos.iter().all(|&p| p == NOT_HOT));
    }

    fn net_with_links(caps: &[f64]) -> (FlowNet, Vec<LinkId>) {
        let mut net = FlowNet::new();
        let ids = caps
            .iter()
            .map(|&c| net.add_link(c, f64::INFINITY))
            .collect();
        (net, ids)
    }

    fn spec(net: &mut FlowNet, path: &[LinkId], size: f64, demand: f64, tag: u64) -> FlowSpec {
        FlowSpec {
            path: net.intern_path(path),
            size_bits: size,
            demand_bps: demand,
            tag,
        }
    }

    #[test]
    fn single_flow_gets_bottleneck_rate() {
        let (mut net, l) = net_with_links(&[400.0 * GBPS, 100.0 * GBPS]);
        let s = spec(&mut net, &l, 100.0 * GBPS, f64::INFINITY, 1);
        let h = net.start_flow(SimTime::ZERO, s);
        assert_eq!(net.flow_rate(h), Some(100.0 * GBPS));
        // 100 Gbit over 100 Gbps = 1 second.
        let t = net.next_completion().expect("has completion");
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6, "{t:?}");
        let done = net.advance(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 1);
        assert_eq!(net.flow_count(), 0);
    }

    #[test]
    fn demand_caps_rate() {
        let (mut net, l) = net_with_links(&[400.0 * GBPS]);
        let s = spec(&mut net, &l, GBPS, 50.0 * GBPS, 0);
        let h = net.start_flow(SimTime::ZERO, s);
        assert_eq!(net.flow_rate(h), Some(50.0 * GBPS));
    }

    #[test]
    fn two_flows_share_fairly() {
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        let s = spec(&mut net, &l, GBPS, f64::INFINITY, 0);
        let a = net.start_flow(SimTime::ZERO, s);
        let b = net.start_flow(SimTime::ZERO, FlowSpec { tag: 1, ..s });
        assert_eq!(net.flow_rate(a), Some(50.0 * GBPS));
        assert_eq!(net.flow_rate(b), Some(50.0 * GBPS));
    }

    #[test]
    fn max_min_redistributes_demand_slack() {
        // One flow capped at 20G, the other should get the remaining 80G.
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        let sa = spec(&mut net, &l, GBPS, 20.0 * GBPS, 0);
        let a = net.start_flow(SimTime::ZERO, sa);
        let b = net.start_flow(
            SimTime::ZERO,
            FlowSpec {
                demand_bps: f64::INFINITY,
                tag: 1,
                ..sa
            },
        );
        assert!((net.flow_rate(a).unwrap() - 20.0 * GBPS).abs() < 1.0);
        assert!((net.flow_rate(b).unwrap() - 80.0 * GBPS).abs() < 1.0);
    }

    #[test]
    fn multi_bottleneck_classic_maxmin() {
        // Classic parking-lot: flow X crosses both links, flows Y and Z one each.
        // cap(L0)=100, cap(L1)=50. Max-min: X gets 25 (bottleneck on L1 with Z),
        // Z gets 25, Y gets 75.
        let (mut net, l) = net_with_links(&[100.0 * GBPS, 50.0 * GBPS]);
        let sx = spec(&mut net, &[l[0], l[1]], GBPS, f64::INFINITY, 0);
        let sy = spec(&mut net, &[l[0]], GBPS, f64::INFINITY, 1);
        let sz = spec(&mut net, &[l[1]], GBPS, f64::INFINITY, 2);
        let x = net.start_flow(SimTime::ZERO, sx);
        let y = net.start_flow(SimTime::ZERO, sy);
        let z = net.start_flow(SimTime::ZERO, sz);
        assert!((net.flow_rate(x).unwrap() - 25.0 * GBPS).abs() < 1e3);
        assert!((net.flow_rate(y).unwrap() - 75.0 * GBPS).abs() < 1e3);
        assert!((net.flow_rate(z).unwrap() - 25.0 * GBPS).abs() < 1e3);
    }

    #[test]
    fn completion_order_and_rate_rebalance() {
        // Two equal flows share a link; after one finishes the other speeds up.
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        let sa = spec(&mut net, &l, 50.0 * GBPS, f64::INFINITY, 0);
        let _a = net.start_flow(SimTime::ZERO, sa);
        let b = net.start_flow(
            SimTime::ZERO,
            FlowSpec {
                size_bits: 100.0 * GBPS,
                tag: 1,
                ..sa
            },
        );
        // Both at 50G. Flow a (50Gbit) finishes at t=1s.
        let t1 = net.next_completion().unwrap();
        assert!((t1.as_secs_f64() - 1.0).abs() < 1e-6);
        let done = net.advance(t1);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 0);
        // b has 50Gbit left, now at full 100G: finishes 0.5s later.
        assert!((net.flow_rate(b).unwrap() - 100.0 * GBPS).abs() < 1.0);
        let t2 = net.next_completion().unwrap();
        assert!((t2.as_secs_f64() - 1.5).abs() < 1e-6, "{t2:?}");
    }

    #[test]
    fn link_down_stalls_flows_and_repair_resumes() {
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        let s = spec(&mut net, &l, 100.0 * GBPS, f64::INFINITY, 0);
        let h = net.start_flow(SimTime::ZERO, s);
        net.set_link_up(l[0], false);
        assert_eq!(net.flow_rate(h), Some(0.0));
        assert!(
            net.next_completion().is_none(),
            "stalled flow never completes"
        );
        // Advance while down: no progress.
        let done = net.advance(SimTime::from_secs(5));
        assert!(done.is_empty());
        assert_eq!(net.flow_remaining(h), Some(100.0 * GBPS));
        net.set_link_up(l[0], true);
        let t = net.next_completion().unwrap();
        assert!((t.as_secs_f64() - 6.0).abs() < 1e-6, "{t:?}");
    }

    #[test]
    fn queue_builds_when_offered_exceeds_capacity() {
        // Three 200G-demand flows hash onto one 400G port: offered 600G,
        // queue grows at 200Gbit/s.
        let (mut net, l) = net_with_links(&[400.0 * GBPS]);
        let s = spec(&mut net, &l, 1e15, 200.0 * GBPS, 0);
        for tag in 0..3 {
            net.start_flow(SimTime::ZERO, FlowSpec { tag, ..s });
        }
        net.advance(SimTime::from_millis(1));
        let q = net.link(l[0]).queue_bits;
        // 200Gbit/s * 1ms = 0.2 Gbit.
        assert!((q - 0.2 * GBPS).abs() < 1e3, "queue {q}");
    }

    #[test]
    fn queue_drains_and_drops_respect_buffer() {
        let mut net = FlowNet::new();
        let l = net.add_link(400.0 * GBPS, 0.1 * GBPS); // 100Mbit buffer
        let s = spec(&mut net, &[l], 200.0 * GBPS * 0.01, 200.0 * GBPS, 0);
        for tag in 0..3 {
            net.start_flow(SimTime::ZERO, FlowSpec { tag, ..s });
        }
        net.advance(SimTime::from_millis(2));
        let ls = net.link(l);
        assert_eq!(ls.queue_bits, 0.1 * GBPS, "queue clamped at buffer");
        assert!(ls.dropped_bits > 0.0, "overflow counted as drops");
        // Let flows finish, then inject nothing: queue drains.
        let mut guard = 0;
        while net.flow_count() > 0 {
            let t = net.next_completion().expect("progressing");
            net.advance(t);
            guard += 1;
            assert!(guard < 10, "completion loop runaway");
        }
        net.advance(SimTime::from_secs(1));
        assert_eq!(net.link(l).queue_bits, 0.0, "queue drains when idle");
    }

    #[test]
    fn carried_bits_accumulate() {
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        let s = spec(&mut net, &l, 100.0 * GBPS, f64::INFINITY, 0);
        net.start_flow(SimTime::ZERO, s);
        let t = net.next_completion().unwrap();
        net.advance(t);
        let carried = net.link(l[0]).carried_bits;
        assert!((carried - 100.0 * GBPS).abs() < 1e3, "carried {carried}");
    }

    #[test]
    fn kill_flow_frees_bandwidth() {
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        let s = spec(&mut net, &l, 1e15, f64::INFINITY, 0);
        let a = net.start_flow(SimTime::ZERO, s);
        let b = net.start_flow(SimTime::ZERO, FlowSpec { tag: 1, ..s });
        assert_eq!(net.flow_rate(b), Some(50.0 * GBPS));
        assert!(net.kill_flow(SimTime::from_millis(1), a));
        assert!(
            !net.kill_flow(SimTime::from_millis(1), a),
            "second kill is no-op"
        );
        assert_eq!(net.flow_rate(b), Some(100.0 * GBPS));
    }

    #[test]
    fn staggered_start_times() {
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        let s = spec(&mut net, &l, 100.0 * GBPS, f64::INFINITY, 0);
        let a = net.start_flow(SimTime::ZERO, s);
        // At t=0.5s, a has 50Gbit left; b joins and they share.
        let _b = net.start_flow(SimTime::from_millis(500), FlowSpec { tag: 1, ..s });
        assert!((net.flow_remaining(a).unwrap() - 50.0 * GBPS).abs() < 1e3);
        assert_eq!(net.flow_rate(a), Some(50.0 * GBPS));
        // a finishes at 0.5 + 50/50 = 1.5s.
        let t = net.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "empty path")]
    fn empty_path_rejected() {
        let mut net = FlowNet::new();
        net.intern_path(&[]);
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn bad_link_rejected() {
        let mut net = FlowNet::new();
        net.intern_path(&[LinkId(3)]);
    }

    #[test]
    #[should_panic(expected = "not interned")]
    fn foreign_path_rejected() {
        let mut net = FlowNet::new();
        net.add_link(GBPS, f64::INFINITY);
        net.start_flow(
            SimTime::ZERO,
            FlowSpec {
                path: PathId(5),
                size_bits: 1.0,
                demand_bps: 1.0,
                tag: 0,
            },
        );
    }

    #[test]
    fn fct_sketch_records_completions_not_kills() {
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        let s = spec(&mut net, &l, 100.0 * GBPS, f64::INFINITY, 0);
        net.start_flow(SimTime::ZERO, s);
        let victim = net.start_flow(SimTime::ZERO, FlowSpec { tag: 1, ..s });
        net.kill_flow(SimTime::from_millis(100), victim);
        let t = net.next_completion().expect("survivor completes");
        net.advance(t);
        assert_eq!(net.fct_sketch().count(), 1, "kills are not FCTs");
        let fct = net.fct_sketch().quantile(0.5).unwrap();
        // 100 Gbit: shared 100ms at 50G (5 Gbit done), rest at 100G.
        assert!((fct - 1.05).abs() < 0.02, "fct {fct}");
    }

    #[test]
    fn estimator_sees_post_admission_link_views() {
        use crate::tail::LinkDecompositionEstimator;
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        net.set_estimator(Some(Box::new(LinkDecompositionEstimator::new())));
        assert!(net.has_estimator());
        let s = spec(&mut net, &l, 100.0 * GBPS, f64::INFINITY, 0);
        net.start_flow(SimTime::ZERO, s);
        net.start_flow(SimTime::ZERO, FlowSpec { tag: 1, ..s });
        let e = net.take_estimator().expect("estimator attached");
        assert!(!net.has_estimator());
        assert_eq!(e.fct_sketch().count(), 2);
        // Second flow saw 2 active flows → ~2s share estimate (plus the
        // M/M/1 inflation from the first flow's full-utilization epoch).
        let worst = e.fct_sketch().max().unwrap();
        assert!(
            worst >= 2.0,
            "second estimate accounts for sharing: {worst}"
        );
    }

    #[test]
    fn estimator_skips_flows_on_down_links() {
        use crate::tail::LinkDecompositionEstimator;
        let (mut net, l) = net_with_links(&[100.0 * GBPS]);
        net.set_link_up(l[0], false);
        net.set_estimator(Some(Box::new(LinkDecompositionEstimator::new())));
        let s = spec(&mut net, &l, GBPS, f64::INFINITY, 0);
        net.start_flow(SimTime::ZERO, s);
        let e = net.take_estimator().unwrap();
        assert_eq!(e.fct_sketch().count(), 0);
        assert_eq!(e.skipped(), 1);
    }

    #[test]
    fn many_flows_conserve_capacity() {
        let (mut net, l) = net_with_links(&[400.0 * GBPS]);
        let s = spec(&mut net, &l, 1e12, 200.0 * GBPS, 0);
        let hs: Vec<_> = (0..64)
            .map(|tag| net.start_flow(SimTime::ZERO, FlowSpec { tag, ..s }))
            .collect();
        let total: f64 = hs.iter().map(|&h| net.flow_rate(h).unwrap()).sum();
        assert!(
            total <= 400.0 * GBPS * (1.0 + 1e-9),
            "allocation {total} exceeds capacity"
        );
        assert!((total - 400.0 * GBPS).abs() < 1.0, "work-conserving");
    }

    #[test]
    fn both_allocators_agree_on_parking_lot() {
        for kind in [AllocatorKind::Dense, AllocatorKind::Incremental] {
            let mut net = FlowNet::with_allocator(kind);
            let l0 = net.add_link(100.0 * GBPS, f64::INFINITY);
            let l1 = net.add_link(50.0 * GBPS, f64::INFINITY);
            let sx = spec(&mut net, &[l0, l1], GBPS, f64::INFINITY, 0);
            let sy = spec(&mut net, &[l0], GBPS, f64::INFINITY, 1);
            let sz = spec(&mut net, &[l1], GBPS, f64::INFINITY, 2);
            let x = net.start_flow(SimTime::ZERO, sx);
            let y = net.start_flow(SimTime::ZERO, sy);
            let z = net.start_flow(SimTime::ZERO, sz);
            assert_eq!(net.allocator_kind(), kind);
            assert!((net.flow_rate(x).unwrap() - 25.0 * GBPS).abs() < 1e3);
            assert!((net.flow_rate(y).unwrap() - 75.0 * GBPS).abs() < 1e3);
            assert!((net.flow_rate(z).unwrap() - 25.0 * GBPS).abs() < 1e3);
            assert!(net.alloc_scope().events > 0);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const GBPS: f64 = 1e9;

    proptest! {
        /// Invariant: the max-min allocation never oversubscribes any link
        /// and is work-conserving on each link that has an unfrozen flow.
        #[test]
        fn allocation_feasible(
            caps in proptest::collection::vec(1u64..=400, 2..6),
            flows in proptest::collection::vec(
                (proptest::collection::vec(0usize..6, 1..4), 1u64..=400),
                1..20
            ),
        ) {
            let mut net = FlowNet::new();
            let links: Vec<LinkId> = caps.iter()
                .map(|&c| net.add_link(c as f64 * GBPS, f64::INFINITY))
                .collect();
            let mut handles = Vec::new();
            for (pick, demand) in &flows {
                let mut path: Vec<LinkId> = pick.iter()
                    .map(|&i| links[i % links.len()])
                    .collect();
                path.dedup();
                let path = net.intern_path(&path);
                handles.push(net.start_flow(SimTime::ZERO, FlowSpec {
                    path,
                    size_bits: 1e12,
                    demand_bps: *demand as f64 * GBPS,
                    tag: 0,
                }));
            }
            net.recompute_if_dirty();
            // Feasibility: no link oversubscribed.
            for (i, &l) in links.iter().enumerate() {
                let alloc = net.link(l).allocated_bps;
                prop_assert!(alloc <= caps[i] as f64 * GBPS * (1.0 + 1e-6),
                    "link {i} oversubscribed: {alloc}");
            }
            // No flow exceeds its demand.
            for (h, (_, demand)) in handles.iter().zip(&flows) {
                let r = net.flow_rate(*h).unwrap();
                prop_assert!(r <= *demand as f64 * GBPS * (1.0 + 1e-6));
                prop_assert!(r >= 0.0);
            }
        }

        /// Invariant: progress conservation — after advancing by dt, the
        /// total remaining shrinks by exactly the sum of rate*dt.
        #[test]
        fn progress_conservation(
            nflows in 1usize..10,
            dt_ms in 1u64..1000,
        ) {
            let mut net = FlowNet::new();
            let l = net.add_link(400.0 * GBPS, f64::INFINITY);
            let path = net.intern_path(&[l]);
            let mut handles = Vec::new();
            for tag in 0..nflows {
                handles.push(net.start_flow(SimTime::ZERO, FlowSpec {
                    path,
                    size_bits: 1e15,
                    demand_bps: 200.0 * GBPS,
                    tag: tag as u64,
                }));
            }
            let rates: Vec<f64> = handles.iter().map(|&h| net.flow_rate(h).unwrap()).collect();
            let before: f64 = handles.iter().map(|&h| net.flow_remaining(h).unwrap()).sum();
            net.advance(SimTime::from_millis(dt_ms));
            let after: f64 = handles.iter().map(|&h| net.flow_remaining(h).unwrap()).sum();
            let expect = rates.iter().sum::<f64>() * dt_ms as f64 / 1e3;
            // Tolerance accounts for cancellation when differencing the
            // ~1e15-bit totals (ulp of the sum dominates at small dt).
            let tol = expect.abs() * 1e-6 + before * 1e-12 + 1.0;
            prop_assert!(((before - after) - expect).abs() < tol,
                "progress {} vs expected {}", before - after, expect);
        }

        /// Invariant: max-min fairness — you cannot raise one flow's rate
        /// without lowering a flow of equal-or-lower rate. We check the
        /// equivalent bottleneck condition: every flow is either at demand
        /// or crosses a saturated link where it has a maximal rate.
        #[test]
        fn bottleneck_condition(
            demands in proptest::collection::vec(1u64..=400, 2..12),
        ) {
            let mut net = FlowNet::new();
            let shared = net.add_link(400.0 * GBPS, f64::INFINITY);
            let path = net.intern_path(&[shared]);
            let handles: Vec<FlowHandle> = demands.iter().enumerate().map(|(i, &d)| {
                net.start_flow(SimTime::ZERO, FlowSpec {
                    path,
                    size_bits: 1e15,
                    demand_bps: d as f64 * GBPS,
                    tag: i as u64,
                })
            }).collect();
            net.recompute_if_dirty();
            let rates: Vec<f64> = handles.iter().map(|&h| net.flow_rate(h).unwrap()).collect();
            let saturated = net.link(shared).allocated_bps >= 400.0 * GBPS * (1.0 - 1e-6);
            let max_rate = rates.iter().cloned().fold(0.0, f64::max);
            for (i, &r) in rates.iter().enumerate() {
                let at_demand = r >= demands[i] as f64 * GBPS - 1.0;
                let is_max_on_saturated = saturated && r >= max_rate - 1.0;
                prop_assert!(at_demand || is_max_on_saturated,
                    "flow {i} rate {r} neither demand-limited nor maximal on bottleneck");
            }
        }
    }
}

//! Rate allocation behind the [`RateAllocator`] seam.
//!
//! The fluid model assigns every active flow a max-min fair rate. Two
//! implementations share one trait:
//!
//! * [`DenseMaxMin`] — the original progressive-filling solver, recomputing
//!   every flow from scratch on every perturbation. O(active flows × hops ×
//!   freeze-rounds) per event; kept as the reference oracle.
//! * [`IncrementalMaxMin`] — maintains per-link flow membership and, on a
//!   flow add/remove or link change, recomputes only the **connected
//!   components** of flows and links reachable from the perturbed elements
//!   through shared links. Flows outside them keep their rates
//!   bitwise-unchanged. The default.
//!
//! The incremental scoping is exact, not approximate: max-min allocation
//! decomposes across connected components of the flow↔link sharing graph.
//! A flow's rate depends only on the links it crosses and, transitively, on
//! the flows sharing those links — progressive filling never lets one
//! component's freeze order influence another's water level. The BFS
//! closure computed here guarantees both directions of that independence:
//! every flow crossing a component link is in the component, and every link
//! of a component flow is too, so the restricted fill sees exactly the
//! sub-problem the global fill would solve for those flows.
//!
//! Both allocators fill one connected component at a time, flows in
//! ascending-id order, with the same `ComponentFill::fill` arithmetic.
//! They find the components independently: the dense solver partitions
//! all flows with a union-find over links, the incremental one grows one
//! BFS wave per component from its dirty seeds. Interleaving the filling
//! rounds across components would change float summation order and leave
//! the implementations agreeing only to ~ulp; identical per-component
//! arithmetic makes their rates **bitwise equal**, so figures regenerate
//! byte-identically under either allocator.
//!
//! Every recompute records how much it touched in a
//! [`crate::stats::RecomputeScope`], making the incremental win observable
//! (`hpn-experiments`/benches report flows-touched-per-event ratios).

use crate::arena::FlowArena;
use crate::flownet::{FlowSpec, HotLinks, LinkId, LinkState, RATE_EPS};
use crate::fxhash::FxHashMap;
use crate::path::{PathId, PathInterner};
use crate::stats::RecomputeScope;

/// Which allocator a [`crate::FlowNet`] runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AllocatorKind {
    /// Full progressive filling on every perturbation (reference oracle).
    Dense,
    /// Component-scoped recomputation (the default).
    #[default]
    Incremental,
    /// Alias of [`AllocatorKind::Incremental`], kept so callers that name
    /// it still compile and run: [`AllocatorKind::build`] returns the
    /// incremental allocator, and a net built from it reports
    /// `Incremental`.
    Parallel,
    /// Inert alias of [`AllocatorKind::Incremental`], kept only because
    /// external benchmark code names it. It builds, names and reports the
    /// incremental allocator, like [`AllocatorKind::Parallel`];
    /// [`AllocatorKind::from_name`] does not accept it.
    Surrogate,
}

impl AllocatorKind {
    /// Parse a name as the experiment binary's `HPN_ALLOCATOR` accepts it
    /// (`dense`, `incremental`, or the `parallel` alias).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "dense" => Some(AllocatorKind::Dense),
            "incremental" => Some(AllocatorKind::Incremental),
            "parallel" => Some(AllocatorKind::Parallel),
            _ => None,
        }
    }

    /// The name of the allocator this kind builds, as manifests and
    /// telemetry labels record it (the aliases report `incremental`, the
    /// allocator that actually runs).
    pub fn name(self) -> &'static str {
        match self {
            AllocatorKind::Dense => "dense",
            _ => "incremental",
        }
    }

    /// Construct the allocator this kind names.
    pub fn build(self) -> Box<dyn RateAllocator> {
        match self {
            AllocatorKind::Dense => Box::new(DenseMaxMin::default()),
            _ => Box::new(IncrementalMaxMin::default()),
        }
    }
}

/// Mutable view of the network state a recompute operates on. Borrows are
/// split out of `FlowNet` so allocators (stored inside the net) can work on
/// the rest of it.
pub struct AllocCtx<'a> {
    /// Active flows; allocators write rates back through this.
    pub flows: &'a mut FlowArena,
    /// Per-link state; capacities are read, aggregates written.
    pub links: &'a mut [LinkState],
    /// Resolves each flow spec's `PathId` to its link sequence.
    pub paths: &'a PathInterner,
    /// Links that carry flows or hold queue; the integration step only
    /// walks these. After `recompute` it must equal {links with
    /// `active_flows > 0` or `queue_bits > 0`}: insert every link whose
    /// aggregates now qualify and remove every refreshed link that does not
    /// (each O(1) on [`HotLinks`]).
    pub hot_links: &'a mut HotLinks,
    /// Recompute-scope counters to record into.
    pub scope: &'a mut RecomputeScope,
}

/// Strategy for assigning max-min fair rates.
///
/// `FlowNet` calls the `on_*` hooks eagerly as the network mutates (they
/// must stay cheap — O(path length)) and `recompute` lazily, once, before
/// rates are next observed or time next moves; every mutation at one
/// instant batches into one `recompute`.
pub trait RateAllocator: Send {
    /// Which kind this is (for reporting).
    fn kind(&self) -> AllocatorKind;

    /// A link was appended to the network (links are never removed).
    fn on_link_added(&mut self, link: LinkId) {
        let _ = link;
    }

    /// A flow was injected with the given spec and resolved path. The spec
    /// is passed so membership-tracking allocators can record the flow's
    /// `(path, demand)` problem row up front and never page the flow arena
    /// back in during `recompute` closures.
    fn on_flow_added(&mut self, id: u64, spec: &FlowSpec, path: &[LinkId]) {
        let _ = (id, spec, path);
    }

    /// A flow completed or was killed; `path` is its resolved path.
    fn on_flow_removed(&mut self, id: u64, path: &[LinkId]) {
        let _ = (id, path);
    }

    /// A link's capacity or up/down state changed.
    fn on_link_changed(&mut self, link: LinkId) {
        let _ = link;
    }

    /// Recompute rates for everything the accumulated events may have
    /// affected, write them back, refresh the touched links' aggregates
    /// (`active_flows`, `allocated_bps`, `offered_bps`), update the hot
    /// set, and record the touched scope.
    fn recompute(&mut self, ctx: &mut AllocCtx<'_>);
}

/// Find with path compression over the epoch-stamped link union-find; a
/// link seen for the first time this epoch lazily initialises to itself
/// (no O(link-table) reset per solve).
fn uf_find(parent: &mut [u32], stamp: &mut [u64], epoch: u64, x: u32) -> u32 {
    let xi = x as usize;
    if stamp[xi] != epoch {
        stamp[xi] = epoch;
        parent[xi] = x;
        return x;
    }
    let mut root = x;
    while parent[root as usize] != root {
        root = parent[root as usize];
    }
    let mut cur = x;
    while parent[cur as usize] != root {
        let next = parent[cur as usize];
        parent[cur as usize] = root;
        cur = next;
    }
    root
}

/// The shared solver: fill connected components of the flow↔link sharing
/// graph by progressive filling ([`ComponentFill::fill`]), one at a time,
/// with reused scratch.
///
/// [`ComponentFill::run`] partitions a whole flow set itself (the dense
/// solver); [`ComponentFill::fill_component`] takes one component the
/// caller already isolated (the incremental solver). Both run the same
/// per-component arithmetic, which is what makes the two allocators'
/// results bitwise identical: a component's filling sees exactly the same
/// operands in the same order no matter which flows outside it exist.
#[derive(Default)]
pub(crate) struct ComponentFill {
    free: Vec<f64>,
    unfrozen_on: Vec<u32>,
    active: Vec<usize>,
    unfrozen: Vec<usize>,
    uf_parent: Vec<u32>,
    uf_stamp: Vec<u64>,
    epoch: u64,
}

impl ComponentFill {
    /// Partition `flows` into connected components of the flow↔link
    /// sharing graph. Returns groups of indices into `flows`, components in
    /// first-seen (ascending smallest-flow-id) order, flow order preserved
    /// within each group. Deterministic: depends only on `flows` order and
    /// the paths.
    fn partition(
        &mut self,
        nlinks: usize,
        paths: &PathInterner,
        flows: &[(PathId, f64)],
    ) -> Vec<Vec<usize>> {
        self.epoch += 1;
        let epoch = self.epoch;
        self.uf_parent.resize(nlinks, 0);
        self.uf_stamp.resize(nlinks, 0);
        let (parent, stamp) = (&mut self.uf_parent[..], &mut self.uf_stamp[..]);
        for &(path, _) in flows {
            let ls = paths.get(path);
            let root = uf_find(parent, stamp, epoch, ls[0].0);
            for l in &ls[1..] {
                let r = uf_find(parent, stamp, epoch, l.0);
                if r != root {
                    parent[r as usize] = root;
                }
            }
        }
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of: FxHashMap<u32, usize> = FxHashMap::default();
        for (i, &(path, _)) in flows.iter().enumerate() {
            let root = uf_find(parent, stamp, epoch, paths.get(path)[0].0);
            let gi = *group_of.entry(root).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push(i);
        }
        groups
    }

    /// Partition `flows` and fill each component sequentially with shared
    /// scratch. Returns rates per flow; [`ComponentFill::filled_links`]
    /// then lists every link used.
    fn run(
        &mut self,
        links: &[LinkState],
        paths: &PathInterner,
        flows: &[(PathId, f64)],
    ) -> Vec<f64> {
        let groups = self.partition(links.len(), paths, flows);
        let mut rate = vec![0.0f64; flows.len()];
        let mut comp: Vec<(PathId, f64)> = Vec::new();
        let mut comp_rate: Vec<f64> = Vec::new();
        self.active.clear();
        for idxs in &groups {
            comp.clear();
            comp.extend(idxs.iter().map(|&i| flows[i]));
            comp_rate.resize(comp.len(), 0.0);
            self.fill(links, paths, &comp, &mut comp_rate);
            for (&i, &ri) in idxs.iter().zip(comp_rate.iter()) {
                rate[i] = ri;
            }
        }
        rate
    }

    /// The links the last [`ComponentFill::run`] or
    /// [`ComponentFill::fill_component`] crossed, each once.
    fn filled_links(&self) -> &[usize] {
        &self.active
    }

    /// Fill one pre-isolated component (all `flows` share one true
    /// component) with this solver's scratch, writing its rates into
    /// `rate`. This is exactly the arithmetic one [`ComponentFill::run`]
    /// group performs, so the incremental allocator, which finds its
    /// components itself, gets rates bitwise-equal to the dense solver's.
    pub(crate) fn fill_component(
        &mut self,
        links: &[LinkState],
        paths: &PathInterner,
        flows: &[(PathId, f64)],
        rate: &mut [f64],
    ) {
        self.active.clear();
        self.fill(links, paths, flows, rate);
    }

    /// Progressive filling of one connected component: all flows ramp up
    /// together until a link saturates or a flow reaches its demand, then
    /// those freeze and the rest keep filling.
    ///
    /// `flows` lists `(path, demand)` for the component's flows in
    /// ascending flow-id order (determinism); the fill writes each flow's
    /// rate into the same position of `rate`. The per-link scratch
    /// (`free`, `unfrozen_on`) is sized to the link table and zero outside
    /// the links being filled, and is reset on them before returning. The
    /// links crossed are appended to `active`, first-crossed order, and
    /// `unfrozen` holds the not-yet-frozen flow indices; all four are
    /// reused, so a fill allocates nothing once they have grown.
    fn fill(
        &mut self,
        links: &[LinkState],
        paths: &PathInterner,
        flows: &[(PathId, f64)],
        rate: &mut [f64],
    ) {
        let ComponentFill {
            free,
            unfrozen_on,
            active,
            unfrozen: unfrozen_list,
            ..
        } = self;
        let n = flows.len();
        free.resize(links.len(), 0.0);
        unfrozen_on.resize(links.len(), 0);
        let free = &mut free[..];
        let unfrozen_on = &mut unfrozen_on[..];
        let base = active.len();
        let rate = &mut rate[..n];
        rate.fill(0.0);
        for &(path, _) in flows {
            for l in paths.get(path) {
                let li = l.0 as usize;
                if unfrozen_on[li] == 0 {
                    active.push(li);
                    free[li] = links[li].capacity_bps();
                }
                unfrozen_on[li] += 1;
            }
        }
        let active_links = &active[base..];

        unfrozen_list.clear();
        unfrozen_list.extend(0..n);
        let freeze = |i: usize, unfrozen_on: &mut [u32]| {
            for l in paths.get(flows[i].0) {
                unfrozen_on[l.0 as usize] -= 1;
            }
        };

        // Immediately freeze flows crossing a dead (zero-capacity) link.
        unfrozen_list.retain(|&i| {
            let dead = paths
                .get(flows[i].0)
                .iter()
                .any(|l| links[l.0 as usize].capacity_bps() <= RATE_EPS);
            if dead {
                freeze(i, unfrozen_on);
            }
            !dead
        });

        while !unfrozen_list.is_empty() {
            // The common increment: bounded by the tightest link fair
            // share and the smallest remaining demand headroom.
            let mut delta = f64::INFINITY;
            for &li in active_links {
                if unfrozen_on[li] > 0 {
                    delta = delta.min(free[li] / unfrozen_on[li] as f64);
                }
            }
            for &i in unfrozen_list.iter() {
                delta = delta.min(flows[i].1 - rate[i]);
            }
            if !delta.is_finite() {
                // No unfrozen flow crosses any finite link and all
                // demands are infinite — cannot happen with validated
                // specs, but avoid an infinite loop just in case.
                break;
            }
            let delta = delta.max(0.0);
            // Apply the increment.
            for &i in unfrozen_list.iter() {
                rate[i] += delta;
            }
            for &li in active_links {
                free[li] -= delta * unfrozen_on[li] as f64;
            }
            // Freeze flows on saturated links and flows at demand.
            let before = unfrozen_list.len();
            unfrozen_list.retain(|&i| {
                let (path, demand) = flows[i];
                let at_demand = rate[i] >= demand - RATE_EPS;
                let on_saturated = paths
                    .get(path)
                    .iter()
                    .any(|l| free[l.0 as usize] <= RATE_EPS * demand.min(1e12));
                let keep = !(at_demand || on_saturated);
                if !keep {
                    freeze(i, unfrozen_on);
                }
                keep
            });
            if unfrozen_list.len() == before {
                // Numerical stall: a flow is within rounding distance of
                // its demand (one ulp of a ~1e10 rate exceeds the absolute
                // RATE_EPS window) and the increment rounds to zero.
                // Freeze the flow with the least demand headroom — it is
                // the one that stalled. Freezing an arbitrary flow here
                // would strand a genuinely unconstrained flow below both
                // its demand and any saturated link, breaking max-min
                // optimality (found by `scenario fuzz`, seed 53).
                let pos = unfrozen_list
                    .iter()
                    .enumerate()
                    .min_by(|&(_, &a), &(_, &b)| {
                        let ha = flows[a].1 - rate[a];
                        let hb = flows[b].1 - rate[b];
                        ha.partial_cmp(&hb).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|(p, _)| p)
                    .expect("stalled fill has unfrozen flows");
                let i = unfrozen_list.remove(pos);
                freeze(i, unfrozen_on);
            }
        }

        // Reset the scratch sparsely for the next fill.
        for &li in active_links {
            free[li] = 0.0;
            unfrozen_on[li] = 0;
        }
    }
}

/// Refresh `active_flows`/`allocated_bps`/`offered_bps` on the given links
/// from the given `(path, demand)` problem rows and their solved rates
/// (indexed alike, ascending flow-id order). Callers guarantee closure:
/// every flow crossing a listed link is listed, and every link of a listed
/// flow is listed. Working from rows rather than flow ids keeps this free
/// of arena lookups; the float-op order is exactly the id-iteration order
/// the original arena-walking version used, so aggregates stay bitwise
/// identical across allocators.
pub(crate) fn refresh_link_aggregates_rows(
    ctx: &mut AllocCtx<'_>,
    link_indices: &[usize],
    flows: &[(PathId, f64)],
    rate: &[f64],
) {
    for &li in link_indices {
        let l = &mut ctx.links[li];
        l.active_flows = 0;
        l.allocated_bps = 0.0;
        l.offered_bps = 0.0;
    }
    for (&(path, _), &r) in flows.iter().zip(rate.iter()) {
        for l in ctx.paths.get(path) {
            let ls = &mut ctx.links[l.0 as usize];
            ls.active_flows += 1;
            ls.allocated_bps += r;
        }
    }
    // Offered load seen by each link: the flow's demand clamped by the
    // *upstream* part of its path (equal-split approximation), so a
    // link only sees traffic its predecessors can actually deliver.
    // Without this, two chunks sharing one source port would appear to
    // offer 2× the port rate downstream and fabricate queues that
    // cannot physically exist (the dual-plane no-queue result of
    // Fig 14b depends on getting this right).
    for (&(path, demand), &r) in flows.iter().zip(rate.iter()) {
        let mut upstream = if demand.is_finite() { demand } else { r };
        for l in ctx.paths.get(path) {
            let ls = &mut ctx.links[l.0 as usize];
            ls.offered_bps += upstream;
            let share = ls.capacity_bps() / ls.active_flows.max(1) as f64;
            upstream = upstream.min(share.max(r));
        }
    }
}

/// Bring the hot set up to date after a recompute refreshed the aggregates
/// of `touched`: add touched links that now carry flows or hold queue, and
/// drop touched links that do neither. O(1) per touched link.
///
/// Untouched hot links are left alone, which is sound: a link leaves the
/// hot set only when its `active_flows` drops to zero with no standing
/// queue, and `active_flows` changes only through a recompute's aggregate
/// refresh — which always lists the link as touched (flow add/remove and
/// link-state changes all seed the dirty closure with that link). Queue
/// drain happens in `integrate_to`, which prunes drained links itself.
pub(crate) fn update_hot(ctx: &mut AllocCtx<'_>, touched: &[usize]) {
    for &li in touched {
        let l = &ctx.links[li];
        if l.active_flows > 0 || l.queue_bits > 0.0 {
            ctx.hot_links.insert(li);
        } else {
            ctx.hot_links.remove(li);
        }
    }
}

/// The from-scratch progressive-filling solver.
///
/// Every recompute rebuilds every flow's rate (component by component, via
/// `ComponentFill`, so its float arithmetic matches the incremental
/// solver's bit for bit). All per-iteration work is
/// restricted to *active* links (links crossed by at least one flow): a
/// full HPN pod has ~10^5 directed links but a training job touches only a
/// few thousand, so the allocation never scans the whole link table — but
/// it does scan every flow, which is what [`IncrementalMaxMin`] fixes.
#[derive(Default)]
pub struct DenseMaxMin {
    solver: ComponentFill,
    scratch_flows: Vec<(PathId, f64)>,
}

impl RateAllocator for DenseMaxMin {
    fn kind(&self) -> AllocatorKind {
        AllocatorKind::Dense
    }

    fn recompute(&mut self, ctx: &mut AllocCtx<'_>) {
        // Dense working arrays over the active flows, in ascending-id
        // (arena) order. No per-recompute `Vec<&Flow>` snapshot: the arena
        // iterates in place and the fill works on (path-id, demand) pairs.
        self.scratch_flows.clear();
        for (_, f) in ctx.flows.iter() {
            self.scratch_flows
                .push((f.spec().path, f.spec().demand_bps));
        }
        let rate = self.solver.run(ctx.links, ctx.paths, &self.scratch_flows);

        for ((_, f), r) in ctx.flows.iter_mut().zip(rate.iter()) {
            f.set_rate_bps(*r);
        }
        // Zero stats on every link that was active before this recompute
        // too (it may have just lost its last flow): the old hot set covers
        // exactly those.
        let mut touched: Vec<usize> = self.solver.filled_links().to_vec();
        touched.extend(ctx.hot_links.iter().map(|l| l as usize));
        touched.sort_unstable();
        touched.dedup();
        refresh_link_aggregates_rows(ctx, &touched, &self.scratch_flows, &rate);
        update_hot(ctx, &touched);
        let n = ctx.flows.len();
        ctx.scope.record(n, touched.len(), n);
    }
}

/// Component-scoped max-min: recomputes only flows/links reachable from
/// the perturbed elements through shared links.
///
/// Maintains per-link flow membership (updated O(path) per flow event) and
/// a seed list of perturbed links. `recompute` BFSes the flow↔link sharing
/// graph from the seeds one wave per true connected component, fills each
/// component with the exact per-component arithmetic, and leaves
/// everything else untouched — rates outside the perturbed components are
/// not even rewritten, so they are bitwise stable across unrelated
/// perturbations.
#[derive(Default)]
pub struct IncrementalMaxMin {
    /// Per link: the [`Member`] rows of flows crossing it, with
    /// multiplicity for repeated path entries (mirrors the fill's
    /// per-occurrence share accounting). Carrying the problem row alongside
    /// the id means the closure never touches the flow arena: everything a
    /// recompute solves over comes straight out of this membership table.
    members: Vec<Vec<Member>>,
    /// Links perturbed since the last recompute (seeds; may repeat).
    dirty: Vec<u32>,
    /// BFS visit stamps per link, keyed by epoch (no per-event clearing).
    link_mark: Vec<u64>,
    /// BFS visit stamps per member slot, keyed by the same epoch: a flow
    /// is collected, and its path walked, once per recompute however many
    /// visited links it crosses.
    slot_mark: Vec<u64>,
    /// Member slots released by removed flows, reused before new ones.
    free_slots: Vec<u32>,
    epoch: u64,
    solver: ComponentFill,
    /// Per-recompute scratch, kept across recomputes: the BFS queue, the
    /// closure's rows, links and group bounds (see [`Self::closure`]), and
    /// the rows' `(path, demand)` problem and rates.
    queue: Vec<usize>,
    rows: Vec<(u64, PathId, f64)>,
    comp_links: Vec<usize>,
    bounds: Vec<usize>,
    problem: Vec<(PathId, f64)>,
    rate: Vec<f64>,
}

/// One flow's row in a link's membership list.
#[derive(Clone, Copy, Debug)]
struct Member {
    id: u64,
    path: PathId,
    /// The flow's dense member slot: unique among live flows and recycled
    /// once the flow leaves, so `slot_mark` stays sized to the peak
    /// number of live flows.
    slot: u32,
    demand: f64,
}

impl IncrementalMaxMin {
    /// BFS closure over the flow↔link sharing graph from the dirty seeds,
    /// grouped by true connected component. Each dirty seed that is still
    /// unvisited starts one BFS wave, and a wave can only reach its own
    /// component, so draining the queue per seed yields one group per
    /// component — no second connectivity pass over the rows. Runs entirely
    /// over the membership table — no flow-arena lookups.
    ///
    /// Fills `rows` with the perturbed flows' `(id, path, demand)` rows,
    /// `comp_links` with the perturbed links (unsorted), and `bounds` so
    /// that `bounds[g]..bounds[g + 1]` is group `g`'s row range. Within a
    /// group rows ascend by id, the dense solver's freeze order. Seeds with
    /// no member flows (e.g. a link whose last flow just left) contribute
    /// their links but no group.
    ///
    /// Each flow is collected once: the first visited link that lists it
    /// stamps its member slot, and later occurrences (other links of its
    /// path, or the same link repeated) are skipped without re-walking the
    /// path.
    fn closure(&mut self, paths: &PathInterner) {
        self.epoch += 1;
        let epoch = self.epoch;
        let (queue, rows) = (&mut self.queue, &mut self.rows);
        queue.clear();
        rows.clear();
        self.comp_links.clear();
        self.bounds.clear();
        self.bounds.push(0);
        for &l in &self.dirty {
            let li = l as usize;
            if self.link_mark[li] == epoch {
                continue;
            }
            self.link_mark[li] = epoch;
            queue.push(li);
            let start = rows.len();
            while let Some(lj) = queue.pop() {
                self.comp_links.push(lj);
                for m in &self.members[lj] {
                    let slot = &mut self.slot_mark[m.slot as usize];
                    if *slot == epoch {
                        continue;
                    }
                    *slot = epoch;
                    rows.push((m.id, m.path, m.demand));
                    for lk in paths.get(m.path) {
                        let lk = lk.0 as usize;
                        if self.link_mark[lk] != epoch {
                            self.link_mark[lk] = epoch;
                            queue.push(lk);
                        }
                    }
                }
            }
            rows[start..].sort_unstable_by_key(|&(id, _, _)| id);
            if rows.len() > start {
                self.bounds.push(rows.len());
            }
        }
        self.dirty.clear();
    }
}

impl RateAllocator for IncrementalMaxMin {
    fn kind(&self) -> AllocatorKind {
        AllocatorKind::Incremental
    }

    fn on_link_added(&mut self, _link: LinkId) {
        self.members.push(Vec::new());
        self.link_mark.push(0);
    }

    fn on_flow_added(&mut self, id: u64, spec: &FlowSpec, path: &[LinkId]) {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.slot_mark.push(0);
            (self.slot_mark.len() - 1) as u32
        });
        let row = Member {
            id,
            path: spec.path,
            slot,
            demand: spec.demand_bps,
        };
        for l in path {
            self.members[l.0 as usize].push(row);
            self.dirty.push(l.0);
        }
    }

    fn on_flow_removed(&mut self, id: u64, path: &[LinkId]) {
        let mut slot = None;
        for l in path {
            let m = &mut self.members[l.0 as usize];
            let pos = m
                .iter()
                .position(|r| r.id == id)
                .expect("removed flow was a member of its links");
            slot = Some(m.swap_remove(pos).slot);
            self.dirty.push(l.0);
        }
        self.free_slots
            .push(slot.expect("a flow path has at least one link"));
    }

    fn on_link_changed(&mut self, link: LinkId) {
        self.dirty.push(link.0);
    }

    fn recompute(&mut self, ctx: &mut AllocCtx<'_>) {
        let total_flows = ctx.flows.len();
        if self.dirty.is_empty() {
            ctx.scope.record(0, 0, total_flows);
            return;
        }
        self.closure(ctx.paths);
        let IncrementalMaxMin {
            solver,
            rows,
            comp_links,
            bounds,
            problem,
            rate,
            ..
        } = self;
        problem.clear();
        problem.extend(rows.iter().map(|&(_, p, d)| (p, d)));
        rate.clear();
        rate.resize(problem.len(), 0.0);
        // Each group is one true component, filled on its own with exactly
        // the arithmetic the dense solver's union-find partition gives it.
        for g in bounds.windows(2) {
            let (a, b) = (g[0], g[1]);
            solver.fill_component(ctx.links, ctx.paths, &problem[a..b], &mut rate[a..b]);
            // Group-major writeback: ids ascend within each group, and the
            // gallop restarts per group.
            ctx.flows
                .set_rates_ascending(rows[a..b].iter().map(|&(id, _, _)| id), &rate[a..b]);
        }
        // Aggregates refresh over ALL component links — including seeds
        // whose last flow just left, which must read as idle again. Each
        // link lies in one group, so its sums see that group's ascending
        // ids in the dense solver's order; the links' own order is
        // irrelevant.
        refresh_link_aggregates_rows(ctx, comp_links, problem, rate);
        update_hot(ctx, comp_links);
        ctx.scope.record(rows.len(), comp_links.len(), total_flows);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::flownet::{FlowNet, FlowSpec};
    use crate::time::SimTime;

    const GBPS: f64 = 1e9;

    fn two_component_net(kind: AllocatorKind) -> (FlowNet, Vec<crate::flownet::FlowHandle>) {
        let mut net = FlowNet::with_allocator(kind);
        let a = net.add_link(100.0 * GBPS, f64::INFINITY);
        let b = net.add_link(100.0 * GBPS, f64::INFINITY);
        let pa = net.intern_path(&[a]);
        let pb = net.intern_path(&[b]);
        let mut hs = Vec::new();
        for path in [pa, pa, pb] {
            hs.push(net.start_flow(
                SimTime::ZERO,
                FlowSpec {
                    path,
                    size_bits: 1e15,
                    demand_bps: f64::INFINITY,
                    tag: 0,
                },
            ));
        }
        net.recompute_if_dirty();
        (net, hs)
    }

    #[test]
    fn incremental_scopes_to_component() {
        let (mut net, hs) = two_component_net(AllocatorKind::Incremental);
        assert_eq!(net.flow_rate(hs[0]), Some(50.0 * GBPS));
        assert_eq!(net.flow_rate(hs[2]), Some(100.0 * GBPS));
        let before = net.alloc_scope();
        // Kill one flow on link a: only link a's component is recomputed.
        net.kill_flow(SimTime::ZERO, hs[0]);
        net.recompute_if_dirty();
        let d = net.alloc_scope().since(&before);
        assert_eq!(d.events, 1);
        assert_eq!(d.flows_touched, 1, "only the surviving flow on link a");
        assert_eq!(d.links_touched, 1);
        assert_eq!(net.flow_rate(hs[1]), Some(100.0 * GBPS));
        assert_eq!(net.flow_rate(hs[2]), Some(100.0 * GBPS));
    }

    #[test]
    fn dense_touches_everything() {
        let (mut net, hs) = two_component_net(AllocatorKind::Dense);
        let before = net.alloc_scope();
        net.kill_flow(SimTime::ZERO, hs[0]);
        net.recompute_if_dirty();
        let d = net.alloc_scope().since(&before);
        assert_eq!(d.events, 1);
        assert_eq!(d.flows_touched, 2, "dense recomputes every live flow");
    }

    #[test]
    fn kinds_report_themselves() {
        assert_eq!(DenseMaxMin::default().kind(), AllocatorKind::Dense);
        assert_eq!(
            IncrementalMaxMin::default().kind(),
            AllocatorKind::Incremental
        );
        assert_eq!(
            AllocatorKind::Parallel.build().kind(),
            AllocatorKind::Incremental,
            "the parallel alias builds the incremental allocator"
        );
        assert_eq!(
            AllocatorKind::Surrogate.build().kind(),
            AllocatorKind::Incremental,
            "the retired memo alias builds the incremental allocator"
        );
        assert_eq!(AllocatorKind::default(), AllocatorKind::Incremental);
    }

    /// Deterministic multi-component churn: `pods` disjoint 2-link pods,
    /// each carrying a handful of flows with varied demands; every step
    /// kills one flow and starts another in rotating pods, then observes
    /// rates (forcing a recompute of every perturbed component at once).
    /// Returns the exact bit pattern of every live rate after every step.
    pub(crate) fn churn_rate_bits(
        allocator: Box<dyn RateAllocator>,
        pods: usize,
        steps: usize,
    ) -> Vec<u64> {
        let mut net = FlowNet::with_allocator_box(allocator);
        let mut paths = Vec::new();
        for p in 0..pods {
            let a = net.add_link((50.0 + p as f64) * GBPS, f64::INFINITY);
            let b = net.add_link((80.0 + p as f64) * GBPS, f64::INFINITY);
            paths.push([net.intern_path(&[a]), net.intern_path(&[a, b])]);
        }
        let mut handles: Vec<crate::flownet::FlowHandle> = Vec::new();
        let mut tag = 0u64;
        let mut start = |net: &mut FlowNet, pod: usize, variant: usize| {
            tag += 1;
            net.start_flow(
                SimTime::ZERO,
                FlowSpec {
                    path: paths[pod][variant % 2],
                    size_bits: 1e15,
                    demand_bps: (10.0 + (tag % 7) as f64 * 13.0) * GBPS,
                    tag,
                },
            )
        };
        for pod in 0..pods {
            for v in 0..4 {
                handles.push(start(&mut net, pod, v));
            }
        }
        let mut bits = Vec::new();
        let mut observe = |net: &mut FlowNet, handles: &[crate::flownet::FlowHandle]| {
            for &h in handles {
                bits.push(net.flow_rate(h).expect("live flow").to_bits());
            }
        };
        observe(&mut net, &handles);
        for step in 0..steps {
            // Perturb several pods before the next observation so one
            // recompute covers multiple disjoint components.
            for k in 0..3 {
                let pod = (step * 3 + k) % pods;
                let victim = handles.remove((step + k) % handles.len());
                net.kill_flow(SimTime::ZERO, victim);
                handles.push(start(&mut net, pod, step + k));
            }
            observe(&mut net, &handles);
        }
        bits
    }

    #[test]
    fn incremental_is_bitwise_equal_to_dense_under_churn() {
        let reference = churn_rate_bits(Box::new(IncrementalMaxMin::default()), 9, 12);
        let dense = churn_rate_bits(Box::new(DenseMaxMin::default()), 9, 12);
        assert_eq!(reference, dense, "incremental vs dense");
    }

    #[test]
    fn names_round_trip() {
        for kind in [AllocatorKind::Dense, AllocatorKind::Incremental] {
            assert_eq!(AllocatorKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(
            AllocatorKind::from_name("parallel").map(AllocatorKind::name),
            Some("incremental")
        );
        assert_eq!(AllocatorKind::Surrogate.name(), "incremental");
        assert_eq!(AllocatorKind::from_name("bogus"), None);
    }
}

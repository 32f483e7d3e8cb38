//! Memoized fast path for max-min rate allocation.
//!
//! [`SurrogateMaxMin`] keeps the incremental allocator's component scoping
//! (only the perturbed closure is touched) but puts a **canonical-shape →
//! rates memo cache** in front of each component re-solve. A miss runs the
//! exact per-component fill (`ComponentFill::fill_component`, the same
//! arithmetic [`crate::alloc::IncrementalMaxMin`] performs) and caches its
//! rates; a hit replays them. Same-scale hits are therefore bitwise-equal
//! to the incremental allocator by construction, and an online validator
//! re-solves every Nth hit exactly to catch anything that is not. The idea
//! follows m4 (arXiv 2503.01770): a fast path is only trusted while it is
//! continuously validated against the exact simulator.
//!
//! # Memoization-safety argument
//!
//! The cache key is **not a hash** — it is the full canonical problem:
//! flow count, link count, every (scaled) demand, every path as canonical
//! local link ids, and every (scaled) capacity, serialized to a `Vec<u64>`
//! in a canonical order. Two problems share a key *only if* they are
//! exactly the same allocation problem up to flow/link relabeling and a
//! power-of-two scale factor — a collision between genuinely different
//! shapes is impossible by construction, not just improbable.
//!
//! Canonical order is computed by Weisfeiler–Leman-style color refinement
//! on the flow↔link sharing graph (flows colored by scaled demand + path
//! length, links by scaled capacity; colors refined to a fixpoint), then a
//! stable sort by final color. Refinement ties between non-isomorphic flows
//! cannot corrupt rates: the key still records each candidate's full
//! problem bytes, so an unlucky ordering only costs a missed hit.
//!
//! Lookups are two-level: a **raw front memo** keyed by the un-canonicalized
//! problem bytes (flows sorted by (path, demand), links numbered in
//! first-seen order) memoizes both the WL canonicalization and a
//! generation-stamped pointer to the cached rates, so a steady-churn hit
//! costs one key build + one hash instead of re-running refinement. The
//! front key's local link numbering lets structurally identical components
//! on different links (isomorphic pods) share one front entry; components
//! that sort differently because of their interned path ids just fall
//! through to a WL run, after which the canonical layer unifies them.
//!
//! The scale factor is the exponent-only part (power of two) of the largest
//! finite capacity. Binary floating point is exactly equivariant under
//! power-of-two scaling, so `stored = rate / scale` on insert and
//! `rate = stored * scale` on hit round-trip **bitwise** for a same-scale
//! hit. A cross-scale hit (a ×2ᵏ-scaled twin component, the metamorphic
//! invariant `hpn-check` fuzzes) is exact by the homogeneity of max-min
//! allocation, but the exact solver's absolute `RATE_EPS` comparisons are
//! *not* scale-equivariant, so cross-scale rates may differ from a fresh
//! exact solve near freeze boundaries — which is precisely what the online
//! validator exists to catch.
//!
//! # Online self-validation
//!
//! Every `validate_every`-th cache hit (default 64; `1` = validate every
//! hit, `0` = never) is re-solved with the exact per-component fill and
//! compared **bitwise**. Misses need no validation: their rates *are* the
//! exact fill. On mismatch the poisoned cache entry is evicted, the exact
//! rates are returned, and the mismatch is counted in [`SurrogateStats`] —
//! surfaced through `FlowNet`'s probe as `SurrogateCache`/
//! `SurrogateMismatch` telemetry events, so validation and mismatch counts
//! land in every run manifest. The fuzz oracle and the figure gate require
//! zero mismatches at the default cadence.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::alloc::{
    refresh_link_aggregates_rows, AllocCtx, AllocatorKind, ComponentFill, IncrementalCore,
    RateAllocator,
};
use crate::flownet::{FlowSpec, LinkId, LinkState};
use crate::fxhash::FxHashMap;
use crate::path::{PathId, PathInterner};

/// Configuration for [`SurrogateMaxMin`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SurrogateConfig {
    /// Validate every Nth prediction against the exact solver (`1` =
    /// every prediction, `0` = never).
    pub validate_every: u32,
    /// Maximum number of cached component shapes before FIFO eviction.
    pub cache_cap: usize,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            validate_every: 64,
            cache_cap: 4096,
        }
    }
}

/// Cumulative counters of the surrogate cache's behaviour.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SurrogateStats {
    /// Component predictions requested (hits + misses).
    pub lookups: u64,
    /// Predictions answered from the cache.
    pub hits: u64,
    /// Predictions that missed the cache and ran the exact fill.
    pub misses: u64,
    /// Cache hits re-solved exactly for online validation.
    pub validations: u64,
    /// Validations whose prediction differed bitwise from the exact rates.
    pub mismatches: u64,
    /// Cache entries inserted.
    pub insertions: u64,
    /// Cache entries evicted (capacity FIFO or invalidate-on-mismatch).
    pub evictions: u64,
}

impl SurrogateStats {
    /// Counter deltas since a previous snapshot.
    pub fn since(&self, base: &SurrogateStats) -> SurrogateStats {
        SurrogateStats {
            lookups: self.lookups - base.lookups,
            hits: self.hits - base.hits,
            misses: self.misses - base.misses,
            validations: self.validations - base.validations,
            mismatches: self.mismatches - base.mismatches,
            insertions: self.insertions - base.insertions,
            evictions: self.evictions - base.evictions,
        }
    }
}

/// Canonicalization of one component problem: the canonical key bytes, the
/// permutation mapping canonical flow position → original flow index, and
/// the power-of-two scale divided out of demands/capacities.
struct Shape {
    key: Vec<u64>,
    perm: Vec<u32>,
    scale: f64,
}

/// The power-of-two canonical scale for a capacity set: the exponent-only
/// bits of the largest finite capacity, or 1.0 when that is not a positive
/// normal number (all-down links, empty set).
fn canonical_scale(caps: &[f64]) -> f64 {
    let mut maxcap = 0.0f64;
    for &c in caps {
        if c.is_finite() && c > maxcap {
            maxcap = c;
        }
    }
    let s = f64::from_bits(maxcap.to_bits() & 0x7FF0_0000_0000_0000);
    if s.is_normal() {
        s
    } else {
        1.0
    }
}

/// Dense ranks of `sigs` in sorted order: equal signatures share a rank,
/// ranks are contiguous from 0. Returns `(rank per element, distinct)`.
fn ranks<T: Ord>(sigs: &[T]) -> (Vec<u32>, usize) {
    let mut order: Vec<usize> = (0..sigs.len()).collect();
    // Unstable sort is fine: ties only reorder equal signatures, which
    // receive the same rank regardless of their relative order.
    order.sort_unstable_by(|&a, &b| sigs[a].cmp(&sigs[b]));
    let mut rank = vec![0u32; sigs.len()];
    let mut r = 0u32;
    for w in 0..order.len() {
        if w > 0 && sigs[order[w]] != sigs[order[w - 1]] {
            r += 1;
        }
        rank[order[w]] = r;
    }
    let distinct = if sigs.is_empty() { 0 } else { r as usize + 1 };
    (rank, distinct)
}

/// Hard cap on WL refinement rounds. Refinement normally stabilizes in a
/// handful of rounds; pathological chains could take O(n), and cutting them
/// short only costs missed cache hits, never wrong rates (the key always
/// records the full problem under whatever order was reached).
const MAX_REFINE_ROUNDS: usize = 32;

/// Canonicalize one component problem into a [`Shape`].
fn canonicalize(links: &[LinkState], paths: &PathInterner, flows: &[(PathId, f64)]) -> Shape {
    let n = flows.len();
    // Local link table in first-seen order + per-flow local-id paths,
    // flattened (`lflat`/`loff`) so an n-flow component costs two
    // allocations rather than one per flow.
    let mut caps: Vec<f64> = Vec::new();
    let mut local_of: FxHashMap<u32, u32> = FxHashMap::default();
    let mut lflat: Vec<u32> = Vec::new();
    let mut loff: Vec<u32> = Vec::with_capacity(n + 1);
    loff.push(0);
    for &(p, _) in flows {
        for l in paths.get(p) {
            lflat.push(*local_of.entry(l.0).or_insert_with(|| {
                caps.push(links[l.0 as usize].capacity_bps());
                (caps.len() - 1) as u32
            }));
        }
        loff.push(lflat.len() as u32);
    }
    let lpath = |i: usize| &lflat[loff[i] as usize..loff[i + 1] as usize];
    let m = caps.len();
    let scale = canonical_scale(&caps);
    let fbits: Vec<u64> = flows.iter().map(|&(_, d)| (d / scale).to_bits()).collect();
    let cbits: Vec<u64> = caps.iter().map(|&c| (c / scale).to_bits()).collect();

    // WL color refinement over the flow↔link sharing graph. Each round's
    // signature embeds the previous rank, so partitions only ever refine;
    // when the distinct counts stop growing the partition is a fixpoint.
    let fsig0: Vec<(u64, u64)> = (0..n).map(|i| (fbits[i], lpath(i).len() as u64)).collect();
    let (mut fcol, mut fdist) = ranks(&fsig0);
    let (mut lcol, mut ldist) = ranks(&cbits);
    for _ in 0..MAX_REFINE_ROUNDS {
        // A discrete flow partition is a fixpoint: ranks of (fcol, ...) with
        // distinct fcol reproduce fcol, and link colors only reach the key
        // through flow colors (canonical link ids come from first appearance
        // along `perm`). Common in practice — any component whose demands
        // are pairwise distinct is done before the first round.
        if fdist == n {
            break;
        }
        // New link colors: (old color, sorted multiset of crossing flows'
        // colors, with path multiplicity).
        let mut lsig: Vec<Vec<u32>> = (0..m).map(|j| vec![lcol[j]]).collect();
        for (i, &c) in fcol.iter().enumerate() {
            for &li in lpath(i) {
                lsig[li as usize].push(c);
            }
        }
        for s in &mut lsig {
            s[1..].sort_unstable();
        }
        let (nl, nld) = ranks(&lsig);
        // New flow colors: (old color, path's new link colors *in order* —
        // paths are sequences, not sets).
        let fsig: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let mut s = Vec::with_capacity(1 + lpath(i).len());
                s.push(fcol[i]);
                s.extend(lpath(i).iter().map(|&li| nl[li as usize]));
                s
            })
            .collect();
        let (nf, nfd) = ranks(&fsig);
        let stable = nfd == fdist && nld == ldist;
        fcol = nf;
        lcol = nl;
        fdist = nfd;
        ldist = nld;
        if stable {
            break;
        }
    }

    // Canonical flow order: stable sort by final color (original index
    // breaks ties, which is only reachable between WL-indistinguishable
    // flows). Canonical link ids by first appearance along that order.
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.sort_by_key(|&i| (fcol[i as usize], i));
    let mut canon_link: Vec<u32> = vec![u32::MAX; m];
    let mut next_l = 0u32;
    for &fi in &perm {
        for &li in lpath(fi as usize) {
            if canon_link[li as usize] == u32::MAX {
                canon_link[li as usize] = next_l;
                next_l += 1;
            }
        }
    }

    let mut key: Vec<u64> = Vec::with_capacity(2 + 2 * n + lflat.len() + m);
    key.push(n as u64);
    key.push(m as u64);
    for &fi in &perm {
        let i = fi as usize;
        key.push(fbits[i]);
        key.push(lpath(i).len() as u64);
        key.extend(lpath(i).iter().map(|&li| canon_link[li as usize] as u64));
    }
    let mut caps_in_order = vec![0u64; m];
    for j in 0..m {
        caps_in_order[canon_link[j] as usize] = cbits[j];
    }
    key.extend(caps_in_order);
    Shape { key, perm, scale }
}

/// State-change-only replacement for `refresh_hot`: only the `touched`
/// links can have changed hot-membership since the last recompute, so
/// inspect those alone instead of rebuilding the whole set.
///
/// Soundness of skipping untouched links: a link leaves the hot set only
/// when its `active_flows` drops to zero with no standing queue, and
/// `active_flows` changes only through a recompute's aggregate refresh —
/// which always lists the link as touched (flow add/remove and link-state
/// changes all seed the dirty closure with that link). Queue drain happens
/// in `integrate_to`, which prunes drained links itself. So every
/// *untouched* hot link still qualifies, and the result is identical to
/// `refresh_hot`'s extend/sort/dedup/retain over the full set.
///
/// Steady-state churn (touched links stay hot) costs O(touched · log hot)
/// binary searches and never writes the hot vector at all — against
/// `refresh_hot`'s O(hot log hot) sort per recompute, which dominates the
/// incremental allocator's event cost once the standing hot set is large.
fn update_hot(ctx: &mut AllocCtx<'_>, touched_sorted: &[usize], scratch: &mut Vec<u32>) {
    scratch.clear();
    let mut any_dead = false;
    {
        let links = &*ctx.links;
        let hot = &*ctx.hot_links;
        for &li in touched_sorted {
            let l = &links[li];
            let qualifies = l.active_flows > 0 || l.queue_bits > 0.0;
            let present = hot.binary_search(&(li as u32)).is_ok();
            if qualifies && !present {
                scratch.push(li as u32);
            } else if !qualifies && present {
                any_dead = true;
            }
        }
    }
    if !scratch.is_empty() {
        ctx.hot_links.extend_from_slice(scratch);
        ctx.hot_links.sort_unstable();
        ctx.hot_links.dedup();
    }
    if any_dead {
        let links = &*ctx.links;
        ctx.hot_links
            .retain(|&l| links[l as usize].active_flows > 0 || links[l as usize].queue_bits > 0.0);
    }
}

/// One front-memo entry: the memoized canonicalization of a raw problem
/// key, plus a generation-stamped pointer to that shape's canonical-cache
/// rates so a steady-state hit pays one multi-KB hash (the raw key)
/// instead of two.
struct FrontEntry {
    shape: Arc<Shape>,
    /// `(cache_gen, rates)` captured at the last canonical-cache probe.
    /// Considered stale — and re-probed — once *any* cache entry has been
    /// removed since (the generation bumps on every removal), which keeps
    /// the memo trivially coherent with invalidation and eviction.
    rates: Option<(u64, Arc<Vec<f64>>)>,
}

/// A frozen export of the canonical-shape cache — the cross-run shareable
/// half of a [`SurrogateMaxMin`]'s memo. Entries are `(canonical key,
/// rates at canonical scale)` in the donor's FIFO insertion order, and the
/// backing storage is `Arc`-shared, so a cross-request artifact cache can
/// hand one seed to many sessions without copying rate vectors.
///
/// Only the *canonical* layer is exported: canonical keys and their scale
/// normalization are independent of `PathId` assignment and flow ids, so
/// they transplant across simulations of the same fabric. The raw
/// front-memo (`shapes`) embeds interner-local path ids in its sort keys
/// and is deliberately not part of a seed.
#[derive(Clone, Default)]
pub struct SurrogateSeed {
    entries: Arc<Vec<SeedEntry>>,
}

/// One exported cache entry: `(canonical key, rates at canonical scale)`.
type SeedEntry = (Vec<u64>, Arc<Vec<f64>>);

impl SurrogateSeed {
    /// Number of cached shapes in the seed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the seed holds no shapes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl std::fmt::Debug for SurrogateSeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SurrogateSeed")
            .field("shapes", &self.entries.len())
            .finish()
    }
}

/// The memoized surrogate allocator. See the module docs for the cache
/// design and the memoization-safety argument.
pub struct SurrogateMaxMin {
    core: IncrementalCore,
    solver: ComponentFill,
    cfg: SurrogateConfig,
    /// Canonical key → rates in canonical flow order, divided by the scale.
    cache: FxHashMap<Vec<u64>, Arc<Vec<f64>>>,
    /// FIFO insertion order of cache keys (stale keys skipped on pop).
    order: VecDeque<Vec<u64>>,
    /// Bumped on every `cache` removal; validates [`FrontEntry::rates`].
    cache_gen: u64,
    /// Raw problem bytes → memoized canonicalization. The raw key fully
    /// determines the problem (paths are interned), so repeat shapes skip
    /// WL refinement entirely — the common case under steady churn.
    shapes: FxHashMap<Vec<u64>, FrontEntry>,
    shapes_order: VecDeque<Vec<u64>>,
    /// Epoch stamps + local first-seen link numbering for building raw
    /// keys without a per-call hash map.
    link_stamp: Vec<u64>,
    link_local: Vec<u32>,
    caps_scratch: Vec<u64>,
    raw_epoch: u64,
    stats: SurrogateStats,
    hot_scratch: Vec<u32>,
    /// Per-recompute scratch: the closure rows' `(path, demand)` problem,
    /// shared by the per-group prediction and the aggregate refresh.
    problem: Vec<(PathId, f64)>,
    rate_scratch: Vec<f64>,
    /// Per-predict scratch: the (path, demand)-argsort of the component and
    /// the component rows in that sorted order (see [`Self::predict`]).
    sortperm: Vec<u32>,
    sorted_scratch: Vec<(PathId, f64)>,
}

impl Default for SurrogateMaxMin {
    fn default() -> Self {
        Self::with_config(SurrogateConfig::default())
    }
}

impl SurrogateMaxMin {
    /// An allocator with an explicit configuration.
    pub fn with_config(cfg: SurrogateConfig) -> Self {
        SurrogateMaxMin {
            core: IncrementalCore::default(),
            solver: ComponentFill::default(),
            cfg,
            cache: FxHashMap::default(),
            order: VecDeque::new(),
            cache_gen: 0,
            shapes: FxHashMap::default(),
            shapes_order: VecDeque::new(),
            link_stamp: Vec::new(),
            link_local: Vec::new(),
            caps_scratch: Vec::new(),
            raw_epoch: 0,
            stats: SurrogateStats::default(),
            hot_scratch: Vec::new(),
            problem: Vec::new(),
            rate_scratch: Vec::new(),
            sortperm: Vec::new(),
            sorted_scratch: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> SurrogateConfig {
        self.cfg
    }

    /// Cumulative cache counters.
    pub fn stats(&self) -> SurrogateStats {
        self.stats
    }

    /// Export the canonical-shape cache as a shareable [`SurrogateSeed`]:
    /// live entries in FIFO insertion order (stale keys left behind by
    /// invalidation are skipped, duplicates collapsed to first
    /// occurrence). The export is a pure read — stats and cache state are
    /// untouched.
    pub fn memo_seed(&self) -> SurrogateSeed {
        let mut seen: std::collections::HashSet<&[u64]> = std::collections::HashSet::new();
        let mut entries = Vec::with_capacity(self.cache.len());
        for k in &self.order {
            if !seen.insert(k.as_slice()) {
                continue;
            }
            if let Some(r) = self.cache.get(k) {
                entries.push((k.clone(), Arc::clone(r)));
            }
        }
        SurrogateSeed {
            entries: Arc::new(entries),
        }
    }

    /// Warm the canonical-shape cache from a seed, in the seed's FIFO
    /// order, stopping at the configured `cache_cap`. Keys already present
    /// keep their existing rates (first writer wins, matching the cache's
    /// own insert-once discipline). Seeded entries do not count as
    /// insertions in [`SurrogateStats`] — the stats describe this run's
    /// predictions, not inherited state — but later lookups that hit a
    /// seeded shape count as hits like any other.
    pub fn absorb_memo(&mut self, seed: &SurrogateSeed) {
        for (k, r) in seed.entries.iter() {
            if self.cache.len() >= self.cfg.cache_cap {
                break;
            }
            if !self.cache.contains_key(k) {
                self.cache.insert(k.clone(), Arc::clone(r));
                self.order.push_back(k.clone());
            }
        }
    }

    /// Raw (un-canonicalized) key of one component problem: flow count,
    /// then per flow its (demand bits, path length, path as *local*
    /// first-seen link ids), then each local link's capacity bits. These
    /// bytes fully determine the problem up to link relabeling, so they can
    /// front a memo of the canonicalization itself.
    ///
    /// Callers pass the flows pre-sorted by (path, demand bits) — see
    /// [`Self::predict`] — which makes the key invariant under flow
    /// relabeling: steady churn (a flow replaced by an identical one with a
    /// fresh, larger id) re-orders the component's ascending-id rows but
    /// produces the same sorted rows, so it hits this front memo instead of
    /// re-running WL canonicalization every recompute. Using local link
    /// numbering also lets structurally identical components on *different*
    /// links (e.g. isomorphic pods populated in the same order) share one
    /// front entry. The sort key still embeds global path ids, so
    /// differently-interned isomorphic components may sort differently and
    /// land on distinct front keys — that only costs a WL canonicalization,
    /// after which the canonical cache unifies them.
    fn raw_key(
        &mut self,
        links: &[LinkState],
        paths: &PathInterner,
        flows: &[(PathId, f64)],
    ) -> Vec<u64> {
        self.raw_epoch += 1;
        let epoch = self.raw_epoch;
        if self.link_stamp.len() < links.len() {
            self.link_stamp.resize(links.len(), 0);
            self.link_local.resize(links.len(), 0);
        }
        let mut caps: Vec<u64> = std::mem::take(&mut self.caps_scratch);
        caps.clear();
        let mut key: Vec<u64> = Vec::with_capacity(1 + 4 * flows.len());
        key.push(flows.len() as u64);
        for &(p, d) in flows {
            let ls = paths.get(p);
            key.push(d.to_bits());
            key.push(ls.len() as u64);
            for l in ls {
                let li = l.0 as usize;
                if self.link_stamp[li] != epoch {
                    self.link_stamp[li] = epoch;
                    self.link_local[li] = caps.len() as u32;
                    caps.push(links[li].capacity_bps().to_bits());
                }
                key.push(self.link_local[li] as u64);
            }
        }
        key.extend_from_slice(&caps);
        self.caps_scratch = caps;
        key
    }

    /// Predict the max-min rates of one true component: a cache hit, or
    /// the exact fill on a miss, validating every Nth hit against the exact
    /// fill. Returns rates in `flows` order.
    ///
    /// The component is first argsorted by (path, demand bits) so both the
    /// raw front key and the canonical shape are computed over an order
    /// that does not depend on flow ids. Ties (identical rows) make the
    /// permutation ambiguous, but identical rows receive bitwise-identical
    /// rates from the fill — its per-flow arithmetic depends only on
    /// (path, demand) — so any tie order rehydrates the same answer.
    fn predict(
        &mut self,
        links: &[LinkState],
        paths: &PathInterner,
        flows: &[(PathId, f64)],
    ) -> Vec<f64> {
        self.stats.lookups += 1;
        let mut sortperm = std::mem::take(&mut self.sortperm);
        sortperm.clear();
        sortperm.extend(0..flows.len() as u32);
        sortperm.sort_unstable_by_key(|&i| {
            let (p, d) = flows[i as usize];
            (p.0, d.to_bits())
        });
        let mut sorted = std::mem::take(&mut self.sorted_scratch);
        sorted.clear();
        sorted.extend(sortperm.iter().map(|&i| flows[i as usize]));
        let raw = self.raw_key(links, paths, &sorted);
        let gen = self.cache_gen;
        let mut stored_hit: Option<Arc<Vec<f64>>> = None;
        let mut shape_memo: Option<Arc<Shape>> = None;
        if let Some(e) = self.shapes.get_mut(&raw) {
            match &e.rates {
                // Fresh memo: serve the rates without hashing the canonical
                // key a second time.
                Some((g, r)) if *g == gen => stored_hit = Some(Arc::clone(r)),
                _ => {
                    e.rates = self.cache.get(&e.shape.key).map(|r| (gen, Arc::clone(r)));
                    stored_hit = e.rates.as_ref().map(|(_, r)| Arc::clone(r));
                }
            }
            shape_memo = Some(Arc::clone(&e.shape));
        }
        let shape = match shape_memo {
            Some(s) => s,
            None => {
                let s = Arc::new(canonicalize(links, paths, &sorted));
                stored_hit = self.cache.get(&s.key).map(Arc::clone);
                self.shapes.insert(
                    raw.clone(),
                    FrontEntry {
                        shape: Arc::clone(&s),
                        rates: stored_hit.as_ref().map(|r| (gen, Arc::clone(r))),
                    },
                );
                self.shapes_order.push_back(raw);
                while self.shapes.len() > self.cfg.cache_cap {
                    match self.shapes_order.pop_front() {
                        Some(k) => {
                            self.shapes.remove(&k);
                        }
                        None => break,
                    }
                }
                s
            }
        };
        let hit = stored_hit.is_some();
        let rates = match &stored_hit {
            Some(stored) => {
                self.stats.hits += 1;
                let mut out = vec![0.0f64; flows.len()];
                for (k, &r) in stored.iter().enumerate() {
                    // canonical position k → sorted position → original row.
                    out[sortperm[shape.perm[k] as usize] as usize] = r * shape.scale;
                }
                let ve = self.cfg.validate_every as u64;
                if ve > 0 && self.stats.hits % ve == 0 {
                    self.stats.validations += 1;
                    let exact = self.solver.fill_component(links, paths, flows);
                    if exact
                        .iter()
                        .zip(&out)
                        .any(|(a, b)| a.to_bits() != b.to_bits())
                    {
                        self.stats.mismatches += 1;
                        // Invalidate the poisoned entry; it is NOT re-inserted
                        // this round, so a systematically wrong shape keeps
                        // falling back to exact until a clean miss re-learns it.
                        if self.cache.remove(&shape.key).is_some() {
                            self.cache_gen += 1;
                            self.stats.evictions += 1;
                        }
                        out = exact;
                    }
                }
                out
            }
            None => {
                self.stats.misses += 1;
                self.solver.fill_component(links, paths, flows)
            }
        };
        if !hit {
            // Insert the exact rates under the canonical key, normalized to
            // the canonical scale.
            let stored: Vec<f64> = shape
                .perm
                .iter()
                .map(|&si| rates[sortperm[si as usize] as usize] / shape.scale)
                .collect();
            self.cache.insert(shape.key.clone(), Arc::new(stored));
            self.stats.insertions += 1;
            self.order.push_back(shape.key.clone());
            while self.cache.len() > self.cfg.cache_cap {
                match self.order.pop_front() {
                    Some(k) => {
                        if self.cache.remove(&k).is_some() {
                            self.cache_gen += 1;
                            self.stats.evictions += 1;
                        }
                    }
                    None => break,
                }
            }
            if self.order.len() > 2 * self.cfg.cache_cap + 64 {
                // Compact stale keys left behind by invalidations.
                let cache = &self.cache;
                self.order.retain(|k| cache.contains_key(k));
            }
        }
        self.sortperm = sortperm;
        self.sorted_scratch = sorted;
        rates
    }
}

impl RateAllocator for SurrogateMaxMin {
    fn kind(&self) -> AllocatorKind {
        AllocatorKind::Surrogate
    }

    fn on_link_added(&mut self, _link: LinkId) {
        self.core.on_link_added();
    }

    fn on_flow_added(&mut self, id: u64, spec: &FlowSpec, path: &[LinkId]) {
        self.core.on_flow_added(id, spec, path);
    }

    fn on_flow_removed(&mut self, id: u64, path: &[LinkId]) {
        self.core.on_flow_removed(id, path);
    }

    fn on_link_changed(&mut self, link: LinkId) {
        self.core.on_link_changed(link);
    }

    fn recompute(&mut self, ctx: &mut AllocCtx<'_>) {
        let total_flows = ctx.flows.len();
        if self.core.is_clean() {
            ctx.scope.record(0, 0, total_flows);
            return;
        }
        // The closure rows carry everything the solve needs — (id, path,
        // demand) — and arrive pre-grouped by true connected component, so
        // predictions are per-component (small, reusable cache keys)
        // without a second connectivity pass.
        let (rows, mut comp_links, bounds) = self.core.closure_grouped(ctx.paths);
        let mut problem = std::mem::take(&mut self.problem);
        problem.clear();
        problem.extend(rows.iter().map(|&(_, p, d)| (p, d)));
        let mut rate = std::mem::take(&mut self.rate_scratch);
        rate.clear();
        rate.resize(problem.len(), 0.0);
        for g in bounds.windows(2) {
            let (a, b) = (g[0], g[1]);
            let r = self.predict(&*ctx.links, ctx.paths, &problem[a..b]);
            rate[a..b].copy_from_slice(&r);
        }
        // Group-major writeback: ids ascend within each group, and the
        // gallop restarts per group.
        for g in bounds.windows(2) {
            let (a, b) = (g[0], g[1]);
            ctx.flows
                .set_rates_ascending(rows[a..b].iter().map(|&(id, _, _)| id), &rate[a..b]);
        }
        comp_links.sort_unstable();
        refresh_link_aggregates_rows(ctx, &comp_links, &problem, &rate);
        update_hot(ctx, &comp_links, &mut self.hot_scratch);
        ctx.scope.record(rows.len(), comp_links.len(), total_flows);
        self.problem = problem;
        self.rate_scratch = rate;
    }

    fn surrogate_stats(&self) -> Option<SurrogateStats> {
        Some(self.stats)
    }

    fn set_validate_every(&mut self, every: u32) {
        self.cfg.validate_every = every;
    }

    fn export_memo(&self) -> Option<SurrogateSeed> {
        Some(self.memo_seed())
    }

    fn seed_memo(&mut self, seed: &SurrogateSeed) -> bool {
        self.absorb_memo(seed);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::IncrementalMaxMin;

    const GBPS: f64 = 1e9;

    fn mk_link(cap: f64) -> LinkState {
        LinkState {
            nominal_bps: cap,
            up: true,
            buffer_bits: f64::INFINITY,
            queue_bits: 0.0,
            carried_bits: 0.0,
            dropped_bits: 0.0,
            peak_queue_bits: 0.0,
            active_flows: 0,
            allocated_bps: 0.0,
            offered_bps: 0.0,
        }
    }

    /// Build a standalone component problem: links from `caps`, flows as
    /// (link-index path, demand) pairs.
    fn problem(
        caps: &[f64],
        flows: &[(&[u32], f64)],
    ) -> (Vec<LinkState>, PathInterner, Vec<(PathId, f64)>) {
        let links: Vec<LinkState> = caps.iter().map(|&c| mk_link(c)).collect();
        let mut paths = PathInterner::new();
        let comp = flows
            .iter()
            .map(|&(p, d)| {
                let ids: Vec<LinkId> = p.iter().map(|&i| LinkId(i)).collect();
                (paths.intern(&ids), d)
            })
            .collect();
        (links, paths, comp)
    }

    fn exact(links: &[LinkState], paths: &PathInterner, comp: &[(PathId, f64)]) -> Vec<f64> {
        ComponentFill::default().fill_component(links, paths, comp)
    }

    #[test]
    fn memo_seed_transplants_the_canonical_cache_across_interners() {
        let cfg = SurrogateConfig {
            validate_every: 0,
            cache_cap: 4096,
        };
        let (links, paths, comp) = problem(
            &[10.0 * GBPS, 25.0 * GBPS],
            &[(&[0, 1], 4.0 * GBPS), (&[0], 9.0 * GBPS)],
        );
        let mut donor = SurrogateMaxMin::with_config(cfg);
        let r1 = donor.predict(&links, &paths, &comp);
        assert_eq!(donor.stats().misses, 1);
        let seed = donor.memo_seed();
        assert_eq!(seed.len(), 1);

        // A fresh allocator over a *differently interned* but isomorphic
        // problem hits the transplanted canonical entry bitwise.
        let links2: Vec<LinkState> = [10.0 * GBPS, 25.0 * GBPS]
            .iter()
            .map(|&c| mk_link(c))
            .collect();
        let mut paths2 = PathInterner::new();
        paths2.intern(&[LinkId(1)]); // shift id assignment vs the donor
        let comp2 = vec![
            (paths2.intern(&[LinkId(0), LinkId(1)]), 4.0 * GBPS),
            (paths2.intern(&[LinkId(0)]), 9.0 * GBPS),
        ];
        let mut warmed = SurrogateMaxMin::with_config(cfg);
        warmed.absorb_memo(&seed);
        let r2 = warmed.predict(&links2, &paths2, &comp2);
        assert_eq!(warmed.stats().hits, 1, "first lookup hits the seed");
        assert_eq!(warmed.stats().misses, 0);
        let bits1: Vec<u64> = r1.iter().map(|r| r.to_bits()).collect();
        let bits2: Vec<u64> = r2.iter().map(|r| r.to_bits()).collect();
        assert_eq!(bits1, bits2, "seeded hit rehydrates bitwise");
        assert_eq!(
            bits1,
            exact(&links, &paths, &comp)
                .iter()
                .map(|r| r.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn absorb_memo_respects_cache_cap_and_existing_entries() {
        let small = SurrogateConfig {
            validate_every: 0,
            cache_cap: 1,
        };
        let (la, pa, ca) = problem(&[10.0 * GBPS], &[(&[0], 2.0 * GBPS)]);
        let (lb, pb, cb) = problem(&[10.0 * GBPS], &[(&[0], 3.0 * GBPS), (&[0], 5.0 * GBPS)]);
        let mut donor = SurrogateMaxMin::with_config(SurrogateConfig {
            validate_every: 0,
            cache_cap: 4096,
        });
        donor.predict(&la, &pa, &ca);
        donor.predict(&lb, &pb, &cb);
        let seed = donor.memo_seed();
        assert_eq!(seed.len(), 2);
        let mut warmed = SurrogateMaxMin::with_config(small);
        warmed.absorb_memo(&seed);
        // Cap 1: only the donor's first (FIFO-oldest) shape fits.
        warmed.predict(&la, &pa, &ca);
        assert_eq!(warmed.stats().hits, 1);
        warmed.predict(&lb, &pb, &cb);
        assert_eq!(
            warmed.stats().misses,
            1,
            "second shape was dropped at the cap"
        );
    }

    #[test]
    fn surrogate_at_validate_every_one_is_bitwise_equal_to_incremental() {
        let reference =
            crate::alloc::tests::churn_rate_bits(Box::new(IncrementalMaxMin::default()), 9, 12);
        let sur = crate::alloc::tests::churn_rate_bits(
            Box::new(SurrogateMaxMin::with_config(SurrogateConfig {
                validate_every: 1,
                cache_cap: 4096,
            })),
            9,
            12,
        );
        assert_eq!(reference, sur, "surrogate(validate_every=1) vs incremental");
    }

    #[test]
    fn surrogate_at_default_cadence_is_bitwise_equal_to_incremental() {
        // Misses run the exact fill and hits replay it, so the default
        // cadence needs no validation to stay bitwise.
        let reference =
            crate::alloc::tests::churn_rate_bits(Box::new(IncrementalMaxMin::default()), 9, 12);
        let sur = crate::alloc::tests::churn_rate_bits(Box::new(SurrogateMaxMin::default()), 9, 12);
        assert_eq!(reference, sur, "surrogate(default cadence) vs incremental");
    }

    #[test]
    fn canonical_key_is_permutation_invariant() {
        // Same problem twice, with flows listed in a different order and
        // links relabeled. Demands are distinct so WL fully discriminates.
        let (links_a, paths_a, comp_a) = problem(
            &[100.0 * GBPS, 50.0 * GBPS],
            &[
                (&[0, 1], 90.0 * GBPS),
                (&[0], 70.0 * GBPS),
                (&[1], 10.0 * GBPS),
            ],
        );
        let (links_b, paths_b, comp_b) = problem(
            &[50.0 * GBPS, 100.0 * GBPS],
            &[
                (&[0], 10.0 * GBPS),
                (&[1, 0], 90.0 * GBPS),
                (&[1], 70.0 * GBPS),
            ],
        );
        let sa = canonicalize(&links_a, &paths_a, &comp_a);
        let sb = canonicalize(&links_b, &paths_b, &comp_b);
        assert_eq!(sa.key, sb.key, "relabeling must not change the key");
        assert_eq!(sa.scale, sb.scale);
        // The permutations map canonical positions back onto equivalent
        // flows: demands must agree position by position.
        for k in 0..comp_a.len() {
            assert_eq!(comp_a[sa.perm[k] as usize].1, comp_b[sb.perm[k] as usize].1);
        }
    }

    #[test]
    fn canonical_key_collapses_power_of_two_scaling() {
        let (links_a, paths_a, comp_a) = problem(
            &[100.0 * GBPS, 50.0 * GBPS],
            &[(&[0, 1], 90.0 * GBPS), (&[0], 70.0 * GBPS)],
        );
        let (links_b, paths_b, comp_b) = problem(
            &[400.0 * GBPS, 200.0 * GBPS],
            &[(&[0, 1], 360.0 * GBPS), (&[0], 280.0 * GBPS)],
        );
        let sa = canonicalize(&links_a, &paths_a, &comp_a);
        let sb = canonicalize(&links_b, &paths_b, &comp_b);
        assert_eq!(sa.key, sb.key, "×4 scaling must collapse to one entry");
        assert_eq!(sb.scale, 4.0 * sa.scale);
        // Rehydrating A's stored rates at B's scale reproduces B's exact
        // rates bitwise: ×4 is a pure exponent shift.
        let ra = exact(&links_a, &paths_a, &comp_a);
        let rb = exact(&links_b, &paths_b, &comp_b);
        for k in 0..comp_a.len() {
            let stored = ra[sa.perm[k] as usize] / sa.scale;
            assert_eq!(
                (stored * sb.scale).to_bits(),
                rb[sb.perm[k] as usize].to_bits()
            );
        }
    }

    #[test]
    fn cache_counters_match_hand_computed_trace() {
        // validate_every = 0: predictions are never re-solved, so the
        // counters below are exactly the A,B,A,A,B trace.
        let mut sur = SurrogateMaxMin::with_config(SurrogateConfig {
            validate_every: 0,
            cache_cap: 4096,
        });
        let (links, paths, comp_a) = problem(
            &[100.0 * GBPS],
            &[(&[0], 20.0 * GBPS), (&[0], f64::INFINITY)],
        );
        let (links_b, paths_b, comp_b) = problem(
            &[100.0 * GBPS, 50.0 * GBPS],
            &[(&[0, 1], f64::INFINITY), (&[0], f64::INFINITY)],
        );
        sur.predict(&links, &paths, &comp_a); // miss, insert
        sur.predict(&links_b, &paths_b, &comp_b); // miss, insert
        sur.predict(&links, &paths, &comp_a); // hit
        sur.predict(&links, &paths, &comp_a); // hit
        sur.predict(&links_b, &paths_b, &comp_b); // hit
        let s = sur.stats();
        assert_eq!(s.lookups, 5);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 2);
        assert_eq!(s.insertions, 2);
        assert_eq!(s.validations, 0);
        assert_eq!(s.mismatches, 0);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn cache_hit_rates_match_exact_solution() {
        let mut sur = SurrogateMaxMin::with_config(SurrogateConfig {
            validate_every: 0,
            cache_cap: 4096,
        });
        let (links, paths, comp) = problem(
            &[100.0 * GBPS, 50.0 * GBPS],
            &[
                (&[0, 1], f64::INFINITY),
                (&[0], f64::INFINITY),
                (&[1], f64::INFINITY),
            ],
        );
        let first = sur.predict(&links, &paths, &comp);
        let second = sur.predict(&links, &paths, &comp);
        // Same-scale hit: the insert/rehydrate round trip is bitwise.
        for (a, b) in first.iter().zip(second.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The miss cached the exact fill, so the hit replays it bitwise.
        let e = exact(&links, &paths, &comp);
        for (a, b) in second.iter().zip(e.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn fifo_eviction_under_small_cap() {
        let mut sur = SurrogateMaxMin::with_config(SurrogateConfig {
            validate_every: 0,
            cache_cap: 1,
        });
        let (links_a, paths_a, comp_a) = problem(
            &[100.0 * GBPS],
            &[(&[0], 20.0 * GBPS), (&[0], f64::INFINITY)],
        );
        let (links_b, paths_b, comp_b) = problem(
            &[100.0 * GBPS, 50.0 * GBPS],
            &[(&[0, 1], f64::INFINITY), (&[0], f64::INFINITY)],
        );
        sur.predict(&links_a, &paths_a, &comp_a); // insert A
        sur.predict(&links_b, &paths_b, &comp_b); // insert B, evict A
        assert_eq!(sur.stats().evictions, 1);
        sur.predict(&links_a, &paths_a, &comp_a); // A is gone: miss again
        let s = sur.stats();
        assert_eq!(s.misses, 3);
        assert_eq!(s.hits, 0);
        assert_eq!(s.evictions, 2, "re-inserting A evicted B");
        assert_eq!(sur.cache.len(), 1);
    }

    #[test]
    fn validation_mismatch_evicts_poisoned_entry_and_returns_exact() {
        let mut sur = SurrogateMaxMin::with_config(SurrogateConfig {
            validate_every: 0,
            cache_cap: 4096,
        });
        let (links, paths, comp) = problem(
            &[100.0 * GBPS, 50.0 * GBPS],
            &[
                (&[0, 1], f64::INFINITY),
                (&[0], f64::INFINITY),
                (&[1], f64::INFINITY),
            ],
        );
        sur.predict(&links, &paths, &comp); // miss, insert
                                            // Poison the cached rates, then validate the next (hit) prediction.
        assert_eq!(sur.cache.len(), 1);
        for stored in sur.cache.values_mut() {
            // `get_mut` (not `make_mut`): if insertion ever starts memoizing
            // a rates pointer into the front entry, COW-cloning here would
            // silently poison only the map's copy while the memo kept
            // serving clean rates — fail loudly instead.
            let stored = Arc::get_mut(stored).expect("no outstanding rates pointer");
            stored[0] = f64::from_bits(stored[0].to_bits() ^ 1);
        }
        sur.set_validate_every(1);
        let rates = sur.predict(&links, &paths, &comp);
        let s = sur.stats();
        assert_eq!(s.hits, 1, "the poisoned entry was served");
        assert_eq!(s.validations, 1);
        assert_eq!(s.mismatches, 1);
        assert_eq!(s.evictions, 1, "invalidate-on-mismatch evicts");
        assert_eq!(sur.cache.len(), 0, "the entry is actually gone");
        let e = exact(&links, &paths, &comp);
        for (a, b) in rates.iter().zip(e.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "mismatch falls back to exact");
        }
    }

    #[test]
    fn stats_since_diffs_fieldwise() {
        let a = SurrogateStats {
            lookups: 10,
            hits: 6,
            misses: 4,
            validations: 2,
            mismatches: 1,
            insertions: 4,
            evictions: 3,
        };
        let b = SurrogateStats {
            lookups: 4,
            hits: 2,
            misses: 2,
            validations: 1,
            mismatches: 0,
            insertions: 2,
            evictions: 1,
        };
        let d = a.since(&b);
        assert_eq!(d.lookups, 6);
        assert_eq!(d.hits, 4);
        assert_eq!(d.misses, 2);
        assert_eq!(d.validations, 1);
        assert_eq!(d.mismatches, 1);
        assert_eq!(d.insertions, 2);
        assert_eq!(d.evictions, 2);
    }

    #[test]
    fn config_default() {
        let d = SurrogateConfig::default();
        assert_eq!(d.validate_every, 64);
        assert_eq!(d.cache_cap, 4096);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const GBPS: f64 = 1e9;

    fn mk_link(cap: f64) -> LinkState {
        LinkState {
            nominal_bps: cap,
            up: true,
            buffer_bits: f64::INFINITY,
            queue_bits: 0.0,
            carried_bits: 0.0,
            dropped_bits: 0.0,
            peak_queue_bits: 0.0,
            active_flows: 0,
            allocated_bps: 0.0,
            offered_bps: 0.0,
        }
    }

    /// A random component problem: capacities plus flows picking (deduped)
    /// link subsequences with bounded integer demands.
    fn arb_problem() -> impl Strategy<Value = (Vec<u64>, Vec<(Vec<usize>, u64)>)> {
        (
            proptest::collection::vec(1u64..=400, 1..5),
            proptest::collection::vec(
                (proptest::collection::vec(0usize..5, 1..4), 1u64..=400),
                1..8,
            ),
        )
    }

    fn build(
        caps: &[u64],
        flows: &[(Vec<usize>, u64)],
    ) -> (Vec<LinkState>, PathInterner, Vec<(PathId, f64)>) {
        let links: Vec<LinkState> = caps.iter().map(|&c| mk_link(c as f64 * GBPS)).collect();
        let mut paths = PathInterner::new();
        let comp = flows
            .iter()
            .map(|(pick, demand)| {
                let mut p: Vec<LinkId> = pick
                    .iter()
                    .map(|&i| LinkId((i % caps.len()) as u32))
                    .collect();
                p.dedup();
                (paths.intern(&p), *demand as f64 * GBPS)
            })
            .collect();
        (links, paths, comp)
    }

    proptest! {
        /// Collision safety: whenever two problems canonicalize to the
        /// same key, rehydrating one's exact rates through the two
        /// permutations/scales reproduces the other's exact rates — i.e.
        /// equal keys imply equivalent problems, never just similar ones.
        /// (Distinct shapes yielding distinct keys is the contrapositive.)
        #[test]
        fn equal_keys_imply_equivalent_problems(
            p1 in arb_problem(),
            p2 in arb_problem(),
        ) {
            let (links1, paths1, comp1) = build(&p1.0, &p1.1);
            let (links2, paths2, comp2) = build(&p2.0, &p2.1);
            let s1 = canonicalize(&links1, &paths1, &comp1);
            let s2 = canonicalize(&links2, &paths2, &comp2);
            if s1.key == s2.key {
                let r1 = ComponentFill::default().fill_component(&links1, &paths1, &comp1);
                let r2 = ComponentFill::default().fill_component(&links2, &paths2, &comp2);
                prop_assert_eq!(comp1.len(), comp2.len());
                for k in 0..comp1.len() {
                    let via1 = r1[s1.perm[k] as usize] / s1.scale;
                    let direct2 = r2[s2.perm[k] as usize] / s2.scale;
                    // Same canonical problem solved twice: identical up to
                    // the eps-boundary sensitivity of the exact solver.
                    prop_assert!(
                        (via1 - direct2).abs() <= 1e-6 * direct2.abs().max(1e-3),
                        "key collision with inequivalent rates: {} vs {}",
                        via1, direct2
                    );
                }
            }
        }

        /// The canonicalization is self-consistent: canonicalizing the
        /// same problem twice yields the same key, permutation and scale.
        #[test]
        fn canonicalization_is_deterministic(p in arb_problem()) {
            let (links, paths, comp) = build(&p.0, &p.1);
            let a = canonicalize(&links, &paths, &comp);
            let b = canonicalize(&links, &paths, &comp);
            prop_assert_eq!(a.key, b.key);
            prop_assert_eq!(a.perm, b.perm);
            prop_assert_eq!(a.scale.to_bits(), b.scale.to_bits());
        }
    }
}

#[cfg(test)]
mod profile {
    //! `cargo test -p hpn-sim --release profile_predict -- --ignored
    //! --nocapture` — phase timings for the collective-geometry component.
    use super::*;
    use std::time::Instant;

    #[test]
    #[ignore]
    fn profile_predict_phases() {
        let nflows = 512usize;
        let nlinks = 16usize;
        let links: Vec<LinkState> = (0..nlinks)
            .map(|_| LinkState {
                nominal_bps: 4e12,
                up: true,
                buffer_bits: f64::INFINITY,
                queue_bits: 0.0,
                carried_bits: 0.0,
                dropped_bits: 0.0,
                peak_queue_bits: 0.0,
                active_flows: 0,
                allocated_bps: 0.0,
                offered_bps: 0.0,
            })
            .collect();
        let mut paths = PathInterner::new();
        let comp: Vec<(PathId, f64)> = (0..nflows)
            .map(|k| {
                let a = (k % nlinks) as u32;
                let b = ((k * 7 + 1) % nlinks) as u32;
                let ids = if a == b {
                    vec![LinkId(a)]
                } else {
                    vec![LinkId(a), LinkId(b)]
                };
                (paths.intern(&ids), 50e9 + k as f64 * 1e6)
            })
            .collect();

        let mut sur = SurrogateMaxMin::with_config(SurrogateConfig {
            validate_every: 0,
            cache_cap: 4096,
        });
        // Warm: one miss populates front + canonical caches.
        let _ = sur.predict(&links, &paths, &comp);
        let iters = 2000u32;
        let t = Instant::now();
        for _ in 0..iters {
            let _ = sur.predict(&links, &paths, &comp);
        }
        let per_hit = t.elapsed().as_nanos() as f64 / iters as f64 / 1000.0;

        let t = Instant::now();
        for _ in 0..iters {
            let _ = sur.raw_key(&links, &paths, &comp);
        }
        let per_rawkey = t.elapsed().as_nanos() as f64 / iters as f64 / 1000.0;

        let t = Instant::now();
        for _ in 0..50 {
            let _ = canonicalize(&links, &paths, &comp);
        }
        let per_canon = t.elapsed().as_nanos() as f64 / 50.0 / 1000.0;

        let mut solver = ComponentFill::default();
        let t = Instant::now();
        for _ in 0..20 {
            let _ = solver.fill_component(&links, &paths, &comp);
        }
        let per_exact = t.elapsed().as_nanos() as f64 / 20.0 / 1000.0;

        eprintln!("predict(hit): {per_hit:.1} us");
        eprintln!("raw_key:      {per_rawkey:.1} us");
        eprintln!("canonicalize: {per_canon:.1} us");
        eprintln!("exact fill:   {per_exact:.1} us");
        eprintln!("stats: {:?}", sur.stats());
    }

    /// Net-level churn timing at the collective geometry (512-flow/16-link
    /// components, 16384 flows total), mirroring the criterion bench but
    /// without its harness noise. Prints per-recompute times for the
    /// surrogate and the incremental allocator.
    #[test]
    #[ignore]
    fn profile_collective_churn() {
        use crate::flownet::{FlowNet, FlowSpec};
        use crate::time::SimTime;

        const N: usize = 16384;
        const NCOMP: usize = 8;
        const COMP_LINKS: usize = 64;
        let run = |mut net: FlowNet, label: &str| {
            let links: Vec<crate::flownet::LinkId> = (0..NCOMP * COMP_LINKS)
                .map(|_| net.add_link(4e12, f64::INFINITY))
                .collect();
            let spec_of = |net: &mut FlowNet, i: usize| {
                let comp = i % NCOMP;
                let k = i / NCOMP;
                let a = links[comp * COMP_LINKS + k % COMP_LINKS];
                let b = links[comp * COMP_LINKS + (k * 7 + 1) % COMP_LINKS];
                let ids = if a == b { vec![a] } else { vec![a, b] };
                let path = net.intern_path(&ids);
                FlowSpec {
                    path,
                    size_bits: 1e18,
                    demand_bps: 50e9 + (i / NCOMP) as f64 * 1e6,
                    tag: i as u64,
                }
            };
            let mut handles: Vec<crate::flownet::FlowHandle> = (0..N)
                .map(|i| {
                    let s = spec_of(&mut net, i);
                    net.start_flow(SimTime::ZERO, s)
                })
                .collect();
            net.recompute_if_dirty();
            let mut next = N;
            // Warm.
            for _ in 0..64 {
                let victim = handles.remove(0);
                net.kill_flow(SimTime::ZERO, victim);
                let s = spec_of(&mut net, next);
                handles.push(net.start_flow(SimTime::ZERO, s));
                next += 1;
            }
            let iters = 512;
            let t = Instant::now();
            for _ in 0..iters {
                let victim = handles.remove(0);
                net.kill_flow(SimTime::ZERO, victim);
                let s = spec_of(&mut net, next);
                handles.push(net.start_flow(SimTime::ZERO, s));
                next += 1;
            }
            // Each kill and each start forces one recompute.
            let per_recompute = t.elapsed().as_nanos() as f64 / (iters * 2) as f64 / 1000.0;
            let scope = net.alloc_scope();
            eprintln!(
                "{label}: {per_recompute:.1} us/recompute, scope {} flows/{} links per event ({} events), stats {:?}",
                scope.flows_touched / scope.events.max(1),
                scope.links_touched / scope.events.max(1),
                scope.events,
                net.surrogate_stats()
            );
        };
        run(
            crate::flownet::FlowNet::with_allocator_box(Box::new(SurrogateMaxMin::with_config(
                SurrogateConfig {
                    validate_every: 64,
                    cache_cap: 4096,
                },
            ))),
            "surrogate(ve=64)",
        );
        run(
            crate::flownet::FlowNet::with_allocator_box(Box::new(SurrogateMaxMin::with_config(
                SurrogateConfig {
                    validate_every: 0,
                    cache_cap: 4096,
                },
            ))),
            "surrogate(ve=0) ",
        );
        run(
            crate::flownet::FlowNet::with_allocator(crate::alloc::AllocatorKind::Incremental),
            "incremental     ",
        );
    }
}

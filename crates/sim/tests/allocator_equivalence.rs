//! Equivalence suite: the incremental allocator must produce the same
//! max-min rates as the dense reference oracle under arbitrary flow churn
//! and link perturbations.
//!
//! Within one bottleneck component the two solvers perform identical
//! arithmetic, but when several components are live the dense solver
//! interleaves their filling rounds (one global delta per round) while the
//! incremental solver fills each component alone — same fixpoint, different
//! float summation order. Rates are therefore compared with `RATE_EPS` as a
//! *relative* tolerance, which at 1e-6 is far tighter than any behavioural
//! difference the figures could see. Bitwise identity is asserted where it
//! is guaranteed: flows whose component was untouched by a perturbation.
//!
//! The net recomputes lazily, so every mutation at one instant folds into
//! one recompute. A second suite checks that this batching is exact: a net
//! observed only between instants ends each instant bitwise equal to one
//! that recomputes after every mutation.

use hpn_sim::{AllocatorKind, FlowHandle, FlowNet, FlowSpec, LinkId, NetProbe, SimTime};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

const GBPS: f64 = 1e9;
/// Mirrors the solver's internal saturation tolerance.
const RATE_EPS: f64 = 1e-6;

/// One step of a churn scenario, driven by proptest-chosen integers.
#[derive(Clone, Debug)]
enum Op {
    /// Start a flow over the given link picks with the given demand (Gbps).
    Add { picks: Vec<usize>, demand_gbps: u64 },
    /// Kill the n-th oldest live flow (modulo live count).
    Kill { nth: usize },
    /// Set a link's capacity (Gbps; 0 is allowed and models a dead link).
    SetCap { link: usize, cap_gbps: u64 },
    /// Toggle a link down/up.
    Toggle { link: usize },
}

fn op_strategy(nlinks: usize) -> impl Strategy<Value = Op> {
    (
        0usize..4,
        proptest::collection::vec(0usize..nlinks, 1..4),
        1u64..=400,
        0usize..16,
    )
        .prop_map(move |(which, picks, demand, idx)| match which {
            0 | 1 => Op::Add {
                picks,
                demand_gbps: demand,
            },
            2 => Op::Kill { nth: idx },
            _ => {
                if demand % 2 == 0 {
                    Op::SetCap {
                        link: idx % nlinks,
                        cap_gbps: demand / 2,
                    }
                } else {
                    Op::Toggle { link: idx % nlinks }
                }
            }
        })
}

/// A FlowNet plus the bookkeeping to replay one op sequence on it.
struct Driver {
    net: FlowNet,
    links: Vec<LinkId>,
    live: Vec<FlowHandle>,
    down: Vec<bool>,
    next_tag: u64,
    /// The instant ops apply at.
    now: SimTime,
    /// Size of every flow an `Add` starts.
    flow_bits: f64,
    /// Whether an `Add` collapses consecutive repeats of a link in its
    /// path (the default) or keeps the path exactly as picked.
    dedup_paths: bool,
}

impl Driver {
    fn new(kind: AllocatorKind, caps_gbps: &[u64]) -> Self {
        let mut net = FlowNet::with_allocator(kind);
        let links = caps_gbps
            .iter()
            .map(|&c| net.add_link(c as f64 * GBPS, f64::INFINITY))
            .collect();
        Driver {
            net,
            links,
            live: Vec::new(),
            down: vec![false; caps_gbps.len()],
            next_tag: 0,
            now: SimTime::ZERO,
            flow_bits: 1e15,
            dedup_paths: true,
        }
    }

    /// Advance to `t`, dropping completed flows from the live set, and
    /// return the completions as `(tag, finish ns)`.
    fn advance(&mut self, t: SimTime) -> Vec<(u64, u64)> {
        self.now = t;
        let done = self.net.advance(t);
        self.live.retain(|h| !done.iter().any(|c| c.handle == *h));
        done.iter()
            .map(|c| (c.tag, c.finished.as_nanos()))
            .collect()
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Add { picks, demand_gbps } => {
                let mut path: Vec<LinkId> = picks.iter().map(|&i| self.links[i]).collect();
                if self.dedup_paths {
                    path.dedup();
                }
                let path = self.net.intern_path(&path);
                let h = self.net.start_flow(
                    self.now,
                    FlowSpec {
                        path,
                        size_bits: self.flow_bits,
                        demand_bps: *demand_gbps as f64 * GBPS,
                        tag: self.next_tag,
                    },
                );
                self.next_tag += 1;
                self.live.push(h);
            }
            Op::Kill { nth } => {
                if !self.live.is_empty() {
                    let h = self.live.remove(nth % self.live.len());
                    assert!(self.net.kill_flow(self.now, h));
                }
            }
            Op::SetCap { link, cap_gbps } => {
                self.net
                    .set_link_capacity(self.links[*link], *cap_gbps as f64 * GBPS);
            }
            Op::Toggle { link } => {
                self.down[*link] = !self.down[*link];
                self.net.set_link_up(self.links[*link], !self.down[*link]);
            }
        }
    }

    fn rates(&mut self) -> Vec<f64> {
        let live = self.live.clone();
        live.iter()
            .map(|&h| self.net.flow_rate(h).expect("live flow has a rate"))
            .collect()
    }
}

fn assert_rates_agree(dense: &[f64], incr: &[f64], when: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(dense.len(), incr.len());
    for (i, (&d, &x)) in dense.iter().zip(incr.iter()).enumerate() {
        // Both allocators fill component-by-component with identical float
        // arithmetic, so agreement is bitwise, not merely within RATE_EPS —
        // this is what lets figures regenerate byte-identically under
        // either allocator. (RATE_EPS remains the documented *contract*;
        // the implementation delivers exact equality.)
        prop_assert!(
            d.to_bits() == x.to_bits(),
            "{}: flow {} dense={} ({:#x}) incremental={} ({:#x}) diff {} (tol {})",
            when,
            i,
            d,
            d.to_bits(),
            x,
            x.to_bits(),
            (d - x).abs(),
            RATE_EPS * d.abs().max(x.abs()).max(1.0)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole acceptance property: random add/remove/capacity
    /// sequences through both allocators produce rates that agree after
    /// every single event.
    #[test]
    fn incremental_matches_dense_oracle(
        caps in proptest::collection::vec(1u64..=400, 2..7),
        ops_salt in 0u64..u64::MAX,
    ) {
        // Generate ops with a nested, caps-derived strategy: op link
        // indices must stay within `caps.len()`, which the outer strategy
        // only fixes at generation time.
        let nlinks = caps.len();
        let ops = proptest::collection::vec(op_strategy(nlinks), 1..40);
        let mut rng = proptest::TestRng::new(caps.iter().fold(
            ops_salt,
            |acc, &c| acc.wrapping_mul(31).wrapping_add(c),
        ));
        let ops = ops.generate(&mut rng);
        let mut dense = Driver::new(AllocatorKind::Dense, &caps);
        let mut incr = Driver::new(AllocatorKind::Incremental, &caps);
        for (step, op) in ops.iter().enumerate() {
            dense.apply(op);
            incr.apply(op);
            let rd = dense.rates();
            let ri = incr.rates();
            assert_rates_agree(&rd, &ri, &format!("after step {step} ({op:?})"))?;
        }
        // Feasibility cross-check: the incremental allocator never
        // oversubscribes. (Link aggregates refresh on recompute; flush the
        // lazy dirty flag first — the final ops may have left no live flow
        // to pull rates through.)
        incr.net.recompute_if_dirty();
        for (i, &l) in incr.links.clone().iter().enumerate() {
            if !incr.down[i] {
                let alloc = incr.net.link(l).allocated_bps;
                let cap = incr.net.link(l).nominal_bps;
                prop_assert!(alloc <= cap * (1.0 + 1e-6) + 1.0,
                    "link {i} oversubscribed: {alloc} > {cap}");
            }
        }
    }
}

/// The closure a recompute must cover, by brute force: union-find over
/// every link, joining the links of each live flow, then every component
/// that holds a perturbed link. Returns `(flows, links)` in it.
fn brute_force_closure(nlinks: usize, live: &[Vec<usize>], seeds: &[usize]) -> (u64, u64) {
    let mut parent: Vec<usize> = (0..nlinks).collect();
    fn root(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for path in live {
        for w in path.windows(2) {
            let (a, b) = (root(&mut parent, w[0]), root(&mut parent, w[1]));
            parent[a] = b;
        }
    }
    let hit: Vec<usize> = seeds.iter().map(|&l| root(&mut parent, l)).collect();
    let links = (0..nlinks)
        .filter(|&l| hit.contains(&root(&mut parent, l)))
        .count();
    let flows = live
        .iter()
        .filter(|path| hit.contains(&root(&mut parent, path[0])))
        .count();
    (flows as u64, links as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The incremental closure visits each flow once however many of its
    /// links the wave reaches, and each flow holds a member slot that is
    /// recycled when it leaves. Random bursts (each one recompute) open
    /// with a kill and close with a start, so a slot freed in a burst is
    /// taken again in that burst or the next, and paths keep repeated
    /// links (`[a, a]`, `[a, b, a]`). After every burst the rates equal
    /// the dense oracle's bit for bit, and the recompute's
    /// `flows_touched`/`links_touched` equal a brute-force union-find
    /// closure seeded by the links the burst perturbed.
    #[test]
    fn closure_is_exact_under_slot_recycling(
        caps in proptest::collection::vec(1u64..=400, 3..8),
        bursts in proptest::collection::vec(0usize..16, 1..14),
        ops_salt in 0u64..u64::MAX,
    ) {
        let nlinks = caps.len();
        let picks = proptest::collection::vec(0usize..nlinks, 1..5);
        let ops = proptest::collection::vec(op_strategy(nlinks), 0..6);
        let mut rng = proptest::TestRng::new(ops_salt);
        let mut dense = Driver::new(AllocatorKind::Dense, &caps);
        let mut incr = Driver::new(AllocatorKind::Incremental, &caps);
        dense.dedup_paths = false;
        incr.dedup_paths = false;
        // Test-side model: each live flow's link indices (aligned with
        // `incr.live`) and each link's nominal capacity.
        let mut live: Vec<Vec<usize>> = Vec::new();
        let mut cap: Vec<u64> = caps.clone();
        for (k, &nth) in bursts.iter().enumerate() {
            let mut burst = vec![Op::Kill { nth }];
            burst.extend(ops.generate(&mut rng));
            burst.push(Op::Add {
                picks: picks.generate(&mut rng),
                demand_gbps: 1 + nth as u64 * 37,
            });
            let mut seeds: Vec<usize> = Vec::new();
            for op in &burst {
                match op {
                    Op::Add { picks, .. } => {
                        seeds.extend(picks);
                        live.push(picks.clone());
                    }
                    Op::Kill { nth } => {
                        if !live.is_empty() {
                            seeds.extend(live.remove(nth % live.len()));
                        }
                    }
                    Op::SetCap { link, cap_gbps } => {
                        if cap[*link] != *cap_gbps {
                            cap[*link] = *cap_gbps;
                            seeds.push(*link);
                        }
                    }
                    Op::Toggle { link } => seeds.push(*link),
                }
                dense.apply(op);
                incr.apply(op);
            }
            let before = incr.net.alloc_scope();
            incr.net.recompute_if_dirty();
            let d = incr.net.alloc_scope().since(&before);
            prop_assert_eq!(d.events, 1, "burst {} is one recompute", k);
            let (flows, links) = brute_force_closure(nlinks, &live, &seeds);
            prop_assert_eq!(d.flows_touched, flows, "flows touched in burst {}", k);
            prop_assert_eq!(d.links_touched, links, "links touched in burst {}", k);
            let rd = dense.rates();
            let ri = incr.rates();
            assert_rates_agree(&rd, &ri, &format!("after burst {k} ({burst:?})"))?;
        }
    }
}

/// Regression for the exactness claim: a perturbation in one bottleneck
/// component must leave rates in an isolated component **bitwise**
/// unchanged — the incremental allocator never rewrites them at all.
#[test]
fn isolated_component_rates_bitwise_stable() {
    let mut net = FlowNet::with_allocator(AllocatorKind::Incremental);
    let a = net.add_link(100.0 * GBPS, f64::INFINITY);
    let b = net.add_link(70.0 * GBPS, f64::INFINITY);
    let c = net.add_link(55.0 * GBPS, f64::INFINITY);
    let pab = net.intern_path(&[a, b]);
    let pa = net.intern_path(&[a]);
    let pc = net.intern_path(&[c]);
    // Component 1: two flows tangled over links a,b with awkward demands so
    // the rates are not round numbers.
    let f1 = net.start_flow(
        SimTime::ZERO,
        FlowSpec {
            path: pab,
            size_bits: 1e15,
            demand_bps: 37.3 * GBPS,
            tag: 0,
        },
    );
    let f2 = net.start_flow(
        SimTime::ZERO,
        FlowSpec {
            path: pa,
            size_bits: 1e15,
            demand_bps: f64::INFINITY,
            tag: 1,
        },
    );
    // Component 2: flows on link c only.
    let g1 = net.start_flow(
        SimTime::ZERO,
        FlowSpec {
            path: pc,
            size_bits: 1e15,
            demand_bps: 41.7 * GBPS,
            tag: 2,
        },
    );
    let g2 = net.start_flow(
        SimTime::ZERO,
        FlowSpec {
            path: pc,
            size_bits: 1e15,
            demand_bps: f64::INFINITY,
            tag: 3,
        },
    );
    net.recompute_if_dirty();
    let r1 = net.flow_rate(f1).unwrap();
    let r2 = net.flow_rate(f2).unwrap();
    let s1 = net.flow_rate(g1).unwrap();
    let s2 = net.flow_rate(g2).unwrap();

    // Perturb ONLY component 2, repeatedly.
    let before = net.alloc_scope();
    net.set_link_capacity(c, 48.0 * GBPS);
    net.recompute_if_dirty();
    let g3 = net.start_flow(
        SimTime::ZERO,
        FlowSpec {
            path: pc,
            size_bits: 1e15,
            demand_bps: 10.0 * GBPS,
            tag: 4,
        },
    );
    net.recompute_if_dirty();
    net.kill_flow(SimTime::ZERO, g3);
    net.recompute_if_dirty();
    let delta = net.alloc_scope().since(&before);
    assert_eq!(delta.events, 3);
    assert!(
        delta.flows_touched <= 3 * 3,
        "recomputes stayed in component 2: {delta:?}"
    );

    // Component 1 rates: bitwise identical (never rewritten).
    assert_eq!(net.flow_rate(f1).unwrap().to_bits(), r1.to_bits());
    assert_eq!(net.flow_rate(f2).unwrap().to_bits(), r2.to_bits());
    // Component 2 rates changed (capacity dropped, flow churned through).
    assert_ne!(net.flow_rate(g1).unwrap().to_bits(), s1.to_bits());
    assert!(net.flow_rate(g2).unwrap() < s2);

    // Sanity: component 1 is where max-min puts it. f1 is demand-limited
    // at 37.3G; f2 takes the rest of link a.
    assert!((r1 - 37.3 * GBPS).abs() < 1.0);
    assert!((r2 - 62.7 * GBPS).abs() < 1.0);
}

/// A link that joins two previously separate components must merge them:
/// the next recompute after adding a bridging flow touches both sides.
#[test]
fn bridging_flow_merges_components() {
    let mut net = FlowNet::with_allocator(AllocatorKind::Incremental);
    let a = net.add_link(100.0 * GBPS, f64::INFINITY);
    let b = net.add_link(100.0 * GBPS, f64::INFINITY);
    let pa = net.intern_path(&[a]);
    let pb = net.intern_path(&[b]);
    let pab = net.intern_path(&[a, b]);
    let fa = net.start_flow(
        SimTime::ZERO,
        FlowSpec {
            path: pa,
            size_bits: 1e15,
            demand_bps: f64::INFINITY,
            tag: 0,
        },
    );
    let fb = net.start_flow(
        SimTime::ZERO,
        FlowSpec {
            path: pb,
            size_bits: 1e15,
            demand_bps: f64::INFINITY,
            tag: 1,
        },
    );
    net.recompute_if_dirty();
    assert_eq!(net.flow_rate(fa), Some(100.0 * GBPS));
    assert_eq!(net.flow_rate(fb), Some(100.0 * GBPS));

    let before = net.alloc_scope();
    let bridge = net.start_flow(
        SimTime::ZERO,
        FlowSpec {
            path: pab,
            size_bits: 1e15,
            demand_bps: f64::INFINITY,
            tag: 2,
        },
    );
    net.recompute_if_dirty();
    let delta = net.alloc_scope().since(&before);
    assert_eq!(
        delta.flows_touched, 3,
        "all three flows now share one component"
    );
    assert_eq!(delta.links_touched, 2);
    assert_eq!(net.flow_rate(fa), Some(50.0 * GBPS));
    assert_eq!(net.flow_rate(fb), Some(50.0 * GBPS));
    assert_eq!(net.flow_rate(bridge), Some(50.0 * GBPS));
}

/// Acceptance criterion for the incremental allocator: under realistic
/// churn at 4K concurrent flows (bottleneck components of a few dozen
/// flows, as a training job's collective traffic forms), it must touch at
/// least 5× fewer flows per event than the dense baseline. Mirrors the
/// `allocator` Criterion bench, but as a pass/fail regression.
#[test]
fn churn_scope_is_5x_smaller_than_dense_at_4k_flows() {
    const N: usize = 4096;
    const POD_LINKS: usize = 8;
    let mut means = Vec::new();
    for kind in [AllocatorKind::Dense, AllocatorKind::Incremental] {
        let mut net = FlowNet::with_allocator(kind);
        let nlinks = N / 8;
        let links: Vec<LinkId> = (0..nlinks)
            .map(|_| net.add_link(400.0 * GBPS, f64::INFINITY))
            .collect();
        let ngroups = nlinks / POD_LINKS;
        let path_of = |net: &mut FlowNet, i: usize| {
            let pod = i % ngroups;
            let a = links[pod * POD_LINKS + (i / ngroups) % POD_LINKS];
            let b = links[pod * POD_LINKS + (i * 3 + 1) % POD_LINKS];
            if a == b {
                net.intern_path(&[a])
            } else {
                net.intern_path(&[a, b])
            }
        };
        let mut handles: Vec<FlowHandle> = (0..N)
            .map(|i| {
                let path = path_of(&mut net, i);
                net.start_flow(
                    SimTime::ZERO,
                    FlowSpec {
                        path,
                        size_bits: 1e15,
                        demand_bps: 200.0 * GBPS,
                        tag: i as u64,
                    },
                )
            })
            .collect();
        net.recompute_if_dirty();
        let warm = net.alloc_scope();
        for i in 0..200 {
            let slot = (i * 37) % handles.len();
            net.kill_flow(SimTime::ZERO, handles[slot]);
            net.recompute_if_dirty();
            let path = path_of(&mut net, slot);
            handles[slot] = net.start_flow(
                SimTime::ZERO,
                FlowSpec {
                    path,
                    size_bits: 1e15,
                    demand_bps: 200.0 * GBPS,
                    tag: slot as u64,
                },
            );
            net.recompute_if_dirty();
        }
        let scope = net.alloc_scope().since(&warm);
        means.push(scope.mean_flows_touched());
    }
    let (dense, incr) = (means[0], means[1]);
    assert!(
        dense >= (N - 1) as f64,
        "dense touches every live flow, got {dense}"
    );
    assert!(
        incr * 5.0 <= dense,
        "incremental ({incr} flows/event) is not ≥5× smaller than dense ({dense})"
    );
}

/// Dense and incremental agree through a full simulate-advance lifecycle,
/// not just instantaneous allocations: completions happen at the same
/// times under both allocators.
#[test]
fn completion_times_match_across_allocators() {
    let mut times = Vec::new();
    for kind in [AllocatorKind::Dense, AllocatorKind::Incremental] {
        let mut net = FlowNet::with_allocator(kind);
        let l0 = net.add_link(100.0 * GBPS, f64::INFINITY);
        let l1 = net.add_link(50.0 * GBPS, f64::INFINITY);
        let p01 = net.intern_path(&[l0, l1]);
        let p0 = net.intern_path(&[l0]);
        let p1 = net.intern_path(&[l1]);
        for (path, size, tag) in [
            (p01, 25.0 * GBPS, 0u64),
            (p0, 150.0 * GBPS, 1),
            (p1, 50.0 * GBPS, 2),
        ] {
            net.start_flow(
                SimTime::ZERO,
                FlowSpec {
                    path,
                    size_bits: size,
                    demand_bps: f64::INFINITY,
                    tag,
                },
            );
        }
        let mut done = Vec::new();
        let mut guard = 0;
        while net.flow_count() > 0 {
            let t = net.next_completion().expect("progressing");
            for c in net.advance(t) {
                done.push((c.tag, t.as_nanos()));
            }
            guard += 1;
            assert!(guard < 10, "completion runaway");
        }
        times.push(done);
    }
    assert_eq!(
        times[0], times[1],
        "dense vs incremental completion schedule"
    );
}

/// The hot set is exactly {links with `active_flows > 0` or
/// `queue_bits > 0`}: no idle link is walked and no busy one is missed.
fn assert_hot_set_exact(net: &FlowNet, when: &str) -> Result<(), TestCaseError> {
    let hot: Vec<u32> = net.hot_links().iter().collect();
    let busy: Vec<u32> = (0..net.link_count() as u32)
        .filter(|&i| {
            let l = net.link(LinkId(i));
            l.active_flows > 0 || l.queue_bits > 0.0
        })
        .collect();
    prop_assert_eq!(hot, busy, "{}", when);
    Ok(())
}

/// Everything a batched recompute must reproduce, as exact bit patterns:
/// each live flow's rate and remaining bits, each link's aggregates and
/// queue, and the hot set (ascending).
#[derive(Debug, PartialEq)]
struct Snapshot {
    flows: Vec<(u64, u64)>,
    links: Vec<(usize, u64, u64, u64)>,
    hot: Vec<u32>,
}

fn snapshot(d: &mut Driver) -> Snapshot {
    let live = d.live.clone();
    let flows = live
        .iter()
        .map(|&h| {
            let rate = d.net.flow_rate(h).expect("live flow has a rate");
            let left = d.net.flow_remaining(h).expect("live flow");
            (rate.to_bits(), left.to_bits())
        })
        .collect();
    d.net.recompute_if_dirty();
    let links = d
        .links
        .iter()
        .map(|&l| {
            let s = d.net.link(l);
            (
                s.active_flows,
                s.allocated_bps.to_bits(),
                s.offered_bps.to_bits(),
                s.queue_bits.to_bits(),
            )
        })
        .collect();
    let hot: Vec<u32> = d.net.hot_links().iter().collect();
    Snapshot { flows, links, hot }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same-instant batching is exact: random bursts of starts, kills,
    /// link toggles and capacity changes, each burst at one instant. One
    /// net recomputes after every mutation; the other is only observed
    /// between instants, so each burst folds into one recompute — made by
    /// the snapshot when the burst is observed, else by the next advance.
    /// Under both allocators the two agree bit for bit, on completions at
    /// every advance and, after every observed burst, on rates, remaining
    /// bits, link aggregates, queues and the hot set.
    #[test]
    fn same_instant_batching_is_exact(
        caps in proptest::collection::vec(1u64..=400, 2..7),
        bursts in proptest::collection::vec((0u64..40, proptest::bool::ANY), 1..12),
        ops_salt in 0u64..u64::MAX,
        dense in proptest::bool::ANY,
    ) {
        let kind = if dense { AllocatorKind::Dense } else { AllocatorKind::Incremental };
        let nlinks = caps.len();
        let burst = proptest::collection::vec(op_strategy(nlinks), 1..8);
        let mut rng = proptest::TestRng::new(ops_salt);
        let mut eager = Driver::new(kind, &caps);
        let mut batched = Driver::new(kind, &caps);
        // Small flows: many complete between bursts.
        eager.flow_bits = 2e9;
        batched.flow_bits = 2e9;
        let mut t = SimTime::ZERO;
        for (k, &(gap, observe)) in bursts.iter().enumerate() {
            // A zero gap puts two bursts at one instant.
            t = SimTime::from_nanos(t.as_nanos() + gap * 1_000_000 + gap * 137);
            let done_eager = eager.advance(t);
            let done_batched = batched.advance(t);
            prop_assert_eq!(&done_eager, &done_batched, "completions before burst {}", k);
            assert_hot_set_exact(&eager.net, "after advance")?;
            assert_hot_set_exact(&batched.net, "after advance")?;
            for op in burst.generate(&mut rng) {
                eager.apply(&op);
                eager.net.recompute_if_dirty();
                assert_hot_set_exact(&eager.net, &format!("after {op:?}"))?;
                batched.apply(&op);
            }
            if observe {
                let a = snapshot(&mut eager);
                let b = snapshot(&mut batched);
                prop_assert_eq!(a, b, "{:?} after burst {} at {:?}", kind, k, t);
                assert_hot_set_exact(&batched.net, "after the batched recompute")?;
            }
        }
        let end = SimTime::from_nanos(t.as_nanos() + 50_000_000);
        prop_assert_eq!(eager.advance(end), batched.advance(end), "completions at the end");
        prop_assert_eq!(snapshot(&mut eager), snapshot(&mut batched), "{:?} at the end", kind);
    }
}

/// Probe that records the instant of every rate recompute.
struct RecomputeTimes(Arc<Mutex<Vec<SimTime>>>);

impl NetProbe for RecomputeTimes {
    fn rate_recompute(&mut self, t: SimTime, _f: u64, _l: u64, _a: u64) {
        self.0.lock().unwrap().push(t);
    }
}

/// Three mutations at one instant cost one recompute, made when rates are
/// next observed; a later instant's mutation costs one more, made when time
/// moves past it.
#[test]
fn same_instant_mutations_cost_one_recompute() {
    let times = Arc::new(Mutex::new(Vec::new()));
    let mut net = FlowNet::new();
    net.set_probe(Some(Box::new(RecomputeTimes(times.clone()))));
    let a = net.add_link(100.0 * GBPS, f64::INFINITY);
    let b = net.add_link(100.0 * GBPS, f64::INFINITY);
    let path = net.intern_path(&[a, b]);
    let spec = FlowSpec {
        path,
        size_bits: 1e12,
        demand_bps: f64::INFINITY,
        tag: 0,
    };
    let t0 = SimTime::from_millis(1);
    net.advance(t0);
    let f = net.start_flow(t0, spec);
    net.start_flow(t0, FlowSpec { tag: 1, ..spec });
    net.set_link_capacity(b, 50.0 * GBPS);
    assert!(
        times.lock().unwrap().is_empty(),
        "no recompute before an observation"
    );
    assert_eq!(net.flow_rate(f), Some(25.0 * GBPS));
    assert_eq!(net.flow_rate(f), Some(25.0 * GBPS));
    assert_eq!(
        *times.lock().unwrap(),
        vec![t0],
        "one recompute for the burst"
    );

    let t1 = SimTime::from_millis(2);
    net.kill_flow(t1, f);
    net.advance(SimTime::from_millis(3));
    assert_eq!(
        *times.lock().unwrap(),
        vec![t0, t1],
        "the kill's recompute runs when time moves, stamped at its instant"
    );
}

//! Criterion benches for the simulation engine hot paths: fluid max-min
//! recompute, event scheduling, ECMP hashing, routing and RePaC search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hpn_routing::hash::EcmpHasher;
use hpn_routing::repac;
use hpn_routing::{FiveTuple, HashMode, LinkHealth, RouteRequest, Router};
use hpn_sim::{AllocatorKind, Engine, FlowNet, FlowSpec, SimDuration, SimTime};
use hpn_topology::HpnConfig;

fn bench_flownet_recompute(c: &mut Criterion) {
    let mut group = c.benchmark_group("flownet_maxmin");
    for &nflows in &[64usize, 512, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(nflows), &nflows, |b, &n| {
            let mut net = FlowNet::new();
            let links: Vec<_> = (0..n / 4).map(|_| net.add_link(400e9, 1e7)).collect();
            for i in 0..n {
                let path = net.intern_path(&[links[i % links.len()], links[(i * 7) % links.len()]]);
                net.start_flow(
                    SimTime::ZERO,
                    FlowSpec {
                        path,
                        size_bits: 1e15,
                        demand_bps: 200e9,
                        tag: i as u64,
                    },
                );
            }
            b.iter(|| {
                // Toggling a link forces a recompute each iteration.
                net.set_link_capacity(links[0], 399e9);
                net.recompute_if_dirty();
                net.set_link_capacity(links[0], 400e9);
                net.recompute_if_dirty();
            });
        });
    }
    group.finish();
}

/// How many distinct pods churn between recomputes in the allocator
/// bench. A training job's collective traffic churns many components at
/// once (every rail of a restarted host changes together), so each bench
/// iteration is a kill/start pair in `CHURN_BATCH` different pod groups
/// followed by one recompute — giving component-partitioned allocators
/// several independent dirty components per solve. The pairs all happen
/// at one simulated instant, so the net batches them: nothing recomputes
/// until the explicit `recompute_if_dirty`.
const CHURN_BATCH: usize = 8;

/// Allocator churn bench: kill one flow and start a replacement in each
/// of [`CHURN_BATCH`] distinct pods, then recompute, at 1K/4K/16K
/// concurrent flows. Flows form bottleneck components of a few dozen
/// (each crosses two links inside an 8-link pod group), the shape a
/// training job's collective traffic takes — so component-partitioned
/// allocators recompute only the dirty pods while the dense one re-solves
/// the world. The per-event touched-flow counts print after each
/// measurement for the EXPERIMENTS.md scope table, and the µs/event
/// results land in `BENCH_alloc.json` (see [`write_alloc_tracking`]).
fn bench_allocator_churn(c: &mut Criterion) {
    const POD_LINKS: usize = 8;
    type MakeNet = fn() -> FlowNet;
    let variants: &[(&str, MakeNet)] = &[
        ("dense", || FlowNet::with_allocator(AllocatorKind::Dense)),
        ("incremental", || {
            FlowNet::with_allocator(AllocatorKind::Incremental)
        }),
    ];
    let mut group = c.benchmark_group("allocator");
    for &(name, make_net) in variants {
        for &n in &[1024usize, 4096, 16384] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
                let mut net = make_net();
                let nlinks = (n / 8).max(POD_LINKS * CHURN_BATCH);
                let links: Vec<_> = (0..nlinks).map(|_| net.add_link(400e9, 1e7)).collect();
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
                let mut handles: Vec<_> = (0..n)
                    .map(|i| {
                        let path = path_of(&mut net, i);
                        net.start_flow(
                            SimTime::ZERO,
                            FlowSpec {
                                path,
                                size_bits: 1e15,
                                demand_bps: 200e9,
                                tag: i as u64,
                            },
                        )
                    })
                    .collect();
                net.recompute_if_dirty();
                let warm = net.alloc_scope();
                let mut i = 0usize;
                b.iter(|| {
                    // One batch: churn CHURN_BATCH consecutive slots —
                    // consecutive i lands in consecutive pods (i % ngroups)
                    // — then a single recompute covering all dirty pods.
                    for _ in 0..CHURN_BATCH {
                        let slot = i % handles.len();
                        net.kill_flow(SimTime::ZERO, handles[slot]);
                        let path = path_of(&mut net, slot);
                        handles[slot] = net.start_flow(
                            SimTime::ZERO,
                            FlowSpec {
                                path,
                                size_bits: 1e15,
                                demand_bps: 200e9,
                                tag: slot as u64,
                            },
                        );
                        i += 1;
                    }
                    net.recompute_if_dirty();
                });
                let scope = net.alloc_scope().since(&warm);
                eprintln!(
                    "allocator/{name}/{n}: {:.1} flows + {:.1} links touched per event \
                     ({:.4} of active flows)",
                    scope.mean_flows_touched(),
                    scope.mean_links_touched(),
                    scope.touched_fraction(),
                );
            });
        }
    }

    // Collective geometry: the same churn protocol over a few LARGE
    // link groups (n/8 flows each, all-distinct demands). The `k`/`7k+1`
    // link pattern splits each group into 4 components of n/32 flows, so
    // at 16K flows the exact progressive fill runs ~512 freeze rounds per
    // component — the regime of a collective's flows sharing one
    // bottleneck set — while the pod geometry above measures the
    // bookkeeping-bound regime.
    const NCOMP: usize = 8;
    const COMP_LINKS: usize = 64;
    let name = "incremental_collective";
    let n = 16384usize;
    group.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
        let mut net = FlowNet::with_allocator(AllocatorKind::Incremental);
        let links: Vec<_> = (0..NCOMP * COMP_LINKS)
            .map(|_| net.add_link(4e12, 1e7))
            .collect();
        // Slot i lives in link group (i % NCOMP); consecutive slots
        // churn distinct groups, like the pod bench. Distinct
        // demands per in-component slot force one fill freeze round
        // per flow, making the exact solve O(flows²) per recompute.
        let spec_of = |net: &mut FlowNet, i: usize| {
            let comp = i % NCOMP;
            let k = i / NCOMP;
            let a = links[comp * COMP_LINKS + k % COMP_LINKS];
            let b = links[comp * COMP_LINKS + (k * 7 + 1) % COMP_LINKS];
            let path = if a == b {
                net.intern_path(&[a])
            } else {
                net.intern_path(&[a, b])
            };
            FlowSpec {
                path,
                size_bits: 1e15,
                demand_bps: 50e9 + k as f64 * 1e6,
                tag: i as u64,
            }
        };
        let mut handles: Vec<_> = (0..n)
            .map(|i| {
                let spec = spec_of(&mut net, i);
                net.start_flow(SimTime::ZERO, spec)
            })
            .collect();
        net.recompute_if_dirty();
        let warm = net.alloc_scope();
        let mut i = 0usize;
        b.iter(|| {
            for _ in 0..CHURN_BATCH {
                let slot = i % handles.len();
                net.kill_flow(SimTime::ZERO, handles[slot]);
                let spec = spec_of(&mut net, slot);
                handles[slot] = net.start_flow(SimTime::ZERO, spec);
                i += 1;
            }
            net.recompute_if_dirty();
        });
        let scope = net.alloc_scope().since(&warm);
        eprintln!(
            "allocator/{name}/{n}: {:.1} flows + {:.1} links touched per event \
                     ({:.4} of active flows)",
            scope.mean_flows_touched(),
            scope.mean_links_touched(),
            scope.touched_fraction(),
        );
    });
    group.finish();
    write_alloc_tracking(c);
}

/// Write `BENCH_alloc.json` at the workspace root from the allocator
/// group's timings: µs per churn event (one kill/start pair; each bench
/// iteration performs [`CHURN_BATCH`] of them plus the recompute) for
/// every allocator variant and flow count. Skipped in smoke mode and when
/// a `cargo bench -- <filter>` excluded the whole group.
fn write_alloc_tracking(c: &Criterion) {
    let results: Vec<_> = c
        .results()
        .iter()
        .filter(|r| r.name.starts_with("allocator/"))
        .collect();
    if results.is_empty() {
        return;
    }
    let mut body = String::from("{\n");
    body.push_str("  \"bench\": \"allocator churn (cargo bench -- allocator)\",\n");
    body.push_str("  \"unit\": \"us_per_event\",\n");
    body.push_str(&format!(
        "  \"events_per_iteration\": {CHURN_BATCH},\n  \"results\": {{\n"
    ));
    for (idx, r) in results.iter().enumerate() {
        let label = r.name.trim_start_matches("allocator/");
        let us_per_event = r.mean_ns / CHURN_BATCH as f64 / 1_000.0;
        let comma = if idx + 1 == results.len() { "" } else { "," };
        body.push_str(&format!("    \"{label}\": {us_per_event:.2}{comma}\n"));
    }
    body.push_str("  }\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_alloc.json");
    std::fs::write(path, body).expect("write BENCH_alloc.json");
    eprintln!("wrote {path}");
}

fn bench_engine_events(c: &mut Criterion) {
    c.bench_function("engine_schedule_execute_10k", |b| {
        b.iter(|| {
            let mut eng: Engine<u64> = Engine::new();
            let mut world = 0u64;
            for i in 0..10_000u64 {
                eng.schedule_at(SimTime::from_nanos(i), |w: &mut u64, _| *w += 1);
            }
            eng.run(&mut world);
            assert_eq!(world, 10_000);
        });
    });
}

fn bench_hashing(c: &mut Criterion) {
    let t = FiveTuple::rdma(1, 0, 2, 0, 51234);
    let pol = EcmpHasher::new(HashMode::Polarized);
    let ind = EcmpHasher::new(HashMode::Independent);
    c.bench_function("ecmp_hash_polarized", |b| {
        b.iter(|| pol.select(&t, 7, 60));
    });
    c.bench_function("ecmp_hash_independent", |b| {
        b.iter(|| ind.select(&t, 7, 60));
    });
}

fn bench_routing(c: &mut Criterion) {
    let fabric = HpnConfig::medium().build();
    let router = Router::new(&fabric, HashMode::Polarized);
    let health = LinkHealth::new(fabric.net.link_count());
    let dst = fabric.segment_hosts(1)[0].id;
    c.bench_function("router_cross_segment_route", |b| {
        let mut sport = 0u16;
        b.iter(|| {
            sport = sport.wrapping_add(1);
            router
                .route(
                    &fabric,
                    &health,
                    &RouteRequest {
                        src_host: 0,
                        src_rail: 0,
                        dst_host: dst,
                        dst_rail: 0,
                        sport,
                        port: None,
                    },
                )
                .expect("routable")
        });
    });
    c.bench_function("repac_find_4_disjoint_paths", |b| {
        b.iter(|| repac::find_paths(&router, &fabric, &health, 0, 0, dst, 0, 4, 49152));
    });
}

fn bench_fabric_build(c: &mut Criterion) {
    c.bench_function("build_hpn_medium_fabric", |b| {
        b.iter(|| HpnConfig::medium().build());
    });
}

fn bench_flow_lifecycle(c: &mut Criterion) {
    c.bench_function("flow_start_complete_cycle", |b| {
        let mut net = FlowNet::new();
        let l = net.add_link(400e9, 1e7);
        let path = net.intern_path(&[l]);
        let mut now = SimTime::ZERO;
        b.iter(|| {
            let _h = net.start_flow(
                now,
                FlowSpec {
                    path,
                    size_bits: 4e9,
                    demand_bps: 200e9,
                    tag: 0,
                },
            );
            let t = net.next_completion().expect("progresses");
            let done = net.advance(t);
            assert_eq!(done.len(), 1);
            now = t + SimDuration::from_nanos(1);
        });
    });
}

criterion_group!(
    benches,
    bench_flownet_recompute,
    bench_allocator_churn,
    bench_engine_events,
    bench_hashing,
    bench_routing,
    bench_fabric_build,
    bench_flow_lifecycle
);
criterion_main!(benches);

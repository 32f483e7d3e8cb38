//! Integration tests for `hpn-experiments serve`: the determinism
//! contract (serve output ≡ batch output, cold or warm cache), concurrent
//! clients, and malformed-input handling.

use hpn_bench::serve::{
    diff_vs_oracle, oracle_bytes, request, split_run_body, ServeConfig, Server, MAX_BODY,
};
use hpn_bench::{Scale, SimCtx};
use hpn_scenario::{FaultsSpec, Injection, ModelId, Scenario, TopologySpec, WorkloadSpec};
use hpn_sim::AllocatorKind;
use hpn_topology::HpnConfig;

fn training(name: &str) -> Scenario {
    Scenario::new(name, TopologySpec::Hpn(HpnConfig::tiny()))
        .with_workload(WorkloadSpec::new(ModelId::Llama7b, 2, 2, 64).gpu_secs(0.05))
}

fn faulty(name: &str) -> Scenario {
    training(name).with_faults(FaultsSpec {
        poisson: None,
        injections: vec![Injection {
            host: 0,
            rail: 0,
            port: 0,
            at_secs: 0.5,
            repair_secs: Some(1.0),
        }],
    })
}

fn spawn(jobs: usize) -> Server {
    Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            jobs,
            scale: Scale::Quick,
            share_memo: false,
        },
    )
    .expect("bind loopback")
}

/// The tentpole acceptance bar: a served run is byte-identical to the
/// batch CLI's output both on a cold cache and on a warm one — including
/// the "same topology, different faults" warm case, which reuses the
/// fabric, router and route set.
#[test]
fn serve_matches_batch_bytes_cold_and_warm() {
    let server = spawn(2);
    let sc = training("serve-batch");
    diff_vs_oracle(server.addr(), &SimCtx::new(), &sc, Scale::Quick).expect("cold");
    diff_vs_oracle(server.addr(), &SimCtx::new(), &sc, Scale::Quick).expect("warm (full hit)");
    // Different fault schedule: topology/router/paths stay warm, output
    // still matches the cache-free oracle byte for byte.
    diff_vs_oracle(
        server.addr(),
        &SimCtx::new(),
        &faulty("serve-faulty"),
        Scale::Quick,
    )
    .expect("warm (same topology, different faults)");
    let stats = server.cache_stats();
    assert_eq!(stats.topology_misses, 1, "one fabric build total");
    assert_eq!(stats.topology_hits, 2);
    assert_eq!(stats.router_hits, 2);
    assert!(stats.path_hits >= 1, "route set reused: {stats:?}");
    server.stop();
    server.join();
}

/// Eight concurrent clients interleaving check and run requests: every
/// response is well-formed, every run matches the oracle, and the shared
/// cache never corrupts a result.
#[test]
fn eight_concurrent_clients_interleave_check_and_run() {
    let server = spawn(4);
    let addr = server.addr();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                // Two distinct scenario shapes alternate across clients, so
                // the cache serves concurrent hits and misses.
                let sc = if i % 2 == 0 {
                    training("conc-even")
                } else {
                    faulty("conc-odd")
                };
                let toml = sc.to_toml();
                let (status, body) =
                    request(addr, "POST", "/scenario/check", toml.as_bytes()).expect("check");
                assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
                diff_vs_oracle(addr, &SimCtx::new(), &sc, Scale::Quick)
                    .expect("run matches oracle");
                let (status, _) = request(addr, "GET", "/status", b"").expect("status");
                assert_eq!(status, 200);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let stats = server.cache_stats();
    assert_eq!(stats.harvests, 8, "every run harvested");
    assert_eq!(
        stats.topology_hits + stats.topology_misses,
        8,
        "every run consulted the cache: {stats:?}"
    );
    server.stop();
    server.join();
}

/// Malformed and oversized bodies produce structured 4xx responses and
/// leave the cache untouched — a bad request can never poison state that
/// later requests reuse.
#[test]
fn bad_requests_get_structured_errors_without_cache_poisoning() {
    let server = spawn(1);
    let addr = server.addr();

    let (status, body) = request(addr, "POST", "/scenario/run", b"name = [[[").expect("send");
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("\"ok\":false"));

    // Valid TOML, invalid cross-layer semantics (dp larger than hosts).
    let sc = Scenario::new("bad-dp", TopologySpec::Hpn(HpnConfig::tiny()))
        .with_workload(WorkloadSpec::new(ModelId::Llama7b, 2, 64, 4096));
    let (status, body) =
        request(addr, "POST", "/scenario/run", sc.to_toml().as_bytes()).expect("send");
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));

    let oversized = vec![b'#'; MAX_BODY + 1];
    let (status, body) = request(addr, "POST", "/scenario/run", &oversized).expect("send");
    assert_eq!(status, 413, "{}", String::from_utf8_lossy(&body));

    let stats = server.cache_stats();
    assert_eq!(
        stats,
        hpn_scenario::CacheStats::default(),
        "rejected requests never touch the cache"
    );

    // The server still works afterwards.
    diff_vs_oracle(
        addr,
        &SimCtx::new(),
        &training("after-errors"),
        Scale::Quick,
    )
    .expect("healthy after 4xx");
    server.stop();
    server.join();
}

/// A run response splits at the separator into the exact JSONL + manifest
/// the batch oracle computes, and the JSONL part really streams events
/// (starts with the cell's `sim_start`).
#[test]
fn run_response_shape_is_jsonl_then_manifest() {
    let server = spawn(1);
    let sc = training("shape");
    let (status, body) = request(
        server.addr(),
        "POST",
        "/scenario/run",
        sc.to_toml().as_bytes(),
    )
    .expect("run");
    assert_eq!(status, 200);
    let (jsonl, manifest) = split_run_body(&body).expect("separator present");
    let first_line = std::str::from_utf8(jsonl).unwrap().lines().next().unwrap();
    assert!(first_line.contains("sim_start"), "{first_line}");
    assert!(first_line.contains("\"shape seed=0"), "{first_line}");
    let (want_jsonl, want_manifest) = oracle_bytes(&sc, Scale::Quick);
    assert_eq!(jsonl, want_jsonl.as_slice());
    assert_eq!(manifest, want_manifest.as_bytes());
    server.stop();
    server.join();
}

/// The server's base context reaches every request's cell: a server
/// spawned with the dense allocator serves the dense oracle's bytes, and
/// its manifest names the allocator that ran.
#[test]
fn spawn_with_runs_requests_under_the_base_ctx() {
    let base = SimCtx::new().with_allocator(AllocatorKind::Dense);
    let server = Server::spawn_with(
        "127.0.0.1:0",
        ServeConfig {
            jobs: 1,
            scale: Scale::Quick,
            share_memo: false,
        },
        base.clone(),
    )
    .expect("bind loopback");
    let sc = training("dense-base");
    diff_vs_oracle(server.addr(), &base, &sc, Scale::Quick).expect("served ≡ dense oracle");
    let (_, body) = request(
        server.addr(),
        "POST",
        "/scenario/run",
        sc.to_toml().as_bytes(),
    )
    .expect("run");
    let (_, manifest) = split_run_body(&body).expect("separator present");
    let manifest = std::str::from_utf8(manifest).unwrap();
    assert!(manifest.contains("\"allocator\": \"dense\""), "{manifest}");
    server.stop();
    server.join();
}

//! The `serve_whatif` workload: an open loop at a fixed offered rate
//! against an in-process `serve --quick` over loopback.
//!
//! The request mix is built in rounds. Every round holds the same request
//! classes — the nine shipped `examples/scenarios/`, seeded variants of
//! them that reuse a cached topology (changed `[workload]`, `[routing]` or
//! `[faults]`), fresh topologies the cache has never seen, and
//! `POST /scenario/check` requests — in a seeded order. Requests are due
//! at a fixed interval; two client connections issue them, and latency is
//! timed from each request's due time, so a late client shows up as
//! latency instead of hiding it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hpn_bench::serve::{oracle_bytes, request, ServeConfig, Server, MANIFEST_SEPARATOR};
use hpn_bench::Scale;
use hpn_scenario::{ArtifactCache, Scenario};
use hpn_sim::{split_seed, SplitMix64};
use hpn_telemetry::SimCtx;

use crate::out::{median, peak_rss_mb, quantile, Outcome};
use crate::trace::{Span, Tracer};
use crate::Args;

/// The shipped example scenarios, compiled in.
const EXAMPLES: [(&str, &str); 9] = [
    (
        "dcnplus_training",
        include_str!("../../examples/scenarios/dcnplus_training.toml"),
    ),
    (
        "fault_injection_sweep",
        include_str!("../../examples/scenarios/fault_injection_sweep.toml"),
    ),
    (
        "hpn_paper",
        include_str!("../../examples/scenarios/hpn_paper.toml"),
    ),
    (
        "hpn_training",
        include_str!("../../examples/scenarios/hpn_training.toml"),
    ),
    (
        "inference_serving",
        include_str!("../../examples/scenarios/inference_serving.toml"),
    ),
    (
        "moe_a2a",
        include_str!("../../examples/scenarios/moe_a2a.toml"),
    ),
    (
        "multi_job",
        include_str!("../../examples/scenarios/multi_job.toml"),
    ),
    (
        "tiny_smoke",
        include_str!("../../examples/scenarios/tiny_smoke.toml"),
    ),
    (
        "trace_replay",
        include_str!("../../examples/scenarios/trace_replay.toml"),
    ),
];

/// Offered load: one request every this many milliseconds.
const INTERVAL_MS: f64 = 100.0;

/// Requests per round: the nine examples, three variants, two fresh
/// topologies and two checks.
const ROUND: usize = 16;

/// Concurrent client connections and server workers (the box's cores).
const CONNECTIONS: usize = 2;

/// Server spawns timed for `setup_s`; the median is reported.
const SETUP_REPEATS: usize = 21;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    /// A shipped example, unchanged.
    Example,
    /// A shipped example with a changed `[workload]`, `[routing]` or
    /// `[faults]`: its topology is cached after the first round.
    Variant,
    /// A topology no earlier request used.
    Fresh,
    /// `POST /scenario/check`.
    Check,
}

/// One scheduled request.
struct Req {
    due_ms: f64,
    class: Class,
    /// Index into the distinct TOML bodies.
    body: usize,
}

/// Per-request measurements (milliseconds since the window opened). The
/// response payload itself is not kept, so the memory high-water mark
/// read at the end of the window covers the server and the load
/// generator only.
#[derive(Clone, Default)]
struct Timing {
    send_ms: f64,
    ttfb_ms: f64,
    end_ms: f64,
    status: u16,
    /// SHA-256 (hex) of the response payload.
    payload_sha: String,
    /// A check answered `{"ok":true...`.
    check_ok: bool,
    /// Last simulated instant of a run's telemetry stream, seconds.
    sim_s: f64,
    backlog: usize,
}

fn with_name(toml: &str, name: &str) -> String {
    let rest: Vec<&str> = toml
        .lines()
        .filter(|l| !l.trim_start().starts_with("name ="))
        .collect();
    format!("name = \"{name}\"\n{}\n", rest.join("\n"))
}

/// Insert `line` right after the `[section]` header.
fn set_in_section(toml: &str, section: &str, line: &str) -> String {
    let header = format!("[{section}]");
    let mut out = String::new();
    for l in toml.lines() {
        out.push_str(l);
        out.push('\n');
        if l.trim() == header {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Replace the value of `key` inside `[section]`.
fn replace_key(toml: &str, section: &str, key: &str, value: &str) -> String {
    let mut out = String::new();
    let mut current = String::new();
    for l in toml.lines() {
        let t = l.trim();
        if t.starts_with('[') {
            current = t.trim_matches(|c| c == '[' || c == ']').to_string();
        }
        if current == section && t.split('=').next().map(str::trim) == Some(key) {
            out.push_str(&format!("{key} = {value}\n"));
        } else {
            out.push_str(l);
            out.push('\n');
        }
    }
    out
}

fn example(name: &str) -> &'static str {
    EXAMPLES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, t)| *t)
        .expect("known example")
}

/// The generated inputs: distinct TOML bodies and the request schedule.
struct Mix {
    bodies: Vec<String>,
    schedule: Vec<Req>,
}

impl Mix {
    fn body(&mut self, toml: String) -> usize {
        if let Some(i) = self.bodies.iter().position(|b| *b == toml) {
            return i;
        }
        self.bodies.push(toml);
        self.bodies.len() - 1
    }

    /// Rounds of the request classes, each round in a seeded order, due
    /// every [`INTERVAL_MS`] until `seconds` is filled.
    fn generate(seed: u64, seconds: f64) -> Mix {
        let mut mix = Mix {
            bodies: Vec::new(),
            schedule: Vec::new(),
        };
        let mut rng = SplitMix64::new(split_seed(seed, 0x5e7e));
        // Whole rounds only, so every seed offers the same mix of request classes.
        let rounds = ((seconds * 1e3 / INTERVAL_MS / ROUND as f64).floor() as usize).max(1);
        let total = rounds * ROUND;
        let mut fresh = 0u64;
        while mix.schedule.len() < total {
            let mut pick = |n: u64| rng.next_u64() % n;
            let mut reqs: Vec<(Class, String)> = EXAMPLES
                .iter()
                .map(|(_, t)| (Class::Example, t.to_string()))
                .collect();
            // Same topology, other workload: a batch-size what-if.
            let batch = [32, 64, 128][pick(3) as usize];
            reqs.push((
                Class::Variant,
                with_name(
                    &replace_key(
                        example("tiny_smoke"),
                        "workload",
                        "global_batch",
                        &batch.to_string(),
                    ),
                    &format!("tiny-smoke-batch{batch}"),
                ),
            ));
            // Same topology, other routing: independent per-switch hashes.
            reqs.push((
                Class::Variant,
                with_name(
                    &replace_key(
                        example("hpn_training"),
                        "routing",
                        "hash",
                        "\"independent\"",
                    ),
                    "hpn-training-independent",
                ),
            ));
            // Same topology, other faults: a shifted injection time.
            let at = 0.25 * (1 + pick(4)) as f64;
            reqs.push((
                Class::Variant,
                with_name(
                    &replace_key(
                        example("fault_injection_sweep"),
                        "faults.inject",
                        "at_secs",
                        &format!("{at}"),
                    ),
                    &format!("fault-sweep-at{at}"),
                ),
            ));
            // Fresh topologies: a seeded, never-repeated switch buffer gives
            // a topology key the cache has not seen, at an unchanged build
            // cost.
            for base in ["tiny_smoke", "hpn_training"] {
                fresh += 1;
                let bits = 3_200_000 + 8 * (fresh + 1000 * pick(1000));
                let t = set_in_section(
                    example(base),
                    "topology",
                    &format!("switch_buffer_bits = {bits}.0"),
                );
                let t = if base == "hpn_training" {
                    // A medium-slice build with a small training job, so
                    // the miss is dominated by topology and routing.
                    let t = replace_key(&t, "workload", "model", "\"llama-7b\"");
                    let t = replace_key(&t, "workload", "gpu_secs_per_sample", "0.05");
                    let t = replace_key(&t, "workload", "pp", "2");
                    let t = replace_key(&t, "workload", "dp", "2");
                    replace_key(&t, "workload", "global_batch", "64")
                } else {
                    t
                };
                let t = with_name(&t, &format!("fresh-{base}-{fresh}"));
                if base == "tiny_smoke" {
                    // Validate a what-if fabric before running it.
                    reqs.push((Class::Check, t.clone()));
                }
                reqs.push((Class::Fresh, t));
            }
            // Validation of a shipped example beside its runs.
            reqs.push((Class::Check, example("hpn_training").to_string()));
            // Seeded order within the round (Fisher-Yates).
            for i in (1..reqs.len()).rev() {
                let j = pick(i as u64 + 1) as usize;
                reqs.swap(i, j);
            }
            debug_assert_eq!(reqs.len(), ROUND);
            for (class, toml) in reqs {
                let body = mix.body(toml);
                let due_ms = mix.schedule.len() as f64 * INTERVAL_MS;
                mix.schedule.push(Req {
                    due_ms,
                    class,
                    body,
                });
            }
        }
        mix
    }
}

/// Send one request and time the first body byte and the end.
fn timed_request(
    addr: SocketAddr,
    path: &str,
    body: &[u8],
    epoch: Instant,
) -> io::Result<(u16, Vec<u8>, f64, f64)> {
    let mut stream = TcpStream::connect(addr)?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut raw = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    let mut head_end = None;
    let mut ttfb_ms = None;
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&buf[..n]);
        if head_end.is_none() {
            head_end = find(&raw, b"\r\n\r\n").map(|p| p + 4);
        }
        if ttfb_ms.is_none() && head_end.is_some_and(|h| raw.len() > h) {
            ttfb_ms = Some(epoch.elapsed().as_secs_f64() * 1e3);
        }
    }
    let end_ms = epoch.elapsed().as_secs_f64() * 1e3;
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let h = head_end.ok_or_else(|| bad("no header terminator"))?;
    let head = std::str::from_utf8(&raw[..h]).map_err(|_| bad("non-UTF-8 headers"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("unparsable status line"))?;
    let chunked = head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked");
    let payload = if chunked {
        dechunk(&raw[h..])?
    } else {
        raw[h..].to_vec()
    };
    Ok((status, payload, ttfb_ms.unwrap_or(end_ms), end_ms))
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn dechunk(mut b: &[u8]) -> io::Result<Vec<u8>> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let mut out = Vec::new();
    loop {
        let eol = find(b, b"\r\n").ok_or_else(|| bad("unterminated chunk size"))?;
        let size = std::str::from_utf8(&b[..eol])
            .ok()
            .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
            .ok_or_else(|| bad("unparsable chunk size"))?;
        b = &b[eol + 2..];
        if size == 0 {
            return Ok(out);
        }
        if b.len() < size + 2 {
            return Err(bad("truncated chunk"));
        }
        out.extend_from_slice(&b[..size]);
        b = &b[size + 2..];
    }
}

/// Spawn a server and wait until it answers `GET /status`.
fn spawn_until_ready() -> Result<(Server, f64), String> {
    let start = Instant::now();
    let config = ServeConfig {
        jobs: CONNECTIONS,
        scale: Scale::Quick,
        share_memo: false,
    };
    let server = Server::spawn("127.0.0.1:0", config).map_err(|e| format!("serve: {e}"))?;
    loop {
        if let Ok((200, _)) = request(server.addr(), "GET", "/status", b"") {
            return Ok((server, start.elapsed().as_secs_f64()));
        }
        if start.elapsed() > Duration::from_secs(10) {
            return Err("server did not answer within 10s".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The last simulated instant in the telemetry JSONL part of a run
/// response, in seconds.
fn last_sim_secs(payload: &[u8]) -> f64 {
    let jsonl = find(payload, MANIFEST_SEPARATOR.as_bytes()).map_or(payload, |p| &payload[..p]);
    let key = b"\"t_ns\":";
    let Some(pos) = jsonl.windows(key.len()).rposition(|w| w == key) else {
        return 0.0;
    };
    let digits: String = jsonl[pos + key.len()..]
        .iter()
        .take_while(|c| c.is_ascii_digit())
        .map(|&c| c as char)
        .collect();
    digits.parse::<f64>().map_or(0.0, |ns| ns / 1e9)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let mut tr = Tracer::new(args.trace, t0, Arc::new(AtomicU64::new(0)));
    let mut out = Outcome::new();
    let mix = tr.time("input.generate", || Mix::generate(args.seed, args.seconds));

    // ---- set-up: spawn until the server answers, repeated on the idle
    // host; the last server is the one measured.
    let mut setup_s = Vec::new();
    for k in 1..SETUP_REPEATS {
        tr.set_request(u64::MAX - k as u64);
        let (s, secs) = tr.time("serve.spawn", spawn_until_ready)?;
        setup_s.push(secs);
        tr.time("serve.stop", || {
            s.stop();
            s.join()
        });
    }
    let (server, secs) = tr.time("serve.spawn", spawn_until_ready)?;
    setup_s.push(secs);
    let addr = server.addr();

    // ---- the open loop.
    let epoch = Instant::now();
    let next = AtomicUsize::new(0);
    let timings = Mutex::new(vec![Timing::default(); mix.schedule.len()]);
    let thread_spans: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            let mut ctr = tr.sibling();
            let (mix, next, timings, thread_spans) = (&mix, &next, &timings, &thread_spans);
            scope.spawn(move || {
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(req) = mix.schedule.get(i) else {
                        break;
                    };
                    ctr.set_request(i as u64);
                    let wait = ctr.begin("loadgen.wait");
                    let now_ms = epoch.elapsed().as_secs_f64() * 1e3;
                    if req.due_ms > now_ms {
                        std::thread::sleep(Duration::from_secs_f64((req.due_ms - now_ms) / 1e3));
                    }
                    ctr.end(wait);
                    let send_ms = epoch.elapsed().as_secs_f64() * 1e3;
                    let backlog = mix.schedule[i..]
                        .iter()
                        .take_while(|r| r.due_ms <= send_ms)
                        .count();
                    let (path, span) = match req.class {
                        Class::Check => ("/scenario/check", "serve.check"),
                        _ => ("/scenario/run", "serve.run"),
                    };
                    let open = ctr.begin(span);
                    let res = timed_request(addr, path, mix.bodies[req.body].as_bytes(), epoch);
                    ctr.end(open);
                    let digest = ctr.begin("verify.digest");
                    let t = match res {
                        Ok((status, payload, ttfb_ms, end_ms)) => Timing {
                            send_ms,
                            ttfb_ms,
                            end_ms,
                            status,
                            payload_sha: hpn_telemetry::sha256::hex_digest(&payload),
                            check_ok: payload.starts_with(b"{\"ok\":true"),
                            sim_s: last_sim_secs(&payload),
                            backlog,
                        },
                        Err(_) => Timing {
                            send_ms,
                            end_ms: epoch.elapsed().as_secs_f64() * 1e3,
                            ..Timing::default()
                        },
                    };
                    ctr.end(digest);
                    timings.lock().expect("timings")[i] = t;
                }
                thread_spans.lock().expect("spans").push(ctr.into_spans());
            });
        }
    });
    let window_s = epoch.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb();
    let cache = server.cache_stats();
    tr.time("serve.stop", || {
        server.stop();
        server.join()
    });
    let timings = timings.into_inner().expect("timings");

    // ---- verify, outside the window: every run body against the bytes
    // the in-process oracle produces for the same TOML.
    let mut expected_sha: Vec<Option<String>> = vec![None; mix.bodies.len()];
    for req in &mix.schedule {
        if req.class == Class::Check || expected_sha[req.body].is_some() {
            continue;
        }
        let toml = &mix.bodies[req.body];
        let sc = Scenario::parse_toml(toml).map_err(|e| format!("generated body: {e}"))?;
        let (jsonl, manifest) = tr.time("verify.oracle_bytes", || oracle_bytes(&sc, Scale::Quick));
        let mut want = jsonl;
        want.extend_from_slice(MANIFEST_SEPARATOR.as_bytes());
        want.push(b'\n');
        want.extend_from_slice(manifest.as_bytes());
        expected_sha[req.body] = Some(hpn_telemetry::sha256::hex_digest(&want));
    }
    let matched: Vec<bool> = mix
        .schedule
        .iter()
        .zip(&timings)
        .map(|(r, t)| {
            t.status == 200
                && match (r.class, &expected_sha[r.body]) {
                    (Class::Check, _) => t.check_ok,
                    (_, want) => want.as_ref() == Some(&t.payload_sha),
                }
        })
        .collect();

    // ---- the build path each request took, replayed outside the window.
    if args.trace {
        let shadow = tr.begin("shadow.replay");
        let cache = ArtifactCache::new();
        let ctx = SimCtx::new();
        for (i, req) in mix.schedule.iter().enumerate() {
            tr.set_request(i as u64);
            let Ok(sc) = tr.time("scenario.parse", || {
                Scenario::parse_toml(&mix.bodies[req.body])
            }) else {
                continue;
            };
            // The server validates every body with an uncached build.
            let Ok(fabric) = tr.time("topology.build", || sc.build_topology()) else {
                continue;
            };
            let router = tr.time("routing.build", || sc.build_routing(&fabric));
            let _ = tr.time("scenario.attach", || {
                sc.attach_workload(fabric, router, &ctx)
            });
            if req.class != Class::Check {
                let Ok(fabric) = tr.time("topology.build", || cache.fabric(&sc)) else {
                    continue;
                };
                let router = tr.time("routing.build", || cache.router(&sc, &fabric));
                let _ = tr.time("scenario.attach", || {
                    sc.attach_workload(fabric, router, &ctx)
                });
            }
        }
        tr.end(shadow);
    }

    // ---- results.
    let classes = |c: Class| mix.schedule.iter().filter(|r| r.class == c).count();
    let n = mix.schedule.len();
    out.summary.push(format!(
        "{n} requests at {:.1}/s over {window_s:.2}s: {} example, {} variant, {} fresh-topology, {} check",
        1e3 / INTERVAL_MS,
        classes(Class::Example),
        classes(Class::Variant),
        classes(Class::Fresh),
        classes(Class::Check)
    ));
    let distinct_topologies = {
        let mut keys: Vec<String> = mix
            .bodies
            .iter()
            .filter_map(|b| Scenario::parse_toml(b).ok())
            .map(|sc| hpn_scenario::cache::topology_key(&sc))
            .collect();
        keys.sort();
        keys.dedup();
        keys.len()
    };
    out.summary.push(format!(
        "{} distinct bodies, {distinct_topologies} distinct topologies; share of cache-miss (fresh) requests {:.3}, of check requests {:.3}",
        mix.bodies.len(),
        classes(Class::Fresh) as f64 / n as f64,
        classes(Class::Check) as f64 / n as f64
    ));
    let mut digest = hpn_telemetry::Sha256::new();
    for (req, ok) in mix.schedule.iter().zip(&matched) {
        digest.update(&(req.body as u64).to_le_bytes());
        digest.update(&[u8::from(*ok)]);
        if let Some(want) = &expected_sha[req.body] {
            digest.update(want.as_bytes());
        }
    }
    out.digest = hpn_telemetry::sha256::to_hex(&digest.finalize());
    let failed: Vec<usize> = (0..n).filter(|&i| !matched[i]).collect();
    out.check(failed.is_empty(), || {
        format!(
            "{} request(s) failed or differ from oracle_bytes: first {:?}",
            failed.len(),
            &failed[..failed.len().min(5)]
        )
    });
    out.attempted = n as u64;
    out.failed = failed.len() as u64;

    let latency: Vec<f64> = mix
        .schedule
        .iter()
        .zip(&timings)
        .map(|(r, t)| t.end_ms - r.due_ms)
        .collect();
    // Served runs: simulated seconds over the time each took from send to
    // last byte.
    let (sim_s, host_s) = mix
        .schedule
        .iter()
        .zip(&timings)
        .zip(&matched)
        .filter(|((r, _), ok)| r.class != Class::Check && **ok)
        .fold((0.0, 0.0), |(sim, host), ((_, t), _)| {
            (sim + t.sim_s, host + (t.end_ms - t.send_ms) / 1e3)
        });
    let beyond_p90: Vec<f64> = {
        let p90 = quantile(&latency, 0.9);
        latency.iter().copied().filter(|&l| l > p90).collect()
    };
    let distinct_beyond = {
        let mut v: Vec<u64> = beyond_p90.iter().map(|l| l.to_bits()).collect();
        v.sort_unstable();
        v.dedup();
        v.len()
    };
    out.summary.push(format!(
        "{} latency samples, {} beyond p90 ({distinct_beyond} distinct values)",
        latency.len(),
        beyond_p90.len(),
    ));
    out.e2e("setup_s", median(&setup_s), "s");
    out.e2e("sim_s_per_host_s", sim_s / f64::max(host_s, 1e-9), "s/s");
    out.e2e("request_ms_p50", median(&latency), "ms");
    out.e2e("request_ms_p90", quantile(&latency, 0.9), "ms");
    out.e2e("peak_rss_mb", peak_rss, "MB");

    out.wall_ns = t0.elapsed().as_nanos() as u64;
    let mut spans = vec![tr.into_spans()];
    spans.extend(thread_spans.into_inner().expect("spans"));
    out.spans = spans;
    out.layer_calls_ms("scenario.parse", "scenario.parse");
    out.layer_calls_ms("topology.build", "topology.build");
    out.layer_calls_ms("routing.build", "routing.build");
    out.layer_calls_ms("scenario.attach", "scenario.attach");
    out.layer_ratio(
        "scenario.cache.topology_hit_ratio",
        cache.topology_hits,
        cache.topology_hits + cache.topology_misses,
        "scenario.cache.topology_lookups",
    );
    out.layer_ratio(
        "scenario.cache.path_hit_ratio",
        cache.path_hits,
        cache.path_hits + cache.path_misses,
        "scenario.cache.path_lookups",
    );
    out.layer("trace.request_ms_p50", median(&latency), "ms");
    for name in [
        "core.iteration.calls",
        "core.iteration.ms",
        "core.iteration.ms_p50",
        "core.iteration.ms_p90",
        "core.iteration.timed_out",
        "core.iteration.ns_per_recompute",
        "transport.messages",
        "transport.reroutes",
        "transport.stalls",
        "sim.alloc.recomputes",
        "sim.alloc.flows_touched",
        "sim.alloc.flows_active",
        "sim.alloc.max_component",
        "sim.alloc.touched_ratio",
        "sim.net.paths",
        "sim.net.flows_completed",
        "sim.surrogate.hit_ratio",
        "sim.surrogate.lookups",
        "sim.surrogate.mismatches",
        "telemetry.events",
        "telemetry.observe.ms",
        "telemetry.manifest.ms",
        "telemetry.manifest.bytes",
    ] {
        out.layer(name, 0.0, unit_of(name));
    }
    let of = |c: Option<Class>, f: &dyn Fn(&Req, &Timing) -> f64| -> Vec<f64> {
        mix.schedule
            .iter()
            .zip(&timings)
            .filter(|(r, _)| {
                c.is_none_or(|c| r.class == c) && (c.is_some() || r.class != Class::Check)
            })
            .map(|(r, t)| f(r, t))
            .collect()
    };
    out.layer(
        "serve.ttfb_ms_p50",
        median(&of(None, &|_, t| t.ttfb_ms - t.send_ms)),
        "ms",
    );
    out.layer(
        "serve.body_ms_p50",
        median(&of(None, &|_, t| t.end_ms - t.ttfb_ms)),
        "ms",
    );
    out.layer(
        "serve.check_ms_p50",
        median(&of(Some(Class::Check), &|_, t| t.end_ms - t.send_ms)),
        "ms",
    );
    out.layer(
        "serve.backlog_max",
        timings.iter().map(|t| t.backlog).max().unwrap_or(0) as f64,
        "count",
    );
    let late: Vec<f64> = mix
        .schedule
        .iter()
        .zip(&timings)
        .map(|(r, t)| t.send_ms - r.due_ms)
        .collect();
    out.layer("serve.gen_late_ms_p90", quantile(&late, 0.9), "ms");
    crate::batch::add_trace_layers(&mut out, 0);
    Ok(out)
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with(".ms") || name.contains(".ms_") {
        "ms"
    } else if name.ends_with("ratio") {
        "ratio"
    } else if name.ends_with("ns_per_recompute") {
        "ns"
    } else {
        "count"
    }
}

/// The serve-only layers, reported as zero by the batch workloads, which
/// make no server calls.
pub fn zero_serve_layers(out: &mut Outcome) {
    for (name, unit) in [
        ("serve.ttfb_ms_p50", "ms"),
        ("serve.body_ms_p50", "ms"),
        ("serve.check_ms_p50", "ms"),
        ("serve.backlog_max", "count"),
        ("serve.gen_late_ms_p90", "ms"),
    ] {
        out.layer(name, 0.0, unit);
    }
}

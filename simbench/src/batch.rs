//! The batch workloads: `train_elephant` and `infer_mice`.
//!
//! Both drive the sequence `scenario run` drives — parse, build topology,
//! build routing, attach the workload, pre-schedule faults, one warm-up
//! iteration, then timed iterations — under the same telemetry capture
//! (event log plus `Registry`) that `scenario run` installs per cell. The
//! event log is drained after every iteration so memory stays flat however
//! many iterations fit in the window.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hpn_bench::report::fct_quantiles;
use hpn_bench::scenario_cli::{report_with_latency, LatencyMode};
use hpn_bench::Scale;
use hpn_core::IterationOutcome;
use hpn_faults::{FaultEvent, FaultKind};
use hpn_scenario::Scenario;
use hpn_sim::{split_seed, SplitMix64};
use hpn_telemetry::{
    Event, EventLog, Recorder, Registry, RunManifest, Sha256, SharedRecorder, SimCtx,
};
use hpn_transport::ClusterSim;

use crate::out::{median, peak_rss_mb, quantile, Outcome};
use crate::trace::{self, Tracer};
use crate::{allocator_name, Args};

/// Which batch workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TrainElephant,
    InferMice,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::TrainElephant => "train_elephant",
            Kind::InferMice => "infer_mice",
        }
    }

    /// Timed iterations after which the memory high-water mark is read.
    /// The session keeps every finished iteration's op graph, so memory
    /// grows with iterations run; reading it after a fixed amount of work
    /// keeps a faster simulator (more iterations per window) from showing
    /// up as a memory regression.
    fn rss_iterations(self) -> usize {
        match self {
            Kind::TrainElephant => 4,
            Kind::InferMice => 40,
        }
    }
}

/// Timed iterations every run completes, whatever `--seconds` says; the
/// digest and the `report_for` cross-check cover exactly these.
const CHECKED_ITERATIONS: usize = 2;

/// Set-up is repeated this many times and the median reported.
const SETUP_REPEATS: usize = 21;

/// The scenario TOML of a workload, generated from the seed alone.
pub fn scenario_toml(kind: Kind, seed: u64) -> String {
    let mut rng = SplitMix64::new(split_seed(seed, kind as u64 + 1));
    let mut pick = |n: u64| rng.next_u64() % n;
    match kind {
        Kind::TrainElephant => {
            // A Megatron GPT-3 175B job on 64 hosts (tp8 x pp4 x dp16) of a
            // medium HPN slice: about 13k rate recomputes per iteration,
            // each re-solving about 15 of about 1,100 active flows. The
            // seed varies the spare-host inventory and one NIC cable that
            // fails and is repaired inside the warm-up iteration, so every
            // timed iteration does the same amount of work.
            let backup = pick(3);
            let host = pick(16);
            let rail = pick(8);
            let port = pick(2);
            let at_ms = 100 + pick(200);
            let repair_ms = 250 + pick(100);
            format!(
                "name = \"train-elephant-{seed}\"\n\
                 [topology]\nkind = \"hpn\"\npreset = \"medium\"\n\
                 backup_hosts_per_segment = {backup}\n\
                 [routing]\nhash = \"polarized\"\n\
                 [workload]\nmodel = \"gpt3-175b\"\ngpu_secs_per_sample = 0.3\n\
                 pp = 4\ndp = 16\nglobal_batch = 512\niterations = {CHECKED_ITERATIONS}\n\
                 placement = \"segment-first\"\ntimeout_factor = 4.0\n\
                 [[faults.inject]]\nhost = {host}\nrail = {rail}\nport = {port}\n\
                 at_secs = {}\nrepair_secs = {}\n",
                at_ms as f64 / 1e3,
                repair_ms as f64 / 1e3
            )
        }
        Kind::InferMice => {
            // An open-loop LLaMa-7B inference stream at about 10^4
            // simulated requests/s to 8 serving replicas, each iteration a
            // 0.25 s window. The seed varies the spare-host inventory and
            // the offered rate within 2%, which moves every arrival; the
            // replica count, which sets how much work a window is, stays
            // fixed so that runs of different seeds are comparable.
            let backup = pick(3);
            let rate = 9_800 + 100 * pick(5);
            format!(
                "name = \"infer-mice-{seed}\"\n\
                 [topology]\nkind = \"hpn\"\npreset = \"medium\"\n\
                 backup_hosts_per_segment = {backup}\n\
                 [workload]\nkind = \"inference\"\nmodel = \"llama-7b\"\n\
                 serving_hosts = 8\nduration_secs = 0.25\n\
                 requests_per_sec = {rate}.0\niterations = {CHECKED_ITERATIONS}\n"
            )
        }
    }
}

/// In the traced mode one event in this many is timed, and its time
/// counted this many times: timing every event of `infer_mice` (millions
/// per run) would cost more than the observation it measures.
const TELEMETRY_SAMPLE: u64 = 16;

/// The per-cell capture sink of `scenario run` (event log teed into a
/// `Registry`), with sampled timing of the observations for the traced
/// mode.
struct Capture {
    log: EventLog,
    registry: Arc<Mutex<Registry>>,
    clock: Option<Arc<AtomicU64>>,
    seen: u64,
}

impl Capture {
    fn observe(&mut self, ev: &Event) {
        self.log.record(ev);
        self.registry
            .lock()
            .expect("registry lock poisoned")
            .record(ev);
    }
}

impl Recorder for Capture {
    fn record(&mut self, ev: &Event) {
        self.seen += 1;
        if self.clock.is_none() || self.seen % TELEMETRY_SAMPLE != 0 {
            self.observe(ev);
            return;
        }
        let t = Instant::now();
        self.observe(ev);
        let ns = t.elapsed().as_nanos() as u64 * TELEMETRY_SAMPLE;
        if let Some(clock) = &self.clock {
            clock.fetch_add(ns, Ordering::Relaxed);
        }
    }
}

/// `scenario run`'s fault replay: every scheduled fault becomes cable
/// timers on the simulator's own timeline.
fn schedule_faults(cs: &mut ClusterSim, schedule: &[FaultEvent]) {
    for ev in schedule {
        match ev.kind {
            FaultKind::LinkFailure { link, repair_after } => {
                cs.schedule_cable_event(ev.at, link, false);
                cs.schedule_cable_event(ev.at + repair_after, link, true);
            }
            FaultKind::LinkFlap { link, duration } => {
                cs.schedule_cable_event(ev.at, link, false);
                cs.schedule_cable_event(ev.at + duration, link, true);
            }
            FaultKind::TorCrash { tor, repair_after } => {
                for link in cs.fabric.net.out_links(tor).collect::<Vec<_>>() {
                    cs.schedule_cable_event(ev.at, link, false);
                    cs.schedule_cable_event(ev.at + repair_after, link, true);
                }
            }
        }
    }
}

/// Per-iteration facts the digest and the `report_for` check compare.
struct Checked {
    /// `(end seconds bits, samples/s bits)` per checked iteration, as the
    /// report's series holds them.
    series: Vec<(u64, u64)>,
    digest: String,
    fct_row: String,
}

/// A session ready to issue its first iteration, with its capture.
struct Built {
    sc: Scenario,
    session: hpn_scenario::Session,
    workload: hpn_scenario::BuiltWorkload,
    ws: hpn_core::WorkloadSession,
    log: EventLog,
    registry: Arc<Mutex<Registry>>,
}

/// One set-up as `scenario run` performs it — capture installed, then
/// parse, topology, routing, attach, session, fault pre-scheduling —
/// returning its wall time in seconds.
fn set_up(
    tr: &mut Tracer,
    kind: Kind,
    args: &Args,
    toml: &str,
    telemetry_clock: &Arc<AtomicU64>,
) -> Result<(f64, Built), String> {
    let log = EventLog::new();
    let registry = Arc::new(Mutex::new(Registry::new()));
    let rec = SharedRecorder::new(Box::new(Capture {
        log: log.clone(),
        registry: Arc::clone(&registry),
        clock: args.trace.then(|| Arc::clone(telemetry_clock)),
        seen: 0,
    }));
    rec.record(&Event::SimStart {
        label: format!(
            "{} seed={} allocator={} scale=full",
            kind.name(),
            args.seed,
            allocator_name(args.allocator)
        ),
    });
    let ctx = SimCtx::new()
        .with_allocator(args.allocator)
        .with_recorder(rec);
    let start = Instant::now();
    let sc = tr
        .time("scenario.parse", || Scenario::parse_toml(toml))
        .map_err(|e| format!("generated scenario does not parse: {e}"))?;
    let fabric = tr
        .time("topology.build", || sc.build_topology())
        .map_err(|e| format!("topology: {e}"))?;
    let router = tr.time("routing.build", || sc.build_routing(&fabric));
    let mut session = tr
        .time("scenario.attach", || {
            sc.attach_workload(fabric, router, &ctx)
        })
        .map_err(|e| format!("attach: {e}"))?;
    let workload = session.workload.take().ok_or("scenario has no workload")?;
    let ws = tr.time("scenario.session", || workload.session());
    tr.time("faults.schedule", || {
        schedule_faults(&mut session.cluster, &session.faults)
    });
    let secs = start.elapsed().as_secs_f64();
    Ok((
        secs,
        Built {
            sc,
            session,
            workload,
            ws,
            log,
            registry,
        },
    ))
}

pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let telemetry_clock = Arc::new(AtomicU64::new(0));
    let mut tr = Tracer::new(args.trace, t0, Arc::clone(&telemetry_clock));
    let mut out = Outcome::new();
    let toml = scenario_toml(kind, args.seed);
    let alloc = args.allocator;

    // ---- set-up. The first build is the one that runs; the remaining
    // repeats are spread over the window, between iterations after the
    // memory reading, so their median samples the host the way the
    // iterations do.
    let mut setup_s = Vec::new();
    let (secs, built) = set_up(&mut tr, kind, args, &toml, &telemetry_clock)?;
    setup_s.push(secs);
    let Built {
        sc,
        mut session,
        workload,
        mut ws,
        log,
        registry,
    } = built;
    let cs = &mut session.cluster;
    let mut events = 0u64;

    tr.set_request(u64::MAX);
    tr.time("core.warmup", || ws.run_iteration(cs));
    events += tr.time("telemetry.drain", || log.take().len()) as u64;

    // ---- timed window.
    let mut wall_ms = Vec::new();
    let mut sim_s = Vec::new();
    let mut timed_out = 0u64;
    let mut checked = None;
    let mut peak_rss = 0.0;
    let min_iterations = CHECKED_ITERATIONS.max(kind.rss_iterations());
    let window = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut i = 0usize;
    while i < min_iterations || window.elapsed() < budget {
        tr.set_request(i as u64);
        let start = Instant::now();
        let rec = tr.time("core.iteration", || ws.run_iteration(cs));
        wall_ms.push(start.elapsed().as_secs_f64() * 1e3);
        sim_s.push((rec.end - rec.start).as_secs_f64());
        if rec.outcome == IterationOutcome::TimedOut {
            timed_out += 1;
        }
        events += tr.time("telemetry.drain", || log.take().len()) as u64;
        i += 1;
        if i == CHECKED_ITERATIONS {
            checked = Some(digest_of(&ws, cs));
        }
        if i == kind.rss_iterations() {
            peak_rss = peak_rss_mb();
        }
        if i >= kind.rss_iterations()
            && setup_s.len() < SETUP_REPEATS
            && window.elapsed() >= budget.mul_f64(setup_s.len() as f64 / SETUP_REPEATS as f64)
        {
            tr.set_request(u64::MAX - setup_s.len() as u64);
            setup_s.push(set_up(&mut tr, kind, args, &toml, &telemetry_clock)?.0);
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    let checked = checked.expect("checked iterations ran");
    while setup_s.len() < SETUP_REPEATS {
        setup_s.push(set_up(&mut tr, kind, args, &toml, &telemetry_clock)?.0);
    }

    // ---- the manifest `scenario run` writes for the cell.
    let fct_count = cs.net.fct_sketch().count();
    let manifest_bytes = tr.time("telemetry.manifest", || {
        let reg = registry.lock().expect("registry");
        let mut m = RunManifest::new(args.seed, allocator_name(alloc), "full");
        m.set_param("figures", &sc.name);
        m.record_figure(&sc.name, &checked.digest);
        m.record_telemetry(&sc.name, &reg);
        m.to_json().len()
    });
    let stats = cs.stats();
    let scope = cs.alloc_scope();
    let paths = cs.net.path_count();
    let surrogate = cs.net.surrogate_stats();
    let hosts = cs.fabric.hosts.len();
    let flows = registry.lock().expect("registry").flows().added;

    // ---- verify pass, outside the timed window.
    let verify = tr.time("verify.report_for", || {
        report_with_latency(
            &SimCtx::new().with_allocator(alloc),
            &sc,
            Scale::Full,
            LatencyMode::Sim,
        )
    });
    let want: Vec<(u64, u64)> = verify
        .series
        .first()
        .map(|s| {
            s.samples()
                .iter()
                .map(|&(t, v)| (t.to_bits(), v.to_bits()))
                .collect()
        })
        .unwrap_or_default();
    let series_ok = want == checked.series;
    out.check(series_ok, || {
        format!(
            "iteration series differs from report_for: {:?} vs {:?}",
            checked.series, want
        )
    });
    let want_fct = verify
        .rows
        .iter()
        .find(|(k, _)| k == "simulated FCT")
        .map(|(_, v)| v.clone())
        .unwrap_or_default();
    let fct_ok = want_fct == checked.fct_row;
    out.check(fct_ok, || {
        format!(
            "FCT quantiles differ from report_for: '{}' vs '{want_fct}'",
            checked.fct_row
        )
    });
    out.check(timed_out == 0, || {
        format!("{timed_out} timed iteration(s) timed out")
    });

    // ---- results.
    out.summary.push(format!(
        "{}: {} fabric hosts, {} workload hosts, {}",
        sc.name,
        hosts,
        workload.hosts.len(),
        workload.describe()
    ));
    out.summary.push(format!(
        "{} timed iteration(s) in {window_s:.2}s, {flows} flows, {} messages, {} fault event(s)",
        wall_ms.len(),
        stats.completed,
        session.faults.len()
    ));
    out.digest = checked.digest;
    out.attempted = wall_ms.len() as u64;
    // A mismatch against `report_for` fails every checked iteration.
    let mismatched = if series_ok && fct_ok {
        0
    } else {
        CHECKED_ITERATIONS as u64
    };
    out.failed = (timed_out + mismatched).min(out.attempted);
    // Every timed iteration does the same work, and other load on the
    // host only adds time, so what an iteration costs the program is
    // estimated by the lower decile of the timed iterations. Unlike the
    // fastest iteration, the decile does not fall as more iterations fit
    // the window; unlike the median, it does not jump when the host
    // switches between its fast and slow states.
    let iteration_ms = quantile(&wall_ms, 0.1);
    let sim_per_iteration = sim_s.iter().sum::<f64>() / sim_s.len() as f64;
    out.summary.push(format!(
        "timed iterations as waited: mean {:.3} ms, p10 {iteration_ms:.3} ms, p50 {:.3} ms, p90 {:.3} ms",
        wall_ms.iter().sum::<f64>() / wall_ms.len() as f64,
        median(&wall_ms),
        quantile(&wall_ms, 0.9)
    ));
    out.e2e("setup_s", median(&setup_s), "s");
    out.e2e(
        "sim_s_per_host_s",
        sim_per_iteration / (iteration_ms / 1e3),
        "s/s",
    );
    // Every workload prints every end-to-end metric. A batch workload's
    // requests are its timed iterations, all the same work, so both
    // quantiles are the one iteration-time estimate above.
    out.e2e("request_ms_p50", iteration_ms, "ms");
    out.e2e("request_ms_p90", iteration_ms, "ms");
    out.e2e("peak_rss_mb", peak_rss, "MB");

    out.wall_ns = t0.elapsed().as_nanos() as u64;
    out.spans = vec![tr.into_spans()];
    out.layer_calls_ms("scenario.parse", "scenario.parse");
    out.layer_calls_ms("topology.build", "topology.build");
    out.layer_calls_ms("routing.build", "routing.build");
    out.layer_calls_ms("scenario.attach", "scenario.attach");
    out.layer_ratio(
        "scenario.cache.topology_hit_ratio",
        0,
        0,
        "scenario.cache.topology_lookups",
    );
    out.layer_ratio(
        "scenario.cache.path_hit_ratio",
        0,
        0,
        "scenario.cache.path_lookups",
    );
    out.layer("trace.request_ms_p50", iteration_ms, "ms");
    out.layer("core.iteration.calls", wall_ms.len() as f64, "count");
    out.layer("core.iteration.ms", wall_ms.iter().sum(), "ms");
    out.layer("core.iteration.ms_p50", median(&wall_ms), "ms");
    out.layer("core.iteration.ms_p90", quantile(&wall_ms, 0.9), "ms");
    out.layer("core.iteration.timed_out", timed_out as f64, "count");
    out.layer(
        "core.iteration.ns_per_recompute",
        wall_ms.iter().sum::<f64>() * 1e6 / scope.events.max(1) as f64,
        "ns",
    );
    out.layer("transport.messages", stats.completed as f64, "count");
    out.layer("transport.reroutes", stats.reroutes as f64, "count");
    out.layer("transport.stalls", stats.stalls as f64, "count");
    out.layer("sim.alloc.recomputes", scope.events as f64, "count");
    out.layer(
        "sim.alloc.flows_touched",
        scope.flows_touched as f64,
        "count",
    );
    out.layer("sim.alloc.flows_active", scope.flows_active as f64, "count");
    out.layer(
        "sim.alloc.max_component",
        scope.max_component_flows as f64,
        "count",
    );
    out.layer(
        "sim.alloc.touched_ratio",
        scope.flows_touched as f64 / scope.flows_active.max(1) as f64,
        "ratio",
    );
    out.layer("sim.net.paths", paths as f64, "count");
    out.layer("sim.net.flows_completed", fct_count as f64, "count");
    let (s_hits, s_lookups, s_mism) =
        surrogate.map_or((0, 0, 0), |s| (s.hits, s.lookups, s.mismatches));
    out.layer_ratio(
        "sim.surrogate.hit_ratio",
        s_hits,
        s_lookups,
        "sim.surrogate.lookups",
    );
    out.layer("sim.surrogate.mismatches", s_mism as f64, "count");
    out.layer("telemetry.events", events as f64, "count");
    out.layer(
        "telemetry.observe.ms",
        telemetry_clock.load(Ordering::Relaxed) as f64 / 1e6,
        "ms",
    );
    let manifest_ms = out.spans[0]
        .iter()
        .filter(|s| s.name == "telemetry.manifest")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum();
    out.layer("telemetry.manifest.ms", manifest_ms, "ms");
    out.layer("telemetry.manifest.bytes", manifest_bytes as f64, "count");
    crate::serve::zero_serve_layers(&mut out);
    let timed_events = if args.trace {
        events / TELEMETRY_SAMPLE
    } else {
        0
    };
    add_trace_layers(&mut out, timed_events);
    Ok(out)
}

fn digest_of(ws: &hpn_core::WorkloadSession, cs: &ClusterSim) -> Checked {
    let recs = &ws.records()[1..=CHECKED_ITERATIONS];
    let mut h = Sha256::new();
    let mut series = Vec::new();
    for r in recs {
        h.update(&(r.index as u64).to_le_bytes());
        h.update(&r.start.as_nanos().to_le_bytes());
        h.update(&r.end.as_nanos().to_le_bytes());
        h.update(&r.samples_per_sec.to_bits().to_le_bytes());
        series.push((r.end.as_secs_f64().to_bits(), r.samples_per_sec.to_bits()));
    }
    h.update(&cs.stats().completed.to_le_bytes());
    let sketch = cs.net.fct_sketch();
    for q in [0.5, 0.9, 0.99, 0.999] {
        h.update(&sketch.quantile(q).unwrap_or(0.0).to_bits().to_le_bytes());
    }
    h.update(&sketch.count().to_le_bytes());
    Checked {
        series,
        digest: hpn_telemetry::sha256::to_hex(&h.finalize()),
        fct_row: fct_quantiles(sketch),
    }
}

/// Span coverage, and an estimate of what tracing itself cost: the clock
/// reads it added (two per span, two per timed telemetry event) at the
/// measured cost of one clock read.
pub fn add_trace_layers(out: &mut Outcome, timed_events: u64) {
    let spans: usize = out.spans.iter().map(Vec::len).sum();
    out.layer(
        "trace.coverage",
        trace::coverage(&out.spans, out.wall_ns),
        "ratio",
    );
    out.layer("trace.spans", spans as f64, "count");
    let reads = 2 * (spans as u64 + timed_events);
    let overhead_ms = reads as f64 * trace::clock_read_ns() / 1e6;
    out.layer("trace.overhead_ms_est", overhead_ms, "ms");
    out.layer(
        "trace.overhead_pct_est",
        100.0 * overhead_ms / (out.wall_ns as f64 / 1e6),
        "%",
    );
}

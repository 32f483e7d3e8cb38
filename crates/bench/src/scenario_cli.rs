//! The `scenario` subcommand — user-authored scenario files.
//!
//! `hpn-experiments scenario check a.toml …` parses and cross-layer
//! validates each file, printing one diagnostic line per problem
//! (`file.toml:12: [workload.dp] …`) and never panicking on user input.
//!
//! `hpn-experiments scenario run a.toml …` executes each scenario through
//! the same cell machinery as the registered experiments
//! ([`crate::runner::run_cells`]): per-cell telemetry scope, fingerprint,
//! manifest and JSONL outputs, `--jobs N` parallelism with plan-order
//! merge. The reduction is generic — fabric inventory rows, then (when the
//! scenario declares a workload) a warm-up plus `iterations` training
//! iterations with the fault schedule replayed at its simulated times.

use std::path::Path;

use hpn_core::{IterationOutcome, WorkloadSession};
use hpn_faults::{FaultEvent, FaultKind};
use hpn_routing::HashMode;
use hpn_scenario::{ArtifactCache, Scenario, ScenarioError};
use hpn_sim::{LinkDecompositionEstimator, QuantileSketch, TimeSeries};
use hpn_telemetry::SimCtx;
use hpn_transport::ClusterSim;

use crate::report::Report;
use crate::Scale;

/// Which latency pipeline `scenario run --latency` engages.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LatencyMode {
    /// No latency rows — output identical to a run without the flag.
    #[default]
    Off,
    /// Report FCT tail quantiles measured by the full fluid simulation.
    Sim,
    /// Report the link-decomposition estimator's predicted quantiles
    /// (see [`hpn_sim::tail`]).
    Estimate,
    /// Report both plus their relative error — the cross-validation mode
    /// the estimator's documented error bound comes from.
    Both,
}

impl LatencyMode {
    /// Parse a `--latency` value.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "sim" => Some(LatencyMode::Sim),
            "estimate" => Some(LatencyMode::Estimate),
            "both" => Some(LatencyMode::Both),
            _ => None,
        }
    }

    fn wants_sim(self) -> bool {
        matches!(self, LatencyMode::Sim | LatencyMode::Both)
    }

    fn wants_estimate(self) -> bool {
        matches!(self, LatencyMode::Estimate | LatencyMode::Both)
    }
}

use crate::report::fct_quantiles as quantile_row;

/// Signed relative error of `est` vs `sim` at each reported quantile.
fn rel_err_row(est: &QuantileSketch, sim: &QuantileSketch) -> String {
    if est.count() == 0 || sim.count() == 0 {
        return "n/a (no samples on one side)".to_string();
    }
    let one = |q: f64| match (est.quantile(q), sim.quantile(q)) {
        (Some(e), Some(s)) if s > 0.0 => format!("{:+.1}%", (e - s) / s * 100.0),
        _ => "n/a".to_string(),
    };
    format!(
        "p50 {} / p90 {} / p99 {} / p999 {}",
        one(0.50),
        one(0.90),
        one(0.99),
        one(0.999)
    )
}

/// Load and parse a scenario file; every diagnostic names the file.
pub fn load(path: &Path) -> Result<Scenario, ScenarioError> {
    let file = path.display().to_string();
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::general(format!("cannot read scenario: {e}")).in_file(&file))?;
    Scenario::parse_toml(&text).map_err(|e| e.in_file(&file))
}

/// Pre-schedule the fault plan on the simulator's own timeline, so faults
/// strike mid-iteration exactly when the schedule says — the session keeps
/// driving the cluster while cable timers fire underneath it.
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
                // Cable events fail both directions, so the ToR's out-links
                // cover every cable `hpn_faults::apply` would touch.
                for link in cs.fabric.net.out_links(tor).collect::<Vec<_>>() {
                    cs.schedule_cable_event(ev.at, link, false);
                    cs.schedule_cable_event(ev.at + repair_after, link, true);
                }
            }
        }
    }
}

fn run_workload(
    r: &mut Report,
    cs: &mut ClusterSim,
    mut session: WorkloadSession,
    iterations: usize,
) {
    // Warm-up iteration absorbs connection establishment, like every
    // registered training experiment. For `multi-job` the warm-up doubles
    // as the solo-baseline pass the interference rows compare against.
    session.run_iteration(cs);
    let mut series = TimeSeries::new("samples_per_sec");
    let mut timeouts = 0usize;
    for _ in 0..iterations {
        let rec = session.run_iteration(cs);
        series.push(rec.end, rec.samples_per_sec);
        let label = format!("iteration {}", rec.index);
        match rec.outcome {
            IterationOutcome::Completed { duration } => {
                r.row(
                    label,
                    format!(
                        "{:.1} samples/s ({:.3}s)",
                        rec.samples_per_sec,
                        duration.as_secs_f64()
                    ),
                );
            }
            IterationOutcome::TimedOut => {
                timeouts += 1;
                r.row(label, "TIMED OUT (collective stalled past the deadline)");
            }
        }
    }
    r.row(
        "mean throughput",
        format!(
            "{:.1} samples/s over {iterations} iteration(s)",
            session.mean_throughput(1)
        ),
    );
    if let Some(mj) = session.as_multi_job() {
        add_multi_job_rows(r, mj);
    }
    r.push_series(series);
    if timeouts > 0 {
        r.verdict(format!(
            "{timeouts}/{iterations} iteration(s) timed out under the fault schedule"
        ));
    } else {
        r.verdict("all iterations completed");
    }
}

/// Per-job placement, fragmentation and interference rows for a
/// `multi-job` run (the Fig 6 scheduler experiment).
fn add_multi_job_rows(r: &mut Report, mj: &hpn_core::MultiJobSession) {
    let stats = mj.job_stats();
    let mut spanning = 0usize;
    for (i, js) in stats.iter().enumerate() {
        let label = format!("job {i}");
        if !js.placed() {
            r.row(
                label,
                format!(
                    "{} GPUs — not placed (no contiguous capacity left)",
                    js.gpus
                ),
            );
            continue;
        }
        if js.segments > 1 {
            spanning += 1;
        }
        let mut detail = format!(
            "{} GPUs on {} host(s) across {} segment(s)",
            js.gpus, js.hosts, js.segments
        );
        if let Some(solo) = js.solo_secs {
            detail.push_str(&format!(" — solo {solo:.3}s"));
        }
        if let Some(shared) = js.concurrent_secs {
            detail.push_str(&format!(", shared {shared:.3}s"));
        }
        if let Some(x) = js.slowdown() {
            detail.push_str(&format!(" ({x:.2}× interference)"));
        }
        r.row(label, detail);
    }
    let placed = stats.iter().filter(|js| js.placed()).count();
    r.row(
        "fragmentation",
        format!(
            "{spanning}/{placed} placed job(s) span >1 segment; {} unplaced",
            stats.len() - placed
        ),
    );
}

/// Append the latency rows selected by `mode` after training finished.
fn add_latency_rows(r: &mut Report, cs: &mut ClusterSim, mode: LatencyMode) {
    if mode.wants_sim() {
        r.row("simulated FCT", quantile_row(cs.net.fct_sketch()));
    }
    if mode.wants_estimate() {
        let est = cs
            .net
            .take_estimator()
            .expect("estimator attached before training");
        let mut detail = quantile_row(est.fct_sketch());
        if est.skipped() > 0 {
            detail.push_str(&format!(" — {} skipped on down links", est.skipped()));
        }
        r.row(format!("estimated FCT ({})", est.name()), detail);
        if mode == LatencyMode::Both {
            r.row(
                "estimator rel. error",
                rel_err_row(est.fct_sketch(), cs.net.fct_sketch()),
            );
        }
    }
}

/// Execute one scenario at `scale` and reduce it to a [`Report`].
///
/// Panics only if the scenario fails to build — `scenario run` validates
/// every file before scheduling any cell, so a failure here is a bug.
pub fn report_for(ctx: &SimCtx, sc: &Scenario, scale: Scale) -> Report {
    report_with_latency(ctx, sc, scale, LatencyMode::Off)
}

/// [`report_for`] plus the `--latency` pipeline: `sim` reports the fluid
/// model's measured FCT quantiles, `estimate` attaches a
/// [`LinkDecompositionEstimator`] before training and reports its
/// predictions, `both` reports both and the estimator's signed relative
/// error at each quantile. `Off` is byte-identical to [`report_for`].
pub fn report_with_latency(
    ctx: &SimCtx,
    sc: &Scenario,
    scale: Scale,
    latency: LatencyMode,
) -> Report {
    let built = sc
        .build_with(ctx)
        .unwrap_or_else(|e| panic!("scenario '{}' failed to build: {e}", sc.name));
    report_from_session(sc, built, scale, latency).0
}

/// [`report_with_latency`] with every cacheable build phase routed through
/// `cache` ([`Scenario::build_cached`]), and the finished run's artifacts
/// harvested back so the next same-shape request starts warm. This is the
/// serve path; the batch CLI stays cache-free. The output is
/// byte-identical to the uncached path — fabric and router are immutable
/// shares and the warmed path interner never reaches output bytes
/// (DESIGN.md §9).
pub fn report_with_latency_cached(
    ctx: &SimCtx,
    sc: &Scenario,
    scale: Scale,
    latency: LatencyMode,
    cache: &ArtifactCache,
) -> Report {
    let built = sc
        .build_cached(ctx, cache)
        .unwrap_or_else(|e| panic!("scenario '{}' failed to build: {e}", sc.name));
    let (r, cluster) = report_from_session(sc, built, scale, latency);
    cache.harvest(sc, &cluster);
    r
}

/// The shared reduction: drive a built [`Session`] to a [`Report`],
/// returning the cluster too so the cached path can harvest its artifacts
/// after the run.
fn report_from_session(
    sc: &Scenario,
    mut built: hpn_scenario::Session,
    scale: Scale,
    latency: LatencyMode,
) -> (Report, ClusterSim) {
    let mut r = Report::new(
        &sc.name,
        &format!("user scenario ({} topology)", sc.topology.kind()),
        "declared in a scenario file — no paper claim attached",
    );
    let fabric = &built.cluster.fabric;
    r.row(
        "fabric",
        format!(
            "{} hosts / {} GPUs / {} segment(s) / {} pod(s)",
            fabric.hosts.len(),
            fabric.active_gpu_count(),
            fabric.segments,
            fabric.pods
        ),
    );
    r.row(
        "switching",
        format!(
            "{} ToR / {} Agg / {} Core, {} links",
            fabric.tors.len(),
            fabric.aggs.len(),
            fabric.cores.len(),
            fabric.net.link_count()
        ),
    );
    r.row(
        "routing",
        match sc.routing.hash {
            HashMode::Polarized => "polarized ECMP hash",
            HashMode::Independent => "independent per-switch hashes",
        },
    );
    if !built.faults.is_empty() {
        let first = built
            .faults
            .first()
            .map(|e| e.at.as_secs_f64())
            .unwrap_or(0.0);
        let last = built
            .faults
            .last()
            .map(|e| e.at.as_secs_f64())
            .unwrap_or(0.0);
        r.row(
            "faults",
            format!(
                "{} event(s) between t={first:.1}s and t={last:.1}s",
                built.faults.len()
            ),
        );
    }
    match built.workload.take() {
        None => {
            if latency != LatencyMode::Off {
                r.row("latency", "topology-only scenario — no flows to measure");
            }
            r.verdict("topology-only scenario: inventory built and validated");
        }
        Some(w) => {
            r.row("workload", w.describe());
            let iterations = scale.pick(w.iterations, w.iterations.min(2));
            schedule_faults(&mut built.cluster, &built.faults);
            if latency.wants_estimate() {
                built
                    .cluster
                    .net
                    .set_estimator(Some(Box::new(LinkDecompositionEstimator::new())));
            }
            run_workload(&mut r, &mut built.cluster, w.session(), iterations);
            add_latency_rows(&mut r, &mut built.cluster, latency);
        }
    }
    (r, built.cluster)
}

/// `scenario check`: validate every file, print one line per file, and
/// return `false` if any failed.
pub fn check(paths: &[String]) -> bool {
    let mut ok = true;
    for p in paths {
        match load(Path::new(p)).and_then(|sc| sc.check().map(|()| sc)) {
            Ok(sc) => println!("ok: {p} (scenario '{}')", sc.name),
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpn_scenario::{FaultsSpec, Injection, ModelId, MoeSpec, TopologySpec, WorkloadSpec};
    use hpn_topology::HpnConfig;

    /// FCT is accounted twice: the net's always-on sketch and the
    /// registry's sketch paired from `flow_add`/`flow_remove` events. On
    /// every shipped training example the two must agree exactly.
    #[test]
    fn registry_fct_equals_the_net_sketch_on_training_examples() {
        use hpn_scenario::WorkloadKind;
        use hpn_telemetry::{EventLog, Registry, SharedRecorder};
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("examples dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        files.sort();
        let mut checked = 0;
        for path in files {
            let sc = load(&path).expect("example loads");
            if !matches!(
                sc.workload.as_ref().map(|w| &w.kind),
                Some(WorkloadKind::Training)
            ) {
                continue;
            }
            let log = EventLog::new();
            let ctx = SimCtx::new().with_recorder(SharedRecorder::new(Box::new(log.clone())));
            let built = sc.build_with(&ctx).expect("example builds");
            let (_, cluster) = report_from_session(&sc, built, Scale::Quick, LatencyMode::Off);
            ctx.recorder().flush();
            let mut reg = Registry::new();
            hpn_telemetry::replay(&log.take(), &mut reg);
            let (events, net) = (&reg.latency().fct, cluster.net.fct_sketch());
            let name = path.display();
            assert!(net.count() > 0, "{name}: no flow completed");
            assert_eq!(events.count(), net.count(), "{name}: FCT counts differ");
            for q in [0.5, 0.9, 0.99, 0.999] {
                assert_eq!(
                    events.quantile(q).map(f64::to_bits),
                    net.quantile(q).map(f64::to_bits),
                    "{name}: FCT p{q} differs"
                );
            }
            checked += 1;
        }
        assert!(checked >= 2, "only {checked} training examples found");
    }

    fn training_scenario() -> Scenario {
        Scenario::new("cli-test", TopologySpec::Hpn(HpnConfig::tiny()))
            .with_workload(WorkloadSpec::new(ModelId::Llama7b, 2, 2, 64).gpu_secs(0.05))
    }

    #[test]
    fn moe_scenario_reports_the_expert_layers() {
        let sc = Scenario::new("cli-moe", TopologySpec::Hpn(HpnConfig::tiny())).with_workload(
            WorkloadSpec::new(ModelId::Llama7b, 2, 2, 64)
                .gpu_secs(0.05)
                .with_moe(MoeSpec::default()),
        );
        let r = report_for(&SimCtx::new(), &sc, Scale::Quick);
        let (_, w) = r.rows.iter().find(|(k, _)| k == "workload").expect("row");
        assert!(w.contains("MoE all-to-all"), "{w}");
        assert_eq!(r.verdict, "all iterations completed");
    }

    #[test]
    fn trace_scenario_replays_the_op_graph() {
        let ops = vec![
            "ranks 2".to_string(),
            "compute c0 0 50".to_string(),
            "send s0 0 1 4096 after c0".to_string(),
            "recv r0 1 s0".to_string(),
        ];
        let sc = Scenario::new("cli-trace", TopologySpec::Hpn(HpnConfig::tiny()))
            .with_workload(WorkloadSpec::trace(ops));
        let r = report_for(&SimCtx::new(), &sc, Scale::Quick);
        let (_, w) = r.rows.iter().find(|(k, _)| k == "workload").expect("row");
        assert!(w.starts_with("trace replay"), "{w}");
        assert_eq!(r.verdict, "all iterations completed");
    }

    #[test]
    fn inference_scenario_reports_the_open_loop() {
        let sc = Scenario::new("cli-serve", TopologySpec::Hpn(HpnConfig::tiny()))
            .with_workload(WorkloadSpec::inference(ModelId::Llama7b, 2, 0.05));
        let r = report_for(&SimCtx::new(), &sc, Scale::Quick);
        let (_, w) = r.rows.iter().find(|(k, _)| k == "workload").expect("row");
        assert!(w.contains("req/s"), "{w}");
        assert_eq!(r.verdict, "all iterations completed");
    }

    #[test]
    fn multi_job_scenario_reports_per_job_and_fragmentation_rows() {
        let sc = Scenario::new("cli-jobs", TopologySpec::Hpn(HpnConfig::tiny())).with_workload(
            WorkloadSpec::multi_job(ModelId::Llama7b, 3, 7, 8)
                .gpu_secs(0.001)
                .iters(2),
        );
        let r = report_for(&SimCtx::new(), &sc, Scale::Quick);
        assert!(r.rows.iter().any(|(k, _)| k == "job 0"), "{:?}", r.rows);
        let (_, frag) = r
            .rows
            .iter()
            .find(|(k, _)| k == "fragmentation")
            .expect("fragmentation row");
        assert!(frag.contains("placed job(s)"), "{frag}");
        let placed = r
            .rows
            .iter()
            .filter(|(k, v)| k.starts_with("job ") && v.contains("solo"))
            .count();
        assert!(placed >= 1, "at least one job measured solo: {:?}", r.rows);
    }

    #[test]
    fn training_scenario_reports_throughput() {
        let r = report_for(&SimCtx::new(), &training_scenario(), Scale::Quick);
        assert_eq!(r.id, "cli-test");
        assert!(r.rows.iter().any(|(k, _)| k == "mean throughput"));
        assert_eq!(r.series.len(), 1);
        assert_eq!(r.verdict, "all iterations completed");
    }

    #[test]
    fn topology_only_scenario_reports_inventory() {
        let sc = Scenario::new("inv", TopologySpec::Hpn(HpnConfig::tiny()));
        let r = report_for(&SimCtx::new(), &sc, Scale::Quick);
        assert!(r.rows.iter().any(|(k, _)| k == "fabric"));
        assert!(r.verdict.contains("topology-only"));
    }

    #[test]
    fn unrepaired_fault_times_a_scenario_out() {
        // Cut host 0's rail-0 cables on both ToRs mid-iteration and never
        // repair them: with dual-ToR both ports dead, traffic cannot detour
        // and the iteration must hit the NCCL-timeout condition of §9.3.
        let sc = Scenario::new("cli-fault", TopologySpec::Hpn(HpnConfig::tiny()))
            .with_workload(
                WorkloadSpec::new(ModelId::Llama7b, 2, 2, 64)
                    .gpu_secs(0.05)
                    .timeout_scaled(1.5),
            )
            .with_faults(FaultsSpec {
                poisson: None,
                injections: (0..2)
                    .map(|port| Injection {
                        host: 0,
                        rail: 0,
                        port,
                        at_secs: 0.0,
                        repair_secs: None,
                    })
                    .collect(),
            });
        let r = report_for(&SimCtx::new(), &sc, Scale::Quick);
        assert!(
            r.verdict.contains("timed out"),
            "severed host must stall the job: {:?}",
            r.rows
        );
    }

    #[test]
    fn latency_both_reports_sim_estimate_and_error() {
        let r = report_with_latency(
            &SimCtx::new(),
            &training_scenario(),
            Scale::Quick,
            LatencyMode::Both,
        );
        let get = |k: &str| r.rows.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let sim = get("simulated FCT").expect("sim row");
        assert!(sim.contains("p99"), "{sim}");
        let est = get("estimated FCT (link-decomposition)").expect("estimate row");
        assert!(est.contains("p99"), "{est}");
        let err = get("estimator rel. error").expect("error row");
        assert!(err.contains('%'), "{err}");
    }

    #[test]
    fn latency_off_matches_report_for_byte_for_byte() {
        let a = report_for(&SimCtx::new(), &training_scenario(), Scale::Quick);
        let b = report_with_latency(
            &SimCtx::new(),
            &training_scenario(),
            Scale::Quick,
            LatencyMode::Off,
        );
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn latency_on_topology_only_scenario_explains_itself() {
        let sc = Scenario::new("inv", TopologySpec::Hpn(HpnConfig::tiny()));
        let r = report_with_latency(&SimCtx::new(), &sc, Scale::Quick, LatencyMode::Both);
        assert!(r
            .rows
            .iter()
            .any(|(k, v)| k == "latency" && v.contains("no flows")));
    }

    #[test]
    fn latency_mode_parses_cli_values() {
        assert_eq!(LatencyMode::from_name("sim"), Some(LatencyMode::Sim));
        assert_eq!(
            LatencyMode::from_name("estimate"),
            Some(LatencyMode::Estimate)
        );
        assert_eq!(LatencyMode::from_name("both"), Some(LatencyMode::Both));
        assert_eq!(LatencyMode::from_name("off"), None);
        assert_eq!(LatencyMode::from_name(""), None);
    }

    #[test]
    fn cached_report_matches_uncached_cold_and_warm() {
        let cache = ArtifactCache::new();
        let sc = training_scenario();
        let plain = report_for(&SimCtx::new(), &sc, Scale::Quick);
        let cold =
            report_with_latency_cached(&SimCtx::new(), &sc, Scale::Quick, LatencyMode::Off, &cache);
        let warm =
            report_with_latency_cached(&SimCtx::new(), &sc, Scale::Quick, LatencyMode::Off, &cache);
        assert_eq!(plain.to_json(), cold.to_json());
        assert_eq!(plain.to_json(), warm.to_json());
        let stats = cache.stats();
        assert_eq!(stats.topology_hits, 1, "warm run reused the fabric");
        assert_eq!(stats.router_hits, 1, "warm run reused the router");
        assert_eq!(stats.path_hits, 1, "warm run reused the route set");
        assert_eq!(stats.harvests, 2);
    }

    #[test]
    fn report_is_deterministic() {
        let a = report_for(&SimCtx::new(), &training_scenario(), Scale::Quick);
        let b = report_for(&SimCtx::new(), &training_scenario(), Scale::Quick);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn load_tags_diagnostics_with_the_path() {
        let e = load(Path::new("/nonexistent/x.toml")).unwrap_err();
        assert_eq!(e.file.as_deref(), Some("/nonexistent/x.toml"));
        assert!(e.to_string().starts_with("/nonexistent/x.toml:"));
    }
}

//! The parallel experiment runner: a [`RunPlan`] enumerating
//! (figure, seed) cells, executed across a work-stealing pool
//! ([`crate::pool`]) and merged back **in plan order**.
//!
//! # The determinism argument
//!
//! Every figure file and manifest a parallel run produces is bitwise-equal
//! to the sequential run's, by construction rather than by luck:
//!
//! 1. **Cell isolation.** Each cell gets its own [`hpn_telemetry::SimCtx`]
//!    — derived by the runner from the caller's base context (allocator
//!    selection), with the cell's own recorder handle and sweep root seed —
//!    passed explicitly into the experiment, so telemetry cannot interleave
//!    across cells and nothing is thread-scoped.
//!    Experiments share no other mutable state — every cell builds its own
//!    fabric and simulator, and the context (like everything it carries)
//!    is `Send`, so cells migrate freely across pool workers.
//! 2. **Order-independent inputs.** A cell's RNG streams are derived from
//!    `(root_seed, site_id)` via [`hpn_sim::split_seed`], a stateless hash
//!    (`ctx.seed_for`), never from a shared sequential generator — so the
//!    schedule cannot change what a cell computes.
//! 3. **Plan-order merge.** Results come back from the pool indexed by plan
//!    position, and every output (report printing, JSONL telemetry,
//!    manifest entries, golden comparison) is emitted by iterating that
//!    order. Completion order affects wall-clock only.
//!
//! The determinism test suite (`tests/determinism.rs` at the workspace
//! root) checks the conclusion directly: `--jobs 1` and `--jobs 8` produce
//! identical figure bytes and manifest SHA-256s for every gated figure.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hpn_sim::AllocatorKind;
use hpn_telemetry::{
    replay, Event, EventLog, JsonlRecorder, Recorder, Registry, RunManifest, SharedRecorder, SimCtx,
};

use crate::gate::figure_fingerprint;
use crate::pool;
use crate::report::{json_num, json_str, Report};
use crate::{find, ExperimentFn, Scale};

/// The scale label recorded in manifests and `SimStart` labels.
pub fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "full",
        Scale::Quick => "quick",
    }
}

/// One unit of schedulable work: a figure at a sweep seed (or at its
/// built-in fixed seeds when `seed` is `None`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Position in plan order — the merge key.
    pub index: usize,
    /// Experiment id (e.g. `"fig15"`).
    pub figure: String,
    /// Sweep root seed; `None` is the golden-figure configuration.
    pub seed: Option<u64>,
}

/// A run plan: the cross product of figures × seeds at one scale.
#[derive(Clone, Debug)]
pub struct RunPlan {
    /// Experiment ids, in presentation order.
    pub figures: Vec<String>,
    /// Sweep root seeds; `[None]` for a plain (golden) run.
    pub seeds: Vec<Option<u64>>,
    /// Fidelity of every cell.
    pub scale: Scale,
}

impl RunPlan {
    /// A plan running `ids` once each with their built-in fixed seeds —
    /// the configuration the golden hashes fingerprint.
    pub fn figures_only(ids: &[&str], scale: Scale) -> Self {
        RunPlan {
            figures: ids.iter().map(|s| s.to_string()).collect(),
            seeds: vec![None],
            scale,
        }
    }

    /// A multi-seed sweep: every figure at every root seed.
    pub fn sweep(ids: &[&str], scale: Scale, seeds: &[u64]) -> Self {
        assert!(!seeds.is_empty(), "sweep with no seeds");
        RunPlan {
            figures: ids.iter().map(|s| s.to_string()).collect(),
            seeds: seeds.iter().map(|&s| Some(s)).collect(),
            scale,
        }
    }

    /// The plan's cells, seed-major (all figures of seed 0, then seed 1 …)
    /// so per-seed outputs group contiguously.
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(self.figures.len() * self.seeds.len());
        for &seed in &self.seeds {
            for fig in &self.figures {
                cells.push(Cell {
                    index: cells.len(),
                    figure: fig.clone(),
                    seed,
                });
            }
        }
        cells
    }

    /// Fail fast on unknown experiment ids.
    pub fn validate(&self) -> Result<(), String> {
        for fig in &self.figures {
            if find(fig).is_none() {
                return Err(format!("unknown experiment '{fig}'"));
            }
        }
        Ok(())
    }
}

/// Everything one cell produced, ready for the plan-order merge.
pub struct CellResult {
    /// The cell that ran.
    pub cell: Cell,
    /// The allocator the cell's context selected; manifests record its
    /// name.
    pub allocator: AllocatorKind,
    /// The experiment's report.
    pub report: Report,
    /// SHA-256 of the report's canonical bytes.
    pub fingerprint: String,
    /// Telemetry aggregates of this cell alone.
    pub registry: Registry,
    /// The cell's captured telemetry segment (starts with `SimStart`).
    pub events: Vec<Event>,
    /// Wall-clock the cell took (reporting only — never hashed).
    pub wall: Duration,
}

/// Tee sink: capture the event stream and aggregate it, per cell. The
/// registry is shared so the runner can read the aggregates back after the
/// cell's recorder handle is dropped; both halves are `Send`, keeping the
/// whole context shippable to a pool worker.
struct CellSink {
    log: EventLog,
    registry: Arc<Mutex<Registry>>,
}

impl Recorder for CellSink {
    fn record(&mut self, ev: &Event) {
        self.log.record(ev);
        self.registry.lock().expect("cell registry").record(ev);
    }
}

/// The `SimStart` label of a cell — same format the sequential gate has
/// always written, so parallel JSONL streams are byte-identical.
fn cell_label(cell: &Cell, scale: Scale, allocator: AllocatorKind) -> String {
    format!(
        "{} seed={} allocator={} scale={}",
        cell.figure,
        cell.seed.unwrap_or(0),
        allocator.name(),
        scale_label(scale)
    )
}

/// Execute one cell in isolation on the current thread, capturing into a
/// fresh log (see [`run_cell_into`]).
fn run_cell<F: Fn(&SimCtx, Scale) -> Report>(
    base: &SimCtx,
    cell: &Cell,
    scale: Scale,
    f: F,
) -> CellResult {
    run_cell_into(base, cell, scale, EventLog::new(), f)
}

/// Execute one cell in isolation on the current thread, capturing into a
/// caller-supplied [`EventLog`].
///
/// Derives the cell's [`SimCtx`] from `base` — its allocator and
/// validation cadence carry over — with a recorder teeing into the
/// captured segment and the registry, and the plan's sweep root seed, then
/// passes it to the cell body. Generic over the body so user-authored
/// scenarios (closures built by `scenario_cli`) run through the exact same
/// context / telemetry / fingerprint machinery as the registered
/// experiments. The serve path hands in a log it keeps a clone of, so a
/// connection thread can stream the cell's telemetry
/// ([`hpn_telemetry::EventStream`]) while the cell still runs; the
/// result's `events` are the complete segment either way, so downstream
/// manifest/fingerprint handling is identical.
pub fn run_cell_into<F: Fn(&SimCtx, Scale) -> Report>(
    base: &SimCtx,
    cell: &Cell,
    scale: Scale,
    log: EventLog,
    f: F,
) -> CellResult {
    let start = std::time::Instant::now();
    assert!(log.is_empty(), "cell log must start empty");
    let registry = Arc::new(Mutex::new(Registry::new()));
    let rec = SharedRecorder::new(Box::new(CellSink {
        log: log.clone(),
        registry: registry.clone(),
    }));
    rec.record(&Event::SimStart {
        label: cell_label(cell, scale, base.allocator()),
    });
    let mut ctx = base.clone().with_recorder(rec);
    if let Some(root) = cell.seed {
        ctx = ctx.with_root_seed(root);
    }
    let report = f(&ctx, scale);
    drop(ctx);
    let events = log.take();
    // All recorder handles are gone (the experiment's simulators were
    // dropped with it), so the registry Arc is ours alone.
    let registry = Arc::try_unwrap(registry)
        .map(|m| m.into_inner().expect("cell registry"))
        .unwrap_or_else(|arc| arc.lock().expect("cell registry").clone());
    CellResult {
        cell: cell.clone(),
        allocator: base.allocator(),
        fingerprint: figure_fingerprint(&report),
        report,
        registry,
        events,
        wall: start.elapsed(),
    }
}

/// Run an arbitrary batch of `(cell, body)` tasks across `jobs` workers,
/// each cell's context derived from `base`, and return results in plan
/// (index) order. `jobs <= 1` is the exact sequential path (no pool).
pub fn run_cells<F>(
    base: &SimCtx,
    tasks: Vec<(Cell, F)>,
    scale: Scale,
    jobs: usize,
) -> Vec<CellResult>
where
    F: Fn(&SimCtx, Scale) -> Report + Send + Sync,
{
    pool::run_indexed(jobs, tasks, move |_, (cell, f)| {
        run_cell(base, &cell, scale, f)
    })
}

/// Run every cell of the plan across `jobs` workers, each cell's context
/// derived from `base`, and return results in plan order. `jobs <= 1` is
/// the exact sequential path (no pool).
pub fn run_plan(base: &SimCtx, plan: &RunPlan, jobs: usize) -> Vec<CellResult> {
    let tasks: Vec<(Cell, ExperimentFn)> = plan
        .cells()
        .into_iter()
        .map(|c| {
            let f = find(&c.figure).unwrap_or_else(|| panic!("unknown experiment '{}'", c.figure));
            (c, f)
        })
        .collect();
    run_cells(base, tasks, plan.scale, jobs)
}

/// Write one manifest per sweep seed (`manifest-seed<root>.json`) plus the
/// per-cell telemetry streams, and return the manifests in seed order.
///
/// The manifests record what the run *produced* — the allocator its cells
/// ran, seed, figures, fingerprints, telemetry summaries — never how it
/// was scheduled: `jobs` deliberately does not appear, so a parallel
/// sweep's manifests are byte-identical to a sequential sweep's.
pub fn write_sweep_outputs(
    plan: &RunPlan,
    results: &[CellResult],
    out_dir: Option<&Path>,
) -> io::Result<Vec<RunManifest>> {
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)?;
    }
    let mut manifests = Vec::new();
    for &seed in &plan.seeds {
        let allocator = results
            .iter()
            .find(|r| r.cell.seed == seed)
            .map_or(AllocatorKind::default(), |r| r.allocator);
        let mut manifest =
            RunManifest::new(seed.unwrap_or(0), allocator.name(), scale_label(plan.scale));
        manifest.set_param("figures", plan.figures.join(","));
        manifest.set_param(
            "seed_policy",
            match seed {
                None => "fixed per experiment".to_string(),
                Some(root) => format!("split_seed(root={root}, site)"),
            },
        );
        for r in results.iter().filter(|r| r.cell.seed == seed) {
            manifest.record_figure(&r.cell.figure, &r.fingerprint);
            manifest.record_telemetry(&r.cell.figure, &r.registry);
            // Multi-job scenarios surface their per-job placement/timing and
            // the fragmentation tally as manifest params, so the packing
            // outcome is machine-readable without re-parsing the report.
            // Figure reports have no such rows, so their manifests are
            // byte-unchanged.
            for (k, v) in &r.report.rows {
                if k == "fragmentation" || k.starts_with("job ") {
                    manifest.set_param(&format!("{}.{k}", r.cell.figure), v);
                }
            }
            if let Some(dir) = out_dir {
                let name = match seed {
                    None => format!("{}.telemetry.jsonl", r.cell.figure),
                    Some(root) => format!("{}.seed{root}.telemetry.jsonl", r.cell.figure),
                };
                let mut jsonl = JsonlRecorder::create(&dir.join(name))?;
                replay(&r.events, &mut jsonl);
            }
        }
        if let Some(dir) = out_dir {
            let name = match seed {
                None => "manifest.json".to_string(),
                Some(root) => format!("manifest-seed{root}.json"),
            };
            manifest.write(&dir.join(name))?;
        }
        manifests.push(manifest);
    }
    Ok(manifests)
}

/// Aggregated cross-seed variance report for a sweep, as deterministic
/// JSON: per figure, the number of distinct fingerprints over the seeds
/// and mean/stddev/min/max of each series' mean value.
///
/// A figure whose output is seed-independent shows
/// `"distinct_fingerprints": 1` — itself a useful fact: the gated figures
/// must stay that way, while the stochastic figures (fig01/fig05/fig06)
/// spread.
pub fn variance_json(plan: &RunPlan, results: &[CellResult]) -> String {
    let seeds: Vec<u64> = plan.seeds.iter().map(|s| s.unwrap_or(0)).collect();
    let mut out = String::from("{\n  \"seeds\": [");
    for (i, s) in seeds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s.to_string());
    }
    out.push_str("],\n  \"figures\": {\n");
    for (fi, fig) in plan.figures.iter().enumerate() {
        let per_seed: Vec<&CellResult> = results.iter().filter(|r| &r.cell.figure == fig).collect();
        let distinct: std::collections::BTreeSet<&str> =
            per_seed.iter().map(|r| r.fingerprint.as_str()).collect();
        // series name -> per-seed mean sample value.
        let mut series: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in &per_seed {
            for s in &r.report.series {
                let samples = s.samples();
                let mean = if samples.is_empty() {
                    0.0
                } else {
                    samples.iter().map(|&(_, v)| v).sum::<f64>() / samples.len() as f64
                };
                series.entry(&s.name).or_default().push(mean);
            }
        }
        if fi > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {}: {{\"runs\": {}, \"distinct_fingerprints\": {}",
            json_str(fig),
            per_seed.len(),
            distinct.len()
        ));
        if !series.is_empty() {
            out.push_str(", \"series_mean\": {");
            for (i, (name, means)) in series.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{}: {{\"mean\": {}, \"stddev\": {}, \"min\": {}, \"max\": {}}}",
                    json_str(name),
                    json_num(hpn_sim::stats::mean(means)),
                    json_num(hpn_sim::stats::stddev(means)),
                    json_num(means.iter().copied().fold(f64::INFINITY, f64::min)),
                    json_num(means.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
                ));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cheap, RNG-bearing figures: fig01/fig06 build no simulator at all.
    const CHEAP: [&str; 2] = ["fig01", "fig06"];

    fn summaries(results: &[CellResult]) -> Vec<(String, String, String)> {
        results
            .iter()
            .map(|r| {
                (
                    r.cell.figure.clone(),
                    r.fingerprint.clone(),
                    r.registry.summary_json(),
                )
            })
            .collect()
    }

    #[test]
    fn plan_enumerates_seed_major_cells() {
        let plan = RunPlan::sweep(&["a", "b"], Scale::Quick, &[7, 9]);
        let cells = plan.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(
            cells
                .iter()
                .map(|c| (c.index, c.figure.as_str(), c.seed))
                .collect::<Vec<_>>(),
            vec![
                (0, "a", Some(7)),
                (1, "b", Some(7)),
                (2, "a", Some(9)),
                (3, "b", Some(9)),
            ]
        );
        assert!(plan.validate().is_err(), "'a' is not a real experiment");
        assert!(RunPlan::figures_only(&["fig19"], Scale::Quick)
            .validate()
            .is_ok());
    }

    #[test]
    fn parallel_run_is_byte_identical_to_sequential() {
        let plan = RunPlan::figures_only(&CHEAP, Scale::Quick);
        let seq = run_plan(&SimCtx::new(), &plan, 1);
        let par = run_plan(&SimCtx::new(), &plan, 4);
        assert_eq!(summaries(&seq), summaries(&par));
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.report.to_json(), b.report.to_json(), "{}", a.cell.figure);
            assert_eq!(a.events, b.events, "{} telemetry drifted", a.cell.figure);
        }
    }

    #[test]
    fn sweep_seeds_reproduce_and_decorrelate() {
        let plan_a = RunPlan::sweep(&["fig06"], Scale::Quick, &[1, 2]);
        let plan_b = RunPlan::sweep(&["fig06"], Scale::Quick, &[2]);
        let a = run_plan(&SimCtx::new(), &plan_a, 2);
        let b = run_plan(&SimCtx::new(), &plan_b, 1);
        // Different roots change the figure; the same root reproduces it
        // regardless of which plan (or schedule) it ran under.
        assert_ne!(a[0].fingerprint, a[1].fingerprint);
        assert_eq!(a[1].fingerprint, b[0].fingerprint);
    }

    #[test]
    fn sweep_outputs_and_variance_report() {
        let plan = RunPlan::sweep(&CHEAP, Scale::Quick, &[1, 2, 3]);
        let results = run_plan(&SimCtx::new(), &plan, 4);
        let manifests = write_sweep_outputs(&plan, &results, None).expect("no io without dir");
        assert_eq!(manifests.len(), 3);
        assert_eq!(manifests[0].seed, 1);
        assert_eq!(manifests[2].seed, 3);
        for m in &manifests {
            assert_eq!(m.figures.len(), CHEAP.len());
        }
        let v = variance_json(&plan, &results);
        assert!(v.contains("\"seeds\": [1,2,3]"));
        // fig01/fig06 are seeded: three roots give three fingerprints.
        assert!(v.contains("\"distinct_fingerprints\": 3"), "{v}");
        assert!(v.contains("\"series_mean\""));
    }

    #[test]
    fn manifest_names_the_allocator_the_base_ctx_ran() {
        let plan = RunPlan::figures_only(&["fig06"], Scale::Quick);
        let base = SimCtx::new().with_allocator(AllocatorKind::Dense);
        let results = run_plan(&base, &plan, 1);
        assert_eq!(results[0].allocator, AllocatorKind::Dense);
        let manifests = write_sweep_outputs(&plan, &results, None).expect("no io without dir");
        assert!(
            manifests[0].to_json().contains("\"allocator\": \"dense\""),
            "{}",
            manifests[0].to_json()
        );
        assert!(
            matches!(&results[0].events[0], Event::SimStart { label }
                if label.contains("allocator=dense")),
            "SimStart label names the allocator that ran"
        );
        let default = run_plan(&SimCtx::new(), &plan, 1);
        let manifests = write_sweep_outputs(&plan, &default, None).expect("no io without dir");
        assert_eq!(manifests[0].allocator, "incremental");
    }

    #[test]
    fn golden_run_fingerprints_are_sweep_independent() {
        // A `None` cell inside a mixed workload must equal a plain run:
        // the sweep scope cannot leak across cells on the same worker.
        let mixed = RunPlan {
            figures: vec!["fig06".into()],
            seeds: vec![Some(5), None, Some(6)],
            scale: Scale::Quick,
        };
        let mixed_results = run_plan(&SimCtx::new(), &mixed, 1);
        let plain = run_plan(
            &SimCtx::new(),
            &RunPlan::figures_only(&["fig06"], Scale::Quick),
            1,
        );
        assert_eq!(mixed_results[1].fingerprint, plain[0].fingerprint);
        assert_ne!(mixed_results[0].fingerprint, plain[0].fingerprint);
    }
}

//! Telemetry must be an observer: enabling a recorder cannot change a
//! figure's bytes, and the gate's manifest must cover everything it ran.

use std::path::PathBuf;

use hpn_bench::gate::{
    example_scenarios, figure_fingerprint, run_gate, run_scenario_gate, scenario_golden_path,
    FigureStatus,
};
use hpn_bench::{find, Scale, SimCtx};
use hpn_telemetry::{JsonlRecorder, SharedBuf, SharedRecorder};

/// Per-test scratch dir under the target tree.
fn tmp_dir(name: &str) -> PathBuf {
    let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if d.exists() {
        std::fs::remove_dir_all(&d).expect("clear scratch dir");
    }
    d
}

#[test]
fn recorder_does_not_change_figure_bytes() {
    let fig = find("fig19").expect("fig19 registered");

    // Baseline: the default context carries the disabled NullRecorder.
    let baseline = fig(&SimCtx::new(), Scale::Quick).to_json();

    // Instrumented: a JSONL recorder captures the full event stream.
    let buf = SharedBuf::new();
    let rec = SharedRecorder::new(Box::new(JsonlRecorder::new(buf.clone())));
    let ctx = SimCtx::new().with_recorder(rec.clone());
    let recorded = fig(&ctx, Scale::Quick).to_json();
    rec.flush();

    assert_eq!(
        baseline, recorded,
        "enabling telemetry changed figure output"
    );
    let text = buf.text();
    assert!(
        text.lines().count() > 10,
        "instrumented run produced almost no telemetry"
    );
    assert!(text.starts_with("{\"ev\":\"sim_start\""));
    assert!(text.contains("\"ev\":\"flow_add\""));
    assert!(text.contains("\"ev\":\"rate_recompute\""));
}

#[test]
fn gate_matches_goldens_and_manifest_covers_the_run() {
    let out = tmp_dir("gate-out");
    let ids = ["fig19"];
    let outcome =
        run_gate(&SimCtx::new(), &ids, Scale::Quick, false, Some(&out), 1).expect("gate run");
    assert!(!outcome.updated);
    assert!(outcome.passed(), "fig19 drifted from the golden file");
    assert_eq!(outcome.figures.len(), 1);
    let (id, hash, status) = &outcome.figures[0];
    assert_eq!(id, "fig19");
    assert_eq!(*status, FigureStatus::Match);

    // The manifest covers every executed experiment with its fingerprint
    // and a telemetry summary, and is written alongside the output.
    assert_eq!(outcome.manifest.figures.get("fig19"), Some(hash));
    assert!(outcome.manifest.telemetry.contains_key("fig19"));
    assert_eq!(outcome.manifest.scale, "quick");
    let manifest_file =
        std::fs::read_to_string(out.join("manifest.json")).expect("manifest written");
    assert!(manifest_file.contains(hash.as_str()));

    // The per-figure JSONL stream is self-describing: run identity first.
    let jsonl = std::fs::read_to_string(out.join("fig19.telemetry.jsonl")).expect("jsonl written");
    let first = jsonl.lines().next().expect("non-empty stream");
    assert!(first.contains("sim_start") && first.contains("fig19"));
}

#[test]
fn scenario_golden_covers_every_shipped_example() {
    let files = example_scenarios().expect("examples dir");
    assert_eq!(files.len(), 9, "nine shipped examples");
    let golden = std::fs::read_to_string(scenario_golden_path()).expect("scenario golden");
    let golden = hpn_telemetry::parse_flat_map(&golden).expect("flat map");
    let mut want = Vec::new();
    for f in &files {
        let stem = f.file_stem().expect("file stem").to_string_lossy();
        for suffix in ["report", "manifest.dense", "manifest.incremental"] {
            want.push(format!("{stem}.{suffix}"));
        }
    }
    want.sort();
    assert_eq!(golden.keys().cloned().collect::<Vec<_>>(), want);
}

#[test]
fn scenario_gate_matches_the_golden_on_the_smoke_example() {
    let smoke: Vec<_> = example_scenarios()
        .expect("examples dir")
        .into_iter()
        .filter(|p| p.ends_with("tiny_smoke.toml"))
        .collect();
    let (rows, updated) =
        run_scenario_gate(&SimCtx::new(), &smoke, Scale::Quick, false, 1).expect("gate run");
    assert!(!updated);
    let ids: Vec<&str> = rows.iter().map(|(id, _, _)| id.as_str()).collect();
    assert_eq!(
        ids,
        ["tiny_smoke.report", "tiny_smoke.manifest.incremental"]
    );
    for (id, _, status) in &rows {
        assert_eq!(*status, FigureStatus::Match, "{id} drifted");
    }
}

#[test]
fn fingerprint_is_sha256_of_report_json() {
    let mut r = hpn_bench::Report::new("figX", "t", "c");
    r.row("k", 1).verdict("v");
    assert_eq!(
        figure_fingerprint(&r),
        hpn_telemetry::hex_digest(r.to_json().as_bytes())
    );
    // Any change to the report changes the fingerprint.
    let base = figure_fingerprint(&r);
    r.row("k2", 2);
    assert_ne!(figure_fingerprint(&r), base);
}

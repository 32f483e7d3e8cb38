//! `hpn-simbench` — the simulator's end-to-end benchmark.
//!
//! ```text
//! hpn-simbench --workload <train_elephant|infer_mice|serve_whatif>
//!              --seed <n> --seconds <s> --trace <0|1>
//!              [--allocator <dense|incremental|parallel|surrogate>]
//! ```
//!
//! Every input is generated from `--seed`. The run measures for
//! `--seconds`, checks the simulator's outputs, prints a human-readable
//! summary and, as the last line of stdout, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! See `README.md` in this directory.

mod batch;
mod out;
mod serve;
mod trace;

use std::process::ExitCode;

use hpn_sim::AllocatorKind;

/// The held-out seed: tune and develop on other seeds, and use this one
/// only to confirm a claimed gain.
pub const HELD_OUT_SEED: u64 = 20241017;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub allocator: AllocatorKind,
}

pub fn allocator_name(kind: AllocatorKind) -> &'static str {
    match kind {
        AllocatorKind::Dense => "dense",
        AllocatorKind::Incremental => "incremental",
        AllocatorKind::Parallel => "parallel",
        AllocatorKind::Surrogate => "surrogate",
    }
}

fn parse_allocator(name: &str) -> Option<AllocatorKind> {
    [
        AllocatorKind::Dense,
        AllocatorKind::Incremental,
        AllocatorKind::Parallel,
        AllocatorKind::Surrogate,
    ]
    .into_iter()
    .find(|k| allocator_name(*k) == name)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    // The program's own default: what a `SimCtx` picks when nobody pins it.
    let mut allocator = hpn_telemetry::SimCtx::new().allocator();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--allocator" => {
                let v = value()?;
                allocator = parse_allocator(&v).ok_or(format!("unknown allocator '{v}'"))?;
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        allocator,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hpn-simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "train_elephant" => batch::run(batch::Kind::TrainElephant, &args),
        "infer_mice" => batch::run(batch::Kind::InferMice, &args),
        "serve_whatif" => serve::run(&args),
        w => {
            eprintln!("hpn-simbench: unknown workload '{w}'");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(o) => {
            o.print(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hpn-simbench: {e}");
            ExitCode::FAILURE
        }
    }
}

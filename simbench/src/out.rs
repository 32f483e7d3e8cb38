//! Result assembly and printing, plus the small statistics helpers the
//! workloads share.

use crate::trace::{self, Span};
use crate::{allocator_name, Args, HELD_OUT_SEED};

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
pub struct Outcome {
    /// Lines describing the generated inputs.
    pub summary: Vec<String>,
    /// Digest of the simulated results (equal across repeats of a seed).
    pub digest: String,
    /// Output checks that failed, one line each.
    pub check_failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Span lists (one per thread) of a traced run.
    pub spans: Vec<Vec<Span>>,
    /// Wall-clock of the whole workload, for span coverage.
    pub wall_ns: u64,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            summary: Vec::new(),
            digest: String::new(),
            check_failures: Vec::new(),
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            spans: Vec::new(),
            wall_ns: 0,
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// `<prefix>.calls` and `<prefix>.ms` from the traced spans named
    /// `span`.
    pub fn layer_calls_ms(&mut self, prefix: &str, span: &str) {
        let (calls, ns) = self
            .spans
            .iter()
            .flatten()
            .filter(|s| s.name == span)
            .fold((0u64, 0u64), |(c, t), s| (c + 1, t + s.dur_ns()));
        self.layer(&format!("{prefix}.calls"), calls as f64, "count");
        self.layer(&format!("{prefix}.ms"), ns as f64 / 1e6, "ms");
    }

    /// A ratio and its base count.
    pub fn layer_ratio(&mut self, name: &str, hits: u64, base: u64, base_name: &str) {
        let ratio = if base == 0 {
            0.0
        } else {
            hits as f64 / base as f64
        };
        self.layer(name, ratio, "ratio");
        self.layer(base_name, base as f64, "count");
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn print(&self, args: &Args) {
        println!(
            "workload {} seed {} seconds {} trace {} allocator {} (held-out seed: {HELD_OUT_SEED})",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            allocator_name(args.allocator)
        );
        for line in &self.summary {
            println!("  input  {line}");
        }
        println!("  digest {}", self.digest);
        for f in &self.check_failures {
            println!("  CHECK FAILED: {f}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  error_rate {error_rate:.4} ({} of {} operations failed)",
            self.failed, self.attempted
        );
        let shown = if args.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        for m in shown {
            println!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
        }
        if args.trace {
            self.print_self_times();
        }
        let metrics: Vec<String> = shown
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.check_failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }

    fn print_self_times(&self) {
        let all: Vec<Span> = self.spans.iter().flatten().cloned().collect();
        println!(
            "  {} spans over {} request/iteration ids; self time by layer (calls, total ms, self ms):",
            all.len(),
            trace::requests(&self.spans)
        );
        for (name, l) in trace::layers(&all) {
            println!(
                "    {name:<32} {:>8} {:>12.3} {:>12.3}",
                l.calls,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6
            );
        }
    }
}

/// JSON has no NaN or infinity; a metric that cannot be computed is 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Linear-interpolated quantile of `xs` (sorted internally); 0 if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

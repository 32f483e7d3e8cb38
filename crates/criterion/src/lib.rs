//! Offline benchmarking shim.
//!
//! The build environment has no crates.io access, so this crate provides
//! the subset of the `criterion` API the workspace's benches use:
//! [`Criterion`] with `bench_function`/`benchmark_group`/`bench_with_input`,
//! [`BenchmarkId`], [`black_box`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros. Timing is plain wall-clock: a short warmup,
//! then batches sized to ~10ms until the measurement window elapses, with
//! the batch min, median and max ns/iter printed per bench.
//!
//! No statistical analysis, HTML reports, or baseline comparison — enough
//! to run `cargo bench` offline and compare numbers by eye or script.

#![warn(missing_docs)]

use std::hint;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benched work.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// A benchmark's display name, optionally `function/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function/parameter` form.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function.into(), parameter),
        }
    }

    /// Parameter-only form (the group name provides the function part).
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Runs the closure under measurement; handed to bench bodies.
pub struct Bencher {
    /// (batch mean ns/iter) samples collected for this bench.
    samples: Vec<f64>,
    warmup: Duration,
    measure: Duration,
    /// Smoke mode (`cargo bench -- --test`): run the body once, skip timing.
    test_mode: bool,
}

impl Bencher {
    fn new(warmup: Duration, measure: Duration, test_mode: bool) -> Self {
        Bencher {
            samples: Vec::new(),
            warmup,
            measure,
            test_mode,
        }
    }

    /// Time `f`, batching calls so per-batch wall time is ~10ms.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.test_mode {
            black_box(f());
            return;
        }
        // Warmup while estimating per-iteration cost.
        let warm_start = Instant::now();
        let mut iters: u64 = 0;
        while warm_start.elapsed() < self.warmup {
            black_box(f());
            iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / iters.max(1) as f64;
        let batch = ((0.01 / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);

        let run_start = Instant::now();
        while run_start.elapsed() < self.measure {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let ns = t.elapsed().as_nanos() as f64 / batch as f64;
            self.samples.push(ns);
        }
    }
}

fn human_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Median of a non-empty sample set (mean of the middle two when even).
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 0 {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// One finished bench's timing summary, retrievable via
/// [`Criterion::results`] so bench targets can post-process timings
/// (e.g. write a machine-readable tracking file).
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Full bench name (`group/function/parameter`).
    pub name: String,
    /// Median batch, ns/iter: unlike the mean, a few batches slowed by
    /// other load on the host barely move it.
    pub median_ns: f64,
    /// Fastest batch mean, ns/iter.
    pub min_ns: f64,
    /// Slowest batch mean, ns/iter.
    pub max_ns: f64,
}

impl BenchResult {
    fn from_samples(name: &str, samples: &[f64]) -> Self {
        BenchResult {
            name: name.to_string(),
            median_ns: median(samples),
            min_ns: samples.iter().cloned().fold(f64::INFINITY, f64::min),
            max_ns: samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Top-level bench driver; one per `criterion_group!` target.
pub struct Criterion {
    warmup: Duration,
    measure: Duration,
    filter: Option<String>,
    test_mode: bool,
    results: Vec<BenchResult>,
    /// Names of the benches the filter left out.
    skipped: Vec<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo bench -- <filter>` narrows which benches run;
        // `cargo bench -- --test` smoke-runs each body once (CI).
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        let test_mode = std::env::args().any(|a| a == "--test");
        Criterion {
            warmup: Duration::from_millis(300),
            measure: Duration::from_millis(700),
            filter,
            test_mode,
            results: Vec::new(),
            skipped: Vec::new(),
        }
    }
}

impl Criterion {
    fn wants(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    fn run_one(&mut self, name: &str, f: &mut dyn FnMut(&mut Bencher)) {
        if !self.wants(name) {
            self.skipped.push(name.to_string());
            return;
        }
        let mut b = Bencher::new(self.warmup, self.measure, self.test_mode);
        f(&mut b);
        if self.test_mode {
            println!("{name:<48} ok (smoke: 1 iteration)");
        } else if b.samples.is_empty() {
            println!("{name:<48} (no samples)");
        } else {
            let r = BenchResult::from_samples(name, &b.samples);
            println!(
                "{name:<48} time: [{} {} {}]",
                human_ns(r.min_ns),
                human_ns(r.median_ns),
                human_ns(r.max_ns)
            );
            self.results.push(r);
        }
    }

    /// True when `cargo bench -- --test` smoke mode is active (bodies run
    /// once, nothing is timed).
    pub fn test_mode(&self) -> bool {
        self.test_mode
    }

    /// Timing summaries of every bench measured so far, in run order.
    /// Empty in smoke mode.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Names of the benches a `cargo bench -- <filter>` left out, so a
    /// bench target can tell a partial run from a full one.
    pub fn skipped(&self) -> &[String] {
        &self.skipped
    }

    /// Run a single named bench.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        self.run_one(name, &mut f);
        self
    }

    /// Open a named group of related benches.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }
}

/// A group of benches sharing a name prefix; see [`Criterion::benchmark_group`].
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for parity with the real API; this shim sizes batches by
    /// wall-clock windows, not sample counts, so the value is unused.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Bench `f` against one input value, labelled `group/id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let name = format!("{}/{}", self.name, id);
        self.criterion.run_one(&name, &mut |b| f(b, input));
        self
    }

    /// Run a named bench inside the group, labelled `group/name`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        self.criterion.run_one(&full, &mut f);
        self
    }

    /// End the group (no-op beyond parity with the real API).
    pub fn finish(&mut self) {}
}

/// Bundle bench functions under one name, as in real criterion.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emit `main()` running the named groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut b = Bencher::new(Duration::from_millis(5), Duration::from_millis(10), false);
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(black_box(1));
            x
        });
        assert!(!b.samples.is_empty());
        assert!(b.samples.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn test_mode_runs_body_once_without_samples() {
        let mut b = Bencher::new(Duration::from_millis(5), Duration::from_millis(10), true);
        let mut calls = 0u64;
        b.iter(|| {
            calls += 1;
            calls
        });
        assert_eq!(calls, 1, "smoke mode runs the body exactly once");
        assert!(b.samples.is_empty(), "smoke mode collects no timings");
    }

    #[test]
    fn result_median_ignores_one_slow_batch() {
        let r = BenchResult::from_samples("b", &[10.0, 11.0, 400.0, 9.0, 12.0]);
        assert_eq!(r.median_ns, 11.0);
        assert_eq!((r.min_ns, r.max_ns), (9.0, 400.0));
        assert_eq!(
            median(&[4.0, 1.0, 3.0, 2.0]),
            2.5,
            "even count: middle pair"
        );
    }

    #[test]
    fn benchmark_id_forms() {
        assert_eq!(BenchmarkId::new("f", 42).to_string(), "f/42");
        assert_eq!(BenchmarkId::from_parameter(7).to_string(), "7");
    }
}

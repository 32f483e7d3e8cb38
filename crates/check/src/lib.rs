//! hpn-check — scenario fuzzing and invariant oracles with shrinking.
//!
//! Golden-hash gates detect *change*; this crate detects *wrongness*. It
//! closes the loop the ISSUE calls the correctness backbone:
//!
//! 1. [`generate`] derives a random-but-valid [`Scenario`] from one `u64`
//!    seed (every draw goes through [`hpn_sim::rng::split_seed`], so a case
//!    reproduces from its seed alone),
//! 2. [`check_scenario`] runs the scenario through the simulator twice over
//!    — a deterministic churn script against mirrored fluid networks (the
//!    `DenseMaxMin` oracle vs the production `IncrementalMaxMin`) plus a
//!    full `Scenario::build()` session under the caller's base context —
//!    and checks a library of invariant oracles: per-link capacity
//!    conservation, max-min bottleneck optimality, bitwise
//!    dense/incremental equivalence, flow conservation
//!    across fault inject/repair, sim-time monotonicity of the telemetry
//!    stream, and metamorphic properties (scaling all capacities scales all
//!    rates; appending idle links changes nothing),
//! 3. on failure, [`shrink`] minimizes the scenario (drop faults/workload,
//!    halve every size knob) while preserving the violated invariant, so
//!    the written `failing_<seed>.toml` is a small, re-runnable reproducer.
//!
//! The [`Mutation`] hook wires a deliberately buggy allocator into the
//! incremental twin; the crate's own tests prove the oracles catch it and
//! shrink the witness to a handful of hosts (the mutation test the
//! acceptance criteria ask for).

#![warn(missing_docs)]

mod gen;
mod mutate;
mod oracle;
mod shrink;

pub use gen::{active_host_count, generate, normalize};
pub use mutate::Mutation;
pub use oracle::{check_scenario, CheckStats, Failure};
pub use shrink::shrink;

use hpn_scenario::Scenario;
use hpn_telemetry::SimCtx;

/// Outcome of fuzzing one seed: a deterministic one-line summary plus, on
/// failure, the shrunk reproducer.
#[derive(Clone, Debug)]
pub enum SeedOutcome {
    /// Every oracle held.
    Pass {
        /// Deterministic per-seed summary (topology, script and session
        /// sizes) — byte-identical at any `--jobs`.
        summary: String,
    },
    /// An oracle fired; the scenario was shrunk while preserving the
    /// violated invariant.
    Fail {
        /// Name of the violated invariant (stable across shrinking).
        invariant: String,
        /// Human-readable description of the violation on the *shrunk*
        /// scenario.
        detail: String,
        /// Serialized shrunk reproducer (`Scenario::to_toml`).
        shrunk_toml: String,
        /// Active hosts of the shrunk reproducer's fabric.
        shrunk_hosts: usize,
    },
}

/// Generate, check and — on failure — shrink one seed. This is the unit of
/// work `hpn-experiments scenario fuzz` fans out over the worker pool; it
/// is a pure function of `(base, seed, mutation)`, which is what makes
/// fuzz output byte-reproducible at any `--jobs`. `base` is the context
/// the session level runs under (its allocator, e.g. `HPN_ALLOCATOR`).
pub fn fuzz_seed(base: &SimCtx, seed: u64, mutation: Mutation) -> SeedOutcome {
    let sc = generate(seed);
    match check_scenario(base, &sc, seed, mutation) {
        Ok(stats) => SeedOutcome::Pass {
            summary: format!("{} {stats}", sc.topology.kind()),
        },
        Err(failure) => {
            let (shrunk, fail) = shrink(base, sc, seed, mutation, &failure);
            SeedOutcome::Fail {
                invariant: fail.invariant.to_string(),
                detail: fail.detail,
                shrunk_toml: shrunk.to_toml(),
                shrunk_hosts: active_host_count(&shrunk),
            }
        }
    }
}

/// Re-check a reproducer scenario (e.g. a `failing_<seed>.toml` written by
/// an earlier run) under its seed, re-shrinking if it still fails. The
/// churn script depends on the seed, which the fuzzer embeds in the
/// generated scenario name (`fuzz-<seed>`); [`seed_of`] recovers it.
pub fn recheck(base: &SimCtx, sc: Scenario, seed: u64, mutation: Mutation) -> SeedOutcome {
    match check_scenario(base, &sc, seed, mutation) {
        Ok(stats) => SeedOutcome::Pass {
            summary: format!("{} {stats}", sc.topology.kind()),
        },
        Err(failure) => {
            let (shrunk, fail) = shrink(base, sc, seed, mutation, &failure);
            SeedOutcome::Fail {
                invariant: fail.invariant.to_string(),
                detail: fail.detail,
                shrunk_toml: shrunk.to_toml(),
                shrunk_hosts: active_host_count(&shrunk),
            }
        }
    }
}

/// Recover the fuzz seed a generated scenario was derived from (names are
/// `fuzz-<seed>`); `None` for hand-written scenarios.
pub fn seed_of(sc: &Scenario) -> Option<u64> {
    sc.name.strip_prefix("fuzz-")?.parse().ok()
}

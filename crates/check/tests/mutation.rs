//! Mutation test: the oracle battery must catch a deliberately buggy
//! allocator and shrink the witness to a tiny scenario — and must stay
//! quiet (and deterministic) on the production configuration.

use hpn_check::{fuzz_seed, recheck, seed_of, Mutation, SeedOutcome};
use hpn_scenario::Scenario;
use hpn_sim::AllocatorKind;
use hpn_telemetry::SimCtx;

/// Seed slice the smoke tests sweep. Small enough for debug-mode CI,
/// large enough to cover all four topology kinds and the
/// workload/fault arms of the generator.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=16;

#[test]
fn clean_configuration_passes_every_oracle() {
    for seed in SEEDS {
        match fuzz_seed(&SimCtx::new(), seed, Mutation::None) {
            SeedOutcome::Pass { .. } => {}
            SeedOutcome::Fail {
                invariant, detail, ..
            } => panic!("seed {seed} violated `{invariant}`: {detail}"),
        }
    }
}

#[test]
fn fuzzing_is_deterministic_per_seed() {
    for seed in [3u64, 11, 14] {
        let a = fuzz_seed(&SimCtx::new(), seed, Mutation::None);
        let b = fuzz_seed(&SimCtx::new(), seed, Mutation::None);
        match (a, b) {
            (SeedOutcome::Pass { summary: sa }, SeedOutcome::Pass { summary: sb }) => {
                assert_eq!(sa, sb, "seed {seed} summary not reproducible")
            }
            (a, b) => panic!("seed {seed} outcomes diverged: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn session_level_runs_the_base_context_allocator() {
    // A seed passes only if the session's `SimStart` label names the base
    // allocator (the `session_allocator` oracle); its summary reports it.
    for (base, want) in [
        (SimCtx::new(), "alloc=incremental"),
        (
            SimCtx::new().with_allocator(AllocatorKind::Dense),
            "alloc=dense",
        ),
    ] {
        match fuzz_seed(&base, 3, Mutation::None) {
            SeedOutcome::Pass { summary } => {
                assert!(summary.ends_with(want), "{summary} should end with {want}")
            }
            SeedOutcome::Fail {
                invariant, detail, ..
            } => panic!("seed 3 under {want} violated `{invariant}`: {detail}"),
        }
    }
}

#[test]
fn rate_overshoot_mutation_is_caught_and_shrunk_small() {
    let mut caught = 0;
    for seed in SEEDS {
        if let SeedOutcome::Fail {
            invariant,
            shrunk_toml,
            shrunk_hosts,
            ..
        } = fuzz_seed(&SimCtx::new(), seed, Mutation::RateOvershoot)
        {
            caught += 1;
            // The overshoot perturbs only the incremental twin, so the
            // dense/incremental comparison (or a direct capacity/max-min
            // audit of the corrupted rates) must be what fires.
            assert!(
                matches!(
                    invariant.as_str(),
                    "allocator_equivalence" | "capacity_conservation" | "maxmin_bottleneck"
                ),
                "seed {seed}: unexpected invariant `{invariant}` for rate overshoot"
            );
            // Acceptance criterion: the shrunk reproducer is tiny.
            assert!(
                shrunk_hosts <= 4,
                "seed {seed}: shrunk reproducer still has {shrunk_hosts} hosts"
            );
            // The reproducer must be a loadable scenario that still fails
            // the same way when re-checked under its seed.
            let sc = Scenario::parse_toml(&shrunk_toml).expect("reproducer TOML parses");
            let re_seed = seed_of(&sc).expect("reproducer name embeds its seed");
            assert_eq!(re_seed, seed);
            match recheck(&SimCtx::new(), sc, re_seed, Mutation::RateOvershoot) {
                SeedOutcome::Fail {
                    invariant: again, ..
                } => assert_eq!(
                    again, invariant,
                    "seed {seed}: invariant drifted on recheck"
                ),
                SeedOutcome::Pass { .. } => {
                    panic!("seed {seed}: reproducer no longer fails on recheck")
                }
            }
        }
    }
    assert!(
        caught >= SEEDS.count() / 2,
        "rate overshoot escaped the oracles on most seeds ({caught} caught)"
    );
}

//! Greedy shrinking of failing scenarios.
//!
//! Given a scenario on which an oracle fired, repeatedly try
//! strictly-smaller variants — drop the fault schedule, drop the workload,
//! halve every topology knob, drop individual injections — and keep a
//! variant whenever it still (a) round-trips through TOML, (b) passes
//! `Scenario::check()`, and (c) fails the oracle battery; it preferentially
//! violates the *same* invariant (falling back to any-failure only when no
//! same-invariant shrink exists). The loop runs to a fixpoint, so the
//! reproducer written to disk is locally minimal: removing any one more
//! thing makes the failure disappear.

use hpn_scenario::{Scenario, TopologySpec, WorkloadKind};
use hpn_telemetry::SimCtx;
use hpn_topology::HpnConfig;

use crate::gen::normalize;
use crate::mutate::Mutation;
use crate::oracle::{check_scenario, Failure};

/// Shrink a failing scenario while preserving the violated invariant.
/// Every candidate is checked under `base`, as the original failure was.
/// Returns the minimized scenario and the failure it still produces.
pub fn shrink(
    base: &SimCtx,
    sc: Scenario,
    seed: u64,
    mutation: Mutation,
    failure: &Failure,
) -> (Scenario, Failure) {
    let mut best = sc;
    let mut best_failure = failure.clone();
    for _pass in 0..64 {
        let mut improved = false;
        // Two-tier acceptance: first demand the exact same invariant (the
        // reproducer should pin the original bug class), then — only if no
        // candidate qualifies — accept any failing candidate. The fallback
        // matters because closely-coupled oracles can trade places as the
        // scenario shrinks (e.g. an overshooting allocator trips capacity
        // conservation on a saturated fabric but dense/incremental
        // equivalence once the shrunk fabric has headroom).
        for same_invariant in [true, false] {
            for cand in candidates(&best) {
                let Some(cand) = normalize(&cand) else {
                    continue;
                };
                if cand == best || cand.check().is_err() {
                    continue;
                }
                if let Err(f) = check_scenario(base, &cand, seed, mutation) {
                    if !same_invariant || f.invariant == best_failure.invariant {
                        best = cand;
                        best_failure = f;
                        improved = true;
                        break; // restart candidates from the smaller base
                    }
                }
            }
            if improved {
                break;
            }
        }
        if !improved {
            break;
        }
    }
    (best, best_failure)
}

/// Candidate shrinks of one scenario, most aggressive first. Every
/// candidate differs from its parent (the fixpoint loop relies on that to
/// terminate).
fn candidates(sc: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();

    // Most aggressive first: swap the whole topology for a minimal 2-host
    // HPN. Allocator-level invariants are topology-agnostic, so this
    // single jump usually collapses a fat-tree or multi-pod witness to the
    // smallest fabric that still routes.
    let minimal = TopologySpec::Hpn(minimal_hpn());
    if sc.topology != minimal {
        let mut c = sc.clone();
        c.topology = minimal;
        out.push(c);
    }

    // Aggressive whole-section drops next.
    if sc.faults.is_some() {
        let mut c = sc.clone();
        c.faults = None;
        out.push(c);
    }
    if sc.workload.is_some() {
        let mut c = sc.clone();
        c.workload = None;
        out.push(c);
    }

    // Topology halvings.
    match &sc.topology {
        TopologySpec::Hpn(cfg) => {
            for smaller in shrink_hpn(cfg) {
                let mut c = sc.clone();
                c.topology = TopologySpec::Hpn(smaller);
                out.push(c);
            }
        }
        TopologySpec::RailOnly(cfg) => {
            for smaller in shrink_hpn(cfg) {
                let mut c = sc.clone();
                c.topology = TopologySpec::RailOnly(smaller);
                out.push(c);
            }
        }
        TopologySpec::DcnPlus(cfg) => {
            let mut variants = Vec::new();
            if cfg.pods > 1 {
                let mut s = *cfg;
                s.pods = 1;
                variants.push(s);
            }
            if cfg.segments_per_pod > 1 {
                let mut s = *cfg;
                s.segments_per_pod = (s.segments_per_pod / 2).max(1);
                variants.push(s);
            }
            if cfg.hosts_per_segment > 2 {
                let mut s = *cfg;
                s.hosts_per_segment = (s.hosts_per_segment / 2).max(2);
                variants.push(s);
            }
            if cfg.aggs_per_pod > 1 {
                let mut s = *cfg;
                s.aggs_per_pod = (s.aggs_per_pod / 2).max(1);
                variants.push(s);
            }
            if cfg.cores > 1 {
                let mut s = *cfg;
                s.cores = (s.cores / 2).max(1);
                variants.push(s);
            }
            if cfg.agg_core_uplinks > 1 {
                let mut s = *cfg;
                s.agg_core_uplinks = 1;
                variants.push(s);
            }
            for smaller in variants {
                let mut c = sc.clone();
                c.topology = TopologySpec::DcnPlus(smaller);
                out.push(c);
            }
        }
        TopologySpec::FatTree { .. } => {
            // k=4 is already the smallest valid fat-tree the builder
            // accepts; nothing to halve.
        }
    }

    // Per-injection drops and the poisson arm.
    if let Some(f) = &sc.faults {
        for i in 0..f.injections.len() {
            let mut c = sc.clone();
            let fs = c.faults.as_mut().expect("cloned faults present");
            fs.injections.remove(i);
            if fs.is_empty() {
                c.faults = None;
            }
            out.push(c);
        }
        if f.poisson.is_some() {
            let mut c = sc.clone();
            let fs = c.faults.as_mut().expect("cloned faults present");
            fs.poisson = None;
            if fs.is_empty() {
                c.faults = None;
            }
            out.push(c);
        }
    }

    // Workload field shrinks.
    if let Some(w) = &sc.workload {
        if w.iterations > 1 {
            let mut c = sc.clone();
            c.workload.as_mut().expect("cloned workload").iterations = 1;
            out.push(c);
        }
        if w.global_batch > 1 {
            let mut c = sc.clone();
            let cw = c.workload.as_mut().expect("cloned workload");
            cw.global_batch = (cw.global_batch / 2).max(1);
            out.push(c);
        }
        if w.dp > 1 {
            let mut c = sc.clone();
            let cw = c.workload.as_mut().expect("cloned workload");
            cw.dp = (cw.dp / 2).max(1);
            out.push(c);
        }
        if w.pp > 1 {
            let mut c = sc.clone();
            let cw = c.workload.as_mut().expect("cloned workload");
            cw.pp = (cw.pp / 2).max(1);
            out.push(c);
        }
        if w.spray.is_some() {
            let mut c = sc.clone();
            c.workload.as_mut().expect("cloned workload").spray = None;
            out.push(c);
        }

        // Kind-specific shrinks. Every non-training kind first offers a
        // collapse to plain training (the training-shaped fields are
        // already valid placeholders for trace/inference/multi-job);
        // invalid intermediates are filtered by normalize + check.
        if w.kind != WorkloadKind::Training {
            let mut c = sc.clone();
            c.workload.as_mut().expect("cloned workload").kind = WorkloadKind::Training;
            out.push(c);
        }
        match &w.kind {
            WorkloadKind::Training => {}
            WorkloadKind::Moe(m) => {
                if m.layers > 1 {
                    let mut c = sc.clone();
                    if let WorkloadKind::Moe(cm) =
                        &mut c.workload.as_mut().expect("cloned workload").kind
                    {
                        cm.layers = (cm.layers / 2).max(1);
                    }
                    out.push(c);
                }
                if m.experts > 2 {
                    let mut c = sc.clone();
                    if let WorkloadKind::Moe(cm) =
                        &mut c.workload.as_mut().expect("cloned workload").kind
                    {
                        cm.experts = (cm.experts / 2).max(2);
                    }
                    out.push(c);
                }
            }
            WorkloadKind::Trace(t) => {
                // Halve the op list (keeping the ranks header), then drop
                // just the last op; dangling-reference casualties are
                // rejected downstream, not here.
                if t.ops.len() > 2 {
                    let mut c = sc.clone();
                    if let WorkloadKind::Trace(ct) =
                        &mut c.workload.as_mut().expect("cloned workload").kind
                    {
                        let keep = 1 + (ct.ops.len() - 1) / 2;
                        ct.ops.truncate(keep);
                    }
                    out.push(c);
                }
                if t.ops.len() > 1 {
                    let mut c = sc.clone();
                    if let WorkloadKind::Trace(ct) =
                        &mut c.workload.as_mut().expect("cloned workload").kind
                    {
                        ct.ops.pop();
                    }
                    out.push(c);
                }
            }
            WorkloadKind::Inference(inf) => {
                if inf.serving_hosts > 1 {
                    let mut c = sc.clone();
                    if let WorkloadKind::Inference(ci) =
                        &mut c.workload.as_mut().expect("cloned workload").kind
                    {
                        ci.serving_hosts = 1;
                    }
                    out.push(c);
                }
                if inf.requests_per_sec.is_some() {
                    let mut c = sc.clone();
                    if let WorkloadKind::Inference(ci) =
                        &mut c.workload.as_mut().expect("cloned workload").kind
                    {
                        ci.requests_per_sec = None;
                    }
                    out.push(c);
                }
                if inf.superimpose {
                    // Dropping the superimposed training job: normalize
                    // re-canonicalizes the now-unused training fields.
                    let mut c = sc.clone();
                    if let WorkloadKind::Inference(ci) =
                        &mut c.workload.as_mut().expect("cloned workload").kind
                    {
                        ci.superimpose = false;
                    }
                    out.push(c);
                }
            }
            WorkloadKind::MultiJob(mj) => {
                if mj.jobs > 1 {
                    let mut c = sc.clone();
                    if let WorkloadKind::MultiJob(cm) =
                        &mut c.workload.as_mut().expect("cloned workload").kind
                    {
                        cm.jobs = (cm.jobs / 2).max(1);
                    }
                    out.push(c);
                }
                if mj.seed != 0 {
                    let mut c = sc.clone();
                    if let WorkloadKind::MultiJob(cm) =
                        &mut c.workload.as_mut().expect("cloned workload").kind
                    {
                        cm.seed = 0;
                    }
                    out.push(c);
                }
            }
        }
    }

    out
}

/// The smallest HPN fabric the builder accepts that still has two hosts
/// to route between.
fn minimal_hpn() -> HpnConfig {
    let mut cfg = HpnConfig::paper();
    cfg.pods = 1;
    cfg.segments_per_pod = 1;
    cfg.hosts_per_segment = 2;
    cfg.backup_hosts_per_segment = 0;
    cfg.aggs_per_plane = 1;
    cfg.agg_core_uplinks = 1;
    cfg.cores_per_plane = 1;
    cfg
}

/// Halving variants of an HPN config, each strictly smaller than the
/// input.
fn shrink_hpn(cfg: &HpnConfig) -> Vec<HpnConfig> {
    let mut out = Vec::new();
    if cfg.pods > 1 {
        let mut s = *cfg;
        s.pods = 1;
        out.push(s);
    }
    if cfg.segments_per_pod > 1 {
        let mut s = *cfg;
        s.segments_per_pod = (s.segments_per_pod / 2).max(1);
        out.push(s);
    }
    if cfg.hosts_per_segment > 2 {
        let mut s = *cfg;
        s.hosts_per_segment = (s.hosts_per_segment / 2).max(2);
        out.push(s);
    }
    if cfg.backup_hosts_per_segment > 0 {
        let mut s = *cfg;
        s.backup_hosts_per_segment = 0;
        out.push(s);
    }
    if cfg.aggs_per_plane > 1 {
        let mut s = *cfg;
        s.aggs_per_plane = (s.aggs_per_plane / 2).max(1);
        out.push(s);
    }
    if cfg.cores_per_plane > 1 {
        let mut s = *cfg;
        s.cores_per_plane = (s.cores_per_plane / 2).max(1);
        out.push(s);
    }
    if cfg.agg_core_uplinks > 1 {
        let mut s = *cfg;
        s.agg_core_uplinks = 1;
        out.push(s);
    }
    out
}

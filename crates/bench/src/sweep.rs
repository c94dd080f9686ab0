//! The tiered-fidelity sweep engine: tier-0 triage of a design-point
//! grid, conservative Pareto promotion, cycle-accurate simulation of the
//! survivors.
//!
//! A [`SweepSpec`] enumerates a cross product of machine kinds, widths,
//! IQ-entry budgets and DRAM speed grades — thousands of
//! [`DesignPoint`]s. Simulating all of them is hours of work; almost all
//! of it is wasted on points that no one would build because a cheaper
//! point is also faster. The engine instead:
//!
//! 1. **Triage (tier 0)** — predicts every point's aggregate cycle count
//!    over the spec's workloads with the `ballerino-analytic` dataflow
//!    model: one lane-batched pass per (schedule shape, workload),
//!    embarrassingly parallel across shapes.
//! 2. **Anchor (round 1)** — simulates the *estimated* Pareto frontier:
//!    a few dozen points that pin the true cost/performance curve.
//! 3. **Promotion (incremental)** — every other point is tested against
//!    the simulated envelope: point `p` is promoted unless some
//!    simulated `q` with `cost[q] <= cost[p]` satisfies
//!    `sim[q] × 100 < est[p] × (100 − m)` — i.e. even after deflating
//!    `p`'s estimate by the **margin** `m`, a cheaper point is already
//!    *known* (not estimated) to be faster. Survivors are simulated
//!    cheapest-first in small batches, each batch folding back into the
//!    envelope before the next is chosen, so a just-simulated frontier
//!    point immediately prunes its whole equal-cost group. The frontier
//!    is read off the simulated numbers.
//!
//! Anchoring on simulated truth makes the test one-sided: a true
//! frontier point can only be lost if *its own* estimate is too high by
//! more than ~`m`% — underestimating other points never hurts, because
//! dominance is only ever claimed from cycle-accurate numbers. (The
//! est-vs-est single-round rule, [`promote_indices`], needs the margin
//! to absorb error on *both* sides of every comparison and therefore
//! promotes several times more points for the same safety; it remains
//! available for `BALLERINO_TIER0_ONLY` triage.) The default margin is
//! [`ballerino_analytic::default_promotion_margin_pct`], validated by
//! the frontier-equality gate in `sweep_bench` and the CI smoke sweep.
//!
//! Cost is a static area proxy ([`point_cost`]) — identical for both
//! tiers, so promotion error comes from the cycle axis alone.

use crate::cells::{enumerate_cells, grid_points, sweep_kinds, SimCell};
use crate::{run_pool, threads};
use ballerino_analytic::{
    calib_for, default_promotion_margin_pct, predict_shape, shape_passes, KindCalib, MachineParams,
    ScheduleShape,
};
use ballerino_isa::{TraceDag, TraceFeatures};
use ballerino_sim::{build_scheduler_point, DesignPoint, MachineKind, Width};
use ballerino_workloads::{cached_dag, cached_features};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// A design-space sweep: the grid axes plus the workloads and trace
/// size every point is evaluated on.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Machine kinds to enumerate.
    pub kinds: Vec<MachineKind>,
    /// Width presets to enumerate.
    pub widths: Vec<Width>,
    /// IQ-entry budgets (`None` = the width's Table II default).
    pub iq_budgets: Vec<Option<usize>>,
    /// DRAM timing scales in percent (100 = default).
    pub dram_scales: Vec<u32>,
    /// Workloads each point is scored on (aggregate cycles).
    pub workloads: Vec<&'static str>,
    /// μops per workload trace.
    pub n: usize,
    /// Workload generator seed.
    pub seed: u64,
}

impl SweepSpec {
    /// The full design-space sweep: every [`sweep_kinds`] registry kind
    /// (10 windowed kinds × 4 widths × 7 IQ budgets × 9 DRAM grades,
    /// plus the windowless InOrder baseline on the width × DRAM axes
    /// only = 2556 points), scored on six workloads spanning all three
    /// calibration classes.
    ///
    /// Axis choices that keep the grid honest: every IQ budget is
    /// explicit (`None` would duplicate whichever explicit value matches
    /// the width's default — identical silicon enumerated twice), and the
    /// DRAM axis spans a 1.4×-faster premium part down to a 4×-slower
    /// budget part, with steps sized to what they measure. An ultra-fast
    /// grade is deliberately absent: with 2×-faster DRAM every wide core
    /// converges to the same compute-bound cycle count, which says
    /// nothing about the designs and only pads the grid with coincidental
    /// near-ties. The steps are coarse at the fast end, where a grade
    /// change shifts the bottleneck, and fine at the slow end, where
    /// cycles scale almost linearly with the timing grade and each part
    /// is a genuine cost/performance trade.
    pub fn full() -> SweepSpec {
        SweepSpec {
            kinds: sweep_kinds(),
            widths: vec![Width::Two, Width::Four, Width::Eight, Width::Ten],
            iq_budgets: vec![
                Some(16),
                Some(24),
                Some(32),
                Some(48),
                Some(64),
                Some(96),
                Some(160),
            ],
            dram_scales: vec![70, 100, 140, 170, 200, 240, 280, 320, 400],
            workloads: vec![
                "int_crunch",
                "gemm_blocked",
                "stream_triad",
                "pointer_chase",
                "branchy_sort",
                "compress_lz",
            ],
            n: 12_000,
            seed: 42,
        }
    }

    /// A CI-sized smoke sweep: 40 points, three workloads, small traces.
    pub fn smoke() -> SweepSpec {
        SweepSpec {
            kinds: vec![
                MachineKind::OutOfOrder,
                MachineKind::Ballerino,
                MachineKind::Ces,
                MachineKind::InOrder,
            ],
            widths: vec![Width::Two, Width::Eight],
            iq_budgets: vec![None, Some(32), Some(128)],
            dram_scales: vec![100, 200],
            workloads: vec!["int_crunch", "pointer_chase", "branchy_sort"],
            n: 4_000,
            seed: 42,
        }
    }

    /// Materializes the grid, kind-major, via the shared
    /// [`grid_points`] enumerator (which also owns the InOrder IQ-axis
    /// collapse — see its docs).
    pub fn points(&self) -> Vec<DesignPoint> {
        grid_points(
            &self.kinds,
            &self.widths,
            &self.iq_budgets,
            &self.dram_scales,
        )
    }

    /// The promotion margin for this spec: `BALLERINO_SWEEP_MARGIN`
    /// (percent) if set, else the committed default
    /// ([`ballerino_analytic::default_promotion_margin_pct`]).
    pub fn margin_pct(&self) -> u32 {
        if let Ok(v) = std::env::var("BALLERINO_SWEEP_MARGIN") {
            if let Ok(m) = v.parse() {
                return m;
            }
        }
        default_promotion_margin_pct()
    }
}

/// Static cost proxy of a design point (arbitrary area-ish units; bigger
/// = more silicon / faster memory part). CAM entries are weighted 4× a
/// FIFO entry (fully-associative wakeup), ports and ROB/PRF contribute
/// their share, and faster-than-default DRAM is billed as a more
/// expensive memory part. Identical for both fidelity tiers — the Pareto
/// cost axis carries no estimation error.
pub fn point_cost(point: &DesignPoint) -> u64 {
    let (cfg, _, sizes) = build_scheduler_point(point);
    let window = 4 * sizes.cam_entries as u64 + sizes.fifo_entries as u64;
    let core = 16 * cfg.issue_width as u64
        + cfg.rob_entries as u64 / 2
        + sizes.prf_entries as u64 / 4
        + if sizes.has_steer { 8 } else { 0 };
    // 100 → 200 units; 50 (2× faster part) → 400; 200 (half-speed) → 100.
    let mem = 20_000 / point.dram_scale_pct as u64;
    window + core + mem
}

/// Everything a sweep produces, dense over `spec.points()` order.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The enumerated grid.
    pub points: Vec<DesignPoint>,
    /// Static cost per point.
    pub costs: Vec<u64>,
    /// Tier-0 aggregate predicted cycles per point.
    pub est_cycles: Vec<u64>,
    /// Indices promoted to cycle-accurate simulation, ascending.
    pub promoted: Vec<usize>,
    /// Simulated aggregate cycles for promoted points (`None` elsewhere).
    pub sim_cycles: Vec<Option<u64>>,
    /// Margin (percent) promotion used.
    pub margin_pct: u32,
    /// Wall-clock seconds of the tier-0 triage (features cached).
    pub tier0_wall_s: f64,
    /// Wall-clock seconds of the promoted simulations.
    pub sim_wall_s: f64,
}

impl SweepOutcome {
    /// The frontier of the *simulated* promoted points (indices into
    /// `points`).
    pub fn simulated_frontier(&self) -> Vec<usize> {
        let idx: Vec<usize> = self
            .promoted
            .iter()
            .copied()
            .filter(|&i| self.sim_cycles[i].is_some())
            .collect();
        let costs: Vec<u64> = idx.iter().map(|&i| self.costs[i]).collect();
        let cyc: Vec<u64> = idx.iter().map(|&i| self.sim_cycles[i].unwrap()).collect();
        pareto_indices(&costs, &cyc)
            .into_iter()
            .map(|k| idx[k])
            .collect()
    }

    /// The frontier tier-0 alone would report (no simulation).
    pub fn estimated_frontier(&self) -> Vec<usize> {
        pareto_indices(&self.costs, &self.est_cycles)
    }
}

/// Pareto frontier of `(cost, value)` pairs, both minimized: indices of
/// all non-dominated points, ascending by cost. Duplicate points (equal
/// cost *and* value) are all kept — neither dominates the other.
pub fn pareto_indices(costs: &[u64], values: &[u64]) -> Vec<usize> {
    assert_eq!(costs.len(), values.len());
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (costs[i], values[i]));
    let mut out = Vec::new();
    let mut best = u64::MAX;
    let mut g = 0;
    while g < order.len() {
        let cost = costs[order[g]];
        let mut end = g;
        while end < order.len() && costs[order[end]] == cost {
            end += 1;
        }
        let group_min = values[order[g]]; // sorted, so the group head is minimal
        if group_min < best {
            out.extend(order[g..end].iter().filter(|&&i| values[i] == group_min));
            best = group_min;
        }
        g = end;
    }
    out.sort_unstable();
    out
}

/// Conservative promotion: the indices that survive margin-widened
/// dominance. Point `p` is dropped only when some `q` with
/// `cost[q] <= cost[p]` satisfies
/// `est[q] * (100 + margin) < est[p] * (100 - margin)` (u128 products —
/// no overflow). If every estimate is within ±`margin`% of its true
/// value, then for such a pair `true[q] < true[p]` with
/// `cost[q] <= cost[p]`, i.e. `p` is genuinely dominated — so the true
/// frontier is always a subset of the promoted set.
pub fn promote_indices(costs: &[u64], est: &[u64], margin_pct: u32) -> Vec<usize> {
    assert_eq!(costs.len(), est.len());
    let hi = 100 + margin_pct as u128;
    let lo = 100u128.saturating_sub(margin_pct as u128);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (costs[i], est[i]));
    let mut out = Vec::new();
    let mut best = u64::MAX; // min estimate among cost <= current group's
    let mut g = 0;
    while g < order.len() {
        let cost = costs[order[g]];
        let mut end = g;
        while end < order.len() && costs[order[end]] == cost {
            end += 1;
        }
        // `cost[q] <= cost[p]` admits same-cost dominators, so fold the
        // group's own minimum in before testing its members.
        best = best.min(est[order[g]]);
        for &i in &order[g..end] {
            if (best as u128) * hi >= (est[i] as u128) * lo {
                out.push(i);
            }
        }
        g = end;
    }
    out.sort_unstable();
    out
}

/// Sim-anchored survivors: the unsimulated indices that could still be
/// on the true frontier given the simulated anchors. Point `p` survives
/// unless some simulated `q` with `cost[q] <= cost[p]` satisfies
/// `sim[q] * 100 < est[p] * (100 - margin)` — a cheaper point already
/// *known* to be faster than `p`'s margin-deflated estimate. One-sided:
/// only overestimating `p` itself by more than ~`margin`% can wrongly
/// drop it; estimation error on `q` never enters (its value is
/// simulated). Equality survives, so exact duplicates are never split.
pub fn anchored_survivors(
    costs: &[u64],
    est: &[u64],
    sim: &[Option<u64>],
    margin_pct: u32,
) -> Vec<usize> {
    assert_eq!(costs.len(), est.len());
    assert_eq!(costs.len(), sim.len());
    let lo = 100u128.saturating_sub(margin_pct as u128);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| costs[i]);
    let mut out = Vec::new();
    let mut best = u64::MAX; // min simulated cycles at cost <= current group's
    let mut g = 0;
    while g < order.len() {
        let cost = costs[order[g]];
        let mut end = g;
        while end < order.len() && costs[order[end]] == cost {
            end += 1;
        }
        // `cost[q] <= cost[p]` admits same-cost anchors, so fold the
        // group's own sims in before testing its members.
        for &i in &order[g..end] {
            if let Some(s) = sim[i] {
                best = best.min(s);
            }
        }
        for &i in &order[g..end] {
            if sim[i].is_none() && ((best as u128) * 100 >= (est[i] as u128) * lo) {
                out.push(i);
            }
        }
        g = end;
    }
    out.sort_unstable();
    out
}

/// Tier-0 scores for every point of a spec: aggregate predicted cycles
/// across the spec's workloads, on the work-stealing pool. Points are
/// grouped by [`ScheduleShape`] and each shape is one pool job: per
/// workload, one lane-batched dataflow pass ([`predict_shape`]) scores
/// every point of the shape, so a 2556-point grid costs about a
/// thousand passes, not one per (point, workload). Trace features come
/// from the process-wide cache, so the `O(n log n)` extraction is paid
/// once per workload, not per point.
pub fn tier0_scores(spec: &SweepSpec, points: &[DesignPoint]) -> Vec<u64> {
    let plan = Tier0Plan::new(spec, points);
    let per_group = run_pool(&plan.groups, threads(), |group| {
        let (params, calibs) = plan.lanes(group);
        let lanes: Vec<_> = params.iter().zip(&calibs).collect();
        let mut sums = vec![0u64; group.len()];
        for (dag, feat, name) in &plan.inputs {
            for (sum, e) in sums.iter_mut().zip(predict_shape(&lanes, dag, feat, name)) {
                *sum += e.cycles;
            }
        }
        sums
    });
    let mut est = vec![0u64; points.len()];
    for (group, sums) in plan.groups.iter().zip(per_group) {
        for (&i, sum) in group.iter().zip(sums) {
            est[i] = sum;
        }
    }
    est
}

/// The dataflow passes [`tier0_scores`] runs for these points: the sum
/// of [`shape_passes`] over its shapes and workloads. Deterministic — a
/// function of the points and traces only.
pub fn tier0_passes(spec: &SweepSpec, points: &[DesignPoint]) -> usize {
    let plan = Tier0Plan::new(spec, points);
    let mut passes = 0;
    for group in &plan.groups {
        let (params, calibs) = plan.lanes(group);
        let lanes: Vec<_> = params.iter().zip(&calibs).collect();
        for (dag, feat, _) in &plan.inputs {
            passes += shape_passes(&lanes, dag, feat);
        }
    }
    passes
}

/// The tier-0 work of a spec: the workloads' cached traces and the
/// point indices grouped by schedule shape (ascending shape, ascending
/// index within a group).
struct Tier0Plan<'a> {
    points: &'a [DesignPoint],
    inputs: Vec<(Arc<TraceDag>, Arc<TraceFeatures>, &'static str)>,
    groups: Vec<Vec<usize>>,
}

impl<'a> Tier0Plan<'a> {
    fn new(spec: &SweepSpec, points: &'a [DesignPoint]) -> Tier0Plan<'a> {
        // Warm the caches serially so pool workers never duplicate work.
        let inputs: Vec<_> = spec
            .workloads
            .iter()
            .map(|&w| {
                (
                    cached_dag(w, spec.n, spec.seed),
                    cached_features(w, spec.n, spec.seed),
                    w,
                )
            })
            .collect();
        // Only the shapes are kept: each job re-derives its own points'
        // scalars, so no more than one shape's are alive per worker.
        let mut by_shape: BTreeMap<ScheduleShape, Vec<usize>> = BTreeMap::new();
        for (i, p) in points.iter().enumerate() {
            let shape = MachineParams::from_point(p).shape(&calib_for(p.kind));
            by_shape.entry(shape).or_default().push(i);
        }
        Tier0Plan {
            points,
            inputs,
            groups: by_shape.into_values().collect(),
        }
    }

    /// The model scalars and calibration of each point of a group.
    fn lanes(&self, group: &[usize]) -> (Vec<MachineParams>, Vec<KindCalib>) {
        group
            .iter()
            .map(|&i| {
                let p = &self.points[i];
                (MachineParams::from_point(p), calib_for(p.kind))
            })
            .unzip()
    }
}

/// Simulates a set of points over the spec's workloads on the
/// work-stealing pool; returns aggregate cycles per point, in the order
/// given.
pub fn simulate_points(spec: &SweepSpec, points: &[DesignPoint]) -> Vec<u64> {
    if spec.workloads.is_empty() {
        return vec![0; points.len()];
    }
    let cells = enumerate_cells(points, &spec.workloads, spec.n, spec.seed);
    let per_cell = run_pool(&cells, threads(), |c: &SimCell| c.run().cycles);
    // Cells are point-major, so each point owns one contiguous chunk.
    per_cell
        .chunks(spec.workloads.len())
        .map(|chunk| chunk.iter().sum())
        .collect()
}

/// Runs the full tiered sweep: triage every point, simulate the
/// estimated frontier (anchors), then promote incrementally: re-derive
/// the sim-anchored survivor set, simulate the cheapest few survivors,
/// fold their cycle counts back into the envelope, repeat until no
/// survivor remains. Simulations only ever *lower* the envelope, so a
/// pruned point stays pruned and each iteration simulates at least one
/// new point — the loop terminates with exactly the points no simulated
/// cheaper point could disprove. Simulating cheapest-first (and, within
/// a cost, lowest-estimate-first) matters: a just-simulated frontier
/// point immediately prunes the rest of its equal-cost group — e.g. the
/// DRAM-grade siblings that share one area cost — which a one-shot
/// batch round would have simulated wholesale.
pub fn run_sweep(spec: &SweepSpec) -> SweepOutcome {
    let points = spec.points();
    let costs: Vec<u64> = points.iter().map(point_cost).collect();
    let margin_pct = spec.margin_pct();

    let t0 = Instant::now();
    let est_cycles = tier0_scores(spec, &points);
    let tier0_wall_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut sim_cycles = vec![None; points.len()];

    // Round 1: the estimated frontier pins the true curve.
    let anchors = pareto_indices(&costs, &est_cycles);
    let anchor_points: Vec<DesignPoint> = anchors.iter().map(|&i| points[i]).collect();
    for (&i, cyc) in anchors.iter().zip(simulate_points(spec, &anchor_points)) {
        sim_cycles[i] = Some(cyc);
    }

    // Incremental promotion. Batch size trades prune efficiency (1 is
    // optimal — every sim lands before the next choice) against pool
    // utilization; `threads()` points × the workload fan-out keeps all
    // workers busy.
    let batch_size = threads().max(1);
    loop {
        let mut survivors = anchored_survivors(&costs, &est_cycles, &sim_cycles, margin_pct);
        if survivors.is_empty() {
            break;
        }
        survivors.sort_by_key(|&i| (costs[i], est_cycles[i]));
        survivors.truncate(batch_size);
        let batch_points: Vec<DesignPoint> = survivors.iter().map(|&i| points[i]).collect();
        for (&i, cyc) in survivors.iter().zip(simulate_points(spec, &batch_points)) {
            sim_cycles[i] = Some(cyc);
        }
    }
    let sim_wall_s = t1.elapsed().as_secs_f64();

    let promoted: Vec<usize> = (0..points.len())
        .filter(|&i| sim_cycles[i].is_some())
        .collect();

    SweepOutcome {
        points,
        costs,
        est_cycles,
        promoted,
        sim_cycles,
        margin_pct,
        tier0_wall_s,
        sim_wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_keeps_only_nondominated() {
        let costs = [10, 20, 20, 30, 40];
        let vals = [100, 80, 90, 80, 70];
        // 10/100 frontier; 20/80 frontier; 20/90 dominated by 20/80;
        // 30/80 dominated by 20/80 (equal value, higher cost);
        // 40/70 frontier.
        assert_eq!(pareto_indices(&costs, &vals), vec![0, 1, 4]);
    }

    #[test]
    fn pareto_keeps_duplicates() {
        let costs = [10, 10, 20];
        let vals = [50, 50, 40];
        assert_eq!(pareto_indices(&costs, &vals), vec![0, 1, 2]);
    }

    #[test]
    fn zero_margin_promotion_equals_weak_frontier() {
        let costs = [10, 20, 30];
        let est = [100, 90, 95];
        // margin 0: 30/95 is strictly beaten by 20/90 → dropped; the
        // others survive.
        assert_eq!(promote_indices(&costs, &est, 0), vec![0, 1]);
    }

    #[test]
    fn margin_widens_the_promoted_set() {
        let costs = [10, 20, 30];
        let est = [100, 90, 95];
        // 20% margin: 90 * 1.2 = 108 > 95 * 0.8 = 76 → 30/95 survives.
        let p = promote_indices(&costs, &est, 20);
        assert_eq!(p, vec![0, 1, 2]);
    }

    #[test]
    fn promoted_always_contains_the_estimated_frontier() {
        let costs = [5, 10, 10, 15, 20, 25];
        let est = [120, 100, 110, 95, 97, 60];
        for margin in [0, 10, 35, 60] {
            let promoted = promote_indices(&costs, &est, margin);
            for f in pareto_indices(&costs, &est) {
                assert!(promoted.contains(&f), "margin {margin} dropped {f}");
            }
        }
    }

    #[test]
    fn anchored_pruning_is_one_sided() {
        let costs = [10, 20, 20, 30];
        let est = [100, 120, 80, 95];
        // Only index 0 is simulated (the anchor), at 90 cycles.
        let sim = [Some(90u64), None, None, None];
        // margin 10: prune p iff 90 * 100 < est_p * 90, i.e. est_p > 100.
        // Index 1 (est 120) is pruned; 2 (80) and 3 (95) survive.
        assert_eq!(anchored_survivors(&costs, &est, &sim, 10), vec![2, 3]);
        // Underestimated anchors never appear: the anchor's *estimate*
        // is irrelevant, only its simulated value prunes.
    }

    #[test]
    fn anchored_pruning_uses_same_cost_anchors() {
        let costs = [10, 10];
        let est = [200, 90];
        let sim = [Some(80u64), None];
        // The cost-10 anchor (sim 80) prunes the other cost-10 point
        // only if 80 * 100 < est * (100 - m); at margin 0 est 90 > 80 →
        // pruned. Equality survives.
        assert_eq!(
            anchored_survivors(&costs, &est, &sim, 0),
            Vec::<usize>::new()
        );
        let est_eq = [200, 80];
        assert_eq!(anchored_survivors(&costs, &est_eq, &sim, 0), vec![1]);
    }

    #[test]
    fn full_spec_enumerates_at_least_1000_points() {
        assert!(SweepSpec::full().points().len() >= 1000);
    }

    #[test]
    fn smoke_spec_is_small_and_cheap() {
        let s = SweepSpec::smoke();
        assert!(s.points().len() <= 64);
        assert!(s.n <= 5_000);
    }

    #[test]
    fn cost_rises_with_iq_budget_and_faster_dram() {
        let base = DesignPoint::new(MachineKind::OutOfOrder, Width::Eight);
        let big_iq = DesignPoint {
            iq_entries: Some(256),
            ..base
        };
        let fast_mem = DesignPoint {
            dram_scale_pct: 50,
            ..base
        };
        assert!(point_cost(&big_iq) > point_cost(&base));
        assert!(point_cost(&fast_mem) > point_cost(&base));
    }
}

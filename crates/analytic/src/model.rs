//! The tier-0 dataflow model: one `O(n)` integer pass per schedule shape
//! and trace, evaluating every design point of that shape in its own lane.
//!
//! The estimator replays the trace's dependence DAG through an idealized
//! machine described by a handful of scalars ([`MachineParams`]): issue
//! and front-end bandwidth, an effective scheduling window, per-FU port
//! counts, and cumulative hit latencies per cache level. Every quantity
//! is an integer cycle count — no floating point anywhere on the
//! estimation path — so predictions are bit-reproducible across hosts
//! and runs.
//!
//! The pass computes, per μop, the earliest cycle it could *start*
//! executing given (a) when the front end can deliver it, (b) when its
//! register and memory producers finish, (c) how far the scheduling
//! window lets it run ahead of the oldest uncommitted μop, and (d) issue
//! bandwidth. Branch mispredictions restart the front-end stream after
//! the branch resolves plus the recovery penalty. The final prediction is
//! the maximum of the dataflow finish time and closed-form throughput
//! bounds (issue, fetch, FU ports, DRAM bus), scaled by the per-kind
//! calibration factor.
//!
//! # Lanes
//!
//! The pass reads only a point's [`ScheduleShape`] plus its per-trace
//! DRAM latency; ports, DRAM bandwidth and `alpha` enter afterwards, in
//! the closed-form bounds. [`predict_shape`] therefore runs one pass for
//! all points sharing a shape, one *lane* per distinct DRAM latency, and
//! then applies each point's own bounds and `alpha` to its lane. A sweep
//! grid's DRAM grades, and kinds that differ only in ports or
//! calibration, share a pass. Lane values are `u32` when
//! `fits_u32` proves no cycle count can reach 2³², else `u64`; either
//! way a lane's arithmetic is exactly the one-point computation, so
//! batching never changes an estimate. [`predict_cycles`] is the
//! one-lane instance of the same pass.

use crate::calib::{calib_for, KindCalib};
use ballerino_isa::{
    FuKind, HitLevel, OpClass, TraceDag, TraceFeatures, NO_PRODUCER, NO_STORE_DEP, NUM_HIT_LEVELS,
};
use ballerino_sim::{build_scheduler_point, DesignPoint, MachineKind, Width};
use std::ops::Add;

/// The machine scalars the tier-0 model consumes, derived from a
/// [`DesignPoint`] by building (but never running) its scheduler.
#[derive(Debug, Clone)]
pub struct MachineParams {
    /// Which microarchitecture (selects calibration and issue policy).
    pub kind: MachineKind,
    /// Width preset (selects the per-width calibration scale).
    pub width: Width,
    /// Issue/commit width.
    pub issue_width: u64,
    /// Fetch/decode/dispatch width.
    pub front_width: u64,
    /// Reorder-buffer entries.
    pub rob_entries: u64,
    /// Total scheduling-window capacity (sum over the kind's queues).
    pub window_capacity: u64,
    /// Decode-to-dispatch latency in cycles.
    pub rename_latency: u64,
    /// Pipeline redirect penalty after a mispredicted branch.
    pub recovery_penalty: u64,
    /// Issue ports serving each [`FuKind`].
    pub ports: [u64; FuKind::COUNT],
    /// Cumulative load-to-use latency per [`HitLevel`]
    /// (`[l1, l1+l2, l1+l2+l3, l1+l2+l3+row-hit dram]`).
    pub level_latency: [u64; NUM_HIT_LEVELS],
    /// DRAM burst cycles per line transfer (bus bandwidth bound).
    pub dram_burst: u64,
    /// DRAM CAS cycles (bank occupancy per access).
    pub dram_cas: u64,
    /// Extra cycles a row conflict costs (precharge + activate).
    pub dram_conflict_extra: u64,
    /// DRAM banks (bank-level parallelism for the occupancy bound).
    pub dram_banks: u64,
    /// Whether μops must start in program order (the InO baseline).
    pub in_order: bool,
    /// Core frequency in GHz (reporting only; timing is in cycles).
    pub freq_ghz: f64,
}

impl MachineParams {
    /// Derives the model scalars for a design point. Builds the point's
    /// scheduler to read its true window capacity — including IQ-budget
    /// overrides — but never steps it, so this stays microsecond-scale.
    pub fn from_point(point: &DesignPoint) -> MachineParams {
        let (cfg, sched, _) = build_scheduler_point(point);
        let mut ports = [0u64; FuKind::COUNT];
        for p in 0..cfg.port_map.num_ports() {
            for &fu in cfg.port_map.units(ballerino_isa::PortId(p as u8)) {
                ports[fu.index()] += 1;
            }
        }
        let l1 = cfg.mem.l1d.latency;
        let l2 = l1 + cfg.mem.l2.latency;
        let l3 = l2 + cfg.mem.l3.latency;
        // Row-buffer hit; conflicts add `dram_conflict_extra` weighted by
        // the trace's measured row-switch fraction (see dram_latency).
        let dram = l3 + cfg.mem.dram.cas + cfg.mem.dram.burst;
        MachineParams {
            kind: point.kind,
            width: point.width,
            issue_width: cfg.issue_width as u64,
            front_width: cfg.front_width as u64,
            rob_entries: cfg.rob_entries as u64,
            window_capacity: sched.capacity() as u64,
            rename_latency: cfg.rename_latency,
            recovery_penalty: cfg.recovery_penalty,
            ports,
            level_latency: [l1, l2, l3, dram],
            dram_burst: cfg.mem.dram.burst,
            dram_cas: cfg.mem.dram.cas,
            dram_conflict_extra: cfg.mem.dram.rcd + cfg.mem.dram.rp,
            dram_banks: cfg.mem.dram.banks as u64,
            in_order: point.kind == MachineKind::InOrder,
            freq_ghz: cfg.freq_ghz,
        }
    }

    /// The effective lookahead window: how many μops ahead of the oldest
    /// uncommitted μop the machine can start work. Restricted schedulers
    /// extract less parallelism per entry than a monolithic CAM, which
    /// the per-kind `eta_pct` efficiency captures. Bounded below so even
    /// tiny windows make forward progress, and above by the ROB.
    pub fn effective_window(&self, calib: &KindCalib) -> u64 {
        let eff = (self.window_capacity * calib.eta_pct as u64) / 100;
        eff.max(4).min(self.rob_entries.max(4))
    }

    /// Everything the dataflow pass reads of this point under `calib`,
    /// except the per-trace DRAM latency.
    pub fn shape(&self, calib: &KindCalib) -> ScheduleShape {
        let [l1, l2, l3, _] = self.level_latency;
        ScheduleShape {
            issue_width: self.issue_width,
            front_width: self.front_width,
            rename_latency: self.rename_latency,
            recovery_penalty: self.recovery_penalty,
            window: self.effective_window(calib),
            cache_latency: [l1, l2, l3],
            in_order: self.in_order,
        }
    }

    /// Per-trace average DRAM load-to-use latency: the row-hit base plus
    /// the conflict surcharge weighted by the trace's measured
    /// row-switch fraction.
    fn dram_latency(&self, feat: &TraceFeatures) -> u64 {
        let conflict = (self.dram_conflict_extra * feat.dram_row_switches)
            .checked_div(feat.dram_line_transfers)
            .unwrap_or(0);
        self.level_latency[HitLevel::Dram.index()] + conflict
    }
}

/// The part of a design point the dataflow pass reads, apart from the
/// per-trace DRAM latency: points with
/// equal shapes share one pass in [`predict_shape`], one lane per
/// distinct DRAM latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScheduleShape {
    /// Issue/commit width.
    pub issue_width: u64,
    /// Fetch/decode/dispatch width.
    pub front_width: u64,
    /// Decode-to-dispatch latency in cycles.
    pub rename_latency: u64,
    /// Pipeline redirect penalty after a mispredicted branch.
    pub recovery_penalty: u64,
    /// Effective window under the kind's `eta_pct`
    /// ([`MachineParams::effective_window`]).
    pub window: u64,
    /// Cumulative L1, L1+L2 and L1+L2+L3 load-to-use latencies.
    pub cache_latency: [u64; NUM_HIT_LEVELS - 1],
    /// Whether μops start in program order.
    pub in_order: bool,
}

/// One tier-0 prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Estimate {
    /// Predicted cycles for the trace on the design point.
    pub cycles: u64,
    /// μops the prediction covers (the trace length).
    pub uops: u64,
}

impl Estimate {
    /// Predicted IPC (μops per cycle).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.uops as f64 / self.cycles as f64
    }
}

/// Predicts the cycles a design point needs for a trace, given its
/// pre-resolved DAG and static features. `workload` selects the
/// calibration column: suite names get their fitted per-workload
/// reference alpha, anything else falls back to its workload class's
/// column ([`crate::workload_class`]). Deterministic and `O(n)` in the
/// trace length: the one-lane instance of [`predict_shape`]. The lane
/// rows live in thread-local scratch grown once per thread, so a call
/// allocates only a few words of lane bookkeeping.
pub fn predict_cycles(
    params: &MachineParams,
    dag: &TraceDag,
    feat: &TraceFeatures,
    workload: &str,
) -> Estimate {
    let calib = calib_for(params.kind);
    predict_cycles_with(params, dag, feat, &calib, workload)
}

/// [`predict_cycles`] with an explicit calibration (the calibration
/// search itself needs this to avoid chicken-and-egg).
pub fn predict_cycles_with(
    params: &MachineParams,
    dag: &TraceDag,
    feat: &TraceFeatures,
    calib: &KindCalib,
    workload: &str,
) -> Estimate {
    predict_shape(&[(params, calib)], dag, feat, workload)[0]
}

/// Predicts every `(params, calib)` point over one trace in one pass
/// per batch of up to five distinct DRAM latencies (two when cycle
/// counts may not fit `u32`); returns
/// the estimates in point order, each equal to [`predict_cycles_with`]
/// on that point alone.
///
/// # Panics
///
/// If the points do not all share one [`ScheduleShape`], or the
/// features describe a different trace.
pub fn predict_shape(
    points: &[(&MachineParams, &KindCalib)],
    dag: &TraceDag,
    feat: &TraceFeatures,
    workload: &str,
) -> Vec<Estimate> {
    let n = dag.len();
    assert_eq!(feat.len(), n, "features must describe the same trace");
    if n == 0 {
        return vec![Estimate { cycles: 0, uops: 0 }; points.len()];
    }
    let plan = LanePlan::new(points, dag, feat);
    let dataflow = if plan.narrow {
        run_lanes::<u32>(&plan, dag, feat)
    } else {
        run_lanes::<u64>(&plan, dag, feat)
    };
    points
        .iter()
        .zip(&plan.lane_of)
        .map(|(&(params, calib), &lane)| bound(params, calib, feat, n, dataflow[lane], workload))
        .collect()
}

/// The dataflow passes [`predict_shape`] runs for these points on this
/// trace (zero for an empty trace or no points).
pub fn shape_passes(
    points: &[(&MachineParams, &KindCalib)],
    dag: &TraceDag,
    feat: &TraceFeatures,
) -> usize {
    if dag.is_empty() || points.is_empty() {
        return 0;
    }
    let plan = LanePlan::new(points, dag, feat);
    let lanes = if plan.narrow {
        <u32 as Lane>::LANES
    } else {
        <u64 as Lane>::LANES
    };
    plan.dram.len().div_ceil(lanes)
}

/// Bytes per μop one pass may keep in lane rows (the `finish` array,
/// lanes × lane width): 5 `u32` lanes or 2 `u64` lanes, under the
/// 24 B per μop of the three `u64` arrays a per-point pass needs.
const LANE_BYTES: usize = 20;

/// Whether a pass over `n` μops whose largest per-μop latency is
/// `max_latency` can hold every cycle count in a `u32` lane:
/// `n × (max_latency + recovery_penalty + rename_latency + 1) < 2³²`.
///
/// Each μop's finish is at most its index plus one times that sum (a
/// start waits at most for the previous finish, a redirect, the rename
/// latency and one issue slot), so below the bound no lane value, and
/// no sum the pass forms, reaches 2³².
fn fits_u32(n: usize, max_latency: u64, shape: &ScheduleShape) -> bool {
    let per_uop =
        max_latency as u128 + shape.recovery_penalty as u128 + shape.rename_latency as u128 + 1;
    (n as u128).saturating_mul(per_uop) < 1 << 32
}

/// The lanes of one [`predict_shape`] call: the shared shape, the
/// distinct DRAM latencies (one lane each, first-seen order), each
/// point's lane, and whether the lanes fit `u32`.
struct LanePlan {
    shape: ScheduleShape,
    dram: Vec<u64>,
    lane_of: Vec<usize>,
    narrow: bool,
}

impl LanePlan {
    fn new(points: &[(&MachineParams, &KindCalib)], dag: &TraceDag, feat: &TraceFeatures) -> Self {
        let (first, calib) = points[0];
        let shape = first.shape(calib);
        let mut dram = Vec::new();
        let lane_of = points
            .iter()
            .map(|&(params, calib)| {
                assert_eq!(
                    params.shape(calib),
                    shape,
                    "points of one pass must share a schedule shape"
                );
                let lat = params.dram_latency(feat);
                dram.iter().position(|&d| d == lat).unwrap_or_else(|| {
                    dram.push(lat);
                    dram.len() - 1
                })
            })
            .collect();
        let max_exec = OpClass::ALL.iter().map(|c| c.exec_latency()).max();
        let max_load = dram.iter().chain(&shape.cache_latency).max();
        let max_latency = (max_exec.unwrap_or(0) as u64)
            .max(OpClass::Load.exec_latency() as u64 + max_load.copied().unwrap_or(0));
        LanePlan {
            narrow: fits_u32(dag.len(), max_latency, &shape),
            shape,
            dram,
            lane_of,
        }
    }
}

/// A lane value: `u32` under [`fits_u32`], `u64` otherwise.
trait Lane: Copy + Ord + Default + Add<Output = Self> + From<u32> + Into<u64> + TryFrom<u64> {
    /// Lanes per pass ([`LANE_BYTES`] / lane width).
    const LANES: usize = LANE_BYTES / std::mem::size_of::<Self>();

    /// This lane width's rows in the thread's scratch, dropping the
    /// other width's rows first so a thread never holds both.
    fn rows(scratch: &mut Scratch) -> &mut Vec<Self>;

    fn of(v: u64) -> Self {
        Self::try_from(v)
            .ok()
            .expect("lane value within the fits_u32 bound")
    }
}

impl Lane for u32 {
    fn rows(scratch: &mut Scratch) -> &mut Vec<u32> {
        if !matches!(scratch, Scratch::Narrow(_)) {
            *scratch = Scratch::Narrow(Vec::new());
        }
        match scratch {
            Scratch::Narrow(v) => v,
            Scratch::Wide(_) => unreachable!(),
        }
    }
}

impl Lane for u64 {
    fn rows(scratch: &mut Scratch) -> &mut Vec<u64> {
        if !matches!(scratch, Scratch::Wide(_)) {
            *scratch = Scratch::Wide(Vec::new());
        }
        match scratch {
            Scratch::Wide(v) => v,
            Scratch::Narrow(_) => unreachable!(),
        }
    }
}

/// Per-thread lane rows: sweeps run thousands of passes per thread, so
/// the `O(n)` rows are grown once and reused, not reallocated per pass.
enum Scratch {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

std::thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> =
        const { std::cell::RefCell::new(Scratch::Narrow(Vec::new())) };
}

/// Runs the plan's lanes, [`Lane::LANES`] per pass; returns each lane's
/// dataflow finish (the cycle by which every μop has finished).
fn run_lanes<T: Lane>(plan: &LanePlan, dag: &TraceDag, feat: &TraceFeatures) -> Vec<u64> {
    SCRATCH.with(|s| {
        let mut scratch = s.borrow_mut();
        let rows = T::rows(&mut scratch);
        let mut out = Vec::with_capacity(plan.dram.len());
        for chunk in plan.dram.chunks(T::LANES) {
            macro_rules! pass {
                ($($l:literal)*) => {
                    match chunk.len() {
                        $($l => out.extend(pass::<T, $l>(&plan.shape, chunk, dag, feat, rows)),)*
                        _ => unreachable!("at most {} lanes per pass", T::LANES),
                    }
                };
            }
            pass!(1 2 3 4 5);
        }
        out
    })
}

/// The dataflow pass over `L` lanes of one shape, lane `l` with DRAM
/// latency `dram[l]`; returns each lane's dataflow finish.
fn pass<T: Lane, const L: usize>(
    shape: &ScheduleShape,
    dram: &[u64],
    dag: &TraceDag,
    feat: &TraceFeatures,
    rows: &mut Vec<T>,
) -> [u64; L] {
    let n = dag.len();
    let window = shape.window as usize;
    let issue_width = shape.issue_width as usize;
    // `next` (each start plus one) and `commit` are read at most
    // max(window, issue_width) μops back, so they live in rings;
    // `finish` is read at any producer, so it keeps a row per μop.
    let ring = (window.max(issue_width) + 1).next_power_of_two();
    let mask = ring - 1;
    rows.clear();
    rows.resize((n + 2 * ring) * L, T::default());
    let (rows, _) = rows.as_chunks_mut::<L>();
    let (finish, rings) = rows.split_at_mut(n);
    // commit[i] = running max of finish[0..=i]: the cycle by which
    // μop i and all older μops have finished. Using it as the window
    // constraint makes predictions monotone in window size by
    // construction — a larger window looks further back at a value
    // that can only be smaller or equal (running maxes are
    // non-decreasing in the index).
    let (next, commit) = rings.split_at_mut(ring);

    let one = T::from(1);
    let rename = T::of(shape.rename_latency);
    let recovery = T::of(shape.recovery_penalty);
    // Load-to-use latency added to a μop's execution latency, by
    // `1 + HitLevel::index()` for loads and row 0 (nothing) otherwise:
    // the cache levels are shared, DRAM is the lane's own.
    let mut level_latency = [[T::default(); L]; NUM_HIT_LEVELS + 1];
    for (row, &lat) in level_latency[1..].iter_mut().zip(&shape.cache_latency) {
        *row = [T::of(lat); L];
    }
    level_latency[NUM_HIT_LEVELS] = std::array::from_fn(|l| T::of(dram[l]));

    // Front-end stream state: μops fetch `front_width` per cycle from
    // `stream_base` (which folds in the rename latency), restarting
    // after each predicted-mispredicted branch; `fetched` counts whole
    // fetch groups since the restart and `group` the μops of the
    // current one.
    let mut stream_base = [rename; L];
    let mut fetched = T::default();
    let mut group = 0u64;
    let mut prev_start = [T::default(); L];
    let mut running = [T::default(); L];

    let per_uop = dag
        .ops()
        .iter()
        .zip(&feat.level)
        .zip(&feat.store_dep)
        .zip(&feat.mispredicted);
    for (i, (((d, level), &store_dep), &mispredicted)) in per_uop.enumerate() {
        let is_load = d.class == OpClass::Load;

        // (a) Front-end delivery.
        let mut t = stream_base.map(|b| b + fetched);

        // (b) Dataflow: register producers, plus the youngest aliasing
        // store for loads (the memory-carried edge a store-set MDP would
        // enforce).
        for &p in &d.producers {
            if p != NO_PRODUCER {
                let f = &finish[p as usize];
                for l in 0..L {
                    t[l] = t[l].max(f[l]);
                }
            }
        }
        if is_load && store_dep != NO_STORE_DEP {
            let f = &finish[store_dep as usize];
            for l in 0..L {
                t[l] = t[l].max(f[l]);
            }
        }

        // (c) Window: μop i cannot start before μop i-W (and everything
        // older) has finished — the scheduler holds at most W μops in
        // flight past the oldest unfinished one.
        // (Before μop W the slot read is one not yet written: zero.)
        let c = &commit[i.wrapping_sub(window) & mask];
        for l in 0..L {
            t[l] = t[l].max(c[l]);
        }

        // (d) Bandwidth: at most `issue_width` starts per cycle; strict
        // program order for the in-order baseline.
        if shape.in_order {
            for l in 0..L {
                t[l] = t[l].max(prev_start[l]);
            }
        }
        // (`next` holds each μop's start plus one; zero before μop
        // `issue_width`, as for the window.)
        let s = &next[i.wrapping_sub(issue_width) & mask];
        for l in 0..L {
            t[l] = t[l].max(s[l]);
        }

        next[i & mask] = t.map(|x| x + one);
        prev_start = t;
        let exec = T::from(d.exec_latency());
        let extra = &level_latency[if is_load { 1 + level.index() } else { 0 }];
        let f: [T; L] = std::array::from_fn(|l| t[l] + exec + extra[l]);
        finish[i] = f;
        for l in 0..L {
            running[l] = running[l].max(f[l]);
        }
        commit[i & mask] = running;

        // Redirect: the stream restarts after the branch resolves. (The
        // last μop's redirect would feed no one, and could overflow a
        // lane right at the `fits_u32` bound.)
        group += 1;
        if mispredicted && i + 1 < n {
            stream_base = f.map(|x| x + recovery + rename);
            fetched = T::default();
            group = 0;
        } else if group == shape.front_width {
            fetched = fetched + one;
            group = 0;
        }
    }
    running.map(Into::into)
}

/// Applies a point's closed-form bounds and calibration to its lane's
/// dataflow finish.
fn bound(
    params: &MachineParams,
    calib: &KindCalib,
    feat: &TraceFeatures,
    n: usize,
    dataflow: u64,
    workload: &str,
) -> Estimate {
    // Closed-form lower bounds the dataflow pass cannot see:
    // sustained issue/fetch bandwidth, FU port contention, DRAM bus.
    let nn = n as u64;
    let mut raw = dataflow;
    raw = raw.max(nn.div_ceil(params.issue_width));
    raw = raw.max(nn.div_ceil(params.front_width));
    for k in 0..FuKind::COUNT {
        if feat.fu_uops[k] > 0 {
            let p = params.ports[k].max(1);
            raw = raw.max(feat.fu_occupancy[k].div_ceil(p));
        }
    }
    // DRAM: the shared data bus moves one line per `burst`, and the
    // banks collectively owe CAS per transfer plus precharge+activate
    // per row switch.
    raw = raw.max(feat.dram_line_transfers * params.dram_burst);
    let bank_work = feat.dram_line_transfers * (params.dram_cas + params.dram_burst)
        + feat.dram_row_switches * params.dram_conflict_extra;
    raw = raw.max(bank_work / params.dram_banks.max(1));

    // Per-(kind, width, workload) scale factor absorbing the model's
    // systematic bias (structural hazards, partial-window effects,
    // replay traffic) — narrow machines carry a different residual than
    // wide ones, and each workload its own idiosyncratic one.
    let alpha = calib.alpha_for(params.width, workload);
    let cycles = ((raw as u128 * alpha as u128) / 1000) as u64;
    Estimate {
        cycles: cycles.max(1),
        uops: nn,
    }
}

/// Convenience: derive [`MachineParams`] and predict in one call. Sweep
/// loops that amortize `MachineParams::from_point` should use
/// [`predict_cycles`] directly.
pub fn predict_point(
    point: &DesignPoint,
    dag: &TraceDag,
    feat: &TraceFeatures,
    workload: &str,
) -> Estimate {
    predict_cycles(&MachineParams::from_point(point), dag, feat, workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ballerino_sim::Width;

    #[test]
    fn params_read_the_table_i_presets() {
        let p = MachineParams::from_point(&DesignPoint::new(MachineKind::OutOfOrder, Width::Eight));
        assert_eq!(p.issue_width, 8);
        assert_eq!(p.front_width, 4);
        assert_eq!(p.rob_entries, 224);
        assert_eq!(p.window_capacity, 96);
        assert_eq!(p.level_latency[0], 4);
        assert!(p.level_latency[3] > p.level_latency[2]);
        assert!(p.ports[FuKind::IntAlu.index()] >= 4);
    }

    #[test]
    fn params_see_iq_and_dram_overrides() {
        let point = DesignPoint {
            iq_entries: Some(192),
            dram_scale_pct: 200,
            ..DesignPoint::new(MachineKind::OutOfOrder, Width::Eight)
        };
        let p = MachineParams::from_point(&point);
        assert_eq!(p.window_capacity, 192);
        let base =
            MachineParams::from_point(&DesignPoint::new(MachineKind::OutOfOrder, Width::Eight));
        assert!(p.level_latency[3] > base.level_latency[3]);
        assert_eq!(p.dram_burst, base.dram_burst * 2);
    }

    #[test]
    fn empty_trace_predicts_zero() {
        let dag = TraceDag::resolve(&ballerino_isa::Trace::new("empty"));
        let feat = TraceFeatures::default();
        let p = MachineParams::from_point(&DesignPoint::new(MachineKind::OutOfOrder, Width::Eight));
        let e = predict_cycles(&p, &dag, &feat, "empty");
        assert_eq!(e.cycles, 0);
        assert_eq!(e.ipc(), 0.0);
        assert_eq!(shape_passes(&[(&p, &calib_for(p.kind))], &dag, &feat), 0);
    }

    #[test]
    fn a_serial_chain_is_latency_bound_and_ilp_is_throughput_bound() {
        use ballerino_isa::{ArchReg, MicroOp, Trace};
        // 64 dependent ALU ops: ≥ ~64 cycles regardless of width.
        let mut chain = Trace::new("chain");
        for i in 0..64 {
            chain.push(MicroOp::alu(
                i * 4,
                ArchReg::int(1),
                [Some(ArchReg::int(1)), None],
            ));
        }
        // 64 independent ALU ops: bounded by fetch width instead.
        let mut flat = Trace::new("flat");
        for i in 0..64 {
            flat.push(MicroOp::alu(
                i * 4,
                ArchReg::int((1 + (i % 20)) as u16),
                [None, None],
            ));
        }
        let params =
            MachineParams::from_point(&DesignPoint::new(MachineKind::OutOfOrder, Width::Eight));
        let calib = KindCalib {
            eta_pct: 100,
            ..KindCalib::default()
        };
        let dag_c = TraceDag::resolve(&chain);
        let f_c = TraceFeatures::extract(&chain, &dag_c, &Default::default());
        let dag_f = TraceDag::resolve(&flat);
        let f_f = TraceFeatures::extract(&flat, &dag_f, &Default::default());
        let e_chain = predict_cycles_with(&params, &dag_c, &f_c, &calib, "chain");
        let e_flat = predict_cycles_with(&params, &dag_f, &f_f, &calib, "flat");
        assert!(e_chain.cycles >= 64);
        assert!(e_flat.cycles < e_chain.cycles / 2);
    }

    /// The `u32` lane bound sits exactly at 2³²: one cycle of headroom
    /// keeps a pass narrow, none makes it wide.
    #[test]
    fn u32_lanes_stop_exactly_at_the_bound() {
        let shape = ScheduleShape {
            issue_width: 8,
            front_width: 4,
            rename_latency: 6,
            recovery_penalty: 9,
            window: 57,
            cache_latency: [4, 16, 52],
            in_order: false,
        };
        // per μop: 239 + 9 + 6 + 1 = 255 = 2⁸ - 1, and 2³² - 1 = 255 × 16843009.
        let n = 16_843_009;
        assert!(fits_u32(n, 239, &shape));
        assert!(!fits_u32(n, 240, &shape));
        assert!(!fits_u32(n + 1, 239, &shape));
        assert!(fits_u32(n - 1, 239, &shape));
        assert!(!fits_u32(usize::MAX, u64::MAX, &shape));
        assert_eq!(<u32 as Lane>::LANES, 5);
        assert_eq!(<u64 as Lane>::LANES, 2);
    }

    /// A pass on `u64` lanes gives the same dataflow finishes as on
    /// `u32` lanes wherever both are exact, lane for lane.
    #[test]
    fn wide_and_narrow_lanes_agree() {
        let dag = ballerino_workloads::cached_dag("branchy_sort", 3_000, 7);
        let feat = ballerino_workloads::cached_features("branchy_sort", 3_000, 7);
        for kind in [MachineKind::InOrder, MachineKind::Ballerino] {
            let points: Vec<_> = [70, 140, 400]
                .map(|dram_scale_pct| {
                    MachineParams::from_point(&DesignPoint {
                        dram_scale_pct,
                        ..DesignPoint::new(kind, Width::Four)
                    })
                })
                .into();
            let calib = calib_for(kind);
            let lanes: Vec<_> = points.iter().map(|p| (p, &calib)).collect();
            let plan = LanePlan::new(&lanes, &dag, &feat);
            assert!(plan.narrow);
            assert_eq!(plan.dram.len(), 3);
            assert_eq!(
                run_lanes::<u32>(&plan, &dag, &feat),
                run_lanes::<u64>(&plan, &dag, &feat)
            );
        }
    }
}

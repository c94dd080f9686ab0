//! The tier-0 dataflow model: one `O(n)` integer pass per design point.
//!
//! The estimator replays the trace's dependence DAG through an idealized
//! machine described by a handful of scalars ([`MachineParams`]): issue
//! and front-end bandwidth, an effective scheduling window, per-FU port
//! counts, and cumulative hit latencies per cache level. Every quantity
//! is a `u64` cycle count — no floating point anywhere on the estimation
//! path — so predictions are bit-reproducible across hosts and runs.
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

use crate::calib::{calib_for, KindCalib};
use ballerino_isa::{
    FuKind, HitLevel, OpClass, TraceDag, TraceFeatures, NO_PRODUCER, NO_STORE_DEP, NUM_HIT_LEVELS,
};
use ballerino_sim::{build_scheduler_point, DesignPoint, MachineKind, Width};

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
        // the trace's measured row-switch fraction (see predict).
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
/// column ([`crate::workload_class`]). Deterministic, allocation-free
/// in steady state (three thread-local `u64` scratch vectors, grown
/// once per thread), `O(n)` in the trace length — microseconds per
/// call against seconds for the cycle-accurate tier.
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
    let n = dag.len();
    assert_eq!(feat.len(), n, "features must describe the same trace");
    if n == 0 {
        return Estimate { cycles: 0, uops: 0 };
    }
    SCRATCH.with(|s| predict_inner(params, dag, feat, calib, workload, &mut s.borrow_mut()))
}

std::thread_local! {
    /// Per-thread scratch for the dataflow pass — sweeps call the
    /// estimator thousands of times per thread, so the three O(n)
    /// vectors are grown once and reused, not reallocated per point.
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

#[derive(Default)]
struct Scratch {
    start: Vec<u64>,
    finish: Vec<u64>,
    commit: Vec<u64>,
}

fn predict_inner(
    params: &MachineParams,
    dag: &TraceDag,
    feat: &TraceFeatures,
    calib: &KindCalib,
    workload: &str,
    scratch: &mut Scratch,
) -> Estimate {
    let n = dag.len();
    let window = params.effective_window(calib) as usize;
    // Per-trace average DRAM latency: row-hit base plus the conflict
    // surcharge weighted by the measured row-switch fraction.
    let mut level_latency = params.level_latency;
    if let Some(conflict) =
        (params.dram_conflict_extra * feat.dram_row_switches).checked_div(feat.dram_line_transfers)
    {
        level_latency[HitLevel::Dram.index()] += conflict;
    }
    scratch.start.clear();
    scratch.start.resize(n, 0);
    scratch.finish.clear();
    scratch.finish.resize(n, 0);
    scratch.commit.clear();
    scratch.commit.resize(n, 0);
    let (start, finish, commit) = (
        &mut scratch.start[..],
        &mut scratch.finish[..],
        // commit[i] = running max of finish[0..=i]: the cycle by which
        // μop i and all older μops have finished. Using it as the window
        // constraint makes predictions monotone in window size by
        // construction — a larger window looks further back at a value
        // that can only be smaller or equal (running maxes are
        // non-decreasing in the index).
        &mut scratch.commit[..],
    );

    // Front-end stream state: μops fetch `front_width` per cycle from
    // `stream_base`, restarting after each predicted-mispredicted branch.
    let mut stream_base = 0u64;
    let mut stream_start = 0usize;

    for i in 0..n {
        let d = dag.op(i);

        // (a) Front-end delivery.
        let fetched =
            stream_base + ((i - stream_start) as u64) / params.front_width + params.rename_latency;
        let mut t = fetched;

        // (b) Dataflow: register producers, plus the youngest aliasing
        // store for loads (the memory-carried edge a store-set MDP would
        // enforce).
        for &p in &d.producers {
            if p != NO_PRODUCER {
                t = t.max(finish[p as usize]);
            }
        }
        if d.class == OpClass::Load {
            let dep = feat.store_dep[i];
            if dep != NO_STORE_DEP {
                t = t.max(finish[dep as usize]);
            }
        }

        // (c) Window: μop i cannot start before μop i-W (and everything
        // older) has finished — the scheduler holds at most W μops in
        // flight past the oldest unfinished one.
        if i >= window {
            t = t.max(commit[i - window]);
        }

        // (d) Bandwidth: at most `issue_width` starts per cycle; strict
        // program order for the in-order baseline.
        if params.in_order && i > 0 {
            t = t.max(start[i - 1]);
        }
        if i >= params.issue_width as usize {
            t = t.max(start[i - params.issue_width as usize] + 1);
        }

        start[i] = t;
        let lat = if d.class == OpClass::Load {
            d.exec_latency() as u64 + level_latency[feat.level[i].index()]
        } else {
            d.exec_latency() as u64
        };
        finish[i] = t + lat;
        commit[i] = if i == 0 {
            finish[0]
        } else {
            commit[i - 1].max(finish[i])
        };

        // Redirect: the stream restarts after the branch resolves.
        if feat.mispredicted[i] {
            stream_base = finish[i] + params.recovery_penalty;
            stream_start = i + 1;
        }
    }

    // Closed-form lower bounds the dataflow pass cannot see:
    // sustained issue/fetch bandwidth, FU port contention, DRAM bus.
    let nn = n as u64;
    let mut raw = commit[n - 1];
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
}

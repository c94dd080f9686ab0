//! Layer probes of the traced run: each replays a workload's own traces
//! through one crate's public interface, outside the core, with a span
//! around every replay.
//!
//! * memory — every load/store through `Hierarchy::access`,
//! * front end — every branch through `Tage::predict`/`update` and the
//!   `Btb`, exactly as the core's fetch stage consults them,
//! * schedulers — the trace's μops, renamed by `Renamer`, through
//!   `try_dispatch`/`issue`/`on_complete` of a scheduler built by
//!   `build_scheduler`, with fixed functional-unit latencies (loads hit
//!   the L1), an in-order commit that frees physical registers, and no
//!   memory-dependence holds or squashes.

use crate::common::{timed_span, TraceSet};
use crate::spans::Tracer;
use ballerino_frontend::{Btb, Renamer, Tage};
use ballerino_isa::{OpClass, PhysReg, Trace};
use ballerino_mem::{AccessKind, Hierarchy, MemConfig};
use ballerino_sched::ports::PortArbiter;
use ballerino_sched::{
    DispatchOutcome, FuBusy, HeldSet, PortAlloc, ReadyCtx, SchedUop, Scoreboard,
};
use ballerino_sim::{build_scheduler, MachineKind, Width};
use ballerino_workloads::cached_workload;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;

/// Replays every load/store of the set through a fresh hierarchy per
/// trace, repeating rounds until `min_accesses` were made. Returns
/// `(accesses, CPU ns)`; the hierarchy is built outside the span.
pub fn probe_mem(t: &Tracer, set: &TraceSet, cfg: &MemConfig, min_accesses: u64) -> (u64, u64) {
    let (mut accesses, mut ns) = (0u64, 0u64);
    while accesses < min_accesses.max(1) {
        let before = accesses;
        for &(w, n) in &set.keys {
            let trace = cached_workload(w, n, set.seed);
            let mut h = Hierarchy::new(cfg);
            let (count, dur) = timed_span(t, "mem.replay", || {
                let mut cycle = 0u64;
                let mut count = 0u64;
                for op in &trace.ops {
                    if let Some(m) = op.mem {
                        let kind = if op.class == OpClass::Store {
                            AccessKind::Store
                        } else {
                            AccessKind::Load
                        };
                        black_box(h.access(m.addr, op.pc, cycle, kind));
                        cycle += 1;
                        count += 1;
                    }
                }
                count
            });
            accesses += count;
            ns += dur;
        }
        if accesses == before {
            break; // no memory ops at all
        }
    }
    (accesses, ns)
}

/// Replays every branch of the set through a fresh TAGE + BTB per
/// trace, repeating rounds until `min_branches` were predicted. Returns
/// `(branches, CPU ns, mispredicts of the first round)`.
pub fn probe_frontend(t: &Tracer, set: &TraceSet, min_branches: u64) -> (u64, u64, u64) {
    let (mut branches, mut ns, mut first_round_mispredicts) = (0u64, 0u64, None);
    while branches < min_branches.max(1) {
        let before = branches;
        let mut mispredicts = 0u64;
        for &(w, n) in &set.keys {
            let trace = cached_workload(w, n, set.seed);
            let mut tage = Tage::new();
            let mut btb = Btb::default();
            let ((count, wrong), dur) = timed_span(t, "frontend.replay", || {
                let (mut count, mut wrong) = (0u64, 0u64);
                for op in &trace.ops {
                    if let Some(b) = op.branch {
                        let pred = tage.predict(op.pc);
                        let dir_correct = tage.update(op.pc, pred, b.taken);
                        let target = btb.lookup(op.pc);
                        btb.update(op.pc, b.target);
                        if !dir_correct || (b.taken && target != Some(b.target)) {
                            wrong += 1;
                        }
                        count += 1;
                    }
                }
                (count, wrong)
            });
            branches += count;
            mispredicts += wrong;
            ns += dur;
        }
        first_round_mispredicts.get_or_insert(mispredicts);
        if branches == before {
            break; // no branches at all
        }
    }
    (branches, ns, first_round_mispredicts.unwrap_or(0))
}

/// The schedulers the probe drives: metric prefix, span name, kind.
/// `sched.*` are the baseline designs of `ballerino-sched`, `core.*` the
/// Ballerino designs of `ballerino-core`.
pub const SCHED_PROBES: [(&str, &str, MachineKind); 9] = [
    ("sched.ces", "sched.ces.replay", MachineKind::Ces),
    ("sched.casino", "sched.casino.replay", MachineKind::Casino),
    ("sched.fxa", "sched.fxa.replay", MachineKind::Fxa),
    ("sched.ldt", "sched.ldt.replay", MachineKind::Ldt),
    ("sched.ooo", "sched.ooo.replay", MachineKind::OutOfOrder),
    (
        "sched.ooo-of",
        "sched.ooo-of.replay",
        MachineKind::OutOfOrderOldestFirst,
    ),
    (
        "core.ballerino",
        "core.ballerino.replay",
        MachineKind::Ballerino,
    ),
    (
        "core.ballerino12",
        "core.ballerino12.replay",
        MachineKind::Ballerino12,
    ),
    (
        "core.ballerino-ldt",
        "core.ballerino-ldt.replay",
        MachineKind::BallerinoLdt,
    ),
];

/// L1 hit latency the scheduler probe charges every load on top of its
/// address generation.
const PROBE_LOAD_HIT: u64 = 4;

/// Cycles without a commit after which a scheduler replay is declared
/// stuck.
const STALL_LIMIT: u64 = 100_000;

/// Replays the set (at most `cap` μops per trace) through `kind`'s
/// scheduler, rounds repeating until `min_uops` μops were replayed.
/// Returns `(issues, CPU ns)` or a description of a stuck replay.
pub fn probe_sched(
    t: &Tracer,
    span: &'static str,
    kind: MachineKind,
    set: &TraceSet,
    cap: usize,
    min_uops: usize,
) -> Result<(u64, u64), String> {
    let (mut uops, mut issues, mut ns) = (0usize, 0u64, 0u64);
    while uops < min_uops.max(1) {
        let before = uops;
        for &(w, n) in &set.keys {
            let trace = cached_workload(w, n, set.seed);
            let mut replay = SchedReplay::new(kind, &trace, cap);
            let (r, dur) = timed_span(t, span, || replay.run());
            issues += r.map_err(|e| format!("{} on {w}/n{n}: {e}", kind.label()))?;
            uops += trace.len().min(cap);
            ns += dur;
        }
        if uops == before {
            break;
        }
    }
    Ok((issues, ns))
}

/// One scheduler replay's state, built outside the timed span.
struct SchedReplay<'a> {
    trace: &'a Trace,
    n: usize,
    sched: Box<dyn ballerino_sched::Scheduler>,
    renamer: Renamer,
    scb: Scoreboard,
    held: HeldSet,
    busy: FuBusy,
    arbiter: PortArbiter,
    num_ports: usize,
    issue_width: usize,
    front_width: usize,
    rob_cap: usize,
    uops: Vec<SchedUop>,
    prev_dst: Vec<Option<PhysReg>>,
    completed: Vec<bool>,
}

impl<'a> SchedReplay<'a> {
    fn new(kind: MachineKind, trace: &'a Trace, cap: usize) -> Self {
        let (cfg, sched, _) = build_scheduler(kind, Width::Eight);
        let renamer = Renamer::new(cfg.int_regs, cfg.fp_regs);
        let scb = Scoreboard::new(renamer.total_phys());
        let n = trace.len().min(cap);
        SchedReplay {
            trace,
            n,
            sched,
            renamer,
            scb,
            held: HeldSet::new(),
            busy: FuBusy::new(),
            arbiter: PortArbiter::new(cfg.port_map.clone()),
            num_ports: cfg.port_map.num_ports(),
            issue_width: cfg.issue_width,
            front_width: cfg.front_width,
            rob_cap: cfg.rob_entries,
            uops: Vec::with_capacity(n),
            prev_dst: Vec::with_capacity(n),
            completed: vec![false; n],
        }
    }

    /// Runs to the last commit; returns the number of issues.
    fn run(&mut self) -> Result<u64, String> {
        let mut events: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut rob: VecDeque<usize> = VecDeque::with_capacity(self.rob_cap);
        let mut pending: Option<usize> = None;
        let mut out = Vec::new();
        let (mut cycle, mut committed, mut issues, mut last_commit) = (0u64, 0usize, 0u64, 0u64);
        while committed < self.n {
            // Writeback: completions wake their consumers.
            while let Some(&Reverse((at, i))) = events.peek() {
                if at > cycle {
                    break;
                }
                events.pop();
                self.completed[i] = true;
                if let Some(d) = self.uops[i].dst {
                    self.sched.on_complete(d);
                }
            }
            // In-order commit frees the previous mappings.
            for _ in 0..self.issue_width {
                match rob.front() {
                    Some(&i) if self.completed[i] => {
                        rob.pop_front();
                        if let Some(p) = self.prev_dst[i] {
                            self.renamer.release(p);
                        }
                        committed += 1;
                        last_commit = cycle;
                    }
                    _ => break,
                }
            }
            // Issue.
            out.clear();
            {
                let ctx = ReadyCtx {
                    cycle,
                    scb: &self.scb,
                    held: &self.held,
                };
                let mut ports = PortAlloc::new(self.num_ports, self.issue_width, &self.busy, cycle);
                self.sched.issue(&ctx, &mut ports, &mut out);
            }
            for &seq in &out {
                self.execute(seq as usize - 1, cycle, &mut events);
                issues += 1;
            }
            // Rename + dispatch.
            for _ in 0..self.front_width {
                let i = match pending.take() {
                    Some(i) => i,
                    None => {
                        let i = self.uops.len();
                        if i >= self.n || rob.len() >= self.rob_cap {
                            break;
                        }
                        let op = &self.trace.ops[i];
                        let Ok(r) = self.renamer.rename(op) else {
                            break; // out of physical registers until commit
                        };
                        if let Some(d) = r.dst {
                            self.scb.allocate(d);
                        }
                        self.uops.push(SchedUop {
                            seq: i as u64 + 1,
                            pc: op.pc,
                            class: op.class,
                            port: self.arbiter.assign(op.class),
                            srcs: r.srcs,
                            dst: r.dst,
                            ssid: None,
                            mdp_wait: None,
                            load_dep: false,
                        });
                        self.prev_dst.push(r.prev_dst);
                        i
                    }
                };
                let ctx = ReadyCtx {
                    cycle,
                    scb: &self.scb,
                    held: &self.held,
                };
                match self.sched.try_dispatch(self.uops[i], &ctx) {
                    DispatchOutcome::Accepted => rob.push_back(i),
                    DispatchOutcome::AcceptedIssued => {
                        rob.push_back(i);
                        self.execute(i, cycle, &mut events);
                        issues += 1;
                    }
                    DispatchOutcome::Stall(_) => {
                        pending = Some(i);
                        break;
                    }
                }
            }
            cycle += 1;
            if cycle - last_commit > STALL_LIMIT {
                return Err(format!(
                    "no commit for {STALL_LIMIT} cycles at cycle {cycle} \
                     ({committed}/{} committed)",
                    self.n
                ));
            }
        }
        Ok(issues)
    }

    /// Starts μop `i` executing at `cycle` with its fixed latency.
    fn execute(&mut self, i: usize, cycle: u64, events: &mut BinaryHeap<Reverse<(u64, usize)>>) {
        let u = self.uops[i];
        self.arbiter.release(u.port);
        let exec = u.class.exec_latency() as u64;
        if u.class.unpipelined() {
            self.busy.reserve(u.port, u.class, cycle + exec);
        }
        let lat = exec
            + if u.class == OpClass::Load {
                PROBE_LOAD_HIT
            } else {
                0
            };
        if let Some(d) = u.dst {
            self.scb.set_ready_at(d, cycle + lat);
        }
        events.push(Reverse((cycle + lat, i)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ballerino_workloads::workload;

    #[test]
    fn every_probed_scheduler_drains_a_trace() {
        for w in ["int_crunch", "pointer_chase", "stream_triad"] {
            let trace = workload(w, 3_000, 42);
            for (name, _, kind) in SCHED_PROBES {
                let issues = SchedReplay::new(kind, &trace, 3_000)
                    .run()
                    .unwrap_or_else(|e| panic!("{name} on {w}: {e}"));
                assert_eq!(issues, 3_000, "{name} on {w}");
            }
        }
    }
}

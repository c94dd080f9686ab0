//! Running simulation cells from outside: each call is timed (CPU
//! time of the calling thread), caught if
//! it panics, and (when tracing) wrapped in a `sim.run` span.

use crate::clock::thread_cpu_ns;
use crate::spans::{traced, Tracer};
use ballerino_bench::SimCell;
use ballerino_sim::SimResult;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One cell run: host CPU milliseconds and the result (`None` if it
/// panicked — the core panics when it stops making progress).
pub struct CellRun {
    /// CPU time of the call on this thread, ms.
    pub ms: f64,
    /// The simulation result, unless the cell panicked.
    pub result: Option<SimResult>,
}

/// Runs one cell under `catch_unwind`, so a stalled cell is counted as a
/// failure instead of ending the run.
pub fn run_caught(cell: &SimCell, tracer: Option<&Tracer>, parent: Option<u32>) -> CellRun {
    let c0 = thread_cpu_ns();
    let result = catch_unwind(AssertUnwindSafe(|| {
        traced(tracer, "sim.run", parent, |_| cell.run())
    }))
    .ok();
    CellRun {
        ms: (thread_cpu_ns() - c0) as f64 / 1e6,
        result,
    }
}

/// Simulated-work totals over a set of results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimTotals {
    /// Cells counted.
    pub cells: u64,
    /// μops committed.
    pub committed: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Cycles the event-horizon engine skipped instead of stepping.
    pub skipped: u64,
    /// Scheduler select inputs evaluated (energy events).
    pub select_inputs: u64,
    /// Demand memory accesses.
    pub mem_accesses: u64,
    /// Demand accesses that hit the L1.
    pub l1_hits: u64,
    /// Demand accesses served by DRAM.
    pub dram: u64,
}

impl SimTotals {
    /// Adds one result.
    pub fn add(&mut self, r: &SimResult) {
        self.cells += 1;
        self.committed += r.committed;
        self.cycles += r.cycles;
        self.skipped += r.cycles_skipped;
        self.select_inputs += r.energy.sched.select_inputs;
        self.mem_accesses += r.mem.total();
        self.l1_hits += r.mem.hits_l1;
        self.dram += r.mem.hits_mem;
    }

    /// Adds another set of totals.
    pub fn merge(&mut self, o: &SimTotals) {
        self.cells += o.cells;
        self.committed += o.committed;
        self.cycles += o.cycles;
        self.skipped += o.skipped;
        self.select_inputs += o.select_inputs;
        self.mem_accesses += o.mem_accesses;
        self.l1_hits += o.l1_hits;
        self.dram += o.dram;
    }

    /// Cycles the core stepped one by one.
    pub fn stepped(&self) -> u64 {
        self.cycles - self.skipped
    }

    /// Fraction of demand accesses that missed the L1.
    pub fn l1_miss_frac(&self) -> f64 {
        (self.mem_accesses - self.l1_hits) as f64 / self.mem_accesses.max(1) as f64
    }
}

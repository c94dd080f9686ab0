//! Pre-resolved dependence DAG over a [`Trace`].
//!
//! The per-cycle pipeline discovers register dependences incrementally at
//! rename time: each μop looks up its architectural sources in the map
//! table, which points at the youngest older producer. That discovery is
//! pure — it depends only on program order and the μop stream — so a
//! [`TraceDag`] resolves it **once per trace**: for every trace index it
//! records the producing trace index of each register source, next to
//! the opcode class that fixes the μop's functional unit and execution
//! latency. The tier-0 estimator (`ballerino-analytic`) and the static
//! trace features replay it in one pass without re-deriving dependences,
//! and harnesses memoize the resolution through
//! `ballerino_workloads::TraceCache`.
//!
//! Only the forward edges are stored — 12 bytes per μop, because trace
//! caches keep one DAG resident per trace. No library path walks edges
//! from producer to consumer.
//!
//! The DAG is keyed by **trace index**, not by dynamic sequence number:
//! after a pipeline squash the same trace index is re-fetched under a new
//! seq, and the dependence structure is unchanged — so trace-index keys
//! survive squashes where seq keys would not.

use crate::op::OpClass;
use crate::ports::FuKind;
use crate::regs::NUM_ARCH_REGS;
use crate::trace::Trace;

/// Sentinel in [`DagOp::producers`] for "no producer in the trace".
pub const NO_PRODUCER: u32 = u32::MAX;

/// Pre-resolved static facts about one μop in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagOp {
    /// For each source slot, the trace index of the youngest older μop
    /// writing that architectural register, or [`NO_PRODUCER`] when the
    /// slot is unused or reads an unwritten (live-in) register.
    pub producers: [u32; 2],
    /// Opcode class.
    pub class: OpClass,
}

impl DagOp {
    /// Functional unit the class executes on (the μop's port class).
    #[inline]
    pub fn fu(&self) -> FuKind {
        FuKind::for_class(self.class)
    }

    /// Execution latency in cycles ([`OpClass::exec_latency`]).
    #[inline]
    pub fn exec_latency(&self) -> u32 {
        self.class.exec_latency()
    }
}

/// A trace pre-resolved into a dependence DAG.
///
/// # Examples
///
/// ```
/// use ballerino_isa::{ArchReg, MicroOp, Trace, TraceDag, NO_PRODUCER};
/// let mut t = Trace::new("demo");
/// t.push(MicroOp::alu(0x0, ArchReg::int(1), [None, None]));
/// t.push(MicroOp::alu(0x4, ArchReg::int(2), [Some(ArchReg::int(1)), None]));
/// let dag = TraceDag::resolve(&t);
/// assert_eq!(dag.op(1).producers, [0, NO_PRODUCER]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceDag {
    ops: Vec<DagOp>,
}

impl TraceDag {
    /// Resolves a trace into its DAG in one pass. O(n) time and memory.
    ///
    /// # Panics
    ///
    /// Panics if the trace holds `u32::MAX` or more μops, since
    /// `u32::MAX` is [`NO_PRODUCER`].
    pub fn resolve(trace: &Trace) -> TraceDag {
        let n = trace.ops.len();
        assert!(n < u32::MAX as usize, "trace too long for u32 DAG keys");
        // Youngest writer of each architectural register, by flat index.
        let mut last_writer = [NO_PRODUCER; NUM_ARCH_REGS as usize];
        let ops = trace
            .ops
            .iter()
            .enumerate()
            .map(|(idx, op)| {
                let producers = op
                    .srcs
                    .map(|src| src.map_or(NO_PRODUCER, |r| last_writer[r.flat() as usize]));
                if let Some(d) = op.dst {
                    last_writer[d.flat() as usize] = idx as u32;
                }
                DagOp {
                    producers,
                    class: op.class,
                }
            })
            .collect();
        TraceDag { ops }
    }

    /// Number of μops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the DAG is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The pre-resolved facts for trace index `idx`.
    #[inline]
    pub fn op(&self, idx: usize) -> &DagOp {
        &self.ops[idx]
    }

    /// All pre-resolved ops in trace order.
    pub fn ops(&self) -> &[DagOp] {
        &self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::MicroOp;
    use crate::regs::ArchReg;

    fn chain() -> Trace {
        let mut t = Trace::new("chain");
        t.push(MicroOp::alu(0x00, ArchReg::int(1), [None, None]));
        t.push(MicroOp::alu(
            0x04,
            ArchReg::int(2),
            [Some(ArchReg::int(1)), None],
        ));
        t.push(MicroOp::alu(
            0x40,
            ArchReg::int(1),
            [Some(ArchReg::int(1)), Some(ArchReg::int(2))],
        ));
        t.push(MicroOp::alu(
            0x44,
            ArchReg::int(3),
            [Some(ArchReg::int(1)), None],
        ));
        t
    }

    #[test]
    fn producers_track_youngest_writer() {
        let dag = TraceDag::resolve(&chain());
        assert_eq!(dag.op(0).producers, [NO_PRODUCER, NO_PRODUCER]);
        assert_eq!(dag.op(1).producers, [0, NO_PRODUCER]);
        assert_eq!(dag.op(2).producers, [0, 1]);
        // Op 2 overwrote r1, so op 3 reads op 2, not op 0.
        assert_eq!(dag.op(3).producers, [2, NO_PRODUCER]);
    }

    #[test]
    fn latency_and_fu_match_class() {
        let mut t = Trace::new("mix");
        t.push(MicroOp::compute(
            0x0,
            OpClass::FpMul,
            ArchReg::fp(0),
            [None, None],
        ));
        t.push(MicroOp::load(0x4, ArchReg::int(2), None, 0x1000));
        let dag = TraceDag::resolve(&t);
        assert_eq!(dag.op(0).exec_latency(), OpClass::FpMul.exec_latency());
        assert_eq!(dag.op(0).fu(), FuKind::FpMul);
        assert_eq!(dag.op(1).fu(), FuKind::Agu);
    }

    #[test]
    fn live_in_reads_have_no_producer() {
        let mut t = Trace::new("livein");
        t.push(MicroOp::alu(
            0x0,
            ArchReg::int(1),
            [Some(ArchReg::int(7)), None],
        ));
        let dag = TraceDag::resolve(&t);
        assert_eq!(dag.op(0).producers, [NO_PRODUCER, NO_PRODUCER]);
    }

    #[test]
    fn empty_trace_resolves() {
        let dag = TraceDag::resolve(&Trace::new("empty"));
        assert!(dag.is_empty());
    }
}

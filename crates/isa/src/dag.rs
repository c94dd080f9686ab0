//! Pre-resolved dependence/latency DAG over a [`Trace`].
//!
//! The per-cycle pipeline discovers register dependences incrementally at
//! rename time: each μop looks up its architectural sources in the map
//! table, which points at the youngest older producer. That discovery is
//! pure — it depends only on program order and the μop stream — so a
//! [`TraceDag`] resolves it **once per trace**: for every trace index it
//! records the producing trace index of each register source, the consumer
//! list (CSR layout), and the execution latency and functional-unit class.
//! The tier-0 estimator (`ballerino-analytic`) and the static trace
//! features replay it in one pass without re-deriving dependences, and
//! harnesses memoize the resolution through
//! `ballerino_workloads::TraceCache`.
//!
//! The DAG is keyed by **trace index**, not by dynamic sequence number:
//! after a pipeline squash the same trace index is re-fetched under a new
//! seq, and the dependence structure is unchanged — so trace-index keys
//! survive squashes where seq keys would not.

use crate::op::OpClass;
use crate::ports::FuKind;
use crate::regs::NUM_ARCH_REGS;
use crate::trace::Trace;

/// Pre-resolved static facts about one μop in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagOp {
    /// For each source slot, the trace index of the youngest older μop
    /// writing that architectural register, or `None` when the slot is
    /// unused or reads an unwritten (live-in) register.
    pub producers: [Option<u32>; 2],
    /// Opcode class.
    pub class: OpClass,
    /// Functional unit the class executes on (the μop's port class).
    pub fu: FuKind,
    /// Execution latency in cycles ([`OpClass::exec_latency`]).
    pub exec_latency: u32,
    /// Number of used source slots.
    pub num_srcs: u8,
    /// Whether the μop writes a destination register.
    pub has_dst: bool,
}

/// A trace pre-resolved into a dependence/latency DAG.
///
/// Producer→consumer edges are stored twice: forward as
/// [`DagOp::producers`] (two slots per op) and inverted as a CSR
/// adjacency ([`TraceDag::consumers_of`]).
///
/// # Examples
///
/// ```
/// use ballerino_isa::{ArchReg, MicroOp, Trace, TraceDag};
/// let mut t = Trace::new("demo");
/// t.push(MicroOp::alu(0x0, ArchReg::int(1), [None, None]));
/// t.push(MicroOp::alu(0x4, ArchReg::int(2), [Some(ArchReg::int(1)), None]));
/// let dag = TraceDag::resolve(&t);
/// assert_eq!(dag.op(1).producers, [Some(0), None]);
/// assert_eq!(dag.consumers_of(0), &[1]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceDag {
    ops: Vec<DagOp>,
    /// CSR row starts into `consumers`; length `ops.len() + 1`.
    consumer_start: Vec<u32>,
    /// Concatenated consumer trace indices, ascending within each row.
    consumers: Vec<u32>,
}

impl TraceDag {
    /// Resolves a trace into its DAG. O(n) time and memory.
    pub fn resolve(trace: &Trace) -> TraceDag {
        let n = trace.ops.len();
        assert!(n <= u32::MAX as usize, "trace too long for u32 DAG keys");
        let mut ops = Vec::with_capacity(n);
        // Youngest writer of each architectural register, by flat index.
        let mut last_writer = [u32::MAX; NUM_ARCH_REGS as usize];
        // Out-degree per op, counted as edges are discovered.
        let mut degree = vec![0u32; n];

        for (idx, op) in trace.ops.iter().enumerate() {
            let mut producers = [None, None];
            for (slot, src) in op.srcs.iter().enumerate() {
                if let Some(r) = src {
                    let w = last_writer[r.flat() as usize];
                    if w != u32::MAX {
                        producers[slot] = Some(w);
                        degree[w as usize] += 1;
                    }
                }
            }
            ops.push(DagOp {
                producers,
                class: op.class,
                fu: FuKind::for_class(op.class),
                exec_latency: op.class.exec_latency(),
                num_srcs: op.num_srcs() as u8,
                has_dst: op.dst.is_some(),
            });
            if let Some(d) = op.dst {
                last_writer[d.flat() as usize] = idx as u32;
            }
        }

        // CSR fill: prefix-sum row starts, then scatter consumers. A
        // second forward pass appends consumers in ascending order.
        let mut consumer_start = Vec::with_capacity(n + 1);
        let mut total = 0u32;
        consumer_start.push(0);
        for d in &degree {
            total += d;
            consumer_start.push(total);
        }
        let mut cursor: Vec<u32> = consumer_start[..n].to_vec();
        let mut consumers = vec![0u32; total as usize];
        for (idx, dop) in ops.iter().enumerate() {
            for p in dop.producers.iter().flatten() {
                let c = &mut cursor[*p as usize];
                consumers[*c as usize] = idx as u32;
                *c += 1;
            }
        }

        TraceDag {
            ops,
            consumer_start,
            consumers,
        }
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

    /// Trace indices of the μops reading `idx`'s destination before it is
    /// overwritten, in ascending trace order. A consumer appears once per
    /// source slot it reads the value through.
    #[inline]
    pub fn consumers_of(&self, idx: usize) -> &[u32] {
        let lo = self.consumer_start[idx] as usize;
        let hi = self.consumer_start[idx + 1] as usize;
        &self.consumers[lo..hi]
    }

    /// Total number of producer→consumer edges.
    pub fn num_edges(&self) -> usize {
        self.consumers.len()
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
        assert_eq!(dag.op(0).producers, [None, None]);
        assert_eq!(dag.op(1).producers, [Some(0), None]);
        assert_eq!(dag.op(2).producers, [Some(0), Some(1)]);
        // Op 2 overwrote r1, so op 3 reads op 2, not op 0.
        assert_eq!(dag.op(3).producers, [Some(2), None]);
    }

    #[test]
    fn consumers_invert_producers() {
        let dag = TraceDag::resolve(&chain());
        assert_eq!(dag.consumers_of(0), &[1, 2]);
        assert_eq!(dag.consumers_of(1), &[2]);
        assert_eq!(dag.consumers_of(2), &[3]);
        assert_eq!(dag.consumers_of(3), &[] as &[u32]);
        assert_eq!(dag.num_edges(), 4);
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
        assert_eq!(dag.op(0).exec_latency, OpClass::FpMul.exec_latency());
        assert_eq!(dag.op(0).fu, FuKind::FpMul);
        assert_eq!(dag.op(1).fu, FuKind::Agu);
        assert!(dag.op(1).has_dst);
        assert_eq!(dag.op(1).num_srcs, 0);
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
        assert_eq!(dag.op(0).producers, [None, None]);
        assert_eq!(dag.num_edges(), 0);
    }

    #[test]
    fn empty_trace_resolves() {
        let dag = TraceDag::resolve(&Trace::new("empty"));
        assert!(dag.is_empty());
        assert_eq!(dag.num_edges(), 0);
    }
}

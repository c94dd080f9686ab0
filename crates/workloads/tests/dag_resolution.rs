//! Property tests for `TraceCache` DAG pre-resolution.
//!
//! The tier-0 estimator (`ballerino-analytic`) trusts [`TraceDag`] to
//! equal what the per-cycle pipeline would discover incrementally at
//! rename time. These tests re-derive the dependence structure with an
//! **independent oracle** — a per-op backward scan over program order,
//! the textbook definition of "youngest older producer" — and check the
//! pre-resolved edges, latencies, and port classes against it, over both
//! real workload traces and fully randomized μop streams.

use ballerino_isa::rng::Rng64;
use ballerino_isa::{ArchReg, MicroOp, OpClass, Trace, TraceDag, NO_PRODUCER};
use ballerino_workloads::{workload, workload_names, TraceCache};

/// Oracle: the producer of `trace[idx]`'s source slot `slot`, found by
/// scanning backwards per op — O(n^2), structurally unlike the
/// last-writer map the resolver uses. [`NO_PRODUCER`] for an unused slot
/// or a live-in register.
fn oracle_producer(trace: &Trace, idx: usize, slot: usize) -> u32 {
    let Some(src) = trace.ops[idx].srcs[slot] else {
        return NO_PRODUCER;
    };
    (0..idx)
        .rev()
        .find(|&older| trace.ops[older].dst == Some(src))
        .map_or(NO_PRODUCER, |older| older as u32)
}

fn check_dag_matches_oracle(trace: &Trace, dag: &TraceDag) {
    assert_eq!(dag.len(), trace.len());
    for idx in 0..trace.len() {
        let op = &trace.ops[idx];
        let dop = dag.op(idx);
        for slot in 0..2 {
            let expect = oracle_producer(trace, idx, slot);
            assert_eq!(
                dop.producers[slot], expect,
                "{}: op {idx} slot {slot} producer",
                trace.name
            );
        }
        assert_eq!(dop.class, op.class);
        assert_eq!(dop.exec_latency(), op.class.exec_latency());
        assert_eq!(
            dop.fu(),
            ballerino_isa::FuKind::for_class(op.class),
            "{}: op {idx} port class",
            trace.name
        );
    }
}

/// Fully random μop stream: random classes, register slots and pcs,
/// including ops with no sources and no destination.
fn random_trace(n: usize, seed: u64) -> Trace {
    let mut rng = Rng64::new(seed);
    let mut t = Trace::new(format!("random_{seed}"));
    let mut pc = 0x1000u64;
    for _ in 0..n {
        let r = |rng: &mut Rng64| -> Option<ArchReg> {
            match rng.below(3) {
                0 => None,
                1 => Some(ArchReg::int(rng.index(32) as u16)),
                _ => Some(ArchReg::fp(rng.index(32) as u16)),
            }
        };
        let dst_int = ArchReg::int(rng.index(32) as u16);
        let op = match rng.below(6) {
            0 => MicroOp::alu(pc, dst_int, [r(&mut rng), r(&mut rng)]),
            1 => {
                let class = [
                    OpClass::IntMul,
                    OpClass::IntDiv,
                    OpClass::FpAdd,
                    OpClass::FpMul,
                    OpClass::FpDiv,
                ][rng.index(5)];
                let dst = if class.is_fp() {
                    ArchReg::fp(rng.index(32) as u16)
                } else {
                    dst_int
                };
                MicroOp::compute(pc, class, dst, [r(&mut rng), r(&mut rng)])
            }
            2 => MicroOp::load(pc, dst_int, r(&mut rng), rng.below(1 << 20)),
            3 => MicroOp::store(pc, r(&mut rng), r(&mut rng), rng.below(1 << 20)),
            4 => MicroOp::branch(pc, r(&mut rng), rng.below(2) == 0, rng.below(1 << 20)),
            _ => MicroOp::alu(pc, dst_int, [None, None]),
        };
        t.push(op);
        // Mostly sequential pcs with occasional jumps across lines.
        pc = if rng.below(8) == 0 {
            rng.below(1 << 20)
        } else {
            pc + 4
        };
    }
    t
}

#[test]
fn random_streams_match_backward_scan_oracle() {
    for seed in 0..12u64 {
        let n = 50 + (seed as usize) * 37;
        let trace = random_trace(n, 0xDA6_0000 + seed);
        let dag = TraceDag::resolve(&trace);
        check_dag_matches_oracle(&trace, &dag);
    }
}

#[test]
fn workload_traces_match_backward_scan_oracle() {
    for name in workload_names() {
        let trace = workload(name, 400, 42);
        let dag = TraceDag::resolve(&trace);
        check_dag_matches_oracle(&trace, &dag);
    }
}

#[test]
fn cached_dag_equals_direct_resolution() {
    let cache = TraceCache::new();
    let cached = cache.dag("gemm_blocked", 600, 7);
    let direct = TraceDag::resolve(&cache.get("gemm_blocked", 600, 7));
    assert_eq!(cached.ops(), direct.ops());
}

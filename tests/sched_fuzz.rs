//! Randomized fuzzing of *every* scheduler — including Ballerino and
//! FXA — through the real pipeline: random kernels must always commit
//! fully, deterministically, and within the machine's IPC bounds.
//! Kernels are generated by the in-repo deterministic [`Rng64`].

use ballerino::bench::cells::KIND_REGISTRY;
use ballerino::isa::rng::Rng64;
use ballerino::isa::OpClass;
use ballerino::sim::{run_machine, MachineKind, Width};
use ballerino::workloads::{Access, BranchBehavior, Kernel, KernelParams, StaticOp};

/// Every registry kind (the full 17-row matrix the CLI and sweeps
/// expose), so fuzzing covers every scheduler.
fn all_kinds() -> impl Iterator<Item = MachineKind> {
    KIND_REGISTRY.iter().map(|i| i.kind)
}

/// A random but well-formed static kernel over up to 6 chains.
fn arb_kernel(rng: &mut Rng64) -> Kernel {
    let n = rng.index(23) + 1;
    let body: Vec<StaticOp> = (0..n)
        .map(|_| {
            let chain = rng.index(6);
            match rng.below(8) {
                0 => StaticOp::Compute {
                    class: OpClass::IntAlu,
                    chain,
                },
                1 => StaticOp::Compute {
                    class: OpClass::FpAdd,
                    chain,
                },
                2 => StaticOp::Compute {
                    class: OpClass::IntMul,
                    chain,
                },
                3 => StaticOp::Load {
                    chain,
                    access: Access::Rand,
                },
                4 => StaticOp::Load {
                    chain,
                    access: Access::Chase,
                },
                5 => StaticOp::Store {
                    chain,
                    access: Access::Rand,
                },
                6 => StaticOp::Branch {
                    chain,
                    behavior: BranchBehavior::Biased { taken_prob: 0.8 },
                },
                _ => StaticOp::Reset { chain },
            }
        })
        .collect();
    let seed = rng.below(999) + 1;
    Kernel::new(
        KernelParams {
            name: format!("fuzz-{seed}"),
            ws_bytes: 256 << 10,
            chains: 6,
            seed,
        },
        body,
    )
}

// Each case runs all 17 registry machines; keep the count modest.
#[test]
fn every_scheduler_commits_every_random_kernel() {
    for case in 0..24u64 {
        let mut rng = Rng64::new(0xF0_0001 + case);
        let kernel = arb_kernel(&mut rng);
        let t = kernel.generate(1200);
        for kind in all_kinds() {
            let r = run_machine(kind, Width::Eight, &t);
            assert_eq!(r.committed, t.len() as u64, "{:?} on {}", kind, t.name);
            assert!(r.ipc() > 0.0 && r.ipc() <= 8.0);
            // Conservation: every commit was issued at least once.
            assert!(r.issue_breakdown.total() >= r.committed);
        }
    }
}

#[test]
fn random_kernels_are_deterministic_across_reruns() {
    for case in 0..8u64 {
        let mut rng = Rng64::new(0xF0_0002 + case);
        let kernel = arb_kernel(&mut rng);
        let t = kernel.generate(800);
        let a = run_machine(MachineKind::Ballerino, Width::Eight, &t);
        let b = run_machine(MachineKind::Ballerino, Width::Eight, &t);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.violations, b.violations);
    }
}

#[test]
fn spill_heavy_kernels_never_wedge_the_mdp() {
    // Store→load pairs on every chain: maximal M-dependence pressure.
    for seed in 1u64..40 {
        let mut body = Vec::new();
        for c in 0..4usize {
            body.push(StaticOp::Reset { chain: c });
            body.push(StaticOp::SpillStore { chain: c, slot: c });
            body.push(StaticOp::Compute {
                class: OpClass::IntAlu,
                chain: c,
            });
            body.push(StaticOp::SpillLoad { chain: c, slot: c });
        }
        let k = Kernel::new(
            KernelParams {
                name: "spill-fuzz".into(),
                ws_bytes: 4096,
                chains: 4,
                seed,
            },
            body,
        );
        let t = k.generate(1000);
        for kind in [
            MachineKind::OutOfOrder,
            MachineKind::Ballerino,
            MachineKind::CesMda,
        ] {
            let r = run_machine(kind, Width::Eight, &t);
            assert_eq!(r.committed, t.len() as u64);
        }
    }
}

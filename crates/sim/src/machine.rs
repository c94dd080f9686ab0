//! Machine factory: Table II scheduling-window configurations per design
//! and width, plus the one-call [`run_machine`] helper the benches use.

use crate::config::{CoreConfig, Width};
use crate::core::Core;
use crate::stats::SimResult;
use ballerino_core::{Ballerino, BallerinoConfig};
use ballerino_energy::StructureSizes;
use ballerino_isa::Trace;
use ballerino_sched::{
    Casino, CasinoConfig, Dnb, DnbConfig, Fxa, FxaConfig, InOrderIq, InOrderIqConfig, Lsc,
    LscConfig, OooIq, OooIqConfig, Scheduler, SelectPolicy,
};

/// Which microarchitecture to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineKind {
    /// Stall-on-use in-order core (`InO`).
    InOrder,
    /// Baseline out-of-order core (`OoO`).
    OutOfOrder,
    /// OoO with oldest-first select (Fig. 11 rightmost bars).
    OutOfOrderOldestFirst,
    /// OoO without memory dependence prediction (§III-B's 1.5× claim).
    OutOfOrderNoMdp,
    /// Complexity-effective superscalar \[3\]: Ballerino's P-IQ cluster
    /// with no S-IQ, steered at dispatch.
    Ces,
    /// CES + M-dependence-aware steering (Fig. 13).
    CesMda,
    /// CASINO cascaded in-order windows \[2\].
    Casino,
    /// Front-end execution architecture \[1\].
    Fxa,
    /// Fig. 13 Step 1: S-IQ + P-IQs, no MDA, no sharing.
    BallerinoStep1,
    /// Fig. 13 Step 2: Step 1 + MDA steering.
    BallerinoStep2,
    /// Ballerino (Step 3): 1 S-IQ + 7 P-IQs at 8-wide.
    Ballerino,
    /// Step 3 without implementation constraints (ideal).
    BallerinoIdeal,
    /// Ballerino-12: 1 S-IQ + 11 P-IQs.
    Ballerino12,
    /// Ballerino with a custom P-IQ count (Figs. 6b, 17c).
    BallerinoN(usize),
    /// Load Slice Core (extension baseline from §VII related work).
    LoadSliceCore,
    /// Delay-and-Bypass (extension baseline from §VII related work).
    DelayAndBypass,
    /// Load-delay-tracking issue queue (Diavastos & Carlson, see
    /// PAPERS.md): delay-sorted select from a per-register predicted
    /// ready-cycle table.
    Ldt,
    /// Ballerino with tracked load delays replacing store-set (MDA)
    /// steering for S-IQ→P-IQ placement.
    BallerinoLdt,
}

impl MachineKind {
    /// All headline designs of Fig. 11, in display order.
    pub const FIG11: [MachineKind; 9] = [
        MachineKind::Ces,
        MachineKind::Casino,
        MachineKind::Fxa,
        MachineKind::Ballerino,
        MachineKind::Ballerino12,
        MachineKind::Ldt,
        MachineKind::BallerinoLdt,
        MachineKind::OutOfOrder,
        MachineKind::OutOfOrderOldestFirst,
    ];

    /// Short display label.
    pub fn label(self) -> String {
        match self {
            MachineKind::InOrder => "InO".into(),
            MachineKind::OutOfOrder => "OoO".into(),
            MachineKind::OutOfOrderOldestFirst => "OoO+of".into(),
            MachineKind::OutOfOrderNoMdp => "OoO-noMDP".into(),
            MachineKind::Ces => "CES".into(),
            MachineKind::CesMda => "CES+MDA".into(),
            MachineKind::Casino => "CASINO".into(),
            MachineKind::Fxa => "FXA".into(),
            MachineKind::BallerinoStep1 => "Step1".into(),
            MachineKind::BallerinoStep2 => "Step2".into(),
            MachineKind::Ballerino => "Ballerino".into(),
            MachineKind::BallerinoIdeal => "Ballerino-ideal".into(),
            MachineKind::Ballerino12 => "Ballerino-12".into(),
            MachineKind::BallerinoN(n) => format!("Ballerino-{}", n + 1),
            MachineKind::LoadSliceCore => "LSC".into(),
            MachineKind::DelayAndBypass => "DNB".into(),
            MachineKind::Ldt => "LDT".into(),
            MachineKind::BallerinoLdt => "Ballerino-LDT".into(),
        }
    }
}

/// One point of the design space: a machine kind and width plus the
/// sweepable deviations from their Table I/II presets.
///
/// A `DesignPoint` with no overrides builds exactly the same machine as
/// [`build_scheduler`]; sweeps enumerate thousands of these and feed
/// them to both the tier-0 analytic estimator and (for promoted points)
/// the cycle-accurate [`run_point`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignPoint {
    /// Which microarchitecture.
    pub kind: MachineKind,
    /// Machine width preset.
    pub width: Width,
    /// Total scheduling-window entry budget, or `None` for the width's
    /// Table II default. Kinds with composite windows (CES, CASINO,
    /// Ballerino, …) scale their internal queues proportionally; see
    /// [`build_scheduler_point`].
    pub iq_entries: Option<usize>,
    /// DRAM timing scale in percent (100 = the DDR4-lite default;
    /// 50 = twice-as-fast memory, 200 = twice-as-slow). Scales `cas`,
    /// `rcd`, `rp` and `burst` with a floor of one cycle.
    pub dram_scale_pct: u32,
}

impl DesignPoint {
    /// The preset design point for a kind at a width (no overrides).
    pub fn new(kind: MachineKind, width: Width) -> Self {
        DesignPoint {
            kind,
            width,
            iq_entries: None,
            dram_scale_pct: 100,
        }
    }

    /// Compact display label, e.g. `Ballerino/8w/iq96/dram100`.
    pub fn label(&self) -> String {
        let w = match self.width {
            Width::Two => 2,
            Width::Four => 4,
            Width::Eight => 8,
            Width::Ten => 10,
        };
        let iq = self
            .iq_entries
            .map(|e| e.to_string())
            .unwrap_or_else(|| "dflt".into());
        format!(
            "{}/{}w/iq{}/dram{}",
            self.kind.label(),
            w,
            iq,
            self.dram_scale_pct
        )
    }
}

fn iq_entries(width: Width) -> usize {
    match width {
        Width::Two => 32,
        Width::Four => 64,
        Width::Eight | Width::Ten => 96,
    }
}

/// Splits a total window budget `t` across `parts` equal queues, with a
/// floor so tiny budgets still build a working scheduler.
fn split_budget(t: usize, parts: usize, floor: usize) -> usize {
    (t / parts.max(1)).max(floor)
}

fn ces_piqs(width: Width) -> (usize, usize) {
    match width {
        Width::Two => (2, 16),
        Width::Four => (4, 16),
        Width::Eight => (8, 12),
        Width::Ten => (10, 12),
    }
}

fn ballerino_cfg(width: Width, total_phys: usize) -> BallerinoConfig {
    let mut c = match width {
        Width::Two => BallerinoConfig::two_wide(),
        Width::Four => BallerinoConfig::four_wide(),
        Width::Eight => BallerinoConfig::eight_wide(),
        Width::Ten => BallerinoConfig {
            num_piqs: 9,
            ..BallerinoConfig::eight_wide()
        },
    };
    c.num_phys_regs = total_phys;
    c
}

/// Builds the core configuration, scheduler and energy structure sizes
/// for a machine kind at a width.
pub fn build_scheduler(
    kind: MachineKind,
    width: Width,
) -> (CoreConfig, Box<dyn Scheduler>, StructureSizes) {
    build_scheduler_point(&DesignPoint::new(kind, width))
}

/// Builds the core configuration, scheduler and energy structure sizes
/// for an arbitrary [`DesignPoint`].
///
/// The `iq_entries` budget maps onto each kind's window structure:
/// monolithic queues (InO, OoO) take it directly; CASINO scales every
/// cascade stage proportionally; FXA gives half to its OoO backend; LSC
/// and DNB split it across their queues; Ballerino and CES divide the
/// budget net of the S-IQ (CES has none) across their P-IQs. All
/// mappings are monotone in the budget and floor-clamped so any budget
/// ≥ 16 builds a working machine.
pub fn build_scheduler_point(
    point: &DesignPoint,
) -> (CoreConfig, Box<dyn Scheduler>, StructureSizes) {
    let (kind, width) = (point.kind, point.width);
    let mut cfg = match kind {
        MachineKind::InOrder => CoreConfig::preset_inorder(width),
        _ => CoreConfig::preset(width),
    };
    if kind == MachineKind::OutOfOrderNoMdp {
        cfg.use_mdp = false;
    }
    // Dev knob for throughput A/Bs of the event-horizon engine itself;
    // results are identical either way (see tests/skip_equivalence.rs).
    if ballerino_isa::env_flag("BALLERINO_NO_SKIP") {
        cfg.skip_idle = false;
    }
    if point.dram_scale_pct != 100 {
        let scale = |x: u64| ((x * point.dram_scale_pct as u64) / 100).max(1);
        cfg.mem.dram.cas = scale(cfg.mem.dram.cas);
        cfg.mem.dram.rcd = scale(cfg.mem.dram.rcd);
        cfg.mem.dram.rp = scale(cfg.mem.dram.rp);
        cfg.mem.dram.burst = scale(cfg.mem.dram.burst);
    }
    let phys = cfg.total_phys();
    let entries = point.iq_entries.unwrap_or_else(|| iq_entries(width));
    let common_sizes = StructureSizes {
        rob_entries: cfg.rob_entries,
        lsq_entries: cfg.lq_entries + cfg.sq_entries,
        prf_entries: phys,
        has_mdp: cfg.use_mdp,
        ..StructureSizes::default()
    };

    let (sched, sizes): (Box<dyn Scheduler>, StructureSizes) = match kind {
        MachineKind::InOrder => (
            Box::new(InOrderIq::new(InOrderIqConfig {
                entries,
                read_ports: cfg.issue_width,
            })),
            StructureSizes {
                cam_entries: 0,
                fifo_entries: entries,
                has_steer: false,
                ..common_sizes
            },
        ),
        MachineKind::OutOfOrder
        | MachineKind::OutOfOrderNoMdp
        | MachineKind::OutOfOrderOldestFirst
        | MachineKind::Ldt => (
            Box::new(OooIq::new(OooIqConfig {
                entries,
                policy: match kind {
                    MachineKind::OutOfOrderOldestFirst => SelectPolicy::OldestFirst,
                    MachineKind::Ldt => SelectPolicy::PredictedReady {
                        num_phys_regs: phys,
                    },
                    _ => SelectPolicy::LowestSlot,
                },
            })),
            StructureSizes {
                cam_entries: entries,
                fifo_entries: 0,
                ..common_sizes
            },
        ),
        MachineKind::Casino => {
            let mut c = match width {
                Width::Two => CasinoConfig::two_wide(),
                Width::Four => CasinoConfig::four_wide(),
                Width::Eight | Width::Ten => CasinoConfig::eight_wide(),
            };
            if let Some(t) = point.iq_entries {
                // Scale every cascade stage proportionally to the budget.
                let total = c.total_entries().max(1);
                for s in &mut c.siqs {
                    s.entries = (s.entries * t / total).max(4);
                }
                c.final_iq.entries = (c.final_iq.entries * t / total).max(4);
            }
            let fifo = c.total_entries();
            (
                Box::new(Casino::new(c)),
                StructureSizes {
                    cam_entries: 0,
                    fifo_entries: fifo,
                    has_steer: false,
                    ..common_sizes
                },
            )
        }
        MachineKind::Fxa => {
            let mut c = match width {
                Width::Two => FxaConfig {
                    ixu_width: 2,
                    backend_entries: 16,
                    backend_width: 2,
                    ..FxaConfig::default()
                },
                Width::Four => FxaConfig {
                    backend_entries: 32,
                    backend_width: 4,
                    ..FxaConfig::default()
                },
                Width::Eight => FxaConfig::default(),
                Width::Ten => FxaConfig {
                    backend_width: 5,
                    ..FxaConfig::default()
                },
            };
            if let Some(t) = point.iq_entries {
                // The IXU front is pipelined latches, not an IQ — the
                // budget lands entirely on the OoO backend.
                c.backend_entries = t.max(8);
            }
            let cam = c.backend_entries;
            (
                Box::new(Fxa::new(c)),
                StructureSizes {
                    cam_entries: cam,
                    fifo_entries: 12, // IXU pipeline latches
                    ..common_sizes
                },
            )
        }
        MachineKind::LoadSliceCore => {
            let mut c = match width {
                Width::Two => LscConfig {
                    bypass_entries: 12,
                    main_entries: 20,
                    ports_per_queue: 2,
                    ..LscConfig::default()
                },
                Width::Four => LscConfig {
                    bypass_entries: 24,
                    main_entries: 40,
                    ports_per_queue: 3,
                    ..LscConfig::default()
                },
                _ => LscConfig::default(),
            };
            if let Some(t) = point.iq_entries {
                // Keep the paper's ~1:2 bypass:main split.
                c.bypass_entries = (t / 3).max(6);
                c.main_entries = t.saturating_sub(t / 3).max(8);
            }
            let fifo = c.bypass_entries + c.main_entries;
            (
                Box::new(Lsc::new(c)),
                StructureSizes {
                    cam_entries: 0,
                    fifo_entries: fifo,
                    has_steer: true, // the IST plays the steering role
                    ..common_sizes
                },
            )
        }
        MachineKind::DelayAndBypass => {
            let mut c = match width {
                Width::Two => DnbConfig {
                    ooo_entries: 12,
                    bypass_entries: 10,
                    delay_entries: 10,
                    inorder_ports: 2,
                    ..DnbConfig::default()
                },
                Width::Four => DnbConfig {
                    ooo_entries: 24,
                    bypass_entries: 20,
                    delay_entries: 20,
                    inorder_ports: 3,
                    ..DnbConfig::default()
                },
                _ => DnbConfig::default(),
            };
            if let Some(t) = point.iq_entries {
                // Even three-way split across the OoO/bypass/delay queues.
                c.ooo_entries = (t / 3).max(6);
                c.bypass_entries = (t / 3).max(5);
                c.delay_entries = t.saturating_sub(2 * (t / 3)).max(5);
            }
            let (cam, fifo) = (c.ooo_entries, c.bypass_entries + c.delay_entries);
            (
                Box::new(Dnb::new(c)),
                StructureSizes {
                    cam_entries: cam,
                    fifo_entries: fifo,
                    ..common_sizes
                },
            )
        }
        MachineKind::Ces
        | MachineKind::CesMda
        | MachineKind::BallerinoStep1
        | MachineKind::BallerinoStep2
        | MachineKind::Ballerino
        | MachineKind::BallerinoIdeal
        | MachineKind::Ballerino12
        | MachineKind::BallerinoLdt
        | MachineKind::BallerinoN(_) => {
            let mut c = ballerino_cfg(width, phys);
            match kind {
                MachineKind::Ces | MachineKind::CesMda => {
                    let (n, e) = ces_piqs(width);
                    c = BallerinoConfig {
                        num_piqs: n,
                        piq_entries: e,
                        mda_steering: kind == MachineKind::CesMda,
                        num_phys_regs: phys,
                        ..BallerinoConfig::ces()
                    };
                }
                MachineKind::BallerinoStep1 => {
                    c.mda_steering = false;
                    c.piq_sharing = false;
                }
                MachineKind::BallerinoStep2 => c.piq_sharing = false,
                MachineKind::BallerinoIdeal => c.ideal_sharing = true,
                MachineKind::Ballerino12 => c.num_piqs = 11,
                MachineKind::BallerinoLdt => {
                    c.mda_steering = false;
                    c.ldt_steering = true;
                }
                MachineKind::BallerinoN(n) => c.num_piqs = n,
                _ => {}
            }
            if let Some(t) = point.iq_entries {
                // The S-IQ keeps its preset size; the budget net of it
                // divides across the P-IQs. Ballerino's split rounds down
                // to the even capacity the two-partition P-IQ requires;
                // CES keeps it as is.
                let e = split_budget(t.saturating_sub(c.siq_entries), c.num_piqs, 4);
                c.piq_entries = if c.siq_entries == 0 { e } else { e & !1 };
            }
            let fifo = c.siq_entries + c.num_piqs * c.piq_entries;
            (
                Box::new(Ballerino::new(c)),
                StructureSizes {
                    cam_entries: 0,
                    fifo_entries: fifo,
                    has_steer: true,
                    ..common_sizes
                },
            )
        }
    };
    (cfg, sched, sizes)
}

/// Builds and runs one machine over a trace.
pub fn run_machine(kind: MachineKind, width: Width, trace: &Trace) -> SimResult {
    let (cfg, sched, sizes) = build_scheduler(kind, width);
    Core::new(cfg, sched, sizes).run(trace)
}

/// Builds and runs one [`DesignPoint`] over a trace. This is the sweep
/// engine's cycle-accurate tier: every enumerated configuration —
/// including IQ-budget and DRAM-latency overrides — funnels through
/// here.
pub fn run_point(point: &DesignPoint, trace: &Trace) -> SimResult {
    let (cfg, sched, sizes) = build_scheduler_point(point);
    Core::new(cfg, sched, sizes).run(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_at_every_width() {
        let kinds = [
            MachineKind::InOrder,
            MachineKind::OutOfOrder,
            MachineKind::OutOfOrderOldestFirst,
            MachineKind::OutOfOrderNoMdp,
            MachineKind::Ces,
            MachineKind::CesMda,
            MachineKind::Casino,
            MachineKind::Fxa,
            MachineKind::BallerinoStep1,
            MachineKind::BallerinoStep2,
            MachineKind::Ballerino,
            MachineKind::BallerinoIdeal,
            MachineKind::Ballerino12,
            MachineKind::BallerinoN(5),
            MachineKind::LoadSliceCore,
            MachineKind::DelayAndBypass,
            MachineKind::Ldt,
            MachineKind::BallerinoLdt,
        ];
        for kind in kinds {
            for width in [Width::Two, Width::Four, Width::Eight, Width::Ten] {
                let (cfg, sched, sizes) = build_scheduler(kind, width);
                assert!(sched.capacity() > 0, "{kind:?} {width:?}");
                assert!(cfg.issue_width >= 2);
                assert!(sizes.prf_entries > 64);
            }
        }
    }

    #[test]
    fn window_sizes_match_table_ii_at_8_wide() {
        let (_, ooo, _) = build_scheduler(MachineKind::OutOfOrder, Width::Eight);
        assert_eq!(ooo.capacity(), 96);
        let (_, ces, _) = build_scheduler(MachineKind::Ces, Width::Eight);
        assert_eq!(ces.capacity(), 8 * 12);
        let (_, casino, _) = build_scheduler(MachineKind::Casino, Width::Eight);
        assert_eq!(casino.capacity(), 8 + 40 + 40 + 8);
        let (_, b, _) = build_scheduler(MachineKind::Ballerino, Width::Eight);
        assert_eq!(b.capacity(), 8 + 7 * 12);
        let (_, b12, _) = build_scheduler(MachineKind::Ballerino12, Width::Eight);
        assert_eq!(b12.capacity(), 8 + 11 * 12);
        let (_, fxa, _) = build_scheduler(MachineKind::Fxa, Width::Eight);
        assert_eq!(fxa.capacity(), 48);
    }

    #[test]
    fn ino_preset_is_used_for_inorder() {
        let (cfg, _, sizes) = build_scheduler(MachineKind::InOrder, Width::Eight);
        assert!(!cfg.use_mdp);
        assert_eq!(cfg.recovery_penalty, 8);
        assert!(!sizes.has_mdp);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = MachineKind::FIG11.iter().map(|k| k.label()).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }

    #[test]
    fn default_design_point_matches_build_scheduler() {
        for kind in [
            MachineKind::OutOfOrder,
            MachineKind::Ces,
            MachineKind::Casino,
            MachineKind::Fxa,
            MachineKind::Ballerino,
            MachineKind::LoadSliceCore,
            MachineKind::DelayAndBypass,
            MachineKind::Ldt,
            MachineKind::BallerinoLdt,
        ] {
            for width in [Width::Two, Width::Four, Width::Eight] {
                let (cfg_a, sched_a, sizes_a) = build_scheduler(kind, width);
                let (cfg_b, sched_b, sizes_b) =
                    build_scheduler_point(&DesignPoint::new(kind, width));
                assert_eq!(sched_a.capacity(), sched_b.capacity(), "{kind:?} {width:?}");
                assert_eq!(cfg_a.mem.dram.cas, cfg_b.mem.dram.cas);
                assert_eq!(sizes_a.cam_entries, sizes_b.cam_entries);
                assert_eq!(sizes_a.fifo_entries, sizes_b.fifo_entries);
            }
        }
    }

    #[test]
    fn iq_budget_override_scales_capacity_monotonically() {
        for kind in [
            MachineKind::OutOfOrder,
            MachineKind::Ces,
            MachineKind::Casino,
            MachineKind::Fxa,
            MachineKind::Ballerino,
            MachineKind::LoadSliceCore,
            MachineKind::DelayAndBypass,
            MachineKind::Ldt,
            MachineKind::BallerinoLdt,
        ] {
            let mut prev = 0;
            for budget in [24, 48, 96, 160, 256] {
                let point = DesignPoint {
                    iq_entries: Some(budget),
                    ..DesignPoint::new(kind, Width::Eight)
                };
                let (_, sched, _) = build_scheduler_point(&point);
                assert!(
                    sched.capacity() >= prev,
                    "{kind:?}: capacity must not shrink as the IQ budget grows"
                );
                prev = sched.capacity();
            }
            assert!(prev > 0);
        }
    }

    #[test]
    fn dram_scale_stretches_latencies() {
        let slow = DesignPoint {
            dram_scale_pct: 300,
            ..DesignPoint::new(MachineKind::OutOfOrder, Width::Eight)
        };
        let (cfg_base, _, _) = build_scheduler(MachineKind::OutOfOrder, Width::Eight);
        let (cfg_slow, _, _) = build_scheduler_point(&slow);
        assert_eq!(cfg_slow.mem.dram.cas, cfg_base.mem.dram.cas * 3);
        assert_eq!(cfg_slow.mem.dram.burst, cfg_base.mem.dram.burst * 3);
    }

    #[test]
    fn design_point_labels_encode_overrides() {
        let p = DesignPoint {
            iq_entries: Some(96),
            dram_scale_pct: 150,
            ..DesignPoint::new(MachineKind::Ballerino, Width::Eight)
        };
        assert_eq!(p.label(), "Ballerino/8w/iq96/dram150");
    }
}

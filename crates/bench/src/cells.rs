//! The shared cell-enumeration layer: one grid enumerator and one
//! simulation-cell type for every harness that fans a design space out
//! over workloads.
//!
//! Before this module, `SweepSpec::points()`, the figure harnesses and
//! the campaign service each re-derived "kinds × widths × IQ budgets ×
//! DRAM grades, then × workloads" with their own loops — with their own
//! ideas about axis order and about degenerate axes (the windowless
//! `InOrder` kind has no IQ knob, so a naive cross product enumerates
//! identical silicon several times). Everything now funnels through
//! [`grid_points`] and [`enumerate_cells`]:
//!
//! * `ballerino_bench::run_cells` (the kind × workload matrix of
//!   `tier0_calibrate` and the determinism tests),
//! * the tiered sweep engine (`SweepSpec::points`, `simulate_points`),
//! * [`crate::figures`], which fans every figure's design points out
//!   over the suite and deduplicates the union by [`SimCell::key`],
//! * the `ballerino-serve` campaign service, which additionally keys
//!   sharding, dedup and its checkpoint journal off [`SimCell::key`] /
//!   [`SimCell::stable_hash`].
//!
//! A [`SimCell`] is the unit of independent work: one design point
//! evaluated on one `(workload, n, seed)` trace. Its canonical string
//! key is unique per distinct cell and stable across processes, so a
//! 64-bit FNV-1a hash of it partitions a campaign deterministically
//! across shards — the invariant `tests/determinism.rs` and the serve
//! crate's tests pin.

use ballerino_core::MAX_PIQS;
use ballerino_sim::{run_point, DesignPoint, MachineKind, SimResult, Width};
use ballerino_workloads::cached_workload;

/// One row of the machine-kind registry: every per-kind registration
/// fact the harness tiers need, in one place.
///
/// Before this table, adding a `MachineKind` meant hand-editing the
/// figures' row lists, `SweepSpec::full()`, `tier0_calibrate`'s base
/// kinds and the CLI name parser — and a forgotten layer surfaced as a
/// silently missing table row months later. Now each tier derives its
/// kind list from the registry ([`fig11_kinds`], [`fig12_kinds`],
/// [`fig15_kinds`], [`sweep_kinds`], [`calib_kinds`]) and tests
/// cross-check the registry against `MachineKind::FIG11`,
/// [`kind_from_name`] and `ballerino_analytic::CALIBRATION`, so the
/// next forgotten layer is a test failure, not a reviewer's catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindInfo {
    /// The machine kind this row registers.
    pub kind: MachineKind,
    /// Canonical CLI/campaign-spec name ([`kind_from_name`] parses it).
    pub name: &'static str,
    /// Enumerated by the full design-space sweep (`SweepSpec::full`).
    pub in_full_sweep: bool,
    /// Carries its own `ballerino_analytic::CALIBRATION` entry (variants
    /// that fold onto a base kind via `calib_for` leave this unset).
    pub calib_base: bool,
    /// Appears as a Fig. 11 speedup row.
    pub fig11: bool,
    /// Appears as a Fig. 12 decode-to-issue breakdown row.
    pub fig12: bool,
    /// Appears as a Fig. 15 energy-by-component row.
    pub fig15: bool,
}

/// The machine-kind registry, in figure display order (the Fig. 11 bar
/// order first, then the remaining kinds). `BallerinoN` is absent by
/// design: it is parametric, so it has no single registry row — the CLI
/// parses it via the `b<N>` fallback and sensitivity figures enumerate it
/// explicitly.
pub const KIND_REGISTRY: &[KindInfo] = &[
    KindInfo {
        kind: MachineKind::Ces,
        name: "ces",
        in_full_sweep: true,
        calib_base: true,
        fig11: true,
        fig12: true,
        fig15: true,
    },
    KindInfo {
        kind: MachineKind::Casino,
        name: "casino",
        in_full_sweep: true,
        calib_base: true,
        fig11: true,
        fig12: true,
        fig15: true,
    },
    KindInfo {
        kind: MachineKind::Fxa,
        name: "fxa",
        in_full_sweep: true,
        calib_base: true,
        fig11: true,
        fig12: false,
        fig15: true,
    },
    KindInfo {
        kind: MachineKind::Ballerino,
        name: "ballerino",
        in_full_sweep: true,
        calib_base: true,
        fig11: true,
        fig12: true,
        fig15: true,
    },
    KindInfo {
        kind: MachineKind::Ballerino12,
        name: "ballerino12",
        in_full_sweep: true,
        calib_base: false,
        fig11: true,
        fig12: true,
        fig15: true,
    },
    KindInfo {
        kind: MachineKind::Ldt,
        name: "ldt",
        in_full_sweep: true,
        calib_base: true,
        fig11: true,
        fig12: true,
        fig15: true,
    },
    KindInfo {
        kind: MachineKind::BallerinoLdt,
        name: "ballerino-ldt",
        in_full_sweep: true,
        calib_base: true,
        fig11: true,
        fig12: true,
        fig15: true,
    },
    KindInfo {
        kind: MachineKind::OutOfOrder,
        name: "ooo",
        in_full_sweep: true,
        calib_base: true,
        fig11: true,
        fig12: true,
        fig15: true,
    },
    KindInfo {
        kind: MachineKind::OutOfOrderOldestFirst,
        name: "ooo-of",
        in_full_sweep: false,
        calib_base: false,
        fig11: true,
        fig12: false,
        fig15: false,
    },
    KindInfo {
        kind: MachineKind::InOrder,
        name: "ino",
        in_full_sweep: true,
        calib_base: true,
        fig11: false,
        fig12: false,
        fig15: false,
    },
    KindInfo {
        kind: MachineKind::OutOfOrderNoMdp,
        name: "ooo-nomdp",
        in_full_sweep: false,
        calib_base: false,
        fig11: false,
        fig12: false,
        fig15: false,
    },
    KindInfo {
        kind: MachineKind::CesMda,
        name: "ces-mda",
        in_full_sweep: false,
        calib_base: false,
        fig11: false,
        fig12: false,
        fig15: false,
    },
    KindInfo {
        kind: MachineKind::BallerinoStep1,
        name: "step1",
        in_full_sweep: false,
        calib_base: false,
        fig11: false,
        fig12: false,
        fig15: false,
    },
    KindInfo {
        kind: MachineKind::BallerinoStep2,
        name: "step2",
        in_full_sweep: false,
        calib_base: false,
        fig11: false,
        fig12: false,
        fig15: false,
    },
    KindInfo {
        kind: MachineKind::BallerinoIdeal,
        name: "ideal",
        in_full_sweep: false,
        calib_base: false,
        fig11: false,
        fig12: false,
        fig15: false,
    },
    KindInfo {
        kind: MachineKind::LoadSliceCore,
        name: "lsc",
        in_full_sweep: true,
        calib_base: true,
        fig11: false,
        fig12: false,
        fig15: false,
    },
    KindInfo {
        kind: MachineKind::DelayAndBypass,
        name: "dnb",
        in_full_sweep: true,
        calib_base: true,
        fig11: false,
        fig12: false,
        fig15: false,
    },
];

fn registry_kinds(select: impl Fn(&KindInfo) -> bool) -> Vec<MachineKind> {
    KIND_REGISTRY
        .iter()
        .filter(|i| select(i))
        .map(|i| i.kind)
        .collect()
}

/// The Fig. 11 speedup rows, registry display order (a test pins this
/// equal to `MachineKind::FIG11`).
pub fn fig11_kinds() -> Vec<MachineKind> {
    registry_kinds(|i| i.fig11)
}

/// The Fig. 12 decode-to-issue breakdown rows, registry display order.
pub fn fig12_kinds() -> Vec<MachineKind> {
    registry_kinds(|i| i.fig12)
}

/// The Fig. 15 energy rows, registry display order.
pub fn fig15_kinds() -> Vec<MachineKind> {
    registry_kinds(|i| i.fig15)
}

/// The kinds `SweepSpec::full()` enumerates, registry display order.
pub fn sweep_kinds() -> Vec<MachineKind> {
    registry_kinds(|i| i.in_full_sweep)
}

/// The kinds `tier0_calibrate` fits — every kind that owns a
/// `ballerino_analytic::CALIBRATION` entry, registry display order.
pub fn calib_kinds() -> Vec<MachineKind> {
    registry_kinds(|i| i.calib_base)
}

/// One independent unit of simulation work: a [`DesignPoint`] evaluated
/// on one `(workload, n, seed)` trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimCell {
    /// The design point to build and run.
    pub point: DesignPoint,
    /// Workload name (a `ballerino_workloads` suite name).
    pub workload: &'static str,
    /// μops in the workload trace.
    pub n: usize,
    /// Workload generator seed.
    pub seed: u64,
}

impl SimCell {
    /// The canonical cell key, e.g.
    /// `OoO/8w/iqdflt/dram100/int_crunch/n12000/s42`. Distinct cells
    /// have distinct keys; the key is stable across processes and
    /// releases, so journals and shard assignments survive restarts.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/n{}/s{}",
            self.point.label(),
            self.workload,
            self.n,
            self.seed
        )
    }

    /// Stable 64-bit FNV-1a hash of [`SimCell::key`]. This — not
    /// `std::hash` — is what sharding and dedup key off: `DefaultHasher`
    /// is allowed to change between Rust releases, while a campaign's
    /// shard assignment must not.
    pub fn stable_hash(&self) -> u64 {
        fnv1a(self.key().as_bytes())
    }

    /// Runs the cell on the cycle-accurate tier: trace from the
    /// process-wide cache, simulation via [`ballerino_sim::run_point`].
    pub fn run(&self) -> SimResult {
        let trace = cached_workload(self.workload, self.n, self.seed);
        run_point(&self.point, &trace)
    }
}

/// 64-bit FNV-1a over a byte string. Deliberately boring: the point is
/// a process- and release-stable hash for shard partitioning, not
/// collision resistance against an adversary.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The single grid enumerator: `kinds × widths × iq_budgets ×
/// dram_scales`, kind-major (then width, IQ, DRAM — the innermost axis
/// varies fastest). Kinds without a scheduling window (`InOrder`)
/// ignore `iq_entries`, so the IQ axis is enumerated once for them — a
/// naive cross product would emit identical design points that differ
/// only in a dead knob.
pub fn grid_points(
    kinds: &[MachineKind],
    widths: &[Width],
    iq_budgets: &[Option<usize>],
    dram_scales: &[u32],
) -> Vec<DesignPoint> {
    let mut v = Vec::new();
    for &kind in kinds {
        let iqs: &[Option<usize>] = if kind == MachineKind::InOrder {
            &[None]
        } else {
            iq_budgets
        };
        for &width in widths {
            for &iq in iqs {
                for &dram in dram_scales {
                    v.push(DesignPoint {
                        iq_entries: iq,
                        dram_scale_pct: dram,
                        ..DesignPoint::new(kind, width)
                    });
                }
            }
        }
    }
    v
}

/// Fans `points` out over `workloads`: point-major, so the cells of one
/// design point are contiguous (`simulate_points` and the campaign
/// service both rely on chunking by `workloads.len()`).
pub fn enumerate_cells(
    points: &[DesignPoint],
    workloads: &[&'static str],
    n: usize,
    seed: u64,
) -> Vec<SimCell> {
    points
        .iter()
        .flat_map(|&point| {
            workloads.iter().map(move |&workload| SimCell {
                point,
                workload,
                n,
                seed,
            })
        })
        .collect()
}

/// Parses a machine-kind name as used by the `simulate` CLI and
/// campaign specs. Accepts every [`KIND_REGISTRY`] row's canonical name
/// (`ino | ooo | ooo-of | ooo-nomdp | ces | ces-mda | casino | fxa |
/// step1 | step2 | ballerino | ideal | ballerino12 | ldt |
/// ballerino-ldt | lsc | dnb`), every [`MachineKind::label`] display
/// label (`OoO`, `Ballerino-12`, `LDT`, …), and the parametric
/// `b<N>` / `Ballerino-<N+1>` forms for [`MachineKind::BallerinoN`] —
/// so every enumerable kind's label round-trips (a test pins this).
/// The parametric forms accept at most [`MAX_PIQS`] P-IQs, the widest
/// cluster the scheduler builds; wider ones are unknown names, not a
/// panic at build time.
pub fn kind_from_name(s: &str) -> Option<MachineKind> {
    if let Some(i) = KIND_REGISTRY.iter().find(|i| i.name == s) {
        return Some(i.kind);
    }
    // Registry labels take precedence over the parametric `Ballerino-N`
    // form, so `Ballerino-12` parses as the named Ballerino12 kind (the
    // same machine as BallerinoN(11), enumerated under its own name).
    if let Some(i) = KIND_REGISTRY.iter().find(|i| i.kind.label() == s) {
        return Some(i.kind);
    }
    if let Some(rest) = s.strip_prefix("Ballerino-") {
        // `BallerinoN(n)` displays as `Ballerino-{n+1}` (one S-IQ plus
        // n P-IQs).
        if let Ok(n) = rest.parse::<usize>() {
            if (1..=MAX_PIQS + 1).contains(&n) {
                return Some(MachineKind::BallerinoN(n - 1));
            }
        }
    }
    let n: usize = s.strip_prefix('b')?.parse().ok()?;
    (n <= MAX_PIQS).then_some(MachineKind::BallerinoN(n))
}

/// Parses a machine width: `2 | 4 | 8 | 10`.
pub fn width_from_str(s: &str) -> Option<Width> {
    Some(match s {
        "2" => Width::Two,
        "4" => Width::Four,
        "8" => Width::Eight,
        "10" => Width::Ten,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_kind_major_and_collapses_inorder_iq_axis() {
        let points = grid_points(
            &[MachineKind::InOrder, MachineKind::OutOfOrder],
            &[Width::Two, Width::Eight],
            &[Some(32), Some(96)],
            &[100, 200],
        );
        // InOrder: 2 widths × 1 (collapsed) × 2 dram = 4;
        // OoO: 2 × 2 × 2 = 8.
        assert_eq!(points.len(), 12);
        assert!(points[..4]
            .iter()
            .all(|p| p.kind == MachineKind::InOrder && p.iq_entries.is_none()));
        assert!(points[4..]
            .iter()
            .all(|p| p.kind == MachineKind::OutOfOrder));
        // Innermost axis (DRAM) varies fastest.
        assert_eq!(points[0].dram_scale_pct, 100);
        assert_eq!(points[1].dram_scale_pct, 200);
    }

    #[test]
    fn cells_are_point_major() {
        let points = grid_points(&[MachineKind::OutOfOrder], &[Width::Eight], &[None], &[100]);
        let cells = enumerate_cells(&points, &["int_crunch", "hash_join"], 1000, 42);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].workload, "int_crunch");
        assert_eq!(cells[1].workload, "hash_join");
        assert_eq!(cells[0].point, cells[1].point);
    }

    #[test]
    fn keys_are_distinct_and_stable() {
        let points = grid_points(
            &[MachineKind::OutOfOrder, MachineKind::Ballerino],
            &[Width::Eight],
            &[None, Some(32)],
            &[100, 200],
        );
        let cells = enumerate_cells(&points, &["int_crunch", "hash_join"], 1000, 42);
        let mut keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len(), "keys must be unique per cell");
        // Pin one key's exact shape: journals and shard assignments
        // depend on it never changing.
        let cell = SimCell {
            point: DesignPoint::new(MachineKind::OutOfOrder, Width::Eight),
            workload: "int_crunch",
            n: 12_000,
            seed: 42,
        };
        assert_eq!(cell.key(), "OoO/8w/iqdflt/dram100/int_crunch/n12000/s42");
        // Every Ballerino-family override and the prefetcher switch is in
        // the key, so deduplicating by key never merges two different
        // machines.
        let base = SimCell {
            point: DesignPoint::new(MachineKind::BallerinoStep2, Width::Eight),
            ..cell
        };
        let overridden = [
            DesignPoint {
                piqs: Some(5),
                ..base.point
            },
            DesignPoint {
                spec_horizon: Some(2),
                ..base.point
            },
            DesignPoint {
                siq_entries: Some(16),
                ..base.point
            },
            DesignPoint {
                siq_window: Some(8),
                ..base.point
            },
            DesignPoint {
                no_prefetch: true,
                ..base.point
            },
        ];
        let mut keys: Vec<String> = overridden
            .iter()
            .map(|&point| SimCell { point, ..base }.key())
            .collect();
        keys.push(base.key());
        keys.sort();
        keys.dedup();
        assert_eq!(
            keys.len(),
            overridden.len() + 1,
            "each override needs its own key"
        );
        let fig06b = DesignPoint {
            iq_entries: Some(68),
            piqs: Some(5),
            ..base.point
        };
        assert_eq!(
            SimCell {
                point: fig06b,
                ..base
            }
            .key(),
            "Step2/8w/iq68/dram100/piq5/int_crunch/n12000/s42"
        );
    }

    #[test]
    fn fnv1a_is_the_reference_function() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn kind_names_round_trip_the_simulate_cli_set() {
        for (name, kind) in [
            ("ino", MachineKind::InOrder),
            ("ooo", MachineKind::OutOfOrder),
            ("ces", MachineKind::Ces),
            ("casino", MachineKind::Casino),
            ("fxa", MachineKind::Fxa),
            ("ballerino", MachineKind::Ballerino),
            ("ballerino12", MachineKind::Ballerino12),
            ("ldt", MachineKind::Ldt),
            ("ballerino-ldt", MachineKind::BallerinoLdt),
            ("lsc", MachineKind::LoadSliceCore),
            ("dnb", MachineKind::DelayAndBypass),
            ("b5", MachineKind::BallerinoN(5)),
        ] {
            assert_eq!(kind_from_name(name), Some(kind));
        }
        assert_eq!(kind_from_name("nope"), None);
        // Parametric clusters wider than the scheduler builds are unknown.
        assert_eq!(kind_from_name("b64"), Some(MachineKind::BallerinoN(64)));
        assert_eq!(kind_from_name("b65"), None);
        assert_eq!(
            kind_from_name("Ballerino-65"),
            Some(MachineKind::BallerinoN(64))
        );
        assert_eq!(kind_from_name("Ballerino-66"), None);
        assert_eq!(width_from_str("8"), Some(Width::Eight));
        assert_eq!(width_from_str("3"), None);
    }

    #[test]
    fn registry_names_and_labels_invert_for_every_enumerable_kind() {
        // Canonical names and display labels both parse back to the
        // registered kind, so a new kind cannot silently miss the
        // campaign/sweep grid: forgetting its registry row fails the
        // registry tests, and the registry row *is* the name mapping.
        for info in KIND_REGISTRY {
            assert_eq!(
                kind_from_name(info.name),
                Some(info.kind),
                "name {:?} must parse to {:?}",
                info.name,
                info.kind
            );
            assert_eq!(
                kind_from_name(&info.kind.label()),
                Some(info.kind),
                "label {:?} must round-trip",
                info.kind.label()
            );
        }
        // The parametric family round-trips through its display label
        // (except BallerinoN(11), whose label is owned by the named
        // Ballerino12 registry row — the same machine).
        for n in [2, 4, 5, 9, 20] {
            let kind = MachineKind::BallerinoN(n);
            assert_eq!(kind_from_name(&kind.label()), Some(kind));
        }
        assert_eq!(
            kind_from_name(&MachineKind::BallerinoN(11).label()),
            Some(MachineKind::Ballerino12)
        );
    }

    #[test]
    fn registry_is_complete_and_unambiguous() {
        // Every non-parametric MachineKind has exactly one registry row
        // (FIG11 kinds are a subset; the build test in ballerino-sim
        // enumerates the full variant list, which this mirrors).
        let all = [
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
            MachineKind::LoadSliceCore,
            MachineKind::DelayAndBypass,
            MachineKind::Ldt,
            MachineKind::BallerinoLdt,
        ];
        assert_eq!(KIND_REGISTRY.len(), all.len());
        for kind in all {
            assert_eq!(
                KIND_REGISTRY.iter().filter(|i| i.kind == kind).count(),
                1,
                "{kind:?} must have exactly one registry row"
            );
        }
        let mut names: Vec<&str> = KIND_REGISTRY.iter().map(|i| i.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KIND_REGISTRY.len(), "names must be unique");
    }

    #[test]
    fn registry_fig11_filter_matches_machine_kind_fig11() {
        assert_eq!(fig11_kinds(), MachineKind::FIG11.to_vec());
    }

    #[test]
    fn every_sweep_kind_has_a_calibration_entry() {
        // The tier-0 triage is only sound for kinds the committed
        // CALIBRATION covers (directly or by variant folding); a grid
        // kind without one would silently triage on default constants.
        for kind in sweep_kinds() {
            assert!(
                ballerino_analytic::has_calibration(kind),
                "{kind:?} is enumerated by SweepSpec::full() but has no \
                 CALIBRATION entry — run tier0_calibrate and commit it"
            );
        }
        // And every registered calibration base actually owns an entry.
        for kind in calib_kinds() {
            assert!(
                ballerino_analytic::has_calibration(kind),
                "{kind:?} is flagged calib_base but CALIBRATION lacks it"
            );
        }
    }
}

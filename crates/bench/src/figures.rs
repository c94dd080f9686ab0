//! Every table and figure of the evaluation, plus the ablations and
//! extension baselines, as one declared cell set.
//!
//! Each [`Figure`] declares the design points it reads, each run over
//! the whole suite, and renders its text from the simulated [`Runs`].
//! The `figures` binary simulates each distinct [`SimCell::key`] of the
//! union once on the [`run_pool`] and writes `results/<name>.txt`, each
//! starting with [`header`]. Figures share most cells (Figs. 12, 15 and
//! 16 read only Fig. 11's), and all use one protocol:
//! [`crate::suite_len`] μops per workload and [`crate::seed`].

use crate::cells::{enumerate_cells, fig11_kinds, fig12_kinds, fig15_kinds, fnv1a, SimCell};
use crate::{print_header, print_row, run_pool, workload_cols};
use ballerino_analytic::{predict_cycles, MachineParams};
use ballerino_core::BallerinoConfig;
use ballerino_energy::{DvfsLevel, EnergyModel, COMPONENTS};
use ballerino_sim::stats::{geomean, TimingClass, TIMING_CLASSES};
use ballerino_sim::{build_scheduler, CoreConfig, DesignPoint, MachineKind, SimResult, Width};
use ballerino_workloads::{cached_dag, cached_features, workload_names};
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};
use MachineKind::*;

/// One results file: the design points it reads and its renderer.
pub struct Figure {
    /// File stem: the figure is written to `results/<name>.txt`.
    pub name: &'static str,
    /// The design points this figure reads, each run on every workload.
    pub points: fn() -> Vec<DesignPoint>,
    /// Renders the figure, without the [`header`], from its points' runs.
    pub render: fn(&Runs, &mut String) -> fmt::Result,
}

type Render = fn(&Runs, &mut String) -> fmt::Result;

const fn fig(name: &'static str, points: fn() -> Vec<DesignPoint>, render: Render) -> Figure {
    Figure {
        name,
        points,
        render,
    }
}

/// Every results file, in the order the `figures` binary writes them.
pub const FIGURES: &[Figure] = &[
    fig("tables", Vec::new, tables),
    fig("fig03_sched_breakdown", || eight_wide(&FIG03), fig03),
    fig("fig04_ces_steering", || eight_wide(&[InOrder, Ces]), fig04),
    fig("fig06_bottlenecks", fig06_points, fig06),
    fig("fig11_performance", || with_ino(&fig11_kinds()), fig11),
    fig("fig12_sched_perf", || eight_wide(&fig12_kinds()), fig12),
    fig("fig13_steps", || with_ino(&FIG13), fig13),
    fig("fig14_issue_breakdown", || eight_wide(&FIG14), fig14),
    fig("fig15_energy", || eight_wide(&fig15_kinds()), fig15),
    fig("fig16_efficiency", || eight_wide(&FIG16), fig16),
    fig("fig17_sensitivity", fig17_points, fig17),
    fig("ablations", ablation_points, ablations),
    fig("extensions", || with_ino(&EXTENSIONS), extensions),
];

/// The first line of every results file: the protocol and the FNV-1a of
/// the all-kinds result golden, so a golden re-bless without a
/// regeneration fails the `results_stamped` test.
pub fn header(n: usize, seed: u64) -> String {
    let golden = fnv1a(include_bytes!("../golden/all_kinds.txt"));
    format!("# figures: n={n} seed={seed} golden={golden:016x}\n")
}

/// The union of `figs`' cells deduplicated by [`SimCell::key`] in
/// first-declared order, and the count declared before the dedup.
pub fn distinct_cells(figs: &[Figure], n: usize, seed: u64) -> (usize, Vec<SimCell>) {
    let names = workload_names();
    let declared: Vec<SimCell> = figs
        .iter()
        .flat_map(|f| enumerate_cells(&(f.points)(), &names, n, seed))
        .collect();
    let mut seen = HashSet::new();
    let distinct = declared
        .iter()
        .filter(|c| seen.insert(c.key()))
        .copied()
        .collect();
    (declared.len(), distinct)
}

/// Simulated results by [`SimCell::key`] for one `(n, seed)` protocol.
pub struct Runs {
    n: usize,
    seed: u64,
    results: HashMap<String, SimResult>,
}

impl Runs {
    /// Simulates each of `cells` once on `threads` work-stealing workers.
    pub fn simulate(n: usize, seed: u64, cells: &[SimCell], threads: usize) -> Runs {
        let results = run_pool(cells, threads, SimCell::run);
        let results = cells.iter().map(SimCell::key).zip(results).collect();
        Runs { n, seed, results }
    }

    /// `point`'s results on the suite's workloads, in suite order.
    ///
    /// # Panics
    ///
    /// If a cell was not simulated: its figure did not declare `point`.
    pub fn suite(&self, point: DesignPoint) -> Vec<&SimResult> {
        let (n, seed) = (self.n, self.seed);
        workload_names()
            .into_iter()
            .map(|workload| {
                let key = SimCell {
                    point,
                    workload,
                    n,
                    seed,
                }
                .key();
                self.results
                    .get(&key)
                    .unwrap_or_else(|| panic!("cell {key} was not declared"))
            })
            .collect()
    }

    /// The suite runs of `kind`'s 8-wide preset.
    fn preset(&self, kind: MachineKind) -> Vec<&SimResult> {
        self.suite(DesignPoint::new(kind, Width::Eight))
    }
}

fn eight_wide(kinds: &[MachineKind]) -> Vec<DesignPoint> {
    kinds
        .iter()
        .map(|&k| DesignPoint::new(k, Width::Eight))
        .collect()
}

/// `kinds` plus the InO baseline of the speedup tables, 8-wide presets.
fn with_ino(kinds: &[MachineKind]) -> Vec<DesignPoint> {
    eight_wide(&[&[InOrder], kinds].concat())
}

fn geomean_ipc(runs: &[&SimResult]) -> f64 {
    geomean(&runs.iter().map(|r| r.ipc()).collect::<Vec<_>>())
}

/// Each of five parts' share of their sum, averaged over `runs`.
fn mean_shares(runs: &[&SimResult], parts: impl Fn(&SimResult) -> [u64; 5]) -> [f64; 5] {
    let mut agg = [0.0f64; 5];
    for r in runs {
        let p = parts(r);
        let tot = p.iter().sum::<u64>().max(1) as f64;
        for (a, v) in agg.iter_mut().zip(p) {
            *a += v as f64 / tot;
        }
    }
    agg.map(|a| a / runs.len() as f64)
}

/// Suite-summed energy of `runs` at a DVFS level.
fn suite_energy(runs: &[&SimResult], level: DvfsLevel) -> f64 {
    runs.iter()
        .map(|r| {
            EnergyModel::new(r.sizes, level)
                .breakdown(&r.energy)
                .total()
        })
        .sum()
}

/// The 8-wide speedup-over-InO table of Figs. 11 and 13 and the
/// extensions: per workload, then the geomean. Returns the geomeans.
fn speedup_table(r: &Runs, o: &mut String, kinds: &[MachineKind]) -> Result<Vec<f64>, fmt::Error> {
    let base = r.preset(InOrder);
    print_header(o, &workload_cols(), 9)?;
    let mut geomeans = Vec::new();
    for &kind in kinds {
        let mut sp: Vec<f64> = r
            .preset(kind)
            .iter()
            .zip(&base)
            .map(|(r, b)| r.speedup_over(b))
            .collect();
        sp.push(geomean(&sp));
        print_row(o, &kind.label(), &sp, 9, 2)?;
        geomeans.push(sp[sp.len() - 1]);
    }
    Ok(geomeans)
}

/// The decode-to-issue breakdown of Figs. 3c and 12: suite-wide cycles
/// per μop of each timing class, optionally with an all-class row.
fn breakdown(r: &Runs, o: &mut String, kinds: &[MachineKind], w: usize, all: bool) -> fmt::Result {
    let (d2d, d2r, r2i) = ("decode→dispatch", "dispatch→ready", "ready→issue");
    writeln!(
        o,
        "{:<w$} {:<5} {d2d:>14} {d2r:>15} {r2i:>13}",
        "design", "class"
    )?;
    for &kind in kinds {
        let runs = r.preset(kind);
        // μop-weighted averages, summed run-major.
        let avg = |classes: &[TimingClass]| {
            let (mut s, mut n) = ([0.0; 3], 0u64);
            for r in &runs {
                for &class in classes {
                    let c = r.timing.count(class);
                    let (a, b, d) = r.timing.avg(class);
                    for (s, v) in s.iter_mut().zip([a, b, d]) {
                        *s += v * c as f64;
                    }
                    n += c;
                }
            }
            s.map(|s| s / n.max(1) as f64)
        };
        let mut rows: Vec<_> = TIMING_CLASSES
            .iter()
            .map(|&c| (c.label(), avg(&[c])))
            .collect();
        if all {
            rows.push(("All", avg(&TIMING_CLASSES)));
        }
        for (class, [a, b, d]) in rows {
            let label = kind.label();
            writeln!(o, "{label:<w$} {class:<5} {a:>14.1} {b:>15.1} {d:>13.1}")?;
        }
        writeln!(o)?;
    }
    Ok(())
}

const TABLE2: [MachineKind; 7] = [
    InOrder,
    OutOfOrder,
    Ces,
    Casino,
    Fxa,
    Ballerino,
    Ballerino12,
];

/// Tables I and II: the simulated machine configurations.
fn tables(_: &Runs, o: &mut String) -> fmt::Result {
    writeln!(
        o,
        "=== Table I: Core and Memory System Configurations ===\n"
    )?;
    for width in [Width::Eight, Width::Four, Width::Two] {
        let c = CoreConfig::preset(width);
        writeln!(
            o,
            "{:?}-wide @ {} GHz: front {}, issue {}, ROB {}, LQ {}, SQ {}, \
             PRF {}int/{}fp, recovery {} cy, ports {}",
            width,
            c.freq_ghz,
            c.front_width,
            c.issue_width,
            c.rob_entries,
            c.lq_entries,
            c.sq_entries,
            c.int_regs,
            c.fp_regs,
            c.recovery_penalty,
            c.port_map.num_ports(),
        )?;
        let i = CoreConfig::preset_inorder(width);
        writeln!(
            o,
            "  InO variant: scoreboard {}, SQ {}, recovery {} cy, MDP {}",
            i.rob_entries, i.sq_entries, i.recovery_penalty, i.use_mdp
        )?;
    }
    let m = CoreConfig::preset(Width::Eight).mem;
    writeln!(
        o,
        "\nMemory: L1 {}KiB/{}w/{}cy/{}MSHR, L2 {}KiB/{}w/{}cy/{}MSHR, \
         L3 {}KiB/{}w/{}cy/{}MSHR, stride prefetch x{}",
        m.l1d.size_bytes / 1024,
        m.l1d.ways,
        m.l1d.latency,
        m.l1d.mshrs,
        m.l2.size_bytes / 1024,
        m.l2.ways,
        m.l2.latency,
        m.l2.mshrs,
        m.l3.size_bytes / 1024,
        m.l3.ways,
        m.l3.latency,
        m.l3.mshrs,
        m.prefetch_degree,
    )?;
    writeln!(
        o,
        "DRAM: {} banks, {} B rows, CAS/RCD/RP {}/{}/{} cy, burst {} cy",
        m.dram.banks, m.dram.row_bytes, m.dram.cas, m.dram.rcd, m.dram.rp, m.dram.burst
    )?;

    writeln!(
        o,
        "\n=== Table II: Scheduling Window Configurations (8-wide) ===\n"
    )?;
    for kind in TABLE2 {
        let (_, sched, sizes) = build_scheduler(kind, Width::Eight);
        writeln!(
            o,
            "{:<14} window {:>3} entries ({})  [cam {}, fifo {}]",
            kind.label(),
            sched.capacity(),
            sched.name(),
            sizes.cam_entries,
            sizes.fifo_entries,
        )?;
    }
    Ok(())
}

const FIG03: [MachineKind; 4] = [InOrder, Ces, Casino, OutOfOrder];

/// Fig. 3c: decode-to-issue delays on InO, CES, CASINO and OoO.
fn fig03(r: &Runs, o: &mut String) -> fmt::Result {
    writeln!(
        o,
        "Fig. 3c — decode-to-issue breakdown (avg cycles/μop, suite-wide)"
    )?;
    writeln!(o, "n = {} μops per workload\n", r.n)?;
    breakdown(r, o, &FIG03, 10, true)
}

/// Fig. 4: CES-8 steering outcomes, workloads sorted by `[Stall] Ready`.
fn fig04(r: &Runs, o: &mut String) -> fmt::Result {
    writeln!(
        o,
        "Fig. 4 — CES-8 steering outcome breakdown (fractions of steer events)"
    )?;
    writeln!(
        o,
        "n = {} μops per workload, sorted by [Stall] Ready\n",
        r.n
    )?;

    let (ino, ces) = (r.preset(InOrder), r.preset(Ces));
    let mut rows: Vec<_> = workload_names()
        .into_iter()
        .zip(ino.iter().zip(&ces))
        .map(|(wl, (ino, ces))| {
            let s = ces.steer;
            let total = s.total().max(1) as f64;
            let parts = [
                s.steer_dc,
                s.alloc_ready,
                s.alloc_nonready,
                s.stall_ready,
                s.stall_nonready,
            ];
            (wl, parts.map(|v| v as f64 / total), ces.speedup_over(ino))
        })
        .collect();
    rows.sort_by(|a, b| a.1[3].partial_cmp(&b.1[3]).unwrap());

    writeln!(
        o,
        "{:<18}{:>9}{:>9}{:>10}{:>9}{:>10}{:>9}",
        "workload", "steerDC", "allocRdy", "allocNRdy", "stallRdy", "stallNRdy", "speedup"
    )?;
    let mut agg = [0.0f64; 5];
    for (wl, shares, sp) in &rows {
        let [dc, ar, an, sr, sn] = shares;
        writeln!(
            o,
            "{wl:<18}{dc:>9.2}{ar:>9.2}{an:>10.2}{sr:>9.2}{sn:>10.2}{sp:>9.2}"
        )?;
        for (a, v) in agg.iter_mut().zip(shares) {
            *a += *v;
        }
    }
    let [dc, ar, an, sr, sn] = agg.map(|a| a / rows.len() as f64);
    writeln!(
        o,
        "{:<18}{dc:>9.2}{ar:>9.2}{an:>10.2}{sr:>9.2}{sn:>10.2}",
        "MEAN"
    )?;
    let alloc = agg[1] + agg[2];
    let stall = agg[3] + agg[4];
    if alloc > 0.0 && stall > 0.0 {
        writeln!(
            o,
            "\nready-at-dispatch share: {:.0}% of allocations, {:.0}% of stalls \
             (paper: 72% / 79%)",
            100.0 * agg[1] / alloc,
            100.0 * agg[3] / stall
        )?;
    }
    Ok(())
}

const FIG06B_PIQS: [u8; 6] = [3, 5, 7, 9, 11, 15];
const FIG06B_SIZES: [u8; 5] = [6, 8, 12, 16, 24];

/// Step 2 with `piqs` P-IQs of `size` entries: a window budget of the
/// preset S-IQ plus the P-IQs.
fn fig06b_point(piqs: u8, size: u8) -> DesignPoint {
    let siq = BallerinoConfig::eight_wide().siq_entries;
    DesignPoint {
        piqs: Some(piqs),
        iq_entries: Some(siq + usize::from(piqs) * usize::from(size)),
        ..DesignPoint::new(BallerinoStep2, Width::Eight)
    }
}

fn fig06_points() -> Vec<DesignPoint> {
    let mut v = eight_wide(&[BallerinoStep1, BallerinoStep2]);
    for p in FIG06B_PIQS {
        v.extend(FIG06B_SIZES.map(|s| fig06b_point(p, s)));
    }
    v
}

/// Fig. 6: P-IQ head states of Steps 1 and 2 (6a), and Step 2's IPC
/// against P-IQ count × size (6b).
fn fig06(r: &Runs, o: &mut String) -> fmt::Result {
    writeln!(
        o,
        "Fig. 6a — P-IQ head states per cycle (fractions, suite mean)\n"
    )?;
    for kind in [BallerinoStep1, BallerinoStep2] {
        let [i, m, g, p, e] = mean_shares(&r.preset(kind), |r| {
            let h = r.heads;
            [
                h.issuing,
                h.stall_mdep_load,
                h.stall_nonready,
                h.stall_port_conflict,
                h.empty,
            ]
        });
        let label = kind.label();
        writeln!(
            o,
            "{label:<8} issuing {i:.3}  stall-Mdep {m:.3}  stall-regs {g:.3}  \
             port-conflict {p:.3}  empty {e:.3}"
        )?;
    }

    writeln!(
        o,
        "\nFig. 6b — Step 2 IPC sensitivity to P-IQ count × size (geomean IPC)\n"
    )?;
    write!(o, "{:<10}", "piqs\\size")?;
    for s in FIG06B_SIZES {
        write!(o, "{s:>8}")?;
    }
    writeln!(o)?;
    for p in FIG06B_PIQS {
        write!(o, "{p:<10}")?;
        for s in FIG06B_SIZES {
            write!(o, "{:>8.3}", geomean_ipc(&r.suite(fig06b_point(p, s))))?;
        }
        writeln!(o)?;
    }
    Ok(())
}

/// Fig. 11: every 8-wide design's speedup over InO.
fn fig11(r: &Runs, o: &mut String) -> fmt::Result {
    writeln!(
        o,
        "Fig. 11 — speedup over InO, 8-wide (n = {} μops/workload)\n",
        r.n
    )?;
    speedup_table(r, o, &fig11_kinds())?;
    writeln!(
        o,
        "\npaper geomeans: CES 2.4, CASINO 2.1, FXA 2.8, Ballerino 2.7, \
         Ballerino-12 2.8, OoO 2.86, OoO+of +2%"
    )
}

/// Fig. 12: Ballerino's decode-to-issue delays against CES and CASINO.
fn fig12(r: &Runs, o: &mut String) -> fmt::Result {
    writeln!(
        o,
        "Fig. 12 — decode-to-issue breakdown (avg cycles/μop, suite-wide)\n"
    )?;
    writeln!(o, "n = {} μops per workload\n", r.n)?;
    breakdown(r, o, &fig12_kinds(), 12, false)
}

const FIG13: [MachineKind; 7] = [
    Ces,
    CesMda,
    BallerinoStep1,
    BallerinoStep2,
    Ballerino,
    BallerinoIdeal,
    OutOfOrder,
];

/// Fig. 13: the techniques applied step by step on top of CES.
fn fig13(r: &Runs, o: &mut String) -> fmt::Result {
    writeln!(
        o,
        "Fig. 13 — step-by-step gains over InO (n = {} μops/workload)\n",
        r.n
    )?;
    let geomeans = speedup_table(r, o, &FIG13)?;
    writeln!(
        o,
        "\nstep deltas (percentage points of InO-relative speedup):"
    )?;
    for (k, g) in FIG13.windows(2).zip(geomeans.windows(2)) {
        let (from, to) = (k[0].label(), k[1].label());
        writeln!(o, "  {from} → {to}: {:+.0} pts", 100.0 * (g[1] - g[0]))?;
    }
    writeln!(
        o,
        "paper: CES→+MDA +4, →Step1 +7, →Step2 +5, →Step3 +13, →ideal +5"
    )
}

const FIG14: [MachineKind; 8] = [
    Ces,
    CesMda,
    BallerinoStep1,
    BallerinoStep2,
    Ballerino,
    Ballerino12,
    Casino,
    Fxa,
];

/// Fig. 14: the fraction of μops issued from each structure.
fn fig14(r: &Runs, o: &mut String) -> fmt::Result {
    writeln!(
        o,
        "Fig. 14 — issue-source breakdown (fraction of all issues)\n"
    )?;
    let cols = ["design", "S-IQ", "P-IQ", "in-order", "OoO-IQ", "IXU"];
    let [d, s, p, i, q, x] = cols;
    writeln!(o, "{d:<14}{s:>8}{p:>8}{i:>10}{q:>8}{x:>8}")?;
    for kind in FIG14 {
        let [s, p, i, q, x] = mean_shares(&r.preset(kind), |r| {
            let b = r.issue_breakdown;
            [
                b.from_siq,
                b.from_piq,
                b.from_inorder,
                b.from_ooo,
                b.from_ixu,
            ]
        });
        let label = kind.label();
        writeln!(o, "{label:<14}{s:>8.3}{p:>8.3}{i:>10.3}{q:>8.3}{x:>8.3}")?;
    }
    writeln!(o, "\npaper: Step 1 S-IQ issues ≈41% of μops")
}

/// Fig. 15: core-wide energy by component, normalized to OoO.
fn fig15(r: &Runs, o: &mut String) -> fmt::Result {
    writeln!(
        o,
        "Fig. 15 — energy by component, normalized to OoO total (suite sum)\n"
    )?;
    let ooo_total = suite_energy(&r.preset(OutOfOrder), DvfsLevel::L4);

    write!(o, "{:<14}", "design")?;
    for c in COMPONENTS {
        write!(o, "{:>10}", c.label().split_whitespace().next().unwrap())?;
    }
    writeln!(o, "{:>10}", "TOTAL")?;

    for kind in fig15_kinds() {
        let mut per_comp = [0.0f64; 9];
        for r in r.preset(kind) {
            let b = EnergyModel::new(r.sizes, DvfsLevel::L4).breakdown(&r.energy);
            for (i, (_, v)) in b.iter().enumerate() {
                per_comp[i] += v;
            }
        }
        write!(o, "{:<14}", kind.label())?;
        let mut total = 0.0;
        for v in per_comp {
            write!(o, "{:>10.3}", v / ooo_total)?;
            total += v;
        }
        writeln!(o, "{:>10.3}", total / ooo_total)?;
    }
    writeln!(
        o,
        "\npaper totals vs OoO: CES lowest, Ballerino ≈ CES, Ballerino-12 ≈ 0.81"
    )
}

/// Fig. 16's rows; OoO, the baseline, is last.
const FIG16: [MachineKind; 6] = [Ces, Casino, Fxa, Ballerino, Ballerino12, OutOfOrder];

/// Fig. 16: energy efficiency (1/EDP) normalized to the 8-wide OoO.
fn fig16(r: &Runs, o: &mut String) -> fmt::Result {
    writeln!(o, "Fig. 16 — energy efficiency (1/EDP) normalized to OoO\n")?;
    let edp_ooo: Vec<f64> = r
        .preset(OutOfOrder)
        .iter()
        .map(|r| EnergyModel::new(r.sizes, DvfsLevel::L4).edp(&r.energy))
        .collect();
    for kind in FIG16 {
        let eff: Vec<f64> = r
            .preset(kind)
            .iter()
            .zip(&edp_ooo)
            .map(|(r, base)| base / EnergyModel::new(r.sizes, DvfsLevel::L4).edp(&r.energy))
            .collect();
        writeln!(o, "{:<14}{:>8.3}", kind.label(), geomean(&eff))?;
    }
    writeln!(
        o,
        "\npaper: Ballerino 1.22, Ballerino-12 1.20, CES ≈1.12, CASINO ≈0.86, FXA ≈1.16"
    )
}

const FIG17A_KINDS: [MachineKind; 6] = [InOrder, Casino, Ces, Ballerino, Fxa, OutOfOrder];
const FIG17A_WIDTHS: [Width; 4] = [Width::Two, Width::Four, Width::Eight, Width::Ten];
const FIG17C_PIQS: [usize; 7] = [3, 5, 7, 9, 11, 13, 15];

fn fig17_points() -> Vec<DesignPoint> {
    let mut v: Vec<DesignPoint> = FIG17A_KINDS
        .iter()
        .flat_map(|&k| FIG17A_WIDTHS.map(|w| DesignPoint::new(k, w)))
        .collect();
    v.extend(eight_wide(&[Ces, Ballerino, OutOfOrder]));
    v.extend(eight_wide(&FIG17C_PIQS.map(BallerinoN)));
    v
}

/// Fig. 17: width scaling against 2-wide InO with the tier-0 estimate
/// beside each simulated cell (17a), DVFS levels of Ballerino and OoO
/// against CES at L4 (17b), and Ballerino IPC by P-IQ count (17c).
fn fig17(r: &Runs, o: &mut String) -> fmt::Result {
    writeln!(
        o,
        "Fig. 17a — width scaling: geomean speedup over 2-wide InO"
    )?;
    writeln!(
        o,
        "(sim = cycle-accurate, est = tier-0 analytic, err = mean cycle error)\n"
    )?;
    let base = r.suite(DesignPoint::new(InOrder, Width::Two));
    write!(o, "{:<12}", "design")?;
    for w in ["2-wide", "4-wide", "8-wide", "10-wide"] {
        write!(o, "{w:>24}")?;
    }
    write!(o, "\n{:<12}", "")?;
    for _ in FIG17A_WIDTHS {
        write!(o, "{:>10}{:>8}{:>6}", "sim", "est", "err")?;
    }
    writeln!(o)?;
    for kind in FIG17A_KINDS {
        write!(o, "{:<12}", kind.label())?;
        for width in FIG17A_WIDTHS {
            let point = DesignPoint::new(kind, width);
            let params = MachineParams::from_point(&point);
            let (mut sp, mut sp_est, mut err) = (vec![], vec![], 0.0);
            for ((wl, run), b) in workload_names().into_iter().zip(r.suite(point)).zip(&base) {
                let dag = cached_dag(wl, r.n, r.seed);
                let feat = cached_features(wl, r.n, r.seed);
                let est = predict_cycles(&params, &dag, &feat, wl).cycles as f64;
                sp.push(run.speedup_over(b));
                // Time, as `speedup_over` compares: the estimate runs at
                // the point's clock, the baseline at its own.
                sp_est.push(b.seconds() / (est / (params.freq_ghz * 1e9)));
                err += 100.0 * (est - run.cycles as f64).abs() / run.cycles as f64;
            }
            let (sim, est, err) = (geomean(&sp), geomean(&sp_est), err / sp.len() as f64);
            write!(o, "{sim:>10.2}{est:>8.2}{err:>5.0}%")?;
        }
        writeln!(o)?;
    }

    writeln!(
        o,
        "\nFig. 17b — DVFS levels (suite sums, relative to CES @ L4)\n"
    )?;
    let ces = r.preset(Ces);
    let ces_time: f64 = ces.iter().map(|r| r.seconds()).sum();
    let ces_energy = suite_energy(&ces, DvfsLevel::L4);
    let cols = ["design", "lvl", "speedup", "power", "energy", "efficiency"];
    let [d, l, s, p, e, f] = cols;
    writeln!(o, "{d:<12}{l:<5}{s:>10}{p:>10}{e:>10}{f:>12}")?;
    for kind in [Ballerino, OutOfOrder] {
        let runs = r.preset(kind);
        for level in DvfsLevel::ALL {
            let time: f64 = runs.iter().map(|r| level.seconds(r.cycles)).sum();
            let speedup = ces_time / time;
            let rel_e = suite_energy(&runs, level) / ces_energy;
            let power = rel_e / (time / ces_time);
            let (label, lvl, eff) = (kind.label(), level.name, speedup / rel_e);
            writeln!(
                o,
                "{label:<12}{lvl:<5}{speedup:>10.2}{power:>10.2}{rel_e:>10.2}{eff:>12.2}"
            )?;
        }
    }
    writeln!(
        o,
        "\npaper: Ballerino@L3 within CES power, +5% perf, +9% eff; OoO@L1 −27% eff"
    )?;

    writeln!(
        o,
        "\nFig. 17c — Ballerino geomean IPC vs number of P-IQs (8-wide)\n"
    )?;
    writeln!(o, "{:<8}{:>10}{:>12}", "P-IQs", "IPC", "vs OoO")?;
    let ooo_ipc = geomean_ipc(&r.preset(OutOfOrder));
    for piqs in FIG17C_PIQS {
        let ipc = geomean_ipc(&r.preset(BallerinoN(piqs)));
        writeln!(o, "{piqs:<8}{ipc:>10.3}{:>12.3}", ipc / ooo_ipc)?;
    }
    writeln!(
        o,
        "\npaper: gains up to eleven P-IQs (Ballerino-12 ≈ OoO), then flat"
    )
}

/// The ablation sections: a heading, then one labelled design point per
/// row.
fn ablation_rows() -> Vec<(&'static str, Vec<(String, DesignPoint)>)> {
    let ballerino = |label: String, set: &dyn Fn(&mut DesignPoint)| {
        let mut p = DesignPoint::new(Ballerino, Width::Eight);
        set(&mut p);
        (label, p)
    };
    let preset = |label: &str, kind| (label.to_string(), DesignPoint::new(kind, Width::Eight));
    vec![
        (
            "1. speculative-issue horizon (cycles a consumer may linger in the S-IQ):",
            [0, 1, 2, 4]
                .map(|h| ballerino(format!("horizon {h}"), &|p| p.spec_horizon = Some(h)))
                .to_vec(),
        ),
        (
            "\n2. S-IQ size (paper: 2x dispatch width = 8):",
            [4, 8, 16, 32]
                .map(|s| ballerino(format!("{s:>2} entries"), &|p| p.siq_entries = Some(s)))
                .to_vec(),
        ),
        (
            "\n3. S-IQ window (slots examined per cycle, paper: rename width = 4):",
            [2, 4, 8]
                .map(|w| ballerino(format!("window {w}"), &|p| p.siq_window = Some(w)))
                .to_vec(),
        ),
        (
            "\n4. stride prefetcher:",
            vec![
                preset("on  ", Ballerino),
                ballerino("off ".into(), &|p| p.no_prefetch = true),
            ],
        ),
        (
            "\n5. MDP interaction (baseline OoO for reference):",
            vec![
                preset("OoO with MDP   ", OutOfOrder),
                preset("OoO without MDP", OutOfOrderNoMdp),
            ],
        ),
        (
            "\n6. sharing constraints (paper reports only both-off = ideal):",
            vec![
                preset("no sharing (Step 2)  ", BallerinoStep2),
                preset("constrained (Step 3) ", Ballerino),
                preset("unconstrained (ideal)", BallerinoIdeal),
            ],
        ),
    ]
}

fn ablation_points() -> Vec<DesignPoint> {
    ablation_rows()
        .into_iter()
        .flat_map(|(_, rows)| rows)
        .map(|(_, p)| p)
        .collect()
}

/// Ablations beyond the paper: the S-IQ's speculative-issue horizon,
/// size and window, the stride prefetcher, MDP on OoO, and P-IQ sharing
/// with and without its implementation constraints.
fn ablations(r: &Runs, o: &mut String) -> fmt::Result {
    writeln!(
        o,
        "Ballerino ablations (geomean IPC over the suite, n = {})\n",
        r.n
    )?;
    for (heading, rows) in ablation_rows() {
        writeln!(o, "{heading}")?;
        let mut prev = 0.0;
        for (label, point) in rows {
            let ipc = geomean_ipc(&r.suite(point));
            write!(o, "   {label}: {ipc:.3}")?;
            if point.no_prefetch {
                let gain = 100.0 * (prev / ipc - 1.0);
                write!(o, "  ({gain:+.1}% from prefetching)")?;
            }
            writeln!(o)?;
            prev = ipc;
        }
    }
    Ok(())
}

const EXTENSIONS: [MachineKind; 6] = [
    Casino,
    LoadSliceCore,
    DelayAndBypass,
    Ces,
    Ballerino,
    OutOfOrder,
];

/// The §VII related-work baselines Load Slice Core and Delay-and-Bypass
/// against the paper's designs.
fn extensions(r: &Runs, o: &mut String) -> fmt::Result {
    let n = r.n;
    writeln!(
        o,
        "Extension baselines (speedup over InO, 8-wide, n = {n} μops/workload)\n"
    )?;
    speedup_table(r, o, &EXTENSIONS)?;
    writeln!(
        o,
        "\nLSC bypasses load slices around a stalled main queue (MLP without\n\
         wakeup); DNB spends a small 32-entry CAM only on load-dependent\n\
         slices. Both are §VII families the paper positions Ballerino against."
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_renders_from_only_its_declared_cells() {
        // One stand-in result per declared cell: a figure that reads an
        // undeclared point panics here rather than in a regeneration.
        let (point, workload, n, seed) =
            (DesignPoint::new(InOrder, Width::Two), "int_crunch", 200, 1);
        let stand_in = SimCell {
            point,
            workload,
            n,
            seed,
        }
        .run();
        for fig in FIGURES {
            let (_, cells) = distinct_cells(std::slice::from_ref(fig), n, seed);
            let results = cells.iter().map(|c| (c.key(), stand_in.clone())).collect();
            let mut text = String::new();
            (fig.render)(&Runs { n, seed, results }, &mut text).unwrap();
            assert!(!text.is_empty(), "{}", fig.name);
        }
    }

    #[test]
    fn the_union_simulates_each_shared_cell_once() {
        let (declared, cells) = distinct_cells(FIGURES, 1000, 42);
        let keys: HashSet<String> = cells.iter().map(SimCell::key).collect();
        assert_eq!(keys.len(), cells.len());
        assert!(cells.len() < declared);
        // Figs. 12, 15 and 16 read only Fig. 11's points.
        let points = |name| (FIGURES.iter().find(|f| f.name == name).unwrap().points)();
        let fig11 = points("fig11_performance");
        for name in ["fig12_sched_perf", "fig15_energy", "fig16_efficiency"] {
            assert!(points(name).iter().all(|p| fig11.contains(p)), "{name}");
        }
    }
}

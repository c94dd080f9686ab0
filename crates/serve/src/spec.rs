//! Campaign specifications: what to simulate.
//!
//! A [`CampaignSpec`] names the design-space axes (machine kinds ×
//! widths × IQ budgets × DRAM grades), the workloads, and the trace
//! shape — the same vocabulary as `ballerino_bench::SweepSpec`, parsed
//! from a small JSON document (see README § "Serving campaigns" for the
//! format). Two modes:
//!
//! * **full** — serve every cell of the cross product.
//! * **sweep** — run the tier-0 analytic triage first
//!   ([`ballerino_bench::tier0_scores`] + [`promote_indices`]) and serve
//!   only the cells of points that could still be on the cost/performance
//!   frontier. Triage is deterministic, so every shard of a campaign
//!   derives the same promoted set independently.

use crate::json::{self, Json};
use ballerino_bench::{
    enumerate_cells, grid_points, kind_from_name, point_cost, promote_indices, tier0_scores,
    SimCell, SweepSpec,
};
use ballerino_sim::{DesignPoint, MachineKind, Width};
use ballerino_workloads::workload_names;

/// How a campaign selects cells from its grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignMode {
    /// Serve every cell of the cross product.
    Full,
    /// Tier-0 triage first; serve only promoted points' cells.
    Sweep,
}

/// A simulation campaign: grid axes × workloads × trace shape.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name (journal and log labelling only).
    pub name: String,
    /// Cell-selection mode.
    pub mode: CampaignMode,
    /// Machine kinds to enumerate.
    pub kinds: Vec<MachineKind>,
    /// Width presets to enumerate.
    pub widths: Vec<Width>,
    /// IQ-entry budgets (`None` = the width's Table II default).
    pub iq_budgets: Vec<Option<usize>>,
    /// DRAM timing scales in percent (100 = default).
    pub dram_scales: Vec<u32>,
    /// Workloads each point runs (canonicalized suite names).
    pub workloads: Vec<&'static str>,
    /// μops per workload trace.
    pub n: usize,
    /// Workload generator seed.
    pub seed: u64,
}

impl CampaignSpec {
    /// A CI-sized built-in campaign: 3 kinds × 2 widths × 2 DRAM grades
    /// on three workloads with small traces — 36 cells, a few seconds.
    pub fn smoke() -> CampaignSpec {
        CampaignSpec {
            name: "smoke".into(),
            mode: CampaignMode::Full,
            kinds: vec![
                MachineKind::InOrder,
                MachineKind::OutOfOrder,
                MachineKind::Ballerino,
            ],
            widths: vec![Width::Two, Width::Eight],
            iq_budgets: vec![None],
            dram_scales: vec![100, 200],
            workloads: vec!["int_crunch", "pointer_chase", "branchy_sort"],
            n: 2_000,
            seed: 42,
        }
    }

    /// Parses a campaign from its JSON document. Required: `kinds`.
    /// Optional with defaults: `name` ("campaign"), `mode` ("full"),
    /// `widths` (`[8]`), `iq_budgets` (`[null]`), `dram_scales`
    /// (`[100]`), `workloads` (the whole suite), `n` (20000), `seed`
    /// (42).
    pub fn from_json(text: &str) -> Result<CampaignSpec, String> {
        let doc = json::parse(text)?;
        if !matches!(doc, Json::Obj(_)) {
            return Err("campaign spec must be a JSON object".into());
        }

        let name = match doc.get("name") {
            Some(v) => v.as_str().ok_or("'name' must be a string")?.to_string(),
            None => "campaign".into(),
        };
        let mode = match doc.get("mode").map(|v| v.as_str()) {
            None => CampaignMode::Full,
            Some(Some("full")) => CampaignMode::Full,
            Some(Some("sweep")) => CampaignMode::Sweep,
            Some(other) => {
                return Err(format!(
                    "'mode' must be \"full\" or \"sweep\", got {other:?}"
                ))
            }
        };

        let kinds_json = doc
            .get("kinds")
            .and_then(Json::as_arr)
            .ok_or("'kinds' (array of machine names) is required")?;
        let mut kinds = Vec::new();
        for k in kinds_json {
            let s = k.as_str().ok_or("'kinds' entries must be strings")?;
            kinds.push(kind_from_name(s).ok_or_else(|| format!("unknown machine kind '{s}'"))?);
        }
        if kinds.is_empty() {
            return Err("'kinds' must not be empty".into());
        }

        let widths = match doc.get("widths") {
            None => vec![Width::Eight],
            Some(v) => {
                let arr = v.as_arr().ok_or("'widths' must be an array")?;
                let mut out = Vec::new();
                for w in arr {
                    out.push(match w.as_u64() {
                        Some(2) => Width::Two,
                        Some(4) => Width::Four,
                        Some(8) => Width::Eight,
                        Some(10) => Width::Ten,
                        _ => return Err(format!("bad width {w:?} (allowed: 2, 4, 8, 10)")),
                    });
                }
                out
            }
        };

        let iq_budgets = match doc.get("iq_budgets") {
            None => vec![None],
            Some(v) => {
                let arr = v.as_arr().ok_or("'iq_budgets' must be an array")?;
                let mut out = Vec::new();
                for b in arr {
                    out.push(match b {
                        Json::Null => None,
                        _ => Some(
                            b.as_u64()
                                .filter(|&e| e >= 1)
                                .ok_or_else(|| format!("bad IQ budget {b:?}"))?
                                as usize,
                        ),
                    });
                }
                out
            }
        };

        let dram_scales = match doc.get("dram_scales") {
            None => vec![100],
            Some(v) => {
                let arr = v.as_arr().ok_or("'dram_scales' must be an array")?;
                let mut out = Vec::new();
                for d in arr {
                    out.push(
                        d.as_u64()
                            .filter(|&p| (10..=1000).contains(&p))
                            .ok_or_else(|| format!("bad DRAM scale {d:?} (percent, 10..=1000)"))?
                            as u32,
                    );
                }
                out
            }
        };

        let workloads = match doc.get("workloads") {
            None => workload_names(),
            Some(v) => {
                let arr = v.as_arr().ok_or("'workloads' must be an array")?;
                let suite = workload_names();
                let mut out = Vec::new();
                for w in arr {
                    let s = w.as_str().ok_or("'workloads' entries must be strings")?;
                    // Canonicalize to the suite's &'static str (SimCell
                    // borrows it for the process lifetime).
                    let canon = suite
                        .iter()
                        .find(|&&name| name == s)
                        .ok_or_else(|| format!("unknown workload '{s}'"))?;
                    out.push(*canon);
                }
                out
            }
        };
        if workloads.is_empty() {
            return Err("'workloads' must not be empty".into());
        }

        let n = match doc.get("n") {
            None => 20_000,
            Some(v) => v
                .as_u64()
                .filter(|&n| (100..=10_000_000).contains(&n))
                .ok_or("'n' must be an integer in 100..=10000000")? as usize,
        };
        let seed = match doc.get("seed") {
            None => 42,
            Some(v) => v.as_u64().ok_or("'seed' must be a non-negative integer")?,
        };

        Ok(CampaignSpec {
            name,
            mode,
            kinds,
            widths,
            iq_budgets,
            dram_scales,
            workloads,
            n,
            seed,
        })
    }

    /// The campaign's design points: the full grid, or (sweep mode) the
    /// tier-0 promoted subset. Deterministic — every shard derives the
    /// same list.
    pub fn points(&self) -> Vec<DesignPoint> {
        let points = grid_points(
            &self.kinds,
            &self.widths,
            &self.iq_budgets,
            &self.dram_scales,
        );
        match self.mode {
            CampaignMode::Full => points,
            CampaignMode::Sweep => {
                let sweep = self.as_sweep_spec();
                let est = tier0_scores(&sweep, &points);
                let costs: Vec<u64> = points.iter().map(point_cost).collect();
                promote_indices(&costs, &est, sweep.margin_pct())
                    .into_iter()
                    .map(|i| points[i])
                    .collect()
            }
        }
    }

    /// All cells this campaign serves (point-major ×, within a point,
    /// workload order).
    pub fn cells(&self) -> Vec<SimCell> {
        enumerate_cells(&self.points(), &self.workloads, self.n, self.seed)
    }

    /// The equivalent `ballerino_bench::SweepSpec` (for tier-0 triage).
    fn as_sweep_spec(&self) -> SweepSpec {
        SweepSpec {
            kinds: self.kinds.clone(),
            widths: self.widths.clone(),
            iq_budgets: self.iq_budgets.clone(),
            dram_scales: self.dram_scales.clone(),
            workloads: self.workloads.clone(),
            n: self.n,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_spec_with_defaults() {
        let spec = CampaignSpec::from_json(r#"{"kinds": ["ooo"]}"#).unwrap();
        assert_eq!(spec.name, "campaign");
        assert_eq!(spec.mode, CampaignMode::Full);
        assert_eq!(spec.kinds, vec![MachineKind::OutOfOrder]);
        assert_eq!(spec.widths, vec![Width::Eight]);
        assert_eq!(spec.iq_budgets, vec![None]);
        assert_eq!(spec.dram_scales, vec![100]);
        assert_eq!(spec.workloads, workload_names());
        assert_eq!(spec.n, 20_000);
        assert_eq!(spec.seed, 42);
    }

    #[test]
    fn parses_a_full_spec() {
        let spec = CampaignSpec::from_json(
            r#"{
                "name": "iq-sweep", "mode": "sweep",
                "kinds": ["ooo", "ballerino", "b5"],
                "widths": [2, 8],
                "iq_budgets": [null, 32, 96],
                "dram_scales": [100, 200],
                "workloads": ["int_crunch", "pointer_chase"],
                "n": 4000, "seed": 7
            }"#,
        )
        .unwrap();
        assert_eq!(spec.name, "iq-sweep");
        assert_eq!(spec.mode, CampaignMode::Sweep);
        assert_eq!(spec.kinds.len(), 3);
        assert_eq!(spec.kinds[2], MachineKind::BallerinoN(5));
        assert_eq!(spec.iq_budgets, vec![None, Some(32), Some(96)]);
        assert_eq!(spec.workloads, vec!["int_crunch", "pointer_chase"]);
        assert_eq!(spec.n, 4000);
        assert_eq!(spec.seed, 7);
    }

    #[test]
    fn rejects_bad_specs() {
        for bad in [
            r#"{}"#,                                        // kinds required
            r#"{"kinds": []}"#,                             // kinds empty
            r#"{"kinds": ["warp-drive"]}"#,                 // unknown kind
            r#"{"kinds": ["ooo"], "widths": [3]}"#,         // bad width
            r#"{"kinds": ["ooo"], "mode": "turbo"}"#,       // bad mode
            r#"{"kinds": ["ooo"], "workloads": ["nope"]}"#, // unknown workload
            r#"{"kinds": ["ooo"], "workloads": []}"#,       // empty workloads
            r#"{"kinds": ["ooo"], "n": 1}"#,                // n out of range
            r#"["ooo"]"#,                                   // not an object
        ] {
            assert!(CampaignSpec::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn deeply_nested_spec_is_rejected() {
        let doc = format!(r#"{{"kinds": {}"#, "[".repeat(100_000));
        assert!(CampaignSpec::from_json(&doc)
            .unwrap_err()
            .contains("nesting"));
    }

    #[test]
    fn smoke_campaign_cell_count() {
        // 3 kinds × 2 widths × 1 IQ × 2 DRAM = 12 points × 3 workloads.
        assert_eq!(CampaignSpec::smoke().cells().len(), 36);
    }

    #[test]
    fn sweep_mode_prunes_the_grid() {
        let mut spec = CampaignSpec::smoke();
        spec.n = 1_000;
        let full = spec.cells().len();
        spec.mode = CampaignMode::Sweep;
        let pruned = spec.cells().len();
        assert!(pruned <= full);
        assert!(pruned > 0, "triage must keep at least the frontier");
    }
}

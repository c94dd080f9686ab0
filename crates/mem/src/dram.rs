//! DDR4-lite DRAM timing model.
//!
//! Stand-in for the paper's Ramulator integration: per-bank open-row state,
//! activate/precharge/CAS timing, and a shared data bus. The model captures
//! what the scheduler observes — variable latencies in the 100–300 core
//! cycle range with bank-level parallelism and row-buffer locality — without
//! simulating the full DDR4 state machine.

use crate::config::DramConfig;
use crate::LINE_BYTES;

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

/// Single-channel, single-rank DRAM with `banks` banks.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>,
    bus_busy_until: u64,
    /// Row-buffer hits served.
    pub row_hits: u64,
    /// Row misses (closed row or conflict).
    pub row_misses: u64,
}

impl Dram {
    /// Builds an idle DRAM from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero banks.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.banks > 0, "DRAM needs at least one bank");
        let banks = vec![Bank::default(); cfg.banks];
        Dram {
            cfg,
            banks,
            bus_busy_until: 0,
            row_hits: 0,
            row_misses: 0,
        }
    }

    /// The configuration this DRAM was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    fn decode(&self, line: u64) -> (usize, u64) {
        let lines_per_row = self.cfg.row_bytes / LINE_BYTES;
        // Interleave consecutive rows across banks for bank-level parallelism.
        let row_global = line / lines_per_row;
        let bank = (row_global % self.cfg.banks as u64) as usize;
        let row = row_global / self.cfg.banks as u64;
        (bank, row)
    }

    /// Services a 64-byte read/write of `line` arriving at `cycle`; returns
    /// the absolute completion cycle.
    ///
    /// Column accesses to an open row are pipelined: the bank is occupied
    /// for only the burst gap (CAS-to-CAS), not the full CAS latency, so
    /// a streaming row drains at bus speed. Activates and precharges
    /// occupy the bank for their full duration.
    pub fn access(&mut self, line: u64, cycle: u64) -> u64 {
        let (bank_idx, row) = self.decode(line);
        let bank = &mut self.banks[bank_idx];
        let start = cycle.max(bank.busy_until);
        let (col_start, array_lat) = match bank.open_row {
            Some(open) if open == row => {
                self.row_hits += 1;
                (start, self.cfg.cas)
            }
            Some(_) => {
                self.row_misses += 1;
                (start + self.cfg.rp + self.cfg.rcd, self.cfg.cas)
            }
            None => {
                self.row_misses += 1;
                (start + self.cfg.rcd, self.cfg.cas)
            }
        };
        bank.open_row = Some(row);
        let data_ready = col_start + array_lat;
        // Serialize transfers on the shared data bus.
        let bus_start = data_ready.max(self.bus_busy_until);
        let done = bus_start + self.cfg.burst;
        self.bus_busy_until = done;
        // CAS commands pipeline: the bank frees after the CAS-to-CAS gap.
        bank.busy_until = col_start + self.cfg.burst;
        done
    }

    /// Fraction of accesses that hit an open row.
    pub fn row_hit_ratio(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::default())
    }

    #[test]
    fn first_access_pays_activate_plus_cas() {
        let mut d = dram();
        let cfg = d.config().clone();
        let done = d.access(0, 100);
        assert_eq!(done, 100 + cfg.rcd + cfg.cas + cfg.burst);
        assert_eq!(d.row_misses, 1);
    }

    #[test]
    fn same_row_hit_is_faster() {
        let mut d = dram();
        let cfg = d.config().clone();
        let t1 = d.access(0, 0);
        let t2 = d.access(1, t1); // same row, next line
        assert_eq!(t2 - t1, cfg.cas + cfg.burst);
        assert_eq!(d.row_hits, 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut d = dram();
        let cfg = d.config().clone();
        let lines_per_row = cfg.row_bytes / LINE_BYTES;
        let t1 = d.access(0, 0);
        // Same bank, different row: banks interleave by row, so add
        // banks * lines_per_row lines.
        let conflict_line = cfg.banks as u64 * lines_per_row;
        let t2 = d.access(conflict_line, t1);
        assert!(t2 - t1 >= cfg.rp + cfg.rcd + cfg.cas);
        assert_eq!(d.row_misses, 2);
    }

    #[test]
    fn different_banks_overlap_activates() {
        let mut d = dram();
        let cfg = d.config().clone();
        let lines_per_row = cfg.row_bytes / LINE_BYTES;
        // Two accesses to different banks at the same cycle: array access
        // overlaps; only the bus serializes them.
        let t_a = d.access(0, 0);
        let t_b = d.access(lines_per_row, 0); // next row → next bank
        assert_eq!(t_a, cfg.rcd + cfg.cas + cfg.burst);
        assert_eq!(t_b, t_a + cfg.burst);
    }

    #[test]
    fn row_hit_ratio_reported() {
        let mut d = dram();
        let t = d.access(0, 0);
        let _ = d.access(1, t);
        assert!((d.row_hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_panics() {
        let _ = Dram::new(DramConfig {
            banks: 0,
            ..DramConfig::default()
        });
    }
}

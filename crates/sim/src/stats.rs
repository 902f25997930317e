//! Per-core simulation statistics.

/// Counters and aggregates produced by one core's run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreStats {
    /// Committed instructions.
    pub committed: u64,
    /// Cycle of the last commit (the run's cycle count).
    pub last_commit_cycle: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed branches.
    pub branches: u64,
    /// Mispredicted branches (front-end redirects paid).
    pub mispredicts: u64,
    /// Committed serializing instructions.
    pub serializing: u64,
    /// Dispatch cycles lost to a full ROB.
    pub rob_full_cycles: u64,
    /// Dispatch cycles lost to a full issue queue.
    pub iq_full_cycles: u64,
    /// Dispatch cycles lost to a full LSQ.
    pub lsq_full_cycles: u64,
    /// Commit cycles lost waiting on the post-L1 write path (write
    /// buffer / Communication Buffer full).
    pub store_path_stall_cycles: u64,
    /// Dispatch cycles lost draining for serializing instructions.
    pub serialize_stall_cycles: u64,
    /// Cycles lost to externally injected stalls (error recovery).
    pub recovery_stall_cycles: u64,
    /// Cycles lost to asynchronous core-local drift events.
    pub drift_stall_cycles: u64,
    /// Number of recovery events absorbed.
    pub recoveries: u64,
    /// Sum of ROB occupancy sampled at each dispatch (for averages).
    pub rob_occupancy_sum: u64,
    /// Number of occupancy samples.
    pub rob_occupancy_samples: u64,
    /// Histogram of ROB occupancy at dispatch, in sixteenths of the ROB
    /// (bucket `i` covers `[i/16, (i+1)/16)` of capacity; the last bucket
    /// is a completely full ROB) — the distribution behind Fig. 5's
    /// occupancy argument.
    pub rob_occupancy_hist: [u64; 17],
}

impl CoreStats {
    /// Instructions per cycle over the whole run.
    pub fn ipc(&self) -> f64 {
        if self.last_commit_cycle == 0 {
            0.0
        } else {
            self.committed as f64 / self.last_commit_cycle as f64
        }
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.last_commit_cycle as f64 / self.committed as f64
        }
    }

    /// Mean ROB occupancy observed at dispatch.
    pub fn avg_rob_occupancy(&self) -> f64 {
        if self.rob_occupancy_samples == 0 {
            0.0
        } else {
            self.rob_occupancy_sum as f64 / self.rob_occupancy_samples as f64
        }
    }

    /// Runtime overhead of this run relative to a baseline run of the
    /// same trace: `cycles / baseline_cycles − 1`.
    pub fn overhead_vs(&self, baseline: &CoreStats) -> f64 {
        assert!(baseline.last_commit_cycle > 0, "baseline must have run");
        self.last_commit_cycle as f64 / baseline.last_commit_cycle as f64 - 1.0
    }
}

impl CoreStats {
    /// A human-readable stall breakdown (the "cycle-delays of each
    /// architecture block" instrumentation §V describes).
    pub fn report(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "committed {} in {} cycles (IPC {:.3}, CPI {:.3})\n",
            self.committed,
            self.last_commit_cycle,
            self.ipc(),
            self.cpi()
        ));
        s.push_str(&format!(
            "  mix: {} loads, {} stores, {} branches ({} mispredicted), {} serializing\n",
            self.loads, self.stores, self.branches, self.mispredicts, self.serializing
        ));
        s.push_str(&format!(
            "  dispatch stalls: ROB {} / IQ {} / LSQ {} cycles\n",
            self.rob_full_cycles, self.iq_full_cycles, self.lsq_full_cycles
        ));
        s.push_str(&format!(
            "  commit stalls: store path {} / serialize {} / recovery {} / drift {} cycles\n",
            self.store_path_stall_cycles,
            self.serialize_stall_cycles,
            self.recovery_stall_cycles,
            self.drift_stall_cycles
        ));
        s.push_str(&format!(
            "  avg ROB occupancy: {:.1}\n",
            self.avg_rob_occupancy()
        ));
        if self.rob_occupancy_samples > 0 {
            s.push_str("  occupancy distribution (16ths of ROB): ");
            for (i, &c) in self.rob_occupancy_hist.iter().enumerate() {
                if c > 0 {
                    s.push_str(&format!(
                        "{}:{:.0}% ",
                        i,
                        c as f64 / self.rob_occupancy_samples as f64 * 100.0
                    ));
                }
            }
            s.push('\n');
        }
        s
    }

    /// Fraction of dispatch samples at which the ROB was completely full.
    pub fn rob_saturation_fraction(&self) -> f64 {
        if self.rob_occupancy_samples == 0 {
            0.0
        } else {
            self.rob_occupancy_hist[16] as f64 / self.rob_occupancy_samples as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_cpi_are_reciprocal() {
        let s = CoreStats {
            committed: 100,
            last_commit_cycle: 50,
            ..Default::default()
        };
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert!((s.cpi() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = CoreStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.cpi(), 0.0);
        assert_eq!(s.avg_rob_occupancy(), 0.0);
    }

    #[test]
    fn saturation_fraction_reads_the_last_bucket() {
        let mut s = CoreStats {
            rob_occupancy_samples: 10,
            ..Default::default()
        };
        s.rob_occupancy_hist[16] = 4;
        assert!((s.rob_saturation_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(CoreStats::default().rob_saturation_fraction(), 0.0);
    }

    #[test]
    fn report_mentions_key_fields() {
        let s = CoreStats {
            committed: 10,
            last_commit_cycle: 40,
            loads: 3,
            mispredicts: 1,
            rob_full_cycles: 7,
            ..Default::default()
        };
        let r = s.report();
        assert!(r.contains("IPC 0.250"));
        assert!(r.contains("ROB 7"));
        assert!(r.contains("3 loads"));
    }

    #[test]
    fn overhead_vs_baseline() {
        let base = CoreStats {
            committed: 100,
            last_commit_cycle: 100,
            ..Default::default()
        };
        let slow = CoreStats {
            committed: 100,
            last_commit_cycle: 120,
            ..Default::default()
        };
        assert!((slow.overhead_vs(&base) - 0.2).abs() < 1e-12);
        assert!((base.overhead_vs(&base)).abs() < 1e-12);
    }
}

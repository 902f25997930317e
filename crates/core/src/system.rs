//! Multi-pair UnSync systems — the paper's Fig. 1 topology: a CMP hosts
//! several *core-pairs*, each redundantly executing its own thread, all
//! sharing the ECC-protected L2. The Table I machine (4 logical cores)
//! is two UnSync pairs.
//!
//! This runner measures what pairing does at the *system* level: each
//! pair's CB drains and demand fills contend for the shared L2 (and its
//! MSHRs) against the other pairs' traffic. Execution routes through
//! [`unsync_exec::RedundantDriver::run_system`], with one
//! [`crate::pair::UnsyncPolicy`] lane per pair interleaved
//! advance-the-laggard over the shared memory system.

use unsync_exec::{OutcomeCore, RedundantDriver, TraceEventKind};
use unsync_isa::TraceProgram;
use unsync_mem::WritePolicy;
use unsync_sim::CoreConfig;

use crate::config::UnsyncConfig;
use crate::pair::UnsyncPolicy;

/// Per-pair results of a system run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemPairStats {
    /// Pair index.
    pub pair: usize,
    /// The counters all schemes share (committed, cycles, …).
    pub core: OutcomeCore,
    /// Stores drained through the pair's CB.
    pub cb_drained: u64,
    /// Commit cycles lost to a full CB.
    pub cb_full_stall_cycles: u64,
    /// Cross-pair coherence invalidations absorbed (both cores).
    pub invalidations: u64,
}

impl std::ops::Deref for SystemPairStats {
    type Target = OutcomeCore;
    fn deref(&self) -> &OutcomeCore {
        &self.core
    }
}

/// Whole-system results.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemOutcome {
    /// Per-pair statistics.
    pub pairs: Vec<SystemPairStats>,
    /// Shared-L2 miss rate over all traffic.
    pub l2_miss_rate: f64,
}

/// An UnSync CMP of `P` core-pairs over one shared memory system.
pub struct UnsyncSystem {
    ccfg: CoreConfig,
    ucfg: UnsyncConfig,
}

impl UnsyncSystem {
    /// A system with the given core and UnSync configurations.
    pub fn new(ccfg: CoreConfig, ucfg: UnsyncConfig) -> Self {
        ucfg.validate().expect("UnSync config must be valid");
        UnsyncSystem { ccfg, ucfg }
    }

    /// Runs one trace per pair (error-free), all pairs sharing the L2.
    /// Pair `p` occupies cores `2p` and `2p+1`.
    pub fn run(&self, traces: &[TraceProgram]) -> SystemOutcome {
        let driver = RedundantDriver::new(self.ccfg);
        let mut policies: Vec<UnsyncPolicy> = (0..traces.len())
            .map(|p| {
                UnsyncPolicy::new("unsync_system", self.ucfg, WritePolicy::WriteThrough, 2 * p)
            })
            .collect();
        let (results, mem) = driver.run_system(&mut policies, traces);

        let stats: Vec<SystemPairStats> = results
            .iter()
            .enumerate()
            .map(|(p, r)| SystemPairStats {
                pair: p,
                core: r.out,
                cb_drained: r.events.sum(TraceEventKind::CbDrain),
                cb_full_stall_cycles: r.events.sum(TraceEventKind::CbFullStall),
                invalidations: mem.invalidations(2 * p) + mem.invalidations(2 * p + 1),
            })
            .collect();
        let out = SystemOutcome {
            pairs: stats,
            l2_miss_rate: mem.l2_stats().miss_rate(),
        };

        let m = unsync_sim::metrics::global();
        for p in &out.pairs {
            m.counter("unsync_system.pair_instructions")
                .add(p.core.committed);
            m.counter("unsync_system.invalidations")
                .add(p.invalidations);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_workloads::{Benchmark, WorkloadGen};

    #[test]
    fn single_pair_system_matches_pair_scale() {
        let t = WorkloadGen::new(Benchmark::Gzip, 10_000, 3).collect_trace();
        let sys = UnsyncSystem::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
        let out = sys.run(std::slice::from_ref(&t));
        assert_eq!(out.pairs.len(), 1);
        assert_eq!(out.pairs[0].core.committed, 10_000);
        assert!(out.pairs[0].ipc() > 0.01);
    }

    #[test]
    fn two_pairs_run_independent_workloads() {
        let ta = WorkloadGen::new(Benchmark::Sha, 10_000, 3).collect_trace();
        let tb = WorkloadGen::new(Benchmark::Mcf, 10_000, 3).collect_trace();
        let sys = UnsyncSystem::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
        let out = sys.run(&[ta, tb]);
        assert_eq!(out.pairs.len(), 2);
        // sha (cache-resident) must sustain much higher IPC than mcf.
        assert!(out.pairs[0].ipc() > 4.0 * out.pairs[1].ipc());
    }

    #[test]
    fn l2_contention_slows_a_pair_down() {
        // The same workload, alone vs. next to an L2-thrashing neighbour.
        // Distinct address spaces: the neighbour is another process.
        let t = WorkloadGen::new_at(Benchmark::Equake, 15_000, 5, 0x1000_0000).collect_trace();
        let hog = WorkloadGen::new_at(Benchmark::Mcf, 15_000, 6, 0x9000_0000).collect_trace();
        let sys = UnsyncSystem::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
        let alone = sys.run(std::slice::from_ref(&t)).pairs[0].core.cycles;
        let contended = sys.run(&[t, hog]).pairs[0].core.cycles;
        assert!(
            contended >= alone,
            "shared-L2 contention cannot speed the pair up: {contended} vs {alone}"
        );
    }

    #[test]
    fn overlapping_address_spaces_cause_coherence_traffic() {
        // Two pairs sharing one data segment: each pair's drains
        // invalidate the other's cached copies.
        let ta = WorkloadGen::new(Benchmark::Qsort, 8_000, 5).collect_trace();
        let tb = WorkloadGen::new(Benchmark::Qsort, 8_000, 6).collect_trace();
        let sys = UnsyncSystem::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
        let shared = sys.run(&[ta, tb]);
        assert!(
            shared.pairs.iter().any(|p| p.invalidations > 0),
            "{:?}",
            shared.pairs
        );
        // Disjoint address spaces: none.
        let tc = WorkloadGen::new_at(Benchmark::Qsort, 8_000, 5, 0x1000_0000).collect_trace();
        let td = WorkloadGen::new_at(Benchmark::Qsort, 8_000, 6, 0x9000_0000).collect_trace();
        let disjoint = sys.run(&[tc, td]);
        assert!(disjoint.pairs.iter().all(|p| p.invalidations == 0));
    }

    #[test]
    fn pairs_of_different_lengths_all_complete() {
        let short = WorkloadGen::new_at(Benchmark::Sha, 2_000, 1, 0x1000_0000).collect_trace();
        let long = WorkloadGen::new_at(Benchmark::Gzip, 9_000, 2, 0x9000_0000).collect_trace();
        let sys = UnsyncSystem::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
        let out = sys.run(&[short, long]);
        assert_eq!(out.pairs[0].core.committed, 2_000);
        assert_eq!(out.pairs[1].core.committed, 9_000);
        assert!(out.pairs[1].core.cycles > out.pairs[0].core.cycles);
    }

    #[test]
    fn deterministic_system_runs() {
        let ta = WorkloadGen::new(Benchmark::Qsort, 5_000, 1).collect_trace();
        let tb = WorkloadGen::new(Benchmark::Fft, 5_000, 2).collect_trace();
        let sys = UnsyncSystem::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
        assert_eq!(sys.run(&[ta.clone(), tb.clone()]), sys.run(&[ta, tb]));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_system_rejected() {
        let sys = UnsyncSystem::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
        let _ = sys.run(&[]);
    }
}

//! The redundancy schemes the bench layer compares (§VI): UnSync
//! against Reunion, lockstep and checkpointing, plus TMR voting, a
//! FlexStep-style pair and a SECDED-only core.
//!
//! [`Scheme`] is the one place that knows, per scheme, its record
//! label, how a name parses into it, whether it takes uncore strikes,
//! and how it is built for a fault-free run and for a strike run.
//! Campaign grids, the comparator study and the uncore ROEC campaign
//! all dispatch through it.

use unsync_core::{UnsyncConfig, UnsyncPair, UnsyncPolicy};
use unsync_exec::{
    FlexConfig, FlexPair, RedundantDriver, RunResult, SecdedOnlyCore, SecdedOnlyPolicy, TmrTriple,
    TmrVotePolicy,
};
use unsync_fault::uncore::UncoreStrike;
use unsync_isa::{ArchMemory, TraceProgram};
use unsync_mem::WritePolicy;
use unsync_reunion::{CheckpointConfig, CheckpointHooks, LockstepPair, ReunionConfig, ReunionPair};
use unsync_sim::CoreConfig;

/// One redundancy scheme, in `comparators` table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Cycle-by-cycle lockstep pair.
    Lockstep,
    /// Reunion: fingerprint-compared pair with rollback.
    Reunion,
    /// Coarse checkpointing on one core.
    Checkpoint,
    /// The paper's UnSync pair.
    UnsyncPair,
    /// Majority-voting triple.
    TmrVote,
    /// FlexStep-style pair comparing every 128-instruction window.
    Flex,
    /// One SECDED-protected core, no redundancy.
    SecdedOnly,
}

impl Scheme {
    /// Every scheme, in `comparators` table order.
    pub const ALL: [Scheme; 7] = [
        Scheme::Lockstep,
        Scheme::Reunion,
        Scheme::Checkpoint,
        Scheme::UnsyncPair,
        Scheme::TmrVote,
        Scheme::Flex,
        Scheme::SecdedOnly,
    ];

    /// The scheme's record label. Labels feed job salts, log headers
    /// and goldens, so they never change.
    pub const fn label(self) -> &'static str {
        match self {
            Scheme::Lockstep => "lockstep",
            Scheme::Reunion => "reunion",
            Scheme::Checkpoint => "checkpoint",
            Scheme::UnsyncPair => "unsync_pair",
            Scheme::TmrVote => "tmr_vote",
            Scheme::Flex => "flex",
            Scheme::SecdedOnly => "secded_only",
        }
    }

    /// The scheme whose [`label`](Scheme::label) is `name`.
    pub fn parse(name: &str) -> Option<Scheme> {
        Scheme::ALL.into_iter().find(|s| s.label() == name)
    }

    /// Whether the scheme runs on the redundant driver and so can take
    /// uncore strikes (see [`Scheme::run_with_strikes`]).
    pub const fn takes_uncore_strikes(self) -> bool {
        matches!(
            self,
            Scheme::UnsyncPair | Scheme::TmrVote | Scheme::SecdedOnly
        )
    }

    /// Cycles of one fault-free run of `trace` on Table I cores.
    pub fn fault_free_cycles(self, trace: &TraceProgram) -> u64 {
        let core = CoreConfig::table1();
        match self {
            Scheme::Lockstep => LockstepPair::new(core).run(trace).cycles,
            Scheme::Reunion => {
                ReunionPair::new(core, ReunionConfig::paper_baseline())
                    .run(trace, &[])
                    .cycles
            }
            Scheme::Checkpoint => {
                let mut stream = trace.clone();
                let mut hooks = CheckpointHooks::new(CheckpointConfig::default());
                unsync_sim::run_stream(core, &mut stream, &mut hooks, WritePolicy::WriteThrough)
                    .core
                    .last_commit_cycle
            }
            Scheme::UnsyncPair => {
                UnsyncPair::new(core, UnsyncConfig::paper_baseline())
                    .run(trace, &[])
                    .cycles
            }
            Scheme::TmrVote => TmrTriple::new(core).run(trace, &[]).cycles,
            Scheme::Flex => {
                FlexPair::new(core, FlexConfig::paper_baseline())
                    .run(trace, &[])
                    .cycles
            }
            Scheme::SecdedOnly => SecdedOnlyCore::new(core).run(trace, &[]).cycles,
        }
    }

    /// Runs `trace` on `driver` with `strikes` injected and journalling
    /// forced on, or `None` if the scheme takes no uncore strikes.
    /// `golden` optionally supplies the memoized fault-free memory image
    /// so the driver skips its own golden re-execution (results are
    /// bit-identical either way — a trace's golden is unique).
    pub fn run_with_strikes(
        self,
        driver: &RedundantDriver,
        trace: &TraceProgram,
        strikes: Vec<UncoreStrike>,
        golden: Option<&ArchMemory>,
    ) -> Option<RunResult> {
        let faults = Vec::new();
        Some(match self {
            Scheme::UnsyncPair => {
                let policy = UnsyncPolicy::new(
                    "roec_uncore",
                    UnsyncConfig::paper_baseline(),
                    WritePolicy::WriteThrough,
                    0,
                );
                driver.run_campaign_lane(policy, trace, faults, strikes, golden)
            }
            Scheme::TmrVote => {
                driver.run_campaign_lane(TmrVotePolicy::new(), trace, faults, strikes, golden)
            }
            Scheme::SecdedOnly => {
                driver.run_campaign_lane(SecdedOnlyPolicy::new(), trace, faults, strikes, golden)
            }
            Scheme::Lockstep | Scheme::Reunion | Scheme::Checkpoint | Scheme::Flex => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roec_uncore::SCHEMES;
    use unsync_workloads::{Benchmark, SyntheticSource, WorkloadSource};

    #[test]
    fn labels_round_trip_and_strike_schemes_follow_table_order() {
        for scheme in Scheme::ALL {
            assert_eq!(Scheme::parse(scheme.label()), Some(scheme));
        }
        assert_eq!(Scheme::parse("no_such_scheme"), None);
        let strike_capable: Vec<&str> = Scheme::ALL
            .into_iter()
            .filter(|s| s.takes_uncore_strikes())
            .map(Scheme::label)
            .collect();
        assert_eq!(SCHEMES.to_vec(), strike_capable);
    }

    #[test]
    fn strike_runs_exist_exactly_for_strike_capable_schemes() {
        let trace = SyntheticSource::new(Benchmark::Gzip, 120, 3).trace();
        let driver = RedundantDriver::new(CoreConfig::table1());
        for scheme in Scheme::ALL {
            let run = scheme.run_with_strikes(&driver, &trace, Vec::new(), None);
            assert_eq!(run.is_some(), scheme.takes_uncore_strikes(), "{scheme:?}");
        }
    }
}

//! `many_lanes`: the lanesweep system at 1000 lanes — one UnSync pair
//! per lane, 400 gzip instructions per lane, one mid-trace `PairFault`
//! per lane, many-core shared-L2 contention. Set-up builds the traces,
//! policies and faults exactly as `lanesweep::sweep_point` does; the
//! timed part is the one `RedundantDriver::run_system_with_faults`
//! call, where the scheduler and the contended shared L2 do the work.

use std::panic::{catch_unwind, AssertUnwindSafe};

use unsync_core::{UnsyncConfig, UnsyncPolicy};
use unsync_exec::RedundantDriver;
use unsync_fault::PairFault;
use unsync_isa::TraceProgram;
use unsync_mem::{L2ContentionConfig, WritePolicy};
use unsync_sim::CoreConfig;
use unsync_workloads::{Benchmark, WorkloadSource, WorkloadSpec};

use crate::span::span;
use crate::{digest, measure, Outcome, Timed};

pub const LANES: usize = 1000;
pub const INSTS: usize = 400;

/// `makespan_cycles`, `l2_requests` and `l2_stall_cycles` of the
/// 1000-lane row of `BENCH_lanesweep.json` (seed 11).
pub const REFERENCE_SEED: u64 = 11;
const REFERENCE_ROW: (u64, u64, u64) = (3_358_881, 200_539, 12_649_842_313);

/// The inputs of one system run.
pub struct System {
    lanes: usize,
    driver: RedundantDriver,
    traces: Vec<TraceProgram>,
    policies: Vec<UnsyncPolicy>,
    faults: Vec<Vec<PairFault>>,
}

/// Builds the `lanes`-lane system of `lanesweep` at `seed`.
pub fn setup(seed: u64, lanes: usize) -> System {
    let driver = RedundantDriver::new(CoreConfig::table1())
        .with_l2_contention(L2ContentionConfig::many_core());
    let workload = WorkloadSpec::Synthetic(Benchmark::Gzip);
    // Disjoint per-lane address spaces, as in the sweep.
    let traces = (0..lanes)
        .map(|p| {
            let base = 0x1000_0000u64 + p as u64 * 0x0100_0000;
            workload
                .source(INSTS as u64, seed + p as u64)
                .trace_at(base)
        })
        .collect();
    let policies = (0..lanes)
        .map(|p| {
            UnsyncPolicy::new(
                "lanesweep",
                UnsyncConfig::paper_baseline(),
                WritePolicy::WriteThrough,
                2 * p,
            )
        })
        .collect();
    let mid = (INSTS / 2) as u64;
    let faults = (0..lanes)
        .map(|p| {
            vec![PairFault::plan(
                seed ^ ((lanes as u64) << 32) ^ p as u64,
                mid,
            )]
        })
        .collect();
    System {
        lanes,
        driver,
        traces,
        policies,
        faults,
    }
}

/// What the host-time probes and the ledger need from a system run.
pub struct SystemRun {
    pub outcome: Outcome,
    pub time: Timed,
    pub committed: u64,
    pub makespan_cycles: u64,
    pub l2_requests: u64,
    pub l2_conflict_rate: f64,
    pub l2_stall_cycles: u64,
}

/// Runs the system once (timed by the benchmark's own clock) and checks
/// it: every lane commits its whole trace and recovers from its one
/// fault; at the reference seed the 1000-lane system must reproduce the
/// committed sweep row.
pub fn run(mut sys: System, seed: u64) -> SystemRun {
    let (run, time) = measure(|| {
        catch_unwind(AssertUnwindSafe(|| {
            span("exec.run_system_with_faults", || {
                sys.driver
                    .run_system_with_faults(&mut sys.policies, &sys.traces, &sys.faults)
            })
        }))
    });
    let lanes = sys.lanes as u64;
    let Ok((results, mem)) = run else {
        return SystemRun {
            outcome: Outcome {
                attempted: lanes,
                failed: lanes,
                sim_insts: 0,
                digest: String::new(),
            },
            time,
            committed: 0,
            makespan_cycles: 0,
            l2_requests: 0,
            l2_conflict_rate: 0.0,
            l2_stall_cycles: 0,
        };
    };
    let committed: u64 = results.iter().map(|r| r.out.committed).sum();
    let recoveries: u64 = results.iter().map(|r| r.out.recoveries).sum();
    let makespan = results.iter().map(|r| r.out.cycles).max().unwrap_or(0);
    let (l2_conflict_rate, l2_stall_cycles, l2_requests) = span("mem.l2_contention", || {
        mem.l2_contention()
            .map(|c| (c.conflict_rate(), c.stall_cycles, c.requests))
            .unwrap_or((0.0, 0, 0))
    });
    let mut failed = results
        .iter()
        .filter(|r| r.out.committed != INSTS as u64 || r.out.recoveries != 1)
        .count() as u64;
    if committed != lanes * INSTS as u64 || recoveries != lanes {
        failed = failed.max(1);
    }
    if seed == REFERENCE_SEED
        && sys.lanes == LANES
        && (makespan, l2_requests, l2_stall_cycles) != REFERENCE_ROW
    {
        eprintln!(
            "many_lanes: (makespan, l2_requests, l2_stall_cycles) = {:?}, sweep row has {:?}",
            (makespan, l2_requests, l2_stall_cycles),
            REFERENCE_ROW
        );
        failed = lanes;
    }
    let mut lines: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{} {} {} {}",
                r.out.committed, r.out.cycles, r.out.detections, r.out.recoveries
            )
        })
        .collect();
    lines.push(format!(
        "makespan {makespan} l2_requests {l2_requests} l2_stall_cycles {l2_stall_cycles}"
    ));
    SystemRun {
        outcome: Outcome {
            attempted: lanes,
            failed,
            // Two replicas per pair.
            sim_insts: 2 * committed,
            digest: digest(&lines),
        },
        time,
        committed,
        makespan_cycles: makespan,
        l2_requests,
        l2_conflict_rate,
        l2_stall_cycles,
    }
}

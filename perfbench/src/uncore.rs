//! `uncore_campaign`: the `--bin campaign` uncore strike grid (3 schemes
//! × 6 uncore structures × 8 strikes on 400-instruction gzip under
//! many-core L2 contention), widened across `SEEDS` trace seeds and run
//! through `CampaignEngine::new(1).run_streaming` into a file.
//!
//! Jobs are short (a few hundred microseconds), so the fixed cost of a
//! job — trace memo, golden lookup, driver construction, strike
//! delivery, classification, record rendering, queue and writer —
//! dominates. This is the workload that exercises the fault path.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use unsync_bench::campaign::{normalized_lines, run_job, CampaignEngine, CampaignGrid, JobKind};
use unsync_bench::roec_uncore::{classify_strike_result, run_scheme_with_strikes, SCHEMES};
use unsync_bench::runner::golden_memory_source;
use unsync_bench::Json;
use unsync_exec::RedundantDriver;
use unsync_fault::uncore::StrikePlan;
use unsync_fault::FaultKind;
use unsync_isa::TraceProgram;
use unsync_mem::L2ContentionConfig;
use unsync_sim::CoreConfig;
use unsync_workloads::{Benchmark, WorkloadSource, WorkloadSpec};

use crate::span::span;
use crate::{digest, measure, Outcome, Timed};

/// Trace seeds per grid: 17280 jobs, so that one pass lasts several
/// seconds. Shorter passes land wholly inside a slow or a fast spell of
/// a shared host, and their median over a run swings between the two.
pub const SEEDS: u64 = 120;
const INSTS: u64 = 400;
const STRIKES_PER_CELL: u64 = 8;

/// The uncore grid over `seeds` consecutive trace seeds from `seed`.
pub fn grid(seed: u64, seeds: u64) -> CampaignGrid {
    CampaignGrid {
        name: "campaign_uncore".into(),
        inst_count: INSTS,
        seeds: (seed..seed + seeds).collect(),
        workloads: vec![WorkloadSpec::Synthetic(Benchmark::Gzip)],
        schemes: SCHEMES.to_vec(),
        strikes: Some(StrikePlan::all_uncore(STRIKES_PER_CELL, INSTS * 2)),
        contention: Some(L2ContentionConfig::many_core()),
    }
}

/// Replicas a scheme runs, for the simulated instruction count.
fn replicas(scheme: &str) -> u64 {
    match scheme {
        "unsync_pair" => 2,
        "tmr_vote" => 3,
        "secded_only" => 1,
        other => panic!("scheme {other} is not in the uncore grid"),
    }
}

/// Replica instructions the grid simulates: every strike run executes
/// its whole trace on each replica.
fn sim_insts(grid: &CampaignGrid) -> u64 {
    let per_seed_scheme = grid.strikes.as_ref().map_or(1, StrikePlan::len) as u64;
    let per_seed: u64 = grid.schemes.iter().map(|s| replicas(s)).sum::<u64>() * per_seed_scheme;
    per_seed * grid.seeds.len() as u64 * grid.workloads.len() as u64 * grid.inst_count
}

/// Expands the grid and warms the golden memo of every trace.
pub fn setup(grid: &CampaignGrid) -> usize {
    let jobs = grid.expand();
    for &workload in &grid.workloads {
        for &seed in &grid.seeds {
            golden_memory_source(&workload.source(grid.inst_count, seed));
        }
    }
    jobs.len()
}

/// Checks a run log against the grid: one valid record per job, and
/// the digest of the normalized header and records.
fn check(grid: &CampaignGrid, text: &str) -> (u64, String) {
    let lines = normalized_lines(text);
    let valid = lines
        .iter()
        .skip(1)
        .filter(|l| {
            Json::parse(l).is_ok_and(|j| {
                j.get("kind").and_then(Json::as_str) == Some("record")
                    && j.get("outcome").and_then(Json::as_str).is_some()
            })
        })
        .count();
    let failed = grid.len().saturating_sub(valid) as u64;
    (failed, digest(&lines))
}

/// Runs the grid through the engine at one worker into `path`, which is
/// removed first (the engine would otherwise resume from it). Returns
/// the outcome and the engine run's time by the benchmark's own clocks.
pub fn timed(grid: &CampaignGrid, path: &Path) -> (Outcome, Timed) {
    let _ = fs::remove_file(path);
    let (run, time) = measure(|| {
        catch_unwind(AssertUnwindSafe(|| {
            CampaignEngine::new(1).run_streaming(grid, path)
        }))
    });
    let attempted = grid.len() as u64;
    let (failed, digest) = match run {
        Ok(Ok(_)) => {
            let text = fs::read_to_string(path).unwrap_or_default();
            check(grid, &text)
        }
        Ok(Err(e)) => {
            eprintln!("campaign engine: {e}");
            (attempted, String::new())
        }
        Err(_) => (attempted, String::new()),
    };
    let _ = fs::remove_file(path);
    let outcome = Outcome {
        attempted,
        failed,
        sim_insts: sim_insts(grid),
        digest,
    };
    (outcome, time)
}

/// Per-job host times of the traced pass, microseconds.
#[derive(Default)]
pub struct JobTimes {
    pub strike_run_us: Vec<f64>,
    pub classify_us: Vec<f64>,
}

/// The traced pass: the grid's jobs in grid order on this thread, with
/// a span around every call into a layer. Records are rendered exactly
/// as the engine renders them; [`check_traced`] digests them.
pub fn traced(grid: &CampaignGrid, times: &mut JobTimes) -> Vec<String> {
    let jobs = span("bench.campaign.expand", || grid.expand());
    let memo: Vec<(u64, TraceProgram)> = grid
        .seeds
        .iter()
        .map(|&seed| {
            let source = grid.workloads[0].source(grid.inst_count, seed);
            (seed, span("workloads.trace", || source.trace()))
        })
        .collect();
    let plan = grid.strikes.as_ref().expect("the uncore grid has a plan");
    let contention = grid.contention.expect("the uncore grid is contended");
    let mut lines = vec![grid.header_line()];
    for job in jobs {
        let JobKind::Strike { target, index } = job.kind else {
            panic!("the uncore grid has only strike jobs");
        };
        let trace = &memo
            .iter()
            .find(|(s, _)| *s == job.seed)
            .expect("every seed has a trace")
            .1;
        let strike = span("fault.strike_plan", || {
            plan.strike(target, index, job.stream_seed(), 0)
        });
        let golden = span("bench.runner.golden_lookup", || {
            golden_memory_source(&job.workload.source(job.inst_count, job.seed))
        });
        let driver = span("exec.driver_new", || {
            RedundantDriver::new(CoreConfig::table1()).with_l2_contention(contention)
        });
        let started = Instant::now();
        // `run_scheme_with_strikes` only picks the scheme's policy and
        // calls `RedundantDriver::run_campaign_lane`, so its time is the
        // driver's.
        let result = span("exec.run_campaign_lane", || {
            run_scheme_with_strikes(&driver, job.scheme, trace, vec![strike], Some(&golden))
        });
        times
            .strike_run_us
            .push(started.elapsed().as_secs_f64() * 1e6);
        let started = Instant::now();
        let (outcome, memory_matches) = span("fault.classify", || {
            classify_strike_result(&result, &golden)
        });
        times
            .classify_us
            .push(started.elapsed().as_secs_f64() * 1e6);
        let line = span("bench.campaign.record", || {
            Json::obj()
                .field("kind", "record")
                .field("row", job.id)
                .field("workload", job.workload.name())
                .field("inst_count", job.inst_count)
                .field("seed", job.seed)
                .field("scheme", job.scheme)
                .field("job", "strike")
                .field("structure", target.label())
                .field("strike", index)
                .field("cycle", strike.cycle)
                .field("bit_offset", strike.site.bit_offset)
                .field(
                    "fault_kind",
                    match strike.kind {
                        FaultKind::Single => "single",
                        FaultKind::AdjacentDouble => "double",
                    },
                )
                .field("directed", u64::from(strike.directed))
                .field("outcome", outcome.label())
                .field("detections", result.out.detections)
                .field("recoveries", result.out.recoveries)
                .field("memory_matches", u64::from(memory_matches))
                .render()
        });
        lines.push(line);
    }
    lines
}

/// Checks the traced pass's lines as the timed pass's log is checked.
pub fn check_traced(grid: &CampaignGrid, lines: &[String]) -> Outcome {
    let (failed, digest) = check(grid, &lines.join("\n"));
    Outcome {
        attempted: grid.len() as u64,
        failed,
        sim_insts: sim_insts(grid),
        digest,
    }
}

/// Host time of each job of a sequential `campaign::run_job` pass over
/// the grid (the library's per-job entry point, golden reused),
/// microseconds.
pub fn run_job_pass(grid: &CampaignGrid) -> Vec<f64> {
    grid.expand()
        .into_iter()
        .map(|job| {
            let started = Instant::now();
            std::hint::black_box(run_job(grid, job, true));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

//! The per-layer probes of the traced run: host time per simulated
//! instruction (or per fault, lane-cycle, job, scope) of each layer's
//! public entry point, measured from the benchmark's own clock on fixed
//! inputs derived from the seed. Every traced run reports every probe,
//! whatever its workload.

use std::path::Path;
use std::time::Instant;

use unsync_core::{UnsyncConfig, UnsyncPair};
use unsync_isa::golden_run;
use unsync_reunion::{ReunionConfig, ReunionHooks, ReunionPair};
use unsync_sim::{metrics, run_baseline, CoreConfig};
use unsync_workloads::{Benchmark, SyntheticSource, WorkloadSource};

use crate::{lanes, paper, uncore};

/// Repetitions of each per-instruction probe; the median is reported.
const REPS: usize = 5;
/// Trace seeds of the uncore probe grid (1440 jobs, so the p99 has more
/// than ten samples beyond it).
const PROBE_SEEDS: u64 = 10;
/// Engine runs (each followed by a `run_job` pass) of the probe grid.
const ENGINE_REPS: usize = 3;
/// `obs::prof::scope` enter/exit pairs timed.
const PROF_SCOPES: u64 = 1_000_000;

pub type Metrics = Vec<(String, f64)>;

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted-in-place `values`.
fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median host seconds of `REPS` calls of `f`, each given a fresh input
/// from `input` built outside the timer.
fn time_median<I, T>(mut input: impl FnMut() -> I, mut f: impl FnMut(I) -> T) -> f64 {
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let i = input();
            let started = Instant::now();
            std::hint::black_box(f(i));
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut times)
}

/// Median host seconds of the fault-free run `clean`, and the median
/// extra seconds of `faulty` over it. The two alternate, and each
/// difference is taken within one repetition, so a slow spell of the
/// host lands on both sides of it.
fn paired<T, U>(mut clean: impl FnMut() -> T, mut faulty: impl FnMut() -> U) -> (f64, f64) {
    let (mut base, mut extra) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let started = Instant::now();
        std::hint::black_box(clean());
        let clean_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        std::hint::black_box(faulty());
        extra.push(started.elapsed().as_secs_f64() - clean_s);
        base.push(clean_s);
    }
    (median(&mut base), median(&mut extra))
}

/// Per-instruction costs of the single-trace layers on gzip at the
/// paper's trace length.
fn trace_layers(seed: u64, out: &mut Metrics) {
    let n = paper::INSTS;
    let source = SyntheticSource::new(Benchmark::Gzip, n, seed);
    let trace = source.trace();
    let golden = golden_run(&trace).1;
    let faults = paper::ser_faults(n);
    let k = faults.len() as f64;
    let ns_per_inst = |s: f64| s * 1e9 / n as f64;

    let trace_s = time_median(|| (), |()| source.trace());
    let golden_s = time_median(|| (), |()| golden_run(&trace));
    let baseline_s = time_median(
        || trace.clone(),
        |mut t| run_baseline(CoreConfig::table1(), &mut t),
    );
    let stream_s = time_median(
        || {
            (
                trace.clone(),
                ReunionHooks::new(ReunionConfig::paper_baseline()),
            )
        },
        |(mut t, mut hooks)| {
            unsync_sim::run_stream(
                CoreConfig::table1(),
                &mut t,
                &mut hooks,
                unsync_mem::WritePolicy::WriteThrough,
            )
        },
    );
    let unsync = UnsyncPair::new(CoreConfig::table1(), UnsyncConfig::paper_baseline());
    let (unsync_s, unsync_fault_s) = paired(
        || unsync.run_with_golden(&trace, &[], Some(&golden)),
        || unsync.run_with_golden(&trace, &faults, Some(&golden)),
    );
    let reunion = ReunionPair::new(CoreConfig::table1(), ReunionConfig::paper_baseline());
    let (reunion_s, reunion_fault_s) = paired(
        || reunion.run_with_golden(&trace, &[], Some(&golden)),
        || reunion.run_with_golden(&trace, &faults, Some(&golden)),
    );

    out.push(("workloads.trace_ns_per_inst".into(), ns_per_inst(trace_s)));
    out.push(("isa.golden_ns_per_inst".into(), ns_per_inst(golden_s)));
    out.push(("sim.baseline_ns_per_inst".into(), ns_per_inst(baseline_s)));
    out.push((
        "sim.reunion_stream_ns_per_inst".into(),
        ns_per_inst(stream_s),
    ));
    out.push(("core.unsync_pair_ns_per_inst".into(), ns_per_inst(unsync_s)));
    out.push((
        "core.recovery_us_per_fault".into(),
        unsync_fault_s * 1e6 / k,
    ));
    out.push(("reunion.pair_ns_per_inst".into(), ns_per_inst(reunion_s)));
    out.push((
        "reunion.rollback_us_per_fault".into(),
        reunion_fault_s * 1e6 / k,
    ));
    out.push((
        "exec.pair_overhead_ns_per_inst".into(),
        ns_per_inst(unsync_s - 2.0 * baseline_s),
    ));
}

/// Host cost of the contended many-lane system at 256 and 1000 lanes,
/// and the shared-L2 counts of the 1000-lane run.
fn system_layers(seed: u64, out: &mut Metrics) {
    for lanes in [256, lanes::LANES] {
        let run = lanes::run(lanes::setup(seed, lanes), seed);
        let wall_ns = run.time.wall_s * 1e9;
        out.push((
            format!("exec.system{lanes}_ns_per_lane_cycle"),
            wall_ns / (lanes as f64 * run.makespan_cycles as f64),
        ));
        out.push((
            format!("exec.system{lanes}_ns_per_inst"),
            wall_ns / (2 * run.committed) as f64,
        ));
        if lanes == lanes::LANES {
            out.push(("mem.l2_requests".into(), run.l2_requests as f64));
            out.push(("mem.l2_conflict_rate".into(), run.l2_conflict_rate));
            out.push(("mem.l2_stall_cycles".into(), run.l2_stall_cycles as f64));
        }
    }
}

/// Per-job costs of the uncore campaign path on a `PROBE_SEEDS`-seed
/// grid: the strike run and classification of a sequential pass, the
/// library's `run_job`, and the engine's share of its own wall time.
fn campaign_layers(seed: u64, scratch: &Path, out: &mut Metrics) {
    let grid = uncore::grid(seed, PROBE_SEEDS);
    uncore::setup(&grid);
    let mut times = uncore::JobTimes::default();
    uncore::traced(&grid, &mut times);
    let n = times.strike_run_us.len() as f64;
    out.push((
        "fault.strike_run_us_p50".into(),
        percentile(&mut times.strike_run_us, 50.0),
    ));
    out.push((
        "fault.strike_run_us_p99".into(),
        percentile(&mut times.strike_run_us, 99.0),
    ));
    out.push(("fault.strike_run_n".into(), n));
    out.push((
        "fault.classify_us".into(),
        percentile(&mut times.classify_us, 50.0),
    ));

    // The engine's share of its own wall time, against a sequential
    // `run_job` pass over the same grid; the two alternate so that a
    // slow spell of the host lands on both.
    let mut job_us = Vec::new();
    let mut shares = Vec::new();
    for _ in 0..ENGINE_REPS {
        let (_, engine) = uncore::timed(&grid, &scratch.join("probe_campaign.jsonl"));
        let pass = uncore::run_job_pass(&grid);
        shares.push(1.0 - pass.iter().sum::<f64>() * 1e-6 / engine.wall_s);
        job_us.extend(pass);
    }
    out.push((
        "bench.campaign.job_us_p50".into(),
        percentile(&mut job_us, 50.0),
    ));
    out.push((
        "bench.campaign.job_us_p99".into(),
        percentile(&mut job_us, 99.0),
    ));
    out.push(("bench.campaign.job_n".into(), job_us.len() as f64));
    out.push((
        "bench.campaign.engine_overhead_share".into(),
        median(&mut shares),
    ));
    let m = metrics::global();
    out.push((
        "bench.campaign.backpressure_stalls".into(),
        m.counter("campaign.backpressure_stalls").get() as f64,
    ));
    out.push((
        "bench.campaign.steals".into(),
        m.counter("campaign.steals").get() as f64,
    ));
}

/// Cost of one `obs::prof::scope` enter and exit.
fn prof_scope(out: &mut Metrics) {
    let started = Instant::now();
    for _ in 0..PROF_SCOPES {
        let _t = std::hint::black_box(unsync_obs::prof::scope("perfbench.probe"));
    }
    out.push((
        "obs.prof_scope_ns".into(),
        started.elapsed().as_secs_f64() * 1e9 / PROF_SCOPES as f64,
    ));
}

/// Memo hit ratios over the whole traced process, with their bases.
fn memo_ratios(out: &mut Metrics) {
    let m = metrics::global();
    for memo in ["golden", "baseline"] {
        let hits = m.counter(&format!("runner.{memo}_cache_hits")).get() as f64;
        let runs = m.counter(&format!("runner.{memo}_sim_runs")).get() as f64;
        let base = hits + runs;
        out.push((
            format!("bench.runner.{memo}_hit_ratio"),
            if base > 0.0 { hits / base } else { 0.0 },
        ));
        out.push((format!("bench.runner.{memo}_lookups"), base));
    }
}

/// Every probe of the ledger.
pub fn probes(seed: u64, scratch: &Path) -> Metrics {
    let mut out = Metrics::new();
    trace_layers(seed, &mut out);
    system_layers(seed, &mut out);
    campaign_layers(seed, scratch, &mut out);
    prof_scope(&mut out);
    memo_ratios(&mut out);
    out
}

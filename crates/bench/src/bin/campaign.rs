//! The batched campaign driver: runs a roec-style uncore strike grid
//! and a scheme-comparator grid through the streaming
//! [`unsync_bench::campaign`] engine, benchmarks the engine against
//! the sequential `run_collected` reference at 1/2/8 workers, asserts
//! the normalized JSONL is byte-identical across all of them, and
//! writes `BENCH_campaign.json`.
//!
//! Canonical JSONL logs land in the results directory as
//! `campaign_uncore.jsonl` / `campaign_compare.jsonl` (the dashboard
//! renders their meta lines as the campaign table); intermediate
//! 1/2-worker runs use a `.partial` suffix the dashboard ignores and
//! are deleted before exit.
//!
//! Environment knobs: `UNSYNC_SEED` (base seed, default 11),
//! `UNSYNC_CAMPAIGN_SMOKE=1` (tiny CI grids),
//! `UNSYNC_CAMPAIGN_RESUME_ONLY=1` (skip the benchmark sweep; resume
//! the canonical logs in place — the CI kill-then-resume check),
//! `UNSYNC_CAMPAIGN_OUT` (summary path, default
//! `BENCH_campaign.json`), `UNSYNC_WORKERS` (resume-only worker
//! count), and `UNSYNC_RESULTS_DIR`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use unsync_bench::campaign::{normalized_lines, run_collected, CampaignEngine, CampaignGrid};
use unsync_bench::roec_uncore::SCHEMES;
use unsync_bench::runlog::{self, metrics_snapshot_json, Json};
use unsync_bench::{Runner, Scheme};
use unsync_fault::uncore::StrikePlan;
use unsync_mem::L2ContentionConfig;
use unsync_workloads::WorkloadSpec;

/// Where the machine-readable summary lands (workspace root under CI).
const DEFAULT_OUT_PATH: &str = "BENCH_campaign.json";

/// Engine worker counts benchmarked, last one canonical
/// (`UNSYNC_CAMPAIGN_SWEEP`, comma-separated, overrides).
const WORKER_SWEEP: [usize; 3] = [1, 2, 8];

fn worker_sweep() -> Vec<usize> {
    let Ok(raw) = std::env::var("UNSYNC_CAMPAIGN_SWEEP") else {
        return WORKER_SWEEP.to_vec();
    };
    let parsed: Vec<usize> = raw
        .split(',')
        .filter_map(|p| p.trim().parse().ok())
        .filter(|&w| w > 0)
        .collect();
    if parsed.is_empty() {
        WORKER_SWEEP.to_vec()
    } else {
        parsed
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v.trim() == "1")
}

fn workload(name: &str) -> WorkloadSpec {
    WorkloadSpec::parse(name).expect("campaign workload list is static")
}

/// The roec-style reference grid: every uncore structure struck under
/// the three bracketing schemes, shared-L2 contention on.
fn uncore_grid(seed: u64, smoke: bool) -> CampaignGrid {
    let (inst_count, strikes_per_cell) = if smoke { (120, 1) } else { (400, 8) };
    CampaignGrid {
        name: "campaign_uncore".into(),
        inst_count,
        seeds: vec![seed],
        workloads: vec![workload("gzip")],
        schemes: SCHEMES.to_vec(),
        strikes: Some(StrikePlan::all_uncore(strikes_per_cell, inst_count * 2)),
        contention: Some(L2ContentionConfig::many_core()),
    }
}

/// The scheme-comparator grid: fault-free overhead of every comparator
/// across workloads × seeds.
fn compare_grid(seed: u64, smoke: bool) -> CampaignGrid {
    if smoke {
        CampaignGrid {
            name: "campaign_compare".into(),
            inst_count: 120,
            seeds: vec![seed],
            workloads: vec![workload("gzip")],
            schemes: vec!["lockstep", "unsync_pair", "tmr_vote"],
            strikes: None,
            contention: None,
        }
    } else {
        CampaignGrid {
            name: "campaign_compare".into(),
            inst_count: 400,
            seeds: vec![seed, seed + 1],
            workloads: vec![workload("gzip"), workload("kernel:qsort")],
            schemes: Scheme::ALL.map(Scheme::label).to_vec(),
            strikes: None,
            contention: None,
        }
    }
}

/// The memo-cache counters each grid row reports, as (summary field,
/// metrics counter).
const CACHE_COUNTERS: [(&str, &str); 4] = [
    ("baseline_sim_runs", "runner.baseline_sim_runs"),
    ("baseline_cache_hits", "runner.baseline_cache_hits"),
    ("golden_sim_runs", "runner.golden_sim_runs"),
    ("golden_cache_hits", "runner.golden_cache_hits"),
];

/// Reads one counter out of a rendered metrics snapshot.
fn counter(metrics: &Json, name: &str) -> u64 {
    metrics.get(name).and_then(Json::as_u64).unwrap_or(0)
}

/// The median sample, in milliseconds.
fn median_ms(samples: &mut [Duration]) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

fn repeats(smoke: bool) -> usize {
    env_u64("UNSYNC_CAMPAIGN_REPEATS")
        .map(|n| n.max(1) as usize)
        .unwrap_or(if smoke { 1 } else { 3 })
}

/// Benchmarks one grid: sequential reference, then the engine at each
/// sweep worker count (canonical run last, into `<name>.jsonl`),
/// asserting every normalized output equals the reference. Returns the
/// grid's summary row, whose cache counts are this grid's own.
fn bench_grid(grid: &CampaignGrid, smoke: bool) -> Json {
    let counters_before = metrics_snapshot_json();
    let dir = runlog::results_dir();
    let reps = repeats(smoke);
    println!(
        "grid {}: {} jobs ({} insts, median of {reps})",
        grid.name,
        grid.len(),
        grid.inst_count
    );

    // Single-thread sequential reference (pre-engine cost model): the
    // normalized-output oracle every other path must match.
    let mut seq_samples = Vec::new();
    let mut reference = Vec::new();
    for _ in 0..reps {
        let started = Instant::now();
        reference = normalized_lines(&run_collected(grid).join("\n"));
        seq_samples.push(started.elapsed());
    }
    let seq_ms = median_ms(&mut seq_samples);
    println!("  sequential loop: {seq_ms:.2} ms");

    let sweep = worker_sweep();
    let mut engine_rows = Vec::new();
    for (i, &workers) in sweep.iter().enumerate() {
        let canonical = i == sweep.len() - 1;
        let path = if canonical {
            dir.join(format!("{}.jsonl", grid.name))
        } else {
            dir.join(format!("{}.w{workers}.partial", grid.name))
        };
        let mut samples = Vec::new();
        let mut jobs_per_sec = 0.0f64;
        for _ in 0..reps {
            let _ = std::fs::remove_file(&path);
            let report = match CampaignEngine::new(workers).run_streaming(grid, &path) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("error: campaign {} failed: {e}", grid.name);
                    std::process::exit(1);
                }
            };
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            if normalized_lines(&text) != reference {
                eprintln!(
                    "error: {} at {workers} workers diverged from the sequential reference",
                    grid.name
                );
                std::process::exit(1);
            }
            samples.push(report.wall);
            jobs_per_sec = jobs_per_sec.max(report.jobs_per_sec());
        }
        let ms = median_ms(&mut samples);
        println!(
            "  engine x{workers}: {ms:.2} ms (best {jobs_per_sec:.1} jobs/sec){}",
            if canonical { "  [canonical]" } else { "" }
        );
        engine_rows.push(
            Json::obj()
                .field("workers", workers as u64)
                .field("ms", ms)
                .field("jobs_per_sec", jobs_per_sec),
        );
        if !canonical {
            let _ = std::fs::remove_file(&path);
        }
    }

    let counters_after = metrics_snapshot_json();
    let mut row = Json::obj()
        .field("name", grid.name.as_str())
        .field("jobs", grid.len() as u64)
        .field("seq_ms", seq_ms)
        .field("engine", Json::Arr(engine_rows));
    for (field, name) in CACHE_COUNTERS {
        row = row.field(
            field,
            counter(&counters_after, name) - counter(&counters_before, name),
        );
    }
    row
}

/// Resume-only mode: continue the canonical logs in place (used by the
/// CI kill-then-resume check). No benchmarking, no summary JSON.
fn resume_only(grids: &[CampaignGrid]) {
    let dir = runlog::results_dir();
    let workers = Runner::from_env().workers();
    for grid in grids {
        let path = dir.join(format!("{}.jsonl", grid.name));
        match CampaignEngine::new(workers).run_streaming(grid, &path) {
            Ok(report) => println!(
                "resumed {}: {} done, {} run, {} skipped",
                path.display(),
                report.jobs_total,
                report.jobs_run,
                report.jobs_skipped
            ),
            Err(e) => {
                eprintln!("error: resume {} failed: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

fn main() {
    let seed = env_u64("UNSYNC_SEED").unwrap_or(11);
    let smoke = env_flag("UNSYNC_CAMPAIGN_SMOKE");
    let grids = [uncore_grid(seed, smoke), compare_grid(seed, smoke)];

    if env_flag("UNSYNC_CAMPAIGN_RESUME_ONLY") {
        resume_only(&grids);
        runlog::export_metrics();
        return;
    }

    let rows: Vec<Json> = grids.iter().map(|g| bench_grid(g, smoke)).collect();

    let out_path = std::env::var("UNSYNC_CAMPAIGN_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(DEFAULT_OUT_PATH));
    let doc = Json::obj()
        .field("schema", 1u64)
        .field("seed", seed)
        .field("smoke", u64::from(smoke))
        .field("grids", Json::Arr(rows));
    let mut text = doc.render();
    text.push('\n');
    match std::fs::write(&out_path, &text) {
        Ok(()) => println!("wrote {}", out_path.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", out_path.display());
            std::process::exit(1);
        }
    }
    runlog::export_metrics();
}

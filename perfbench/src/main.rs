//! One measured process of the unsync benchmark (see `README.md`).
//!
//! ```text
//! perfbench <workload> <seed> <pass|setup|probe|trace> <scratch-dir>
//! ```
//!
//! * `pass` sets the workload up, runs its timed section once on one
//!   worker, checks the output and prints one JSON record.
//! * `setup` only sets the workload up and prints its set-up time.
//! * `probe` times the fixed host-speed probes (see [`host_probe`]).
//! * `trace` runs the traced variant of the timed section with a span
//!   around every call into a layer, then the per-layer probes, writes
//!   the spans to `<scratch-dir>` and prints one JSON record.
//!
//! Each process measures one pass: the runner's baseline and golden
//! memos live for the whole process, so a second pass in the same
//! process would measure a different program. `run.py` starts the
//! processes and reports medians.

mod lanes;
mod ledger;
mod paper;
mod span;
mod uncore;

use std::path::{Path, PathBuf};
use std::time::Instant;

use unsync_bench::Json;
use unsync_isa::exec::splitmix64;
use unsync_sim::metrics;

/// The checked result of one timed (or traced) section.
pub struct Outcome {
    /// Operations attempted: experiment calls, jobs or lanes.
    pub attempted: u64,
    /// Operations that panicked or produced wrong output.
    pub failed: u64,
    /// Simulated instructions committed across every replica.
    pub sim_insts: u64,
    /// Digest of the deterministic output.
    pub digest: String,
}

/// FNV-1a (64-bit) over the lines, newline-separated, as 16 hex digits.
pub fn digest(lines: &[String]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    PaperFigs,
    UncoreCampaign,
    ManyLanes,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper_figs" => Some(Workload::PaperFigs),
            "uncore_campaign" => Some(Workload::UncoreCampaign),
            "many_lanes" => Some(Workload::ManyLanes),
            _ => None,
        }
    }
}

/// What set-up leaves for the timed section.
enum Prepared {
    PaperFigs,
    UncoreCampaign(unsync_bench::CampaignGrid),
    ManyLanes(lanes::System),
}

fn setup(workload: Workload, seed: u64) -> Prepared {
    match workload {
        Workload::PaperFigs => {
            paper::setup(seed);
            Prepared::PaperFigs
        }
        Workload::UncoreCampaign => {
            let grid = uncore::grid(seed, uncore::SEEDS);
            uncore::setup(&grid);
            Prepared::UncoreCampaign(grid)
        }
        Workload::ManyLanes => Prepared::ManyLanes(lanes::setup(seed, lanes::LANES)),
    }
}

/// Process user+sys CPU seconds, all threads, from `/proc/self/stat`
/// (fields 14 and 15, in USER_HZ = 100 ticks per second on Linux).
fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // After ')': state is field 3, so utime (14) and stime (15) sit at 11 and 12.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .unwrap_or_default()
        .split_whitespace()
        .take(3)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Fixed host-speed probes, run in a process of their own outside every
/// measured one: milliseconds of an integer-only loop, of a dependent
/// random walk over 32 MiB, and of branchy cache-resident work (a sort
/// and ordered-map inserts, closest to the simulator's own mix). A slow
/// spell of the host shows in them, so a noisy run can be traced to the
/// box rather than the code.
fn host_probe() -> Json {
    let started = Instant::now();
    let mut x = 0u64;
    for i in 0..10_000_000u64 {
        x = splitmix64(x ^ i);
    }
    std::hint::black_box(x);
    let alu_ms = started.elapsed().as_secs_f64() * 1e3;

    // Sattolo's shuffle: one cycle through every slot, so the walk
    // touches the whole array in an order the prefetcher cannot follow.
    let n = 8 << 20;
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut h = 0x5eed_u64;
    for i in (1..n).rev() {
        h = splitmix64(h);
        next.swap(i, (h % i as u64) as usize);
    }
    let started = Instant::now();
    let mut at = 0u32;
    for _ in 0..1_000_000 {
        at = next[at as usize];
    }
    std::hint::black_box(at);
    let mem_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut keys: Vec<u64> = (0..1u64 << 20).map(|i| splitmix64(i ^ h)).collect();
    let started = Instant::now();
    keys.sort_unstable();
    let map: std::collections::BTreeMap<u64, u64> = keys
        .iter()
        .step_by(8)
        .map(|&k| (k.rotate_left(17), k))
        .collect();
    std::hint::black_box(map.len());
    let mix_ms = started.elapsed().as_secs_f64() * 1e3;
    Json::obj()
        .field("mode", "probe")
        .field("alu_ms", alu_ms)
        .field("mem_ms", mem_ms)
        .field("mix_ms", mix_ms)
        .field("loadavg", loadavg())
}

/// Host wall and CPU seconds of one measured section.
#[derive(Clone, Copy)]
pub struct Timed {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `f`, timing it by the benchmark's own clocks.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let cpu0 = cpu_s();
    let started = Instant::now();
    let out = f();
    let wall_s = started.elapsed().as_secs_f64();
    let time = Timed {
        wall_s,
        cpu_s: cpu_s() - cpu0,
    };
    (out, time)
}

fn counter(name: &str) -> u64 {
    metrics::global().counter(name).get()
}

fn outcome_fields(rec: Json, out: Outcome) -> Json {
    rec.field("attempted", out.attempted)
        .field("failed", out.failed)
        .field("sim_insts", out.sim_insts)
        .field("digest", out.digest)
}

/// Runs the timed section of a prepared workload: the checked outcome
/// and the time of the section alone.
fn timed(prepared: Prepared, seed: u64, scratch: &Path) -> (Outcome, Timed) {
    match prepared {
        Prepared::PaperFigs => measure(|| paper::timed(seed)),
        Prepared::UncoreCampaign(grid) => {
            let path = scratch.join(format!("uncore_campaign_{}.jsonl", std::process::id()));
            uncore::timed(&grid, &path)
        }
        Prepared::ManyLanes(sys) => {
            let run = lanes::run(sys, seed);
            (run.outcome, run.time)
        }
    }
}

fn pass(workload: Workload, name: &str, seed: u64, scratch: &Path) -> Json {
    let started = Instant::now();
    let prepared = setup(workload, seed);
    let setup_s = started.elapsed().as_secs_f64();
    let baseline_runs = counter("runner.baseline_sim_runs");
    let golden_runs = counter("runner.golden_sim_runs");
    let (outcome, time) = timed(prepared, seed, scratch);
    let rec = Json::obj()
        .field("workload", name)
        .field("seed", seed)
        .field("mode", "pass")
        .field("setup_s", setup_s)
        .field("wall_s", time.wall_s)
        .field("cpu_s", time.cpu_s)
        .field("cpu_per_wall", time.cpu_s / time.wall_s)
        .field("peak_rss_mb", peak_rss_mb())
        .field(
            "timed_baseline_sim_runs",
            counter("runner.baseline_sim_runs") - baseline_runs,
        )
        .field(
            "timed_golden_sim_runs",
            counter("runner.golden_sim_runs") - golden_runs,
        )
        .field("loadavg", loadavg());
    outcome_fields(rec, outcome)
}

/// Empty spans timed to price one span.
const SPAN_COST_SAMPLES: u64 = 100_000;

fn traced(workload: Workload, name: &str, seed: u64, scratch: &Path) -> Json {
    let prepared = setup(workload, seed);
    span::reset();
    let started = Instant::now();
    let outcome = span::span("bench.workload", || match prepared {
        Prepared::PaperFigs => paper::traced(seed),
        Prepared::UncoreCampaign(grid) => {
            let lines = uncore::traced(&grid, &mut uncore::JobTimes::default());
            uncore::check_traced(&grid, &lines)
        }
        Prepared::ManyLanes(sys) => lanes::run(sys, seed).outcome,
    });
    let traced_wall_s = started.elapsed().as_secs_f64();
    let spans = span::take();
    // The recorder's own cost per span, for the tracing overhead.
    let started = Instant::now();
    for _ in 0..SPAN_COST_SAMPLES {
        span::span("bench.span_cost", || ());
    }
    let span_cost_ns = started.elapsed().as_secs_f64() * 1e9 / SPAN_COST_SAMPLES as f64;
    span::reset();
    let spans_path = scratch.join(format!("spans_{name}_{seed}.jsonl"));
    if let Err(e) = std::fs::write(&spans_path, span::write_jsonl(&spans)) {
        eprintln!("perfbench: writing {}: {e}", spans_path.display());
    }

    let mut rec = Json::obj()
        .field("workload", name)
        .field("seed", seed)
        .field("mode", "trace")
        .field("traced_wall_s", traced_wall_s)
        .field("spans", spans.len() as u64)
        .field("span_cost_ns", span_cost_ns)
        .field("spans_file", spans_path.display().to_string());
    let mut self_sum = 0.0;
    let mut layers = Json::obj();
    for (layer, (self_s, calls)) in span::ledger(&spans) {
        self_sum += self_s;
        layers = layers.field(
            layer,
            Json::obj().field("self_s", self_s).field("calls", calls),
        );
    }
    rec = rec.field("layers", layers).field("self_sum_s", self_sum);
    let mut probes = Json::obj();
    for (k, v) in ledger::probes(seed, scratch) {
        probes = probes.field(&k, v);
    }
    rec = rec.field("probes", probes);
    outcome_fields(rec, outcome)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let usage = "usage: perfbench <paper_figs|uncore_campaign|many_lanes> <seed> <pass|setup|probe|trace> <scratch-dir>";
    let (Some(name), Some(seed), Some(mode), Some(scratch)) =
        (args.get(1), args.get(2), args.get(3), args.get(4))
    else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let (Some(workload), Ok(seed)) = (Workload::parse(name), seed.parse::<u64>()) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let scratch = PathBuf::from(scratch);
    let rec = match mode.as_str() {
        "pass" => pass(workload, name, seed, &scratch),
        "setup" => {
            let started = Instant::now();
            let prepared = setup(workload, seed);
            let setup_s = started.elapsed().as_secs_f64();
            drop(prepared);
            Json::obj()
                .field("workload", name.as_str())
                .field("seed", seed)
                .field("mode", "setup")
                .field("setup_s", setup_s)
        }
        "trace" => traced(workload, name, seed, &scratch),
        "probe" => host_probe(),
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    println!("{}", rec.render());
}

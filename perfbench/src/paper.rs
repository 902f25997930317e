//! `paper_figs`: the paper's evaluation (Tables II/III, Figs. 4–6, the
//! SER sweep and ROEC) at `ExperimentConfig::default()` length, on one
//! worker.
//!
//! The timed pass calls `experiments::*_on` exactly as `--bin all`
//! does. The traced pass repeats the same experiments with a span
//! around every call into a layer; its records must digest to the same
//! value as the timed pass's, which keeps the two in step.

use std::panic::{catch_unwind, AssertUnwindSafe};

use unsync_bench::experiments::{self, RoecArchStats, RoecReport, FIG5_POINTS, FIG6_SIZES};
use unsync_bench::{render, Fig4Row, Fig5Cell, Fig6Row, Json, RunLog, Runner, SerSweep};
use unsync_core::{UnsyncConfig, UnsyncPair};
use unsync_fault::{Coverage, FaultKind, FaultSite, FaultTarget, PairFault, SerRate};
use unsync_isa::TraceProgram;
use unsync_reunion::{ReunionConfig, ReunionHooks, ReunionPair};
use unsync_sim::CoreConfig;
use unsync_workloads::{Benchmark, SyntheticSource, WorkloadSource};

use crate::span::span;
use crate::{digest, Outcome};

/// Instructions per trace: `ExperimentConfig::default()`.
pub const INSTS: u64 = 100_000;

const FIG5_BENCHES: [Benchmark; 4] = [
    Benchmark::Ammp,
    Benchmark::Galgel,
    Benchmark::Sha,
    Benchmark::Bzip2,
];
const FIG6_BENCHES: [Benchmark; 3] = [Benchmark::Qsort, Benchmark::Rijndael, Benchmark::Bzip2];
const SER_BENCHES: [Benchmark; 5] = [
    Benchmark::Bzip2,
    Benchmark::Gzip,
    Benchmark::Ammp,
    Benchmark::Galgel,
    Benchmark::Sha,
];
/// Fault campaigns per architecture in the ROEC study (as `--bin all`).
const ROEC_CAMPAIGNS: u64 = 40;
/// Recoverable ROB faults per run in the SER sweep's per-event cost.
const SER_FAULTS: u64 = 10;

/// Experiment calls per pass: Tables II and III, Figs. 4–6, SER, ROEC.
const CALLS: u64 = 7;

pub fn config(seed: u64) -> experiments::ExperimentConfig {
    experiments::ExperimentConfig {
        inst_count: INSTS,
        seed,
    }
}

/// Warms the process-wide baseline and golden memos every experiment
/// normalises against, so the timed pass runs no baseline or golden
/// simulation.
pub fn setup(seed: u64) {
    let cfg = config(seed);
    for &bench in Benchmark::all() {
        unsync_bench::baseline_cycles(bench, cfg);
    }
    for bench in SER_BENCHES {
        unsync_bench::runner::golden_memory(bench, cfg);
    }
}

/// Replica-runs of `INSTS` instructions in one pass: every pair counts
/// two replicas, the Reunion stream of Fig. 5 one. Every run commits its
/// whole trace (the traced pass checks this against the returned
/// outcomes), so this is the pass's simulated instruction count.
pub fn sim_insts() -> u64 {
    let fig4 = Benchmark::all().len() as u64 * (2 + 2);
    let fig5 = (FIG5_POINTS.len() * FIG5_BENCHES.len()) as u64 * (1 + 2);
    let fig6 = (FIG6_SIZES.len() * FIG6_BENCHES.len()) as u64 * 2;
    let ser = SER_BENCHES.len() as u64 * 4 * 2;
    let roec = ROEC_CAMPAIGNS * 2 * 2;
    (fig4 + fig5 + fig6 + ser + roec) * INSTS
}

/// Runs one experiment call, counting a panic as a failed operation.
fn call<T>(failed: &mut u64, f: impl FnOnce() -> T) -> Option<T> {
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    *failed += u64::from(out.is_none());
    out
}

fn tag(artifact: &str, rec: Json) -> Json {
    Json::obj().field("artifact", artifact).field("data", rec)
}

/// The five simulation experiments of a pass: as the library runs them
/// ([`Library`]), or re-stated call by call with spans ([`Traced`]).
trait Experiments {
    fn fig4(&mut self) -> Vec<Fig4Row>;
    fn fig5(&mut self) -> Vec<Fig5Cell>;
    fn fig6(&mut self) -> Vec<Fig6Row>;
    fn ser_sweep(&mut self) -> SerSweep;
    fn roec(&mut self) -> RoecReport;
}

/// Runs Tables II/III and the five experiments, one call at a time, and
/// digests the rendered tables and the run log's header and record lines
/// as `--bin all` writes them. Returns the failed calls and the digest.
fn run_pass(seed: u64, e: &mut impl Experiments) -> (u64, String) {
    let mut lines = Vec::new();
    let mut log = RunLog::start("all", config(seed));
    let mut failed = 0;
    if let Some(t) = call(&mut failed, || unsync_hwcost::table2().render()) {
        lines.push(t);
    }
    if let Some(t) = call(&mut failed, || unsync_hwcost::table3().render()) {
        lines.push(t);
    }
    if let Some(rows) = call(&mut failed, || e.fig4()) {
        rows.iter()
            .for_each(|r| log.record(tag("fig4", render::jsonl::fig4(r))));
    }
    if let Some(cells) = call(&mut failed, || e.fig5()) {
        cells
            .iter()
            .for_each(|c| log.record(tag("fig5", render::jsonl::fig5(c))));
    }
    if let Some(rows) = call(&mut failed, || e.fig6()) {
        rows.iter()
            .for_each(|r| log.record(tag("fig6", render::jsonl::fig6(r))));
    }
    if let Some(sweep) = call(&mut failed, || e.ser_sweep()) {
        for rec in render::jsonl::ser(&sweep) {
            log.record(tag("ser_sweep", rec));
        }
    }
    if let Some(report) = call(&mut failed, || e.roec()) {
        for rec in render::jsonl::roec(&report) {
            log.record(tag("roec", rec));
        }
    }
    lines.extend(log.deterministic_lines().iter().cloned());
    (failed, digest(&lines))
}

/// The experiments through the library, on one worker.
struct Library {
    cfg: experiments::ExperimentConfig,
    runner: Runner,
}

impl Experiments for Library {
    fn fig4(&mut self) -> Vec<Fig4Row> {
        experiments::fig4_on(self.runner, self.cfg)
    }
    fn fig5(&mut self) -> Vec<Fig5Cell> {
        experiments::fig5_on(self.runner, self.cfg, &FIG5_BENCHES)
    }
    fn fig6(&mut self) -> Vec<Fig6Row> {
        experiments::fig6_on(self.runner, self.cfg, &FIG6_BENCHES)
    }
    fn ser_sweep(&mut self) -> SerSweep {
        experiments::ser_sweep_on(self.runner, self.cfg, &SER_BENCHES)
    }
    fn roec(&mut self) -> RoecReport {
        experiments::roec_on(self.runner, self.cfg, ROEC_CAMPAIGNS)
    }
}

/// The timed pass.
pub fn timed(seed: u64) -> Outcome {
    let mut library = Library {
        cfg: config(seed),
        runner: Runner::new(1),
    };
    let (failed, digest) = run_pass(seed, &mut library);
    Outcome {
        attempted: CALLS,
        failed,
        sim_insts: sim_insts(),
        digest,
    }
}

// ───────────────────────────── traced pass ──────────────────────────────
//
// The same experiments, re-stated call by call so that a span can wrap
// each call into a layer. Every arithmetic step matches the library's,
// so the records (and their digest) are identical.

fn trace(bench: Benchmark, seed: u64) -> TraceProgram {
    span("workloads.trace", || {
        SyntheticSource::new(bench, INSTS, seed).trace()
    })
}

fn baseline(bench: Benchmark, seed: u64) -> f64 {
    span("bench.runner.baseline_lookup", || {
        unsync_bench::baseline_cycles(bench, config(seed))
    }) as f64
}

fn unsync_pair(cfg: UnsyncConfig) -> UnsyncPair {
    UnsyncPair::new(CoreConfig::table1(), cfg)
}

fn reunion_pair() -> ReunionPair {
    ReunionPair::new(CoreConfig::table1(), ReunionConfig::paper_baseline())
}

/// Committed instructions summed over replicas, from the outcomes the
/// traced pass gets back.
#[derive(Default)]
struct Committed(u64);

impl Committed {
    fn add(&mut self, replicas: u64, committed: u64) {
        self.0 += replicas * committed;
    }
}

fn fig4(seed: u64, sum: &mut Committed) -> Vec<Fig4Row> {
    Benchmark::all()
        .iter()
        .map(|&bench| {
            let t = trace(bench, seed);
            let base = baseline(bench, seed);
            let reunion = span("reunion.pair_run", || reunion_pair().run(&t, &[]));
            let unsync = span("core.pair_run", || {
                unsync_pair(UnsyncConfig::paper_baseline()).run(&t, &[])
            });
            sum.add(2, reunion.committed);
            sum.add(2, unsync.committed);
            Fig4Row {
                bench: bench.name(),
                serializing_fraction: span("isa.trace_stats", || t.stats().serializing_fraction()),
                base_ipc: INSTS as f64 / base,
                reunion_overhead: reunion.cycles as f64 / base - 1.0,
                unsync_overhead: unsync.cycles as f64 / base - 1.0,
            }
        })
        .collect()
}

fn fig5(seed: u64, sum: &mut Committed) -> Vec<Fig5Cell> {
    let mut cells = Vec::new();
    for &(fi, latency) in &FIG5_POINTS {
        for bench in FIG5_BENCHES {
            let t = trace(bench, seed);
            let base = baseline(bench, seed);
            let mut stream = trace(bench, seed);
            let mut hooks = span("reunion.hooks_new", || {
                ReunionHooks::new(ReunionConfig::for_fi(fi, latency))
            });
            let reunion = span("sim.run_stream", || {
                unsync_sim::run_stream(
                    CoreConfig::table1(),
                    &mut stream,
                    &mut hooks,
                    unsync_mem::WritePolicy::WriteThrough,
                )
            });
            let unsync = span("core.pair_run", || {
                unsync_pair(UnsyncConfig::paper_baseline()).run(&t, &[])
            });
            sum.add(1, reunion.core.committed);
            sum.add(2, unsync.committed);
            cells.push(Fig5Cell {
                bench: bench.name(),
                fi,
                latency,
                reunion_norm: reunion.core.last_commit_cycle as f64 / base,
                unsync_norm: unsync.cycles as f64 / base,
                reunion_rob_occupancy: reunion.core.avg_rob_occupancy(),
            });
        }
    }
    cells
}

fn fig6(seed: u64, sum: &mut Committed) -> Vec<Fig6Row> {
    let mut rows = Vec::new();
    for &bytes in &FIG6_SIZES {
        let entries = UnsyncConfig::cb_entries_for_bytes(bytes);
        for bench in FIG6_BENCHES {
            let t = trace(bench, seed);
            let base = baseline(bench, seed);
            let out = span("core.pair_run", || {
                unsync_pair(UnsyncConfig::with_cb_entries(entries)).run(&t, &[])
            });
            sum.add(2, out.committed);
            rows.push(Fig6Row {
                bench: bench.name(),
                cb_bytes: bytes,
                cb_entries: entries,
                unsync_norm: out.cycles as f64 / base,
                cb_full_stall_cycles: out.cb_full_stall_cycles,
            });
        }
    }
    rows
}

/// The SER sweep's `SER_FAULTS` recoverable ROB faults, spread evenly.
pub fn ser_faults(inst_count: u64) -> Vec<PairFault> {
    (0..SER_FAULTS)
        .map(|i| PairFault {
            at: (i + 1) * inst_count / (SER_FAULTS + 1),
            core: (i % 2) as usize,
            site: FaultSite {
                target: FaultTarget::Rob,
                bit_offset: 17 + i,
            },
            kind: FaultKind::Single,
        })
        .collect()
}

fn ser_sweep(seed: u64, sum: &mut Committed) -> SerSweep {
    let measures: Vec<(f64, f64, f64, f64)> = SER_BENCHES
        .iter()
        .map(|&bench| {
            let t = trace(bench, seed);
            let golden = span("bench.runner.golden_lookup", || {
                unsync_bench::runner::golden_memory(bench, config(seed))
            });
            let reunion = reunion_pair();
            let unsync = unsync_pair(UnsyncConfig::paper_baseline());
            let r0 = span("reunion.pair_run", || {
                reunion.run_with_golden(&t, &[], Some(&golden))
            });
            let u0 = span("core.pair_run", || {
                unsync.run_with_golden(&t, &[], Some(&golden))
            });
            let faults = span("fault.plan", || ser_faults(INSTS));
            let rk = span("reunion.pair_run", || {
                reunion.run_with_golden(&t, &faults, Some(&golden))
            });
            let uk = span("core.pair_run", || {
                unsync.run_with_golden(&t, &faults, Some(&golden))
            });
            for c in [r0.committed, u0.committed, rk.committed, uk.committed] {
                sum.add(2, c);
            }
            let k = SER_FAULTS as f64;
            let r_cost = (rk.cycles.saturating_sub(r0.cycles)) as f64 / k;
            let u_cost = (uk.cycles.saturating_sub(u0.cycles)) as f64 / k;
            (r0.cycles as f64, u0.cycles as f64, r_cost, u_cost)
        })
        .collect();
    let n = measures.len() as f64;
    let (mut r0, mut u0, mut rc, mut uc) = (0.0, 0.0, 0.0, 0.0);
    for (a, b, c, d) in measures {
        r0 += a / n;
        u0 += b / n;
        rc += c / n;
        uc += d / n;
    }
    let insts = INSTS as f64;
    let mut rates = vec![SerRate::NM90.rate()];
    for exp in (3..=17).rev() {
        rates.push(10f64.powi(-exp));
    }
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    let project = |t0: f64, cost: f64, rate: f64| insts / (t0 + rate * insts * cost);
    let reunion_ipc = rates.iter().map(|&r| project(r0, rc, r)).collect();
    let unsync_ipc = rates.iter().map(|&r| project(u0, uc, r)).collect();
    let break_even = if (uc - rc).abs() > 1e-9 && r0 > u0 {
        let r = (r0 - u0) / (insts * (uc - rc));
        (r > 0.0).then_some(r)
    } else {
        None
    };
    SerSweep {
        rates,
        reunion_ipc,
        unsync_ipc,
        error_free_cycles: (r0, u0),
        per_error_cycles: (rc, uc),
        break_even,
    }
}

fn target_name(t: FaultTarget) -> &'static str {
    match t {
        FaultTarget::RegisterFile => "RegisterFile",
        FaultTarget::Pc => "PC",
        FaultTarget::PipelineRegs => "PipelineRegs",
        FaultTarget::Rob => "ROB",
        FaultTarget::IssueQueue => "IssueQueue",
        FaultTarget::Lsq => "LSQ",
        FaultTarget::Tlb => "TLB",
        FaultTarget::L1Data => "L1Data",
        FaultTarget::L1Tag => "L1Tag",
    }
}

type ByTarget = Vec<(&'static str, u64, u64)>;

fn tally(by_target: &mut ByTarget, target: FaultTarget, correct: bool) {
    let name = target_name(target);
    match by_target.iter_mut().find(|(n, _, _)| *n == name) {
        Some(e) => {
            e.1 += 1;
            e.2 += u64::from(correct);
        }
        None => by_target.push((name, 1, u64::from(correct))),
    }
}

fn roec(seed: u64, sum: &mut Committed) -> RoecReport {
    let bench = Benchmark::Gzip;
    let t = trace(bench, seed);
    let golden = span("bench.runner.golden_lookup", || {
        unsync_bench::runner::golden_memory(bench, config(seed))
    });
    let targets = unsync_fault::inject::ALL_TARGETS;
    let faults: Vec<PairFault> = span("fault.plan", || {
        (0..ROEC_CAMPAIGNS)
            .map(|i| {
                let mut f = PairFault::plan(seed.wrapping_add(0xabcd), i);
                f.site.target = targets[(i % targets.len() as u64) as usize];
                f.site.bit_offset %= f.site.target.bits();
                f.at = INSTS / 10 + (i * (INSTS * 8 / 10)) / ROEC_CAMPAIGNS;
                if f.site.target == FaultTarget::Tlb {
                    if let Some(st) = t.insts()[f.at as usize..].iter().find(|x| x.op.is_store()) {
                        f.at = st.seq;
                    }
                }
                f
            })
            .collect()
    });

    let unsync = unsync_pair(UnsyncConfig::paper_baseline());
    let mut u = RoecArchStats::default();
    let mut u_by_target = ByTarget::new();
    for f in &faults {
        let out = span("core.pair_run", || {
            unsync.run_with_golden(&t, std::slice::from_ref(f), Some(&golden))
        });
        sum.add(2, out.committed);
        u.injected += 1;
        u.detected += out.detections;
        u.unrecoverable += out.unrecoverable;
        u.silent_corruptions += u64::from(!out.memory_matches_golden);
        u.correct += u64::from(out.correct());
        tally(&mut u_by_target, f.site.target, out.correct());
    }

    let reunion = reunion_pair();
    let mut r = RoecArchStats::default();
    let mut r_by_target = ByTarget::new();
    for f in &faults {
        let out = span("reunion.pair_run", || {
            reunion.run_with_golden(&t, std::slice::from_ref(f), Some(&golden))
        });
        sum.add(2, out.committed);
        r.injected += 1;
        r.detected += u64::from(out.mismatches > 0);
        r.corrected_in_place += out.corrected_in_place;
        r.unrecoverable += out.unrecoverable;
        r.silent_corruptions += u64::from(out.silent_faults > 0 || !out.memory_matches_golden);
        r.correct += u64::from(out.correct());
        tally(&mut r_by_target, f.site.target, out.correct());
    }

    RoecReport {
        unsync_roec: span("fault.coverage", || Coverage::unsync().roec_fraction()),
        reunion_roec: span("fault.coverage", || Coverage::reunion().roec_fraction()),
        unsync: u,
        reunion: r,
        reunion_by_target: r_by_target,
    }
}

/// The experiments re-stated call by call, with spans.
struct Traced {
    seed: u64,
    sum: Committed,
}

impl Experiments for Traced {
    fn fig4(&mut self) -> Vec<Fig4Row> {
        fig4(self.seed, &mut self.sum)
    }
    fn fig5(&mut self) -> Vec<Fig5Cell> {
        fig5(self.seed, &mut self.sum)
    }
    fn fig6(&mut self) -> Vec<Fig6Row> {
        fig6(self.seed, &mut self.sum)
    }
    fn ser_sweep(&mut self) -> SerSweep {
        ser_sweep(self.seed, &mut self.sum)
    }
    fn roec(&mut self) -> RoecReport {
        roec(self.seed, &mut self.sum)
    }
}

/// The traced pass. Its `sim_insts` is summed from the outcomes the
/// simulator returns rather than counted from the structure.
pub fn traced(seed: u64) -> Outcome {
    let mut traced = Traced {
        seed,
        sum: Committed::default(),
    };
    let (failed, digest) = run_pass(seed, &mut traced);
    Outcome {
        attempted: CALLS,
        failed,
        sim_insts: traced.sum.0,
        digest,
    }
}

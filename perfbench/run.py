#!/usr/bin/env python3
"""The unsync benchmark: builds `perfbench`, runs one workload in fresh
processes for `--seconds`, checks the outputs and prints the metrics.

    python3 perfbench/run.py --workload paper_figs --seed 11 --seconds 20 --trace 0

Run it from the root of the repository. With `--trace 0` the last line of
standard output is a JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer ledger instead. The line before it is
a diagnostics record (every pass, the host-speed probe, load average,
digests). See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper_figs", "uncore_campaign", "many_lanes")
# Set-up is short, so it is repeated in fresh processes until this many
# samples exist and the median is reported.
MIN_SETUPS = 5
# A single child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150
LAYERS = ("workloads", "isa", "sim", "mem", "exec", "core", "reunion",
          "fault", "bench", "obs")


def build():
    """Builds the benchmark binary and returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    built = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {built.returncode}); "
                 "run from the repository root")
    scratch = target / "perfbench-scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    return target / "release" / "perfbench", scratch


def child(binary, workload, seed, mode, scratch):
    """Runs one measured process; returns its JSON record, or None if it
    died without one."""
    try:
        proc = subprocess.run(
            [str(binary), workload, str(seed), mode, str(scratch)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench {workload} {mode}: timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench {workload} {mode}: exit {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def reference_digest(workload, seed):
    refs = json.loads((HERE / "reference.json").read_text())
    return refs["digests"].get(workload, {}).get(str(seed))


def check_digests(workload, seed, digests):
    """Every pass must produce the same output, and match the stored
    reference when one exists for this seed."""
    ref = reference_digest(workload, seed)
    ok = len(set(digests)) == 1 and (ref is None or ref == digests[0])
    return ok, ref


def metric(value, unit):
    return {"value": value, "unit": unit}


def host_probe(binary, workload, seed, scratch):
    """The fixed host-speed probe, in a process of its own."""
    rec = child(binary, workload, seed, "probe", scratch)
    return None if rec is None else {k: rec[k] for k in ("alu_ms", "mem_ms", "mix_ms", "loadavg")}


def untraced(binary, scratch, workload, seed, seconds):
    passes, setups, dead = [], [], 0
    probes = [host_probe(binary, workload, seed, scratch)]
    started = time.monotonic()
    last = 0.0
    while not passes or time.monotonic() - started + last <= seconds:
        t0 = time.monotonic()
        rec = child(binary, workload, seed, "pass", scratch)
        last = time.monotonic() - t0
        if rec is None:
            dead += 1
            if dead > 1 or not passes:
                break
            continue
        passes.append(rec)
        setups.append(rec["setup_s"])
    while passes and len(setups) < MIN_SETUPS:
        rec = child(binary, workload, seed, "setup", scratch)
        if rec is None:
            dead += 1
            break
        setups.append(rec["setup_s"])
    probes.append(host_probe(binary, workload, seed, scratch))
    if not passes:
        sys.exit(f"perfbench {workload}: no pass completed")

    # A process that died counts as one failed operation.
    attempted = sum(p["attempted"] for p in passes) + dead
    failed = sum(p["failed"] for p in passes) + dead
    digests = [p["digest"] for p in passes]
    digests_ok, ref = check_digests(workload, seed, digests)
    if not digests_ok:
        failed = attempted
    memo_runs = sum(p["timed_baseline_sim_runs"] + p["timed_golden_sim_runs"]
                    for p in passes)
    correct = failed == 0 and memo_runs == 0

    def med(value):
        return statistics.median(value(p) for p in passes)

    metrics = {
        "wall_s": metric(med(lambda p: p["wall_s"]), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "sim_minst_per_s": metric(med(lambda p: p["sim_insts"] / p["wall_s"] / 1e6),
                                  "Minst/s"),
        "cpu_s": metric(med(lambda p: p["cpu_s"]), "s"),
        "peak_rss_mb": metric(med(lambda p: p["peak_rss_mb"]), "MiB"),
        "jobs_per_s": metric(med(lambda p: p["attempted"] / p["wall_s"]), "1/s"),
    }
    diagnostics = {
        "workload": workload, "seed": seed, "passes": len(passes),
        "dead_processes": dead, "setup_samples": setups,
        "failed_share": failed / attempted,
        "digest": digests[0],
        "reference_digest": ref if ref is not None else "none stored for this seed",
        "timed_memo_sim_runs": memo_runs,
        "host_probe": probes,
        "loadavg": [p["loadavg"] for p in passes],
        "cpu_per_wall": [p["cpu_per_wall"] for p in passes],
        "wall_s": [p["wall_s"] for p in passes],
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, diagnostics


def traced(binary, scratch, workload, seed):
    base = child(binary, workload, seed, "pass", scratch)
    rec = child(binary, workload, seed, "trace", scratch)
    if base is None or rec is None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, {}
    # The traced pass re-states the timed section call by call; it must
    # reproduce the timed pass's output exactly.
    digests_ok, ref = check_digests(workload, seed, [base["digest"], rec["digest"]])
    failed = rec["failed"] if digests_ok else rec["attempted"]
    metrics = {}
    for layer in LAYERS:
        entry = rec["layers"][layer]
        metrics[f"{layer}.self_s"] = metric(entry["self_s"], "s")
        metrics[f"{layer}.calls"] = metric(entry["calls"], "count")
    metrics["ledger.traced_wall_s"] = metric(rec["traced_wall_s"], "s")
    metrics["ledger.untraced_wall_s"] = metric(base["wall_s"], "s")
    metrics["ledger.overhead_s"] = metric(rec["traced_wall_s"] - base["wall_s"], "s")
    metrics["ledger.self_sum_s"] = metric(rec["self_sum_s"], "s")
    metrics["ledger.spans"] = metric(rec["spans"], "count")
    metrics["ledger.span_cost_ns"] = metric(rec["span_cost_ns"], "ns")
    metrics["ledger.overhead_est_s"] = metric(rec["spans"] * rec["span_cost_ns"] * 1e-9, "s")
    metrics["ledger.sim_insts_from_results"] = metric(rec["sim_insts"], "count")
    metrics["bench.runner.timed_baseline_sim_runs"] = metric(
        base["timed_baseline_sim_runs"], "count")
    metrics["bench.runner.timed_golden_sim_runs"] = metric(
        base["timed_golden_sim_runs"], "count")
    for name, value in rec["probes"].items():
        metrics[name] = metric(value, probe_unit(name))
    diagnostics = {
        "workload": workload, "seed": seed, "spans_file": rec["spans_file"],
        "digest": rec["digest"], "untraced_digest": base["digest"],
        "reference_digest": ref if ref is not None else "none stored for this seed",
        "structural_sim_insts": base["sim_insts"],
        "host_probe": host_probe(binary, workload, seed, scratch),
        "loadavg": base["loadavg"],
    }
    correct = failed == 0 and base["failed"] == 0
    return {"correct": correct, "attempted": rec["attempted"], "failed": failed,
            "metrics": metrics}, diagnostics


PROBE_UNITS = (("_ns_per_inst", "ns/inst"), ("_us_per_fault", "us/fault"),
               ("_ns_per_lane_cycle", "ns/cycle"), ("_us_p50", "us"),
               ("_us_p99", "us"), ("_us", "us"), ("_ns", "ns"),
               ("_share", "share"), ("_ratio", "share"), ("_rate", "share"))


def probe_unit(name):
    """A probe's unit, from the suffix of its name."""
    for suffix, unit in PROBE_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    binary, scratch = build()
    if args.trace:
        result, diagnostics = traced(binary, scratch, args.workload, args.seed)
    else:
        result, diagnostics = untraced(binary, scratch, args.workload, args.seed,
                                       args.seconds)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The repository benchmark: cold-process fault-injection campaign, trace
analytics and rollback-simulation runs of the ReStore simulator.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the simulator from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then starts
restore_perfbench child processes, one cold measured call each, until about
--seconds have been measured. It checks every child's outputs (digests and
exact simulated-work counts), prints a human-readable report and, as the last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
# A child that runs this long hangs: the longest, a restore-rollback child,
# takes about 20 s on the host the benchmark was defined on.
CHILD_TIMEOUT_S = 150
# Set-up samples per run: set-up-only children top up the measured ones to
# nine, for at most SETUP_TOP_UP_S. With five, the restore-rollback medians
# (one measured child a run) of two sets of ten runs on the defining host were
# 16 % apart. A trace-analytics set-up takes about 3 s, so its runs stop
# topping up after one or two.
MIN_SETUP_SAMPLES = 9
SETUP_TOP_UP_S = 5.0
# Time of the reference kernel (perfbench.cpp) on the host this benchmark was
# defined on, a 4-vCPU Xeon VM. Timed next to every measured call, the kernel
# gives the shared host's current speed; set-up and call times are scaled to
# this reference speed (see README "Host speed").
REFERENCE_S = 0.18
# Metric names and units are defined once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
VM_OUTCOMES = [name.rsplit(".", 1)[1] for name in PER_LAYER
               if name.startswith("faultinject.vm_outcomes.")]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure and build restore_perfbench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"perfbench: no simulator sources under {ROOT / 'src'}")
    out = build_dir()
    for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", str(out), "--target", "restore_perfbench",
                 "-j", "4"]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=850)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "restore_perfbench"


class Runner:
    """Starts children for one workload and seed; every child is a fresh
    process, so each measured call is the first of its kind."""

    def __init__(self, binary, workload, seed, work):
        self.binary, self.workload, self.seed, self.work = binary, workload, seed, work
        self.count = 0
        self.crashed = 0

    def child(self, mode, trace=False, workers=None):
        self.count += 1
        out_dir = self.work / f"{self.count:03d}-{mode}"
        cmd = [str(self.binary), "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--dir", str(out_dir)]
        if trace:
            cmd.append("--trace")
        if workers is not None:
            cmd += ["--workers", str(workers)]
        started = time.monotonic()
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"perfbench: {mode} child timed out after {CHILD_TIMEOUT_S} s")
            self.crashed += 1
            return None
        wall = time.monotonic() - started
        if done.returncode != 0 or not done.stdout.strip():
            log(f"perfbench: {mode} child failed ({done.returncode}): {done.stderr.strip()}")
            self.crashed += 1
            return None
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["wall_s"] = wall
        return result


class Checks:
    """Output checks: digests and exact work counts must repeat across every
    child of a run and match the recorded values where recorded."""

    def __init__(self, workload, seed):
        expected = json.loads((BENCH_DIR / "expected.json").read_text())
        self.expected = dict(expected["all_seeds"].get(workload, {}))
        if seed == 0:
            self.expected.update(expected["seed0"].get(workload, {}))
        self.seen = {}
        self.failures = []

    def add(self, result, source):
        for key, value in result.items():
            if not key.startswith(("digest.", "count.")):
                continue
            if key in self.expected and self.expected[key] != value:
                self.failures.append(f"{source}: {key}={value}, recorded {self.expected[key]}")
            if key in self.seen and self.seen[key] != value:
                self.failures.append(f"{source}: {key}={value}, earlier child {self.seen[key]}")
            self.seen.setdefault(key, value)

    def missing(self):
        """Recorded digests no child reported."""
        return [k for k in self.expected if k.startswith("digest.") and k not in self.seen]


def median_of(results, key):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else 0.0


def measure(runner, seconds, trace_each):
    """Call children until `seconds` of children have run (at least one),
    alternating untraced/traced when `trace_each`. Returns (plain, traced)."""
    plain, traced = [], []
    start = time.monotonic()
    while True:
        for traced_child in ((False, True) if trace_each else (False,)):
            result = runner.child("call", trace=traced_child)
            if result is not None:
                (traced if traced_child else plain).append(result)
        elapsed = time.monotonic() - start
        walls = [r["wall_s"] for r in plain + traced]
        typical = statistics.median(walls) if walls else elapsed
        if runner.crashed or elapsed + typical * (2 if trace_each else 1) > seconds:
            return plain, traced


def scaled_call_s(result):
    """The call's wall time at the reference host speed, measured by the
    reference kernel between the passes of a repeated call (trace-analytics),
    otherwise right before and right after the call."""
    reference = result.get("reference_during_s", (result["reference_before_s"]
                                                  + result["reference_after_s"]) / 2)
    return result["call_s"] * REFERENCE_S / reference


def scaled_setup_s(result):
    return result["setup_s"] * REFERENCE_S / result["reference_before_s"]


def setup_samples(runner, results):
    samples = [scaled_setup_s(r) for r in results]
    start = time.monotonic()
    while len(samples) < MIN_SETUP_SAMPLES and time.monotonic() - start < SETUP_TOP_UP_S:
        result = runner.child("setup")
        if result is None:
            break
        samples.append(scaled_setup_s(result))
    return samples


def throughputs(workload, plain):
    """The workload's user-facing throughputs, from untraced children."""
    call_s = median_of(plain, "call_s")
    if workload in ("uarch-fig4", "vm-fig2"):
        return {"trials_per_s": median_of(plain, "trials") / call_s}
    if workload == "restore-rollback":
        return {"sim_cycles_per_s": median_of(plain, "sim_cycles") / call_s}
    rows = median_of(plain, "rows")
    return {"compact_mb_per_s": median_of(plain, "jsonl_bytes") / 2**20
                                / median_of(plain, "compact_s"),
            "query_rows_per_s": rows / median_of(plain, "query_s"),
            "scan_rows_per_s": rows / median_of(plain, "scan_s")}


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    return values[max(0, len(values) - 11)]


def per_layer(workload, plain, traced, layers):
    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update(throughputs(workload, plain))
    m["trace.overhead_share"] = (statistics.median(map(scaled_call_s, traced))
                                 / statistics.median(map(scaled_call_s, plain)) - 1)
    m["call_wall_s"] = median_of(plain, "call_s")
    m["host.reference_s"] = median_of(plain, "reference_before_s")
    m["workloads.assemble_s"] = layers["workloads.assemble_s"]
    for key in ("faultinject.export.breakdown_s", "uarch.probe_s", "vm.golden_s",
                "uarch.baseline_s", "core.restore_s.imm", "core.restore_s.delayed",
                "analytics.compact_s", "analytics.root_cause_s", "analytics.open_s",
                "analytics.analyze_s", "analytics.store_ratio"):
        if key in layers:
            m[key] = layers[key]
    if "decode_s" in layers:
        m["faultinject.campaign_io.decode_rows_per_s"] = layers["rows"] / layers["decode_s"]
    if "encode_s" in layers:
        m["faultinject.campaign_io.encode_rows_per_s"] = layers["rows"] / layers["encode_s"]
    if workload in ("uarch-fig4", "vm-fig2"):
        kind = "uarch" if workload == "uarch-fig4" else "vm"
        shards, first = layers[f"{kind}_shard_s"], layers[f"{kind}_first_shard_s"]
        m[f"faultinject.{kind}_shard_s.p50"] = statistics.median(shards)
        m[f"faultinject.{kind}_shard_s.p64"] = tail(shards)
        m[f"faultinject.{kind}_first_shard_s.p50"] = statistics.median(first)
        m["faultinject.orchestrator.busy_share"] = statistics.median(
            r["telemetry.busy_ms"] / (r["telemetry.wall_ms"] * r["telemetry.workers"])
            for r in plain)
        m["faultinject.orchestrator.shard_ms.max"] = median_of(plain, "telemetry.shard_ms_max")
    if workload == "uarch-fig4":
        m["uarch.probe_cycles"] = layers["count.probe_cycles"]
        m["uarch.cycles_per_s"] = layers["count.probe_cycles"] / layers["uarch.probe_s"]
        m["faultinject.trials_converged"] = layers["count.trials_converged"]
        m["faultinject.trials_diverged"] = layers["count.trials_diverged"]
        m["faultinject.converged_share"] = layers["count.trials_converged"] / layers["rows"]
    if workload == "vm-fig2":
        m["vm.insns_per_s"] = layers["count.vm_golden_insns"] / layers["vm.golden_s"]
        for c in VM_OUTCOMES:
            m[f"faultinject.vm_outcomes.{c}"] = layers.get(f"count.vm_outcome.{c}", 0)
    if workload == "restore-rollback":
        restore_s = layers["core.restore_s.imm"] + layers["core.restore_s.delayed"]
        m["uarch.cycles_per_s"] = layers["count.baseline_cycles"] / layers["uarch.baseline_s"]
        m["core.restore_cycles"] = layers["count.restore_cycles"]
        m["core.rollbacks"] = layers["count.rollbacks"]
        m["core.reexecuted_insns"] = layers["count.reexecuted_insns"]
        m["core.host_cost_ratio"] = ((restore_s / layers["count.restore_cycles"])
                                     / (layers["uarch.baseline_s"]
                                        / layers["count.baseline_cycles"]))
    return m


def report(workload, seed, plain, checks, attempted, failed):
    """Human-readable lines: the workload's throughputs with units, the error
    rate, and every digest and simulated-work count the run compared."""
    print(f"perfbench {workload} seed={seed}: {len(plain)} measured call(s), "
          f"median call {median_of(plain, 'call_s'):.4f} s wall, "
          f"{statistics.median(map(scaled_call_s, plain)):.4f} s at reference speed, "
          f"reference kernel {median_of(plain, 'reference_before_s'):.4f} s")
    for name, value in throughputs(workload, plain).items():
        print(f"  {name:24s} {value:14.1f} {PER_LAYER[name]}")
    print(f"  {'error_rate':24s} {failed / max(1, attempted):14.4f} "
          f"({failed} failed of {attempted})")
    for key in sorted(checks.seen):
        print(f"  {key:40s} {checks.seen[key]}")
    for failure in checks.failures:
        print(f"  CHECK FAILED {failure}")


def run_workload(args):
    binary = build()
    work = build_dir().parent / "perfbench-work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(binary, args.workload, args.seed, work)
    checks = Checks(args.workload, args.seed)

    plain, traced = measure(runner, args.seconds, trace_each=bool(args.trace))
    layers = runner.child("layers", trace=True) if args.trace else None

    children = plain + traced + ([layers] if layers else [])
    for i, result in enumerate(children):
        checks.add(result, f"child {i}")
    for key in checks.missing():
        checks.failures.append(f"{key} never reported")
    # Operations: every trial, trace and ReStoreCore run the children made,
    # plus each child's digest check; a crashed child counts as one failure.
    attempted = sum(r["attempted"] for r in children) + len(children) + runner.crashed
    failed = sum(r["failed"] for r in children) + runner.crashed + len(checks.failures)
    complete = bool(plain) and (layers is not None or not args.trace)
    correct = failed == 0 and complete

    metrics = {}
    if plain:
        report(args.workload, args.seed, plain, checks, attempted, failed)
    if complete and args.trace:
        values = per_layer(args.workload, plain, traced, layers)
        values["error_rate"] = failed / attempted
        assert values.keys() == PER_LAYER.keys(), values.keys() ^ PER_LAYER.keys()
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in values.items()}
    elif complete:
        values = {"setup_s": statistics.median(setup_samples(runner, plain)),
                  "call_s": statistics.median(map(scaled_call_s, plain)),
                  "peak_rss_mb": median_of(plain, "peak_rss_mb")}
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def selftest():
    """Campaign digests at 0 and 3 workers agree with each other and with the
    recorded seed-0 digests."""
    binary = build()
    ok = True
    for workload, key in (("vm-fig2", "digest.vm_trace"), ("uarch-fig4", "digest.uarch_trace")):
        work = build_dir().parent / "perfbench-work" / f"selftest-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        runner = Runner(binary, workload, 0, work)
        checks = Checks(workload, 0)
        for workers in (0, 3):
            result = runner.child("call", workers=workers)
            if result is None:
                ok = False
                continue
            checks.add(result, f"{workers} workers")
            print(f"{workload} workers={workers}: {key}={result.get(key)}")
        ok = ok and not checks.failures and not runner.crashed
        for failure in checks.failures:
            print(f"  CHECK FAILED {failure}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark for the borderings library.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload finite --seed 1 --seconds 40 --trace 0

or every workload, each in its own process, one after the other:

    python3 perfbench/run.py --workload all --seed 1 --seconds 40

A workload is a closed loop with one client: the next query starts when
the previous one has returned.  The seed fixes a list of at least
MIN_QUERIES queries (see workloads.py).  The run goes over that list in
rounds, each round on new inputs that take the same work, until the
next round would end after --seconds.  Only the library call is timed;
every result is checked after its timer stops, and a failed check is
counted, never fatal.

Times are reported in reference seconds: a measured time divided by the
mean time of a fixed reference loop (reference_work below), run before
every query and every set-up, and multiplied by REFERENCE_S.  The loop
is the benchmark's own code, so a change to the library does not move
it, while a slowdown of the machine moves both alike and cancels.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each round
twice, plain and traced (see tracing.py), and prints the per-layer
metrics, per traced round, with the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # the checkout
SRC = ROOT / "src"

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_QUERIES = 100  # so p90 has at least 10 samples beyond it
SETUP_REPEATS = 21
# The time of reference_work taken as one unit: about its mean time on a
# 2-vCPU Xeon VM under Python 3.11, so reference seconds are of the size
# of the seconds measured there.
REFERENCE_S = 1e-3

END_TO_END = {
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "numerics.ord_b.calls": "count",
    "numerics.ord_b_per_step": "calls/step",
    "numerics.is_prime.calls": "count",
    "intsets.self_s": "s",
    "intsets.residue_status.calls": "count",
    "intsets.pick_in_class.calls": "count",
    "intsets.pick_yield": "steps/call",
    "ordering.self_s": "s",
    "ordering.greedy_step.calls": "count",
    "ordering.b_ordering.calls": "count",
    "ordering.step_self_us": "us",
    "series.self_s": "s",
    "series.t_ordering.calls": "count",
    "series.maxmin_check.calls": "count",
    "series.mul.calls": "count",
    "factorials.self_s": "s",
    "factorials.exponent_sequence.calls": "count",
    "factorials.alpha_reuse": "ratio",
    "factored.self_s": "s",
    "factored.refine_to_primes.calls": "count",
    "closedforms.self_s": "s",
    "closedforms.alpha.calls": "count",
    "tables.self_s": "s",
    "cli.self_s": "s",
    "cli.main.calls": "count",
    "trace.overhead_ratio": "ratio",
}


def import_borderings():
    """A fresh import of borderings and all its layer modules from this checkout's src/."""
    for name in [m for m in sys.modules if m == "borderings" or m.startswith("borderings.")]:
        del sys.modules[name]
    package = importlib.import_module("borderings")
    for layer in tracing.LAYERS:
        importlib.import_module(f"borderings.{layer}")
    if Path(package.__file__).resolve().parent != SRC / "borderings":
        raise ImportError(f"borderings was imported from {package.__file__}, not from {SRC}")
    return package


def reference_work() -> int:
    """A fixed piece of pure-Python work, like the library's: big-integer
    division and remainders, dict and list updates.  Takes about 1 ms."""
    x, counts, low = 3**200 + 12345, {}, []
    for i in range(1200):
        v = x + i
        for _ in range(3):
            v //= 7
        counts[i % 37] = counts.get(i % 37, 0) + v % 6
        low.append(v & 255)
    return len(low) + len(counts)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def execute(query) -> tuple[float, str | None]:
    """Time one query, then check it; returns (seconds, failure reason or None)."""
    t0 = time.perf_counter()
    try:
        result = query.run()
    except Exception as e:  # a raising query is a failed query, not a failed run
        return time.perf_counter() - t0, f"raised {type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    try:
        return dt, query.check(result)
    except Exception as e:
        return dt, f"check raised {type(e).__name__}: {e}"


class Run:
    """Latencies by slot, reference times, and failures of one workload run."""

    def __init__(self):
        self.by_slot: dict[int, list[float]] = {}
        self.reference: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.rounds = 0

    def plain_pass(self, queries) -> float:
        total = 0.0
        for q in queries:
            self.reference.append(time_reference())
            dt, why = execute(q)
            total += dt
            self.by_slot.setdefault(q.slot, []).append(dt)
            self.attempted += 1
            if why is not None:
                self.failures.append(f"{q.kind}: {why}")
        return total

    def mean_times(self) -> list[float]:
        """Each query's mean time over the rounds it was asked in."""
        return [statistics.fmean(times) for times in self.by_slot.values()]

    def traced_pass(self, queries, package, tracer) -> float:
        total = 0.0
        tracer.install(package)
        try:
            for q in queries:
                t0 = time.perf_counter()
                try:
                    tracer.query(q.run)
                except Exception as e:
                    self.failures.append(f"{q.kind} (traced): raised {type(e).__name__}: {e}")
                total += time.perf_counter() - t0
                self.attempted += 1
        finally:
            tracer.uninstall()
        return total


def setup(make_round, warmup, seed: int):
    """Import, build the first round and warm up, SETUP_REPEATS times; the last one is used.

    Three reference loops before each repeat time the machine's speed
    while set-up runs."""
    times, reference = [], []
    for _ in range(SETUP_REPEATS):
        reference.extend(time_reference() for _ in range(3))
        t0 = time.perf_counter()
        package = import_borderings()
        memo = {}
        first = make_round(package, seed, 0, memo)
        warm = [execute(q)[1] for q in warmup(package)]
        times.append(time.perf_counter() - t0)
    return package, first, memo, times, reference, warm


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    make_round, warmup = workloads.WORKLOADS[name]
    package, queries, memo, setup_times, setup_reference, warm = setup(make_round, warmup, seed)
    if len(queries) < MIN_QUERIES:
        raise SystemExit(f"error: {name} has {len(queries)} queries, fewer than {MIN_QUERIES}")
    run = Run()
    run.attempted += len(warm)
    run.failures.extend(f"warmup: {why}" for why in warm if why)
    tracer = tracing.Tracer() if trace else None
    plain_s = traced_s = 0.0
    t_start = time.perf_counter()
    longest = 0.0
    while True:
        t_round = time.perf_counter()
        if tracer is None:
            run.plain_pass(queries)
        elif run.rounds % 2 == 0:  # alternate so neither pass always runs first
            plain_s += run.plain_pass(queries)
            traced_s += run.traced_pass(queries, package, tracer)
        else:
            traced_s += run.traced_pass(queries, package, tracer)
            plain_s += run.plain_pass(queries)
        run.rounds += 1
        now = time.perf_counter()
        longest = max(longest, now - t_round)
        # stop before a round that could end after --seconds
        if (now - t_start) + longest > seconds:
            break
        queries = [q for q in make_round(package, seed, run.rounds, memo) if trace or run.rounds % q.every == 0]

    result = {
        "run": run,
        "setup_times": setup_times,
        "setup_reference": setup_reference,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["per_layer"] = per_layer_metrics(tracer, run.rounds, traced_s / plain_s)
        result["tracer"] = tracer
    return result


def per_layer_metrics(t: tracing.Tracer, passes: int, overhead: float) -> dict[str, float]:
    steps = t.count("ordering.greedy_step")
    picks = t.count("intsets.pick_in_class")
    alpha_calls = t.count("factorials.exponent_sequence")
    per = 1.0 / passes
    m = {
        "numerics.ord_b.calls": t.count("numerics.ord_b") * per,
        "numerics.ord_b_per_step": t.count("numerics.ord_b") / steps if steps else 0.0,
        "numerics.is_prime.calls": t.count("numerics.is_prime") * per,
        "intsets.residue_status.calls": t.count("intsets.residue_status") * per,
        "intsets.pick_in_class.calls": picks * per,
        "intsets.pick_yield": steps / picks if picks else 0.0,
        "ordering.greedy_step.calls": steps * per,
        "ordering.b_ordering.calls": t.count("ordering.b_ordering") * per,
        "ordering.step_self_us": t.self_s["ordering"] / steps * 1e6 if steps else 0.0,
        "series.t_ordering.calls": t.count("series.t_ordering") * per,
        "series.maxmin_check.calls": t.count("series.maxmin_check") * per,
        "series.mul.calls": t.count("series.mul") * per,
        "factorials.exponent_sequence.calls": alpha_calls * per,
        "factorials.alpha_reuse": t.alpha_distinct / alpha_calls if alpha_calls else 0.0,
        "factored.refine_to_primes.calls": t.count("factored.refine_to_primes") * per,
        "closedforms.alpha.calls": t.count("closedforms.alpha_Z", "closedforms.alpha_P") * per,
        "cli.main.calls": t.count("cli.main") * per,
        "trace.overhead_ratio": overhead,
    }
    for layer in ("intsets", "ordering", "series", "factorials", "factored", "closedforms", "tables", "cli"):
        m[f"{layer}.self_s"] = t.self_s[layer] * per
    return m


def end_to_end_metrics(result: dict) -> dict[str, float]:
    """Times in reference seconds: measured, over the reference loop's mean, times REFERENCE_S."""
    run = result["run"]
    scale = REFERENCE_S / statistics.fmean(run.reference)
    lat_ms = [t * scale * 1e3 for t in run.mean_times()]
    deciles = statistics.quantiles(lat_ms, n=10)
    setup_scale = REFERENCE_S / statistics.fmean(result["setup_reference"])
    return {
        "wall_s": sum(lat_ms) / 1e3,
        "query_p50_ms": statistics.median(lat_ms),
        "query_p90_ms": deciles[8],
        "setup_s": statistics.median(result["setup_times"]) * setup_scale,
        "peak_rss_mib": result["peak_rss_mib"],
    }


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(name: str, seed: int, seconds: float, trace: bool, result: dict) -> dict:
    run = result["run"]
    env = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "queries": len(run.by_slot),
        "rounds": run.rounds,
        "setup_first_s": round(result["setup_times"][0], 6),
        "failed_ratio": len(run.failures) / run.attempted,
    }
    if run.reference:  # what the reference seconds were scaled from
        env["measured_wall_s"] = sum(run.mean_times())
        env["reference_mean_ms"] = statistics.fmean(run.reference) * 1e3
        env["reference_min_ms"] = min(run.reference) * 1e3
    return env


def check_declared(units: dict[str, str], key: str) -> None:
    """Fail loudly when BENCHMARK.json declares other metrics than this script reports."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    declared = {m["name"]: m["unit"] for m in json.loads(spec_path.read_text())[key]}
    if declared != units:
        raise SystemExit(f"error: BENCHMARK.json {key} {declared} != reported {units}")


def run_one(args) -> int:
    if not (SRC / "borderings" / "__init__.py").is_file():
        print(f"error: no borderings sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = args.trace == 1
    result = measure(args.workload, args.seed, args.seconds, trace)
    run = result["run"]
    if trace:
        values, units = result["per_layer"], PER_LAYER
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
        rows = result["tracer"].write_spans(spans_path)
        print(f"# spans: {rows} written to {spans_path.relative_to(ROOT)}, "
              f"{result['tracer'].spans_dropped} beyond the cap counted only")
    else:
        values, units = end_to_end_metrics(result), END_TO_END
    check_declared(units, "per_layer" if trace else "end_to_end")

    for why in run.failures[:20]:
        print(f"FAILED {why}", file=sys.stderr)
    env = environment(args.workload, args.seed, args.seconds, trace, result)
    print(f"# {args.workload}: {env['queries']} queries, {env['rounds']} rounds, "
          f"failed_ratio {env['failed_ratio']:.4f} ({len(run.failures)}/{run.attempted})")
    for name, unit in units.items():
        print(f"{args.workload:11s} {name:36s} {values[name]:14.6f} {unit}")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other; one combined result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, end="")
            status = proc.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and one["correct"]
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        for metric, v in one["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = v
    if status == 0:
        print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

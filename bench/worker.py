"""Run one workload of the sulvalab benchmark in this fresh interpreter.

    python bench/worker.py --workload W --seed N --mode M [--seconds S | --ops K] --t0 T

Modes: ``setup`` stops after the warm-up, ``plain`` runs the closed loop
untraced, ``spans`` runs it with the layer wrappers installed, ``counts``
runs a fixed number of ops under ``cProfile``.  ``--t0`` is the parent's
``time.perf_counter()`` just before it started this process (the clock is
system-wide), so set-up time includes interpreter start.  Prints one JSON
object on its last line.  ``bench/run.py`` is the entry point.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CLI_ENTRY = "import sys; from sulvalab.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 60
CLI_PROBES = 10  # bare-interpreter and import-only children per traced cli_cold run


def _tail(ordered: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, capped at p99."""
    n = len(ordered)
    index = max(0, n - 1 - max(10, n // 100))
    return ordered[index], 100 * (index + 1) / n


def latency_stats(latencies: list[float], period: int) -> dict:
    """Median, tail and throughput of the timed ops, in run order.

    The op stream repeats every ``period`` ops.  The tail is taken over the
    distinct inputs, each at the median latency of its repeats in the run,
    so an op that a burst of machine noise slowed once does not reach it.
    """
    n = len(latencies)
    repeats: list[list[float]] = [[] for _ in range(min(n, period))]
    for index, elapsed in enumerate(latencies):
        repeats[index % period].append(elapsed)
    tail, tail_pct = _tail(sorted(statistics.median(times) for times in repeats))
    return {
        "n": n,
        "p50_ms": statistics.median(latencies) * 1e3,
        "tail_ms": tail * 1e3,
        "tail_pct": tail_pct,
        "tail_inputs": len(repeats),
        "throughput": n / sum(latencies),
    }


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def _keep_going(args, done: int, start: float) -> bool:
    if args.ops:
        return done < args.ops
    return perf_counter() - start < args.seconds


# -- in-process workloads ----------------------------------------------------------


def run_in_process(args) -> dict:
    import tracing
    import workloads

    problems = workloads.global_state_problems()
    tracer = None
    if args.mode == "spans":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    failed, errors, first_digest = 0, [], {}
    warm = hashlib.sha256()

    def attempt(index: int, profile=None):
        item = workload.input(index)
        if profile is not None:
            profile.enable()
        started = perf_counter()
        cpu = process_time()
        try:
            result, error = workload.op(item), None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        elapsed, cpu = perf_counter() - started, process_time() - cpu
        if profile is not None:
            profile.disable()
        if error is not None:
            return item, elapsed, cpu, False, error
        try:
            ok, digest = workload.check(item, result)
        except Exception:
            return item, elapsed, cpu, False, traceback.format_exc(limit=3)
        return item, elapsed, cpu, ok, digest

    executed = []
    for index in range(workload.warmup_ops):
        item, _, _, ok, digest = attempt(index)
        executed.append(item)
        failed += not ok
        warm.update(digest.encode())
        first_digest[index % len(workload.inputs)] = digest
    workload.after_warmup()
    gc.collect()
    setup_s = perf_counter() - args.t0
    if args.mode == "setup":
        return {"setup_s": setup_s, "warmup_digest": warm.hexdigest(), "failed": failed, "problems": problems}
    if tracer is not None:
        tracer.reset()  # the warm-up is not measured

    profile = cProfile.Profile() if args.mode == "counts" else None
    latencies, cpu_total, repeats_differing, between = [], 0.0, 0, []
    start = perf_counter()
    index = 0
    while _keep_going(args, index, start):
        item, elapsed, cpu, ok, digest = attempt(index, profile)
        executed.append(item)
        latencies.append(elapsed)
        cpu_total += cpu
        if not ok:
            failed += 1
            if len(errors) < 3:
                errors.append(digest[-2000:])
        elif first_digest.setdefault(index % len(workload.inputs), digest) != digest:
            repeats_differing += 1
        index += 1
        if workload.between_every and index % workload.between_every == 0:
            began = perf_counter()
            differences = workload.between()
            between.append((perf_counter() - began, differences))
    if profile is not None and workload.between_every:
        profile.enable()
        workload.between()
        profile.disable()
    shape, shape_problems = workload.shape(executed)
    result = {
        "setup_s": setup_s,
        "ops": index,
        "failed": failed,
        "errors": errors,
        "problems": problems + shape_problems,
        "shape": shape,
        "repeats_differing": repeats_differing,
        "between_passes": len(between),
        "between_differing": sum(1 for _, found in between if found),
        "between_ms": statistics.median(t for t, _ in between) * 1e3 if between else None,
        "latency": latency_stats(latencies, len(workload.inputs)),
        "cpu_ms_per_op": cpu_total / index * 1e3,
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
    }
    if tracer is not None:
        tracer.add_unit("ops", index)
        result["trace"] = tracer.export()
    if profile is not None:
        result["counts"] = tracing.call_counts(profile)
    return result


# -- cli_cold: one fresh ``sulva`` process per op ----------------------------------------


def cli_commands(seed: int) -> tuple[list[list[str]], list[list[str]]]:
    """(distinct commands, op stream): one of each command kind per block."""
    import random

    from sulvalab import catalog

    rng = random.Random(seed)
    ids = sorted(catalog.rule_ids())
    drawable = [r for r in ids if catalog.lookup(r).run(1).figures]
    demos = sorted(p.name for p in (ROOT / "demos").glob("*.sulva"))
    kinds = [
        [["analyze", "all"]],
        [["analyze", *sorted(rng.sample(ids, rng.randint(2, 4))), "--format", "json"] for _ in range(3)],
        [["run", f"demos/{name}"] for name in rng.sample(demos, 3)],
        [["render", rule] for rule in rng.sample(drawable, 3)],
    ]
    distinct = [command for kind in kinds for command in kind]
    stream = []
    for _ in range(64):
        block = [rng.choice(kind) for kind in kinds]
        rng.shuffle(block)
        stream.extend(block)
    return distinct, stream


def _child_env() -> dict:
    import os

    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(argv: list[str], env: dict) -> tuple[float, float, subprocess.CompletedProcess]:
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
    elapsed = perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return elapsed, cpu, proc


def run_cli_cold(args) -> dict:
    import tracing

    env = _child_env()
    distinct, stream = cli_commands(args.seed)
    reference, failed, errors = {}, 0, []
    warm = hashlib.sha256()
    for command in distinct:
        _, _, proc = _run_child([sys.executable, "-c", CLI_ENTRY, *command], env)
        if proc.returncode != 0 or not proc.stdout:
            failed += 1
            errors.append(f"{command}: exit {proc.returncode}: {proc.stderr.decode()[-500:]}")
        reference[tuple(command)] = proc.stdout
        warm.update(proc.stdout)
    setup_s = perf_counter() - args.t0
    if args.mode == "setup":
        return {"setup_s": setup_s, "warmup_digest": warm.hexdigest(), "failed": failed, "problems": errors}

    # in spans mode every other op runs traced; in counts mode every op
    # runs under cProfile; the plain ops time the cold start as users see it
    latencies, traced_latencies, cpu_total = [], [], 0.0
    spans: dict = {"totals": {}, "samples": {}, "units": {}}
    counts: dict[str, int] = {}
    start = perf_counter()
    index = 0
    while _keep_going(args, index, start):
        command = stream[index % len(stream)]
        traced = args.mode == "counts" or (args.mode == "spans" and index % 2 == 1)
        if traced:
            argv = [sys.executable, str(BENCH / "clichild.py"), args.mode, *command]
        else:
            argv = [sys.executable, "-c", CLI_ENTRY, *command]
        elapsed, cpu, proc = _run_child(argv, env)
        ok = proc.returncode == 0 and proc.stdout == reference[tuple(command)]
        if traced and ok:
            report = json.loads(proc.stderr.decode().strip().splitlines()[-1])
            if args.mode == "spans":
                tracing.merge(spans, report)
            else:
                for key, value in report.items():
                    counts[key] = counts.get(key, 0) + value
        (traced_latencies if traced else latencies).append(elapsed)
        if not traced:
            cpu_total += cpu
        if not ok:
            failed += 1
            if len(errors) < 3:
                errors.append(f"{command}: exit {proc.returncode}: {proc.stderr.decode()[-500:]}")
        index += 1
    result = {
        "setup_s": setup_s,
        "ops": index,
        "failed": failed,
        "errors": errors,
        "problems": [],
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    if latencies:
        result["latency"] = latency_stats(latencies, len(stream))
        result["cpu_ms_per_op"] = cpu_total / len(latencies) * 1e3
    if args.mode == "counts":
        result["counts"] = counts
    if args.mode == "spans":
        probes = {}
        for name, code in (("interpreter", "pass"), ("import", "import sulvalab.cli")):
            probes[name] = statistics.median(
                _run_child([sys.executable, "-c", code], env)[0] for _ in range(CLI_PROBES)
            )
        spans["units"]["cli_interpreter_ms"] = probes["interpreter"] * 1e3
        spans["units"]["cli_import_ms"] = probes["import"] * 1e3
        spans["units"]["ops"] = len(traced_latencies)
        result["trace"] = spans
        traced_throughput = latency_stats(traced_latencies, len(stream))["throughput"]
        result["overhead_ratio"] = traced_throughput / result["latency"]["throughput"]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "spans", "counts"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()
    run = run_cli_cold if args.workload == "cli_cold" else run_in_process
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

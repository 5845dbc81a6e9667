"""sulvalab benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, so there is nothing to build.  Every workload runs in fresh
interpreters started by this script (``bench/worker.py``).

``--trace 0`` prints the end-to-end metrics of an untraced closed loop of
``--seconds`` seconds, with ``setup_s`` the median of nine set-ups (eight
that stop after the warm-up, plus the measured run's own).  ``--trace 1``
prints the per-layer metrics: span times from a traced run, exact counts
from two ``cProfile`` passes over the same fixed ops (which must agree),
and the tracing overhead against an untraced run.  A layer the workload
does not reach is measured on a short traced run of the workload that
does, and the line says so.

Human-readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("adjudicate", "deep_towers", "scripts", "cli_cold")
SETUPS = 9
WORKER_TIMEOUT_S = 170

# fixed op counts of the cProfile passes, and of the short traced runs
# that fill in layers a workload does not reach
FIXED_OPS = {"adjudicate": 260, "deep_towers": 9, "scripts": 120, "cli_cold": 8}


class BenchmarkError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, seconds: float = 0, ops: int = 0) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--mode", mode, "--seconds", str(seconds), "--ops", str(ops)]
    argv += ["--t0", repr(perf_counter())]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} {mode} worker failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- end-to-end ---------------------------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    setups = [spawn(workload, seed, "setup") for _ in range(SETUPS - 1)]
    run = spawn(workload, seed, "plain", seconds=seconds)
    problems = list(run["problems"]) + [p for s in setups for p in s["problems"]]
    if len({s["warmup_digest"] for s in setups}) != 1:
        problems.append("warm-up output bytes differ between processes of one seed")
    setup_times = [s["setup_s"] for s in setups] + [run["setup_s"]]
    failed = run["failed"] + sum(s["failed"] for s in setups)
    latency = run["latency"]
    n = latency["n"]
    metrics = {
        "throughput_ops_s": (latency["throughput"], "1/s", f"n={n}; ops per second of op time"),
        "latency_p50_ms": (latency["p50_ms"], "ms", f"n={n}"),
        "latency_p99_ms": (
            latency["tail_ms"],
            "ms",
            f"p{latency['tail_pct']:.2f} (>= 10 inputs beyond it) of the median latency of each of "
            f"{latency['tail_inputs']} distinct inputs over its repeats; n={n}",
        ),
        "cpu_ms_per_op": (run["cpu_ms_per_op"], "ms", f"n={n}"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", "largest child" if workload == "cli_cold" else "worker"),
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)}: {fmt_list(setup_times)}"),
    }
    lines = [line(name, *value) for name, value in metrics.items()]
    lines.append(line("fail_ratio", failed / n, "", f"{failed} of {n} ops (not in the JSON: 'failed' carries it)"))
    lines += info_lines(run)
    return {k: v[:2] for k, v in metrics.items()}, n, failed, lines + problem_lines(run, problems)


# -- per-layer -------------------------------------------------------------------------------


def _has(trace: dict, prefix: str) -> bool:
    return any(name.startswith(prefix) for name in trace["totals"])


def _self_s(trace: dict, prefix: str) -> float:
    return sum(own for name, (_, _, own) in trace["totals"].items() if name.startswith(prefix))


def median_of(span: str, scale: float):
    """Median duration of the spans named ``span``."""

    def value(run: dict, trace: dict):
        samples = trace["samples"].get(span)
        return statistics.median(samples) * scale if samples else None

    return value


def mean_of(span: str, scale: float):
    """Mean duration of the spans named ``span``."""

    def value(run: dict, trace: dict):
        total = trace["totals"].get(span)
        return total[1] / total[0] * scale if total else None

    return value


def self_ms_per_op(prefix: str):
    return self_ms_per(prefix, "ops")


def self_ms_per(prefix: str, unit: str, scale: float = 1e3):
    """Self time of the spans under ``prefix`` per unit of work they did."""

    def value(run: dict, trace: dict):
        amount = trace["units"].get(unit)
        return _self_s(trace, prefix) / amount * scale if amount and _has(trace, prefix) else None

    return value


def unit_ratio(numerator: str, denominator: str):
    def value(run: dict, trace: dict):
        amount = trace["units"].get(denominator)
        return trace["units"][numerator] / amount if amount else None

    return value


def unit_value(key: str):
    return lambda run, trace: trace["units"].get(key)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# name -> (unit, value from a traced run and its spans, workload that reaches the layer)
SPAN_METRICS = {
    **{
        f"exactreal.{op}_us.h{h}": ("us", median_of(f"exactreal.{op}.h{h}", 1e6), "deep_towers")
        for op in ("mul", "div", "sign")
        for h in (2, 4, 6)
    },
    "exactreal.sqrt_us.h6": ("us", median_of("exactreal.sqrt.h6", 1e6), "deep_towers"),
    # a mean: most rational roots find their tower at the front of the
    # registry, and a median would hide the scan that fresh radicands pay
    "exactreal.sqrt_us.rational": ("us", mean_of("exactreal.sqrt.rational", 1e6), "scripts"),
    "exactreal.enclose_us.b128": ("us", median_of("exactreal.enclose.b128", 1e6), "adjudicate"),
    "exactreal.enclose_us.b1024": ("us", median_of("exactreal.enclose.b1024", 1e6), "adjudicate"),
    "exactreal.to_decimal_us.d30": ("us", median_of("exactreal.to_decimal.d30", 1e6), "adjudicate"),
    "catalog.run_self_ms": ("ms", self_ms_per_op("catalog."), "adjudicate"),
    "geom.self_ms_per_op": ("ms", self_ms_per_op("geom."), "scripts"),
    "analysis.full_table_ms.b128": ("ms", median_of("analysis.full_table.b128", 1e3), "adjudicate"),
    "analysis.full_table_ms.b1024": ("ms", median_of("analysis.full_table.b1024", 1e3), "adjudicate"),
    "sulvascript.parse_ms_per_kb": ("ms/KB", self_ms_per("sulvascript.parse", "parse_bytes", 1024e3), "scripts"),
    "sulvascript.evaluate_ms_per_stmt": ("ms", self_ms_per("sulvascript.evaluate", "statements"), "scripts"),
    "sulvascript.render_report_ms": ("ms", self_ms_per("sulvascript.render_report", "reports"), "scripts"),
    "svg_render.to_svg_ms": ("ms", self_ms_per("svg_render.", "svg_docs"), "scripts"),
    "svg_render.ms_per_figure": ("ms", self_ms_per("svg_render.", "svg_figures"), "scripts"),
    "svg_render.bytes_per_doc": ("B", unit_ratio("svg_bytes", "svg_docs"), "scripts"),
    "cli.interpreter_ms": ("ms", unit_value("cli_interpreter_ms"), "cli_cold"),
    "cli.import_ms": ("ms", unit_value("cli_import_ms"), "cli_cold"),
    "cli.command_ms": ("ms", median_of("cli.main", 1e3), "cli_cold"),
}

# name -> (unit, value from the summed cProfile counts and the ops they cover)
COUNT_METRICS = {
    "exactreal.field_mul_calls": ("count", lambda c, ops: c["field_mul_calls"]),
    "exactreal.field_inv_calls": ("count", lambda c, ops: c["field_inv_calls"]),
    "exactreal.embed_calls": ("count", lambda c, ops: c["embed_calls"]),
    "exactreal.towers_created": ("count", lambda c, ops: c["towers_created"]),
    "exactreal.extend_compare_calls": ("count", lambda c, ops: c["extend_compare_calls"]),
    "exactreal.interval_raw_calls": ("count", lambda c, ops: c["interval_raw_calls"]),
    "exactreal.fraction_ops": ("count", lambda c, ops: c["fraction_ops"]),
    "exactreal.sign_norm_path_ratio": ("ratio", lambda c, ops: _ratio(c["norm_path_calls"], c["sign_calls"])),
    "catalog.run_calls_per_op": ("count/op", lambda c, ops: c["rule_run_calls"] / ops),
    "geom.calls_per_op": ("count/op", lambda c, ops: c["geom_calls"] / ops),
    "analysis.rule_runs_per_report": ("count", lambda c, ops: _ratio(c["rule_runs_from_analysis"], c["report_calls"])),
}

PER_LAYER_ORDER = [
    *(f"exactreal.{op}_us.h{h}" for op in ("mul", "div", "sign") for h in (2, 4, 6)),
    "exactreal.sqrt_us.h6",
    "exactreal.field_mul_calls",
    "exactreal.field_inv_calls",
    "exactreal.embed_calls",
    "exactreal.sqrt_us.rational",
    "exactreal.towers_created",
    "exactreal.extend_compare_calls",
    "exactreal.enclose_us.b128",
    "exactreal.enclose_us.b1024",
    "exactreal.to_decimal_us.d30",
    "exactreal.interval_raw_calls",
    "exactreal.fraction_ops",
    "exactreal.sign_norm_path_ratio",
    "catalog.run_self_ms",
    "catalog.run_calls_per_op",
    "geom.self_ms_per_op",
    "geom.calls_per_op",
    "analysis.full_table_ms.b128",
    "analysis.full_table_ms.b1024",
    "analysis.rule_runs_per_report",
    "sulvascript.parse_ms_per_kb",
    "sulvascript.evaluate_ms_per_stmt",
    "sulvascript.render_report_ms",
    "svg_render.to_svg_ms",
    "svg_render.ms_per_figure",
    "svg_render.bytes_per_doc",
    "cli.interpreter_ms",
    "cli.import_ms",
    "cli.command_ms",
    "trace.overhead_ratio",
]


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    plain = spawn(workload, seed, "plain", seconds=seconds)
    traced = spawn(workload, seed, "spans", seconds=seconds)
    passes = [spawn(workload, seed, "counts", ops=FIXED_OPS[workload]) for _ in range(2)]
    runs = [plain, traced, *passes]
    problems = [p for r in runs for p in r["problems"]]
    if passes[0]["counts"] != passes[1]["counts"]:
        problems.append("two cProfile passes of one seed gave different counts")
    counts, count_ops = passes[0]["counts"], passes[0]["ops"]

    metrics, lines, bursts = {}, [], {}
    for name, (unit, value_of, home) in SPAN_METRICS.items():
        source, note = traced, f"traced {workload} run, n={traced['ops']} ops"
        value = value_of(source, source["trace"])
        if value is None and home != workload:
            if home not in bursts:
                bursts[home] = spawn(home, seed, "spans", ops=FIXED_OPS[home])
                runs.append(bursts[home])
                problems += bursts[home]["problems"]
            source = bursts[home]
            note = f"not reached by {workload}: short traced {home} run, n={source['ops']} ops"
            value = value_of(source, source["trace"])
        if value is None:
            raise BenchmarkError(f"{name}: no spans recorded")
        metrics[name] = (value, unit, note)
    for name, (unit, value_of) in COUNT_METRICS.items():
        metrics[name] = (value_of(counts, count_ops), unit, f"cProfile pass of {count_ops} ops, repeated")
    ratio = traced.get("overhead_ratio") or traced["latency"]["throughput"] / plain["latency"]["throughput"]
    metrics["trace.overhead_ratio"] = (ratio, "ratio", "traced / untraced throughput_ops_s")
    lines = [line(name, *metrics[name]) for name in PER_LAYER_ORDER]
    lines += info_lines(plain)
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {k: v[:2] for k, v in metrics.items()}, attempted, failed, lines + problem_lines(traced, problems)


# -- output --------------------------------------------------------------------------------


def fmt_list(values) -> str:
    return ", ".join(f"{v:.4g}" for v in values)


def line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name:36s} {value:14.6g} {unit:9s} {note}".rstrip()


def info_lines(run: dict) -> list[str]:
    lines = []
    if "shape" in run:
        lines.append(f"realized shape: {json.dumps(run['shape'], sort_keys=True)}")
    if run.get("between_passes"):
        lines.append(
            f"interleaved full_table(128) + full_table(1024): median {run['between_ms']:.4g} ms over "
            f"{run['between_passes']} untraced passes; {run['between_differing']} differ from the first "
            "pass (enclosure memos of cached rule outputs tighten between calls; not counted as failures)"
        )
    if run.get("repeats_differing"):
        lines.append(f"{run['repeats_differing']} repeated inputs gave other bytes than their first run (not counted)")
    return lines


def problem_lines(run: dict, problems: list[str]) -> list[str]:
    return [f"CHECK FAILED: {p}" for p in problems] + [f"FAILED OP: {e}" for e in run.get("errors", [])]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sulvalab" / "__init__.py").is_file():
        print(f"error: no sulvalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, attempted, failed, lines = measure(args.workload, args.seed, args.seconds)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed += sum(1 for text in lines if text.startswith("CHECK FAILED"))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's contract with the package, checked on a short run.

``bench/`` reads private names of the package (the root tower registry, the
caches and defaults it checks at start, the functions it counts calls of).
A short counted run of each workload in a child interpreter fails here
when one of them goes missing, not only in the benchmark's own runs.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from child_env import child_env

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_counted_run_of_each_workload_is_clean(workload):
    args = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload]
    args += ["--seed", "1", "--mode", "counts", "--ops", "20", "--t0", repr(time.perf_counter())]
    proc = subprocess.run(args, env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["failed"] == 0
    assert report["errors"] == []
    assert report["problems"] == []

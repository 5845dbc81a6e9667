"""The narrative demo scripts run clean end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

from child_env import child_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"
TOURS = sorted(DEMOS.glob("tour_*.py"))


@pytest.mark.parametrize("script", TOURS, ids=lambda p: p.stem)
def test_tour_runs_clean(script, tmp_path):
    args = [sys.executable, str(script)]
    svg = tmp_path / "out.svg"
    if "figures" in script.name:
        args.append(str(svg))
    proc = subprocess.run(
        args,
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if "figures" in script.name:
        document = svg.read_text(encoding="utf-8")
        assert document.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')


def test_three_tours_shipped():
    assert len(TOURS) == 3

"""Command line contract: subcommands, exit codes, env/flag precedence."""

import json
import re
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

import pytest

from sulvalab.catalog import CATALOG
from sulvalab.cli import main
from sulvalab.exactreal import set_tower_cap, tower_cap

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def invoke(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


# -- catalog ---------------------------------------------------------------


def test_catalog_lists_every_rule():
    result = invoke("catalog")
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == len(CATALOG) + 1  # header row
    assert "10.3.2.13 / 11.13" in result.stdout
    assert "manava_gupta" in result.stdout


def test_catalog_json():
    result = invoke("catalog", "--format", "json")
    payload = json.loads(result.stdout)
    assert len(payload) == len(CATALOG)
    assert any(row["rule_id"] == "manava_dani" for row in payload)


# -- analyze ---------------------------------------------------------------


def test_analyze_all_table():
    result = invoke("analyze", "all")
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) - 1 >= 13
    assert re.search(r"manava_16_5\s+circumference\s+16/5", result.stdout)


def test_analyze_single_rule_json_schema():
    result = invoke("analyze", "manava_16_5", "--format", "json")
    assert result.exit_code == 0
    (row,) = json.loads(result.stdout)
    assert row["implied_pi"]["exact"] == "16/5"
    lo = Fraction(row["relative_error_percent"]["lo"])
    hi = Fraction(row["relative_error_percent"]["hi"])
    assert lo <= hi
    assert Fraction("1.85") < lo and hi < Fraction("1.86")


def test_analyze_unknown_rule_exits_2():
    result = invoke("analyze", "archimedes")
    assert result.exit_code == 2
    assert "unknown rule" in result.stderr


def test_analyze_env_var_low_precision_fails_tolerance():
    result = invoke("analyze", "all", env={"SULVA_PRECISION_BITS": "8"})
    assert result.exit_code == 1
    assert "reporting" in result.stderr


def test_analyze_flag_wins_over_env():
    result = invoke(
        "analyze",
        "all",
        "--precision-bits",
        "128",
        env={"SULVA_PRECISION_BITS": "8"},
    )
    assert result.exit_code == 0


def test_analyze_rejects_out_of_range_precision():
    result = invoke("analyze", "all", "--precision-bits", "4")
    assert result.exit_code == 2


# -- run ----------------------------------------------------------------------


def test_run_dani_script_exits_0():
    result = invoke("run", str(DEMOS / "dani_circle.sulva"))
    assert result.exit_code == 0, result.stderr
    assert "out = rule output" in result.stdout


def test_run_missing_file_exits_2():
    result = invoke("run", "no_such_script.sulva")
    assert result.exit_code == 2


def test_run_failing_assert_exits_1(tmp_path):
    script = tmp_path / "fail.sulva"
    script.write_text("assert 7/10 == 12/17;\n")
    result = invoke("run", str(script))
    assert result.exit_code == 1
    assert "assertion failed" in result.stderr
    assert result.stdout == ""


def test_run_parse_error_exits_1(tmp_path):
    script = tmp_path / "broken.sulva"
    script.write_text("let x = nope(1);\n")
    result = invoke("run", str(script))
    assert result.exit_code == 1
    assert "unknown name" in result.stderr


def test_run_non_decimal_digit_is_a_diagnostic_exit_1(tmp_path):
    script = tmp_path / "digit.sulva"
    script.write_text("let x = ²;\n", encoding="utf-8")
    result = invoke("run", str(script))
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"{script}:1:9: error: unexpected character '²'" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "expr, column",
    [("-" * 5000 + "1", 1009), ("neg(" * 2000 + "1" + ")" * 2000, 4009)],
    ids=["5000-minus", "2000-neg"],
)
def test_run_too_deeply_nested_script_exits_2(tmp_path, expr, column):
    script = tmp_path / "deep.sulva"
    script.write_text(f"let x = {expr};\nemit x;\n")
    result = invoke("run", str(script))
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"deep.sulva:1:{column}: error: expression nested more than" in result.stderr
    assert result.stdout == ""


def test_run_svg_deterministic(tmp_path):
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    for target in (first, second):
        result = invoke(
            "run", str(DEMOS / "dani_circle.sulva"), "--svg", str(target)
        )
        assert result.exit_code == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().startswith(b"<?xml")


@pytest.mark.parametrize(
    "command", [["run", str(DEMOS / "gupta_circle.sulva")], ["render", "manava_gupta"]]
)
def test_precision_bits_is_an_analyze_flag_only(command):
    result = invoke(*command, "--precision-bits", "64")
    assert result.exit_code == 2
    assert "No such option" in result.stderr


def test_run_svg_without_figures_exits_2(tmp_path):
    script = tmp_path / "plain.sulva"
    script.write_text("let x = 1; emit x;\n")
    result = invoke("run", str(script), "--svg", str(tmp_path / "out.svg"))
    assert result.exit_code == 2


# -- render ----------------------------------------------------------------------


def test_render_dani_has_8_marks(tmp_path):
    target = tmp_path / "dani.svg"
    result = invoke("render", "manava_dani", "-o", str(target))
    assert result.exit_code == 0
    svg = target.read_text()
    assert len(re.findall(r'class="mark"', svg)) == 8


def test_render_baudhayana_square_and_circle():
    result = invoke("render", "baudhayana")
    assert result.exit_code == 0
    assert len(re.findall(r"<rect\b", result.stdout)) == 1
    assert len(re.findall(r'class="circle"', result.stdout)) == 1


def test_render_repeat_identical_bytes():
    a = invoke("render", "manava_dani")
    b = invoke("render", "manava_dani")
    assert a.stdout == b.stdout


def test_render_rule_without_figures_exits_2():
    result = invoke("render", "sqrt2_sulba")
    assert result.exit_code == 2
    assert "no figures" in result.stderr


def test_render_unknown_rule_exits_2():
    result = invoke("render", "archimedes")
    assert result.exit_code == 2


def test_analyze_deduplicates_aliases():
    result = invoke("analyze", "dani", "manava_dani")
    assert result.exit_code == 0
    assert result.stdout.count("manava_dani") == 1


def test_tower_cap_flag_reaches_the_kernel(tmp_path):
    script = tmp_path / "deep.sulva"
    script.write_text("let x = sqrt(add(1, sqrt(2)));\n")
    limited = invoke("run", str(script), "--tower-cap", "1")
    assert limited.exit_code == 1
    assert "cap" in limited.stderr
    relaxed = invoke("run", str(script), "--tower-cap", "6")
    assert relaxed.exit_code == 0


@pytest.mark.parametrize(
    "args, exit_code",
    [
        (["analyze", "gupta"], 0),
        (["analyze", "archimedes"], 2),
        (["run", str(DEMOS / "gupta_circle.sulva")], 0),
        (["render", "manava_gupta"], 0),
    ],
)
def test_tower_cap_flag_does_not_outlive_the_command(args, exit_code):
    before = tower_cap()
    try:
        result = invoke(*args, "--tower-cap", "1")
        assert result.exit_code == exit_code, result.stderr
        assert tower_cap() == before
    finally:
        set_tower_cap(before)

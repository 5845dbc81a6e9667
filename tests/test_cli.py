"""Command line contract: subcommands, exit codes, env/flag precedence."""

import json
import re
import time
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

import pytest

from sulvalab.catalog import CATALOG
from sulvalab.cli import main
from sulvalab.sulvascript import MAX_PARTS, MAX_VALUE_DIGITS

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
    "content, message",
    [
        (b"let x = 1;\xff", "1:11: error: invalid UTF-8 byte 0xff"),
        (b"let x = 1;\r\nlet y = \xc3\xa9x\xe9;\n", "2:11: error: invalid UTF-8 byte 0xe9"),
        (b"# \xc3\xa9\rlet x = \xc3", "2:9: error: invalid UTF-8 byte 0xc3"),
    ],
    ids=["trailing-ff", "after-crlf-and-e-acute", "truncated-after-cr"],
)
def test_run_invalid_utf8_is_a_diagnostic_exit_1(tmp_path, content, message):
    # positions as the lexer gives them once CRLF and CR have become LF
    script = tmp_path / "bytes.sulva"
    script.write_bytes(content)
    result = invoke("run", str(script))
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == f"{script}:{message}\n"
    assert result.stdout == ""


def test_run_overlong_literal_exits_2(tmp_path):
    script = tmp_path / "long.sulva"
    script.write_text(f"let x = {'1' * 5000};\nemit x;\n")
    result = invoke("run", str(script))
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "long.sulva:1:9: error: numeric literal longer than 4000 digits" in result.stderr
    assert result.stdout == ""


def test_run_divide_past_the_part_bound_exits_2(tmp_path):
    script = tmp_path / "parts.sulva"
    script.write_text(
        "let s = segment(point(0, 0), point(1, 0));\n"
        f"let p = divide(s, {MAX_PARTS + 1});\n"
        "emit p;\n"
    )
    result = invoke("run", str(script))
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"parts.sulva:2:9: error: divide() takes at most {MAX_PARTS} parts" in result.stderr
    assert result.stdout == ""


def test_run_repeated_squaring_stops_at_the_value_bound(tmp_path):
    # each mul() doubles the digits: unbounded, the last lines would need
    # millions of digits
    lines = [f"let x0 = {'7' * 3000};"]
    lines += [f"let x{i} = mul(x{i - 1}, x{i - 1});" for i in range(1, 11)]
    script = tmp_path / "squares.sulva"
    script.write_text("\n".join(lines + ["emit x10;"]) + "\n")
    began = time.perf_counter()
    result = invoke("run", str(script))
    assert time.perf_counter() - began < 10
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    message = f"mul() gives a number longer than {MAX_VALUE_DIGITS} digits"
    assert result.stderr == f"{script}:4:10: error: {message}\n"
    assert result.stdout == ""


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.sulva")), ids=lambda p: p.stem)
def test_run_every_demo_passes(script):
    result = invoke("run", str(script))
    assert result.exit_code == 0, result.output
    assert result.stdout


def test_run_reports_a_radicand_past_the_int_string_digit_limit(tmp_path):
    # the radicand x*x + 1 has 8000 digits; Python converts at most 4300
    # between int and str by default
    script = tmp_path / "big.sulva"
    script.write_text(f"let x = {'9' * 4000};\nlet s = sqrt(add(mul(x, x), 1));\nemit s;\n")
    result = invoke("run", str(script))
    assert result.exit_code == 0, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    radicand = "9" * 3999 + "8" + "0" * 3999 + "2"
    assert result.stdout.startswith(f"s = {'9' * 4000}.")
    assert result.stdout.endswith(f"(= sqrt({radicand}))\n")


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


@pytest.mark.parametrize(
    "command",
    [["run", str(DEMOS / "dani_circle.sulva"), "--svg"], ["render", "manava_dani", "-o"]],
)
def test_unwritable_output_path_exits_2(tmp_path, command):
    target = tmp_path / "missing" / "x.svg"
    result = invoke(*command, str(target))
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")
    assert str(target) in result.stderr


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


@pytest.mark.parametrize("digits", [12, 20])
def test_render_labels_take_the_requested_digits(digits):
    result = invoke("render", "manava_dani", "--labels", "--digits", str(digits))
    assert result.exit_code == 0
    labels = re.findall(r'class="label"[^>]*>\(([^,]*), ([^)]*)\)<', result.stdout)
    assert len(labels) == 8
    for x, y in labels:
        assert re.fullmatch(rf"-?0\.\d{{{digits}}}…", x), x
        assert re.fullmatch(rf"-?0\.\d{{{digits}}}…", y), y


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


def test_tower_cap_diagnostic_names_only_the_cap(tmp_path):
    # seven nested square roots under the default cap of 6: the message
    # names the cap, not a library call the command line cannot make
    lines = ["let x1 = sqrt(2);"]
    for k, a in enumerate((3, 5, 7, 11, 13, 17), 2):
        lines.append(f"let x{k} = sqrt(add({a}, x{k - 1}));")
    script = tmp_path / "tall.sulva"
    script.write_text("\n".join(lines + ["emit x7;"]) + "\n")
    result = invoke("run", str(script))
    assert result.exit_code == 1
    assert result.stderr == f"{script}:7:10: error: sqrt(): tower height cap 6 exceeded\n"


def test_tower_cap_flag_is_gone():
    # the tower height is the fixed exactreal.MAX_TOWER_HEIGHT
    result = invoke("analyze", "gupta", "--tower-cap", "6")
    assert result.exit_code == 2
    assert "No such option" in result.stderr and "--tower-cap" in result.stderr

"""Byte-for-byte golden outputs: CLI artifacts, demo reports and figures,
every script-callable rule placed off the origin at a size other than 1,
repeated ``analysis.full_table`` calls in one process, a fixed sequence
of enclosures, signs and decimals of nested radicals up to height 6, the
edges of the kernel's enclosures (smallest precisions, values just under a
power of two, negative values, pi and percentages over it), the trees that
field arithmetic builds (nested radicals, a product across towers, products
by small rationals), and SVG edge cases: zero and one-axis spans, values
closer than one 64-bit grid cell, and odd canvas sizes.

Each artifact group is produced in a fresh interpreter.  Memos are pure
caches, so repeated calls in one process give the same bytes; the
``full_table`` sequence checks that.  To rewrite files after an intended
output change, run ``PYTHONPATH=src python tests/test_golden.py [NAME ...]``:
with names it rewrites only those artifacts, without any it rewrites all.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from child_env import child_env

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = Path(__file__).resolve().parent.parent / "demos"

CLI_ARTIFACTS = {
    "analyze_all.json": ["analyze", "all", "--format", "json"],
    "analyze_all.txt": ["analyze", "all"],
    "catalog.txt": ["catalog"],
    "render_manava_dani.svg": ["render", "manava_dani"],
    "render_manava_dani_labels.svg": [
        "render", "manava_dani", "--size", "400", "--labels", "--digits", "4",
    ],
    "render_baudhayana_bare.svg": ["render", "baudhayana", "--size", "100", "--no-witness-points"],
}

# writes <stem>.report.txt and, when figures were emitted, <stem>.svg
_DEMO_CODE = """
import sys
from pathlib import Path
from sulvalab import sulvascript, svg_render
path, out = Path(sys.argv[1]), Path(sys.argv[2])
script = sulvascript.parse(path.read_text(encoding="utf-8")).script
result = sulvascript.evaluate(script)
report = sulvascript.render_report(result)
(out / f"{path.stem}.report.txt").write_bytes(report.encode())
figures = sulvascript.extract_figures(result)
if figures:
    (out / f"{path.stem}.svg").write_bytes(svg_render.to_svg(figures).encode())
"""

# each of the 13 rules a script can call, on a square or circle centered off
# the origin (one bare-number input, one irrational side), then the two rules
# whose script names are builtins, run directly at 7/2
_PLACED_SCRIPT = """
let s1 = square(point(3/2, -1), 3/4);
let s2 = square(point(-2, 1/3), sqrt(2));
let c1 = circle(point(1, 2), 5/3);
let c2 = circle(point(-3/2, -5/2), 7/4);
let baud = baudhayana(s1);
let dani = manava_dani(s2);
let vang = manava_vangelder(s1);
let gupta = manava_gupta(s2);
let doubled = double_diagonal(s2);
let m16 = manava_16_5(c1);
let three = classical_3(5/2);
let jaina = jaina_sqrt10(c2);
let m7 = manava_7_10(c1);
let s12 = standard_12_17(c2);
let exact = inscribed_exact(c1);
let r13 = rule_13_15(c2);
let hay = hayashi(c1);
let w1 = witness(baud, 1);
let w8 = witness(dani, 8);
emit baud, dani, vang, gupta, doubled, m16, three, jaina, m7, s12, exact, r13, hay, w1, w8;
"""

_PLACED_CODE = f"""
import sys
from fractions import Fraction
from pathlib import Path
from sulvalab import catalog, sulvascript, svg_render
out = Path(sys.argv[1])
result = sulvascript.evaluate(sulvascript.parse({_PLACED_SCRIPT!r}).script)
assert result.ok, result.diagnostics
lines = [sulvascript.render_report(result)]
for rule_id in ("hypotenuse", "sqrt2_sulba"):
    run = catalog.lookup(rule_id).run(Fraction(7, 2))
    lines.append(
        f"{{rule_id}}.run(7/2): claimed = {{run.claimed}}, actual = {{run.actual}}, "
        f"figures = {{len(run.figures)}}\\n"
    )
(out / "rules_placed.report.txt").write_bytes("".join(lines).encode())
figures = sulvascript.extract_figures(result)
(out / "rules_placed.svg").write_bytes(svg_render.to_svg(figures).encode())
"""

# one process, each precision twice and 128 bits again after 1024: a table
# depends on its precision alone, not on the tables before it
_TABLE_CODE = """
import sys
from pathlib import Path
from sulvalab import analysis
out = Path(sys.argv[1])
for call, bits in enumerate((64, 64, 128, 128, 1024, 1024, 128), 1):
    text = analysis.reports_to_json(analysis.full_table(bits))
    (out / f"full_table_{call}_b{bits}.json").write_bytes(text.encode())
"""

# nested radicals x1 = sqrt(a1), x(i) = sqrt(a(i) + x(i-1)) of heights 2, 4
# and 6, with y = (x + 1)/(x - 1); the primes lie outside their towers, and a
# height-6 tower has no room for one more level under the default cap
_DEEP_CODE = """
import json
import sys
from pathlib import Path
from sulvalab import exactreal as er
out = Path(sys.argv[1])

def endpoints(interval):
    return [interval.lo.as_decimal(), interval.hi.as_decimal()]

records = []
for radicands, prime in (
    ([17, 23], 101),
    ([13, 29, 41, 53], 103),
    ([11, 37, 59, 71, 83, 97], None),
):
    x = er.sqrt(radicands[0])
    for a in radicands[1:]:
        x = er.sqrt(x + a)
    y = (x + 1) / (x - 1)
    near = er.enclose(y, 320)
    record = {"radicands": radicands, "height": x.tower.height}
    record["enclose_y_320"] = endpoints(near)
    record["sign_y_minus_midpoint"] = er.sign(y - near.midpoint())
    record["enclose_y_1024"] = endpoints(er.enclose(y, 1024))
    if prime is not None:
        record["prime"] = prime
        record["enclose_x_sqrt_prime_128"] = endpoints(er.enclose(x * er.sqrt(prime), 128))
    record["y_30_digits"] = er.to_decimal(y, 30)
    records.append(record)
text = json.dumps(records, indent=2) + "\\n"
(out / "deep_towers_sequence.json").write_bytes(text.encode())
"""

# the edges of the kernel's enclosures: grid cells of values below 1, just
# under a power of two and negative, at the smallest precisions and at 200
# bits; pi's fractional part and percentages over it, also over a negative
# denominator; decimals of negative irrationals and of pi-quantities; and the
# sign of nested radicals of heights 4 and 6 minus the midpoint of a 900-bit
# cell, which lies a hair from the value
_EDGES_CODE = """
import json
import sys
from pathlib import Path
from sulvalab import exactreal as er
from sulvalab.exactreal import PI, Quantity, enclose, enclose_percent, sqrt, to_decimal
out = Path(sys.argv[1])

def endpoints(interval):
    return [interval.lo.as_decimal(), interval.hi.as_decimal()]

tiny = er.from_rational(1, 2**200)
values = {
    "1/3": er.from_rational(1, 3),
    "sqrt(2) - 1": sqrt(2) - 1,
    "sqrt(3)/7": sqrt(3) / 7,
    "sqrt(1 - 2**-200)": sqrt(1 - tiny),
    "sqrt(4 - 2**-200)": sqrt(4 - tiny),
    "8 - sqrt(2)/2**100": 8 - sqrt(2) / 2**100,
    "1/2 - sqrt(2)/2**120": er.from_rational(1, 2) - sqrt(2) / 2**120,
    "-sqrt(2)": -sqrt(2),
    "-sqrt(1 - 2**-200)": -sqrt(1 - tiny),
    "1 - sqrt(3)": 1 - sqrt(3),
    "-(sqrt(5) + 2)/1024": -(sqrt(5) + 2) / 1024,
}
record = {"enclose": {}, "pi": {}, "to_decimal": {}, "near_sign": {}}
for name, value in values.items():
    record["enclose"][name] = {p: endpoints(enclose(value, p)) for p in (4, 5, 8, 200)}
for p in (8, 64, 1024):
    record["pi"][p] = {
        "PI - 3": endpoints((PI - 3).enclose(p)),
        "percent (PI - 3)/PI": endpoints(enclose_percent(PI - 3, PI, p)),
    }
record["pi"]["percent (PI - 3)/(3 - PI*sqrt(2))"] = endpoints(
    enclose_percent(PI - 3, Quantity(3, -sqrt(2)), 64)
)
decimals = {
    "-sqrt(2)": -sqrt(2),
    "1 - sqrt(3)": 1 - sqrt(3),
    "-(sqrt(5) + 2)/1024": -(sqrt(5) + 2) / 1024,
    "(3 - PI)/7": (3 - PI) / 7,
    "PI*sqrt(2) - 5": PI.scale(sqrt(2)) - 5,
}
for name, value in decimals.items():
    record["to_decimal"][name] = {d: to_decimal(value, d) for d in (0, 1, 30, 60)}
for radicands in ([19, 31, 43, 61], [7, 47, 67, 79, 89, 101]):
    x = sqrt(radicands[0])
    for a in radicands[1:]:
        x = sqrt(x + a)
    y = (x + 1) / (x - 1)
    key = f"height {x.tower.height}: {radicands}"
    record["near_sign"][key] = er.sign(y - enclose(y, 900).midpoint())
text = json.dumps(record, indent=2) + "\\n"
(out / "enclosure_edges.json").write_bytes(text.encode())
"""

# the trees field arithmetic builds: str() and structural equalities of
# products, quotients, differences, inverses and powers of nested radicals
# of heights 2, 4 and 6, of one product across towers, and of products by
# 0, 1, -1 and 7/3 (and sums with 0) from either side
_TREES_CODE = """
import json
import sys
from pathlib import Path
from sulvalab.exactreal import from_rational, sqrt, structurally_equal
out = Path(sys.argv[1])

def nested(radicands):
    x = sqrt(radicands[0])
    for a in radicands[1:]:
        x = sqrt(x + a)
    return x

record = {}
for radicands in ([17, 23], [13, 29, 41, 53], [11, 37, 59, 71, 83, 97]):
    x = nested(radicands)
    y = (x + 1) / (x - 1)
    values = {
        "x": x,
        "y = (x + 1)/(x - 1)": y,
        "x * y": x * y,
        "y * (x - 1)": y * (x - 1),
        "y / (x + 2)": y / (x + 2),
        "x - y": x - y,
        "y - x*x": y - x * x,
        "1/y": 1 / y,
        "x**3": x**3,
        "x**4": x**4,
        "y**3": y**3,
        "y**4": y**4,
    }
    same = {
        "y * (x - 1), x + 1": (y * (x - 1), x + 1),
        "(x * y) / y, x": ((x * y) / y, x),
        "x * y, y * x": (x * y, y * x),
        "x - y, -(y - x)": (x - y, -(y - x)),
        "(1/y) * y, 1": ((1 / y) * y, from_rational(1)),
        "x - x, 0": (x - x, from_rational(0)),
        "y**4, y**3 * y": (y**4, y**3 * y),
        "y**4, (y * y) * (y * y)": (y**4, (y * y) * (y * y)),
    }
    record[f"height {x.tower.height}"] = {
        "str": {name: str(v) for name, v in values.items()},
        "structurally_equal": {name: structurally_equal(*pair) for name, pair in same.items()},
    }
x = nested([17, 23])
record["cross"] = {"x * sqrt(101)": str(x * sqrt(101)), "sqrt(101) * x": str(sqrt(101) * x)}
scalars = {}
for name, v in (("x", nested([13, 29, 41, 53])), ("(sqrt(2) - 1/3)", sqrt(2) - from_rational(1, 3))):
    for k_name, k in (("0", 0), ("1", 1), ("-1", -1), ("7/3", from_rational(7, 3))):
        k = from_rational(k) if isinstance(k, int) else k
        scalars[f"{name} * {k_name}"] = str(v * k)
        scalars[f"{k_name} * {name}"] = str(k * v)
        scalars[f"{name} * {k_name} same as {k_name} * {name}"] = structurally_equal(v * k, k * v)
    zero = from_rational(0)
    scalars[f"{name} * 1 same as {name}"] = structurally_equal(v * from_rational(1), v)
    scalars[f"{name} * -1 same as -{name}"] = structurally_equal(v * from_rational(-1), -v)
    scalars[f"{name} * 7/3 * 3/7 same as {name}"] = structurally_equal(
        v * from_rational(7, 3) * from_rational(3, 7), v
    )
    for text, value in (
        (f"{name} + 0", v + zero),
        (f"0 + {name}", zero + v),
        (f"{name} - 0", v - zero),
        (f"0 - {name}", zero - v),
    ):
        scalars[text] = str(value)
    scalars[f"0 - {name} same as -{name}"] = structurally_equal(zero - v, -v)
record["scalars"] = scalars
text = json.dumps(record, indent=2) + "\\n"
(out / "field_trees.json").write_bytes(text.encode())
"""


# scenes that span nothing, one axis only, or about one 64-bit grid cell
# (1/3 and 1/3 +- 2**-100 share a cell, 1 and 1 - 2**-100 lie in neighbouring
# ones), and every rule with figures run at size 2/3 and placed at
# (7/2, sqrt(2)); all with labels, on odd canvases
_EDGE_CODE = """
import sys
from fractions import Fraction
from pathlib import Path
from sulvalab import catalog
from sulvalab.exactreal import from_rational, sqrt
from sulvalab.geom import Circle, Segment, Square, point
from sulvalab.svg_render import RenderOptions, render_rule_output, to_svg
out = Path(sys.argv[1])
third, tiny = Fraction(1, 3), Fraction(1, 2**100)
scenes = {
    "lone_point": [point(third, -2)],
    "points_in_one_cell": [point(third, third), point(third + tiny, third - tiny)],
    "points_one_cell_apart": [point(third, 1), point(third + tiny, 1 - tiny)],
    "vertical_segment": [Segment(point(1, 0), point(1, sqrt(3)))],
    "horizontal_segment": [Segment(point(0, 2), point(Fraction(5, 3), 2))],
    "tiny_circle": [Circle(point(sqrt(2), 1), from_rational(1, 2**100))],
    "square_and_far_point": [Square(point(0, 0), from_rational(1, 2)), point(10**6, -sqrt(3))],
}
parts = []
for size in (101, 333, 1001):
    options = RenderOptions(size=size, show_labels=True)
    for name, figures in scenes.items():
        parts.append(f"# {name} size={size}\\n" + to_svg(figures, options))
    for rule_id in catalog.rule_ids():
        run = catalog.lookup(rule_id).run(Fraction(2, 3), point(Fraction(7, 2), sqrt(2)))
        if run.figures:
            parts.append(f"# {rule_id} size={size}\\n" + render_rule_output(run, options))
(out / "render_edge_cases.txt").write_bytes("".join(parts).encode())
"""


def _run(args: list) -> bytes:
    proc = subprocess.run(
        [sys.executable, *args], env=child_env(), capture_output=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def capture(out: Path) -> None:
    """Write every golden artifact of the current code into ``out``."""
    for name, args in CLI_ARTIFACTS.items():
        (out / name).write_bytes(_run(["-m", "sulvalab.cli", *args]))
    for script in sorted(DEMOS.glob("*.sulva")):
        _run(["-c", _DEMO_CODE, str(script), str(out)])
    _run(["-c", _PLACED_CODE, str(out)])
    _run(["-c", _TABLE_CODE, str(out)])
    _run(["-c", _DEEP_CODE, str(out)])
    _run(["-c", _EDGES_CODE, str(out)])
    _run(["-c", _TREES_CODE, str(out)])
    _run(["-c", _EDGE_CODE, str(out)])


@pytest.fixture(scope="module")
def captured(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("golden")
    capture(out)
    return out


def test_same_artifacts(captured):
    assert sorted(p.name for p in captured.iterdir()) == sorted(
        p.name for p in GOLDEN.iterdir()
    )


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_artifact_unchanged(name, captured):
    assert (captured / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_tables_depend_on_precision_alone():
    table = {
        p.name[len("full_table_") :]: p.read_bytes() for p in GOLDEN.glob("full_table_*")
    }
    assert table["1_b64.json"] == table["2_b64.json"]
    assert table["3_b128.json"] == table["4_b128.json"] == table["7_b128.json"]
    assert table["5_b1024.json"] == table["6_b1024.json"]


def rewrite(names: list) -> None:
    """Rewrite the named golden artifacts, or all of them when none is named."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        capture(out)
        unknown = sorted(set(names) - {p.name for p in out.iterdir()})
        if unknown:
            raise SystemExit(f"no golden artifact named {', '.join(unknown)}")
        for path in sorted(out.iterdir()):
            if not names or path.name in names:
                shutil.copyfile(path, GOLDEN / path.name)


if __name__ == "__main__":
    rewrite(sys.argv[1:])

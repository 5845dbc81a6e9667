"""The refinement rounds of fixed computations, pinned exactly.

A raw enclosure can change shape without changing a byte of output, since
every answer is decided exactly; it must not change how much work the
answers take either.  For each computation below this records, in a fresh
interpreter, the ``bits`` of every round of each ``_refine`` caller (named
by its function), the number of ``_interval_raw`` calls, and the nodes the
field arithmetic built (calls of ``_rat`` and ``_node``), and compares them
with the counts pinned here:

- the computations of the golden ``deep_towers_sequence.json``;
- one benchmark ``adjudicate`` op per error-kind rule at 128 and 1024 bits:
  run the rule, enclose claimed and actual, sign and 30 digits of their
  difference;
- ``analysis.relative_error`` (that is, ``enclose_percent``) of each
  error-kind rule at 128 and 1024 bits.

The computations run in one process in this order, so later ones find the
towers and memos of the earlier ones, as a benchmark run would.
"""

import json
import subprocess
import sys

import pytest

from child_env import child_env
from test_golden import _DEEP_CODE

_ROUNDS_CODE = f"""
import json
import sys
import tempfile
from fractions import Fraction
from sulvalab import analysis, catalog
from sulvalab import exactreal as er

rounds = {{}}
calls = [0]
refine = er._refine

def recording_refine(encloser, bits, decide):
    log = rounds.setdefault(sys._getframe(1).f_code.co_name, [])

    def counted(b):
        log.append(b)
        return encloser(b)

    return refine(counted, bits, decide)

er._refine = recording_refine
for cls in (er.ConstructibleReal, er.Quantity):
    def counting(self, bits, _raw=cls._interval_raw):
        calls[0] += 1
        return _raw(self, bits)

    cls._interval_raw = counting

built = {{"_rat": 0, "_node": 0}}
for name in built:
    def building(*args, _name=name, _build=getattr(er, name)):
        built[_name] += 1
        return _build(*args)

    setattr(er, name, building)

records = {{}}
nodes = {{}}

def record(name, run):
    rounds.clear()
    calls[0] = 0
    built.update(dict.fromkeys(built, 0))
    run()
    records[name] = [calls[0], {{k: " ".join(map(str, v)) for k, v in sorted(rounds.items())}}]
    nodes[name] = [built["_rat"], built["_node"]]

with tempfile.TemporaryDirectory() as tmp:
    sys.argv = ["deep", tmp]
    record("deep_towers_sequence", lambda: exec({_DEEP_CODE!r}, {{"__name__": "deep"}}))

rules = [r for r in catalog.CATALOG if r.kind in analysis.ERROR_KINDS]

def adjudicate(rule, bits):
    out = rule.run(Fraction(347, 29))
    out.claimed.enclose(bits)
    out.actual.enclose(bits)
    diff = out.actual - out.claimed
    diff.sign()
    er.to_decimal(diff, 30)

for rule in rules:
    for bits in (128, 1024):
        record(f"adjudicate {{rule.id}} {{bits}}", lambda: adjudicate(rule, bits))
for rule in rules:
    for bits in (128, 1024):
        record(f"percent {{rule.id}} {{bits}}", lambda: analysis.relative_error(rule.id, bits))
print(json.dumps([records, nodes]))
"""

_DEEP_SIGNS = (
    "32 32 64 128 256 512 32 32 32 32 32 32 32 32 64 128 256 512 32 32 32 32 32 32 32 32 32"
    " 32 32 32 32 32 32 32 32 32 32 32 32 32 64 128 256 512"
)

# the deep_towers sequence: interval_raw calls and rounds, then _rat and _node calls
DEEP_BUILT = [1127, 706]
DEEP = [
    1138,
    {
        "_grid_cell": "336 1040 144 336 1040 144 336 1040",
        "sign": _DEEP_SIGNS,
        "to_decimal": "164 164 164",
    },
]

# (rule, bits): (interval_raw calls, sign calls, _rat calls, _node calls); each
# op encloses twice from bits + 16 and decides its 30 digits from 164 bits, all
# in the first round
ADJUDICATE = {
    ("manava_16_5", 128): (11, 1, 12, 0),
    ("manava_16_5", 1024): (11, 1, 7, 0),
    ("classical_3", 128): (11, 1, 12, 0),
    ("classical_3", 1024): (11, 1, 7, 0),
    ("jaina_sqrt10", 128): (20, 1, 16, 3),
    ("jaina_sqrt10", 1024): (20, 1, 9, 2),
    ("baudhayana", 128): (25, 3, 37, 7),
    ("baudhayana", 1024): (14, 1, 8, 1),
    ("manava_dani", 128): (29, 4, 99, 16),
    ("manava_dani", 1024): (14, 1, 8, 1),
    ("manava_vangelder", 128): (25, 3, 81, 10),
    ("manava_vangelder", 1024): (14, 1, 8, 1),
    ("manava_gupta", 128): (19, 3, 33, 4),
    ("manava_gupta", 1024): (11, 1, 8, 0),
    ("manava_7_10", 128): (15, 1, 28, 4),
    ("manava_7_10", 1024): (15, 1, 9, 2),
    ("standard_12_17", 128): (15, 1, 28, 4),
    ("standard_12_17", 1024): (15, 1, 9, 2),
    ("inscribed_exact", 128): (14, 1, 41, 8),
    ("inscribed_exact", 1024): (10, 0, 10, 3),
    ("rule_13_15", 128): (11, 1, 21, 0),
    ("rule_13_15", 1024): (11, 1, 8, 0),
    ("hayashi", 128): (15, 2, 38, 6),
    ("hayashi", 1024): (11, 1, 8, 0),
    ("sqrt2_sulba", 128): (15, 1, 14, 3),
    ("sqrt2_sulba", 1024): (15, 1, 8, 2),
}
# the difference of inscribed_exact is an exact zero: its sign needs no
# refinement, and its decimal is printed from the exact value
EXACT_DIFFERENCE = {"inscribed_exact"}

# rule: (interval_raw calls, _rat calls, _node calls), at 128 and at 1024 bits
# alike; the cell and the quotient are both decided in their first round, at
# bits + 16
PERCENT = {
    "manava_16_5": (6, 3, 0),
    "classical_3": (6, 3, 0),
    "jaina_sqrt10": (9, 2, 0),
    "baudhayana": (8, 2, 0),
    "manava_dani": (8, 2, 0),
    "manava_vangelder": (8, 2, 0),
    "manava_gupta": (5, 3, 0),
    "manava_7_10": (10, 4, 1),
    "standard_12_17": (10, 4, 1),
    "inscribed_exact": (7, 4, 1),
    "rule_13_15": (6, 3, 0),
    "hayashi": (6, 3, 0),
    "sqrt2_sulba": (10, 4, 1),
}


def _expected() -> tuple[dict, dict]:
    """The pinned rounds and the pinned nodes built, by computation."""
    expected = {"deep_towers_sequence": DEEP}
    built = {"deep_towers_sequence": DEEP_BUILT}
    for (rule, bits), (calls, signs, rats, nodes) in ADJUDICATE.items():
        rounds = {"_grid_cell": f"{bits + 16} {bits + 16}"}
        if signs:
            rounds["sign"] = " ".join(["32"] * signs)
        if rule not in EXACT_DIFFERENCE:
            rounds["to_decimal"] = "164"
        expected[f"adjudicate {rule} {bits}"] = [calls, rounds]
        built[f"adjudicate {rule} {bits}"] = [rats, nodes]
    for rule, (calls, rats, nodes) in PERCENT.items():
        for bits in (128, 1024):
            start = str(bits + 16)
            expected[f"percent {rule} {bits}"] = [calls, {"_grid_cell": start, "percent": start}]
            built[f"percent {rule} {bits}"] = [rats, nodes]
    return expected, built


@pytest.fixture(scope="module")
def recorded(tmp_path_factory) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", _ROUNDS_CODE],
        env=child_env(),
        capture_output=True,
        timeout=300,
        cwd=tmp_path_factory.mktemp("rounds"),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


def test_refinement_rounds_are_pinned(recorded):
    assert recorded[0] == _expected()[0]


def test_nodes_built_are_pinned(recorded):
    assert recorded[1] == _expected()[1]

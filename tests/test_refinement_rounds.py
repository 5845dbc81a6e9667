"""The refinement rounds of fixed computations, pinned exactly.

A raw enclosure can change shape without changing a byte of output, since
every answer is decided exactly; it must not change how much work the
answers take either.  For each computation below this records, in a fresh
interpreter, the ``bits`` of every round of each ``_refine`` caller (named
by its function) and the number of ``_interval_raw`` calls, and compares
them with the counts pinned here:

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

records = {{}}

def record(name, run):
    rounds.clear()
    calls[0] = 0
    run()
    records[name] = [calls[0], {{k: " ".join(map(str, v)) for k, v in sorted(rounds.items())}}]

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
print(json.dumps(records))
"""

_DEEP_SIGNS = (
    "32 32 64 128 256 512 32 32 32 32 32 32 32 32 64 128 256 512 32 32 32 32 32 32 32 32 32"
    " 32 32 32 32 32 32 32 32 32 32 32 32 32 64 128 256 512"
)

DEEP = [
    1138,
    {
        "_grid_cell": "336 1040 144 336 1040 144 336 1040",
        "sign": _DEEP_SIGNS,
        "to_decimal": "164 164 164",
    },
]

# (rule, bits): (interval_raw calls, sign calls); each op encloses twice from
# bits + 16 and decides its 30 digits from 164 bits, all in the first round
ADJUDICATE = {
    ("manava_16_5", 128): (11, 1),
    ("manava_16_5", 1024): (11, 1),
    ("classical_3", 128): (11, 1),
    ("classical_3", 1024): (11, 1),
    ("jaina_sqrt10", 128): (20, 1),
    ("jaina_sqrt10", 1024): (20, 1),
    ("baudhayana", 128): (25, 3),
    ("baudhayana", 1024): (14, 1),
    ("manava_dani", 128): (29, 4),
    ("manava_dani", 1024): (14, 1),
    ("manava_vangelder", 128): (25, 3),
    ("manava_vangelder", 1024): (14, 1),
    ("manava_gupta", 128): (19, 3),
    ("manava_gupta", 1024): (11, 1),
    ("manava_7_10", 128): (15, 1),
    ("manava_7_10", 1024): (15, 1),
    ("standard_12_17", 128): (15, 1),
    ("standard_12_17", 1024): (15, 1),
    ("inscribed_exact", 128): (14, 1),
    ("inscribed_exact", 1024): (10, 0),
    ("rule_13_15", 128): (11, 1),
    ("rule_13_15", 1024): (11, 1),
    ("hayashi", 128): (15, 2),
    ("hayashi", 1024): (11, 1),
    ("sqrt2_sulba", 128): (15, 1),
    ("sqrt2_sulba", 1024): (15, 1),
}
# the difference of inscribed_exact is an exact zero: its sign needs no
# refinement, and its decimal is printed from the exact value
EXACT_DIFFERENCE = {"inscribed_exact"}

# rule: interval_raw calls, at 128 and at 1024 bits alike; the cell and the
# quotient are both decided in their first round, at bits + 16
PERCENT = {
    "manava_16_5": 6,
    "classical_3": 6,
    "jaina_sqrt10": 9,
    "baudhayana": 8,
    "manava_dani": 8,
    "manava_vangelder": 8,
    "manava_gupta": 5,
    "manava_7_10": 10,
    "standard_12_17": 10,
    "inscribed_exact": 7,
    "rule_13_15": 6,
    "hayashi": 6,
    "sqrt2_sulba": 10,
}


def _expected() -> dict:
    expected = {"deep_towers_sequence": DEEP}
    for (rule, bits), (calls, signs) in ADJUDICATE.items():
        rounds = {"_grid_cell": f"{bits + 16} {bits + 16}"}
        if signs:
            rounds["sign"] = " ".join(["32"] * signs)
        if rule not in EXACT_DIFFERENCE:
            rounds["to_decimal"] = "164"
        expected[f"adjudicate {rule} {bits}"] = [calls, rounds]
    for rule, calls in PERCENT.items():
        for bits in (128, 1024):
            start = str(bits + 16)
            expected[f"percent {rule} {bits}"] = [calls, {"_grid_cell": start, "percent": start}]
    return expected


def test_refinement_rounds_are_pinned(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _ROUNDS_CODE],
        env=child_env(),
        capture_output=True,
        timeout=300,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == _expected()

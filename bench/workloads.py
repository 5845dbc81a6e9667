"""The in-process workloads of the sulvalab benchmark.

Each workload builds its inputs from the seed alone.  The worker runs
``op(input)`` in a closed loop (one client, no threads) and
``check(input, result)`` outside the timed region; ``check`` says whether
the op was right and returns a digest of its output bytes, which an input
that comes round again must reproduce.

Library calls go through module attributes (``er.sqrt``,
``analysis.full_table``, ...) so that the tracer's wrappers see them.

- ``adjudicate``: one error-kind rule at a seeded rational size and a
  precision from {128, 1024}: run it, enclose claimed and actual, take the
  exact sign of their difference and ``to_decimal(., 30)``.
  ``analysis.full_table`` at 128 and 1024 bits is interleaved and timed
  apart from the ops.  This is the paper's own traffic: towers of height
  at most 2, so intervals, Fractions, catalog and analysis do the work.
- ``deep_towers``: a nested radical of height 2, 4 or 6 (one of each per
  block): ``(x+1)/(x-1)``, the exact checks ``y*(x-1) == x+1`` and
  ``sqrt(x*x) == x``, a cross-tower product with an independent
  ``sqrt(p)`` below the default cap, a near-zero ``sign`` that forces the
  conjugate-norm path, and ``enclose(y, 1024)``.  Field arithmetic by
  height; each op touches one short tower chain.
- ``scripts``: parse, evaluate, report and render one ``.sulva`` script:
  the shipped demos, then generated scripts that each take the square
  root of a rational with a fresh square-free kernel, so the root tower
  registry grows to about 1.5k entries.

``cli_cold`` runs the ``sulva`` command in fresh processes; it lives in
``worker.py``.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import isqrt
from pathlib import Path

import mpmath

from sulvalab import analysis, catalog, sulvascript, svg_render
from sulvalab import exactreal as er

ORACLE_BITS = 1000


# -- independent oracle ------------------------------------------------------------


def _mpf_fraction(value) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(value)._mpf_
    if man == 0:
        return Fraction(0)
    magnitude = Fraction(man) * Fraction(2) ** exp
    return -magnitude if sign else magnitude


def _mp_real(x) -> mpmath.mpf:
    """Evaluate a ConstructibleReal's exact expression tree in mpmath."""
    if x.tower is None:
        return mpmath.mpf(x.frac.numerator) / x.frac.denominator
    return _mp_real(x.a) + _mp_real(x.b) * mpmath.sqrt(_mp_real(x.tower.radicand))


def _mp_quantity(q) -> mpmath.mpf:
    return _mp_real(q.c0) + _mp_real(q.c1) * mpmath.pi


def _oracle(thunk, bits: int) -> tuple[Fraction, Fraction]:
    """(value, error bound) of an mpmath evaluation at ``bits`` working bits."""
    with mpmath.workprec(bits):
        value = _mpf_fraction(thunk())
    return value, (abs(value) + 1) / 2 ** (bits - 16)


def _oracle_bits(precision_bits: int) -> int:
    return max(ORACLE_BITS, precision_bits + 128)


def _contains(interval, value: Fraction, error: Fraction) -> bool:
    return interval.lo.as_fraction() - error <= value <= interval.hi.as_fraction() + error


# -- shared helpers ------------------------------------------------------------------


def _is_square(n: Fraction) -> bool:
    return n >= 0 and all(isqrt(k) ** 2 == k for k in (n.numerator, n.denominator))


def _squarefree_kernel(n: int) -> int:
    kernel, p = 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
        if n % p == 0:
            kernel *= p
            n //= p
        p += 1
    return kernel * n


def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi) if all(n % d for d in range(2, isqrt(n) + 1))]


def _count_towers() -> Counter:
    """Height histogram of every tower in the registry."""
    heights: Counter = Counter()
    pending = [tower for _, tower in er._ROOT_EXTENSIONS]
    while pending:
        tower = pending.pop()
        heights[tower.height] += 1
        pending.extend(child for _, child in tower._children)
    return heights


def global_state_problems() -> list[str]:
    """Process-wide library state that must be at its defaults at start."""
    problems = []
    if er.tower_cap() != er._DEFAULT_TOWER_CAP:
        problems.append(f"tower_cap is {er.tower_cap()}")
    if er.sign_refinement_bits() != er._DEFAULT_SIGN_BITS:
        problems.append(f"sign_refinement_bits is {er.sign_refinement_bits()}")
    if er._ROOT_EXTENSIONS:
        problems.append(f"{len(er._ROOT_EXTENSIONS)} towers already registered")
    if catalog._dani_unit.cache_info().currsize:
        problems.append("the _dani_unit cache is already filled")
    if any(x._iv is not None for x in (er._ZERO, er._ONE, er.PI.c0, er.PI.c1)):
        problems.append("shared constants already carry enclosure memos")
    return problems


class Workload:
    """Seeded input stream plus the op and its correctness gate."""

    warmup_ops = 1
    between_every = 0  # run ``between`` after every this many ops (0: never)

    def __init__(self, seed: int, root: Path):
        self.rng = random.Random(seed)
        self.root = root
        self.inputs: list = []

    def input(self, index: int):
        return self.inputs[index % len(self.inputs)]

    def op(self, item):
        raise NotImplementedError

    def check(self, item, result) -> tuple[bool, str]:
        raise NotImplementedError

    def between(self) -> list[str]:
        """Extra work interleaved with the ops and timed apart; returns what
        differed from its first pass."""
        return []

    def after_warmup(self) -> None:
        self.towers_after_warmup = _count_towers()

    def shape(self, executed: list) -> tuple[dict, list[str]]:
        """Realized shape of the run, and where it differs from the requested one."""
        raise NotImplementedError


# -- adjudicate ----------------------------------------------------------------------------


class Adjudicate(Workload):
    warmup_ops = 26
    between_every = 250
    oracle_every = 16

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        rules = [r for r in catalog.CATALOG if r.kind in analysis.ERROR_KINDS]
        block = [(rule, bits) for rule in rules for bits in (128, 1024)]
        for _ in range(40):
            self.rng.shuffle(block)
            for rule, bits in block:
                size = Fraction(self.rng.randint(100, 999), self.rng.randint(10, 99))
                self.inputs.append((rule, size, bits))
        # the sign of actual - claimed does not depend on the (positive) size
        self.expected_sign = {rule.id: self._oracle_sign(rule) for rule in rules}
        self.tables: dict[int, str] = {}
        self.checked = 0

    @staticmethod
    def _oracle_sign(rule) -> int:
        unit = rule.run(1)
        diff, _ = _oracle(lambda: _mp_quantity(unit.actual) - _mp_quantity(unit.claimed), ORACLE_BITS)
        if abs(diff) <= Fraction(1, 2 ** (ORACLE_BITS // 2)):
            return 0
        return 1 if diff > 0 else -1

    def op(self, item):
        rule, size, bits = item
        out = rule.run(size)
        claimed = out.claimed.enclose(bits)
        actual = out.actual.enclose(bits)
        diff = out.actual - out.claimed
        return out, claimed, actual, diff.sign(), er.to_decimal(diff, 30)

    def check(self, item, result):
        rule, size, bits = item
        out, claimed, actual, sign, text = result
        self.checked += 1
        decimal = Fraction(text.rstrip("…"))
        ulp = Fraction(1, 10**30)
        lo = actual.lo.as_fraction() - claimed.hi.as_fraction()
        hi = actual.hi.as_fraction() - claimed.lo.as_fraction()
        ok = sign == self.expected_sign[rule.id] and lo - ulp <= decimal <= hi + ulp
        if ok and self.checked % self.oracle_every == 0:
            prec = _oracle_bits(bits)
            for quantity, interval in ((out.claimed, claimed), (out.actual, actual)):
                value, error = _oracle(lambda: _mp_quantity(quantity), prec)
                ok = ok and _contains(interval, value, error)
            value, error = _oracle(lambda: _mp_quantity(out.actual) - _mp_quantity(out.claimed), prec)
            ok = ok and abs(decimal - value) <= ulp / 2 + error
        digest = f"{rule.id}|{size}|{bits}|{claimed.lo}|{claimed.hi}|{actual.lo}|{actual.hi}|{sign}|{text}"
        return ok, digest

    def between(self):
        problems = []
        for bits in (128, 1024):
            table = analysis.reports_to_json(analysis.full_table(bits))
            if table != self.tables.setdefault(bits, table):
                problems.append(f"full_table({bits}) changed between passes")
        return problems

    def shape(self, executed):
        # rational sizes open no tower: the registry holds what the rules need
        towers = _count_towers()
        problems = [] if towers == self.towers_after_warmup else ["towers opened after warm-up"]
        return {"tower_heights": dict(towers)}, problems


# -- deep towers -----------------------------------------------------------------------------


class DeepInput:
    """Integer radicands of a nested radical, and a prime for the cross product.

    ``x1 = sqrt(a1)`` and ``x(i) = sqrt(a(i) + x(i-1))``.  A level is kept
    only when the rational norm of its radicand down to Q is not a square,
    which proves the radicand is no square in the field below, so the
    realized height is the requested one.  The prime divides neither ``a1``
    nor any of those norms, so it does not ramify in the tower and
    ``sqrt(p)`` lies outside it: the cross product gains exactly one level.
    """

    def __init__(self, radicands: list[int], prime: int | None):
        self.radicands = radicands
        self.prime = prime
        self.height = len(radicands)

    @staticmethod
    def norm(radicands: list[int]) -> Fraction:
        """Norm to Q of ``a(i) + x(i-1)``: c <- c*c - a(j) down the levels."""
        *below, top = radicands
        c = Fraction(top)
        for a in reversed(below):
            c = c * c - a
        return c

    @classmethod
    def draw(cls, rng: random.Random, height: int, primes: list[int]) -> "DeepInput":
        radicands: list[int] = []
        norms: list[Fraction] = []
        while len(radicands) < height:
            candidate = radicands + [rng.randint(10, 99)]
            n = cls.norm(candidate)
            if not _is_square(n):
                radicands, norms = candidate, norms + [n]
        prime = None
        if height < er._DEFAULT_TOWER_CAP:
            while prime is None or any(n.numerator % prime == 0 for n in norms):
                prime = rng.choice(primes)
        return cls(radicands, prime)

    def tower_keys(self) -> set:
        """The towers this input needs, keyed independently of the library."""
        keys = {("root", _squarefree_kernel(self.radicands[0]))}
        keys.update(tuple(self.radicands[:i]) for i in range(2, self.height + 1))
        if self.prime is not None:
            keys.add(("root", self.prime))
            keys.add((tuple(self.radicands), "times sqrt", self.prime))
        return keys


class DeepTowers(Workload):
    warmup_ops = 3
    heights = (2, 4, 6)
    per_height = 128

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        primes = _primes(101, 1000)
        pools = {h: [DeepInput.draw(self.rng, h, primes) for _ in range(self.per_height)] for h in self.heights}
        for i in range(self.per_height):
            block = [pools[h][i] for h in self.heights]
            self.rng.shuffle(block)
            self.inputs.extend(block)
        self.realized: Counter = Counter()

    def op(self, item: DeepInput):
        x = er.sqrt(item.radicands[0])
        for a in item.radicands[1:]:
            x = er.sqrt(x + a)
        y = (x + 1) / (x - 1)
        inverse_ok = y * (x - 1) == x + 1
        root_ok = er.sqrt(x * x) == x
        cross = None if item.prime is None else x * er.sqrt(item.prime)
        near = er.enclose(y, 320).midpoint()
        near_sign = er.sign(y - near)
        enclosure = er.enclose(y, 1024)
        return x, inverse_ok, root_ok, cross, near, near_sign, enclosure

    @staticmethod
    def _oracle_x(item: DeepInput):
        x = mpmath.sqrt(item.radicands[0])
        for a in item.radicands[1:]:
            x = mpmath.sqrt(x + a)
        return x

    def _oracle_y(self, item: DeepInput):
        x = self._oracle_x(item)
        return (x + 1) / (x - 1)

    def check(self, item, result):
        x, inverse_ok, root_ok, cross, near, near_sign, enclosure = result
        self.realized[x.tower.height] += 1
        ok = inverse_ok and root_ok and x.tower.height == item.height
        prec = _oracle_bits(1024)
        y, error = _oracle(lambda: self._oracle_y(item), prec)
        ok = ok and _contains(enclosure, y, error)
        ok = ok and abs(y - near) > error and near_sign == (y > near) - (y < near)
        if cross is not None:
            ok = ok and cross.tower.height == item.height + 1
            value, error = _oracle(lambda: self._oracle_x(item) * mpmath.sqrt(item.prime), prec)
            ok = ok and _contains(er.enclose(cross, 128), value, error)
        digest = f"{item.radicands}|{item.prime}|{near_sign}|{enclosure.lo}|{enclosure.hi}"
        return ok, digest

    def shape(self, executed):
        requested = Counter(item.height for item in executed)
        expected = len(set().union(*(item.tower_keys() for item in executed)))
        towers = sum(_count_towers().values())
        summary = {
            "requested_heights": dict(requested),
            "realized_heights": dict(self.realized),
            "expected_towers": expected,
            "towers": towers,
        }
        problems = []
        if self.realized != requested:
            problems.append("realized tower heights differ from the requested mix")
        if towers != expected:
            problems.append(f"{towers} towers exist, {expected} expected")
        return summary, problems


# -- scripts ----------------------------------------------------------------------------------

_SCRIPT = """\
# generated script {index}
let c = point({cx}, {cy});
let s = square(c, {half});
let out = {rule}(s);
let r = sqrt({radicand});
let cc = circumcircle(s);
let x0 = xcoord(nth(divide(nth(trisectors_vertical(s), 2), 1), 1));
let hits = intersect_vertical(x0, cc);
assert distance2(c, nth(hits, 2)) == mul(radius(cc), radius(cc));
assert mul(r, r) == {radicand};
assert claimed(out) == area(s);
assert actual(out) {relation} claimed(out);
emit out, r, hits;
"""

# how the circle of each circling reading compares with the square's area
_CIRCLINGS = {
    "baudhayana": ">",
    "manava_dani": "<",
    "manava_gupta": ">",
    "manava_vangelder": ">",
}


def _literal(value: Fraction) -> str:
    return f"-{-value}" if value < 0 else str(value)


class Scripts(Workload):
    generated = 1500
    warmup_ops = 16
    oracle_every = 8

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        demos = sorted((root / "demos").glob("*.sulva"))
        if not demos:
            raise FileNotFoundError(f"no .sulva demos under {root / 'demos'}")
        self.inputs = [(path.name, path.read_text(encoding="utf-8"), None) for path in demos]
        kernels: set[int] = set()
        while len(kernels) < self.generated:
            k = self.rng.randint(1000, 200_000)
            if _squarefree_kernel(k) == k:
                kernels.add(k)
        # every block of four scripts uses each circling reading once
        rules = []
        while len(rules) < self.generated:
            rules += self.rng.sample(sorted(_CIRCLINGS), len(_CIRCLINGS))
        for index, (kernel, rule) in enumerate(zip(self.rng.sample(sorted(kernels), len(kernels)), rules)):
            radicand = Fraction(kernel * self.rng.randint(1, 9) ** 2, self.rng.randint(1, 9) ** 2)
            source = _SCRIPT.format(
                index=index,
                cx=_literal(Fraction(self.rng.choice((-1, 1)) * self.rng.randint(10, 99), self.rng.randint(2, 9))),
                cy=_literal(Fraction(self.rng.choice((-1, 1)) * self.rng.randint(10, 99), self.rng.randint(2, 9))),
                half=Fraction(self.rng.randint(10, 99), self.rng.randint(2, 9)),
                rule=rule,
                radicand=radicand,
                relation=_CIRCLINGS[rule],
            )
            self.inputs.append((f"generated {index}", source, (kernel, radicand)))
        self.checked = 0

    def op(self, item):
        parsed = sulvascript.parse(item[1])
        if not parsed.ok:
            return None, "", ""
        result = sulvascript.evaluate(parsed.script)
        report = sulvascript.render_report(result)
        figures = sulvascript.extract_figures(result)
        return result, report, svg_render.to_svg(figures) if figures else ""

    def check(self, item, result):
        name, _, generated = item
        evaluated, report, svg = result
        self.checked += 1
        ok = evaluated is not None and evaluated.ok and bool(report) and svg.startswith("<?xml")
        if ok and generated is not None and self.checked % self.oracle_every == 0:
            radicand = generated[1]
            value, error = _oracle(
                lambda: mpmath.sqrt(mpmath.mpf(radicand.numerator) / radicand.denominator), ORACLE_BITS
            )
            ok = _contains(er.enclose(evaluated.environment["r"], 128), value, error)
        return ok, f"{name}\n{report}\n{svg}"

    @staticmethod
    def _kernels(items) -> set[int]:
        return {item[2][0] for item in items if item[2] is not None}

    def after_warmup(self):
        super().after_warmup()
        self.warmup_kernels = self._kernels(self.inputs[: self.warmup_ops])

    def shape(self, executed):
        # each generated script opens one root tower, for its fresh kernel
        fresh = len(self._kernels(executed) - self.warmup_kernels)
        expected = self.towers_after_warmup + Counter({1: fresh})
        towers = _count_towers()
        summary = {"fresh_kernels": fresh, "tower_heights": dict(towers)}
        problems = [] if towers == expected else [f"tower heights {dict(towers)}, expected {dict(expected)}"]
        return summary, problems


WORKLOADS = {"adjudicate": Adjudicate, "deep_towers": DeepTowers, "scripts": Scripts}

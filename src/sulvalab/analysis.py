"""Adjudication of catalog rules: implied pi, certified errors, rankings.

Relative error is signed, ``100*(approx - true)/true``, so that a positive
value means the rule leaves a surplus and a negative one a deficit.  Which
quantity plays ``approx`` depends on the rule kind: a construction is
scored by the exact measure of what it builds against the value it was
asserted to match (areas for the circling and squaring rules, as the
documented percentages are area based), while a prescription (a stated
circumference or constant) is scored against the true value it stands for.

Implied pi is kept exact, as a constructible real, wherever the rule's
ratio is constructible; it is only enclosed at report time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .catalog import CATALOG, KINDS, Rule, RuleOutput, lookup
from .exactreal import (
    Coercible,
    ConstructibleReal,
    DomainError,
    Interval,
    Quantity,
    constructible,
    enclose,
    enclose_percent,
)

__all__ = [
    "NotApplicableError",
    "REPORTING_WIDTH_PERCENT",
    "RuleReport",
    "ToleranceError",
    "compare_rules",
    "implied_pi",
    "full_table",
    "relative_error",
    "report_for",
    "reports_to_json",
]

PI_KINDS = tuple(name for name, kind in KINDS.items() if kind.implies_pi)
ERROR_KINDS = tuple(name for name, kind in KINDS.items() if kind.error)

REPORTING_WIDTH_PERCENT = Fraction(1, 10**6)


class NotApplicableError(ValueError):
    """The rule's kind has no pi interpretation or no true target."""


class ToleranceError(RuntimeError):
    """A reporting-width requirement could not be met."""


@dataclass(frozen=True)
class RuleReport:
    """One adjudicated rule: exact implied pi plus certified enclosures."""

    rule_id: str
    kind: str
    citation: str
    description: str
    basis: str
    implied_pi_exact: Optional[ConstructibleReal]
    implied_pi_interval: Optional[Interval]
    relative_error_percent: Optional[Interval]
    claimed_enclosure: Interval
    actual_enclosure: Interval
    reconstruction_flag: bool

    def error_midpoint(self) -> Fraction:
        if self.relative_error_percent is None:
            raise NotApplicableError(f"{self.rule_id} has no error target")
        return self.relative_error_percent.midpoint()


def implied_pi(rule_id: str, at: Coercible = 1) -> ConstructibleReal:
    """The circumference/area ratio that would make the rule exact.

    Exact (constructible) for every catalog rule with a pi interpretation;
    independent of the input scale.
    """
    rule = lookup(rule_id)
    if rule.kind not in PI_KINDS:
        raise NotApplicableError(f"rule kind {rule.kind!r} has no pi meaning")
    return _implied_pi(rule_id, rule.run(constructible(at)))


def _implied_pi(rule_id: str, out: RuleOutput) -> ConstructibleReal:
    claimed, actual = out.claimed, out.actual
    if claimed.c1.is_zero() and actual.c0.is_zero():
        return claimed.c0 / actual.c1
    if claimed.c0.is_zero() and actual.c1.is_zero():
        return actual.c0 / claimed.c1
    raise NotApplicableError(
        f"rule {rule_id!r} does not pair a pi-free and a pi-linear quantity"
    )


def _error_operands(rule: Rule, out: RuleOutput) -> tuple[Quantity, Quantity]:
    """(approx, true) for the signed relative error of a rule whose kind
    has an error target."""
    if KINDS[rule.kind].error == "actual":
        return out.actual, out.claimed
    return out.claimed, out.actual


def relative_error(rule_id: str, precision_bits: int = 128) -> Interval:
    """Certified enclosure of the rule's signed relative error, in percent."""
    rule = lookup(rule_id)
    if rule.kind not in ERROR_KINDS:
        raise NotApplicableError(f"rule kind {rule.kind!r} has no error target")
    return _relative_error(rule, rule.run(1), precision_bits)


def _relative_error(rule: Rule, out: RuleOutput, precision_bits: int) -> Interval:
    approx, true = _error_operands(rule, out)
    return enclose_percent(approx - true, true, precision_bits)


def report_for(rule_id: str, precision_bits: int = 128) -> RuleReport:
    """Full adjudication of one rule at the given precision; runs it once.

    Raises :class:`ToleranceError` once the relative error cell is
    ``REPORTING_WIDTH_PERCENT`` wide or wider.
    """
    rule = lookup(rule_id)
    out = rule.run(1)
    pi_exact = pi_interval = None
    if rule.kind in PI_KINDS:
        pi_exact = _implied_pi(rule.id, out)
        pi_interval = enclose(pi_exact, precision_bits)
    error = None
    if rule.kind in ERROR_KINDS:
        error = _relative_error(rule, out, precision_bits)
        if error.width() >= REPORTING_WIDTH_PERCENT:
            raise ToleranceError(
                f"error interval for {rule.id} is wider than the reporting "
                f"limit {REPORTING_WIDTH_PERCENT} percent; raise precision_bits"
            )
    return RuleReport(
        rule_id=rule.id,
        kind=rule.kind,
        citation=rule.citation,
        description=rule.description,
        basis=KINDS[rule.kind].basis,
        implied_pi_exact=pi_exact,
        implied_pi_interval=pi_interval,
        relative_error_percent=error,
        claimed_enclosure=out.claimed.enclose(precision_bits),
        actual_enclosure=out.actual.enclose(precision_bits),
        reconstruction_flag=rule.reconstruction,
    )


def compare_rules(rule_ids: Sequence[str], precision_bits: int = 128) -> list[RuleReport]:
    """Reports ordered by error magnitude, most accurate rule first.

    Rules without an error target are skipped; an empty applicable set is a
    domain error.  Ties (identical error midpoints) order by rule id, which
    keeps the ranking stable under precision increases.
    """
    applicable = []
    for rule_id in rule_ids:
        rule = lookup(rule_id)
        if rule.kind in ERROR_KINDS:
            applicable.append(rule.id)
    if not applicable:
        raise DomainError("no rule in the requested set has an error target")
    reports = [report_for(r, precision_bits) for r in applicable]
    reports.sort(key=lambda rep: (abs(rep.error_midpoint()), rep.rule_id))
    return reports


def full_table(precision_bits: int = 128) -> list[RuleReport]:
    """Deterministic adjudication of every catalog rule, sorted by id."""
    return [report_for(rule.id, precision_bits) for rule in sorted(CATALOG, key=lambda r: r.id)]


def _interval_json(interval: Interval) -> dict:
    return {
        "lo": interval.lo.as_decimal(),
        "hi": interval.hi.as_decimal(),
    }


def report_to_dict(report: RuleReport) -> dict:
    """Stable JSON form; all numbers are exact decimal strings."""
    if report.implied_pi_exact is None:
        pi_field = None
    else:
        assert report.implied_pi_interval is not None
        pi_field = {
            "exact": str(report.implied_pi_exact),
            **_interval_json(report.implied_pi_interval),
        }
    error_field = (
        None
        if report.relative_error_percent is None
        else _interval_json(report.relative_error_percent)
    )
    return {
        "rule_id": report.rule_id,
        "kind": report.kind,
        "citation": report.citation,
        "description": report.description,
        "implied_pi": pi_field,
        "relative_error_percent": error_field,
        "claimed": _interval_json(report.claimed_enclosure),
        "actual": _interval_json(report.actual_enclosure),
        "basis": report.basis,
        "reconstruction_flag": report.reconstruction_flag,
    }


def reports_to_json(reports: Sequence[RuleReport]) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2)

"""Deterministic SVG rendering of exact figures.

Every coordinate goes through the same fixed pipeline, in integers only.
Each exact value becomes the dyadic midpoint of its 64-bit grid cell (see
``exactreal.cell_midpoint``); all of a document's midpoints go onto one common
power-of-two grid, so that each is an integer ``w``; and each printed
number is the quotient ``size*(5*S + 4*(2*(w - wmin) - S_axis)) / (10*S)``
(mirrored for y, which grows downward), rounded once to three fractional
digits.  ``S`` is the larger span of the drawing and ``S_axis`` the span
of the axis at hand, so the drawing fills the square ``size`` px canvas up
to a fixed 10% margin on each edge; a drawing that spans nothing takes
``S = 1`` and sits at the centre.  Neither floats nor fractions are
involved, so the output is byte-identical across runs and platforms, and
whatever the process computed before.  No external assets or fonts are
referenced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .catalog import RuleOutput
from .exactreal import ConstructibleReal, DomainError, Dyadic, cell_midpoint, to_decimal
from .geom import Circle, Figure, Segment, Square, shape

__all__ = ["RenderOptions", "render_rule_output", "to_svg"]


@dataclass(frozen=True)
class RenderOptions:
    """Layer toggles for :func:`to_svg` and the side of its square canvas,
    ``size`` px, inside which the drawing keeps a fixed 10% margin."""

    size: int = 800
    label_digits: int = 6
    show_labels: bool = False
    show_witness_points: bool = True

    def __post_init__(self) -> None:
        for name in ("size", "label_digits"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise DomainError(f"{name} must be an int, got {value!r}")
        if self.size < 100:
            raise DomainError("canvas must be at least 100 px on each side")
        if self.label_digits < 1:
            raise DomainError("label_digits must be positive")


def _fmt(n: int, d: int) -> str:
    """``n/d`` to three fractional digits, halves up, for ``n >= 0`` and
    ``d > 0``: no printed number is below ``size/10 - 5`` px."""
    units = (2000 * n + d) // (2 * d)
    return f"{units // 1000}.{units % 1000:03d}"


def to_svg(
    figures: Sequence[Figure], options: RenderOptions = RenderOptions()
) -> str:
    """Render figures to an SVG 1.1 document with byte-deterministic output."""
    figures = list(figures)
    if not figures:
        raise DomainError("nothing to render: the figure list is empty")
    shapes = [shape(figure) for figure in figures]
    # one midpoint per value and document; holding the value keeps its id
    # from being reused meanwhile.  A placed rule output maps each distinct
    # unit coordinate once and shares it, so equal coordinates of its
    # figures and witness points take one cell here
    cells: dict[int, tuple[ConstructibleReal, Dyadic]] = {}
    for anchors, extent in shapes:
        for value in (extent, *(c for p in anchors for c in (p.x, p.y))):
            if value is not None and id(value) not in cells:
                cells[id(value)] = (value, cell_midpoint(value, 64))
    grid = min(cell.exp for _, cell in cells.values())

    def w(value: ConstructibleReal) -> int:
        man, exp = cells[id(value)][1]
        return man << (exp - grid)

    xs: list[int] = []
    ys: list[int] = []
    for anchors, extent in shapes:
        h = 0 if extent is None else w(extent)
        for p in anchors:
            xs += (w(p.x) - h, w(p.x) + h)
            ys += (w(p.y) - h, w(p.y) + h)
    xmin, ymin = min(xs), min(ys)
    span_x, span_y = max(xs) - xmin, max(ys) - ymin
    span = max(span_x, span_y, 1)  # integers, so 1 only when nothing is spanned
    size, d = options.size, 10 * span

    # screen coordinates times d; lengths scale by size*8/d
    def sx(world: int) -> int:
        return size * (5 * span + 4 * (2 * (world - xmin) - span_x))

    def sy(world: int) -> int:
        return size * (5 * span - 4 * (2 * (world - ymin) - span_y))

    body: list[str] = []
    for figure in figures:
        if isinstance(figure, Square):
            h = w(figure.half_side)
            x, y = sx(w(figure.center.x) - h), sy(w(figure.center.y) + h)
            side = _fmt(size * 16 * h, d)
            body.append(
                f'<rect class="square" x="{_fmt(x, d)}" y="{_fmt(y, d)}" '
                f'width="{side}" height="{side}" '
                f'fill="none" stroke="#1f3a5f" stroke-width="1.5"/>'
            )
        elif isinstance(figure, Circle):
            cx, cy = sx(w(figure.center.x)), sy(w(figure.center.y))
            body.append(
                f'<circle class="circle" cx="{_fmt(cx, d)}" cy="{_fmt(cy, d)}" '
                f'r="{_fmt(size * 8 * w(figure.radius), d)}" '
                f'fill="none" stroke="#a23b3b" stroke-width="1.5"/>'
            )
        elif isinstance(figure, Segment):
            body.append(
                f'<line class="segment" x1="{_fmt(sx(w(figure.a.x)), d)}" '
                f'y1="{_fmt(sy(w(figure.a.y)), d)}" '
                f'x2="{_fmt(sx(w(figure.b.x)), d)}" y2="{_fmt(sy(w(figure.b.y)), d)}" '
                f'stroke="#6b6b6b" stroke-width="1"/>'
            )
        else:
            cx, cy = sx(w(figure.x)), sy(w(figure.y))
            body.append(
                f'<circle class="mark" cx="{_fmt(cx, d)}" cy="{_fmt(cy, d)}" '
                f'r="3.000" fill="#a23b3b" stroke="none"/>'
            )
            if options.show_labels:
                # digits, signs, points and ellipses only: nothing to escape;
                # labels sit 5 px right of and above their mark
                digits = options.label_digits
                body.append(
                    f'<text class="label" x="{_fmt(cx + 5 * d, d)}" '
                    f'y="{_fmt(cy - 5 * d, d)}" font-size="12">'
                    f"({to_decimal(figure.x, digits)}, {to_decimal(figure.y, digits)})</text>"
                )
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{options.size}" height="{options.size}" '
        f'viewBox="0 0 {options.size} {options.size}">\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def render_rule_output(
    out: RuleOutput, options: RenderOptions = RenderOptions()
) -> str:
    """Render a rule's figures, with witness marks when toggled on."""
    figures: list[Figure] = list(out.figures)
    if options.show_witness_points and out.witness_points is not None:
        figures.extend(out.witness_points)
    return to_svg(figures, options)

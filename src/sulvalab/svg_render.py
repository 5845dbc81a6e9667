"""Deterministic SVG rendering of exact figures.

Every coordinate goes through the same fixed pipeline: the 64-bit grid
cell of the exact value (see ``exactreal.enclose``), its dyadic midpoint
as an exact fraction, an exact affine world-to-screen transform, and a
fixed-point decimal with three fractional digits.  No floats are involved
anywhere, so the output is byte-identical across runs and platforms, and
whatever the process computed before.  The canvas is square, ``size``
px on a side, and the drawing fills it up to a fixed 10% margin on each
edge.  No external assets or fonts are referenced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .catalog import RuleOutput
from .exactreal import ConstructibleReal, DomainError, enclose, to_decimal
from .geom import Circle, Figure, Point, Segment, Square

__all__ = ["RenderOptions", "render_rule_output", "to_svg"]

_MARK_RADIUS = Fraction(3)
_MARGIN = Fraction(1, 10)


@dataclass(frozen=True)
class RenderOptions:
    """Layer toggles for :func:`to_svg` and the side of its square canvas,
    ``size`` px, inside which the drawing keeps a fixed 10% margin."""

    size: int = 800
    label_digits: int = 6
    show_labels: bool = False
    show_witness_points: bool = True

    def __post_init__(self) -> None:
        if self.size < 100:
            raise DomainError("canvas must be at least 100 px on each side")
        if self.label_digits < 1:
            raise DomainError("label_digits must be positive")


def _approx(value: ConstructibleReal) -> Fraction:
    return enclose(value, 64).midpoint()


def _bounds(
    figure: Figure, approx: Callable[[ConstructibleReal], Fraction]
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    if isinstance(figure, Point):
        x, y = approx(figure.x), approx(figure.y)
        return x, x, y, y
    if isinstance(figure, Segment):
        ax, ay = approx(figure.a.x), approx(figure.a.y)
        bx, by = approx(figure.b.x), approx(figure.b.y)
        return min(ax, bx), max(ax, bx), min(ay, by), max(ay, by)
    if isinstance(figure, Square):
        cx, cy = approx(figure.center.x), approx(figure.center.y)
        h = approx(figure.half_side)
        return cx - h, cx + h, cy - h, cy + h
    cx, cy = approx(figure.center.x), approx(figure.center.y)
    r = approx(figure.radius)
    return cx - r, cx + r, cy - r, cy + r


def _fmt(value: Fraction) -> str:
    """Fixed-point decimal, three fractional digits, half away from zero."""
    scaled = abs(value) * 1000
    units = (scaled + Fraction(1, 2)).__floor__()
    text = f"{units // 1000}.{units % 1000:03d}"
    return "-" + text if value < 0 and units else text


class _Transform:
    def __init__(self, figures: Sequence[Figure], options: RenderOptions):
        self._approximations: dict[int, tuple[ConstructibleReal, Fraction]] = {}
        boxes = [_bounds(f, self.approx) for f in figures]
        self.xmin = min(b[0] for b in boxes)
        xmax = max(b[1] for b in boxes)
        self.ymin = min(b[2] for b in boxes)
        ymax = max(b[3] for b in boxes)
        span_x = xmax - self.xmin
        span_y = ymax - self.ymin
        span = max(span_x, span_y)
        self.size = Fraction(options.size)
        self.scale = self.size * (1 - 2 * _MARGIN) / span if span > 0 else Fraction(1)
        self.ox = (self.size - self.scale * span_x) / 2
        self.oy = (self.size - self.scale * span_y) / 2

    def x(self, world: Fraction) -> Fraction:
        return self.ox + self.scale * (world - self.xmin)

    def y(self, world: Fraction) -> Fraction:
        # SVG y grows downward
        return self.size - self.oy - self.scale * (world - self.ymin)

    def approx(self, value: ConstructibleReal) -> Fraction:
        """``_approx(value)``, worked out once per value and document."""
        cached = self._approximations.get(id(value))
        if cached is None:
            # holding the value keeps its id from being reused meanwhile
            cached = self._approximations[id(value)] = (value, _approx(value))
        return cached[1]

    def point(self, p: Point) -> tuple[Fraction, Fraction]:
        return self.x(self.approx(p.x)), self.y(self.approx(p.y))


def _emit_figure(figure: Figure, t: _Transform, options: RenderOptions) -> list[str]:
    parts: list[str] = []
    if isinstance(figure, Square):
        x = t.x(t.approx(figure.center.x) - t.approx(figure.half_side))
        y = t.y(t.approx(figure.center.y) + t.approx(figure.half_side))
        side = t.scale * 2 * t.approx(figure.half_side)
        parts.append(
            f'<rect class="square" x="{_fmt(x)}" y="{_fmt(y)}" '
            f'width="{_fmt(side)}" height="{_fmt(side)}" '
            f'fill="none" stroke="#1f3a5f" stroke-width="1.5"/>'
        )
    elif isinstance(figure, Circle):
        cx, cy = t.point(figure.center)
        r = t.scale * t.approx(figure.radius)
        parts.append(
            f'<circle class="circle" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
            f'r="{_fmt(r)}" fill="none" stroke="#a23b3b" stroke-width="1.5"/>'
        )
    elif isinstance(figure, Segment):
        x1, y1 = t.point(figure.a)
        x2, y2 = t.point(figure.b)
        parts.append(
            f'<line class="segment" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="#6b6b6b" stroke-width="1"/>'
        )
    else:
        cx, cy = t.point(figure)
        parts.append(
            f'<circle class="mark" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
            f'r="{_fmt(_MARK_RADIUS)}" fill="#a23b3b" stroke="none"/>'
        )
        if options.show_labels:
            # digits, signs, points and ellipses only: nothing to escape
            digits = options.label_digits
            parts.append(
                f'<text class="label" x="{_fmt(cx + 5)}" y="{_fmt(cy - 5)}" '
                f'font-size="12">({to_decimal(figure.x, digits)}, '
                f"{to_decimal(figure.y, digits)})</text>"
            )
    return parts


def to_svg(
    figures: Sequence[Figure], options: RenderOptions = RenderOptions()
) -> str:
    """Render figures to an SVG 1.1 document with byte-deterministic output."""
    figures = list(figures)
    if not figures:
        raise DomainError("nothing to render: the figure list is empty")
    t = _Transform(figures, options)
    body: list[str] = []
    for figure in figures:
        body.extend(_emit_figure(figure, t, options))
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

"""Command line front end: catalog listing, analysis, scripts, rendering.

Exit codes: 0 when everything succeeded and all assertions hold, 1 for
assertion failures or analysis tolerance failures, 2 for usage and I/O
errors (unknown rule ids, unreadable files, bad flag values, scripts past
a ``sulvascript.MAX_*`` bound).  Standard output carries only
the requested artifact; diagnostics go to stderr.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import click

from . import analysis, catalog, sulvascript, svg_render
from .exactreal import DomainError, to_decimal

__all__ = ["main"]

PRECISION_RANGE = click.IntRange(8, 1024)
DIGITS_RANGE = click.IntRange(1, 60)


def _common_options(command):
    return click.option(
        "--digits",
        type=DIGITS_RANGE,
        default=12,
        show_default=True,
        help="decimal digits in rendered numbers",
    )(command)


def _format_option(command):
    return click.option(
        "--format",
        "output_format",
        type=click.Choice(["table", "json"]),
        default="table",
        show_default=True,
        help="output format",
    )(command)


def _table(rows: list[list[str]], header: list[str]) -> str:
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = []
    for row in [header] + rows:
        cells = [row[i].ljust(widths[i]) for i in range(len(header))]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


@click.group()
def main() -> None:
    """Exact-arithmetic laboratory for Sulvasutra constructions."""


@main.command("catalog")
@_format_option
def catalog_command(output_format: str) -> None:
    """List every rule with its id, kind, citation and description."""
    if output_format == "json":
        import json

        payload = [
            {
                "rule_id": rule.id,
                "kind": rule.kind,
                "citation": rule.citation,
                "description": rule.description,
                "reconstruction_flag": rule.reconstruction,
                "notes": rule.notes,
            }
            for rule in sorted(catalog.CATALOG, key=lambda r: r.id)
        ]
        click.echo(json.dumps(payload, indent=2))
        return
    rows = [
        [rule.id, rule.kind, rule.citation, rule.description]
        for rule in sorted(catalog.CATALOG, key=lambda r: r.id)
    ]
    click.echo(_table(rows, ["RULE", "KIND", "CITATION", "DESCRIPTION"]), nl=False)


def _signed_decimal(value: Fraction, digits: int) -> str:
    text = to_decimal(value, digits)
    return "+" + text if value > 0 else text


def _analyze_rows(reports, digits: int) -> list[list[str]]:
    rows = []
    for report in reports:
        implied = (
            "n/a" if report.implied_pi_exact is None else str(report.implied_pi_exact)
        )
        if report.relative_error_percent is None:
            error = "n/a"
        else:
            error = _signed_decimal(
                report.relative_error_percent.midpoint(), digits
            )
        notes = "reconstruction" if report.reconstruction_flag else ""
        rows.append(
            [report.rule_id, report.kind, implied, error, report.basis, notes]
        )
    return rows


@main.command("analyze")
@click.argument("rules", nargs=-1, required=True)
@click.option(
    "--precision-bits",
    type=PRECISION_RANGE,
    default=128,
    envvar="SULVA_PRECISION_BITS",
    show_default=True,
    help="certified enclosure precision (flag wins over SULVA_PRECISION_BITS)",
)
@_common_options
@_format_option
def analyze_command(
    rules: tuple[str, ...], precision_bits: int, digits: int, output_format: str
) -> None:
    """Adjudicate rules (or "all"): implied pi and certified error bounds."""
    if len(rules) == 1 and rules[0] == "all":
        rule_ids = list(catalog.rule_ids())
    else:
        rule_ids = list(rules)
    try:
        resolved = sorted({catalog.lookup(r).id for r in rule_ids})
    except catalog.UnknownRuleError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    try:
        reports = [
            analysis.report_for(rule_id, precision_bits)
            for rule_id in resolved
        ]
    except analysis.ToleranceError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    if output_format == "json":
        click.echo(analysis.reports_to_json(reports))
        return
    header = ["RULE", "KIND", "IMPLIED_PI", "REL_ERR_%", "BASIS", "NOTES"]
    click.echo(_table(_analyze_rows(reports, digits), header), nl=False)


def _universal_newlines(text: str) -> str:
    """``text`` with CRLF and CR read as LF, as a text-mode ``open`` reads it."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8; an I/O error exits 2."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


@main.command("run")
@click.argument(
    "script", type=click.Path(exists=True, dir_okay=False, readable=True)
)
@click.option(
    "--svg",
    "svg_path",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="write the emitted figures as SVG",
)
@_common_options
def run_command(script: str, svg_path: str | None, digits: int) -> None:
    """Parse and evaluate a .sulva construction script."""
    try:
        with open(script, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    try:
        source = _universal_newlines(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        # positioned as the lexer positions characters
        before = _universal_newlines(data[: exc.start].decode("utf-8"))
        diagnostic = sulvascript.Diagnostic(
            f"invalid UTF-8 byte 0x{data[exc.start]:02x}",
            before.count("\n") + 1,
            len(before) - before.rfind("\n"),
        )
        click.echo(f"{script}:{diagnostic}", err=True)
        sys.exit(1)
    parsed = sulvascript.parse(source)
    for diagnostic in parsed.diagnostics:
        click.echo(f"{script}:{diagnostic}", err=True)
    if not parsed.ok:
        sys.exit(2 if any(d.limit for d in parsed.diagnostics) else 1)
    result = sulvascript.evaluate(parsed.script)
    for diagnostic in result.diagnostics:
        click.echo(f"{script}:{diagnostic}", err=True)
    report = sulvascript.render_report(result, digits)
    if report:
        click.echo(report, nl=False)
    if svg_path is not None:
        figures = sulvascript.extract_figures(result)
        if not figures:
            click.echo("error: the script emitted no figures", err=True)
            sys.exit(2)
        _write_text(svg_path, svg_render.to_svg(figures))
    limited = any(d.limit for d in result.diagnostics)
    sys.exit(0 if result.ok else 2 if limited else 1)


@main.command("render")
@click.argument("rule")
@click.option(
    "--size",
    type=click.IntRange(100, 10000),
    default=800,
    show_default=True,
    help="canvas size in pixels",
)
@click.option(
    "-o",
    "--output",
    type=click.Path(dir_okay=False, writable=True),
    default="-",
    help="output path (default: standard output)",
)
@click.option("--no-witness-points", is_flag=True, help="hide witness marks")
@click.option("--labels", is_flag=True, help="label witness points")
@_common_options
def render_command(
    rule: str,
    size: int,
    output: str,
    no_witness_points: bool,
    labels: bool,
    digits: int,
) -> None:
    """Construct a rule at unit size and render it as SVG."""
    try:
        entry = catalog.lookup(rule)
    except catalog.UnknownRuleError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    out = entry.run(1)
    has_marks = out.witness_points is not None and not no_witness_points
    if not out.figures and not has_marks:
        click.echo(
            f"error: rule {entry.id!r} produces no figures to render", err=True
        )
        sys.exit(2)
    try:
        options = svg_render.RenderOptions(
            size=size,
            label_digits=digits,
            show_labels=labels,
            show_witness_points=not no_witness_points,
        )
    except DomainError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    document = svg_render.render_rule_output(out, options)
    if output == "-":
        click.echo(document, nl=False)
    else:
        _write_text(output, document)


if __name__ == "__main__":
    main()

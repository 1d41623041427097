"""Serialization of candidate sets: CSV, JSON, markdown, LaTeX.

CSV and JSON are the machine formats: every rational is exact (bare
integer or 'n/d'), columns follow the canonical per-family schema shared
with the golden tables, and output is byte-deterministic given the
candidate order.  Markdown and LaTeX are display formats that mirror the
reference tables' visual layout, printing coefficient columns with the
same decimal typography (halves to one place, quarters to two) and degree
columns as exact fractions.

Existence status and literature reference are classification metadata,
not derivable from arithmetic; they are joined onto computed rows from
the golden tables and left empty for rows without a golden counterpart.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Mapping, Sequence

from .golden import GoldenRow, golden_key
from .model import FAMILIES, FamilySpec, LinkCandidate
from .rational import render_exact, render_table


def build_golden_index(rows: Iterable[GoldenRow]) -> dict[tuple, GoldenRow]:
    return {golden_key(row): row for row in rows}


def _candidate_cells(
    candidate: LinkCandidate, spec: FamilySpec, golden_index: Mapping[tuple, GoldenRow]
) -> dict[str, object]:
    """All canonical column values for one candidate of the spec's family, exactly typed."""
    cells = candidate.cells()
    row = golden_index.get(spec.key(cells))
    # Status and reference come from the golden row; JSON writes absent ones as null.
    cells["exists"] = None if row is None else row["exists"].value
    cells["ref"] = None if row is None else row["ref"] or None
    return cells


def _machine_str(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return render_exact(value)


def _json_value(value: object) -> object:
    if value is None or isinstance(value, (str, int)):
        return value
    return render_exact(value)


# ---------------------------------------------------------------------------
# Machine formats


def render_csv(
    families: Sequence[tuple[str, Sequence[LinkCandidate]]],
    golden_index: Mapping[tuple, GoldenRow],
) -> str:
    """Canonical CSV; one commented section per requested family."""
    out = io.StringIO()
    first = True
    for family, candidates in families:
        if not first:
            out.write("\n")
        first = False
        out.write(f"# family: {family}\n")
        writer = csv.writer(out, lineterminator="\n")
        spec = FAMILIES[family]
        writer.writerow(spec.csv_columns)
        for candidate in candidates:
            cells = _candidate_cells(candidate, spec, golden_index)
            writer.writerow([_machine_str(cells[column]) for column in spec.csv_columns])
    return out.getvalue()


def render_json(
    families: Sequence[tuple[str, Sequence[LinkCandidate]]],
    golden_index: Mapping[tuple, GoldenRow],
) -> str:
    """Flat JSON array of row objects in canonical column order."""
    records = []
    for family, candidates in families:
        spec = FAMILIES[family]
        for candidate in candidates:
            cells = _candidate_cells(candidate, spec, golden_index)
            records.append({column: _json_value(cells[column]) for column in spec.csv_columns})
    return json.dumps(records, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Display formats


# Markdown and LaTeX heading of each column id; "no" is the running row number.
_HEADINGS = {
    "no": ("#", r"\#"),
    "kx3": ("-K_X^3", "$-K_X^3$"),
    "kY3": ("-K_Y^3", "$-K_Y^3$"),
    "kY3_plus": ("-K_Y+^3", "$-K_{Y^+}^3$"),
    "alpha": ("alpha", r"$\alpha$"),
    "beta": ("beta", r"$\beta$"),
    "r": ("r", "$r$"),
    "d": ("d", "$d$"),
    "g": ("g", "$g$"),
    "r_plus": ("r+", "$r^+$"),
    "d_plus": ("d+", "$d^+$"),
    "g_plus": ("g+", "$g^+$"),
    "e_over_r3": ("e/r^3", "$e/r^3$"),
    "e": ("e", "$e$"),
    "exists": ("exists", "exists"),
    "ref": ("ref", "ref"),
}

# Coefficient columns use the tables' decimal typography; degree columns
# stay exact fractions.
_TABLE_STYLE_COLUMNS = ("alpha", "beta")


def _display_str(column: str, value: object) -> str:
    if column in _TABLE_STYLE_COLUMNS:
        return render_table(value)
    return _machine_str(value)


def _display_rows(
    family: str,
    candidates: Sequence[LinkCandidate],
    golden_index: Mapping[tuple, GoldenRow],
) -> tuple[tuple[str, ...], list[list[str]]]:
    """The family's display column ids and its rows of display strings."""
    spec = FAMILIES[family]
    columns = spec.display_columns
    table_rows = []
    for number, candidate in enumerate(candidates, start=1):
        cells = _candidate_cells(candidate, spec, golden_index)
        cells["no"] = number
        table_rows.append([_display_str(column, cells[column]) for column in columns])
    return columns, table_rows


def render_markdown(
    families: Sequence[tuple[str, Sequence[LinkCandidate]]],
    golden_index: Mapping[tuple, GoldenRow],
) -> str:
    blocks = []
    for family, candidates in families:
        columns, rows = _display_rows(family, candidates, golden_index)
        headings = [_HEADINGS[column][0] for column in columns]
        lines = [f"## {family}", ""]
        lines.append("| " + " | ".join(headings) + " |")
        lines.append("|" + "|".join(" --- " for _ in headings) + "|")
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def render_latex(
    families: Sequence[tuple[str, Sequence[LinkCandidate]]],
    golden_index: Mapping[tuple, GoldenRow],
) -> str:
    blocks = []
    for family, candidates in families:
        columns, rows = _display_rows(family, candidates, golden_index)
        column_spec = "r" * len(columns)
        lines = [f"% family: {family}", rf"\begin{{tabular}}{{{column_spec}}}"]
        lines.append(" & ".join(_HEADINGS[column][1] for column in columns) + r" \\")
        lines.append(r"\hline")
        for row in rows:
            lines.append(" & ".join(row) + r" \\")
        lines.append(r"\end{tabular}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# Output formats by name; the CLI offers exactly these, in this order.
RENDERERS = {
    "csv": render_csv,
    "json": render_json,
    "markdown": render_markdown,
    "latex": render_latex,
}


def render_dispatch(
    fmt: str,
    families: Sequence[tuple[str, Sequence[LinkCandidate]]],
    golden_index: Mapping[tuple, GoldenRow],
) -> str:
    if fmt not in RENDERERS:
        raise ValueError(f"unknown format: {fmt!r}")
    return RENDERERS[fmt](families, golden_index)

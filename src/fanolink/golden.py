"""Golden classification tables: loading, validation, and diffing.

The nine packaged CSV files hold the reference classification rows the
enumeration must reproduce bit for bit.  Loading is strict: the header
must match the family schema, every value must parse exactly, stated
target degrees must agree with the degree formula, no row key may repeat,
and each table must contain its known number of rows.  Any violation
raises GoldenDataError with the file name and line number.

``diff`` compares an enumerated candidate set against golden rows column
by column in exact arithmetic and reports missing keys, extra keys, keys
repeated on either side, and per-column mismatches; verification passes
iff the report is empty.
"""

from __future__ import annotations

import csv
import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .formulas import ky3_from_kx3
from .model import (
    CELL_COLUMNS,
    FAMILIES,
    ContractionType,
    ExistenceStatus,
    FamilySpec,
    LinkCandidate,
    SideData,
    family_spec,
)
from .rational import exact, parse_rational

# Each parsed column's parser, and the reason that prefixes a cell it cannot parse;
# any other column keeps its text.
_PARSERS: dict[str, tuple[Callable[[str], object], str]] = {
    **dict.fromkeys(
        ("kx3", "r", "d", "g", "r_plus", "d_plus", "g_plus", "e_over_r3", "e"),
        (int, "not an integer: "),
    ),
    **dict.fromkeys(("alpha", "beta", "kY3", "kY3_plus"), (parse_rational, "not a rational: ")),
    "exists": (ExistenceStatus, "unknown value "),
    **dict.fromkeys(
        ("type_left", "type_right"), (lambda text: ContractionType(text).value, "unknown value ")
    ),
}


class GoldenDataError(ValueError):
    """Malformed or inconsistent golden table data."""


# One reference classification row: a read-only mapping of the CELL_COLUMNS
# (None where the family has no such column, the star-side pair
# reconstructed, a rational in rational.exact form as cells() gives it),
# exists and ref, and the row's table, running row number and family.
GoldenRow = Mapping[str, object]


def _table_spec(table: int) -> FamilySpec:
    for spec in FAMILIES.values():
        if any(number == table for number, _ in spec.tables):
            return spec
    raise ValueError(f"table id out of range 1..9: {table}")


def _table_text(table: int, data_dir: str | Path | None) -> tuple[str, str]:
    name = f"table{table}.csv"
    if data_dir is not None:
        path = Path(data_dir) / name
        return path.read_text(encoding="utf-8"), str(path)
    res = resources.files(__package__).joinpath(f"data/{name}")
    return res.read_text(encoding="utf-8"), name


def _expect(condition: bool, source: str, lineno: int, message: str) -> None:
    if not condition:
        raise GoldenDataError(f"{source}:{lineno}: {message}")


def load_golden(table: int, data_dir: str | Path | None = None) -> tuple[GoldenRow, ...]:
    """Load and validate one golden table (1..9)."""
    spec = _table_spec(table)
    text, source = _table_text(table, data_dir)

    numbered = [
        (lineno, line)
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not numbered:
        raise GoldenDataError(f"{source}: empty table file")

    header_lineno, header_line = numbered[0]
    header = next(csv.reader([header_line]))
    expected_header = list(spec.csv_columns)
    _expect(
        header == expected_header,
        source,
        header_lineno,
        f"header mismatch: expected {expected_header}, got {header}",
    )

    rows: list[GoldenRow] = []
    first_line: dict[tuple, int] = {}
    for ordinal, (lineno, line) in enumerate(numbered[1:], start=1):
        fields = next(csv.reader([line]))
        _expect(
            len(fields) == len(expected_header),
            source,
            lineno,
            f"expected {len(expected_header)} fields, got {len(fields)}",
        )
        record = dict(zip(expected_header, (f.strip() for f in fields)))
        row = _build_row(table, spec, ordinal, record, source, lineno)
        key = golden_key(row)
        _expect(
            key not in first_line,
            source,
            lineno,
            f"duplicate key {key} (first at line {first_line.get(key)})",
        )
        first_line[key] = lineno
        rows.append(row)

    count = dict(spec.tables)[table]
    _expect(
        len(rows) == count,
        source,
        numbered[-1][0],
        f"table {table} must contain {count} rows, found {len(rows)}",
    )
    return tuple(rows)


def _parse_cell(column: str, value: str, source: str, lineno: int) -> object:
    if column not in _PARSERS:
        return value
    parse, reason = _PARSERS[column]
    try:
        return parse(value)
    except (ValueError, ZeroDivisionError):
        raise GoldenDataError(f"{source}:{lineno}: column {column}: {reason}{value!r}") from None


def _build_row(
    table: int, spec: FamilySpec, ordinal: int, record: dict[str, str], source: str, lineno: int
) -> GoldenRow:
    cells: dict[str, object] = dict.fromkeys(CELL_COLUMNS)
    for column, value in record.items():
        cells[column] = _parse_cell(column, value, source, lineno)

    expected_types = ",".join(ctype.value for ctype in spec.types)
    types = f"{cells['type_left']},{cells['type_right']}"
    _expect(
        types == expected_types,
        source,
        lineno,
        f"types must be {expected_types} (family {spec.id}), got {types}",
    )
    _expect(cells["beta"] != 0, source, lineno, "beta must be nonzero")
    # The star-side coefficient pair is determined by the printed pair.
    cells["alpha_plus"] = exact(-cells["alpha"], cells["beta"])
    cells["beta_plus"] = exact(1, cells["beta"])

    # Stated target degrees must follow from the side data.
    kx3 = cells["kx3"]
    for column, label, r, d, g in (
        ("kY3", cells["type_left"], cells["r"], cells["d"], cells["g"]),
        ("kY3_plus", cells["type_right"], cells["r_plus"], cells["d_plus"], cells["g_plus"]),
    ):
        if column not in record:
            continue
        try:
            side = SideData(ContractionType(label), r, d, g)
        except ValueError as exc:
            raise GoldenDataError(f"{source}:{lineno}: {exc}") from None
        if side.is_e1:
            rule = f"degree formula for (kx3={kx3}, r={r}, d={d}, g={g})"
        else:
            rule = f"the {side.ctype.value} degree offset"
        _expect(
            cells[column] == ky3_from_kx3(kx3, side),
            source,
            lineno,
            f"{column} {cells[column]} inconsistent with {rule}",
        )

    cells.update(table=table, row=spec.row_offset(table) + ordinal, family=spec.id)
    return MappingProxyType(cells)


@functools.cache
def golden_for_family(family: str) -> tuple[GoldenRow, ...]:
    """All golden rows of one family, in table order, loaded once per process."""
    rows: list[GoldenRow] = []
    for table, _ in family_spec(family).tables:
        rows.extend(load_golden(table))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Diffing


def golden_key(row: GoldenRow) -> tuple:
    return FAMILIES[row["family"]].key(row)


@dataclass(frozen=True)
class FieldMismatch:
    key: tuple
    column: str
    expected: Fraction | int | None
    actual: Fraction | int | None


@dataclass(frozen=True)
class DiffReport:
    """Outcome of comparing a computed candidate set against golden rows."""

    missing: tuple[tuple, ...]
    extra: tuple[tuple, ...]
    mismatches: tuple[FieldMismatch, ...]
    # Keys that occur more than once among the computed / the golden rows.
    duplicate_computed: tuple[tuple, ...] = ()
    duplicate_golden: tuple[tuple, ...] = ()

    @property
    def empty(self) -> bool:
        return not (
            self.missing
            or self.extra
            or self.mismatches
            or self.duplicate_computed
            or self.duplicate_golden
        )

    def describe(self) -> str:
        if self.empty:
            return "exact match"
        lines: list[str] = []
        for key in self.missing:
            lines.append(f"missing row: {key}")
        for key in self.extra:
            lines.append(f"extra row: {key}")
        for key in self.duplicate_computed:
            lines.append(f"duplicate computed row: {key}")
        for key in self.duplicate_golden:
            lines.append(f"duplicate golden row: {key}")
        for mismatch in self.mismatches:
            lines.append(
                f"mismatch at {mismatch.key}: {mismatch.column} "
                f"expected {mismatch.expected}, got {mismatch.actual}"
            )
        return "\n".join(lines)


def _duplicates(keys: Iterable[tuple]) -> tuple[tuple, ...]:
    return tuple(sorted((key for key, n in Counter(keys).items() if n > 1), key=repr))


def diff(candidates: Sequence[LinkCandidate], golden: Iterable[GoldenRow]) -> DiffReport:
    """Exact column-by-column comparison of a candidate set with golden rows."""
    computed_rows = []
    for c in candidates:
        cells = c.cells()
        computed_rows.append((FAMILIES[c.family].key(cells), cells))
    reference_rows = [(golden_key(row), row) for row in golden]
    computed = dict(computed_rows)
    reference = dict(reference_rows)

    missing = tuple(sorted(set(reference) - set(computed), key=repr))
    extra = tuple(sorted(set(computed) - set(reference), key=repr))

    mismatches: list[FieldMismatch] = []
    for key in sorted(set(reference) & set(computed), key=repr):
        row = reference[key]
        actual = computed[key]
        for column in FAMILIES[row["family"]].value_columns:
            expected_value = row[column]
            if actual[column] != expected_value:
                mismatches.append(FieldMismatch(key, column, expected_value, actual[column]))
    return DiffReport(
        missing=missing,
        extra=extra,
        mismatches=tuple(mismatches),
        duplicate_computed=_duplicates(key for key, _ in computed_rows),
        duplicate_golden=_duplicates(key for key, _ in reference_rows),
    )

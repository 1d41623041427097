"""Degree and Hodge-number catalog for the smooth target varieties.

Both ends of an admissible link contract onto a smooth Fano threefold of
Picard rank one whose Fano index is 1..4.  For each index the anticanonical
degree is restricted to a known finite list; each admissible (index, degree)
pair carries one Hodge number h^{1,2}.  The degree lists are one literal
table of degree sets, FANO_DEGREES, that the degree predicate reads, and the
h^{1,2} values live in a packaged data file that the loader cross-validates
against that table (exactly one line per admissible pair, no duplicates).

The numeric classification itself is the authority that keeps this file
honest: the golden-table reproduction tests fail if any entry drifts.
"""

from __future__ import annotations

import functools
import types
from fractions import Fraction
from importlib import resources
from typing import Iterable, Mapping

# Index 1 degrees are the even values 2..22 with 20 absent from the
# classification; higher indices are forced onto multiples of index**3.
FANO_DEGREES: dict[int, frozenset[int]] = {
    1: frozenset({2, 4, 6, 8, 10, 12, 14, 16, 18, 22}),
    2: frozenset({8, 16, 24, 32, 40}),
    3: frozenset({54}),
    4: frozenset({64}),
}


class CatalogError(ValueError):
    """Malformed or inconsistent catalog data file."""


def is_valid_fano_degree(index: int, degree: Fraction | int) -> bool:
    """True iff ``degree`` is an integer admissible for this Fano index."""
    if index not in FANO_DEGREES:
        raise ValueError(f"Fano index out of range 1..4: {index!r}")
    # A non-integral Fraction equals no int, so no degree set contains it.
    return degree in FANO_DEGREES[index]


def parse_hodge_table(lines: Iterable[str], source: str = "<memory>") -> dict[tuple[int, int], int]:
    """Parse 'index degree h12' lines, validating against FANO_DEGREES.

    Blank lines and '#' comments are skipped.  Errors carry the source name
    and line number.  The parsed table must contain exactly one entry per
    admissible (index, degree) pair and non-negative h12 values.
    """
    table: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise CatalogError(f"{source}:{lineno}: expected 'index degree h12', got {raw.strip()!r}")
        try:
            index, degree, h12 = (int(p) for p in parts)
        except ValueError:
            raise CatalogError(f"{source}:{lineno}: non-integer field in {raw.strip()!r}") from None
        if index not in FANO_DEGREES:
            raise CatalogError(f"{source}:{lineno}: Fano index out of range 1..4: {index}")
        if degree not in FANO_DEGREES[index]:
            raise CatalogError(f"{source}:{lineno}: degree {degree} not admissible for index {index}")
        if h12 < 0:
            raise CatalogError(f"{source}:{lineno}: negative h12 value {h12}")
        key = (index, degree)
        if key in table:
            raise CatalogError(f"{source}:{lineno}: duplicate entry for {key}")
        table[key] = h12
    missing = {(i, d) for i, degrees in FANO_DEGREES.items() for d in degrees} - set(table)
    if missing:
        raise CatalogError(f"{source}: missing entries for admissible pairs: {sorted(missing)}")
    return table


@functools.cache
def load_hodge_table() -> Mapping[tuple[int, int], int]:
    """The packaged h^{1,2} data file, validated; loaded once and read-only."""
    res = resources.files(__package__).joinpath("data/hodge_h12.txt")
    text = res.read_text(encoding="utf-8")
    return types.MappingProxyType(parse_hodge_table(text.splitlines(), source="hodge_h12.txt"))


def hodge_h12(index: int, degree: Fraction | int) -> int:
    """h^{1,2} of the rank-one smooth Fano with this index and degree.

    Raises on any (index, degree) that FANO_DEGREES does not admit.
    """
    if not is_valid_fano_degree(index, degree):
        raise ValueError(f"no catalog entry: index {index}, degree {degree}")
    return load_hodge_table()[(index, int(degree))]

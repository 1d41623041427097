"""Shared fixtures: one enumeration, one oracle run and one golden load per session.

Every family enumerates in well under a second, but dozens of tests need
the results; computing them once keeps the whole suite fast and makes the
assertions in different files provably about the same objects.  The
brute-force oracle takes about 0.2 s over all seven families in-process,
so it too runs once, and so does each single-check ablation of each family.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from typing import Callable, Sequence

import pytest

from fanolink.checks import DEFAULT_CHECKS
from fanolink.golden import GoldenRow, golden_for_family
from fanolink.model import FAMILIES
from fanolink.rational import render_exact
from fanolink.search import FAMILY_IDS, brute_force_oracle, enumerate_family


def over_common_denominator(x: Fraction | int, y: Fraction | int) -> tuple[int, int, int]:
    """Integers (m, n, d) with x = m/d and y = n/d, d the least common denominator."""
    m, dx = x.as_integer_ratio()
    n, dy = y.as_integer_ratio()
    d = math.lcm(dx, dy)
    return m * (d // dx), n * (d // dy), d


@pytest.fixture(scope="session")
def enumerated() -> dict[str, tuple]:
    """Admitted candidates of every family, canonical order, default checks."""
    return {family: enumerate_family(family) for family in FAMILY_IDS}


@pytest.fixture(scope="session")
def oracle() -> dict[str, tuple]:
    """The brute-force oracle's candidates of every family."""
    return {family: brute_force_oracle(family) for family in FAMILY_IDS}


@pytest.fixture(scope="session")
def ablated() -> Callable[[str, str], tuple]:
    """ablated(check, family): the family's candidates with one check disabled, cached."""
    cache: dict[tuple[str, str], tuple] = {}

    def run(check: str, family: str) -> tuple:
        if (check, family) not in cache:
            cache[(check, family)] = enumerate_family(family, DEFAULT_CHECKS - {check})
        return cache[(check, family)]

    return run


@pytest.fixture(scope="session")
def golden() -> dict[str, tuple]:
    """Golden reference rows of every family, in table order."""
    return {family: golden_for_family(family) for family in FAMILY_IDS}


@pytest.fixture(scope="session")
def golden_csv() -> Callable[[Sequence[GoldenRow], str], str]:
    """golden_csv(rows, family): golden rows serialized back to the CSV schema.

    Loading the result again yields equal golden rows (decimal
    spellings normalize to exact fractions; the values are unchanged).
    """

    def cell(value: object) -> str:
        if value is None:
            return ""
        return value if isinstance(value, str) else render_exact(value)

    def render(rows: Sequence[GoldenRow], family: str) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        header = FAMILIES[family].csv_columns
        writer.writerow(header)
        for row in rows:
            cells = dict(row, exists=row["exists"].value)
            writer.writerow([cell(cells[column]) for column in header])
        return out.getvalue()

    return render

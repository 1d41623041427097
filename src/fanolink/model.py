"""Data model for two-sided divisorial link candidates.

A candidate consists of an anticanonical degree for the central variety,
one contraction datum per side, and the exact rational coefficients that
express each side's exceptional divisor after the flop in the opposite
side's basis.  Everything is immutable and hashable so candidate sets can
be compared directly.  Every candidate belongs to one of the seven
families in FAMILIES: its two side types must be a family's types.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

from .rational import exact


class ContractionType(enum.Enum):
    """Divisorial contraction types that can bound the link."""

    E1 = "E1"        # blow-down to a smooth curve of genus g and degree d
    E2 = "E2"        # blow-down of a del Pezzo sextic surface to a point
    E34 = "E3/E4"    # quadric-surface contraction (the two quadric cases behave identically here)
    E5 = "E5"        # contraction of a plane with normal degree -2

    # Members are singletons that compare by identity, so the identity hash
    # agrees with equality; Enum's own __hash__ hashes the name in Python,
    # and every family lookup, point-type lookup and side hash pays for it.
    __hash__ = object.__hash__


class ExistenceStatus(enum.Enum):
    """Geometric realization status recorded for a golden row."""

    EXISTS = "Exists"
    NOT_EXISTS = "NotExists"
    OPEN = "Open"


@dataclass(frozen=True)
class SideData:
    """One side's contraction datum.

    E1 sides carry the blown-down curve's ambient Fano index r (1..4), the
    curve degree d >= 1 and genus g >= 0.  The point-type sides E2, E3/E4
    and E5 carry no numeric data.
    """

    ctype: ContractionType
    r: int | None = None
    d: int | None = None
    g: int | None = None

    def __post_init__(self) -> None:
        if self.ctype is ContractionType.E1:
            if self.r is None or self.d is None or self.g is None:
                raise ValueError("E1 side requires (r, d, g)")
            if not 1 <= self.r <= 4:
                raise ValueError(f"E1 index out of range 1..4: {self.r}")
            if self.d < 1:
                raise ValueError(f"E1 curve degree must be >= 1: {self.d}")
            if self.g < 0:
                raise ValueError(f"E1 genus must be >= 0: {self.g}")
        else:
            if (self.r, self.d, self.g) != (None, None, None):
                raise ValueError(f"{self.ctype.value} side carries no numeric data")

    @functools.cached_property
    def is_e1(self) -> bool:
        return self.ctype is ContractionType.E1

    @functools.cached_property
    def cube_scale(self) -> int:
        """Normalisation of this side's flop defect: r^3 on E1, 1 on a point type.

        Computed once per side; not a field, so equality and hashing ignore it.
        """
        return self.r**3 if self.is_e1 else 1

    @functools.cached_property
    def target_index(self) -> int | None:
        """Fano index of this side's contraction target, if it is smooth.

        E1 lands on the index-r rank-one Fano; a point type's is in POINT_TYPES.
        """
        return self.r if self.ctype is ContractionType.E1 else POINT_TYPES[self.ctype].target_index


class IntersectionConstants(NamedTuple):
    """Intersection numbers of one exceptional divisor E on the central variety.

    kx2E  = (-K)^2 . E
    kxE2  = (-K) . E^2
    e3self = E^3
    """

    kx2E: int
    kxE2: int
    e3self: int


class PointType(NamedTuple):
    """What a point-type contraction contributes to every candidate with that side.

    constants are its exceptional divisor's intersection numbers,
    degree_offset the anticanonical degree its contraction adds to the
    central one, and target_index the Fano index of its target, or None
    for a singular target with no catalog index.
    """

    constants: IntersectionConstants
    degree_offset: int | Fraction
    target_index: int | None


POINT_TYPES: dict[ContractionType, PointType] = {
    ContractionType.E2: PointType(IntersectionConstants(4, 2, 1), 8, 1),
    ContractionType.E34: PointType(IntersectionConstants(2, 2, 2), 2, None),
    # The E5 target is singular, with a half-integral degree.
    ContractionType.E5: PointType(IntersectionConstants(1, 2, 4), Fraction(1, 2), None),
}


def sigma(r: int, d: int, g: int) -> int:
    """Anticanonical excess (-K)^2.E of an E1 side with data (r, d, g)."""
    return r * d + 2 - 2 * g


def intersection_constants(side: SideData) -> IntersectionConstants:
    """Intersection constants of the side's exceptional divisor."""
    if side.ctype is ContractionType.E1:
        # For a curve of degree d and genus g inside the index-r target:
        # (-K)^2.E = sigma, (-K).E^2 = 2 - 2g, E^3 = sigma - 2rd.
        excess = sigma(side.r, side.d, side.g)
        return IntersectionConstants(excess, 2 - 2 * side.g, excess - 2 * side.r * side.d)
    return POINT_TYPES[side.ctype].constants


class FlopCoefficients(NamedTuple):
    """Basis coefficients of the flopped exceptional divisors.

    Writing H for the anticanonical class and E for a side's exceptional
    divisor, the strict transform of the opposite side's divisor is
    alpha_plus*H + beta_plus*E on the left and alpha*H + beta*E on the
    right.  For a consistent candidate the two pairs determine each other.
    """

    alpha: Fraction
    beta: Fraction
    alpha_plus: Fraction
    beta_plus: Fraction


@dataclass(frozen=True)
class FamilySpec:
    """What tells one family apart: side types, golden tables and column layout.

    Column names are CELL_COLUMNS names, plus "exists" and "ref" (golden
    metadata) and, in the display columns, "no" (the running row number).
    ``tables`` holds (golden table number, row count) pairs in table order.
    """

    id: str
    types: tuple[ContractionType, ContractionType]  # (left, right); a curve side is the left
    tables: tuple[tuple[int, int], ...]
    csv_columns: tuple[str, ...]
    key_columns: tuple[str, ...]
    value_columns: tuple[str, ...]
    sort_columns: tuple[str, ...]
    display_columns: tuple[str, ...]
    explain_fields: tuple[str, ...]

    @functools.cached_property
    def key(self) -> Callable[[Mapping[str, object]], tuple]:
        """The getter of a row's identity within the family: its key-column values."""
        return operator.itemgetter(*self.key_columns)

    def row_offset(self, table: int) -> int:
        """Rows in the family's earlier tables; golden rows number across tables."""
        numbers = [number for number, _ in self.tables]
        return sum(count for _, count in self.tables[: numbers.index(table)])


def _layout(sides, degrees, defect, sort_columns, explain_fields) -> dict[str, tuple[str, ...]]:
    """One shape's column layout: csv, key, value and display columns follow from the rest."""
    return dict(
        csv_columns=(
            "kx3", "type_left", "type_right", *sides, "alpha", "beta", *degrees, defect,
            "exists", "ref",
        ),
        key_columns=("type_left", "type_right", "kx3", *sides),
        value_columns=("alpha", "beta", "alpha_plus", "beta_plus", *degrees, defect),
        display_columns=("no", "kx3", *degrees, "alpha", "beta", *sides, defect, "exists", "ref"),
        sort_columns=sort_columns,
        explain_fields=explain_fields,
    )


_CURVE_CURVE = _layout(
    ("r", "d", "g", "r_plus", "d_plus", "g_plus"), ("kY3", "kY3_plus"), "e_over_r3",
    sort_columns=("kx3", "r", "r_plus", "g", "d", "g_plus", "d_plus"),
    explain_fields=("kx3", "r", "d", "g", "r_plus", "d_plus", "g_plus"),
)
_CURVE_POINT = _layout(
    ("r", "d", "g"), ("kY3", "kY3_plus"), "e_over_r3",
    sort_columns=("kx3", "r", "g", "d"),
    explain_fields=("kx3", "r", "d", "g", "alpha_plus", "beta_plus"),
)
_POINT_POINT = _layout((), ("kY3",), "e", sort_columns=("alpha",), explain_fields=("kx3", "alpha"))

_E1, _E2, _E34, _E5 = ContractionType  # in declaration order

# The seven families in canonical order: output sections, verification and
# the CLI's family lists all follow it.
FAMILIES: dict[str, FamilySpec] = {
    spec.id: spec
    for spec in (
        FamilySpec("e1e1", (_E1, _E1), ((1, 26), (2, 27), (3, 58)), **_CURVE_CURVE),
        FamilySpec("e1e2", (_E1, _E2), ((4, 3),), **_CURVE_POINT),
        FamilySpec("e1e3", (_E1, _E34), ((5, 7),), **_CURVE_POINT),
        FamilySpec("e1e5", (_E1, _E5), ((6, 7),), **_CURVE_POINT),
        FamilySpec("e2e2", (_E2, _E2), ((7, 3),), **_POINT_POINT),
        FamilySpec("e3e3", (_E34, _E34), ((8, 2),), **_POINT_POINT),
        FamilySpec("e5e5", (_E5, _E5), ((9, 1),), **_POINT_POINT),
    )
}

FAMILY_IDS: tuple[str, ...] = tuple(FAMILIES)

_FAMILY_OF_TYPES = {spec.types: spec.id for spec in FAMILIES.values()}


def family_id(left: ContractionType, right: ContractionType) -> str:
    """The id of the family with these side types; ValueError if there is none."""
    try:
        return _FAMILY_OF_TYPES[left, right]
    except KeyError:
        raise ValueError(f"no family has side types {left.value},{right.value}") from None


def family_spec(family: str) -> FamilySpec:
    """The spec of one family id; ValueError for an unknown id."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family!r}")
    return FAMILIES[family]


# A coefficient pair (alpha, beta) as (a, b, den): alpha = a/den, beta = b/den, den > 0.
Pair = tuple[int, int, int]


class LinkCandidate(NamedTuple):
    """One tuple's derived candidate link, in integers.

    Built once per tuple by formulas.derive; the admission checks read its
    fields, and output reads the values computed from them (coeffs,
    family, defect_e, defect_e_plus, e_over_r3, cells); coeffs gives
    Fractions, and cells() and e_over_r3 give rational.exact values, as
    golden rows hold them.  Each rational quantity is held as numerators
    over a positive denominator, which need not be the least one:

    * pair = (a, b, den) is (alpha, beta) and pair_plus = (ap, bp, den_p)
      is (alpha_plus, beta_plus);
    * each flopped-divisor cube and each flop defect E^3 - Etilde^3 is
      (numerator, denominator).

    kY3 is an int, or a Fraction for an E5 side's half-integral degree.
    Equality and hashing are over these fields.  Every route (enumerators,
    oracle, mirror, explain) derives the pairs through the same pair
    functions, so one tuple has one candidate whichever route built it.
    The side types must be one family's types: family raises ValueError
    otherwise.
    """

    kx3: int
    left: SideData
    right: SideData
    sigma_left: int
    sigma_right: int
    kY3_left: Fraction | int
    kY3_right: Fraction | int
    pair: Pair
    pair_plus: Pair
    etilde3_left: tuple[int, int]
    etilde3_right: tuple[int, int]
    defect_left: tuple[int, int]
    defect_right: tuple[int, int]

    @property
    def family(self) -> str:
        return family_id(self.left.ctype, self.right.ctype)

    @property
    def coeffs(self) -> FlopCoefficients:
        (a, b, den), (ap, bp, den_p) = self.pair, self.pair_plus
        return FlopCoefficients(
            Fraction(a, den), Fraction(b, den), Fraction(ap, den_p), Fraction(bp, den_p)
        )

    @property
    def defect_e(self) -> int | None:
        """The left defect as an int, or None when it is not an integer (on rejected tuples)."""
        return _integer(self.defect_left)

    @property
    def defect_e_plus(self) -> int | None:
        return _integer(self.defect_right)

    @property
    def e_over_r3(self) -> Fraction | int | None:
        """Left defect normalized by r^3; the side-independent defect invariant."""
        defect = self.defect_e
        return None if defect is None else exact(defect, self.left.cube_scale)

    def cells(self) -> dict[str, object]:
        """Every column value, keyed by CELL_COLUMNS name."""
        left, right = self.left, self.right
        (a, b, den), (ap, bp, den_p) = self.pair, self.pair_plus
        return dict(zip(CELL_COLUMNS, (
            self.kx3, _TYPE_NAMES[left.ctype], _TYPE_NAMES[right.ctype],
            left.r, left.d, left.g, right.r, right.d, right.g,
            exact(a, den), exact(b, den), exact(ap, den_p), exact(bp, den_p),
            self.kY3_left, self.kY3_right, self.e_over_r3, self.defect_e,
        )))


# The cells of a candidate and of a golden row, by golden-table column name.
CELL_COLUMNS: tuple[str, ...] = (
    "kx3", "type_left", "type_right", "r", "d", "g", "r_plus", "d_plus", "g_plus",
    "alpha", "beta", "alpha_plus", "beta_plus", "kY3", "kY3_plus", "e_over_r3", "e",
)

# Each side type's name, as cells() gives it; a dict read is cheaper than Enum.value.
_TYPE_NAMES = {ctype: ctype.value for ctype in ContractionType}

# The LinkCandidate field behind each column a family sorts by, as an
# operator.attrgetter path: it holds a value equal to what cells() gives.
CELL_FIELDS: dict[str, str] = {
    "kx3": "kx3", "r": "left.r", "d": "left.d", "g": "left.g",
    "r_plus": "right.r", "d_plus": "right.d", "g_plus": "right.g", "alpha": "coeffs.alpha",
}


def _integer(ratio: tuple[int, int]) -> int | None:
    num, den = ratio
    return None if num % den else num // den

"""Admission checks for link candidates.

Every admission criterion lives here as a named, individually switchable
check.  The registry is closed and ordered; reports always come back in
registry order so output is deterministic.  Checks report, they never
throw: a condition that cannot be evaluated (for example a Hodge lookup
for a degree outside the catalog, reachable when earlier checks are
disabled) becomes a failing report with a reason, not an exception.

Each check is a verdict and a description, both read from a candidate's
integer fields (model.LinkCandidate).  The verdict, ``passes``, decides
by integer arithmetic and comparisons: it formats no text and builds no
Fraction.  The description, ``describe``, writes the report's detail text,
and a report calls it only when its ``detail`` is read (the search reads
only names and verdicts; ``explain`` prints the details).

A candidate is admitted when every enabled check passes.  Disabling checks
can only widen the admitted set (each check is a pure predicate on the
candidate), which the property tests exercise.

Each check also declares what its verdict reads (Check.reads, a
SCOPE_FIELDS key): kx3 alone, one side and kx3, each side, the whole
record, the cubes, defects and cube scales ("cubes": ETILDE_INTEGRAL,
DEFECT_POSITIVE and DEFECT_DIVISIBLE), or the side fields and the pairs
("sides and pairs": DIOPHANTINE, COEFF_RELATIONS, GCD_LEFT, GCD_RIGHT,
HODGE and HYPERELLIPTIC_SYM).

kernel_plan picks the enabled checks among some names, as (name, verdict)
pairs in their order: over the registry it is the plan run_checks runs;
the search names the checks each E1 walk decides on a tuple's record.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from . import catalog
from .formulas import (
    basis_decomposition_numerators,
    closure_numerators,
    e1e1_residual_numerators,
    e1estar_residual_numerators,
)
from .model import LinkCandidate, Pair, SideData

# The central-degree domain: even, 2..22.  It is also the search range.
KX3_VALUES: tuple[int, ...] = tuple(range(2, 23, 2))
# Bound on the point-side leading coefficient; also the search box's bound.
MAX_ALPHA_PLUS = 86


class CheckReport(NamedTuple):
    """One check's verdict on a candidate; its detail text is written when read."""

    name: str
    passed: bool
    candidate: LinkCandidate

    @property
    def detail(self) -> str:
        return REGISTRY[self.name].describe(self.candidate)


# CheckReport(*fields) without the Python-level __new__: one per rejected record.
_report = functools.partial(tuple.__new__, CheckReport)


# Minimum anticanonical excess on a blown-up-curve side.  The base-point-free
# anticanonical system maps that side's exceptional ruled surface onto a
# surface of degree sigma; degree-1 and degree-2 images are rational, which
# forces genus 0, and sigma = rd + 2 - 2g <= 2 is impossible with g = 0 and
# d >= 1.  Hence sigma >= 3 whenever the side contracts to a curve.
E1_SIGMA_MIN = 3


def _side_sigma_admissible(side: SideData, sigma: int) -> bool:
    if side.is_e1:
        return sigma >= E1_SIGMA_MIN
    return sigma > 0


def _degree_ok(side: SideData, ky3: Fraction | int) -> bool:
    index = side.target_index
    return index is None or catalog.is_valid_fano_degree(index, ky3)


def _degree_detail(side: SideData, ky3: Fraction | int) -> str:
    index = side.target_index
    if index is None:
        return f"{side.ctype.value} target is singular; no degree constraint"
    return f"target degree {ky3} at index {index}"


def _residuals(rec: LinkCandidate) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The residual system as (numerators, their positive denominators), by shape.

    It reads every field of scope "sides and pairs" but the target
    degrees.  A family's curve side, if any, is the left one.
    Star-star: each coefficient satisfies the symmetric degree relation,
    alpha*kx3 - 2*sigma over its pair's denominator on each side.  A
    residual vanishes exactly when its numerator does.
    """
    kx3, left, right, pair, pair_plus = rec.kx3, rec.left, rec.right, rec.pair, rec.pair_plus
    den, den_p = pair[2], pair_plus[2]
    if not left.is_e1:
        numerators = (
            pair[0] * kx3 - 2 * rec.sigma_left * den,
            pair_plus[0] * kx3 - 2 * rec.sigma_right * den_p,
        )
        return numerators, (den, den_p)
    if right.is_e1:
        return e1e1_residual_numerators(
            kx3, pair, pair_plus, left.g, rec.sigma_left, right.g, rec.sigma_right
        ), (den * den, den_p * den_p)
    return e1estar_residual_numerators(
        kx3, pair, pair_plus, left.r, left.d, left.g, rec.sigma_right
    ), (den * den, den, den_p * den_p, den_p)


def _ratios(numerators: Iterable[int], denominators: Iterable[int]) -> str:
    return ", ".join(str(Fraction(n, d)) for n, d in zip(numerators, denominators))


def _coeff_relations_detail(rec: LinkCandidate) -> str:
    den = rec.pair[2] * rec.pair_plus[2]
    detail = "closure " + _ratios(closure_numerators(rec.pair, rec.pair_plus), (den, den, den))
    if 0 in (*rec.pair[:2], *rec.pair_plus[:2]):
        detail += "; some coefficient is zero"
    return detail


def _primitive(side: SideData, pair: Pair) -> bool:
    """Primitivity of the flopped divisor in an E1 side's integral basis.

    Both coefficients of its basis decomposition, lead/den and diff/den,
    must be integers with trivial common divisor: together, exactly when
    gcd(lead, diff) == den (den > 0).  A point-type side has no such
    constraint.
    """
    if not side.is_e1:
        return True
    lead, diff, den = basis_decomposition_numerators(pair, side.r)
    return math.gcd(lead, diff) == den


def _primitive_detail(role: str, side: SideData, pair: Pair) -> str:
    if not side.is_e1:
        return f"{role} side is not E1; no primitivity constraint"
    lead, diff, den = basis_decomposition_numerators(pair, side.r)
    if lead % den or diff % den:
        return f"non-integral decomposition ({Fraction(lead, den)}, {Fraction(diff, den)})"
    lead, diff = lead // den, diff // den
    return f"decomposition ({lead}, {diff}), gcd {math.gcd(lead, diff)}"


def _integral_pair(pair: Pair) -> bool:
    a, b, den = pair
    return a % den == 0 and b % den == 0


def _coeff_integrality_detail(rec: LinkCandidate) -> str:
    co = rec.coeffs
    pairs = [
        (pair, "{} ({}, {})".format(role, *values))
        for role, side, pair, values in (
            ("left", rec.left, rec.pair, co[:2]), ("right", rec.right, rec.pair_plus, co[2:])
        )
        if not side.is_e1
    ]
    if not pairs:
        return "no point-type side; integrality not required"
    bad = [shown for pair, shown in pairs if not _integral_pair(pair)]
    if bad:
        return "non-integral point-side coefficients: " + "; ".join(bad)
    return "point-side coefficients integral: " + "; ".join(shown for _, shown in pairs)


# The verdicts of scope "cubes": the sides give their cube scales.
def _etilde_integral(rec: LinkCandidate) -> bool:
    (num_left, den_left), (num_right, den_right) = rec.etilde3_left, rec.etilde3_right
    return num_left % den_left == 0 and num_right % den_right == 0


def _defect_positive(rec: LinkCandidate) -> bool:
    (num_left, den_left), (num_right, den_right) = rec.defect_left, rec.defect_right
    positive = num_left > 0 and num_right > 0
    return positive and num_left % den_left == 0 and num_right % den_right == 0


def _defect_divisible(rec: LinkCandidate) -> bool:
    # e / scale is an integer exactly when scale * den(e) divides num(e).
    (num_left, den_left), (num_right, den_right) = rec.defect_left, rec.defect_right
    norm_left, rem_left = divmod(num_left, rec.left.cube_scale * den_left)
    norm_right, rem_right = divmod(num_right, rec.right.cube_scale * den_right)
    return rem_left == 0 and rem_right == 0 and norm_left == norm_right


def _defect_divisible_detail(rec: LinkCandidate) -> str:
    scale_left, scale_right = rec.left.cube_scale, rec.right.cube_scale
    norm_left = Fraction(rec.defect_left[0], rec.defect_left[1] * scale_left)
    norm_right = Fraction(rec.defect_right[0], rec.defect_right[1] * scale_right)
    return f"normalized defects {norm_left} (left/{scale_left}), {norm_right} (right/{scale_right})"


def _hodge_sum(side: SideData, ky3: Fraction | int) -> int:
    value = catalog.hodge_h12(side.target_index, ky3)
    return value + (side.g if side.is_e1 else 0)


def _hodge_value(side: SideData, ky3: Fraction | int) -> int | None:
    """HODGE's value of one side (_hodge_sum), or None where the catalog lookup fails."""
    try:
        return _hodge_sum(side, ky3)
    except ValueError:
        return None


# The verdicts of scope "sides and pairs".
def _diophantine(rec: LinkCandidate) -> bool:
    return not any(_residuals(rec)[0])  # every residual numerator vanishes


def _coeff_relations(rec: LinkCandidate) -> bool:
    pair, pair_plus = rec.pair, rec.pair_plus
    return not any(closure_numerators(pair, pair_plus)) and 0 not in (*pair[:2], *pair_plus[:2])


def _hodge(rec: LinkCandidate) -> bool:
    if rec.left.target_index is None or rec.right.target_index is None:
        return True
    value = _hodge_value(rec.left, rec.kY3_left)
    return value is not None and value == _hodge_value(rec.right, rec.kY3_right)


def _hodge_detail(rec: LinkCandidate) -> str:
    if rec.left.target_index is None or rec.right.target_index is None:
        return "a target is singular; Hodge balance not applicable"
    try:
        lhs = _hodge_sum(rec.left, rec.kY3_left)
        rhs = _hodge_sum(rec.right, rec.kY3_right)
    except ValueError as exc:
        return f"Hodge lookup failed: {exc}"
    return f"curve-corrected h12: {lhs} vs {rhs}"


def _hyperelliptic_sym_detail(rec: LinkCandidate) -> str:
    if rec.kx3 != 2:
        return "central degree above 2; symmetry not forced"
    return f"degree-2 link sides {'equal' if rec.left == rec.right else 'differ'}"


def _alpha_plus_bound(rec: LinkCandidate) -> bool:
    if rec.left.is_e1 and rec.right.is_e1:
        return True
    ap, _, den_p = rec.pair_plus
    return 0 < ap <= MAX_ALPHA_PLUS * den_p


def _alpha_plus_bound_detail(rec: LinkCandidate) -> str:
    if rec.left.is_e1 and rec.right.is_e1:
        return "both sides E1; no point-side coefficient bound"
    alpha_plus = rec.coeffs.alpha_plus
    return f"alpha_plus = {alpha_plus}, bound (0, {MAX_ALPHA_PLUS}]"


def _beta_plus_range(rec: LinkCandidate) -> bool:
    if rec.left.is_e1 and rec.right.is_e1:
        return True
    a, b, den = rec.pair
    ap, bp, den_p = rec.pair_plus
    if rec.left.is_e1:
        return bp % den_p == 0 and -rec.left.r <= bp // den_p <= -1
    return b == -den and bp == -den_p and a * den_p == ap * den


def _beta_plus_range_detail(rec: LinkCandidate) -> str:
    if rec.left.is_e1 and rec.right.is_e1:
        return "both sides E1; range fixed by the index ratio"
    alpha, beta, alpha_plus, beta_plus = rec.coeffs
    if rec.left.is_e1:
        return f"beta_plus = {beta_plus}, required integer in [-{rec.left.r}, -1]"
    return (
        f"symmetric coefficients alpha={alpha}, alpha_plus={alpha_plus}, "
        f"beta={beta}, beta_plus={beta_plus}"
    )


_LEFT = frozenset({"kx3", "left", "sigma_left", "kY3_left"})
_RIGHT = frozenset({"kx3", "right", "sigma_right", "kY3_right"})

# The candidate fields (model.LinkCandidate) a verdict of each scope reads.
SCOPE_FIELDS: dict[str, frozenset[str]] = {
    "kx3": frozenset({"kx3"}),
    "left": _LEFT,  # the left side and kx3
    "right": _RIGHT,  # the right side and kx3
    "each side": _LEFT | _RIGHT,  # each side and kx3 apart; a failing side fails every pair
    "cubes": frozenset(  # the sides give the cube scales
        {"left", "right", "etilde3_left", "etilde3_right", "defect_left", "defect_right"}
    ),
    "sides and pairs": frozenset(LinkCandidate._fields[:9]),  # kx3 through pair_plus
    "record": frozenset(LinkCandidate._fields),
}


class Check(NamedTuple):
    """A registry entry: what the check demands, its verdict, its detail text and what it reads."""

    description: str
    passes: Callable[[LinkCandidate], bool]
    describe: Callable[[LinkCandidate], str]
    reads: str


# Closed, ordered registry. The order is the reporting order everywhere.
REGISTRY: dict[str, Check] = {
    "SIGMA_POS": Check(
        "anticanonical excess positive each side, and at least 3 on curve-blowup sides",
        lambda c: _side_sigma_admissible(c.left, c.sigma_left)
        and _side_sigma_admissible(c.right, c.sigma_right),
        lambda c: f"sigma={c.sigma_left}, sigma_plus={c.sigma_right}",
        "each side",
    ),
    "KX3_RANGE": Check(
        "central degree is even and within 2..22",
        lambda c: c.kx3 in KX3_VALUES,
        lambda c: f"central degree {c.kx3}",
        "kx3",
    ),
    "FANO_DEGREE_LEFT": Check(
        "left target degree is in the rank-one catalog",
        lambda c: _degree_ok(c.left, c.kY3_left),
        lambda c: _degree_detail(c.left, c.kY3_left),
        "left",
    ),
    "FANO_DEGREE_RIGHT": Check(
        "right target degree is in the rank-one catalog",
        lambda c: _degree_ok(c.right, c.kY3_right),
        lambda c: _degree_detail(c.right, c.kY3_right),
        "right",
    ),
    "DIOPHANTINE": Check(
        "the exact residual system vanishes",
        _diophantine,
        lambda c: "residuals " + _ratios(*_residuals(c)),
        "sides and pairs",
    ),
    "COEFF_RELATIONS": Check(
        "flop coefficients are mutually consistent and nonzero",
        _coeff_relations,
        _coeff_relations_detail,
        "sides and pairs",
    ),
    "ETILDE_INTEGRAL": Check(
        "both flopped divisor cubes are integers",
        _etilde_integral,
        lambda c: f"transform cubes {Fraction(*c.etilde3_left)}, {Fraction(*c.etilde3_right)}",
        "cubes",
    ),
    "GCD_LEFT": Check(
        "left-basis decomposition of the flopped divisor is primitive",
        lambda c: _primitive(c.left, c.pair),
        lambda c: _primitive_detail("left", c.left, c.pair),
        "sides and pairs",
    ),
    "GCD_RIGHT": Check(
        "right-basis decomposition of the flopped divisor is primitive",
        lambda c: _primitive(c.right, c.pair_plus),
        lambda c: _primitive_detail("right", c.right, c.pair_plus),
        "sides and pairs",
    ),
    "COEFF_INTEGRALITY": Check(
        "point-side coefficients are integers",
        lambda c: (c.left.is_e1 or _integral_pair(c.pair))
        and (c.right.is_e1 or _integral_pair(c.pair_plus)),
        _coeff_integrality_detail,
        "record",
    ),
    "DEFECT_POSITIVE": Check(
        "both flop defects are positive integers",
        _defect_positive,
        lambda c: f"defects {Fraction(*c.defect_left)}, {Fraction(*c.defect_right)}",
        "cubes",
    ),
    "DEFECT_DIVISIBLE": Check(
        "defects agree after dividing by the index cubes",
        _defect_divisible,
        _defect_divisible_detail,
        "cubes",
    ),
    "HODGE": Check(
        "curve-corrected Hodge numbers balance across the link",
        _hodge,
        _hodge_detail,
        "sides and pairs",
    ),
    "HYPERELLIPTIC_SYM": Check(
        "central degree 2 forces equal sides",
        lambda c: c.kx3 != 2 or c.left == c.right,
        _hyperelliptic_sym_detail,
        "sides and pairs",
    ),
    "ALPHA_PLUS_BOUND": Check(
        "point-side leading coefficient within its search bound",
        _alpha_plus_bound,
        _alpha_plus_bound_detail,
        "record",
    ),
    "BETA_PLUS_RANGE": Check(
        "point-side E-coefficient within its admissible range",
        _beta_plus_range,
        _beta_plus_range_detail,
        "record",
    ),
}

DEFAULT_CHECKS: frozenset[str] = frozenset(REGISTRY)
_IN_ORDER: tuple[str, ...] = tuple(REGISTRY)  # run_checks' names, built once


def validate_check_ids(names: Iterable[str]) -> None:
    unknown = sorted(set(names) - set(REGISTRY))
    if "" in unknown:
        raise ValueError("empty check id; fanolink --list-checks prints the valid ids")
    if unknown:
        raise ValueError(f"unknown check ids: {', '.join(unknown)}")


@functools.cache
def kernel_plan(
    names: tuple[str, ...], enabled: frozenset[str]
) -> tuple[tuple[str, Callable[[LinkCandidate], bool]], ...]:
    """The enabled checks among names, as (name, verdict) pairs in names' order.

    Over tuple(REGISTRY) it is the plan run_checks runs.  Cached per names
    and enabled set, which is validated once; a failure is never cached.
    """
    validate_check_ids(enabled)
    return tuple((name, REGISTRY[name].passes) for name in names if name in enabled)


def run_checks(
    candidate: LinkCandidate,
    enabled: frozenset[str] = DEFAULT_CHECKS,
    short_circuit: bool = False,
) -> tuple[CheckReport, ...]:
    """Evaluate the enabled checks in registry order on a candidate.

    With short_circuit the evaluation stops at the first failure and
    reports it alone, so an admitted candidate gets no reports; the
    admission verdict is the same.
    """
    plan = kernel_plan(_IN_ORDER, frozenset(enabled))
    if short_circuit:
        for name, passes in plan:
            if not passes(candidate):
                return (_report((name, False, candidate)),)
        return ()
    return tuple(_report((name, passes(candidate), candidate)) for name, passes in plan)


_passed = operator.attrgetter("passed")


def admitted(reports: Iterable[CheckReport]) -> bool:
    return all(map(_passed, reports))

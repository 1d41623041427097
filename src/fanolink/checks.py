"""Admission checks for link candidates.

Every admission criterion lives here as a named, individually switchable
check.  The registry is closed and ordered; reports always come back in
registry order so output is deterministic.  Checks report, they never
throw: a condition that cannot be evaluated (for example a Hodge lookup
for a degree outside the catalog, reachable when earlier checks are
disabled) becomes a failing report with a reason, not an exception.

Each check is a verdict and a description.  The verdict, ``passes``,
decides from the candidate's fields by integer arithmetic and comparisons:
it formats no text and builds no Fraction.  The description, ``describe``, writes the report's
detail text, and a report calls it only when its ``detail`` is read (the
search reads only names and verdicts; ``explain`` prints the details).

A candidate is admitted when every enabled check passes.  Disabling checks
can only widen the admitted set (each check is a pure predicate on the
candidate), which the property tests exercise.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from . import catalog
from .formulas import (
    basis_decomposition_numerators,
    e1e1_residual_numerators,
    e1estar_residual_numerators,
)
from .model import LinkCandidate, SideData
from .rational import is_integer, over_common_denominator

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


def _residuals(c: LinkCandidate) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The residual system as (numerators, their positive denominators), by shape.

    A family's curve side, if any, is the left one.  Star-star: each
    coefficient satisfies the symmetric degree relation, alpha*kx3 - 2*sigma
    over alpha's denominator on each side.  A residual vanishes exactly
    when its numerator does.
    """
    co = c.coeffs
    if not c.left.is_e1:
        na, da = co.alpha.as_integer_ratio()
        nap, dap = co.alpha_plus.as_integer_ratio()
        numerators = (na * c.kx3 - 2 * c.sigma_left * da, nap * c.kx3 - 2 * c.sigma_right * dap)
        return numerators, (da, dap)
    left = over_common_denominator(co.alpha, co.beta)
    right = over_common_denominator(co.alpha_plus, co.beta_plus)
    den, den_p = left[2], right[2]
    if c.right.is_e1:
        return e1e1_residual_numerators(
            c.kx3, left, right, c.left.g, c.sigma_left, c.right.g, c.sigma_right
        ), (den * den, den_p * den_p)
    return e1estar_residual_numerators(
        c.kx3, left, right, c.left.r, c.left.d, c.left.g, c.sigma_right
    ), (den * den, den, den_p * den_p, den_p)


def _ratios(numerators: Iterable[int], denominators: Iterable[int]) -> str:
    return ", ".join(str(Fraction(n, d)) for n, d in zip(numerators, denominators))


def _coeff_relations_detail(c: LinkCandidate) -> str:
    co = c.coeffs
    da, db = co.alpha.denominator, co.beta.denominator
    dap, dbp = co.alpha_plus.denominator, co.beta_plus.denominator
    denominators = (db * dbp, da * db * dap, dap * dbp * da)
    detail = "closure " + _ratios(co.closure_numerators(), denominators)
    if not co.all_nonzero():
        detail += "; some coefficient is zero"
    return detail


def _primitive(side: SideData, alpha: Fraction, beta: Fraction) -> bool:
    """Primitivity of the flopped divisor in an E1 side's integral basis.

    Both coefficients of its basis decomposition, lead/den and diff/den,
    must be integers with trivial common divisor: together, exactly when
    gcd(lead, diff) == den.  A point-type side has no such constraint.
    """
    if not side.is_e1:
        return True
    lead, diff, den = basis_decomposition_numerators(alpha, beta, side.r)
    return math.gcd(lead, diff) == den


def _primitive_detail(role: str, side: SideData, alpha: Fraction, beta: Fraction) -> str:
    if not side.is_e1:
        return f"{role} side is not E1; no primitivity constraint"
    lead, diff, den = basis_decomposition_numerators(alpha, beta, side.r)
    if lead % den or diff % den:
        return f"non-integral decomposition ({Fraction(lead, den)}, {Fraction(diff, den)})"
    lead, diff = lead // den, diff // den
    return f"decomposition ({lead}, {diff}), gcd {math.gcd(lead, diff)}"


def _point_side_pairs(c: LinkCandidate) -> list[tuple[str, Fraction, Fraction]]:
    pairs = []
    if not c.left.is_e1:
        pairs.append(("left", c.coeffs.alpha, c.coeffs.beta))
    if not c.right.is_e1:
        pairs.append(("right", c.coeffs.alpha_plus, c.coeffs.beta_plus))
    return pairs


def _coeff_integrality_detail(c: LinkCandidate) -> str:
    pairs = _point_side_pairs(c)
    if not pairs:
        return "no point-type side; integrality not required"
    bad = [
        f"{side} ({a}, {b})" for side, a, b in pairs if not (is_integer(a) and is_integer(b))
    ]
    if bad:
        return "non-integral point-side coefficients: " + "; ".join(bad)
    return "point-side coefficients integral: " + "; ".join(
        f"{side} ({a}, {b})" for side, a, b in pairs
    )


def _positive_integer(x: Fraction) -> bool:
    return x.denominator == 1 and x.numerator > 0


def _defect_divisible(c: LinkCandidate) -> bool:
    # e / scale is an integer exactly when scale * den(e) divides num(e).
    e, e_plus = c.defect_left, c.defect_right
    norm_left, rem_left = divmod(e.numerator, c.left.cube_scale * e.denominator)
    norm_right, rem_right = divmod(e_plus.numerator, c.right.cube_scale * e_plus.denominator)
    return rem_left == 0 and rem_right == 0 and norm_left == norm_right


def _defect_divisible_detail(c: LinkCandidate) -> str:
    scale_left, scale_right = c.left.cube_scale, c.right.cube_scale
    norm_left = c.defect_left / scale_left
    norm_right = c.defect_right / scale_right
    return f"normalized defects {norm_left} (left/{scale_left}), {norm_right} (right/{scale_right})"


def _hodge_sum(side: SideData, ky3: Fraction | int) -> int:
    value = catalog.hodge_h12(side.target_index, ky3)
    return value + (side.g if side.is_e1 else 0)


def _hodge(c: LinkCandidate) -> bool:
    if c.left.target_index is None or c.right.target_index is None:
        return True
    try:
        return _hodge_sum(c.left, c.kY3_left) == _hodge_sum(c.right, c.kY3_right)
    except ValueError:
        return False


def _hodge_detail(c: LinkCandidate) -> str:
    if c.left.target_index is None or c.right.target_index is None:
        return "a target is singular; Hodge balance not applicable"
    try:
        lhs = _hodge_sum(c.left, c.kY3_left)
        rhs = _hodge_sum(c.right, c.kY3_right)
    except ValueError as exc:
        return f"Hodge lookup failed: {exc}"
    return f"curve-corrected h12: {lhs} vs {rhs}"


def _hyperelliptic_sym_detail(c: LinkCandidate) -> str:
    if c.kx3 != 2:
        return "central degree above 2; symmetry not forced"
    return f"degree-2 link sides {'equal' if c.left == c.right else 'differ'}"


def _alpha_plus_bound(c: LinkCandidate) -> bool:
    if c.left.is_e1 and c.right.is_e1:
        return True
    num, den = c.coeffs.alpha_plus.as_integer_ratio()
    return 0 < num <= MAX_ALPHA_PLUS * den


def _alpha_plus_bound_detail(c: LinkCandidate) -> str:
    if c.left.is_e1 and c.right.is_e1:
        return "both sides E1; no point-side coefficient bound"
    return f"alpha_plus = {c.coeffs.alpha_plus}, bound (0, {MAX_ALPHA_PLUS}]"


def _beta_plus_range(c: LinkCandidate) -> bool:
    co = c.coeffs
    if c.left.is_e1 and c.right.is_e1:
        return True
    if c.left.is_e1:
        bp = co.beta_plus
        return bp.denominator == 1 and -c.left.r <= bp.numerator <= -1
    return co.beta == -1 and co.beta_plus == -1 and co.alpha == co.alpha_plus


def _beta_plus_range_detail(c: LinkCandidate) -> str:
    co = c.coeffs
    if c.left.is_e1 and c.right.is_e1:
        return "both sides E1; range fixed by the index ratio"
    if c.left.is_e1:
        return f"beta_plus = {co.beta_plus}, required integer in [-{c.left.r}, -1]"
    return (
        f"symmetric coefficients alpha={co.alpha}, alpha_plus={co.alpha_plus}, "
        f"beta={co.beta}, beta_plus={co.beta_plus}"
    )


class Check(NamedTuple):
    """A registry entry: what the check demands, its verdict and its detail text."""

    description: str
    passes: Callable[[LinkCandidate], bool]
    describe: Callable[[LinkCandidate], str]


# Closed, ordered registry. The order is the reporting order everywhere.
REGISTRY: dict[str, Check] = {
    "SIGMA_POS": Check(
        "anticanonical excess positive each side, and at least 3 on curve-blowup sides",
        lambda c: _side_sigma_admissible(c.left, c.sigma_left)
        and _side_sigma_admissible(c.right, c.sigma_right),
        lambda c: f"sigma={c.sigma_left}, sigma_plus={c.sigma_right}",
    ),
    "KX3_RANGE": Check(
        "central degree is even and within 2..22",
        lambda c: c.kx3 in KX3_VALUES,
        lambda c: f"central degree {c.kx3}",
    ),
    "FANO_DEGREE_LEFT": Check(
        "left target degree is in the rank-one catalog",
        lambda c: _degree_ok(c.left, c.kY3_left),
        lambda c: _degree_detail(c.left, c.kY3_left),
    ),
    "FANO_DEGREE_RIGHT": Check(
        "right target degree is in the rank-one catalog",
        lambda c: _degree_ok(c.right, c.kY3_right),
        lambda c: _degree_detail(c.right, c.kY3_right),
    ),
    "DIOPHANTINE": Check(
        "the exact residual system vanishes",
        lambda c: not any(_residuals(c)[0]),
        lambda c: "residuals " + _ratios(*_residuals(c)),
    ),
    "COEFF_RELATIONS": Check(
        "flop coefficients are mutually consistent and nonzero",
        lambda c: not any(c.coeffs.closure_numerators()) and c.coeffs.all_nonzero(),
        _coeff_relations_detail,
    ),
    "ETILDE_INTEGRAL": Check(
        "both flopped divisor cubes are integers",
        lambda c: is_integer(c.etilde3_left) and is_integer(c.etilde3_right),
        lambda c: f"transform cubes {c.etilde3_left}, {c.etilde3_right}",
    ),
    "GCD_LEFT": Check(
        "left-basis decomposition of the flopped divisor is primitive",
        lambda c: _primitive(c.left, c.coeffs.alpha, c.coeffs.beta),
        lambda c: _primitive_detail("left", c.left, c.coeffs.alpha, c.coeffs.beta),
    ),
    "GCD_RIGHT": Check(
        "right-basis decomposition of the flopped divisor is primitive",
        lambda c: _primitive(c.right, c.coeffs.alpha_plus, c.coeffs.beta_plus),
        lambda c: _primitive_detail("right", c.right, c.coeffs.alpha_plus, c.coeffs.beta_plus),
    ),
    "COEFF_INTEGRALITY": Check(
        "point-side coefficients are integers",
        lambda c: all(is_integer(a) and is_integer(b) for _, a, b in _point_side_pairs(c)),
        _coeff_integrality_detail,
    ),
    "DEFECT_POSITIVE": Check(
        "both flop defects are positive integers",
        lambda c: _positive_integer(c.defect_left) and _positive_integer(c.defect_right),
        lambda c: f"defects {c.defect_left}, {c.defect_right}",
    ),
    "DEFECT_DIVISIBLE": Check(
        "defects agree after dividing by the index cubes",
        _defect_divisible,
        _defect_divisible_detail,
    ),
    "HODGE": Check(
        "curve-corrected Hodge numbers balance across the link", _hodge, _hodge_detail
    ),
    "HYPERELLIPTIC_SYM": Check(
        "central degree 2 forces equal sides",
        lambda c: c.kx3 != 2 or c.left == c.right,
        _hyperelliptic_sym_detail,
    ),
    "ALPHA_PLUS_BOUND": Check(
        "point-side leading coefficient within its search bound",
        _alpha_plus_bound,
        _alpha_plus_bound_detail,
    ),
    "BETA_PLUS_RANGE": Check(
        "point-side E-coefficient within its admissible range",
        _beta_plus_range,
        _beta_plus_range_detail,
    ),
}

DEFAULT_CHECKS: frozenset[str] = frozenset(REGISTRY)


def validate_check_ids(names: Iterable[str]) -> None:
    unknown = sorted(set(names) - set(REGISTRY))
    if "" in unknown:
        raise ValueError("empty check id; fanolink --list-checks prints the valid ids")
    if unknown:
        raise ValueError(f"unknown check ids: {', '.join(unknown)}")


@functools.cache
def _plan(enabled: frozenset[str]) -> tuple[tuple[str, Callable[[LinkCandidate], bool]], ...]:
    """The enabled checks' (name, passes) in registry order, validated once per set."""
    validate_check_ids(enabled)
    return tuple((name, check.passes) for name, check in REGISTRY.items() if name in enabled)


def run_checks(
    candidate: LinkCandidate,
    enabled: frozenset[str] = DEFAULT_CHECKS,
    short_circuit: bool = False,
) -> tuple[CheckReport, ...]:
    """Evaluate the enabled checks in registry order.

    With short_circuit the evaluation stops after the first failure (the
    admission verdict is unchanged; only trailing reports are omitted).
    """
    reports: list[CheckReport] = []
    for name, passes in _plan(frozenset(enabled)):
        passed = passes(candidate)
        reports.append(CheckReport(name, passed, candidate))
        if short_circuit and not passed:
            break
    return tuple(reports)


def admitted(reports: Iterable[CheckReport]) -> bool:
    return all(report.passed for report in reports)

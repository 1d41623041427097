"""Admission checks for link candidates.

Every admission criterion lives here as a named, individually switchable
check.  The registry is closed and ordered; reports always come back in
registry order so output is deterministic.  Checks report, they never
throw: a condition that cannot be evaluated (for example a Hodge lookup
for a degree outside the catalog, reachable when earlier checks are
disabled) becomes a failing report with a reason, not an exception.

A candidate is admitted when every enabled check passes.  Disabling checks
can only widen the admitted set (each check is a pure predicate on the
candidate), which the property tests exercise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from . import catalog
from .formulas import basis_decomposition, e1e1_residuals, e1estar_residuals
from .model import LinkCandidate, SideData
from .rational import as_integer, is_integer

# The central-degree domain: even, 2..22.  It is also the search range.
KX3_VALUES: tuple[int, ...] = tuple(range(2, 23, 2))
# Bound on the point-side leading coefficient; also the search box's bound.
MAX_ALPHA_PLUS = 86


class CheckReport(NamedTuple):
    name: str
    passed: bool
    detail: str


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


def _check_sigma_pos(c: LinkCandidate) -> tuple[bool, str]:
    ok = _side_sigma_admissible(c.left, c.sigma_left) and _side_sigma_admissible(
        c.right, c.sigma_right
    )
    return ok, f"sigma={c.sigma_left}, sigma_plus={c.sigma_right}"


def _check_kx3_range(c: LinkCandidate) -> tuple[bool, str]:
    ok = c.kx3 in KX3_VALUES
    return ok, f"central degree {c.kx3}"


def _degree_detail(side: SideData, ky3: Fraction | int) -> tuple[bool, str]:
    index = side.target_index
    if index is None:
        return True, f"{side.ctype.value} target is singular; no degree constraint"
    ok = catalog.is_valid_fano_degree(index, ky3)
    return ok, f"target degree {ky3} at index {index}"


def _check_fano_degree_left(c: LinkCandidate) -> tuple[bool, str]:
    return _degree_detail(c.left, c.kY3_left)


def _check_fano_degree_right(c: LinkCandidate) -> tuple[bool, str]:
    return _degree_detail(c.right, c.kY3_right)


def _diophantine_residuals(c: LinkCandidate) -> tuple[Fraction, ...]:
    # A family's curve side, if any, is the left one.
    if c.right.is_e1:
        return e1e1_residuals(
            c.kx3, c.coeffs, c.left.g, c.sigma_left, c.right.g, c.sigma_right
        )
    if c.left.is_e1:
        return e1estar_residuals(
            c.kx3, c.coeffs, c.left.r, c.left.d, c.left.g, c.sigma_right
        )
    # Star-star: each coefficient satisfies the symmetric degree relation.
    return (
        c.coeffs.alpha * c.kx3 - 2 * c.sigma_left,
        c.coeffs.alpha_plus * c.kx3 - 2 * c.sigma_right,
    )


def _check_diophantine(c: LinkCandidate) -> tuple[bool, str]:
    residuals = _diophantine_residuals(c)
    ok = all(r == 0 for r in residuals)
    return ok, "residuals " + ", ".join(str(r) for r in residuals)


def _check_coeff_relations(c: LinkCandidate) -> tuple[bool, str]:
    residuals = c.coeffs.closure_residuals()
    nonzero = c.coeffs.all_nonzero()
    ok = all(r == 0 for r in residuals) and nonzero
    detail = "closure " + ", ".join(str(r) for r in residuals)
    if not nonzero:
        detail += "; some coefficient is zero"
    return ok, detail


def _check_etilde_integral(c: LinkCandidate) -> tuple[bool, str]:
    ok = is_integer(c.etilde3_left) and is_integer(c.etilde3_right)
    return ok, f"transform cubes {c.etilde3_left}, {c.etilde3_right}"


def _gcd_side(alpha: Fraction, beta: Fraction, r: int) -> tuple[bool, str]:
    """Primitivity of the flopped divisor in the side's integral basis.

    Both coefficients of its basis_decomposition must be integers with
    trivial common divisor.
    """
    lead, diff = basis_decomposition(alpha, beta, r)
    if not (is_integer(lead) and is_integer(diff)):
        return False, f"non-integral decomposition ({lead}, {diff})"
    lead_i, diff_i = as_integer(lead), as_integer(diff)
    gcd = math.gcd(abs(lead_i), abs(diff_i))
    return gcd == 1, f"decomposition ({lead_i}, {diff_i}), gcd {gcd}"


def _check_gcd_left(c: LinkCandidate) -> tuple[bool, str]:
    if not c.left.is_e1:
        return True, "left side is not E1; no primitivity constraint"
    return _gcd_side(c.coeffs.alpha, c.coeffs.beta, c.left.r)


def _check_gcd_right(c: LinkCandidate) -> tuple[bool, str]:
    if not c.right.is_e1:
        return True, "right side is not E1; no primitivity constraint"
    return _gcd_side(c.coeffs.alpha_plus, c.coeffs.beta_plus, c.right.r)


def _check_coeff_integrality(c: LinkCandidate) -> tuple[bool, str]:
    pairs = []
    if not c.left.is_e1:
        pairs.append(("left", c.coeffs.alpha, c.coeffs.beta))
    if not c.right.is_e1:
        pairs.append(("right", c.coeffs.alpha_plus, c.coeffs.beta_plus))
    if not pairs:
        return True, "no point-type side; integrality not required"
    bad = [
        f"{side} ({a}, {b})" for side, a, b in pairs if not (is_integer(a) and is_integer(b))
    ]
    if bad:
        return False, "non-integral point-side coefficients: " + "; ".join(bad)
    return True, "point-side coefficients integral: " + "; ".join(
        f"{side} ({a}, {b})" for side, a, b in pairs
    )


def _check_defect_positive(c: LinkCandidate) -> tuple[bool, str]:
    e, e_plus = c.defect_left, c.defect_right
    ok = is_integer(e) and e > 0 and is_integer(e_plus) and e_plus > 0
    return ok, f"defects {e}, {e_plus}"


def _check_defect_divisible(c: LinkCandidate) -> tuple[bool, str]:
    e, e_plus = c.defect_left, c.defect_right
    scale_left, scale_right = c.left.cube_scale, c.right.cube_scale
    norm_left = e / scale_left
    norm_right = e_plus / scale_right
    ok = is_integer(norm_left) and is_integer(norm_right) and norm_left == norm_right
    return ok, (
        f"normalized defects {norm_left} (left/{scale_left}), {norm_right} (right/{scale_right})"
    )


def _hodge_sum(side: SideData, ky3: Fraction | int) -> int:
    value = catalog.hodge_h12(side.target_index, ky3)
    return value + (side.g if side.is_e1 else 0)


def _check_hodge(c: LinkCandidate) -> tuple[bool, str]:
    if c.left.target_index is None or c.right.target_index is None:
        return True, "a target is singular; Hodge balance not applicable"
    try:
        lhs = _hodge_sum(c.left, c.kY3_left)
        rhs = _hodge_sum(c.right, c.kY3_right)
    except ValueError as exc:
        return False, f"Hodge lookup failed: {exc}"
    return lhs == rhs, f"curve-corrected h12: {lhs} vs {rhs}"


def _check_hyperelliptic_sym(c: LinkCandidate) -> tuple[bool, str]:
    if c.kx3 != 2:
        return True, "central degree above 2; symmetry not forced"
    same = c.left == c.right
    return same, f"degree-2 link sides {'equal' if same else 'differ'}"


def _check_alpha_plus_bound(c: LinkCandidate) -> tuple[bool, str]:
    if c.left.is_e1 and c.right.is_e1:
        return True, "both sides E1; no point-side coefficient bound"
    ap = c.coeffs.alpha_plus
    ok = 0 < ap <= MAX_ALPHA_PLUS
    return ok, f"alpha_plus = {ap}, bound (0, {MAX_ALPHA_PLUS}]"


def _check_beta_plus_range(c: LinkCandidate) -> tuple[bool, str]:
    if c.left.is_e1 and c.right.is_e1:
        return True, "both sides E1; range fixed by the index ratio"
    bp = c.coeffs.beta_plus
    if c.left.is_e1:
        ok = is_integer(bp) and -c.left.r <= bp <= -1
        return ok, f"beta_plus = {bp}, required integer in [-{c.left.r}, -1]"
    ok = (
        c.coeffs.beta == -1
        and c.coeffs.beta_plus == -1
        and c.coeffs.alpha == c.coeffs.alpha_plus
    )
    return ok, (
        f"symmetric coefficients alpha={c.coeffs.alpha}, alpha_plus={c.coeffs.alpha_plus}, "
        f"beta={c.coeffs.beta}, beta_plus={c.coeffs.beta_plus}"
    )


CheckFn = Callable[[LinkCandidate], tuple[bool, str]]

# Closed, ordered registry. The order is the reporting order everywhere.
REGISTRY: dict[str, tuple[str, CheckFn]] = {
    "SIGMA_POS": (
        "anticanonical excess positive each side, and at least 3 on curve-blowup sides",
        _check_sigma_pos,
    ),
    "KX3_RANGE": ("central degree is even and within 2..22", _check_kx3_range),
    "FANO_DEGREE_LEFT": ("left target degree is in the rank-one catalog", _check_fano_degree_left),
    "FANO_DEGREE_RIGHT": ("right target degree is in the rank-one catalog", _check_fano_degree_right),
    "DIOPHANTINE": ("the exact residual system vanishes", _check_diophantine),
    "COEFF_RELATIONS": ("flop coefficients are mutually consistent and nonzero", _check_coeff_relations),
    "ETILDE_INTEGRAL": ("both flopped divisor cubes are integers", _check_etilde_integral),
    "GCD_LEFT": ("left-basis decomposition of the flopped divisor is primitive", _check_gcd_left),
    "GCD_RIGHT": ("right-basis decomposition of the flopped divisor is primitive", _check_gcd_right),
    "COEFF_INTEGRALITY": ("point-side coefficients are integers", _check_coeff_integrality),
    "DEFECT_POSITIVE": ("both flop defects are positive integers", _check_defect_positive),
    "DEFECT_DIVISIBLE": ("defects agree after dividing by the index cubes", _check_defect_divisible),
    "HODGE": ("curve-corrected Hodge numbers balance across the link", _check_hodge),
    "HYPERELLIPTIC_SYM": ("central degree 2 forces equal sides", _check_hyperelliptic_sym),
    "ALPHA_PLUS_BOUND": ("point-side leading coefficient within its search bound", _check_alpha_plus_bound),
    "BETA_PLUS_RANGE": ("point-side E-coefficient within its admissible range", _check_beta_plus_range),
}

DEFAULT_CHECKS: frozenset[str] = frozenset(REGISTRY)


def validate_check_ids(names: Iterable[str]) -> None:
    unknown = sorted(set(names) - set(REGISTRY))
    if "" in unknown:
        raise ValueError("empty check id; fanolink --list-checks prints the valid ids")
    if unknown:
        raise ValueError(f"unknown check ids: {', '.join(unknown)}")


def run_checks(
    candidate: LinkCandidate,
    enabled: frozenset[str] = DEFAULT_CHECKS,
    short_circuit: bool = False,
) -> tuple[CheckReport, ...]:
    """Evaluate the enabled checks in registry order.

    With short_circuit the evaluation stops after the first failure (the
    admission verdict is unchanged; only trailing reports are omitted).
    """
    if not DEFAULT_CHECKS.issuperset(enabled):
        validate_check_ids(enabled)
    reports: list[CheckReport] = []
    for name, (_, fn) in REGISTRY.items():
        if name not in enabled:
            continue
        passed, detail = fn(candidate)
        reports.append(CheckReport(name, passed, detail))
        if short_circuit and not passed:
            break
    return tuple(reports)


def admitted(reports: Iterable[CheckReport]) -> bool:
    return all(report.passed for report in reports)

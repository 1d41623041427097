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

Each check also declares its scope (Scope): the candidate fields its
verdict reads (kx3 alone, one side and kx3, each side, or the whole
record, or a kernel scope), what it reads on a walk where that is less,
and the enumerator walks whose pairs pass it by construction.
kernel_plan derives from that table the checks an E1 walk decides on a
tuple's integers; the symmetric walk, explain and the oracles run them all.

Nine checks read only integers an E1 walk has before it derives a record
(KERNEL_ARGS): ETILDE_INTEGRAL, DEFECT_POSITIVE and DEFECT_DIVISIBLE the
cubes, defects and cube scales; DIOPHANTINE, COEFF_RELATIONS, GCD_LEFT,
GCD_RIGHT, HODGE and HYPERELLIPTIC_SYM the side fields and the pairs.  Each
is one integer predicate over those fields: its passes reads them from a
record, and the walks call it on a tuple's own (search._kernel).
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple

from . import catalog
from .formulas import (
    basis_decomposition_numerators,
    closure_numerators,
    e1e1_pairs,
    e1e1_residual_numerators,
    e1estar_residual_numerators,
    star_pairs,
    symmetric_pairs,
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


def _residuals(
    kx3: int, left: SideData, right: SideData, sigma_left: int, sigma_right: int,
    ky3_left: Fraction | int, ky3_right: Fraction | int, pair: Pair, pair_plus: Pair,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The residual system as (numerators, their positive denominators), by shape.

    It takes the fields KERNEL_ARGS["sides and pairs"] names, in that order,
    and reads all but the target degrees.  A family's curve side, if any, is
    the left one.  Star-star: each coefficient satisfies the symmetric
    degree relation, alpha*kx3 - 2*sigma over its pair's denominator on each
    side.  A residual vanishes exactly when its numerator does.
    """
    den, den_p = pair[2], pair_plus[2]
    if not left.is_e1:
        numerators = (
            pair[0] * kx3 - 2 * sigma_left * den,
            pair_plus[0] * kx3 - 2 * sigma_right * den_p,
        )
        return numerators, (den, den_p)
    if right.is_e1:
        return e1e1_residual_numerators(
            kx3, pair, pair_plus, left.g, sigma_left, right.g, sigma_right
        ), (den * den, den_p * den_p)
    return e1estar_residual_numerators(
        kx3, pair, pair_plus, left.r, left.d, left.g, sigma_right
    ), (den * den, den, den_p * den_p, den_p)


def _ratios(numerators: Iterable[int], denominators: Iterable[int]) -> str:
    return ", ".join(str(Fraction(n, d)) for n, d in zip(numerators, denominators))


def _fractions(pair: Pair) -> tuple[Fraction, Fraction]:
    a, b, den = pair
    return Fraction(a, den), Fraction(b, den)


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


def _point_side_pairs(rec: LinkCandidate) -> list[tuple[str, Pair]]:
    pairs = []
    if not rec.left.is_e1:
        pairs.append(("left", rec.pair))
    if not rec.right.is_e1:
        pairs.append(("right", rec.pair_plus))
    return pairs


def _integral_pair(pair: Pair) -> bool:
    a, b, den = pair
    return a % den == 0 and b % den == 0


def _coeff_integrality_detail(rec: LinkCandidate) -> str:
    pairs = _point_side_pairs(rec)
    if not pairs:
        return "no point-type side; integrality not required"
    shown = {side: "({}, {})".format(*_fractions(pair)) for side, pair in pairs}
    bad = [f"{side} {shown[side]}" for side, pair in pairs if not _integral_pair(pair)]
    if bad:
        return "non-integral point-side coefficients: " + "; ".join(bad)
    return "point-side coefficients integral: " + "; ".join(
        f"{side} {text}" for side, text in shown.items()
    )


# The verdicts of scope "cubes": each takes the fields KERNEL_ARGS["cubes"]
# names, in that order; the sides give their cube scales.
def _etilde_integral(left, right, cube_left, cube_right, defect_left, defect_right) -> bool:
    return cube_left[0] % cube_left[1] == 0 and cube_right[0] % cube_right[1] == 0


def _defect_positive(left, right, cube_left, cube_right, defect_left, defect_right) -> bool:
    (num_left, den_left), (num_right, den_right) = defect_left, defect_right
    positive = num_left > 0 and num_right > 0
    return positive and num_left % den_left == 0 and num_right % den_right == 0


def _defect_divisible(left, right, cube_left, cube_right, defect_left, defect_right) -> bool:
    # e / scale is an integer exactly when scale * den(e) divides num(e).
    (num_left, den_left), (num_right, den_right) = defect_left, defect_right
    norm_left, rem_left = divmod(num_left, left.cube_scale * den_left)
    norm_right, rem_right = divmod(num_right, right.cube_scale * den_right)
    return rem_left == 0 and rem_right == 0 and norm_left == norm_right


def _defect_divisible_detail(rec: LinkCandidate) -> str:
    scale_left, scale_right = rec.left.cube_scale, rec.right.cube_scale
    norm_left = Fraction(rec.defect_left[0], rec.defect_left[1] * scale_left)
    norm_right = Fraction(rec.defect_right[0], rec.defect_right[1] * scale_right)
    return f"normalized defects {norm_left} (left/{scale_left}), {norm_right} (right/{scale_right})"


def _hodge_sum(side: SideData, ky3: Fraction | int) -> int:
    value = catalog.hodge_h12(side.target_index, ky3)
    return value + (side.g if side.is_e1 else 0)


# The verdicts of scope "sides and pairs": each takes the fields
# KERNEL_ARGS["sides and pairs"] names, in that order.
def _diophantine(*fields) -> bool:
    return not any(_residuals(*fields)[0])  # every residual numerator vanishes


def _coeff_relations(*fields) -> bool:
    pair, pair_plus = fields[-2:]
    return not any(closure_numerators(pair, pair_plus)) and 0 not in (*pair[:2], *pair_plus[:2])


def _gcd_left(
    kx3, left, right, sigma_left, sigma_right, ky3_left, ky3_right, pair, pair_plus
) -> bool:
    return _primitive(left, pair)


def _gcd_right(
    kx3, left, right, sigma_left, sigma_right, ky3_left, ky3_right, pair, pair_plus
) -> bool:
    return _primitive(right, pair_plus)


def _hodge(kx3, left, right, sigma_left, sigma_right, ky3_left, ky3_right, *pairs) -> bool:
    if left.target_index is None or right.target_index is None:
        return True
    try:
        return _hodge_sum(left, ky3_left) == _hodge_sum(right, ky3_right)
    except ValueError:
        return False


def _hyperelliptic_sym(kx3, left, right, *rest) -> bool:
    return kx3 != 2 or left == right


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
    alpha_plus = _fractions(rec.pair_plus)[0]
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
    alpha, beta = _fractions(rec.pair)
    alpha_plus, beta_plus = _fractions(rec.pair_plus)
    if rec.left.is_e1:
        return f"beta_plus = {beta_plus}, required integer in [-{rec.left.r}, -1]"
    return (
        f"symmetric coefficients alpha={alpha}, alpha_plus={alpha_plus}, "
        f"beta={beta}, beta_plus={beta_plus}"
    )


_LEFT = frozenset({"kx3", "left", "sigma_left", "kY3_left"})
_RIGHT = frozenset({"kx3", "right", "sigma_right", "kY3_right"})

# The fields a kernel check's verdict takes, in order, by its scope.  An E1
# walk has them for a tuple before it derives the record (search._kernel):
# the sides and the cubes and defects (formulas.cube_numerators), or the
# side fields (formulas.side_terms) and the pairs.  The check's passes reads
# them from a record (_kernel_check).
KERNEL_ARGS: dict[str, tuple[str, ...]] = {
    "cubes": ("left", "right", "etilde3_left", "etilde3_right", "defect_left", "defect_right"),
    "sides and pairs": LinkCandidate._fields[:9],  # kx3 through pair_plus
}

# The candidate fields (model.LinkCandidate) a verdict of each scope reads.
SCOPE_FIELDS: dict[str, frozenset[str]] = {
    "kx3": frozenset({"kx3"}),
    "left": _LEFT,  # the left side and kx3
    "right": _RIGHT,  # the right side and kx3
    "each side": _LEFT | _RIGHT,  # each side and kx3 apart; a failing side fails every pair
    "left and pair": frozenset({"left", "pair"}),  # the left side's index and the pair
    **{scope: frozenset(fields) for scope, fields in KERNEL_ARGS.items()},
    "record": frozenset(LinkCandidate._fields),
}


class Scope(NamedTuple):
    """What a check's verdict reads, and which enumerator walks decide it by construction.

    reads is a SCOPE_FIELDS key.  built maps a walk's pair function
    (formulas.e1e1_pairs, star_pairs or symmetric_pairs) to the checks
    whose prunes that walk needs enabled so that every record it derives
    passes this one; an empty set means its pairs pass by construction.
    on maps a pair function to the SCOPE_FIELDS key of what the verdict
    reads on that walk's records, where that is less than reads.
    """

    reads: str
    built: Mapping[Callable, frozenset[str]] = {}
    on: Mapping[Callable, str] = {}


_ANY_PAIRS = {e1e1_pairs: frozenset(), star_pairs: frozenset(), symmetric_pairs: frozenset()}


class Check(NamedTuple):
    """A registry entry: what the check demands, its verdict, its detail text and its scope.

    A kernel check (scope KERNEL_ARGS) also holds its verdict on the fields
    its scope names, which its passes calls on a record's.
    """

    description: str
    passes: Callable[[LinkCandidate], bool]
    describe: Callable[[LinkCandidate], str]
    scope: Scope
    on_fields: Callable[..., bool] | None = None


def _kernel_check(
    description: str,
    verdict: Callable[..., bool],
    describe: Callable[[LinkCandidate], str],
    scope: Scope,
) -> Check:
    """A check whose verdict takes the fields KERNEL_ARGS[scope.reads] names, in that order."""
    fields = operator.attrgetter(*KERNEL_ARGS[scope.reads])
    return Check(description, lambda c: verdict(*fields(c)), describe, scope, verdict)


_sides_and_pairs = operator.attrgetter(*KERNEL_ARGS["sides and pairs"])


# Closed, ordered registry. The order is the reporting order everywhere.
REGISTRY: dict[str, Check] = {
    "SIGMA_POS": Check(
        "anticanonical excess positive each side, and at least 3 on curve-blowup sides",
        lambda c: _side_sigma_admissible(c.left, c.sigma_left)
        and _side_sigma_admissible(c.right, c.sigma_right),
        lambda c: f"sigma={c.sigma_left}, sigma_plus={c.sigma_right}",
        Scope("each side"),
    ),
    "KX3_RANGE": Check(
        "central degree is even and within 2..22",
        lambda c: c.kx3 in KX3_VALUES,
        lambda c: f"central degree {c.kx3}",
        Scope("kx3"),
    ),
    "FANO_DEGREE_LEFT": Check(
        "left target degree is in the rank-one catalog",
        lambda c: _degree_ok(c.left, c.kY3_left),
        lambda c: _degree_detail(c.left, c.kY3_left),
        Scope("left"),
    ),
    "FANO_DEGREE_RIGHT": Check(
        "right target degree is in the rank-one catalog",
        lambda c: _degree_ok(c.right, c.kY3_right),
        lambda c: _degree_detail(c.right, c.kY3_right),
        Scope("right", on={star_pairs: "kx3"}),  # a point right side is fixed per kx3
    ),
    "DIOPHANTINE": _kernel_check(
        "the exact residual system vanishes",
        _diophantine,
        lambda c: "residuals " + _ratios(*_residuals(*_sides_and_pairs(c))),
        # The E1-E1 walk derives a pair only after its genus-form test, which
        # is DIOPHANTINE's exact decision there (formulas.genus_form).
        Scope("sides and pairs", {e1e1_pairs: frozenset({"DIOPHANTINE"})}),
    ),
    "COEFF_RELATIONS": _kernel_check(
        "flop coefficients are mutually consistent and nonzero",
        _coeff_relations,
        _coeff_relations_detail,
        # Every closure relation holds identically on each pair function's
        # pairs; an E1-E1 alpha is (sigma*r_plus + r*sigma_plus)/(r*kx3),
        # nonzero once SIGMA_POS keeps both excesses positive.
        Scope("sides and pairs", {**_ANY_PAIRS, e1e1_pairs: frozenset({"SIGMA_POS"})}),
    ),
    "ETILDE_INTEGRAL": _kernel_check(
        "both flopped divisor cubes are integers",
        _etilde_integral,
        lambda c: f"transform cubes {Fraction(*c.etilde3_left)}, {Fraction(*c.etilde3_right)}",
        Scope("cubes"),
    ),
    "GCD_LEFT": _kernel_check(
        "left-basis decomposition of the flopped divisor is primitive",
        _gcd_left,
        lambda c: _primitive_detail("left", c.left, c.pair),
        # A point left side passes; an E1 one reads its index (_primitive).
        Scope("sides and pairs", {symmetric_pairs: frozenset()}, {star_pairs: "left and pair"}),
    ),
    "GCD_RIGHT": _kernel_check(
        "right-basis decomposition of the flopped divisor is primitive",
        _gcd_right,
        lambda c: _primitive_detail("right", c.right, c.pair_plus),
        # A point right side passes.
        Scope("sides and pairs", {star_pairs: frozenset(), symmetric_pairs: frozenset()}),
    ),
    "COEFF_INTEGRALITY": Check(
        "point-side coefficients are integers",
        lambda c: (c.left.is_e1 or _integral_pair(c.pair))
        and (c.right.is_e1 or _integral_pair(c.pair_plus)),
        _coeff_integrality_detail,
        Scope("record", _ANY_PAIRS),  # every point-side pair is over 1
    ),
    "DEFECT_POSITIVE": _kernel_check(
        "both flop defects are positive integers",
        _defect_positive,
        lambda c: f"defects {Fraction(*c.defect_left)}, {Fraction(*c.defect_right)}",
        Scope("cubes"),
    ),
    "DEFECT_DIVISIBLE": _kernel_check(
        "defects agree after dividing by the index cubes",
        _defect_divisible,
        _defect_divisible_detail,
        Scope("cubes"),
    ),
    "HODGE": _kernel_check(
        "curve-corrected Hodge numbers balance across the link",
        _hodge,
        _hodge_detail,
        Scope("sides and pairs", on={star_pairs: "left"}),  # one value per side (_hodge_sum)
    ),
    "HYPERELLIPTIC_SYM": _kernel_check(
        "central degree 2 forces equal sides",
        _hyperelliptic_sym,
        _hyperelliptic_sym_detail,
        Scope("sides and pairs", on={star_pairs: "kx3"}),  # an E1 side never equals a point side
    ),
    "ALPHA_PLUS_BOUND": Check(
        "point-side leading coefficient within its search bound",
        _alpha_plus_bound,
        _alpha_plus_bound_detail,
        # alpha_plus runs over 1..MAX_ALPHA_PLUS in the E1-point walk and
        # divides 2c <= 8 in the symmetric one.
        Scope("record", _ANY_PAIRS),
    ),
    "BETA_PLUS_RANGE": Check(
        "point-side E-coefficient within its admissible range",
        _beta_plus_range,
        _beta_plus_range_detail,
        Scope("record", _ANY_PAIRS),  # the E1-point walk's beta_plus runs over -r..-1
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
    """The enabled checks' (name, verdict) pairs, in registry order, validated once per set."""
    validate_check_ids(enabled)
    return tuple((name, check.passes) for name, check in REGISTRY.items() if name in enabled)


@functools.cache
def kernel_plan(pairs: Callable, enabled: frozenset[str]) -> tuple[tuple, ...]:
    """A walk's kernel: per KERNEL_ARGS scope, in that order, its (name, field verdict) pairs.

    They are the enabled checks, in registry order, whose scope on the walk
    (Scope.on, else Scope.reads) is that scope, less those the walk's pairs
    pass by construction: their Scope.built names pairs, with every check
    that needs enabled.  An E1 walk decides every other enabled check
    before its kernel.  Cached per walk and enabled set, like _plan.
    """
    validate_check_ids(enabled)
    return tuple(
        tuple(
            (name, check.on_fields)
            for name, check in REGISTRY.items()
            if name in enabled
            and check.scope.on.get(pairs, check.scope.reads) == scope
            and not (pairs in check.scope.built and check.scope.built[pairs] <= enabled)
        )
        for scope in KERNEL_ARGS
    )


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
    plan = _plan(frozenset(enabled))
    if short_circuit:
        for name, passes in plan:
            if not passes(candidate):
                return (_report((name, False, candidate)),)
        return ()
    return tuple(_report((name, passes(candidate), candidate)) for name, passes in plan)


_passed = operator.attrgetter("passed")


def admitted(reports: Iterable[CheckReport]) -> bool:
    return all(map(_passed, reports))

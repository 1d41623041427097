"""Candidate enumeration: primary closed-form search and brute-force oracle.

Two independent routes produce every family's candidate set:

* The primary enumerators loop over the documented search space, derive
  the flop coefficients in closed form (or scan the integer coefficient
  box for the point-type families), prune with exact integer forms of the
  residual system, and decide each remaining tuple through the check
  suite.  Only a kept row is audited (build_candidate).  An E1-E1 run
  joins each left side to its partners by genus form
  (formulas.genus_form), or, untraced and without DIOPHANTINE, by HODGE's
  per-side value (checks._hodge_value); untraced, it skips each pair whose
  alpha numerator is not a multiple of kx3, which fails both GCD checks.  An
  E1-point run decides once per kx3, left side or (r, beta_plus,
  alpha_plus) each check that reads no more, traced or not; an untraced
  run skips what they reject (enumerate_e1e1, enumerate_e1estar).
* Both E1 walks then hand each remaining tuple to one step (_decide),
  which derives its record (formulas.derive), decides its other checks on
  it and keeps, traces or skips it: ETILDE_INTEGRAL, DEFECT_POSITIVE and
  DEFECT_DIVISIBLE on the cubes and defects, and GCD_LEFT, GCD_RIGHT,
  HODGE and HYPERELLIPTIC_SYM on E1-E1 (and COEFF_RELATIONS without
  SIGMA_POS), DIOPHANTINE on E1-point.  The walks name these kernels
  (E1E1_KERNEL, E1STAR_KERNEL).  So a run, traced or not, derives each
  tuple it decides once, and audits just the rows it keeps.
* ``brute_force_oracle`` re-derives each family with a deliberately
  different generator: for E1-E1 it scans the leading coefficient as an
  explicit rational p/q and solves the genus relation directly instead of
  using the closed form; for the E1-point families it pins the leading
  coefficient through the quadratic consistency relation instead of the
  linear one; for the symmetric families it scans the full degree/alpha
  grid instead of walking divisors.

The E1 oracles skip each left side that SIGMA_POS or FANO_DEGREE_LEFT
rejects: the first reads the two sides alone, the second the left side
alone, so either fails every candidate on the side.  Likewise the E1-E1
oracle skips each solved right side, before deriving it, when SIGMA_POS or
FANO_DEGREE_RIGHT (which reads kx3 and the right side alone) rejects it.
The E1-point oracles skip each kx3 at which the point side fails
FANO_DEGREE_RIGHT, which reads kx3 and that side alone.  The degree skips,
like the enumerators' side prunes, make the checks' own calls (_degree_ok),
so they drop exactly what the check would reject.  The left sides come
from the oracle's own scan, once per process (_oracle_left_sides), not
from the enumerators' side lists.  The E1-E1 p scan walks only the class
where the right excess is integral (_excess_class) and still tests it on
every p.  Each scan also stops where a test it makes leaves the box:
E1-E1 walks rp <= r (orientation_canonical keeps r > rp when they
differ) and leaves the p walk once 2*gp - 2, floored, passes
2*G_MAX[rp] - 2, since its numerator rises with p above q*sig/kx3;
E1-point leaves the alpha_plus walk once ap*(ap*kx3 + 2*bp*c) passes its
target with ap*kx3 + bp*c > 0, from where it only rises.  Every visited
value meets every test, so a wrong class or bound could only drop rows,
which the agreement test catches, never admit one.

The acceptance tests require the two routes to agree exactly, which is
the engine's main self-check.

A ``trace`` hook (TraceFn) hears every rejected tuple, with the checks it
fails.  A hook with the ``block`` method takes each E1 side list's prunes,
and the E1-E1 join's pair-fast rejects between two partners, in one call;
any other callable gets them one event at a time (_block).

Ordering is canonical and total per family, so outputs are reproducible
byte for byte.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from fractions import Fraction
from typing import Callable

from .catalog import is_valid_fano_degree
from .checks import (
    DEFAULT_CHECKS,
    E1_SIGMA_MIN,
    KX3_VALUES,
    MAX_ALPHA_PLUS,
    REGISTRY,
    _hodge_value,
    _primitive,
    kernel_plan,
    run_checks,
)
from .formulas import (
    SideTerm,
    SideTerms,
    derive,
    e1e1_pairs,
    genus_form,
    ky3_from_kx3,
    side_term,
    side_terms,
    sigma,
    star_pairs,
    star_sigma,
    symmetric_pairs,
)
from .model import (
    CELL_FIELDS,
    FAMILIES,
    FAMILY_IDS,  # re-exported: search's callers list the families from here
    ContractionType,
    LinkCandidate,
    SideData,
    family_id,
    family_spec,
)
from .rational import INT64_LIMIT, audit_magnitude

D_MAX = 19
# Maximal genus per index: the largest g whose excess at d = D_MAX is not negative.
G_MAX: dict[int, int] = {r: sigma(r, D_MAX, 0) // 2 for r in range(1, 5)}

# A trace hook is called once per rejection: trace(stage, data, failed checks).
# It may also have a block method, which takes many events in one call; a hook
# without it gets the same events one call each, in order (_block).
# block(stage, data, cells, verdicts, failed, start, stop) stands for the
# events (*data, *cells[i]) that fail failed[verdicts[i]], for i in
# range(start, stop); verdicts holds one byte per cell, and verdict 0 is no event.
TraceFn = Callable[[str, tuple, tuple[str, ...]], None]

# ---------------------------------------------------------------------------
# Candidates


# The sides the enumerators and record build, by (ctype, r, d, g), each
# validated once: building a SideData costs more than its use.
_side = functools.cache(SideData)
_e1_side = functools.partial(_side, ContractionType.E1)


def _side_terms(kx3: int, left: SideData, right: SideData) -> SideTerms:
    return side_terms(kx3, side_term(kx3, left), side_term(kx3, right))


def record(family: str, values: tuple[int, ...]) -> LinkCandidate:
    """Unaudited candidate of one family's tuple, in its explain_fields order.

    That is (kx3, r, d, g, r+, d+, g+) on E1-E1, (kx3, r, d, g, alpha+,
    beta+) on E1-point and (kx3, alpha) on the symmetric families: the
    tuple ``explain`` takes and the full, E1-E1 pair-fast and domain trace
    events carry.  The side types come from the family's spec.
    """
    left_type, right_type = family_spec(family).types
    if left_type is not ContractionType.E1:
        kx3, alpha = values
        side = _side(left_type)
        return derive(_side_terms(kx3, side, side), *symmetric_pairs(alpha))
    kx3, r, d, g, *plus = values
    left = _side(left_type, r, d, g)
    if right_type is not ContractionType.E1:
        return derive(_side_terms(kx3, left, _side(right_type)), *star_pairs(*plus))
    pairs = e1e1_pairs(kx3, r, plus[0], sigma(r, d, g), sigma(*plus))
    return derive(_side_terms(kx3, left, _side(right_type, *plus)), *pairs)


def build_candidate(candidate: LinkCandidate) -> LinkCandidate:
    """A candidate to keep or show, returned unchanged once its family and magnitudes hold.

    Raises ValueError when its side types form no family, and
    RationalOverflowError when a value, reduced, leaves the 64-bit
    contract.  The values are audited in this order: kx3, the excesses,
    the target degrees, the cubes, the defects, the left and the right
    side's (r, d, g), and the coefficients.  Reducing only shrinks a
    value, so one stored (as an int or numerator and denominator) inside
    the range, with a positive denominator, passes as it is; only any
    other is reduced and audited as a Fraction, so the same rows raise,
    on the same first value, with the same message.
    """
    c = candidate
    c.family
    left, right, ky3_left, ky3_right = c.left, c.right, c.kY3_left, c.kY3_right
    (a, b, den), (ap, bp, den_p) = c.pair, c.pair_plus
    sides = (left.r, left.d, left.g, right.r, right.d, right.g)  # None on a point side
    for num, denom in (
        (c.kx3, 1), (c.sigma_left, 1), (c.sigma_right, 1),
        (ky3_left.numerator, ky3_left.denominator), (ky3_right.numerator, ky3_right.denominator),
        c.etilde3_left, c.etilde3_right, c.defect_left, c.defect_right,
        *((value, 1) for value in sides if value is not None),
        (a, den), (b, den), (ap, den_p), (bp, den_p),
    ):
        if not (-INT64_LIMIT <= num < INT64_LIMIT and 0 < denom < INT64_LIMIT):
            audit_magnitude(Fraction(num, denom))
    return candidate


# ---------------------------------------------------------------------------
# Canonical ordering, orientation and admission


def _fields_getter(columns: tuple[str, ...]) -> Callable[[LinkCandidate], tuple]:
    """A getter of the candidate fields behind these cell columns (CELL_FIELDS), as one tuple."""
    get = operator.attrgetter(*(CELL_FIELDS[column] for column in columns))
    return get if len(columns) > 1 else lambda candidate: (get(candidate),)


_SORT_KEYS = {family: _fields_getter(spec.sort_columns) for family, spec in FAMILIES.items()}


def canonical_sort_key(candidate: LinkCandidate) -> tuple:
    """Total order within a family, matching the golden tables' layout: its sort columns' values.

    They are read from the candidate's fields (CELL_FIELDS), not from cells().
    """
    return _SORT_KEYS[candidate.family](candidate)


def orientation_canonical(left_data: tuple[int, int, int], right_data: tuple[int, int, int]) -> bool:
    """Deduplication rule for E1-E1: keep the mirror with the larger side first.

    Larger means greater index, or with equal indices a lexicographically
    greater-or-equal (degree, genus) pair, so a pair and its mirror are
    enumerated exactly once and self-mirrors survive.
    """
    r, d, g = left_data
    rp, dp, gp = right_data
    if r != rp:
        return r > rp
    return (d, g) >= (dp, gp)


def mirror_candidate(c: LinkCandidate) -> LinkCandidate:
    """The same link read from the opposite end.

    Defined on E1-E1 and symmetric candidates; an E1-point candidate raises
    ValueError, since no family has a point type on the left.
    """
    return build_candidate(derive(_side_terms(c.kx3, c.right, c.left), c.pair_plus, c.pair))


def _admit(
    candidate: LinkCandidate,
    checks: frozenset[str],
    trace: TraceFn | None,
    data: tuple,
    results: list[LinkCandidate],
) -> None:
    """Run the checks on a candidate: keep an admitted one, trace a rejected one.

    Without a trace hook the checks short-circuit, so run_checks returns no
    report exactly when every check passes; with one, every check runs and
    the hook hears the names of the failing ones.  Only an admitted
    candidate is held to the 64-bit contract (build_candidate).
    """
    if trace is None:
        failed = run_checks(candidate, checks, True)
    elif failed := tuple(r.name for r in run_checks(candidate, checks) if not r.passed):
        trace("full", data, failed)
    if not failed:
        results.append(build_candidate(candidate))


@functools.cache
def _in_registry_order(names: frozenset[str]) -> tuple[str, ...]:
    """The check names in registry order, once per set of names."""
    return tuple(name for name in REGISTRY if name in names)


def _decide(
    sides: SideTerms,
    pairs: tuple,
    kernel: tuple,
    trace: TraceFn | None,
    data: tuple,
    results: list[LinkCandidate],
    known: frozenset[str] = frozenset(),
) -> None:
    """Decide one tuple of an E1 walk on its record: keep it, or trace or skip it.

    The tuple's record is derived once (formulas.derive).  The kernel is
    checks.kernel_plan's (name, passes) pairs over the walk's kernel
    (E1E1_KERNEL, E1STAR_KERNEL): every other enabled check its pairs do
    not pass by construction.  An untraced run skips the tuple at the
    first check that fails, in the kernel's order.  known holds the checks
    the walk decided the tuple fails before (traced runs only: an untraced
    walk skips such a tuple); a traced run names its failures, decided
    before or in the kernel, in registry order.  Only a kept record is
    audited (build_candidate).
    """
    candidate = derive(sides, *pairs)
    if trace is None:
        for _, passes in kernel:
            if not passes(candidate):
                return
    elif (failed := [name for name, passes in kernel if not passes(candidate)]) or known:
        trace("full", data, _in_registry_order(known.union(failed)))
        return
    results.append(build_candidate(candidate))


# ---------------------------------------------------------------------------
# E1-E1 enumeration


# Every (d, g) of an index-r side, in the side lists' loop order.
_SIDE_GRID: dict[int, tuple[tuple[int, int], ...]] = {
    r: tuple((d, g) for d in range(1, D_MAX + 1) for g in range(G_MAX[r] + 1)) for r in G_MAX
}


def _degree_ok(kx3: int, side: SideData) -> bool:
    """The FANO_DEGREE checks' own call on one side at central degree kx3."""
    index = side.target_index
    return index is None or is_valid_fano_degree(index, ky3_from_kx3(kx3, side))


# A kept E1 side at one kx3: (d, g, sigma, genus form, side term).
E1Side = tuple[int, int, int, int, SideTerm]


# An E1 side list: its kept sides, one verdict byte per _SIDE_GRID[r] cell,
# the kept sides by genus form, and the kept cells (_SIDE_GRID's own tuples)
# with one verdict byte 1 each, which the E1-E1 join's pair-fast blocks take.
E1SideList = tuple[tuple[E1Side, ...], bytes, dict[int, tuple[E1Side, ...]], tuple, bytes]


@functools.cache
def _pruned_sides(kx3: int, r: int, sigma_pos: bool, degree: bool) -> E1SideList:
    """The side list of one index (E1SideList): its kept sides and why the others were pruned.

    sigma_pos prunes excesses below E1_SIGMA_MIN; degree prunes sides whose
    target degree is not a Fano degree of index r.  The verdicts are 0 kept,
    1 SIGMA_POS, 2 degree (a byte, not a tuple, per prune keeps the cache
    small).  The genus forms are the E1-E1 join's index, in list order.  The
    arguments carry only what decides a prune, so both sides and any check
    sets share at most four entries per (kx3, r).
    """
    sides, verdicts, by_form = [], bytearray(), {}
    for d, g in _SIDE_GRID[r]:
        sig = sigma(r, d, g)
        if sigma_pos and sig < E1_SIGMA_MIN:
            verdicts.append(1)
        elif degree and not _degree_ok(kx3, _e1_side(r, d, g)):
            verdicts.append(2)
        else:
            verdicts.append(0)
            side = (d, g, sig, genus_form(kx3, sig, g), side_term(kx3, _e1_side(r, d, g)))
            sides.append(side)
            by_form.setdefault(side[3], []).append(side)
    cells = tuple(cell for cell, verdict in zip(_SIDE_GRID[r], verdicts) if not verdict)
    by_form = {form: tuple(group) for form, group in by_form.items()}
    return tuple(sides), bytes(verdicts), by_form, cells, b"\x01" * len(cells)


def _e1_side_list(
    kx3: int, r: int, enabled: frozenset[str], role: str, trace: TraceFn | None = None
) -> E1SideList:
    """The side list (E1SideList) of one index on the "left" or "right" side.

    Pruning here is an optimization only: a side is dropped exactly when
    SIGMA_POS or the role's FANO_DEGREE check, if enabled, would reject
    every pair containing it.  The lists are built once per process
    (_pruned_sides); with tracing on, each call reports every pruned side
    once (not once per pair), in loop order, at stage side-<role>, as one
    block over _SIDE_GRID[r] (_block).
    """
    degree_check = f"FANO_DEGREE_{role.upper()}"
    pruned = _pruned_sides(kx3, r, "SIGMA_POS" in enabled, degree_check in enabled)
    if trace is not None:
        failed, grid = ((), ("SIGMA_POS",), (degree_check,)), _SIDE_GRID[r]
        _block(trace, f"side-{role}", (kx3, r), grid, pruned[1], failed, 0, len(grid))
    return pruned


def _block(trace: TraceFn, stage: str, data: tuple, cells, verdicts, failed, start, stop) -> None:
    """One block of events (TraceFn): a call of the hook's block method, else one call per event."""
    if not hasattr(trace, "block"):
        for cell, verdict in zip(cells[start:stop], verdicts[start:stop]):
            if verdict:
                trace(stage, (*data, *cell), failed[verdict])
    elif start < stop:
        trace.block(stage, data, cells, verdicts, failed, start, stop)


def _hodge_join(left: tuple[E1Side, ...], right: tuple[E1Side, ...]) -> tuple[dict, dict]:
    """HODGE's value (checks._hodge_value) of each (d, g) in the lists, and the right sides by it.

    A side in both lists is looked up once per call, which reads the
    catalog afresh; the groups keep list order, and hold no side without a value.
    """
    terms = {(d, g): term for sides in (left, right) for d, g, _, _, term in sides}
    values = {dg: _hodge_value(side, ky3) for dg, (side, _, ky3) in terms.items()}
    groups: dict[int, list[E1Side]] = {}
    for side in right:
        if (value := values[side[:2]]) is not None:
            groups.setdefault(value, []).append(side)
    return values, groups


# The checks the E1-E1 walk decides on each pair's record (_decide), the
# cube checks first; enumerate_e1e1 says why it needs no other.
E1E1_KERNEL: tuple[str, ...] = (
    "ETILDE_INTEGRAL", "DEFECT_POSITIVE", "DEFECT_DIVISIBLE",
    "COEFF_RELATIONS", "GCD_LEFT", "GCD_RIGHT", "HODGE", "HYPERELLIPTIC_SYM",
)


def enumerate_e1e1(
    enabled: frozenset[str] = DEFAULT_CHECKS,
    trace: TraceFn | None = None,
) -> tuple[LinkCandidate, ...]:
    """All admissible E1-E1 candidates in canonical order.

    The loop runs over (kx3, r, d, g, rp, dp, gp) restricted to the
    canonical orientation (rp <= r); coefficients come from the closed
    form.  Every left side list is fetched (and its prunes traced) first,
    then every right one, each once per (kx3, index).

    DIOPHANTINE holds exactly when r^2 * Q_plus == rp^2 * Q for the sides'
    genus forms (formulas.genus_form).  A left side therefore looks up its
    partners by Q_plus = rp^2 * Q / r^2, and has none unless that division
    is exact; a trace hook hears the right sides before each partner, and
    after the last up to the canonical limit, as one pair-fast block each
    over the right list's kept cells (_block).  Without DIOPHANTINE but
    with HODGE, an untraced left side looks up its partners by HODGE's own
    per-side value instead (_hodge_join, once per (kx3, r, d, g) and run,
    whichever role the side plays): the check passes exactly when the two
    values are equal.
    Any other run walks each right side; only the iterable differs.
    The genus-form test decides DIOPHANTINE, the side lists SIGMA_POS and
    the FANO_DEGREE checks, and kx3 runs over KX3_VALUES (KX3_RANGE).  The
    closed-form pairs pass COEFF_INTEGRALITY, ALPHA_PLUS_BOUND and
    BETA_PLUS_RANGE, as any two E1 sides do, and every closure relation.
    They are alpha = n/(r*kx3) and alpha_plus = n/(rp*kx3), n = sigma*rp +
    r*sigma_plus: with SIGMA_POS both excesses are positive, so is alpha,
    and the pairs pass COEFF_RELATIONS too, which the kernel then leaves out.
    The kernel (E1E1_KERNEL, _decide) decides the rest on the pair's record;
    HODGE is in it, so a wrong Hodge join could only drop rows.  Both sides'
    basis decompositions have the lead coefficient n/kx3: with GCD_LEFT or
    GCD_RIGHT enabled, an untraced run skips a pair whose n is not a
    multiple of kx3, which fails both; the kernel decides both on the rest.
    """
    indices = [(kx3, r) for kx3 in KX3_VALUES for r in range(1, 5)]
    left = {key: _e1_side_list(*key, enabled, "left", trace)[0] for key in indices}
    right = {key: _e1_side_list(*key, enabled, "right", trace) for key in indices}
    fast = "DIOPHANTINE" in enabled
    by_hodge = trace is None and not fast and "HODGE" in enabled
    hodge = {key: _hodge_join(left[key], right[key][0]) for key in indices if by_hodge}
    primitive = trace is None and ("GCD_LEFT" in enabled or "GCD_RIGHT" in enabled)
    blocks = trace is not None and fast
    diophantine = ((), ("DIOPHANTINE",))  # what a pair-fast block's verdict 1 names
    built = {"COEFF_RELATIONS"} if "SIGMA_POS" in enabled else set()  # see above
    kernel = kernel_plan(E1E1_KERNEL, frozenset(enabled) - built)
    results: list[LinkCandidate] = []
    for kx3, r in indices:
        for rp in range(1, r + 1):
            right_sides, _, right_by_form, cells, ones = right[(kx3, rp)]
            for d, g, sig, form, left_term in left[(kx3, r)]:
                if fast:
                    wanted, rem = divmod(rp * rp * form, r * r)
                    partners = () if rem else right_by_form.get(wanted, ())
                elif by_hodge:
                    partners = hodge[kx3, rp][1].get(hodge[kx3, r][0][d, g], ())
                else:
                    partners = right_sides
                if blocks:
                    data, start = (kx3, r, d, g, rp), 0
                    stop = bisect.bisect_right(cells, (d, g)) if r == rp else len(cells)
                for dp, gp, sig_p, _, right_term in partners:
                    if r == rp and (d, g) < (dp, gp):
                        continue
                    if blocks:
                        at = bisect.bisect_left(cells, (dp, gp))
                        _block(trace, "pair-fast", data, cells, ones, diophantine, start, at)
                        start = at + 1
                    pairs = e1e1_pairs(kx3, r, rp, sig, sig_p)
                    if primitive and pairs[0][0] % kx3:
                        continue  # both GCD checks fail: each lead coefficient is n/kx3
                    sides = side_terms(kx3, left_term, right_term)
                    _decide(sides, pairs, kernel, trace, (kx3, r, d, g, rp, dp, gp), results)
                if blocks:
                    _block(trace, "pair-fast", data, cells, ones, diophantine, start, stop)
    return tuple(sorted(results, key=canonical_sort_key))


# ---------------------------------------------------------------------------
# E1-point enumeration


@functools.cache
def _gcd_left_alpha_pluses(r: int, beta_plus: int) -> frozenset[int]:
    """The alpha_plus in 1..MAX_ALPHA_PLUS whose star pair passes GCD_LEFT on an index-r side.

    The check's own call (checks._primitive) reads only the side's index
    and the pair, so the set is fixed per (r, beta_plus); it reads no
    catalog data, so it is built once per process.
    """
    side = _e1_side(r, 1, 0)
    return frozenset(
        ap for ap in range(1, MAX_ALPHA_PLUS + 1) if _primitive(side, star_pairs(ap, beta_plus)[0])
    )


# The checks the E1-point walk decides on each tuple's record (_decide), the
# cube checks first; enumerate_e1estar says why it needs no other.
E1STAR_KERNEL: tuple[str, ...] = (
    "ETILDE_INTEGRAL", "DEFECT_POSITIVE", "DEFECT_DIVISIBLE", "DIOPHANTINE"
)


def enumerate_e1estar(
    star: ContractionType,
    enabled: frozenset[str] = DEFAULT_CHECKS,
    trace: TraceFn | None = None,
) -> tuple[LinkCandidate, ...]:
    """All admissible candidates pairing an E1 side with one point type.

    The search box is (kx3, r, d, g) x (alpha_plus in 1..86) x
    (beta_plus in -r..-1) with integer point-side coefficients.  When the
    residual check is enabled, the linear excess relation pins alpha_plus
    for each (box, beta_plus), so the alpha_plus loop collapses to a
    membership test; with the check disabled the box is scanned literally.
    The side lists decide the E1 side's checks, and kx3 runs over
    KX3_VALUES (KX3_RANGE).  The star pairs inside the box pass by
    construction COEFF_RELATIONS (every closure relation holds, with nonzero
    coefficients), COEFF_INTEGRALITY (the point side's pair is over 1),
    ALPHA_PLUS_BOUND and BETA_PLUS_RANGE (the box's own bounds), and
    GCD_RIGHT, which a point side passes.

    Four more checks read less than a record on this walk, so it decides
    each once, with the check's own calls, before the kernel: per kx3
    FANO_DEGREE_RIGHT, since the point side is fixed, and HYPERELLIPTIC_SYM,
    which fails at kx3 = 2 since an E1 side never equals a point side; per
    left side HODGE, which on a smooth point target (E2) asks that the
    side's value (_hodge_value) equal the point side's; per (r, beta_plus,
    alpha_plus) GCD_LEFT, which reads the left index and the pair
    (_gcd_left_alpha_pluses).  An untraced run skips whatever a decision
    fails.  The kernel (E1STAR_KERNEL, _decide) decides the rest on the
    tuple's record, so a run audits only the tuples it admits; a traced run
    names every tuple's failures, decided or not, in registry order.
    """
    c = star_sigma(star)  # raises ValueError for an E1 star
    right = _side(star)
    enabled = frozenset(enabled)
    fast = "DIOPHANTINE" in enabled
    gcd_left = "GCD_LEFT" in enabled
    hodge = "HODGE" in enabled and right.target_index is not None
    kernel = kernel_plan(E1STAR_KERNEL, enabled)
    results: list[LinkCandidate] = []
    for kx3 in KX3_VALUES:
        right_term = side_term(kx3, right)
        fails = {"FANO_DEGREE_RIGHT": not _degree_ok(kx3, right), "HYPERELLIPTIC_SYM": kx3 == 2}
        at_kx3 = enabled.intersection(name for name, fail in fails.items() if fail)
        if at_kx3 and trace is None:
            continue
        hodge_value = _hodge_value(right, right_term[2]) if hodge else None
        for r in range(1, 5):
            for d, g, sig, _, left_term in _e1_side_list(kx3, r, enabled, "left", trace)[0]:
                at_side = at_kx3
                left, _, ky3_left = left_term
                if hodge and (hodge_value is None or _hodge_value(left, ky3_left) != hodge_value):
                    if trace is None:
                        continue
                    at_side |= {"HODGE"}
                sides = None
                for bp in range(-r, 0):
                    if fast:
                        # res4 = ap*kx3 + bp*c - sig vanishes for exactly one
                        # rational ap; keep it when it is an integer in range.
                        ap, rem = divmod(sig - bp * c, kx3)
                        if rem != 0 or not 1 <= ap <= MAX_ALPHA_PLUS:
                            if trace is not None:
                                trace("pair-fast", (kx3, r, d, g, bp), ("DIOPHANTINE",))
                            continue
                        alpha_pluses = (ap,)
                    else:
                        alpha_pluses = range(1, MAX_ALPHA_PLUS + 1)
                    primitive = _gcd_left_alpha_pluses(r, bp) if gcd_left else None
                    for ap in alpha_pluses:
                        known = at_side
                        if gcd_left and ap not in primitive:
                            if trace is None:
                                continue
                            known |= {"GCD_LEFT"}
                        if sides is None:
                            sides = side_terms(kx3, left_term, right_term)
                        pairs, data = star_pairs(ap, bp), (kx3, r, d, g, ap, bp)
                        _decide(sides, pairs, kernel, trace, data, results, known)
    return tuple(sorted(results, key=canonical_sort_key))


# ---------------------------------------------------------------------------
# Symmetric point-type enumeration


def enumerate_symmetric(
    star: ContractionType,
    enabled: frozenset[str] = DEFAULT_CHECKS,
    trace: TraceFn | None = None,
) -> tuple[LinkCandidate, ...]:
    """All admissible symmetric candidates for one point type.

    alpha runs over the positive divisors of twice the point-side constant;
    with KX3_RANGE enabled the central degree 2c/alpha must lie in the
    central-degree domain, and every enabled check decides admission on the
    record (_admit).
    """
    two_c = 2 * star_sigma(star)  # raises ValueError for an E1 star
    family = family_id(star, star)
    enabled = frozenset(enabled)
    results: list[LinkCandidate] = []
    for alpha in range(1, two_c + 1):
        if two_c % alpha != 0:
            continue
        kx3 = two_c // alpha
        if kx3 not in KX3_VALUES and "KX3_RANGE" in enabled:
            if trace is not None:
                trace("domain", (kx3, alpha), ("KX3_RANGE",))
            continue
        _admit(record(family, (kx3, alpha)), enabled, trace, (kx3, alpha), results)
    return tuple(sorted(results, key=canonical_sort_key))


# ---------------------------------------------------------------------------
# Family dispatch


def enumerate_family(
    family: str,
    enabled: frozenset[str] = DEFAULT_CHECKS,
    trace: TraceFn | None = None,
) -> tuple[LinkCandidate, ...]:
    """All admissible candidates of one family, in canonical order."""
    left, right = family_spec(family).types
    if left is not ContractionType.E1:
        return enumerate_symmetric(left, enabled, trace=trace)
    if right is ContractionType.E1:
        return enumerate_e1e1(enabled, trace=trace)
    return enumerate_e1estar(right, enabled, trace=trace)


# ---------------------------------------------------------------------------
# Brute-force oracle


@functools.cache
def _oracle_left_sides() -> tuple[tuple[int, int, int, int, int], ...]:
    """(kx3, r, d, g, sigma) of each E1 left side the E1 oracles scan; see the module doc."""
    return tuple(
        (kx3, r, d, g, sig)
        for kx3 in KX3_VALUES
        for r in range(1, 5)
        for d, g in _SIDE_GRID[r]
        if (sig := sigma(r, d, g)) >= E1_SIGMA_MIN and _degree_ok(kx3, _e1_side(r, d, g))
    )


def _excess_class(kx3: int, r: int, sig: int, rp: int, q: int, lo: int, hi: int) -> range:
    """The p in [lo, hi] at which the E1-E1 oracle's right excess is integral.

    That excess, rp*(p*kx3 - q*sig)/(r*q), is linear in p, so those p form
    one residue class modulo r*q / gcd(r*q, rp*kx3), whose first member
    lies in the first window of that length.
    """
    den = r * q
    step = den // math.gcd(den, rp * kx3)
    for first in range(lo, lo + step):
        if rp * (first * kx3 - q * sig) % den == 0:
            return range(first, hi + 1, step)
    return range(0)


def _oracle_e1e1() -> tuple[LinkCandidate, ...]:
    """Independent E1-E1 route: explicit rational scan of the coefficient.

    For each left side and right index, alpha_plus runs over reduced
    fractions p/q (q <= 4, p bounded); the right genus is solved from the
    genus relation and the right degree from the excess relation, instead
    of deriving the coefficient from the two excesses in closed form.  The
    left sides are the oracle's own per-process list, and p walks only the
    class where the right excess is integral (_excess_class), which it
    still tests, up to the genus cap; the module doc says why these bounds
    keep the route independent.
    """
    results: list[LinkCandidate] = []
    for kx3, r, d, g, sig in _oracle_left_sides():
        for rp in range(1, r + 1):  # rp > r fails orientation_canonical
            sig_p_cap = sigma(rp, D_MAX, 0)  # the largest excess on the grid
            rp2, gp_max = rp * rp, G_MAX[rp]
            for q in range(1, 5):
                # p window: positive right excess up to its cap.
                p_lo = (q * sig) // kx3 + 1
                p_hi = (q * (sig * rp + r * sig_p_cap)) // (rp * kx3)
                den, two_q_sig, genus_q = r * r * q * q, 2 * q * sig, q * q * (2 * g - 2)
                for p in _excess_class(kx3, r, sig, rp, q, max(1, p_lo), p_hi):
                    if math.gcd(p, q) != 1:
                        continue
                    # Genus relation solved directly for the right genus.
                    two_gp_minus_2, rem = divmod(rp2 * (p * (p * kx3 - two_q_sig) + genus_q), den)
                    if two_gp_minus_2 > 2 * gp_max - 2:
                        break  # the numerator rises with p > q*sig/kx3: no later gp fits
                    if rem or two_gp_minus_2 % 2 != 0:
                        continue
                    gp = (two_gp_minus_2 + 2) // 2
                    if not 0 <= gp <= gp_max:
                        continue
                    # Excess relation gives the right-side excess.
                    sig_p, rem = divmod(rp * (p * kx3 - q * sig), r * q)
                    if rem:
                        continue
                    if not E1_SIGMA_MIN <= sig_p <= sig_p_cap:
                        continue  # below E1_SIGMA_MIN, SIGMA_POS rejects the right side
                    dp, rem = divmod(sig_p - 2 + 2 * gp, rp)
                    if rem or not 1 <= dp <= D_MAX:
                        continue
                    if not orientation_canonical((r, d, g), (rp, dp, gp)):
                        continue
                    if not _degree_ok(kx3, _e1_side(rp, dp, gp)):
                        continue  # FANO_DEGREE_RIGHT rejects the solved right side
                    candidate = record("e1e1", (kx3, r, d, g, rp, dp, gp))
                    ap_num, _, ap_den = candidate.pair_plus
                    if ap_num * q != p * ap_den:
                        continue  # the closed form's alpha_plus is not p/q
                    _admit(candidate, DEFAULT_CHECKS, None, (), results)
    return tuple(sorted(results, key=canonical_sort_key))


def _oracle_e1estar(family: str, star: ContractionType) -> tuple[LinkCandidate, ...]:
    """Independent E1-point route: quadratic relation as the generator.

    alpha_plus is scanned over the integer box, up to where the relation's
    left side passes its target for good, and kept when the
    quadratic consistency relation vanishes (the primary route instead
    pins it through the linear excess relation); survivors still face the
    full check suite.
    """
    c = star_sigma(star)
    right = _side(star)
    results: list[LinkCandidate] = []
    for kx3, r, d, g, _ in _oracle_left_sides():
        if not _degree_ok(kx3, right):
            continue  # FANO_DEGREE_RIGHT rejects every tuple at this kx3
        two_minus_2g = 2 - 2 * g
        for bp in range(-r, 0):
            # res3 = 0 rearranged: ap*(ap*kx3 + 2*bp*c) = 2*bp^2 - (2-2g).
            rhs = 2 * bp * bp - two_minus_2g
            for ap in range(1, MAX_ALPHA_PLUS + 1):
                lhs = ap * (ap * kx3 + 2 * bp * c)
                if lhs != rhs:
                    if lhs > rhs and ap * kx3 + bp * c > 0:
                        break  # past the vertex lhs only rises: no later ap gives rhs
                    continue
                candidate = record(family, (kx3, r, d, g, ap, bp))
                _admit(candidate, DEFAULT_CHECKS, None, (), results)
    return tuple(sorted(results, key=canonical_sort_key))


def _oracle_symmetric(family: str, star: ContractionType) -> tuple[LinkCandidate, ...]:
    """Independent symmetric route: full grid scan of (degree, alpha)."""
    two_c = 2 * star_sigma(star)
    results: list[LinkCandidate] = []
    for kx3 in KX3_VALUES:
        for alpha in range(1, MAX_ALPHA_PLUS + 1):
            if alpha * kx3 != two_c:
                continue
            _admit(record(family, (kx3, alpha)), DEFAULT_CHECKS, None, (), results)
    return tuple(sorted(results, key=canonical_sort_key))


def brute_force_oracle(family: str) -> tuple[LinkCandidate, ...]:
    """Re-derive a family's candidate set along the independent route.

    Always runs the default check suite; the result must coincide with the
    primary enumerator's output exactly.
    """
    left, right = family_spec(family).types
    if left is not ContractionType.E1:
        return _oracle_symmetric(family, left)
    if right is ContractionType.E1:
        return _oracle_e1e1()
    return _oracle_e1estar(family, right)

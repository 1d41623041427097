"""Admission checks: registry contract, near-miss anchors, monotonicity."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fanolink.checks import (
    DEFAULT_CHECKS,
    E1_SIGMA_MIN,
    KX3_VALUES,
    MAX_ALPHA_PLUS,
    REGISTRY,
    SCOPE_FIELDS,
    admitted,
    kernel_plan,
    run_checks,
    validate_check_ids,
)
from fanolink.formulas import e1e1_pairs, star_pairs
from fanolink.search import D_MAX, G_MAX, record

from conftest import over_common_denominator

CANONICAL_ORDER = (
    "SIGMA_POS",
    "KX3_RANGE",
    "FANO_DEGREE_LEFT",
    "FANO_DEGREE_RIGHT",
    "DIOPHANTINE",
    "COEFF_RELATIONS",
    "ETILDE_INTEGRAL",
    "GCD_LEFT",
    "GCD_RIGHT",
    "COEFF_INTEGRALITY",
    "DEFECT_POSITIVE",
    "DEFECT_DIVISIBLE",
    "HODGE",
    "HYPERELLIPTIC_SYM",
    "ALPHA_PLUS_BOUND",
    "BETA_PLUS_RANGE",
)


def failing_names(candidate, enabled=DEFAULT_CHECKS):
    return [report.name for report in run_checks(candidate, enabled) if not report.passed]


class TestRegistry:
    def test_registry_is_closed_and_ordered(self):
        assert tuple(REGISTRY) == CANONICAL_ORDER
        assert len(REGISTRY) == 16

    def test_default_checks_cover_the_registry(self):
        assert DEFAULT_CHECKS == frozenset(REGISTRY)

    def test_every_entry_has_a_description(self):
        for name, check in REGISTRY.items():
            assert check.description
            assert callable(check.passes)
            assert callable(check.describe)

    def test_validate_check_ids_accepts_known_names(self):
        validate_check_ids(["HODGE", "SIGMA_POS"])
        validate_check_ids([])

    def test_validate_check_ids_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown check ids: BOGUS"):
            validate_check_ids(["BOGUS", "HODGE"])

    @pytest.mark.parametrize(
        "ids, message",
        [
            ({"HODGE", "NOT_A_CHECK"}, "unknown check ids: NOT_A_CHECK"),
            ({"HODGE", ""}, "empty check id; fanolink --list-checks prints the valid ids"),
        ],
    )
    def test_run_checks_raises_on_every_call_with_a_bad_id(self, ids, message):
        # run_checks builds one plan per enabled set and caches it; a set
        # that fails validation must raise again, not be remembered.
        candidate = record("e2e2", (8, 1))
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run_checks(candidate, frozenset(ids))
        assert [report.name for report in run_checks(candidate, frozenset({"HODGE"}))] == ["HODGE"]

    def test_exported_bounds(self):
        assert E1_SIGMA_MIN == 3
        assert MAX_ALPHA_PLUS == 86

    def test_every_check_declares_a_scope(self):
        for name, check in REGISTRY.items():
            assert check.scope.reads in SCOPE_FIELDS, name
            assert set(check.scope.built) <= {e1e1_pairs, star_pairs}, name
            for needs in check.scope.built.values():
                assert needs <= DEFAULT_CHECKS, name
        scoped = {name for name, check in REGISTRY.items() if check.scope.reads != "record"}
        assert scoped == {
            "SIGMA_POS", "KX3_RANGE", "FANO_DEGREE_LEFT", "FANO_DEGREE_RIGHT", "DIOPHANTINE",
            "COEFF_RELATIONS", "ETILDE_INTEGRAL", "GCD_LEFT", "GCD_RIGHT", "DEFECT_POSITIVE",
            "DEFECT_DIVISIBLE", "HODGE", "HYPERELLIPTIC_SYM",
        }
        # The kernel scopes (checks.kernel_plan), which E1 walks decide on a
        # tuple's record.
        kernel_scopes = {"cubes", "sides and pairs"}
        assert kernel_scopes <= set(SCOPE_FIELDS)
        kernel = {name for name, check in REGISTRY.items() if check.scope.reads in kernel_scopes}
        assert kernel == {
            "DIOPHANTINE", "COEFF_RELATIONS", "ETILDE_INTEGRAL", "GCD_LEFT", "GCD_RIGHT",
            "DEFECT_POSITIVE", "DEFECT_DIVISIBLE", "HODGE", "HYPERELLIPTIC_SYM",
        }

    @pytest.mark.parametrize("ids", [{"HODGE", "NOT_A_CHECK"}, {""}])
    def test_kernel_plan_raises_on_a_bad_id(self, ids):
        # Twice: the plan is cached per walk and enabled set, a failure never.
        for _ in range(2):
            with pytest.raises(ValueError):
                kernel_plan(e1e1_pairs, frozenset(ids))


class TestRunChecks:
    def test_reports_follow_registry_order(self):
        candidate = record("e1e1", (2, 1, 1, 0, 1, 1, 0))
        reports = run_checks(candidate)
        assert tuple(report.name for report in reports) == CANONICAL_ORDER
        assert admitted(reports)

    def test_enabled_subset_runs_only_those(self):
        candidate = record("e1e1", (2, 1, 1, 0, 1, 1, 0))
        subset = frozenset({"HODGE", "SIGMA_POS"})
        reports = run_checks(candidate, subset)
        assert tuple(report.name for report in reports) == ("SIGMA_POS", "HODGE")

    def test_short_circuit_stops_at_first_failure(self):
        candidate = record("e1e1", (2, 1, 2, 1, 1, 2, 1))  # fails SIGMA_POS
        reports = run_checks(candidate, short_circuit=True)
        assert len(reports) == 1
        assert reports[0].name == "SIGMA_POS"
        assert not reports[0].passed

    def test_short_circuit_never_changes_the_verdict(self):
        candidates = [
            record("e1e1", (2, 1, 1, 0, 1, 1, 0)),
            record("e1e1", (2, 1, 2, 1, 1, 2, 1)),
            record("e1e1", (2, 1, 8, 0, 1, 8, 0)),
            record("e1e2", (4, 2, 12, 7, 5, -2)),
            record("e1e2", (4, 2, 12, 7, 5, -1)),
            record("e5e5", (2, 1)),
        ]
        for candidate in candidates:
            full = admitted(run_checks(candidate, short_circuit=False))
            fast = admitted(run_checks(candidate, short_circuit=True))
            assert full == fast

    def test_run_checks_is_deterministic(self):
        candidate = record("e1e1", (4, 3, 9, 3, 1, 5, 0))
        assert run_checks(candidate) == run_checks(candidate)

    def test_rejects_unknown_check_id(self):
        candidate = record("e2e2", (8, 1))
        with pytest.raises(ValueError, match="unknown check ids"):
            run_checks(candidate, frozenset({"NOPE"}))

    def test_reports_never_throw_on_pathological_candidates(self):
        # Degrees outside the catalog, non-integral cubes, wrong coefficient
        # systems: every check must report, not raise.
        pathological = [
            record("e1e1", (2, 1, 8, 0, 1, 8, 0)),  # target degree 20 not in catalog
            record("e1e1", (2, 1, 1, 0, 3, 1, 0)),  # non-integral transform cube
            record("e1e1", (24, 1, 1, 0, 1, 1, 0)),  # central degree out of range
            record("e1e2", (4, 2, 12, 7, 7, -3)),
            record("e3e3", (2, 3)),
        ]
        for candidate in pathological:
            reports = run_checks(candidate)
            assert not admitted(reports)


class TestNearMissAnchors:
    def test_sigma_floor_rejects_low_excess_curve_side(self):
        """The one candidate that every other check admits.

        With the excess floor at 1 instead of 3 this body would slip
        through as a phantom 112th curve-curve row; it must fail exactly
        the excess check and nothing else.
        """
        candidate = record("e1e1", (2, 1, 2, 1, 1, 2, 1))
        assert failing_names(candidate) == ["SIGMA_POS"]

    def test_sigma_floor_is_tight(self):
        # Excess exactly 3 passes the excess check (golden row 9 data).
        candidate = record("e1e1", (2, 1, 3, 1, 1, 3, 1))
        reports = {report.name: report.passed for report in run_checks(candidate)}
        assert reports["SIGMA_POS"]

    def test_point_side_zero_excess_fails_sigma_pos(self):
        # Every derived point side has its type's positive constant as its
        # excess; a hand-set excess of 0 must still fail the check.
        candidate = record("e2e2", (4, 2))._replace(sigma_left=0)
        assert "SIGMA_POS" in failing_names(candidate)

    def test_point_side_unit_excess_is_admissible(self):
        # The quadruple-point side has constant excess 1; the floor of 3
        # applies only to curve-blowup sides.
        candidate = record("e5e5", (2, 1))
        assert failing_names(candidate) == []

    def test_catalog_miss_fails_degree_and_hodge(self):
        candidate = record("e1e1", (2, 1, 8, 0, 1, 8, 0))  # both targets have degree 20
        assert failing_names(candidate) == ["FANO_DEGREE_LEFT", "FANO_DEGREE_RIGHT", "HODGE"]
        hodge = next(r for r in run_checks(candidate) if r.name == "HODGE")
        assert "Hodge lookup failed" in hodge.detail

    def test_hodge_passes_on_balanced_sides(self):
        candidate = record("e1e1", (2, 1, 1, 0, 1, 1, 0))
        hodge = next(r for r in run_checks(candidate) if r.name == "HODGE")
        assert hodge.passed

    def test_hodge_skips_singular_targets(self):
        candidate = record("e3e3", (4, 1))
        hodge = next(r for r in run_checks(candidate) if r.name == "HODGE")
        assert hodge.passed
        assert "not applicable" in hodge.detail

    def test_hyperelliptic_sym_rejects_asymmetric_degree_two(self):
        # Sole rejector: every other check admits this degree-2 body.
        candidate = record("e1e3", (2, 2, 4, 2, 5, -2))
        assert failing_names(candidate) == ["HYPERELLIPTIC_SYM"]

    def test_gcd_anchor_row_27(self):
        candidate = record("e1e1", (2, 2, 1, 0, 2, 1, 0))
        gcd_left = next(r for r in run_checks(candidate) if r.name == "GCD_LEFT")
        assert gcd_left.passed
        assert "(8, -5)" in gcd_left.detail

    def test_beta_plus_range_rejects_shallow_coefficient(self):
        # beta_plus must stay within -r..-1 for a curve side of index r.
        candidate = record("e1e2", (4, 1, 2, 0, 3, -2))
        assert "BETA_PLUS_RANGE" in failing_names(candidate)

    def test_alpha_plus_bound_rejects_oversized_coefficient(self):
        candidate = record("e1e2", (2, 4, 11, 1, 87, -4))
        assert "ALPHA_PLUS_BOUND" in failing_names(candidate)

    def test_defect_positive_rejects_negative_defect(self):
        # The minimal-degree body whose flop defect lands at exactly -1.
        candidate = record("e1e1", (2, 1, 1, 1, 1, 1, 1))
        assert candidate.defect_e == -1
        assert failing_names(candidate) == ["SIGMA_POS", "DEFECT_POSITIVE"]

    def test_kx3_range_rejects_odd_central_degree(self):
        failed = failing_names(record("e2e2", (1, 8)))
        assert "KX3_RANGE" in failed


class TestCheckReports:
    def test_report_carries_name_passed_detail(self):
        candidate = record("e1e1", (2, 1, 1, 0, 1, 1, 0))
        for report in run_checks(candidate):
            assert report.name in REGISTRY
            assert isinstance(report.passed, bool)
            assert isinstance(report.detail, str) and report.detail

    def test_sigma_report_detail_shows_both_sides(self):
        candidate = record("e1e1", (2, 1, 1, 0, 1, 1, 0))
        sigma_report = run_checks(candidate)[0]
        assert sigma_report.detail == "sigma=3, sigma_plus=3"


# A pool of candidates spanning admitted rows, near misses, and wrecks.
_POOL = (
    record("e1e1", (2, 1, 1, 0, 1, 1, 0)),
    record("e1e1", (2, 1, 2, 1, 1, 2, 1)),
    record("e1e1", (2, 1, 8, 0, 1, 8, 0)),
    record("e1e1", (2, 2, 1, 0, 2, 1, 0)),
    record("e1e1", (4, 3, 9, 3, 1, 5, 0)),
    record("e1e1", (4, 1, 7, 2, 1, 1, 0)),
    record("e1e1", (24, 1, 1, 0, 1, 1, 0)),
    record("e1e2", (4, 2, 12, 7, 5, -2)),
    record("e1e3", (4, 2, 6, 3, 3, -2)),
    record("e1e5", (4, 1, 3, 1, 1, -1)),
    record("e1e5", (10, 2, 3, 0, 1, -2)),
    record("e2e2", (4, 2)),
    record("e3e3", (2, 2)),
    record("e5e5", (2, 1)),
)


@given(
    st.sampled_from(_POOL),
    st.sets(st.sampled_from(CANONICAL_ORDER)).map(frozenset),
)
def test_admission_is_monotone_in_the_enabled_set(candidate, subset):
    """Fewer checks can only admit more: subset admission is implied."""
    if admitted(run_checks(candidate)):
        assert admitted(run_checks(candidate, subset))
    if not admitted(run_checks(candidate, subset)):
        assert not admitted(run_checks(candidate))


@given(st.sampled_from(_POOL), st.sets(st.sampled_from(CANONICAL_ORDER)).map(frozenset))
def test_subset_reports_agree_with_full_run(candidate, subset):
    """Each check's verdict is independent of which other checks run."""
    full = {report.name: (report.passed, report.detail) for report in run_checks(candidate)}
    for report in run_checks(candidate, subset):
        assert full[report.name] == (report.passed, report.detail)


# The verdicts that decide in integers on Fraction fields, against their
# predicates written out here in plain Fractions (no formulas call).
# Candidates come from the unpruned E1-E1 box, the E1-point scan box and
# the symmetric grid, where most fail; the first four examples pass every
# check.


def _coeff_relations_by_fractions(c):
    a, b, ap, bp = c.coeffs.alpha, c.coeffs.beta, c.coeffs.alpha_plus, c.coeffs.beta_plus
    closed = b * bp - 1 == 0 and a + b * ap == 0 and ap + bp * a == 0
    return closed and 0 not in (a, b, ap, bp)


def _diophantine_by_fractions(c):
    a, b, ap, bp = c.coeffs.alpha, c.coeffs.beta, c.coeffs.alpha_plus, c.coeffs.beta_plus
    kx3 = c.kx3
    if not c.left.is_e1:
        return a * kx3 - 2 * c.sigma_left == 0 and ap * kx3 - 2 * c.sigma_right == 0
    gl = 2 * c.left.g - 2
    if c.right.is_e1:
        gr = 2 * c.right.g - 2
        return (
            a * a * kx3 + 2 * a * b * c.sigma_left + b * b * gl - gr == 0
            and ap * ap * kx3 + 2 * ap * bp * c.sigma_right + bp * bp * gr - gl == 0
        )
    rd, sig, star_c = c.left.r * c.left.d, c.sigma_left, c.sigma_right
    return (
        -a * a * kx3 - 2 * a * b * rd - gl * (-2 * a * b + b * b) - 2 == 0
        and a * kx3 + b * sig - star_c == 0
        and -ap * ap * kx3 - 2 * ap * bp * star_c + 2 * bp * bp + gl == 0
        and ap * kx3 + bp * star_c - sig == 0
    )


def _primitive_by_fractions(alpha, beta, r):
    lead, diff = alpha * r, beta - alpha
    if lead.denominator != 1 or diff.denominator != 1:
        return False
    return math.gcd(lead.numerator, diff.numerator) == 1


def _defect_divisible_by_fractions(c):
    norm_left = Fraction(*c.defect_left) / (c.left.r**3 if c.left.is_e1 else 1)
    norm_right = Fraction(*c.defect_right) / (c.right.r**3 if c.right.is_e1 else 1)
    return norm_left.denominator == 1 and norm_right.denominator == 1 and norm_left == norm_right


def _beta_plus_range_by_fractions(c):
    co = c.coeffs
    if c.left.is_e1 and c.right.is_e1:
        return True
    if c.left.is_e1:
        return co.beta_plus.denominator == 1 and -c.left.r <= co.beta_plus <= -1
    return co.beta == -1 and co.beta_plus == -1 and co.alpha == co.alpha_plus


def _coeff_integrality_by_fractions(c):
    co = c.coeffs
    left = c.left.is_e1 or (co.alpha.denominator == 1 and co.beta.denominator == 1)
    right = c.right.is_e1 or (co.alpha_plus.denominator == 1 and co.beta_plus.denominator == 1)
    return left and right


BY_FRACTIONS = {
    "COEFF_RELATIONS": _coeff_relations_by_fractions,
    "DIOPHANTINE": _diophantine_by_fractions,
    "GCD_LEFT": lambda c: not c.left.is_e1
    or _primitive_by_fractions(c.coeffs.alpha, c.coeffs.beta, c.left.r),
    "GCD_RIGHT": lambda c: not c.right.is_e1
    or _primitive_by_fractions(c.coeffs.alpha_plus, c.coeffs.beta_plus, c.right.r),
    "DEFECT_POSITIVE": lambda c: all(
        e.denominator == 1 and e > 0 for e in (Fraction(*c.defect_left), Fraction(*c.defect_right))
    ),
    "DEFECT_DIVISIBLE": _defect_divisible_by_fractions,
    "COEFF_INTEGRALITY": _coeff_integrality_by_fractions,
    "ALPHA_PLUS_BOUND": lambda c: (c.left.is_e1 and c.right.is_e1)
    or 0 < c.coeffs.alpha_plus <= MAX_ALPHA_PLUS,
    "BETA_PLUS_RANGE": _beta_plus_range_by_fractions,
}

@st.composite
def _e1_side(draw, r=None):
    r = draw(st.integers(1, 4)) if r is None else r
    return r, draw(st.integers(1, D_MAX)), draw(st.integers(0, G_MAX[r]))


@st.composite
def _e1e1_box(draw):
    left = draw(_e1_side())
    right = draw(_e1_side(draw(st.integers(1, left[0]))))
    return record("e1e1", (draw(st.sampled_from(KX3_VALUES)), *left, *right))


@st.composite
def _e1estar_box(draw):
    left = draw(_e1_side())
    ap, bp = draw(st.integers(1, MAX_ALPHA_PLUS)), draw(st.integers(-left[0], -1))
    family = draw(st.sampled_from(("e1e2", "e1e3", "e1e5")))
    return record(family, (draw(st.sampled_from(KX3_VALUES)), *left, ap, bp))


_SYMMETRIC_GRID = st.builds(
    lambda family, alpha, kx3: record(family, (kx3, alpha)),
    st.sampled_from(("e2e2", "e3e3", "e5e5")),
    st.integers(1, MAX_ALPHA_PLUS),
    st.sampled_from(KX3_VALUES),
)
_BOXES = st.one_of(_e1e1_box(), _e1estar_box(), _SYMMETRIC_GRID)


def _with_coeff(candidate, field, value):
    """The candidate with one coefficient replaced; its cubes and defects stay as they were."""
    coeffs = {**candidate.coeffs._asdict(), field: value}
    return candidate._replace(
        pair=over_common_denominator(coeffs["alpha"], coeffs["beta"]),
        pair_plus=over_common_denominator(coeffs["alpha_plus"], coeffs["beta_plus"]),
    )


@st.composite
def _perturbed(draw):
    # One coefficient replaced, possibly by 0 or a fraction: the only way to
    # fail COEFF_RELATIONS, and fractional point-side coefficients.
    field = draw(st.sampled_from(("alpha", "beta", "alpha_plus", "beta_plus")))
    bound = 2 * MAX_ALPHA_PLUS
    value = draw(st.fractions(min_value=-bound, max_value=bound, max_denominator=6))
    return _with_coeff(draw(_BOXES), field, value)


@given(candidate=st.one_of(_BOXES, _perturbed()))
@example(candidate=record("e1e1", (2, 1, 1, 0, 1, 1, 0)))
@example(candidate=record("e1e1", (2, 2, 1, 0, 2, 1, 0)))
@example(candidate=record("e1e2", (4, 2, 12, 7, 5, -2)))
@example(candidate=record("e5e5", (2, 1)))
@example(candidate=record("e2e2", (8, 0)))  # closed, with zero alphas
@example(  # a fractional alpha_plus within the bound, its numerator beyond it
    candidate=_with_coeff(
        record("e1e2", (4, 2, 12, 7, 5, -2)), "alpha_plus", Fraction(171, 2)
    )
)
@example(  # a fractional beta_plus, its numerator within [-r, -1]
    candidate=_with_coeff(
        record("e1e2", (4, 2, 12, 7, 5, -2)), "beta_plus", Fraction(-1, 2)
    )
)
@example(  # non-integral defects whose numerators the index cubes divide alike
    candidate=record("e1e1", (2, 2, 1, 0, 1, 1, 0))._replace(
        defect_left=(8, 3), defect_right=(1, 3)
    )
)
def test_integer_verdicts_equal_the_fraction_predicates(candidate):
    for name, predicate in BY_FRACTIONS.items():
        assert REGISTRY[name].passes(candidate) == predicate(candidate), name


_SCOPED = [name for name, check in REGISTRY.items() if check.scope.reads != "record"]


@given(candidate=st.one_of(_BOXES, _perturbed()), other=st.one_of(_BOXES, _perturbed()))
@example(  # equal sides at kx3 = 2 against a record with a point side
    candidate=record("e1e1", (2, 1, 1, 0, 1, 1, 0)),
    other=record("e1e3", (2, 2, 4, 2, 5, -2)),
)
@example(  # a symmetric record against an E1-E1 one outside the catalog and the domain
    candidate=record("e2e2", (4, 2)),
    other=record("e1e1", (24, 1, 8, 0, 1, 1, 0)),
)
def test_a_verdict_reads_only_its_declared_scope(candidate, other):
    """Replacing any field a check's scope leaves out never changes its verdict."""
    for name in _SCOPED:
        check = REGISTRY[name]
        verdict = check.passes(candidate)
        for field in set(candidate._fields) - SCOPE_FIELDS[check.scope.reads]:
            varied = candidate._replace(**{field: getattr(other, field)})
            assert check.passes(varied) == verdict, (name, field)

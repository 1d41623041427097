"""Intersection-theoretic formulas: worked values and algebraic identities."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanolink import search as search_mod
from fanolink.checks import KX3_VALUES, MAX_ALPHA_PLUS
from fanolink.formulas import (
    basis_decomposition_numerators,
    closure_numerators,
    defect_numerators,
    e1e1_pairs,
    e1e1_residual_numerators,
    e1estar_residual_numerators,
    etilde_cube_numerators,
    ky3_from_kx3,
    sigma,
    star_pairs,
    star_sigma,
    symmetric_pairs,
)
from fanolink.model import (
    ContractionType,
    FlopCoefficients,
    IntersectionConstants,
    LinkCandidate,
    SideData,
    family_id,
    intersection_constants,
)
from fanolink.search import D_MAX, G_MAX

from conftest import over_common_denominator


def coefficients(pair, pair_plus):
    """A candidate's coeffs on two coefficient pairs; coeffs reads no other field."""
    return LinkCandidate(*(None,) * 7, pair, pair_plus, *(None,) * 4).coeffs


def coeffs_e1e1(kx3, r, r_plus, sigma_left, sigma_right):
    """The closed-form E1-E1 coefficient set: its two pairs divided out."""
    return coefficients(*e1e1_pairs(kx3, r, r_plus, sigma_left, sigma_right))


def coeffs_from_star_pair(alpha_plus, beta_plus):
    return coefficients(*star_pairs(alpha_plus, beta_plus))


def coeffs_symmetric(alpha):
    return coefficients(*symmetric_pairs(alpha))


def _closure(coeffs):
    """closure_numerators of a coefficient set's two pairs over their common denominators."""
    return closure_numerators(
        over_common_denominator(coeffs.alpha, coeffs.beta),
        over_common_denominator(coeffs.alpha_plus, coeffs.beta_plus),
    )


class TestSigma:
    def test_worked_values(self):
        assert sigma(1, 1, 0) == 3
        assert sigma(2, 12, 7) == 12
        assert sigma(4, 5, 0) == 22

    def test_star_sigma_constants(self):
        assert star_sigma(ContractionType.E2) == 4
        assert star_sigma(ContractionType.E34) == 2
        assert star_sigma(ContractionType.E5) == 1

    def test_star_sigma_rejects_e1(self):
        with pytest.raises(ValueError):
            star_sigma(ContractionType.E1)


class TestTargetDegree:
    def test_e1_target_degree(self):
        assert ky3_from_kx3(2, SideData(ContractionType.E1, 1, 1, 0)) == 6
        assert ky3_from_kx3(4, SideData(ContractionType.E1, 2, 12, 7)) == 40

    def test_point_type_offsets(self):
        assert ky3_from_kx3(4, SideData(ContractionType.E2)) == 12
        assert ky3_from_kx3(4, SideData(ContractionType.E34)) == 6
        assert ky3_from_kx3(4, SideData(ContractionType.E5)) == Fraction(9, 2)


class TestCoefficients:
    def test_beta_pair_from_indices(self):
        for r, r_plus, betas in (
            (3, 1, (Fraction(-1, 3), Fraction(-3))),
            (1, 1, (Fraction(-1), Fraction(-1))),
            (2, 4, (Fraction(-2), Fraction(-1, 2))),
        ):
            coeffs = coeffs_e1e1(2, r, r_plus, 3, 3)
            assert (coeffs.beta, coeffs.beta_plus) == betas

    def test_alpha_plus_closed_form(self):
        # alpha_plus * kx3 = sigma_left - beta_plus * sigma_right with
        # (sigma_left, sigma_right, beta_plus, kx3) = (3, 3, -1, 2).
        assert coeffs_e1e1(2, 1, 1, 3, 3).alpha_plus == 3

    def test_coeffs_e1e1_first_row(self):
        coeffs = coeffs_e1e1(2, 1, 1, 3, 3)
        assert (coeffs.alpha, coeffs.beta) == (3, -1)
        assert (coeffs.alpha_plus, coeffs.beta_plus) == (3, -1)
        assert _closure(coeffs) == (0, 0, 0)

    def test_coeffs_e1e1_mixed_indices(self):
        # Golden row 70: kx3=4, left (3,9,3), right (1,5,0).
        coeffs = coeffs_e1e1(4, 3, 1, sigma(3, 9, 3), sigma(1, 5, 0))
        assert coeffs.alpha == Fraction(11, 3)
        assert coeffs.beta == Fraction(-1, 3)
        assert coeffs.alpha_plus == 11
        assert coeffs.beta_plus == -3

    def test_coeffs_from_star_pair(self):
        coeffs = coeffs_from_star_pair(5, -2)
        assert coeffs.alpha == Fraction(5, 2)
        assert coeffs.beta == Fraction(-1, 2)
        assert coeffs.alpha_plus == 5
        assert coeffs.beta_plus == -2
        assert _closure(coeffs) == (0, 0, 0)

    def test_coeffs_from_star_pair_rejects_zero_beta(self):
        with pytest.raises(ValueError):
            coeffs_from_star_pair(5, 0)

    def test_coeffs_symmetric(self):
        coeffs = coeffs_symmetric(4)
        assert (coeffs.alpha, coeffs.beta) == (4, -1)
        assert (coeffs.alpha_plus, coeffs.beta_plus) == (4, -1)


def _e1e1_residuals(kx3, coeffs, g, sig, gp, sig_p):
    """e1e1_residual_numerators over their stated denominators den^2 and den_p^2."""
    left = over_common_denominator(coeffs.alpha, coeffs.beta)
    right = over_common_denominator(coeffs.alpha_plus, coeffs.beta_plus)
    numerators = e1e1_residual_numerators(kx3, left, right, g, sig, gp, sig_p)
    assert all(type(n) is int for n in numerators)
    return Fraction(numerators[0], left[2] ** 2), Fraction(numerators[1], right[2] ** 2)


def _e1estar_residuals(kx3, coeffs, r, d, g, star_c):
    """e1estar_residual_numerators over den^2, den, den_p^2 and den_p."""
    left = over_common_denominator(coeffs.alpha, coeffs.beta)
    right = over_common_denominator(coeffs.alpha_plus, coeffs.beta_plus)
    numerators = e1estar_residual_numerators(kx3, left, right, r, d, g, star_c)
    assert all(type(n) is int for n in numerators)
    den, den_p = left[2], right[2]
    return tuple(map(Fraction, numerators, (den * den, den, den_p * den_p, den_p)))


def _e1e1_fraction_residuals(kx3, coeffs, g, sig, gp, sig_p):
    """The E1-E1 genus residuals, written out in plain Fractions."""
    a, b = Fraction(coeffs.alpha), Fraction(coeffs.beta)
    ap, bp = Fraction(coeffs.alpha_plus), Fraction(coeffs.beta_plus)
    return (
        a * a * kx3 + 2 * a * b * sig + b * b * (2 * g - 2) - (2 * gp - 2),
        ap * ap * kx3 + 2 * ap * bp * sig_p + bp * bp * (2 * gp - 2) - (2 * g - 2),
    )


def _e1estar_fraction_residuals(kx3, coeffs, r, d, g, star_c):
    """The E1-point residual system, written out in plain Fractions."""
    a, b = Fraction(coeffs.alpha), Fraction(coeffs.beta)
    ap, bp = Fraction(coeffs.alpha_plus), Fraction(coeffs.beta_plus)
    sig = r * d + 2 - 2 * g
    return (
        a * a * (-kx3) - 2 * a * b * (r * d) + (2 - 2 * g) * (-2 * a * b + b * b) - 2,
        a * kx3 + b * sig - star_c,
        ap * ap * (-kx3) - 2 * ap * bp * star_c + 2 * bp * bp - (2 - 2 * g),
        ap * kx3 + bp * star_c - sig,
    )


class TestResiduals:
    def test_e1e1_residuals_vanish_on_golden_data(self):
        coeffs = coeffs_e1e1(2, 1, 1, 3, 3)
        assert _e1e1_residuals(2, coeffs, 0, 3, 0, 3) == (0, 0)

    def test_e1e1_residuals_detect_wrong_genus(self):
        coeffs = coeffs_e1e1(2, 1, 1, 3, 3)
        assert _e1e1_residuals(2, coeffs, 0, 3, 1, 3) == (-2, 2)

    def test_e1estar_residuals_vanish_on_golden_data(self):
        coeffs = coeffs_from_star_pair(5, -2)
        assert _e1estar_residuals(4, coeffs, 2, 12, 7, 4) == (0, 0, 0, 0)

    def test_e1estar_residuals_detect_wrong_constant(self):
        coeffs = coeffs_from_star_pair(5, -2)
        residuals = _e1estar_residuals(4, coeffs, 2, 12, 7, 2)
        assert any(res != 0 for res in residuals)


class TestTransformCube:
    def test_first_row_cube(self):
        constants = intersection_constants(SideData(ContractionType.E1, 1, 1, 0))
        assert etilde_cube_numerators((3, -1, 1), 2, constants) == (-46, 1)

    def test_point_side_cube(self):
        # e2e2 with alpha = 1 at kx3 = 8: cube against the E2 constants.
        constants = intersection_constants(SideData(ContractionType.E2))
        assert etilde_cube_numerators((1, -1, 1), 8, constants) == (-11, 1)

    def test_cube_against_explicit_constants(self):
        constants = IntersectionConstants(kx2E=2, kxE2=2, e3self=2)
        assert etilde_cube_numerators((2, -1, 1), 2, constants) == (-22, 1)

    def test_defect(self):
        assert defect_numerators(1, (-46, 1)) == (47, 1)
        assert defect_numerators(0, (-88, 1)) == (88, 1)
        assert defect_numerators(1, (-11, 1)) == (12, 1)
        assert defect_numerators(2, (-22, 1)) == (24, 1)

    def test_defect_keeps_fractions_exact(self):
        assert Fraction(*defect_numerators(4, (-1, 2))) == Fraction(9, 2)


class TestBasisDecomposition:
    def test_worked_values(self):
        # Golden row 70's left side: alpha = 11/3, beta = -1/3 at r = 3.
        # The numerators lie over the coefficients' common denominator: (11, -4) and (5, -3).
        assert basis_decomposition_numerators((11, -1, 3), 3) == (33, -12, 3)
        assert basis_decomposition_numerators((5, -1, 2), 2) == (10, -6, 2)


# ---------------------------------------------------------------------------
# Algebraic identities, checked over random inputs


_indices = st.integers(min_value=1, max_value=4)
_kx3 = st.sampled_from(tuple(range(2, 23, 2)))
_degrees = st.integers(min_value=1, max_value=19)
_genera = st.integers(min_value=0, max_value=39)


@given(_kx3, _indices, _indices, _degrees, _genera, _degrees, _genera)
def test_e1e1_closure_holds_identically(kx3, r, rp, d, g, dp, gp):
    """The closed-form coefficient set always satisfies the closure system."""
    coeffs = coeffs_e1e1(kx3, r, rp, sigma(r, d, g), sigma(rp, dp, gp))
    assert _closure(coeffs) == (0, 0, 0)


@given(_kx3, _indices, _indices, _degrees, _genera, _degrees, _genera)
def test_e1e1_residuals_are_antisymmetric(kx3, r, rp, d, g, dp, gp):
    """With closed-form coefficients the index-weighted residuals cancel.

    res1 and res2 are the same integer quantity divided by r^2*kx3 and
    rp^2*kx3 up to sign, so r^2*res1 + rp^2*res2 vanishes identically; it
    is this telescoping identity that lets the enumerator test a single
    scaled integer residual instead of two rational ones, and it makes one
    residual vanish exactly when the other does.
    """
    sig, sig_p = sigma(r, d, g), sigma(rp, dp, gp)
    coeffs = coeffs_e1e1(kx3, r, rp, sig, sig_p)
    res1, res2 = _e1e1_residuals(kx3, coeffs, g, sig, gp, sig_p)
    assert r * r * res1 + rp * rp * res2 == 0
    assert (res1 == 0) == (res2 == 0)


@given(_kx3, _indices, _degrees, _genera)
def test_e1e1_symmetric_residuals_vanish(kx3, r, d, g):
    """A side paired with itself always solves the genus system exactly."""
    sig = sigma(r, d, g)
    coeffs = coeffs_e1e1(kx3, r, r, sig, sig)
    assert _e1e1_residuals(kx3, coeffs, g, sig, g, sig) == (0, 0)


@given(_kx3, st.integers(min_value=1, max_value=86), st.integers(min_value=-4, max_value=-1))
def test_star_pair_closure_holds_identically(kx3, ap, bp):
    assert _closure(coeffs_from_star_pair(ap, bp)) == (0, 0, 0)


@given(
    _kx3,
    _indices,
    _degrees,
    _genera,
    st.integers(min_value=1, max_value=86),
    st.integers(min_value=-4, max_value=-1),
    st.sampled_from((4, 2, 1)),
)
def test_e1estar_numerators_on_the_star_pair_box(kx3, r, d, g, ap, bp, star_c):
    """The enumerator's integer pre-test sees the residuals' exact numerators.

    It feeds the star pair's coefficient pairs over their common
    denominators, (ap, -1, -bp) and (ap, bp, 1), without building them.
    """
    coeffs = coeffs_from_star_pair(ap, bp)
    assert over_common_denominator(coeffs.alpha, coeffs.beta) == (ap, -1, -bp)
    assert over_common_denominator(coeffs.alpha_plus, coeffs.beta_plus) == (ap, bp, 1)
    n1, n2, n3, n4 = e1estar_residual_numerators(kx3, (ap, -1, -bp), (ap, bp, 1), r, d, g, star_c)
    residuals = (Fraction(n1, bp * bp), Fraction(n2, -bp), n3, n4)
    assert residuals == _e1estar_fraction_residuals(kx3, coeffs, r, d, g, star_c)


# ---------------------------------------------------------------------------
# Each formula against its plain-Fraction expression, written out here.
# The formulas build one Fraction over a common denominator; these inputs
# reach denominators far beyond the search's 1..88 and mix in plain ints.

_wide_rationals = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**7),
)
_wide_ints = st.integers(min_value=-(10**6), max_value=10**6)
_nonzero_ints = _wide_ints.filter(bool)
_coefficient_sets = st.builds(
    FlopCoefficients, _wide_rationals, _wide_rationals, _wide_rationals, _wide_rationals
)
_constants = st.builds(IntersectionConstants, _wide_ints, _wide_ints, _wide_ints)


@given(_wide_rationals, _wide_rationals, _wide_ints, _constants)
def test_etilde_cube_numerators_match_the_fraction_expression(a, b, kx3, opposite):
    a_f, b_f = Fraction(a), Fraction(b)
    expected = (
        a_f * a_f * a_f * kx3
        + 3 * a_f * a_f * b_f * opposite.kx2E
        - 3 * a_f * b_f * b_f * opposite.kxE2
        + b_f * b_f * b_f * opposite.e3self
    )
    numerator, den = etilde_cube_numerators(over_common_denominator(a, b), kx3, opposite)
    assert type(numerator) is int and type(den) is int and den > 0
    assert Fraction(numerator, den) == expected


@given(_wide_ints, _wide_rationals)
def test_defect_numerators_match_the_fraction_expression(e3self, etilde3):
    numerator, den = defect_numerators(e3self, Fraction(etilde3).as_integer_ratio())
    assert type(numerator) is int and den > 0
    assert Fraction(numerator, den) == e3self - Fraction(etilde3)


@given(_wide_rationals, _wide_rationals, _wide_ints)
def test_basis_decomposition_matches_the_fraction_expression(alpha, beta, r):
    lead, diff, den = basis_decomposition_numerators(over_common_denominator(alpha, beta), r)
    assert type(lead) is int and type(diff) is int and den > 0
    assert (Fraction(lead, den), Fraction(diff, den)) == (
        Fraction(alpha) * r,
        Fraction(beta) - Fraction(alpha),
    )


@given(_nonzero_ints, _nonzero_ints, _nonzero_ints, _wide_ints, _wide_ints)
def test_coeffs_e1e1_matches_the_fraction_expression(kx3, r, rp, sig, sig_p):
    beta, beta_plus = Fraction(-rp, r), Fraction(-r, rp)
    alpha_plus = (sig - beta_plus * sig_p) / Fraction(kx3)
    alpha = -beta * alpha_plus
    coeffs = coeffs_e1e1(kx3, r, rp, sig, sig_p)
    assert coeffs == FlopCoefficients(alpha, beta, alpha_plus, beta_plus)
    # The CSV and JSON renderers print exactly these Fractions.
    assert all(type(value) is Fraction for value in coeffs)


@given(_wide_ints, _coefficient_sets, _wide_ints, _wide_ints, _wide_ints, _wide_ints)
def test_e1e1_residuals_match_the_fraction_expression(kx3, coeffs, g, sig, gp, sig_p):
    expected = _e1e1_fraction_residuals(kx3, coeffs, g, sig, gp, sig_p)
    assert _e1e1_residuals(kx3, coeffs, g, sig, gp, sig_p) == expected


@given(_wide_ints, _coefficient_sets, _wide_ints, _wide_ints, _wide_ints, _wide_ints)
def test_e1estar_residuals_match_the_fraction_expression(kx3, coeffs, r, d, g, star_c):
    expected = _e1estar_fraction_residuals(kx3, coeffs, r, d, g, star_c)
    assert _e1estar_residuals(kx3, coeffs, r, d, g, star_c) == expected


# ---------------------------------------------------------------------------
# Each field of a candidate's integer record against its plain-Fraction
# expression, written out here without the formulas module.  The tuples
# come from the unpruned E1-E1 box, the E1-point scan box (DIOPHANTINE
# off) and the symmetric grid, where most fail some check.

# (-K)^2.E, (-K).E^2, E^3 and the target-degree offset of each point type.
_POINT_SIDES = {
    ContractionType.E2: (4, 2, 1, 8),
    ContractionType.E34: (2, 2, 2, 2),
    ContractionType.E5: (1, 2, 4, Fraction(1, 2)),
}


def _side_terms_by_fractions(kx3, side):
    """(excess, (-K).E^2, E^3, kY3) of one side."""
    if side.ctype is ContractionType.E1:
        rd, two_minus_2g = side.r * side.d, 2 - 2 * side.g
        return rd + two_minus_2g, two_minus_2g, -rd + two_minus_2g, kx3 + 2 * rd + two_minus_2g
    kx2e, kxe2, e3self, offset = _POINT_SIDES[side.ctype]
    return kx2e, kxe2, e3self, kx3 + offset


def _cube_by_fractions(a, b, kx3, opposite):
    kx2e, kxe2, e3self, _ = opposite
    return a**3 * kx3 + 3 * a**2 * b * kx2e - 3 * a * b**2 * kxe2 + b**3 * e3self


def _assert_record_fields(record, kx3, left, right, alpha, beta, alpha_plus, beta_plus):
    terms_left = _side_terms_by_fractions(kx3, left)
    terms_right = _side_terms_by_fractions(kx3, right)
    cube_left = _cube_by_fractions(alpha_plus, beta_plus, kx3, terms_right)
    cube_right = _cube_by_fractions(alpha, beta, kx3, terms_left)
    assert (record.kx3, record.left, record.right) == (kx3, left, right)
    assert (record.sigma_left, record.sigma_right) == (terms_left[0], terms_right[0])
    assert (record.kY3_left, record.kY3_right) == (terms_left[3], terms_right[3])
    for (a, b, den), expected in (
        (record.pair, (alpha, beta)),
        (record.pair_plus, (alpha_plus, beta_plus)),
    ):
        assert all(type(n) is int for n in (a, b, den)) and den > 0
        assert (Fraction(a, den), Fraction(b, den)) == expected
    for ratio, expected in (
        (record.etilde3_left, cube_left),
        (record.etilde3_right, cube_right),
        (record.defect_left, terms_left[2] - cube_left),
        (record.defect_right, terms_right[2] - cube_right),
    ):
        assert all(type(n) is int for n in ratio) and ratio[1] > 0
        assert Fraction(*ratio) == expected
    # The values output reads divide the same numbers.
    assert record.coeffs == FlopCoefficients(alpha, beta, alpha_plus, beta_plus)
    for value, expected in (
        (record.defect_e, terms_left[2] - cube_left),
        (record.defect_e_plus, terms_right[2] - cube_right),
    ):
        assert value == (expected if Fraction(expected).denominator == 1 else None)


_box_kx3 = st.sampled_from(KX3_VALUES)


@st.composite
def _e1_data(draw, r=None):
    r = draw(st.integers(1, 4)) if r is None else r
    return r, draw(st.integers(1, D_MAX)), draw(st.integers(0, G_MAX[r]))


@st.composite
def _e1e1_tuples(draw):
    kx3, left_data = draw(_box_kx3), draw(_e1_data())
    right_data = draw(_e1_data(draw(st.integers(1, left_data[0]))))
    (r, d, g), (rp, dp, gp) = left_data, right_data
    beta, beta_plus = Fraction(-rp, r), Fraction(-r, rp)
    alpha_plus = (r * d + 2 - 2 * g - beta_plus * (rp * dp + 2 - 2 * gp)) / Fraction(kx3)
    alpha = -beta * alpha_plus
    sides = SideData(ContractionType.E1, r, d, g), SideData(ContractionType.E1, rp, dp, gp)
    record = search_mod.record("e1e1", (kx3, *left_data, *right_data))
    return record, (kx3, *sides, alpha, beta, alpha_plus, beta_plus)


@st.composite
def _e1estar_tuples(draw):
    kx3, left_data = draw(_box_kx3), draw(_e1_data())
    star, ap = draw(st.sampled_from(tuple(_POINT_SIDES))), draw(st.integers(1, MAX_ALPHA_PLUS))
    bp = draw(st.integers(-left_data[0], -1))
    sides = SideData(ContractionType.E1, *left_data), SideData(star)
    record = search_mod.record(family_id(ContractionType.E1, star), (kx3, *left_data, ap, bp))
    return record, (kx3, *sides, Fraction(-ap, bp), Fraction(1, bp), Fraction(ap), Fraction(bp))


@st.composite
def _symmetric_tuples(draw):
    kx3, star = draw(_box_kx3), draw(st.sampled_from(tuple(_POINT_SIDES)))
    alpha = draw(st.integers(1, MAX_ALPHA_PLUS))
    record = search_mod.record(family_id(star, star), (kx3, alpha))
    side = SideData(star)
    return record, (kx3, side, side, Fraction(alpha), Fraction(-1), Fraction(alpha), Fraction(-1))


@given(st.one_of(_e1e1_tuples(), _e1estar_tuples(), _symmetric_tuples()))
def test_record_fields_match_the_fraction_expressions(drawn):
    record, expected = drawn
    _assert_record_fields(record, *expected)

"""Core data model: contraction types, side data, coefficients, candidates."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanolink.formulas import closure_numerators
from fanolink.model import (
    FAMILIES,
    ContractionType,
    ExistenceStatus,
    FlopCoefficients,
    IntersectionConstants,
    LinkCandidate,
    SideData,
    family_id,
    intersection_constants,
)
from fanolink.search import build_candidate, record

from conftest import over_common_denominator


def _closure(coeffs):
    """closure_numerators of a coefficient set's two pairs over their common denominators."""
    return closure_numerators(
        over_common_denominator(coeffs.alpha, coeffs.beta),
        over_common_denominator(coeffs.alpha_plus, coeffs.beta_plus),
    )


class TestContractionType:
    def test_labels(self):
        assert ContractionType.E1.value == "E1"
        assert ContractionType.E2.value == "E2"
        assert ContractionType.E34.value == "E3/E4"
        assert ContractionType.E5.value == "E5"

    def test_from_label_round_trip(self):
        for ctype in ContractionType:
            assert ContractionType(ctype.value) is ctype

    def test_from_label_rejects_unknown(self):
        with pytest.raises(ValueError):
            ContractionType("E6")


class TestExistenceStatus:
    def test_from_label_round_trip(self):
        for status in ExistenceStatus:
            assert ExistenceStatus(status.value) is status

    def test_from_label_rejects_unknown(self):
        with pytest.raises(ValueError):
            ExistenceStatus("Maybe")


class TestSideData:
    def test_e1_side_carries_curve_data(self):
        side = SideData(ContractionType.E1, 2, 12, 7)
        assert side.is_e1
        assert (side.r, side.d, side.g) == (2, 12, 7)
        assert side.target_index == 2

    def test_e1_requires_all_three_numbers(self):
        with pytest.raises(ValueError, match=r"requires \(r, d, g\)"):
            SideData(ContractionType.E1)
        with pytest.raises(ValueError, match=r"requires \(r, d, g\)"):
            SideData(ContractionType.E1, 1, 1)

    def test_e1_index_range(self):
        with pytest.raises(ValueError, match="index out of range"):
            SideData(ContractionType.E1, 0, 1, 0)
        with pytest.raises(ValueError, match="index out of range"):
            SideData(ContractionType.E1, 5, 1, 0)

    def test_e1_degree_positive(self):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            SideData(ContractionType.E1, 1, 0, 0)

    def test_e1_genus_nonnegative(self):
        with pytest.raises(ValueError, match="genus must be >= 0"):
            SideData(ContractionType.E1, 1, 1, -1)

    def test_point_sides_reject_numeric_data(self):
        with pytest.raises(ValueError, match="carries no numeric data"):
            SideData(ContractionType.E2, r=1)
        with pytest.raises(ValueError, match="carries no numeric data"):
            SideData(ContractionType.E5, d=3)

    def test_target_index_by_type(self):
        assert SideData(ContractionType.E1, 3, 2, 0).target_index == 3
        assert SideData(ContractionType.E2).target_index == 1
        assert SideData(ContractionType.E34).target_index is None
        assert SideData(ContractionType.E5).target_index is None

    def test_frozen(self):
        side = SideData(ContractionType.E2)
        with pytest.raises(AttributeError):
            side.r = 1


class TestIntersectionConstants:
    def test_e1_formulas(self):
        constants = intersection_constants(SideData(ContractionType.E1, 1, 1, 0))
        assert constants == IntersectionConstants(kx2E=3, kxE2=2, e3self=1)

    def test_e1_higher_genus(self):
        constants = intersection_constants(SideData(ContractionType.E1, 2, 12, 7))
        assert constants == IntersectionConstants(kx2E=12, kxE2=-12, e3self=-36)

    def test_point_type_constants(self):
        assert intersection_constants(SideData(ContractionType.E2)) == IntersectionConstants(4, 2, 1)
        assert intersection_constants(SideData(ContractionType.E34)) == IntersectionConstants(2, 2, 2)
        assert intersection_constants(SideData(ContractionType.E5)) == IntersectionConstants(1, 2, 4)


class TestFlopCoefficients:
    def test_closure_residuals_vanish_for_consistent_set(self):
        coeffs = FlopCoefficients(
            Fraction(11, 3), Fraction(-1, 3), Fraction(11), Fraction(-3)
        )
        assert _closure(coeffs) == (0, 0, 0)
        assert 0 not in (coeffs.alpha, coeffs.beta, coeffs.alpha_plus, coeffs.beta_plus)

    def test_closure_residuals_flag_inconsistency(self):
        coeffs = FlopCoefficients(Fraction(3), Fraction(-1), Fraction(4), Fraction(-1))
        assert any(_closure(coeffs))

    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-(10**9), max_value=10**9),
                st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**7),
            ),
            min_size=4,
            max_size=4,
        )
    )
    def test_closure_residuals_match_the_fraction_expression(self, values):
        # Denominators far beyond the search's 1..88, and plain ints.
        # The numerators lie over den*den_p, the pairs' common denominators.
        a, b, ap, bp = map(Fraction, values)
        numerators = _closure(FlopCoefficients(*values))
        assert all(type(n) is int for n in numerators)
        den = over_common_denominator(a, b)[2]
        den_p = over_common_denominator(ap, bp)[2]
        residuals = tuple(Fraction(n, den * den_p) for n in numerators)
        assert residuals == (b * bp - 1, a + b * ap, ap + bp * a)


class TestFamilyId:
    def test_all_family_ids(self):
        e1 = ContractionType.E1
        e2 = ContractionType.E2
        e3 = ContractionType.E34
        e5 = ContractionType.E5
        assert family_id(e1, e1) == "e1e1"
        assert family_id(e1, e2) == "e1e2"
        assert family_id(e1, e3) == "e1e3"
        assert family_id(e1, e5) == "e1e5"
        assert family_id(e2, e2) == "e2e2"
        assert family_id(e3, e3) == "e3e3"
        assert family_id(e5, e5) == "e5e5"

    def test_each_family_spec_states_its_types(self):
        for spec in FAMILIES.values():
            assert family_id(*spec.types) == spec.id
        assert FAMILIES["e1e3"].types == (ContractionType.E1, ContractionType.E34)
        assert FAMILIES["e5e5"].types == (ContractionType.E5, ContractionType.E5)

    def test_types_of_no_family_raise(self):
        with pytest.raises(ValueError, match="no family has side types E2,E1"):
            family_id(ContractionType.E2, ContractionType.E1)
        with pytest.raises(ValueError, match="no family has side types E2,E5"):
            family_id(ContractionType.E2, ContractionType.E5)


# Each shape's six column tuples as they were listed by hand before the
# layouts were derived: value_columns orders the mismatch report, and
# key_columns each row's identity.
_LAYOUTS = {
    "curve-curve": dict(
        csv_columns=(
            "kx3", "type_left", "type_right", "r", "d", "g", "r_plus", "d_plus", "g_plus",
            "alpha", "beta", "kY3", "kY3_plus", "e_over_r3", "exists", "ref",
        ),
        key_columns=(
            "type_left", "type_right", "kx3", "r", "d", "g", "r_plus", "d_plus", "g_plus",
        ),
        value_columns=(
            "alpha", "beta", "alpha_plus", "beta_plus", "kY3", "kY3_plus", "e_over_r3",
        ),
        sort_columns=("kx3", "r", "r_plus", "g", "d", "g_plus", "d_plus"),
        display_columns=(
            "no", "kx3", "kY3", "kY3_plus", "alpha", "beta", "r", "d", "g",
            "r_plus", "d_plus", "g_plus", "e_over_r3", "exists", "ref",
        ),
        explain_fields=("kx3", "r", "d", "g", "r_plus", "d_plus", "g_plus"),
    ),
    "curve-point": dict(
        csv_columns=(
            "kx3", "type_left", "type_right", "r", "d", "g",
            "alpha", "beta", "kY3", "kY3_plus", "e_over_r3", "exists", "ref",
        ),
        key_columns=("type_left", "type_right", "kx3", "r", "d", "g"),
        value_columns=(
            "alpha", "beta", "alpha_plus", "beta_plus", "kY3", "kY3_plus", "e_over_r3",
        ),
        sort_columns=("kx3", "r", "g", "d"),
        display_columns=(
            "no", "kx3", "kY3", "kY3_plus", "alpha", "beta", "r", "d", "g",
            "e_over_r3", "exists", "ref",
        ),
        explain_fields=("kx3", "r", "d", "g", "alpha_plus", "beta_plus"),
    ),
    "point-point": dict(
        csv_columns=(
            "kx3", "type_left", "type_right", "alpha", "beta", "kY3", "e", "exists", "ref",
        ),
        key_columns=("type_left", "type_right", "kx3"),
        value_columns=("alpha", "beta", "alpha_plus", "beta_plus", "kY3", "e"),
        sort_columns=("alpha",),
        display_columns=("no", "kx3", "kY3", "alpha", "beta", "e", "exists", "ref"),
        explain_fields=("kx3", "alpha"),
    ),
}
_SHAPES = {
    "e1e1": "curve-curve", "e1e2": "curve-point", "e1e3": "curve-point",
    "e1e5": "curve-point", "e2e2": "point-point", "e3e3": "point-point",
    "e5e5": "point-point",
}


class TestFamilyLayouts:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_derived_layout_matches_the_listed_one(self, family):
        spec = FAMILIES[family]
        layout = {name: getattr(spec, name) for name in _LAYOUTS[_SHAPES[family]]}
        assert layout == _LAYOUTS[_SHAPES[family]]


class TestLinkCandidate:
    def test_family_property(self):
        candidate = record("e1e2", (4, 2, 12, 7, 5, -2))
        assert candidate.family == "e1e2"

    def test_left_cube_scale(self):
        assert record("e1e1", (4, 3, 9, 3, 1, 5, 0)).left.cube_scale == 27
        assert record("e2e2", (8, 1)).left.cube_scale == 1

    def test_cube_scale_is_kept_but_is_no_field(self):
        # Computed once per side; equality, hashing and repr ignore it, and
        # the side stays frozen.
        side, fresh = SideData(ContractionType.E1, 3, 9, 3), SideData(ContractionType.E1, 3, 9, 3)
        assert side.cube_scale == 27 and vars(side)["cube_scale"] == 27
        assert "cube_scale" not in vars(fresh)
        assert (side, hash(side), repr(side)) == (fresh, hash(fresh), repr(fresh))
        with pytest.raises(AttributeError):
            side.cube_scale = 1

    def test_e_over_r3(self):
        candidate = record("e1e1", (2, 2, 1, 0, 2, 1, 0))
        assert candidate.defect_e == 88
        assert candidate.e_over_r3 == 11

    def test_e_over_r3_none_when_defect_missing(self):
        # A deliberately inconsistent candidate with a non-integral cube.
        candidate = record("e1e1", (2, 1, 1, 0, 3, 1, 0))
        assert candidate.defect_e is None
        assert candidate.e_over_r3 is None

    def test_side_types_must_form_a_family(self):
        candidate = record("e1e2", (4, 2, 12, 7, 5, -2))
        for left, right, types in (
            (candidate.right, candidate.left, "E2,E1"),
            (SideData(ContractionType.E2), SideData(ContractionType.E5), "E2,E5"),
        ):
            unpaired = candidate._replace(left=left, right=right)
            with pytest.raises(ValueError, match=f"no family has side types {types}"):
                unpaired.family
            with pytest.raises(ValueError, match=f"no family has side types {types}"):
                build_candidate(unpaired)

    def test_frozen(self):
        candidate = record("e2e2", (8, 1))
        with pytest.raises(AttributeError):
            candidate.kx3 = 10

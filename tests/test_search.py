"""Enumerators and oracle: cardinalities, ordering, ablations, equivalence."""

from __future__ import annotations

import functools
import re
from collections import Counter
from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanolink import catalog, formulas, search
from fanolink.catalog import FANO_DEGREES, is_valid_fano_degree
from fanolink.checks import (
    DEFAULT_CHECKS,
    E1_SIGMA_MIN,
    KX3_VALUES,
    MAX_ALPHA_PLUS,
    REGISTRY,
    admitted,
    run_checks,
)
from fanolink.formulas import (
    e1e1_pairs,
    ky3_from_kx3,
    sigma,
    star_pairs,
    star_sigma,
)
from fanolink.golden import diff
from fanolink.model import FAMILIES, ContractionType, SideData, family_id, family_spec
from fanolink.rational import RationalOverflowError, audit_magnitude
from fanolink.search import (
    D_MAX,
    FAMILY_IDS,
    G_MAX,
    brute_force_oracle,
    build_candidate,
    canonical_sort_key,
    enumerate_e1e1,
    enumerate_e1estar,
    enumerate_family,
    enumerate_symmetric,
    mirror_candidate,
    orientation_canonical,
    record,
)

# Rows that disabling one check adds to each family's default output, and
# the SHA-256 of the repr of the sorted row keys (FAMILIES[family].key of
# each candidate's cells) of that output (measured); every check and family
# not listed adds none.
ABLATION_EXTRAS = {
    "SIGMA_POS": {
        "e1e1": (138, "13a2a5bdfec13636964b1319de9582a4446e9f3819142571d44b55a9bf0894d8"),
    },
    "KX3_RANGE": {
        "e3e3": (1, "f370febeda7cb84c915b2217712f24eaabf0f49392049718bdab7d49fc517fef"),
        "e5e5": (1, "52698b2e9f6a4d5019edd42c990052af9bc44a4cc08cfc5f625accd310ae8a26"),
    },
    "DIOPHANTINE": {
        "e1e2": (1, "7199cf179f256a7cda49fe587968a947c1f9cd70c49a36169582dac9c924b77e"),
        "e1e3": (14, "b9899d0c2cde225fae11b5da0b75378abf132b3f33100ff63f35550c4f2d94a6"),
        "e1e5": (12, "e51a5b487f471dfe2f642d775af9ac7bf7d692c3ae7bc3c789924d089e12366e"),
    },
    "FANO_DEGREE_LEFT": {
        "e1e3": (2, "9bd164d9fe8cd221ce9b93783b1dc8a51996e885326072c6bf571ff450da6ad5"),
        "e1e5": (3, "22d0f216639f787344fc77811b46d5a980eff0d6c803dcb4b626ba3a5074b55f"),
    },
    "GCD_LEFT": {
        "e1e1": (1, "43659441614a5e42fe11d007c194c1343fdd692e0beb5a13eaa10022372b2e0b"),
    },
    "DEFECT_POSITIVE": {
        "e1e1": (76, "b7f280ec51f12d037e07f6351974c8db6ccfc1b7585fffc96f40496ff2b81c7d"),
        "e1e3": (3, "5701c5fd61f43c8b0c295a91b9331a1ee2aac7f27302b080ff716489ac51d948"),
        "e1e5": (1, "5e150263a6c615afb36a79e3213605726074d3f1ce2d8c9e26d509b3aaa237a8"),
    },
    "DEFECT_DIVISIBLE": {
        "e1e1": (5, "64bdda89f72dc2a6670dbfff26138b168f1ecc6ebeed52155b3a6fdf422993a8"),
    },
    "HODGE": {
        "e1e1": (16, "886ff4c6fc8722311cd8d85195ba6fd5fa4715519efa35a9550b2c3c5178cd14"),
        "e1e2": (4, "aa5474d5b76427b47e3636761afe223588bcfc4c2493f3d936eaec051740a6a1"),
    },
    "HYPERELLIPTIC_SYM": {
        "e1e3": (3, "690d883d4fb709ebb07287c5bcdca9c06abd7c3b5e7cf354bbfcb4656c172a8d"),
        "e1e5": (2, "1804b0ad81457d9feb8f907a936507fcf462e2a998db224102014133da8bc616"),
    },
}

# The default run's funnel: per family, trace events by stage and first
# failing check, plus the rows admitted (measured).
SIDE_PRUNES = {
    "side-left.SIGMA_POS": 10758,
    "side-left.FANO_DEGREE_LEFT": 10140,
}
DEFAULT_FUNNEL = {
    "e1e1": {
        **SIDE_PRUNES,
        "side-right.SIGMA_POS": 10758,
        "side-right.FANO_DEGREE_RIGHT": 10140,
        "pair-fast.DIOPHANTINE": 9728,
        "full.ETILDE_INTEGRAL": 237,
        "full.DEFECT_POSITIVE": 177,
        "full.GCD_LEFT": 51,
        "full.HODGE": 41,
        "full.DEFECT_DIVISIBLE": 5,
        "admitted": 111,
    },
    "e1e2": {
        **SIDE_PRUNES,
        "pair-fast.DIOPHANTINE": 629,
        "full.DIOPHANTINE": 236,
        "full.FANO_DEGREE_RIGHT": 40,
        "full.HODGE": 7,
        "full.DEFECT_DIVISIBLE": 1,
        "full.DEFECT_POSITIVE": 1,
        "full.GCD_LEFT": 1,
        "admitted": 3,
    },
    "e1e3": {
        **SIDE_PRUNES,
        "pair-fast.DIOPHANTINE": 669,
        "full.DIOPHANTINE": 232,
        "full.DEFECT_POSITIVE": 5,
        "full.HYPERELLIPTIC_SYM": 3,
        "full.ETILDE_INTEGRAL": 2,
        "admitted": 7,
    },
    "e1e5": {
        **SIDE_PRUNES,
        "pair-fast.DIOPHANTINE": 757,
        "full.DIOPHANTINE": 145,
        "full.DEFECT_POSITIVE": 4,
        "full.ETILDE_INTEGRAL": 3,
        "full.HYPERELLIPTIC_SYM": 2,
        "admitted": 7,
    },
    "e2e2": {"domain.KX3_RANGE": 1, "admitted": 3},
    "e3e3": {"domain.KX3_RANGE": 1, "admitted": 2},
    "e5e5": {"domain.KX3_RANGE": 1, "admitted": 1},
}

EXPECTED_COUNTS = {
    "e1e1": 111,
    "e1e2": 3,
    "e1e3": 7,
    "e1e5": 7,
    "e2e2": 3,
    "e3e3": 2,
    "e5e5": 1,
}


class TestConstants:
    def test_search_box_bounds(self):
        assert KX3_VALUES == (2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22)
        assert D_MAX == 19
        assert G_MAX == {1: 10, 2: 20, 3: 29, 4: 39}
        assert MAX_ALPHA_PLUS == 86

    def test_search_box_covers_the_derived_bounds(self):
        # An admitted E1 side passes SIGMA_POS, sigma >= E1_SIGMA_MIN, and
        # its FANO_DEGREE check: kY3 = kx3 + r*d + sigma is a Fano degree of
        # index r.  With kx3 >= 2 that gives r*d <= max degree - 2 - 3, and
        # then 2g = r*d + 2 - sigma <= r*d - 1 bounds the genus.
        kx3_min, top = min(KX3_VALUES), {r: max(degrees) for r, degrees in FANO_DEGREES.items()}
        d_bound = {r: (top[r] - kx3_min - E1_SIGMA_MIN) // r for r in top}
        g_bound = {r: (r * d_bound[r] + 2 - E1_SIGMA_MIN) // 2 for r in top}
        assert d_bound == {1: 17, 2: 17, 3: 16, 4: 14}
        assert g_bound == {1: 8, 2: 16, 3: 23, 4: 27}
        assert D_MAX >= max(d_bound.values())
        assert all(G_MAX[r] >= g_bound[r] for r in top)
        # E1-point: alpha_plus*kx3 = sigma - beta_plus*c with beta_plus >= -r,
        # c the point-side constant, and sigma = kY3 - kx3 - r*d <= top - kx3 - r
        # (d >= 1); the bound falls with kx3.  Symmetric: alpha*kx3 = 2c.
        point_c = [star_sigma(t) for t in ContractionType if t is not ContractionType.E1]
        ap_bound = max((top[r] - kx3_min - r + r * c) // kx3_min for r in top for c in point_c)
        assert ap_bound == 37
        assert MAX_ALPHA_PLUS >= max(ap_bound, 2 * max(point_c) // kx3_min)

    def test_oracle_bounds_never_cut_its_scan(self):
        # The right-excess cap of the E1-E1 oracle is the largest excess on
        # an index-rp side of the grid (d = D_MAX, g = 0).
        for rp in range(1, 5):
            assert D_MAX * rp + 2 == max(sigma(rp, d, g) for d, g in search._SIDE_GRID[rp])
        # Its widest p window, over every left side it scans (measured).
        widest = max(
            (q * (sig * rp + r * (D_MAX * rp + 2))) // (rp * kx3)
            for kx3, r, _, _, sig in search._oracle_left_sides()
            for rp in range(1, 5)
            for q in range(1, 5)
        )
        assert widest == 228

    def test_oracle_walks_p_exactly_where_the_right_excess_is_integral(self):
        # The E1-E1 oracle's p walk (_excess_class) against a test of every
        # p in its window, for every left side, right index and q it scans.
        visited = scanned = 0
        for kx3, r, _, _, sig in search._oracle_left_sides():
            for rp in range(1, 5):
                for q in range(1, 5):
                    lo = max(1, (q * sig) // kx3 + 1)
                    hi = (q * (sig * rp + r * (D_MAX * rp + 2))) // (rp * kx3)
                    walk = list(search._excess_class(kx3, r, sig, rp, q, lo, hi))
                    window = range(lo, hi + 1)
                    integral = [p for p in window if rp * (p * kx3 - q * sig) % (r * q) == 0]
                    assert walk == integral, (kx3, r, sig, rp, q)
                    visited += len(walk)
                    scanned += len(window)
        assert (visited, scanned) == (79_320, 129_770)

    def test_oracle_leaves_out_only_p_its_tests_reject(self, monkeypatch):
        # The E1-E1 oracle walks rp <= r only and breaks its p walk at the
        # genus cap.  Against the unbounded walk (every rp in 1..4, the whole
        # class), every p it leaves out must fail orientation_canonical (the
        # rp > r ones) or the genus test 0 <= gp <= G_MAX[rp], solved here.
        excess_class = search._excess_class
        calls = []  # [args, number of p drawn] per p walk, in the oracle's order

        def counting(*args):
            calls.append([args, 0])
            for p in excess_class(*args):
                calls[-1][1] += 1
                yield p

        monkeypatch.setattr(search, "_excess_class", counting)
        search._oracle_e1e1()
        walks = iter(calls)
        unbounded = bounded = by_orientation = by_genus = 0
        for kx3, r, d, g, sig in search._oracle_left_sides():
            for rp in range(1, 5):
                for q in range(1, 5):
                    lo = max(1, (q * sig) // kx3 + 1)
                    hi = (q * (sig * rp + r * (D_MAX * rp + 2))) // (rp * kx3)
                    walk = list(excess_class(kx3, r, sig, rp, q, lo, hi))
                    unbounded += len(walk)
                    if rp > r:
                        assert not orientation_canonical((r, d, g), (rp, 1, 0))
                        by_orientation += len(walk)
                        continue
                    args, drawn = next(walks)
                    assert args == (kx3, r, sig, rp, q, lo, hi)
                    bounded += drawn
                    for p in walk[drawn:]:
                        numerator = rp * rp * (p * (p * kx3 - 2 * q * sig) + q * q * (2 * g - 2))
                        two_gp_minus_2, rem = divmod(numerator, r * r * q * q)
                        gp_fits = 0 <= two_gp_minus_2 + 2 <= 2 * G_MAX[rp]
                        assert rem or two_gp_minus_2 % 2 or not gp_fits, (kx3, r, d, g, rp, q, p)
                        by_genus += 1
        assert next(walks, None) is None
        assert (unbounded, bounded) == (79_320, 30_188)
        assert (by_orientation, by_genus) == (35_169, 13_963)

    @pytest.mark.parametrize(
        ("family", "visits", "records"),
        [("e1e2", 2_925, 79), ("e1e3", 2_689, 119), ("e1e5", 2_329, 141)],
    )
    def test_e1_point_oracle_breaks_only_past_the_quadratics_root(
        self, monkeypatch, family, visits, records
    ):
        # The E1-point oracle breaks its alpha_plus walk once lhs =
        # ap*(ap*kx3 + 2*bp*c) exceeds rhs past the vertex (ap*kx3 + bp*c > 0).
        # Its loop is a plain range; a module-level `range` in search shadows
        # the builtin to count what each alpha_plus walk draws.  Every walk
        # must stop exactly there, and no alpha_plus in the box after it may
        # satisfy the quadratic relation; the tuples that do are the ones the
        # oracle derives.
        box = range(1, MAX_ALPHA_PLUS + 1)
        drawn = []  # the last alpha_plus each walk drew, in the oracle's order
        derived = []

        def counting_range(*args):
            return counting_box() if range(*args) == box else range(*args)

        def counting_box():
            drawn.append(0)
            for ap in box:
                drawn[-1] = ap
                yield ap

        star = family_spec(family).types[1]
        monkeypatch.setattr(search, "range", counting_range, raising=False)
        monkeypatch.setattr(search, "record", lambda *args: derived.append(args) or record(*args))
        search._oracle_e1estar(family, star)
        monkeypatch.undo()
        walks, c, solved = iter(drawn), star_sigma(star), []
        for kx3, r, d, g, _ in search._oracle_left_sides():
            if not search._degree_ok(kx3, search._side(star)):
                continue
            for bp in range(-r, 0):
                rhs = 2 * bp * bp - (2 - 2 * g)
                lhs = {ap: ap * (ap * kx3 + 2 * bp * c) for ap in box}
                stop = next(
                    (ap for ap in box if lhs[ap] > rhs and ap * kx3 + bp * c > 0), box[-1]
                )
                assert next(walks) == stop, (kx3, r, g, bp)
                assert all(lhs[ap] != rhs for ap in box if ap > stop), (kx3, r, g, bp)
                solved += [(family, (kx3, r, d, g, ap, bp)) for ap in box if lhs[ap] == rhs]
        assert next(walks, None) is None
        assert derived == solved
        assert (sum(drawn), len(solved)) == (visits, records)

    def test_enlarged_box_gives_the_same_rows(self, enumerated, monkeypatch):
        # D_MAX 30 and every G_MAX doubled; the side lists are rebuilt from it.
        grid = {
            r: tuple((d, g) for d in range(1, 31) for g in range(2 * G_MAX[r] + 1)) for r in G_MAX
        }
        search._pruned_sides.cache_clear()
        monkeypatch.setattr(search, "_SIDE_GRID", grid)
        try:
            out = {family: enumerate_family(family) for family in FAMILY_IDS}
        finally:
            search._pruned_sides.cache_clear()
        assert out == enumerated
        assert sum(map(len, out.values())) == 134

    def test_family_ids(self):
        assert FAMILY_IDS == ("e1e1", "e1e2", "e1e3", "e1e5", "e2e2", "e3e3", "e5e5")


class TestCardinalities:
    @pytest.mark.parametrize("family", FAMILY_IDS)
    def test_count_matches_classification(self, enumerated, family):
        assert len(enumerated[family]) == EXPECTED_COUNTS[family]

    def test_total_count(self, enumerated):
        assert sum(len(candidates) for candidates in enumerated.values()) == 134


class TestGoldenAgreement:
    @pytest.mark.parametrize("family", FAMILY_IDS)
    def test_diff_is_empty(self, enumerated, golden, family):
        report = diff(enumerated[family], golden[family])
        assert report.empty, report.describe()


class TestEndpoints:
    def test_first_candidate(self, enumerated):
        candidate = enumerated["e1e1"][0]
        assert candidate.kx3 == 2
        assert (candidate.left.r, candidate.left.d, candidate.left.g) == (1, 1, 0)
        assert (candidate.right.r, candidate.right.d, candidate.right.g) == (1, 1, 0)
        assert candidate.coeffs.alpha == 3
        assert candidate.coeffs.beta == -1
        assert candidate.kY3_left == 6
        assert candidate.defect_e == 47
        assert candidate.e_over_r3 == 47

    def test_last_candidate(self, enumerated):
        candidate = enumerated["e1e1"][-1]
        assert candidate.kx3 == 22
        assert (candidate.left.r, candidate.left.d, candidate.left.g) == (4, 5, 0)
        assert (candidate.right.r, candidate.right.d, candidate.right.g) == (4, 5, 0)
        assert candidate.coeffs.alpha == 2
        assert candidate.kY3_left == 64
        assert candidate.e_over_r3 == 1


class TestOrderAndOrientation:
    @pytest.mark.parametrize("family", FAMILY_IDS)
    def test_output_sorted_and_duplicate_free(self, enumerated, family):
        candidates = enumerated[family]
        keys = [canonical_sort_key(c) for c in candidates]
        assert keys == sorted(keys)
        assert len(set(candidates)) == len(candidates)

    @pytest.mark.parametrize("check", [None, *REGISTRY])
    def test_sort_key_is_the_sort_columns_cells(self, enumerated, ablated, check):
        # The key reads the candidate's fields (model.CELL_FIELDS); the
        # reference reads the same columns from cells(), under the default
        # checks and each single-check ablation.
        for family in FAMILY_IDS:
            columns = FAMILIES[family].sort_columns
            rows = enumerated[family] if check is None else ablated(check, family)
            for c in rows:
                assert canonical_sort_key(c) == tuple(c.cells()[col] for col in columns)

    def test_e1e1_orientation_is_canonical(self, enumerated):
        for candidate in enumerated["e1e1"]:
            left = (candidate.left.r, candidate.left.d, candidate.left.g)
            right = (candidate.right.r, candidate.right.d, candidate.right.g)
            assert orientation_canonical(left, right)

    def test_no_mirror_pair_double_counted(self, enumerated):
        seen = set()
        for candidate in enumerated["e1e1"]:
            left = (candidate.left.r, candidate.left.d, candidate.left.g)
            right = (candidate.right.r, candidate.right.d, candidate.right.g)
            unordered = frozenset({(candidate.kx3, left, right), (candidate.kx3, right, left)})
            assert unordered not in seen
            seen.add(unordered)

    def test_orientation_rule(self):
        assert orientation_canonical((3, 9, 3), (1, 5, 0))
        assert not orientation_canonical((1, 5, 0), (3, 9, 3))
        assert orientation_canonical((1, 1, 0), (1, 1, 0))  # self-mirrors survive
        assert orientation_canonical((2, 5, 1), (2, 3, 2))
        assert not orientation_canonical((2, 3, 2), (2, 5, 1))

    def test_mirror_admission(self, enumerated):
        for candidate in enumerated["e1e1"]:
            mirrored = mirror_candidate(candidate)
            assert admitted(run_checks(mirrored)), canonical_sort_key(candidate)

    def test_mirror_is_an_involution(self, enumerated):
        candidate = enumerated["e1e1"][40]
        assert mirror_candidate(mirror_candidate(candidate)) == candidate

    def test_mirror_equals_the_build_with_sides_swapped(self, enumerated):
        for c in enumerated["e1e1"]:
            left = (c.left.r, c.left.d, c.left.g)
            right = (c.right.r, c.right.d, c.right.g)
            assert mirror_candidate(c) == record("e1e1", (c.kx3, *right, *left))

    def test_mirror_of_a_curve_point_candidate_raises(self, enumerated):
        with pytest.raises(ValueError, match="no family has side types E2,E1"):
            mirror_candidate(enumerated["e1e2"][0])


class TestDeterminism:
    def test_repeat_runs_identical(self, enumerated):
        assert enumerate_e1e1() == enumerated["e1e1"]
        assert enumerate_symmetric(ContractionType.E2) == enumerated["e2e2"]


class TestDomainFacts:
    def test_kx3_twenty_admitted_by_range_but_never_emitted(self, enumerated):
        # 20 is a legal central degree a priori; the general checks kill
        # every candidate carrying it, with no dedicated exclusion rule.
        assert 20 in KX3_VALUES
        for family, candidates in enumerated.items():
            assert all(c.kx3 != 20 for c in candidates), family

    def test_emitted_central_degrees(self, enumerated):
        seen = {c.kx3 for candidates in enumerated.values() for c in candidates}
        assert seen == {2, 4, 6, 8, 10, 12, 14, 16, 18, 22}

    def test_curve_sides_have_excess_at_least_three(self, enumerated):
        for candidates in enumerated.values():
            for c in candidates:
                if c.left.is_e1:
                    assert c.sigma_left >= 3
                if c.right.is_e1:
                    assert c.sigma_right >= 3

    def test_minimum_excess_is_attained(self, enumerated):
        # The floor is tight: excess exactly 3 occurs among admitted rows.
        assert min(c.sigma_left for c in enumerated["e1e1"] if c.left.is_e1) == 3

    def test_side_lists_follow_the_reference_degree_formula(self):
        # The side list inlines the target-degree formula; it must keep
        # exactly the sides that ky3_from_kx3 and SIGMA_POS admit.
        total = 0
        for kx3 in KX3_VALUES:
            for r in G_MAX:
                expected = [
                    (d, g, sigma(r, d, g))
                    for d in range(1, D_MAX + 1)
                    for g in range(G_MAX[r] + 1)
                    if sigma(r, d, g) >= E1_SIGMA_MIN
                    and is_valid_fano_degree(
                        r, ky3_from_kx3(kx3, SideData(ContractionType.E1, r, d, g))
                    )
                ]
                sides = search._e1_side_list(kx3, r, DEFAULT_CHECKS, "left")[0]
                assert tuple(side[:3] for side in sides) == tuple(expected), (kx3, r)
                total += len(sides)
        assert total == 420


class TestGenusJoin:
    def test_genus_forms_decide_the_residual_pair(self):
        # On every oriented pair of the default side lists the closed-form
        # genus residuals are (kx3*m, -kx3*m) with m = r^2*Q_plus - rp^2*Q,
        # so the join's lookup by Q_plus = rp^2*Q/r^2 and the walk's test
        # r^2*Q_plus != rp^2*Q each decide DIOPHANTINE exactly.
        pairs = passing = 0
        for kx3 in KX3_VALUES:
            for r in G_MAX:
                left = search._e1_side_list(kx3, r, DEFAULT_CHECKS, "left")[0]
                for rp in range(1, r + 1):
                    right = search._e1_side_list(kx3, rp, DEFAULT_CHECKS, "right")[0]
                    for d, g, sig, form, _ in left:
                        assert form == formulas.genus_form(kx3, sig, g)
                        for dp, gp, sig_p, form_p, _ in right:
                            if not orientation_canonical((r, d, g), (rp, dp, gp)):
                                continue
                            pair, pair_plus = formulas.e1e1_pairs(kx3, r, rp, sig, sig_p)
                            m = r * r * form_p - rp * rp * form
                            residuals = formulas.e1e1_residual_numerators(
                                kx3, pair, pair_plus, g, sig, gp, sig_p
                            )
                            assert residuals == (kx3 * m, -kx3 * m), (kx3, r, d, g, rp, dp, gp)
                            pairs += 1
                            passing += m == 0
        assert (pairs, passing) == (10_350, 622)

    @pytest.mark.parametrize(
        "enabled", [DEFAULT_CHECKS, DEFAULT_CHECKS - {"FANO_DEGREE_LEFT"}], ids=["all", "no-left"]
    )
    def test_traced_join_reports_the_walk_of_every_pair(self, enabled):
        # The traced run joins by genus form too, and reports the right sides
        # between two partners in one pair-fast block.  Its events must equal
        # a walk over every canonically oriented pair with the per-pair genus
        # test, naming each record's failures under the whole enabled suite;
        # without FANO_DEGREE_LEFT the two roles' lists differ.
        # A hook with the block method must hear the same events in blocks:
        # fewer blocks than events at each blocked stage, but some.
        expected = []
        plain = lambda s, d, f: expected.append((s, d, f))  # noqa: E731
        indices = [(kx3, r) for kx3 in KX3_VALUES for r in G_MAX]
        left = {key: search._e1_side_list(*key, enabled, "left", plain)[0] for key in indices}
        right = {key: search._e1_side_list(*key, enabled, "right", plain)[0] for key in indices}
        for kx3, r in indices:
            for rp in range(1, r + 1):
                for d, g, sig, form, left_term in left[kx3, r]:
                    for dp, gp, sig_p, form_p, right_term in right[kx3, rp]:
                        if not orientation_canonical((r, d, g), (rp, dp, gp)):
                            continue
                        data = (kx3, r, d, g, rp, dp, gp)
                        if r * r * form_p != rp * rp * form:
                            expected.append(("pair-fast", data, ("DIOPHANTINE",)))
                            continue
                        sides = formulas.side_terms(kx3, left_term, right_term)
                        rec = search.derive(sides, *e1e1_pairs(kx3, r, rp, sig, sig_p))
                        reports = run_checks(rec, enabled)
                        failed = tuple(rep.name for rep in reports if not rep.passed)
                        if failed:
                            expected.append(("full", data, failed))
        events = []
        enumerate_e1e1(enabled, trace=lambda s, d, f: events.append((s, d, f)))
        assert events == expected
        hook = _BlockHook()
        enumerate_e1e1(enabled, trace=hook)
        assert hook.events == expected
        for kind in ("side", "pair-fast"):
            events = sum(event[0].startswith(kind) for event in expected)
            assert 0 < hook.blocks[kind] < events, kind


class _QuietHook:
    """A trace hook that drops every event, taking blocks whole."""

    def __call__(self, stage, data, failed):
        pass

    def block(self, *args):
        pass


class _BlockHook:
    """A trace hook with the block method, which expands each block into its events."""

    def __init__(self):
        self.events, self.blocks, self.kept = [], Counter(), {}

    def __call__(self, stage, data, failed):
        self.events.append((stage, data, failed))

    def block(self, stage, data, cells, verdicts, failed, start, stop):
        # A side list's block covers the grid of its index; a pair-fast block
        # the right list's kept cells, the grid's own cell tuples (checked once).
        side = stage.startswith("side")
        self.blocks["side" if side else stage] += 1
        grid = search._SIDE_GRID[data[1] if side else data[-1]]
        if side:
            assert cells is grid and (start, stop) == (0, len(grid))
        elif id(cells) not in self.kept:
            self.kept[id(cells)] = cells
            assert set(map(id, cells)) <= set(map(id, grid)) and set(verdicts) == {1}
        assert len(verdicts) == len(cells) and 0 <= start < stop <= len(cells)
        self.events += [
            (stage, (*data, *cells[i]), failed[verdicts[i]])
            for i in range(start, stop)
            if verdicts[i]
        ]


def _decided_sides(monkeypatch) -> list[tuple]:
    """Patch search._decide to log the (kx3, left, right) of each tuple an E1 walk decides; the log.

    These are the kernel's inputs: _decide derives each of them once
    (TestKernel).
    """
    log, decide = [], search._decide

    def logged(sides, *args):
        log.append(sides[0][:3])
        return decide(sides, *args)

    monkeypatch.setattr(search, "_decide", logged)
    return log


def _derived_count(monkeypatch) -> Counter:
    """Patch search.derive to count the records it derives, by family; the counts."""
    counts, derive = Counter(), search.derive

    def counted(sides, *args):
        fields = sides[0]
        counts[family_id(fields[1].ctype, fields[2].ctype)] += 1
        return derive(sides, *args)

    monkeypatch.setattr(search, "derive", counted)
    return counts


def _built_count(monkeypatch) -> Counter:
    """Patch search.build_candidate to count the records it audits, by family; the counts."""
    counts, build = Counter(), search.build_candidate

    def counted(candidate):
        counts[candidate.family] += 1
        return build(candidate)

    monkeypatch.setattr(search, "build_candidate", counted)
    return counts


class TestHodgeJoin:
    # HODGE compares one value per side (checks._hodge_sum), so an untraced
    # walk skips, before deciding, every record whose two values differ or
    # whose lookup fails.  Each proof runs the untraced walk, logs what it
    # decides and checks HODGE's verdict on every tuple of the box.
    NO_DIOPHANTINE = DEFAULT_CHECKS - {"DIOPHANTINE"}

    def test_e1e1_join_visits_exactly_the_pairs_hodge_passes(self, monkeypatch):
        # Of those, the walk decides only the pairs whose alpha numerator n
        # kx3 divides: on the others both GCD checks fail (TestPrimitiveSkip).
        log = _decided_sides(monkeypatch)
        enumerate_e1e1(self.NO_DIOPHANTINE)
        visited = set(log)
        assert len(visited) == len(log) == 523
        hodge = REGISTRY["HODGE"].passes
        pairs = passing = 0
        for kx3 in KX3_VALUES:
            for r in G_MAX:
                left = search._e1_side_list(kx3, r, DEFAULT_CHECKS, "left")[0]
                for rp in range(1, r + 1):
                    right = search._e1_side_list(kx3, rp, DEFAULT_CHECKS, "right")[0]
                    for d, g, sig, _, left_term in left:
                        for dp, gp, sig_p, _, right_term in right:
                            if not orientation_canonical((r, d, g), (rp, dp, gp)):
                                continue
                            sides = formulas.side_terms(kx3, left_term, right_term)
                            pair = e1e1_pairs(kx3, r, rp, sig, sig_p)
                            record = search.derive(sides, *pair)
                            passes = hodge(record)
                            decided = passes and pair[0][0] % kx3 == 0
                            assert decided == ((kx3, record.left, record.right) in visited)
                            pairs += 1
                            passing += passes
        assert (pairs, passing) == (10_350, 976)

    def test_e1e1_join_looks_up_each_side_once_per_run(self, monkeypatch):
        # One lookup per side, whichever role it plays (with both degree
        # checks on, the two roles share the same 420 sides), and two for
        # each record that reaches HODGE: the 111 the walk admits.  A second
        # run looks every side up again.
        calls = []
        lookup = catalog.hodge_h12
        monkeypatch.setattr(catalog, "hodge_h12", lambda *key: calls.append(key) or lookup(*key))
        for _ in range(2):
            calls.clear()
            assert len(enumerate_e1e1(self.NO_DIOPHANTINE)) == 111
            assert len(calls) == 420 + 2 * 111

    @pytest.mark.parametrize("degree", ["FANO_DEGREE_LEFT", "FANO_DEGREE_RIGHT"])
    def test_e1e1_join_over_unequal_side_lists_keeps_the_default_rows(self, enumerated, degree):
        # Without one degree check the two roles' side lists differ, so the
        # shared Hodge lookup must cover the sides of either list.
        out = enumerate_e1e1(self.NO_DIOPHANTINE - {degree})
        assert tuple(c for c in out if admitted(run_checks(c))) == enumerated["e1e1"]

    @pytest.mark.parametrize(
        "enabled",
        [NO_DIOPHANTINE, NO_DIOPHANTINE - {"FANO_DEGREE_RIGHT"}],
        ids=["all", "no-degree"],
    )
    def test_e1e2_skips_exactly_the_left_sides_hodge_rejects(self, monkeypatch, enabled):
        # HODGE reads the sides and kx3 alone, so one record per (kx3, left
        # side) stands for all its (alpha_plus, beta_plus).  Without
        # FANO_DEGREE_RIGHT the point side's failing lookup skips each side
        # at the kx3 that the degree skip would.  HYPERELLIPTIC_SYM, which
        # reads kx3 alone on this walk, skips the 6 sides at kx3 = 2 that
        # HODGE passes (32 -> 26).
        log = _decided_sides(monkeypatch)
        enumerate_e1estar(ContractionType.E2, enabled)
        visited = {(kx3, left) for kx3, left, _ in log}
        assert len(visited) == 26
        hodge, sym = REGISTRY["HODGE"].passes, REGISTRY["HYPERELLIPTIC_SYM"].passes
        sides = passing = 0
        for kx3 in KX3_VALUES:
            for r in G_MAX:
                for d, g, *_ in search._e1_side_list(kx3, r, enabled, "left")[0]:
                    candidate = record("e1e2", (kx3, r, d, g, 1, -1))
                    passes = hodge(candidate) and sym(candidate)
                    assert passes == ((kx3, candidate.left) in visited), (kx3, r, d, g)
                    sides += 1
                    passing += hodge(candidate)
        assert (sides, passing) == (420, 32)

    def test_gcd_filter_leaves_out_exactly_the_alpha_pluses_gcd_left_rejects(self):
        # GCD_LEFT reads the left index and the pair (its scope on star_pairs);
        # the side's (d, g) do not matter.
        gcd_left = REGISTRY["GCD_LEFT"].passes
        cells = kept = 0
        for r in G_MAX:
            for bp in range(-r, 0):
                alpha_pluses = search._gcd_left_alpha_pluses(r, bp)
                for ap in range(1, MAX_ALPHA_PLUS + 1):
                    candidate = record("e1e3", (2, r, 1, 0, ap, bp))
                    assert gcd_left(candidate) == (ap in alpha_pluses), (r, bp, ap)
                    cells += 1
                    kept += ap in alpha_pluses
        assert (cells, kept) == (860, 344)

    def test_untraced_runs_read_the_current_hodge_table(self, monkeypatch):
        # The Hodge values are looked up per run: under a changed catalog an
        # untraced run must match a run that decides HODGE on every record,
        # here the same walk without HODGE filtered through HODGE's verdict.
        # Raising h12 at (1, 16) drops three e1e1 rows and adds an e1e2 row.
        hodge = REGISTRY["HODGE"].passes
        baseline = {f: enumerate_family(f, self.NO_DIOPHANTINE) for f in ("e1e1", "e1e2")}
        mutated = dict(catalog.load_hodge_table())
        mutated[(1, 16)] += 1
        monkeypatch.setattr(catalog, "load_hodge_table", lambda: mutated)
        for family, rows in baseline.items():
            out = enumerate_family(family, self.NO_DIOPHANTINE)
            without = enumerate_family(family, self.NO_DIOPHANTINE - {"HODGE"})
            assert out == tuple(c for c in without if hodge(c)), family
            assert out != rows, family

    def test_traced_e1e2_names_hodge_under_the_current_table(self, monkeypatch):
        # A traced E1-point run decides HODGE per side too, so under a
        # changed catalog its full events must name HODGE exactly where the
        # check fails on the rebuilt record.  The first run, under the
        # packaged table, leaves behind whatever a value kept across runs
        # would hold.  Raising h12 at (1, 12) moves HODGE's verdict on some
        # records (10 new full events) and drops a row.
        hodge = REGISTRY["HODGE"].passes

        def traced():
            log = []
            out = enumerate_family("e1e2", trace=lambda s, d, f: log.append((s, d, f)))
            return out, [(data, "HODGE" in failed) for s, data, failed in log if s == "full"]

        rows, before = traced()
        mutated = dict(catalog.load_hodge_table())
        mutated[(1, 12)] += 1
        monkeypatch.setattr(catalog, "load_hodge_table", lambda: mutated)
        out, after = traced()
        for data, named in after:
            assert named == (not hodge(record("e1e2", data))), data
        assert all(map(hodge, out))
        assert (len(rows), len(out)) == (3, 2)
        assert len(set(after) - set(before)) == 10


# How each E1 walk, named by its pair function, decides the checks outside
# its kernel (search.E1E1_KERNEL, E1STAR_KERNEL).  BEFORE: the checks it
# decides before the kernel, by its side lists and kx3 walk, and on E1-point
# per kx3, per left side and per (r, beta_plus, alpha_plus).  BUILT: the
# checks its pairs pass by construction, each with the checks that needs
# enabled (see the walks' docstrings).
_NONE = frozenset()
_EVERY = {e1e1_pairs: _NONE, star_pairs: _NONE}
_SIDES = {"SIGMA_POS", "KX3_RANGE", "FANO_DEGREE_LEFT", "FANO_DEGREE_RIGHT"}
BEFORE = {e1e1_pairs: _SIDES, star_pairs: _SIDES | {"GCD_LEFT", "HODGE", "HYPERELLIPTIC_SYM"}}
BUILT = {
    "DIOPHANTINE": {e1e1_pairs: {"DIOPHANTINE"}},  # the genus-form test, TestGenusJoin
    "COEFF_RELATIONS": {**_EVERY, e1e1_pairs: {"SIGMA_POS"}},
    "GCD_RIGHT": {star_pairs: _NONE},
    "COEFF_INTEGRALITY": _EVERY,
    "ALPHA_PLUS_BOUND": _EVERY,
    "BETA_PLUS_RANGE": _EVERY,
}


def _decided_by(pairs, enabled=frozenset()):
    """The checks BUILT says every record of the pairs' walk passes, given enabled."""
    return [
        name for name in REGISTRY if pairs in BUILT.get(name, {}) and BUILT[name][pairs] <= enabled
    ]


class TestConstructionDecided:
    # Each check that BUILT says an E1 walk's pair function decides passes
    # on every pair that function makes over the walk's whole box, so the
    # walk's kernel may leave it out.  Each pair is checked on a record
    # derived from sides that make it; these verdicts read the pairs, the
    # side types and the left index.  The symmetric walk runs every enabled
    # check on each record (search._admit), so its pairs are checked against
    # the six checks they pass by construction.

    def test_the_table_names_each_construction_decided_check(self):
        # Over the registry, each walk decides every check before its kernel,
        # by construction or in it; only COEFF_RELATIONS is both built and in
        # the E1-E1 kernel, which leaves it out while SIGMA_POS is enabled.
        for pairs, kernel in ((e1e1_pairs, search.E1E1_KERNEL), (star_pairs, search.E1STAR_KERNEL)):
            built = set(_decided_by(pairs, DEFAULT_CHECKS))
            assert BEFORE[pairs].isdisjoint(built | set(kernel)), pairs
            assert BEFORE[pairs] | built | set(kernel) == set(REGISTRY), pairs
            assert built & set(kernel) == ({"COEFF_RELATIONS"} if pairs is e1e1_pairs else set())

    def test_e1e1_pairs_on_sigma_pos_kept_sides(self):
        # e1e1_pairs reads (kx3, r, rp, sigma, sigma_plus) alone, so the
        # pairs of every pair of sides that SIGMA_POS keeps (the widest lists
        # a walk with it enabled builds) are the pairs of 124,993 distinct
        # argument tuples; 9,469 of those pairs differ.
        names = _decided_by(e1e1_pairs, frozenset({"SIGMA_POS"}))
        assert names == [
            "COEFF_RELATIONS", "COEFF_INTEGRALITY", "ALPHA_PLUS_BOUND", "BETA_PLUS_RANGE"
        ]
        args, records = 0, {}
        for kx3 in KX3_VALUES:
            terms = {r: {} for r in G_MAX}
            for r in G_MAX:
                for _, _, sig, _, term in search._pruned_sides(kx3, r, True, False)[0]:
                    terms[r].setdefault(sig, term)
            for r in G_MAX:
                for rp in range(1, r + 1):
                    for sig, left in terms[r].items():
                        for sig_p, right in terms[rp].items():
                            args += 1
                            pairs = e1e1_pairs(kx3, r, rp, sig, sig_p)
                            if pairs not in records:
                                sides = formulas.side_terms(kx3, left, right)
                                records[pairs] = formulas.derive(sides, *pairs)
        assert (args, len(records)) == (124_993, 9_469)
        for name in names:
            assert all(map(REGISTRY[name].passes, records.values())), name

    def test_star_pairs_over_the_box(self):
        # star_pairs reads (alpha_plus, beta_plus) alone; beta_plus runs over
        # -r..-1 for a left side of index r.
        names = _decided_by(star_pairs)
        assert names == [
            "COEFF_RELATIONS", "GCD_RIGHT", "COEFF_INTEGRALITY", "ALPHA_PLUS_BOUND",
            "BETA_PLUS_RANGE",
        ]
        records = [
            record(family, (2, r, 1, 0, ap, bp))
            for family in ("e1e2", "e1e3", "e1e5")
            for r in G_MAX
            for bp in range(-r, 0)
            for ap in range(1, MAX_ALPHA_PLUS + 1)
        ]
        assert len(records) == 3 * 10 * MAX_ALPHA_PLUS
        for name in names:
            assert all(map(REGISTRY[name].passes, records)), name

    def test_symmetric_pairs_over_the_divisor_walk(self):
        # Every divisor alpha of 2c, at kx3 = 2c/alpha in the domain or not.
        names = [
            "COEFF_RELATIONS", "GCD_LEFT", "GCD_RIGHT", "COEFF_INTEGRALITY", "ALPHA_PLUS_BOUND",
            "BETA_PLUS_RANGE",
        ]
        records = [
            record(family_id(star, star), (2 * star_sigma(star) // alpha, alpha))
            for star in (ContractionType.E2, ContractionType.E34, ContractionType.E5)
            for alpha in range(1, 2 * star_sigma(star) + 1)
            if 2 * star_sigma(star) % alpha == 0
        ]
        assert len(records) == 4 + 3 + 2
        for name in names:
            assert all(map(REGISTRY[name].passes, records)), name


class TestPrimitiveSkip:
    # On E1-E1's closed-form pairs (formulas.e1e1_pairs) alpha = n/(r*kx3)
    # and alpha_plus = n/(rp*kx3), so both sides' basis decompositions have
    # the lead coefficient n/kx3: a pair with kx3 not dividing n fails both
    # GCD_LEFT and GCD_RIGHT.  An untraced walk with either enabled skips it
    # before deciding (search.enumerate_e1e1); the kernel still decides both
    # on every pair it keeps, and a traced walk decides every pair.
    NO_GCD = DEFAULT_CHECKS - {"GCD_LEFT", "GCD_RIGHT"}
    # The default checks, each single-check ablation that keeps DIOPHANTINE
    # (each walks the genus-form partners) and both GCD checks off.
    CHECK_SETS = [
        DEFAULT_CHECKS,
        *(DEFAULT_CHECKS - {name} for name in REGISTRY if name != "DIOPHANTINE"),
        NO_GCD,
    ]

    def test_both_gcd_checks_fail_wherever_kx3_does_not_divide_n(self):
        # Both verdicts read the sides' indices and the pairs alone
        # (checks._primitive), and the pairs are fixed by (kx3, r, rp, n).
        # So one pair per distinct (kx3, r, rp, n) over the widest side
        # lists, a run's without SIGMA_POS (an excess may be 0 or negative),
        # stands for every pair any walk makes.
        gcd_left, gcd_right = (REGISTRY[name].passes for name in ("GCD_LEFT", "GCD_RIGHT"))
        tuples = skipped = 0
        for kx3 in KX3_VALUES:
            terms = {r: {} for r in G_MAX}
            for r in G_MAX:
                for _, _, sig, _, term in search._pruned_sides(kx3, r, False, False)[0]:
                    terms[r].setdefault(sig, term)
            for r in G_MAX:
                for rp in range(1, r + 1):
                    by_n = {
                        pairs[0][0]: (pairs, left, right)
                        for sig, left in terms[r].items()
                        for sig_p, right in terms[rp].items()
                        for pairs in [e1e1_pairs(kx3, r, rp, sig, sig_p)]
                    }
                    for n, (pairs, left, right) in by_n.items():
                        tuples += 1
                        if n % kx3:
                            rec = formulas.derive(formulas.side_terms(kx3, left, right), *pairs)
                            assert not gcd_left(rec), (kx3, r, rp, n)
                            assert not gcd_right(rec), (kx3, r, rp, n)
                            skipped += 1
        assert (tuples, skipped) == (19_833, 14_485)

    def test_untraced_runs_decide_the_traced_tuples_whose_n_kx3_divides(self, monkeypatch):
        # Both walks take the genus-form join, so an untraced run decides
        # the traced run's tuples less exactly those with kx3 not dividing
        # n, and all of them with both GCD checks off.
        log = []

        def logged(sides, pairs, kernel, trace, data, *rest):
            log.append((data, pairs[0][0] % data[0] == 0))

        monkeypatch.setattr(search, "_decide", logged)
        skips = {}  # disabled checks: (tuples skipped, traced tuples with kx3 not dividing n)
        for enabled in self.CHECK_SETS:
            runs = []
            for hook in (_QuietHook(), None):
                log.clear()
                enumerate_e1e1(enabled, hook)
                runs.append(list(log))
            traced, untraced = runs
            gcd = enabled != self.NO_GCD
            kept = [data for data, divides in traced if divides or not gcd]
            off = tuple(sorted(DEFAULT_CHECKS - enabled))
            assert [data for data, _ in untraced] == kept, off
            skips[off] = (len(traced) - len(kept), sum(not divides for _, divides in traced))
        assert skips == {off: (212, 212) for off in skips} | {
            ("SIGMA_POS",): (1_615, 1_615),
            ("FANO_DEGREE_LEFT",): (515, 515),
            ("FANO_DEGREE_RIGHT",): (418, 418),
            ("GCD_LEFT", "GCD_RIGHT"): (0, 212),
        }


class TestAblations:
    @pytest.mark.parametrize("check", REGISTRY)
    def test_single_check_ablation_matrix(self, enumerated, ablated, check):
        # Each cell, filtered through the full default suite, gives back the
        # default rows: no shortcut the ablation turns off (side prunes, the
        # kernels, the E1-E1 join, the E1-point alpha_plus pin, the
        # untraced kx3 skip, the symmetric domain prune) drops a row that
        # the checks admit.
        extras = {}
        for family in FAMILY_IDS:
            cell = ablated(check, family)
            assert tuple(c for c in cell if admitted(run_checks(c))) == enumerated[family], family
            out = set(cell)
            if len(out) > len(enumerated[family]):
                keys = repr(sorted(FAMILIES[c.family].key(c.cells()) for c in out)).encode()
                extras[family] = (len(out) - len(enumerated[family]), sha256(keys).hexdigest())
        assert extras == ABLATION_EXTRAS.get(check, {})

    def test_e1e1_literal_route_keeps_the_default_rows(self, enumerated, monkeypatch):
        # Without DIOPHANTINE and HODGE E1-E1 decides, and so derives, every
        # oriented pair whose alpha numerator kx3 divides (TestPrimitiveSkip),
        # and audits the 127 that pass its kernel (measured): the rows it
        # keeps.  The full default suite then keeps the default rows.
        log = _decided_sides(monkeypatch)
        derived = _derived_count(monkeypatch)
        built = _built_count(monkeypatch)
        out = enumerate_e1e1(DEFAULT_CHECKS - {"DIOPHANTINE", "HODGE"})
        assert (len(log), derived["e1e1"], built["e1e1"], len(out)) == (5_394, 5_394, 127, 127)
        assert tuple(c for c in out if admitted(run_checks(c))) == enumerated["e1e1"]

    def test_diophantine_off_derivations_are_pinned(self, monkeypatch):
        # Untraced, E1-E1 decides only the pairs whose Hodge values match and
        # whose alpha numerator kx3 divides, and E1-E2 only the alpha_plus
        # that pass GCD_LEFT on the left sides whose Hodge value matches the
        # point side's, away from kx3 = 2, where HYPERELLIPTIC_SYM fails
        # (measured; the decisions are proved in TestHodgeJoin,
        # TestPrimitiveSkip and TestE1PointDecisions).  Each derives every
        # tuple it decides, once, and audits only the tuples that pass the
        # kernel (TestKernel).
        log = _decided_sides(monkeypatch)
        derived = _derived_count(monkeypatch)
        built = _built_count(monkeypatch)
        records = {}
        for family in ("e1e1", "e1e2"):
            log.clear()
            enumerate_family(family, DEFAULT_CHECKS - {"DIOPHANTINE"})
            records[family] = len(log)
        assert records == derived == {"e1e1": 523, "e1e2": 2_236}
        assert built == {"e1e1": 111, "e1e2": 4}

    def test_sigma_floor_ablation_admits_the_phantom_row(self, enumerated, ablated):
        out = ablated("SIGMA_POS", "e1e1")
        assert set(enumerated["e1e1"]) <= set(out)
        assert len(out) == 249
        extra = [c for c in out if c not in enumerated["e1e1"]]
        # Exactly one extra has positive excess on both sides: the floor
        # (excess >= 3, not mere positivity) is what keeps it out.
        floor_only = [
            (c.kx3, (c.left.r, c.left.d, c.left.g), (c.right.r, c.right.d, c.right.g))
            for c in extra
            if c.sigma_left > 0 and c.sigma_right > 0
        ]
        assert floor_only == [(2, (1, 2, 1), (1, 2, 1))]

    def test_e1e1_checks_coeff_relations_while_sigma_pos_is_off(self, monkeypatch):
        # Without the SIGMA_POS side prune an excess may be 0 or negative, so
        # the closed-form alpha = (sigma*rp + r*sigma_plus)/(r*kx3) can
        # vanish: 308 tuples fail COEFF_RELATIONS, which the E1-E1 kernel
        # must keep (each also fails another check, so no row moves).  The
        # traced walk derives each of the 4,220 genus-form partners it
        # decides (TestKernel) and audits only the 249 rows it keeps.
        named = Counter()
        derived = _derived_count(monkeypatch)
        built = _built_count(monkeypatch)

        def trace(stage, data, failed):
            if "COEFF_RELATIONS" in failed:
                named[stage] += 1

        out = enumerate_e1e1(DEFAULT_CHECKS - {"SIGMA_POS"}, trace=trace)
        assert named == {"full": 308}
        assert len(out) == 249
        assert derived == {"e1e1": 4_220}
        assert built == {"e1e1": 249}

    def test_hyperelliptic_ablation_admits_asymmetric_degree_two_bodies(self, enumerated, ablated):
        out3 = ablated("HYPERELLIPTIC_SYM", "e1e3")
        extra3 = {
            (c.kx3, (c.left.r, c.left.d, c.left.g))
            for c in out3
            if c not in enumerated["e1e3"]
        }
        assert extra3 == {(2, (1, 8, 3)), (2, (2, 4, 2)), (2, (4, 12, 18))}
        out5 = ablated("HYPERELLIPTIC_SYM", "e1e5")
        extra5 = {
            (c.kx3, (c.left.r, c.left.d, c.left.g))
            for c in out5
            if c not in enumerated["e1e5"]
        }
        assert extra5 == {(2, (1, 5, 2)), (2, (2, 1, 0))}

    def test_defect_ablation_on_symmetric_family_is_a_superset(self, enumerated, ablated):
        out = ablated("DEFECT_POSITIVE", "e2e2")
        assert set(enumerated["e2e2"]) <= set(out)
        # Measured: no symmetric point-type body fails the defect sign alone.
        assert out == enumerated["e2e2"]


def _rebuilt_trace(enabled: frozenset[str], every_stage: bool = True) -> tuple[Counter, int, int]:
    """Rebuild the tuples of a traced all-family run's full (and E1-E1 pair-fast and domain) events.

    A full record, checked under enabled, must fail exactly the checks its
    event names; with every_stage, an E1-E1 pair-fast one DIOPHANTINE and
    a domain one KX3_RANGE.  Returns the full events per family and the
    other two counts.
    """
    full, fast, domain = Counter(), 0, 0
    for family in FAMILY_IDS:
        events = []
        enumerate_family(family, enabled, trace=lambda s, d, f: events.append((s, d, f)))
        for stage, data, failed in events:
            if stage == "full":
                reports = run_checks(record(family, data), enabled)
                assert tuple(rep.name for rep in reports if not rep.passed) == failed, data
                full[family] += 1
            elif stage == "pair-fast" and family == "e1e1":
                assert not every_stage or not REGISTRY["DIOPHANTINE"].passes(record(family, data))
                fast += 1
            elif stage == "domain":
                assert not every_stage or not REGISTRY["KX3_RANGE"].passes(record(family, data))
                domain += 1
    return full, fast, domain


# Full events per family, and E1-E1 pair-fast events, of a traced
# all-family run with one check disabled (measured).
ABLATED_TRACE_EVENTS = {
    "HODGE": ({"e1e1": 495, "e1e2": 282, "e1e3": 242, "e1e5": 154}, 9728),
    "GCD_LEFT": ({"e1e1": 510, "e1e2": 286, "e1e3": 242, "e1e5": 154}, 9728),
    "HYPERELLIPTIC_SYM": ({"e1e1": 511, "e1e2": 286, "e1e3": 239, "e1e5": 152}, 9728),
    "FANO_DEGREE_RIGHT": ({"e1e1": 1200, "e1e2": 286, "e1e3": 242, "e1e5": 154}, 94556),
}


class TestTracing:
    def test_trace_stream_covers_stages_and_matches_output(self, enumerated):
        events = []

        def trace(stage, data, failed):
            events.append((stage, data, failed))

        out = enumerate_e1e1(trace=trace)
        assert out == enumerated["e1e1"]
        stages = {stage for stage, _, _ in events}
        assert stages <= {"side-left", "side-right", "pair-fast", "full"}
        assert {"side-left", "side-right", "pair-fast"} <= stages
        for _, _, failed in events:
            assert failed
            assert set(failed) <= DEFAULT_CHECKS

    def test_trace_reports_the_sigma_floor_prune(self):
        events = []
        enumerate_e1e1(trace=lambda s, d, f: events.append((s, d, f)))
        assert ("side-left", (2, 1, 2, 1), ("SIGMA_POS",)) in events

    def test_cached_side_lists_replay_their_prunes(self):
        # The first run builds every side list, which the right sides and
        # the second run replay: both sides prune alike, so share entries.
        search._pruned_sides.cache_clear()
        runs = []
        for _ in range(2):
            events = []
            enumerate_e1e1(trace=lambda s, d, f: events.append((s, d, f)))
            runs.append(events)
        info = search._pruned_sides.cache_info()
        # One entry per (kx3, r): 11 central degrees times 4 indices.
        assert (info.misses, info.hits) == (44, 132)
        assert runs[0] == runs[1]
        # The replayed prunes come in the order of the side loop itself.
        expected = []
        for kx3 in KX3_VALUES:
            for r in range(1, 5):
                for d in range(1, D_MAX + 1):
                    for g in range(G_MAX[r] + 1):
                        side = SideData(ContractionType.E1, r, d, g)
                        if sigma(r, d, g) < E1_SIGMA_MIN:
                            failed = ("SIGMA_POS",)
                        elif not is_valid_fano_degree(r, ky3_from_kx3(kx3, side)):
                            failed = ("FANO_DEGREE_LEFT",)
                        else:
                            continue
                        expected.append(("side-left", (kx3, r, d, g), failed))
        assert [event for event in runs[1] if event[0] == "side-left"] == expected

    def test_default_run_funnel_is_pinned(self):
        funnel = {}
        for family in FAMILY_IDS:
            counts = Counter()
            out = enumerate_family(family, trace=lambda s, d, f: counts.update([f"{s}.{f[0]}"]))
            funnel[family] = {**counts, "admitted": len(out)}
        assert funnel == DEFAULT_FUNNEL

    def test_default_run_derivations_are_pinned(self, monkeypatch):
        # A default run decides every tuple that passes its family's pair
        # test and, on E1-E1, has an alpha numerator kx3 divides
        # (TestPrimitiveSkip) or, on the E1-point families, passes the checks
        # decided before (TestE1PointDecisions): the E1 walks in their kernel
        # (search._decide), the symmetric walk on its record.  Either derives
        # each tuple it decides once, and a run, traced or not, audits
        # (build_candidate) only the 134 rows it keeps.
        decided = Counter()
        derived = _derived_count(monkeypatch)
        built = _built_count(monkeypatch)
        decide = search._decide

        def counted_decide(sides, *args):
            fields = sides[0]
            decided[family_id(fields[1].ctype, fields[2].ctype)] += 1
            return decide(sides, *args)

        monkeypatch.setattr(search, "_decide", counted_decide)
        symmetric = Counter({"e2e2": 3, "e3e3": 2, "e5e5": 1})
        for family in FAMILY_IDS:
            enumerate_family(family)
        assert decided == {"e1e1": 410, "e1e2": 6, "e1e3": 71, "e1e5": 48}
        assert derived == decided + symmetric
        assert built == EXPECTED_COUNTS
        assert sum(built.values()) == 134
        # A traced run takes the same genus-form join, reporting the right
        # sides between two partners as pair-fast blocks, and on the E1-point
        # walks decides every pinned tuple (TestE1PointPreTest).  E1-E1
        # decides and derives all 622 genus-form partners and audits the 111
        # it keeps.
        for counts in (decided, derived, built):
            counts.clear()
        for family in FAMILY_IDS:
            enumerate_family(family, trace=lambda s, d, f: None)
        assert decided == {"e1e1": 622, "e1e2": 289, "e1e3": 249, "e1e5": 161}
        assert derived == decided + symmetric
        assert built == EXPECTED_COUNTS

    def test_trace_tuples_rebuild_their_records(self):
        # Each full event carries its family's explain tuple: the record
        # rebuilt from it fails exactly the checks the event names, under the
        # default suite that explain runs.  Each E1-E1 pair-fast tuple fails
        # DIOPHANTINE, which the genus-form test stands for, and each
        # symmetric domain tuple fails KX3_RANGE.
        full, fast, domain = _rebuilt_trace(DEFAULT_CHECKS)
        assert full == {"e1e1": 511, "e1e2": 286, "e1e3": 242, "e1e5": 154}
        assert (fast, domain) == (9728, 3)

    @pytest.mark.parametrize("check", ABLATED_TRACE_EVENTS)
    def test_ablated_trace_tuples_rebuild_their_records(self, check):
        # The same under each check the E1-point walk decides before
        # deriving, disabled: every full tuple, rebuilt and checked under the
        # run's enabled set, fails exactly the checks its event names.  The
        # E1-E1 pair-fast tuples, 94,556 without FANO_DEGREE_RIGHT, are only
        # counted: TestGenusJoin proves the traced join.
        full, fast, domain = _rebuilt_trace(DEFAULT_CHECKS - {check}, every_stage=False)
        assert (full, fast, domain) == (*ABLATED_TRACE_EVENTS[check], 3)

    def test_star_family_trace(self, enumerated):
        events = []
        out = enumerate_e1estar(ContractionType.E2, trace=lambda s, d, f: events.append(s))
        assert out == enumerated["e1e2"]
        assert "pair-fast" in events

    def test_symmetric_domain_trace(self, enumerated):
        events = []
        out = enumerate_symmetric(
            ContractionType.E5, trace=lambda s, d, f: events.append((s, d, f))
        )
        assert out == enumerated["e5e5"]
        # alpha = 2 forces the odd central degree 1, rejected at the domain stage.
        assert ("domain", (1, 2), ("KX3_RANGE",)) in events

    def test_symmetric_trace_never_names_a_disabled_check(self):
        # The domain prune runs only while KX3_RANGE, which it stands for, is on.
        for check in REGISTRY:
            for family in ("e2e2", "e3e3", "e5e5"):
                named = set()
                enumerate_family(
                    family, DEFAULT_CHECKS - {check}, trace=lambda s, d, f: named.update(f)
                )
                assert check not in named, (check, family)


class TestE1PointPreTest:
    # The families of an E1 side against a point side.
    STAR_FAMILIES = [f for f, spec in FAMILIES.items() if spec.types[0] is not spec.types[1]]

    @pytest.mark.parametrize("family", STAR_FAMILIES)
    def test_traced_run_without_the_pre_test_admits_the_same(self, family):
        assert enumerate_family(family) == enumerate_family(family, trace=lambda s, d, f: None)

    def test_pre_test_runs_only_without_a_trace(self, monkeypatch):
        # A traced run decides every pinned tuple in the kernel, and only
        # the admitted ones reach build_candidate.  An untraced run skips,
        # before deciding, each tuple that a check decided per kx3, left side
        # or (r, beta_plus, alpha_plus) fails (TestE1PointDecisions):
        # HYPERELLIPTIC_SYM at kx3 = 2 and GCD_LEFT on every family; on e1e2
        # alone (E3/E4 and E5 targets have no index) FANO_DEGREE_RIGHT at
        # kx3 = 12 and 16..22 (kY3 = kx3 + 8 must be an index-1 Fano degree)
        # and HODGE on each left side whose value differs from the point side's.
        # The kernel decides the rest on each tuple's record, traced or not,
        # so either run derives each tuple it decides once and audits the
        # admitted tuples alone.
        records, derived, built = Counter(), Counter(), Counter()
        decide, derive, build = search._decide, search.derive, search.build_candidate

        def counted_decide(*args):
            records[traced, args[0][0][2].ctype] += 1
            return decide(*args)

        def counted_derive(*args):
            derived[traced, args[0][0][2].ctype] += 1
            return derive(*args)

        def counted_build(record):
            built[traced, record.right.ctype] += 1
            return build(record)

        monkeypatch.setattr(search, "_decide", counted_decide)
        monkeypatch.setattr(search, "derive", counted_derive)
        monkeypatch.setattr(search, "build_candidate", counted_build)
        for traced in (False, True):
            for family in self.STAR_FAMILIES:
                enumerate_family(family, trace=(lambda s, d, f: None) if traced else None)
        assert records == {
            (False, ContractionType.E2): 6,
            (False, ContractionType.E34): 71,
            (False, ContractionType.E5): 48,
            (True, ContractionType.E2): 289,
            (True, ContractionType.E34): 249,
            (True, ContractionType.E5): 161,
        }
        assert derived == records
        assert built == {
            (traced, star): count
            for traced in (False, True)
            for star, count in (
                (ContractionType.E2, 3), (ContractionType.E34, 7), (ContractionType.E5, 7)
            )
        }


def _decided(monkeypatch, family: str, enabled: frozenset[str], traced: bool) -> list[tuple]:
    """The (tuple, decided failures) of each tuple a run decides, logged from search._decide."""
    log, decide = [], search._decide

    def logged(sides, pairs, kernel, trace, data, results, known=frozenset()):
        log.append((data, known))
        return decide(sides, pairs, kernel, trace, data, results, known)

    monkeypatch.setattr(search, "_decide", logged)
    enumerate_family(family, enabled, trace=(lambda s, d, f: None) if traced else None)
    monkeypatch.setattr(search, "_decide", decide)
    return log


class TestE1PointDecisions:
    # The E1-point walk decides four checks before the kernel, once per kx3
    # (FANO_DEGREE_RIGHT, HYPERELLIPTIC_SYM), left side (HODGE) or (r,
    # beta_plus, alpha_plus) (GCD_LEFT), and hands the failing ones to
    # _decide.  A traced run decides every pinned tuple: every kx3, left
    # side of the side lists and beta_plus whose alpha_plus is pinned in
    # range.  Each proof holds the decision on each of them to the check's
    # own verdict on the record, and the counts of (family, failing) to
    # their measured values.
    STAR_FAMILIES = ["e1e2", "e1e3", "e1e5"]
    NO_RIGHT = DEFAULT_CHECKS - {"FANO_DEGREE_RIGHT"}
    CASES = {
        "HYPERELLIPTIC_SYM": (
            DEFAULT_CHECKS,
            {"e1e2": (183, 106), "e1e3": (143, 106), "e1e5": (89, 72)},
        ),
        "GCD_LEFT": (
            DEFAULT_CHECKS,
            {"e1e2": (137, 152), "e1e3": (130, 119), "e1e5": (95, 66)},
        ),
        "HODGE": (
            DEFAULT_CHECKS,
            {"e1e2": (22, 267), "e1e3": (249, 0), "e1e5": (161, 0)},
        ),
        "HODGE-no-right": (
            NO_RIGHT,
            {"e1e2": (22, 267), "e1e3": (249, 0), "e1e5": (161, 0)},
        ),
        "FANO_DEGREE_RIGHT": (
            DEFAULT_CHECKS,
            {"e1e2": (249, 40), "e1e3": (249, 0), "e1e5": (161, 0)},
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_each_decision_is_the_checks_verdict(self, monkeypatch, case):
        name = case.split("-")[0]
        enabled, expected = self.CASES[case]
        passes = REGISTRY[name].passes
        counts = {}
        for family in self.STAR_FAMILIES:
            failing = total = 0
            for data, known in _decided(monkeypatch, family, enabled, traced=True):
                fails = not passes(record(family, data))
                assert (name in known) == fails, (family, data)
                total += 1
                failing += fails
            counts[family] = (total - failing, failing)
        assert counts == expected

    @pytest.mark.parametrize("enabled", [DEFAULT_CHECKS, NO_RIGHT], ids=["all", "no-right"])
    def test_untraced_runs_derive_exactly_the_undecided_tuples(self, monkeypatch, enabled):
        # The decided failures are enabled checks among the four, and an
        # untraced run skips, before deciding, exactly the tuples with one.
        decidable = enabled & {name.split("-")[0] for name in self.CASES}
        for family in self.STAR_FAMILIES:
            traced = _decided(monkeypatch, family, enabled, traced=True)
            assert all(known <= decidable for _, known in traced)
            untraced = _decided(monkeypatch, family, enabled, traced=False)
            assert untraced == [(data, known) for data, known in traced if not known], family


def _walk_log(family: str, enabled: frozenset[str], traced: bool) -> tuple[tuple, ...]:
    """Each tuple's (sides, pairs, kernel, data, known) a run hands to search._decide, undecided."""
    log, decide = [], search._decide

    def logged(sides, pairs, kernel, trace, data, results, known=frozenset()):
        log.append((sides, pairs, kernel, data, known))

    search._decide = logged
    try:
        enumerate_family(family, enabled, trace=(lambda s, d, f: None) if traced else None)
    finally:
        search._decide = decide
    return tuple(log)


def _kernel_failures(family: str, entry: tuple) -> list[str]:
    """The kernel's failures on a logged tuple, as a traced search._decide names them.

    The one record _decide derives must be search.record's candidate of
    the tuple.  Its trace must name the kernel checks whose registry
    verdict fails on that candidate, with the tuple's known failures, in
    registry order; and it keeps the candidate exactly when it names none.
    """
    sides, pairs, kernel, data, known = entry
    derived, events, kept, derive = [], [], [], search.derive

    def logged_derive(*args):
        derived.append(derive(*args))
        return derived[-1]

    search.derive = logged_derive
    try:
        search._decide(sides, pairs, kernel, lambda *event: events.append(event), data, kept, known)
    finally:
        search.derive = derive
    candidate = record(family, data)
    assert derived == [candidate], data
    failed = [name for name, _ in kernel if not REGISTRY[name].passes(candidate)]
    named = search._in_registry_order(known.union(failed))
    assert events == ([("full", data, named)] if named else []), data
    assert kept == ([] if named else [candidate]), data
    return [name for name in named if name not in known]


@functools.lru_cache(maxsize=1)  # one family's log (about 11 MB) at a time
def _no_diophantine_log(family: str) -> tuple[tuple, ...]:
    return _walk_log(family, DEFAULT_CHECKS - {"DIOPHANTINE"}, False)


class TestKernel:
    # Both E1 walks decide the checks of their kernel (search.E1E1_KERNEL,
    # E1STAR_KERNEL) on each tuple's record (search._decide): the cube
    # checks, then on the E1-E1 walk GCD_LEFT, GCD_RIGHT, HODGE and
    # HYPERELLIPTIC_SYM (and COEFF_RELATIONS without SIGMA_POS), on the
    # E1-point one DIOPHANTINE.
    # The proofs log the tuples each walk decides and hold _decide's
    # record and verdicts on them to the registry.
    NO_DIOPHANTINE = DEFAULT_CHECKS - {"DIOPHANTINE"}
    CUBES = ["ETILDE_INTEGRAL", "DEFECT_POSITIVE", "DEFECT_DIVISIBLE"]
    E1E1_SIDES = ["GCD_LEFT", "GCD_RIGHT", "HODGE", "HYPERELLIPTIC_SYM"]
    E1_FAMILIES = ["e1e1", "e1e2", "e1e3", "e1e5"]
    # The default checks and each single-check ablation.
    CHECK_SETS = [DEFAULT_CHECKS, *(DEFAULT_CHECKS - {name} for name in REGISTRY)]

    @pytest.mark.parametrize("family", E1_FAMILIES)
    def test_each_enabled_check_is_decided_exactly_once(self, monkeypatch, family):
        # Each walk's kernel, named and in order, under every check set: the
        # default kernel less the disabled check, and on E1-E1 without
        # SIGMA_POS COEFF_RELATIONS right after the cubes, its pairs no longer
        # passing it by construction.  An E1 walk keeps only what its kernel
        # passes, so every enabled check must be exactly one of: decided
        # before the kernel (BEFORE), passed by the walk's pairs (BUILT, with
        # what it needs enabled), or in the kernel.
        pairs = e1e1_pairs if family == "e1e1" else star_pairs
        default = self.CUBES + (self.E1E1_SIDES if pairs is e1e1_pairs else ["DIOPHANTINE"])
        kernels = set()
        monkeypatch.setattr(search, "_decide", lambda sides, pairs, kernel, *_: kernels.add(kernel))
        for enabled in self.CHECK_SETS:
            kernels.clear()
            enumerate_family(family, enabled)
            expected = [name for name in default if name in enabled]
            if pairs is e1e1_pairs and "SIGMA_POS" not in enabled:
                expected[3:3] = ["COEFF_RELATIONS"]
            named = {tuple(name for name, _ in kernel) for kernel in kernels}
            assert named == {tuple(expected)}, enabled
            (kernel,) = kernels
            assert all(passes is REGISTRY[name].passes for name, passes in kernel), enabled
            for name in enabled:
                ways = (
                    name in BEFORE[pairs],
                    pairs in BUILT.get(name, {}) and BUILT[name][pairs] <= enabled,
                    name in expected,
                )
                assert sum(ways) == 1, (name, enabled)

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("family", E1_FAMILIES)
    def test_every_e1_run_keeps_every_record_it_derives(self, monkeypatch, family, traced):
        # Under the default checks and each single-check ablation.  A run
        # derives each tuple it decides once, and keeps, audited, the very
        # records it derives that pass its kernel and no check decided
        # before (a traced run's known failures): nothing else.  The hook
        # takes blocks whole, so a traced run makes no per-event call.
        log = _decided_sides(monkeypatch)
        derived = _derived_count(monkeypatch)
        built = _built_count(monkeypatch)
        passed, last, derive, decide = [], [], search.derive, search._decide

        def logged_derive(*args):
            last.append(derive(*args))
            return last[-1]

        def logged_decide(sides, pairs, plan, trace, data, results, known=frozenset()):
            last.clear()
            decide(sides, pairs, plan, trace, data, results, known)
            (candidate,) = last  # the one record _decide derives
            if not known and all(REGISTRY[name].passes(candidate) for name, _ in plan):
                passed.append(candidate)

        monkeypatch.setattr(search, "derive", logged_derive)
        monkeypatch.setattr(search, "_decide", logged_decide)
        hook = _QuietHook() if traced else None
        for enabled in self.CHECK_SETS:
            for counts in (log, derived, built, passed):
                counts.clear()
            out = enumerate_family(family, enabled, trace=hook)
            ablated = sorted(DEFAULT_CHECKS - enabled)
            assert (derived[family], built[family]) == (len(log), len(out)), ablated
            assert sorted(map(id, passed)) == sorted(map(id, out)), ablated

    # (family, enabled set, traced): the tuples the walk decides, how many
    # fail each kernel check and how many pass them all (measured).  E1-E1,
    # traced, decides all 622 genus-form partners, untraced the 410 of them
    # whose alpha numerator kx3 divides (TestPrimitiveSkip); without
    # DIOPHANTINE, traced, it decides all 10,350 oriented pairs over the
    # kept sides; without SIGMA_POS, traced, the 4,220 genus-form partners
    # over its wider side lists, where COEFF_RELATIONS joins the kernel.
    # An untraced E1-point walk without DIOPHANTINE decides each alpha_plus
    # that no check decided before the kernel fails, a traced default one
    # each pinned alpha_plus.
    CASES = {
        "e1e1": (DEFAULT_CHECKS, False, 410, (28, 236, 78, 76, 64, 162, 44), 111),
        "e1e1-traced": (DEFAULT_CHECKS, True, 622, (237, 446, 287, 288, 276, 175, 44), 111),
        "e1e1-no-diophantine": (
            NO_DIOPHANTINE, True, 10_350, (6_634, 9_331, 10_015, 7_589, 7_042, 9_374, 2_926), 111
        ),
        "e1e1-no-sigma-pos": (
            DEFAULT_CHECKS - {"SIGMA_POS"},
            True,
            4_220,
            (1_821, 3_478, 1_974, 308, 2_030, 1_958, 2_520, 398),
            249,
        ),
        "e1e2": (DEFAULT_CHECKS, True, 289, (71, 223, 277, 275), 12),
        "e1e2-no-diophantine": (NO_DIOPHANTINE, False, 2_236, (0, 2_202, 2_229), 4),
        "e1e3": (DEFAULT_CHECKS, True, 249, (50, 210, 236, 232), 10),
        "e1e5": (DEFAULT_CHECKS, True, 161, (66, 129, 149, 145), 9),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_kernel_verdicts_are_the_registrys(self, case):
        family = case.split("-")[0]
        enabled, traced, count, failing, passing = self.CASES[case]
        tuples = _walk_log(family, enabled, traced)
        failures = Counter()
        for entry in tuples:
            failures.update(_kernel_failures(family, entry) or ["none"])
        names = [name for name, _ in tuples[0][2]]
        assert len(tuples) == count
        assert (tuple(failures[name] for name in names), failures["none"]) == (failing, passing)

    @pytest.mark.parametrize("family", ["e1e3", "e1e5"])
    @given(index=st.integers(0, 29_497))
    def test_kernel_verdicts_are_the_registrys_on_e3_and_e5_samples(self, family, index):
        # Without DIOPHANTINE an untraced E1-E3/E4 or E1-E5 walk decides
        # 29,498 tuples each, too many to rebuild in Tier-1: sample them.
        tuples = _no_diophantine_log(family)
        assert len(tuples) == 29_498
        _kernel_failures(family, tuples[index])


class TestDispatch:
    @pytest.mark.parametrize("family", FAMILY_IDS)
    def test_enumerate_family_matches_direct_calls(self, enumerated, family):
        assert enumerate_family(family) == enumerated[family]

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="unknown family"):
            enumerate_family("e9e9")

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("NOT_A_CHECK", "unknown check ids: NOT_A_CHECK"),
            ("", "empty check id; fanolink --list-checks prints the valid ids"),
        ],
        ids=["unknown", "empty"],
    )
    @pytest.mark.parametrize("family", FAMILY_IDS)
    def test_every_walk_rejects_a_bad_check_id_on_every_call(self, family, bad, message):
        # Twice, so a cached plan cannot remember the failure.  The bad id
        # joins the default checks: alone it would disable every real check,
        # and a walk that failed to validate would then run unpruned.
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                enumerate_family(family, DEFAULT_CHECKS | {bad})

    def test_star_enumerators_reject_curve_type(self):
        with pytest.raises(ValueError):
            enumerate_e1estar(ContractionType.E1)
        with pytest.raises(ValueError):
            enumerate_symmetric(ContractionType.E1)


class TestOracle:
    @pytest.mark.parametrize("family", FAMILY_IDS)
    def test_oracle_equals_enumerator(self, enumerated, oracle, family):
        assert set(oracle[family]) == set(enumerated[family])
        assert tuple(sorted(oracle[family], key=canonical_sort_key)) == enumerated[family]

    def test_every_oracle_admission_runs_the_full_suite(self, monkeypatch):
        # The kernels belong to the enumerators: the oracle, the independent
        # route, decides each record it derives on all sixteen checks.
        seen = Counter()
        run = search.run_checks

        def recording(candidate, enabled=DEFAULT_CHECKS, short_circuit=False):
            seen[candidate.family, frozenset(enabled) == DEFAULT_CHECKS] += 1
            return run(candidate, enabled, short_circuit)

        monkeypatch.setattr(search, "run_checks", recording)
        for family in ("e1e1", "e1e2", "e2e2"):
            brute_force_oracle(family)
        assert seen == {("e1e1", True): 515, ("e1e2", True): 79, ("e2e2", True): 3}

    def test_oracle_left_sides_are_built_once_per_process(self, monkeypatch):
        lefts = search._oracle_left_sides()
        assert search._oracle_left_sides() is lefts
        assert lefts == search._oracle_left_sides.__wrapped__()
        assert len(lefts) == 420
        # A second E1-E1 oracle run makes degree calls for its right sides alone.
        brute_force_oracle("e1e1")
        calls = []
        degree_ok = search._degree_ok
        monkeypatch.setattr(
            search, "_degree_ok", lambda *args: calls.append(args) or degree_ok(*args)
        )
        brute_force_oracle("e1e1")
        assert len(calls) == 1090

    def test_oracle_unknown_family_raises(self):
        with pytest.raises(ValueError, match="unknown family"):
            brute_force_oracle("nope")

    def test_oracle_skips_exactly_the_sides_fano_degree_left_rejects(self):
        # SIGMA_POS and FANO_DEGREE_LEFT read the left side alone (the fixed
        # right side (1, 1, 0) has excess 3, so SIGMA_POS passes it), so
        # their verdict against it is their verdict on every candidate of
        # the left side.
        kept = {(kx3, r, d, g): sig for kx3, r, d, g, sig in search._oracle_left_sides()}
        left_checks = frozenset({"SIGMA_POS", "FANO_DEGREE_LEFT"})
        verdicts = Counter()
        for kx3 in KX3_VALUES:
            for r, grid in search._SIDE_GRID.items():
                for d, g in grid:
                    candidate = record("e1e1", (kx3, r, d, g, 1, 1, 0))
                    passes = admitted(run_checks(candidate, left_checks))
                    assert passes == ((kx3, r, d, g) in kept), (kx3, r, d, g)
                    verdicts[passes, sigma(r, d, g) >= E1_SIGMA_MIN] += 1
        assert all(sig == sigma(r, d, g) for (_, r, d, g), sig in kept.items())
        # Both checks skip sides: some with excess >= 3 fail on the degree.
        assert verdicts[True, True] == len(kept) > 0
        assert verdicts[False, True] > 0 and verdicts[False, False] > 0

    def test_oracle_skips_exactly_the_right_sides_fano_degree_right_rejects(self, monkeypatch):
        # FANO_DEGREE_RIGHT reads kx3 and the right side alone.  The E1-E1
        # oracle runs twice over the same left sides, with its right-side
        # skip and without it; the tuples only the second run derives are
        # the skipped ones.
        lefts = tuple(search._oracle_left_sides())
        monkeypatch.setattr(search, "_oracle_left_sides", lambda: iter(lefts))
        derived = []

        def recording_record(family, values):
            derived.append(values)
            return record(family, values)

        monkeypatch.setattr(search, "record", recording_record)
        with_skip = search._oracle_e1e1()
        kept = list(derived)
        derived.clear()
        monkeypatch.setattr(search, "_degree_ok", lambda *args: True)
        assert search._oracle_e1e1() == with_skip
        skipped = set(derived) - set(kept)
        for values in derived:
            passes = admitted(run_checks(record("e1e1", values), {"FANO_DEGREE_RIGHT"}))
            assert passes == (values not in skipped), values
        assert (len(derived), len(kept), len(skipped)) == (1090, 515, 575)

    def test_oracle_skips_only_right_sides_sigma_pos_rejects(self, monkeypatch):
        # SIGMA_POS reads the two sides alone.  With its floor lowered to 1
        # (any positive excess) the E1-E1 oracle solves more right sides
        # over the same left sides; every one it solves only then must fail
        # SIGMA_POS, and the admitted set must not change.
        lefts = tuple(search._oracle_left_sides())
        monkeypatch.setattr(search, "_oracle_left_sides", lambda: iter(lefts))
        derived = []

        def recording_record(family, values):
            derived.append(values)
            return record(family, values)

        monkeypatch.setattr(search, "record", recording_record)
        with_skip = search._oracle_e1e1()
        kept = set(derived)
        derived.clear()
        monkeypatch.setattr(search, "E1_SIGMA_MIN", 1)
        assert search._oracle_e1e1() == with_skip
        assert kept < set(derived)
        for values in set(derived) - kept:
            assert sigma(*values[4:]) < E1_SIGMA_MIN
            passes = admitted(run_checks(record("e1e1", values), {"SIGMA_POS"}))
            assert not passes, values

    def test_e1_point_oracle_skips_exactly_the_kx3_fano_degree_right_rejects(self, monkeypatch):
        # On a point side FANO_DEGREE_RIGHT reads kx3 alone.  The E1-point
        # oracles run twice over the same left sides, with the kx3 skip and
        # without it; the tuples only the second run derives are the
        # skipped ones, all on e1e2 (kY3 = kx3 + 8; E3/E4 and E5 targets
        # are singular and have no degree constraint).
        lefts = tuple(search._oracle_left_sides())
        monkeypatch.setattr(search, "_oracle_left_sides", lambda: iter(lefts))
        derived = []

        def recording_record(*args):
            derived.append(args)
            return record(*args)

        monkeypatch.setattr(search, "record", recording_record)
        stars = [(f, family_spec(f).types[1]) for f in TestE1PointPreTest.STAR_FAMILIES]
        with_skip = [search._oracle_e1estar(*star) for star in stars]
        kept = list(derived)
        derived.clear()
        monkeypatch.setattr(search, "_degree_ok", lambda kx3, side: True)
        assert [search._oracle_e1estar(*star) for star in stars] == with_skip
        skipped = set(derived) - set(kept)
        for args in derived:
            passes = admitted(run_checks(record(*args), {"FANO_DEGREE_RIGHT"}))
            assert passes == (args not in skipped), args
        assert {family for family, _ in skipped} == {"e1e2"}
        assert (len(derived), len(kept), len(skipped)) == (356, 339, 17)


class TestEmittedCandidates:
    def test_every_emitted_candidate_is_admitted(self, enumerated):
        for family, candidates in enumerated.items():
            for candidate in candidates:
                assert admitted(run_checks(candidate)), family

    def test_emitted_candidate_equals_rebuilt_candidate(self, enumerated):
        candidate = enumerated["e1e1"][0]
        rebuilt = build_candidate(record("e1e1", (2, 1, 1, 0, 1, 1, 0)))
        assert candidate == rebuilt


class TestEmissionAudit:
    def test_out_of_range_defect_is_not_emitted(self, monkeypatch):
        # E2's self-cube is 1, so this cube gives the defect 2**63 + 1,
        # one past the 64-bit contract; the candidates pass every check.
        monkeypatch.setattr(formulas, "etilde_cube_numerators", lambda *args: (-(2**63), 1))
        with pytest.raises(RationalOverflowError):
            enumerate_family("e2e2")

    def test_raw_values_beyond_the_range_pass_when_reduced(self, enumerated, monkeypatch):
        # Scaling each cube's numerator and denominator by 2**63 puts the
        # raw cubes and defects beyond the 64-bit contract but changes no
        # value once reduced, so every row is still emitted, with the same cells.
        real = formulas.etilde_cube_numerators

        def scaled(*args):
            num, den = real(*args)
            return num * 2**63, den * 2**63

        monkeypatch.setattr(formulas, "etilde_cube_numerators", scaled)
        for family in FAMILY_IDS:
            out = enumerate_family(family)
            assert [c.cells() for c in out] == [c.cells() for c in enumerated[family]], family
            assert all(abs(c.defect_left[0]) >= 2**63 for c in out if c.defect_e), family

    def test_reduced_value_out_of_range_raises_its_reduced_message(self, monkeypatch):
        # The cube -3*2**63 / 3 reduces to -2**63, inside the range; on an E2
        # side (self-cube 1) the defect (3 + 3*2**63) / 3 reduces to 2**63 + 1.
        monkeypatch.setattr(formulas, "etilde_cube_numerators", lambda *args: (-3 * 2**63, 3))
        with pytest.raises(RationalOverflowError) as expected:
            audit_magnitude(Fraction(3 + 3 * 2**63, 3))
        with pytest.raises(RationalOverflowError) as raised:
            enumerate_family("e2e2")
        assert str(raised.value) == str(expected.value)

    def test_first_bad_value_in_audit_order_is_named(self, monkeypatch):
        # Both the cube -2**65 / 2 and the defect (2 + 2**65) / 2 reduce
        # out of range; the cubes are audited before the defects.
        monkeypatch.setattr(formulas, "etilde_cube_numerators", lambda *args: (-(2**65), 2))
        with pytest.raises(RationalOverflowError, match=f"range: {-(2**64)}/1$"):
            enumerate_family("e2e2")

    def test_default_rows_are_not_reduced(self, monkeypatch):
        # Every raw value of the 134 default rows is in range, so none goes
        # through the reduce-and-audit path.
        reduced = []
        monkeypatch.setattr(search, "audit_magnitude", reduced.append)
        rows = sum(len(enumerate_family(family)) for family in FAMILY_IDS)
        assert (rows, reduced) == (134, [])

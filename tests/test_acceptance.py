"""Acceptance gate: the seven primary reproduction criteria.

One test per criterion, so `pytest -v` prints exactly one pass/fail line
for each.  All equality is exact rational equality (zero tolerance);
runtime ceilings are asserted where the contract pins them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

import fanolink
from fanolink import catalog
from fanolink.catalog import load_hodge_table
from fanolink.checks import DEFAULT_CHECKS, admitted, run_checks
from fanolink.cli import main
from fanolink.formulas import defect_numerators, etilde_cube_numerators
from fanolink.golden import diff, golden_for_family
from fanolink.model import ContractionType, SideData, intersection_constants
from fanolink.search import FAMILY_IDS, enumerate_family, mirror_candidate

from conftest import over_common_denominator

# SHA-256 of `enumerate --families all` output: the CSV, the stderr of
# `--trace-rejections` (117,469 lines) and the `--format json` document.
CSV_SHA256 = "b25d8e0757e320710736bcc334d8d6a44920202e9708d88d39b80270214423d5"
TRACE_SHA256 = "5bbb64f1d450888536cae21d5af8a9250e3036a9a46497bcca61f88d2a6a20f5"
JSON_SHA256 = "e2b1a60b43ea81b3cbd6c0f8563deeca8106146c276ca1850a3bff098a834302"


def test_criterion_1_two_sided_curve_reproduction(capsys):
    """111 E1-E1 rows matching the golden tables exactly, < 30 s serial."""
    start = time.perf_counter()
    candidates = enumerate_family("e1e1")
    elapsed = time.perf_counter() - start

    assert len(candidates) == 111
    # The diff key carries (kx3, r, d, g, r+, d+, g+); the value columns
    # compare alpha, beta, alpha_plus, beta_plus, kY3, kY3_plus and e/r^3
    # in exact arithmetic.
    report = diff(candidates, golden_for_family("e1e1"))
    assert report.empty, report.describe()

    assert main(["verify", "--families", "e1e1"]) == 0
    assert "e1e1: exact match (111 rows)" in capsys.readouterr().out
    assert elapsed < 30.0, f"E1-E1 enumeration took {elapsed:.2f}s (ceiling 30s)"


def test_criterion_2_curve_point_reproduction():
    """3 + 7 + 7 curve-point rows, fractional coefficients and degrees exact."""
    start = time.perf_counter()
    by_family = {family: enumerate_family(family) for family in ("e1e2", "e1e3", "e1e5")}
    elapsed = time.perf_counter() - start

    assert {family: len(rows) for family, rows in by_family.items()} == {
        "e1e2": 3,
        "e1e3": 7,
        "e1e5": 7,
    }
    for family, rows in by_family.items():
        report = diff(rows, golden_for_family(family))
        assert report.empty, f"{family}: {report.describe()}"

    e1e3_betas = {c.coeffs.beta for c in by_family["e1e3"]}
    assert {Fraction(-1, 4), Fraction(-1, 3), Fraction(-1, 2)} <= e1e3_betas

    e1e5_point_degrees = {c.kY3_right for c in by_family["e1e5"]}
    assert e1e5_point_degrees == {
        Fraction(9, 2), Fraction(17, 2), Fraction(21, 2), Fraction(25, 2), Fraction(29, 2),
    }
    assert elapsed < 10.0, f"curve-point enumeration took {elapsed:.2f}s (ceiling 10s)"


def test_criterion_3_symmetric_reproduction():
    """The six symmetric rows, by (central degree, alpha, defect), < 1 s."""
    start = time.perf_counter()
    by_family = {family: enumerate_family(family) for family in ("e2e2", "e3e3", "e5e5")}
    elapsed = time.perf_counter() - start

    def triples(rows):
        return {(c.kx3, c.coeffs.alpha, c.defect_e) for c in rows}

    assert triples(by_family["e2e2"]) == {(8, 1, 12), (4, 2, 30), (2, 4, 90)}
    assert triples(by_family["e3e3"]) == {(4, 1, 12), (2, 2, 24)}
    assert triples(by_family["e5e5"]) == {(2, 1, 15)}
    assert by_family["e5e5"][0].kY3_left == Fraction(5, 2)
    for family, rows in by_family.items():
        assert diff(rows, golden_for_family(family)).empty
    assert elapsed < 1.0, f"symmetric enumeration took {elapsed:.2f}s (ceiling 1s)"


def test_criterion_4_spot_defects_recomputed():
    """Every golden row's defects rebuilt from the flopped-divisor cube alone.

    Inputs are golden coefficients and side data; the enumerator's stored
    defect fields are never consulted.  Three spot rows pin worked values
    through the formulas module; every row is then recomputed from the
    cube written out below, without the formulas module.
    """
    def e1_side(r, d, g):
        return SideData(ContractionType.E1, r, d, g)

    def cube_and_defect(row, opposite, side):
        # The left divisor's cube in the opposite basis, and the left defect.
        pair = over_common_denominator(row["alpha_plus"], row["beta_plus"])
        cube = etilde_cube_numerators(pair, row["kx3"], intersection_constants(opposite))
        e3self = intersection_constants(side).e3self
        return Fraction(*cube), Fraction(*defect_numerators(e3self, cube))

    rows = {row["row"]: row for row in golden_for_family("e1e1")}

    row1 = rows[1]
    cube1, e1 = cube_and_defect(row1, e1_side(1, 1, 0), e1_side(1, 1, 0))
    assert cube1 == -46
    assert e1 == 47
    assert e1 // row1["r"]**3 == row1["e_over_r3"] == 47

    row27 = rows[27]
    assert (row27["r"], row27["d"], row27["g"]) == (2, 1, 0)
    cube27, e27 = cube_and_defect(row27, e1_side(2, 1, 0), e1_side(2, 1, 0))
    assert cube27 == -88
    assert e27 == 88
    assert e27 // row27["r"]**3 == row27["e_over_r3"] == 11

    star_row = golden_for_family("e1e2")[0]
    assert (star_row["r"], star_row["d"], star_row["g"]) == (2, 12, 7)
    cube_star, e_star = cube_and_defect(star_row, SideData(ContractionType.E2), e1_side(2, 12, 7))
    assert cube_star == -228
    assert e_star == 192
    assert star_row["r"]**3 == 8
    assert e_star // star_row["r"]**3 == star_row["e_over_r3"] == 24

    def cube(a, b, kx3, opposite):
        # a^3 kx3 + 3 a^2 b (H^2.E) - 3 a b^2 (H.E^2) + b^3 E^3 on the opposite side.
        a, b = Fraction(a), Fraction(b)
        return (
            a**3 * kx3
            + 3 * a**2 * b * opposite.kx2E
            - 3 * a * b**2 * opposite.kxE2
            + b**3 * opposite.e3self
        )

    all_rows = [row for family in FAMILY_IDS for row in golden_for_family(family)]
    assert len(all_rows) == 134
    for row in all_rows:
        where = (row["table"], row["row"])
        left = SideData(ContractionType(row["type_left"]), row["r"], row["d"], row["g"])
        right = SideData(
            ContractionType(row["type_right"]), row["r_plus"], row["d_plus"], row["g_plus"]
        )
        const_left, const_right = intersection_constants(left), intersection_constants(right)
        # Each side's flopped divisor is expanded in the opposite side's basis.
        e = const_left.e3self - cube(row["alpha_plus"], row["beta_plus"], row["kx3"], const_right)
        e_plus = const_right.e3self - cube(row["alpha"], row["beta"], row["kx3"], const_left)
        assert e.denominator == 1 and e > 0, where
        assert e_plus.denominator == 1 and e_plus > 0, where
        normalized = e / left.cube_scale
        assert normalized == e_plus / right.cube_scale, where
        assert row["e_over_r3"] is not None or row["e"] is not None, where
        if row["e_over_r3"] is not None:
            assert normalized == row["e_over_r3"], where
        if row["e"] is not None:
            assert e == row["e"], where


def test_criterion_5_oracle_equivalence(enumerated, oracle):
    """Literal bounded-box search equals the closed-form enumerator, as sets."""
    for family in FAMILY_IDS:
        assert set(oracle[family]) == set(enumerated[family]), family


def test_criterion_6_property_suites(enumerated, golden, monkeypatch):
    """Structural invariants on every emitted row, plus catalog mutation."""
    # --- coefficient closure and residual systems on every emitted candidate -
    # Written out in plain Fractions, without the formulas module; a point
    # side's excess (-K)^2.E is the constant 4 (E2), 2 (E3/E4) or 1 (E5).
    point_excess = {ContractionType.E2: 4, ContractionType.E34: 2, ContractionType.E5: 1}
    for family, candidates in enumerated.items():
        for c in candidates:
            a, b = Fraction(c.coeffs.alpha), Fraction(c.coeffs.beta)
            ap, bp = Fraction(c.coeffs.alpha_plus), Fraction(c.coeffs.beta_plus)
            assert (b * bp - 1, a + b * ap, ap + bp * a) == (0, 0, 0)
            if family == "e1e1":
                r, d, g, rp, dp, gp = c.left.r, c.left.d, c.left.g, c.right.r, c.right.d, c.right.g
                sig, sig_p = r * d + 2 - 2 * g, rp * dp + 2 - 2 * gp
                assert a * a * c.kx3 + 2 * a * b * sig + b * b * (2 * g - 2) == 2 * gp - 2
                assert ap * ap * c.kx3 + 2 * ap * bp * sig_p + bp * bp * (2 * gp - 2) == 2 * g - 2
            elif family in ("e1e2", "e1e3", "e1e5"):
                r, d, g = c.left.r, c.left.d, c.left.g
                sig, star_c = r * d + 2 - 2 * g, point_excess[c.right.ctype]
                k3 = -c.kx3  # the literal K^3
                assert a * a * k3 - 2 * a * b * r * d + (2 - 2 * g) * (b * b - 2 * a * b) == 2
                assert a * c.kx3 + b * sig == star_c
                assert ap * ap * k3 - 2 * ap * bp * star_c + 2 * bp * bp == 2 - 2 * g
                assert ap * c.kx3 + bp * star_c == sig
            else:
                assert a * c.kx3 == 2 * point_excess[c.left.ctype]

    # --- mirror-symmetry of two-sided admission -----------------------------
    for c in enumerated["e1e1"]:
        assert admitted(run_checks(mirror_candidate(c)))

    # --- degree-2 rows are side-symmetric -----------------------------------
    for candidates in enumerated.values():
        for c in candidates:
            if c.kx3 == 2:
                assert c.left == c.right

    # --- defect positivity and index-cube divisibility on every row ---------
    for candidates in enumerated.values():
        for c in candidates:
            left_scale = c.left.r**3 if c.left.is_e1 else 1
            right_scale = c.right.r**3 if c.right.is_e1 else 1
            assert c.defect_e is not None and c.defect_e > 0
            assert c.defect_e_plus is not None and c.defect_e_plus > 0
            assert c.defect_e % left_scale == 0
            assert c.defect_e_plus % right_scale == 0
            assert c.defect_e // left_scale == c.defect_e_plus // right_scale

    # --- curve-corrected Hodge catalog mutation ------------------------------
    # Only the two catalog-consulting families can react: both sides of a
    # point-point link share one lookup key (any change cancels), and the
    # E3/E4 and E5 targets are singular (no lookup at all).
    base_table = load_hodge_table()
    baseline = (enumerated["e1e1"], enumerated["e1e2"])

    # Pinned killing perturbation for every reachable entry.
    kill_table = {
        (1, 10): 1, (1, 12): 1, (1, 14): 1, (1, 16): 1, (1, 18): 1, (1, 22): 1,
        (2, 16): 1, (2, 24): 1, (2, 32): 1, (2, 40): 1, (3, 54): 1, (4, 64): 1,
        (1, 8): -9,
    }
    for entry, delta in kill_table.items():
        mutated = dict(base_table)
        assert mutated[entry] + delta >= 0, "perturbed catalog value must stay legal"
        mutated[entry] += delta
        with monkeypatch.context() as patch:
            patch.setattr(catalog, "load_hodge_table", lambda: mutated)
            out = (enumerate_family("e1e1"), enumerate_family("e1e2"))
        verified = (
            diff(out[0], golden["e1e1"]).empty and diff(out[1], golden["e1e2"]).empty
        )
        assert not verified, f"perturbing catalog entry {entry} by {delta} must break verification"
        assert out != baseline

    # The four remaining entries are provably inert under EVERY legal value
    # change: a row consulting an entry through both sides shifts both sums
    # equally, so only one-sided consulters can react, and none exist --
    # neither among admitted rows nor among the near-misses that fail the
    # balance check alone (for everything else a value change is irrelevant).
    # Assert those two exhaustive conditions, then spot-check inertness.
    def lookup_keys(c):
        return [
            (side.target_index, ky3)
            for side, ky3 in ((c.left, c.kY3_left), (c.right, c.kY3_right))
            if side.target_index is not None
        ]

    def consults_one_sided(c, entry):
        return sum(1 for key in lookup_keys(c) if key == entry) == 1

    without_balance = frozenset(DEFAULT_CHECKS - {"HODGE"})
    fails_balance_only = [
        c
        for family in ("e1e1", "e1e2")
        for c in enumerate_family(family, without_balance)
        if c not in set(enumerated[family])
    ]
    assert fails_balance_only, "the balance check must prune at least one candidate"

    equivalent_entries = [(1, 2), (1, 4), (1, 6), (2, 8)]
    for entry in equivalent_entries:
        assert entry in base_table
        for c in enumerated["e1e1"] + enumerated["e1e2"]:
            assert not consults_one_sided(c, entry), (entry, c)
        for c in fails_balance_only:
            assert not consults_one_sided(c, entry), (entry, c)
        mutated = dict(base_table)
        mutated[entry] += 1
        with monkeypatch.context() as patch:
            patch.setattr(catalog, "load_hodge_table", lambda: mutated)
            out = (enumerate_family("e1e1"), enumerate_family("e1e2"))
        assert out == baseline


def test_criterion_7_output_independent_of_hash_seed():
    """CSV, JSON and rejection-trace bytes are equal across hash seeds, and pinned."""
    src = str(Path(fanolink.__file__).parents[1])
    runs = {
        (seed, fmt): subprocess.Popen(
            [sys.executable, "-m", "fanolink.cli", "enumerate", "--families", "all", *args],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for seed in ("0", "12345")
        for fmt, args in (("csv", ["--trace-rejections"]), ("json", ["--format", "json"]))
    }
    digests = set()
    for (_, fmt), process in runs.items():
        stdout, stderr = process.communicate(timeout=120)
        digests.add((fmt, process.returncode, sha256(stdout).hexdigest(), sha256(stderr).hexdigest()))
    # One entry per format: the two seeds gave the same bytes, the pinned ones.
    assert digests == {
        ("csv", 0, CSV_SHA256, TRACE_SHA256),
        ("json", 0, JSON_SHA256, sha256(b"").hexdigest()),
    }

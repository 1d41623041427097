"""Exact intersection-theoretic formulas for link candidates.

Conventions used throughout (and by the golden tables):

* kx3 denotes the positive anticanonical degree (-K)^3 of the central
  variety, so the literal intersection number K^3 equals -kx3.  Formulas
  that involve K^3 itself therefore carry an explicit minus sign.
* A side's excess sigma is (-K)^2.E of its exceptional divisor: model.sigma
  of the datum (r, d, g) on an E1 side, a constant of the type on a
  point-type side (model.POINT_TYPES).

All functions are pure and exact; they return ints or Fractions, never
floats.  The derivation works on integer numerators over one common
denominator per coefficient pair (r*kx3 and r_plus*kx3 on E1-E1,
|beta_plus| on E1-point, 1 on the symmetric families): ``derive``
collects them into one LinkCandidate per tuple, which divides them out
only where its values are read.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .model import (
    POINT_TYPES,
    ContractionType,
    IntersectionConstants,
    LinkCandidate,
    Pair,
    SideData,
    intersection_constants,
    sigma,
)


def star_sigma(ctype: ContractionType) -> int:
    """The constant (-K)^2.E of a point-type side (4, 2 or 1); ValueError on E1."""
    return intersection_constants(SideData(ctype)).kx2E


def ky3_from_kx3(kx3: int, side: SideData) -> Fraction | int:
    """Anticanonical degree of the side's contraction target.

    Blowing down adds rd + sigma for an E1 side; a point-type side adds
    its type's degree offset (POINT_TYPES).
    """
    if side.ctype is ContractionType.E1:
        return kx3 + side.r * side.d + sigma(side.r, side.d, side.g)
    return kx3 + POINT_TYPES[side.ctype].degree_offset


def basis_decomposition_numerators(pair: Pair, r: int) -> tuple[int, int, int]:
    """Coefficients of alpha*H + beta*E in an E1 side's integral basis, as numerators.

    On an index-r side H = r*A - E, with A the pullback of the target's
    ample generator, so alpha*H + beta*E = (alpha*r)*A + (beta - alpha)*E.
    pair = (a, b, den) holds alpha = a/den and beta = b/den, den > 0.
    Returns (lead, diff, den): the coefficients are lead/den and diff/den.
    """
    a, b, den = pair
    return a * r, b - a, den


def closure_numerators(pair: Pair, pair_plus: Pair) -> tuple[int, int, int]:
    """Numerators of the closure relations; all zero iff the two pairs are consistent.

    pair = (a, b, den) holds (alpha, beta) and pair_plus = (ap, bp, den_p)
    holds (alpha_plus, beta_plus), both denominators positive.  The
    relations beta*beta_plus - 1, alpha + beta*alpha_plus and
    alpha_plus + beta_plus*alpha are these numerators over den*den_p.
    """
    a, b, den = pair
    ap, bp, den_p = pair_plus
    return b * bp - den * den_p, a * den_p + b * ap, ap * den + bp * a


def e1e1_pairs(
    kx3: int, r: int, r_plus: int, sigma_left: int, sigma_right: int
) -> tuple[Pair, Pair]:
    """The E1-E1 coefficient pairs in closed form, as (numerator, numerator, denominator).

    The E-coefficients are beta = -r_plus/r and beta_plus = -r/r_plus.
    Intersecting the flopped divisor with (-K)^2 on both sides gives
    alpha_plus * kx3 = sigma_left - beta_plus * sigma_right, and
    alpha = -beta * alpha_plus.  With n = sigma_left*r_plus + r*sigma_right
    that is alpha = n/(r*kx3) and alpha_plus = n/(r_plus*kx3).
    """
    n = sigma_left * r_plus + r * sigma_right
    return (n, -r_plus * kx3, r * kx3), (n, -r * kx3, r_plus * kx3)


def genus_form(kx3: int, sigma: int, g: int) -> int:
    """Genus form Q = sigma^2 - kx3*(2g - 2) of an E1 side with excess sigma and genus g.

    On the closed-form pairs of e1e1_pairs the genus residuals reduce to it.
    With n = sigma*r_plus + r*sigma_plus the left pair is
    (n, -r_plus*kx3, r*kx3), so the first residual numerator
    (e1e1_residual_numerators) is
        kx3 * (n^2 - 2*n*sigma*r_plus + r_plus^2*kx3*(2g - 2) - r^2*kx3*(2g_plus - 2)),
    and n^2 - 2*n*sigma*r_plus = r^2*sigma_plus^2 - r_plus^2*sigma^2 turns
    the bracket into m = r^2*Q_plus - r_plus^2*Q.  The second residual is
    the first with the sides swapped, -kx3*m.  So an E1-E1 pair passes
    DIOPHANTINE exactly when r^2*Q_plus == r_plus^2*Q: each side carries one
    invariant, and its partners share the matching value.
    """
    return sigma * sigma - kx3 * (2 * g - 2)


def star_pairs(alpha_plus: int, beta_plus: int) -> tuple[Pair, Pair]:
    """An E1-star candidate's pairs from its integer star-side pair.

    alpha = -alpha_plus/beta_plus and beta = 1/beta_plus, over |beta_plus|.
    """
    if beta_plus == 0:
        raise ValueError("beta_plus must be nonzero")
    sign = 1 if beta_plus > 0 else -1
    return (-alpha_plus * sign, sign, beta_plus * sign), (alpha_plus, beta_plus, 1)


def symmetric_pairs(alpha: int) -> tuple[Pair, Pair]:
    """A symmetric star-star candidate's pairs: alpha = alpha_plus, beta = beta_plus = -1."""
    return (alpha, -1, 1), (alpha, -1, 1)


def e1e1_residual_numerators(
    kx3: int,
    left: Pair,
    right: Pair,
    g_left: int,
    sigma_left: int,
    g_right: int,
    sigma_right: int,
) -> tuple[int, int]:
    """Genus-consistency residual pair of an E1-E1 candidate, as numerators.

    Each residual equates the arithmetic genus of the opposite curve,
    computed through the flopped divisor, with its stated genus; both must
    vanish on an admissible candidate.  left = (a, b, den) and
    right = (ap, bp, den_p) are the coefficient pairs over positive common
    denominators; the residuals are these numerators over den^2 and den_p^2.
    """
    a, b, den = left
    ap, bp, den_p = right
    gl, gr = 2 * g_left - 2, 2 * g_right - 2  # 2g - 2 of each curve
    return (
        a * a * kx3 + 2 * a * b * sigma_left + b * b * gl - den * den * gr,
        ap * ap * kx3 + 2 * ap * bp * sigma_right + bp * bp * gr - den_p * den_p * gl,
    )


def e1estar_residual_numerators(
    kx3: int,
    left: Pair,
    right: Pair,
    r: int,
    d: int,
    g: int,
    star_c: int,
) -> tuple[int, int, int, int]:
    """Residual system of an E1 side paired with a point-type side, as numerators.

    res1, res3 are the two cubic/genus consistency relations (they involve
    the literal K^3 = -kx3); res2, res4 are the linear excess relations.
    star_c is the point-side constant 4, 2 or 1.  All four must vanish.
    left = (a, b, den) and right = (ap, bp, den_p) are the coefficient
    pairs over positive common denominators; the residuals are these
    numerators over den^2, den, den_p^2 and den_p.
    The denominators are positive, so a residual vanishes exactly when
    its numerator does.
    """
    a, b, den = left
    ap, bp, den_p = right
    sig = sigma(r, d, g)
    two_minus_2g = 2 - 2 * g
    return (
        -a * a * kx3 - 2 * a * b * (r * d) + two_minus_2g * (-2 * a * b + b * b) - 2 * den * den,
        a * kx3 + b * sig - star_c * den,
        -ap * ap * kx3 - 2 * ap * bp * star_c + 2 * bp * bp - two_minus_2g * den_p * den_p,
        ap * kx3 + bp * star_c - sig * den_p,
    )


def etilde_cube_numerators(
    pair: Pair, kx3: int, opposite: IntersectionConstants
) -> tuple[int, int]:
    """Cube of a flopped exceptional divisor, expanded in the opposite basis.

    With the strict transform written alpha_plus*H + beta_plus*E and H the
    anticanonical class, expanding the cube against the opposite side's
    intersection constants gives
        a^3 kx3 + 3 a^2 b (H^2.E) - 3 a b^2 (H.E^2) + b^3 E^3,
    the middle signs reflecting that H = -K.  The form is homogeneous, so
    with pair = (a, b, den) it returns (numerator, den^3).
    """
    a, b, den = pair
    num = a * a * (a * kx3 + 3 * b * opposite.kx2E) - b * b * (
        3 * a * opposite.kxE2 - b * opposite.e3self
    )
    return num, den * den * den


def defect_numerators(e3self: int, cube: tuple[int, int]) -> tuple[int, int]:
    """Flop defect E^3 - Etilde^3 over the cube's denominator: (numerator, denominator)."""
    num, den = cube
    return e3self * den - num, den


# One side's share of every candidate with that side at a central degree: the
# side, its intersection constants and its target degree.
SideTerm = tuple[SideData, IntersectionConstants, "Fraction | int"]
# The first seven fields of a LinkCandidate (kx3, the two sides, their
# excesses and target degrees), with the sides' intersection constants.
SideTerms = tuple[tuple, IntersectionConstants, IntersectionConstants]
# The last four fields of a LinkCandidate: its two flopped-divisor cubes and
# its two flop defects, each as (numerator, denominator).
Cubes = tuple[tuple[int, int], tuple[int, int], tuple[int, int], tuple[int, int]]


def side_term(kx3: int, side: SideData) -> SideTerm:
    """What every candidate with this side at kx3 shares: the side, its constants, its kY3.

    The side's excess is its (-K)^2.E constant: sigma(r, d, g) on E1, the
    point-side constant otherwise.
    """
    return side, intersection_constants(side), ky3_from_kx3(kx3, side)


def side_terms(kx3: int, left: SideTerm, right: SideTerm) -> SideTerms:
    """The candidate fields a tuple shares with every tuple on the same two sides at kx3."""
    (left_side, const_left, ky3_left), (right_side, const_right, ky3_right) = left, right
    fields = (kx3, left_side, right_side, const_left.kx2E, const_right.kx2E, ky3_left, ky3_right)
    return fields, const_left, const_right


def cube_numerators(sides: SideTerms, pair: Pair, pair_plus: Pair) -> Cubes:
    """A tuple's flopped-divisor cubes and flop defects (Cubes), from its side terms and pairs.

    The left side's flopped divisor is expanded in the right basis with
    (alpha_plus, beta_plus), and the right one in the left basis with
    (alpha, beta).
    """
    fields, const_left, const_right = sides
    cube_left = etilde_cube_numerators(pair_plus, fields[0], const_right)
    cube_right = etilde_cube_numerators(pair, fields[0], const_left)
    return (
        cube_left,
        cube_right,
        defect_numerators(const_left.e3self, cube_left),
        defect_numerators(const_right.e3self, cube_right),
    )


def derive(sides: SideTerms, pair: Pair, pair_plus: Pair) -> LinkCandidate:
    """A tuple's candidate: every quantity the checks read, in integers.

    sides comes from side_terms; pair and pair_plus are the coefficient
    pairs, whose cube_numerators complete the record.
    """
    return _candidate((*sides[0], pair, pair_plus, *cube_numerators(sides, pair, pair_plus)))


# LinkCandidate(*fields) without the Python-level __new__: one per tuple decided.
_candidate = functools.partial(tuple.__new__, LinkCandidate)

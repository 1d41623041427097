"""Exact intersection-theoretic formulas for link candidates.

Conventions used throughout (and by the golden tables):

* kx3 denotes the positive anticanonical degree (-K)^3 of the central
  variety, so the literal intersection number K^3 equals -kx3.  Formulas
  that involve K^3 itself therefore carry an explicit minus sign.
* An E1 contraction datum (r, d, g) has excess sigma = r*d + 2 - 2g.
* For the point-type contractions the analogous excess is the constant
  (-K)^2.E of the exceptional divisor: 4 for E2, 2 for E3/E4, 1 for E5.

All functions are pure and exact; they accept ints or Fractions and return
ints or Fractions, never floats.  The rational-valued ones work on integer
numerators over one common denominator (r*kx3 and r_plus*kx3 on E1-E1,
beta_plus on E1-point, 1 on the symmetric families) and build a single
reduced Fraction at the end, never a chain of Fraction operations.
"""

from __future__ import annotations

from fractions import Fraction

from .model import (
    STAR_DEGREE_OFFSET,
    ContractionType,
    FlopCoefficients,
    IntersectionConstants,
    SideData,
    intersection_constants,
)
from .rational import over_common_denominator


def sigma(r: int, d: int, g: int) -> int:
    """Anticanonical excess (-K)^2.E of an E1 side with data (r, d, g)."""
    return r * d + 2 - 2 * g


def star_sigma(ctype: ContractionType) -> int:
    """The constant (-K)^2.E of a point-type side (4, 2 or 1); ValueError on E1."""
    return intersection_constants(SideData(ctype)).kx2E


def ky3_from_kx3(kx3: int, side: SideData) -> Fraction | int:
    """Anticanonical degree of the side's contraction target.

    Blowing down adds rd + sigma for an E1 side; the point-type sides add
    the fixed amounts in STAR_DEGREE_OFFSET.
    """
    if side.ctype is ContractionType.E1:
        return kx3 + 2 * side.r * side.d + 2 - 2 * side.g
    return kx3 + STAR_DEGREE_OFFSET[side.ctype]


def basis_decomposition_numerators(alpha: Fraction, beta: Fraction, r: int) -> tuple[int, int, int]:
    """Coefficients of alpha*H + beta*E in an E1 side's integral basis, as numerators.

    On an index-r side H = r*A - E, with A the pullback of the target's
    ample generator, so alpha*H + beta*E = (alpha*r)*A + (beta - alpha)*E.
    Returns (lead, diff, den): the coefficients are lead/den and diff/den,
    den > 0.
    """
    a, b, den = over_common_denominator(alpha, beta)
    return a * r, b - a, den


def coeffs_e1e1(
    kx3: int, r: int, r_plus: int, sigma_left: int, sigma_right: int
) -> FlopCoefficients:
    """Full coefficient set for an E1-E1 candidate (closed-form route).

    The E-coefficients are beta = -r_plus/r and beta_plus = -r/r_plus.
    Intersecting the flopped divisor with (-K)^2 on both sides gives
    alpha_plus * kx3 = sigma_left - beta_plus * sigma_right, and
    alpha = -beta * alpha_plus.  With n = sigma_left*r_plus + r*sigma_right
    (the enumerator's integer pair test uses the same n) that is
    alpha = n/(r*kx3) and alpha_plus = n/(r_plus*kx3).
    """
    n = sigma_left * r_plus + r * sigma_right
    return FlopCoefficients(
        Fraction(n, r * kx3), Fraction(-r_plus, r), Fraction(n, r_plus * kx3), Fraction(-r, r_plus)
    )


def coeffs_from_star_pair(alpha_plus: int, beta_plus: int) -> FlopCoefficients:
    """Coefficients for an E1-star candidate from the integer star-side pair."""
    if beta_plus == 0:
        raise ValueError("beta_plus must be nonzero")
    return FlopCoefficients(
        Fraction(-alpha_plus, beta_plus),
        Fraction(1, beta_plus),
        Fraction(alpha_plus),
        Fraction(beta_plus),
    )


def coeffs_symmetric(alpha: int) -> FlopCoefficients:
    """Coefficients for a symmetric star-star candidate: alpha = alpha_plus, beta = -1."""
    return FlopCoefficients(Fraction(alpha), Fraction(-1), Fraction(alpha), Fraction(-1))


def e1e1_residual_numerators(
    kx3: int,
    left: tuple[int, int, int],
    right: tuple[int, int, int],
    g_left: int,
    sigma_left: int,
    g_right: int,
    sigma_right: int,
) -> tuple[int, int]:
    """Genus-consistency residual pair of an E1-E1 candidate, as numerators.

    Each residual equates the arithmetic genus of the opposite curve,
    computed through the flopped divisor, with its stated genus; both must
    vanish on an admissible candidate.  left = (a, b, den) and
    right = (ap, bp, den_p) are the coefficient pairs over their common
    denominators (over_common_denominator); the residuals are these
    numerators over den^2 and den_p^2.
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
    left: tuple[int, int, int],
    right: tuple[int, int, int],
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
    pairs over their common denominators (over_common_denominator); the
    residuals are these numerators over den^2, den, den_p^2 and den_p.
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


def etilde_cubed(
    alpha_plus: Fraction,
    beta_plus: Fraction,
    kx3: int,
    opposite: IntersectionConstants,
) -> Fraction:
    """Cube of a flopped exceptional divisor, expanded in the opposite basis.

    With the strict transform written alpha_plus*H + beta_plus*E and H the
    anticanonical class, expanding the cube against the opposite side's
    intersection constants gives
        a^3 kx3 + 3 a^2 b (H^2.E) - 3 a b^2 (H.E^2) + b^3 E^3,
    the middle signs reflecting that H = -K.  The form is homogeneous, so
    it takes the numerators over the common denominator den, then / den^3.
    """
    a, b, den = over_common_denominator(alpha_plus, beta_plus)
    num = a * a * (a * kx3 + 3 * b * opposite.kx2E) - b * b * (
        3 * a * opposite.kxE2 - b * opposite.e3self
    )
    return Fraction(num, den * den * den)


def defect(e3self: int, etilde3: Fraction | int) -> Fraction:
    """Flop defect: drop of the divisor's self-cube across the flop."""
    num, den = etilde3.as_integer_ratio()
    return Fraction(e3self * den - num, den)


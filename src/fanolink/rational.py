"""Exact rational arithmetic for the enumeration engine.

Every numeric quantity in the engine is either a Python int or a reduced
``fractions.Fraction``.  Floats are never produced or accepted: equality of
results with the golden tables has to be exact, so all arithmetic is
``Fraction`` or plain int arithmetic, and this module parses and renders
the values.  A value that is compared or printed (a golden cell, a
candidate's ``cells()``) is in ``exact`` form: an int when it is integral,
otherwise a reduced Fraction, never an integral Fraction.

The engine is specified against 64-bit exact arithmetic.  Python integers
do not overflow, so the 2**63 bound cannot be exceeded silently; the
``audit_magnitude`` helper still enforces it at the trust boundaries
(parsing and candidate emission) so that a port to fixed-width
integers would fail loudly here rather than wrap around.  Emission
(search.build_candidate) compares the candidate's stored integers with
INT64_LIMIT directly and hands ``audit_magnitude`` only a value outside
it, reduced: the stored form is never smaller than the reduced one.
"""

from __future__ import annotations

from fractions import Fraction

# Magnitude bound for the 64-bit arithmetic contract.
INT64_LIMIT = 2**63


class RationalOverflowError(ArithmeticError):
    """Numerator or denominator left the signed 64-bit range."""


def audit_magnitude(x: Fraction | int) -> Fraction | int:
    """Return ``x`` unchanged, raising if it exceeds the 64-bit contract."""
    n, d = (x.numerator, x.denominator) if isinstance(x, Fraction) else (x, 1)
    if not (-INT64_LIMIT <= n < INT64_LIMIT and 0 < d < INT64_LIMIT):
        raise RationalOverflowError(f"magnitude outside signed 64-bit range: {n}/{d}")
    return x


def as_integer(x: Fraction | int) -> int:
    if x.denominator != 1:
        raise ValueError(f"not an integer: {x}")
    return x.numerator


def exact(num: Fraction | int, den: Fraction | int) -> Fraction | int:
    """num/den as an int when it is integral, otherwise as a reduced Fraction; den != 0."""
    return num // den if num % den == 0 else Fraction(num, den)


def render_exact(x: Fraction | int) -> str:
    """Machine form: bare integer, or 'n/d' in lowest terms.

    This is the canonical serialization for CSV and JSON output; it never
    loses precision and ``parse_rational`` inverts it.
    """
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def render_table(x: Fraction | int) -> str:
    """Display form used by the human-readable table renderers.

    Halves print with one decimal place and quarters with two, matching the
    typography of the reference tables; everything else falls back to the
    exact 'n/d' form.  The decimal forms are exact (denominators 2 and 4
    are powers of two), so parse_rational round-trips them.
    """
    if x.denominator in (2, 4):
        # Integer arithmetic: a float would round numerators beyond 2**53.
        places = x.denominator // 2
        whole, frac = divmod(abs(x.numerator) * 10**places // x.denominator, 10**places)
        sign = "-" if x.numerator < 0 else ""
        return f"{sign}{whole}.{frac:0{places}d}"
    return render_exact(x)


def parse_rational(text: str) -> Fraction | int:
    """Parse 'n', 'n/d', or a terminating decimal such as '-0.25', exactly, to exact form."""
    value = audit_magnitude(Fraction(text.strip()))
    return exact(value.numerator, value.denominator)

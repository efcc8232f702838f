"""Exact rational arithmetic.

Everything in the lattice/LP code paths runs on exact rationals with unbounded
integer numerators and denominators; no floating point ever enters. The one
rational type is fractions.Fraction.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError

Rational = Fraction
BACKEND = "fractions"

ZERO = Rational(0)
ONE = Rational(1)


def rat(value) -> Rational:
    """Coerce an int, Fraction, or 'p/q' string to a Fraction."""
    if isinstance(value, float):
        raise InputError(f"refusing float {value!r}; use an exact rational")
    if isinstance(value, str):
        return parse_rational(value)
    return Rational(value)


def parse_rational(text: str) -> Rational:
    """Parse 'p/q' (or a bare integer 'p') into an exact rational."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            d = int(den)
            if d <= 0:
                raise InputError(f"denominator must be positive in {text!r}")
            return Rational(int(num), d)
        return Rational(int(s))
    except ValueError as exc:
        raise InputError(f"not a rational: {text!r}") from exc


def rat_str(value) -> str:
    """Serialize in lowest terms with positive denominator; 'p' when q == 1."""
    q = Rational(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"

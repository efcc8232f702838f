"""Exact rational arithmetic.

Subset vectors, schema rows and LP data are ints. Rationals appear only where
a value can be fractional: certificate weights, claimed values and LP results.
The one rational type is fractions.Fraction, with unbounded integer numerator
and denominator; no floating point ever enters.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import InputError

Rational = Fraction
BACKEND = "fractions"

ZERO = Rational(0)
ONE = Rational(1)


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rat(value) -> Rational:
    """Coerce an int, Fraction, or 'p/q' (or bare 'p') string to a Fraction.

    A string must be ASCII `-?[0-9]+(/[0-9]+)?` with q > 0: no sign on q, no
    '+', no spaces, no underscores, no other digits.
    """
    if type(value) is Rational:
        return value
    if isinstance(value, float):
        raise InputError(f"refusing float {value!r}; use an exact rational")
    if not isinstance(value, str):
        return Rational(value)
    match = _RATIONAL.fullmatch(value)
    try:
        if match is None:
            raise ValueError
        # int() also refuses more digits than sys.get_int_max_str_digits()
        num, den = int(match[1]), int(match[2] or 1)
    except ValueError:
        raise InputError(f"not a rational: {value!r}") from None
    if den == 0:
        raise InputError(f"denominator must be positive in {value!r}")
    return Rational(num, den)


def rat_str(value) -> str:
    """Serialize in lowest terms with positive denominator; 'p' when q == 1.
    Takes what `rat` takes, so a float is refused, not written out exactly."""
    q = rat(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def scaled(values) -> tuple[list[int], int]:
    """(nums, den): den is the lcm of the denominators of values, 1 for
    none, and nums lists each value times den, an int. Takes what `rat`
    takes, so a float is refused."""
    qs = [rat(v) for v in values]
    den = lcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs], den

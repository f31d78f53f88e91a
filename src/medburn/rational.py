"""Exact rational numbers and their text renderings.

Every quantity in this package is an exact rational; floats never enter any
computation.  The backing type is ``gmpy2.mpq`` when available and
``fractions.Fraction`` otherwise.  Both store lowest-terms
numerator/denominator with a positive denominator and give exact ``+ - * /``.
The LP solver's pivot loop works on Python integers and does not use this
type; it enters only where programs are built, answers are read back and
certificates are checked.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

try:
    from gmpy2 import mpq as _mpq

    Rational = type(_mpq(0))
    _HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _mpq = Fraction
    Rational = Fraction
    _HAVE_GMPY2 = False

RationalLike = Union[int, str, Fraction, "Rational"]

ZERO = _mpq(0)
ONE = _mpq(1)


def rat(value: RationalLike, denominator: int | None = None) -> Rational:
    """Build an exact rational from an int, ``p/q``, or an exact decimal string.

    Decimal literals convert exactly (``"0.25"`` -> 1/4).  Floats are rejected:
    they would smuggle binary rounding into an otherwise exact pipeline.
    """
    if denominator is not None:
        if denominator == 0:
            raise ZeroDivisionError("rational with zero denominator")
        return _mpq(value, denominator)
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, (int, Fraction)) or isinstance(value, Rational):
        return _mpq(value)
    if isinstance(value, str):
        try:
            return _mpq(Fraction(value.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational literal {value!r}") from exc
    raise TypeError(f"cannot convert {type(value).__name__} to a rational")


def as_fraction(value: Rational) -> Fraction:
    return Fraction(int(value.numerator), int(value.denominator))


def format_fraction(value: Rational) -> str:
    """Render as ``p`` or ``p/q``; re-parses to the same rational."""
    return str(_mpq(value))


def format_decimal(value: Rational, places: int = 12) -> str:
    """Fixed-point decimal rendering, round-half-even, computed exactly."""
    if places < 0:
        raise ValueError("places must be nonnegative")
    q = _mpq(value)
    sign = "-" if q < 0 else ""
    p, d = abs(int(q.numerator)), int(q.denominator)
    scale = 10**places
    whole, rem = divmod(p * scale, d)
    doubled = 2 * rem
    if doubled > d or (doubled == d and whole % 2 == 1):
        whole += 1
    digits = str(whole).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"

"""Exact rational numbers and their text renderings.

Every quantity in this package is an exact rational; floats never enter any
computation.  ``Rational`` is ``fractions.Fraction``: lowest-terms
numerator/denominator with a positive denominator and exact ``+ - * /``.
The LP pivot loop, its answers and certificate checks, belief regions
(one homogeneous integer row form per region, read by containment,
emptiness and the envelope programs' cone blocks), atoms and decomposition
checks, the saddle certificate's payoffs and the grid oracle's kernels work
on Python integers over common denominators, built with the helpers below;
a ``ScaledVector`` carries such a vector between them.  ``Fraction`` still
enters where games and the non-envelope programs are built, where a
region's input rows are homogenized (once, in ``Polytope.on_simplex``),
where returned values, atoms and reweightings are built once from those
integers, and in the saddle and mechanism audits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Fraction
RationalLike = Union[int, str, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value: RationalLike, denominator: int | None = None) -> Rational:
    """Build an exact rational from an int, ``p/q``, or an exact decimal string.

    A ``Fraction`` comes back as the same object.

    Decimal literals convert exactly (``"0.25"`` -> 1/4).  Floats are rejected:
    they would smuggle binary rounding into an otherwise exact pipeline.
    """
    if denominator is not None:
        if denominator == 0:
            raise ZeroDivisionError("rational with zero denominator")
        return Fraction(value, denominator)
    if type(value) is Fraction:
        return value  # immutable and already in lowest terms
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational literal {value!r}") from exc
    raise TypeError(f"cannot convert {type(value).__name__} to a rational")


def lcm_of_denominators(values: Iterable[Rational]) -> int:
    """Least common denominator of ``values``."""
    # A list, not a generator: unpacking a generator builds its argument
    # tuple by resizing, and the interpreter then parks one tuple per call on
    # the free list of the final size, which grows peak memory.
    return math.lcm(*[v.denominator for v in values])


def numerator_over(value: Rational, den: int) -> int:
    """The integer ``n`` with ``n / den == value``; ``den`` is a multiple of its denominator."""
    return value.numerator * (den // value.denominator)


def over_common_denominator(values: Sequence[Rational]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their least common denominator, and that denominator."""
    den = lcm_of_denominators(values)
    return [numerator_over(v, den) for v in values], den


@dataclass(frozen=True)
class ScaledVector:
    """The rationals ``nums[i] / den``: integer numerators over one positive denominator.

    Not necessarily in lowest terms.  ``rationals()`` builds the ``Rational``
    tuple; code that works on integers reads ``nums`` and ``den`` directly.
    """

    nums: tuple[int, ...]
    den: int

    def rationals(self) -> tuple[Rational, ...]:
        den = self.den
        return tuple([Fraction(v, den) if v else ZERO for v in self.nums])


def scaled(values: Sequence[Rational] | ScaledVector) -> tuple[Sequence[int], int]:
    """Integer numerators and one positive denominator for ``values``."""
    if isinstance(values, ScaledVector):
        return values.nums, values.den
    return over_common_denominator(values)


def format_fraction(value: Rational) -> str:
    """Render as ``p`` or ``p/q``; re-parses to the same rational."""
    return str(Fraction(value))


def format_decimal(value: Rational, places: int = 12) -> str:
    """Fixed-point decimal rendering, round-half-even, computed exactly."""
    if places < 0:
        raise ValueError("places must be nonnegative")
    q = Fraction(value)
    sign = "-" if q < 0 else ""
    p, d = abs(q.numerator), q.denominator
    scale = 10**places
    whole, rem = divmod(p * scale, d)
    doubled = 2 * rem
    if doubled > d or (doubled == d and whole % 2 == 1):
        whole += 1
    digits = str(whole).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"

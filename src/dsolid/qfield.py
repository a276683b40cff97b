"""Exact arithmetic in real quadratic extensions Q(sqrt(d)).

Used to place exact sample points on conics that need not have rational
points.  ``d`` must not be a perfect square (else Q(sqrt(d)) degenerates);
``sqrt_fraction`` returns a plain Fraction in the square case instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class QuadExt:
    """Element a + b*sqrt(d) of Q(sqrt(d)), d a non-square integer."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self) -> None:
        if _is_square(self.d):
            raise ValueError(f"d={self.d} is a perfect square; use Fraction arithmetic")

    def _coerce(self, other: "QuadExt | Fraction | int") -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError("mixed quadratic fields")
            return other
        return QuadExt(Fraction(other), Fraction(0), self.d)

    def __add__(self, other: "QuadExt | Fraction | int") -> "QuadExt":
        o = self._coerce(other)
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other: "QuadExt | Fraction | int") -> "QuadExt":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "QuadExt | Fraction | int") -> "QuadExt":
        return self._coerce(other) + (-self)

    def __mul__(self, other: "QuadExt | Fraction | int") -> "QuadExt":
        o = self._coerce(other)
        return QuadExt(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QuadExt":
        if k < 0:
            raise ValueError("negative power")
        out = QuadExt(Fraction(1), Fraction(0), self.d)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


def sqrt_fraction(x: Fraction) -> Fraction | QuadExt:
    """Exact square root of a rational: Fraction when square, else a QuadExt.

    For negative or irrational-square-root inputs the result lives in the
    formal field Q(sqrt(d)) with d = numerator*denominator.
    """
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    if num > 0 and _is_square(num) and _is_square(den):
        return Fraction(math.isqrt(num), math.isqrt(den))
    d = num * den
    return QuadExt(Fraction(0), Fraction(1, den), d)


def _integer_pair(v: "QuadExt | Fraction | int") -> tuple[int, int, int]:
    """``v`` as ``(x, y, den)`` with ``v = (x + y sqrt(d)) / den`` and ``den > 0``."""
    if not isinstance(v, QuadExt):
        v = Fraction(v)
        return v.numerator, 0, v.denominator
    den = math.lcm(v.a.denominator, v.b.denominator)
    return (v.a.numerator * (den // v.a.denominator),
            v.b.numerator * (den // v.b.denominator), den)


def eval_poly_at(poly, values: list) -> "QuadExt | Fraction | int":
    """Evaluate a MultiPoly at a point with rational or QuadExt coordinates.

    At a point with a QuadExt coordinate every coordinate is written as an
    integer pair over an integer denominator, ``(x + y sqrt(d)) / den``, so
    each term is a product of integers; the terms are summed over the lcm
    of their denominators and one QuadExt is built at the end.  At a
    rational point the value is ``poly.evaluate(values)``.
    """
    quad = [i for i, v in enumerate(values) if isinstance(v, QuadExt)]
    if not quad:
        return poly.evaluate(values)
    d = values[quad[0]].d
    if any(values[i].d != d for i in quad):
        raise ValueError("mixed quadratic fields")
    rat = [i for i, v in enumerate(values) if not isinstance(v, QuadExt)]
    coords = [_integer_pair(v) for v in values]
    powers: dict[tuple[int, int], tuple[int, int, int]] = {}

    def power(i: int, k: int) -> tuple[int, int, int]:
        p = powers.get((i, k))
        if p is None:
            x, y, den = coords[i]
            a, b, e = power(i, k - 1) if k > 1 else (1, 0, 1)
            p = powers[(i, k)] = (a * x + b * y * d, a * y + b * x, e * den)
        return p

    ta, tb, tden = 0, 0, 1
    for exp, c in poly.terms.items():
        a, b, den = c.numerator, 0, c.denominator
        for i in rat:
            k = exp[i]
            if k:
                x, _, e = power(i, k)
                a, den = a * x, den * e
        for i in quad:
            k = exp[i]
            if k:
                x, y, e = power(i, k)
                a, b, den = a * x + b * y * d, a * y + b * x, den * e
        if den != tden:
            lcm = math.lcm(tden, den)
            ta, tb = ta * (lcm // tden), tb * (lcm // tden)
            a, b, tden = a * (lcm // den), b * (lcm // den), lcm
        ta += a
        tb += b
    return QuadExt(Fraction(ta, tden), Fraction(tb, tden), d)

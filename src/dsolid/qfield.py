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


def eval_poly_at(poly, values: list) -> "QuadExt | Fraction":
    """Evaluate a MultiPoly at a point with Fraction or QuadExt coordinates.

    The rational coordinates are evaluated in Q first: the terms are grouped
    by their exponents in the QuadExt coordinates, and each group's rational
    sum is lifted into Q(sqrt(d)) once.
    """
    d = next((v.d for v in values if isinstance(v, QuadExt)), None)
    if d is None:
        return poly.evaluate([Fraction(v) for v in values])
    quad = [i for i, v in enumerate(values) if isinstance(v, QuadExt)]
    rat = [(i, Fraction(v)) for i, v in enumerate(values) if not isinstance(v, QuadExt)]
    rpowers: dict[tuple[int, int], Fraction] = {}
    groups: dict[tuple[int, ...], Fraction] = {}
    for exp, c in poly.terms.items():
        for i, v in rat:
            k = exp[i]
            if k:
                p = rpowers.get((i, k))
                if p is None:
                    p = rpowers[(i, k)] = v**k
                c = c * p
        key = tuple(exp[i] for i in quad)
        groups[key] = groups.get(key, Fraction(0)) + c
    total = QuadExt(Fraction(0), Fraction(0), d)
    for key, c in groups.items():
        term = QuadExt(c, Fraction(0), d)
        for i, k in zip(quad, key):
            if k:
                term = term * values[i] ** k
        total = total + term
    return total

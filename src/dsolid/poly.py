"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a mapping from exponent tuples to nonzero Fraction
coefficients.  The zero polynomial stores no terms.  All arithmetic is
exact; equality of polynomials is literal equality of canonical term
dictionaries, which makes identity testing fully reliable.

A product scales each operand to integer numerators over the lcm of its
denominators, multiplies and accumulates in ``int``, and divides by the
product of the two denominators once per output term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

Exponent = tuple[int, ...]


def _integral(terms: Mapping[Exponent, Fraction]) -> tuple[int, list[tuple[Exponent, int]]]:
    """The lcm ``den`` of the denominators and the terms scaled by it to ints."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return den, [(e, c.numerator * (den // c.denominator)) for e, c in terms.items()]


@dataclass(frozen=True)
class MultiPoly:
    """Sparse polynomial in ``nvars`` variables with Fraction coefficients."""

    nvars: int
    terms: Mapping[Exponent, Fraction]

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars, {})

    @staticmethod
    def const(nvars: int, value: int | Fraction) -> "MultiPoly":
        c = Fraction(value)
        return MultiPoly(nvars, {} if c == 0 else {(0,) * nvars: c})

    @staticmethod
    def var(nvars: int, idx: int, power: int = 1) -> "MultiPoly":
        if not 0 <= idx < nvars:
            raise ValueError(f"variable index {idx} out of range for nvars={nvars}")
        exp = [0] * nvars
        exp[idx] = power
        return MultiPoly(nvars, {tuple(exp): Fraction(1)})

    @staticmethod
    def monomial(nvars: int, exp: Exponent, coeff: int | Fraction = 1) -> "MultiPoly":
        c = Fraction(coeff)
        if len(exp) != nvars:
            raise ValueError("exponent length mismatch")
        return MultiPoly(nvars, {} if c == 0 else {tuple(exp): c})

    @staticmethod
    def from_terms(nvars: int, terms: Iterable[tuple[Exponent, int | Fraction]]) -> "MultiPoly":
        acc: dict[Exponent, Fraction] = {}
        for exp, c in terms:
            c = Fraction(c)
            if c == 0:
                continue
            exp = tuple(exp)
            acc[exp] = acc.get(exp, Fraction(0)) + c
            if acc[exp] == 0:
                del acc[exp]
        return MultiPoly(nvars, acc)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            v = out.get(exp, Fraction(0)) + c
            if v == 0:
                out.pop(exp, None)
            else:
                out[exp] = v
        return MultiPoly(self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            v = out.get(exp)
            if v is None:
                out[exp] = -c
            elif v == c:
                del out[exp]
            else:
                out[exp] = v - c
        return MultiPoly(self.nvars, out)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        da, na = _integral(self.terms)
        db, nb = _integral(other.terms)
        acc: dict[Exponent, int] = {}
        for ea, ca in na:
            for eb, cb in nb:
                exp = tuple(map(add, ea, eb))
                acc[exp] = acc.get(exp, 0) + ca * cb
        den = da * db
        return MultiPoly(self.nvars, {e: Fraction(v, den) for e, v in acc.items() if v})

    def scale(self, c: int | Fraction) -> "MultiPoly":
        c = Fraction(c)
        if c == 0:
            return MultiPoly.zero(self.nvars)
        return MultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and dict(self.terms) == dict(other.terms)
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exp: Exponent) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def derivative(self, idx: int) -> "MultiPoly":
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            k = exp[idx]
            if k == 0:
                continue
            new = list(exp)
            new[idx] = k - 1
            ne = tuple(new)
            v = out.get(ne, Fraction(0)) + c * k
            if v == 0:
                out.pop(ne, None)
            else:
                out[ne] = v
        return MultiPoly(self.nvars, out)

    # -- substitution ------------------------------------------------------

    def substitute_monomials(
        self, nvars_out: int, images: Mapping[int, tuple[int | Fraction, Exponent]]
    ) -> "MultiPoly":
        """Substitute each variable by a monomial ``coeff * x^exp``.

        Fast path used for parametrizations; every variable of self must
        have an image.  Exact, term by term.
        """
        out: dict[Exponent, Fraction] = {}
        powers: dict[tuple[int, int], Fraction] = {}
        norm = {i: (Fraction(ic), ie) for i, (ic, ie) in images.items()}
        for exp, c in self.terms.items():
            coeff = c
            acc = [0] * nvars_out
            dead = False
            for i, k in enumerate(exp):
                if k == 0:
                    continue
                ic, ie = norm[i]
                if ic == 0:
                    dead = True
                    break
                key = (i, k)
                p = powers.get(key)
                if p is None:
                    p = powers[key] = ic**k
                coeff *= p
                for t, pw in enumerate(ie):
                    if pw:
                        acc[t] += pw * k
            if dead:
                continue
            mono = tuple(acc)
            v = out.get(mono, Fraction(0)) + coeff
            if v == 0:
                out.pop(mono, None)
            else:
                out[mono] = v
        return MultiPoly(nvars_out, out)

    def substitute(self, images: list["MultiPoly"]) -> "MultiPoly":
        """General composition: variable i is replaced by images[i]."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        nv = images[0].nvars if images else 0
        for im in images:
            if im.nvars != nv:
                raise ValueError("images live in different rings")
        out = MultiPoly.zero(nv)
        powers: list[dict[int, MultiPoly]] = [dict() for _ in range(self.nvars)]

        def pw(i: int, k: int) -> MultiPoly:
            if k not in powers[i]:
                powers[i][k] = images[i] ** k
            return powers[i][k]

        for exp, c in self.terms.items():
            term = MultiPoly.const(nv, c)
            for i, k in enumerate(exp):
                if k:
                    term = term * pw(i, k)
            out = out + term
        return out

    def evaluate(self, values: list[Fraction | int]) -> Fraction:
        if len(values) != self.nvars:
            raise ValueError("need one value per variable")
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for exp, c in self.terms.items():
            t = c
            for v, k in zip(vals, exp):
                if k:
                    t *= v**k
            total += t
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.terms:
            return "0"
        bits = []
        for exp, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{k}" for i, k in enumerate(exp) if k)
            bits.append(f"{c}{'*' + mono if mono else ''}")
        return " + ".join(bits)

"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a mapping from exponent tuples to nonzero rational
coefficients.  A coefficient is stored as an ``int`` when it is integral
and as a ``Fraction`` with denominator > 1 otherwise, so integral work
stays in ``int`` arithmetic; since ``int`` and ``Fraction`` compare and
hash equal, this canonical form does not change equality or hashing.
The zero polynomial stores no terms.  All arithmetic is exact; equality
of polynomials is literal equality of canonical term dictionaries, which
makes identity testing fully reliable.

A product scales each operand to integer numerators over the lcm of its
denominators, packs every exponent tuple into one ``int`` (one digit per
variable, in a base above the largest product exponent) so that a
monomial product is one integer addition, and divides by the product of
the two denominators once per output term.  A square ``p * p`` (the same
object on both sides) adds up only the pairs i <= j of terms, the diagonal
once and each cross term doubled, in ``square_into``; one square is still
one product call with the same output terms.  The branch quartic of
``scroll`` squares its packed Q with ``square_into`` too, straight into the
accumulator of F, with no product call.

Byte-digit keys are unpacked through ``_exponents``, one table per
variable count from packed key to exponent tuple.  A table holds only
immutable tuples and is never cleared, so the products of one variable
count share one tuple per monomial: the quartics of one n, and the chart
polynomials in 5 variables, reuse the tuples the first product made, and
later lookups keyed by them compare by identity.  No result depends on
what a table holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

Exponent = tuple[int, ...]
Coeff = int | Fraction


def _canonical(c: int | Fraction) -> Coeff:
    """``c`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _integral(terms: Mapping[Exponent, Coeff]) -> tuple[int, list[int]]:
    """The lcm ``den`` of the denominators and the coefficients scaled by it to ints."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    if den == 1:
        return 1, list(terms.values())
    return den, [c.numerator * (den // c.denominator) for c in terms.values()]


def _pack(exps: Iterable[Exponent], top: int) -> list[int]:
    """Each exponent tuple as one ``int``, one digit per variable, first lowest.

    The digits are wide enough for entries up to ``top``, so adding packed
    tuples adds them entrywise as long as no entry of a sum exceeds ``top``.
    Digits are bytes when ``top < 256``.
    """
    if top < 256:
        return [int.from_bytes(bytes(e), "little") for e in exps]
    bits = top.bit_length()
    return [sum([k << (bits * i) for i, k in enumerate(e)]) for e in exps]


class _Exponents(dict):
    """Byte-digit packed key to exponent tuple, for one variable count.

    A key not yet seen is unpacked once, by ``__missing__``.
    """

    def __init__(self, nvars: int):
        super().__init__()
        self.nvars = nvars

    def __missing__(self, key: int) -> Exponent:
        exp = self[key] = tuple(key.to_bytes(self.nvars, "little"))
        return exp


# the ``_Exponents`` table of each variable count unpacked so far
_exponents: dict[int, _Exponents] = {}


def _exponent_table(nvars: int) -> _Exponents:
    table = _exponents.get(nvars)
    if table is None:
        table = _exponents[nvars] = _Exponents(nvars)
    return table


def _unpack(keys: Iterable[int], top: int, nvars: int) -> list[Exponent]:
    """Inverse of ``_pack`` for tuples of length ``nvars``."""
    if top < 256:
        return list(map(_exponent_table(nvars).__getitem__, keys))
    bits = top.bit_length()
    mask = (1 << bits) - 1
    shifts = range(0, bits * nvars, bits)
    return [tuple([(k >> s) & mask for s in shifts]) for k in keys]


def square_into(acc: dict[int, int], terms: list[tuple[int, int]], scale: int) -> None:
    """Add ``scale`` times the square of ``terms`` into ``acc``, in place.

    ``terms`` are (packed exponent, integer coefficient) pairs, packed by
    ``_pack`` with digits wide enough for twice the largest entry.  Only the
    pairs i <= j are visited, the diagonal once and each cross term doubled;
    a key not yet in ``acc`` is inserted when its first pair is reached.
    Sums that cancel stay in ``acc`` as 0.
    """
    get = acc.get
    for i, (ka, ca) in enumerate(terms):
        m = scale * ca
        k = ka + ka
        acc[k] = get(k, 0) + m * ca
        m += m
        for kb, cb in terms[i + 1:]:
            k = ka + kb
            acc[k] = get(k, 0) + m * cb


def _quotient(v: int, den: int) -> Coeff:
    """``v / den`` in canonical form."""
    q, r = divmod(v, den)
    return q if r == 0 else Fraction(v, den)


@dataclass(frozen=True)
class MultiPoly:
    """Sparse polynomial in ``nvars`` variables with rational coefficients."""

    nvars: int
    terms: Mapping[Exponent, Coeff]

    @staticmethod
    def from_terms(nvars: int, terms: Iterable[tuple[Exponent, int | Fraction]]) -> "MultiPoly":
        acc: dict[Exponent, Coeff] = {}
        for exp, c in terms:
            c = _canonical(c)
            if c == 0:
                continue
            exp = tuple(exp)
            v = acc.get(exp, 0) + c
            if v == 0:
                del acc[exp]
            else:
                acc[exp] = _canonical(v)
        return MultiPoly(nvars, acc)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def _plus(self, other: "MultiPoly", rest: dict[Exponent, Coeff]) -> "MultiPoly":
        """self + other, where ``rest`` is a fresh copy of ``other.terms``,
        negated or not.

        Each shared exponent keeps its place in self and is folded in, or
        dropped when it cancels; the others follow in other's order, copied
        by one ``update``.
        """
        self._check(other)
        out = dict(self.terms)
        for exp in out.keys() & rest.keys():
            v = out[exp] + rest.pop(exp)
            if v:
                out[exp] = _canonical(v)
            else:
                del out[exp]
        out.update(rest)
        return MultiPoly(self.nvars, out)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._plus(other, dict(other.terms))

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._plus(other, {e: -c for e, c in other.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        nv = self.nvars
        if not self.terms or not other.terms:
            return MultiPoly(nv, {})
        square = other is self
        da, na = _integral(self.terms)
        db, nb = (da, na) if square else _integral(other.terms)
        top = max(map(max, self.terms)) + max(map(max, other.terms)) if nv else 0
        pa = list(zip(_pack(self.terms, top), na))
        acc: dict[int, int] = {}
        if square:
            square_into(acc, pa, 1)
        else:
            get = acc.get
            pb = list(zip(_pack(other.terms, top), nb))
            for ka, ca in pa:
                for kb, cb in pb:
                    k = ka + kb
                    acc[k] = get(k, 0) + ca * cb
        den = da * db
        if den == 1 and top < 256:
            # byte digits and no denominator: drop zeros and unpack in one pass
            table = _exponent_table(nv)
            return MultiPoly(nv, {table[k]: v for k, v in acc.items() if v})
        acc = {k: v for k, v in acc.items() if v}
        vals = acc.values() if den == 1 else [_quotient(v, den) for v in acc.values()]
        return MultiPoly(nv, dict(zip(_unpack(acc, top, nv), vals)))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self.terms))) <= 1

    def coefficient(self, exp: Exponent) -> Coeff:
        return self.terms.get(tuple(exp), 0)

    def derivative(self, idx: int) -> "MultiPoly":
        out: dict[Exponent, Coeff] = {}
        for exp, c in self.terms.items():
            k = exp[idx]
            if k == 0:
                continue
            new = list(exp)
            new[idx] = k - 1
            # distinct exponents stay distinct after the decrement
            out[tuple(new)] = _canonical(c * k)
        return MultiPoly(self.nvars, out)

    # -- substitution ------------------------------------------------------

    def specialize(self, fixed: Mapping[int, int | Fraction]) -> "MultiPoly":
        """Set each variable ``i`` in ``fixed`` to the constant ``fixed[i]``.

        The other variables are kept, in their order, as the variables of
        the result.  Term by term: each coefficient takes the powers of the
        fixed values, a term whose coefficient becomes 0 is dropped, and the
        rest are summed by their kept entries, each key in the place of its
        first term; sums that cancel are dropped at the end.
        """
        kept = [i for i in range(self.nvars) if i not in fixed]
        acc: dict[Exponent, Coeff] = {}
        get = acc.get
        for exp, c in self.terms.items():
            for i, v in fixed.items():
                k = exp[i]
                if k:
                    c = c * v**k
            if c:
                key = tuple([exp[i] for i in kept])
                acc[key] = get(key, 0) + c
        return MultiPoly(len(kept), {e: _canonical(c) for e, c in acc.items() if c})

    def evaluate(self, values: list[Fraction | int]) -> Coeff:
        if len(values) != self.nvars:
            raise ValueError("need one value per variable")
        vals = [_canonical(v) for v in values]
        total: Coeff = 0
        for exp, c in self.terms.items():
            for v, k in zip(vals, exp):
                if k:
                    c = c * v**k
            total += c
        return _canonical(total)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.terms:
            return "0"
        bits = []
        for exp, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{k}" for i, k in enumerate(exp) if k)
            bits.append(f"{c}{'*' + mono if mono else ''}")
        return " + ".join(bits)

"""Exact construction and verification of quartic branch data on the scroll.

The scroll Y in P^n is the union of 2-planes over the degree-(n-2)
rational normal curve; it is parametrized by

    (u0, u1, s, a, b) -> (z_j = s u0^{n-2-j} u1^j  for j <= n-2,
                          z_{n-1} = a, z_n = b).

A quartic instance consists of n-2 distinct fiber points (none at (0:1)),
the induced linear form f, and a quadric Q whose restriction to the last
plane has symmetric rank exactly two.  The branch quartic is

    F = z0 z_{n-1} z_n f - Q^2,

and every verification below is a literal polynomial identity over Q; no
floating point is used anywhere (every conic sample point is tested in
integers; an irrational one is one of a conjugate pair over Q(sqrt D),
tested at both at once).
Tangency along the double conics is one identity on the chart, with
g = prod (p_i u1 - q_i u0) over the roots:

    F∘φ + (Q∘φ)^2 = s^2 a b u0^{n-2} g.

Every restriction starts from the pullback along the chart, ``pullback``;
Q is pulled back once per instance and kept as ``QuarticInstance.pulled_q``.
Pullback is a ring homomorphism, so the left side is φ*(z0 z_{n-1} z_n f)
whatever Q is: the identity reads only the n - 1 terms of the shifted f, and
Q cancels.  The transversality probe reads the same pullback: it samples
only points of the conic Q∘φ = 0 over each root, where the Q terms of
∂_{u1}(F∘φ) vanish.  So no check squares Q on the chart.  The ambient F,
with O(n^4) terms, is built only to write or read an instance file, and
never as a polynomial product: ``QuarticInstance._ambient_quartic`` squares
Q and subtracts it from the shifted f in one pass over packed integer
exponents.  ``_written_big_f`` spells its terms for a file, and
``QuarticInstance.big_f`` (for tests, and a stored F that is spelled
otherwise) unpacks the same terms into a ``MultiPoly``.
The binary form g, whose coefficients are also those of f, comes from
``_root_form``.  A coordinate hyperplane of the chart is a term filter: the
cone z_{n-1} = 0 keeps the terms without a, the cone z_n = 0 those without
b, and the ridge line z0 = .. = z_{n-2} = 0 those without s.  Any other
restriction fixes chart variables to constants with ``MultiPoly.specialize``:
the fiber over (p:q) fixes {U0: p, U1: q}, and a line of a fiber plane fixes
its first two coordinates.  On a cone, Q is a quadratic form in (s, c)
whose coefficients are binary forms in (u0, u1), and the degree of its
double curve, a resultant's degree, is read off the exponents of the terms
the cone keeps: ``double_curve_degree`` draws no hyperplane.

The chart sends each ambient monomial to one chart monomial, so a pullback
is a relabelling of exponents followed by sums of the terms that share an
image.  The relabelling is a table from ambient to chart exponent that holds
one n at a time: the quadrics and quartics of one n repeat the same
monomials, so each image is computed about once per n rather than once per
term.  The same image rule counts the quadrics of the scroll ideal,
``ideal_quadric_dim``.

An instance file is ``json.dumps(instance_to_json(inst), indent=1,
sort_keys=True)`` byte for byte.  F depends only on the instance's value
(n, roots, f, Q), so its written term map is kept for the last value asked,
``_written_big_f``: the reader's rebuilt instance equals the one just
written, so a round trip builds and spells F once.  ``read_instance``
rebuilds f from the stored roots and compares the stored term maps of f and
F with those spellings as strings, parsing a stored map only when the
strings differ.  F is built again only for a read of another instance than
the last one asked, or to compare a stored F that is spelled otherwise.
The key of each exponent in a term map, ``"e0,e1,.."``, comes from a
spelling table that, like the image table, holds one variable count at a
time, so each exponent is spelled about once per n: ``_spellings``, keyed
by exponent tuple, for Q and f, and ``_quartic_keys``, keyed by packed
exponent, for F, which checks the degree of each new key.
"""

from __future__ import annotations

import functools
import json
import math
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from pathlib import Path
from types import MappingProxyType

from .poly import (Coeff, Exponent, MultiPoly, _canonical, _integral, _pack, _quotient, _unpack,
                   square_into)
# eval_poly_at is not called here; it stays importable from this module
# because the benchmark's tracing self-test checks this binding site
from .qfield import eval_poly_at, sqrt_fraction  # noqa: F401

# parametrization variable order
U0, U1, S, A, B = range(5)


class InstanceError(ValueError):
    """Invalid roots or quadric for a quartic instance."""


class RidgeDegenerate(RuntimeError):
    """The quadric vanishes on the ridge line; cone-curve count excluded."""


# coordinates are ints when integral, as polynomial coefficients are
Root = tuple[int | Fraction, int | Fraction]


def _norm_root(r) -> Root:
    p, q = map(_canonical, r)
    if p == 0 and q == 0:
        raise InstanceError("(0:0) is not a point")
    return (p, q)


def _proj_equal(r1: Root, r2: Root) -> bool:
    return r1[0] * r2[1] - r1[1] * r2[0] == 0


def _exp(nvars: int, *indices: int) -> Exponent:
    """The exponent of z_{i1} z_{i2} ..: each index adds one to its entry."""
    e = [0] * nvars
    for i in indices:
        e[i] += 1
    return tuple(e)


def _chart_image(exp: Exponent) -> Exponent:
    """The chart exponent of the ambient monomial z^exp, with n = len(exp) - 1.

    With s = sum e_j and w = sum j e_j over j <= n-2, the image of z^exp is
    u0^{(n-2)s - w} u1^w s^s a^{e_{n-1}} b^{e_n}.
    """
    head = exp[:-2]
    s = sum(head)
    w = sum(map(mul, head, range(len(head))))
    return ((len(head) - 1) * s - w, w, s, exp[-2], exp[-1])


# ``_chart_image`` of every ambient exponent pulled back so far, for the
# ambient variable count ``_table_nvars`` only
_table_nvars = 0
_table: dict[Exponent, Exponent] = {}


def pullback(p: MultiPoly) -> MultiPoly:
    """p(z0..zn) pulled back to the (u0, u1, s, a, b) chart, with n = p.nvars - 1.

    Each variable goes to a monomial with coefficient 1, so each term goes
    to one chart term and only the sums of terms with the same image need
    arithmetic.  The image of each exponent is looked up in ``_table``, which
    holds one n at a time and is replaced when n changes: the quadrics and
    quartics of one n share most of their monomials, so nearly every lookup
    hits (99% of the terms that ``verify --range 4..10 --seed 42`` pulls
    back).  Terms keep the order of their images' first occurrence, and
    sums that cancel are dropped.
    """
    global _table_nvars, _table
    nv = p.nvars
    if nv < 5:
        raise InstanceError(f"the scroll chart needs at least 5 variables, got {nv}")
    if nv != _table_nvars:
        _table_nvars, _table = nv, {}
    table = _table
    acc: dict[Exponent, Coeff] = {}
    get = acc.get
    for exp, c in p.terms.items():
        img = table.get(exp)
        if img is None:
            img = table[exp] = _chart_image(exp)
        acc[img] = get(img, 0) + c
    return MultiPoly(5, {img: _canonical(c) for img, c in acc.items() if c})


def _convolve(x: dict[int, Coeff], y: dict[int, Coeff]) -> dict[int, Coeff]:
    """Product of two binary forms given as coefficient maps keyed by the u1 exponent."""
    out: dict[int, Coeff] = {}
    for i, a in x.items():
        for j, b in y.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return out


def _root_form(roots) -> dict[int, Coeff]:
    """g = prod (p u1 - q u0) over the roots (p:q), keyed by the u1 exponent.

    Coefficients are not canonical and may be 0; ``MultiPoly.from_terms``
    makes them so.
    """
    g: dict[int, Coeff] = {0: 1}
    for p, q in roots:
        g = _convolve(g, {1: p, 0: -q})
    return g


def _valid_roots(n: int, roots: list) -> tuple[Root, ...]:
    """The roots in normal form, checked to be n-2 distinct points, none of
    them (0:1); each root is normalised here and nowhere else."""
    rs = tuple(map(_norm_root, roots))
    if len(rs) != n - 2:
        raise InstanceError(f"need exactly {n-2} roots, got {len(rs)}")
    for r in rs:
        if r[0] == 0:
            raise InstanceError("the point (0:1) is reserved for the splitting fiber")
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            if _proj_equal(rs[i], rs[j]):
                raise InstanceError(f"repeated root {rs[i]}")
    return rs


def linear_form_from_roots(n: int, roots: Sequence[Root]) -> MultiPoly:
    """The unique (up to scale) linear form in z0..z_{n-2} vanishing on the
    fibers over the given roots, as ``_valid_roots`` returns them.

    The coefficient of z_j is that of u0^{n-2-j} u1^j in ``_root_form``.
    """
    return MultiPoly.from_terms(n + 1, [(_exp(n + 1, j), c) for j, c in _root_form(roots).items()])


def ideal_member(p: MultiPoly) -> bool:
    """Membership in the scroll ideal: the pullback vanishes identically.

    Valid because the scroll is irreducible and the parametrization is
    dominant.  The input must be homogeneous.
    """
    if not p.is_homogeneous():
        raise InstanceError("ideal membership is only defined for homogeneous input")
    return pullback(p).is_zero()


def hankel_generators(n: int) -> list[MultiPoly]:
    """All 2x2 minors of the 2 x (n-2) catalecticant matrix of z0..z_{n-2}."""
    if n < 4:
        raise InstanceError(f"n must be at least 4, got {n}")
    nv = n + 1
    out = []
    for i in range(n - 2):
        for j in range(i + 1, n - 2):
            out.append(MultiPoly.from_terms(nv, [(_exp(nv, i, j + 1), 1), (_exp(nv, i + 1, j), -1)]))
    return out


def ideal_quadric_dim(n: int) -> int:
    """Dimension of the quadrics in the scroll ideal, counted on the chart.

    The pullback sends each quadric monomial to one chart monomial, so its
    kernel on quadrics is spanned by the differences of monomials with the
    same image: the dimension is the number of quadric monomials minus the
    number of their distinct ``_chart_image``s.
    """
    nv = n + 1
    monomials = [_exp(nv, i, j) for i in range(nv) for j in range(i, nv)]
    return len(monomials) - len(set(map(_chart_image, monomials)))


def splitting_matrix(q: MultiPoly) -> list[list[Coeff]]:
    """Twice the symmetric 3x3 matrix of Q restricted to the last plane
    (coordinates z_{n-2}, z_{n-1}, z_n).

    Off the diagonal stand Q's own coefficients, on it twice them: the
    factor 2 leaves the rank unchanged and no coefficient is halved, so an
    integral Q gives an ``int`` matrix and a Q with ``Fraction``
    coefficients stays exact.
    """
    n = q.nvars - 1
    idxs = [n - 2, n - 1, n]
    m: list[list[Coeff]] = [[0] * 3 for _ in range(3)]
    for r in range(3):
        for c in range(r, 3):
            v = q.coefficient(_exp(n + 1, idxs[r], idxs[c]))
            if r == c:
                m[r][r] = v + v
            else:
                m[r][c] = m[c][r] = v
    return m


def _matrix_rank3(m: list[list[Coeff]]) -> int:
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    if det != 0:
        return 3
    for r in range(3):
        for c in range(3):
            r2, c2 = (r + 1) % 3, (c + 1) % 3
            if m[r][c] * m[r2][c2] - m[r][c2] * m[r2][c] != 0:
                return 2
    if any(m[r][c] != 0 for r in range(3) for c in range(3)):
        return 1
    return 0


@dataclass(frozen=True)
class QuarticInstance:
    """Roots, linear form and quadric for one scroll; the quartic F on demand."""

    n: int
    roots: tuple[Root, ...]
    f: MultiPoly
    q: MultiPoly

    def _shifted_f(self) -> MultiPoly:
        """z0 z_{n-1} z_n f: each term c z_j of f shifted to c z0 z_j z_{n-1} z_n."""
        n, nv = self.n, self.n + 1
        return MultiPoly(nv, {_exp(nv, 0, exp.index(1), n - 1, n): c for exp, c in self.f.terms.items()})

    def _ambient_quartic(self) -> tuple[_QuarticKeys, int, dict[int, int]]:
        """F = z0 z_{n-1} z_n f - Q^2, built afresh from the instance's value.

        Returns the key table of F's exponents (``_quartic_key_table``), a
        common denominator ``den`` and the numerators over ``den`` of F's
        terms, keyed by their exponents as the table packs them; a sum that
        cancelled is still there, as 0.  One integer pass: with dq and df
        the lcms of the denominators of Q and of ``_shifted_f`` (as
        ``MultiPoly.__mul__`` scales a factor), ``den`` is the lcm of dq^2
        and df, the accumulator starts from the shifted f's numerators, and
        ``square_into`` subtracts the pairs i <= j of Q's terms from it, the
        diagonal once and each cross term doubled.  So the nonzero terms,
        their values over ``den`` and their order are those of the MultiPoly
        ``_shifted_f() - q * q``: the shifted f's first, then Q^2's.  Both
        readers of F, ``_written_big_f`` and ``big_f``, look every nonzero
        term up in the table, which checks its degree.
        """
        shifted, q = self._shifted_f(), self.q
        nv = q.nvars
        if shifted.nvars != nv:
            raise ValueError("variable count mismatch")
        top = max(2 * max(map(max, q.terms), default=0), max(map(max, shifted.terms), default=0))
        dq, nq = _integral(q.terms)
        df, nf = _integral(shifted.terms)
        den = math.lcm(dq * dq, df)
        sq, sf = den // (dq * dq), den // df
        acc = dict(zip(_pack(shifted.terms, top), nf if sf == 1 else [c * sf for c in nf]))
        square_into(acc, list(zip(_pack(q.terms, top), nq)), -sq)
        if not any(acc.values()):
            raise RuntimeError(_NOT_A_QUARTIC)
        return _quartic_key_table(nv, top), den, acc

    @functools.cached_property
    def big_f(self) -> MultiPoly:
        """The ambient quartic F = z0 z_{n-1} z_n f - Q^2, with O(n^4) terms.

        Built on first use, by tests and by a reader whose stored F is not
        spelled as ``_written_big_f`` spells it; a file's F comes from that
        memo.  Both read one ``_ambient_quartic``: the memo spells its keys
        and this unpacks them, so ``big_f`` has the terms of the file's F in
        the same order.  No check reads F: the tangency identity and the
        probe read the pullback of ``_shifted_f`` alone.
        """
        keys, den, acc = self._ambient_quartic()
        terms = {k: _quotient(v, den) for k, v in acc.items() if v}
        for k in terms:
            keys[k]  # the degree check of the memo's spelling
        return MultiPoly(keys.nvars, dict(zip(_unpack(terms, keys.top, keys.nvars), terms.values())))

    @functools.cached_property
    def pulled_q(self) -> MultiPoly:
        """Q pulled back to the (u0, u1, s, a, b) chart, once per instance.

        Not a field: an instance made by ``dataclasses.replace`` or built
        directly pulls back its own Q on first use.
        """
        return pullback(self.q)


def build_instance(n: int, roots: list, q: MultiPoly) -> QuarticInstance:
    """Validate the roots and the quadric of F = z0 z_{n-1} z_n f - Q^2.

    The restriction of Q to the last plane must be a symmetric rank-2
    conic (rank 3 would make the splitting fiber irreducible; rank <= 1 a
    double line), ranked on ``splitting_matrix`` in Q's own arithmetic;
    Q must not vanish identically on the scroll.  Nothing here multiplies
    polynomials.  The instance keeps Q's pullback, which the cone degrees
    and the probe's conics read; the tangency checks need no F, and the
    ambient F is built only to write or compare a file.
    """
    if n < 4:
        raise InstanceError(f"n must be at least 4, got {n}")
    roots = _valid_roots(n, roots)
    f = linear_form_from_roots(n, roots)
    if q.nvars != n + 1:
        raise InstanceError("quadric does not live on the ambient space")
    if set(map(sum, q.terms)) != {2}:
        raise InstanceError("Q must be a nonzero homogeneous quadric")
    # the ideal test of ``ideal_member``, on the pullback the instance keeps
    pulled_q = pullback(q)
    if pulled_q.is_zero():
        raise InstanceError("degenerate Q: vanishes identically on the scroll")
    rank = _matrix_rank3(splitting_matrix(q))
    if rank == 3:
        raise InstanceError("splitting conic has rank 3: the end fiber would not split")
    if rank <= 1:
        raise InstanceError("splitting conic degenerates to a double line (rank <= 1)")
    inst = QuarticInstance(n=n, roots=roots, f=f, q=q)
    inst.__dict__["pulled_q"] = pulled_q  # prime the cached property
    return inst


def _tangency_identity(chart: MultiPoly, roots: Sequence[Root], n: int) -> bool:
    """Whether ``chart`` is s^2 a b u0^{n-2} g, with g = ``_root_form(roots)``;
    the target has one term per coefficient of g."""
    want = MultiPoly.from_terms(
        5, [((n - 2 + len(roots) - j, j, 2, 1, 1), c) for j, c in _root_form(roots).items()])
    return chart == want


def double_conic_verify(inst: QuarticInstance) -> bool:
    """Tangency of the plane sections along conics, as one chart identity.

    With g = prod (p u1 - q u0) over the roots (p:q), F∘φ + (Q∘φ)^2 must
    equal s^2 a b u0^{n-2} g exactly.  Pullback is a ring homomorphism, so
    the left side is the pullback of the shifted f for every Q, and Q is
    never squared.  The right side is built from the roots, not from f
    (``build_instance`` derives f from the same product, and
    ``instance_from_json`` rejects any other f), so the identity tests f and
    the chart images of z0, z_{n-1} and z_n.  It vanishes on every root
    fiber, on the splitting fiber u0 = 0 and on the cones a = 0 and b = 0,
    and on no other fiber: so F restricts to -Q^2 on exactly those sections.
    """
    return _tangency_identity(pullback(inst._shifted_f()), inst.roots, inst.n)


def splitting_conic_rank(inst: QuarticInstance) -> int:
    return _matrix_rank3(splitting_matrix(inst.q))


def double_curve_degree(inst: QuarticInstance) -> tuple[int, int]:
    """Degrees of the double curve on the two cone sections of the scroll.

    Side n is the cone z_{n-1} = 0, side n+1 the cone z_n = 0; the pair is
    returned in that order.  Each cone, and the ridge line, is a term filter
    on the pullback of Q.  On a cone, Q = A s^2 + B s c + C c^2 with c the
    kept last coordinate and A, B, C binary forms in (u0, u1).  A hyperplane
    D s + E c = 0, with D of degree n - 2 and E constant, meets the curve
    {Q = 0} in the zeros of the resultant A E^2 - B D E + C D^2, which is
    not zero for generic D and E as long as the cone keeps a term of Q.  Its
    degree, the count with multiplicity, is that of each term: a term
    u0^i u1^j s^k of the cone contributes i + j + (2 - k)(n - 2).  So the
    degree is read off the kept exponents, and no hyperplane is drawn.
    """
    n = inst.n
    pulled = inst.pulled_q
    if all(exp[S] for exp in pulled.terms):
        raise RidgeDegenerate("Q contains the ridge line; degree count excluded")
    degrees = []
    for cone in (A, B):
        side = {exp[U0] + exp[U1] + (2 - exp[S]) * (n - 2)
                for exp in pulled.terms if exp[cone] == 0}
        if not side:
            raise RidgeDegenerate("Q vanishes on the cone; degree count excluded")
        if len(side) > 1:
            raise RuntimeError("resultant lost homogeneity")
        degrees.append(side.pop())
    return degrees[0], degrees[1]


class ProbeExcluded(ValueError):
    """The splitting fiber is excluded from the tangency probe."""


def smoothness_probe(inst: QuarticInstance, rng: random.Random) -> int | None:
    """First-order transversality of the branch quartic along every double conic.

    At sample points of the conic over each root, the derivative of F along
    the fiber direction must not vanish; with a simple root it reduces to
    a nonzero constant times s^2 a b, so failures detect repeated roots.
    The derivative is taken of the pullback of the shifted f alone: that of
    F∘φ differs from it by -2 (Q∘φ) ∂_{u1}(Q∘φ), which vanishes at every
    sample because every sample lies on the conic Q∘φ = 0 over its root.
    So the draws and the verdict are those of F∘φ, and neither F nor
    (Q∘φ)^2 is built.  The derivative and Q∘φ are specialized to each
    root's fiber once; the sampler then works on integer columns of the two
    (``_vanishes_at_a_sample``).  The roots are probed in order, and the
    index of the first root whose derivative vanishes at a sample is
    returned (None when every root passes).
    """
    if any(p == 0 for p, _ in inst.roots):
        raise ProbeExcluded("the splitting fiber is excluded from the probe")
    # along u1, of the pullback of z0 z_{n-1} z_n f: at most n - 2 terms
    derivative = pullback(inst._shifted_f()).derivative(U1)
    pulled_q = inst.pulled_q
    for index, (p, q) in enumerate(inst.roots):
        fiber = {U0: p, U1: q}
        if _vanishes_at_a_sample(derivative.specialize(fiber), pulled_q.specialize(fiber), rng):
            return index
    return None


def _integer_columns(p: MultiPoly) -> tuple[int, list[dict[int, int]]]:
    """``p`` in (s, a, b) at s = 1, as integer columns keyed by the exponent of b.

    Returns ``top``, the largest degree in (a, b), and ``cols``: with
    t = num/den and X = den·b, some positive integer multiple of
    ``den**top * p(1, t, b)`` is ``sum_j col_j X^j``, where ``cols[j]`` maps
    k to the coefficient of ``num**k * den**(top - j - k)`` in col_j.
    """
    _, coeffs = _integral(p.terms)
    top = max((e[1] + e[2] for e in p.terms), default=0)
    cols: list[dict[int, int]] = [{} for _ in range(max((e[2] + 1 for e in p.terms), default=0))]
    for (_, k, j), c in zip(p.terms, coeffs):
        col = cols[j]
        col[k] = col.get(k, 0) + c
    return top, cols


def _column_values(top: int, cols: list[dict[int, int]], num: int, den: int) -> list[int]:
    """The integer coefficients of X^0, X^1, .. in ``_integer_columns`` at t = num/den."""
    nums, dens = [1], [1]
    for _ in range(top):
        nums.append(nums[-1] * num)
        dens.append(dens[-1] * den)
    return [sum(c * nums[k] * dens[top - j - k] for k, c in col.items())
            for j, col in enumerate(cols)]


def _at_conjugate(values: list[int], num: int, disc: int, den: int) -> tuple[int, int]:
    """``sum_j values[j] X^j`` at X = (num + sqrt(disc))/den, scaled by den^top.

    The result ``(x, y)`` stands for x + y·sqrt(disc), ``top = len(values) - 1``.
    For a non-square ``disc`` it is zero (x = y = 0) exactly when the
    polynomial vanishes at X, and then it vanishes at the conjugate
    (num - sqrt(disc))/den as well: the coefficients are rational.
    """
    x = y = 0
    scale = 1
    for v in reversed(values):
        x, y = x * num + y * disc + v * scale, x + y * num
        scale *= den
    return x, y


def _vanishes_at_a_sample(h: MultiPoly, conic: MultiPoly, rng: random.Random) -> bool:
    """Whether h vanishes at one of 8 sample points of the conic, both in (s, a, b).

    Each draw fixes t in the point (1, t, b) and solves the conic for b; a
    draw whose line is degenerate, or a point with t = 0 or b = 0, is
    resampled.  With t = num/den and X = den·b, the conic's line and h are
    integer polynomials in X (``_integer_columns``, grouped once per call).
    Every point is tested in integers: ``_at_conjugate`` gives h, and the
    point's place on the conic, as pairs x + y·sqrt(D) at the roots
    X = (-β ± sqrt(D))/(2γ) of the line.  When the discriminant D is not a
    square (D < 0 is the formal field), the roots are conjugate and one pair
    tests both.  When D = r², the values at the two rational roots are
    x ± y·r, tested one at a time; a line with γ = 0 has the single root
    X = -α/β, read as a pair with D = 0.  The draws and the verdict do not
    depend on the route.
    """
    samples = 8
    got = 0
    conic_top, conic_cols = _integer_columns(conic)
    h_top, h_cols = _integer_columns(h)
    for _ in range(400):
        if got >= samples:
            break
        t = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
        if t == 0:
            continue
        num, den = t.numerator, t.denominator
        # solve conic(1, t, b) = 0 for X = den·b
        line = _column_values(conic_top, conic_cols, num, den)
        alpha, beta, gamma = (line + [0, 0, 0])[:3]
        if gamma == 0:
            if beta == 0:
                continue
            x_num, disc, x_den, sqrts = -alpha, 0, beta, (0,)
        else:
            x_num, x_den = -beta, 2 * gamma
            disc = beta * beta - 4 * gamma * alpha
            root = sqrt_fraction(disc)
            if not isinstance(root, Fraction):
                if _at_conjugate(line, x_num, disc, x_den) != (0, 0):
                    raise RuntimeError("sample point is not on the conic")
                h_line = _column_values(h_top, h_cols, num, den)
                if _at_conjugate(h_line, x_num, disc, x_den) == (0, 0):
                    return True
                got = min(got + 2, samples)
                continue
            # the two rational roots, sqrt(D) read as r and as -r
            sqrts = (root.numerator, -root.numerator)
        x, y = _at_conjugate(line, x_num, disc, x_den)
        hx, hy = _at_conjugate(_column_values(h_top, h_cols, num, den), x_num, disc, x_den)
        for r in sqrts:
            if got >= samples:
                break
            if x_num + r == 0:
                continue  # coordinate degeneracy b = 0: resample
            if x + y * r != 0:
                raise RuntimeError("sample point is not on the conic")
            if hx + hy * r == 0:
                return True
            got += 1
    if got < samples:
        raise RuntimeError("could not collect enough conic sample points")
    return False


# -- instance generation and serialization ------------------------------------


def random_instance(n: int, rng: random.Random) -> QuarticInstance:
    """Seeded random instance with the splitting constraint built in.

    Q is drawn straight into one term map, with no polynomial product:
    first the products v_a w_b of two random linear forms v, w on the last
    plane, summed per exponent and in the order that multiplying the two
    forms would give, then the nonzero random terms z_i z_j with i < n - 2,
    which never meet the last plane.  The draws, their order and the
    resulting terms are those of building Q as that product plus the
    random terms.
    """
    # n - 2 distinct values need 2 r + 1 >= n - 2; r = 60 up to n = 123
    r = max(60, (n - 2) // 2)
    nv = n + 1
    last3 = (n - 2, n - 1, n)
    for _ in range(200):
        vals = rng.sample(range(-r, r + 1), n - 2)
        roots = [(1, v) for v in vals]
        # rank-2 restriction: product of two independent linear forms in the
        # last three coordinates, with both end squares present
        v = [rng.randint(-5, 5) for _ in range(3)]
        w = [rng.randint(-5, 5) for _ in range(3)]
        indep = any(v[i] * w[j] - v[j] * w[i] != 0 for i in range(3) for j in range(3))
        if not indep or v[1] * w[1] == 0 or v[2] * w[2] == 0:
            continue
        # zero coefficients skipped and cancelled sums dropped, as in a product
        terms: dict[Exponent, Coeff] = {}
        for a, ca in zip(last3, v):
            if ca:
                for b, cb in zip(last3, w):
                    if cb:
                        exp = _exp(nv, a, b)
                        terms[exp] = terms.get(exp, 0) + ca * cb
        terms = {exp: c for exp, c in terms.items() if c}
        for i in range(0, n - 2):
            for j in range(i, n + 1):
                c = rng.randint(-4, 4)
                if c:
                    terms[_exp(nv, i, j)] = c
        try:
            return build_instance(n, roots, MultiPoly(nv, terms))
        except InstanceError:
            continue
    raise RuntimeError("failed to generate a valid instance")


class _Spellings(dict):
    """Exponent tuple to its key in a file, ``"e0,e1,.."``; a tuple not yet
    seen is spelled once, by ``__missing__``."""

    def __missing__(self, exp: Exponent) -> str:
        key = self[exp] = ",".join(map(str, exp))
        return key


# the spelling of every exponent written or compared so far, for the
# variable count ``_spelling_nvars`` only
_spelling_nvars = 0
_spellings = _Spellings()


_NOT_A_QUARTIC = "F = z0 z_{n-1} z_n f - Q^2 is not a homogeneous quartic"


# byte k < 10 to the ASCII digit of k
_DECIMAL_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


class _QuarticKeys(dict):
    """Packed exponent of a term of F to its key in a file, ``"e0,e1,.."``,
    for one variable count and exponents packed by ``poly._pack`` for
    entries up to ``top``.

    A key not yet seen is unpacked and spelled once, by ``__missing__``,
    which raises unless it is the exponent of a quartic monomial: so F's
    degree is checked once per new monomial, under ``python -O`` too, and
    every key the table holds is a quartic's.
    """

    def __init__(self, nvars: int, top: int):
        super().__init__()
        self.nvars, self.top = nvars, top

    def __missing__(self, key: int) -> str:
        [exp] = _unpack((key,), self.top, self.nvars)
        if sum(exp) != 4:
            raise RuntimeError(_NOT_A_QUARTIC)
        # every entry is at most 4, so one decimal digit
        spelled = self[key] = ",".join(bytes(exp).translate(_DECIMAL_DIGITS).decode())
        return spelled


# the key of every packed exponent of F spelled so far, for the variable count
# and packing of ``_quartic_keys`` only; every drawn instance packs with top 4
_quartic_keys = _QuarticKeys(0, 0)


def _quartic_key_table(nvars: int, top: int) -> _QuarticKeys:
    """``_quartic_keys``, replaced first when ``nvars`` or ``top`` changes."""
    global _quartic_keys
    if _quartic_keys.nvars != nvars or _quartic_keys.top != top:
        _quartic_keys = _QuarticKeys(nvars, top)
    return _quartic_keys


def _spelled(c: Coeff) -> str:
    """A coefficient as written to a file, ``"num/den"``."""
    return f"{c}/1" if type(c) is int else f"{c.numerator}/{c.denominator}"


def _terms_json(p: MultiPoly) -> dict[str, str]:
    """The term map of ``p`` as written to a file: ``"e0,e1,..": "num/den"``.

    Terms stay in dict order; the file's order comes from ``sort_keys``.
    Each exponent's key is looked up in ``_spellings``, which holds one
    variable count at a time and is replaced when it changes, as the image
    table of ``pullback`` is: the Q, f and F of one n share their monomials,
    so each exponent is spelled about once per n.
    """
    global _spelling_nvars, _spellings
    if p.nvars != _spelling_nvars:
        _spelling_nvars, _spellings = p.nvars, _Spellings()
    return dict(zip(map(_spellings.__getitem__, p.terms), map(_spelled, p.terms.values())))


@functools.lru_cache(maxsize=1)
def _written_big_f(inst: QuarticInstance) -> Mapping[str, str]:
    """The ``_terms_json`` of F, read-only, for the last instance value asked.

    Keyed by the instance's value (n, roots, f, Q), which alone determines
    F: the instance that ``instance_from_json`` rebuilds equals the one just
    written, so the reader finds the writer's spelling here.  F is built from
    that value, never read from the ``big_f`` cache, so an instance whose
    ``big_f`` was set by hand cannot put another F here.  Each nonzero term
    of ``_ambient_quartic`` is spelled in one pass, its key through the key
    table; F is never a ``MultiPoly`` here.
    """
    keys, den, acc = inst._ambient_quartic()
    if den == 1:
        spelled = {keys[k]: f"{v}/1" for k, v in acc.items() if v}
    else:
        spelled = {keys[k]: _spelled(Fraction(v, den)) for k, v in acc.items() if v}
    return MappingProxyType(spelled)


def instance_to_json(inst: QuarticInstance) -> dict:
    return {
        "n": inst.n,
        "roots": [[str(p), str(q)] for p, q in inst.roots],
        "Q": _terms_json(inst.q),
        "f": _terms_json(inst.f),
        "F": dict(_written_big_f(inst)),
    }


def _poly_from(d: dict[str, str], nvars: int) -> MultiPoly:
    """Inverse of the term map written by ``instance_to_json``."""
    terms = []
    for k, v in d.items():
        exp = tuple(map(int, k.split(",")))
        num, den = v.split("/")
        terms.append((exp, int(num) if den == "1" else Fraction(int(num), int(den))))
    return MultiPoly.from_terms(nvars, terms)


# what parsing a malformed instance raises: a missing key, a value of the
# wrong type or shape, a bad number, a zero denominator
_MALFORMED = (KeyError, TypeError, AttributeError, ValueError, ZeroDivisionError)


def _stored_poly(d, nvars: int) -> MultiPoly:
    """``_poly_from`` on a stored term map, whose exponents must have ``nvars`` entries >= 0."""
    try:
        p = _poly_from(d, nvars)
    except _MALFORMED as exc:
        raise InstanceError(f"malformed instance: bad term map ({exc!r})") from exc
    if p.terms and (set(map(len, p.terms)) != {nvars} or min(map(min, p.terms)) < 0):
        raise InstanceError(f"malformed instance: an exponent is not {nvars} entries >= 0")
    return p


def instance_from_json(data: dict) -> QuarticInstance:
    """Rebuild the instance from ``n``, the roots and Q, and check the stored f and F.

    A stored term map equal to the rebuilt polynomial's own ``_terms_json``
    is its canonical spelling, so it matches without parsing; F's spelling
    comes from ``_written_big_f``, which a writer of the same instance has
    just filled.  Any other map is parsed and compared as a polynomial,
    which accepts other spellings of the same terms (``"0/1"`` terms,
    ``"2/2"``) and rejects different ones.
    Data of any other shape raises ``InstanceError("malformed instance: ..")``.
    """
    try:
        n = data["n"]
        if type(n) is not int:
            raise TypeError(f"n is {n!r}, not an integer")
        roots = data["roots"]
        # strings, as written: a JSON number would enter exact arithmetic as a
        # binary float's value, and a boolean as 0 or 1
        if type(roots) is not list or any(
                type(r) is not list or list(map(type, r)) != [str, str] for r in roots):
            raise TypeError(f"roots are {roots!r}, not a list of two-string lists")
        roots = [(Fraction(p), Fraction(q)) for p, q in roots]
        stored = {key: data[key] for key in ("Q", "f", "F")}
    except _MALFORMED as exc:
        raise InstanceError(f"malformed instance: {exc!r}") from exc
    inst = build_instance(n, roots, _stored_poly(stored["Q"], n + 1))
    # round-trip integrity: the stored derived data must match exactly; the
    # ambient F is read only when its stored map is spelled otherwise
    if (stored["f"] != _terms_json(inst.f) and _stored_poly(stored["f"], n + 1) != inst.f
            or stored["F"] != _written_big_f(inst) and _stored_poly(stored["F"], n + 1) != inst.big_f):
        raise InstanceError("stored derived polynomials do not match the rebuilt instance")
    return inst


def write_instance(inst: QuarticInstance, path: str | Path) -> None:
    """Write ``json.dumps(instance_to_json(inst), indent=1, sort_keys=True)``.

    ``indent`` makes the json module use its pure-Python encoder, so the
    same bytes are framed here by hand: each term map goes through the C
    encoder with the indent-1 item separator, and the small ``n`` and
    ``roots`` values through ``json.dumps(indent=1)``, shifted one level in.
    """
    members = []
    for key, val in sorted(instance_to_json(inst).items()):
        if type(val) is dict:
            body = json.dumps(val, sort_keys=True, separators=(",\n  ", ": "))
            text = f"{{\n  {body[1:-1]}\n }}" if val else "{}"
        else:
            text = json.dumps(val, indent=1).replace("\n", "\n ")
        members.append(f"{json.dumps(key)}: {text}")
    Path(path).write_text("{\n " + ",\n ".join(members) + "\n}")


def read_instance(path: str | Path) -> QuarticInstance:
    return instance_from_json(json.loads(Path(path).read_text()))


# -- dimension formulas --------------------------------------------------------


@dataclass(frozen=True)
class ModuliRecord:
    n: int
    h1_tangent_threefold: int
    h1_tangent_surface: int
    h1_anticanonical: int
    stratum_dim: int
    pencil_member_family_dim: int
    moduli_dim: int


def moduli_formulas(n: int, k: int) -> ModuliRecord:
    """Closed-form dimension bookkeeping for the family and its strata.

    The member-family dimension n+4 drops by h0 of the anticanonical twist
    (one) to the moduli dimension n+3; the strata dimensions 3n-2k-2 drop
    by two per step in k, down to n-1 at k = n.
    """
    if n < 4:
        raise ValueError(f"n must be at least 4, got {n}")
    if not 2 <= k <= n:
        raise ValueError(f"stratum index k={k} outside 2..{n}")
    return ModuliRecord(
        n=n,
        h1_tangent_threefold=7 * n - 15,
        h1_tangent_surface=4 * n - 6,
        h1_anticanonical=2 * n - 8,
        stratum_dim=3 * n - 2 * k - 2 if k < n else n - 1,
        pencil_member_family_dim=n + 4,
        moduli_dim=n + 3,
    )

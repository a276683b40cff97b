import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from dsolid import poly, scroll
from dsolid.axioms import default_registry
from dsolid.checks import CheckContext, check_hankel, check_instances
from dsolid.cli import main
from dsolid.poly import MultiPoly
from dsolid.qfield import QuadExt, eval_poly_at, sqrt_fraction
from dsolid.scroll import (
    A,
    B,
    S,
    U0,
    U1,
    InstanceError,
    ProbeExcluded,
    QuarticInstance,
    RidgeDegenerate,
    build_instance,
    double_conic_verify,
    double_curve_degree,
    hankel_generators,
    ideal_member,
    ideal_quadric_dim,
    instance_from_json,
    instance_to_json,
    linear_form_from_roots,
    moduli_formulas,
    pullback,
    random_instance,
    read_instance,
    smoothness_probe,
    splitting_conic_rank,
    write_instance,
)


def _unit(nv, j, c=1):
    e = [0] * nv
    e[j] = 1
    return MultiPoly.from_terms(nv, [(tuple(e), c)])


def _constant(nv, c):
    return MultiPoly.from_terms(nv, [((0,) * nv, c)])


def _on_fiber(p, lam):
    """p restricted to the plane over lam, in (s, a, b): pull back, then specialize."""
    return pullback(p).specialize({U0: lam[0], U1: lam[1]})


def test_linear_form_n4():
    f = linear_form_from_roots(4, [(1, 0), (1, 1)])
    # product u1(u1 - u0) = z2 - z1 under the monomial correspondence
    want = _unit(5, 2) - _unit(5, 1)
    assert f == want or f == -want


def test_linear_form_roots_recovered_n5():
    roots = [(1, 1), (1, -1), (1, 2)]
    f = linear_form_from_roots(5, roots)
    comp = pullback(f)
    # oracle: composition vanishes exactly at the chosen fiber points
    for p, q in roots:
        assert comp.specialize({U0: p, U1: q}).is_zero()
    assert not comp.specialize({U0: 1, U1: 5}).is_zero()


def test_linear_form_rejects_reserved_point():
    with pytest.raises(InstanceError):
        scroll._valid_roots(4, [(0, 1), (1, 1)])


def test_linear_form_rejects_repeats():
    with pytest.raises(InstanceError):
        scroll._valid_roots(4, [(1, 2), (2, 4)])


def _parent_linear_form_from_roots(n, roots):
    """``linear_form_from_roots`` as it was before ``_root_form``: n-2 products
    of two-variable ``MultiPoly`` forms, then an exponent remap."""
    rs = [scroll._norm_root(r) for r in roots]
    if len(rs) != n - 2:
        raise InstanceError(f"need exactly {n-2} roots, got {len(rs)}")
    for r in rs:
        if r[0] == 0:
            raise InstanceError("the point (0:1) is reserved for the splitting fiber")
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            if scroll._proj_equal(rs[i], rs[j]):
                raise InstanceError(f"repeated root {rs[i]}")
    form = MultiPoly.from_terms(2, [((0, 0), 1)])
    for p, q in rs:
        form = form * MultiPoly.from_terms(2, [((0, 1), p), ((1, 0), -q)])
    return MultiPoly.from_terms(
        n + 1, [(tuple(int(k == exp[1]) for k in range(n + 1)), c) for exp, c in form.terms.items()])


def _form_outcome(build, n, roots):
    try:
        f = build(n, roots)
    except InstanceError as exc:
        return str(exc)
    return f.nvars, dict(f.terms), {e: type(c) for e, c in f.terms.items()}


_root_coord = st.one_of(st.integers(-12, 12), st.fractions(-12, 12, max_denominator=6))
_first_coord = st.one_of(st.integers(1, 4), st.fractions(-4, 4, max_denominator=5).filter(bool))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(4, 10), roots=st.lists(st.tuples(_first_coord, _root_coord), max_size=5),
       mirrored=st.booleans(), exact=st.booleans())
@example(n=6, roots=[(1, 2), (3, Fraction(1, 3))], mirrored=True, exact=True)
@example(n=4, roots=[(0, 1), (1, 1)], mirrored=False, exact=True)  # the reserved point (0:1)
@example(n=4, roots=[(1, 2), (2, 4)], mirrored=False, exact=True)  # a repeated root
@example(n=5, roots=[(1, 2), (1, 3)], mirrored=False, exact=False)  # a root short
def test_linear_form_matches_parent(n, roots, mirrored, exact):
    if mirrored:  # ±r pairs, so that the odd coefficients of g cancel to 0
        roots = [r for p, q in roots for r in ((p, q), (p, -q))]
    if exact:
        roots = roots[: n - 2]
    got = _form_outcome(lambda n, rs: linear_form_from_roots(n, scroll._valid_roots(n, rs)), n, roots)
    assert got == _form_outcome(_parent_linear_form_from_roots, n, roots)


def test_ideal_member_hankel_identity():
    z0z2 = _unit(5, 0) * _unit(5, 2)
    z1sq = _unit(5, 1) * _unit(5, 1)
    assert ideal_member(z0z2 - z1sq)
    z0zn1 = _unit(5, 0) * _unit(5, 3)
    assert not ideal_member(z0zn1)


def test_ideal_member_n6():
    nv = 7
    p = _unit(nv, 1) * _unit(nv, 3) - _unit(nv, 2) * _unit(nv, 2)
    assert ideal_member(p)


def test_ideal_member_requires_homogeneous():
    nv = 5
    with pytest.raises(InstanceError):
        ideal_member(_unit(nv, 0) + _constant(nv, 1))


@pytest.mark.parametrize("n,count", [(4, 1), (5, 3), (7, 10)])
def test_hankel_counts(n, count):
    gens = hankel_generators(n)
    assert len(gens) == count
    assert all(ideal_member(g) for g in gens)


@pytest.mark.parametrize("n", [*range(4, 13), 64])
def test_ideal_quadric_dim_is_the_minor_count(n):
    assert ideal_quadric_dim(n) == (n - 2) * (n - 3) // 2


@pytest.mark.parametrize("n", [4, 5, 7])
def test_hankel_record_fails_when_two_variables_share_an_image(n, monkeypatch):
    ctx = CheckContext(registry=default_registry())
    [rec] = check_hankel(n, ctx)
    assert rec.status == "pass"
    rule = scroll._chart_image
    # z_n takes the image of z_{n-1}; a fresh table, so no mutated image outlives the test
    monkeypatch.setattr(scroll, "_chart_image", lambda exp: rule(exp[:-2] + (exp[-2] + exp[-1], 0)))
    monkeypatch.setattr(scroll, "_table_nvars", 0)
    monkeypatch.setattr(scroll, "_table", {})
    [rec] = check_hankel(n, ctx)
    assert rec.status == "fail"
    # each of the n + 1 monomials with z_n now shares its image with one without
    assert rec.computed == ((n - 2) * (n - 3) // 2 + n + 1, True)


def _substitute_monomials(p, nvars_out, images):
    """p with each variable i replaced by the monomial ``c * x^e``, ``images[i] = (c, e)``.

    Naive and exact, term by term: a term that meets a zero image is dropped
    first; the others are summed by their image exponent, each key in the
    place of its first term, and sums that cancel are dropped at the end.
    Coefficients are canonical: an ``int`` when integral.
    """
    acc = {}
    for exp, c in p.terms.items():
        if any(k and images[i][0] == 0 for i, k in enumerate(exp)):
            continue
        coeff, mono = Fraction(c), [0] * nvars_out
        for i, k in enumerate(exp):
            ic, ie = images[i]
            coeff *= Fraction(ic) ** k
            mono = [m + k * e for m, e in zip(mono, ie)]
        key = tuple(mono)
        acc[key] = acc.get(key, 0) + coeff
    return MultiPoly(nvars_out, {e: poly._canonical(c) for e, c in acc.items() if c})


def _parent_pullback(p):
    """``pullback`` as it was before the image table: one monomial substitution."""
    n = p.nvars - 1
    if n < 4:
        raise InstanceError(f"the scroll chart needs at least 5 variables, got {p.nvars}")
    images = {j: (1, (n - 2 - j, j, 1, 0, 0)) for j in range(n - 1)}
    images[n - 1] = (1, (0, 0, 0, 1, 0))
    images[n] = (1, (0, 0, 0, 0, 1))
    return _substitute_monomials(p, 5, images)


def _typed_terms(p):
    """The terms of p in dict order, each with its coefficient's type."""
    return p.nvars, [(e, type(c), c) for e, c in p.terms.items()]


_coeff = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def _ambient_poly(draw):
    """A polynomial in z0..zn, n in 4..70, with terms of degree 0..5.

    A term may come with a partner of the same chart image (z_i z_j becomes
    z_{i-1} z_{j+1} or z_{i+1} z_{j-1}, with i <= j <= n-2), whose coefficient
    brings the sum of the two to a drawn target: often 0 or an integer.
    """
    n = draw(st.integers(4, 70))
    nv = n + 1
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        idxs = draw(st.lists(st.integers(0, n), max_size=5))
        c = draw(_coeff)
        terms.append((scroll._exp(nv, *idxs), c))
        head = sorted(i for i in idxs if i <= n - 2)[:2]
        if len(head) == 2 and draw(st.booleans()):
            (i, j), rest = head, list(idxs)
            rest.remove(i)
            rest.remove(j)
            if i >= 1 and j <= n - 3:
                moved = [i - 1, j + 1]
            elif j - i >= 2:
                moved = [i + 1, j - 1]
            else:
                continue
            target = draw(st.one_of(st.just(0), st.integers(-2, 2), _coeff))
            terms.append((scroll._exp(nv, *rest, *moved), target - c))
    return MultiPoly.from_terms(nv, terms)


def _poly(nv, *terms):
    return MultiPoly.from_terms(nv, [(scroll._exp(nv, *idxs), c) for idxs, c in terms])


@settings(max_examples=150, deadline=None)
@given(polys=st.lists(_ambient_poly(), min_size=1, max_size=3))
@example(polys=[MultiPoly(5, {}), MultiPoly(71, {})])  # zero polynomials
@example(polys=[  # Fraction sums to an int and to 0, next to a constant: not homogeneous
    _poly(6, ((0, 2), Fraction(1, 3)), ((1, 1), Fraction(2, 3)), ((0, 3), Fraction(1, 2)),
          ((1, 2), Fraction(-1, 2)), ((), 5)),
    _poly(8, ((0, 4), 2), ((1, 3), -2)),  # an integer sum of 0
])
@example(polys=[_poly(71, ((0, 0, 0, 0), 1), ((0, 0, 0, 1), 3)), _poly(5, ((4,), 1))])  # entries > 255
def test_pullback_matches_substitute_monomials(polys):
    # every polynomial, then all of them again in reverse: n alternates between calls
    for p in polys + polys[::-1]:
        assert _typed_terms(pullback(p)) == _typed_terms(_parent_pullback(p))


@pytest.mark.parametrize("nvars", range(5))
def test_pullback_needs_five_variables(nvars):
    for p in (MultiPoly(nvars, {}), MultiPoly.from_terms(nvars, [((1,) * nvars, 1)])):
        with pytest.raises(InstanceError, match="at least 5 variables"):
            pullback(p)


def test_pullback_table_holds_one_n():
    p5 = _valid_instance(5, 3).big_f
    first = pullback(p5)
    pullback(_valid_instance(6, 3).big_f)
    assert scroll._table_nvars == 7 and scroll._table
    assert {len(e) for e in scroll._table} == {7}  # no n = 5 exponent is left
    assert all(type(img) is tuple for img in scroll._table.values())
    again = pullback(p5)
    assert _typed_terms(again) == _typed_terms(first)
    assert {len(e) for e in scroll._table} == {6}


def _valid_instance(n, seed=0):
    return random_instance(n, random.Random(seed))


def test_build_instance_shape():
    inst = _valid_instance(4, 1)
    assert inst.big_f.nvars == 5
    assert inst.big_f.is_homogeneous() and max(map(sum, inst.big_f.terms)) == 4


def test_build_instance_rejects_rank3():
    n = 4
    nv = 5
    # full-rank restriction: z2^2 + z3^2 + z4^2
    q = (
        _unit(nv, 2) * _unit(nv, 2)
        + _unit(nv, 3) * _unit(nv, 3)
        + _unit(nv, 4) * _unit(nv, 4)
    )
    with pytest.raises(InstanceError, match="rank 3"):
        build_instance(n, [(1, 0), (1, 1)], q)


def test_build_instance_rejects_double_line():
    n = 4
    nv = 5
    q = _unit(nv, 4) * _unit(nv, 4) + _unit(nv, 0) * _unit(nv, 1)
    with pytest.raises(InstanceError, match="double line"):
        build_instance(n, [(1, 0), (1, 1)], q)


@pytest.mark.parametrize("n", [2, 3])
def test_build_instance_rejects_small_n(n):
    nv = n + 1
    q = _unit(nv, n - 1) * _unit(nv, n) + _unit(nv, n - 2) * _unit(nv, n - 1)
    with pytest.raises(InstanceError, match="at least 4"):
        build_instance(n, [(1, k) for k in range(1, n - 1)], q)
    with pytest.raises(InstanceError, match="at least 5 variables"):
        pullback(q)


def test_instance_from_json_rejects_n3():
    # an n = 3 instance as the writer emitted it before n < 4 was rejected
    data = {
        "F": {"0,0,2,2": "-1/1", "0,1,2,1": "-2/1", "0,2,2,0": "-1/1", "1,1,1,1": "1/1",
              "2,0,1,1": "-1/1"},
        "Q": {"0,0,1,1": "1/1", "0,1,1,0": "1/1"},
        "f": {"0,1,0,0": "1/1", "1,0,0,0": "-1/1"},
        "n": 3,
        "roots": [["1", "1"]],
    }
    with pytest.raises(InstanceError, match="at least 4"):
        instance_from_json(data)


def test_build_instance_rejects_scroll_member():
    n = 5
    nv = 6
    q = _unit(nv, 0) * _unit(nv, 2) - _unit(nv, 1) * _unit(nv, 1)
    with pytest.raises(InstanceError, match="vanishes identically"):
        build_instance(n, [(1, 1), (1, 2), (1, 3)], q)


def _reference_random_instance(n, rng):
    """``random_instance`` as it drew Q by polynomial arithmetic, the
    product of two linear forms plus the random terms."""
    r = max(60, (n - 2) // 2)
    for _ in range(200):
        vals = rng.sample(range(-r, r + 1), n - 2)
        roots = [(1, v) for v in vals]
        v = [rng.randint(-5, 5) for _ in range(3)]
        w = [rng.randint(-5, 5) for _ in range(3)]
        indep = any(v[i] * w[j] - v[j] * w[i] != 0 for i in range(3) for j in range(3))
        if not indep or v[1] * w[1] == 0 or v[2] * w[2] == 0:
            continue
        nv = n + 1
        last3 = [n - 2, n - 1, n]
        lin_v = MultiPoly.from_terms(nv, [(scroll._exp(nv, j), c) for j, c in zip(last3, v)])
        lin_w = MultiPoly.from_terms(nv, [(scroll._exp(nv, j), c) for j, c in zip(last3, w)])
        q = lin_v * lin_w
        extra = []
        for i in range(0, n - 2):
            for j in range(i, n + 1):
                c = rng.randint(-4, 4)
                if c:
                    extra.append((scroll._exp(nv, i, j), c))
        q = q + MultiPoly.from_terms(nv, extra)
        try:
            return build_instance(n, roots, q)
        except InstanceError:
            continue
    raise RuntimeError("failed to generate a valid instance")


@pytest.mark.parametrize("n", [*range(4, 21), 64, *range(124, 131)])
def test_random_instance_matches_the_product_form(n):
    for seed in (0, 1, 7, 42, 2026) if n <= 20 else (0, 42):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        inst, ref = random_instance(n, rng), _reference_random_instance(n, ref_rng)
        assert _typed_terms(inst.q) == _typed_terms(ref.q)
        assert _typed_terms(inst.pulled_q) == _typed_terms(ref.pulled_q)
        assert (inst.roots, inst.f) == (ref.roots, ref.f)
        assert rng.getstate() == ref_rng.getstate()


class _ScriptedRandom(random.Random):
    """A seeded rng whose first ``randint`` calls return ``script``."""

    def __init__(self, seed, script):
        super().__init__(seed)
        self.script = list(script)

    def randint(self, a, b):
        return self.script.pop(0) if self.script else super().randint(a, b)


def test_random_instance_drops_a_cancelled_product_term():
    # v = (1, 1, 1), w = (1, -1, 1) cancel z_{n-2} z_{n-1} and z_{n-1} z_n, so
    # the drawn Q keeps 4 of the 6 last-plane monomials, as the product did
    n, script = 6, [1, 1, 1, 1, -1, 1]
    rng, ref_rng = _ScriptedRandom(3, script), _ScriptedRandom(3, script)
    inst, ref = random_instance(n, rng), _reference_random_instance(n, ref_rng)
    last = {e: c for e, c in inst.q.terms.items() if sum(e[n - 2:]) == 2}
    assert list(last.values()) == [1, 2, -1, 1]
    assert _typed_terms(inst.q) == _typed_terms(ref.q)
    assert rng.getstate() == ref_rng.getstate()


def _reference_matrix_rank(q):
    """The splitting-conic rank on the symmetric matrix of ``Fraction``s,
    halving the off-diagonal coefficients."""
    n = q.nvars - 1
    idxs = [n - 2, n - 1, n]
    m = [[Fraction(0)] * 3 for _ in range(3)]
    for r in range(3):
        for c in range(r, 3):
            v = Fraction(q.coefficient(scroll._exp(n + 1, idxs[r], idxs[c])))
            if r == c:
                m[r][r] = v
            else:
                m[r][c] = m[c][r] = v / 2
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
    return 1 if any(m[r][c] != 0 for r in range(3) for c in range(3)) else 0


_LAST_PLANE = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def _last_plane_quadric(n, coeffs):
    """z0 z1 plus the given coefficients on the last-plane monomials."""
    nv = n + 1
    terms = [(scroll._exp(nv, 0, 1), 1)]
    terms += [(scroll._exp(nv, n - 2 + a, n - 2 + b), c) for (a, b), c in zip(_LAST_PLANE, coeffs)]
    return MultiPoly.from_terms(nv, terms)


def test_splitting_rank_matches_the_fraction_matrix_on_every_sign_pattern():
    ranks = {}
    for coeffs in itertools.product((-1, 0, 1), repeat=6):
        q = _last_plane_quadric(5, coeffs)
        m = scroll.splitting_matrix(q)
        assert all(type(x) is int for row in m for x in row)
        rank = scroll._matrix_rank3(m)
        assert rank == _reference_matrix_rank(q)
        ranks[rank] = ranks.get(rank, 0) + 1
    assert sum(ranks.values()) == 729 and set(ranks) == {0, 1, 2, 3}


@pytest.mark.parametrize("coeffs", [
    (Fraction(1, 2), 0, 0, 0, 0, Fraction(-1, 3)),
    (0, Fraction(1, 2), 0, 0, Fraction(-1, 3), 0),
    (Fraction(1, 4), 1, 0, 1, 0, 0),
    (Fraction(1, 4), Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4), Fraction(-1, 3), Fraction(1, 9)),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(-1, 3), Fraction(1, 7), Fraction(2, 3)),
])
def test_splitting_rank_is_exact_for_fraction_coefficients(coeffs):
    q = _last_plane_quadric(6, coeffs)
    m = scroll.splitting_matrix(q)
    assert any(type(x) is Fraction for row in m for x in row)
    assert scroll._matrix_rank3(m) == _reference_matrix_rank(q)


def test_splitting_matrix_is_twice_the_symmetric_matrix():
    q = _last_plane_quadric(4, (3, Fraction(1, 2), -2, 5, Fraction(-1, 3), 7))
    assert scroll.splitting_matrix(q) == [
        [6, Fraction(1, 2), -2], [Fraction(1, 2), 10, Fraction(-1, 3)], [-2, Fraction(-1, 3), 14]]


def test_fiber_restrict_basics():
    n = 5
    nv = 6
    z0 = _unit(nv, 0)
    zl = _unit(nv, n - 2)
    at_inf = (Fraction(0), Fraction(1))
    assert _on_fiber(z0, at_inf).is_zero()
    assert _on_fiber(zl, at_inf) == MultiPoly.from_terms(3, [((1, 0, 0), 1)])


def test_fiber_restrict_quartic_at_root():
    inst = _valid_instance(5, 3)
    lam = inst.roots[0]
    fr = _on_fiber(inst.big_f, lam)
    qr = _on_fiber(inst.q, lam)
    assert fr == -(qr * qr)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_double_conic_verify_instances(n):
    rng = random.Random(100 + n)
    for _ in range(10):
        inst = random_instance(n, rng)
        assert double_conic_verify(inst)
        assert splitting_conic_rank(inst) == 2


def _mono(nv, *idxs):
    e = [0] * nv
    for j in idxs:
        e[j] += 1
    return MultiPoly.from_terms(nv, [(tuple(e), 1)])


def _identity_holds(inst, residual):
    """The tangency identity of ``inst`` on the pullback of an ambient residual
    F + Q^2; the instance's own residual is ``inst._shifted_f()``."""
    return scroll._tangency_identity(pullback(residual), inst.roots, inst.n)


def _vanishes_on(p, fibers):
    return all(_on_fiber(p, lam).is_zero() for lam in fibers)


@pytest.mark.parametrize("n", [4, 7])
def test_double_conic_verify_root_fiber_can_fail(n):
    inst = _valid_instance(n, 11)
    nv = n + 1
    # g vanishes over every root but the first, so only that fiber breaks
    g = linear_form_from_roots(n, list(inst.roots[1:]) + [(1, 997)])
    bump = _mono(nv, 0, n - 1, n) * g
    assert _vanishes_on(bump, list(inst.roots[1:]) + [(Fraction(0), Fraction(1))])
    assert not _identity_holds(inst, inst._shifted_f() + bump)


@pytest.mark.parametrize("n", [4, 7])
def test_double_conic_verify_splitting_fiber_can_fail(n):
    inst = _valid_instance(n, 12)
    nv = n + 1
    # z_{n-2} z_{n-1} z_n f vanishes over every root and on both cones, not over (0:1)
    bump = _mono(nv, n - 2, n - 1, n) * inst.f
    assert _vanishes_on(bump, inst.roots)
    assert not _vanishes_on(bump, [(Fraction(0), Fraction(1))])
    assert not _identity_holds(inst, inst._shifted_f() + bump)
    bump4 = _mono(nv, n - 2, n - 2, n - 2, n - 2)
    assert not _identity_holds(inst, inst._shifted_f() + bump4)


@pytest.mark.parametrize("n", [4, 7])
def test_double_conic_verify_generic_fiber_can_fail(n):
    inst = _valid_instance(n, 13)
    # F = -Q^2 is tangent everywhere: a double quadric, not a branch quartic
    assert not _identity_holds(inst, MultiPoly(n + 1, {}))


@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("square", ["z_n", "z_{n-1}"])
def test_double_conic_verify_cone_can_fail(n, square):
    inst = _valid_instance(n, 14)
    nv = n + 1
    # z0 z_n^2 f survives on the cone z_{n-1} = 0, z0 z_{n-1}^2 f on z_n = 0
    sq = n if square == "z_n" else n - 1
    residual = _mono(nv, 0, sq, sq) * inst.f
    assert _vanishes_on(residual, list(inst.roots) + [(Fraction(0), Fraction(1))])
    assert not _identity_holds(inst, residual)


@pytest.mark.parametrize("n", [4, 5, 7, 10])
def test_double_conic_verify_rejects_an_extra_tangent_fiber(n):
    inst = _valid_instance(n, 17)
    nv = n + 1
    assert all(q != 0 for _, q in inst.roots)
    # F' = z1 z_{n-1} z_n f - Q^2 passes every per-fiber test: its residual
    # vanishes over the roots, (0:1) and both cones, not over a generic fiber;
    # but it also vanishes over (1:0), so it is not s^2 a b u0^{n-2} g
    residual = _mono(nv, 1, n - 1, n) * inst.f
    special = list(inst.roots) + [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]
    assert _vanishes_on(residual, special)
    assert not _vanishes_on(residual, [(Fraction(1), Fraction(997))])
    assert not _identity_holds(inst, residual)


@pytest.mark.parametrize("n", [4, 7])
def test_double_conic_verify_reads_f_through_the_chart(n):
    inst = _valid_instance(n, 18)
    # F∘φ comes from f, the target from the roots: an f through other fibers breaks the identity
    moved = linear_form_from_roots(n, list(inst.roots[1:]) + [(1, 997)])
    assert not double_conic_verify(dataclasses.replace(inst, f=moved))


def test_double_conic_verify_rank_can_fail(monkeypatch):
    # the rank is tested once per instance, by check_instances, not by double_conic_verify
    n, nv = 5, 6
    inst = _valid_instance(n, 15)
    # a rank-3 splitting conic with the matching quartic passes every identity
    bad = dataclasses.replace(inst, q=inst.q + _mono(nv, n - 2, n - 1))
    assert splitting_conic_rank(bad) == 3
    assert double_conic_verify(bad)
    monkeypatch.setattr(scroll, "random_instance", lambda n, rng: bad)
    [rec] = check_instances(n, CheckContext(registry=default_registry(), instances=2))
    assert (rec.id, rec.status, rec.detail) == ("scroll.instances", "fail", "instance 0: splitting rank")


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.integers(0, 2))
def test_member_invariance(seed, k):
    # adding an ideal member leaves every fiber restriction unchanged
    n = 5
    inst = _valid_instance(n, seed % 17)
    member = hankel_generators(n)[k]
    lam = inst.roots[0]
    scaled = member * _unit(n + 1, 0) * _unit(n + 1, 1)  # degree-4 member multiple
    assert _on_fiber(inst.big_f + scaled, lam) == _on_fiber(inst.big_f, lam)


@pytest.mark.parametrize("n", [4, 5])
def test_double_curve_degree(n):
    inst = random_instance(n, random.Random(7))
    assert double_curve_degree(inst) == (2 * (n - 2), 2 * (n - 2))


def test_double_curve_degree_ridge_flagged():
    n = 4
    nv = 5
    # rank-2 splitting but Q vanishes on the ridge z0=..=z_{n-2}=0
    q = _unit(nv, 2) * (_unit(nv, 3) + _unit(nv, 4)) + _unit(nv, 0) * _unit(nv, 1)
    inst = build_instance(n, [(1, 0), (1, 1)], q)
    with pytest.raises(RidgeDegenerate):
        double_curve_degree(inst)


def _reference_double_curve_degree(inst, rng):
    """The cone resultant as products of two-variable ``MultiPoly`` forms after
    ``specialize``, with up to 12 random hyperplanes per side: the count
    ``double_curve_degree`` reads off the exponents, computed the long way."""
    n = inst.n
    pulled = pullback(inst.q)
    if pulled.specialize({S: 0}).is_zero():
        raise RidgeDegenerate("Q contains the ridge line; degree count excluded")
    degrees = []
    for cone in (A, B):
        spans = {2: {}, 1: {}, 0: {}}
        for exp, coef in pulled.specialize({cone: 0}).terms.items():
            spans[exp[S]][exp[:2]] = coef
        aa, bb, cc = (MultiPoly(2, spans[k]) for k in (2, 1, 0))
        for _ in range(12):
            dd = MultiPoly.from_terms(
                2, [((n - 2 - j, j), rng.randint(-9, 9)) for j in range(n - 1)]
            )
            ee = MultiPoly.from_terms(2, [((0, 0), rng.randint(1, 9))])
            res = aa * ee * ee - bb * dd * ee + cc * dd * dd
            if not res.is_zero():
                if not res.is_homogeneous():
                    raise RuntimeError("resultant lost homogeneity")
                degrees.append(max(map(sum, res.terms)))
                break
        else:
            raise RidgeDegenerate("no generic hyperplane found; intersection is degenerate")
    return degrees[0], degrees[1]


def _cone_outcome(degree_fn, *args):
    """The pair, or the type of the exception raised."""
    try:
        return degree_fn(*args)
    except (RidgeDegenerate, RuntimeError) as exc:
        return type(exc)


def _sparse_instance(n, rng):
    """An instance whose Q is a rank-2 product on the last plane plus at most
    three other monomials, so that a cone can miss some of A, B, C."""
    nv = n + 1
    while True:
        v, w = (sum((_unit(nv, n - 2 + i, rng.choice([0, 0, 1, -2, 3])) for i in range(3)),
                    MultiPoly(nv, {})) for _ in range(2))
        q = v * w
        for _ in range(rng.randint(0, 3)):
            q = q + _mono(nv, rng.randrange(nv), rng.randrange(n - 1)) * \
                _constant(nv, rng.randint(-3, 3))
        try:
            return build_instance(n, [(1, k) for k in range(1, n - 1)], q)
        except InstanceError:
            continue


def test_double_curve_degree_matches_the_resultant_oracle():
    checked = 0
    for n in range(4, 13):
        nv = n + 1
        roots = [(1, k) for k in range(1, n - 1)]
        special = [
            # Q contains the ridge line: no draw at all
            build_instance(n, roots, _mono(nv, n - 2, n - 1) + _mono(nv, n - 2, n)
                           + _mono(nv, 0, 1)),
            # Q vanishes on the cone z_{n-1} = 0: every hyperplane of side n fails
            build_instance(n, roots, _mono(nv, n - 1, n - 2) + _mono(nv, n - 1, n)),
        ]
        gen = random.Random(9000 + n)
        insts = special + [random_instance(n, gen) for _ in range(8)] + [
            _sparse_instance(n, gen) for _ in range(12)]
        for k, inst in enumerate(insts):
            got = _cone_outcome(double_curve_degree, inst)
            for seed in range(1000 * n + 3 * k, 1000 * n + 3 * k + 3):
                assert _cone_outcome(_reference_double_curve_degree, inst,
                                     random.Random(seed)) == got
            checked += got == (2 * (n - 2), 2 * (n - 2))
        assert _cone_outcome(double_curve_degree, special[0]) is RidgeDegenerate
        with pytest.raises(RidgeDegenerate, match="Q vanishes on the cone"):
            double_curve_degree(special[1])
    assert checked >= 9 * 8  # every random_instance gives the paper's pair


@pytest.mark.parametrize("n", [4, 7, 10])
def test_pulled_q_is_the_pullback_of_q(n):
    built = _valid_instance(n, 30 + n)
    assert "pulled_q" in vars(built)  # build_instance primes the cache
    assert built.pulled_q == pullback(built.q)
    direct = QuarticInstance(n=n, roots=built.roots, f=built.f, q=built.q)
    assert "pulled_q" not in vars(direct) and direct == built
    assert direct.pulled_q == pullback(built.q)
    same_q = dataclasses.replace(built, roots=built.roots[::-1])
    assert "pulled_q" not in vars(same_q) and same_q.pulled_q == built.pulled_q
    swapped = dataclasses.replace(built, q=built.q + _mono(n + 1, 0, 0))
    assert swapped.pulled_q == pullback(swapped.q) != built.pulled_q
    # F follows its Q, so the swapped instance is consistent
    assert double_conic_verify(swapped) and double_conic_verify(built)


def _terms_by_exponent(p):
    """The terms of p keyed by exponent, each with its coefficient's type.

    Not in dict order: a pullback lists each chart monomial where its first
    contributing term falls, and the ambient F and the chart route's
    product meet the terms of one chart monomial in different orders.
    """
    return p.nvars, {e: (type(c), c) for e, c in p.terms.items()}


def _assert_chart_route(inst):
    """F∘φ + (Q∘φ)^2, with F∘φ the pullback of the ambient F, is the pullback
    of the shifted f: the chart residual that ``double_conic_verify`` reads."""
    residual = pullback(inst.big_f) + inst.pulled_q * inst.pulled_q
    assert _terms_by_exponent(residual) == _terms_by_exponent(pullback(inst._shifted_f()))


@pytest.mark.parametrize("n", range(4, 17))
def test_pulled_f_is_the_pullback_of_big_f(n):
    for seed in range(3):
        inst = _valid_instance(n, 40 + seed)
        _assert_chart_route(inst)
        _assert_chart_route(_non_integral(inst))


_scale = st.one_of(st.integers(1, 5), st.fractions(-5, 5, max_denominator=6).filter(bool))


@st.composite
def _drawn_instance(draw):
    """An instance at n = 4..16 whose roots and Q may have Fraction coefficients.

    The roots are a seeded instance's points with drawn representatives; Q
    is a drawn multiple of its quadric plus drawn terms off the last plane,
    and perhaps a multiple of a catalecticant minor, which the chart sends
    to 0.
    """
    n = draw(st.integers(4, 16))
    nv = n + 1
    base = random_instance(n, random.Random(draw(st.integers(0, 2**32))))
    scales = draw(st.lists(_scale, min_size=n - 2, max_size=n - 2))
    roots = [(p * t, q * t) for (p, q), t in zip(base.roots, scales)]
    q = base.q * _constant(nv, draw(_scale))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, n - 3))
        q = q + _mono(nv, i, draw(st.integers(i, n))) * _constant(nv, draw(_coeff))
    if draw(st.booleans()):
        q = q + draw(st.sampled_from(hankel_generators(n))) * _constant(nv, draw(_coeff))
    try:
        return build_instance(n, roots, q)
    except InstanceError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(inst=_drawn_instance())
def test_pulled_f_is_the_pullback_of_big_f_for_drawn_instances(inst):
    _assert_chart_route(inst)


@pytest.mark.parametrize("broken", ["f of degree 2", "Q with a cubic term"])
def test_instances_record_fails_on_a_broken_quartic_shape(broken, monkeypatch):
    n, nv = 5, 6
    inst = _valid_instance(n, 16)
    ctx = CheckContext(registry=default_registry(), instances=2)
    monkeypatch.setattr(scroll, "random_instance", lambda n, rng: inst)
    [rec] = check_instances(n, ctx)
    assert rec.status == "pass"
    if broken == "f of degree 2":
        bad = dataclasses.replace(inst, f=inst.f * _unit(nv, 0))
    else:  # past the validation of build_instance, with Q's pullback primed as it primes it
        bad = dataclasses.replace(inst, q=inst.q + _mono(nv, 0, 1, 2))
        bad.__dict__["pulled_q"] = pullback(bad.q)
    monkeypatch.setattr(scroll, "random_instance", lambda n, rng: bad)
    [rec] = check_instances(n, ctx)
    assert (rec.id, rec.status, rec.detail) == (
        "scroll.instances", "fail", "instance 0: quartic shape broken")


def test_scroll_checks_pass_past_121_roots(capsys):
    # the roots are n - 2 distinct integers, drawn from a range that grows with n
    argv = ["verify", "--n", "124", "--filter", "scroll.*", "--instances", "1", "--format", "json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert {c["id"]: c["status"] for c in report["checks"]} == {
        "scroll.hankel": "pass", "scroll.instances": "pass", "scroll.tangency": "pass",
        "scroll.moduli": "pass"}
    assert main(["verify", "--n", "124", "--filter", "elimination.cone-degree", "--format", "json"]) == 0
    [rec] = json.loads(capsys.readouterr().out)["checks"]
    assert (rec["id"], rec["status"]) == ("elimination.cone-degree", "pass")
    for n in range(124, 131):
        for seed in range(2):
            inst = random_instance(n, random.Random(seed))
            assert len(inst.roots) == n - 2 and double_conic_verify(inst)


def test_verify_builds_no_ambient_quartic(monkeypatch, capsys):
    drawn = []
    draw = scroll.random_instance

    def recording(n, rng):
        drawn.append(draw(n, rng))
        return drawn[-1]

    monkeypatch.setattr(scroll, "random_instance", recording)
    argv = ["verify", "--range", "4..6", "--filter", "scroll.*", "--instances", "2"]
    operands = []
    product = MultiPoly.__mul__

    def recording_mul(self, other):
        operands.append((self, other))
        return product(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", recording_mul)
    assert main(argv) == 0
    # 2 per n for scroll.instances and 1 per n for scroll.tangency, each
    # drawn and verified without F and without any polynomial product
    assert len(drawn) == 9
    assert all("big_f" not in vars(inst) for inst in drawn)
    assert operands == []
    # the recorder sees a product made after the run
    q = drawn[0].q
    assert q * q == product(q, q)
    assert len(operands) == 1 and operands[0][0] is q and operands[0][1] is q


@pytest.mark.parametrize("n", [4, 6])
def test_smoothness_probe_generic(n):
    rng = random.Random(55)
    inst = random_instance(n, rng)
    assert smoothness_probe(inst, rng) is None


def _double_root_instance():
    # assemble an instance with a doubled root by hand (the constructor
    # rejects it, so the probe must see the degeneracy)
    n = 5
    nv = 6
    lam = (Fraction(1), Fraction(2))
    double_factor = MultiPoly.from_terms(2, [((0, 1), lam[0]), ((1, 0), -lam[1])])
    form = double_factor * double_factor * MultiPoly.from_terms(2, [((0, 1), 1), ((1, 0), -1)])
    coeffs = {exp[1]: c for exp, c in form.terms.items()}
    f = MultiPoly.from_terms(nv, [(tuple(1 if t == j else 0 for t in range(nv)), c) for j, c in coeffs.items()])
    good = random_instance(n, random.Random(9))
    z0zn1zn = _unit(nv, 0) * _unit(nv, n - 1) * _unit(nv, n)
    bad = QuarticInstance(
        n=n,
        roots=(lam, lam, (Fraction(1), Fraction(1))),
        f=f,
        q=good.q,
    )
    assert bad.big_f == z0zn1zn * f - good.q * good.q
    return bad


def test_smoothness_probe_detects_double_root():
    bad = _double_root_instance()
    assert smoothness_probe(bad, random.Random(3)) == 0
    # the simple root is probed first, then the double root fails at index 1
    later = QuarticInstance(n=bad.n, roots=bad.roots[::-1], f=bad.f, q=bad.q)
    assert smoothness_probe(later, random.Random(3)) == 1


def _reference_probe(inst, rng):
    """``smoothness_probe`` on the full u1-derivative of F∘φ = pullback(F)."""
    derivative = pullback(inst.big_f).derivative(U1)
    for index, (p, q) in enumerate(inst.roots):
        fiber = {U0: p, U1: q}
        if scroll._vanishes_at_a_sample(derivative.specialize(fiber),
                                        inst.pulled_q.specialize(fiber), rng):
            return index
    return None


def test_smoothness_probe_matches_the_probe_on_the_full_derivative():
    # the Q terms of the full derivative vanish at every sample on the conic
    bad = _double_root_instance()
    cases = [random_instance(n, random.Random(800 + n)) for n in range(4, 13)]
    cases += [bad, QuarticInstance(n=bad.n, roots=bad.roots[::-1], f=bad.f, q=bad.q)]
    verdicts = []
    for inst in cases:
        for seed in range(3):
            got, want = random.Random(seed), random.Random(seed)
            verdict = smoothness_probe(inst, got)
            assert verdict == _reference_probe(inst, want)
            assert got.getstate() == want.getstate()
            verdicts.append(verdict)
    assert verdicts == [None] * 27 + [0] * 3 + [1] * 3


def _closed_form_constant(inst, lam):
    """c = d/du1 (u0^{n-2} g) at lam, g = prod (p_i u1 - q_i u0), in Fractions."""
    p, q = map(Fraction, lam)
    factors = [Fraction(pi) * q - Fraction(qi) * p for pi, qi in inst.roots]
    total = Fraction(0)
    for i, (pi, _) in enumerate(inst.roots):
        term = Fraction(pi)
        for j, val in enumerate(factors):
            if j != i:
                term *= val
        total += term
    return p ** (inst.n - 2) * total


def _conic_points(conic, rng, count):
    """Exact points (1, t, b) of a conic in (s, a, b), b possibly in Q(sqrt d)."""
    points = []
    while len(points) < count:
        t = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
        line = conic.specialize({0: 1, 1: t})
        gamma, beta, alpha = (Fraction(line.coefficient((k,))) for k in (2, 1, 0))
        if gamma == 0:
            continue
        root = sqrt_fraction(beta * beta - 4 * gamma * alpha)
        points += [(t, (root * sign + (-beta)) * (Fraction(1, 2) / gamma)) for sign in (1, -1)]
    return points


def _is_zero(x):
    return x.is_zero() if isinstance(x, QuadExt) else x == 0


@pytest.mark.parametrize("n", range(4, 11))
def test_probe_derivative_matches_closed_form(n):
    # on the conic over a simple root the pulled-back fiber derivative is
    # c s^2 a b, with c from the roots alone and nonzero
    rng = random.Random(300 + n)
    inst = random_instance(n, rng)
    derivative = pullback(inst.big_f).derivative(U1)
    for lam in inst.roots:
        c = _closed_form_constant(inst, lam)
        assert c != 0
        h = derivative.specialize({U0: lam[0], U1: lam[1]})
        conic = _on_fiber(inst.q, lam)
        for t, b in _conic_points(conic, rng, 6):
            assert _is_zero(eval_poly_at(conic, [1, t, b]))
            assert _is_zero(eval_poly_at(h, [1, t, b]) - b * (c * t))


def test_probe_closed_form_fails_for_double_root():
    bad = _double_root_instance()
    lam = bad.roots[0]
    assert _closed_form_constant(bad, lam) == 0
    h = pullback(bad.big_f).derivative(U1).specialize({U0: lam[0], U1: lam[1]})
    conic = _on_fiber(bad.q, lam)
    points = _conic_points(conic, random.Random(4), 6)
    assert all(_is_zero(eval_poly_at(h, [1, t, b])) for t, b in points)
    assert smoothness_probe(bad, random.Random(3)) == 0


def test_smoothness_probe_excludes_splitting_fiber():
    inst = _valid_instance(4, 11)
    bad = QuarticInstance(
        n=inst.n,
        roots=((Fraction(0), Fraction(1)),) + inst.roots[1:],
        f=inst.f,
        q=inst.q,
    )
    with pytest.raises(ProbeExcluded):
        smoothness_probe(bad, random.Random(0))


# -- the integer sampler against the QuadExt sampler ---------------------------


def _reference_vanishes(h, conic, rng):
    """The conic sampler written with QuadExt points, one eval_poly_at per point."""
    samples = 8
    got = 0
    for _ in range(400):
        if got >= samples:
            break
        t = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
        if t == 0:
            continue
        line = conic.specialize({0: 1, 1: t})
        gamma = line.coefficient((2,))
        beta = line.coefficient((1,))
        alpha = line.coefficient((0,))
        if gamma == 0:
            if beta == 0:
                continue
            points = [Fraction(-alpha, beta)]
        else:
            disc = beta * beta - 4 * gamma * alpha
            root = sqrt_fraction(disc)
            if isinstance(root, Fraction):
                points = [(-beta + root) / (2 * gamma), (-beta - root) / (2 * gamma)]
            else:
                inv = Fraction(1, 2) / gamma
                points = [(root + (-beta)) * inv, ((-1) * root + (-beta)) * inv]
        for b in points:
            if got >= samples:
                break
            if _is_zero(b):
                continue
            pt = [1, t, b]
            assert _is_zero(eval_poly_at(conic, pt)), "sample point is not on the conic"
            if _is_zero(eval_poly_at(h, pt)):
                return True
            got += 1
    if got < samples:
        raise RuntimeError("could not collect enough conic sample points")
    return False


def _sab(terms):
    """A polynomial in (s, a, b) from ``{(i, j, k): c}``."""
    return MultiPoly.from_terms(3, list(terms.items()))


def _drawn_t(seed, index):
    """The t of draw ``index`` of Random(seed), drawn as the sampler draws it."""
    rng = random.Random(seed)
    for _ in range(index + 1):
        t = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
    return t


def _full_derivative(inst):
    """The u1-derivative of F∘φ, Q terms included, built on the chart."""
    return (pullback(inst._shifted_f()) - inst.pulled_q * inst.pulled_q).derivative(U1)


def _sampler_cases():
    """(label, h, conic) triples covering every route of the sampler."""
    cases = []
    for n in range(4, 13):
        inst = random_instance(n, random.Random(700 + n))
        derivative = _full_derivative(inst)
        for p, q in inst.roots[:2]:
            fiber = {U0: p, U1: q}
            cases.append((f"n{n}", derivative.specialize(fiber), inst.pulled_q.specialize(fiber)))
    bad = _double_root_instance()
    derivative = _full_derivative(bad)
    for p, q in bad.roots:
        fiber = {U0: p, U1: q}
        cases.append(("double-root", derivative.specialize(fiber), bad.pulled_q.specialize(fiber)))
    generic = cases[0][2]
    conics = {
        "generic": generic,
        "negative": _sab({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}),  # b^2 + a^2 + s^2
        "square": _sab({(0, 0, 2): 1, (0, 2, 0): -1}),  # b = ±t
        "square-half": _sab({(0, 0, 2): 4, (2, 0, 0): -1}),  # b = ±1/2
        "linear": _sab({(0, 1, 1): 1, (2, 0, 0): -1}),  # t b = 1, gamma = 0
        "through-b0": _sab({(0, 0, 2): 1, (0, 1, 1): 1}),  # b = 0 or b = -t
    }
    for seed in (1, 2, 3):
        t0 = _drawn_t(seed, seed)
        ell = _sab({(0, 1, 0): t0.denominator, (1, 0, 0): -t0.numerator})  # a = t0 s
        ell2 = ell * ell
        for name, conic in conics.items():
            cases.append((f"{name}·ell^2", conic * ell2, conic))
            cases.append((f"ell^4/{name}", ell2 * ell2, conic))
    for name, conic in conics.items():
        cases.append((f"monomial/{name}", _sab({(1, 2, 1): Fraction(3, 7)}), conic))
        cases.append((f"b-a/{name}", _sab({(0, 0, 1): 1, (0, 1, 0): -1}), conic))
        cases.append((f"b+a/{name}", _sab({(0, 0, 1): Fraction(5, 2), (0, 1, 0): Fraction(5, 2)}), conic))
    return cases


def test_integer_sampler_matches_the_quadext_sampler(monkeypatch):
    dispatched = []

    def recording(x):
        dispatched.append(x)
        return sqrt_fraction(x)

    monkeypatch.setattr(scroll, "sqrt_fraction", recording)
    cases = _sampler_cases()
    vanished = compared = 0
    for label, h, conic in cases:
        for seed in range(4):
            outcomes = []
            for sampler in (_reference_vanishes, scroll._vanishes_at_a_sample):
                rng = random.Random(seed)
                try:
                    verdict = sampler(h, conic, rng)
                except RuntimeError as exc:
                    verdict = str(exc)
                outcomes.append((verdict, rng.getstate()))
            assert outcomes[0] == outcomes[1], (label, seed)
            vanished += outcomes[0][0] is True
            compared += 1
    assert compared == 4 * len(cases) and 0 < vanished < compared
    # every discriminant route was taken
    assert any(x < 0 for x in dispatched)
    assert any(x > 0 and isinstance(sqrt_fraction(x), Fraction) for x in dispatched)
    assert any(x > 0 and not isinstance(sqrt_fraction(x), Fraction) for x in dispatched)


def test_sampler_vanishes_at_the_first_sample_for_zero_h():
    for conic in (_on_fiber(_valid_instance(5, 2).q, (1, 3)), _sab({(0, 0, 2): 1, (0, 2, 0): -1})):
        rng, drawn = random.Random(6), random.Random(6)
        assert Fraction(drawn.randint(-40, 40), drawn.randint(1, 7)) != 0
        assert scroll._vanishes_at_a_sample(MultiPoly(3, {}), conic, rng) is True
        assert rng.getstate() == drawn.getstate()


def test_conjugate_evaluation_is_an_integer_pair():
    # X^2 - 2 at X = (0 + sqrt(8))/2, scaled by 2^2: 8 - 8 = 0
    assert scroll._at_conjugate([-2, 0, 1], 0, 8, 2) == (0, 0)
    # X + 1 at X = (1 + sqrt(5))/2, scaled by 2: (1 + sqrt 5) + 2
    assert scroll._at_conjugate([1, 1], 1, 5, 2) == (3, 1)
    assert scroll._at_conjugate([], 1, 5, 2) == (0, 0)


def test_sampler_raises_on_an_irrational_point_off_the_conic(monkeypatch):
    inst = _valid_instance(5, 2)
    lam = inst.roots[0]
    h = _full_derivative(inst).specialize({U0: lam[0], U1: lam[1]})
    conic = inst.pulled_q.specialize({U0: lam[0], U1: lam[1]})
    assert scroll._vanishes_at_a_sample(h, conic, random.Random(1)) is False
    real = scroll._at_conjugate
    calls = []

    def broken(values, num, disc, den):
        calls.append(values)
        x, y = real(values, num, disc, den)
        return (x + 1, y) if len(calls) == 3 else (x, y)

    monkeypatch.setattr(scroll, "_at_conjugate", broken)
    with pytest.raises(RuntimeError, match="not on the conic"):
        scroll._vanishes_at_a_sample(h, conic, random.Random(1))
    assert len(calls) == 3  # conic, h, then the broken conic check of the second draw


def test_sampler_raises_on_a_rational_point_off_the_conic(monkeypatch):
    h = _sab({(1, 2, 1): 1})
    real = scroll._at_conjugate
    for conic in (
        _sab({(0, 0, 2): 1, (0, 2, 0): -1}),  # b = ±t: two rational points per draw
        _sab({(0, 1, 1): 1, (2, 0, 0): -1}),  # t b = 1: gamma = 0, one rational point
    ):
        monkeypatch.setattr(scroll, "_at_conjugate", real)
        assert scroll._vanishes_at_a_sample(h, conic, random.Random(1)) is False
        discs = []

        def broken(values, num, disc, den):
            discs.append(disc)
            x, y = real(values, num, disc, den)
            return (x + 1, y) if len(discs) == 1 else (x, y)

        monkeypatch.setattr(scroll, "_at_conjugate", broken)
        with pytest.raises(RuntimeError, match="not on the conic"):
            scroll._vanishes_at_a_sample(h, conic, random.Random(1))
        # the conic's value at the first draw was broken, and that draw is rational
        assert len(discs) == 2 and math.isqrt(discs[0]) ** 2 == discs[0]


def test_sampler_tests_every_point_in_integers(monkeypatch):
    cases = _sampler_cases()

    def outcomes(sampler):
        out = []
        for _, h, conic in cases:
            for seed in range(2):
                rng = random.Random(seed)
                try:
                    verdict = sampler(h, conic, rng)
                except RuntimeError as exc:
                    verdict = str(exc)
                out.append((verdict, rng.getstate()))
        return out

    # the reference first: it evaluates at Fraction and QuadExt points
    want = outcomes(_reference_vanishes)

    def refuse(*args):
        raise AssertionError("the sampler evaluated a polynomial at a point")

    monkeypatch.setattr(scroll, "eval_poly_at", refuse)
    monkeypatch.setattr(MultiPoly, "evaluate", refuse)
    got = outcomes(scroll._vanishes_at_a_sample)
    assert got == want
    assert any(verdict is True for verdict, _ in got)
    assert any(verdict is False for verdict, _ in got)


# Reference restrictions, each written out as its own substitution map from
# the ambient coordinates; the specialized pullback must reproduce them.


def _direct_fiber(p, n, lam):
    """p on the plane over lam, in (s, a, b)."""
    u0, u1 = lam
    images = {j: (u0 ** (n - 2 - j) * u1**j, (1, 0, 0)) for j in range(n - 1)}
    images[n - 1] = (1, (0, 1, 0))
    images[n] = (1, (0, 0, 1))
    return _substitute_monomials(p, 3, images)


def _direct_cone(p, n, drop):
    """p on the cone z_drop = 0, in (u0, u1, s, c) with c the other last coordinate."""
    images = {j: (1, (n - 2 - j, j, 1, 0)) for j in range(n - 1)}
    images[drop] = (0, (0, 0, 0, 0))
    images[2 * n - 1 - drop] = (1, (0, 0, 0, 1))
    return _substitute_monomials(p, 4, images)


def _direct_ridge(p, n):
    """p on the ridge line z0 = .. = z_{n-2} = 0, in (a, b)."""
    images = {j: (0, (0, 0)) for j in range(n - 1)}
    images[n - 1] = (1, (1, 0))
    images[n] = (1, (0, 1))
    return _substitute_monomials(p, 2, images)


@pytest.mark.parametrize("n", range(4, 11))
def test_specialized_pullback_matches_direct_maps(n):
    rng = random.Random(500 + n)
    for _ in range(3):
        inst = random_instance(n, rng)
        for p in (inst.big_f, inst.q, inst.big_f + inst.q * inst.q):
            pulled = pullback(p)
            for lam in list(inst.roots) + [(0, 1)]:
                assert pulled.specialize({U0: lam[0], U1: lam[1]}) == _direct_fiber(p, n, lam)
            assert pulled.specialize({A: 0}) == _direct_cone(p, n, n - 1)
            assert pulled.specialize({B: 0}) == _direct_cone(p, n, n)
            # the ridge keeps (u0, u1), which no surviving term involves
            ridge = _direct_ridge(p, n)
            assert pulled.specialize({S: 0}) == MultiPoly(
                4, {(0, 0) + e: c for e, c in ridge.terms.items()})
        # a line of a fiber plane, as the probe cuts it
        conic = _direct_fiber(inst.q, n, inst.roots[0])
        t = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
        assert conic.specialize({0: 1, 1: t}) == _substitute_monomials(
            conic, 1, {0: (1, (0,)), 1: (t, (0,)), 2: (1, (1,))})


_value = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def _specialize_case(draw):
    """A polynomial in 1..5 variables and a map fixing some of them.

    A term may come with a partner that differs from it only in fixed
    variables, whose coefficient brings the two specialized terms to a drawn
    sum: often 0, so that a key cancels.
    """
    nv = draw(st.integers(1, 5))
    order = draw(st.permutations(range(nv)))
    fixed = {i: draw(_value) for i in order[:draw(st.integers(0, nv))]}

    def weight(exp):
        w = Fraction(1)
        for i, v in fixed.items():
            w *= Fraction(v) ** exp[i]
        return w

    exps = st.tuples(*[st.integers(0, 3)] * nv)
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        exp, c = draw(exps), draw(_coeff)
        terms.append((exp, c))
        if fixed and draw(st.booleans()):
            partner = list(exp)
            for i in fixed:
                partner[i] = draw(st.integers(0, 3))
            partner = tuple(partner)
            if partner != exp and weight(partner) != 0:
                target = draw(st.one_of(st.just(0), st.integers(-2, 2), _coeff))
                terms.append((partner, (target - c * weight(exp)) / weight(partner)))
    return MultiPoly.from_terms(nv, terms), fixed


@settings(max_examples=300, deadline=None)
@given(case=_specialize_case())
@example(case=(  # x0 x1 + x1^2 + x1 at x0 = 0: the dropped first term takes no place
    MultiPoly.from_terms(2, [((1, 1), 1), ((0, 2), 1), ((0, 1), 1)]), {0: 0}))
@example(case=(  # Fractions summing to an int, and a sum that cancels, at x0 = 2
    MultiPoly.from_terms(2, [((1, 1), Fraction(1, 4)), ((0, 1), Fraction(1, 2)),
                             ((2, 0), 1), ((0, 0), -4), ((1, 2), 3)]), {0: 2}))
def test_specialize_matches_a_monomial_substitution(case):
    p, fixed = case
    kept = [i for i in range(p.nvars) if i not in fixed]
    images = {i: (v, (0,) * len(kept)) for i, v in fixed.items()}
    for pos, i in enumerate(kept):
        images[i] = (1, tuple(int(k == pos) for k in range(len(kept))))
    assert _typed_terms(p.specialize(fixed)) == _typed_terms(_substitute_monomials(p, len(kept), images))


def test_instance_roundtrip_identical():
    inst = _valid_instance(6, 21)
    blob = instance_to_json(inst)
    again = instance_from_json(blob)
    assert again == inst
    assert instance_to_json(again) == blob


def test_instance_roundtrip_non_integral(tmp_path):
    # emitted instances are integral; this one stores num/den with den > 1
    base = _valid_instance(6, 21)
    roots = [(Fraction(p, 3), Fraction(q, 7)) for p, q in base.roots]
    q = base.q * _constant(base.q.nvars, Fraction(2, 5))
    inst = build_instance(6, roots, q)
    for poly in (inst.q, inst.f, inst.big_f):
        assert any(type(c) is Fraction for c in poly.terms.values())
    blob = instance_to_json(inst)
    assert any(not v.endswith("/1") for v in blob["F"].values())
    again = instance_from_json(blob)
    assert again == inst
    assert instance_to_json(again) == blob
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    write_instance(inst, first)
    write_instance(read_instance(first), second)
    assert first.read_bytes() == second.read_bytes()


def _first_term(d):
    return min(d)


def _bump_coefficient(key):
    def mutate(blob):
        exp = _first_term(blob[key])
        num, den = blob[key][exp].split("/")
        blob[key][exp] = f"{int(num) + 1}/{den}"
    return mutate


def _drop_term(key):
    def mutate(blob):
        del blob[key][_first_term(blob[key])]
    return mutate


@pytest.mark.parametrize(
    "mutate",
    [_bump_coefficient("F"), _drop_term("F"), _bump_coefficient("f")],
    ids=["changed-F-coefficient", "dropped-F-term", "changed-f-coefficient"],
)
def test_read_instance_rejects_tampered_derived_polys(tmp_path, mutate):
    path = tmp_path / "inst.json"
    write_instance(_valid_instance(6, 21), path)
    blob = json.loads(path.read_text())
    mutate(blob)
    path.write_text(json.dumps(blob))
    with pytest.raises(InstanceError, match="stored derived polynomials do not match"):
        read_instance(path)


def _replace_key(key, value):
    return lambda blob: {**blob, key: value}


def _stringless_coefficient(blob):
    return {**blob, "Q": {k: int(v.split("/")[0]) for k, v in blob["Q"].items()}}


@pytest.mark.parametrize("reshape", [
    lambda blob: {"n": 5},
    lambda blob: [],
    lambda blob: "n",
    _replace_key("Q", []),
    _stringless_coefficient,
    _replace_key("roots", [["1"], ["1", "2"]]),
    _replace_key("roots", [["1", "1/0"]]),
    _replace_key("F", []),
    _replace_key("Q", {"0,0,0,0,0,1,1": "1/1", "0,0,0,0,1,1,0": "1/0"}),
    _replace_key("Q", {"1,1": "1/1"}),
    _replace_key("Q", {"0,0,0,0,2,1,-1": "1/1"}),
    _replace_key("n", 6.7),
    _replace_key("n", "6"),
    lambda blob: {**blob, "roots": [[float(Fraction(x)) for x in r] for r in blob["roots"]]},
    lambda blob: {**blob, "roots": [[Fraction(p) == 1, q] for p, q in blob["roots"]]},
], ids=["no-roots", "a-list", "a-string", "Q-a-list", "coefficient-not-a-string",
        "root-not-a-pair", "zero-denominator", "F-a-list", "Q-zero-denominator",
        "short-exponent", "negative-exponent", "n-a-float", "n-a-string",
        "roots-numbers", "roots-bools"])
def test_instance_from_json_rejects_malformed_data(reshape):
    blob = instance_to_json(_valid_instance(6, 21))
    with pytest.raises(InstanceError, match="^malformed instance: "):
        instance_from_json(reshape(blob))


def test_read_instance_drops_zero_terms(tmp_path):
    inst = _valid_instance(6, 21)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    blob = json.loads(path.read_text())
    absent = ",".join(["9"] + ["0"] * inst.n)
    for key in ("Q", "f", "F"):
        assert absent not in blob[key]
        blob[key][absent] = "0/1"
    path.write_text(json.dumps(blob))
    assert read_instance(path) == inst


def _parent_poly_from(d, nvars):
    """The reader's term parser as it was before its integral fast path."""
    terms = []
    for k, v in d.items():
        exp = tuple(int(x) for x in k.split(","))
        num, den = v.split("/")
        terms.append((exp, Fraction(int(num), int(den))))
    return MultiPoly.from_terms(nvars, terms)


def _parse_outcome(parse, d):
    try:
        p = parse(d, 3)
    except Exception as exc:  # the exception type is what must agree
        return type(exc)
    return p.nvars, dict(p.terms), {e: type(c) for e, c in p.terms.items()}


_exp_digit = st.sampled_from(["0", "1", "2", "01", " 2", "-1"])
_term_key = st.one_of(
    st.lists(_exp_digit, min_size=3, max_size=3).map(",".join),
    st.text(alphabet="012,a", max_size=6),
)
_term_value = st.one_of(
    st.integers(-30, 30).map(lambda k: f"{k}/1"),
    st.integers(-30, 30).map(lambda k: f"{2 * k}/2"),
    st.integers(-30, 30).map(lambda k: f"{k}/01"),
    st.tuples(st.integers(-30, 30), st.integers(-6, 6)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["-0/5", "3/01", "0/1", "1/0", "x/0", "x/1", "2/4", "+4/1", " 5/1", "7"]),
    st.text(alphabet="0123456789-/ x", max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(d=st.dictionaries(_term_key, _term_value, max_size=8))
@example(d={"1,0,0": "1/0"})  # ZeroDivisionError on both sides
@example(d={"1,0,0": "3/01", "01,0,0": "-0/5", "0,1,2": "0/1", "2,0,0": "4/2"})
def test_term_parser_matches_parent(d):
    assert _parse_outcome(scroll._poly_from, d) == _parse_outcome(_parent_poly_from, d)


def _non_integral(inst):
    """The instance with roots and Q given denominators > 1, as in the round-trip test."""
    roots = [(Fraction(p, 3), Fraction(q, 7)) for p, q in inst.roots]
    return build_instance(inst.n, roots, inst.q * _constant(inst.q.nvars, Fraction(2, 5)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 12), seed=st.integers(0, 2**32), integral=st.booleans())
@example(n=6, seed=21, integral=False)  # the instance of test_instance_roundtrip_non_integral
def test_write_instance_is_indent1_json_byte_for_byte(tmp_path_factory, n, seed, integral):
    inst = random_instance(n, random.Random(seed))
    if not integral:
        inst = _non_integral(inst)
    path = tmp_path_factory.mktemp("inst") / "inst.json"
    write_instance(inst, path)
    text = path.read_text()
    assert text == json.dumps(instance_to_json(inst), indent=1, sort_keys=True)
    # the stored f and F are the rebuilt ones' own spelling: no parse needed to accept them
    blob = json.loads(text)
    again = read_instance(path)
    assert again == inst
    assert blob["f"] == scroll._terms_json(again.f) and blob["F"] == scroll._terms_json(again.big_f)


def test_write_instance_frames_an_empty_term_map(tmp_path):
    inst = _valid_instance(5, 2)
    hollow = dataclasses.replace(inst, f=MultiPoly(inst.f.nvars, {}))
    path = tmp_path / "inst.json"
    write_instance(hollow, path)
    assert path.read_text() == json.dumps(instance_to_json(hollow), indent=1, sort_keys=True)


def test_read_instance_accepts_other_spellings_of_the_same_terms(tmp_path):
    inst = _valid_instance(6, 21)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    blob = json.loads(path.read_text())
    for key in ("f", "F"):
        for exp, v in blob[key].items():
            num, den = v.split("/")
            blob[key][exp] = f"{2 * int(num)}/{2 * int(den)}"
    path.write_text(json.dumps(blob))
    assert read_instance(path) == inst


@pytest.mark.parametrize("top", [9, 10, 11, 255, 256, 1000])
def test_term_keys_spell_every_exponent_in_decimal(top):
    p = MultiPoly.from_terms(3, [((top, 0, 1), 3), ((0, top, 2), Fraction(-1, 4)), ((1, 2, 3), 5)])
    got = scroll._terms_json(p)
    assert got == {",".join(map(str, e)): f"{Fraction(c).numerator}/{Fraction(c).denominator}"
                   for e, c in p.terms.items()}
    assert all(ch in "0123456789," for k in got for ch in k)


def _spelled(p):
    """The term map of p as ``_terms_json`` writes it, spelled term by term."""
    return [(",".join(map(str, e)), f"{Fraction(c).numerator}/{Fraction(c).denominator}")
            for e, c in p.terms.items()]


def test_written_f_is_a_fresh_copy_of_a_read_only_map(tmp_path):
    scroll._written_big_f.cache_clear()
    inst = _valid_instance(7, 24)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    write_instance(inst, first)
    kept = scroll._written_big_f(inst)
    with pytest.raises(TypeError):
        kept["0,0,0,0,0,0,0,4"] = "1/1"
    blob = instance_to_json(inst)
    exp = _first_term(blob["F"])
    blob["F"][exp] = "0/1"
    blob["F"]["0,0,0,0,0,0,0,4"] = "1/1"
    assert scroll._written_big_f(inst) is kept  # the same memo entry, unchanged
    assert instance_to_json(inst)["F"] == dict(_spelled(inst.big_f))
    write_instance(inst, second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("memo", ["warm", "cold"])
def test_tampered_f_is_rejected_with_the_memo_warm_or_cold(tmp_path, memo):
    inst = _valid_instance(6, 25)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    blob = json.loads(path.read_text())
    _bump_coefficient("F")(blob)
    path.write_text(json.dumps(blob))
    if memo == "cold":
        scroll._written_big_f.cache_clear()
    before = scroll._written_big_f.cache_info()
    with pytest.raises(InstanceError, match="stored derived polynomials do not match"):
        read_instance(path)
    after = scroll._written_big_f.cache_info()
    # the read looked the rebuilt instance up once: a hit on the written one, or a cold miss
    assert (after.hits - before.hits, after.misses - before.misses) == (
        (1, 0) if memo == "warm" else (0, 1))


def test_the_written_f_next_to_another_q_is_rejected(tmp_path):
    inst = _valid_instance(6, 26)
    other = build_instance(6, inst.roots, _valid_instance(6, 27).q)
    assert other.f == inst.f and other.q != inst.q
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    blob = json.loads(path.read_text())
    blob["Q"] = instance_to_json(other)["Q"]
    write_instance(inst, path)  # the memo holds the written instance again
    path.write_text(json.dumps(blob))
    with pytest.raises(InstanceError, match="stored derived polynomials do not match"):
        read_instance(path)


def test_written_f_comes_from_the_value_not_a_primed_big_f():
    scroll._written_big_f.cache_clear()
    inst = _valid_instance(5, 28)
    primed = QuarticInstance(n=inst.n, roots=inst.roots, f=inst.f, q=inst.q)
    primed.__dict__["big_f"] = inst.big_f + _mono(6, 0, 0, 0, 0)
    assert primed == inst
    assert instance_to_json(primed)["F"] == dict(_spelled(inst.big_f))
    assert instance_to_json(inst) == instance_to_json(primed)


def test_big_f_raises_on_a_non_quartic(monkeypatch):
    scroll._written_big_f.cache_clear()
    inst = _valid_instance(5, 29)
    shifted = QuarticInstance._shifted_f
    monkeypatch.setattr(QuarticInstance, "_shifted_f", lambda self: shifted(self) * _unit(6, 0))
    with pytest.raises(RuntimeError, match="not a homogeneous quartic"):
        inst.big_f
    with pytest.raises(RuntimeError, match="not a homogeneous quartic"):
        instance_to_json(inst)


def _oracle_f(inst):
    """F as the MultiPoly expression z0 z_{n-1} z_n f - Q * Q.

    The product is of Q and a copy of it, so it takes the general product's
    loop over all pairs, not the square's ``poly.square_into`` that F is
    built with; its new keys still come in the square's order.
    """
    return inst._shifted_f() - inst.q * MultiPoly(inst.q.nvars, dict(inst.q.terms))


def _assert_f_matches_the_oracle(inst):
    scroll._written_big_f.cache_clear()
    oracle = _oracle_f(inst)
    assert list(scroll._written_big_f(inst).items()) == list(scroll._terms_json(oracle).items())
    assert _typed_terms(inst.big_f) == _typed_terms(oracle)
    assert all(type(e) is tuple for e in inst.big_f.terms)


@pytest.mark.parametrize("n", range(4, 21))
def test_f_of_drawn_instances_matches_the_multipoly_oracle(n):
    for seed in (n, n + 100):
        inst = _valid_instance(n, seed)
        _assert_f_matches_the_oracle(inst)
        _assert_f_matches_the_oracle(_non_integral(inst))


def _hand_built_qs(inst):
    """Quadrics on the ambient space of ``inst``, named by what they test."""
    nv = inst.n + 1
    n = inst.n
    c0 = inst.f.coefficient(scroll._exp(nv, 0))

    def q(*terms):
        return MultiPoly.from_terms(nv, [(scroll._exp(nv, i, j), c) for i, j, c in terms])

    return {
        # 2 (c0 z0 z_{n-1}) (1/2 z0 z_n) cancels the shifted f's c0 z0^2 z_{n-1} z_n;
        # 2 (z0 z2)(z1^2) and 2 (z0 z1)(-z1 z2) cancel each other in Q^2
        "cancelling": q((0, n - 1, c0), (0, n, Fraction(1, 2)), (0, 2, 1), (1, 1, 1),
                        (0, 1, 1), (1, 2, -1), (n - 1, n, 3)),
        # denominators 2, 3 and 4 on Q: lcm 12, and Q^2 over 144
        "mixed-denominators": q((0, 0, Fraction(1, 2)), (1, n, Fraction(-2, 3)),
                                (n - 1, n - 1, Fraction(3, 4)), (2, n - 1, 5)),
        "integral": q((0, 0, 2), (1, 3, -3), (n - 2, n, 1), (n, n, -7)),
    }


@pytest.mark.parametrize("case", ["cancelling", "mixed-denominators", "integral"])
@pytest.mark.parametrize("scale", [1, Fraction(1, 6)])
def test_f_of_hand_built_instances_matches_the_multipoly_oracle(case, scale):
    base = _valid_instance(7, 3)
    f = MultiPoly(base.f.nvars, {e: poly._canonical(c * scale) for e, c in base.f.terms.items()})
    inst = QuarticInstance(base.n, base.roots, f, _hand_built_qs(base)[case])
    _assert_f_matches_the_oracle(inst)
    oracle = _oracle_f(inst)
    if case == "cancelling" and scale == 1:
        # the two cancellations happen: neither monomial is a term of F
        nv = inst.n + 1
        assert scroll._exp(nv, 0, 0, 6, 7) not in oracle.terms
        assert scroll._exp(nv, 0, 1, 1, 2) not in oracle.terms
    if case == "mixed-denominators":
        assert any(type(c) is Fraction for c in oracle.terms.values())


def test_f_with_wide_digits_matches_the_multipoly_oracle(monkeypatch):
    # a Q term with an entry of 128 packs Q^2 in digits wider than a byte; the
    # shifted f is patched to cancel every term it makes, so F is a quartic
    inst = _valid_instance(6, 7)
    high = MultiPoly.from_terms(7, [((128, 0, 0, 0, 0, 0, 0), 1)])
    wide = QuarticInstance(inst.n, inst.roots, inst.f, inst.q + high)
    shifted = QuarticInstance._shifted_f
    extra = high * high + high * inst.q + inst.q * high
    monkeypatch.setattr(QuarticInstance, "_shifted_f",
                        lambda self: shifted(self) + extra if self is wide else shifted(self))
    _assert_f_matches_the_oracle(wide)
    assert scroll._quartic_keys.top == 256  # digits of 9 bits
    assert dict(scroll._written_big_f(wide)) == dict(scroll._written_big_f(inst))
    assert scroll._quartic_keys.top == 4  # the table holds one packing at a time


def test_f_of_a_non_quadric_q_raises_on_both_routes():
    inst = _valid_instance(6, 8)
    scroll._written_big_f(inst)  # this n's quartic keys are in the table
    linear = QuarticInstance(inst.n, inst.roots, inst.f, inst.q + _unit(7, 0))
    cubic = QuarticInstance(inst.n, inst.roots, inst.f, _mono(7, 0, 1, 2))
    for bad in (linear, cubic):
        for _ in range(2):
            with pytest.raises(RuntimeError, match="not a homogeneous quartic"):
                scroll._written_big_f(bad)
            with pytest.raises(RuntimeError, match="not a homogeneous quartic"):
                bad.big_f
    keys = scroll._quartic_keys
    assert keys.nvars == 7 and all(sum(map(int, k.split(","))) == 4 for k in keys.values())


def _cold_tables(monkeypatch):
    monkeypatch.setattr(poly, "_exponents", {})
    monkeypatch.setattr(scroll, "_table_nvars", 0)
    monkeypatch.setattr(scroll, "_table", {})
    monkeypatch.setattr(scroll, "_spelling_nvars", 0)
    monkeypatch.setattr(scroll, "_spellings", scroll._Spellings())
    monkeypatch.setattr(scroll, "_quartic_keys", scroll._QuarticKeys(0, 0))
    scroll._written_big_f.cache_clear()


def test_instances_match_in_cold_warm_and_alternating_tables(monkeypatch):
    _cold_tables(monkeypatch)
    keys = [(n, seed) for n in (4, 6, 9) for seed in (3, 4)]
    cold = {key: _valid_instance(*key) for key in keys}
    for key in keys + keys[::-1]:  # warm, then with n going down
        inst = _valid_instance(*key)
        # the chart's 5 variables between two builds in n + 1
        assert double_conic_verify(inst)
        for got, want in ((inst.q, cold[key].q), (inst.big_f, cold[key].big_f)):
            assert _typed_terms(got) == _typed_terms(want)
            assert all(type(e) is tuple for e in got.terms)
        assert instance_to_json(inst) == instance_to_json(cold[key])
        assert list(instance_to_json(inst)["F"].items()) == _spelled(inst.big_f)


def test_term_keys_match_in_cold_warm_and_alternating_tables(monkeypatch):
    _cold_tables(monkeypatch)
    insts = [_valid_instance(n, seed) for n in (5, 10) for seed in (1, 2)]
    polys = [p for inst in insts for p in (inst.q, inst.f, inst.big_f)]
    for p in polys + polys:  # then warm
        assert list(scroll._terms_json(p).items()) == _spelled(p)
    # alternating between n + 1 and the chart's 5 variables, as a round trip
    # after ``double_conic_verify`` does
    for inst in insts:
        for p in (inst.big_f, inst.pulled_q, pullback(inst.big_f), inst.f, inst.big_f):
            assert list(scroll._terms_json(p).items()) == _spelled(p)
        assert scroll._spelling_nvars == inst.n + 1
        assert {len(e) for e in scroll._spellings} == {inst.n + 1}  # one variable count
        instance_to_json(dataclasses.replace(inst))  # a new value: F is spelled again
        assert scroll._quartic_keys.nvars == inst.n + 1
        assert {k.count(",") for k in scroll._quartic_keys.values()} == {inst.n}
    assert all(type(e) is tuple and type(k) is str for e, k in scroll._spellings.items())
    assert all(type(p) is int and type(k) is str for p, k in scroll._quartic_keys.items())


def test_moduli_formulas():
    r = moduli_formulas(6, 4)
    assert r.h1_tangent_threefold == 27
    assert r.moduli_dim == 9
    assert r.moduli_dim == r.pencil_member_family_dim - 1
    assert moduli_formulas(7, 5).stratum_dim == 9
    assert moduli_formulas(5, 5).stratum_dim == 4


@pytest.mark.parametrize("n", range(4, 33))
def test_moduli_consistency_sweep(n):
    records = [moduli_formulas(n, k) for k in range(2, n + 1)]
    # the member family loses h0 of the anticanonical twist (one) to moduli
    assert all(r.moduli_dim == r.pencil_member_family_dim - 1 for r in records)
    # the strata drop by two per step in k below k = n, and the last
    # (k = n) has the dimension of the family less five, n - 1
    dims = [r.stratum_dim for r in records]
    assert all(a - b == 2 for a, b in zip(dims[:-2], dims[1:-1]))
    assert dims[-1] == records[-1].pencil_member_family_dim - 5 == n - 1


def test_moduli_k_range():
    with pytest.raises(ValueError):
        moduli_formulas(6, 1)
    with pytest.raises(ValueError):
        moduli_formulas(6, 7)

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from dsolid.poly import MultiPoly
from dsolid.qfield import QuadExt, eval_poly_at, sqrt_fraction


def _mk(nvars=3):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    coeffs = st.fractions(min_value=-5, max_value=5)
    return st.lists(st.tuples(exps, coeffs), max_size=6).map(
        lambda ts: MultiPoly.from_terms(nvars, ts)
    )


@settings(max_examples=60, deadline=None)
@given(a=_mk(), b=_mk(), c=_mk())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == MultiPoly.zero(3)


@settings(max_examples=30, deadline=None)
@given(a=_mk())
def test_zero_coefficients_never_stored(a):
    assert all(c != 0 for c in a.terms.values())


@settings(max_examples=80, deadline=None)
@given(a=_mk(), b=_mk())
def test_sub_matches_add_negated(a, b):
    for left, right in ((a, b), (a, a), (a + b, b), (b, a + b)):
        diff = left - right
        assert diff == left + (-right)
        assert all(type(c) is Fraction and c != 0 for c in diff.terms.values())
    assert (a - a).terms == {}
    assert (a + b) - b == a


def test_sub_cancels_completely_and_partially():
    p = MultiPoly.from_terms(2, [((1, 0), Fraction(1, 2)), ((0, 1), 3)])
    q = MultiPoly.from_terms(2, [((1, 0), Fraction(1, 2)), ((0, 2), -1)])
    assert p - p == MultiPoly.zero(2)
    assert (p - q).terms == {(0, 1): Fraction(3), (0, 2): Fraction(1)}
    with pytest.raises(ValueError):
        p - MultiPoly.zero(3)


def test_substitute_monomials_matches_general():
    p = MultiPoly.from_terms(2, [((2, 1), 3), ((0, 2), Fraction(1, 2))])
    images = {0: (Fraction(2), (1, 0)), 1: (Fraction(-1), (0, 1))}
    fast = p.substitute_monomials(2, images)
    gen = p.substitute(
        [MultiPoly.monomial(2, (1, 0), 2), MultiPoly.monomial(2, (0, 1), -1)]
    )
    assert fast == gen


def test_derivative():
    p = MultiPoly.from_terms(2, [((3, 0), 1), ((1, 1), 2)])
    assert p.derivative(0) == MultiPoly.from_terms(2, [((2, 0), 3), ((0, 1), 2)])


def test_homogeneity_and_degree():
    p = MultiPoly.from_terms(3, [((2, 1, 1), 1), ((0, 4, 0), -2)])
    assert p.is_homogeneous() and p.total_degree() == 4
    q = p + MultiPoly.const(3, 1)
    assert not q.is_homogeneous()


def test_evaluate_exact():
    p = MultiPoly.from_terms(2, [((1, 1), Fraction(1, 3)), ((2, 0), 1)])
    assert p.evaluate([Fraction(3), Fraction(2)]) == 2 + 9


def test_var_bounds():
    with pytest.raises(ValueError):
        MultiPoly.var(2, 5)


def test_quadext_field_ops():
    x = QuadExt(Fraction(1), Fraction(2), 5)  # 1 + 2 sqrt5
    y = QuadExt(Fraction(0), Fraction(1), 5)
    assert (x * y).a == Fraction(10)
    assert (x * y).b == Fraction(1)
    assert (x - x).is_zero()
    assert (y * y).a == 5


def test_quadext_rejects_square_d():
    with pytest.raises(ValueError):
        QuadExt(Fraction(0), Fraction(1), 9)


def test_sqrt_fraction():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    r = sqrt_fraction(Fraction(2))
    assert isinstance(r, QuadExt) and (r * r).a == 2 and (r * r).b == 0
    r = sqrt_fraction(Fraction(2, 3))
    assert isinstance(r, QuadExt)
    sq = r * r
    assert sq.a == Fraction(2, 3) and sq.b == 0


def test_eval_poly_mixed_point():
    p = MultiPoly.from_terms(2, [((2, 0), 1), ((0, 1), -1)])
    root2 = sqrt_fraction(Fraction(2))
    v = eval_poly_at(p, [root2, Fraction(2)])
    assert isinstance(v, QuadExt) and v.is_zero()


# -- products and evaluation against term-by-term references --------------------


def _mk_int(nvars=3):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.lists(st.tuples(exps, st.integers(-9, 9)), max_size=6).map(
        lambda ts: MultiPoly.from_terms(nvars, ts)
    )


def _reference_product(a, b):
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            out[exp] = out.get(exp, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


@pytest.mark.parametrize(
    "left, right",
    [(_mk_int(), _mk_int()), (_mk(), _mk()), (_mk_int(), _mk()), (_mk(), _mk_int())],
    ids=["integral", "rational", "integral-rational", "rational-integral"],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mul_matches_fraction_reference(left, right, data):
    a, b = data.draw(left), data.draw(right)
    prod = a * b
    assert dict(prod.terms) == _reference_product(a, b)
    assert all(type(c) is Fraction and c != 0 for c in prod.terms.values())


def test_mul_cancellation_stores_no_zero():
    # (x/2 + y/3)(x/2 - y/3) = x^2/4 - y^2/9: the xy terms cancel
    a = MultiPoly.from_terms(2, [((1, 0), Fraction(1, 2)), ((0, 1), Fraction(1, 3))])
    b = MultiPoly.from_terms(2, [((1, 0), Fraction(1, 2)), ((0, 1), Fraction(-1, 3))])
    prod = a * b
    assert dict(prod.terms) == {(2, 0): Fraction(1, 4), (0, 2): Fraction(-1, 9)}
    assert all(type(c) is Fraction for c in prod.terms.values())
    assert (a * MultiPoly.zero(2)).terms == {}
    assert (MultiPoly.zero(2) * MultiPoly.zero(2)).terms == {}


def test_integral_product_stores_fractions():
    a = MultiPoly.from_terms(2, [((1, 0), 3), ((0, 1), -2)])
    prod = a**3
    assert prod.coefficient((2, 1)) == 3 * 9 * -2
    assert all(type(c) is Fraction for c in prod.terms.values())
    assert hash(prod) == hash(MultiPoly.from_terms(2, list(prod.terms.items())))


def _naive_eval(p, values, d):
    def lift(v):
        return v if isinstance(v, QuadExt) else QuadExt(Fraction(v), Fraction(0), d)

    total = QuadExt(Fraction(0), Fraction(0), d)
    for exp, c in p.terms.items():
        term = QuadExt(c, Fraction(0), d)
        for v, k in zip(values, exp):
            term = term * lift(v) ** k
        total = total + term
    return total


_small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@settings(max_examples=80, deadline=None)
@given(
    p=_mk(),
    d=st.sampled_from([2, 3, 5, -1, -7]),
    coords=st.lists(
        st.tuples(st.booleans(), _small_fraction, _small_fraction), min_size=3, max_size=3
    ),
)
def test_eval_poly_at_matches_per_term_lift(p, d, coords):
    assume(any(is_quad for is_quad, _, _ in coords))
    values = [QuadExt(a, b, d) if is_quad else a for is_quad, a, b in coords]
    got = eval_poly_at(p, values)
    want = _naive_eval(p, values, d)
    assert isinstance(got, QuadExt)
    assert (got.a, got.b, got.d) == (want.a, want.b, want.d)

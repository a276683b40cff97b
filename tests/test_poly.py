from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from dsolid import poly
from dsolid.poly import MultiPoly
from dsolid.qfield import QuadExt, eval_poly_at, sqrt_fraction


def _is_canonical(c):
    """An int exactly when integral, else a Fraction with denominator > 1; never 0."""
    if type(c) is int:
        return c != 0
    return type(c) is Fraction and c.denominator > 1


def _canonical_terms(p):
    return all(_is_canonical(c) for c in p.terms.values())


def _const(nvars, c):
    return MultiPoly.from_terms(nvars, [((0,) * nvars, c)])


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
    assert a - a == MultiPoly(3, {})


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
        assert _canonical_terms(diff)
    assert (a - a).terms == {}
    assert (a + b) - b == a


def test_sub_cancels_completely_and_partially():
    p = MultiPoly.from_terms(2, [((1, 0), Fraction(1, 2)), ((0, 1), 3)])
    q = MultiPoly.from_terms(2, [((1, 0), Fraction(1, 2)), ((0, 2), -1)])
    assert p - p == MultiPoly(2, {})
    assert (p - q).terms == {(0, 1): Fraction(3), (0, 2): Fraction(1)}
    with pytest.raises(ValueError):
        p - MultiPoly(3, {})


def test_derivative():
    p = MultiPoly.from_terms(2, [((3, 0), 1), ((1, 1), 2)])
    assert p.derivative(0) == MultiPoly.from_terms(2, [((2, 0), 3), ((0, 1), 2)])


def test_homogeneity_and_degree():
    p = MultiPoly.from_terms(3, [((2, 1, 1), 1), ((0, 4, 0), -2)])
    assert p.is_homogeneous() and max(map(sum, p.terms)) == 4
    q = p + _const(3, 1)
    assert not q.is_homogeneous()


def test_evaluate_exact():
    p = MultiPoly.from_terms(2, [((1, 1), Fraction(1, 3)), ((2, 0), 1)])
    assert p.evaluate([Fraction(3), Fraction(2)]) == 2 + 9


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
    assert _canonical_terms(prod)


def test_mul_cancellation_stores_no_zero():
    # (x/2 + y/3)(x/2 - y/3) = x^2/4 - y^2/9: the xy terms cancel
    a = MultiPoly.from_terms(2, [((1, 0), Fraction(1, 2)), ((0, 1), Fraction(1, 3))])
    b = MultiPoly.from_terms(2, [((1, 0), Fraction(1, 2)), ((0, 1), Fraction(-1, 3))])
    prod = a * b
    assert dict(prod.terms) == {(2, 0): Fraction(1, 4), (0, 2): Fraction(-1, 9)}
    assert _canonical_terms(prod)
    assert (a * MultiPoly(2, {})).terms == {}
    assert (MultiPoly(2, {}) * MultiPoly(2, {})).terms == {}


def test_integral_product_stores_ints():
    a = MultiPoly.from_terms(2, [((1, 0), 3), ((0, 1), -2)])
    prod = a * a * a
    assert prod.coefficient((2, 1)) == 3 * 9 * -2
    assert all(type(c) is int for c in prod.terms.values())
    # the same polynomial with Fraction coefficients is equal and hashes equal
    as_fractions = MultiPoly(2, {e: Fraction(c) for e, c in prod.terms.items()})
    assert prod == as_fractions and hash(prod) == hash(as_fractions)
    # a product of rational polynomials with integral coefficients stores ints
    half = MultiPoly.from_terms(2, [((1, 0), Fraction(1, 2)), ((0, 1), Fraction(3, 2))])
    assert dict((half * _const(2, 2)).terms) == {(1, 0): 1, (0, 1): 3}
    assert all(type(c) is int for c in (half * _const(2, 2)).terms.values())


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


# -- the canonical coefficient form, operation by operation ---------------------

# ints, integral Fractions such as 4/2, and Fractions with denominator > 1
_coeff = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.integers(-9, 9).map(lambda k: Fraction(2 * k, 2)),
)


def _mixed(nvars=3):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.lists(st.tuples(exps, _coeff), max_size=6).map(
        lambda ts: MultiPoly.from_terms(nvars, ts)
    )


def _canonical_scalar(x):
    return type(x) is int if Fraction(x).denominator == 1 else type(x) is Fraction


def _fraction_terms(pairs):
    """Sum (exponent, coefficient) pairs in Fraction arithmetic; drop zeros."""
    out = {}
    for e, c in pairs:
        out[tuple(e)] = out.get(tuple(e), Fraction(0)) + Fraction(c)
    return {e: c for e, c in out.items() if c != 0}


def _vadd(x, y):
    return tuple(a + b for a, b in zip(x, y))


@st.composite
def _squarable(draw):
    # narrow digits, and wide ones that pack above a byte
    exps = st.tuples(*[st.one_of(st.integers(0, 2), st.integers(120, 140))] * 3)
    nonzero = _coeff.filter(bool)
    u, v, w = draw(exps), draw(exps), draw(exps)
    c1, c2, c3 = draw(nonzero), draw(nonzero), draw(nonzero)
    # the cross terms (u+v)*w and u*(v+w) land on u+v+w and cancel
    ts = [(_vadd(u, v), c1), (w, c2), (u, c3), (_vadd(v, w), -Fraction(c1) * c2 / c3)]
    ts += draw(st.lists(st.tuples(exps, _coeff), max_size=6))
    return MultiPoly.from_terms(3, ts)


def _integral_narrow(nvars=3):
    # int coefficients and byte-sized digits: the product's one-pass output
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.lists(st.tuples(exps, st.integers(-9, 9)), max_size=6).map(
        lambda ts: MultiPoly.from_terms(nvars, ts)
    )


_X0_PLUS_X1 = MultiPoly.from_terms(3, [((1, 0, 0), 1), ((0, 1, 0), 1)])
_X0_MINUS_X1 = MultiPoly.from_terms(3, [((1, 0, 0), 1), ((0, 1, 0), -1)])


@settings(max_examples=100, deadline=None)
@given(p=st.one_of(_squarable(), _mixed(), _integral_narrow()),
       other=st.one_of(_integral_narrow(), _squarable(), _mixed()))
@example(p=_X0_PLUS_X1, other=_X0_MINUS_X1)  # the cross terms of a non-square product cancel
def test_square_matches_general_product(p, other):
    square = p * p
    # a copy is another object, so it takes the general product path
    assert square == p * MultiPoly(p.nvars, dict(p.terms))
    assert dict(square.terms) == _reference_product(p, p)
    assert _canonical_terms(square)
    product = p * other
    assert dict(product.terms) == _reference_product(p, other)
    assert _canonical_terms(product)


def test_equality_against_a_mapping_proxy_and_equal_int_and_fraction():
    exp = (1, 0, 2)
    plain = MultiPoly(3, {exp: 2, (0, 1, 0): Fraction(1, 3)})
    proxied = MultiPoly(3, MappingProxyType({exp: Fraction(4, 2), (0, 1, 0): Fraction(1, 3)}))
    assert plain == proxied and proxied == plain
    assert not plain != proxied
    assert MultiPoly(3, MappingProxyType({})) == MultiPoly(3, {})
    assert MultiPoly(3, {exp: 2}) != MultiPoly(3, MappingProxyType({exp: 3}))
    assert MultiPoly(3, {}) != MultiPoly(2, {})


def test_square_of_a_constant_without_variables():
    c = _const(0, Fraction(3, 2))
    assert dict((c * c).terms) == {(): Fraction(9, 4)}


@settings(max_examples=60, deadline=None)
@given(v=_coeff)
def test_constructors_are_canonical(v):
    # one-term polynomials from ``from_terms``: constants, also in no variables, and a monomial
    for nv, exp in ((3, (0, 0, 0)), (3, (1, 2, 0)), (0, ())):
        p = MultiPoly.from_terms(nv, [(exp, v)])
        assert dict(p.terms) == _fraction_terms([(exp, v)])
        assert _canonical_terms(p)


@settings(max_examples=80, deadline=None)
@given(ts=st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * 2), _coeff), max_size=8))
def test_from_terms_is_canonical(ts):
    p = MultiPoly.from_terms(2, ts)
    assert dict(p.terms) == _fraction_terms(ts)
    assert _canonical_terms(p)


@settings(max_examples=80, deadline=None)
@given(a=_mixed(), b=_mixed())
def test_add_sub_neg_are_canonical(a, b):
    plus = _fraction_terms(list(a.terms.items()) + list(b.terms.items()))
    minus = _fraction_terms(list(a.terms.items()) + [(e, -c) for e, c in b.terms.items()])
    for got, want in ((a + b, plus), (a - b, minus), (-a, _fraction_terms(
            [(e, -c) for e, c in a.terms.items()])), (a + (-a), {})):
        assert dict(got.terms) == want
        assert _canonical_terms(got)


@settings(max_examples=80, deadline=None)
@given(a=_mixed(), c=_coeff, idx=st.integers(0, 2))
def test_scale_and_derivative_are_canonical(a, c, idx):
    scaled = a * _const(a.nvars, c)
    assert dict(scaled.terms) == _fraction_terms([(e, Fraction(c) * v) for e, v in a.terms.items()])
    deriv = a.derivative(idx)
    want = _fraction_terms(
        [(e[:idx] + (e[idx] - 1,) + e[idx + 1:], v * e[idx]) for e, v in a.terms.items() if e[idx]]
    )
    assert dict(deriv.terms) == want
    assert _canonical_terms(scaled) and _canonical_terms(deriv)


@settings(max_examples=80, deadline=None)
@given(
    a=_mixed(4),
    point=st.lists(_coeff, min_size=4, max_size=4),
    fixed=st.sets(st.integers(0, 3)),
)
def test_specialize_agrees_with_evaluate(a, point, fixed):
    # fixing some variables, then evaluating the rest, evaluates at the full point
    got = a.specialize({i: point[i] for i in fixed})
    kept = [point[i] for i in range(4) if i not in fixed]
    assert got.nvars == len(kept)
    assert got.evaluate(kept) == a.evaluate(point)
    assert _canonical_terms(got)


@settings(max_examples=80, deadline=None)
@given(a=_mixed(), values=st.lists(_coeff, min_size=3, max_size=3))
def test_evaluate_is_canonical(a, values):
    got = a.evaluate(values)
    want = sum((Fraction(c) * Fraction(values[0]) ** e[0] * Fraction(values[1]) ** e[1]
                * Fraction(values[2]) ** e[2] for e, c in a.terms.items()), Fraction(0))
    assert got == want
    assert _canonical_scalar(got)


# -- packed exponents: one int per monomial --------------------------------------


@pytest.mark.parametrize("top", [254, 255, 256, 257, 1000])
def test_packed_product_at_the_base_boundary(top):
    # the largest exponents of the operands add up to `top`, and the product
    # reaches it in the first and in the second variable next to nonzero
    # neighbours; a digit too narrow for `top` would carry into the next one
    a, b = top // 2, top - top // 2
    x = MultiPoly.from_terms(3, [((a, 1, 2), 2), ((0, a, 1), -1), ((1, 1, 1), Fraction(1, 3))])
    y = MultiPoly.from_terms(3, [((b, 2, 0), 3), ((1, b, 1), 1), ((0, 0, 0), 1)])
    prod = x * y
    assert dict(prod.terms) == _reference_product(x, y)
    assert prod.coefficient((top, 3, 2)) == 6 and prod.coefficient((1, top, 2)) == -1
    assert _canonical_terms(prod)


def test_packed_product_zero_operand_and_no_variables():
    a = MultiPoly.from_terms(2, [((3, 1), 2), ((0, 0), Fraction(1, 2))])
    assert (a * MultiPoly(2, {})).terms == {}
    assert (MultiPoly(2, {}) * a).terms == {}
    two, half = _const(0, 2), _const(0, Fraction(1, 2))
    assert dict((two * half).terms) == {(): 1} and type((two * half).terms[()]) is int
    assert dict((half * half).terms) == {(): Fraction(1, 4)}
    assert (two * MultiPoly(0, {})).terms == {}


def test_packed_product_cancels_to_ints():
    # (x + 2y)(x - 2y) = x^2 - 4y^2: the xy terms cancel and are not stored
    a = MultiPoly.from_terms(2, [((1, 0), 1), ((0, 1), 2)])
    b = MultiPoly.from_terms(2, [((1, 0), 1), ((0, 1), -2)])
    prod = a * b
    assert dict(prod.terms) == {(2, 0): 1, (0, 2): -4}
    assert all(type(c) is int for c in prod.terms.values())
    # (x/2 + y)(2x - 4y) = x^2 - 4y^2 as well, from rational operands
    c = MultiPoly.from_terms(2, [((1, 0), Fraction(1, 2)), ((0, 1), 1)])
    d = MultiPoly.from_terms(2, [((1, 0), 2), ((0, 1), -4)])
    assert (c * d).terms == prod.terms and _canonical_terms(c * d)


# -- the exponent-tuple tables of the byte-digit unpacking ------------------------


def _ordered_product(a, b):
    """a * b as (exponent, type, coefficient) in the packed product's order:
    pairs of terms row by row, and for a square (b is a) the diagonal then
    the later terms of the row, doubled."""
    out = {}
    rows = list(a.terms.items())
    for i, (ea, ca) in enumerate(rows):
        for j, (eb, cb) in enumerate(rows[i:] if b is a else b.terms.items()):
            exp = tuple(x + y for x, y in zip(ea, eb))
            out[exp] = out.get(exp, Fraction(0)) + (2 if b is a and j else 1) * Fraction(ca) * cb
    return [(e, int if c.denominator == 1 else Fraction, c) for e, c in out.items() if c]


def _typed_items(p):
    return [(e, type(c), c) for e, c in p.terms.items()]


def _products(ps):
    """Each polynomial squared and times the next one, as (operands, product)."""
    pairs = [(x, x) for x in ps] + list(zip(ps, ps[1:] + ps[:1]))
    return [(x, y, x * y) for x, y in pairs if x.nvars == y.nvars]


def _narrow(nvars):
    # byte digits; integral coefficients take the one-pass output, rational ones `_unpack`
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    coeff = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    return st.lists(st.tuples(exps, coeff), max_size=6).map(
        lambda ts: MultiPoly.from_terms(nvars, ts))


@settings(max_examples=60, deadline=None)
@given(chart=st.lists(_narrow(5), min_size=1, max_size=3),
       ambient=st.lists(st.integers(6, 13).flatmap(_narrow), min_size=1, max_size=3))
def test_products_match_in_cold_warm_and_alternating_tables(chart, ambient):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_exponents", {})  # cold
        first = _products(chart) + _products(ambient)
        for x, y, got in first:
            assert _typed_items(got) == _ordered_product(x, y)
        # warm: the same products again, now from the tuples the first ones made
        again = _products(chart) + _products(ambient)
        for (x, y, got), (_, _, old) in zip(again, first):
            assert _typed_items(got) == _ordered_product(x, y)
            assert all(e is f for e, f in zip(got.terms, old.terms))  # one tuple per monomial
        # alternating between 5 and n + 1 variables, as build_instance and
        # double_conic_verify do
        for c, a in zip(chart * len(ambient), ambient * len(chart)):
            for x, y, got in _products([c]) + _products([a]):
                assert _typed_items(got) == _ordered_product(x, y)
        tables = poly._exponents
        assert all(t.nvars == nv for nv, t in tables.items())
        assert all(type(k) is int and type(e) is tuple and len(e) == nv
                   for nv, t in tables.items() for k, e in t.items())


def test_exponent_tables_keep_each_variable_count(monkeypatch):
    monkeypatch.setattr(poly, "_exponents", {})
    x = MultiPoly.from_terms(5, [((1, 0, 2, 0, 0), 2), ((0, 3, 0, 0, 1), -1)])
    y = MultiPoly.from_terms(9, [((0,) * 8 + (1,), 1), ((1,) + (0,) * 8, 3)])
    sq = x * x
    y * y  # another variable count does not evict the first
    assert set(poly._exponents) == {5, 9}
    again = x * x
    assert list(again.terms) == list(sq.terms)
    assert all(e is f for e, f in zip(again.terms, sq.terms))
    # a product with a denominator unpacks through the same table
    half = x * MultiPoly.from_terms(5, [((0,) * 5, Fraction(1, 2))])
    assert next(iter(half.terms)) is next(e for e in poly._exponents[5].values()
                                          if e == (1, 0, 2, 0, 0))


# -- addition and subtraction: shared terms folded, the rest copied --------------


def _loop_add(a, b, sign):
    """a + sign * b by the per-term loop the sum and difference replaced."""
    out = dict(a.terms)
    for exp, c in b.terms.items():
        c = sign * c
        v = out.get(exp)
        if v is None:
            out[exp] = c
        elif v == -c:
            del out[exp]
        else:
            out[exp] = poly._canonical(v + c)
    return out


@st.composite
def _overlapping(draw):
    """(a, b) where b repeats some of a's exponents, in any order, with a
    coefficient that cancels a's fully (for a + b or a - b), partly (to an
    int or a Fraction) or not at all, next to exponents of its own."""
    a = draw(_mixed())
    b = []
    for exp, c in a.terms.items():
        how = draw(st.sampled_from(["skip", "add", "sub", "int", "other"]))
        if how == "add":
            b.append((exp, -c))
        elif how == "sub":
            b.append((exp, c))
        elif how == "int":
            b.append((exp, draw(st.integers(-2, 2)) - c))
        elif how == "other":
            b.append((exp, draw(_coeff.filter(bool))))
    b += draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * 3), _coeff), max_size=4))
    b = draw(st.permutations(b))
    return a, MultiPoly.from_terms(3, b)


@settings(max_examples=200, deadline=None)
@given(ab=_overlapping())
@example(ab=(MultiPoly.from_terms(3, [((1, 0, 0), 2), ((0, 1, 0), Fraction(1, 2))]),
             MultiPoly.from_terms(3, [((0, 1, 0), Fraction(1, 2)), ((1, 0, 0), 2)])))
def test_add_and_sub_match_the_per_term_loop(ab):
    a, b = ab
    cases = [(x, y, sign) for x, y in ((a, b), (b, a)) for sign in (1, -1)]
    for left, right, sign in cases:
        got = left + right if sign == 1 else left - right
        want = _loop_add(left, right, sign)
        assert [(e, type(c), c) for e, c in got.terms.items()] == [
            (e, type(c), c) for e, c in want.items()]
        # a shared exponent keeps the left operand's tuple
        assert all(e is f for e, f in zip(got.terms, want))
    assert (a - a).terms == {} and (a + (-a)).terms == {}


# -- eval_poly_at on integer pairs ------------------------------------------------


def _coordinate(component):
    return st.tuples(st.booleans(), component, component)


@pytest.mark.parametrize(
    "component",
    [st.integers(-4, 4).map(Fraction), _small_fraction,
     st.one_of(st.integers(-4, 4).map(Fraction), _small_fraction)],
    ids=["integral", "rational", "mixed"],
)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_eval_poly_at_matches_naive_eval(component, data):
    p = data.draw(_mixed())
    d = data.draw(st.sampled_from([2, 3, 5, -1, -7]))
    coords = data.draw(st.lists(_coordinate(component), min_size=3, max_size=3))
    values = [QuadExt(a, b, d) if is_quad else a for is_quad, a, b in coords]
    got = eval_poly_at(p, values)
    if any(is_quad for is_quad, _, _ in coords):
        want = _naive_eval(p, values, d)
        assert isinstance(got, QuadExt)
        assert (got.a, got.b, got.d) == (want.a, want.b, want.d)
    else:
        assert got == p.evaluate(values) and _canonical_scalar(got)


def test_eval_poly_at_rejects_mixed_fields():
    p = MultiPoly.from_terms(2, [((1, 1), 1)])
    with pytest.raises(ValueError):
        eval_poly_at(p, [sqrt_fraction(Fraction(2)), sqrt_fraction(Fraction(3))])

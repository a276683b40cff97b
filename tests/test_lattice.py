from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dsolid.lattice import (
    DivisorClass,
    LatticeBasis,
    LatticeError,
    anticanonical_cycle_check,
    build_surface,
    exceptional_chain_relations,
    self_intersection_profile,
)


def test_quadric_lattice_form():
    # P1 x P1 with the hyperbolic pairing
    basis = LatticeBasis(("H1", "H2"), ((0, 1), (1, 0)))
    h1, h2 = basis.unit("H1"), basis.unit("H2")
    assert h1.dot(h1) == 0
    assert (h1 + h2).dot(h1 + h2) == 2


@pytest.mark.parametrize("n", range(4, 17))
def test_profile(n):
    tower = build_surface(n)
    assert self_intersection_profile(tower) == [1 - n] + [-2] * (n - 3) + [-1]
    assert tower.canonical.dot(tower.canonical) == 8 - 2 * n
    assert tower.basis.rank == 2 * n + 2


@pytest.mark.parametrize("n", range(4, 17))
def test_cycle_adjacency_matrix(n):
    # oracle: expand every pair from the tracked classes and compare against
    # the cyclic adjacency pattern
    tower = build_surface(n)
    names = tower.cycle_names()
    m = len(names)
    for a in range(m):
        for b in range(m):
            d = tower.tracked[names[a]].dot(tower.tracked[names[b]])
            if a == b:
                continue
            expected = 1 if (abs(a - b) == 1 or abs(a - b) == m - 1) else 0
            assert d == expected, (names[a], names[b])


@pytest.mark.parametrize("n", [4, 5, 6, 9])
def test_anticanonical_cycle(n):
    tower = build_surface(n)
    assert anticanonical_cycle_check(tower)


def test_perturbed_cycle_fails():
    tower = build_surface(5)
    total = tower.basis.zero()
    for nm in tower.cycle_names():
        if nm != "Cb2":
            total = total + tower.tracked[nm]
    assert total != -tower.canonical


@pytest.mark.parametrize("n", range(4, 17))
def test_unimodular_every_stage(n):
    tower = build_surface(n)
    assert all(abs(d) == 1 for d in tower.stage_determinants())


def test_exceptional_relations_n5():
    tower = build_surface(5)
    b = tower.basis
    # e4 equals the sum of the last two barred chain components
    assert tower.tracked["Cb3"] + tower.tracked["Cb4"] == b.unit("e4")
    assert tower.tracked["Cb4"] == b.unit("e5")
    assert tower.tracked["C4"] == b.unit("eb5")


@pytest.mark.parametrize("n", range(4, 13))
def test_exceptional_relations(n):
    assert exceptional_chain_relations(build_surface(n))


@pytest.mark.parametrize("name", ["C3", "C6", "C7", "Cb3", "Cb6", "Cb7"])
def test_exceptional_relations_fail_on_one_perturbed_chain_class(name):
    # every chain class from 3 to n-1 enters some arc, on either half
    tower = build_surface(8)
    tower.tracked[name] = tower.tracked[name] + tower.basis.unit("H1")
    assert not exceptional_chain_relations(tower)


@pytest.mark.parametrize("n", [4, 5, 8, 11])
def test_adjacent_components_pair_to_one(n):
    tower = build_surface(n)
    assert tower.tracked["C1"].dot(tower.tracked["C2"]) == 1


def test_intersection_examples():
    tower = build_surface(6)
    c1 = tower.tracked["C1"]
    assert c1.dot(c1) == -5
    assert tower.basis.zero().dot(c1) == 0


def test_basis_mismatch_rejected():
    t4, t5 = build_surface(4), build_surface(5)
    with pytest.raises(LatticeError):
        t4.tracked["C1"].dot(t5.tracked["C1"])


def test_small_n_rejected():
    with pytest.raises(LatticeError):
        build_surface(3)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pairing_bilinear_symmetric(data):
    tower = build_surface(5)
    rank = tower.basis.rank
    vec = st.lists(st.integers(-4, 4), min_size=rank, max_size=rank)
    a = DivisorClass(tower.basis, tuple(data.draw(vec)))
    b = DivisorClass(tower.basis, tuple(data.draw(vec)))
    c = DivisorClass(tower.basis, tuple(data.draw(vec)))
    assert a.dot(b) == b.dot(a)
    assert (a + b).dot(c) == a.dot(c) + b.dot(c)


def test_form_must_be_symmetric():
    with pytest.raises(LatticeError):
        LatticeBasis(("x", "y"), ((0, 1), (0, 0)))


# -- reference oracles: the dense pairing and the Fraction determinant ----------


def _dense_dot(a: DivisorClass, b: DivisorClass) -> int:
    """The O(rank^2) pairing over the dense form that the sparse one replaced."""
    form = a.basis.form
    total = 0
    for i, x in enumerate(a.coeffs):
        if x == 0:
            continue
        row = form[i]
        total += x * sum(row[j] * y for j, y in enumerate(b.coeffs) if y)
    return total


def _fraction_determinant(form: tuple[tuple[int, ...], ...]) -> int:
    """Gaussian elimination over Q, the determinant Bareiss elimination replaced."""
    m = len(form)
    a = [[Fraction(x) for x in row] for row in form]
    det = Fraction(1)
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, m):
            f = a[r][col] * inv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    assert det.denominator == 1
    return int(det)


@st.composite
def symmetric_forms(draw, max_size=6, zero_diagonal=False):
    m = draw(st.integers(1, max_size))
    a = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + (1 if zero_diagonal else 0), m):
            a[i][j] = a[j][i] = draw(st.integers(-3, 3))
    return tuple(tuple(r) for r in a)


@st.composite
def singular_forms(draw, max_size=6):
    """B B^T for an m x (m-1) integer matrix B: symmetric of rank below m."""
    m = draw(st.integers(1, max_size))
    b = [draw(st.lists(st.integers(-3, 3), min_size=m - 1, max_size=m - 1)) for _ in range(m)]
    return tuple(tuple(sum(x * y for x, y in zip(b[i], b[j])) for j in range(m)) for i in range(m))


def _names(m: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(m))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dot_matches_dense_on_stage_subbases(data):
    tower = build_surface(data.draw(st.integers(4, 8)))
    r = data.draw(st.integers(2, tower.basis.rank))
    sub = LatticeBasis(tower.basis.names[:r], tuple(row[:r] for row in tower.basis.form[:r]))
    vec = st.lists(st.integers(-5, 5), min_size=r, max_size=r)
    a = DivisorClass(sub, tuple(data.draw(vec)))
    b = DivisorClass(sub, tuple(data.draw(vec)))
    assert a.dot(b) == _dense_dot(a, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dot_matches_dense_on_random_form(data):
    form = data.draw(symmetric_forms())
    basis = LatticeBasis(_names(len(form)), form)
    vec = st.lists(st.integers(-5, 5), min_size=len(form), max_size=len(form))
    a = DivisorClass(basis, tuple(data.draw(vec)))
    b = DivisorClass(basis, tuple(data.draw(vec)))
    assert a.dot(b) == _dense_dot(a, b) == b.dot(a)


def test_dot_accepts_an_equal_basis_object():
    t1, t2 = build_surface(5), build_surface(5)
    assert t1.basis is not t2.basis
    assert t1.tracked["C1"].dot(t2.tracked["C1"]) == -4


@pytest.mark.parametrize("n", [4, 7, 10, 16])
def test_stage_determinants_match_fraction_elimination(n):
    basis = build_surface(n).basis
    want = [
        _fraction_determinant(tuple(row[:r] for row in basis.form[:r]))
        for r in (2, *range(3, basis.rank + 1))
    ]
    assert build_surface(n).stage_determinants() == want


def _assert_leading_minors(form):
    """Every leading block's minor against the Fraction oracle of that block."""
    minors = LatticeBasis(_names(len(form)), form).leading_minors()
    want = [_fraction_determinant(tuple(row[:r] for row in form[:r])) for r in range(1, len(form) + 1)]
    assert minors == want
    return minors


@settings(max_examples=80, deadline=None)
@given(form=symmetric_forms())
def test_determinant_matches_fraction_elimination(form):
    _assert_leading_minors(form)


@settings(max_examples=60, deadline=None)
@given(form=symmetric_forms(zero_diagonal=True))
def test_determinant_with_row_swaps(form):
    # a zero diagonal forces a row swap wherever the form is not singular
    _assert_leading_minors(form)


@settings(max_examples=60, deadline=None)
@given(form=singular_forms())
def test_determinant_of_singular_form_is_zero(form):
    assert _assert_leading_minors(form)[-1] == 0


def test_determinant_examples():
    def minors(form):
        return _assert_leading_minors(form)

    assert minors(((0, 1), (1, 0))) == [0, -1]
    assert minors(((0, 2, 1), (2, 0, 3), (1, 3, 0))) == [0, -4, 12]
    assert minors(((0, 0), (0, 5))) == [0, 0]
    assert minors(((2, 1), (1, 2))) == [2, 3]
    # row 2 is swapped in at step 0, so the 2-block is singular though the 3-block is not
    assert minors(((0, 0, 1), (0, 1, 0), (1, 0, 0))) == [0, 0, -1]


def test_unimodular_record_fails_on_a_wrong_exceptional_square(monkeypatch):
    # e1 squaring to -2 makes every stage from e1 on of determinant +-2
    from dsolid import lattice
    from dsolid.axioms import default_registry
    from dsolid.checks import CheckContext, check_lattice_cycle

    full = lattice._full_basis

    def wrong_e1(n):
        basis = full(n)
        form = [list(row) for row in basis.form]
        form[basis.index("e1")][basis.index("e1")] = -2
        return LatticeBasis(basis.names, tuple(tuple(row) for row in form))

    monkeypatch.setattr(lattice, "_full_basis", wrong_e1)
    assert 2 in map(abs, build_surface(6).stage_determinants())
    records = check_lattice_cycle(6, CheckContext(registry=default_registry()))
    assert {r.id: r.status for r in records}["lattice.unimodular"] == "fail"


def test_unimodular_record_builds_no_basis(monkeypatch):
    # every stage determinant comes from the one tower basis: a per-stage
    # LatticeBasis rebuild is O(n^4) work and fails here
    from dsolid.axioms import default_registry
    from dsolid.checks import CheckContext, check_lattice_cycle

    ctx = CheckContext(registry=default_registry(), seed=42)
    ctx.model(20).tower.cycle_gram
    built = []
    post_init = LatticeBasis.__post_init__

    def counting(self):
        built.append(self.rank)
        post_init(self)

    monkeypatch.setattr(LatticeBasis, "__post_init__", counting)
    records = check_lattice_cycle(20, ctx)
    assert [r.status for r in records] == ["pass"] * 4
    assert built == []

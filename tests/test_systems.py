import random
import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dsolid import systems
from dsolid.lattice import LatticeBasis, DivisorClass, build_surface
from dsolid.systems import (
    HalfClass,
    StrippingDivergence,
    StrippingResult,
    anticanonical_fixed_part,
    confluence_orders,
    expected_half_bundle_fixed,
    expected_m_restrictions,
    half_bundle_fixed_part,
    half_bundle_on_surface,
    half_cycle_matches,
    m_restriction_table,
    movable_invariants,
    pluri_anticanonical_stripping,
    riemann_roch,
    small_multiples_square_zero,
    strip_fixed_components,
)
from dsolid.lattice import LatticeError


@pytest.mark.parametrize("n", range(4, 17))
def test_fixed_components_match_closed_form(n):
    tower = build_surface(n)
    res = pluri_anticanonical_stripping(tower)
    assert res.fixed == anticanonical_fixed_part(tower)


@pytest.mark.parametrize("n", [4, 5, 7, 10, 16])
def test_stripping_confluent(n):
    tower = build_surface(n)
    assert confluence_orders(tower, shuffles=20, seed=123, ref=pluri_anticanonical_stripping(tower))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_stripping_order_independent_random(seed):
    tower = build_surface(6)
    names = tower.cycle_names()
    rng = random.Random(seed)
    order = names[:]
    rng.shuffle(order)
    cls = (-tower.canonical).scale(tower.n - 2)
    ref = pluri_anticanonical_stripping(tower)
    res = strip_fixed_components(cls, tower, order=order)
    assert res.fixed == ref.fixed and res.movable == ref.movable


def _spy_core(monkeypatch):
    """Record every call of the stripping loop and of the movable remainder."""
    loops, movables = [], []
    core, movable = systems._strip_pairings, systems._movable

    def loop(keys, pairing, gram):
        args = (list(keys), list(pairing), [list(row) for row in gram])
        mult = core(keys, pairing, gram)
        loops.append((*args, list(mult)))
        return mult

    def remainder(cls, components, mult):
        movables.append(movable(cls, components, mult))
        return movables[-1]

    monkeypatch.setattr(systems, "_strip_pairings", loop)
    monkeypatch.setattr(systems, "_movable", remainder)
    return loops, movables


@pytest.mark.parametrize("n", range(4, 21))
def test_confluence_shuffles_strip_as_strip_fixed_components(monkeypatch, n):
    # the shared set-up hands the loop exactly what strip_fixed_components
    # builds for the same order, and gets the same stripping back
    tower = build_surface(n)
    cls = (-tower.canonical).scale(n - 2)
    ref = pluri_anticanonical_stripping(tower)
    loops, movables = _spy_core(monkeypatch)
    assert confluence_orders(tower, shuffles=30, seed=n, ref=ref)
    shared, shared_movables = loops[:], movables[:]
    assert len(shared) == len(shared_movables) == 30
    assert len({tuple(keys) for keys, *_ in shared}) > 1
    for (keys, pairing, gram, mult), movable in zip(shared, shared_movables):
        del loops[:], movables[:]
        res = strip_fixed_components(cls, tower, order=keys)
        assert loops == [(keys, pairing, gram, mult)]
        assert res.fixed == dict(zip(keys, mult)) and res.movable == movable


def test_confluence_fails_on_a_wrong_reference():
    tower = build_surface(8)
    ref = pluri_anticanonical_stripping(tower)
    one_off = StrippingResult({**ref.fixed, "C3": ref.fixed["C3"] + 1}, ref.movable)
    moved = StrippingResult(ref.fixed, ref.movable + tower.basis.unit("e1"))
    assert confluence_orders(tower, shuffles=20, seed=1, ref=ref)
    assert not confluence_orders(tower, shuffles=20, seed=1, ref=one_off)
    assert not confluence_orders(tower, shuffles=20, seed=1, ref=moved)


@pytest.mark.parametrize("n", [4, 6])
def test_movable_invariants(n):
    tower = build_surface(n)
    inv = movable_invariants(tower, pluri_anticanonical_stripping(tower))
    assert (inv.square, inv.degree_on_c2, inv.arithmetic_genus) == (2, 1, 1)


def test_movable_invariants_raises_on_a_half_integral_genus(monkeypatch):
    tower = build_surface(5)
    stripping = pluri_anticanonical_stripping(tower)
    dot = DivisorClass.dot
    # one more on every self-pairing: M.M + M.K turns odd, so p_a = 1 + (M.M + M.K)/2 is not an integer
    monkeypatch.setattr(DivisorClass, "dot", lambda a, b: dot(a, b) + (a is b))
    with pytest.raises(RuntimeError, match="is not an integer"):
        movable_invariants(tower, stripping)


def test_movable_component_degrees_n7():
    tower = build_surface(7)
    inv = movable_invariants(tower, pluri_anticanonical_stripping(tower))
    assert inv.component_degrees == (0, 1, 0, 0, 0, 0)


@pytest.mark.parametrize("n", range(4, 12))
def test_chi_values(n):
    tower = build_surface(n)
    k = tower.canonical
    assert riemann_roch(tower, tower.basis.zero()) == 1
    res = pluri_anticanonical_stripping(tower)
    kernel = res.movable + k + tower.tracked["C2"] + tower.tracked["Cb2"]
    assert riemann_roch(tower, kernel) == 1
    # independent closed form: chi(-K) = 1 + K.K so 9 - 2n
    assert riemann_roch(tower, -k) == 9 - 2 * n


def test_chi_anticanonical_n5():
    tower = build_surface(5)
    assert riemann_roch(tower, -tower.canonical) == -1


def test_parity_guard():
    odd = LatticeBasis(("x",), ((1,),))
    tower = build_surface(4)

    class Fake:
        canonical = DivisorClass(odd, (0,))
        n = 4

    with pytest.raises(LatticeError):
        riemann_roch(Fake(), DivisorClass(odd, (1,)))


def test_anticanonical_strip_gives_cycle_once():
    tower = build_surface(7)
    res = strip_fixed_components(-tower.canonical, tower)
    assert all(v == 1 for v in res.fixed.values())
    assert res.movable == tower.basis.zero()


@pytest.mark.parametrize("n", [4, 5, 8])
def test_small_multiples_square_zero(n):
    tower = build_surface(n)
    for m in range(0, n - 2):
        res = strip_fixed_components((-tower.canonical).scale(m), tower)
        assert res.movable.dot(res.movable) == 0


def _small_multiples_by_loop(tower):
    """The verdict of stripping every m < n - 2 in turn."""
    for m in range(tower.n - 2):
        mov = systems.strip_fixed_components((-tower.canonical).scale(m), tower).movable
        if mov.dot(mov) != 0:
            return False
    return True


def _counting_strips(monkeypatch, strip):
    calls = []

    def counting(cls, tower, order=None):
        calls.append(cls)
        return strip(cls, tower, order)

    monkeypatch.setattr(systems, "strip_fixed_components", counting)
    return calls


@pytest.mark.parametrize("n", range(4, 41))
def test_small_multiples_lemma_agrees_with_the_loop(monkeypatch, n):
    tower = build_surface(n)
    # the lemma's prediction: -mK strips to m on every component, movable part zero
    for m in range(n - 2):
        res = strip_fixed_components((-tower.canonical).scale(m), tower)
        assert set(res.fixed.values()) == {m} and res.movable == tower.basis.zero()
    assert _small_multiples_by_loop(tower)
    calls = _counting_strips(monkeypatch, strip_fixed_components)
    assert small_multiples_square_zero(tower)
    assert calls == [(-tower.canonical).scale(n - 3)]  # one stripping decided it


@pytest.mark.parametrize("n", [4, 7, 12])
@pytest.mark.parametrize("keep_movable", [True, False])
def test_small_multiples_fall_back_to_the_loop(monkeypatch, n, keep_movable):
    # a stripping that leaves C1 at multiplicity 0, moving its copies into the
    # movable part or not: the lemma does not apply, and the loop decides
    def skipping_c1(cls, tower, order=None):
        res = strip_fixed_components(cls, tower, order)
        c1 = res.fixed["C1"]
        movable = res.movable if keep_movable else res.movable + tower.tracked["C1"].scale(c1)
        return StrippingResult({**res.fixed, "C1": 0}, movable)

    tower = build_surface(n)
    calls = _counting_strips(monkeypatch, skipping_c1)
    want = _small_multiples_by_loop(tower)
    assert want is keep_movable
    loop_calls = len(calls)
    assert small_multiples_square_zero(tower) is want
    assert len(calls) - loop_calls == 1 + loop_calls  # the one stripping, then the loop


def test_divergent_input_capped():
    tower = build_surface(6)
    with pytest.raises(StrippingDivergence):
        strip_fixed_components(tower.canonical, tower)


@pytest.mark.parametrize("n", range(4, 17))
def test_half_bundle_restriction_table(n):
    tower = build_surface(n)
    assert m_restriction_table(tower, half_bundle_on_surface(tower)) == expected_m_restrictions(n)


def test_half_bundle_examples():
    t5 = build_surface(5)
    assert m_restriction_table(t5, half_bundle_on_surface(t5))["C1"] == -6
    t8 = build_surface(8)
    assert m_restriction_table(t8, half_bundle_on_surface(t8))["Cb7"] == 5
    t6 = build_surface(6)
    assert m_restriction_table(t6, half_bundle_on_surface(t6))["C3"] == 0


@pytest.mark.parametrize("n", range(4, 17))
def test_half_bundle_divisible(n):
    half = half_bundle_on_surface(build_surface(n))
    assert half.half.scale(2) == half.double


def test_half_class_guard():
    tower = build_surface(4)
    with pytest.raises(LatticeError):
        HalfClass.of(tower.basis.unit("e1"))


@pytest.mark.parametrize("n", range(4, 12))
def test_half_bundle_fixed_contains_staircase(n):
    tower = build_surface(n)
    fixed = half_bundle_fixed_part(tower, half_bundle_on_surface(tower)).fixed_nonzero()
    for nm, v in expected_half_bundle_fixed(n).items():
        assert fixed.get(nm, 0) >= v


@pytest.mark.parametrize("n", [4, 5, 6, 7, 10])
def test_half_cycle_arcs_found(n):
    matches = half_cycle_matches(build_surface(n))
    assert list(matches) == list(range(1, n))
    for arc in matches.values():
        assert arc
        assert "C1" in arc


def _all_arcs(tower):
    """Every proper contiguous arc of the cycle, keyed by its class, by start then length."""
    names = tower.cycle_names()
    m = len(names)
    out = {}
    for start in range(m):
        total = tower.basis.zero()
        members = []
        for step in range(m - 1):
            nm = names[(start + step) % m]
            total = total + tower.tracked[nm]
            members.append(nm)
            out.setdefault(total.coeffs, []).append(tuple(members))
    return out


@pytest.mark.parametrize("n", range(4, 15))
def test_half_cycle_matches_take_the_first_arc_through_c1(n):
    # the prefix-sum lookup against every arc class built one by one
    from dsolid.systems import degree_one_restriction

    tower = build_surface(n)
    arcs = _all_arcs(tower)
    want = {}
    for i in range(1, n):
        with_c1 = [a for a in arcs.get(degree_one_restriction(tower, i).half.coeffs, [])
                   if "C1" in a]
        want[i] = with_c1[0] if with_c1 else ()
    assert half_cycle_matches(tower) == want


def _dense_half_cycle_matches(tower):
    """``half_cycle_matches`` as it was with one dense class sum per start."""
    from dsolid.systems import degree_one_restriction

    names = tower.cycle_names()
    m = len(names)
    prefix = [tower.basis.zero()]
    for nm in names + names:
        prefix.append(prefix[-1] + tower.tracked[nm])
    ends = {}
    for j, p in enumerate(prefix):
        ends.setdefault(p.coeffs, []).append(j)
    c1 = names.index("C1")

    def first_arc(target):
        for s in range(m):
            for j in ends.get((prefix[s] + target).coeffs, ()):
                if s < j < s + m and (c1 - s) % m < j - s:
                    return tuple(names[k % m] for k in range(s, j))
        return ()

    return {i: first_arc(degree_one_restriction(tower, i).half) for i in range(1, tower.n)}


@pytest.mark.parametrize("n", range(4, 41))
def test_half_cycle_matches_agree_with_dense_sums(n):
    tower = build_surface(n)
    assert half_cycle_matches(tower) == _dense_half_cycle_matches(tower)


@pytest.mark.parametrize("n", [4, 5, 9])
def test_half_cycle_matches_confirm_a_colliding_key(n, monkeypatch):
    # a key that sends every class to 0 makes every end a candidate; the
    # confirmation on the classes still picks the first true arc
    from dsolid import systems

    tower = build_surface(n)
    want = _dense_half_cycle_matches(tower)
    monkeypatch.setattr(systems, "_packed", lambda c: 0)
    assert half_cycle_matches(tower) == want


@pytest.mark.parametrize("n", [4, 5, 7])
def test_half_cycle_matches_skip_arcs_without_c1(n, monkeypatch):
    # every arc class as the target: arcs that miss C1 never match
    from dsolid import systems

    tower = build_surface(n)
    for coeffs, arcs in _all_arcs(tower).items():
        target = DivisorClass(tower.basis, coeffs)
        monkeypatch.setattr(systems, "degree_one_restriction",
                            lambda tower, i: HalfClass(target.scale(2), target))
        with_c1 = [a for a in arcs if "C1" in a]
        want = with_c1[0] if with_c1 else ()
        assert half_cycle_matches(tower) == {i: want for i in range(1, n)}


def test_half_cycle_sign_flip_breaks(monkeypatch):
    # a sign flip at position 2 lies outside the realizable family: no arc
    tower = build_surface(5)
    n = 5
    from dsolid import systems
    from dsolid.systems import alpha_restriction

    acc = -tower.canonical
    for j in range(1, n + 1):
        eps = -1 if j == 2 else 1
        acc = acc - alpha_restriction(tower, j).scale(eps)
    assert all(c % 2 == 0 for c in acc.coeffs)
    half = DivisorClass(tower.basis, tuple(c // 2 for c in acc.coeffs))
    arcs = _all_arcs(tower).get(half.coeffs, [])
    assert not arcs
    monkeypatch.setattr(systems, "degree_one_restriction",
                        lambda tower, i: HalfClass(half.scale(2), half))
    assert half_cycle_matches(tower) == {i: () for i in range(1, n)}


def test_half_cycle_index_out_of_range():
    from dsolid.systems import degree_one_restriction

    with pytest.raises(LatticeError):
        degree_one_restriction(build_surface(5), 5)


# -- reference oracle: the stripping loop with one pairing per candidate --------


def _reference_strip(cls, components, order=None, cap_factor=4):
    """The greedy loop that re-paired the running class with every candidate."""
    names = order if order is not None else sorted(components)
    cap = cap_factor * (len(components) // 2 + 1)
    fixed = {nm: 0 for nm in components}
    current = cls
    while True:
        hit = None
        for nm in names:
            if current.dot(components[nm]) < 0:
                hit = nm
                break
        if hit is None:
            return fixed, current
        fixed[hit] += 1
        if fixed[hit] > cap:
            raise StrippingDivergence(
                f"component {hit} stripped more than {cap} times; input is not bounded below"
            )
        current = current - components[hit]


def _assert_strip_matches_reference(cls, tower, order, reference=_reference_strip):
    try:
        fixed, movable = reference(cls, tower.cycle_classes(), order)
    except StrippingDivergence as exc:
        with pytest.raises(StrippingDivergence, match=f"^{re.escape(str(exc))}$"):
            strip_fixed_components(cls, tower, order=order)
        return "diverged"
    res = strip_fixed_components(cls, tower, order=order)
    assert list(res.fixed.items()) == list(fixed.items())
    assert res.movable == movable
    return "finished"


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_stripping_matches_reference_on_random_classes(data):
    tower = build_surface(data.draw(st.integers(4, 7)))
    rank = tower.basis.rank
    noise = data.draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
    cls = (-tower.canonical).scale(data.draw(st.integers(0, tower.n))) + DivisorClass(
        tower.basis, tuple(noise)
    )
    names = tower.cycle_names()
    order = data.draw(st.none() | st.permutations(names).map(list))
    _assert_strip_matches_reference(cls, tower, order)


def _gram_per_call_strip(cls, components, order):
    """The Gram-row fixpoint with the rows paired afresh, in the positions of
    ``order`` (a permutation of the component names)."""
    keys = order
    cap = 4 * (len(components) // 2 + 1)
    comps = [components[nm] for nm in keys]
    pairing = [c.dot(cls) for c in comps]
    gram = [[(q, g) for q, b in enumerate(comps) if (g := a.dot(b))] for a in comps]
    mult = [0] * len(keys)
    while negative := [p for p, v in enumerate(pairing) if v < 0]:
        hit = negative[0]
        mult[hit] += 1
        if mult[hit] > cap:
            raise StrippingDivergence(
                f"component {keys[hit]} stripped more than {cap} times; input is not bounded below"
            )
        for q, g in gram[hit]:
            pairing[q] -= g
    fixed = {nm: 0 for nm in components}
    fixed.update(zip(keys, mult))
    movable = cls
    for nm, f in zip(keys, mult):
        movable = movable - components[nm].scale(f)
    return fixed, movable


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shared_gram_stripping_matches_gram_built_per_call(data):
    # the tower's Gram rows are shared by every order: each order only maps
    # names to rows, so a random order must strip as if its rows were paired anew
    n = data.draw(st.integers(4, 12))
    tower = build_surface(n)
    rank = tower.basis.rank
    noise = data.draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
    cls = (-tower.canonical).scale(data.draw(st.integers(0, n))) + DivisorClass(
        tower.basis, tuple(noise)
    )
    order = data.draw(st.permutations(tower.cycle_names()).map(list))
    _assert_strip_matches_reference(cls, tower, order, reference=_gram_per_call_strip)


@pytest.mark.parametrize("n", [4, 5, 8, 11])
def test_stripping_matches_reference_on_check_inputs(n):
    # every class the checks strip (m(-K) for m < n-1, the half bundle) and K, shuffled
    tower = build_surface(n)
    k = tower.canonical
    classes = [(-k).scale(m) for m in range(n - 1)] + [k, half_bundle_on_surface(tower).half]
    rng = random.Random(n)
    outcomes = set()
    for cls in classes:
        for _ in range(3):
            order = tower.cycle_names()
            rng.shuffle(order)
            outcomes.add(_assert_strip_matches_reference(cls, tower, order))
    assert outcomes == {"diverged", "finished"}


def test_stripping_repeated_names_in_order():
    tower = build_surface(6)
    names = tower.cycle_names()
    order = names[::-1] + names
    cls = (-tower.canonical).scale(4)
    _assert_strip_matches_reference(cls, tower, order)


def test_stripping_rejects_foreign_components():
    t5, t6 = build_surface(5), build_surface(6)
    with pytest.raises(LatticeError):
        strip_fixed_components(-t5.canonical, t6)


def test_light_surface_checks_at_n32():
    from dsolid.checks import CHECKS
    from dsolid.report import RunConfig, run

    for pattern in ("lattice.*", "systems.*"):
        assert not any(CHECKS[cid].heavy for cid in CHECKS if cid.startswith(pattern[:-1]))
        report = run(RunConfig(ns=(32,), filter=pattern))
        assert report.checks
        assert [r.id for r in report.checks if r.status == "fail"] == []


def test_every_fixed_part_reader_fails_on_one_wrong_multiplicity(monkeypatch):
    # systems.fixed_multiplicity is the one fixed-part rule; a wrong value at
    # C2 (bound in both modules that read it) reaches every check that reads it
    from dsolid import incidence, systems
    from dsolid.report import RunConfig, run

    def failing():
        return {r.id for pattern in ("systems.*", "incidence.*")
                for r in run(RunConfig(ns=(6,), filter=pattern)).checks if r.status == "fail"}

    assert failing() == set()
    real = systems.fixed_multiplicity

    def wrong(n, j):
        return real(n, j) + (j == 2)

    monkeypatch.setattr(systems, "fixed_multiplicity", wrong)
    monkeypatch.setattr(incidence, "fixed_multiplicity", wrong)
    assert failing() == {
        "systems.fixed-components",
        "systems.half-bundle-fixed",
        "incidence.bundle-algebra",
        "incidence.half-bundle-tables",
        "incidence.pencil-ledgers",
    }

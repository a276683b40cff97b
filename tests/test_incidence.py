import dataclasses
import re
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from dsolid import incidence as inc
from dsolid.axioms import AxiomRegistry, MissingAxiom, default_registry
from dsolid.incidence import (
    adjusted_bundle,
    bundle_algebra_verify,
    cascade_precondition_check,
    cascade_schedule,
    complete_pairings,
    conjugate_curve,
    conjugate_divisor,
    divisor_trivial,
    irreducibility_guard,
    is_equivariant,
    kernel_bundle,
    cylinder_tables_verify,
    m1_tables_verify,
    nonvan_ledgers,
    pairing_system,
    restriction_ledger_h0,
    rr_threefold,
    seam_anchor_resolution,
    solve_pairings,
    triviality_check,
)
from dsolid.checks import CheckContext, Model, check_completion, check_pencil_ledgers
from dsolid.elimination import _initial_state
from dsolid.lattice import build_surface


def test_conjugation_involution():
    cx = Model(7).complex
    for c in cx.curves:
        assert conjugate_curve(conjugate_curve(c)) == c
    for d in ["T"] + cx.exceptional_divisors():
        assert conjugate_divisor(conjugate_divisor(d)) == d


def test_odp_count_n7():
    assert len(Model(7).complex.odps) == 12


@pytest.mark.parametrize("n", [4, 5, 9])
def test_each_fiber_cycle_splits_into_two_halves(n):
    # the reducible member over fiber i is Sm_i + Sp_i, each carrying a
    # contiguous arc of n curves of the cycle; a small-resolution curve lies
    # on the two surfaces its double point's blown pair names
    cx = Model(n).complex
    for i in range(1, n):
        cycle = cx.fiber_cycle(i)
        halves = [cx.half(c) for c in cycle]
        assert sorted(set(halves)) == [f"Sm{i}", f"Sp{i}"]
        assert halves.count(f"Sm{i}") == halves.count(f"Sp{i}") == n
        assert sum(a != b for a, b in zip(halves, halves[1:] + halves[:1])) == 2
    for o in cx.odps:
        assert (cx.half(o.exceptional), cx.home(o.exceptional)) == o.blown_pair


def test_end_component_unblown_n4():
    cx = Model(4).complex
    assert cx.blown["E3"] == []
    assert cx.pic_basis("E3") == ["s", "f"]


@pytest.mark.parametrize("n", range(4, 17))
def test_cylinder_tables(n):
    table = Model(n).table
    tables, ok = cylinder_tables_verify(table)
    assert ok, tables


def test_cylinder_examples_n7():
    table = Model(7).table
    l1 = adjusted_bundle(7)
    assert table.degree(l1, ("G", 2)) == 3
    assert table.degree(l1, ("C", 4, 4)) == -1
    assert table.degree(l1, ("D", 6)) == 4


@settings(max_examples=40, deadline=None)
@given(data=st.data(), integral=st.booleans())
def test_degree_matches_per_term_fractions(data, integral):
    # mixed denominators sum exactly; integer coefficients give an int degree
    table = Model(6).table
    divs = ["T"] + table.complex.exceptional_divisors()
    coeff = st.integers(-4, 4)
    if not integral:
        coeff |= st.fractions(min_value=-3, max_value=3, max_denominator=12)
    coeffs = {d: data.draw(coeff) for d in data.draw(st.lists(st.sampled_from(divs), unique=True))}
    c = data.draw(st.sampled_from(table.complex.curves))
    got = table.degree(coeffs, c)
    assert got == sum((Fraction(co) * table.value(d, c) for d, co in coeffs.items()), Fraction(0))
    if integral:
        assert type(got) is int


def test_anchor_cells():
    n = 7
    table = Model(n).table
    # transversal: the section of the next component crosses back
    for i in range(3, n - 1):
        assert table.value(f"E{i-1}", ("C", i, i)) == 1
    assert table.value("Eb1", ("G", n - 1)) == 0
    assert table.value("Eb3", ("G", 2)) == 0
    assert table.value("E1", ("D", 1)) == -1
    assert table.value("E1", ("G", 1)) == 0
    assert table.value("E1", ("Gb", n - 1)) == 0
    # full fiber over the first component: strict section plus exceptional
    assert table.value("E1", ("C", 1, 1)) + table.value("E1", ("D", 1)) == 1 - n
    for i in range(2, n - 1):
        assert table.value(f"E{i}", ("D", i)) == -1
        assert table.value(f"E{i}", ("C", i, i)) == -1
    assert table.value(f"E{n-1}", ("C", n - 1, n - 1)) == -1


def test_seam_anchor_resolution():
    table = Model(6).table
    res = seam_anchor_resolution(table)
    assert res["solved"] == -1
    assert res["literal_reading_consistent"]
    assert res["other_side"] == 0


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_completion_order_invariant(seed):
    system = Model(5).system
    ref = solve_pairings(system)
    other = solve_pairings(system, shuffle_seed=seed)
    assert other == ref


def test_completion_rejects_corrupted_anchor():
    # a wrong anticanonical degree makes the over-determined system clash
    from dsolid.incidence import CompletionError

    cx = Model(5).complex
    cx.section_rhs["C1"] += 1  # before the system is built from it
    with pytest.raises(CompletionError, match="inconsistent"):
        complete_pairings(cx, pairing_system(cx))


def test_completion_rejects_underdetermined():
    from dsolid.incidence import CompletionError, _anchor_equations, _solve

    cx = Model(4).complex
    unknowns = [(d, s) for d in cx.exceptional_divisors() for s in cx.pic_basis(d)]
    with pytest.raises(CompletionError, match="under-determined"):
        _solve(unknowns, _anchor_equations(cx))  # anchors alone cannot pin everything


@pytest.mark.parametrize("n", range(4, 17))
def test_equivariance(n):
    table = Model(n).table
    for c, row in table.rows.items():
        for d, v in row.items():
            assert table.rows[conjugate_curve(c)][conjugate_divisor(d)] == v
    assert is_equivariant(table)


def _with_row(table, c, **cells):
    """A copy of the table in which curve c alone holds a new row: its cells
    updated by ``cells``."""
    row = MappingProxyType({**table.rows[c], **cells})
    return dataclasses.replace(table, rows=MappingProxyType({**table.rows, c: row}))


def _conjugation_status(n, table):
    """The ``incidence.conjugation`` status of a context whose model holds ``table``."""
    ctx = CheckContext(registry=default_registry(), seed=42)
    ctx.model(n).table = table
    [rec] = [r for r in check_completion(n, ctx) if r.id == "incidence.conjugation"]
    return rec.status


def test_conjugation_record_fails_on_one_flipped_entry():
    n = 6
    table = Model(n).table
    c = ("C", 3, 2)
    assert _conjugation_status(n, table) == "pass"
    flipped = _with_row(table, c, E2=table.rows[c]["E2"] + 1)
    assert not is_equivariant(flipped)
    assert _conjugation_status(n, flipped) == "fail"


def test_completion_record_fails_on_one_perturbed_nu():
    n = 6
    ctx = CheckContext(registry=default_registry(), seed=42)

    def completion():
        [rec] = [r for r in check_completion(n, ctx) if r.id == "incidence.completion-unique"]
        return rec.status

    assert completion() == "pass"
    ctx.model(n).table.nu[("E2", "s")] += 1
    assert completion() == "fail"


def _parent_neighbors(cx, div):
    """(minus-seam neighbor, plus-seam neighbor) around the cylinder, from the name."""
    n = cx.n
    side = "Eb" if div.startswith("Eb") else "E"
    j = int(div[len(side):])
    other = "E" if side == "Eb" else "Eb"
    minus = f"{side}{j-1}" if j > 1 else f"{other}{n-1}"
    plus = f"{side}{j+1}" if j < n - 1 else f"{other}1"
    return minus, plus


def _parent_meets(cx, c):
    """Transversal meeting counts, re-derived on every call as the per-call rule was."""
    kind = c[0]
    if kind in ("C", "Cb"):
        i = c[1]
        div = cx.home(c)
        mn, pl = _parent_neighbors(cx, div)
        out = {}
        if not any(f == i and side == "minus" for f, side, _ in cx.blown[div]):
            out[mn] = 1
        if not any(f == i and side == "plus" for f, side, _ in cx.blown[div]):
            out[pl] = 1
        return out
    if kind in ("G", "Gb"):
        return {}
    if kind in ("D", "Db"):
        odp = cx.odp_of[c]
        others = [d for d in odp.divisors if d not in odp.blown_pair]
        return {d: 1 for d in others if d in cx.blown}
    if kind == "L":
        return {f"E{c[1]}": 1, f"Eb{c[1]}": 1}
    raise ValueError(c)


def _parent_curve_class(cx, div, c):
    """Class of a contained curve in the Picard basis of ``div``, as {symbol: coefficient}."""
    kind = c[0]
    cls = {}
    if kind in ("C", "Cb"):
        cls["s"] = 1
        for fiber, _, name in cx.blown[div]:
            if fiber == c[1]:
                cls[f"d:{name}"] = -1
        return cls
    if kind in ("G", "Gb"):
        cls["f"] = 1
        for _, _, name in cx.blown[div]:
            if cx.odp_of[name].seam == c:
                cls[f"d:{name}"] = -1
        return cls
    if kind in ("D", "Db"):
        return {f"d:{cx.odp_of[c].name}": 1}
    raise ValueError(c)


def _parent_cells(cx, c):
    """The per-call cell rule the cell map replaced: (known cells, {host: class})."""
    known = {"T": 1 if c[0] in ("G", "Gb") else 0, **_parent_meets(cx, c)}
    if c[0] in ("G", "Gb"):
        hosts = cx.seam_hosts(c)
    else:
        hosts = () if cx.home(c) is None else (cx.home(c),)
    return known, {div: _parent_curve_class(cx, div, c) for div in hosts}


@pytest.mark.parametrize("n", [*range(4, 21), 64])
def test_cell_map_matches_the_per_call_rule(n):
    cx = Model(n).complex
    assert list(cx.cell_map) == cx.curves
    # curves with equal cells share one object, and only they do
    assert len({id(v) for v in cx.cell_map.values()}) == 9 * (n - 1)
    assert len(set(cx.cell_map.values())) == 9 * (n - 1)
    for c in cx.curves:
        cells = cx.cell_map[c]
        known, classes = _parent_cells(cx, c)
        assert list(cells.known) == list(known.items()), c
        assert [div for div, _ in cells.classes] == list(classes), c
        for div, cls in cells.classes:
            assert all(d == div for (d, _), _ in cls), c
            assert [(sym, co) for (_, sym), co in cls] == list(classes[div].items()), c


def test_the_cell_map_is_read_only():
    cx = Model(6).complex
    c = ("C", 2, 3)
    cells = cx.cell_map[c]
    with pytest.raises(TypeError):
        cx.cell_map[c] = cells
    with pytest.raises(TypeError):
        cx.cell_map[("C", 2, 2)] = cells
    with pytest.raises(TypeError):
        cells.known[0] = ("T", 1)
    with pytest.raises(TypeError):
        cells.classes[0][1][0] = (("E3", "s"), 2)
    with pytest.raises(AttributeError):
        cells.known = ()
    # assembling and checking the table leaves the shared map as it was
    before = dict(cx.cell_map)
    table = complete_pairings(cx, pairing_system(cx))
    with pytest.raises(TypeError):
        table.rows[c] = {}
    row = next(r for r in table.rows.values() if r)
    with pytest.raises(TypeError):
        row[next(iter(row))] += 1
    assert dict(cx.cell_map) == before


def _per_curve_system(cx):
    """The system as built before curves shared cells: one projection equation
    per curve from the per-call cell rule, then the first of each literally
    identical constraint, anchors first."""
    from dsolid.incidence import _anchor_equations, curve_name

    unknowns = tuple((div, sym) for div in cx.exceptional_divisors() for sym in cx.pic_basis(div))
    projections = []
    for c in cx.curves:
        if c[0] == "L":
            continue
        known, classes = _parent_cells(cx, c)
        lhs = {(div, sym): co for div, cls in classes.items() for sym, co in cls.items()}
        rhs = cx.section_rhs[f"{c[0]}{c[2]}"] if c[0] in ("C", "Cb") else 0
        projections.append((f"projection {curve_name(c)}", lhs, rhs - sum(known.values())))
    seen, eqs = set(), []
    for label, lhs, rhs in _anchor_equations(cx) + projections:
        key = (frozenset(lhs.items()), rhs)
        if key not in seen:
            seen.add(key)
            eqs.append((label, lhs, rhs))
    return unknowns, tuple(eqs)


@pytest.mark.parametrize("n", [*range(4, 21), 64])
def test_system_matches_the_per_curve_system(n):
    # labels, order, lhs and rhs all take part in the tuple equality
    cx = Model(n).complex
    assert pairing_system(cx) == _per_curve_system(cx)


@pytest.mark.parametrize("n", [4, 7, 18])
def test_a_corrupted_system_fails_as_the_per_curve_one_does(n):
    from dsolid.incidence import CompletionError

    cx = Model(n).complex
    cx.section_rhs["C1"] += 1
    with pytest.raises(CompletionError) as want:
        solve_pairings(_per_curve_system(cx))
    with pytest.raises(CompletionError) as got:
        solve_pairings(pairing_system(cx))
    assert str(got.value) == str(want.value)
    assert "inconsistent" in str(got.value)


def test_generic_sections_share_one_read_only_row():
    model = Model(8)
    cx, table = model.complex, model.table
    blown = {f for f, _, _ in cx.blown["E3"]}
    i, k = [f for f in range(1, cx.n) if f not in blown][:2]
    a, b = ("C", i, 3), ("C", k, 3)
    assert cx.cell_map[a] is cx.cell_map[b]
    assert table.rows[a] is table.rows[b]
    before_b, before_map = dict(table.rows[b]), dict(cx.cell_map)
    with pytest.raises(TypeError):
        table.rows[a]["T"] = 7
    assert table.rows[b] == before_b
    assert dict(cx.cell_map) == before_map


def _dense_table(cx):
    """The dense assembly the sparse one replaced: every (divisor, curve) cell,
    zeros included, as {cell: value}, from the per-call cell rule."""
    nu = solve_pairings(pairing_system(cx))
    table = {}
    for c in cx.curves:
        meet, classes = _parent_cells(cx, c)
        homes = list(classes)
        for div in ["T"] + cx.exceptional_divisors():
            key = (div, c)
            if div == "T":
                table[key] = meet["T"]
            elif div in homes:
                table[key] = sum(co * nu[(div, sym)] for sym, co in classes[div].items())
            else:
                table[key] = meet.get(div, 0)
    return table


@pytest.mark.parametrize("n", range(4, 17))
def test_sparse_table_matches_dense_oracle(n):
    table = Model(n).table
    dense = _dense_table(table.complex)
    assert {cell: table.value(*cell) for cell in dense} == dense
    assert list(table.rows) == table.complex.curves
    stored = {(d, c): v for c, row in table.rows.items() for d, v in row.items()}
    assert stored == {cell: v for cell, v in dense.items() if v}
    assert all(0 not in row.values() for row in table.rows.values())


def test_equivariance_fails_on_one_filled_zero_cell():
    n = 6
    table = Model(n).table
    dense = _dense_table(table.complex)
    cell = ("E3", ("C", 1, 5))
    assert dense[cell] == 0 and "E3" not in table.rows[("C", 1, 5)]
    filled = _with_row(table, ("C", 1, 5), E3=1)
    assert not is_equivariant(filled)
    assert _conjugation_status(n, filled) == "fail"


@pytest.mark.parametrize("n", range(4, 17))
def test_initial_degrees_match_the_dense_oracle(n):
    # the elimination's starting degrees are the adjusted bundle's degree on
    # every fiber-cycle node, summed here over every cell of the dense table
    table = Model(n).table
    cx = table.complex
    dense = _dense_table(cx)
    l1 = adjusted_bundle(n)
    divisors = ["T", *cx.exceptional_divisors()]
    nodes = [nd for i in range(1, n) for nd in cx.fiber_cycle(i)]
    expected = {nd: sum(l1.get(d, 0) * dense[(d, nd)] for d in divisors) for nd in nodes}
    state = _initial_state(table)
    assert state.nodes == nodes
    assert dict(zip(state.nodes, state.degrees)) == expected


@pytest.mark.parametrize("n", range(4, 17))
def test_projection_formula_all_curves(n):
    # mu*F = T + full cylinder pairs to zero on contracted curves and to the
    # anticanonical degree of the image on sections
    table = Model(n).table
    cx = table.complex
    tower = build_surface(n)
    pull = {"T": 1}
    for d in cx.exceptional_divisors():
        pull[d] = 1
    for c in cx.curves:
        if c[0] == "L":
            continue
        got = table.degree(pull, c)
        if c[0] in ("G", "Gb", "D", "Db"):  # contracted by the blowdown
            assert got == 0, c
        else:
            nm = ("C" if c[0] == "C" else "Cb") + str(c[2])
            cls = tower.tracked[nm]
            assert got == cls.dot(cls) + 2, c


@pytest.mark.parametrize("n", [5, 9])
def test_triviality(n):
    assert triviality_check(Model(n).table)


def test_triviality_fails_on_interior():
    table = Model(6).table
    assert not divisor_trivial(table, adjusted_bundle(6), "E2")


def test_cascade_n7_first_step():
    table = Model(7).table
    ok, trace = cascade_precondition_check(table)
    assert ok
    assert trace[0] == (1, 6, -1)


def test_cascade_n5_full():
    ok, trace = cascade_precondition_check(Model(5).table)
    assert ok
    assert [t[2] for t in trace] == [-1, -1, -1]


def test_cascade_n4_single_step():
    ok, trace = cascade_precondition_check(Model(4).table)
    assert ok
    assert len(trace) == 1


def test_cascade_schedule_orders():
    assert cascade_schedule(7) == [
        (1, 6),
        (2, 5), (2, 6),
        (3, 4), (3, 5), (3, 6),
        (4, 3), (4, 4), (4, 5), (4, 6),
    ]


@pytest.mark.parametrize("n,total", [(7, 8), (4, 5)])
def test_restriction_ledger(n, total):
    reg = default_registry()
    res = restriction_ledger_h0(Model(n).table, reg)
    assert res.value == n
    assert res.total == total
    assert res.axioms_used


def test_restriction_ledger_requires_axioms():
    with pytest.raises(MissingAxiom):
        restriction_ledger_h0(Model(5).table, AxiomRegistry())


@pytest.mark.parametrize("n", range(4, 17))
def test_half_bundle_tables(n):
    model = Model(n)
    tables, ok = m1_tables_verify(model.table, model.m_table)
    assert ok, tables


def test_half_bundle_examples_n6():
    model = Model(6)
    tables, ok = m1_tables_verify(model.table, model.m_table)
    assert ok
    assert tables["Db"][5] == (3, 3)
    assert tables["G"][2] == (2, 2)
    assert tables["Cb"][3] == (0, 0)


@pytest.mark.parametrize("n", range(4, 17))
def test_bundle_algebra(n):
    res = bundle_algebra_verify(n)
    assert res["ok"], {k: v for k, v in res.items() if k != "ok" and not v["ok"]}


def _reference_vadd(a, b, s=1):
    """The running-vector step as it copied its left operand on every call."""
    out = dict(a)
    for k, v in b.items():
        out[k] = inc._canonical(v * s + out.get(k, 0))
        if out[k] == 0:
            del out[k]
    return out


def _fraction_class(doubled):
    """A doubled class as the ``Fraction`` class it stands for, every value a
    ``Fraction`` as the classes were built before they were doubled."""
    return {k: Fraction(v, 2) for k, v in doubled.items()}


def _reference_degree_one_chern(n, i):
    return _fraction_class(inc.degree_one_chern(n, i))


def _reference_half_bundle_class(n, swap_first_two=False):
    return _fraction_class(inc.half_bundle_class(n, swap_first_two=swap_first_two))


def _reference_end_divisor_rewrite(n):
    """``end_divisor_rewrite`` on ``Fraction`` classes, as before doubling."""
    _vadd, _vec = _reference_vadd, inc._vec
    lhs = _reference_half_bundle_class(n)
    end = _reference_degree_one_chern(n, n - 1)
    weight = inc._canonical((lhs.get("F", 0) - 1) / end["F"])
    rhs = _vadd(_vec(F=1), end, weight)
    rhs = _vadd(rhs, _vec(a1=1), -1)
    return {"ok": lhs == rhs, "diff": _vadd(lhs, rhs, -1), "weight": weight}


def _reference_bundle_algebra_verify(n):
    """``bundle_algebra_verify`` as it rebuilt each running vector per step on
    ``Fraction`` classes, reading ``degree_one_chern`` and
    ``half_bundle_class`` through the module so a patch reaches them."""
    _vadd, _vec = _reference_vadd, inc._vec
    res = {}
    d = _vadd(inc.adjusted_bundle_from_definition(n), inc.adjusted_bundle(n), -1)
    res["adjusted-direct"] = {"ok": not d, "diff": d}
    total = {}
    for i in range(1, n - 1):
        total = _vadd(total, _reference_degree_one_chern(n, i))
    want = {"F": Fraction(n - 2, 2), "a1": Fraction(-(n - 2), 2), "a2": Fraction(-(n - 2), 2)}
    for j in range(3, n + 1):
        if n != 4:
            want[f"a{j}"] = Fraction(-(n - 4), 2)
    res["degree-one-sum"] = {"ok": total == want, "diff": _vadd(total, want, -1)}
    lhs = {}
    for i in range(1, n - 1):
        lhs = _vadd(lhs, _vec(**{f"muSm{i}": 1}))
        arc = _vec(**{f"E{j}": 1 for j in range(1, i + 1)})
        arc = _vadd(arc, _vec(**{f"Eb{j}": 1 for j in range(i + 1, n)}))
        lhs = _vadd(lhs, arc, -1)
    rhs = {}
    for i in range(1, n - 1):
        rhs = _vadd(rhs, _vec(**{f"muSm{i}": 1}))
    rhs = _vadd(rhs, _vec(**{f"E{j}": n - 1 - j for j in range(1, n)}), -1)
    rhs = _vadd(rhs, _vec(**{f"Eb{j}": j - 1 for j in range(1, n)}), -1)
    res["pullback-sum"] = {"ok": lhs == rhs, "diff": _vadd(lhs, rhs, -1)}
    coll = {}
    m = _reference_half_bundle_class(n)
    coll = _vadd(coll, {f"mu:{k}": v for k, v in m.items()})
    coll = _vadd(coll, _vec(**inc.half_bundle_adjustment_coeffs(n)), -1)
    coll = _vadd(coll, _vec(**{f"E{j}": 1 for j in range(1, n)}), -1)
    coll = _vadd(coll, _vec(**{f"Eb{j}": 1 for j in range(1, n)}), -1)
    for i in range(1, n - 1):
        chern = {f"mu:{k}": v for k, v in _reference_degree_one_chern(n, i).items()}
        arc = _vadd(
            _vec(**{f"E{j}": 1 for j in range(1, i + 1)}),
            _vec(**{f"Eb{j}": 1 for j in range(i + 1, n)}),
        )
        coll = _vadd(coll, _vadd(chern, arc, -1), -1)
    want4 = _vec(**{"mu:a2": 1})
    want4 = _vadd(want4, _vec(**{f"E{j}": 1 for j in range(2, n)}), -1)
    want4 = _vadd(want4, _vec(**{f"Eb{j}": j - 2 for j in range(1, n)}))
    res["kernel-collapse"] = {"ok": coll == want4, "diff": _vadd(coll, want4, -1)}
    kk = _vadd(inc.adjusted_bundle_from_definition(n), _vec(T=1), -(n - 2))
    kk = _vadd(kk, _vec(**{f"E{j}": 1 for j in range(1, n)}), -1)
    kk = _vadd(kk, _vec(**{f"Eb{j}": 1 for j in range(1, n)}), -1)
    want5 = inc.kernel_bundle(n)
    res["kernel-bundle"] = {"ok": kk == want5, "diff": _vadd(kk, want5, -1)}
    res["end-divisor-rewrite"] = _reference_end_divisor_rewrite(n)
    res["ok"] = all(v["ok"] for k, v in res.items() if k != "ok")
    return res


def _typed_results(res):
    """Each identity's ``ok`` and its ``diff`` in dict order, with coefficient types."""
    return {k: v if k == "ok" else (v["ok"], [(s, type(c), c) for s, c in v["diff"].items()])
            for k, v in res.items()}


@pytest.mark.parametrize("n", [*range(4, 41), 64])
def test_bundle_algebra_matches_the_copying_reference(n):
    assert _typed_results(bundle_algebra_verify(n)) == _typed_results(_reference_bundle_algebra_verify(n))


@pytest.mark.parametrize("n", [5, 6, 9, 17, 40])
def test_bundle_algebra_reports_the_reference_diff(n, monkeypatch):
    chern = inc.degree_one_chern

    def shifted(n, i):
        # twice the shift the class took before doubling: a3 += 1, F -= 1/3
        co = chern(n, i)
        if i == 2:
            co["a3"] += 2
            co["F"] -= Fraction(2, 3)
        return co

    monkeypatch.setattr(inc, "degree_one_chern", shifted)
    got = _typed_results(bundle_algebra_verify(n))
    assert got == _typed_results(_reference_bundle_algebra_verify(n))
    assert got["ok"] is False
    assert got["degree-one-sum"][1] and got["kernel-collapse"][1]


@pytest.mark.parametrize("n", [5, 6, 9, 17, 40])
def test_bundle_algebra_diff_lists_a_returning_key_last(n, monkeypatch):
    # in the collapse, mu:a3 cancels at i = n-4 and comes back at i = n-3, so it
    # is re-inserted after mu:a_n, which never cancels; a scheme that keeps a
    # cancelled entry in its place would list mu:a3 first
    chern = inc.degree_one_chern

    def shifted(n, i):
        co = chern(n, i)
        if i == n - 2:
            co["a3"] += 2
            co[f"a{n}"] += 2
        return co

    monkeypatch.setattr(inc, "degree_one_chern", shifted)
    res = bundle_algebra_verify(n)
    assert list(res["kernel-collapse"]["diff"].items()) == [(f"mu:a{n}", -1), ("mu:a3", -1)]
    assert _typed_results(res) == _typed_results(_reference_bundle_algebra_verify(n))


def test_kernel_bundle_n5():
    assert kernel_bundle(5) == {
        "E3": Fraction(1), "Eb3": Fraction(1), "E4": Fraction(2), "Eb4": Fraction(2)
    }


def test_collapse_coefficient_n7():
    # barred coefficient at position 1 inside the collapsed kernel is -1
    res = bundle_algebra_verify(7)
    assert res["kernel-collapse"]["ok"]


def test_pullback_sum_profile_n4():
    # oracle: enumerate the per-divisor subtractions directly
    n = 4
    counts_e = {j: 0 for j in range(1, n)}
    counts_eb = {j: 0 for j in range(1, n)}
    for i in range(1, n - 1):
        for j in range(1, i + 1):
            counts_e[j] += 1
        for j in range(i + 1, n):
            counts_eb[j] += 1
    assert [counts_e[j] for j in range(1, n)] == [2, 1, 0]
    assert counts_eb == {1: 0, 2: 1, 3: 2}
    assert bundle_algebra_verify(4)["pullback-sum"]["ok"]


def test_rr_threefold():
    assert rr_threefold({"a3": 0, "a2c1": -4, "ac": 0, "c1c2": 24}) == 0
    assert rr_threefold({"a3": 0, "a2c1": 0, "ac": 0, "c1c2": 24}) == 1
    assert rr_threefold({"a3": 0, "a2c1": -4, "ac": 0, "c1c2": 48}) == 1


@pytest.mark.parametrize("n", [4, 6, 8])
def test_pencil_ledgers(n):
    reg = default_registry()
    res = nonvan_ledgers(Model(n).table, reg)
    assert res["tec_ok"] and res["rest_ok"]
    assert all(v == 0 for v in res["ledgers"].values())
    assert res["tec_end_coeff"] == n - 4
    assert res["rest_arc_coeff"] == n - 3


def test_pencil_ledger_example_n6():
    reg = default_registry()
    res = nonvan_ledgers(Model(6).table, reg)
    assert res["ledgers"][2] == 0


def test_pencil_ledger_coeffs_fail_on_a_wrong_half_bundle(monkeypatch):
    # the weights are solved from half_bundle_class, not copied from n-4, n-3
    import dsolid.incidence as inc

    n = 7
    ctx = CheckContext(registry=default_registry())

    def coeffs():
        [rec] = [r for r in check_pencil_ledgers(n, ctx) if r.id == "incidence.pencil-ledgers.coeffs"]
        return rec.status, rec.computed

    assert coeffs() == ("pass", (n - 4, n - 3))
    real = inc.half_bundle_class  # twice the class: F + 2 shifts the class by F
    monkeypatch.setattr(inc, "half_bundle_class", lambda n: {**real(n), "F": real(n)["F"] + 2})
    assert coeffs() == ("fail", (n - 2, n - 1))


def _drop_end_neighbor(cycle, k):
    return cycle[:k - 1] + cycle[k:]


def _front_end_neighbor(cycle, k):
    return [cycle[k - 1]] + cycle[:k - 1] + cycle[k:]


@pytest.mark.parametrize("mutate", [_drop_end_neighbor, _front_end_neighbor])
def test_pencil_ledgers_fail_on_a_wrong_fiber_cycle(mutate, monkeypatch):
    # the ledger's neighbour count is read from the fiber cycle, not a literal 1
    from dsolid.incidence import IncidenceComplex

    n = 7
    ctx = CheckContext(registry=default_registry())
    ctx.model(n)  # the elimination trace reads the true cycle

    def status():
        [rec] = [r for r in check_pencil_ledgers(n, ctx) if r.id == "incidence.pencil-ledgers"]
        return rec.status

    assert status() == "pass"
    real = IncidenceComplex.fiber_cycle

    def mutated(self, i):
        cycle = real(self, i)
        return mutate(cycle, cycle.index(("Cb", i, self.n - 1)))

    monkeypatch.setattr(IncidenceComplex, "fiber_cycle", mutated)
    assert status() == "fail"


def test_irreducibility_guard():
    res5 = irreducibility_guard(5)
    assert res5["phi_half"] == -2 and res5["ok"]
    assert res5["phi_degree_one"][3] == 0
    assert irreducibility_guard(7)["phi_half_swapped"] == 2


# -- the doubled classes against the Fraction classes they replaced -------------


def _typed(x):
    """``x`` with every dict in key order and every leaf with its type."""
    if isinstance(x, dict):
        return [(k, _typed(v)) for k, v in x.items()]
    return type(x), x


def _reference_irreducibility_guard(n):
    """``irreducibility_guard`` on ``Fraction`` classes, as before doubling."""
    def phi(co):
        return 2 * (co.get("a1", Fraction(0)) - co.get("a2", Fraction(0)))

    deg_one = {i: phi(_reference_degree_one_chern(n, i)) for i in range(1, n)}
    out = {
        "phi_degree_one": {i: int(v) for i, v in deg_one.items()},
        "phi_half": int(phi(_reference_half_bundle_class(n))),
        "phi_half_swapped": int(phi(_reference_half_bundle_class(n, swap_first_two=True))),
    }
    out["ok"] = (
        all(v == 0 for v in deg_one.values())
        and out["phi_half"] == -2
        and out["phi_half_swapped"] == 2
    )
    return out


def _reference_nonvan_ledgers(table, registry):
    """``nonvan_ledgers`` with its chains of copying adds, on ``Fraction`` classes."""
    _vadd, _vec = _reference_vadd, inc._vec
    cx = table.complex
    n = cx.n
    registry.consume("anchor.deg-one-pairings", "pencil-ledgers")
    registry.consume("rank.h0-half-bundle-on-deg-one", "pencil-ledgers")
    rewrite = _reference_end_divisor_rewrite(n)
    weight = rewrite["weight"]
    rest_ok = True
    ledger_values = {}
    for i in range(1, n - 1):
        rest9 = _vec(**{f"Cb{j}": 1 for j in range(i + 1, n)})
        rest9 = _vadd(rest9, _vec(**{f"C{j}": n - 3 for j in range(1, i + 1)}))
        rest9 = _vadd(rest9, _vec(e1p=1), -1)
        asm = _vadd(
            _vec(**{f"C{j}": 1 for j in range(1, i + 1)}),
            _vec(**{f"Cb{j}": 1 for j in range(i + 1, n)}),
        )
        asm = _vadd(asm, _vec(**{f"C{j}": 1 for j in range(1, i + 1)}), weight)
        asm = _vadd(asm, _vec(e1p=1), -1)
        if rest9 != asm:
            rest_ok = False
        lift = _vadd(rest9, _vec(Dbi=1))
        subtr = _vec(**{f"C{j}": inc.fixed_multiplicity(n, j) for j in range(1, i + 1)})
        rest11 = _vadd(lift, subtr, -1)
        want = _vec(**{f"C{j}": j - 2 for j in range(3, i + 1)})
        want = _vadd(want, _vec(Dbi=1))
        want = _vadd(want, _vec(**{f"Cb{j}": 1 for j in range(i + 1, n)}))
        want = _vadd(want, _vec(e1p=1), -1)
        if rest11 != want:
            rest_ok = False
        end = ("Cb", i, n - 1)
        self_int = table.value(f"Eb{n-1}", end)
        cycle = cx.fiber_cycle(i)
        k = cycle.index(end)
        moving = {("Db", i)} | {("Cb", i, j) for j in range(i + 1, n - 1)}
        ledger = self_int + len({cycle[k - 1], cycle[(k + 1) % len(cycle)]} & moving)
        ledger_values[i] = ledger
        if ledger != 0:
            rest_ok = False
    return {
        "tec_ok": rewrite["ok"],
        "rest_ok": rest_ok,
        "ledgers": ledger_values,
        "tec_end_coeff": weight,
        "rest_arc_coeff": asm.get("C1", 0),
    }


_DOUBLED_RANGE = [*range(4, 41), 64]


@pytest.mark.parametrize("n", _DOUBLED_RANGE)
def test_end_divisor_rewrite_matches_the_fraction_reference(n):
    assert _typed(inc.end_divisor_rewrite(n)) == _typed(_reference_end_divisor_rewrite(n))


@pytest.mark.parametrize("n", _DOUBLED_RANGE)
def test_irreducibility_guard_matches_the_fraction_reference(n):
    assert _typed(irreducibility_guard(n)) == _typed(_reference_irreducibility_guard(n))


@pytest.mark.parametrize("n", _DOUBLED_RANGE)
def test_pencil_ledgers_match_the_fraction_reference(n):
    table = Model(n).table
    got = nonvan_ledgers(table, default_registry())
    assert _typed(got) == _typed(_reference_nonvan_ledgers(table, default_registry()))


def _fractions_built(monkeypatch, fn):
    """``fn()`` and the number of ``Fraction.__new__`` calls it made."""
    calls = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", counting)
        out = fn()
    return out, len(calls)


@pytest.mark.parametrize("n", range(4, 41))
def test_bundle_identities_build_no_fraction(n, monkeypatch):
    table = Model(n).table
    for fn in (lambda: bundle_algebra_verify(n), lambda: irreducibility_guard(n),
               lambda: nonvan_ledgers(table, default_registry())):
        res, built = _fractions_built(monkeypatch, fn)
        assert built == 0
        assert res.get("ok", res.get("rest_ok"))


@pytest.mark.parametrize("n", [5, 9, 17])
def test_a_half_integral_shift_builds_fractions_and_a_diff(n, monkeypatch):
    # positive control for the counter above: the doubled class of the second
    # degree-one divisor gains 1 on a3, i.e. the class gains a3 / 2
    chern = inc.degree_one_chern

    def shifted(n, i):
        co = chern(n, i)
        if i == 2:
            co["a3"] += 1
        return co

    monkeypatch.setattr(inc, "degree_one_chern", shifted)
    res, built = _fractions_built(monkeypatch, lambda: bundle_algebra_verify(n))
    assert built > 0
    assert res["ok"] is False
    assert res["degree-one-sum"]["diff"] == {"a3": Fraction(1, 2)}
    assert res["kernel-collapse"]["diff"] == {"mu:a3": Fraction(-1, 2)}
    assert _typed_results(res) == _typed_results(_reference_bundle_algebra_verify(n))


# -- the solver: exact errors and a Fraction Gauss-Jordan reference -------------


def _reference_solve(unknowns, eqs):
    """Dense Gauss-Jordan over Q, the solver fraction-free elimination replaced."""
    from dsolid.incidence import CompletionError

    index = {u: k for k, u in enumerate(unknowns)}
    rows, labels = [], []
    for label, lhs, rhs in eqs:
        row = [Fraction(0)] * (len(unknowns) + 1)
        for u, c in lhs.items():
            row[index[u]] += c
        row[-1] = Fraction(rhs)
        rows.append(row)
        labels.append(label)
    m = len(unknowns)
    pivots = {}
    r = 0
    for col in range(m):
        piv = next((k for k in range(r, len(rows)) if rows[k][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        labels[r], labels[piv] = labels[piv], labels[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col] != 0:
                f = rows[k][col]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots[col] = r
        r += 1
    bad = [labels[k] for k in range(r, len(rows)) if rows[k][-1] != 0]
    if bad:
        raise CompletionError(f"inconsistent constraints: {bad}")
    free = [unknowns[c] for c in range(m) if c not in pivots]
    if free:
        raise CompletionError(f"under-determined completion; free unknowns: {free}")
    out = {}
    for col, rr in pivots.items():
        v = rows[rr][-1]
        if v.denominator != 1:
            raise CompletionError(f"non-integral solution for {unknowns[col]}: {v}")
        out[unknowns[col]] = int(v)
    return out


def _assert_solve_matches_reference(unknowns, eqs):
    from dsolid.incidence import CompletionError, _solve

    try:
        want = _reference_solve(unknowns, eqs)
    except CompletionError as exc:
        with pytest.raises(CompletionError, match=f"^{re.escape(str(exc))}$"):
            _solve(unknowns, eqs)
        return str(exc).split()[0]
    assert _solve(unknowns, eqs) == want
    return "solved"


@st.composite
def linear_systems(draw):
    k = draw(st.integers(1, 4))
    unknowns = [("E1", f"u{i}") for i in range(k)]
    eqs = []
    for i in range(draw(st.integers(0, 7))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        lhs = {u: c for u, c in zip(unknowns, coeffs) if c or draw(st.booleans())}
        eqs.append((f"eq{i}", lhs, draw(st.integers(-6, 6))))
    return unknowns, eqs


@settings(max_examples=300, deadline=None)
@given(system=linear_systems())
def test_solve_matches_reference_on_random_systems(system):
    _assert_solve_matches_reference(*system)


_nonzero = st.integers(-4, 4).filter(bool)


def _rhs(draw, target, lhs):
    """The right-hand side at an integer solution ``target``, sometimes off by a step."""
    return sum(c * target[u] for u, c in lhs.items()) + draw(st.sampled_from([0] * 7 + [1]))


def _target(draw, unknowns):
    return draw(st.fixed_dictionaries({u: st.integers(-3, 3) for u in unknowns}))


@st.composite
def swap_and_fill_systems(draw):
    """Row 0 misses column 0, so the pivot of column 0 is swapped up from row
    1; that pivot reaches the last column and row 2 does not, so eliminating
    column 0 from row 2 fills the last column in."""
    k = draw(st.integers(2, 5))
    us = [("E1", f"u{i}") for i in range(k)]
    first = {u: draw(_nonzero) for u in us[1:] if draw(st.booleans())}
    pivot = {us[0]: draw(_nonzero), us[-1]: draw(_nonzero)}
    filled = {us[0]: draw(_nonzero), **{u: draw(_nonzero) for u in us[1:-1] if draw(st.booleans())}}
    rows = [first, pivot, filled]
    rows += [{u: draw(_nonzero) for u in us if draw(st.booleans())}
             for _ in range(draw(st.integers(0, 4)))]
    target = _target(draw, us)
    return us, [(f"eq{i}", lhs, _rhs(draw, target, lhs)) for i, lhs in enumerate(rows)]


@st.composite
def cancelling_systems(draw):
    """Rows that are integer combinations of earlier rows cancel to zero on
    the left; their right-hand side cancels too, or is off by a small step."""
    k = draw(st.integers(1, 4))
    us = [("E1", f"u{i}") for i in range(k)]
    eqs, target = [], _target(draw, us)
    for i in range(draw(st.integers(1, 4))):
        lhs = {u: draw(_nonzero) for u in us if draw(st.booleans())}
        eqs.append((f"base{i}", lhs, _rhs(draw, target, lhs)))
    for i in range(draw(st.integers(1, 3))):
        a, b = draw(_nonzero), draw(st.integers(-3, 3))
        (_, lhs1, rhs1), (_, lhs2, rhs2) = draw(st.sampled_from(eqs)), draw(st.sampled_from(eqs))
        lhs = {u: a * lhs1.get(u, 0) + b * lhs2.get(u, 0) for u in us}
        rhs = a * rhs1 + b * rhs2 + draw(st.sampled_from([0, 0, 1, -2]))
        eqs.insert(draw(st.integers(0, len(eqs))), (f"comb{i}", lhs, rhs))
    return us, eqs


@st.composite
def late_fraction_systems(draw):
    """A triangular system whose right-hand sides are multiples of their own
    pivots, in a drawn row order: a value can fail to be an integer only
    through the columns back-substituted into it."""
    k = draw(st.integers(2, 4))
    us = [("E1", f"u{i}") for i in range(k)]
    eqs = []
    for j in range(k):
        d = draw(st.sampled_from([-4, -3, -2, 2, 3, 4]))
        lhs = {us[j]: d, **{u: draw(_nonzero) for u in us[j + 1:] if draw(st.booleans())}}
        eqs.append((f"row{j}", lhs, d * draw(st.integers(-5, 5))))
    return us, draw(st.permutations(eqs))


@settings(max_examples=200, deadline=None)
@given(system=swap_and_fill_systems())
def test_solve_matches_reference_with_swaps_and_fill_in(system):
    _assert_solve_matches_reference(*system)


@settings(max_examples=200, deadline=None)
@given(system=cancelling_systems())
def test_solve_matches_reference_with_cancelling_rows(system):
    _assert_solve_matches_reference(*system)


@settings(max_examples=200, deadline=None)
@given(system=late_fraction_systems())
@example(system=([("E1", "u0"), ("E1", "u1")],
                 [("row0", {("E1", "u0"): 2, ("E1", "u1"): 1}, 2), ("row1", {("E1", "u1"): 3}, 3)]))
def test_solve_matches_reference_on_late_fractions(system):
    from dsolid.incidence import CompletionError

    unknowns, eqs = system
    assert _assert_solve_matches_reference(unknowns, eqs) in ("solved", "non-integral")
    # the last column reads no other, so its value is always an integer
    try:
        _reference_solve(unknowns, eqs)
    except CompletionError as exc:
        assert repr(unknowns[-1]) not in str(exc)


def test_solve_reports_the_first_non_integral_unknown_after_an_integral_one():
    # u1 = 1/2 makes u0 = (3 - 2 u1) / 2 = 1 an integer again and u2 = u1
    # not: the error names u1, the first column whose value is not integral
    from dsolid.incidence import CompletionError, _solve

    u0, u1, u2 = ("E1", "u0"), ("E1", "u1"), ("E1", "u2")
    eqs = [("a", {u0: 2, u1: 2}, 3), ("b", {u1: 2}, 1), ("c", {u2: 1, u1: -1}, 0)]
    with pytest.raises(CompletionError, match=r"^non-integral solution for \('E1', 'u1'\): 1/2$"):
        _solve([u0, u1, u2], eqs)


def _captured_system(monkeypatch, cx, shuffle_seed=None):
    """The (unknowns, equations) solve_pairings hands to the solver."""
    import dsolid.incidence as inc

    seen = []
    real = inc._solve

    def spy(unknowns, eqs):
        seen.append((list(unknowns), list(eqs)))
        return real(unknowns, eqs)

    with monkeypatch.context() as mp:
        mp.setattr(inc, "_solve", spy)
        try:
            solve_pairings(pairing_system(cx), shuffle_seed=shuffle_seed)
        except inc.CompletionError:
            pass
    return seen[0]


@pytest.mark.parametrize("n", [4, 5, 7])
def test_solve_matches_reference_on_table_systems(monkeypatch, n):
    outcomes = []
    for seed in (None, 1, 2):
        outcomes.append(_assert_solve_matches_reference(*_captured_system(
            monkeypatch, Model(n).complex, seed)))
        bad = Model(n).complex
        bad.section_rhs["C1"] += 1
        outcomes.append(_assert_solve_matches_reference(*_captured_system(
            monkeypatch, bad, seed)))
    assert outcomes == ["solved", "inconsistent"] * 3


def test_solve_reports_non_integral_solution():
    from dsolid.incidence import CompletionError, _solve

    unknowns = [("E1", "s"), ("E1", "f")]
    eqs = [("sum", {("E1", "s"): 1, ("E1", "f"): 1}, 2), ("double", {("E1", "f"): 2}, 3)]
    with pytest.raises(CompletionError, match=r"^non-integral solution for \('E1', 's'\): 1/2$"):
        _solve(unknowns, eqs)


def test_solve_reports_inconsistent_labels_in_pivot_order():
    # the pivot for u1 is d, swapped with b: the clashing rows then read c, b
    from dsolid.incidence import CompletionError, _solve

    x, y = ("E1", "u0"), ("E1", "u1")
    eqs = [("a", {x: 1}, 1), ("b", {x: 1}, 2), ("c", {x: 1}, 3), ("d", {y: 1}, 1)]
    with pytest.raises(CompletionError, match=r"^inconsistent constraints: \['c', 'b'\]$"):
        _solve([x, y], eqs)

import copy
import dataclasses
import json
from collections import Counter
from collections.abc import Mapping
from types import MappingProxyType

import pytest

from dsolid import elimination, scroll
from dsolid.axioms import AxiomRegistry, MissingAxiom, default_registry
from dsolid.checks import (
    CheckContext,
    Model,
    check_cone_degree,
    check_elimination_ladder,
    check_elimination_odp,
    check_elimination_run,
)
from dsolid.elimination import (
    base_curve_scan,
    blow_up_curves,
    twistor_line_degree,
    _initial_state,
)
from dsolid.incidence import adjusted_bundle
from dsolid.report import RunConfig, run


def _named(state, comps):
    """A scan's components, node ids replaced by their curves."""
    return [frozenset(state.nodes[k] for k in comp) for comp in comps]


def _degree(state, curve):
    return state.degrees[state.nodes.index(curve)]


def _ids(state, curves):
    return frozenset(state.nodes.index(c) for c in curves)


def test_stage1_scan_n7():
    state = _initial_state(Model(7).table)
    comps = _named(state, base_curve_scan(state))
    expected = set()
    for i in range(3, 6):
        expected.add(frozenset(("C", i, j) for j in range(3, i + 1)))
        expected.add(frozenset(("Cb", i, j) for j in range(3, i + 1)))
    expected.add(frozenset([("C", 6, 1)]))
    expected.add(frozenset([("Cb", 6, 1)]))
    assert set(comps) == expected


def test_stage1_scan_n4_only_isolated_pair():
    state = _initial_state(Model(4).table)
    comps = _named(state, base_curve_scan(state))
    assert set(comps) == {frozenset([("C", 3, 1)]), frozenset([("Cb", 3, 1)])}


def test_stage2_scan_n7():
    state = _initial_state(Model(7).table)
    blow_up_curves(state, frozenset().union(*base_curve_scan(state)))
    # the second scan (before the stage-3 blowup) consists of the shortened
    # chains plus the isolated seeds
    comps = set(_named(state, base_curve_scan(state)))
    expected = set()
    for i in range(4, 6):
        expected.add(frozenset(("C", i, j) for j in range(4, i + 1)))
        expected.add(frozenset(("Cb", i, j) for j in range(4, i + 1)))
    expected.add(frozenset([("C", 6, 1)]))
    expected.add(frozenset([("Cb", 6, 1)]))
    assert comps == expected


def test_stage2_degrees_n6():
    trace = Model(6).trace
    after = trace.stage2_degrees
    for i in range(4, 5):
        assert after[("C", i, 3)] == 1
        assert after[("C", i, i)] == -1
    assert after[("C", 5, 1)] == 4 - 6


def _times_blown(trace, curve):
    """How many stages blew up ``curve``: a diagonal C[i,i] or the seed C[n-1,1]."""
    n = len(trace.component_counts) + 3
    if curve == ("C", curve[1], curve[1]):
        return len(trace.diagonal_stages[curve[1]])
    assert curve == ("C", n - 1, 1)
    return len(trace.seed_stages)


@pytest.mark.parametrize("n", range(4, 13))
def test_termination_and_counts(n):
    trace = Model(n).trace
    assert trace.seed_stages[-1] == n - 2
    assert len(trace.component_counts) == n - 3
    counts = [*trace.component_counts, 0]
    assert all(counts[k] - counts[k + 1] == 2 for k in range(len(counts) - 1))
    assert trace.multiplicity_one
    assert trace.final_scan == ()
    # blowup tallies: the longest chain family is hit n-4 times, the seeds n-3
    if n >= 6:
        assert _times_blown(trace, ("C", n - 2, n - 2)) == n - 4
    assert _times_blown(trace, ("C", n - 1, 1)) == n - 3


def test_termination_fails_when_the_final_scan_is_not_empty(monkeypatch):
    # the trace keeps the scan after the last stage, so a leftover component
    # fails the termination record, and the monotone count, which ends on
    # the final scan's size, with it; the other two stand
    real = elimination.base_curve_scan

    def scan_leaving_the_seed(state):
        comps = real(state)
        if state.stage == state.n - 2:
            return comps or [_ids(state, [("C", state.n - 1, 1)])]
        return comps

    config = RunConfig(ns=(6,), filter="elimination.run", seed=42)
    assert [r.status for r in run(config).checks] == ["pass"] * 4
    monkeypatch.setattr(elimination, "base_curve_scan", scan_leaving_the_seed)
    recs = run(config).checks
    assert [(r.id, r.status) for r in recs] == [
        ("elimination.termination", "fail"),
        ("elimination.monotone", "fail"),
        ("elimination.family-counts", "pass"),
        ("elimination.multiplicity-one", "pass"),
    ]
    assert recs[0].computed is False
    assert recs[0].detail == "scan=[[('C', 5, 1)]]"


def _with_a_deeper_chain(initial_state):
    """``initial_state`` with C[5,5] one degree lower."""

    def state_with_a_deeper_chain(table):
        state = initial_state(table)
        state.degrees[state.nodes.index(("C", 5, 5))] -= 1
        return state

    return state_with_a_deeper_chain


def test_multiplicity_one_fails_on_a_chain_curve_below_minus_one(monkeypatch):
    # C[5,5] one lower bottoms its stage-2 component out at -2, and the
    # chain no longer clears by the last stage
    config = RunConfig(ns=(7,), filter="elimination.run", seed=42)
    assert [r.status for r in run(config).checks] == ["pass"] * 4
    monkeypatch.setattr(elimination, "_initial_state", _with_a_deeper_chain(elimination._initial_state))
    recs = {r.id: r for r in run(config).checks}
    assert recs["elimination.multiplicity-one"].status == "fail"
    term = recs["elimination.termination"]
    assert term.status == "fail"
    assert term.detail == (
        "scan=[[('C', 5, 2), ('C', 5, 3), ('C', 5, 4), ('C', 5, 5)], [('Cb', 5, 6), ('Db', 5)]]"
    )


@pytest.mark.parametrize("n", [5, 8, 12, 20, 40])
def test_scanned_minima_replayed_by_hand(n):
    # oracle for multiplicity-one: replay the stages and read each scanned
    # component's degrees before its blowup
    state = _initial_state(Model(n).table)
    seeds = {("C", n - 1, 1), ("Cb", n - 1, 1)}
    for stage in range(2, n - 1):
        ids = base_curve_scan(state)
        comps = _named(state, ids)
        seeded = [comp for comp in comps if comp & seeds]
        assert len(seeded) == 2 and set(seeded) == {frozenset([seed]) for seed in seeds}
        for seed in seeds:
            assert _degree(state, seed) == stage + 1 - n
        for comp in comps:
            if comp not in seeded:
                assert min(_degree(state, c) for c in comp) == -1, (stage, sorted(comp))
        blow_up_curves(state, frozenset().union(*ids))
    assert base_curve_scan(state) == []


def test_odp_census_fails_on_a_complex_missing_a_double_point(monkeypatch):
    # the initial count is read off the complex, not the closed form 2(n-1)
    real = elimination.run_elimination

    def run_without_the_first_point(table):
        cx = copy.copy(table.complex)
        cx.odps = cx.odps[1:]
        return real(dataclasses.replace(table, complex=cx))

    config = RunConfig(ns=(7,), filter="elimination.odp", seed=42)
    assert [r.status for r in run(config).checks] == ["pass"] * 2
    monkeypatch.setattr(elimination, "run_elimination", run_without_the_first_point)
    census, thresholds = run(config).checks
    assert (census.id, census.status) == ("elimination.odp-census", "fail")
    assert census.computed["initial"] == 11
    assert thresholds.status == "pass"


def test_stage2_fails_when_the_trace_has_no_stages(monkeypatch):
    # every per-stage field empty: no stage 2 degrees, so every one reads 0
    real = elimination.run_elimination
    empty = MappingProxyType({})

    def run_without_stages(table):
        return dataclasses.replace(
            real(table), component_counts=(), family_counts=empty, seed_stages=(),
            diagonal_stages=empty, stage2_degrees=empty,
        )

    monkeypatch.setattr(elimination, "run_elimination", run_without_stages)
    [rec] = run(RunConfig(ns=(6,), filter="elimination.stage2", seed=42)).checks
    assert (rec.id, rec.status) == ("elimination.stage2", "fail")
    assert rec.computed == {name: 0 for name in rec.expected}


@pytest.mark.parametrize("n,stop_stage", [(4, 2), (5, 3)])
def test_small_n_stop_stages(n, stop_stage):
    trace = Model(n).trace
    assert len(trace.component_counts) == stop_stage - 1
    assert trace.seed_stages[-1] == stop_stage


def test_ladder_components_n8():
    model = Model(8)
    # the seed and its conjugate are centers at stages 2..6, one ladder
    # component each; the trace follows the seed, the Curve-keyed machine both
    assert model.trace.seed_stages == (2, 3, 4, 5, 6)
    stages = _curve_keyed_stages(model.table, {})[1]
    for seed in (("C", 7, 1), ("Cb", 7, 1)):
        assert [stage for stage, (_, centers) in enumerate(stages, 2) if seed in centers] == [2, 3, 4, 5, 6]
    [rec] = check_elimination_ladder(8, CheckContext(registry=default_registry()))
    assert rec.status == "pass"
    assert rec.computed == {"count": 5, "sections": 4}
    assert rec.detail == "types=" + str([f"ruled-degree-{7 - k}" for k in range(2, 7)])


def test_ladder_requires_type_axiom():
    for check in (check_elimination_run, check_elimination_ladder):
        with pytest.raises(MissingAxiom):
            check(6, CheckContext(registry=AxiomRegistry()))


@pytest.mark.parametrize("n", range(4, 13))
def test_odp_census(n):
    trace = Model(n).trace
    census = trace.odp_census
    assert census["initial"] == 2 * (n - 1)
    for stage in range(2, n - 1):
        # oracle: enumerate the stated index ranges for the chain nodes
        want = 0
        for i in range(stage + 2, n - 1):
            for j in range(stage + 1, i):
                want += 1
        assert census[f"stage{stage}"] == 2 * want, (stage, census)
    assert (census.get("stage2", 0) > 0) == (n > 5)
    assert (census.get("stage3", 0) > 0) == (n > 6)


def test_the_trace_is_read_only():
    trace = Model(6).trace
    with pytest.raises(TypeError):
        trace.odp_census["stage2"] = 0
    with pytest.raises(TypeError):
        trace.stage2_degrees[("C", 5, 1)] = 0
    for stage_lists in (trace.family_counts, trace.diagonal_stages):
        with pytest.raises(TypeError):
            stage_lists[4] = ()
        with pytest.raises(TypeError):
            stage_lists[4][0] = 0
    for counts in (trace.component_counts, trace.seed_stages):
        with pytest.raises(TypeError):
            counts[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.seed_stages = ()
    # the records built from the read-only census still serialise as plain dicts
    [census, _] = check_elimination_odp(6, CheckContext(registry=default_registry()))
    assert json.loads(json.dumps(census.to_json()))["computed"] == dict(trace.odp_census)


def test_odp_example_n7_stage2():
    # quadruple points at ranges 4 <= i <= 5, 3 <= j <= i-1: three per half
    trace = Model(7).trace
    census = trace.odp_census
    pairs = [(i, j) for i in range(4, 6) for j in range(3, i)]
    assert len(pairs) == 3
    assert census["stage2"] == 2 * len(pairs)


def _line(n, i):
    model = Model(n)
    return twistor_line_degree(model.table, model.trace, i)


def test_twistor_line_degrees():
    d = _line(9, 5)
    assert d.initial == 8 and d.final == 2
    assert d.decrement_stages == (2, 3, 4)
    d = _line(6, 2)
    assert d.initial == 2 and d.decrement_stages == () and d.final == 2


def test_twistor_first_line_flagged_value():
    d = _line(4, 1)
    assert d.initial == 2  # computed from the table
    assert d.formula_value == 0  # the closed form misses the first line
    assert d.final == 2


def test_twistor_line_rejects_end_index():
    with pytest.raises(ValueError):
        _line(6, 5)


@pytest.mark.parametrize("n", range(4, 13))
def test_decrement_stages_match_machine(n):
    # the stages come from the trace; the diagonal C[i,i] is a center at stages 2..i-1
    model = Model(n)
    for i in range(1, n - 1):
        d = twistor_line_degree(model.table, model.trace, i)
        assert d.decrement_stages == tuple(range(2, i))


def test_cone_degree_fails_on_a_wrong_side(monkeypatch):
    real = scroll.double_curve_degree

    def off_on_second_side(inst):
        side_n, side_n1 = real(inst)
        return side_n, side_n1 + 2

    ctx = CheckContext(registry=default_registry(), seed=42)
    assert [r.status for r in check_cone_degree(5, ctx)] == ["pass"]
    monkeypatch.setattr(scroll, "double_curve_degree", off_on_second_side)
    [rec] = check_cone_degree(5, ctx)
    assert rec.status == "fail" and rec.computed == (6, 8)


@pytest.mark.parametrize("n", [5, 8, 11])
def test_ladder_degree_sequence(n):
    # the isolated seed's degree climbs by one per stage: (4-n) + (stage-2)
    # after each blowup, replayed by hand since the trace keeps stage 2's only
    model = Model(n)
    state = _initial_state(model.table)
    seed = ("C", n - 1, 1)
    for stage in range(2, n - 1):
        blow_up_curves(state, frozenset().union(*base_curve_scan(state)))
        assert _degree(state, seed) == (4 - n) + (stage - 2)
    assert _degree(state, seed) == 0
    trace = model.trace
    assert len(trace.component_counts) == n - 3
    assert trace.stage2_degrees[seed] == 4 - n


# -- the Curve-keyed machine the dense-id one replaced, kept as an oracle ------


@dataclasses.dataclass
class _CurveState:
    n: int
    stage: int = 1
    degrees: dict = dataclasses.field(default_factory=dict)
    adjacency: dict = dataclasses.field(default_factory=dict)
    # per curve: (tracking surface, (half, home), self-intersection)
    facts: dict = dataclasses.field(default_factory=dict)
    odp_census: dict = dataclasses.field(default_factory=dict)


def _curve_initial_state(table, shifts):
    cx = table.complex
    n = cx.n
    state = _CurveState(n=n)
    l1 = adjusted_bundle(n)
    for i in range(1, n):
        nodes = cx.fiber_cycle(i)
        m = len(nodes)
        for nd in nodes:
            state.degrees[nd] = table.degree(l1, nd) + shifts.get(nd, 0)
            state.adjacency[nd] = set()
            home, half = cx.home(nd), cx.half(nd)
            surface = home if nd[1:] == (n - 1, 1) else half
            self_int = table.value(home, nd) if surface.startswith(("Sm", "Sp")) else -1
            state.facts[nd] = (surface, (half, home), self_int)
        for k in range(m):
            a, b = nodes[k], nodes[(k + 1) % m]
            state.adjacency[a].add(b)
            state.adjacency[b].add(a)
    state.odp_census["initial"] = len(cx.odps)
    return state


@pytest.mark.parametrize("n", [*range(4, 41), 64])
def test_initial_state_matches_the_per_curve_facts(n):
    # surface, sides and squares are read from the complex's per-component and
    # per-fiber names; mapped back to names, they are the per-curve rule's
    table = Model(n).table
    state = _initial_state(table)
    facts = _curve_initial_state(table, {}).facts
    assert state.nodes == list(facts)
    name = {}  # surface id -> surface name, one to one
    for k, nd in enumerate(state.nodes):
        for key, want in zip(state.sides[k], facts[nd][1]):
            assert name.setdefault(key, want) == want, nd
    assert len(set(name.values())) == len(name)
    got = {nd: (name[state.surface[k]], (name[state.sides[k][0]], name[state.sides[k][1]]),
                state.self_int[k])
           for k, nd in enumerate(state.nodes)}
    assert got == facts


def _curve_scan(state):
    degrees, adjacency = state.degrees, state.adjacency
    comps, seen = [], set()
    for nd, d in degrees.items():
        if d >= 0 or nd in seen:
            continue
        comp, stack = {nd}, [nd]
        while stack:
            for nb in adjacency[stack.pop()]:
                if nb not in comp and degrees[nb] <= 0:
                    comp.add(nb)
                    stack.append(nb)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def _curve_blow_up(state, centers):
    stage = state.stage + 1
    facts = state.facts
    decrements, successor_deg = {}, {}
    inner_total = 0
    for c in centers:
        inner = 0
        for nb in state.adjacency[c]:
            if nb in centers:
                inner += 1
            else:
                decrements[nb] = decrements.get(nb, 0) + 1
        inner_total += inner
        successor_deg[c] = state.degrees[c] - facts[c][2] - inner
    for nd, dv in decrements.items():
        state.degrees[nd] -= dv
    for c, v in successor_deg.items():
        state.degrees[c] = v
    for c in centers:
        surf = facts[c][0]
        for nb in list(state.adjacency[c]):
            if surf not in facts[nb][1]:
                state.adjacency[c].discard(nb)
                state.adjacency[nb].discard(c)
    state.stage = stage
    state.odp_census[f"stage{stage}"] = inner_total // 2


def _curve_keyed_stages(table, shifts):
    """Run the Curve-keyed machine, each tracked curve's initial degree moved
    by ``shifts``: its final state, each stage's named scan and centers,
    stage 2's degrees, whether every seed-free component bottomed out at -1,
    and the scan after the last stage."""
    state = _curve_initial_state(table, shifts)
    n = state.n
    seeds = (("C", n - 1, 1), ("Cb", n - 1, 1))
    stages, after, mult_one = [], {}, True
    for stage in range(2, n - 1):
        comps = _curve_scan(state)
        mult_one = mult_one and all(
            min(state.degrees[c] for c in comp) == -1 for comp in comps if comp.isdisjoint(seeds)
        )
        centers = frozenset().union(*comps)
        _curve_blow_up(state, centers)
        if stage == 2:
            after = {k: v for k, v in state.degrees.items() if v != 0 or k in centers}
        stages.append((tuple(comps), centers))
    return state, stages, after, mult_one, tuple(_curve_scan(state))


def _curve_keyed_trace(table, shifts):
    """The trace counted from the Curve-keyed machine's named stages, as the
    checks counted them when the trace kept those names."""
    state, stages, after, mult_one, final = _curve_keyed_stages(table, shifts)
    n = state.n

    def blown(curve):
        return tuple(stage for stage, (_, centers) in enumerate(stages, 2) if curve in centers)

    families = {}
    for _, centers in stages:
        for i, k in Counter(c[1] for c in centers if c[0] == "C").items():
            families.setdefault(i, []).append(k)
    return elimination.EliminationTrace(
        component_counts=tuple(len(comps) for comps, _ in stages),
        family_counts=MappingProxyType({i: tuple(families[i]) for i in sorted(families)}),
        seed_stages=blown(("C", n - 1, 1)),
        diagonal_stages=MappingProxyType({i: blown(("C", i, i)) for i in range(1, n - 1)}),
        stage2_degrees=MappingProxyType(after),
        odp_census=MappingProxyType(state.odp_census),
        multiplicity_one=mult_one,
        final_scan=final,
    )


def _assert_same_trace(got, want):
    # tuple equality keeps the component order; the maps' items are compared
    # in order as well, which mapping equality alone would not
    assert got == want
    for f in dataclasses.fields(got):
        if isinstance(getattr(got, f.name), Mapping):
            assert list(getattr(got, f.name).items()) == list(getattr(want, f.name).items()), f.name


@pytest.mark.parametrize("n", range(4, 41))
def test_trace_matches_the_curve_keyed_machine(n):
    table = Model(n).table
    _assert_same_trace(elimination.run_elimination(table), _curve_keyed_trace(table, {}))


def test_deeper_chain_trace_matches_the_curve_keyed_machine(monkeypatch):
    # the multiplicity-one mutation's table: both machines must fail alike
    table = Model(7).table
    want = _curve_keyed_trace(table, {("C", 5, 5): -1})
    assert not want.multiplicity_one and want.final_scan
    monkeypatch.setattr(elimination, "_initial_state", _with_a_deeper_chain(elimination._initial_state))
    _assert_same_trace(elimination.run_elimination(table), want)


def _entries(x):
    """The container entries reachable from ``x``.  A curve name counts as one
    entry: it is what the trace names a curve by, not a set of curves."""
    if dataclasses.is_dataclass(x):
        return sum(_entries(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, Mapping):
        return sum(1 + _entries(k) + _entries(v) for k, v in x.items())
    if isinstance(x, tuple) and x and isinstance(x[0], str):
        return 0
    if isinstance(x, (tuple, list, set, frozenset)):
        return sum(1 + _entries(e) for e in x)
    return 0


def test_the_trace_holds_quadratically_many_entries():
    # per-stage sets of named curves would hold about 2n³/3 entries
    n = 64
    assert _entries(Model(n).trace) <= 4 * n * n

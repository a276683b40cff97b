import copy
import dataclasses
import json
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
    trace = Model(7).trace
    # the second scan (before the stage-3 blowup) consists of the shortened
    # chains plus the isolated seeds
    comps = set(trace.stages[1].components)
    expected = set()
    for i in range(4, 6):
        expected.add(frozenset(("C", i, j) for j in range(4, i + 1)))
        expected.add(frozenset(("Cb", i, j) for j in range(4, i + 1)))
    expected.add(frozenset([("C", 6, 1)]))
    expected.add(frozenset([("Cb", 6, 1)]))
    assert comps == expected


def test_stage2_degrees_n6():
    trace = Model(6).trace
    after = trace.stages[0].degrees_after
    for i in range(4, 5):
        assert after[("C", i, 3)] == 1
        assert after[("C", i, i)] == -1
    assert after[("C", 5, 1)] == 4 - 6


def _times_blown(trace, curve):
    return sum(curve in s.centers for s in trace.stages)


@pytest.mark.parametrize("n", range(4, 13))
def test_termination_and_counts(n):
    trace = Model(n).trace
    assert trace.stages[-1].stage == n - 2
    assert len(trace.stages) == n - 3
    counts = [len(s.components) for s in trace.stages] + [0]
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
    real = elimination.run_elimination

    def run_without_stages(table):
        return dataclasses.replace(real(table), stages=[])

    monkeypatch.setattr(elimination, "run_elimination", run_without_stages)
    [rec] = run(RunConfig(ns=(6,), filter="elimination.stage2", seed=42)).checks
    assert (rec.id, rec.status) == ("elimination.stage2", "fail")
    assert rec.computed.startswith("IndexError")


@pytest.mark.parametrize("n,stop_stage", [(4, 2), (5, 3)])
def test_small_n_stop_stages(n, stop_stage):
    trace = Model(n).trace
    assert trace.stages[-1].stage == stop_stage


def test_ladder_components_n8():
    trace = Model(8).trace
    # the seed and its conjugate are centers at stages 2..6, one ladder component each
    for seed in (("C", 7, 1), ("Cb", 7, 1)):
        assert [s.stage for s in trace.stages if seed in s.centers] == [2, 3, 4, 5, 6]
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
        trace.stages[0].degrees_after[("C", 5, 1)] = 0
    with pytest.raises(TypeError):
        trace.stages[0] = trace.stages[1]
    with pytest.raises(TypeError):
        trace.stages[0].components[0] = frozenset()
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.stages[0].centers = frozenset()
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
    assert [rec.stage for rec in trace.stages] == list(range(2, n - 1))
    assert trace.stages[0].degrees_after[seed] == 4 - n
    assert all(not rec.degrees_after for rec in trace.stages[1:])


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


def _curve_keyed_trace(table, shifts):
    """The trace as the Curve-keyed machine computed it, each tracked curve's
    initial degree moved by ``shifts``."""
    state = _curve_initial_state(table, shifts)
    n = state.n
    seeds = (("C", n - 1, 1), ("Cb", n - 1, 1))
    stages, mult_one = [], True
    for stage in range(2, n - 1):
        comps = _curve_scan(state)
        mult_one = mult_one and all(
            min(state.degrees[c] for c in comp) == -1 for comp in comps if comp.isdisjoint(seeds)
        )
        centers = frozenset().union(*comps)
        _curve_blow_up(state, centers)
        after = MappingProxyType({})
        if stage == 2:
            after = MappingProxyType({k: v for k, v in state.degrees.items() if v != 0 or k in centers})
        stages.append(elimination.StageRecord(stage, tuple(comps), centers, after))
    final = tuple(_curve_scan(state))
    return elimination.EliminationTrace(tuple(stages), MappingProxyType(state.odp_census), mult_one, final)


def _assert_same_trace(got, want):
    # tuple equality keeps the component order; the maps' items are compared
    # in order as well, which mapping equality alone would not
    assert got == want
    assert [list(s.degrees_after.items()) for s in got.stages] == [
        list(s.degrees_after.items()) for s in want.stages
    ]
    assert list(got.odp_census.items()) == list(want.odp_census.items())


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

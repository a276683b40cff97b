import copy
import dataclasses
import json

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
from dsolid.report import RunConfig, run


def test_stage1_scan_n7():
    comps = base_curve_scan(_initial_state(Model(7).table))
    expected = set()
    for i in range(3, 6):
        expected.add(frozenset(("C", i, j) for j in range(3, i + 1)))
        expected.add(frozenset(("Cb", i, j) for j in range(3, i + 1)))
    expected.add(frozenset([("C", 6, 1)]))
    expected.add(frozenset([("Cb", 6, 1)]))
    assert set(comps) == expected


def test_stage1_scan_n4_only_isolated_pair():
    comps = base_curve_scan(_initial_state(Model(4).table))
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
            return comps or [frozenset([("C", state.n - 1, 1)])]
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


def test_multiplicity_one_fails_on_a_chain_curve_below_minus_one(monkeypatch):
    # C[5,5] one lower bottoms its stage-2 component out at -2, and the
    # chain no longer clears by the last stage
    real = elimination._initial_state

    def state_with_a_deeper_chain(table):
        state = real(table)
        state.degrees[("C", 5, 5)] -= 1
        return state

    config = RunConfig(ns=(7,), filter="elimination.run", seed=42)
    assert [r.status for r in run(config).checks] == ["pass"] * 4
    monkeypatch.setattr(elimination, "_initial_state", state_with_a_deeper_chain)
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
        comps = base_curve_scan(state)
        seeded = [comp for comp in comps if comp & seeds]
        assert len(seeded) == 2 and set(seeded) == {frozenset([seed]) for seed in seeds}
        for seed in seeds:
            assert state.degrees[seed] == stage + 1 - n
        for comp in comps:
            if comp not in seeded:
                assert min(state.degrees[c] for c in comp) == -1, (stage, sorted(comp))
        blow_up_curves(state, frozenset().union(*comps))
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
        assert state.degrees[seed] == (4 - n) + (stage - 2)
    assert state.degrees[seed] == 0
    trace = model.trace
    assert [rec.stage for rec in trace.stages] == list(range(2, n - 1))
    assert trace.stages[0].degrees_after[seed] == 4 - n
    assert all(not rec.degrees_after for rec in trace.stages[1:])

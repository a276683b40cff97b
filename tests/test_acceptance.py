"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every criterion prints a single PASS/FAIL line (run with -s to stream).
All comparisons are exact equalities; runtime bounds are asserted where
stated.
"""

import random
import time

import pytest

from dsolid.axioms import AxiomRegistry, MissingAxiom, default_registry
from dsolid.checks import (
    CheckContext,
    Model,
    check_elimination_ladder,
    check_elimination_run,
    check_net_ledger,
)
from dsolid.incidence import (
    bundle_algebra_verify,
    complete_pairings,
    irreducibility_guard,
    cylinder_tables_verify,
    m1_tables_verify,
    nonvan_ledgers,
    restriction_ledger_h0,
    pairing_system,
    rr_threefold,
    solve_pairings,
)
from dsolid.lattice import build_surface
from dsolid.report import RunConfig, run as run_report
from dsolid.scroll import (
    double_conic_verify,
    double_curve_degree,
    random_instance,
    smoothness_probe,
    splitting_conic_rank,
)
from dsolid.systems import (
    anticanonical_fixed_part,
    confluence_orders,
    expected_m_restrictions,
    pluri_anticanonical_stripping,
)


def _report(num: int, ok: bool, msg: str) -> None:
    print(f"criterion-{num}: {'PASS' if ok else 'FAIL'} - {msg}")


def _all_pass(check_id: str, ns: range) -> bool:
    """Whether every record of one check passes over ``ns``, as the CLI reports it."""
    records = run_report(RunConfig(ns=tuple(ns), filter=check_id)).checks
    return bool(records) and all(r.status == "pass" for r in records)


def test_criterion_1_surface_profile():
    # the lattice.profile records: cycle profile (1-n, -2 x (n-3), -1) and K^2 = 8-2n
    t0 = time.perf_counter()
    ok = _all_pass("lattice.profile", range(4, 17))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(1, ok, f"profiles and K^2 for n=4..16 in {elapsed:.3f}s")
    assert ok


def test_criterion_2_fixed_components():
    ok = True
    for n in range(4, 17):
        tower = build_surface(n)
        res = pluri_anticanonical_stripping(tower)
        if res.fixed != anticanonical_fixed_part(tower):
            ok = False
        if not confluence_orders(tower, shuffles=20, seed=n, ref=res):
            ok = False
    _report(2, ok, "stripping multiplicities exact and confluent (20 orders), n=4..16")
    assert ok


def test_criterion_3_cylinder_tables():
    ok = True
    slowest = 0.0
    for n in range(4, 17):
        t0 = time.perf_counter()
        cx = Model(n).complex
        system = pairing_system(cx)
        table = complete_pairings(cx, system)
        _, good = cylinder_tables_verify(table)
        if not good:
            ok = False
        if solve_pairings(system, shuffle_seed=n) != table.nu:
            ok = False
        slowest = max(slowest, time.perf_counter() - t0)
    ok = ok and slowest < 5.0
    _report(3, ok, f"degree tables cell-exact with unique completion, n=4..16; "
                   f"slowest n took {slowest:.2f}s")
    assert ok


def test_criterion_4_ledger_dimensions():
    ok = True
    for n in range(4, 17):
        reg = default_registry()
        res = restriction_ledger_h0(Model(n).table, reg)
        if res.value != n or res.total != n + 1 or not res.axioms_used:
            ok = False
        if not reg.consumed:
            ok = False
    _report(4, ok, "restricted section counts n and n+1 with explicit assumption lists")
    assert ok


def test_criterion_5_tables_and_identities():
    ok = True
    for n in range(4, 17):
        model = Model(n)
        if model.m_table != expected_m_restrictions(n):
            ok = False
        _, good = m1_tables_verify(model.table, model.m_table)
        if not good:
            ok = False
        if not bundle_algebra_verify(n)["ok"]:
            ok = False
        guard = irreducibility_guard(n)
        if not (guard["phi_half"] == -2 and guard["phi_half_swapped"] == 2 and guard["ok"]):
            ok = False
    if rr_threefold({"a3": 0, "a2c1": -4, "ac": 0, "c1c2": 24}) != 0:
        ok = False
    _report(5, ok, "restriction tables, bundle identities, Euler value 0, guard -2/+2")
    assert ok


def test_criterion_6_elimination():
    # termination at stage n-2, stage-two degrees, ladder, double-point census
    # and thresholds, line degrees: each is one record of the elimination checks
    asserted = {"elimination.termination", "elimination.stage2", "elimination.ladder",
                "elimination.odp-census", "elimination.odp-thresholds",
                "elimination.twistor-lines"}
    ok = True
    slowest = 0.0
    for n in range(4, 13):
        t0 = time.perf_counter()
        records = run_report(RunConfig(ns=(n,), filter="elimination.[!c]*")).checks
        if any(r.status == "fail" for r in records):
            ok = False
        if {r.id for r in records if r.status == "flagged"} != {
                "elimination.twistor-lines.first-line"}:
            ok = False
        if not asserted <= {r.id for r in records if r.status == "pass"}:
            ok = False
        slowest = max(slowest, time.perf_counter() - t0)
    ok = ok and slowest < 10.0
    _report(6, ok, f"state machine exact for n=4..12; slowest n took {slowest:.2f}s")
    assert ok


@pytest.mark.parametrize("n", range(4, 11))
def test_criterion_7_quartic_instances(n):
    t0 = time.perf_counter()
    rng = random.Random(1000 + n)
    ok = True
    for _ in range(100):
        inst = random_instance(n, rng)
        if not double_conic_verify(inst):
            ok = False
            break
        if splitting_conic_rank(inst) != 2:
            ok = False
            break
        if double_curve_degree(inst, rng) != (2 * (n - 2), 2 * (n - 2)):
            ok = False
            break
        # every root of the instance is probed
        if smoothness_probe(inst, rng) is not None:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(7, ok, f"n={n}: 100 instances (tangency, rank 2, degree {2*(n-2)}, probes) "
                   f"in {elapsed:.1f}s")
    assert ok


def test_criterion_8_moduli_arithmetic():
    # the scroll.moduli record: every dimension formula for k = 2..n
    ok = _all_pass("scroll.moduli", range(4, 33))
    _report(8, ok, "dimension formulas and decrement-by-two stratification, n=4..32")
    assert ok


def test_criterion_9_honesty():
    ok = True
    report = run_report(RunConfig(ns=(5,), instances=3))
    data = report.to_json()
    consumed = {a["id"] for a in data["axioms"]}
    if not consumed:
        ok = False
    for rec in report.checks:
        for ax in rec.axioms_used:
            if ax not in consumed:
                ok = False
    flagged = {r.id for r in report.checks if r.status == "flagged"}
    for fid in (
        "incidence.completion.seam-anchor",
        "elimination.twistor-lines.first-line",
        "systems.net-ledger.rank-flag",
    ):
        if fid not in flagged:
            ok = False
    # an empty registry must break every ledger operation
    empty = AxiomRegistry()
    for op in (
        lambda: restriction_ledger_h0(Model(4).table, empty),
        lambda: nonvan_ledgers(Model(4).table, empty),
        lambda: check_net_ledger(4, CheckContext(registry=empty)),
        lambda: check_elimination_run(4, CheckContext(registry=empty)),
        lambda: check_elimination_ladder(4, CheckContext(registry=empty)),
    ):
        try:
            op()
            ok = False
        except MissingAxiom:
            pass
    _report(9, ok, "all consumed assumptions reported; flagged questions surface; "
                   "empty registry fails closed")
    assert ok

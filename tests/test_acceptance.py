"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every criterion prints a single PASS/FAIL line (run with -s to stream).
Every criterion but 7 reads the records ``dsolid verify`` prints, through
``report.run``; criterion 7 still probes its own seeded instances.  All
comparisons are exact equalities; runtime bounds are asserted where
stated.
"""

import random
import time
from dataclasses import replace

import pytest

from dsolid.axioms import AxiomRegistry
from dsolid.report import RunConfig, run as run_report, selected_checks
from dsolid.scroll import (
    double_conic_verify,
    double_curve_degree,
    random_instance,
    smoothness_probe,
    splitting_conic_rank,
)

NS = range(4, 17)


def _report(num: int, ok: bool, msg: str) -> None:
    print(f"criterion-{num}: {'PASS' if ok else 'FAIL'} - {msg}")


def _records(check_ids, ns) -> list:
    """The records of ``check_ids`` over ``ns``, as the CLI reports them.

    A filter is one glob, so each check id runs on its own.
    """
    return [rec for cid in check_ids for rec in run_report(RunConfig(ns=tuple(ns), filter=cid)).checks]


def _all_pass(records, record_ids, ns) -> bool:
    """Whether each of ``record_ids`` has exactly one record at every n of ``ns``, and it passes."""
    got = sorted((r.id, r.n, r.status) for r in records if r.id in record_ids)
    return got == sorted((rid, n, "pass") for rid in record_ids for n in ns)


def test_criterion_1_surface_profile():
    # the lattice.profile records: cycle profile (1-n, -2 x (n-3), -1) and K^2 = 8-2n
    t0 = time.perf_counter()
    ok = _all_pass(_records(["lattice.profile"], NS),
                   {"lattice.profile", "lattice.canonical-square"}, NS)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(1, ok, f"profiles and K^2 for n=4..16 in {elapsed:.3f}s")
    assert ok


def test_criterion_2_fixed_components():
    # the stripping's fixed part against the closed form, and 20 shuffled orders
    ok = _all_pass(_records(["systems.fixed-components"], NS),
                   {"systems.fixed-components", "systems.stripping-confluent"}, NS)
    _report(2, ok, "stripping multiplicities exact and confluent (20 orders), n=4..16")
    assert ok


def test_criterion_3_cylinder_tables():
    # the cell-exact degree tables, and the completion re-solved in shuffled orders
    ok = True
    slowest = 0.0
    for n in NS:
        t0 = time.perf_counter()
        records = _records(["incidence.completion", "incidence.cylinder-tables"], (n,))
        slowest = max(slowest, time.perf_counter() - t0)
        ok = ok and _all_pass(records, {"incidence.cylinder-tables", "incidence.completion-unique"},
                              (n,))
    ok = ok and slowest < 5.0
    _report(3, ok, f"degree tables cell-exact with unique completion, n=4..16; "
                   f"slowest n took {slowest:.2f}s")
    assert ok


def test_criterion_4_ledger_dimensions():
    # (value, total) = (n, n+1), each n on a fresh registry that lists what it consumed
    ok = True
    for n in NS:
        report = run_report(RunConfig(ns=(n,), filter="incidence.ledger-h0"))
        consumed = {a["id"] for a in report.to_json()["axioms"]}
        ok = ok and _all_pass(report.checks, {"incidence.ledger-h0"}, (n,)) and all(
            rec.axioms_used and set(rec.axioms_used) <= consumed for rec in report.checks)
    _report(4, ok, "restricted section counts n and n+1 with explicit assumption lists")
    assert ok


def test_criterion_5_tables_and_identities():
    checks = ("systems.half-bundle", "incidence.half-bundle-tables", "incidence.bundle-algebra",
              "incidence.irreducibility", "incidence.euler-characteristic")
    ok = _all_pass(_records(checks, NS),
                   {"systems.half-bundle-table", "incidence.half-bundle-tables",
                    "incidence.bundle-algebra", "incidence.irreducibility",
                    "incidence.euler-characteristic"}, NS)
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
        if double_curve_degree(inst) != (2 * (n - 2), 2 * (n - 2)):
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
    ns = range(4, 33)
    ok = _all_pass(_records(["scroll.moduli"], ns), {"scroll.moduli"}, ns)
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
    # an empty registry fails exactly the checks that consume an assumption,
    # each with the missing assumption, the ledger operations among them
    config = RunConfig(ns=(4,), instances=3)
    consuming = {cid for cid in selected_checks("*")
                 if run_report(replace(config, filter=cid)).to_json()["axioms"]}
    failed = [r for r in run_report(config, registry=AxiomRegistry()).checks if r.status == "fail"]
    missing = {r.id for r in failed if str(r.computed).startswith("MissingAxiom")}
    ledgers = {"incidence.ledger-h0", "incidence.pencil-ledgers", "systems.net-ledger",
               "elimination.run", "elimination.ladder"}
    if not (ledgers <= consuming and consuming == missing == {r.id for r in failed}):
        ok = False
    _report(9, ok, "all consumed assumptions reported; flagged questions surface; "
                   "empty registry fails closed")
    assert ok

"""Honesty checks: no ledger result exists without its registered inputs."""

import pytest

from dsolid.axioms import AxiomRegistry, MissingAxiom, default_registry
from dsolid.checks import CheckContext, Model, check_euler, check_moduli, check_net_ledger
from dsolid.incidence import nonvan_ledgers, restriction_ledger_h0
from dsolid.report import RunConfig, run


def test_default_registry_complete():
    reg = default_registry()
    assert "rank.h0-net-on-member" in reg.axioms
    assert not reg.consumed


def test_ledger_ops_fail_without_registry():
    empty = AxiomRegistry()
    table = Model(5).table
    with pytest.raises(MissingAxiom):
        restriction_ledger_h0(table, empty)
    with pytest.raises(MissingAxiom):
        nonvan_ledgers(table, empty)
    ctx = CheckContext(registry=empty)
    with pytest.raises(MissingAxiom):
        check_net_ledger(5, ctx)
    with pytest.raises(MissingAxiom):
        check_euler(5, ctx)
    with pytest.raises(MissingAxiom):
        check_moduli(5, ctx)


def test_consumption_recorded():
    reg = default_registry()
    restriction_ledger_h0(Model(4).table, reg)
    ids = {a for a, _ in reg.consumed}
    assert "rank.h0-net-on-member" in ids
    assert all(c == "restriction-ledger" for _, c in reg.consumed)


def test_report_lists_all_consumed_axioms():
    cfg = RunConfig(ns=(5,), instances=3)
    report = run(cfg)
    consumed = {a["id"] for a in report.to_json()["axioms"]}
    assert consumed  # nonempty
    # everything a check used is in the report
    for rec in report.checks:
        for ax in rec.axioms_used:
            assert ax in consumed
    # flagged open questions surface
    flagged = {r.id for r in report.checks if r.status == "flagged"}
    assert "incidence.completion.seam-anchor" in flagged
    assert "elimination.twistor-lines.first-line" in flagged
    assert "systems.net-ledger.rank-flag" in flagged


def test_no_silent_axioms_in_ledger_records():
    cfg = RunConfig(ns=(4,), filter="incidence.ledger-h0", instances=1)
    report = run(cfg)
    recs = [r for r in report.checks if r.id == "incidence.ledger-h0"]
    assert recs and recs[0].axioms_used

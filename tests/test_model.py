"""The per-n model: built once per n, shared by every check, never changed by one."""

import hashlib
import json
import time

import pytest

from dsolid import elimination, incidence, lattice, systems
from dsolid.axioms import default_registry
from dsolid.checks import (
    CHECKS,
    CheckContext,
    Model,
    check_cone_degree,
    check_instances,
    check_tangency,
)
from dsolid.cli import main
from dsolid.report import RunConfig, run

# sha256 of `dsolid verify --range 4..7 --seed 42 --instances 2 --format json`,
# recorded before the checks shared a model; any change to it must be deliberate
REPORT_4_7_SHA256 = "9b5a4030280335313b48391d2c282a97140cccf1d66ddceedb009c6bf2f35f5f"


def test_report_bytes_frozen(capsys):
    code = main(["verify", "--range", "4..7", "--seed", "42", "--instances", "2",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_4_7_SHA256


# sha256 of `dsolid verify --range 4..10 --seed 42 --format json` at the default
# 100 instances: the north-star report, whose bytes a refactor must not change
REPORT_4_10_SHA256 = "33a232bca3769cdb3f1e42e39e7f672a2199d02bcc3c56a0f0e98b95d95bb4db"


def test_north_star_report_bytes_frozen(capsys):
    code = main(["verify", "--range", "4..10", "--seed", "42", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_4_10_SHA256


# sha256 of `dsolid verify --range 4..16 --seed 42 --format json --filter F`;
# the threefold digests were recorded while the pairing table stored every
# cell, zeros included, the surface ones while the tower kept its blowup steps
MODULE_REPORT_4_16_SHA256 = {
    "lattice.*": "0814c3333d4a0be6696c7ac42024bb6ec9e6d53bd228a38d4f189214dfe2ab52",
    "systems.*": "bebd2e56d68e0cac60152b7b54884b88a1d437c65a0597182dc6d5621a5d2192",
    "incidence.*": "d35b0ca6c5609d377cde8ab6800e4e040c02725ebe43069e9f8ef7a8677b62f8",
    "elimination.[!c]*": "9305243e97d340f21697dda3b1a3ad7df1a0ee01895e5ec43bfe308ef37e14a4",
}


@pytest.mark.parametrize("pattern", sorted(MODULE_REPORT_4_16_SHA256))
def test_module_report_bytes_frozen(pattern, capsys):
    code = main(["verify", "--range", "4..16", "--seed", "42", "--format", "json",
                 "--filter", pattern])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MODULE_REPORT_4_16_SHA256[pattern]


def test_light_threefold_checks_at_n32():
    # besides the n=64 run below, no other test reaches the incidence and
    # elimination checks above n=16
    ctx = CheckContext(registry=default_registry(), seed=42)
    t0 = time.perf_counter()
    failed = [rec.id for cid, spec in CHECKS.items()
              if cid.startswith(("incidence.", "elimination.")) and not spec.heavy
              for rec in spec.fn(32, ctx) if rec.status == "fail"]
    elapsed = time.perf_counter() - t0
    assert failed == []
    assert elapsed < 10.0


# sha256 of the JSON list of every record of the light (non-heavy) checks at
# n=64, seed 42, in CHECKS order; recorded before the surface Gram rows and
# the elimination bookkeeping were built once per n
LIGHT_CHECKS_N64_SHA256 = "b426055f89bed81f80725ccef327b73b93d7008bb8b671f6195f83a0e50e8f79"


def test_light_checks_at_n64():
    ctx = CheckContext(registry=default_registry(), seed=42)
    t0 = time.perf_counter()
    records = [rec.to_json() for spec in CHECKS.values() if not spec.heavy
               for rec in spec.fn(64, ctx)]
    elapsed = time.perf_counter() - t0
    assert [r["id"] for r in records if r["status"] == "fail"] == []
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == LIGHT_CHECKS_N64_SHA256
    assert elapsed < 15.0


# sha256 of the file written by `dsolid emit-instance --n N --seed S --verify-roundtrip`,
# recorded while every coefficient was still stored as a Fraction
EMITTED_INSTANCE_SHA256 = {
    (4, 1): "02e5c84bff1d70b4e592dffa0eac233bac847f18f375dbe1c6b335b2b4eb062a",
    (7, 42): "a1ce248265f0083fc8beb4ba4eadb7de71ec1f75b53e44706e924fec2e9dfbb2",
    (10, 3): "1c55a26f009416145cb2dece406e573cbd71b8a3ffadd3ab42560eabf02aae08",
    (12, 7): "7704a57989085a968f5a09cf169d2183e9a9e6b5d06dc30aae1403c171f7f7c9",
    (16, 5): "25ebc7dcf91e3327017a7859fed8f2a81b0d405eb795b6e0bcc710778d81da2a",
}


@pytest.mark.parametrize("n, seed", sorted(EMITTED_INSTANCE_SHA256))
def test_emitted_instance_bytes_frozen(n, seed, tmp_path, capsys):
    out = tmp_path / "instance.json"
    code = main(["emit-instance", "--n", str(n), "--seed", str(seed), "--out", str(out),
                 "--verify-roundtrip"])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EMITTED_INSTANCE_SHA256[(n, seed)]


def test_full_run_equals_runs_of_single_checks():
    ns = (4, 5, 6, 7)
    full = run(RunConfig(ns=ns, seed=42, instances=2))
    records, axioms = [], []
    for n in ns:
        for cid in CHECKS:
            alone = run(RunConfig(ns=(n,), filter=cid, seed=42, instances=2))
            records += [rec.to_json() for rec in alone.checks]
            axioms += alone.registry.consumed_records()
    assert [rec.to_json() for rec in full.checks] == records
    assert full.registry.consumed_records() == axioms


def test_checks_leave_the_model_unchanged():
    n = 6
    ctx = CheckContext(registry=default_registry(), seed=42, instances=2)
    for spec in CHECKS.values():
        spec.fn(n, ctx)
    used, fresh = ctx.model(n), Model(n)
    for name in ("tower", "stripping", "half_bundle", "m_table", "complex", "system", "table",
                 "trace"):
        assert getattr(used, name) == getattr(fresh, name), name
    # the complex's shared cell map is not a dataclass field: compare it too
    assert used.complex.cell_map == fresh.complex.cell_map
    # the tower's shared Gram rows are tuples, and the checks left them as a
    # fresh tower pairs them
    gram = used.tower.cycle_gram
    assert type(gram) is tuple and all(type(row) is tuple for row in gram)
    assert gram == fresh.tower.cycle_gram


def test_each_object_is_built_once_per_n(monkeypatch):
    calls = {"tower": 0, "gram": 0, "half": 0, "system": 0, "solve": 0, "table": 0, "trace": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(lattice, "build_surface", counting("tower", lattice.build_surface))
    # the Gram rows are a cached property of the tower: count runs of its function
    gram = lattice.BlowupTower.cycle_gram
    monkeypatch.setattr(gram, "func", counting("gram", gram.func))
    monkeypatch.setattr(systems, "half_bundle_on_surface",
                        counting("half", systems.half_bundle_on_surface))
    monkeypatch.setattr(incidence, "pairing_system",
                        counting("system", incidence.pairing_system))
    monkeypatch.setattr(incidence, "solve_pairings",
                        counting("solve", incidence.solve_pairings))
    monkeypatch.setattr(incidence, "complete_pairings",
                        counting("table", incidence.complete_pairings))
    monkeypatch.setattr(elimination, "run_elimination",
                        counting("trace", elimination.run_elimination))
    run(RunConfig(ns=(5, 6), seed=42, instances=1))
    # incidence.completion solves three shuffled copies of the model's one system
    # besides the model's table
    assert calls == {"tower": 2, "gram": 2, "half": 2, "system": 2, "solve": 2 * 4, "table": 2,
                     "trace": 2}


def test_a_failed_build_fails_every_check_that_needs_it(monkeypatch):
    def broken(cx, system):
        raise incidence.CompletionError("broken solver")

    monkeypatch.setattr(incidence, "complete_pairings", broken)
    report = run(RunConfig(ns=(5,), filter="elimination.[!c]*"))
    crashed = [rec.id for rec in report.checks if rec.status == "fail"]
    assert crashed == [cid for cid in CHECKS if cid.startswith("elimination.")
                       and cid != "elimination.cone-degree"]
    assert all(rec.computed == "CompletionError: broken solver" for rec in report.checks)


def test_context_keeps_one_model_at_a_time():
    ctx = CheckContext(registry=default_registry())
    model = ctx.model(5)
    assert ctx.model(5) is model
    assert ctx.model(6) is not model and ctx.model(6).n == 6


# sha256 (first 16 hex digits) of repr(rng.getstate()) after each instance-driven
# check at seed 42 with the default 100 instances, for the one Random that
# CheckContext.rng hands it.  A passing report does not depend on which
# instances were drawn, so only this pins the order and number of draws.
# "instances" was re-recorded when tangency stopped drawing a generic fiber.
RNG_STATE_AFTER_CHECK = {
    "instances": ("79c5d5522243121a", "7925c07ef0eab7e6", "10b8cfe86032aa5d",
                  "4581387f0f1e8ae8", "6c230aefdb3e22aa", "855cdef6b04a59ca",
                  "a4d3311b1b5bc676"),
    "tangency": ("66c24f68b8fe88d5", "88059d2fd0ad068d", "5884baba60a79a29",
                 "c1384e6ff6d3dcb8", "6e1a66c9db4ef25e", "00c1e4ec79cfa0c3",
                 "49f3422a66e48014"),
    "cone-degree": ("824718057bffffa2", "c0cdaf22f436f66b", "d18b7f4e13f6f22a",
                    "9f38a1f7b0bb5744", "a79fa45f811212e2", "ee490132d8072871",
                    "794215320ee82279"),
}
INSTANCE_CHECKS = {"instances": check_instances, "tangency": check_tangency,
                   "cone-degree": check_cone_degree}


@pytest.mark.parametrize("name", sorted(RNG_STATE_AFTER_CHECK))
def test_instance_checks_draw_a_frozen_stream(name, monkeypatch):
    handed = []
    real = CheckContext.rng

    def recording(self, check_id, n):
        rng = real(self, check_id, n)
        handed.append(rng)
        return rng

    monkeypatch.setattr(CheckContext, "rng", recording)
    got = []
    for n in range(4, 11):
        handed.clear()
        recs = INSTANCE_CHECKS[name](n, CheckContext(registry=default_registry(), seed=42))
        assert [r.status for r in recs] == ["pass"]
        [rng] = handed
        got.append(hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()[:16])
    assert tuple(got) == RNG_STATE_AFTER_CHECK[name]

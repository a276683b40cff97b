"""The per-n model: built once per n, shared by every check, never changed by one."""

import dataclasses
import hashlib
import json
import time

import pytest

from dsolid import elimination, incidence, lattice, scroll, systems
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


# sha256 of instance k of the seeded batch for n at seed 42, spelled as its
# instance file is.  A passing report does not depend on which instances were
# drawn, so only this pins the per-instance seeds and the draws that build each
# instance.  Recorded when the three instance-driven checks began to share one
# batch; it replaced the rng states those checks left behind.
INSTANCE_SHA256 = {
    (4, 0): "43e0ca0208648f94335868255d665c2ce3108b8dd75955c813e063611ed8a1ca",
    (4, 99): "1a6fee0663ed66b475564a33d8dda9b3ebd4edb38652e0d1a16479f99a702fdd",
    (7, 0): "e4698804ad8f5162b07d61799885fee32dbe21e112aad9b5e1863231b6de0d76",
    (7, 99): "fb7788d5f8db8e127666e8f9b3c7feb114002adcebe1f741f044a7993baed1d6",
    (10, 0): "8564d4b235ae982a72ea1ab01797ed9d6dd1e25f7ce18f1a8de68859477210db",
    (10, 99): "2505997be3f4e3f10bb142e207d480d163a4795f0ffa5314749b0dc2ca5de7f4",
}


@pytest.mark.parametrize("n, k", sorted(INSTANCE_SHA256))
def test_batch_instances_are_frozen(n, k):
    inst = CheckContext(registry=default_registry(), seed=42).instance(n, k)
    spelled = json.dumps(scroll.instance_to_json(inst), indent=1, sort_keys=True)
    assert hashlib.sha256(spelled.encode()).hexdigest() == INSTANCE_SHA256[(n, k)]


INSTANCE_CHECKS = {"instances": check_instances, "tangency": check_tangency,
                   "cone-degree": check_cone_degree}


def test_instance_checks_draw_only_through_the_context(monkeypatch):
    asked, drawn = [], []
    real_instance, real_draw = CheckContext.instance, scroll.random_instance

    def asking(self, n, k):
        asked.append((n, k))
        return real_instance(self, n, k)

    def drawing(n, rng):
        drawn.append(n)
        return real_draw(n, rng)

    monkeypatch.setattr(CheckContext, "instance", asking)
    monkeypatch.setattr(scroll, "random_instance", drawing)
    ctx = CheckContext(registry=default_registry(), seed=42, instances=25)
    # scroll.instances reads every k, scroll.tangency the first instances // 10
    # and elimination.cone-degree the first: all from the one batch
    want = {"instances": range(25), "tangency": range(2), "cone-degree": range(1)}
    for name, check in INSTANCE_CHECKS.items():
        asked.clear()
        drawn.clear()
        assert [r.status for r in check(6, ctx)] == ["pass"]
        assert asked == [(6, k) for k in want[name]], name
        assert drawn == [6] * len(asked), name  # no draw outside the context


def test_a_failing_instance_replays_from_seed_n_and_index(monkeypatch):
    n, seed, bad_k = 6, 42, 7
    target = CheckContext(registry=default_registry(), seed=seed).instance(n, bad_k)
    seen = []
    draw = scroll.random_instance

    def one_bad(n, rng):
        # a fault that shows on one drawn instance: its f no longer matches its roots
        inst = draw(n, rng)
        if inst == target:
            moved = scroll.linear_form_from_roots(n, list(inst.roots[1:]) + [(1, 997)])
            inst = dataclasses.replace(inst, f=moved)
        seen.append(inst)
        return inst

    monkeypatch.setattr(scroll, "random_instance", one_bad)
    [rec] = check_instances(n, CheckContext(registry=default_registry(), seed=seed,
                                            instances=10))
    assert (rec.status, rec.detail) == ("fail", f"instance {bad_k}: tangency identities")
    # the record's (seed, n, k) alone draws the failing instance again
    k = int(rec.detail.split(":")[0].removeprefix("instance "))
    replayed = CheckContext(registry=default_registry(), seed=seed).instance(n, k)
    assert replayed == seen[k] and not scroll.double_conic_verify(replayed)

import argparse
import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dsolid import cli, scroll
from dsolid.cli import main
from dsolid.poly import MultiPoly
from dsolid.report import RunConfig, render, run
from dsolid.scroll import InstanceError, double_conic_verify, random_instance, read_instance


def test_verify_single_n(capsys):
    code = main(["verify", "--n", "6", "--filter", "lattice.*"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lattice.profile" in out and "FAIL" not in out


def test_verify_small_n_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "3"])
    assert exc.value.code == 2


def test_verify_bad_range_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--range", "7..4"])
    assert exc.value.code == 2


def test_verify_unmatched_filter_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "5", "--filter", "nothing.*"])
    assert exc.value.code == 2
    assert "error: filter 'nothing.*' matches no checks" in capsys.readouterr().err


@pytest.mark.parametrize(
    "check, count", [("scroll.instances", "0"), ("scroll.tangency", "-5")]
)
def test_verify_nonpositive_instances_usage_error(check, count):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "5", "--filter", check, "--instances", count])
    assert exc.value.code == 2


def test_run_config_rejects_nonpositive_instances():
    with pytest.raises(ValueError):
        RunConfig(ns=(5,), instances=0)


def test_run_config_rejects_unmatched_filter():
    # an empty selection would make an empty report with ok == True
    with pytest.raises(ValueError, match=r"^filter 'typo' matches no checks$"):
        RunConfig(ns=(5,), filter="typo")


def test_verify_range_with_filter(capsys):
    code = main([
        "verify", "--range", "4..5", "--filter", "scroll.hankel", "--format", "json",
    ])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["summary"]["fail"] == 0
    assert {c["n"] for c in data["checks"]} == {4, 5}


def test_report_deterministic():
    cfg = RunConfig(ns=(5,), filter="systems.*", seed=42, instances=4, fmt="json")
    a = render(run(cfg))
    b = render(run(cfg))
    assert a == b


def test_list_checks(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    assert "incidence.cylinder-tables" in out
    assert "scroll.instances" in out


def test_emit_instance_roundtrip(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code = main([
        "emit-instance", "--n", "6", "--seed", "9", "--out", str(out),
        "--verify-roundtrip",
    ])
    assert code == 0
    inst = read_instance(out)
    assert inst.n == 6
    assert max(map(sum, inst.big_f.terms)) == 4 and inst.big_f.is_homogeneous()
    assert double_conic_verify(inst)
    # byte-identical re-serialization
    text1 = out.read_text()
    from dsolid.scroll import write_instance

    write_instance(inst, out)
    assert out.read_text() == text1


def test_emit_instance_roundtrip_mismatch(tmp_path, capsys, monkeypatch):
    other = random_instance(6, random.Random(10))
    assert other != random_instance(6, random.Random(9))
    monkeypatch.setattr(cli, "read_instance", lambda path: other)
    code = main([
        "emit-instance", "--n", "6", "--seed", "9", "--out", str(tmp_path / "inst.json"),
        "--verify-roundtrip",
    ])
    assert code == 1
    assert "round-trip mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [
    InstanceError("roots must be distinct"),
    json.JSONDecodeError("Expecting value", "", 0),
    OSError("file vanished"),
])
def test_emit_instance_roundtrip_unreadable(tmp_path, capsys, monkeypatch, exc):
    def reject(path):
        raise exc

    monkeypatch.setattr(cli, "read_instance", reject)
    code = main([
        "emit-instance", "--n", "5", "--seed", "9", "--out", str(tmp_path / "inst.json"),
        "--verify-roundtrip",
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cannot read back ")


def test_emit_instance_roundtrip_malformed_file(tmp_path, capsys, monkeypatch):
    # a file that is JSON but not an instance is reported, not a traceback
    monkeypatch.setattr(cli, "write_instance", lambda inst, path: Path(path).write_text('{"n": 5}'))
    code = main([
        "emit-instance", "--n", "5", "--seed", "9", "--out", str(tmp_path / "inst.json"),
        "--verify-roundtrip",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read back ") and "malformed instance" in err


def test_verify_output_does_not_depend_on_the_hash_seed():
    # set and dict iteration follow the hash seed; the report must not
    argv = [sys.executable, "-m", "dsolid.cli", "verify", "--range", "4..9", "--seed", "42",
            "--instances", "2", "--format", "json"]
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        outs.append(done.stdout)
    assert json.loads(outs[0])["summary"]["fail"] == 0
    assert outs[0] == outs[1]


def test_emit_instance_roundtrip_builds_f_once(tmp_path, monkeypatch):
    n = 7
    scroll._written_big_f.cache_clear()
    builds, products = [], []
    build, mul = scroll.QuarticInstance._ambient_quartic, MultiPoly.__mul__

    def counting_build(inst):
        builds.append(inst)
        return build(inst)

    def counting_mul(a, b):
        if a.nvars == n + 1:  # the chart's products have 5 variables
            products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(scroll.QuarticInstance, "_ambient_quartic", counting_build)
    monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
    out = tmp_path / "inst.json"
    assert main(["emit-instance", "--n", str(n), "--seed", "42", "--out", str(out),
                 "--verify-roundtrip"]) == 0
    # the writer builds F; the reader's rebuilt instance equals the written one
    # and is checked against the writer's spelling of F.  F is one integer
    # pass, with no polynomial product on the ambient space.
    assert len(builds) == 1 and products == []


def _dsolid_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_emit_instance_bytes_do_not_depend_on_python_O(tmp_path):
    blobs = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"inst{len(blobs)}.json"
        done = subprocess.run([sys.executable, *flags, "-m", "dsolid.cli", "emit-instance",
                               "--n", "7", "--seed", "42", "--out", str(out), "--verify-roundtrip"],
                              env=_dsolid_env(), capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


_OPTIMIZED_CHECKS = """
import random
from dsolid import scroll, systems
from dsolid.lattice import DivisorClass, build_surface

inst = scroll.random_instance(5, random.Random(1))
scroll.QuarticInstance._shifted_f = lambda self: self.f  # F gets degree-1 terms
try:
    inst.big_f
except RuntimeError as exc:
    print(exc)
tower = build_surface(5)
stripping = systems.pluri_anticanonical_stripping(tower)
dot = DivisorClass.dot
DivisorClass.dot = lambda a, b: dot(a, b) + (a is b)
try:
    systems.movable_invariants(tower, stripping)
except RuntimeError as exc:
    print(exc)
"""


def test_engine_checks_still_raise_under_python_O():
    done = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS], env=_dsolid_env(),
                          capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].endswith("is not a homogeneous quartic")
    assert lines[1].endswith("is not an integer")


def test_emit_instance_shape_n4(tmp_path):
    out = tmp_path / "i4.json"
    assert main(["emit-instance", "--n", "4", "--seed", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 4
    exps = [tuple(int(x) for x in k.split(",")) for k in data["F"]]
    assert all(len(e) == 5 and sum(e) == 4 for e in exps)


def test_emit_instance_unwritable(capsys):
    code = main([
        "emit-instance", "--n", "4", "--seed", "1",
        "--out", "/nonexistent-dir/inst.json",
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_fail_fast_flag(capsys):
    # fail-fast on a healthy run just completes
    code = main(["verify", "--n", "4", "--filter", "lattice.profile", "--fail-fast"])
    assert code == 0


def test_full_run_n7(capsys):
    # every table-style check passes for n=7 (small instance count for speed)
    code = main(["verify", "--n", "7", "--instances", "2", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["summary"]["fail"] == 0
    assert data["axioms"]
    ids = {c["id"] for c in data["checks"]}
    for required in (
        "incidence.cylinder-tables",
        "incidence.half-bundle-tables",
        "systems.half-bundle-table",
        "elimination.stage2",
    ):
        assert required in ids


def _run_in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_parser_serves_calls_in_sequence(tmp_path, capsys):
    # each call gives the exit code, stdout and stderr of a fresh process
    inst = tmp_path / "inst.json"
    calls = [
        ["verify", "--n", "5", "--filter", "lattice.profile", "--fail-fast"],
        ["emit-instance", "--n", "5", "--seed", "3", "--out", str(inst), "--verify-roundtrip"],
        ["list-checks"],
        ["verify", "--n", "3"],  # usage error
        ["verify", "--n", "5", "--filter", "lattice.profile", "--format", "json"],
    ]
    got = []
    for argv in calls:
        got.append(_run_in_process(argv, capsys))
        if argv[0] == "emit-instance":
            got.append(inst.read_bytes())
    assert [g[0] for g in got if type(g) is tuple] == [0, 0, 0, 2, 0]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = []
    for argv in calls:
        done = subprocess.run([sys.executable, "-m", "dsolid.cli", *argv], env=env,
                              capture_output=True, text=True)
        fresh.append((done.returncode, done.stdout, done.stderr))
        if argv[0] == "emit-instance":
            fresh.append(inst.read_bytes())
    assert got == fresh


def test_parsed_options_do_not_leak_between_calls():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    sequence = [
        ["verify", "--n", "5", "--fail-fast", "--format", "json", "--seed", "7"],
        ["verify", "--n", "5"],
        ["emit-instance", "--n", "4", "--out", "x.json", "--verify-roundtrip"],
        ["emit-instance", "--n", "4", "--out", "x.json"],
        ["verify", "--range", "4..6"],
        ["list-checks"],
    ]
    for argv in sequence:
        # a parser built for this call alone parses to the same namespace
        assert vars(parser.parse_args(argv)) == vars(cli.build_parser.__wrapped__().parse_args(argv))
    assert parser.parse_args(["verify", "--n", "5"]).fail_fast is False


def test_a_warm_call_leaves_no_parser_garbage(tmp_path, capsys):
    argv = ["emit-instance", "--n", "4", "--seed", "1", "--out", str(tmp_path / "i.json")]
    assert main(argv) == 0
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        kinds = {type(obj) for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not [k for k in kinds if issubclass(k, (argparse.ArgumentParser, argparse.HelpFormatter))]

"""Self-test of the benchmark itself, at smoke size (under a minute).

    python3 perfbench/selftest.py

Checks that:
- every span lands on every binding site of its function, and
  ``Tracer.uninstall`` restores each original object;
- two traced runs of each workload give bit-identical counters;
- each run emits exactly the metric names and units of BENCHMARK.json;
- run.py refuses, with a non-zero exit and no result line, to run in a
  directory that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def binding_sites() -> None:
    from dsolid import checks, cli, incidence, lattice, poly, scroll

    sites = {
        "incidence.build_surface": (incidence, "build_surface"),
        "lattice.build_surface": (lattice, "build_surface"),
        "cli.random_instance": (cli, "random_instance"),
        "scroll.eval_poly_at": (scroll, "eval_poly_at"),
    }
    before = {k: getattr(mod, attr) for k, (mod, attr) in sites.items()}
    mul, check_fn = vars(poly.MultiPoly)["__mul__"], checks.CHECKS["lattice.profile"].fn
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for key, (mod, attr) in sites.items():
            expect(getattr(getattr(mod, attr), "perfbench_span", False), f"span installed at {key}")
        expect(getattr(vars(poly.MultiPoly)["__mul__"], "perfbench_span", False),
               "span installed on MultiPoly.__mul__")
        expect(getattr(checks.CHECKS["lattice.profile"].fn, "perfbench_span", False),
               "span installed in CHECKS")
    finally:
        tracer.uninstall()
    expect(tracing.leftovers() == [], "no span left after uninstall")
    expect(all(getattr(mod, attr) is before[k] for k, (mod, attr) in sites.items())
           and vars(poly.MultiPoly)["__mul__"] is mul
           and checks.CHECKS["lattice.profile"].fn is check_fn,
           "uninstall restores the original objects")


def declared() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def emitted(result: dict) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def smoke_runs() -> None:
    end_to_end, per_layer = declared()
    expect(per_layer == tracing.per_layer_units(), "BENCHMARK.json lists every per-layer metric")
    for workload in workloads.WORKLOADS:
        timed, detail = run.measure(workload, 3, 0, trace=False, size="smoke")
        expect(timed["correct"], f"{workload}: timed smoke run is correct {detail['problems']}")
        expect(emitted(timed) == end_to_end, f"{workload}: end-to-end names and units")
        expect(all(v["value"] > 0 for v in timed["metrics"].values()),
               f"{workload}: end-to-end metrics are non-zero")
        first, detail = run.measure(workload, 3, 0, trace=True, size="smoke")
        second, _ = run.measure(workload, 3, 0, trace=True, size="smoke")
        expect(first["correct"] and second["correct"],
               f"{workload}: traced smoke runs are correct, no span left {detail['problems']}")
        expect(emitted(first) == per_layer, f"{workload}: per-layer names and units")
        counters = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s"}
                    for r in (first, second)]
        expect(counters[0] == counters[1],
               f"{workload}: counters bit-identical over two traced runs")


def bare_directory() -> None:
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "paper-range", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without sources: non-zero exit and no result line")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    binding_sites()
    smoke_runs()
    bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

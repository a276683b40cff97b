"""Record the reference digests and the baseline results of the benchmark.

    python3 perfbench/baseline.py reference
        Run every workload once at the default seed and write reference.json:
        the sha256 of its rendered output and its flagged records.  Do this
        only when the program's output changes on purpose, and say why.

    python3 perfbench/baseline.py record LABEL [--seeds 1,2,...,10]
        For every workload: one untraced run per seed (seeds 1..10 unless
        given) and one traced run at the default seed, each as long as
        ``run_seconds`` in BENCHMARK.json.  Writes results/LABEL.json with
        the end-to-end medians and quartiles, the elapsed time of each run,
        the per-layer self-time shares of the traced run and the tracing
        overhead (traced wall time minus the untraced median).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# the layers each workload is meant to spend its time in (README.md)
DOMINANT = {
    "paper-range": ("poly", "scroll", "qfield"),
    "surface-large-n": ("lattice", "systems"),
    "threefold-large-n": ("incidence", "elimination"),
    "instance-replay": ("poly", "scroll"),
}


def reference() -> None:
    out = {}
    for workload in workloads.WORKLOADS:
        rep = run.spawn(workload, workloads.DEFAULT_SEED, "timed", "full")
        if rep["failed"]:
            raise SystemExit(f"{workload}: {rep['problems']}")
        out[workload] = {"seed": workloads.DEFAULT_SEED, "digest": rep["digest"],
                         "flagged": rep["flagged"], "operations": rep["attempted"]}
        print(workload, rep["digest"], len(rep["flagged"]), "flagged", flush=True)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "runs": values}


def record(label: str, seeds: list[int]) -> None:
    results: dict = {"label": label, "run_seconds": RUN_SECONDS, "seeds": seeds,
                     "meta": run.metadata(), "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs, elapsed = [], []
        for seed in seeds:
            t0 = time.monotonic()
            result, detail = run.measure(workload, seed, RUN_SECONDS, trace=False)
            elapsed.append(time.monotonic() - t0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {detail['problems']}")
            runs.append(dict(result["metrics"], wall_s={"value": detail["wall_s"], "unit": "s"},
                             repetitions={"value": len(detail["reps"]), "unit": "count"}))
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        t0 = time.monotonic()
        traced, tdetail = run.measure(workload, workloads.DEFAULT_SEED, RUN_SECONDS, trace=True)
        traced_run_s = time.monotonic() - t0
        if not traced["correct"]:
            raise SystemExit(f"{workload} traced: {tdetail['problems']}")
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        wall = layer["trace.wall_s"]
        shares = {name: layer[f"layer.{name}.self_s"] / wall for name in tracing.LAYERS}
        untraced = statistics.median(m["wall_s"]["value"] for m in runs)
        results["workloads"][workload] = {
            "end_to_end": {name: quartiles([m[name]["value"] for m in runs]) for name in runs[0]},
            "run_s": quartiles(elapsed),
            "traced_run_s": traced_run_s,
            "layer_shares": shares,
            "dominant": {"layers": DOMINANT[workload],
                         "share": sum(shares[name] for name in DOMINANT[workload])},
            "tracing_overhead_s": wall - untraced,
            "traced_wall_s": wall,
            "per_layer": layer,
            "check_spans": tdetail["check_spans"],
        }
        summary = results["workloads"][workload]
        print(workload, "dominant share", round(summary["dominant"]["share"], 3),
              "overhead", round(wall - untraced, 3), flush=True)
    path = HERE / "results" / f"{label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(results, indent=1) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("reference")
    rec = sub.add_parser("record")
    rec.add_argument("label")
    rec.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    args = ap.parse_args()
    if args.command == "reference":
        reference()
    else:
        record(args.label, [int(s) for s in args.seeds.split(",")])


if __name__ == "__main__":
    main()

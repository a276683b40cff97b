"""dsolid benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition is a fresh worker process
(worker.py) running one workload body, one at a time (a closed loop with a
single client).  Repetitions continue while the next one still fits in
``--seconds``; at least one always runs.  With ``--trace 0`` the last line
of standard output holds the end-to-end metrics (medians over repetitions),
with ``--trace 1`` the per-layer metrics of traced repetitions.  The line
before it holds run metadata and per-repetition details.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import drift  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 8  # set-up-only workers per timed run
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, size: str) -> dict:
    """Run one worker process and return its record, with set-up time added."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-S", str(HERE / "worker.py"), workload, str(seed), mode, size],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    t1 = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {mode} {workload} exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    rec = json.loads(lines[-1])
    if not Path(rec["dsolid_file"]).resolve().is_relative_to(ROOT / "src"):
        raise WorkerError(f"imported dsolid from {rec['dsolid_file']}, not from this checkout")
    rec["setup_s"] = rec["ready_at"] - t0
    rec["process_s"] = t1 - t0
    return rec


def setup_probe(workload: str, seed: int, size: str) -> tuple[float, float]:
    """Set-up seconds of one fresh worker: raw, and at the reference kernel speed."""
    before = drift.kernel_seconds()
    raw = spawn(workload, seed, "setup", size)["setup_s"]
    after = drift.kernel_seconds()
    return raw, raw / ((before + after) / 2) * drift.REFERENCE_KERNEL_S


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def check_outputs(workload: str, seed: int, size: str,
                  reps: list[dict]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed over all repetitions, with the reasons.

    Beyond the workers' own counts: each repetition's output digest is one
    more operation.  At the default seed it must equal the frozen reference;
    at any other seed it must equal the first repetition's.  At full size,
    and at every seed, a repetition must also attempt exactly the reference
    number of operations and flag exactly the reference records, each as
    often as the reference does; neither depends on the seed.  Every
    operation missing or extra, and every flagged record missing or extra,
    counts as a failure.
    """
    ref = load_reference()[workload] if size == "full" else None
    attempted = failed = 0
    problems: list[str] = []
    for rep in reps:
        attempted += rep["attempted"] + 1
        failed += rep["failed"]
        problems += rep["problems"]
        want_digest = ref["digest"] if ref and seed == workloads.DEFAULT_SEED else reps[0]["digest"]
        if rep["digest"] != want_digest:
            failed += 1
            problems.append(f"report digest {rep['digest'][:12]} != {want_digest[:12]}")
        if ref is not None:
            if rep["attempted"] != ref["operations"]:
                attempted += max(0, ref["operations"] - rep["attempted"])
                failed += abs(rep["attempted"] - ref["operations"])
                problems.append(f"{rep['attempted']} operations, reference has "
                                f"{ref['operations']}")
            got = Counter(tuple(x) for x in rep["flagged"])
            want = Counter(tuple(x) for x in ref["flagged"])
            if got != want:
                diff = (got - want) + (want - got)
                failed += sum(diff.values())
                problems.append(f"flagged records differ: {sorted(diff)[:5]}")
        if not rep.get("kernel_ok", True):
            failed += 1
            problems.append("calibration kernel result changed")
        if rep.get("leftovers"):
            failed += 1
            problems.append(f"wrappers left installed: {rep['leftovers'][:5]}")
    return attempted, min(failed, attempted), problems


def metadata() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dsolid").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> tuple[dict, dict]:
    """Run the repetitions; return (result line, detail record)."""
    start = time.monotonic()
    meta = metadata()
    mode = "traced" if trace else "timed"
    setups = [] if trace else [setup_probe(workload, seed, size) for _ in range(SETUP_SAMPLES)]
    reps: list[dict] = []
    while True:
        rep = spawn(workload, seed, mode, size)
        reps.append(rep)
        if time.monotonic() - start + rep["process_s"] > seconds:
            break

    attempted, failed, problems = check_outputs(workload, seed, size, reps)
    med = statistics.median
    if trace:
        metrics = per_layer(reps)
        counters = [{k: v for k, v in rep["metrics"].items() if v[1] != "s"} for rep in reps]
        if any(c != counters[0] for c in counters):
            attempted += 1
            failed += 1
            problems.append("traced counters differ between repetitions")
    else:
        # raw wall time is reported in the detail line only: host drift moves
        # it by more than any bound a gate could use (README.md, "Drift")
        metrics = {
            "wall_norm": (med(r["wall_norm"] for r in reps), "kernels"),
            "setup_s": (med(norm for _, norm in setups), "s"),
            "peak_rss_mb": (med(r["peak_rss_mb"] for r in reps), "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": workload, "seed": seed, "trace": int(trace), "size": size,
        "meta": meta, "problems": problems[:20],
        "setup_raw_s": [raw for raw, _ in setups], "setup_s": [norm for _, norm in setups],
        "wall_s": None if trace else med(r["wall_s"] for r in reps),
        "reps": [{k: v for k, v in r.items() if k not in ("metrics", "flagged", "check_spans")}
                 for r in reps],
    }
    if trace:
        detail["check_spans"] = reps[0]["check_spans"]
    return result, detail


def per_layer(reps: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: times are medians over repetitions, counters the first's."""
    out = {}
    for name, (value, unit) in reps[0]["metrics"].items():
        if unit == "s":
            value = statistics.median(rep["metrics"][name][0] for rep in reps)
        out[name] = (value, unit)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="dsolid benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dsolid" / "__init__.py").is_file():
        print(f"error: no dsolid sources under {ROOT / 'src'}; run from a dsolid checkout",
              file=sys.stderr)
        return 2
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

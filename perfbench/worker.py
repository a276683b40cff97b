"""One fresh benchmark process: set up dsolid, run one workload body, print one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED MODE SIZE

MODE is ``setup`` (set up and stop), ``timed`` (body under the drift
interleaver, tracing off) or ``traced`` (body with per-layer spans).  SIZE is
``full`` or ``smoke``.  run.py starts this with ``src`` on PYTHONPATH; the
benchmark's own modules are imported only after set-up is timed.
"""

import sys
import time


def main() -> int:
    workload, seed, mode, size_name = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    # set-up as a user's call pays it: import the CLI (which builds CHECKS)
    # and the axiom registry
    import dsolid
    import dsolid.cli  # noqa: F401
    from dsolid.axioms import default_registry

    default_registry()
    ready_at = time.monotonic()

    import json
    import resource
    import shutil
    from pathlib import Path

    import workloads

    result: dict = {"ready_at": ready_at, "dsolid_file": dsolid.__file__}
    if mode == "setup":
        print(json.dumps(result))
        return 0
    root = Path(__file__).resolve().parent.parent
    size = workloads.SMOKE if size_name == "smoke" else workloads.FULL
    scratch = workloads.fresh_scratch(root)
    try:
        if mode == "timed":
            import drift

            with drift.Interleaver() as probe:
                out = workloads.run_body(workload, seed, size, scratch)
            result.update(wall_s=probe.wall_s(), wall_norm=probe.wall_norm(),
                          kernels=len(probe.samples), kernel_ok=probe.kernel_ok)
        elif mode == "traced":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter()
                out = workloads.run_body(workload, seed, size, scratch)
                wall_s = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            units = tracing.per_layer_units()
            result.update(metrics={k: [v, units[k]] for k, v in tracer.metrics(wall_s).items()},
                          leftovers=tracing.leftovers(),
                          check_spans=tracer.check_spans)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary = workloads.summarise(workload, out)
    if workload in ("surface-large-n", "threefold-large-n"):
        got, want = workloads.light_selection(workload)
        if got != want:
            summary["attempted"] += 1
            summary["failed"] += 1
            summary["problems"].append(f"filters select {got}, workload wants {want}")
    result.update(summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

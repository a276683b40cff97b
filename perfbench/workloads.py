"""The four benchmark workloads.

Each workload body runs once inside a fresh worker process, so every
``lru_cache`` in the engine starts cold, as on a user's command-line call.
A body returns the program's raw outputs; ``summarise`` turns them into the
figures the correctness gate checks.  Sizes were chosen so that one body,
with its calibration kernels and the set-up probes before it, fits the
30-second run of BENCHMARK.json on a 2-vCPU host, and the traced run shows
the layer mix stated in README.md; README.md, "Baseline", has the measured
times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

# The seed whose report digests are frozen in reference.json.
DEFAULT_SEED = 42


@dataclass(frozen=True)
class Size:
    # paper-range: `dsolid verify --range 4..{paper_hi} --instances {paper_instances}`
    paper_hi: int = 10
    paper_instances: int = 24
    # surface-large-n: the single n it runs at
    surface_n: int = 14
    # threefold-large-n: n = threefold_lo..threefold_hi, once per pass.  Its
    # work depends on the seed (3 shuffled table solves per n vary by about
    # 13% each), so each pass uses its own seed and the passes average that out.
    threefold_lo: int = 16
    threefold_hi: int = 18
    threefold_passes: int = 3
    # instance-replay: n = 4..replay_hi, replay_per_n instances each
    replay_hi: int = 12
    replay_per_n: int = 8


FULL = Size()
# Small enough that the self-test's traced runs finish in seconds.
SMOKE = Size(paper_hi=5, paper_instances=1, surface_n=5, threefold_lo=5, threefold_hi=5,
             threefold_passes=2, replay_hi=5, replay_per_n=1)


@dataclass
class Outputs:
    """What one body produced: CLI exit codes and stdout, plus written files."""

    codes: list[int] = field(default_factory=list)
    stdout: list[str] = field(default_factory=list)
    files: list[bytes] = field(default_factory=list)
    expected_n: list[int] = field(default_factory=list)


def _cli(argv: list[str], out: Outputs) -> None:
    from dsolid import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out.codes.append(cli.main(argv))
    out.stdout.append(buf.getvalue())


def _verify_calls(workload: str, seed: int, size: Size) -> list[list[str]]:
    common = ["--seed", str(seed), "--format", "json"]
    if workload == "paper-range":
        # the ROADMAP north-star command, with --instances lowered to fit a run
        return [["verify", "--range", f"4..{size.paper_hi}",
                 "--instances", str(size.paper_instances)] + common]
    if workload == "surface-large-n":
        n = str(size.surface_n)
        return [["verify", "--n", n, "--filter", f] + common for f in ("lattice.*", "systems.*")]
    if workload == "threefold-large-n":
        # every elimination check except the heavy, instance-driven cone-degree;
        # light_selection() guards this glob against new check ids
        ns = f"{size.threefold_lo}..{size.threefold_hi}"
        passes = size.threefold_passes
        return [["verify", "--range", ns, "--filter", f, "--seed", str(seed * passes + k),
                 "--format", "json"]
                for k in range(passes) for f in ("incidence.*", "elimination.[!c]*")]
    raise ValueError(f"unknown workload {workload!r}")


def light_selection(workload: str) -> tuple[list[str], list[str]]:
    """The check ids the filters select, and the ids the workload is meant to run."""
    from dsolid.checks import CHECKS
    from dsolid.report import selected_checks

    prefixes = {"surface-large-n": ("lattice.", "systems."),
                "threefold-large-n": ("incidence.", "elimination.")}[workload]
    filters = {argv[argv.index("--filter") + 1] for argv in _verify_calls(workload, 0, FULL)}
    got = [cid for f in filters for cid in selected_checks(f)]
    want = [cid for cid, spec in CHECKS.items() if cid.startswith(prefixes) and not spec.heavy]
    return sorted(got), sorted(want)


def run_body(workload: str, seed: int, size: Size, scratch: Path) -> Outputs:
    """Run one workload body; the caller times this call and nothing else."""
    out = Outputs()
    if workload == "instance-replay":
        # the `emit-instance --verify-roundtrip` path, repeated in one process
        for n in range(4, size.replay_hi + 1):
            for k in range(size.replay_per_n):
                path = scratch / f"n{n}_{k}.json"
                _cli(["emit-instance", "--n", str(n), "--seed", str(seed * 10000 + n * 100 + k),
                      "--out", str(path), "--verify-roundtrip"], out)
                out.files.append(path.read_bytes() if path.exists() else b"")
                out.expected_n.append(n)
        return out
    for argv in _verify_calls(workload, seed, size):
        _cli(argv, out)
    return out


def summarise(workload: str, out: Outputs) -> dict:
    """Operations attempted and failed, the flagged records and the output digest.

    Operations are check records and instance round-trips.  A failed operation
    is a ``fail`` record (a crashed check is reported as one), a round-trip
    whose exit code or file is wrong, or a verify call that exits non-zero
    without any ``fail`` record to explain it.
    """
    h = hashlib.sha256()
    attempted = failed = 0
    flagged: list[list] = []
    problems: list[str] = []
    if workload == "instance-replay":
        for code, text, blob, n in zip(out.codes, out.stdout, out.files, out.expected_n):
            h.update(blob)
            attempted += 1
            ok = code == 0 and text.startswith(f"wrote instance n={n} ")
            if ok:
                try:
                    ok = json.loads(blob)["n"] == n
                except (ValueError, KeyError, TypeError):
                    ok = False
            if not ok:
                failed += 1
                problems.append(f"round-trip n={n} exit={code}")
    else:
        for code, text in zip(out.codes, out.stdout):
            h.update(text.encode())
            try:
                records = json.loads(text)["checks"]
            except (ValueError, KeyError, TypeError):
                attempted += 1
                failed += 1
                problems.append(f"unreadable report (exit {code})")
                continue
            fails = [r for r in records if r["status"] == "fail"]
            attempted += len(records)
            failed += len(fails)
            problems += [f"fail {r['id']} n={r['n']}" for r in fails]
            flagged += [[r["id"], r["n"]] for r in records if r["status"] == "flagged"]
            if code != 0 and not fails:
                attempted += 1
                failed += 1
                problems.append(f"exit {code} without a fail record")
    return {"attempted": attempted, "failed": failed, "problems": problems[:20],
            "flagged": sorted(flagged), "digest": h.hexdigest()}


def fresh_scratch(root: Path) -> Path:
    """An empty directory for written instances, inside the checkout."""
    path = root / ".bench_build" / "perfbench-scratch"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


WORKLOADS = ("paper-range", "surface-large-n", "threefold-large-n", "instance-replay")

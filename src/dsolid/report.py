"""Report assembly: run selected checks over a range of n and aggregate.

Reports are deterministic functions of (config, seed): no timestamps, no
environment leakage.  Exit-code policy lives in the CLI; here a report is
just data.
"""

from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass, field

from . import __version__
from .axioms import AxiomRegistry, default_registry
from .checks import CHECKS, CheckContext, CheckRecord


@dataclass(frozen=True)
class RunConfig:
    ns: tuple[int, ...]
    filter: str = "*"
    seed: int = 0
    instances: int = 100
    fmt: str = "text"
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if not self.ns:
            raise ValueError("empty n range")
        for n in self.ns:
            if n < 4:
                raise ValueError(f"n must be at least 4, got {n}")
        if self.instances < 1:
            raise ValueError(f"instances must be at least 1, got {self.instances}")
        if self.fmt not in ("json", "text"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if not selected_checks(self.filter):
            raise ValueError(f"filter {self.filter!r} matches no checks")


@dataclass
class Report:
    config: RunConfig
    checks: list[CheckRecord] = field(default_factory=list)
    registry: AxiomRegistry | None = None

    def summary(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "flagged": 0}
        for rec in self.checks:
            out[rec.status] += 1
        return out

    def to_json(self) -> dict:
        return {
            "meta": {
                "n_range": list(self.config.ns),
                "seed": self.config.seed,
                "instances": self.config.instances,
                "filter": self.config.filter,
                "version": __version__,
            },
            "checks": [rec.to_json() for rec in self.checks],
            "axioms": self.registry.consumed_records() if self.registry else [],
            "summary": self.summary(),
        }

    def to_text(self) -> str:
        lines = []
        for rec in self.checks:
            lines.append(f"[{rec.status.upper():7s}] n={rec.n:<3d} {rec.id}")
            if rec.status == "fail":
                lines.append(f"          expected: {rec.expected}")
                lines.append(f"          computed: {rec.computed}")
                if rec.detail:
                    lines.append(f"          detail:   {rec.detail}")
        s = self.summary()
        lines.append(
            f"summary: {s['pass']} pass, {s['fail']} fail, {s['flagged']} flagged"
        )
        if self.registry and self.registry.consumed:
            used = sorted({a for a, _ in self.registry.consumed})
            lines.append("assumptions consumed: " + ", ".join(used))
        return "\n".join(lines)

    @property
    def ok(self) -> bool:
        return self.summary()["fail"] == 0


def selected_checks(pattern: str) -> list[str]:
    return [cid for cid in CHECKS if fnmatch.fnmatch(cid, pattern)]


def run(config: RunConfig, registry: AxiomRegistry | None = None) -> Report:
    """Execute every selected check for every n; never raises on check failure."""
    registry = registry if registry is not None else default_registry()
    ctx = CheckContext(registry=registry, seed=config.seed, instances=config.instances)
    report = Report(config=config, registry=registry)
    ids = selected_checks(config.filter)
    for n in config.ns:
        for cid in ids:
            spec = CHECKS[cid]
            try:
                recs = spec.fn(n, ctx)
            except Exception as exc:  # a crashed check is a failed check
                recs = [
                    CheckRecord(
                        id=cid, n=n, status="fail", expected="no exception",
                        computed=f"{type(exc).__name__}: {exc}", anchor=spec.claim,
                    )
                ]
            report.checks.extend(recs)
            if config.fail_fast and any(r.status == "fail" for r in recs):
                return report
    return report


def render(report: Report) -> str:
    if report.config.fmt == "json":
        return json.dumps(report.to_json(), indent=1, sort_keys=True)
    return report.to_text()

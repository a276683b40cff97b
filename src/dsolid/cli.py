"""Command-line driver: verify, emit-instance, list-checks."""

from __future__ import annotations

import argparse
import functools
import random
import sys

from .checks import CHECKS
from .report import RunConfig, render, run
from .scroll import random_instance, read_instance, write_instance


def _parse_range(spec: str) -> tuple[int, ...]:
    try:
        lo, hi = spec.split("..")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"range must look like A..B, got {spec!r}") from exc
    if hi_i < lo_i:
        raise argparse.ArgumentTypeError(f"empty range {spec!r}")
    return tuple(range(lo_i, hi_i + 1))


# argparse objects form reference cycles; one parser per process keeps
# in-process callers (tests, batch loops) from leaving one to the collector
# per call.  parse_args returns a fresh namespace each time.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dsolid",
        description="exact verification engine for blowup-surface lattices, "
        "cylinder pairing tables, base-locus elimination and scroll quartics",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run checks and emit a report")
    g = v.add_mutually_exclusive_group(required=True)
    g.add_argument("--n", type=int, help="single n (at least 4)")
    g.add_argument("--range", type=_parse_range, dest="nrange", help="inclusive range A..B")
    v.add_argument("--filter", default="*", help="glob over check ids (default: all)")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--instances", type=int, default=100,
                   help="seeded instances per n for the scroll checks")
    v.add_argument("--format", choices=("json", "text"), default="text")
    v.add_argument("--fail-fast", action="store_true")

    e = sub.add_parser("emit-instance", help="write one quartic instance as JSON")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", required=True)
    e.add_argument("--verify-roundtrip", action="store_true",
                   help="reload the file, rebuild f and F from its roots and Q, "
                   "and require the reloaded instance to equal the written one")

    sub.add_parser("list-checks", help="print the stable check ids")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list-checks":
        for cid, spec in CHECKS.items():
            print(f"{cid:35s} {spec.claim}")
        return 0

    if args.command == "verify":
        ns = (args.n,) if args.n is not None else args.nrange
        try:
            config = RunConfig(
                ns=tuple(ns),
                filter=args.filter,
                seed=args.seed,
                instances=args.instances,
                fmt=args.format,
                fail_fast=args.fail_fast,
            )
        except ValueError as exc:
            parser.error(str(exc))  # exits 2
        report = run(config)
        print(render(report))
        return 0 if report.ok else 1

    if args.command == "emit-instance":
        if args.n < 4:
            parser.error(f"n must be at least 4, got {args.n}")
        inst = random_instance(args.n, random.Random(args.seed))
        try:
            write_instance(inst, args.out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
        if args.verify_roundtrip:
            try:
                back = read_instance(args.out)
            except (ValueError, OSError) as exc:  # InstanceError and JSON errors are ValueErrors
                print(f"error: cannot read back {args.out}: {exc}", file=sys.stderr)
                return 1
            if back != inst:
                print("error: round-trip mismatch", file=sys.stderr)
                return 1
        print(f"wrote instance n={args.n} seed={args.seed} to {args.out}")
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())

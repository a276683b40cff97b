"""Registry of assumed rank inputs and anchored pairing data.

Ledger-style operations never bake in a dimension or a surjectivity fact
silently: they must consume it from a registry, and every consumption is
recorded so reports can list exactly which assumptions a run used.
Against an empty registry those operations fail, which the test suite
checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class MissingAxiom(KeyError):
    """A ledger operation required an assumption absent from the registry."""


@dataclass(frozen=True)
class Axiom:
    id: str
    statement: str
    kind: str  # "rank" | "anchor" | "asserted"


@dataclass
class AxiomRegistry:
    axioms: dict[str, Axiom] = field(default_factory=dict)
    consumed: list[tuple[str, str]] = field(default_factory=list)

    def add(self, axiom: Axiom) -> None:
        self.axioms[axiom.id] = axiom

    def consume(self, axiom_id: str, consumer: str) -> Axiom:
        if axiom_id not in self.axioms:
            raise MissingAxiom(
                f"operation {consumer!r} requires assumption {axiom_id!r}, "
                "which is not registered"
            )
        self.consumed.append((axiom_id, consumer))
        return self.axioms[axiom_id]

    def consumed_records(self) -> list[dict]:
        out = []
        for axiom_id, consumer in self.consumed:
            ax = self.axioms[axiom_id]
            out.append(
                {"id": ax.id, "kind": ax.kind, "statement": ax.statement, "consumed_by": consumer}
            )
        return out


_DEFAULTS = [
    Axiom(
        "rank.h0-net-kernel",
        "the net minus the off-pair cycle part on the surface has a one-dimensional section space",
        "rank",
    ),
    Axiom(
        "rank.h1-net-kernel-vanishes",
        "first cohomology of the net kernel class on the surface vanishes",
        "rank",
    ),
    Axiom(
        "rank.h0-net-on-member",
        "the movable net restricted to any smooth pencil member has a 3-dimensional section space",
        "rank",
    ),
    Axiom(
        "rank.restriction-isos",
        "the three section-restriction maps along the exceptional cylinder are isomorphisms "
        "(their degree preconditions are checked mechanically)",
        "rank",
    ),
    Axiom(
        "rank.difference-surjective",
        "the difference map on sections over the normal-crossing restriction divisor is surjective",
        "rank",
    ),
    Axiom(
        "rank.kernel-acyclic",
        "the restriction-kernel bundle has a 1-dimensional section space and no higher cohomology "
        "(the stepwise ruling degree -1 is checked mechanically)",
        "rank",
    ),
    Axiom(
        "rank.structure-sheaf-cohomology",
        "the structure sheaf of the threefold has h0 = 1 and no higher cohomology",
        "rank",
    ),
    Axiom(
        "rank.h2-degree-two-vanishing",
        "second cohomology of the distinguished degree-two twist vanishes",
        "rank",
    ),
    Axiom(
        "axiom.chern-numbers",
        "alpha^3 = 0, alpha^2.c1 = -4, alpha.(c1^2 + c2) = 0, c1.c2 = 24",
        "anchor",
    ),
    Axiom(
        "rank.h0-half-bundle-on-deg-one",
        "the adjusted half bundle restricted to each degree-one divisor has a single section",
        "rank",
    ),
    Axiom(
        "anchor.deg-one-pairings",
        "self-intersections and adjacencies of the cycle components and the auxiliary "
        "(-1)-curves inside the degree-one divisors",
        "anchor",
    ),
    Axiom(
        "assert.ladder-ruled-types",
        "the k-th ladder component is the ruled surface of degree n-k-1; only the component "
        "count and adjacency are derived",
        "asserted",
    ),
    Axiom(
        "assert.deformation-ranks",
        "first-order deformation ranks: 7n-15 for the threefold, 4n-6 for the surface, "
        "(1, 2n-8) for the anticanonical twist",
        "asserted",
    ),
]


def default_registry() -> AxiomRegistry:
    reg = AxiomRegistry()
    for ax in _DEFAULTS:
        reg.add(ax)
    return reg

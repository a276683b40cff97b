"""Base-locus elimination as an explicit blowup state machine.

Stage by stage the machine scans the tracked fiber-cycle curves for
negative degree against the running bundle (zero-degree curves adjacent to
the base propagate), blows up the scanned centers, and updates degrees by
the local rules: subtract one per adjacent center, and replace a center's
degree by degree minus its self-intersection in the tracking surface.
Centers lose adjacency to curves outside their tracking surface after the
blowup.  Two outcomes are read off the scans themselves: that the scan
after stage n-2 is empty (termination), and that every seed-free scanned
component bottoms out at degree -1 (each exceptional divisor enters with
multiplicity one).  Curves are ``incidence.Curve`` tuples throughout;
scans, centers and the trace are sets of them, in no order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .incidence import Curve, PairingTable, adjusted_bundle


# the degrees a stage after the second keeps: none
_NO_DEGREES: MappingProxyType[Curve, int] = MappingProxyType({})


@dataclass(frozen=True)
class StageRecord:
    """One blowup stage: the scanned components, their union as the centers,
    and degrees after the blowup.  Stage 2 keeps every nonzero degree and
    the centers', which ``elimination.stage2`` reads; later stages keep
    none, since no check reads a degree beyond stage 2."""

    stage: int
    components: tuple[frozenset[Curve], ...]
    centers: frozenset[Curve]
    degrees_after: MappingProxyType[Curve, int]


@dataclass(frozen=True)
class NodeFacts:
    """What the machine reads of one tracked curve; fixed for the whole run."""

    # surface in which the curve's successor is tracked if it is blown up
    surface: str
    # the pencil-member half and the cylinder component containing the curve
    sides: tuple[str, str]
    # self-intersection inside the tracking surface
    self_int: int


@dataclass
class BlowupState:
    """Mutable elimination state for a single n."""

    n: int
    stage: int = 1
    degrees: dict[Curve, int] = field(default_factory=dict)
    adjacency: dict[Curve, set[Curve]] = field(default_factory=dict)
    facts: dict[Curve, NodeFacts] = field(default_factory=dict)
    odp_census: dict[str, int] = field(default_factory=dict)


def _initial_state(table: PairingTable) -> BlowupState:
    cx = table.complex
    n = cx.n
    state = BlowupState(n=n)
    l1 = adjusted_bundle(n)
    for i in range(1, n):
        nodes = cx.fiber_cycle(i)
        m = len(nodes)
        for nd in nodes:
            state.degrees[nd] = table.degree(l1, nd)
            state.adjacency[nd] = set()
            state.facts[nd] = _node_facts(table, nd)
        for k in range(m):
            a, b = nodes[k], nodes[(k + 1) % m]
            state.adjacency[a].add(b)
            state.adjacency[b].add(a)
    state.odp_census["initial"] = len(cx.odps)
    return state


def _node_facts(table: PairingTable, c: Curve) -> NodeFacts:
    """The per-curve facts of a fiber-cycle curve, read from the complex and table.

    Chain centers stay tracked inside their degree-one surface (the half
    ``cx.half``); the two isolated seed curves (fiber n-1, component 1) are
    tracked inside the end cylinder component they lie on, the curve's one
    host ``cx.home``.  Inside a degree-one surface the square follows the
    cross rule: it is the table's cell at that component.  A seed inside its
    cylinder component is a section through one blown point, square -1,
    unchanged by repeated blowups along it.
    """
    cx = table.complex
    home = cx.home(c)
    half = cx.half(c)
    surface = home if c[1:] == (cx.n - 1, 1) else half
    self_int = table.value(home, c) if surface.startswith(("Sm", "Sp")) else -1
    return NodeFacts(surface, (half, home), self_int)


def base_curve_scan(state: BlowupState) -> list[frozenset[Curve]]:
    """Connected components of the current base curves.

    Base = negative-degree tracked curves, closed under adjacency through
    zero-degree curves; so each component is what a negative curve reaches
    through curves of degree at most zero.
    """
    degrees, adjacency = state.degrees, state.adjacency
    comps: list[frozenset[Curve]] = []
    seen: set[Curve] = set()
    for nd, d in degrees.items():
        if d >= 0 or nd in seen:
            continue
        comp = {nd}
        stack = [nd]
        while stack:
            for nb in adjacency[stack.pop()]:
                if nb not in comp and degrees[nb] <= 0:
                    comp.add(nb)
                    stack.append(nb)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def blow_up_curves(state: BlowupState, curves: frozenset[Curve]) -> None:
    """Blow up the given centers and update the tracked state in place."""
    stage = state.stage + 1
    centers = frozenset(curves)
    facts = state.facts
    decrements: dict[Curve, int] = {}
    successor_deg: dict[Curve, int] = {}
    # ODPs appear over the nodes of reducible centers: one per adjacent center pair
    inner_total = 0
    for c in centers:
        inner = 0
        for nb in state.adjacency[c]:
            if nb in centers:
                inner += 1
            else:
                decrements[nb] = decrements.get(nb, 0) + 1
        inner_total += inner
        successor_deg[c] = state.degrees[c] - facts[c].self_int - inner
    for nd, dv in decrements.items():
        state.degrees[nd] -= dv
    for c, v in successor_deg.items():
        state.degrees[c] = v
    # sever adjacency across surfaces the successor no longer touches
    for c in centers:
        surf = facts[c].surface
        for nb in list(state.adjacency[c]):
            if surf not in facts[nb].sides:
                state.adjacency[c].discard(nb)
                state.adjacency[nb].discard(c)
    state.stage = stage
    state.odp_census[f"stage{stage}"] = inner_total // 2


@dataclass(frozen=True)
class EliminationTrace:
    stages: tuple[StageRecord, ...]
    odp_census: MappingProxyType[str, int]
    # whether every seed-free component of every stage's scan had minimum
    # degree -1 when scanned
    multiplicity_one: bool
    # the scan after stage n-2, empty when the machine terminates
    final_scan: tuple[frozenset[Curve], ...]


def run_elimination(table: PairingTable) -> EliminationTrace:
    """Run the full elimination on a completed pairing table.

    Stages 2..n-2 each scan the base curves and blow up every curve of the
    scan; the trace keeps each stage's scanned components and centers, and
    stage 2's degrees, read-only since every check of one n shares it.  The
    checks count what they compare from the components and centers, and
    read degrees at stage 2 only.  The scan after stage n-2 is kept as
    it is, so a machine that does not terminate leaves a non-empty
    ``final_scan``.

    What the stages read of a curve but never change (its tracking
    surface, sides and self-intersection) is computed once per run, as the
    state's ``NodeFacts``; the initial degrees are the adjusted bundle's
    ``table.degree`` on each tracked curve.
    """
    state = _initial_state(table)
    n = state.n
    seeds = (("C", n - 1, 1), ("Cb", n - 1, 1))
    stages: list[StageRecord] = []
    degree = state.degrees.__getitem__
    mult_one = True
    for stage in range(2, n - 1):
        comps = base_curve_scan(state)
        # an exceptional divisor enters with multiplicity one when its
        # component bottoms out at -1.  The seeds are left out: they are
        # scanned at 3-n and climb by one per stage, and their multiplicity
        # rests on the ladder's ruled types (assert.ladder-ruled-types).
        mult_one = mult_one and all(
            min(map(degree, comp)) == -1 for comp in comps if comp.isdisjoint(seeds)
        )
        centers = frozenset().union(*comps)
        blow_up_curves(state, centers)
        after = _NO_DEGREES
        if stage == 2:
            after = MappingProxyType({k: v for k, v in state.degrees.items() if v != 0 or k in centers})
        stages.append(StageRecord(stage, tuple(comps), centers, after))
    final = tuple(base_curve_scan(state))
    return EliminationTrace(tuple(stages), MappingProxyType(state.odp_census), mult_one, final)


@dataclass(frozen=True)
class TwistorLineDegrees:
    initial: int
    formula_value: int
    decrement_stages: tuple[int, ...]
    final: int


def twistor_line_degree(table: PairingTable, trace: EliminationTrace, i: int) -> TwistorLineDegrees:
    """Degree bookkeeping of the i-th fixed line under the elimination.

    The initial degree comes from the completed pairing table; the degree
    drops by two at each stage of the trace whose centers contain the
    diagonal curve C[i,i] of fiber i.  The closed formula 2(i-1) misses
    the first line, whose computed initial degree is 2; the mismatch is
    surfaced, never forced.
    """
    n = table.complex.n
    if not 1 <= i < n - 1:
        raise ValueError(f"line index {i} must satisfy 1 <= i < n-1 (the end line splits)")
    l1 = adjusted_bundle(n)
    initial = table.degree(l1, ("L", i))
    decrement_stages = tuple(s.stage for s in trace.stages if ("C", i, i) in s.centers)
    final = initial - 2 * len(decrement_stages)
    return TwistorLineDegrees(
        initial=initial,
        formula_value=2 * (i - 1),
        decrement_stages=decrement_stages,
        final=final,
    )

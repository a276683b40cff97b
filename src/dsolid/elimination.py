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
multiplicity one).  The machine runs on dense node ids: ``_initial_state``
numbers the tracked curves once, and the state, the scans and the centers
hold ints.  Only the trace names ``incidence.Curve`` tuples; its scans and
centers are sets of them, in no order.
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


@dataclass
class BlowupState:
    """Mutable elimination state for a single n, on dense node ids.

    Node k is the curve ``nodes[k]``, and every list is indexed by node id.
    ``degrees`` and ``adjacency`` change stage by stage.  The rest is fixed
    for the whole run: the surface in which a node's successor is tracked
    if it is blown up, its sides (the pencil-member half and the cylinder
    component containing it), both as ids of interned surface names, and
    its self-intersection inside the tracking surface.
    """

    n: int
    nodes: list[Curve]
    degrees: list[int]
    adjacency: list[set[int]]
    surface: list[int]
    sides: list[tuple[int, int]]
    self_int: list[int]
    stage: int = 1
    odp_census: dict[str, int] = field(default_factory=dict)


def _initial_state(table: PairingTable) -> BlowupState:
    """Number the curves of each fiber cycle, in ``fiber_cycle`` order, and
    read what the machine needs of each one once.

    Chain centers stay tracked inside their degree-one surface (the half
    ``cx.half``); the two isolated seed curves (fiber n-1, component 1) are
    tracked inside the end cylinder component they lie on, the curve's one
    host ``cx.home``.  Inside a degree-one surface the square follows the
    cross rule: it is the table's cell at that component.  A seed inside its
    cylinder component is a section through one blown point, square -1,
    unchanged by repeated blowups along it.  The initial degrees are the
    adjusted bundle's, evaluated once per distinct table row.
    """
    cx = table.complex
    n = cx.n
    nodes: list[Curve] = []
    adjacency: list[set[int]] = []
    for i in range(1, n):
        cycle = cx.fiber_cycle(i)
        base, m = len(nodes), len(cycle)
        nodes += cycle
        adjacency += [{base + (k - 1) % m, base + (k + 1) % m} for k in range(m)]
    homes, halves = list(map(cx.home, nodes)), list(map(cx.half, nodes))
    ids = {name: k for k, name in enumerate(dict.fromkeys(halves + homes))}
    seeds = {("C", n - 1, 1), ("Cb", n - 1, 1)}
    surface = [ids[home if c in seeds else half] for c, half, home in zip(nodes, halves, homes)]
    sides = [(ids[half], ids[home]) for half, home in zip(halves, homes)]
    self_int = [-1 if c in seeds else table.value(home, c) for c, home in zip(nodes, homes)]
    degrees = table.degrees_on(adjusted_bundle(n), nodes)
    state = BlowupState(n, nodes, degrees, adjacency, surface, sides, self_int)
    state.odp_census["initial"] = len(cx.odps)
    return state


def base_curve_scan(state: BlowupState) -> list[frozenset[int]]:
    """Connected components of the current base curves, as node ids.

    Base = negative-degree tracked curves, closed under adjacency through
    zero-degree curves; so each component is what a negative curve reaches
    through curves of degree at most zero.  Components come in the order
    of their lowest negative node.
    """
    degrees, adjacency = state.degrees, state.adjacency
    comps: list[frozenset[int]] = []
    seen: set[int] = set()
    for nd in [k for k, d in enumerate(degrees) if d < 0]:
        if nd in seen:
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


def blow_up_curves(state: BlowupState, curves: frozenset[int]) -> None:
    """Blow up the given centers (node ids) and update the tracked state in place.

    Only curves outside the centers lose one per adjacent center, so each
    center's own new degree reads its degree before the blowup.  Whether
    a center's edge is severed depends only on fixed facts, so the edges
    are collected in the same pass and severed after it.
    """
    stage = state.stage + 1
    centers = frozenset(curves)
    degrees, adjacency = state.degrees, state.adjacency
    self_int, surface, sides = state.self_int, state.surface, state.sides
    # ODPs appear over the nodes of reducible centers: one per adjacent center pair
    inner_total = 0
    # edges across surfaces the successor no longer touches
    severed = []
    for c in centers:
        inner = 0
        surf = surface[c]
        for nb in adjacency[c]:
            if nb in centers:
                inner += 1
            else:
                degrees[nb] -= 1
            if surf not in sides[nb]:
                severed.append((c, nb))
        inner_total += inner
        degrees[c] -= self_int[c] + inner
    for c, nb in severed:
        adjacency[c].discard(nb)
        adjacency[nb].discard(c)
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

    The stages run on the node ids of ``_initial_state``; components,
    centers and degrees are named by their curves only as the trace keeps
    them.
    """
    state = _initial_state(table)
    n, nodes, degrees = state.n, state.nodes, state.degrees
    curve = nodes.__getitem__
    seeds = {nodes.index(("C", n - 1, 1)), nodes.index(("Cb", n - 1, 1))}
    stages: list[StageRecord] = []
    mult_one = True
    for stage in range(2, n - 1):
        comps = base_curve_scan(state)
        # an exceptional divisor enters with multiplicity one when its
        # component bottoms out at -1.  The seeds are left out: they are
        # scanned at 3-n and climb by one per stage, and their multiplicity
        # rests on the ladder's ruled types (assert.ladder-ruled-types).
        mult_one = mult_one and all(
            min(map(degrees.__getitem__, comp)) == -1 for comp in comps if comp.isdisjoint(seeds)
        )
        centers = frozenset().union(*comps)
        blow_up_curves(state, centers)
        after = _NO_DEGREES
        if stage == 2:
            after = MappingProxyType({curve(k): v for k, v in enumerate(degrees) if v != 0 or k in centers})
        named = tuple(frozenset(map(curve, comp)) for comp in comps)
        stages.append(StageRecord(stage, named, frozenset().union(*named), after))
    final = tuple(frozenset(map(curve, comp)) for comp in base_curve_scan(state))
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

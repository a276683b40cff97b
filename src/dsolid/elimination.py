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
numbers the tracked curves once, reading their surfaces from the complex's
per-fiber and per-component names, and the state, the scans and the
centers hold ints.  The trace keeps only what the checks compare, counted
after each blowup: every stage's named scan and centers would be about
2n³/3 curve entries that the checks only counted again.  Only stage 2's
degrees and the final scan name ``incidence.Curve`` tuples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType

from .incidence import Curve, PairingTable, adjusted_bundle


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
    read what the machine needs of each one from the complex's per-component
    and per-fiber names (``cx.cylinder_index``), not curve by curve.

    A cycle starts at C[i,1] and changes half only at its two
    small-resolution curves: the arcs before D[i] and after Db[i] lie on
    C[i,1]'s half, the arc between them on Cb[i,1]'s.  A section's home is
    read at its component, a resolution curve's at its fiber.  Chain centers
    stay tracked inside their degree-one surface (the half); the two
    isolated seed curves (fiber n-1, component 1) are tracked inside the
    end cylinder component they lie on, their home.  Inside a degree-one
    surface the square follows the cross rule: it is the table's cell at
    that component.  A seed inside its cylinder component is a section
    through one blown point, square -1, unchanged by repeated blowups along
    it.  The initial degrees are the adjusted bundle's, evaluated once per
    distinct table row.
    """
    cx = table.complex
    n = cx.n
    index = cx.cylinder_index
    homes, halves = index.homes, index.halves
    ids = {name: k for k, name in enumerate(dict.fromkeys(
        name for names in (*halves.values(), *homes.values()) for name in names))}
    nodes: list[Curve] = []
    home_names: list[str] = []
    half_ids: list[int] = []
    adjacency: list[set[int]] = []
    for i in range(1, n):
        cycle = cx.fiber_cycle(i)
        base, m = len(nodes), len(cycle)
        d, db = cycle.index(("D", i)), cycle.index(("Db", i))
        outer, inner, hd, hdb = (ids[halves[kind][i - 1]] for kind in ("C", "Cb", "D", "Db"))
        half_ids += [outer] * d + [hd] + [inner] * (db - d - 1) + [hdb] + [outer] * (m - db - 1)
        home_names += [homes[c[0]][c[-1] - 1] for c in cycle]
        nodes += cycle
        adjacency += [{base + (k - 1) % m, base + (k + 1) % m} for k in range(m)]
    sides = list(zip(half_ids, map(ids.__getitem__, home_names)))
    self_int = list(map(table.value, home_names, nodes))
    surface = half_ids  # every node's half, but a seed's home
    for seed in (("C", n - 1, 1), ("Cb", n - 1, 1)):
        k = nodes.index(seed)
        surface[k] = sides[k][1]
        self_int[k] = -1
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
    """What the checks read of one run, O(n²) entries in all; read-only,
    since every check of one n shares it."""

    # the number of scanned components at stages 2, 3, .., n-2
    component_counts: tuple[int, ...]
    # fiber i -> the number of ("C", i, .) centers at each stage that has any
    family_counts: MappingProxyType[int, tuple[int, ...]]
    # the stages whose centers hold the isolated seed ("C", n-1, 1)
    seed_stages: tuple[int, ...]
    # i -> the stages whose centers hold the diagonal ("C", i, i), i = 1..n-2
    diagonal_stages: MappingProxyType[int, tuple[int, ...]]
    # the degrees after the stage-2 blowup that are nonzero or a center's
    stage2_degrees: MappingProxyType[Curve, int]
    odp_census: MappingProxyType[str, int]
    # whether every seed-free component of every stage's scan had minimum
    # degree -1 when scanned
    multiplicity_one: bool
    # the scan after stage n-2, empty when the machine terminates
    final_scan: tuple[frozenset[Curve], ...]


def run_elimination(table: PairingTable) -> EliminationTrace:
    """Run the full elimination on a completed pairing table.

    Stages 2..n-2 each scan the base curves and blow up every curve of the
    scan.  After each blowup the stage's counts go into the trace: its
    number of components, its ``("C", i, .)`` centers per fiber, and
    whether the seed and each diagonal were centers; only stage 2 keeps
    degrees.  The scan after stage n-2 is kept as it is, named, so a
    machine that does not terminate leaves a non-empty ``final_scan``.
    """
    state = _initial_state(table)
    n, nodes, degrees = state.n, state.nodes, state.degrees
    seed = nodes.index(("C", n - 1, 1))
    seeds = {seed, nodes.index(("Cb", n - 1, 1))}
    diagonals = {c[1]: k for k, c in enumerate(nodes) if c[0] == "C" and c[1] == c[2] < n - 1}
    # the fiber of each ("C", i, j) node; 0, which no fiber is, for the rest
    c_fiber = [c[1] if c[0] == "C" else 0 for c in nodes]
    counts: list[int] = []
    families: dict[int, list[int]] = {i: [] for i in range(n)}
    blown: dict[int, list[int]] = {k: [] for k in (seed, *diagonals.values())}
    stage2: dict[Curve, int] = {}
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
        counts.append(len(comps))
        for i, k in Counter(map(c_fiber.__getitem__, centers)).items():
            families[i].append(k)
        for k, stages in blown.items():
            if k in centers:
                stages.append(stage)
        if stage == 2:
            stage2 = {nodes[k]: v for k, v in enumerate(degrees) if v != 0 or k in centers}
    final = tuple(frozenset(map(nodes.__getitem__, comp)) for comp in base_curve_scan(state))
    return EliminationTrace(
        tuple(counts), MappingProxyType({i: tuple(ks) for i, ks in families.items() if i and ks}),
        tuple(blown[seed]), MappingProxyType({i: tuple(blown[k]) for i, k in diagonals.items()}),
        MappingProxyType(stage2), MappingProxyType(state.odp_census), mult_one, final,
    )


@dataclass(frozen=True)
class TwistorLineDegrees:
    initial: int
    formula_value: int
    decrement_stages: tuple[int, ...]
    final: int


def twistor_line_degree(table: PairingTable, trace: EliminationTrace, i: int) -> TwistorLineDegrees:
    """Degree bookkeeping of the i-th fixed line under the elimination.

    The initial degree comes from the completed pairing table; the degree
    drops by two at each stage at which the trace saw the diagonal curve
    C[i,i] of fiber i among the centers.  The closed formula 2(i-1) misses
    the first line, whose computed initial degree is 2; the mismatch is
    surfaced, never forced.
    """
    n = table.complex.n
    if not 1 <= i < n - 1:
        raise ValueError(f"line index {i} must satisfy 1 <= i < n-1 (the end line splits)")
    l1 = adjusted_bundle(n)
    initial = table.degree(l1, ("L", i))
    decrement_stages = trace.diagonal_stages[i]
    final = initial - 2 * len(decrement_stages)
    return TwistorLineDegrees(
        initial=initial,
        formula_value=2 * (i - 1),
        decrement_stages=decrement_stages,
        final=final,
    )

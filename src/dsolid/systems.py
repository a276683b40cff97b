"""Linear-system arithmetic on the blown-up surface S.

Riemann-Roch, greedy fixed-component stripping against the anticanonical
cycle, the movable-part invariants of the (n-2)-fold anticanonical system,
and the restriction table of the distinguished non-real half-bundle.  The
stripping fixpoint is order-independent (verified by the test suite, not
assumed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .lattice import BlowupTower, DivisorClass, LatticeError, anticanonical_cycle_check


class StrippingDivergence(RuntimeError):
    """The negative-pairing fixpoint exceeded its multiplicity cap."""


@dataclass(frozen=True)
class StrippingResult:
    """Fixed multiplicities per cycle component plus the movable remainder."""

    fixed: dict[str, int]
    movable: DivisorClass

    def fixed_nonzero(self) -> dict[str, int]:
        return {k: v for k, v in self.fixed.items() if v}


@dataclass(frozen=True)
class HalfClass:
    """A class known to be divisible by two, together with its exact half."""

    double: DivisorClass
    half: DivisorClass

    def __post_init__(self) -> None:
        if self.half.scale(2) != self.double:
            raise LatticeError("half does not double to the stated class")

    @staticmethod
    def of(double: DivisorClass) -> "HalfClass":
        if any(c % 2 for c in double.coeffs):
            raise LatticeError("class is not divisible by two")
        return HalfClass(double, DivisorClass(double.basis, tuple(c // 2 for c in double.coeffs)))


def riemann_roch(tower: BlowupTower, cls: DivisorClass) -> int:
    """Euler characteristic 1 + (L.L - L.K)/2 of a line bundle class."""
    k = tower.canonical
    q = cls.dot(cls) - cls.dot(k)
    if q % 2:
        raise LatticeError("L.L - L.K is odd: class is not integral for this surface")
    return 1 + q // 2


def strip_fixed_components(
    cls: DivisorClass,
    tower: BlowupTower,
    order: list[str] | None = None,
) -> StrippingResult:
    """Greedy negative-pairing fixpoint against the tower's cycle components.

    While some component pairs negatively with the running class, add one
    copy of it to the fixed part and subtract; the first name in ``order``
    that pairs negatively is the one hit.  A per-component multiplicity cap
    of ``4 * (len(components)/2 + 1)`` guards against divergent inputs.

    Only the pairings of the running class with the components are ever
    read, so they are kept as an integer vector: it starts as ``cls.c`` and
    a strip of component ``c`` subtracts the Gram row ``c.c'``, which for
    the cycle is nonzero only at ``c`` and its two neighbours.  The rows are
    the tower's ``cycle_gram``, paired once per tower; ``order`` only maps
    each name to its row there.  The core starts once that vector and the
    re-indexed rows are set up: ``_strip_pairings`` runs the loop on them
    alone, and ``confluence_orders`` calls it directly on its shuffles.
    The movable class is formed once, at the end, from the sparse support
    of each stripped component.

    ``order`` only changes the selection sequence, not the fixpoint, as
    long as distinct components pair non-negatively (true for the cycle).
    This is the minimality of the negative part of a Zariski decomposition
    (Bauer, J. Algebraic Geom. 18, 2009): let ``y >= 0`` be any multiplicity
    vector whose remainder ``cls - y`` pairs non-negatively with every
    component.  A run that has stripped ``x <= y`` and now hits ``c`` cannot
    have ``x_c = y_c``, since then ``(cls - y).c <= (cls - x).c < 0``; so
    every run stays below every such ``y``.  A finished run is itself such a
    ``y``, hence any two finished runs agree, and if one run finishes no
    run diverges.  The test suite also checks this under random orders.
    """
    components = tower.cycle_classes()
    names = order if order is not None else sorted(components)
    if set(names) != set(components):
        raise LatticeError("order must be a permutation of the component names")
    # a repeated name is never reached again before its first occurrence
    keys = list(dict.fromkeys(names))
    # each key's Gram row, re-indexed from tower positions to key positions
    row_of = {nm: p for p, nm in enumerate(components)}
    slot = {row_of[nm]: p for p, nm in enumerate(keys)}
    rows = tower.cycle_gram
    gram = [[(slot[q], g) for q, g in rows[row_of[nm]]] for nm in keys]
    mult = _strip_pairings(keys, [components[nm].dot(cls) for nm in keys], gram)
    fixed = {nm: 0 for nm in components}
    fixed.update(zip(keys, mult))
    return StrippingResult(fixed, _movable(cls, [components[nm] for nm in keys], mult))


def _strip_pairings(keys: list[str], pairing: list[int], gram: list[list[tuple[int, int]]]) -> list[int]:
    """The negative-pairing loop: the multiplicity stripped of each key.

    ``pairing[p]`` is the class paired with component ``keys[p]``, and
    ``gram[p]`` that component's sparse Gram row in key positions; the
    lowest negative position is hit first.  ``pairing`` is used up.
    """
    cap = 4 * (len(keys) // 2 + 1)
    negative = {p for p, v in enumerate(pairing) if v < 0}
    mult = [0] * len(keys)
    while negative:
        hit = min(negative)
        mult[hit] += 1
        if mult[hit] > cap:
            raise StrippingDivergence(
                f"component {keys[hit]} stripped more than {cap} times; "
                "input is not bounded below"
            )
        for q, g in gram[hit]:
            v = pairing[q] - g
            pairing[q] = v
            if v < 0:
                negative.add(q)
            else:
                negative.discard(q)
    return mult


def _movable(cls: DivisorClass, components: list[DivisorClass], mult: list[int]) -> DivisorClass:
    """``cls`` minus each component times its multiplicity, from sparse supports."""
    movable = list(cls.coeffs)
    for c, f in zip(components, mult):
        if f:
            for i, a in c.support:
                movable[i] -= f * a
    return DivisorClass(cls.basis, tuple(movable))


def fixed_multiplicity(n: int, j: int) -> int:
    """Multiplicity of C_j (and of Cb_j) in the fixed part of the (n-2)-fold
    anticanonical system: n-3 on C1, n-1-j on C_j for j >= 2 (0 on C_{n-1})."""
    return n - 3 if j == 1 else n - 1 - j


def anticanonical_fixed_part(tower: BlowupTower) -> dict[str, int]:
    """Expected fixed multiplicities of the (n-2)-fold anticanonical system."""
    n = tower.n
    return {f"{kind}{j}": fixed_multiplicity(n, j) for kind in ("C", "Cb") for j in range(1, n)}


def pluri_anticanonical_stripping(tower: BlowupTower) -> StrippingResult:
    return strip_fixed_components((-tower.canonical).scale(tower.n - 2), tower)


def small_multiples_square_zero(tower: BlowupTower) -> bool:
    """Whether the movable part of |-mK| has square zero for every m < n - 2.

    One stripping decides it when the cycle components sum to -K
    (``anticanonical_cycle_check``) and the stripping of -(n-3)K returns
    multiplicity n - 3 on every component and a zero movable class: then
    every movable part is zero.  Otherwise each m is stripped in turn, so a
    failing case still fails.

    Proof.  Write V(D) for the vectors y >= 0 with (D - sum y_c c).c' >= 0
    for every component c'.  A finished stripping of D lies in V(D) and
    below every element of it (the minimality argument in
    ``strip_fixed_components``), so it is the least element x*(D); and a
    stripping whose V(D) holds a vector below the multiplicity cap does not
    diverge.  If -K = sum c, the remainders of y against -mK and of y + 1
    against -(m+1)K are equal, so y is in V(-mK) exactly when y + 1 is in
    V(-(m+1)K).  Let x*(-(m+1)K) = (m+1)1, all entries at least 1.  Then m1
    is in V(-mK), so x*(-mK) <= m1 (and the stripping of -mK finishes, as
    n - 3 is below the cap); and x*(-mK) + 1 is in V(-(m+1)K), so
    (m+1)1 <= x*(-mK) + 1.  Hence x*(-mK) = m1, whose remainder
    m(-K - sum c) is zero.  Down from m = n - 3, every m < n - 2 has a zero
    movable part, of square zero.
    """
    top = tower.n - 3
    if anticanonical_cycle_check(tower):
        res = strip_fixed_components((-tower.canonical).scale(top), tower)
        if set(res.fixed.values()) == {top} and not any(res.movable.coeffs):
            return True
    for m in range(tower.n - 2):
        mov = strip_fixed_components((-tower.canonical).scale(m), tower).movable
        if mov.dot(mov) != 0:
            return False
    return True


def confluence_orders(tower: BlowupTower, shuffles: int, seed: int, ref: StrippingResult) -> bool:
    """Re-run the pluri-anticanonical stripping under random orders; all agree.

    ``ref`` is the stripping in the default order; each run must give its
    fixed multiplicities and its movable class.  The class is paired with
    the components once, in tower order.  A shuffle only permutes that
    vector and the tower's Gram rows, then runs the stripping loop of
    ``strip_fixed_components`` on them.
    """
    rng = random.Random(seed)
    components = tower.cycle_classes()
    names = list(components)
    comps = list(components.values())
    cls = (-tower.canonical).scale(tower.n - 2)
    pairing = [c.dot(cls) for c in comps]
    rows = tower.cycle_gram
    for _ in range(shuffles):
        order = list(range(len(names)))
        rng.shuffle(order)
        slot = {p: k for k, p in enumerate(order)}
        gram = [[(slot[q], g) for q, g in rows[p]] for p in order]
        keys = [names[p] for p in order]
        mult = _strip_pairings(keys, [pairing[p] for p in order], gram)
        if dict(zip(keys, mult)) != ref.fixed:
            return False
        if _movable(cls, [comps[p] for p in order], mult) != ref.movable:
            return False
    return True


@dataclass(frozen=True)
class MovableInvariants:
    square: int
    degree_on_c2: int
    arithmetic_genus: int
    component_degrees: tuple[int, ...]


def movable_invariants(tower: BlowupTower, stripping: StrippingResult) -> MovableInvariants:
    """Numerical invariants of the movable part of the (n-2)-fold system.

    ``stripping`` is that system's stripping.
    """
    mov = stripping.movable
    k = tower.canonical
    square = mov.dot(mov)
    pa = 1 + Fraction(square + mov.dot(k), 2)
    if pa.denominator != 1:
        raise RuntimeError(f"arithmetic genus {pa} of the movable part is not an integer")
    degs = tuple(mov.dot(tower.tracked[f"C{i}"]) for i in range(1, tower.n))
    return MovableInvariants(square, mov.dot(tower.tracked["C2"]), int(pa), degs)


def alpha_restriction(tower: BlowupTower, j: int) -> DivisorClass:
    """Restriction to S of the j-th degree-two generator: e_j - eb_j."""
    return tower.basis.unit(f"e{j}") - tower.basis.unit(f"eb{j}")


def half_bundle_on_surface(tower: BlowupTower) -> HalfClass:
    """The distinguished non-real half of the (n-2)-fold system, restricted to S.

    Its double is (n-2)(-K) minus the weighted alpha combination with
    weight n-2 on the first generator and n-4 on all others.
    """
    n = tower.n
    alpha = tower.basis.zero()
    for j in range(1, n + 1):
        w = n - 2 if j == 1 else n - 4
        alpha = alpha + alpha_restriction(tower, j).scale(w)
    double = (-tower.canonical).scale(n - 2) - alpha
    return HalfClass.of(double)


def m_restriction_table(tower: BlowupTower, half: HalfClass) -> dict[str, int]:
    """Degrees of the half-bundle on every cycle component.

    ``half`` is the tower's ``half_bundle_on_surface``.  Expected:
    -(n-2)(n-3) on C1, 0 on middle C_i, 1 on C_{n-1}; 0 on barred
    components except n-3 on Cb_{n-1}.
    """
    return {nm: half.half.dot(c) for nm, c in tower.cycle_classes().items()}


def expected_m_restrictions(n: int) -> dict[str, int]:
    out = {}
    for i in range(1, n):
        out[f"C{i}"] = -(n - 2) * (n - 3) if i == 1 else (1 if i == n - 1 else 0)
        out[f"Cb{i}"] = n - 3 if i == n - 1 else 0
    return out


def half_bundle_fixed_part(tower: BlowupTower, half: HalfClass) -> StrippingResult:
    """Stripping fixpoint of the half-bundle restriction ``half``."""
    return strip_fixed_components(half.half, tower)


def expected_half_bundle_fixed(n: int) -> dict[str, int]:
    """Lower bound for the half-bundle fixed part: unbarred components only."""
    return {f"C{j}": fixed_multiplicity(n, j) for j in range(1, n - 1)}


def degree_one_restriction(tower: BlowupTower, i: int) -> HalfClass:
    """Class on S cut by the i-th degree-one divisor containing C1.

    Computed as half of -K minus the signed alpha sum whose single flipped
    sign sits at position n-i+1 (all plus signs for i = n-1).  -K is 2 on
    H1, H2 and -1 on every e_j, eb_j, so subtracting eps_j (e_j - eb_j)
    leaves -1-eps_j on e_j and -1+eps_j on eb_j.
    """
    n = tower.n
    if not 1 <= i <= n - 1:
        raise LatticeError(f"index {i} outside 1..{n-1}")
    coeff = {"H1": 2, "H2": 2}
    for j in range(1, n + 1):
        eps = -1 if (i <= n - 2 and j == n - i + 1) else 1
        coeff[f"e{j}"], coeff[f"eb{j}"] = -1 - eps, -1 + eps
    return HalfClass.of(DivisorClass(tower.basis, tuple(coeff[nm] for nm in tower.basis.names)))


def half_cycle_matches(tower: BlowupTower) -> dict[int, tuple[str, ...]]:
    """Match every degree-one class (i = 1..n-1) against a contiguous half of the cycle.

    Maps each i to its matching arc, or to ``()`` when there is none.  The
    candidates are the proper arcs, of length 1..m-1 from every start of the
    m-cycle; the match is the first one through C1, by start and then by
    length, and no orientation is guessed.  With prefix sums P over the
    cycle read twice, the arc of length l from start s has class
    P[s+l] - P[s], so each start needs one lookup of P[s] + target.
    """
    names = tower.cycle_names()
    m = len(names)
    prefix = [tower.basis.zero()]
    for nm in names + names:
        prefix.append(prefix[-1] + tower.tracked[nm])
    ends: dict[tuple[int, ...], list[int]] = {}
    for j, p in enumerate(prefix):
        ends.setdefault(p.coeffs, []).append(j)
    c1 = names.index("C1")

    def first_arc(target: DivisorClass) -> tuple[str, ...]:
        for s in range(m):
            for j in ends.get((prefix[s] + target).coeffs, ()):
                if s < j < s + m and (c1 - s) % m < j - s:
                    return tuple(names[k % m] for k in range(s, j))
        return ()

    return {i: first_arc(degree_one_restriction(tower, i).half) for i in range(1, tower.n)}

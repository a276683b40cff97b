"""Picard-lattice arithmetic for iterated point blowups of the quadric surface.

The central object is the rational surface S obtained from P1 x P1 by 2n
blowups: six points on a fixed reducible (2,2)-cycle, then two towers of
iterated blowups of length n-3 at the two free corners of the cycle.  All
curve classes are integer vectors over the fixed basis

    H1, H2, e1..en, eb1..ebn

with the hyperbolic form on the H's and an orthonormal (-1) block on the
exceptional classes.  Everything here is immutable and pure; towers for
distinct n can be built and shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property


class LatticeError(ValueError):
    """Raised on basis mismatches or malformed lattice input."""


@dataclass(frozen=True)
class LatticeBasis:
    """Ordered basis symbols together with a symmetric integer pairing matrix."""

    names: tuple[str, ...]
    form: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        m = len(self.names)
        if len(self.form) != m or any(len(r) != m for r in self.form):
            raise LatticeError("form shape does not match basis")
        for i in range(m):
            for j in range(m):
                if self.form[i][j] != self.form[j][i]:
                    raise LatticeError("form is not symmetric")

    @property
    def rank(self) -> int:
        return len(self.names)

    @cached_property
    def sparse_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero ``(column, entry)`` pairs of each row of the form."""
        return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in self.form)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError as exc:
            raise LatticeError(f"unknown basis symbol {name!r}") from exc

    def unit(self, name: str) -> "DivisorClass":
        v = [0] * self.rank
        v[self.index(name)] = 1
        return DivisorClass(self, tuple(v))

    def zero(self) -> "DivisorClass":
        return DivisorClass(self, (0,) * self.rank)

    def combo(self, **coeffs: int) -> "DivisorClass":
        v = [0] * self.rank
        for name, c in coeffs.items():
            v[self.index(name)] += c
        return DivisorClass(self, tuple(v))

    def leading_minors(self) -> list[int]:
        """Exact determinant of every leading r-block of the form, r = 1..rank.

        One Bareiss elimination over Z (Bareiss, Math. Comp. 22, 1968).  After
        step k every remaining entry is a (k+1)-minor of the row-permuted form,
        so each division by the previous pivot is exact, and the pivot of step
        k is the leading (k+1)-minor of the row-permuted form.  ``reach`` is
        the largest row index a pivot search has swapped in so far.  While
        ``reach <= k`` the first k+1 rows are the original rows 0..k, permuted
        by the swaps so far, so that block's determinant is ``sign * pivot``.
        Once a search at step j swaps in a row ``piv``, the rows j..piv-1 it
        passed over are zero in column j after elimination by the rows above,
        so every block of a size r with j < r <= piv has a column that is zero
        below row j, and is singular: the block is 0 whenever ``reach > k``.
        A column with no pivot at all makes its block and every later one
        singular.  The last entry is the determinant of the whole form.
        """
        m = self.rank
        rows = [dict(r) for r in self.sparse_rows]
        sign, prev, reach = 1, 1, 0
        minors: list[int] = []
        for k in range(m):
            piv = next((r for r in range(k, m) if rows[r].get(k)), None)
            if piv is None:
                return minors + [0] * (m - k)
            if piv != k:
                rows[k], rows[piv] = rows[piv], rows[k]
                sign = -sign
                reach = max(reach, piv)
            top = rows[k]
            p = top[k]
            for r in range(k + 1, m):
                row = rows[r]
                f = row.pop(k, 0)
                if f:
                    acc = {j: p * x for j, x in row.items()}
                    for j, x in top.items():
                        if j != k:
                            acc[j] = acc.get(j, 0) - f * x
                    rows[r] = {j: x // prev for j, x in acc.items() if x}
                elif p != prev:
                    rows[r] = {j: p * x // prev for j, x in row.items()}
            prev = p
            minors.append(0 if reach > k else sign * p)
        return minors


@dataclass(frozen=True)
class DivisorClass:
    """Integer vector over a LatticeBasis; addition and pairing are exact."""

    basis: LatticeBasis
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.basis.rank:
            raise LatticeError("coefficient length does not match basis rank")

    def _same(self, other: "DivisorClass") -> None:
        if self.basis is other.basis:
            return
        if self.basis.names != other.basis.names or self.basis.form != other.basis.form:
            raise LatticeError("divisor classes live in different lattices")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._same(other)
        return DivisorClass(self.basis, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._same(other)
        return DivisorClass(self.basis, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.basis, tuple(-a for a in self.coeffs))

    def scale(self, c: int) -> "DivisorClass":
        return DivisorClass(self.basis, tuple(c * a for a in self.coeffs))

    @cached_property
    def support(self) -> tuple[tuple[int, int], ...]:
        """The nonzero ``(index, coefficient)`` pairs."""
        return tuple((i, a) for i, a in enumerate(self.coeffs) if a)

    def dot(self, other: "DivisorClass") -> int:
        """The pairing, walking only the nonzero entries of ``self`` and of the form."""
        self._same(other)
        rows = self.basis.sparse_rows
        b = other.coeffs
        total = 0
        for i, a in self.support:
            total += a * sum(x * b[j] for j, x in rows[i])
        return total

    def __repr__(self) -> str:
        bits = []
        for nm, c in zip(self.basis.names, self.coeffs):
            if c == 0:
                continue
            sign = "+" if c > 0 and bits else ""
            bits.append(f"{sign}{c}*{nm}" if abs(c) != 1 else f"{sign}{'-' if c < 0 else ''}{nm}")
        return " ".join(bits) if bits else "0"


@dataclass
class BlowupTower:
    """Tracked curve classes of the surface S on top of the full 2n-blowup basis.

    ``tracked`` maps curve names (C1..C{n-1}, Cb1.., e1.., eb1..) to classes.
    Blowups are recorded by incidence only; points are never coordinates.
    """

    n: int
    basis: LatticeBasis
    tracked: dict[str, DivisorClass] = field(default_factory=dict)

    @property
    def canonical(self) -> DivisorClass:
        n = self.n
        co = {"H1": -2, "H2": -2}
        for j in range(1, n + 1):
            co[f"e{j}"] = 1
            co[f"eb{j}"] = 1
        return self.basis.combo(**co)

    def cycle_names(self) -> list[str]:
        n = self.n
        return [f"C{i}" for i in range(1, n)] + [f"Cb{i}" for i in range(1, n)]

    def cycle_classes(self) -> dict[str, DivisorClass]:
        return {nm: self.tracked[nm] for nm in self.cycle_names()}

    @cached_property
    def cycle_gram(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Sparse Gram rows of the cycle components, in ``cycle_names()`` order.

        Row p holds the nonzero ``(q, C_p.C_q)`` pairs, columns ascending.
        The rows depend only on the tower, so they are paired once per
        tower and shared, as tuples, by every reader of it.
        """
        comps = list(self.cycle_classes().values())
        rows: list[list[tuple[int, int]]] = [[] for _ in comps]
        for p, a in enumerate(comps):
            for q in range(p, len(comps)):
                g = a.dot(comps[q])
                if g:
                    rows[p].append((q, g))
                    if q != p:
                        rows[q].append((p, g))
        return tuple(tuple(row) for row in rows)

    def stage_determinants(self) -> list[int]:
        """Pairing-matrix determinant after each blowup step (plus the base).

        These are the leading minors of the full form from the 2-block on,
        all read off one elimination.
        """
        return self.basis.leading_minors()[1:]


def _full_basis(n: int) -> LatticeBasis:
    names = ("H1", "H2") + tuple(f"e{j}" for j in range(1, n + 1)) + tuple(
        f"eb{j}" for j in range(1, n + 1)
    )
    m = len(names)
    form = [[0] * m for _ in range(m)]
    form[0][1] = form[1][0] = 1
    for k in range(2, m):
        form[k][k] = -1
    return LatticeBasis(names, tuple(tuple(r) for r in form))


def build_surface(n: int) -> BlowupTower:
    """Build the 2n-blowup tower for the surface S.

    Schedule: e1, e2 at points of C1 and e3 at a point of C2 (conjugates
    symmetric), then the two length-(n-3) towers at the corners Cb2&C1
    (names e4..en, each new point on C1 and the previous exceptional curve)
    and C2&Cb1 (names eb4..ebn, on Cb1).  Tracked classes are decremented
    by the new symbol once per incident curve.
    """
    if n < 4:
        raise LatticeError(f"n must be at least 4, got {n}")
    basis = _full_basis(n)
    tower = BlowupTower(n=n, basis=basis)
    tr = tower.tracked
    tr["C1"] = basis.unit("H1")
    tr["Cb1"] = basis.unit("H1")
    tr["C2"] = basis.unit("H2")
    tr["Cb2"] = basis.unit("H2")

    def blow(symbol: str, through: list[str]) -> None:
        exc = basis.unit(symbol)
        for nm in through:
            tr[nm] = tr[nm] - exc
        tr[symbol] = exc

    blow("e1", ["C1"])
    blow("e2", ["C1"])
    blow("e3", ["C2"])
    blow("eb1", ["Cb1"])
    blow("eb2", ["Cb1"])
    blow("eb3", ["Cb2"])

    # Corner towers.  The tower at the corner Cb2&C1 follows C1; its strict
    # transforms form the chain Cb3..Cb{n-1} of the cycle (between Cb2 and
    # C1).  The exceptional curve of blowup e_k is the component Cb{k-1}.
    for k in range(4, n + 1):
        prev = "Cb2" if k == 4 else f"Cb{k-2}"
        blow(f"e{k}", ["C1", prev])
        tr[f"Cb{k-1}"] = basis.unit(f"e{k}")
        prev_b = "C2" if k == 4 else f"C{k-2}"
        blow(f"eb{k}", ["Cb1", prev_b])
        tr[f"C{k-1}"] = basis.unit(f"eb{k}")
    return tower


def anticanonical_cycle_check(tower: BlowupTower) -> bool:
    """True iff the cycle components sum to the anticanonical class."""
    total = tower.basis.zero()
    for nm in tower.cycle_names():
        total = total + tower.tracked[nm]
    return total == -tower.canonical


def exceptional_chain_relations(tower: BlowupTower) -> bool:
    """Class identities tying tower exceptionals to chain components.

    e_j = sum of the barred chain from Cb_{j-1} to Cb_{n-1} (4 <= j <= n),
    with e_n the class of Cb_{n-1} itself; conjugate identities for eb_j.
    """
    n, basis, tr = tower.n, tower.basis, tower.tracked
    s = sb = basis.zero()
    for k in range(n - 1, 2, -1):
        s = s + tr[f"Cb{k}"]
        sb = sb + tr[f"C{k}"]
        if s != basis.unit(f"e{k+1}") or sb != basis.unit(f"eb{k+1}"):
            return False
    return True


def self_intersection_profile(tower: BlowupTower) -> list[int]:
    return [tower.tracked[f"C{i}"].dot(tower.tracked[f"C{i}"]) for i in range(1, tower.n)]


def anticanonical_degree(tower: BlowupTower, name: str) -> int:
    """Degree of -K_S on a tracked curve (its self-intersection plus two)."""
    c = tower.tracked[name]
    return c.dot(c) + 2

"""Check functions: every verifiable claim as a pass/fail/flagged record.

Each check computes values with the engine, compares them against the
expected closed forms, and returns CheckRecord rows.  Expected values are
never copied from the computation being checked; they are the stated
closed forms or independently derived oracles.  Most are frozen in this
module; the fixed-part multiplicities live in ``systems.fixed_multiplicity``
and the cylinder degree tables in ``incidence.cylinder_tables_verify`` and
``incidence.m1_tables_verify``.
The per-n objects (tower, stripping, half bundle, pairing system and
table, elimination trace) come from one ``Model`` per n, which
``CheckContext.model`` shares between the checks of that n; the seeded
quartic instances come from ``CheckContext.instance``, one seed per (n, k).
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

from . import elimination as elim
from . import incidence as inc
from . import lattice as lat
from . import scroll as scr
from . import systems as sys_
from .axioms import AxiomRegistry


@dataclass
class CheckRecord:
    id: str
    n: int
    status: str  # "pass" | "fail" | "flagged"
    expected: object
    computed: object
    anchor: str
    axioms_used: list[str] = field(default_factory=list)
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "n": self.n,
            "status": self.status,
            "expected": _plain(self.expected),
            "computed": _plain(self.computed),
            "anchor": self.anchor,
            "axioms_used": self.axioms_used,
            "detail": self.detail,
        }


def _plain(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, Mapping):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


class Model:
    """The per-n objects the checks read, each built on first use.

    Checks only read these objects.  A field whose build raises is not
    cached, so every check that needs it records the crash itself.
    """

    def __init__(self, n: int) -> None:
        self.n = n

    @cached_property
    def tower(self) -> lat.BlowupTower:
        return lat.build_surface(self.n)

    @cached_property
    def stripping(self) -> sys_.StrippingResult:
        return sys_.pluri_anticanonical_stripping(self.tower)

    @cached_property
    def half_bundle(self) -> sys_.HalfClass:
        return sys_.half_bundle_on_surface(self.tower)

    @cached_property
    def m_table(self) -> dict[str, int]:
        return sys_.m_restriction_table(self.tower, self.half_bundle)

    @cached_property
    def complex(self) -> inc.IncidenceComplex:
        return inc.build_incidence(self.tower)

    @cached_property
    def system(self) -> inc.System:
        return inc.pairing_system(self.complex)

    @cached_property
    def table(self) -> inc.PairingTable:
        return inc.complete_pairings(self.complex, self.system)

    @cached_property
    def trace(self) -> elim.EliminationTrace:
        return elim.run_elimination(self.table)


@dataclass
class CheckContext:
    registry: AxiomRegistry
    seed: int = 0
    instances: int = 100
    _model: Model | None = field(default=None, init=False, repr=False, compare=False)

    def rng(self, check_id: str, n: int) -> random.Random:
        return random.Random(f"{self.seed}:{check_id}:{n}")

    def instance(self, n: int, k: int) -> scr.QuarticInstance:
        """Instance k of the seeded batch for n, drawn again on each call.

        Each instance has its own seed, so ``scroll.instances``,
        ``scroll.tangency`` and ``elimination.cone-degree`` read the same
        instances, and (seed, n, k) alone replays any one of them.  The
        batch is not held: that would keep ``instances`` quartics alive.
        """
        return scr.random_instance(n, random.Random(f"{self.seed}:scroll.instances:{n}:{k}"))

    def model(self, n: int) -> Model:
        """The model for n, shared by consecutive calls with the same n."""
        if self._model is None or self._model.n != n:
            self._model = Model(n)
        return self._model


def _record(check_id, n, expected, computed, anchor, axioms=(), detail=""):
    return CheckRecord(
        id=check_id,
        n=n,
        status="pass" if expected == computed else "fail",
        expected=expected,
        computed=computed,
        anchor=anchor,
        axioms_used=list(axioms),
        detail=detail,
    )


# -- lattice -------------------------------------------------------------------


def check_lattice_profile(n: int, ctx: CheckContext) -> list[CheckRecord]:
    tower = ctx.model(n).tower
    prof = lat.self_intersection_profile(tower)
    want = [1 - n] + [-2] * (n - 3) + [-1]
    k2 = tower.canonical.dot(tower.canonical)
    return [
        _record(
            "lattice.profile", n, want, prof,
            "self-intersections of the cycle components are (1-n, -2 x (n-3), -1)",
        ),
        _record("lattice.canonical-square", n, 8 - 2 * n, k2,
                "K^2 = 8-2n after 2n blowups"),
    ]


def check_lattice_cycle(n: int, ctx: CheckContext) -> list[CheckRecord]:
    tower = ctx.model(n).tower
    gram = tower.cycle_gram
    m = len(gram)
    # off the diagonal, each Gram row is 1 at the two cyclic neighbours only
    adjacency_ok = all(
        {q: g for q, g in row if q != p} == {(p - 1) % m: 1, (p + 1) % m: 1}
        for p, row in enumerate(gram)
    )
    return [
        _record("lattice.cycle-anticanonical", n, True, lat.anticanonical_cycle_check(tower),
                "the 2(n-1) cycle components sum to -K"),
        _record("lattice.cycle-adjacency", n, True, adjacency_ok,
                "consecutive cycle components pair to 1, non-consecutive to 0"),
        _record("lattice.unimodular", n, True,
                all(abs(d) == 1 for d in tower.stage_determinants()),
                "the pairing matrix is unimodular at every tower stage"),
        _record("lattice.exceptional-relations", n, True, lat.exceptional_chain_relations(tower),
                "tower exceptional classes telescope along the opposite half-chain"),
    ]


# -- surface systems -----------------------------------------------------------


def check_fixed_components(n: int, ctx: CheckContext) -> list[CheckRecord]:
    model = ctx.model(n)
    tower, res = model.tower, model.stripping
    want = sys_.anticanonical_fixed_part(tower)
    confluent = sys_.confluence_orders(tower, shuffles=20, seed=ctx.rng("fixed", n).randrange(10**6),
                                       ref=res)
    return [
        _record("systems.fixed-components", n, want, res.fixed,
                "fixed part of the (n-2)-fold anticanonical system: "
                "(n-3)(C1+Cb1) + sum (n-1-i)(Ci+Cbi)"),
        _record("systems.stripping-confluent", n, True, confluent,
                "the stripping fixpoint is independent of selection order (20 shuffles)"),
    ]


def check_movable(n: int, ctx: CheckContext) -> list[CheckRecord]:
    model = ctx.model(n)
    tower, res = model.tower, model.stripping
    inv = sys_.movable_invariants(tower, res)
    k = tower.canonical
    lp = res.movable + k + tower.tracked["C2"] + tower.tracked["Cb2"]
    chi_lp = sys_.riemann_roch(tower, lp)
    chi_negk = sys_.riemann_roch(tower, -k)
    return [
        _record("systems.movable-invariants", n, (2, 1, 1),
                (inv.square, inv.degree_on_c2, inv.arithmetic_genus),
                "movable part: square 2, degree 1 on C2, arithmetic genus 1"),
        _record("systems.movable-degrees", n,
                tuple(1 if i == 2 else 0 for i in range(1, n)), inv.component_degrees,
                "movable part meets the cycle only along C2, with degree one"),
        _record("systems.chi-kernel", n, 1, chi_lp,
                "Euler characteristic of the net kernel class equals 1"),
        _record("systems.chi-anticanonical", n, 9 - 2 * n, chi_negk,
                "Euler characteristic of the anticanonical class equals 9-2n"),
        _record("systems.small-multiples", n, True, sys_.small_multiples_square_zero(tower),
                "movable parts of m-fold anticanonical systems (m < n-2) have square zero"),
    ]


def check_half_bundle_surface(n: int, ctx: CheckContext) -> list[CheckRecord]:
    model = ctx.model(n)
    tower, table, half = model.tower, model.m_table, model.half_bundle
    want = sys_.expected_m_restrictions(n)
    fixed = sys_.half_bundle_fixed_part(tower, half).fixed_nonzero()
    need = sys_.expected_half_bundle_fixed(n)
    contains = all(fixed.get(kk, 0) >= v for kk, v in need.items())
    arcs_ok = all(sys_.half_cycle_matches(tower).values())
    return [
        _record("systems.half-bundle-table", n, want, table,
                "degrees of the half bundle on the cycle: -(n-2)(n-3), 0.., 1; 0.., n-3"),
        _record("systems.divisibility", n, True, half.half.scale(2) == half.double,
                "the doubled half-bundle class is exactly divisible by two"),
        _record("systems.half-bundle-fixed", n, True, contains,
                "stripping contains (n-3)C1 + sum (n-1-i)Ci",
                detail=f"fixpoint={fixed}"),
        _record("systems.half-cycle-match", n, True, arcs_ok,
                "each degree-one class matches a contiguous half of the cycle through C1"),
    ]


def check_net_ledger(n: int, ctx: CheckContext) -> list[CheckRecord]:
    model = ctx.model(n)
    tower = model.tower
    reg = ctx.registry
    a1 = reg.consume("rank.h0-net-kernel", "net-ledger")
    a2 = reg.consume("rank.h1-net-kernel-vanishes", "net-ledger")
    res = model.stripping
    lp = res.movable + tower.canonical + tower.tracked["C2"] + tower.tracked["Cb2"]
    chi = sys_.riemann_roch(tower, lp)
    # two off-pair components of the cycle contribute one section each
    h0_net = chi + 2
    recs = [
        _record("systems.net-ledger", n, 3, h0_net,
                "section count of the movable net: chi(kernel) + 2 components",
                axioms=[a1.id, a2.id]),
        CheckRecord(
            id="systems.net-ledger.rank-flag", n=n, status="flagged",
            expected="h1 of the kernel class vanishes",
            computed="assumed (registered rank input)",
            anchor="the net section count rests on an unverified cohomology vanishing",
            axioms_used=[a2.id],
        ),
    ]
    return recs


# -- incidence -----------------------------------------------------------------


def check_completion(n: int, ctx: CheckContext) -> list[CheckRecord]:
    model = ctx.model(n)
    table = model.table
    rng = ctx.rng("completion", n)
    # the table is a function of (complex, nu), so equal nu means equal tables
    same = all(
        inc.solve_pairings(model.system, shuffle_seed=rng.randrange(10**6)) == table.nu
        for _ in range(3)
    )
    odp_count = len(model.complex.odps)
    resolution = inc.seam_anchor_resolution(table)
    recs = [
        _record("incidence.completion-unique", n, True, same,
                "constraint completion is unique under permuted constraint order"),
        _record("incidence.odp-count", n, 2 * (n - 1), odp_count,
                "the blown-up pencil space has 2(n-1) ordinary double points"),
        # the shuffled solves give this table's nu, hence this table, so
        # they are equivariant exactly when it is
        _record("incidence.conjugation", n, True, inc.is_equivariant(table),
                "the table is equivariant for the barred/unbarred involution"),
        CheckRecord(
            id="incidence.completion.seam-anchor", n=n, status="flagged",
            expected={"cell": resolution["cell"], "value": -1},
            computed=resolution,
            anchor="the ambiguous end-seam anchor is solved, not assumed; "
                   "the literal reading is consistent iff the solved value is -1",
        ),
    ]
    return recs


def _table_diff(tables: inc.Tables, ok: bool) -> str:
    """The mismatching cells of a failed table comparison, as a record detail."""
    diff = {k: {i: v for i, v in rows.items() if v[0] != v[1]} for k, rows in tables.items()}
    return "" if ok else f"diff={diff}"


def check_cylinder_tables(n: int, ctx: CheckContext) -> list[CheckRecord]:
    tables, ok = inc.cylinder_tables_verify(ctx.model(n).table)
    return [
        _record("incidence.cylinder-tables", n, True, ok,
                "adjusted-bundle degrees on sections, exceptional curves and seams "
                "match the closed forms cell by cell",
                detail=_table_diff(tables, ok)),
    ]


def check_triviality(n: int, ctx: CheckContext) -> list[CheckRecord]:
    table = ctx.model(n).table
    l1 = inc.adjusted_bundle(n)
    return [
        _record("incidence.triviality", n, True, inc.triviality_check(table),
                "the adjusted bundle is trivial on both end components"),
        _record("incidence.triviality-control", n, False,
                inc.divisor_trivial(table, l1, "E2"),
                "the same test against an interior component fails (control)"),
    ]


def check_cascade(n: int, ctx: CheckContext) -> list[CheckRecord]:
    table = ctx.model(n).table
    ok, trace = inc.cascade_precondition_check(table)
    return [
        _record("incidence.cascade", n, True, ok,
                "every step of the kernel subtraction schedule restricts with "
                "ruling degree -1",
                detail=f"steps={len(trace)}"),
    ]


def check_ledger_h0(n: int, ctx: CheckContext) -> list[CheckRecord]:
    table = ctx.model(n).table
    res = inc.restriction_ledger_h0(table, ctx.registry)
    return [
        _record("incidence.ledger-h0", n, (n, n + 1), (res.value, res.total),
                "restricted section count n; total section count n+1",
                axioms=res.axioms_used),
    ]


def check_half_bundle_tables(n: int, ctx: CheckContext) -> list[CheckRecord]:
    model = ctx.model(n)
    tables, ok = inc.m1_tables_verify(model.table, model.m_table)
    # triviality on the n barred-plus-end components is cell-wise in the tables
    return [
        _record("incidence.half-bundle-tables", n, True, ok,
                "adjusted half-bundle degrees on the cylinder match the closed forms; "
                "trivial on the n barred-plus-end components",
                detail=_table_diff(tables, ok)),
    ]


def check_bundle_algebra(n: int, ctx: CheckContext) -> list[CheckRecord]:
    res = inc.bundle_algebra_verify(n)
    bad = {k: v["diff"] for k, v in res.items() if k != "ok" and not v["ok"]}
    return [
        _record("incidence.bundle-algebra", n, True, res["ok"],
                "all formal divisor identities hold coefficient by coefficient",
                detail="" if res["ok"] else f"diff={bad}"),
    ]


def check_euler(n: int, ctx: CheckContext) -> list[CheckRecord]:
    ax = ctx.registry.consume("axiom.chern-numbers", "euler-characteristic")
    chi = inc.rr_threefold({"a3": 0, "a2c1": -4, "ac": 0, "c1c2": 24})
    ctx.registry.consume("rank.h2-degree-two-vanishing", "euler-characteristic")
    return [
        _record("incidence.euler-characteristic", n, Fraction(0), chi,
                "threefold Riemann-Roch on the distinguished degree-two twist gives zero",
                axioms=[ax.id, "rank.h2-degree-two-vanishing"]),
    ]


def check_pencil_ledgers(n: int, ctx: CheckContext) -> list[CheckRecord]:
    table = ctx.model(n).table
    res = inc.nonvan_ledgers(table, ctx.registry)
    return [
        _record("incidence.pencil-ledgers", n,
                {"tec_ok": True, "rest_ok": True, "ledgers": {i: 0 for i in range(1, n - 1)}},
                {"tec_ok": res["tec_ok"], "rest_ok": res["rest_ok"], "ledgers": res["ledgers"]},
                "end-divisor rewrite, restriction displays and the zero ledgers",
                axioms=["anchor.deg-one-pairings", "rank.h0-half-bundle-on-deg-one"]),
        _record("incidence.pencil-ledgers.coeffs", n, (n - 4, n - 3),
                (res["tec_end_coeff"], res["rest_arc_coeff"]),
                "rewrite weight n-4 on the end divisor; restriction weight n-3 on the shared arc"),
    ]


def check_irreducibility(n: int, ctx: CheckContext) -> list[CheckRecord]:
    res = inc.irreducibility_guard(n)
    return [
        _record("incidence.irreducibility", n,
                {"phi_half": -2, "phi_half_swapped": 2, "ok": True},
                {"phi_half": res["phi_half"], "phi_half_swapped": res["phi_half_swapped"],
                 "ok": res["ok"]},
                "the coefficient functional is -2 / +2 on the two half bundles and "
                "zero on every decomposable class"),
    ]


# -- elimination ---------------------------------------------------------------


def check_elimination_run(n: int, ctx: CheckContext) -> list[CheckRecord]:
    trace = ctx.model(n).trace
    ladder_types = ctx.registry.consume("assert.ladder-ruled-types", "elimination-ladder")
    # one component retires per stage on each of the two conjugate halves
    counts = [*trace.component_counts, len(trace.final_scan)]
    monotone = all(counts[k] - counts[k + 1] == 2 for k in range(len(counts) - 1))
    # fiber i's chain centers on the unbarred half, at each stage that has any
    fam_ok = all(trace.family_counts.get(i, ()) == tuple(range(i - 2, 0, -1)) for i in range(3, n - 1))
    # sorted, so the detail does not depend on the hash seed
    final = sorted(sorted(c) for c in trace.final_scan)
    return [
        _record("elimination.termination", n, True, not trace.final_scan,
                "the machine reaches an empty scan at stage n-2",
                detail=f"scan={final}" if final else ""),
        _record("elimination.monotone", n, True, monotone,
                "# connected base components drops by exactly one per stage"),
        _record("elimination.family-counts", n, True, fam_ok,
                "per-surface base-curve counts drop by one per stage until zero"),
        _record("elimination.multiplicity-one", n, True, trace.multiplicity_one,
                "every stage bundle subtracts its exceptional divisors with multiplicity one",
                axioms=[ladder_types.id]),
    ]


def check_elimination_stage2(n: int, ctx: CheckContext) -> list[CheckRecord]:
    after = ctx.model(n).trace.stage2_degrees
    want = {}
    for i in range(4, n - 1):
        want[("C", i, 3)] = 1
        want[("C", i, i)] = -1
        for j in range(4, i):
            want[("C", i, j)] = 0
    want[("C", n - 1, 1)] = 4 - n
    return [
        _record("elimination.stage2", n,
                {inc.curve_name(c): d for c, d in want.items()},
                {inc.curve_name(c): after.get(c, 0) for c in want},
                "stage-two degrees: 1 / 0 / -1 along each chain and 4-n on the isolated seed"),
    ]


def check_elimination_ladder(n: int, ctx: CheckContext) -> list[CheckRecord]:
    # one ladder component per stage that blows up the isolated seed; its
    # ruled type is metadata resting on the registry axiom consumed here
    count = len(ctx.model(n).trace.seed_stages)
    types = [f"ruled-degree-{n-k-1}" for k in range(2, 2 + count)]
    ladder_types = ctx.registry.consume("assert.ladder-ruled-types", "elimination-ladder")
    return [
        _record("elimination.ladder", n,
                {"count": n - 3, "sections": max(n - 4, 0)},
                {"count": count, "sections": max(count - 1, 0)},
                "the ladder over the isolated base curve has n-3 components meeting "
                "in sections",
                axioms=[ladder_types.id],
                detail=f"types={types}"),
    ]


def check_elimination_odp(n: int, ctx: CheckContext) -> list[CheckRecord]:
    census = ctx.model(n).trace.odp_census
    expected = {"initial": 2 * (n - 1)}
    for stage in range(2, n - 1):
        expected[f"stage{stage}"] = 2 * sum(max(i - stage - 1, 0) for i in range(3, n - 1))
    thresholds_ok = (census.get("stage2", 0) > 0) == (n > 5) and (
        census.get("stage3", 0) > 0
    ) == (n > 6) if n >= 5 else census.get("stage2", 0) == 0
    return [
        _record("elimination.odp-census", n, expected, census,
                "2(n-1) initial double points; stage additions from the chain nodes"),
        _record("elimination.odp-thresholds", n, True, thresholds_ok,
                "new double points appear at stage 2 only for n > 5, at stage 3 only for n > 6"),
    ]


def check_twistor_lines(n: int, ctx: CheckContext) -> list[CheckRecord]:
    model = ctx.model(n)
    recs = []
    ok = True
    for i in range(2, n - 1):
        d = elim.twistor_line_degree(model.table, model.trace, i)
        if not (
            d.initial == 2 * (i - 1)
            and len(d.decrement_stages) == max(i - 2, 0)
            and d.final == 2
        ):
            ok = False
    recs.append(_record("elimination.twistor-lines", n, True, ok,
                        "line degrees start at 2(i-1), drop by two exactly i-2 times, end at 2"))
    d1 = elim.twistor_line_degree(model.table, model.trace, 1)
    recs.append(CheckRecord(
        id="elimination.twistor-lines.first-line", n=n, status="flagged",
        expected={"formula": d1.formula_value},
        computed={"initial": d1.initial, "final": d1.final},
        anchor="the first line's computed initial degree is 2, not the closed-form "
               "2(i-1) = 0; the final degree 2 (a conic image) is unaffected",
    ))
    return recs


def check_cone_degree(n: int, ctx: CheckContext) -> list[CheckRecord]:
    want = 2 * (n - 2)
    got = scr.double_curve_degree(ctx.instance(n, 0))
    return [
        _record("elimination.cone-degree", n, (want, want), got,
                "cone double-curve degree 2(n-2), cross-checked against an instance"),
    ]


# -- scroll --------------------------------------------------------------------


def check_hankel(n: int, ctx: CheckContext) -> list[CheckRecord]:
    gens = scr.hankel_generators(n)
    count_want = (n - 2) * (n - 3) // 2
    member = all(scr.ideal_member(g) for g in gens)
    return [
        _record("scroll.hankel", n, (count_want, True), (scr.ideal_quadric_dim(n), member),
                "all 2x2 catalecticant minors generate inside the scroll ideal"),
    ]


def check_instances(n: int, ctx: CheckContext) -> list[CheckRecord]:
    count = ctx.instances
    all_ok = True
    detail = ""
    for k in range(count):
        inst = ctx.instance(n, k)
        # a linear f and a quadric Q make F = z0 z_{n-1} z_n f - Q^2 a quartic
        if set(map(sum, inst.f.terms)) != {1} or set(map(sum, inst.q.terms)) != {2}:
            all_ok, detail = False, f"instance {k}: quartic shape broken"
            break
        if scr.splitting_conic_rank(inst) != 2:
            all_ok, detail = False, f"instance {k}: splitting rank"
            break
        if not scr.double_conic_verify(inst):
            all_ok, detail = False, f"instance {k}: tangency identities"
            break
        side_n, side_n1 = scr.double_curve_degree(inst)
        if side_n != 2 * (n - 2):
            all_ok, detail = False, f"instance {k}: cone degree (side n)"
            break
        if side_n1 != 2 * (n - 2):
            all_ok, detail = False, f"instance {k}: cone degree (side n+1)"
            break
    return [
        _record("scroll.instances", n, True, all_ok,
                f"{count} seeded instances: quartic shape, splitting rank two, "
                "tangency along every special fiber, generic non-squareness, "
                "cone degrees 2(n-2)",
                detail=detail),
    ]


def check_tangency(n: int, ctx: CheckContext) -> list[CheckRecord]:
    count = max(1, ctx.instances // 10)
    ok = True
    detail = ""
    for k in range(count):
        rng = random.Random(f"{ctx.seed}:scroll.tangency:{n}:{k}")
        bad_root = scr.smoothness_probe(ctx.instance(n, k), rng)
        if bad_root is not None:
            ok, detail = False, f"instance {k}, root {bad_root}"
            break
    return [
        _record("scroll.tangency", n, True, ok,
                "first-order transversality at 8 exact sample points per double conic",
                detail=detail),
    ]


def check_moduli(n: int, ctx: CheckContext) -> list[CheckRecord]:
    ax = ctx.registry.consume("assert.deformation-ranks", "moduli")
    recs = []
    ok = True
    for k in range(2, n + 1):
        r = scr.moduli_formulas(n, k)
        want_stratum = 3 * n - 2 * k - 2 if k < n else n - 1
        if not (
            r.h1_tangent_threefold == 7 * n - 15
            and r.h1_tangent_surface == 4 * n - 6
            and r.h1_anticanonical == 2 * n - 8
            and r.stratum_dim == want_stratum
            and r.pencil_member_family_dim == n + 4
            and r.moduli_dim == n + 3
        ):
            ok = False
    recs.append(_record("scroll.moduli", n, True, ok,
                        "dimension formulas 7n-15, 4n-6, 2n-8, 3n-2k-2, n-1, n+4, n+3 "
                        "and the decrement-by-two stratification",
                        axioms=[ax.id]))
    return recs


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class CheckSpec:
    fn: Callable[[int, CheckContext], list[CheckRecord]]
    claim: str
    heavy: bool = False  # instance-driven checks


CHECKS: dict[str, CheckSpec] = {
    "lattice.profile": CheckSpec(check_lattice_profile, "cycle self-intersection profile and K^2"),
    "lattice.cycle": CheckSpec(check_lattice_cycle, "cycle adjacency, anticanonical sum, unimodularity"),
    "systems.fixed-components": CheckSpec(check_fixed_components, "fixed components and confluence"),
    "systems.movable": CheckSpec(check_movable, "movable-part invariants and Euler characteristics"),
    "systems.half-bundle": CheckSpec(check_half_bundle_surface, "half-bundle table, divisibility, half-cycle match"),
    "systems.net-ledger": CheckSpec(check_net_ledger, "net section-count ledger (consumes rank inputs)"),
    "incidence.completion": CheckSpec(check_completion, "pairing-table completion and double-point count"),
    "incidence.cylinder-tables": CheckSpec(check_cylinder_tables, "adjusted-bundle degree tables"),
    "incidence.triviality": CheckSpec(check_triviality, "end-component triviality"),
    "incidence.cascade": CheckSpec(check_cascade, "kernel subtraction schedule"),
    "incidence.ledger-h0": CheckSpec(check_ledger_h0, "restricted section-count ledger"),
    "incidence.half-bundle-tables": CheckSpec(check_half_bundle_tables, "adjusted half-bundle tables"),
    "incidence.bundle-algebra": CheckSpec(check_bundle_algebra, "formal divisor identities"),
    "incidence.euler-characteristic": CheckSpec(check_euler, "threefold Riemann-Roch value"),
    "incidence.pencil-ledgers": CheckSpec(check_pencil_ledgers, "degree-one restriction ledgers"),
    "incidence.irreducibility": CheckSpec(check_irreducibility, "coefficient-functional guard"),
    "elimination.run": CheckSpec(check_elimination_run, "termination and per-stage invariants"),
    "elimination.stage2": CheckSpec(check_elimination_stage2, "stage-two degree profile"),
    "elimination.ladder": CheckSpec(check_elimination_ladder, "ladder component structure"),
    "elimination.odp": CheckSpec(check_elimination_odp, "double-point censuses and thresholds"),
    "elimination.twistor-lines": CheckSpec(check_twistor_lines, "line degree bookkeeping"),
    "elimination.cone-degree": CheckSpec(check_cone_degree, "cone double-curve degree", heavy=True),
    "scroll.hankel": CheckSpec(check_hankel, "catalecticant generators"),
    "scroll.instances": CheckSpec(check_instances, "seeded quartic instances", heavy=True),
    "scroll.tangency": CheckSpec(check_tangency, "tangency probe", heavy=True),
    "scroll.moduli": CheckSpec(check_moduli, "dimension formulas"),
}

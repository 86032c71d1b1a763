"""Independent solvers used to cross-check the dynamic program.

The two single-delivery oracles are exponential brute force, meant for small
instances only, and share no table machinery with :mod:`lotdp.dp`.  Two module
constants bound them: ``structural_oracle`` refuses more than ``MAX_SUPPLIERS``
suppliers (``lotdp verify`` reads the same cap), and ``grid_oracle`` refuses
menus that multiply to more than ``MAX_CANDIDATES`` plans.  The
multi-delivery duplication oracle shares the grid, the cell guard, the Bellman
fill and the backtrack with its tie rule (``_choice``) of :mod:`lotdp.dp`, but
not its pricing (every batch is forced onto the grid instead of priced by the
closed-form split) nor its sweep bound (it fills every grid up to
``multi_h_limit``).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import dp
from .closed_form import lemma1_solution
from .errors import ResourceLimitError
from .model import (
    MULTI,
    SINGLE,
    Instance,
    Solution,
    Supplier,
    delivery_cost,
    holding_cost,
    make_solution,
    require_valid,
)

ZERO, AT_MIN, AT_MAX, INTERIOR = "zero", "at_m", "at_M", "interior"
LABELS = (ZERO, AT_MIN, AT_MAX, INTERIOR)

MAX_SUPPLIERS = 8  # structural_oracle enumerates 4**n assignments
MAX_CANDIDATES = 2_000_000  # grid_oracle's cap on the plans its menus multiply to


def _require_single(inst: Instance, caller: str) -> None:
    if inst.mode != SINGLE:
        raise ValueError(f"{caller} handles single-delivery instances only")


def structural_oracle(inst: Instance) -> Solution:
    """Exact optimum by enumerating boundary assignments.

    At an optimum every volume is 0, m_i, M_i, or strictly interior, and the
    interior group is pinned by the equal-marginal formula applied to whatever
    demand the fixed volumes leave open.  Trying all 4**n assignments and
    keeping the cheapest consistent candidate is therefore exhaustive.  The
    enumeration order is deterministic, so ties resolve identically run to run.
    More than ``MAX_SUPPLIERS`` suppliers raise ResourceLimitError.
    """
    require_valid(inst)
    _require_single(inst, "structural_oracle")
    if inst.n > MAX_SUPPLIERS:
        raise ResourceLimitError(
            f"{inst.n} suppliers means 4**{inst.n} assignments; cap is {MAX_SUPPLIERS}"
        )

    best_cost = None
    best_volumes = None
    for labels in itertools.product(LABELS, repeat=inst.n):
        volumes = [Fraction(0)] * inst.n
        interior = []
        fixed_sum = 0
        for i, (label, s) in enumerate(zip(labels, inst.suppliers)):
            if label == AT_MIN:
                volumes[i] = Fraction(s.m)
                fixed_sum += s.m
            elif label == AT_MAX:
                volumes[i] = Fraction(s.M)
                fixed_sum += s.M
            elif label == INTERIOR:
                interior.append(i)
        if interior:
            residual = inst.P - fixed_sum
            if residual <= 0:
                continue
            group = lemma1_solution(
                [inst.suppliers[i].beta for i in interior],
                residual,
                inst.lam,
                inst.c_hold,
            )
            consistent = True
            for i, x in zip(interior, group):
                s = inst.suppliers[i]
                if not s.m < x < s.M:
                    consistent = False
                    break
                volumes[i] = x
            if not consistent:
                continue
        elif fixed_sum < inst.P:
            continue
        cost = Fraction(0)
        for s, v in zip(inst.suppliers, volumes):
            if v:
                cost += delivery_cost(s, v) + holding_cost(v, inst.lam, inst.c_hold)
        if best_cost is None or cost < best_cost:
            best_cost, best_volumes = cost, list(volumes)
    return make_solution(inst, [(i + 1, v) for i, v in enumerate(best_volumes)])


def grid_oracle(inst: Instance) -> Solution:
    """Exact optimum by exhausting every combination of grid volumes.

    Each supplier may take volume 0 or any point of [m, min(M, max(P, m))]
    whose denominator divides H * c_hold * den(lam) for some H in 1..n: an
    optimum's interior group has at most n suppliers, so one of these grids
    holds it, and a volume above max(P, m) can be cut back to it and still
    cover P alone, for less, as a batch's cost rises with its volume.
    Depth-first search with two safe prunes (a partial plan already costing at
    least the incumbent, or one that cannot reach the demand even with the
    top of every remaining menu) keeps it exhaustive in effect.  Menus whose
    product exceeds ``MAX_CANDIDATES`` plans raise ResourceLimitError before
    the search, and before any menu that cannot fit is built: each menu
    holds 0 and the finest grid, H = n, so the menus built so far times
    those grids of the rest bound the product from below.
    """
    require_valid(inst)
    _require_single(inst, "grid_oracle")

    finest = inst.n * inst.c_hold * inst.lam.denominator
    tops = [min(s.M, max(inst.P, s.m)) for s in inst.suppliers]
    least = [(top - s.m) * finest + 2 for s, top in zip(inst.suppliers, tops)]
    too_many = f"grid enumeration needs more than {MAX_CANDIDATES} candidate plans"
    menus = []
    total = 1
    for k, (s, top) in enumerate(zip(inst.suppliers, tops)):
        if total * math.prod(least[k:]) > MAX_CANDIDATES:
            raise ResourceLimitError(too_many)
        volumes = {Fraction(0)}
        for H in range(1, inst.n + 1):
            den = H * inst.c_hold * inst.lam.denominator
            volumes.update(Fraction(i, den) for i in range(s.m * den, top * den + 1))
        menu = [
            (v, delivery_cost(s, v) + holding_cost(v, inst.lam, inst.c_hold) if v else Fraction(0))
            for v in sorted(volumes)
        ]
        menus.append(menu)
        total *= len(menu)
    if total > MAX_CANDIDATES:
        raise ResourceLimitError(too_many)

    rest_cap = [0] * (inst.n + 1)
    for i in range(inst.n - 1, -1, -1):
        rest_cap[i] = rest_cap[i + 1] + tops[i]

    # feasible incumbent to prune against: everyone at the top of its menu,
    # which covers P (one top is at least P, or every top is the window's M)
    best_volumes = [Fraction(top) for top in tops]
    best_cost = sum(
        (
            delivery_cost(s, top) + holding_cost(top, inst.lam, inst.c_hold)
            for s, top in zip(inst.suppliers, tops)
        ),
        Fraction(0),
    )
    demand = inst.P
    chosen = [Fraction(0)] * inst.n

    def search(pos: int, volume_so_far: Fraction, cost_so_far: Fraction):
        nonlocal best_cost, best_volumes
        if pos == inst.n:
            if volume_so_far >= demand and cost_so_far < best_cost:
                best_cost, best_volumes = cost_so_far, chosen.copy()
            return
        cap_after = rest_cap[pos + 1]
        for v, c in menus[pos]:
            if volume_so_far + v + cap_after < demand:
                continue
            cost = cost_so_far + c
            if cost >= best_cost:
                break  # menu is volume-sorted and cost grows with volume
            chosen[pos] = v
            search(pos + 1, volume_so_far + v, cost)
        chosen[pos] = Fraction(0)

    search(0, Fraction(0), Fraction(0))
    return make_solution(inst, [(i + 1, v) for i, v in enumerate(best_volumes)])


def _best_balanced_split(
    supplier: Supplier, idx: int, den: int, lam: Fraction, c_hold: int
) -> tuple[int, int]:
    """Cheapest split of the grid total idx/den into equal-as-possible batches
    that themselves sit on the grid.  Returns (batch_count, cost numerator
    over dp._base_denominator); ties go to the smaller count."""
    fixed = supplier.alpha * dp._base_denominator(lam, den)
    cb = c_hold * lam.denominator
    best_j, best = 1, fixed + cb * idx * idx
    for j in range(2, idx // (supplier.m * den) + 1):
        q, rem = divmod(idx, j)
        sumsq = (j - rem) * q * q + rem * (q + 1) * (q + 1)
        cost = j * fixed + cb * sumsq
        if cost < best:
            best_j, best = j, cost
    return best_j, best + supplier.beta * 2 * lam.numerator * den * idx


def _duplication_candidate_costs(inst: Instance, grid: dp.Grid) -> dp.CostRows:
    """Cheapest purchase of each grid total when every individual batch must
    sit on the grid: the supplier-duplication reduction, with copies sharing
    the cap, collapsed to a per-total cost."""
    rows = []
    for (lo, hi), s in zip(grid.spans, inst.suppliers):
        rows.append([
            _best_balanced_split(s, idx, grid.denominator, inst.lam, inst.c_hold)[1]
            for idx in range(lo, hi + 1)
        ])
    return dp.CostRows(rows, dp._base_denominator(inst.lam, grid.denominator))


def duplication_oracle(inst: Instance, *, max_cells: int | None = None) -> Solution:
    """Exact multi-delivery optimum by the supplier-duplication reduction.

    Each supplier is cloned floor(P/m) times and every clone ships one batch
    on the grid; collapsed per supplier, a grid total costs its cheapest
    equal-as-possible split into grid batches.  This oracle fills every grid
    H = 1..multi_h_limit and relies on no interior-count bound, so it also
    checks the bound that lets ``solve_multi`` skip the grids above it.  Its
    tie rule is its own: the finest grid among the cheapest tables wins, and
    its plan is that table's backtrack.  ``verify`` compares objectives only.
    ``max_cells`` caps the total cells of the full sweep and is checked before
    any table is filled; a sweep over the cap raises ResourceLimitError, its
    message led by "duplication oracle: ".  Windows that cannot cover P raise
    InfeasibleInstanceError.
    """
    require_valid(inst)
    if inst.mode != MULTI:
        raise ValueError("duplication_oracle handles multi-delivery instances only")
    H_top = dp.multi_h_limit(inst)
    try:
        dp._require_sweep_budget(inst, H_top, max_cells)
    except ResourceLimitError as exc:  # solve_multi's sweep may fit the same cap
        raise ResourceLimitError(f"duplication oracle: {exc}") from None
    best = None
    for H in range(1, H_top + 1):
        grid = dp.build_grid(inst, H)
        costs = _duplication_candidate_costs(inst, grid)
        table = dp._fill(inst, grid, costs, "multi-duplication")
        if best is None or table.final <= best.final:
            best = table
    den = best.grid.denominator
    deliveries = []
    for k, idx in best.plan:
        j, _ = _best_balanced_split(inst.suppliers[k - 1], idx, den, inst.lam, inst.c_hold)
        q, rem = divmod(idx, j)
        deliveries.extend((k, Fraction(q + 1, den)) for _ in range(rem))
        deliveries.extend((k, Fraction(q, den)) for _ in range(j - rem))
    return make_solution(inst, deliveries)

"""Independent solvers used to cross-check the dynamic program.

The two single-delivery oracles share no table machinery with
:mod:`lotdp.dp`.  ``structural_oracle`` is a dynamic program over supplier
labels (0, m, M or interior) in integers, polynomial in n, P and the sum of
the betas; ``grid_oracle`` is exponential brute force over grid volumes,
meant for small instances only.  One module constant, ``MAX_CANDIDATES``, bounds
the work of both: the label states ``structural_oracle`` creates, and the
plans ``grid_oracle``'s menus multiply to.  The multi-delivery duplication
oracle shares the grid, the cell guard, the Bellman fill and the backtrack
with its tie rule (``_choice``) of :mod:`lotdp.dp`, but not its pricing
(every batch is forced onto the grid instead of priced by the closed-form
split) nor its sweep bound (it fills every grid up to ``multi_h_limit``).
"""

from __future__ import annotations

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

MAX_CANDIDATES = 2_000_000  # cap on structural_oracle's label states and grid_oracle's plans


def _require_single(inst: Instance, caller: str) -> None:
    if inst.mode != SINGLE:
        raise ValueError(f"{caller} handles single-delivery instances only")


def structural_oracle(inst: Instance) -> Solution:
    """Exact optimum by a dynamic program over the suppliers' labels.

    At an optimum every volume is 0, m_i, M_i or strictly interior, and the
    interior group shares one marginal cost mu, pinned by the equal-marginal
    formula applied to the demand P - F that the fixed volumes F leave open.
    With lam = a/b, c = c_hold and D = 2*a*b*c, D times a batch's cost is an
    integer: D*(alpha + beta*v) + (c*b*v)**2 at v in {m, M}, and for an
    interior supplier D*alpha - (a*beta)**2 plus its share of the group's
    t**2/k, where k counts the group, B sums its betas and
    t = c*b*(P - F) + a*B = k*a*mu.  So a state (F capped at P, k, B) keeps
    the least cost of the labelings that reach it, supplier by supplier.

    Supplier i can be interior at a*mu strictly between its window ends
    a*beta_i + c*b*m_i and a*beta_i + c*b*M_i.  One pass per closed interval
    [lo, hi] between consecutive distinct ends lets only the suppliers whose
    ends enclose it be interior, keeps no state with F = P (F never falls,
    and a group state needs P - F > 0), and prices a group state only when
    k*lo <= t <= k*hi.  The closed ends are exact: there a supplier sits
    at m or M with the same mu and cost.  One more pass has no group: the
    {0, m, M} knapsack that reaches F = P.  The cheapest state wins, the
    first found on a tie, so the plan is the same run to run.  Its volumes
    come from the labels and ``lemma1_solution``, and an explicit raise,
    kept under ``python -O``, checks that the plan recomputes to the state's
    cost.  Creating more than ``MAX_CANDIDATES`` states raises
    ResourceLimitError.
    """
    require_valid(inst)
    _require_single(inst, "structural_oracle")
    a, P = inst.lam.numerator, inst.P
    cb = inst.c_hold * inst.lam.denominator
    D = 2 * a * cb
    ends = sorted({a * s.beta + cb * v for s in inst.suppliers for v in (s.m, s.M)})
    too_many = f"structural oracle needs more than {MAX_CANDIDATES} label states"
    created = 0
    best = None  # (objective, the pass's layers, the final state)
    for lo, hi in [(None, None), *zip(ends, ends[1:])]:
        # (F, k, B) -> (cost times D, (previous state, label)); label None is interior
        layers = [{(0, 0, 0): (0, None)}]
        for s in inst.suppliers:
            moves = [(0, 0)] + [(v, D * (s.alpha + s.beta * v) + (cb * v) ** 2) for v in (s.m, s.M)]
            if lo is not None and a * s.beta + cb * s.m <= lo and hi <= a * s.beta + cb * s.M:
                moves.append((None, D * s.alpha - (a * s.beta) ** 2))
            layer = {}
            for state, (cost, _) in layers[-1].items():
                F, k, B = state
                for v, price in moves:
                    new = (F, k + 1, B + s.beta) if v is None else (min(F + v, P), k, B)
                    if lo is not None and new[0] == P:
                        continue  # F never falls, and a group state needs P - F > 0
                    if new not in layer:
                        created += 1
                        if created > MAX_CANDIDATES:
                            raise ResourceLimitError(too_many)
                    elif layer[new][0] <= cost + price:
                        continue
                    layer[new] = (cost + price, (state, v))
            layers.append(layer)
        for (F, k, B), (cost, _) in layers[-1].items():
            t = cb * (P - F) + a * B  # k*a*mu
            if k * lo <= t <= k * hi if k else F == P:
                value = Fraction(cost * k + t * t, k * D) if k else Fraction(cost, D)
                if best is None or value < best[0]:
                    best = (value, layers, (F, k, B))

    value, layers, state = best
    volumes = [None] * inst.n
    for i in reversed(range(inst.n)):
        state, volumes[i] = layers[i + 1][state][1]
    group = [i for i, v in enumerate(volumes) if v is None]
    if group:
        betas = [inst.suppliers[i].beta for i in group]
        fixed = sum(v for v in volumes if v is not None)
        for i, x in zip(group, lemma1_solution(betas, P - fixed, inst.lam, inst.c_hold)):
            volumes[i] = x
    solution = make_solution(inst, [(i + 1, v) for i, v in enumerate(volumes)])
    if solution.objective != value:
        raise AssertionError(
            f"structural oracle: plan recomputes to {solution.objective}, its state holds {value}"
        )
    return solution


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

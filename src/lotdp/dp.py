"""Exact dynamic program over rational volume grids.

If an optimal plan serves H suppliers strictly inside their volume windows,
its volumes are rationals whose denominators divide H * c_hold (times the
denominator of the consumption intensity when that is not an integer): the
remaining volumes sit at 0, m, or M, and the interior ones are pinned by the
equal-marginal formula in :mod:`lotdp.closed_form`.  For each hypothesis H the
solver therefore restricts batch volumes to the grid m_k, m_k + h, ..., M_k
with step h = 1 / (H * c_hold * den(lam)), fills a Bellman table

    phi[k][p] = cheapest way to cover residual demand p using suppliers 1..k

and backtracks the winning volumes.  Sweeping H and keeping the cheapest table
yields the exact optimum.

Pricing and the fill never build a Fraction.  With lam = a/b, every candidate
cost on the grid of denominator den is an integer over B = 2*a*den**2 (single
batches), or over B*L in the aggregated multi-delivery pricing, L the lcm of
the batch counts chosen.  phi stays a table of integer numerators over that
one denominator, so ``DPTable.final`` is the only Fraction a table produces.

A cell cap, when given, bounds the total cells of the whole sweep and is
checked before any table is filled.

Demand may also be covered by over-delivery: a batch at least as large as the
open residual closes the plan on its own.  Single-delivery costs increase with
volume, so only the smallest such batch matters there, but in multi-delivery
mode the aggregated per-supplier cost is not monotone (a new batch count
unlocks each time the total crosses a multiple of m) and every larger grid
total is a candidate; the fill handles both through per-supplier suffix
minima of the candidate costs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .closed_form import best_batch_count, multi_delivery_cost
from .errors import InfeasibleInstanceError, ResourceLimitError
from .model import (
    MULTI,
    SINGLE,
    Instance,
    Solution,
    make_solution,
    require_valid,
)

SKIP = -1


@dataclass(frozen=True)
class Grid:
    H: int
    denominator: int  # volumes are index / denominator
    demand_points: int  # residual-demand indices run 0 .. P*denominator
    spans: tuple[tuple[int, int], ...]  # per supplier: (m*denominator, M*denominator)


def build_grid(inst: Instance, H: int) -> Grid:
    if H < 1:
        raise ValueError("H must be a positive integer")
    den = H * inst.c_hold * inst.lam.denominator
    return Grid(
        H=H,
        denominator=den,
        demand_points=inst.P * den + 1,
        spans=tuple((s.m * den, s.M * den) for s in inst.suppliers),
    )


@dataclass
class DPTable:
    """One filled Bellman table.

    ``phi[k][p]`` is the integer numerator, over the table-wide denominator
    ``den``, of the cheapest way to cover residual demand index p with
    suppliers 1..k, or None when they cannot cover it.  ``choice`` has the
    same shape and holds SKIP or the chosen volume index.
    """

    H: int
    grid: Grid
    kind: str  # "single" | "multi-aggregated", or a cross-check's own label
    phi: list  # (n+1) x demand_points, int numerators over den, or None
    den: int
    choice: list
    cells: int

    @property
    def final(self) -> Fraction | None:
        """phi(n, P): cheapest cover of the full demand, if any."""
        last = self.phi[-1][-1]
        return None if last is None else Fraction(last, self.den)


class CostRows(list):
    """Candidate costs of one grid: per supplier, one integer numerator for
    each grid volume m..M, all over the common denominator ``den``."""

    def __init__(self, rows, den: int):
        super().__init__(rows)
        self.den = den


def _base_denominator(lam: Fraction, den: int) -> int:
    """B = 2 * a * den**2 for lam = a/b: with v = i/den, one batch costs

        alpha + beta*v + c*v**2/(2*lam) = (alpha*B + beta*i*2*a*den + c*b*i**2) / B

    and every split of i into grid batches is an integer over B as well."""
    return 2 * lam.numerator * den * den


def _single_candidate_costs(inst: Instance, grid: Grid) -> CostRows:
    """Cost of one batch of each grid volume: alpha + beta*v + c*v^2/(2*lam)."""
    B = _base_denominator(inst.lam, grid.denominator)
    per_unit = 2 * inst.lam.numerator * grid.denominator
    cb = inst.c_hold * inst.lam.denominator
    rows = []
    for (lo, hi), s in zip(grid.spans, inst.suppliers):
        fixed, unit = s.alpha * B, s.beta * per_unit
        rows.append([fixed + unit * i + cb * i * i for i in range(lo, hi + 1)])
    return CostRows(rows, B)


def _aggregated_candidate_costs(inst: Instance, grid: Grid) -> CostRows:
    """Cheapest multi-batch purchase of each grid total, batch count free.

    With r batches the total i/den costs (r*A + beta*i*2*a*den + Q/r) / B with
    A = alpha*B and Q = c*b*i**2 (see _base_denominator); the best r comes from
    best_batch_count.  Rows are scaled to B*L, L the lcm of the chosen r."""
    B = _base_denominator(inst.lam, grid.denominator)
    per_unit = 2 * inst.lam.numerator * grid.denominator
    cb = inst.c_hold * inst.lam.denominator
    priced = []  # per supplier: (r, r*A + linear part, Q) for each grid total
    counts = set()
    for (lo, hi), s in zip(grid.spans, inst.suppliers):
        A, unit = s.alpha * B, s.beta * per_unit
        row = []
        for i in range(lo, hi + 1):
            Q = cb * i * i
            r = best_batch_count(A, Q, i // lo)  # lo = m*den, so r <= floor(x/m)
            row.append((r, r * A + unit * i, Q))
            counts.add(r)
        priced.append(row)
    L = math.lcm(*counts)
    return CostRows(
        [[head * L + Q * (L // r) for r, head, Q in row] for row in priced], B * L
    )


def _fill(
    inst: Instance,
    grid: Grid,
    costs: CostRows,
    kind: str,
    max_cells: int | None,
) -> DPTable:
    n = inst.n
    cols = grid.demand_points
    cells = (n + 1) * cols
    if max_cells is not None and cells > max_cells:
        raise ResourceLimitError(
            f"table for H={grid.H} needs {cells} cells, above the cap {max_cells}"
        )

    prev = [None] * cols
    prev[0] = 0
    phi_rows = [prev]
    choice_rows = [[SKIP] * cols]
    for k in range(1, n + 1):
        lo, hi = grid.spans[k - 1]
        ck = costs[k - 1]
        # suffix minima over candidate costs, for the over-delivery branch
        width = hi - lo + 1
        sufmin = [0] * width
        sufarg = [0] * width
        best_c, best_i = ck[width - 1], hi
        for j in range(width - 1, -1, -1):
            if ck[j] <= best_c:
                best_c, best_i = ck[j], lo + j
            sufmin[j], sufarg[j] = best_c, best_i
        row = [None] * cols
        ch = [SKIP] * cols
        for p in range(cols):
            best = prev[p]
            bidx = SKIP
            hi_p = hi if hi <= p else p
            if lo <= hi_p:
                base = p - lo
                for j in range(hi_p - lo + 1):
                    s = prev[base - j]
                    if s is None:
                        continue
                    val = ck[j] + s
                    if best is None or val < best:
                        best, bidx = val, lo + j
            start = p + 1 if p + 1 > lo else lo
            if start <= hi:
                j = start - lo
                val = sufmin[j] + prev[0]
                if best is None or val < best:
                    best, bidx = val, sufarg[j]
            row[p] = best
            ch[p] = bidx
            assert best is None or prev[p] is None or best <= prev[p]
            if p:
                if row[p - 1] is None:
                    assert row[p] is None
                else:
                    assert row[p] is None or row[p] >= row[p - 1]
        phi_rows.append(row)
        choice_rows.append(ch)
        prev = row
    return DPTable(
        H=grid.H, grid=grid, kind=kind, phi=phi_rows, den=costs.den,
        choice=choice_rows, cells=cells,
    )


def solve_fixed_H(inst: Instance, H: int, *, max_cells: int | None = None) -> DPTable:
    """Fill the Bellman table for one grid-step hypothesis H.

    Single-delivery instances price each candidate volume as one batch;
    multi-delivery instances price it as the cheapest batch split.
    ``max_cells`` caps the cells of this one table.
    """
    grid = build_grid(inst, H)
    if inst.mode == MULTI:
        return _fill(inst, grid, _aggregated_candidate_costs(inst, grid), "multi-aggregated", max_cells)
    return _fill(inst, grid, _single_candidate_costs(inst, grid), SINGLE, max_cells)


def _chosen_indices(table: DPTable, inst: Instance) -> list[tuple[int, int]]:
    """Walk the choice table from phi(n, P) down: (supplier, volume index) for
    every supplier the winning plan uses, in supplier order.

    Raises InfeasibleInstanceError when the table carries no feasible plan.
    """
    if table.final is None:
        raise InfeasibleInstanceError(
            f"no feasible plan exists on the H={table.H} grid"
        )
    chosen = []
    p = table.grid.demand_points - 1
    for k in range(inst.n, 0, -1):
        c = table.choice[k][p]
        if c == SKIP:
            continue
        chosen.append((k, c))
        p = p - c if c < p else 0
    return chosen[::-1]


def backtrack(table: DPTable, inst: Instance) -> Solution:
    """Recover the winning volumes of a filled table.

    Raises InfeasibleInstanceError when the table carries no feasible plan.
    """
    den = table.grid.denominator
    deliveries: list[tuple[int, Fraction]] = []
    for k, idx in _chosen_indices(table, inst):
        vol = Fraction(idx, den)
        if table.kind == "multi-aggregated":
            r, _ = multi_delivery_cost(inst.suppliers[k - 1], vol, inst.lam, inst.c_hold)
            deliveries.extend((k, vol / r) for _ in range(r))
        else:
            deliveries.append((k, vol))
    return make_solution(inst, deliveries)


@dataclass(frozen=True)
class HTrace:
    H: int
    objective: Fraction | None
    cells: int
    micros: int


@dataclass(frozen=True)
class SolveReport:
    best_H: int
    solution: Solution
    elapsed_seconds: float
    trace: tuple[HTrace, ...]
    kind: str

    @property
    def per_H_objectives(self) -> tuple[tuple[int, Fraction | None], ...]:
        return tuple((t.H, t.objective) for t in self.trace)

    @property
    def table_cells_filled(self) -> int:
        return sum(t.cells for t in self.trace)


def _sweep_cells(inst: Instance, h_values: range) -> int:
    """Cells of every table the sweep fills, from the grid definition alone:
    (n+1) rows of P*H*c_hold*den(lam) + 1 columns per hypothesis H."""
    step = inst.c_hold * inst.lam.denominator
    return (inst.n + 1) * sum(inst.P * H * step + 1 for H in h_values)


def _require_sweep_budget(inst: Instance, h_values: range, max_cells: int | None) -> None:
    """Refuse a sweep whose tables would hold more than max_cells cells in all."""
    if max_cells is None:
        return
    total = _sweep_cells(inst, h_values)
    if total > max_cells:
        raise ResourceLimitError(
            f"the sweep over H={h_values[0]}..{h_values[-1]} needs {total} "
            f"table cells, above the cap {max_cells}"
        )


def _sweep(inst: Instance, h_values: range, max_cells: int | None) -> SolveReport:
    t_start = time.perf_counter()
    _require_sweep_budget(inst, h_values, max_cells)
    traces = []
    best_table = None
    best_val = None
    for H in h_values:
        t0 = time.perf_counter()
        table = solve_fixed_H(inst, H)
        micros = int((time.perf_counter() - t0) * 1_000_000)
        val = table.final
        traces.append(HTrace(H, val, table.cells, micros))
        # <= so that among cost-ties the finest grid names best_H; every tied
        # table backtracks to an equally cheap plan
        if val is not None and (best_val is None or val <= best_val):
            best_val, best_table = val, table
    if best_table is None:
        raise InfeasibleInstanceError("no grid admits a feasible plan")
    solution = backtrack(best_table, inst)
    assert solution.objective == best_val  # recomputed from scratch in make_solution
    return SolveReport(
        best_H=best_table.H,
        solution=solution,
        elapsed_seconds=time.perf_counter() - t_start,
        trace=tuple(traces),
        kind=best_table.kind,
    )


def solve(inst: Instance, *, max_cells: int | None = None) -> SolveReport:
    """Exact optimum of a single-delivery instance via the H sweep.

    ``max_cells`` caps the total table cells of the whole sweep; a sweep over
    the cap raises ResourceLimitError before any table is filled.
    """
    require_valid(inst)
    if inst.mode != SINGLE:
        raise ValueError("solve expects a single-delivery instance; use solve_multi")
    return _sweep(inst, range(1, inst.n + 1), max_cells)


def multi_h_limit(inst: Instance) -> int:
    """Upper bound on the interior batch count of an optimal multi-delivery
    plan: floor(P/m) batches per supplier.  Plans that over-deliver consist of
    minimum-size batches only, which every grid carries, so H=1 covers them."""
    return max(1, sum(inst.P // s.m for s in inst.suppliers))


def solve_multi(inst: Instance, *, max_cells: int | None = None) -> SolveReport:
    """Exact optimum when suppliers may deliver repeatedly.

    Each grid total is priced with the closed-form equal-batch split, and the
    sweep runs over H = 1 .. multi_h_limit.  ``max_cells`` caps the total table
    cells of the whole sweep; a sweep over the cap raises ResourceLimitError
    before any table is filled.
    """
    require_valid(inst)
    if inst.mode != MULTI:
        raise ValueError("solve_multi expects a multi-delivery instance; use solve")
    return _sweep(inst, range(1, multi_h_limit(inst) + 1), max_cells)

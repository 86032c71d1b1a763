"""Exact dynamic program over rational volume grids.

If an optimal plan serves H suppliers strictly inside their volume windows,
its volumes are rationals whose denominators divide H * c_hold (times the
denominator of the consumption intensity when that is not an integer): the
remaining volumes sit at 0, m, or M, and the interior ones are pinned by the
equal-marginal formula in :mod:`lotdp.closed_form`.  For each hypothesis H the
solver therefore restricts batch volumes to the grid m_k, m_k + h, ..., M_k
with step h = 1 / (H * c_hold * den(lam)), fills a Bellman table

    phi[k][p] = cheapest way to cover residual demand p using suppliers 1..k

and backtracks the winning volumes.

An interior volume exceeds its m, and a plan with an interior group covers
exactly P, so the interior count H of an optimum is at most L.  In single
mode a supplier can be interior only when M > m, in multi mode it holds at
most (M - 1) // m interior batches (``_interior_caps``), and the m of all
interior batches sum to at most P - 1: L_count is the most batches that fit
(``interior_limit``).  Each interior batch also costs more than its
supplier's f = alpha + beta*m + c*m**2/(2*lam), and table 1 bounds the
optimum v* from above, so L is the number of counts c in 1..L_count whose c
smallest f sum to less than table 1's cost, at least 1: ``_count_bound`` at
price 0, read strictly.  ``best_H`` still names the largest H up to H_top
(n, or ``multi_h_limit``, never below L) whose grid reaches v*.
Grid g lies inside grid H when g divides H, an optimum on two grids lies on
the grid of their gcd, and every optimum lies on the grid of its own
interior count c <= L, so the smallest grid of an optimum divides its c.
Table H can add an optimum only through one with H | c.  The sweep fills
table 1 (cost v1) and then prices the suppliers once: ``_count_bound``
returns one bound list per price, at price 0, which reads L, and in single
mode, where a price on the demand bounds every plan with exactly c interior
suppliers from below, at v1/P, 3*v1/(2P) and 2*v1/P too.  It fills each
table H in 2..L unless every multiple c <= L of H is priced above the
cheapest table so far at one of the positive prices; multi mode fills every
table 1..L, as there the bound cost more time than the fills it saved.
Every optimum's smallest grid is filled, the cheapest table is the exact
optimum v*, and grid H reaches v* exactly when H is a multiple of some
filled table that reaches v*: best_H is the largest multiple up to H_top of
such a table.

The fill computes phi only.  The backtrack decides each step with one tie
rule, ``_choice``: a supplier is skipped when skipping costs the same, and
otherwise takes the smallest volume that attains the cell.  So each table's
backtrack is the lexicographically smallest optimal plan on its grid (volumes
compared from supplier n down, a skip counting as 0).  The optimal plans on
grid best_H are those of the filled reaching tables that divide best_H, so
best_H's plan is the smallest of theirs, and no table above L is ever
filled.  The sweep ranks each table H it fills by (its objective, minus the
largest multiple of H up to H_top) and keeps only the tables of least rank
so far, dropping each other table once it loses: a reaching table g divides
best_H exactly when its largest multiple is best_H, so the tables kept at
the end are those that reach v* and divide best_H, in fill order.  The sweep
walks the plan of each kept table once (``DPTable.plan``), and backtracks
the one whose plan, scaled to grid best_H, is smallest.  It checks the bound
on the plan it returns: its interior count (``_interior_count``) is at most
L.

Pricing and the fill never build a Fraction.  With lam = a/b, every candidate
cost on the grid of denominator den is an integer over B = 2*a*den**2 (single
batches), or over B*K in the aggregated multi-delivery pricing, K the lcm of
the batch counts chosen.  phi stays a table of integer numerators over that
one denominator, so ``DPTable.final`` is the only Fraction a table produces.
Both pricings build their rows with one kernel, ``_run_rows``: a row is a
sequence of runs, each the totals priced as the same number r of equal
batches, and a run's costs are the running sum of an arithmetic progression.
An aggregated row has one run per batch count, its breakpoints found in
closed form with math.isqrt, and a single-batch row is the one run r = 1.

The interior branch of the fill, phi[k-1][p - v] + cost(v) minimized over the
window volumes v <= p, is a min-plus convolution with the supplier's cost row.
A convex row (a single batch, alpha + beta*v + c*v**2/(2*lam)) gets three
structured kernels, and any other row (an aggregated multi-mode row of
several runs, a minimum of convex pieces) gets plain scans.  The kernels are divide and
conquer here, and the over-delivery read and the bound's increments below.
On a convex row the matrix phi[k-1][q] + cost(p - q) is Monge, so the
cheapest q of residual p never decreases with p, and divide and conquer over
those monotone argmins (Galil & Park 1992) finds every residual's best
candidate in O((cols + width) * log cols) instead of the scans' O(cols *
width).  Only the values matter there: which volume attains a cell is read
off phi and the cost rows at backtrack, and only on the n cells of the path.

A cell cap, when given, bounds the total cells of the whole sweep and is
checked before any table is filled, so before L is known: it counts the
tables 1..L_count, and L <= L_count.  The tables the sweep holds at once are
some of those it fills, so the cap bounds them too.

Demand may also be covered by over-delivery: a batch larger than the open
residual p closes the plan on its own.  In multi-delivery mode the aggregated
cost is not monotone in the total (a new batch count unlocks at each multiple
of m), so every larger grid total is a candidate.  Suffix minima of the cost
row, taken from the top of the row's band down to its bottom, give each
residual its cheapest single batch at or above it, on top of nothing.  A
single batch's cost rises with its volume, so there that batch is max(p, m)
and the row is read as it is.

A solve reads phi(n, P) and the cells its backtrack walks through, and the
fill computes only the cells a plan cheaper than one it already holds could
pass through.  Each supplier's cost lies above a convex function of its
volume, 0 at 0: for a single batch, the chord from the origin to the volume
with the cheapest cost per unit, then the cost itself; for any other row,
the line through the origin at that cheapest unit cost.  Its unit increments,
floored to integers over the table's denominator, are merged into one sorted
list for suppliers 1..k and one for k+1..n: the sum of the p smallest
increments of suppliers 1..k, LBpre_k(p), bounds from below every plan of
theirs that covers p, and LBsuf_k(s) does the same for suppliers k+1..n.  LB,
the sum of the P*den smallest increments of all, bounds every plan.  UB is
the cost of a feasible plan of the table: the relaxation water-filled to P,
each supplier below its m lifted to m, and the excess handed back, largest
last increment first, or the same after dropping the suppliers left below m,
or one batch of at least P alone, whichever is cheapest.  Row k is computed
at p = 0 and in its band, the residuals p >= 1 with LBpre_k(p) +
LBsuf_k(P*den - p) <= UB.  The sum is convex in p and least, at LB, where the
two merged lists cross, so the band is one interval around that split: a
bisection finds the split and two loops walk out from it, summing the
increments they trade, until the sum passes UB - LB.  Row k reads row k-1 at
0 and in row k-1's band only; every other cell keeps row k-1's value, and
row 0 holds a sentinel above UB at p >= 1.  So each cell is at least its
exact value or, plus LBsuf_k(P*den - p), above UB: a candidate read from a
cell of the second kind is above UB less LBsuf_k too, as the relaxation of
suppliers k..n is at most supplier k's cost plus that of k+1..n.  A cell
whose exact value plus LBsuf_k(P*den - p) is at most UB lies in the band,
and so does each predecessor on its optimal plans, for the same reason, so
it is exact by induction.  phi(n, P) is such a cell, as UB is at least
phi(n, P), and so is every cell its backtrack walks through: every table's
final and plan are those of the full table.  No float is involved.  Whether a grid
has a plan does not depend on H: the windows cover P on every grid or on
none, and the fill refuses a grid whose windows fall short, so every table
it returns holds integers only.  The cell guard still counts whole tables.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, islice, repeat
from operator import add, eq, floordiv, indexOf, sub

from .closed_form import multi_delivery_cost
from .errors import InfeasibleInstanceError, ResourceLimitError
from .model import (
    MULTI,
    SINGLE,
    Instance,
    Solution,
    make_solution,
    require_valid,
)

@dataclass(frozen=True)
class Grid:
    H: int
    denominator: int  # volumes are index / denominator
    demand_points: int  # residual-demand indices run 0 .. P*denominator
    spans: tuple[tuple[int, int], ...]  # per supplier: (m*denominator, M*denominator)

    @property
    def cells(self) -> int:
        """Size of the grid's table, the unit of the cell guard: n + 1 rows
        of ``demand_points`` residuals."""
        return (len(self.spans) + 1) * self.demand_points


def build_grid(inst: Instance, H: int) -> Grid:
    """The volume grid of hypothesis H, of step 1 / (H * c_hold * den(lam)).

    Expects an instance that passed :func:`lotdp.model.require_valid`, which
    ``solve`` and ``solve_multi`` check once per sweep; nothing here checks
    it again."""
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
    ``costs.den``, of the cheapest way found to cover residual demand index p
    with suppliers 1..k.  ``costs`` are the cost rows it was filled from,
    which the backtrack reads to name each step's volume (:func:`_choice`).

    Row k is computed at p = 0 and in ``bands[k]`` = (first, last), the
    residuals whose lower bound, the relaxation of suppliers 1..k at p plus
    that of suppliers k+1..n at P*den - p, is at most UB, the cost of one
    feasible plan of the table (row 0's band is empty).  Every cell is at
    least its exact value or, plus the second bound, above UB, and a cell
    whose exact value plus the second bound is at most UB holds it exactly;
    phi(n, P) and every cell of its backtrack are such cells, and every
    volume that attains one of them stands on row k-1 at 0 or in its band,
    where :func:`_choice` starts.  A cell outside the band keeps row k-1's
    value, and row 0 holds a sentinel above UB at p >= 1.  ``grid.cells`` is
    the size of the table, the unit of the cell guard, and ``computed`` the
    cells the fill evaluated.
    """

    grid: Grid
    kind: str  # "single" | "multi-aggregated", or a cross-check's own label
    phi: list  # (n+1) x demand_points, int numerators over costs.den
    costs: CostRows
    bands: tuple[tuple[int, int], ...]  # row k is computed at 0 and in first..last

    @property
    def computed(self) -> int:
        """The cells the fill evaluated: p = 0 and the band in every row."""
        return sum(1 + max(0, last - first + 1) for first, last in self.bands)

    @property
    def final(self) -> Fraction:
        """phi(n, P): cheapest cover of the full demand."""
        return Fraction(self.phi[-1][-1], self.costs.den)

    @cached_property
    def plan(self) -> list[tuple[int, int]]:
        """The table's backtrack, (supplier, volume index) in supplier order:
        :func:`_chosen_indices`, walked on first use and kept."""
        return _chosen_indices(self)


EMPTY = (1, 0)  # a band with no residual


class CostRows(list):
    """Candidate costs of one grid: per supplier, one integer numerator for
    each grid volume m..M, all over the common denominator ``den``.
    ``convex`` says every row is convex, its first differences an arithmetic
    progression, and rises strictly with the volume: the rows of a single
    batch, which :func:`_run_rows` marks."""

    def __init__(self, rows, den: int, convex: bool = False):
        super().__init__(rows)
        self.den = den
        self.convex = convex


def _base_denominator(lam: Fraction, den: int) -> int:
    """B = 2 * a * den**2 for lam = a/b: with v = i/den, one batch costs

        alpha + beta*v + c*v**2/(2*lam) = (alpha*B + beta*i*2*a*den + c*b*i**2) / B

    and every split of i into grid batches is an integer over B as well."""
    return 2 * lam.numerator * den * den


def _run_rows(inst: Instance, grid: Grid, runs: list, K: int) -> CostRows:
    """The cost rows of a grid, built from runs: ``runs[k]`` lists supplier
    k+1's runs (first, end, r), which cover its volume indices lo..hi in
    order, each pricing the totals first..end-1 as r equal batches.  K is a
    multiple of every r, and the rows are numerators over B*K.

    Over B (see _base_denominator), r batches of total index i cost r*A +
    unit*i + cb*i**2/r, with A = alpha*B and cb = c*b.  Over B*K that is
    (r*A + unit*i)*K + q*i**2 with q = cb*K/r, whose first differences
    unit*K + q*(2i + 1) rise by 2*q > 0: each run is the running sum of an
    arithmetic progression, and a row with one run is convex and rises.  The
    rows are marked ``convex`` when K = 1: every run is then one batch, so
    every row is one run, the single-batch row."""
    den = _base_denominator(inst.lam, grid.denominator) * K
    per_unit = 2 * inst.lam.numerator * grid.denominator * K
    cb = inst.c_hold * inst.lam.denominator
    rows = []
    for row_runs, s in zip(runs, inst.suppliers):
        A, unit = s.alpha * den, s.beta * per_unit  # the docstring's A*K and unit*K
        row = []
        for first, end, r in row_runs:
            q = cb * K // r
            step = 2 * q
            start = r * A + (unit + q * first) * first
            d = unit + q + step * first  # cost(first + 1) - cost(first)
            row += accumulate(range(d, d + step * (end - first - 1), step), initial=start)
        rows.append(row)
    return CostRows(rows, den, K == 1)


def _single_candidate_costs(inst: Instance, grid: Grid) -> CostRows:
    """Cost of one batch of each grid volume: alpha + beta*v + c*v^2/(2*lam).

    Each row is the one run r = 1 of :func:`_run_rows` over the whole window,
    with K = 1: a convex row that rises with the volume."""
    return _run_rows(inst, grid, [((lo, hi + 1, 1),) for lo, hi in grid.spans], 1)


def _batch_count_runs(lo: int, hi: int, A: int, cb: int) -> list[tuple[int, int, int]]:
    """The runs (first, end, r) of an aggregated row over the totals lo..hi,
    r = 1, 2, ... in turn.  The best count at total i is best_batch_count(A,
    cb*i**2, i // lo): the smallest r with r*(r+1)*A >= cb*i**2, capped at
    i // lo (lo = m*den, so r <= floor(x/m)).  Both grow with i, so r + 1
    beats r from the first i with i >= (r+1)*lo and cb*i**2 > r*(r+1)*A,
    that is i > isqrt(r*(r+1)*A // cb).  That start rises strictly with r,
    so the count steps up by one at a time and every count up to the last
    prices some total."""
    runs, first = [], lo
    for r in range(1, hi // lo + 1):  # r <= i // lo, so the last run ends at hi + 1
        end = min(max((r + 1) * lo, math.isqrt(r * (r + 1) * A // cb) + 1), hi + 1)
        runs.append((first, end, r))
        if end > hi:
            break
        first = end
    return runs


def _aggregated_candidate_costs(inst: Instance, grid: Grid) -> CostRows:
    """Cheapest multi-batch purchase of each grid total, batch count free.

    With r batches the total i/den costs (r*A + beta*i*2*a*den + cb*i**2/r)
    / B with A = alpha*B and cb = c*b (see _base_denominator).  Each row is
    the runs of :func:`_batch_count_runs`, one per batch count, priced by
    :func:`_run_rows` over B*K, K the lcm of the counts in use: 1 up to the
    most runs of a row.  When every row is one run (every window below 2m,
    say), they are the rows of :func:`_single_candidate_costs`."""
    B = _base_denominator(inst.lam, grid.denominator)
    cb = inst.c_hold * inst.lam.denominator
    runs = [_batch_count_runs(lo, hi, s.alpha * B, cb) for (lo, hi), s in zip(grid.spans, inst.suppliers)]
    return _run_rows(inst, grid, runs, math.lcm(*range(1, max(map(len, runs), default=1) + 1)))


def _increments(row: list, lo: int, hi: int, total: int, convex: bool) -> list[int]:
    """Unit increments g(1) - g(0), g(2) - g(1), ... of a convex lower bound g
    on one cost row, g(0) = 0, each floored to an integer over the row's
    denominator; min(hi, total) of them, as no residual needs more.

    A one-run row (a single batch) lies above its chord from the origin to
    t = argmin cost(v)/v, and its own differences after t are at least that
    chord's slope, so g is the chord, then the row, whose differences are
    an arithmetic progression (see :class:`CostRows`): the first difference
    after t and the row's second difference give them all.  cost(v)/v is
    quasi-convex, so bisection finds t.  Any other row lies above the line
    through the origin of slope min cost(v)/v, and the floor of that minimum
    is the minimum of the floors.  Every increment is at least 0: costs are
    not negative, and a single batch's cost grows with its volume."""
    cap = min(hi, total)
    if not convex:
        return [min(map(floordiv, row, range(lo, hi + 1)))] * cap
    # t = lo + j for the first j with cost(v)/v <= cost(v+1)/(v+1) at v = lo + j,
    # compared crosswise
    j, last = 0, hi - lo
    while j < last:
        mid = (j + last) >> 1
        if row[mid] * (lo + mid + 1) <= row[mid + 1] * (lo + mid):
            last = mid
        else:
            j = mid + 1
    t = lo + j
    slope = row[j] // t
    if t >= cap:
        return [slope] * cap
    inc = [slope] * t
    first = row[j + 1] - row[j]
    # cap - t > 1 differences reach row[j + 2], cap <= hi
    step = row[j + 2] - 2 * row[j + 1] + row[j] if cap - t > 1 else 1
    inc += range(first, first + step * (cap - t), step)
    return inc


def _relaxations(incs: list[list[int]], total: int) -> tuple[list, list]:
    """The merged increments: ``pre[k]`` holds the smallest increments of
    suppliers 1..k in ascending order, ``suf[k]`` those of suppliers k+1..n,
    each cut at ``total``.  The sum of the first p of pre[k] is LBpre_k(p),
    and of the first s of suf[k] LBsuf_k(s).  A list is shorter where those
    suppliers hold fewer increments, and the residuals past its length are
    out of their reach.  A plan of suppliers 1..k covering p costs at least
    LBpre_k(p): it takes at least p units, and each supplier's first units
    cost at least its own first increments."""
    def merged(order):
        run, out = [], [[]]
        for inc in order:
            run = run + inc
            run.sort()  # two sorted runs: one merge
            del run[total:]
            out.append(run)
        return out

    suf = merged(incs[::-1])[::-1]
    pre = merged(incs[:-1]) + suf[:1]  # all n suppliers: merged once
    return pre, suf


def _smallest_counts(lists: list[list[int]], count: int, cut: int | None = None) -> list[int]:
    """How many entries of each sorted list the ``count`` smallest entries
    of them all take, ties going to the earlier lists.  ``cut``, when given,
    is the count-th smallest entry."""
    if count <= 0:
        return [0] * len(lists)
    if cut is None:
        cut = sorted(chain.from_iterable(lists))[count - 1]
    taken = [bisect_left(inc, cut) for inc in lists]
    left = count - sum(taken)
    for i, inc in enumerate(lists):
        more = min(left, bisect_right(inc, cut) - taken[i])
        taken[i] += more
        left -= more
    return taken


def _upper_bound(grid: Grid, costs: CostRows, incs: list[list[int]], lb: int, cut: int | None) -> int:
    """UB, the cost of a feasible plan on the grid, priced from the cost rows.
    The relaxation water-filled to ``total`` units leaves some suppliers
    below their m.  One plan lifts each of them to m and hands back the
    excess units, the largest last increments first, down to no supplier
    below its m.  When the other suppliers can cover the demand alone, a
    second plan drops those suppliers and water-fills again over the rest,
    then lifts and hands back the same way.  A third plan is one batch of at
    least ``total`` alone, the cheapest of the suppliers whose window
    reaches it.  UB is the cheapest of the three.  ``lb`` is the relaxation
    of all suppliers, LB = LBsuf_0(total), and ``cut`` its largest
    increment, the total-th smallest of all (None when total is 0)."""
    total = grid.demand_points - 1

    def priced(x):
        x = [lo if 0 < xi < lo else xi for xi, (lo, _) in zip(x, grid.spans)]
        excess = sum(x) - total
        if excess > 0:
            spare = [inc[lo:xi] for inc, xi, (lo, _) in zip(incs, x, grid.spans)]
            kept = _smallest_counts(spare, sum(map(len, spare)) - excess)
            x = [lo + kj if xi > lo else xi for xi, kj, (lo, _) in zip(x, kept, grid.spans)]
        return sum(ck[xi - lo] for ck, xi, (lo, _) in zip(costs, x, grid.spans) if xi)

    x = _smallest_counts(incs, total, cut)
    ub = priced(x)
    if ub > lb:  # else a plan at the relaxation is optimal
        short = [0 < xi < lo for xi, (lo, _) in zip(x, grid.spans)]
        rest = [[] if s else inc for s, inc in zip(short, incs)]
        if any(short) and sum(map(len, rest)) >= total:
            ub = min(ub, priced(_smallest_counts(rest, total)))
        ub = min([ub] + [min(ck[max(total, lo) - lo:]) for ck, (lo, hi) in zip(costs, grid.spans) if hi >= total])
    return ub


def _band(A: list[int], B: list[int], total: int, lb: int, ub: int) -> tuple[int, int]:
    """The residuals p >= 1 of row k with f(p) = sum(A[:p]) + sum(B[:total -
    p]) at most ub, as (first, last); EMPTY when there are none.  A and B are
    the merged increments of suppliers 1..k and k+1..n (:func:`_relaxations`),
    so f(p) = LBpre_k(p) + LBsuf_k(total - p).

    f(p + 1) - f(p) = A[p] - B[total - p - 1] never falls as p grows, so f
    falls strictly up to the first p* with A[p*] >= B[total - p* - 1] and
    never falls after it.  f(p*) is the sum of the total smallest increments
    of all, lb, and the p with f(p) <= ub form one interval around p*.  One
    bisection finds p* (the selection step of Frederickson & Johnson 1984),
    and two loops walk out from it, summing the differences, until the sum
    passes ub - lb: O(log total + band width) per row.  Expects A and B to
    hold at least total increments between them and ub >= lb, as the fill's
    lists and bounds do."""
    a, b = max(0, total - len(B)), min(total, len(A))  # the p both lists reach
    lo, hi = a, b
    while lo < hi:
        mid = (lo + hi) >> 1
        if A[mid] >= B[total - mid - 1]:
            hi = mid
        else:
            lo = mid + 1
    gap = ub - lb
    last, rise = lo, 0
    while last < b:
        rise += A[last] - B[total - last - 1]
        if rise > gap:
            break
        last += 1
    first, rise = lo, 0
    while first > 1 and first > a:
        rise += B[total - first] - A[first - 1]
        if rise > gap:
            break
        first -= 1
    first = max(first, 1)
    return (first, last) if first <= last else EMPTY


def _run_minima(rband, qa, qb, w, va, pa, pb, row):
    """Lower ``row`` with a convex cost row: w[v - va] is the cost of
    volume index v for v = va..vb, vb = va + len(w) - 1, on top of the
    previous row at the residuals q = qa..qb, which ``rband`` holds reversed.

    Only the residuals p in pa..pb are done.  Residual p may take q in
    max(qa, p - vb) .. min(p - va, qb).  w convex makes prev[q] + w[p - q]
    Monge on this band, whatever prev holds, so the rightmost argmin q never
    decreases with p; the sentinel argmins qa left of the first residual and
    qb right of the last stay valid bounds.  Divide and conquer uses that:
    level by level the stride between solved residuals halves, and each new
    residual scans only the q between the argmins of its two solved
    neighbours: O((cols + width) * log cols) work instead of
    O(cols * width)."""
    span = len(w) - 1  # vb - va
    first = max(pa, va + qa)
    # residual t = 1..count is p = first + t - 1; none when the run cannot
    # reach the band from the previous band
    count = min(pb, va + span + qb) - first + 1
    size = 1
    while size <= count:
        size <<= 1
    opt = [qb] * (size + 1)  # rightmost argmin q per residual; sentinels at 0 and past count
    opt[0] = qa
    off = first - va - 1
    h = size >> 1
    while h:
        for t in range(h, count + 1, 2 * h):
            i = off + t  # p - va; volume p - q costs w[i - q]
            ql = opt[t - h]
            if i - span > ql:
                ql = i - span
            qr = opt[t + h]
            if i < qr:
                qr = i
            if ql == qr:
                val = rband[qb - qr] + w[i - qr]
            else:
                # candidates in descending q, so index() finds the largest q of a tie
                vals = list(map(add, rband[qb - qr:qb - ql + 1], w[i - qr:i - ql + 1]))
                val = min(vals)
                qr -= vals.index(val)
            opt[t] = qr
            p = va + i
            if val < row[p]:
                row[p] = val
        h >>= 1


def _fill_row(prev, prev_band, lo, hi, ck, band, convex=False):
    """Row k of a table from row k-1 ``prev`` and supplier k's cost row ``ck``
    over the volumes lo..hi.  Only the residuals of ``band`` = (first, last)
    are computed, from prev at 0 and at the residuals of ``prev_band``; every
    other cell keeps the skip entry prev[p].  The fill computes values only;
    which volume attains a cell is left to :func:`_choice`.

    Every cell of prev is an integer, and prev[0] = 0: residual 0 costs
    nothing in every row, as no batch costs less than 0.  With every band
    (1, P*den) and row 0 at 0 and a sentinel above every plan's cost
    elsewhere, the rows are the full table, the sentinel standing for no plan.

    ``convex`` says ck is convex and rises with the volume (see
    :class:`CostRows`).  Then the cheapest batch of at least p is max(p, lo),
    so the over-delivery pass reads ck as it is, and the interior pass is
    :func:`_run_minima`; any other row takes suffix minima and scans each
    residual's whole window."""
    pa, pb = band
    row = prev[:]  # the skip entry, lowered by any cheaper candidate
    if pa > pb:
        return row
    # one volume v >= p alone, on top of prev[0] = 0: exactly p, or a batch
    # above p that closes the plan (over-delivery).  over[j] is the cheapest
    # volume >= first + j, and the residuals below first all take over[0]:
    # ck itself on a rising row, else suffix minima of the row from the top
    # of the band down to its bottom
    top = min(pb, hi)
    if pa <= top:
        first = max(pa, lo)
        if convex:
            over = ck[first - lo:top - lo + 1] if first <= top else ck[:1]
        else:
            seed = max(top, lo)
            over = list(accumulate(reversed(ck[first - lo:seed - lo]), min, initial=min(ck[seed - lo:])))
            over.reverse()
        row[pa:top + 1] = map(min, row[pa:top + 1], chain(repeat(over[0], first - pa), over))
    # volume p - q on top of prev[q] for q in the previous band, over the
    # volumes that reach from that band into this one
    qa, qb = prev_band
    va, vb = max(lo, pa - qb), min(hi, pb - qa)
    if qa <= qb and va <= vb:
        rband = prev[qb:qa - 1:-1]
        if convex:
            _run_minima(rband, qa, qb, ck[va - lo:vb - lo + 1], va, pa, pb, row)
        else:
            for p in range(max(pa, va + qa), min(pb, vb + qb) + 1):
                ql, qr = max(qa, p - hi), min(qb, p - lo)
                val = min(map(add, rband[qb - qr:qb - ql + 1], ck[p - qr - lo:p - ql - lo + 1]))
                if val < row[p]:
                    row[p] = val
    return row


def _fill(
    inst: Instance,
    grid: Grid,
    costs: CostRows,
    kind: str,
    max_cells: int | None,
) -> DPTable:
    """Fill the table of one grid from its cost rows, row by row with
    :func:`_fill_row`, each row k only at p = 0 and in its band (see the
    module docstring).  ``max_cells`` caps the table's size, ``grid.cells``,
    and the fill computes at most that many.

    Raises InfeasibleInstanceError when the windows together hold less than
    P, which is so on every grid or on none."""
    n = inst.n
    cells = grid.cells
    if max_cells is not None and cells > max_cells:
        raise ResourceLimitError(
            f"table for H={grid.H} needs {cells} cells, above the cap {max_cells}"
        )
    total = grid.demand_points - 1
    incs = [
        _increments(ck, lo, hi, total, costs.convex) for ck, (lo, hi) in zip(costs, grid.spans)
    ]
    pre, suf = _relaxations(incs, total)
    merged = suf[0]  # the increments of all suppliers
    if len(merged) < total:  # the windows together hold less than P
        raise InfeasibleInstanceError("no grid admits a feasible plan")
    lb = sum(merged)
    ub = _upper_bound(grid, costs, incs, lb, merged[-1] if total else None)
    prev = [0] + [ub + 1] * total
    phi_rows, bands = [prev], [EMPTY]
    for k in range(1, n + 1):
        lo, hi = grid.spans[k - 1]
        band = _band(pre[k], suf[k], total, lb, ub)
        prev = _fill_row(prev, bands[-1], lo, hi, costs[k - 1], band, costs.convex)
        phi_rows.append(prev)
        bands.append(band)
    # the relaxation bounds every plan from below, UB is one plan's cost
    assert lb <= prev[total] <= ub, f"phi(n, P) outside its bounds on grid {grid.H}"
    return DPTable(grid=grid, kind=kind, phi=phi_rows, costs=costs, bands=tuple(bands))


def solve_fixed_H(inst: Instance, H: int, *, max_cells: int | None = None) -> DPTable:
    """Fill the Bellman table for one grid-step hypothesis H.

    Single-delivery instances price each candidate volume as one batch;
    multi-delivery instances price it as the cheapest batch split.
    ``max_cells`` caps the cells of this one table.  Raises
    InfeasibleInstanceError when the windows cannot cover P.

    Expects an instance that passed :func:`lotdp.model.require_valid`:
    ``solve`` and ``solve_multi`` check it once per sweep, not once per
    table, and this function does not check it.  On an invalid instance the
    result is undefined: a negative alpha gives a negative cost, a supplier
    with m > M may be silently left out, and a zero c_hold or m, or a float
    field, raises a bare ValueError, ZeroDivisionError or TypeError.
    """
    grid = build_grid(inst, H)
    if inst.mode == MULTI:
        return _fill(inst, grid, _aggregated_candidate_costs(inst, grid), "multi-aggregated", max_cells)
    return _fill(inst, grid, _single_candidate_costs(inst, grid), SINGLE, max_cells)


def _choice(table: DPTable, k: int, p: int) -> int | None:
    """The tie rule, stated once: the volume index supplier k takes at
    residual p, or None when it is skipped.  Reads only phi[k][p], phi[k-1]
    at p, at p - v for the window volumes v <= p that reach no further than
    the top qb of row k-1's band (v >= p - qb), and at 0.  At a cell whose
    exact value plus the bound of suppliers k+1..n is at most UB (every cell
    of a backtrack, see :class:`DPTable`), a candidate that attains the cell
    in the full table reads a cell of the same kind, so one at 0 or in row
    k-1's band, and it attains it here too; no other candidate can: it reads
    a value at least its exact one, or one above UB less the bound.  So the
    choice is that of the full table.

    Skipping wins when it costs the same.  Otherwise the smallest volume v
    with cost(v) + phi[k-1][p - v] (or phi[k-1][0] when v > p, an
    over-delivery) equal to phi[k][p] wins: an interior volume (v <= p)
    before any over-delivery, and the smaller volume among equals.  So a
    table backtracks to its lexicographically smallest optimal plan.  One
    pass in ascending volume order, from max(lo, p - qb), does both kinds:
    volume v attains the cell when val - cost(v) equals the rest it stands
    on, phi[k-1] read from p - v down over the interior volumes, then
    phi[k-1][0]."""
    prev, val = table.phi[k - 1], table.phi[k][p]
    if val == prev[p]:
        return None
    lo, hi = table.grid.spans[k - 1]
    start = max(lo, p - table.bands[k - 1][1])  # EMPTY's top is 0
    # a None cell (no plan, in a test's reference table) equals no cost
    rest = chain(reversed(prev[max(p - hi, 0):max(p - start + 1, 0)]), repeat(prev[0]))
    costs = islice(table.costs[k - 1], start - lo, None)
    try:
        return start + indexOf(map(eq, map(sub, repeat(val), costs), rest), True)
    except ValueError:
        raise AssertionError(f"no volume attains phi[{k}][{p}] on the H={table.grid.H} grid") from None


def _chosen_indices(table: DPTable) -> list[tuple[int, int]]:
    """Walk from phi(n, P) down, each step decided by :func:`_choice`:
    (supplier, volume index) for every supplier the winning plan uses, in
    supplier order.  Read it through ``table.plan``, which walks once."""
    chosen = []
    p = table.grid.demand_points - 1
    for k in range(len(table.grid.spans), 0, -1):
        v = _choice(table, k, p)
        if v is None:
            continue
        chosen.append((k, v))
        p = p - v if v < p else 0
    return chosen[::-1]


def backtrack(table: DPTable, inst: Instance) -> Solution:
    """Recover the winning volumes of a filled table from ``table.plan``."""
    den = table.grid.denominator
    deliveries: list[tuple[int, Fraction]] = []
    for k, idx in table.plan:
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
    objective: Fraction
    cells: int  # the table's size
    micros: int
    computed: int  # the cells the fill evaluated, DPTable.computed


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one H sweep.

    ``trace`` holds one entry per table filled, in fill order: grid 1 and
    those of the grids 2..L that the count bound does not leave out (all of
    them in multi mode).
    ``skipped_H`` lists the other grids up to ``H_top``: each lies above
    ``L``, or every multiple c <= L of it is an interior count whose plans
    all cost more than a table filled before it (see ``_sweep``), so no
    optimum needs it.  ``interior`` is the returned plan's interior count,
    which the sweep checks is at most ``L``.

    ``elapsed_seconds`` is the wall time from the cell-budget check through
    pricing and filling every table, backtracking the winner and
    ``make_solution`` (which recomputes the objective and checks the plan's
    feasibility).  Validating the instance happens before and is not included.
    """

    best_H: int
    solution: Solution
    elapsed_seconds: float
    trace: tuple[HTrace, ...]
    kind: str
    L: int  # no optimum has more interior batches than this
    H_top: int  # best_H is the largest H <= H_top whose grid holds an optimum
    L_count: int  # the bound from the windows alone, which the cell guard uses
    interior: int  # the plan's interior batches, _interior_count

    @property
    def table_cells_filled(self) -> int:
        return sum(t.cells for t in self.trace)

    @property
    def cells_computed(self) -> int:
        return sum(t.computed for t in self.trace)

    @property
    def skipped_H(self) -> tuple[int, ...]:
        """Every grid up to H_top without a table: those above L, and those
        of 2..L that the count bound left out."""
        filled = {t.H for t in self.trace}
        return tuple(H for H in range(1, self.H_top + 1) if H not in filled)


def _interior_caps(inst: Instance) -> list[int]:
    """The most interior batches each supplier can hold: 1 if M > m, else 0,
    in single mode, and (M - 1) // m in multi mode, since r*m < M."""
    if inst.mode == MULTI:
        return [(s.M - 1) // s.m for s in inst.suppliers]
    return [int(s.M > s.m) for s in inst.suppliers]


def interior_limit(inst: Instance) -> int:
    """L_count, the bound on the interior count of every optimal plan that
    follows from the windows alone: the interior batches are the suppliers
    strictly inside their windows (single mode), or the batches of the
    suppliers whose total lies strictly between r*m and M (multi mode).

    Supplier i holds at most :func:`_interior_caps` interior batches.  A
    plan with an interior group covers exactly P, since shrinking an
    interior volume would save cost, and each interior batch exceeds its m,
    so the m of the interior batches sum to at most P - 1.  L_count is the
    most batches that fit, the lightest first, and at least 1, the grid of
    the plans with no interior volume.  The sweep's L also bounds their cost
    (:func:`_count_bound` at price 0) and never exceeds L_count."""
    count, budget = 0, max(inst.P - 1, 0)
    for m, cap in sorted(zip((s.m for s in inst.suppliers), _interior_caps(inst))):
        take = min(cap, budget // m)
        count += take
        budget -= take * m
        if take < cap:
            break
    return max(1, count)


def _interior_count(inst: Instance, solution: Solution) -> int:
    """The quantity L bounds, counted on one plan: r batches for each
    supplier whose total x, in r deliveries, has r*m < x < M.  A supplier
    used in single mode has r = 1, so there it counts the suppliers with
    m < x < M."""
    batches = [0] * inst.n
    for d in solution.deliveries:
        batches[d.supplier_index - 1] += 1
    return sum(
        r
        for r, x, s in zip(batches, solution.per_supplier_totals, inst.suppliers)
        if r * s.m < x < s.M
    )


def _count_bound(inst: Instance, ens: tuple[int, ...], ed: int, L: int) -> tuple[int, list[list[int]]]:
    """A lower bound on the cost of every plan with exactly c interior
    batches, for c = 0..L, at each price ell = en/ed >= 0 for en in ``ens``:
    (S, [D for each price]), D[c] the bound's numerator over S =
    2*a*c_hold*b*ed**2 for lam = a/b.  Each supplier counts up to its
    :func:`_interior_caps` interior batches, and never more than L, so each
    D has at most L + 1 entries.

    A price ell on the demand (Lagrangian relaxation, Fisher 1981) bounds a
    single-mode plan covering P from below by ell*P + sum_i g_i(x_i), with
    g_i(x) = cost_i(x) - ell*x = alpha + (beta - ell)*x + c_hold*x**2/(2*lam)
    and g_i(0) = 0.  A supplier at 0, m or M gives at least e = min(0, g(m),
    g(M)), and an interior one (m < x < M) at least e + d, d = min g over
    [m, M] - e.  So D(c) = ell*P + the sum of e + the c smallest d.  A
    positive price bounds single-mode plans only.

    At price 0, in either mode, e = 0 and d is f = alpha + beta*m +
    c_hold*m**2/(2*lam), one batch of m: an interior batch costs more than
    its f (a multi-mode total x in r batches, r*m < x, costs r batches of
    x/r > m), and every other batch at least 0.  So D(c) is S times the sum
    of the c smallest f, and rises strictly with c, as every f > 0.  Table 1
    costs at least v*, so the sweep reads L as the number of c >= 1 with
    D(c) below S times table 1's cost, at least 1.

    Times S every term is an integer: with A = S*alpha and lin =
    2*a*q*(beta*ed - en), q = c_hold*b*ed, S*g(x) = A + (lin + q*q*x)*x,
    whose least value over the reals, at x* = y/q with y = a*(en -
    beta*ed), is A - y*y."""
    a, q = inst.lam.numerator, inst.c_hold * inst.lam.denominator * ed
    S, slope = 2 * a * q * ed, 2 * a * q  # S*ell = slope*en
    caps = [min(cap, L) for cap in _interior_caps(inst)]
    bounds = []
    for en in ens:
        base, extras = slope * en * inst.P, []
        for s, count in zip(inst.suppliers, caps):
            A, lin = S * s.alpha, slope * (s.beta * ed - en)
            at_m, at_M = A + (lin + q * q * s.m) * s.m, A + (lin + q * q * s.M) * s.M
            e = min(0, at_m, at_M)
            base += e
            if count:
                y = a * (en - s.beta * ed)
                extras += [(at_m if y < q * s.m else A - y * y if y <= q * s.M else at_M) - e] * count
        bounds.append(list(accumulate(sorted(extras)[:L], initial=base)))
    return S, bounds


def _sweep_cells(inst: Instance, L_count: int) -> int:
    """Cells the sweep may fill, from the grid definition alone: the tables
    H = 1..L_count.  The sweep fills tables up to L only, and L <= L_count.
    Table H holds (n + 1) * (P*H*c_hold*den(lam) + 1) cells (``Grid.cells``),
    so the sum has a closed form and no grid is built."""
    step = inst.P * inst.c_hold * inst.lam.denominator
    return (inst.n + 1) * (step * L_count * (L_count + 1) // 2 + L_count)


def _require_sweep_budget(inst: Instance, L_count: int, max_cells: int | None) -> None:
    """Refuse a sweep whose tables could hold more than max_cells cells in all."""
    if max_cells is None:
        return
    total = _sweep_cells(inst, L_count)
    if total > max_cells:
        raise ResourceLimitError(
            f"the sweep over H=1..{L_count} needs {total} "
            f"table cells, above the cap {max_cells}"
        )


def _sweep(inst: Instance, H_top: int, max_cells: int | None) -> SolveReport:
    """Fill table 1 and the tables 2..L an optimum may need, and report
    best_H among H = 1..H_top with the backtrack of its table.

    After table 1, of cost v1, the suppliers are priced once:
    :func:`_count_bound` at price 0 and, in single mode with P > 0, at v1/P,
    3*v1/(2P) and 2*v1/P.  L is the number of c in 1..L_count whose price-0
    bound lies below v1, at least 1.  Table H in 2..L is filled unless, for
    every multiple c <= L of H, the largest positive-price bound lies above
    the cheapest table so far; multi mode fills them all.  The module
    docstring shows why the cheapest table is the optimum v*, why best_H is
    the largest multiple up to H_top of a filled table that reaches v*, and
    why the plan returned, the smallest of the kept tables' plans scaled to
    grid best_H, is the backtrack of grid best_H.

    Expects an instance that passed require_valid, as ``solve`` and
    ``solve_multi`` check; on one whose windows cannot cover P the fill of
    table 1 raises InfeasibleInstanceError ("no grid admits a feasible
    plan").  Raises ResourceLimitError before any table is filled when the
    tables 1..L_count hold more than max_cells cells.

    The plan returned is checked: its objective, recomputed by make_solution,
    must be the cheapest table's, an explicit raise that ``python -O`` keeps;
    its interior count is at most L and its totals lie on grid best_H, two
    asserts that ``-O`` drops."""
    t_start = time.perf_counter()
    L_count = interior_limit(inst)
    _require_sweep_budget(inst, L_count, max_cells)
    traces, kept, least = [], [], None

    def fill(H: int) -> None:
        nonlocal least
        t0 = time.perf_counter()
        table = solve_fixed_H(inst, H)
        micros = int((time.perf_counter() - t0) * 1_000_000)
        # the objective, then minus the largest multiple of H up to H_top
        rank = (table.final, H_top % H - H_top)
        traces.append(HTrace(H, rank[0], table.grid.cells, micros, table.computed))
        if least is None or rank < least:
            least, kept[:] = rank, []  # the tables kept so far lose for good
        if rank == least:
            kept.append(table)

    fill(1)
    v1 = least[0]
    if inst.mode == SINGLE and inst.P > 0:  # 0, v1/P, 3*v1/(2P) and 2*v1/P over one denominator
        ens, ed = tuple(k * v1.numerator for k in (0, 2, 3, 4)), 2 * v1.denominator * inst.P
    else:
        ens, ed = (0,), 1
    S, (D, *priced) = _count_bound(inst, ens, ed, L_count)
    # L counts the c >= 1 with D[c] < S*v1, the integers up to ceil(S*v1) - 1;
    # the price-0 list D rises strictly from D[0] = 0
    L = max(1, bisect_right(D, (S * v1.numerator - 1) // v1.denominator) - 1)
    skip = [max(col) for col in zip(*priced)]  # empty in multi mode: fill every table
    for H in range(2, L + 1):
        # table H adds an optimum only through one whose interior count c is
        # a multiple of H: fill it unless every such c is priced above the
        # cheapest table so far
        v_num, v_den = least[0].numerator, least[0].denominator
        if not skip or any(skip[c] * v_den <= S * v_num for c in range(H, L + 1, H)):
            fill(H)
    best_val, best_H = least[0], -least[1]
    # each plan as (supplier, index on grid best_H) pairs from supplier n down:
    # where two plans first differ, either both use the supplier and the pairs
    # compare its volumes, or one skips a supplier the other uses and its
    # lower next supplier (or its end) sorts first, as a skip counts as 0
    table = min(
        kept,
        key=lambda t: [(k, idx * (best_H // t.grid.H)) for k, idx in reversed(t.plan)],
    )
    solution = backtrack(table, inst)
    if solution.objective != best_val:  # recomputed from scratch in make_solution
        raise AssertionError(f"the plan recomputes to {solution.objective}, its table holds {best_val}")
    den = best_H * inst.c_hold * inst.lam.denominator
    assert all(den % t.denominator == 0 for t in solution.per_supplier_totals), f"totals off grid {best_H}"
    interior = _interior_count(inst, solution)
    assert interior <= L, f"the plan has {interior} interior batches, above L = {L}"
    return SolveReport(
        best_H=best_H,
        solution=solution,
        elapsed_seconds=time.perf_counter() - t_start,
        trace=tuple(traces),
        kind=table.kind,
        L=L,
        H_top=H_top,
        L_count=L_count,
        interior=interior,
    )


def solve(inst: Instance, *, max_cells: int | None = None) -> SolveReport:
    """Exact optimum of a single-delivery instance via the H sweep.

    best_H ranges over H = 1..n; the sweep fills table 1 and those of the
    tables 2..L (see :func:`_sweep`) that an optimum may need.
    ``max_cells`` caps the cells of the sweep before L is known, so it counts
    the tables H = 1..L_count (:func:`interior_limit`, L's bound from the
    windows alone, never below L); a sweep over the cap raises
    ResourceLimitError before any table is filled.

    Raises, before any table is filled: InvalidInstanceError on invalid
    data, InfeasibleInstanceError when the capacity is below P (both from
    require_valid), ValueError on a multi-mode instance, and
    ResourceLimitError over the cap.  A failed self-check of the plan (its
    recomputed objective, its feasibility, a cell no volume attains) raises
    AssertionError or FeasibilityError.
    """
    require_valid(inst)
    if inst.mode != SINGLE:
        raise ValueError("solve expects a single-delivery instance; use solve_multi")
    return _sweep(inst, inst.n, max_cells)


def multi_h_limit(inst: Instance) -> int:
    """H_top of a multi-delivery sweep: floor(P/m) batches per supplier, the
    top of the range that names best_H.  The sweep fills the tables up to
    L <= L_count, which never exceeds this.  Plans that over-deliver
    consist of minimum-size batches only, which every grid carries, so H=1
    covers them."""
    return max(1, sum(inst.P // s.m for s in inst.suppliers))


def solve_multi(inst: Instance, *, max_cells: int | None = None) -> SolveReport:
    """Exact optimum when suppliers may deliver repeatedly.

    Each grid total is priced with the closed-form equal-batch split.  best_H
    ranges over H = 1..multi_h_limit; the sweep fills table 1 and those of
    the tables 2..L (see :func:`_sweep`) that an optimum may need.
    ``max_cells`` caps the cells of the sweep before L is known, so it counts
    the tables H = 1..L_count (:func:`interior_limit`, L's bound from the
    windows alone, never below L); a sweep over the cap raises
    ResourceLimitError before any table is filled.

    Raises as :func:`solve` does, with ValueError on a single-mode instance.
    """
    require_valid(inst)
    if inst.mode != MULTI:
        raise ValueError("solve_multi expects a multi-delivery instance; use solve")
    return _sweep(inst, multi_h_limit(inst), max_cells)

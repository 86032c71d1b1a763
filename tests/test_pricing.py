"""Integer candidate pricing against the plain Fraction formulas it replaced.

The references below price every grid volume with Fraction arithmetic, try
every batch count in a loop, and fill the Bellman table in the most direct
way; the fast path must reproduce their costs, batch counts and phi values
exactly, and the choice ``_choice`` derives from a table must equal the
reference's stored choice.  The row routine chained with full bands fills
whole tables and must match the reference at every cell; ``_fill`` computes
only the bands its cost bound leaves open and must match it at p = 0 and at
every cell whose exact value plus the bound of the later suppliers is at
most UB, and backtrack to the same plan.  The single-batch kernels keep
their per-volume references: the plain loop for ``_choice``, the row's own
differences for ``_increments``, and suffix minima for the over-delivery
read of a rising row.
"""

import math
from dataclasses import replace
from fractions import Fraction as F
from itertools import accumulate, chain, groupby
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotdp import (
    MULTI,
    SINGLE,
    DPTable,
    InfeasibleInstanceError,
    Instance,
    Supplier,
    backtrack,
    build_grid,
    multi_delivery_cost,
    solve_fixed_H,
)
from lotdp import dp
from lotdp.closed_form import best_batch_count
from lotdp.dp import (
    EMPTY,
    CostRows,
    Grid,
    _aggregated_candidate_costs,
    _band,
    _base_denominator,
    _batch_count_runs,
    _choice,
    _chosen_indices,
    _fill,
    _fill_row,
    _increments,
    _relaxations,
    _single_candidate_costs,
    _upper_bound,
)
from lotdp.oracle import _duplication_candidate_costs

# --- references ---------------------------------------------------------------


def ref_single_cost(s, v, lam, c_hold):
    return s.alpha + s.beta * v + c_hold * v * v / (2 * lam)


def ref_multi_delivery_cost(s, x, lam, c_hold):
    """Every batch count 1..floor(x/m); ties go to the smaller count."""
    r_max = x // s.m
    linear = s.beta * x
    quad = c_hold * x * x / (2 * lam)
    best_r, best_cost = 1, s.alpha + linear + quad
    for r in range(2, r_max + 1):
        cost = r * s.alpha + linear + quad / r
        if cost < best_cost:
            best_r, best_cost = r, cost
    return best_r, best_cost


def ref_balanced_split_cost(s, idx, den, lam, c_hold):
    x = F(idx, den)
    scale = F(c_hold, 2 * lam * den * den)
    best = s.alpha + s.beta * x + scale * idx * idx
    for j in range(2, idx // (s.m * den) + 1):
        q, rem = divmod(idx, j)
        sumsq = (j - rem) * q * q + rem * (q + 1) * (q + 1)
        best = min(best, j * s.alpha + s.beta * x + scale * sumsq)
    return best


def ref_costs(inst, grid, kind):
    den = grid.denominator
    rows = []
    for (lo, hi), s in zip(grid.spans, inst.suppliers):
        if kind == SINGLE:
            row = [ref_single_cost(s, F(i, den), inst.lam, inst.c_hold) for i in range(lo, hi + 1)]
        elif kind == "multi-aggregated":
            row = [
                ref_multi_delivery_cost(s, F(i, den), inst.lam, inst.c_hold)[1]
                for i in range(lo, hi + 1)
            ]
        else:
            row = [
                ref_balanced_split_cost(s, i, den, inst.lam, inst.c_hold)
                for i in range(lo, hi + 1)
            ]
        rows.append(row)
    return rows


def ref_fill(grid, costs):
    """phi[k][p] = min(skip, cost(i) + phi[k-1][p-i] for i <= p, cost(i) for
    i > p), volumes tried in ascending order and replaced only when strictly
    cheaper: skipping (None) beats using, and the smaller volume wins a tie."""
    cols = grid.demand_points
    prev = [F(0)] + [None] * (cols - 1)
    phi, choice = [prev], [[None] * cols]
    for (lo, hi), row_costs in zip(grid.spans, costs):
        row, ch = [], []
        for p in range(cols):
            best, arg = prev[p], None
            for i in range(lo, hi + 1):
                rest = prev[p - i] if i <= p else prev[0]
                if rest is not None and (best is None or row_costs[i - lo] + rest < best):
                    best, arg = row_costs[i - lo] + rest, i
            row.append(best)
            ch.append(arg)
        phi.append(row)
        choice.append(ch)
        prev = row
    return phi, choice


def is_convex(row):
    """No negative second difference."""
    return all(row[j - 1] - 2 * row[j] + row[j + 1] >= 0 for j in range(1, len(row) - 1))


BUILDERS = {
    SINGLE: _single_candidate_costs,
    "multi-aggregated": _aggregated_candidate_costs,
    "multi-duplication": _duplication_candidate_costs,
}

# --- strategies ---------------------------------------------------------------

# non-integer intensities and holding rates above 1 both enter the denominator
lams = st.builds(F, st.integers(1, 5), st.integers(1, 4))


@st.composite
def suppliers(draw, bound_max=8):
    m = draw(st.integers(1, 4))
    return Supplier(
        alpha=draw(st.sampled_from([0, 0, 1, 2, 5, 13])),
        beta=draw(st.integers(0, 9)),
        m=m,
        M=draw(st.integers(m, bound_max)),
    )


@st.composite
def instances(draw, n_max=3, bound_max=8, b_max=4, c_max=3):
    sups = tuple(draw(st.lists(suppliers(bound_max), min_size=1, max_size=n_max)))
    cap = sum(s.M for s in sups)
    return Instance(
        suppliers=sups,
        P=draw(st.integers(0, cap)),
        lam=draw(st.builds(F, st.integers(1, 5), st.integers(1, b_max))),
        c_hold=draw(st.integers(1, c_max)),
    )


# --- batch count ----------------------------------------------------------------


def brute_batch_count(A, Q, r_max):
    return min(range(1, r_max + 1), key=lambda r: (r * A + F(Q, r), r))


@given(A=st.integers(0, 50), Q=st.integers(1, 5000), r_max=st.integers(1, 40))
def test_batch_count_matches_enumeration(A, Q, r_max):
    assert best_batch_count(A, Q, r_max) == brute_batch_count(A, Q, r_max)


@given(A=st.integers(1, 50), r=st.integers(1, 30), r_max=st.integers(1, 40))
def test_batch_count_breaks_exact_ties_toward_fewer_batches(A, r, r_max):
    # r*A + Q/r == (r+1)*A + Q/(r+1) exactly when Q = r*(r+1)*A
    Q = r * (r + 1) * A
    got = best_batch_count(A, Q, r_max)
    assert got == brute_batch_count(A, Q, r_max) == min(r, r_max)


@given(
    s=suppliers(bound_max=30),
    num=st.integers(0, 10_000),
    den=st.integers(1, 12),
    lam=lams,
    c_hold=st.integers(1, 4),
)
def test_multi_delivery_cost_matches_the_batch_loop(s, num, den, lam, c_hold):
    # any rational total in the window [m, M], including totals below 2m (r_max = 1)
    x = s.m + F(num % ((s.M - s.m) * den + 1), den)
    assert multi_delivery_cost(s, x, lam, c_hold) == ref_multi_delivery_cost(s, x, lam, c_hold)


def test_multi_delivery_cost_ties_and_single_batch_windows():
    for s, x in [
        (Supplier(1, 0, 1, 5), 2),  # r=1 and r=2 both cost 3
        (Supplier(3, 1, 1, 9), 6),  # r=2 and r=3 both cost 15 + 6
        (Supplier(0, 3, 4, 8), F(15, 2)),  # r_max = 1, alpha = 0
        (Supplier(2, 0, 3, 5), 5),  # r_max = 1
    ]:
        assert multi_delivery_cost(s, x, 1, 1) == ref_multi_delivery_cost(s, x, 1, 1)
    assert multi_delivery_cost(Supplier(3, 1, 1, 9), 6, 1, 1) == (2, 21)


# --- candidate costs ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(inst=instances(bound_max=10), H=st.integers(1, 3), kind=st.sampled_from(sorted(BUILDERS)))
def test_integer_numerators_equal_the_fraction_costs(inst, H, kind):
    grid = build_grid(inst, H)
    costs = BUILDERS[kind](inst, grid)
    assert all(isinstance(c, int) for row in costs for c in row)
    assert [[F(c, costs.den) for c in row] for row in costs] == ref_costs(inst, grid, kind)


# --- whole tables ---------------------------------------------------------------


def full_chain(grid, costs, kind):
    """The row routine chained with every band full, (1, P*den): the whole
    table, exact at every cell.  Past residual 0, row 0 holds a sentinel
    above the cost of every plan, and cells at or above it read as None.
    No row is marked convex, so every row takes the plain scans, and the
    pruned fill's structured kernels are checked against them."""
    cols = grid.demand_points
    full = (1, cols - 1)
    none = 1 + sum(max(ck) for ck in costs)
    prev = [0] + [none] * (cols - 1)
    phi = [prev]
    for (lo, hi), ck in zip(grid.spans, costs):
        prev = _fill_row(prev, full, lo, hi, ck, full)
        phi.append(prev)
    phi = [[None if v >= none else v for v in row] for row in phi]
    return DPTable(
        grid=grid, kind=kind, phi=phi, costs=costs, bands=(EMPTY,) + (full,) * (len(phi) - 1)
    )


def as_fractions(table):
    return [[None if v is None else F(v, table.costs.den) for v in row] for row in table.phi]


def bounds(grid, costs):
    """(LBpre, LBsuf, UB) of the cost rows of a grid whose windows cover the
    demand: LBpre_k and LBsuf_k summed here from the merged increments, so
    the bands are checked against their definition, not through _band."""
    total = grid.demand_points - 1
    incs = [_increments(ck, lo, hi, total, costs.convex) for ck, (lo, hi) in zip(costs, grid.spans)]
    merged = _relaxations(incs, total)
    pre, suf = ([list(accumulate(run, initial=0)) for run in lists] for lists in merged)
    cut = merged[1][0][-1] if total else None  # the total-th smallest increment of all
    return pre, suf, _upper_bound(grid, costs, incs, suf[0][total], cut)


def open_cells(full, suf, ub):
    """The cells the pruned table must hold exactly: p = 0 in every row, and
    each cell whose exact value plus LBsuf_k(P*den - p) is at most UB."""
    last = full.grid.demand_points - 1
    return [(k, 0) for k in range(len(full.phi))] + [
        (k, p)
        for k, row in enumerate(full.phi)
        for p in range(1, last + 1)
        if row[p] is not None and last - p < len(suf[k]) and row[p] + suf[k][last - p] <= ub
    ]


def refused(inst, full, fill):
    """Whether the windows hold less than the demand, which is exactly when
    the full chain has no plan; then ``fill()`` must refuse the grid."""
    short = inst.capacity < inst.P
    assert (full.phi[-1][-1] is None) == short
    if short:
        with pytest.raises(InfeasibleInstanceError, match="^no grid admits a feasible plan$"):
            fill()
    return short


def choices(table, cells):
    """_choice at each (k, p) of cells, k >= 1."""
    return [_choice(table, k, p) for k, p in cells]


def check_pruned(inst, table, full):
    """The pruned table against the full one: exact at p = 0 and at every
    open cell, with the same choice there; every cell at least its exact
    value or, plus LBsuf_k(P*den - p), above UB; each band exactly the
    residuals whose bound is at most UB; LBpre below every exact cell and UB
    at least the final; the same final and backtrack."""
    grid, costs = table.grid, table.costs
    pre, suf, ub = bounds(grid, costs)
    last = grid.demand_points - 1
    exact = open_cells(full, suf, ub)
    assert [table.phi[k][p] for k, p in exact] == [full.phi[k][p] for k, p in exact]
    rows = [(k, p) for k, p in exact if k >= 1]
    assert choices(table, rows) == choices(full, rows)
    for k, ref in enumerate(full.phi):
        # LBpre_k bounds every exact cell, and reaches exactly the cells
        # suppliers 1..k can cover
        assert [r is None for r in ref] == [p >= len(pre[k]) for p in range(last + 1)]
        assert all(r is None or pre[k][p] <= r for p, r in enumerate(ref))
    assert table.final == full.final
    for k, (row, ref) in enumerate(zip(table.phi, full.phi)):
        for p, (v, r) in enumerate(zip(row, ref)):
            assert r is None or v >= r or last - p >= len(suf[k]) or v + suf[k][last - p] > ub
    assert suf[0][last] <= full.phi[-1][-1] <= ub
    for k, band in enumerate(table.bands):
        inside = [
            p for p in range(1, last + 1)
            if k and p < len(pre[k]) and last - p < len(suf[k]) and pre[k][p] + suf[k][last - p] <= ub
        ]
        assert band == ((inside[0], inside[-1]) if inside else EMPTY)
        assert inside == list(range(band[0], band[1] + 1))
    assert table.computed == sum(1 + b - a + 1 if a <= b else 1 for a, b in table.bands)
    assert table.computed <= table.grid.cells == full.grid.cells
    assert _chosen_indices(table) == _chosen_indices(full)


def reference_table(inst, grid, costs, ref_rows, kind):
    """The full chain must equal ref_fill at every cell, phi and the choice
    _choice derives.  _fill must equal it at p = 0 and at every open cell,
    and backtrack to the same plan (see check_pruned), or refuse the grid
    when its windows cannot cover the demand.  Returns the full chain's
    table."""
    phi, choice = ref_fill(grid, ref_rows)
    full = full_chain(grid, costs, kind)
    assert as_fractions(full) == phi
    cols = grid.demand_points
    every = [(k, p) for k in range(1, len(phi)) for p in range(cols)]
    assert choices(full, every) == [choice[k][p] for k, p in every]
    if not refused(inst, full, lambda: _fill(inst, grid, costs, kind, None)):
        check_pruned(inst, _fill(inst, grid, costs, kind, None), full)
    return full


def checked_table(inst, H, kind):
    grid = build_grid(inst, H)
    return reference_table(inst, grid, BUILDERS[kind](inst, grid), ref_costs(inst, grid, kind), kind)


@settings(max_examples=40, deadline=None)
@given(
    inst=instances(n_max=3, bound_max=5, b_max=3, c_max=2),
    H=st.integers(1, 2),
    kind=st.sampled_from(sorted(BUILDERS)),
)
def test_tables_match_the_reference_fill(inst, H, kind):
    if kind != SINGLE:
        inst = Instance(inst.suppliers, inst.P, inst.lam, inst.c_hold, MULTI)
    checked_table(inst, H, kind)


# --- the divide-and-conquer fill -------------------------------------------------


@st.composite
def wide_window_instances(draw, n_max=4, P_max=8):
    # every window spans nearly the whole demand, so each residual has about
    # as many interior candidates as there are residuals below it
    P = draw(st.integers(1, P_max))
    sups = []
    for _ in range(draw(st.integers(1, n_max))):
        m = draw(st.integers(1, 3))
        sups.append(
            Supplier(
                alpha=draw(st.sampled_from([0, 0, 1, 3, 7])),
                beta=draw(st.integers(0, 6)),
                m=m,
                M=max(m, m + P - draw(st.integers(0, 2))),
            )
        )
    return Instance(
        suppliers=tuple(sups),
        P=P,
        lam=draw(st.builds(F, st.integers(1, 4), st.integers(1, 2))),
        c_hold=draw(st.integers(1, 2)),
    )


@settings(max_examples=100, deadline=None)
@given(
    inst=wide_window_instances(),
    H=st.integers(1, 3),
    kind=st.sampled_from(sorted(BUILDERS)),
)
def test_wide_window_tables_match_the_reference_fill(inst, H, kind):
    if kind != SINGLE:
        inst = Instance(inst.suppliers, inst.P, inst.lam, inst.c_hold, MULTI)
    checked_table(inst, H, kind)


def test_equal_totals_go_to_the_smaller_volume():
    # two identical suppliers on [1, 3], demand 3: the second one covers 1 or 2
    # on top of the first one's 2 or 1 at the same total; the volume 1 wins
    s = Supplier(0, 1, 1, 3)
    table = checked_table(Instance(suppliers=(s, s), P=3), 1, SINGLE)
    assert _choice(table, 2, 3) == 1


def test_equal_totals_across_convex_runs_go_to_the_smaller_volume():
    # hand-built rows over volumes 1..4: the second row is not convex (its
    # second difference at volume 2 is -6), and at p = 4 volume 1 (4 + 2)
    # ties volume 3 (4 + 2)
    inst = Instance(suppliers=(Supplier(0, 0, 1, 4),) * 2, P=4)
    rows = [[4, 4, 4, 10], [2, 5, 2, 9]]
    assert not is_convex(rows[1])
    table = reference_table(inst, build_grid(inst, 1), CostRows(rows, 1), rows, "hand-built")
    assert table.phi[2][4] == 6
    assert _choice(table, 2, 4) == 1


def test_skipping_wins_a_tie_with_using():
    # at p = 1 the second supplier alone costs what the first one already does
    s = Supplier(0, 1, 1, 3)
    table = checked_table(Instance(suppliers=(s, s), P=3), 1, SINGLE)
    assert table.phi[2][1] == table.phi[1][1]
    assert _choice(table, 2, 1) is None


def test_previous_row_with_an_uncovered_suffix():
    # the first supplier covers at most 2 of the demand 5
    inst = Instance(suppliers=(Supplier(1, 1, 1, 2), Supplier(0, 1, 1, 6)), P=5)
    for H in (1, 2):
        table = checked_table(inst, H, SINGLE)
        cols = table.grid.demand_points
        covered = 2 * table.grid.denominator + 1
        assert table.phi[1][covered - 1] is not None
        assert table.phi[1][covered:] == [None] * (cols - covered)
        assert None not in table.phi[2]


def test_aggregated_row_whose_batch_count_changes_inside_the_window():
    inst = Instance(suppliers=(Supplier(1, 0, 1, 8), Supplier(2, 1, 2, 7)), P=9, mode=MULTI)
    grid = build_grid(inst, 1)
    counts = [multi_delivery_cost(inst.suppliers[0], x, inst.lam, inst.c_hold)[0] for x in range(1, 9)]
    assert counts[0] < counts[-1]
    assert not is_convex(_aggregated_candidate_costs(inst, grid)[0])
    for H in (1, 2, 3):
        checked_table(inst, H, "multi-aggregated")


@st.composite
def multi_instances(draw):
    lam, c_hold = draw(lams), draw(st.integers(1, 3))
    cb = c_hold * lam.denominator
    sups = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, 4))
        M = draw(st.integers(m, 14))
        # alpha = 0 takes the most batches allowed, a small alpha steps the
        # count up inside the window, and alpha >= c*b*M**2 keeps r = 1
        alpha = draw(st.sampled_from([0, draw(st.integers(1, 13)), cb * M * M]))
        sups.append(Supplier(alpha, draw(st.integers(0, 9)), m, M))
    return Instance(suppliers=tuple(sups), P=1, lam=lam, c_hold=c_hold, mode=MULTI)


@pytest.mark.parametrize("alpha", [0, 1, 3, 40])
def test_running_batch_count_matches_best_batch_count(alpha):
    # totals 2..60 on the unit grid: the cap i // 2 binds for small alpha and
    # the uncapped count for large alpha; with alpha = 3, two and three
    # batches tie at total 6 (2 * 3 * A == 6**2)
    inst = Instance(suppliers=(Supplier(alpha, 1, 2, 60),), P=60, mode=MULTI)
    grid = build_grid(inst, 1)
    (lo, hi), = grid.spans
    B = _base_denominator(inst.lam, grid.denominator)
    A, unit = alpha * B, 2 * grid.denominator
    totals = range(lo, hi + 1)
    counts = [best_batch_count(A, i * i, i // lo) for i in totals]
    K = math.lcm(*counts)
    expected = [(r * A + unit * i) * K + i * i * (K // r) for r, i in zip(counts, totals)]
    costs = _aggregated_candidate_costs(inst, grid)
    assert costs == [expected]
    assert costs.den == B * K


@settings(max_examples=80, deadline=None)
@given(inst=multi_instances(), H=st.integers(1, 3))
def test_batch_count_runs_match_best_batch_count(inst, H):
    # at every total the row prices best_batch_count's r, and its runs are
    # the stretches of equal r
    grid = build_grid(inst, H)
    B = _base_denominator(inst.lam, grid.denominator)
    per_unit = 2 * inst.lam.numerator * grid.denominator
    cb = inst.c_hold * inst.lam.denominator
    counts = [
        [best_batch_count(s.alpha * B, cb * i * i, i // lo) for i in range(lo, hi + 1)]
        for (lo, hi), s in zip(grid.spans, inst.suppliers)
    ]
    K = math.lcm(*chain.from_iterable(counts))
    expected = [
        [(r * s.alpha * B + s.beta * per_unit * i) * K + cb * i * i * (K // r) for i, r in enumerate(row, lo)]
        for row, (lo, _), s in zip(counts, grid.spans, inst.suppliers)
    ]
    costs = _aggregated_candidate_costs(inst, grid)
    assert costs == expected
    assert costs.den == B * K
    for row, (lo, hi), s in zip(counts, grid.spans, inst.suppliers):
        runs, i = [], lo
        for r, group in groupby(row):
            runs.append((i, i + len(list(group)), r))
            i = runs[-1][1]
        assert _batch_count_runs(lo, hi, s.alpha * B, cb) == runs
        if s.alpha >= cb * s.M**2:
            assert runs == [(lo, hi + 1, 1)]


# --- over-delivery ----------------------------------------------------------------


def test_tied_batches_above_the_residual_go_to_the_smaller_volume():
    # window 1..6 over residuals 0..4 with a non-monotone row: at p = 1 the
    # batches 2 and 4 both cost 2, below the interior candidate 1 (cost 9)
    inst = Instance(suppliers=(Supplier(0, 0, 1, 6),), P=4)
    rows = [[9, 2, 9, 2, 9, 9]]
    table = reference_table(inst, build_grid(inst, 1), CostRows(rows, 1), rows, "hand-built")
    assert (table.phi[1][1], _choice(table, 1, 1)) == (2, 2)
    # at p = 2 over-delivering with volume 4 only ties using volume 2 exactly
    assert (table.phi[1][2], _choice(table, 1, 2)) == (2, 2)
    assert (table.phi[1][3], _choice(table, 1, 3)) == (2, 4)


def test_cheapest_batch_beyond_the_last_residual():
    # window 1..6 over residuals 0..2: volume 5, above the whole demand, is
    # the cheapest batch and closes every residual but 0.  build_grid ends
    # the window at P + m = 3, as no priced row needs a batch past it, so
    # this hand-built row gets its grid directly
    inst = Instance(suppliers=(Supplier(0, 0, 1, 6),), P=2)
    grid = Grid(H=1, denominator=1, demand_points=3, spans=((1, 6),))
    rows = [[5, 6, 7, 8, 1, 9]]
    table = reference_table(inst, grid, CostRows(rows, 1), rows, "hand-built")
    assert table.phi[1] == [0, 1, 1]
    assert choices(table, [(1, p) for p in range(3)]) == [None, 5, 5]


def test_window_entirely_above_the_demand():
    # the second supplier's smallest batch, 4, exceeds the demand 3, so each
    # of its batches over-delivers everywhere; 5 and 6 tie and 5 wins
    inst = Instance(suppliers=(Supplier(0, 0, 1, 2), Supplier(0, 0, 4, 6)), P=3)
    rows = [[4, 6], [5, 3, 3]]
    table = reference_table(inst, build_grid(inst, 1), CostRows(rows, 1), rows, "hand-built")
    assert table.phi[1] == [0, 4, 6, None]
    assert table.phi[2] == [0, 3, 3, 3]
    assert choices(table, [(2, p) for p in range(4)]) == [None, 5, 5, 5]


# --- cost-bounded rows -------------------------------------------------------------


def test_row_outside_its_band_keeps_the_skip_entry():
    # unit grid, B = 2: the rows are 2i + i**2 and 6i + i**2, their increments
    # [3, 5, 7, ..., 17] (chord to t = 1, then the row) and [7, 9, 11].  The
    # water-fill of 8 units takes 5 and 3, already above both m: UB = 35 + 27.
    # Row 1's bound pre + suf is 62 at p = 5 and 64 at p = 6, and p < 5 is
    # beyond what supplier 2 can add, so its band is the one residual 5
    inst = Instance(suppliers=(Supplier(0, 1, 1, 10), Supplier(0, 3, 1, 3)), P=8)
    full = checked_table(inst, 1, SINGLE)
    table = solve_fixed_H(inst, 1)
    assert table.bands == (EMPTY, (5, 5), (8, 8))
    assert table.computed == 1 + 2 + 2
    # the full table covers 1..4 of both rows; the pruned rows keep row 0's
    # sentinel there, UB + 1, and _choice reads a skip
    assert as_fractions(full)[2][1:5] == [F(3, 2), 4, F(15, 2), 11]
    assert table.phi[1][1:5] == table.phi[2][1:5] == [63] * 4
    assert choices(table, [(k, p) for k in (1, 2) for p in range(1, 5)]) == [None] * 8
    # phi(2, 8) = phi(1, 5) + cost(3) = 35/2 + 27/2, the water-fill's own plan
    assert table.final == F(31)
    assert _chosen_indices(table) == [(1, 5), (2, 3)]


def test_over_delivery_from_a_pruned_row_reads_residual_zero():
    # costs 2*alpha + i**2 over B = 2; increments [69]*3, [4]*4 + [9], [2, 2].
    # The water-fill of 5 units gives supplier 2 three units, below its m = 4:
    # lifted to 4, the plan (0, 4, 2) has no spare unit above an m, so it
    # costs 16 + 4; dropping supplier 2 instead gives (3, 0, 2) at 209 + 4,
    # so UB = 20.  Row 1's bound is at least 69 > 20, so its band is empty;
    # row 2's is 16, 18, 25 at p = 3, 4, 5.  At p = 3 supplier 2's smallest
    # batch, 4, closes residual 3 on top of phi(1, 0) = 0
    inst = Instance(
        suppliers=(Supplier(100, 0, 1, 3), Supplier(0, 0, 4, 6), Supplier(0, 0, 2, 2)), P=5
    )
    checked_table(inst, 1, SINGLE)
    table = solve_fixed_H(inst, 1)
    assert table.bands == (EMPTY, EMPTY, (3, 4), (5, 5))
    assert (F(table.phi[2][3], table.costs.den), _choice(table, 2, 3)) == (8, 4)
    assert table.final == 10
    assert _chosen_indices(table) == [(2, 4), (3, 2)]


def test_windows_short_of_the_demand_are_refused():
    # the windows hold 4 of the demand 5 in all, on every grid: the full chain
    # has no plan, and the fill refuses the grid, priced or hand-built
    inst = Instance(suppliers=(Supplier(0, 0, 1, 2),) * 2, P=5)
    for H in (1, 2):
        checked_table(inst, H, SINGLE)
        with pytest.raises(InfeasibleInstanceError, match="^no grid admits a feasible plan$"):
            solve_fixed_H(inst, H)
    rows = [[3, 1], [0, 0]]
    full = reference_table(inst, build_grid(inst, 1), CostRows(rows, 1), rows, "hand-built")
    assert full.phi[2] == [0, 0, 0, 1, 1, None]
    # an empty band leaves the whole row as the skip entry
    costs = _single_candidate_costs(inst, build_grid(inst, 1))
    prev = [0, 7, 7, 7, 7, 7]
    assert _fill_row(prev, (1, 5), 1, 2, costs[0], EMPTY) == prev


def test_bands_of_a_window_entirely_above_the_demand():
    # supplier 1's smallest batch, 4, exceeds the demand 3, and supplier 2
    # delivers at most 1.  Unit grid: increments [4, 4, 4] and [1]; the
    # water-fill gives (2, 1), lifted to (4, 1): UB = 16 + 1, and row 1's
    # bound is 9 and 12 at p = 2, 3.  Half grid (den 2, B = 8): increments
    # [8]*6 and [2, 2], UB = 64 + 4, and p = 4..6 reach 36 at most.  Every
    # cell of row 1 in the band is an over-delivery
    inst = Instance(suppliers=(Supplier(0, 0, 4, 6), Supplier(0, 0, 1, 1)), P=3)
    for H, bands in ((1, (EMPTY, (2, 3), (3, 3))), (2, (EMPTY, (4, 6), (6, 6)))):
        checked_table(inst, H, SINGLE)
        table = solve_fixed_H(inst, H)
        assert table.bands == bands
        first, last = bands[1]
        assert [F(table.phi[1][p], table.costs.den) for p in range(first, last + 1)] == [8] * (H + 1)
        assert table.final == 8
        assert _chosen_indices(table) == [(1, 4 * H)]
    # the same window in the last row: the water-fill's (2, 1) is lifted to
    # (2, 4), one unit too many, and supplier 1 hands back its unit of
    # increment 3: UB = 1 + 16, and row 1's band runs from 1 to 2
    inst = Instance(suppliers=(Supplier(0, 0, 1, 2), Supplier(0, 0, 4, 6)), P=3)
    assert solve_fixed_H(inst, 1).bands == (EMPTY, (1, 2), (3, 3))


def test_a_zero_gap_table_computes_the_optimal_path_only():
    # the golden relaxation costs what the optimum does (LB = UB = 140 over
    # B = 8 on the unit-half grid), so the band of each row is the one
    # residual of the optimal path; a band edge taken strictly would lose it
    inst = Instance(suppliers=(Supplier(0, 1, 2, 3),) * 2, P=5, c_hold=2)
    grid = build_grid(inst, 1)
    pre, suf, ub = bounds(grid, _single_candidate_costs(inst, grid))
    assert suf[0][10] == ub == 140
    table = checked_table(inst, 1, SINGLE)
    pruned = solve_fixed_H(inst, 1)
    assert pruned.bands == (EMPTY, (5, 5), (10, 10))
    assert pruned.phi[1][5] == table.phi[1][5] == 70


def test_increments_are_the_floored_chord_then_the_row():
    # cost 10 + i**2 over the volumes 2..6: cost/v is 7, 19/3, 13/2, 7, 23/3,
    # least at t = 3; the chord's slope floors 19/3 to 6, then the row adds
    # 7, 9, 11.  Capped at the demand, 4 increments remain
    row = [10 + i * i for i in range(2, 7)]
    assert _increments(row, 2, 6, 20, True) == [6, 6, 6, 7, 9, 11]
    assert _increments(row, 2, 6, 4, True) == [6, 6, 6, 7]
    # the chord lies below the row at every volume
    assert all(sum(_increments(row, 2, 6, 20, True)[:v]) <= row[v - 2] for v in range(2, 7))
    # any other row: the line at the least cost per unit, floored: 23/4 -> 5
    assert _increments([11, 30, 23, 50], 2, 5, 9, False) == [5] * 5


def test_upper_bound_lifts_to_m_and_hands_back_the_largest_increments():
    # supplier 1 with increments 1, 2, ..., supplier 2 on 4..6 at 5 each.
    # The water-fill of 8 units takes 1, 2, 3, 4, 5 from supplier 1 and three
    # 5s from supplier 2, below its m = 4: lifted to 4 it overshoots by one,
    # and supplier 1 hands back its last increment, 5.  On 1..6 supplier 1
    # cannot cover 8 alone, so the plan (4, 4), 40 + 100, is UB
    incs = [list(range(1, 7)), [5] * 6]
    lb, cut = 30, 5  # the relaxation 1 + 2 + 3 + 4 + 5 + 5 + 5 + 5, its largest increment 5
    costs = CostRows([[10 * v for v in range(1, 7)], [100, 200, 300]], 1)
    grid = Grid(H=1, denominator=1, demand_points=9, spans=((1, 6), (4, 6)))
    assert _upper_bound(grid, costs, incs, lb, cut) == 140
    # on 1..10 it can: dropping supplier 2 and water-filling again gives the
    # cheaper plan (8, 0)
    incs = [list(range(1, 9)), [5] * 6]
    costs = CostRows([[10 * v for v in range(1, 11)], [100, 200, 300]], 1)
    grid = Grid(H=1, denominator=1, demand_points=9, spans=((1, 10), (4, 6)))
    assert _upper_bound(grid, costs, incs, lb, cut) == 80


@pytest.mark.parametrize("mode", [SINGLE, MULTI])
def test_upper_bound_is_the_lifted_plan_and_the_fill_finds_one_batch_that_covers_all(mode):
    # on the grid of step 1/3 the demand is 30 and the windows are 30..36,
    # 24..36 and 36, each one batch in multi mode too.  The water-fill
    # (0, 24, 6) leaves supplier 3 below its m: lifted, it is (0, 24, 36) at
    # 6786 / 18, and without supplier 3 it is (30, 24, 0) at 7038 / 18, so
    # UB is the lifted plan, and the fill computes 65 of the 124 cells.  The
    # optimum is one batch of at least 30 alone, supplier 2 at 30 for
    # 8 + 5*10 + 3*10**2/2 = 208 = 3744 / 18: it stands on residual 0, which
    # no band holds, so only the over-delivery pass prices it
    inst = Instance(
        suppliers=(Supplier(7, 9, 10, 12), Supplier(8, 5, 8, 12), Supplier(5, 1, 12, 12)),
        P=10, c_hold=3, mode=mode,
    )
    kind = "multi-aggregated" if mode == MULTI else SINGLE
    grid = build_grid(inst, 1)
    costs = BUILDERS[kind](inst, grid)
    assert costs.den == 18
    assert bounds(grid, costs)[2] == 6786
    table = checked_table(inst, 1, kind)
    pruned = solve_fixed_H(inst, 1)
    assert pruned.phi[-1][-1] == table.phi[-1][-1] == 3744
    assert (pruned.computed, pruned.grid.cells) == (65, 124)
    assert pruned.plan == table.plan == [(2, 30)]


@st.composite
def sorted_increments(draw, max_size):
    # ascending, with repeats and flat runs, like the merged increments of
    # the aggregated rows
    steps = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 5]), max_size=max_size))
    return list(accumulate(steps, initial=draw(st.integers(0, 5))))[1:]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_band_is_the_residuals_whose_bound_is_at_most_ub(data):
    A, B = data.draw(sorted_increments(50)), data.draw(sorted_increments(50))
    total = data.draw(st.integers(0, min(40, len(A) + len(B))))
    lb = sum(sorted(A + B)[:total])
    ub = lb + data.draw(st.one_of(st.integers(0, 20), st.integers(0, 2000)))
    inside = [
        p for p in range(1, total + 1)
        if p <= len(A) and total - p <= len(B) and sum(A[:p]) + sum(B[:total - p]) <= ub
    ]
    band = _band(A, B, total, lb, ub)
    assert band == ((inside[0], inside[-1]) if inside else EMPTY)
    assert inside == list(range(band[0], band[1] + 1))


@settings(max_examples=120, deadline=None)
@given(
    inst=st.one_of(instances(n_max=4, bound_max=8), wide_window_instances()),
    H=st.integers(1, 3),
    multi=st.booleans(),
)
def test_pruned_fill_is_exact_wherever_a_plan_under_ub_can_pass(inst, H, multi):
    # both modes, lam = a/b and c_hold up to 3: the pruned fill equals the
    # reference at p = 0 and at every cell whose exact value plus LBsuf is at
    # most UB, its final always, and _choice along the backtrack
    kind = "multi-aggregated" if multi else SINGLE
    inst = Instance(inst.suppliers, inst.P, inst.lam, inst.c_hold, MULTI if multi else SINGLE)
    grid = build_grid(inst, H)
    costs = BUILDERS[kind](inst, grid)
    phi, _ = ref_fill(grid, ref_costs(inst, grid, kind))
    full = full_chain(grid, costs, kind)
    assert as_fractions(full) == phi
    if refused(inst, full, lambda: solve_fixed_H(inst, H)):
        return
    table = solve_fixed_H(inst, H)
    check_pruned(inst, table, full)
    # every cell of the backtrack is open, and _choice agrees there
    walk = open_cells(full, *bounds(grid, costs)[1:])
    p = grid.demand_points - 1
    for k in range(inst.n, 0, -1):
        v = _choice(full, k, p)
        assert _choice(table, k, p) == v
        assert (k, p) in walk
        p = p if v is None else (p - v if v < p else 0)
    assert backtrack(table, inst) == backtrack(full, inst)


@settings(max_examples=80, deadline=None)
@given(
    inst=st.one_of(instances(n_max=4, bound_max=8), wide_window_instances()),
    H=st.integers(1, 3),
    multi=st.booleans(),
)
def test_pruned_fill_keeps_the_final_cell_and_the_plan(inst, H, multi):
    kind = "multi-aggregated" if multi else SINGLE
    inst = Instance(inst.suppliers, inst.P, inst.lam, inst.c_hold, MULTI if multi else SINGLE)
    grid = build_grid(inst, H)
    full = full_chain(grid, BUILDERS[kind](inst, grid), kind)
    if refused(inst, full, lambda: solve_fixed_H(inst, H)):
        assert as_fractions(full) == ref_fill(grid, ref_costs(inst, grid, kind))[0]
        return
    table = solve_fixed_H(inst, H)
    assert table.final == full.final
    assert _chosen_indices(table) == _chosen_indices(full)
    assert backtrack(table, inst) == backtrack(full, inst)


# --- convex and other rows ---------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(inst=instances(bound_max=12), H=st.integers(1, 3))
def test_single_batch_rows_are_one_convex_run(inst, H):
    costs = _single_candidate_costs(inst, build_grid(inst, H))
    assert costs.convex
    for row in costs:
        assert is_convex(row)


def test_only_single_batch_pricing_claims_one_convex_run():
    inst = Instance(suppliers=(Supplier(1, 1, 1, 6),) * 2, P=8)
    grid = build_grid(inst, 2)
    convex = {kind: BUILDERS[kind](inst, grid).convex for kind in BUILDERS}
    assert convex == {SINGLE: True, "multi-aggregated": False, "multi-duplication": False}


@pytest.mark.parametrize(
    "suppliers, lam, c_hold",
    [
        # every window below 2m: no total splits into two batches
        ((Supplier(0, 3, 2, 3), Supplier(4, 0, 3, 5), Supplier(1, 1, 5, 5)), F(1), 1),
        ((Supplier(2, 0, 4, 7), Supplier(0, 5, 6, 11)), F(3, 2), 2),
        # alpha = 400 keeps one batch over the window 2..12: a second batch
        # pays only once c_hold*x**2/(2*lam) exceeds 2*alpha, at x near 35
        ((Supplier(400, 1, 2, 12),), F(3, 2), 2),
    ],
)
@pytest.mark.parametrize("H", [1, 2, 3])
def test_aggregated_rows_of_one_run_are_the_single_batch_rows(suppliers, lam, c_hold, H):
    # rows that are all one run are priced over K = 1, and the table is the
    # single-batch table, its convex flag included
    inst = Instance(suppliers=suppliers, P=5, lam=lam, c_hold=c_hold)
    grid = build_grid(inst, H)
    single = _single_candidate_costs(inst, grid)
    multi = _aggregated_candidate_costs(replace(inst, mode=MULTI), grid)
    assert (list(multi), multi.den, multi.convex) == (list(single), single.den, True)


def test_a_row_of_one_residual_scans_its_window_whole():
    # volumes 1..5 cost [4, 1, 5, 2, 6], not convex; at p = 5 the volumes 2
    # and 4 tie at 4 on top of prev, and the smaller one wins
    prev, ck = [0, 2, 3, 3, 8, 9], [4, 1, 5, 2, 6]
    assert not is_convex(ck)
    grid = Grid(H=1, denominator=1, demand_points=6, spans=((1, 5),))

    def one_row(row, band):
        return DPTable(
            grid=grid, kind="hand-built", phi=[prev, row], costs=CostRows([ck], 1),
            bands=((1, 5), band),  # row 0 holds costs past residual 0: filled as the band 1..5
        )

    full = _fill_row(prev, (1, 5), 1, 5, ck, (1, 5))
    assert full == [0, 1, 1, 2, 2, 4]
    assert choices(one_row(full, (1, 5)), [(1, p) for p in range(6)]) == [None, 2, 2, 4, 4, 2]
    row = _fill_row(prev, (1, 5), 1, 5, ck, (5, 5))
    assert row == prev[:5] + [4]
    assert _choice(one_row(row, (5, 5)), 1, 5) == 2


def test_run_minima_runs_on_single_batch_rows_only(monkeypatch):
    bands = []  # the band of each row _run_minima lowers
    original = dp._run_minima
    monkeypatch.setattr(dp, "_run_minima", lambda *args: bands.append(args[5:7]) or original(*args))
    single = Instance(suppliers=(Supplier(1, 1, 1, 6),) * 3, P=8)
    table = solve_fixed_H(single, 2)
    # row 1 reads row 0 at 0 only; rows 2 and 3 reach from the band above
    assert table.bands == (EMPTY, (4, 7), (9, 12), (16, 16))
    assert bands == [(9, 12), (16, 16)]
    # 17 residuals on grid 2.  The aggregated rows cost at least 115 per
    # unit, floored, and UB is 1872 (the water-fill's 12 + 4 units): the
    # bands are 1..12, 4..16 and 16.  Row 1 reads row 0 at 0 only, and rows
    # 2 and 3, not convex, scan each residual's window instead
    bands.clear()
    multi = replace(single, mode=MULTI)
    table = solve_fixed_H(multi, 2)
    assert table.bands == (EMPTY, (1, 12), (4, 16), (16, 16))
    assert bands == []
    assert not is_convex(_aggregated_candidate_costs(multi, build_grid(multi, 2))[1])


# --- the single-batch kernels against their per-volume references -----------------


def ref_choice(table, k, p):
    """_choice as a loop over the window in ascending volume order: skip on a
    tie with skipping, else the first volume that attains the cell."""
    prev, val = table.phi[k - 1], table.phi[k][p]
    if val == prev[p]:
        return None
    lo, _ = table.grid.spans[k - 1]
    for v, cost in enumerate(table.costs[k - 1], lo):
        rest = prev[p - v] if v <= p else prev[0]
        if rest is not None and cost + rest == val:
            return v
    raise AssertionError(f"no volume attains phi[{k}][{p}]")


def choice_outcome(choose, table, k, p):
    try:
        return choose(table, k, p)
    except AssertionError:
        return "unattained"


def check_choice_everywhere(table):
    """_choice equals the loop at every (k, p), k >= 1; a cell no volume
    attains (a pruned cell holding its bound) fails the same way in both."""
    cols = table.grid.demand_points
    for k in range(1, len(table.phi)):
        for p in range(cols):
            assert choice_outcome(_choice, table, k, p) == choice_outcome(ref_choice, table, k, p)


@settings(max_examples=80, deadline=None)
@given(
    inst=st.one_of(instances(n_max=3, bound_max=7), wide_window_instances(n_max=3)),
    H=st.integers(1, 3),
    multi=st.booleans(),
)
def test_choice_matches_the_volume_loop_on_full_and_pruned_tables(inst, H, multi):
    kind = "multi-aggregated" if multi else SINGLE
    inst = replace(inst, mode=MULTI if multi else SINGLE)
    grid = build_grid(inst, H)
    costs = BUILDERS[kind](inst, grid)
    full = full_chain(grid, costs, kind)
    check_choice_everywhere(full)
    if refused(inst, full, lambda: _fill(inst, grid, costs, kind, None)):
        assert as_fractions(full) == ref_fill(grid, ref_costs(inst, grid, kind))[0]
    else:
        check_choice_everywhere(_fill(inst, grid, costs, kind, None))


@st.composite
def hand_built_rows(draw):
    # unit grid, costs 0..5: over-delivery ties, skip ties and ties between
    # volumes are common
    inst = draw(instances(n_max=3, bound_max=6))
    inst = replace(inst, lam=F(1), c_hold=1)
    grid = build_grid(inst, 1)
    rows = [
        draw(st.lists(st.integers(0, 5), min_size=hi - lo + 1, max_size=hi - lo + 1))
        for lo, hi in grid.spans
    ]
    return inst, grid, CostRows(rows, 1)


@settings(max_examples=150, deadline=None)
@given(built=hand_built_rows())
def test_choice_matches_the_volume_loop_on_rows_full_of_ties(built):
    inst, grid, costs = built
    check_choice_everywhere(full_chain(grid, costs, "hand-built"))
    check_choice_everywhere(_fill(inst, grid, costs, "hand-built", None))


def test_choice_breaks_over_delivery_and_skip_ties_like_the_loop():
    # supplier 2 over volumes 1..4 costs [4, 1, 1, 6].  With supplier 1 at
    # [3, 3], residual 1 is closed by the batches 2 and 3 at cost 1 each and
    # 2 wins; at residual 2 volume 2 itself ties the over-delivery 3 and wins
    inst = Instance(suppliers=(Supplier(0, 0, 1, 2), Supplier(0, 0, 1, 4)), P=3)
    rows = [[3, 3], [4, 1, 1, 6]]
    table = reference_table(inst, build_grid(inst, 1), CostRows(rows, 1), rows, "hand-built")
    assert table.phi[2] == [0, 1, 1, 1]
    assert [ref_choice(table, 2, p) for p in (1, 2, 3)] == [2, 2, 3]
    check_choice_everywhere(table)
    # with supplier 1 at [3, 1], skipping supplier 2 costs 1 at residuals 1
    # and 2 too, and the skip wins both ties
    rows = [[3, 1], [4, 1, 1, 6]]
    table = reference_table(inst, build_grid(inst, 1), CostRows(rows, 1), rows, "hand-built")
    assert table.phi[1][1:3] == table.phi[2][1:3] == [1, 1]
    assert [ref_choice(table, 2, p) for p in (1, 2, 3)] == [None, None, 3]
    check_choice_everywhere(table)


def outside_bands_blanked(table):
    """The table with every cell of rows 1..n at p >= 1 outside its row's
    band replaced by row 0's sentinel phi[0][1], UB + 1: rows that hold only
    their bands."""
    sentinel = table.phi[0][-1]  # UB + 1, or row 0's only cell when P = 0
    phi = [table.phi[0]]
    for row, (first, last) in zip(table.phi[1:], table.bands[1:]):
        phi.append([v if p == 0 or first <= p <= last else sentinel for p, v in enumerate(row)])
    return replace(table, phi=phi)


def check_blanked(table):
    blanked = outside_bands_blanked(table)
    assert blanked.final == table.final
    assert _chosen_indices(blanked) == _chosen_indices(table)


@settings(max_examples=80, deadline=None)
@given(inst=instances(n_max=4, bound_max=8), H=st.integers(1, 3), multi=st.booleans())
def test_cells_outside_the_bands_carry_no_value(inst, H, multi):
    # a cell outside its row's band keeps row k-1's value, but neither
    # phi(n, P) nor the backtrack reads it: as the sentinel it gives the
    # same final cell and plan
    check_blanked(solve_fixed_H(replace(inst, mode=MULTI if multi else SINGLE), H))


@settings(max_examples=150, deadline=None)
@given(built=hand_built_rows())
def test_cells_outside_the_bands_carry_no_value_on_rows_full_of_ties(built):
    inst, grid, costs = built
    check_blanked(_fill(inst, grid, costs, "hand-built", None))


def ref_increments(row, lo, hi, total, convex):
    """The bound's increments with the row's own differences after t taken
    as ``map(sub, ...)`` of the row."""
    cap = min(hi, total)
    if not convex:
        return [min(v // i for v, i in zip(row, range(lo, hi + 1)))] * cap
    t = min(range(lo, hi + 1), key=lambda v: (F(row[v - lo], v), v))
    slope = row[t - lo] // t
    if t >= cap:
        return [slope] * cap
    return [slope] * t + list(map(sub, row[t - lo + 1:cap + 1 - lo], row[t - lo:cap - lo]))


@settings(max_examples=60, deadline=None)
@given(inst=instances(n_max=3, bound_max=12), H=st.integers(1, 3))
def test_increments_continue_with_the_rows_own_differences(inst, H):
    grid = build_grid(inst, H)
    costs = _single_candidate_costs(inst, grid)
    for ck, (lo, hi) in zip(costs, grid.spans):
        for total in {0, lo, hi - 1, hi, grid.demand_points - 1, hi + 3}:
            assert _increments(ck, lo, hi, total, True) == ref_increments(ck, lo, hi, total, True)
        assert _increments(ck, lo, hi, hi, False) == ref_increments(ck, lo, hi, hi, False)


@settings(max_examples=150, deadline=None)
@given(
    inst=instances(n_max=1, bound_max=10),
    H=st.integers(1, 3),
    data=st.data(),
)
def test_rising_rows_skip_the_suffix_minima(inst, H, data):
    # a single-batch row rises, so its cheapest batch of at least p is
    # max(p, lo): the row read as it is equals the suffix-minima pass
    grid = build_grid(inst, H)
    (ck,), ((lo, hi),) = _single_candidate_costs(inst, grid), grid.spans
    assert all(a < b for a, b in zip(ck, ck[1:]))
    cols = grid.demand_points
    prev = [0] + data.draw(st.lists(st.integers(0, 2 * max(ck)), min_size=cols - 1, max_size=cols - 1))
    points = st.integers(1, cols - 1) if cols > 1 else st.just(1)
    band = tuple(sorted(data.draw(st.tuples(points, points))))
    prev_band = data.draw(st.sampled_from([EMPTY, (1, cols - 1), band]))
    for b in (band, (band[0], band[0]), EMPTY):
        assert _fill_row(prev, prev_band, lo, hi, ck, b, True) == _fill_row(prev, prev_band, lo, hi, ck, b)


# --- the priced window ends at P + m ----------------------------------------------


@st.composite
def far_window_instances(draw, P_max=6, past_max=40):
    # windows that reach up to past_max beyond P + m, on fractional lam
    P = draw(st.integers(0, P_max))
    sups = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, 4))
        sups.append(
            Supplier(
                alpha=draw(st.sampled_from([0, 0, 1, 3, 7, 40])),
                beta=draw(st.integers(0, 6)),
                m=m,
                M=draw(st.integers(m, m + P + past_max)),
            )
        )
    return Instance(
        suppliers=tuple(sups),
        P=P,
        lam=draw(st.builds(F, st.integers(1, 5), st.integers(1, 4))),
        c_hold=draw(st.integers(1, 2)),
        mode=draw(st.sampled_from([SINGLE, MULTI])),
    )


@settings(max_examples=100, deadline=None)
@given(inst=far_window_instances(past_max=10**3), H=st.integers(1, 3))
def test_no_cost_row_is_longer_than_a_table_row(inst, H):
    # each window ends at min(M, P + m), so a row holds at most P*den + 1
    # volumes and the cell guard bounds pricing as well as the fill
    grid = build_grid(inst, H)
    for lo_hi, s in zip(grid.spans, inst.suppliers):
        assert lo_hi == (s.m * grid.denominator, min(s.M, inst.P + s.m) * grid.denominator)
    for builder in BUILDERS.values():
        assert all(len(row) <= grid.demand_points for row in builder(inst, grid))


@settings(max_examples=80, deadline=None)
@given(inst=far_window_instances(P_max=5, past_max=8), H=st.integers(1, 2), kind=st.sampled_from(sorted(BUILDERS)))
def test_the_window_cut_changes_no_table(inst, H, kind):
    # the reference fill over the whole windows m..M and over the priced
    # windows m..min(M, P + m): every phi and every choice are the same, as
    # no optimum takes a volume past P + m
    inst = replace(inst, mode=SINGLE if kind == SINGLE else MULTI)
    cut = build_grid(inst, H)
    whole = replace(cut, spans=tuple((s.m * cut.denominator, s.M * cut.denominator) for s in inst.suppliers))
    assert ref_fill(cut, ref_costs(inst, cut, kind)) == ref_fill(whole, ref_costs(inst, whole, kind))

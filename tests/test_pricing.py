"""Integer candidate pricing against the plain Fraction formulas it replaced.

The references below price every grid volume with Fraction arithmetic, try
every batch count in a loop, and fill the Bellman table in the most direct
way; the fast path must reproduce their costs, batch counts and phi values
exactly, and the choice ``_choice`` derives from a table must equal the
reference's stored choice.  The row routine chained with low = 0 fills whole
tables and must match the reference at every cell; ``_fill`` computes only
the cells phi(n, P) can read and must match it at each of those, and
backtrack to the same plan.
"""

import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotdp import (
    MULTI,
    SINGLE,
    DPTable,
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
    CostRows,
    Grid,
    _aggregated_candidate_costs,
    _base_denominator,
    _choice,
    _chosen_indices,
    _convex_runs,
    _fill,
    _fill_row,
    _single_candidate_costs,
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
    """The row routine chained with low = 0 over every supplier: the whole
    table, exact at every cell."""
    cols = grid.demand_points
    prev = [0] + [None] * (cols - 1)
    reach = 0
    phi = [prev]
    for (lo, hi), ck in zip(grid.spans, costs):
        prev, reach = _fill_row(prev, reach, lo, hi, ck, 0)
        phi.append(prev)
    rows = len(phi)
    return DPTable(
        H=grid.H, grid=grid, kind=kind, phi=phi, den=costs.den, costs=costs,
        cells=rows * cols, lows=(0,) * rows,
    )


def as_fractions(table):
    return [[None if v is None else F(v, table.den) for v in row] for row in table.phi]


def expected_lows(inst, grid):
    """Row k >= 1 starts at P*den less the largest total of suppliers k+1..n."""
    last = grid.demand_points - 1
    after = [sum(hi for _, hi in grid.spans[k:]) for k in range(1, inst.n + 1)]
    return (0, *(max(0, last - rest) for rest in after))


def choices(table, cells):
    """_choice at each (k, p) of cells, k >= 1."""
    return [_choice(table, k, p) for k, p in cells]


def reference_table(inst, grid, costs, ref_rows, kind):
    """The full chain must equal ref_fill at every cell, phi and the choice
    _choice derives.  _fill must equal it at every cell it computes (p = 0
    and p >= lows[k]) and backtrack to the same plan.  Returns the full
    chain's table."""
    phi, choice = ref_fill(grid, ref_rows)
    full = full_chain(grid, costs, kind)
    assert as_fractions(full) == phi
    cols = grid.demand_points
    every = [(k, p) for k in range(1, len(phi)) for p in range(cols)]
    assert choices(full, every) == [choice[k][p] for k, p in every]
    table = _fill(inst, grid, costs, kind, None)
    assert table.lows == expected_lows(inst, grid)
    exact = [(k, p) for k, low in enumerate(table.lows) for p in range(cols) if p == 0 or p >= low]
    assert len(exact) == table.computed <= table.cells == full.cells
    pruned = as_fractions(table)
    assert [pruned[k][p] for k, p in exact] == [phi[k][p] for k, p in exact]
    exact_rows = [(k, p) for k, p in exact if k >= 1]
    assert choices(table, exact_rows) == [choice[k][p] for k, p in exact_rows]
    assert table.final == full.final == phi[-1][-1]
    if table.final is not None:
        assert _chosen_indices(table, inst) == _chosen_indices(full, inst)
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
    # hand-built rows over volumes 1..4: the second row splits into the runs
    # {1, 2} and {3, 4}, and at p = 4 volume 1 (4 + 2) ties volume 3 (4 + 2)
    inst = Instance(suppliers=(Supplier(0, 0, 1, 4),) * 2, P=4)
    rows = [[4, 4, 4, 10], [2, 5, 2, 9]]
    assert _convex_runs(rows[1]) == [(0, 1), (2, 3)]
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
    assert len(_convex_runs(_aggregated_candidate_costs(inst, grid)[0])) > 1
    for H in (1, 2, 3):
        checked_table(inst, H, "multi-aggregated")


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
    # the cheapest batch and closes every residual but 0
    inst = Instance(suppliers=(Supplier(0, 0, 1, 6),), P=2)
    rows = [[5, 6, 7, 8, 1, 9]]
    table = reference_table(inst, build_grid(inst, 1), CostRows(rows, 1), rows, "hand-built")
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


# --- demand-pruned rows -----------------------------------------------------------


def test_row_below_its_low_is_left_as_the_skip_entry():
    # supplier 2 delivers at most 3 of the demand 8, so row 1 = n - 1 starts
    # at low 5.  The full chain covers the residuals 1..4 of both rows, and
    # the cheapest covered cell of its last row, p = 1, lies below that low;
    # the pruned rows keep row 0's None there, and _choice reads a skip
    inst = Instance(suppliers=(Supplier(0, 1, 1, 10), Supplier(0, 3, 1, 3)), P=8)
    full = checked_table(inst, 1, SINGLE)
    table = solve_fixed_H(inst, 1)
    assert table.lows == (0, 5, 8)
    assert as_fractions(full)[2][1:5] == [F(3, 2), 4, F(15, 2), 11]
    assert table.phi[1][1:5] == table.phi[2][1:5] == [None] * 4
    assert choices(table, [(k, p) for k in (1, 2) for p in range(1, 5)]) == [None] * 8
    # phi(2, 8) = phi(1, 5) + cost(3) = 35/2 + 27/2
    assert table.final == F(31)
    assert _chosen_indices(table, inst) == [(1, 5), (2, 3)]


def test_over_delivery_from_a_pruned_row_reads_residual_zero():
    # supplier 3 delivers exactly 2, so row 2 starts at low 3; there supplier
    # 2's smallest batch, 4, closes residual 3 on top of phi(1, 0) = 0
    inst = Instance(
        suppliers=(Supplier(100, 0, 1, 3), Supplier(0, 0, 4, 6), Supplier(0, 0, 2, 2)), P=5
    )
    checked_table(inst, 1, SINGLE)
    table = solve_fixed_H(inst, 1)
    assert table.lows == (0, 0, 3, 5)
    assert (F(table.phi[2][3], table.den), _choice(table, 2, 3)) == (8, 4)
    assert table.final == 10
    assert _chosen_indices(table, inst) == [(2, 4), (3, 2)]


def test_row_with_nothing_covered_at_or_above_its_low():
    # the windows hold 4 of the demand 5 in all, so row 1 starts at low 3 but
    # covers only up to 2: its reach is 0 and the last row is empty
    inst = Instance(suppliers=(Supplier(0, 0, 1, 2),) * 2, P=5)
    grid = build_grid(inst, 1)
    costs = _single_candidate_costs(inst, grid)
    row, reach = _fill_row([0] + [None] * 5, 0, 1, 2, costs[0], 3)
    assert (row, reach) == ([0] + [None] * 5, 0)
    assert _fill_row(row, reach, 1, 2, costs[1], 5)[1] == 0
    # the full chain's row 1 covers 1..2, which nothing reads
    assert checked_table(inst, 1, SINGLE).phi[1][2] is not None
    table = solve_fixed_H(inst, 1)
    assert table.lows == (0, 3, 5)
    assert table.final is None


def test_lows_of_a_window_entirely_above_the_demand():
    # supplier 1's smallest batch, 4, exceeds the demand 3, and supplier 2
    # delivers at most 1, so row 1 starts at 3 - 1 on the unit grid and at
    # 6 - 2 on the half grid; every cell there is an over-delivery
    inst = Instance(suppliers=(Supplier(0, 0, 4, 6), Supplier(0, 0, 1, 1)), P=3)
    for H, lows in ((1, (0, 2, 3)), (2, (0, 4, 6))):
        checked_table(inst, H, SINGLE)
        table = solve_fixed_H(inst, H)
        assert table.lows == lows
        assert [F(table.phi[1][p], table.den) for p in range(lows[1], lows[2] + 1)] == [8] * (H + 1)
        assert table.final == 8
        assert _chosen_indices(table, inst) == [(1, 4 * H)]
    # a window above the demand in the last row leaves row 1 unpruned
    inst = Instance(suppliers=(Supplier(0, 0, 1, 2), Supplier(0, 0, 4, 6)), P=3)
    assert solve_fixed_H(inst, 1).lows == (0, 0, 3)


@settings(max_examples=80, deadline=None)
@given(
    inst=st.one_of(instances(n_max=4, bound_max=8), wide_window_instances()),
    H=st.integers(1, 3),
    multi=st.booleans(),
)
def test_pruned_fill_keeps_the_final_cell_and_the_plan(inst, H, multi):
    kind = "multi-aggregated" if multi else SINGLE
    inst = Instance(inst.suppliers, inst.P, inst.lam, inst.c_hold, MULTI if multi else SINGLE)
    table = solve_fixed_H(inst, H)
    grid = build_grid(inst, H)
    full = full_chain(grid, BUILDERS[kind](inst, grid), kind)
    assert table.final == full.final
    if full.final is not None:
        assert _chosen_indices(table, inst) == _chosen_indices(full, inst)
        assert backtrack(table, inst) == backtrack(full, inst)


# --- convex runs ------------------------------------------------------------------


def is_convex(seg):
    return all(seg[j - 1] - 2 * seg[j] + seg[j + 1] >= 0 for j in range(1, len(seg) - 1))


@given(row=st.lists(st.integers(-20, 20), min_size=1, max_size=30))
def test_convex_runs_partition_the_row_into_maximal_convex_pieces(row):
    runs = _convex_runs(row)
    assert runs[0][0] == 0 and runs[-1][1] == len(row) - 1
    assert all(a <= b for a, b in runs)
    assert all(b + 1 == a for (_, b), (a, _) in zip(runs, runs[1:]))
    assert all(is_convex(row[a:b + 1]) for a, b in runs)
    # a run ends only where taking the next volume would break convexity
    assert all(not is_convex(row[a:b + 2]) for a, b in runs[:-1])


@settings(max_examples=40, deadline=None)
@given(inst=instances(bound_max=12), H=st.integers(1, 3))
def test_single_batch_rows_are_one_convex_run(inst, H):
    costs = _single_candidate_costs(inst, build_grid(inst, H))
    assert costs.convex
    for row in costs:
        assert _convex_runs(row) == [(0, len(row) - 1)]


def test_only_single_batch_pricing_claims_one_convex_run():
    inst = Instance(suppliers=(Supplier(1, 1, 1, 6),) * 2, P=8)
    grid = build_grid(inst, 2)
    convex = {kind: BUILDERS[kind](inst, grid).convex for kind in BUILDERS}
    assert convex == {SINGLE: True, "multi-aggregated": False, "multi-duplication": False}


def test_a_row_of_one_residual_scans_its_window_whole():
    # volumes 1..5 cost [4, 1, 5, 2, 6], two convex runs; at p = 5 the
    # volumes 2 and 4 tie at 4 on top of prev, and the smaller one wins
    prev, ck = [0, 2, 3, 3, 8, 9], [4, 1, 5, 2, 6]
    assert _convex_runs(ck) == [(0, 2), (3, 4)]
    grid = Grid(H=1, denominator=1, demand_points=6, spans=((1, 5),))

    def one_row(row, low):
        return DPTable(
            H=1, grid=grid, kind="hand-built", phi=[prev, row], den=1,
            costs=CostRows([ck], 1), cells=12, lows=(0, low),
        )

    full, _ = _fill_row(prev, 5, 1, 5, ck, 0)
    assert full == [0, 1, 1, 2, 2, 4]
    assert choices(one_row(full, 0), [(1, p) for p in range(6)]) == [None, 2, 2, 4, 4, 2]
    row, reach = _fill_row(prev, 5, 1, 5, ck, 5)
    assert (row[5], _choice(one_row(row, 5), 1, 5), reach) == (4, 2, 5)


def test_convex_runs_are_cut_only_on_rows_of_many_residuals(monkeypatch):
    cut = []
    original = dp._convex_runs
    monkeypatch.setattr(dp, "_convex_runs", lambda row: cut.append(row) or original(row))
    single = Instance(suppliers=(Supplier(1, 1, 1, 6),) * 3, P=8)
    solve_fixed_H(single, 2)
    assert cut == []
    # 17 residuals on grid 2; rows 1 and 2 compute from 0 and 4 up, and the
    # last row computes P*den = 16 alone
    multi = replace(single, mode=MULTI)
    table = solve_fixed_H(multi, 2)
    assert table.lows == (0, 0, 4, 16)
    costs = _aggregated_candidate_costs(multi, build_grid(multi, 2))
    assert cut == costs[:2]

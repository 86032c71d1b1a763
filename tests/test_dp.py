import inspect
import itertools
import random
import weakref
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotdp import (
    MULTI,
    InfeasibleInstanceError,
    Instance,
    ResourceLimitError,
    Supplier,
    backtrack,
    build_grid,
    duplication_oracle,
    lemma1_solution,
    make_solution,
    multi_delivery_cost,
    multi_h_limit,
    random_instance,
    solve,
    solve_fixed_H,
    solve_multi,
    structural_oracle,
)
from lotdp import dp, oracle
from lotdp.generate import bench_instance
from test_pricing import full_chain


def objectives(report):
    """(H, objective) of each table the sweep filled, in fill order."""
    return [(t.H, t.objective) for t in report.trace]


def test_grid_points():
    inst = Instance(suppliers=(Supplier(0, 1, 2, 3),), P=5, c_hold=2)
    grid = build_grid(inst, 2)
    assert grid.denominator == 4
    assert grid.demand_points == 5 * 4 + 1
    (lo, hi), = grid.spans
    volumes = [F(i, grid.denominator) for i in range(lo, hi + 1)]
    assert volumes == [2, F(9, 4), F(5, 2), F(11, 4), 3]
    with pytest.raises(ValueError, match="positive"):
        build_grid(inst, 0)


def test_grid_respects_rational_intensity():
    inst = Instance(suppliers=(Supplier(0, 1, 2, 3),), P=5, c_hold=2, lam=F(3, 2))
    assert build_grid(inst, 1).denominator == 4  # 1 * 2 * den(3/2)


class TestGoldenInstance:
    def test_optimum(self, golden):
        report = solve(golden)
        assert report.solution.objective == F(35, 2)
        assert report.solution.per_supplier_totals == (F(5, 2), F(5, 2))

    def test_both_grids_tie_and_the_finer_one_wins(self, golden):
        # c_hold = 2 makes the H=1 grid step 1/2, so 5/2 is reachable there too
        report = solve(golden)
        assert objectives(report) == [(1, F(35, 2)), (2, F(35, 2))]
        assert report.best_H == 2

    def test_coarser_holding_rate_separates_the_grids(self, golden):
        inst = replace(golden, c_hold=1)
        report = solve(inst)
        assert objectives(report) == [(1, F(23, 2)), (2, F(45, 4))]
        assert report.best_H == 2
        assert report.solution.objective == F(45, 4)


def test_forced_overshoot(overshoot):
    report = solve(overshoot)
    assert report.solution.objective == 61
    assert report.solution.per_supplier_totals == (10,)


def test_zero_demand_buys_nothing():
    inst = Instance(suppliers=(Supplier(5, 5, 1, 4),), P=0)
    report = solve(inst)
    assert report.solution.objective == 0
    assert report.solution.deliveries == ()


def test_capacity_exactly_equal_to_demand():
    inst = Instance(suppliers=(Supplier(1, 1, 2, 3), Supplier(1, 1, 2, 3)), P=6)
    report = solve(inst)
    assert report.solution.per_supplier_totals == (3, 3)
    assert report.solution.objective == 17  # 2 * (1 + 3 + 9/2)


def test_infeasible_demand_raises(overshoot):
    inst = replace(overshoot, P=25)  # single supplier caps out at 20
    with pytest.raises(InfeasibleInstanceError):
        solve(inst)


class TestEqualSplits:
    """Identical suppliers: the optimum splits evenly, and the denominators the
    theory promises (dividing H * c_hold) actually show up."""

    suppliers = (Supplier(2, 1, 1, 12),) * 3

    def test_integer_split(self):
        report = solve(Instance(suppliers=self.suppliers, P=9))
        assert report.solution.per_supplier_totals == (3, 3, 3)
        assert report.solution.objective == F(57, 2)

    def test_fractional_split(self):
        report = solve(Instance(suppliers=self.suppliers, P=10))
        assert report.solution.per_supplier_totals == (F(10, 3),) * 3
        assert report.solution.objective == F(98, 3)
        assert report.best_H == 3


def test_table_shape_and_monotonicity(golden):
    # the whole table: the row routine chained with full bands
    grid = build_grid(golden, 2)
    table = full_chain(grid, dp._single_candidate_costs(golden, grid), "single")
    assert table.final == F(35, 2)
    assert table.grid.cells == 3 * (5 * 4 + 1)
    for row in table.phi:
        assert row[0] == 0  # zero residual demand costs nothing
        reachable = [v for v in row if v is not None]
        assert reachable == sorted(reachable)  # cost grows with residual demand
    # adding a supplier never hurts
    for prev, cur in zip(table.phi, table.phi[1:]):
        for a, b in zip(prev, cur):
            if a is not None:
                assert b is not None and b <= a


def test_cells_computed_on_the_golden_instance(golden):
    # row k is computed at p = 0 and in its band; row 0's band is empty.
    # H = 1: den 2, volumes 4..6 cost 4i + 2i**2 over B = 8, least per unit
    # at t = 4 (slope 12), then the row adds 22, 26.  The water-fill of 10
    # units is 5 + 5, UB = 70 + 70 = 140, the relaxation at 10 is 8 * 12 +
    # 2 * 22 = 140 too: row 1's bound is 144, 140, 144 at p = 4, 5, 6.
    # H = 2: den 4, 8i + 2i**2 over B = 32, slope 24 to t = 8, then 42, 46,
    # ...; UB = 280 + 280, and row 1's bound is 564 at p = 9 and 11.
    # Each table computes 1 + (1 + 1) + (1 + 1) = 5 cells
    assert [solve_fixed_H(golden, H).bands for H in (1, 2)] == [
        ((1, 0), (5, 5), (10, 10)),
        ((1, 0), (10, 10), (20, 20)),
    ]
    report = solve(golden)
    assert [(t.cells, t.computed) for t in report.trace] == [(33, 5), (63, 5)]
    assert report.cells_computed == 10
    assert report.table_cells_filled == 96


def test_cell_budget_is_enforced(golden):
    with pytest.raises(ResourceLimitError):
        solve(golden, max_cells=10)


def test_one_table_cell_budget(golden):
    # solve_fixed_H takes no cap: a table's size is its grid's, known before
    # the fill.  _fill still takes one, which no solver passes
    grid = build_grid(golden, 2)
    cells = grid.cells
    assert "max_cells" not in inspect.signature(solve_fixed_H).parameters
    assert solve_fixed_H(golden, 2).grid.cells == cells
    costs = dp._single_candidate_costs(golden, grid)
    assert dp._fill(golden, grid, costs, "single", cells).grid.cells == cells
    with pytest.raises(ResourceLimitError, match=f"H=2 needs {cells} cells, above the cap {cells - 1}"):
        dp._fill(golden, grid, costs, "single", cells - 1)


def test_cell_budget_covers_the_whole_sweep(golden):
    # tables for H = 1, 2 have 3 * 11 and 3 * 21 cells
    assert solve(golden, max_cells=96).table_cells_filled == 96
    with pytest.raises(ResourceLimitError):
        solve(golden, max_cells=95)


def test_cell_budget_refuses_before_filling_any_table(monkeypatch):
    # each table up to H=60 fits the cap on its own, but the sweep runs to H=120
    inst = Instance(suppliers=(Supplier(1, 1, 1, 60),) * 2, P=60, mode=MULTI)
    assert multi_h_limit(inst) == 120
    fills = []
    monkeypatch.setattr(dp, "_fill", lambda *args: fills.append(args))
    for run in (solve_multi, duplication_oracle):
        with pytest.raises(ResourceLimitError, match="cells"):
            run(inst, max_cells=10_803)
    assert fills == []


def test_mode_mismatch_is_rejected(golden):
    with pytest.raises(ValueError):
        solve(replace(golden, mode=MULTI))
    with pytest.raises(ValueError):
        solve_multi(golden)


def test_reports_are_deterministic(golden):
    a, b = solve(golden), solve(golden)
    assert a.best_H == b.best_H
    assert objectives(a) == objectives(b)
    assert a.solution == b.solution
    assert a.table_cells_filled == b.table_cells_filled


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_matches_structural_oracle_on_random_instances(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, n_max=3, p_max=10, c_max=2, bound_max=8)
    dp_obj = solve(inst).solution.objective
    oracle_obj = structural_oracle(inst).objective
    assert dp_obj == oracle_obj


@pytest.mark.parametrize("lam", [2, F(3, 2)])
def test_matches_structural_oracle_with_nonunit_intensity(lam):
    rng = random.Random(99)
    for _ in range(15):
        inst = random_instance(rng, n_max=3, p_max=8, c_max=2, bound_max=6, lam=lam)
        assert solve(inst).solution.objective == structural_oracle(inst).objective


class TestMultiDelivery:
    def test_single_supplier_splits_into_four(self):
        inst = Instance(suppliers=(Supplier(1, 0, 1, 10),), P=6, mode=MULTI)
        report = solve_multi(inst)
        assert report.solution.objective == F(17, 2)
        volumes = sorted(d.volume for d in report.solution.deliveries)
        assert volumes == [F(3, 2)] * 4

    def test_overshooting_three_small_batches_beats_one_large(self):
        # window [2, 6], demand 5, no purchase costs: delivering 6 as three
        # batches of 2 costs 6, while any single batch covering the demand
        # costs at least 25/2
        inst = Instance(suppliers=(Supplier(0, 0, 2, 6),), P=5, mode=MULTI)
        for sol in (solve_multi(inst).solution, duplication_oracle(inst)):
            assert sol.objective == 6
            assert sum(d.volume for d in sol.deliveries) == 6

    def test_strategies_agree_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(20):
            inst = random_instance(rng, n_max=2, p_max=8, bound_max=6, mode=MULTI)
            a = solve_multi(inst).solution.objective
            b = duplication_oracle(inst).objective
            assert a == b

    def test_reduces_to_single_mode_when_batches_cannot_split(self):
        # M < 2m leaves no room for a second batch anywhere
        rng = random.Random(21)
        for _ in range(20):
            m = rng.randint(2, 6)
            suppliers = tuple(
                Supplier(rng.randint(0, 5), rng.randint(0, 5), m, m + rng.randint(0, m - 1))
                for _ in range(rng.randint(1, 3))
            )
            cap = sum(s.M for s in suppliers)
            inst = Instance(suppliers=suppliers, P=rng.randint(0, cap))
            single = solve(inst).solution.objective
            multi = solve_multi(replace(inst, mode=MULTI)).solution.objective
            assert single == multi

    def test_golden_unchanged_by_multi_mode(self, golden):
        report = solve_multi(replace(golden, mode=MULTI))
        assert report.solution.objective == F(35, 2)

    def test_h_sweep_bound(self, golden):
        assert multi_h_limit(replace(golden, mode=MULTI)) == 4  # 5//2 per supplier
        inst = Instance(suppliers=(Supplier(1, 1, 10, 20),), P=5, mode=MULTI)
        assert multi_h_limit(inst) == 1  # demand below every minimum


# --- the bounded sweep against the full one ----------------------------------


def ref_sweep(inst):
    """The full sweep, kept only as a reference: every grid H = 1..H_top is
    filled, and the finest of the cheapest tables is backtracked."""
    H_top = multi_h_limit(inst) if inst.mode == MULTI else inst.n
    best = None
    for H in range(1, H_top + 1):
        table = solve_fixed_H(inst, H)
        if best is None or table.final <= best.final:
            best = table
    return best.grid.H, backtrack(best, inst)


def assert_matches_full_sweep(inst):
    report = solve_multi(inst) if inst.mode == MULTI else solve(inst)
    best_H, solution = ref_sweep(inst)
    assert report.best_H == best_H
    assert report.solution == solution
    assert report.solution.objective == solution.objective
    # table 1 and some of the tables 2..L, in order, and the rest of the H
    # range skipped
    filled = [t.H for t in report.trace]
    assert filled[:1] == [1] and filled == sorted(set(filled)) and filled[-1] <= report.L
    assert report.skipped_H == tuple(H for H in range(1, report.H_top + 1) if H not in filled)
    if inst.mode == MULTI:  # the count bound runs in single mode only
        assert filled == list(range(1, report.L + 1))
    # the guard bounds the sweep, the sweep's rank needs every table filled
    # at most H_top, and the plan keeps the interior bound
    assert report.L <= report.L_count
    assert report.L <= report.H_top
    assert report.table_cells_filled <= dp._sweep_cells(inst, report.L_count)
    assert report.interior == dp._interior_count(inst, report.solution) <= report.L
    return report


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_bounded_sweep_matches_the_full_sweep_in_single_mode(seed):
    rng = random.Random(seed)
    assert_matches_full_sweep(random_instance(rng, n_max=6, p_max=24, c_max=2, bound_max=10))


def copied_pair(rng):
    """Two copies of one multi-mode supplier sharing a demand of 2M - 7:
    whole batches move between the copies at no cost, and in about a third
    of these instances two eligible tables backtrack to different plans."""
    M = rng.randint(8, 12)
    s = Supplier(rng.randint(1, 4), rng.randint(0, 1), rng.randint(1, 2), M)
    return Instance(suppliers=(s, s), P=2 * M - 7, c_hold=rng.randint(1, 2), mode=MULTI)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), pair=st.booleans())
def test_bounded_sweep_matches_the_full_sweep_in_multi_mode(seed, pair):
    # copied pairs reach the cross-grid tie rule, which the random family
    # almost never does (see test_copied_pairs_give_eligible_tables_different_plans)
    rng = random.Random(seed)
    if pair:
        inst = copied_pair(rng)
    else:
        inst = random_instance(rng, n_max=3, p_max=16, c_max=2, bound_max=8, mode=MULTI)
    assert_matches_full_sweep(inst)


def test_copied_pairs_give_eligible_tables_different_plans():
    # the full sweep then picks among plans that differ, not only among
    # tables that backtrack to one plan: the tables 1..L that reach v* and
    # divide best_H backtrack to more than one set of totals
    rng = random.Random(0)
    differ = 0
    for _ in range(12):
        inst = copied_pair(rng)
        report = assert_matches_full_sweep(inst)
        tables = [solve_fixed_H(inst, H) for H in range(1, report.L + 1)]
        totals = {
            backtrack(t, inst).per_supplier_totals
            for t in tables
            if t.final == report.solution.objective and report.best_H % t.grid.H == 0
        }
        differ += len(totals) > 1
    assert differ >= 1


@pytest.mark.parametrize("mode", ["single", MULTI])
class TestBoundedSweepCases:
    def test_zero_demand(self, mode):
        inst = Instance(suppliers=(Supplier(5, 5, 1, 4), Supplier(1, 1, 2, 3)), P=0, mode=mode)
        report = assert_matches_full_sweep(inst)
        assert report.L == 1
        assert report.solution.objective == 0

    def test_demand_below_every_minimum_over_delivers(self, mode):
        suppliers = (Supplier(1, 1, 10, 20), Supplier(2, 0, 7, 9), Supplier(0, 3, 8, 12))
        report = assert_matches_full_sweep(Instance(suppliers=suppliers, P=5, mode=mode))
        assert report.L == 1
        assert sum(report.solution.per_supplier_totals) > 5

    def test_tied_symmetric_suppliers(self, mode):
        # two of four identical suppliers take 5/2 each: the optimum sits on
        # grid 2 <= L, and best_H is the largest grid that 2 divides
        inst = Instance(suppliers=(Supplier(0, 1, 2, 3),) * 4, P=5, c_hold=1, mode=mode)
        report = assert_matches_full_sweep(inst)
        assert report.L == 2
        assert report.best_H == report.H_top > report.L
        assert report.solution.per_supplier_totals == (F(5, 2), F(5, 2), 0, 0)

    def test_infeasible_instance_has_the_same_error_text(self, mode):
        inst = Instance(suppliers=(Supplier(1, 1, 2, 3), Supplier(0, 2, 1, 4)), P=9, mode=mode)
        assert sum(s.M for s in inst.suppliers) < inst.P
        with pytest.raises(InfeasibleInstanceError) as full:
            ref_sweep(inst)
        H_top = multi_h_limit(inst) if mode == MULTI else inst.n
        with pytest.raises(InfeasibleInstanceError) as bounded:
            dp._sweep(inst, H_top, None)
        assert str(bounded.value) == "no grid admits a feasible plan"
        assert str(full.value) == "no grid admits a feasible plan"
        with pytest.raises(InfeasibleInstanceError):
            solve_multi(inst) if mode == MULTI else solve(inst)


def test_bounded_sweep_with_no_purchase_costs_in_multi_mode():
    # alpha = 0 makes every total go out in the most batches allowed.  The
    # windows hold (7 - 1) // 2 = 3 and (9 - 1) // 3 = 2 interior batches,
    # and the m of four of them already reach 2 + 2 + 2 + 3 = 9 of P - 1 = 10
    inst = Instance(suppliers=(Supplier(0, 1, 2, 7), Supplier(0, 2, 3, 9)), P=11, mode=MULTI)
    report = assert_matches_full_sweep(inst)
    assert (report.L, report.L_count, report.H_top) == (4, 4, 8)


def test_fine_grid_draws_keep_their_answers_and_computed_cells():
    # c_hold = 2 or 3 and den(lambda) = 2, 3 or 5: the fill computes up to
    # 48% of a draw's cells, where the benchmark pools average 2-18%, so the
    # band walks and the fill run long here.  Each draw keeps its
    # (objective, best_H), and the fill its total of computed cells: a
    # change to UB or to the bands shows in that total
    rng = random.Random(5)
    expected = [(F(2167, 4), 6), (F(27569, 54), 6), (F(8075, 36), 6), (F(564), 9),
                (F(2342, 5), 10), (F(11339, 18), 6), (F(4325, 16), 6), (F(608), 8),
                (F(1675, 4), 9), (F(25463, 54), 9), (F(1465, 4), 6), (F(587), 7)]
    computed = 0
    for i, want in enumerate(expected):
        lam = [F(1, 2), F(2, 3), F(3, 2), F(3, 5)][i % 4]
        report = solve(replace(bench_instance(rng, 6 + i % 5, 30, 2 + i % 2), lam=lam))
        assert (report.solution.objective, report.best_H) == want, i
        computed += report.cells_computed
    assert computed == 110224


# --- the interior-count bound against enumerated plans -------------------------


def structural_minima(inst):
    """The cheapest plan of each interior count c over the 0/m/M/interior
    labelings, the interior volumes split by lemma1_solution as in
    structural_oracle and kept when each lies strictly inside its window."""
    best = {}
    for labels in itertools.product((0, 1, 2, 3), repeat=inst.n):
        chosen = [(s, (0, s.m, s.M)[x]) for x, s in zip(labels, inst.suppliers) if x < 3]
        group = [s for x, s in zip(labels, inst.suppliers) if x == 3]
        rest = inst.P - sum(x for _, x in chosen)
        if group:
            if rest <= 0:
                continue
            volumes = lemma1_solution([s.beta for s in group], rest, inst.lam, inst.c_hold)
            if not all(s.m < x < s.M for s, x in zip(group, volumes)):
                continue
            chosen += zip(group, volumes)
        elif rest > 0:
            continue
        cost = sum(s.alpha + s.beta * x + inst.c_hold * x * x / (2 * inst.lam) for s, x in chosen if x)
        best[len(group)] = min(cost, best.get(len(group), cost))
    return best


def windows_instance(rng, lam):
    """Two to five suppliers with small m and windows up to 12 wide, demand up
    to the capacity: many plans with two or more interior suppliers."""
    suppliers = []
    for _ in range(rng.randint(2, 5)):
        m = rng.randint(1, 5)
        suppliers.append(Supplier(rng.randint(0, 10), rng.randint(0, 10), m, m + rng.randint(0, 12)))
    P = rng.randint(0, sum(s.M for s in suppliers))
    return Instance(suppliers=tuple(suppliers), P=P, lam=lam, c_hold=rng.randint(1, 3))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    a=st.integers(1, 4),
    b=st.integers(1, 3),
    drawn=st.lists(
        st.tuples(st.lists(st.integers(0, 60), min_size=1, max_size=3).map(tuple), st.integers(1, 6)),
        max_size=2,
    ),
)
def test_count_bound_is_below_every_plan_of_its_count(seed, a, b, drawn):
    # the bound at each of the sweep's prices 0 and (24, 27, 31)/20 * v1/P
    # and at each drawn one never exceeds the cheapest enumerated plan of a
    # count.  An enumerated plan of c interior suppliers lies on grid c, so
    # each interior volume is one step 1/(K*c_hold*den(lam)) inside its
    # window for every K >= c: here the largest count enumerated (at least
    # 1, the least K the sweep passes) and the sweep's own K, L_count.
    # Every grid 2..L the sweep leaves out has each multiple priced above v*
    inst = windows_instance(random.Random(seed), F(a, b))
    minima = structural_minima(inst)
    v1 = solve_fixed_H(inst, 1).final
    prices = [(tuple(k * v1.numerator for k in (0, 24, 27, 31)), 20 * v1.denominator * max(inst.P, 1)), *drawn]
    top = max(minima)
    for K in {max(top, 1), dp.interior_limit(inst)}:
        assert K >= top
        for ens, ed in prices:
            S, bounds = dp._count_bound(inst, ens, ed, K)
            assert len(bounds) == len(ens)
            for D in bounds:
                # every count enumerated has its bound, and none past K
                assert top < len(D) <= K + 1
                for c, cheapest in minima.items():
                    assert F(D[c], S) <= cheapest
    report = solve(inst)
    v = report.solution.objective
    filled = {t.H for t in report.trace}
    for H in range(2, report.L + 1):
        if H not in filled:
            assert all(minima.get(c, v + 1) > v for c in range(H, report.L + 1, H))


def multi_count_minima(inst):
    """The cheapest multi-mode plan of each interior count c in
    1..L_count, enumerated on grid c.  Each supplier takes 0, its M, r
    batches of m (when r is the best count there), or an interior total: r
    batches of a volume y on grid c with m < y, r*y < M and r*y <= P, r the
    best count at r*y.  A plan of c interior batches covers exactly P."""
    step = inst.c_hold * inst.lam.denominator
    best = {}
    for c in range(1, dp.interior_limit(inst) + 1):
        plans = {(0, 0): F(0)}  # (total, interior batches) -> least cost
        for s in inst.suppliers:
            def cost(x):
                return multi_delivery_cost(s, x, inst.lam, inst.c_hold)

            menu = [(0, 0, F(0)), (s.M, 0, cost(s.M)[1])]
            menu += [(r * s.m, 0, cost(r * s.m)[1]) for r in range(1, s.M // s.m + 1) if cost(r * s.m)[0] == r]
            for r in range(1, c + 1):
                y = s.m + F(1, c * step)
                while r * y < s.M and r * y <= inst.P:
                    count, price = cost(r * y)
                    if count == r:
                        menu.append((r * y, r, price))
                    y += F(1, c * step)
            nxt = {}
            for (total, k), v in plans.items():
                for x, r, price in menu:
                    if k + r <= c and total + x <= inst.P:
                        key = (total + x, k + r)
                        nxt[key] = min(nxt.get(key, v + price), v + price)
            plans = nxt
        if (inst.P, c) in plans:
            best[c] = plans[inst.P, c]
    return best


def multi_windows_instance(rng):
    """One or two multi-mode suppliers with m = 1 or 2 and windows up to 6
    wide, demand up to 8: plans of one to five interior batches."""
    suppliers = []
    for _ in range(rng.randint(1, 2)):
        m = rng.randint(1, 2)
        suppliers.append(Supplier(rng.randint(0, 10), rng.randint(0, 5), m, m + rng.randint(1, 6)))
    P = rng.randint(2, min(8, sum(s.M for s in suppliers)))
    lam = rng.choice([1, 2, F(1, 2), F(3, 2)])
    return Instance(suppliers=tuple(suppliers), P=P, lam=lam, c_hold=rng.randint(1, 2), mode=MULTI)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_multi_count_bound_is_below_every_plan_of_its_count(seed):
    # at price 0, in multi mode, D[c] never exceeds the cheapest enumerated
    # plan of c interior batches on grid c, and a count whose cheapest plan
    # is an optimum is never cut above L
    inst = multi_windows_instance(random.Random(seed))
    minima = multi_count_minima(inst)
    S, [D] = dp._count_bound(inst, (0,), 1, dp.interior_limit(inst))
    for c, cheapest in minima.items():
        assert c < len(D) and F(D[c], S) <= cheapest
    report = solve_multi(inst)
    assert all(c <= report.L for c, cheapest in minima.items() if cheapest == report.solution.objective)


def test_multi_count_minima_reach_interior_counts():
    # the enumeration above finds plans of one to five interior batches,
    # optima among those of one to three, so the check is not vacuous
    rng = random.Random(7)
    counts, optimal = set(), set()
    for _ in range(40):
        inst = multi_windows_instance(rng)
        minima = multi_count_minima(inst)
        counts |= set(minima)
        v = solve_multi(inst).solution.objective
        optimal |= {c for c, cheapest in minima.items() if cheapest == v}
    assert counts == {1, 2, 3, 4, 5} and {1, 2, 3} <= optimal


def test_a_count_priced_exactly_at_the_running_best_is_filled():
    # alpha = 0, beta = 2, lam = 2: the optimum 10 puts both suppliers at 2,
    # on grid 1 too, and its marginal cost 2 + 2/2 = 3 is the sweep's price
    # (24/20)*v1/P, where the bound is exact: D(2) = 10, the cheapest table
    # so far.  A tie never rules a count out, so table 2 is filled, and L,
    # read at price 0, stays 2
    inst = Instance(suppliers=(Supplier(0, 2, 1, 4),) * 2, P=4, lam=2)
    S, [D] = dp._count_bound(inst, (24 * 10,), 20 * 4, 2)
    assert F(D[2], S) == 10
    report = solve(inst)
    assert objectives(report) == [(1, 10), (2, 10)]
    assert report.L == 2


def test_a_count_whose_bound_equals_v1_is_kept_in_L():
    # L_count = 3, c_hold = den(lam) = 1 and lam = 2: the three interior
    # batches at m + 1/3 cost 115/9 + 337/36 + 589/36 = 77/2, table 1's cost.
    # An optimum may cost its bound exactly, so count 3 stays: L = 3
    inst = Instance(
        suppliers=(Supplier(3, 7, 1, 8), Supplier(8, 0, 2, 9), Supplier(8, 3, 2, 7)), P=10, lam=2
    )
    S, [D] = dp._count_bound(inst, (0,), 1, dp.interior_limit(inst))
    assert F(D[3], S) == F(115, 9) + F(337, 36) + F(589, 36) == F(77, 2)
    report = assert_matches_full_sweep(inst)
    assert objectives(report)[0] == (1, F(77, 2))
    assert (report.L, report.L_count) == (3, 3)


def test_interior_limit():
    # single mode: the largest k whose k smallest m sum below P, at least 1
    suppliers = (Supplier(0, 0, 4, 9), Supplier(0, 0, 1, 9), Supplier(0, 0, 2, 9))
    # (prefix sums of the sorted m: 1, 3, 7)
    single = [dp.interior_limit(Instance(suppliers=suppliers, P=P)) for P in (0, 1, 3, 4, 7, 8)]
    assert single == [1, 1, 1, 2, 2, 3]
    # multi mode: (P - 1) // min m interior batches, at least 1
    multi = [dp.interior_limit(Instance(suppliers=suppliers, P=P, mode=MULTI)) for P in (0, 1, 2, 9)]
    assert multi == [1, 1, 1, 8]


def test_interior_limit_counts_only_batches_a_window_can_hold():
    # single mode: a supplier with M = m is never interior, so only the
    # m = 2 and m = 3 suppliers count, though 1 + 2 + 3 < 10
    single = (Supplier(0, 0, 1, 1), Supplier(0, 0, 2, 9), Supplier(0, 0, 3, 9))
    assert dp.interior_limit(Instance(suppliers=single, P=10)) == 2
    # multi mode: r*m < M caps the interior batches at (M - 1) // m, here 2
    # and 2 (three batches of m would reach M), while (P - 1) // min(m)
    # alone would allow 9
    multi = (Supplier(0, 0, 2, 6), Supplier(0, 0, 3, 9))
    assert dp.interior_limit(Instance(suppliers=multi, P=20, mode=MULTI)) == 4
    # without room for any interior batch L is still 1
    assert dp.interior_limit(Instance(suppliers=(Supplier(0, 0, 4, 4),), P=9, mode=MULTI)) == 1


def cost_cut(inst, bound):
    """L as the sweep reads it from a bound on v*: the counts c >= 1 whose
    price-0 count bound lies at or below it, at least 1."""
    S, [D] = dp._count_bound(inst, (0,), 1, dp.interior_limit(inst))
    return max(1, sum(F(d, S) <= bound for d in D[1:]))


def test_interior_limit_cost_bound():
    # L_count = K = 3 and c_hold = den(lam) = 1: each interior batch lies on
    # a grid of step 1/c, c <= 3, so it is at least 1 + 1/3 and costs at least
    # f = 20 + (4/3)**2/2 = 188/9; L counts the c whose c*f reach no higher
    # than the bound
    inst = Instance(suppliers=(Supplier(20, 0, 1, 9),) * 3, P=9)
    assert dp.interior_limit(inst) == 3
    bounds = [0, F(188, 9), F(375, 9), F(376, 9), F(563, 9), F(564, 9)]
    assert [cost_cut(inst, b) for b in bounds] == [1, 1, 1, 2, 2, 3]
    # in a solve, table 1's cost 121/2 (one batch of 9, or 4 + 5) cuts L to 2
    report = assert_matches_full_sweep(inst)
    assert objectives(report)[0] == (1, F(121, 2))
    assert (report.L, report.L_count) == (2, 3)
    # lam = 3/2 and c_hold = 1: three m = 3 fit P - 1 = 9, and the step
    # 1/(3*2) puts each batch at 19/6 or above, f = (19/6)**2/3 = 361/108
    inst = Instance(suppliers=(Supplier(0, 0, 3, 9),) * 3, P=10, lam=F(3, 2))
    assert [cost_cut(inst, b) for b in (6, F(722, 108), F(1082, 108), F(1083, 108))] == [1, 2, 2, 3]


def test_only_the_grid_step_rules_out_a_count():
    # three batches of 1 cost v1 = 3/2 on grid 1, and L_count = 2.  Two
    # batches at m = 1 would cost 1/2 each, below v1 together, but two
    # interior batches lie on grid 2, at 1 + 1/2 or above: 2 * 9/8 = 9/4 > v1,
    # so L = 1 and table 2 is never filled
    inst = Instance(suppliers=(Supplier(0, 0, 1, 4),) * 3, P=3)
    assert dp.interior_limit(inst) == 2
    S, [D] = dp._count_bound(inst, (0,), 1, 2)
    assert [F(d, S) for d in D] == [0, F(9, 8), F(9, 4)]
    report = assert_matches_full_sweep(inst)
    assert objectives(report) == [(1, F(3, 2))]
    assert 2 * F(1, 2) < F(3, 2) and report.L == 1


@pytest.mark.parametrize(
    "inst",
    [
        # M = m leaves supplier 3 no interior batch in either mode
        Instance(
            suppliers=(Supplier(3, 1, 2, 6), Supplier(0, 2, 1, 5), Supplier(5, 0, 3, 3), Supplier(1, 0, 1, 4)),
            P=9, lam=F(3, 2), c_hold=2,
        ),
        # multi mode: caps 8, 3 and 0 (the first from its total up to P = 9,
        # not M); the first counts at most L times
        Instance(
            suppliers=(Supplier(3, 1, 1, 10**6), Supplier(0, 2, 2, 7), Supplier(5, 0, 3, 3)),
            P=9, lam=F(1, 3), c_hold=3, mode=MULTI,
        ),
        # c_hold = den(lam) = 1: M = m + 1 holds no point of grid 1 strictly
        # inside, so at L = 1 supplier 1 counts no interior batch
        Instance(suppliers=(Supplier(2, 1, 2, 3), Supplier(1, 0, 1, 4)), P=5),
    ],
)
@pytest.mark.parametrize("L", [1, 3, 7])
def test_count_bound_at_price_0_sums_the_smallest_f(inst, L):
    # f = alpha + beta*x + c_hold*x**2/(2*lam) at x = m + h, one grid step
    # h = 1/(L*c_hold*den(lam)) inside the window, each supplier's counted
    # up to its interior cap and at most L times, and not at all when no
    # step fits strictly below M: D[c] = S times the c smallest
    caps = ref_interior_caps(inst)
    h = F(1, L * inst.c_hold * inst.lam.denominator)
    f = [s.alpha + s.beta * (s.m + h) + inst.c_hold * (s.m + h) ** 2 / (2 * inst.lam) for s in inst.suppliers]
    caps = [cap if s.m + h < s.M else 0 for s, cap in zip(inst.suppliers, caps)]
    smallest = sorted(itertools.chain.from_iterable([fi] * min(cap, L) for fi, cap in zip(f, caps)))[:L]
    S, [D] = dp._count_bound(inst, (0,), 1, L)
    assert D == [S * total for total in itertools.accumulate(smallest, initial=0)]


def ref_interior_caps(inst):
    """Each supplier's interior cap, searched from the top: in multi mode,
    with X = max(m, min(M, P)) the largest interior total, the largest r <=
    (X - 1) // m with r = 1 or (r - 1)*r*2*a*alpha < c_hold*b*X**2, for lam
    = a/b."""
    if inst.mode != MULTI:
        return [int(s.M > s.m) for s in inst.suppliers]
    a, b = inst.lam.numerator, inst.lam.denominator
    caps = []
    for s in inst.suppliers:
        X = max(s.m, min(s.M, inst.P))
        caps.append(next(
            (r for r in range((X - 1) // s.m, 1, -1) if (r - 1) * r * 2 * a * s.alpha < inst.c_hold * b * X**2),
            min(1, (X - 1) // s.m),
        ))
    return caps


def capped_instance(rng, lams=(F(1, 2), F(2, 3), F(3, 2), F(2, 5))):
    """A multi-mode draw with fractional lam and alpha up to 400, where the
    batch-count rule caps the interior batches below (M - 1) // m."""
    sups = []
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(1, 3)
        alpha = rng.choice([0, rng.randint(1, 10), rng.randint(1, 40), 400])
        sups.append(Supplier(alpha, rng.randint(0, 9), m, rng.randint(m, 12)))
    P = rng.randint(1, min(sum(s.M for s in sups), 12))
    return Instance(suppliers=tuple(sups), P=P, lam=rng.choice(lams), c_hold=rng.randint(1, 3), mode=MULTI)


def test_interior_caps_follow_the_batch_count_rule():
    rng = random.Random(3)
    binds = 0
    for _ in range(300):
        inst = capped_instance(rng, lams=(1, F(1, 2), F(2, 3), F(3, 2), 3, F(2, 5)))
        caps = dp._interior_caps(inst)
        assert caps == ref_interior_caps(inst)
        binds += caps != [(min(s.M, inst.P) - 1) // s.m for s in inst.suppliers]
        # every grid total strictly inside (r*m, M), and at most P, whose
        # best count is r has r <= the cap, on the grids 1..6
        for s, cap in zip(inst.suppliers, caps):
            for H in range(1, 7):
                den = H * inst.c_hold * inst.lam.denominator
                for i in range(s.m * den + 1, min(s.M * den - 1, inst.P * den) + 1):
                    x = F(i, den)
                    r, _ = multi_delivery_cost(s, x, inst.lam, inst.c_hold)
                    assert r * s.m >= x or r <= cap, (inst, s, x, r, cap)
    assert binds >= 100


def test_interior_caps_count_totals_up_to_P():
    # an interior total covers at most P = 10: at M = 20 the batch-count
    # rule would allow 5 batches (5*6*16 >= 400 > 4*5*16), at 10 it allows 3
    # (3*4*16 >= 100 > 2*3*16), so L_count falls from 5 to 3
    inst = Instance(suppliers=(Supplier(8, 0, 1, 20),), P=10, mode=MULTI)
    assert dp._interior_caps(inst) == [3]
    assert dp._interior_caps(replace(inst, P=20)) == [5]
    report = solve_multi(inst)
    assert (report.L_count, report.L) == (3, 3)
    assert report.solution.objective == duplication_oracle(inst).objective


def test_capped_sweep_matches_the_duplication_oracle():
    # the cap leaves L below the bound from the windows alone in many of
    # these draws, and every optimum is still found
    rng = random.Random(26)
    below = 0
    for _ in range(200):
        inst = capped_instance(rng)
        report = solve_multi(inst)
        assert report.solution.objective == duplication_oracle(inst).objective, inst
        assert report.interior <= report.L <= report.L_count
        # alpha = 0 lifts every cap to (M - 1) // m, the bound from the windows alone
        old = dp.interior_limit(replace(inst, suppliers=tuple(replace(s, alpha=0) for s in inst.suppliers)))
        below += report.L_count < old
    assert below >= 40


def count_fills(monkeypatch):
    """Record the H of every table the sweep fills from here on."""
    filled = []
    original = dp.solve_fixed_H

    def counted(inst, H, **kwargs):
        filled.append(H)
        return original(inst, H, **kwargs)

    monkeypatch.setattr(dp, "solve_fixed_H", counted)
    return filled


def test_best_H_plan_comes_from_the_smaller_grids(monkeypatch):
    # L = 4 and best_H = H_top = 20: the grid 1 backtracks to (5, 5, 0) and
    # the grids 2 and 4 to (15/2, 5/2, 0), which is smaller from supplier n
    # down; best_H's plan is the smallest, and its table is never filled
    inst = Instance(
        suppliers=(Supplier(3, 3, 2, 9), Supplier(3, 3, 2, 9), Supplier(3, 3, 1, 2)),
        P=10,
        mode=MULTI,
    )
    plans = {
        H: backtrack(solve_fixed_H(inst, H), inst).per_supplier_totals for H in (1, 2, 4, 5)
    }
    assert plans == {1: (5, 5, 0), 2: (F(15, 2), F(5, 2), 0), 4: (F(15, 2), F(5, 2), 0), 5: (5, 5, 0)}
    best_H, solution = ref_sweep(inst)
    filled = count_fills(monkeypatch)
    report = solve_multi(inst)
    assert (report.L, report.best_H, report.H_top) == (4, 20, 20)
    assert filled == [1, 2, 3, 4]
    assert report.best_H == best_H
    assert report.solution == solution
    assert report.solution.per_supplier_totals == (F(15, 2), F(5, 2), 0)


@pytest.mark.parametrize(
    "inst, L, interior",
    [
        (random_instance(random.Random(170), n_max=6, p_max=24, c_max=2, bound_max=10), 2, 0),
        (
            random_instance(random.Random(981), n_max=3, p_max=16, c_max=2, bound_max=8, mode=MULTI),
            4,
            4,
        ),
    ],
    ids=["single", "multi"],
)
def test_best_H_one_above_L_is_named_without_its_table(monkeypatch, inst, L, interior):
    # best_H = L + 1 takes its plan from the grids up to L like any H > L
    filled = count_fills(monkeypatch)
    report = solve_multi(inst) if inst.mode == MULTI else solve(inst)
    assert filled == list(range(1, L + 1))
    assert (report.L, report.best_H, report.interior) == (L, L + 1, interior)
    assert_matches_full_sweep(inst)


def count_walks(monkeypatch):
    """Record the H of every table whose plan is walked from here on."""
    walked = []
    original = dp._chosen_indices

    def counted(table):
        walked.append(table.grid.H)
        return original(table)

    monkeypatch.setattr(dp, "_chosen_indices", counted)
    return walked


@pytest.mark.parametrize("mode", ["single", MULTI])
def test_solve_walks_only_the_kept_tables_that_divide_best_H(monkeypatch, mode):
    # the sweep keeps only the tables it fills at v* whose grid divides
    # best_H; each is walked exactly once, a lone one as well as several, and
    # the backtrack reads the winner's plan without walking it again
    walked = count_walks(monkeypatch)
    rng = random.Random(5)
    lone = several = 0
    for _ in range(120):
        if mode == MULTI:
            inst = random_instance(rng, n_max=3, p_max=16, c_max=2, bound_max=8, mode=MULTI)
        else:
            inst = random_instance(rng, n_max=6, p_max=24, c_max=2, bound_max=10)
        walked.clear()
        report = solve_multi(inst) if mode == MULTI else solve(inst)
        v = report.solution.objective
        eligible = [H for H, val in objectives(report) if val == v and report.best_H % H == 0]
        assert walked == eligible
        lone += len(eligible) == 1
        several += len(eligible) > 1
    assert lone and several


@pytest.mark.parametrize(
    "inst, best_H, eligible",
    [
        (random_instance(random.Random(580), n_max=6, p_max=24, c_max=2, bound_max=10), 4, [2, 4]),
        # H_top = 7 + 1 = 8, so grid 6 is the largest multiple of grid 3
        (
            Instance(suppliers=(Supplier(0, 5, 2, 15), Supplier(10, 1, 10, 11)), P=15, lam=2, mode=MULTI),
            6,
            [3, 6],
        ),
    ],
    ids=["single", "multi"],
)
def test_best_H_at_most_L_ranks_its_own_table_with_its_divisors(monkeypatch, inst, best_H, eligible):
    # best_H <= L, so best_H's own table is filled and kept, next to a smaller
    # grid that divides best_H and reaches v* too; each is walked once, and the
    # smallest plan among them is the one best_H's own table backtracks to
    assert_matches_full_sweep(inst)
    own_plan = backtrack(solve_fixed_H(inst, best_H), inst)
    walked = count_walks(monkeypatch)
    report = solve_multi(inst) if inst.mode == MULTI else solve(inst)
    assert (report.best_H, report.L) == (best_H, best_H)
    assert walked == eligible
    assert report.solution == own_plan


@pytest.mark.parametrize(
    "inst, kept",
    [
        # tables 1 and 3 lie above v*, and table 4 reaches it but does not
        # divide best_H = 6: only table 2 stays
        (random_instance(random.Random(24), n_max=6, p_max=24, c_max=2, bound_max=10), [2]),
        # tables 1..7 all reach v* and best_H = H_top = 18: 4, 5 and 7 go
        (
            random_instance(random.Random(25), n_max=3, p_max=16, c_max=2, bound_max=8, mode=MULTI),
            [1, 2, 3, 6],
        ),
    ],
    ids=["single", "multi"],
)
def test_sweep_frees_each_table_outside_the_least_rank(monkeypatch, inst, kept):
    # a table ranks by its objective, then by its largest multiple up to
    # H_top, largest first; when the sweep fills a table or walks a plan, every
    # table filled before and outside the least rank so far is already freed
    assert_matches_full_sweep(inst)
    H_top = multi_h_limit(inst) if inst.mode == MULTI else inst.n
    ranks, refs = {}, {}

    def alive():
        least = min(ranks.values())
        held = [H for H, ref in refs.items() if ref() is not None]
        assert [H for H in held if ranks[H] != least] == [], (held, ranks)
        return held

    fill, walk = dp.solve_fixed_H, dp._chosen_indices

    def tracked_fill(inst, H, **kwargs):
        if ranks:
            alive()
        table = fill(inst, H, **kwargs)
        ranks[H] = (table.final, -(H_top // H) * H)
        refs[H] = weakref.ref(table)
        return table

    def tracked_walk(table):
        assert alive() == kept
        return walk(table)

    monkeypatch.setattr(dp, "solve_fixed_H", tracked_fill)
    monkeypatch.setattr(dp, "_chosen_indices", tracked_walk)
    report = solve_multi(inst) if inst.mode == MULTI else solve(inst)
    assert [t.H for t in report.trace] == list(range(1, report.L + 1))
    assert -min(ranks.values())[1] == report.best_H
    assert [H for H in ranks if ranks[H] == min(ranks.values())] == kept


@settings(max_examples=90, deadline=None)
@given(seed=st.integers(0, 10**6), kind=st.sampled_from(["single", MULTI, "pair"]))
def test_plan_is_the_smallest_of_the_eligible_tables_by_its_totals(seed, kind):
    # an independent statement of the rule: among the tables filled that reach
    # v* and divide best_H, the plan whose supplier totals, read from
    # supplier n down as Fractions, are smallest; no table is walked twice
    rng = random.Random(seed)
    if kind == "pair":
        inst = copied_pair(rng)
    elif kind == MULTI:
        inst = random_instance(rng, n_max=3, p_max=16, c_max=2, bound_max=8, mode=MULTI)
    else:
        inst = random_instance(rng, n_max=6, p_max=24, c_max=2, bound_max=10)
    tables = []
    original = dp.solve_fixed_H

    def kept(inst, H, **kwargs):
        tables.append(original(inst, H, **kwargs))
        return tables[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dp, "solve_fixed_H", kept)
        walked = count_walks(mp)
        report = solve_multi(inst) if inst.mode == MULTI else solve(inst)
    assert len(walked) == len(set(walked))
    assert [t.grid.H for t in tables] == [t.H for t in report.trace]
    v = report.solution.objective
    plans = [backtrack(t, inst) for t in tables if t.final == v and report.best_H % t.grid.H == 0]
    assert report.solution == min(plans, key=lambda s: s.per_supplier_totals[::-1])


def test_interior_count():
    # the golden optimum puts both suppliers at 5/2, inside [2, 3]
    golden = Instance(suppliers=(Supplier(0, 1, 2, 3),) * 2, P=5, c_hold=2)
    assert dp._interior_count(golden, solve(golden).solution) == 2
    # multi mode counts the r batches of a total x with r*m < x < M: 3 + 0 + 0,
    # as supplier 2 is at M and supplier 3 at r*m
    inst = Instance(suppliers=(Supplier(0, 0, 2, 9),) * 3, P=20, mode=MULTI)
    deliveries = [(1, F(7, 3))] * 3 + [(2, F(9, 2))] * 2 + [(3, 2)] * 2
    assert dp._interior_count(inst, make_solution(inst, deliveries)) == 3
    # single mode counts the suppliers with m < x < M: 1 + 1 + 0
    single = replace(inst, mode="single")
    plan = make_solution(single, [(1, F(5, 2)), (2, F(17, 2)), (3, 9)])
    assert dp._interior_count(single, plan) == 2


def reference_interior_count(inst, solution):
    """Batches above their m from suppliers below their M."""
    count = 0
    for d in solution.deliveries:
        s = inst.suppliers[d.supplier_index - 1]
        count += s.m < d.volume and solution.per_supplier_totals[d.supplier_index - 1] < s.M
    return count


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), multi=st.booleans())
def test_returned_plan_has_at_most_L_interior_batches(seed, multi):
    rng = random.Random(seed)
    if multi:
        inst = random_instance(rng, n_max=3, p_max=16, c_max=2, bound_max=8, mode=MULTI)
        report = solve_multi(inst)
    else:
        inst = random_instance(rng, n_max=6, p_max=24, c_max=2, bound_max=10)
        report = solve(inst)
    count = dp._interior_count(inst, report.solution)
    assert count == report.interior == reference_interior_count(inst, report.solution)
    assert count <= report.L


@pytest.mark.parametrize("mode", ["single", MULTI])
def test_infeasible_sweep_stops_after_one_table(monkeypatch, mode):
    inst = Instance(suppliers=(Supplier(1, 1, 2, 3), Supplier(0, 2, 1, 4)), P=9, mode=mode)
    assert sum(s.M for s in inst.suppliers) < inst.P
    filled = count_fills(monkeypatch)
    H_top = multi_h_limit(inst) if mode == MULTI else inst.n
    with pytest.raises(InfeasibleInstanceError) as bounded:
        dp._sweep(inst, H_top, None)
    assert str(bounded.value) == "no grid admits a feasible plan"
    assert filled == [1]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), multi=st.booleans())
def test_cells_filled_never_exceed_the_guard(seed, multi):
    rng = random.Random(seed)
    if multi:
        inst = random_instance(rng, n_max=3, p_max=16, c_max=2, bound_max=8, mode=MULTI)
        report = solve_multi(inst)
    else:
        inst = random_instance(rng, n_max=6, p_max=24, c_max=2, bound_max=10)
        report = solve(inst)
    guard = dp._sweep_cells(inst, report.L_count)
    assert report.table_cells_filled <= guard
    # the fill computes part of each table
    assert all(0 < t.computed <= t.cells for t in report.trace)
    assert report.cells_computed <= report.table_cells_filled
    # a cap at the guard's total admits the solve
    assert (solve_multi if multi else solve)(inst, max_cells=guard).solution == report.solution


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), multi=st.booleans(), L_count=st.integers(1, 12))
def test_sweep_cells_closed_form_is_the_sum_of_the_tables(seed, multi, L_count):
    rng = random.Random(seed)
    inst = random_instance(rng, n_max=5, p_max=20, c_max=3, mode=MULTI if multi else "single")
    inst = replace(inst, lam=F(rng.randint(1, 5), rng.randint(1, 4)))
    assert dp._sweep_cells(inst, L_count) == sum(
        build_grid(inst, H).cells for H in range(1, L_count + 1)
    )


def test_cell_guard_builds_no_grid(monkeypatch):
    # m = 1 lets L_count reach about P - 1: the guard's count must not build
    # a grid per H before it refuses the sweep
    built = []
    original = dp.build_grid
    monkeypatch.setattr(dp, "build_grid", lambda *args: built.append(args) or original(*args))
    counts = []
    for P in (10**4, 10**5):
        inst = Instance(suppliers=(Supplier(1, 1, 1, P),) * 3, P=P, mode=MULTI)
        assert dp.interior_limit(inst) == P - 1
        with pytest.raises(ResourceLimitError, match=f"H=1\\.\\.{P - 1} needs"):
            solve_multi(inst, max_cells=10**6)
        counts.append(len(built))
    assert counts == [0, 0]


def with_windows(inst, top):
    """inst with each M replaced by top(s)."""
    return replace(inst, suppliers=tuple(replace(s, M=top(s)) for s in inst.suppliers))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), multi=st.booleans())
def test_windows_past_P_plus_m_change_no_answer(seed, multi):
    # each M is raised, some far past P + m, then cut back to min(M, P + m):
    # the sweep and the duplication oracle answer the same on both
    rng = random.Random(seed)
    lam = F(rng.randint(1, 5), rng.randint(1, 4))
    inst = random_instance(rng, n_max=3, p_max=10, c_max=2, bound_max=6, lam=lam, mode=MULTI if multi else "single")
    wide = with_windows(inst, lambda s: s.M + rng.choice([0, 3, 40, 10**4]))
    cut = with_windows(wide, lambda s: min(s.M, wide.P + s.m))
    run = solve_multi if multi else solve
    a, b = run(wide), run(cut)
    assert (a.solution, a.best_H) == (b.solution, b.best_H)
    if multi:
        assert duplication_oracle(wide) == duplication_oracle(cut)


def test_wide_windows_price_no_more_than_a_table_row(monkeypatch):
    # two suppliers, P = 5, c_hold = 2, windows up to 10**6: a solve inside
    # the cell guard's 100 cells prices no row longer than its tables', and
    # in multi mode K, the lcm of the batch counts in a row, stays that of
    # the counts up to (P + m)/m
    longest = []  # (residuals, longest cost row) of every grid priced

    def recorded(build):
        def priced(inst, grid):
            costs = build(inst, grid)
            longest.append((grid.demand_points, max(map(len, costs))))
            return costs
        return priced

    for name in ("_single_candidate_costs", "_aggregated_candidate_costs"):
        monkeypatch.setattr(dp, name, recorded(getattr(dp, name)))
    monkeypatch.setattr(oracle, "_duplication_candidate_costs", recorded(oracle._duplication_candidate_costs))
    inst = Instance(suppliers=(Supplier(0, 1, 2, 3), Supplier(1, 2, 2, 3)), P=5, c_hold=2)
    report = solve(with_windows(inst, lambda s: 10**6), max_cells=100)
    assert report.table_cells_filled == 96
    assert report.solution == solve(with_windows(inst, lambda s: 7)).solution
    multi = with_windows(replace(inst, mode=MULTI), lambda s: 10**5)
    cut = with_windows(multi, lambda s: 7)
    assert solve_multi(multi).solution == solve_multi(cut).solution
    assert duplication_oracle(multi) == duplication_oracle(cut)
    assert all(row <= points for points, row in longest)


def test_cell_budget_counts_the_bounded_sweep(monkeypatch):
    inst = Instance(suppliers=(Supplier(0, 1, 2, 3),) * 4, P=5, c_hold=1)
    # tables hold 5 * (5H + 1) cells: 30, 55, 80, 105 for H = 1..4, and
    # L_count = 2, so the sweep fills H = 1, 2 and no other table
    new_need, full_need = 30 + 55, 30 + 55 + 80 + 105
    assert dp._sweep_cells(inst, 2) == new_need
    report = solve(inst, max_cells=full_need - 1)
    assert report.table_cells_filled == new_need
    assert solve(inst, max_cells=new_need).solution == report.solution
    fills = []
    monkeypatch.setattr(dp, "_fill", lambda *args: fills.append(args))
    with pytest.raises(ResourceLimitError, match=r"H=1\.\.2 needs 85 "):
        solve(inst, max_cells=new_need - 1)
    assert fills == []


def test_single_mode_prices_the_demand_only_with_tables_left_to_decide(monkeypatch):
    # with L_count = 1 no table 2..L is left to skip, so _count_bound prices
    # 0 alone; with L_count > 1 it prices v1/P, 3*v1/(2P) and 2*v1/P too.
    # Two interior batches need P - 1 >= 2, so P = 0 and P = 1 price 0 alone
    prices = []
    original = dp._count_bound

    def recorded(inst, ens, ed, L):
        prices.append(len(ens))
        return original(inst, ens, ed, L)

    monkeypatch.setattr(dp, "_count_bound", recorded)
    lone = Instance(suppliers=(Supplier(1, 1, 5, 9), Supplier(2, 1, 6, 9)), P=10)
    assert dp.interior_limit(lone) == 1
    solve(lone)
    wide = Instance(suppliers=(Supplier(1, 1, 1, 9), Supplier(2, 1, 1, 9)), P=10)
    assert dp.interior_limit(wide) == 2
    solve(wide)
    for P in (0, 1):
        small = replace(wide, P=P)
        assert dp.interior_limit(small) == 1
        solve(small)
    assert prices == [1, 4, 1, 1]

"""End-to-end acceptance checks.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The randomized criteria use fixed seeds, so every run exercises
the same instances.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
import pytest

from lotdp import (
    MULTI,
    Instance,
    Supplier,
    bench_instance,
    build_schedule,
    duplication_oracle,
    grid_oracle,
    holding_cost,
    holding_integral,
    lemma1_solution,
    marginal_costs,
    multi_delivery_cost,
    multi_h_limit,
    random_instance,
    solve,
    solve_fixed_H,
    solve_multi,
    structural_oracle,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL ({label})")
        raise
    print(f"criterion {number}: PASS ({label})")


@pytest.fixture(scope="module")
def sweep():
    """200 seeded instances from the stated family (n <= 4, P <= 20,
    c_hold <= 3, bounds <= 12, alpha/beta <= 10), each solved by the dynamic
    program and independently by the structural oracle.  Shared by
    criteria 2, 5 and 6."""
    rng = random.Random(20_260_825)
    t0 = time.perf_counter()
    runs = []
    for _ in range(200):
        inst = random_instance(rng)
        runs.append((inst, solve(inst), structural_oracle(inst)))
    return runs, time.perf_counter() - t0


def test_criterion_1_golden_instance():
    with criterion(1, "two identical suppliers split the demand in half"):
        t0 = time.perf_counter()
        for beta in (1, 2, 3):
            inst = Instance(
                suppliers=(Supplier(0, beta, 2, 3), Supplier(0, beta, 2, 3)),
                P=5,
                c_hold=2,
            )
            report = solve(inst)
            assert report.solution.per_supplier_totals == (F(5, 2), F(5, 2))
            assert report.best_H == 2
            if beta == 1:
                assert report.solution.objective == F(35, 2)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_dp_matches_structural_oracle(sweep):
    runs, elapsed = sweep
    with criterion(2, "dp equals the structural oracle, 200/200"):
        agreements = sum(
            report.solution.objective == oracle.objective for _, report, oracle in runs
        )
        assert agreements == len(runs) == 200
        assert elapsed < 120.0


def test_criterion_3_oracles_agree_on_tiny_instances():
    with criterion(3, "structural oracle equals grid exhaustion, 50 instances"):
        rng = random.Random(33)
        for _ in range(50):
            inst = random_instance(rng, n_max=3, p_max=12, c_max=2)
            a = structural_oracle(inst).objective
            b = grid_oracle(inst).objective
            assert a == b


def test_criterion_4_equal_marginal_closed_form():
    with criterion(4, "closed-form split: coverage, equal marginals, denominators"):
        rng = random.Random(41)
        for _ in range(100):
            H = rng.randint(1, 6)
            betas = [rng.randint(0, 20) for _ in range(H)]
            p = rng.randint(0, 50)
            c_hold = rng.randint(1, 4)
            volumes = lemma1_solution(betas, p, 1, c_hold)
            assert sum(volumes) == p
            assert len(set(marginal_costs(volumes, betas, 1, c_hold))) == 1
            for x in volumes:
                assert (H * c_hold) % x.denominator == 0


def test_criterion_5_winning_volumes_sit_on_the_winning_grid(sweep):
    runs, _ = sweep
    with criterion(5, "solution denominators divide best_H * c_hold"):
        for inst, report, _ in runs:
            bound = report.best_H * inst.c_hold
            for volume in report.solution.per_supplier_totals:
                assert bound % volume.denominator == 0


def test_criterion_6_schedule_integral_matches_batch_formula(sweep):
    runs, _ = sweep
    with criterion(6, "stock-trajectory integral equals per-batch holding sum"):
        for inst, report, _ in runs:
            timeline = build_schedule(report.solution, inst.lam)
            direct = holding_integral(timeline, inst.c_hold)
            per_batch = sum(
                (holding_cost(e.volume, inst.lam, inst.c_hold) for e in timeline.events),
                F(0),
            )
            assert direct == per_batch


def _estimated_multi_work(inst: Instance) -> int:
    """Rough inner-loop count of one multi-delivery H sweep, used to resample
    instances whose grids would be needlessly slow to cross-check twice."""
    total = 0
    for H in range(1, multi_h_limit(inst) + 1):
        den = H * inst.c_hold
        candidates = sum((s.M - s.m) * den + 1 for s in inst.suppliers)
        total += candidates * (inst.P * den + 1)
    return total


def test_criterion_7_multi_delivery_strategies_agree():
    with criterion(7, "multi-delivery DP and duplication oracle agree, 50 instances"):
        rng = random.Random(7_000)
        done = attempts = 0
        while done < 50:
            attempts += 1
            assert attempts < 1000, "resampling guard tripped"
            inst = random_instance(rng, n_max=3, p_max=12, c_max=2, mode=MULTI)
            if _estimated_multi_work(inst) > 1_500_000:
                continue
            a = solve_multi(inst).solution.objective
            b = duplication_oracle(inst).objective
            assert a == b
            done += 1

        # worked split example: total 6 from a supplier with fixed cost 1 goes
        # out in four equal batches at total cost 17/2
        r, cost = multi_delivery_cost(Supplier(1, 0, 1, 10), 6, 1, 1)
        assert (r, cost) == (4, F(17, 2))
        by_enumeration = min((k + F(36, 2 * k), k) for k in range(1, 7))
        assert by_enumeration == (F(17, 2), 4)


def test_criterion_8_table_size_grows_linearly_in_demand():
    # one fixed grid's table: the sweep's total follows how many tables it
    # fills (L), not how one table grows with P
    with criterion(8, "H=1 table cells for P in {50, 100, 200} fit a line"):
        demands = [50, 100, 200]
        cells = []
        for P in demands:
            rng = random.Random(f"bench:{P}")
            inst = bench_instance(rng, n=5, P=P, c_hold=1)
            cells.append(solve_fixed_H(inst, 1).grid.cells)
        assert cells == sorted(cells)
        fit = np.polyfit(demands, cells, 1)
        predicted = np.polyval(fit, demands)
        residual = max(abs(p - c) / c for p, c in zip(predicted, cells))
        assert residual < 0.05


def test_criterion_9_forced_overshoot():
    with criterion(9, "demand below the minimum batch forces x = m"):
        inst = Instance(suppliers=(Supplier(1, 1, 10, 20),), P=5)
        report = solve(inst)
        assert report.solution.per_supplier_totals == (10,)
        assert report.solution.objective == 61
        assert structural_oracle(inst).objective == 61

import random
from fractions import Fraction as F

import pytest

from lotdp import (
    Delivery,
    build_schedule,
    holding_cost,
    holding_integral,
    make_solution,
    random_instance,
    schedule_deliveries,
    solve,
    stock_at,
)


@pytest.fixture
def golden_timeline(golden):
    return build_schedule(solve(golden).solution, golden.lam)


def test_deliveries_are_back_to_back(golden_timeline):
    times = [e.time for e in golden_timeline.events]
    assert times == [0, F(5, 2)]
    assert golden_timeline.horizon == 5
    volumes = [e.volume for e in golden_timeline.events]
    assert volumes == [F(5, 2), F(5, 2)]


def test_stock_trajectory(golden_timeline):
    assert stock_at(golden_timeline, 0) == F(5, 2)
    assert stock_at(golden_timeline, 1) == F(3, 2)
    # just-after convention at the second arrival
    assert stock_at(golden_timeline, F(5, 2)) == F(5, 2)
    assert stock_at(golden_timeline, 5) == 0


def test_stock_outside_horizon_raises(golden_timeline):
    with pytest.raises(ValueError):
        stock_at(golden_timeline, -1)
    with pytest.raises(ValueError):
        stock_at(golden_timeline, 6)


def test_single_delivery_with_fast_consumption():
    timeline = schedule_deliveries([Delivery(1, 10)], lam=2)
    assert timeline.horizon == 5
    assert stock_at(timeline, 3) == 4


def test_empty_timeline():
    timeline = schedule_deliveries([], lam=1)
    assert timeline.horizon == 0
    assert timeline.events == ()
    assert stock_at(timeline, 0) == 0
    assert holding_integral(timeline, 3) == 0


def test_integral_matches_per_batch_formula(golden, golden_timeline):
    direct = holding_integral(golden_timeline, golden.c_hold)
    per_batch = sum(
        holding_cost(e.volume, golden.lam, golden.c_hold)
        for e in golden_timeline.events
    )
    assert direct == per_batch == F(25, 2)


def test_integral_matches_per_batch_formula_randomized():
    rng = random.Random(314)
    for k in range(28):
        lam = (1, 2, F(3, 2), F(1, 7))[k % 4]
        inst = random_instance(rng, n_max=3, p_max=12, lam=lam)
        sol = solve(inst).solution
        timeline = build_schedule(sol, inst.lam)
        assert timeline.lam == inst.lam
        assert stock_at(timeline, timeline.horizon) == 0
        direct = holding_integral(timeline, inst.c_hold)
        per_batch = sum(
            holding_cost(e.volume, inst.lam, inst.c_hold) for e in timeline.events
        )
        assert direct == per_batch


def test_total_cost_is_order_invariant(golden):
    sol = make_solution(golden, [(1, F(5, 2)), (2, F(5, 2))])
    forward = schedule_deliveries(sol.deliveries, golden.lam)
    backward = schedule_deliveries(list(reversed(sol.deliveries)), golden.lam)
    assert holding_integral(forward, golden.c_hold) == holding_integral(backward, golden.c_hold)
    assert forward.horizon == backward.horizon


def test_stock_never_negative_at_sample_points(golden_timeline):
    for k in range(0, 21):
        t = F(k, 4)
        assert stock_at(golden_timeline, t) >= 0


def test_builder_orders_by_supplier_then_size(golden):
    sol = make_solution(golden, [(2, F(5, 2)), (1, F(5, 2))])
    timeline = build_schedule(sol, golden.lam)
    assert [e.supplier_index for e in timeline.events] == [1, 2]


def test_nonpositive_intensity_rejected():
    with pytest.raises(ValueError):
        schedule_deliveries([Delivery(1, 1)], lam=0)

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest

from lotdp import (
    MULTI,
    InfeasibleInstanceError,
    Instance,
    ResourceLimitError,
    Supplier,
    duplication_oracle,
    grid_oracle,
    random_instance,
    structural_oracle,
)
from lotdp import oracle
from lotdp.model import delivery_cost


def test_golden_instance_both_ways(golden):
    assert structural_oracle(golden).objective == F(35, 2)
    assert grid_oracle(golden).objective == F(35, 2)


def test_forced_overshoot_both_ways(overshoot):
    for sol in (structural_oracle(overshoot), grid_oracle(overshoot)):
        assert sol.objective == 61
        assert sol.per_supplier_totals == (10,)


def test_zero_demand(golden):
    inst = replace(golden, P=0)
    assert structural_oracle(inst).objective == 0
    assert grid_oracle(inst).objective == 0


def test_minimum_volume_overshoot_single_supplier():
    inst = Instance(suppliers=(Supplier(2, 3, 4, 9),), P=3)
    expected = 2 + 3 * 4 + F(16, 2)
    assert structural_oracle(inst).objective == expected
    assert grid_oracle(inst).objective == expected


def test_capacity_equal_to_demand_pins_every_volume():
    inst = Instance(suppliers=(Supplier(1, 1, 2, 3), Supplier(1, 1, 2, 3)), P=6)
    sol = structural_oracle(inst)
    assert sol.per_supplier_totals == (3, 3)
    assert sol.objective == 17
    assert grid_oracle(inst).objective == 17


def test_infeasible_demand_raises(overshoot):
    inst = replace(overshoot, P=25)
    with pytest.raises(InfeasibleInstanceError):
        structural_oracle(inst)
    with pytest.raises(InfeasibleInstanceError):
        grid_oracle(inst)


def test_multi_mode_is_rejected(golden):
    inst = replace(golden, mode=MULTI)
    with pytest.raises(ValueError):
        structural_oracle(inst)
    with pytest.raises(ValueError):
        grid_oracle(inst)
    with pytest.raises(ValueError, match="multi-delivery instances only"):
        duplication_oracle(golden)


def test_supplier_cap():
    inst = Instance(suppliers=(Supplier(1, 1, 1, 2),) * 9, P=9)
    with pytest.raises(ResourceLimitError, match="cap is 8"):
        structural_oracle(inst)


def test_candidate_budget():
    # the lambda-1/7 instance of test_cli's grid-oracle cap test: den(lambda)
    # = 7 puts the menus of the grids H = 1..3 above the oracle's 2,000,000 plans
    inst = Instance(
        suppliers=(Supplier(3, 1, 1, 11), Supplier(0, 2, 1, 11), Supplier(5, 0, 1, 11)),
        P=12,
        lam=F(1, 7),
        c_hold=2,
    )
    with pytest.raises(ResourceLimitError, match="2000000 candidate plans"):
        grid_oracle(inst)


@pytest.mark.parametrize("windows", [(100, 2000), (10**6, 10**6)], ids=["100-2000", "1e6"])
def test_candidate_budget_refuses_before_pricing_a_menu(monkeypatch, windows):
    # with c_hold = 2 and n = 2 each menu holds the grid of step 1/4 up to
    # min(M, P), P the larger M: about 400 and 8,000 volumes, or 4 * 10**6
    # each, more than the cap together
    priced = []
    monkeypatch.setattr(oracle, "delivery_cost", lambda s, v: priced.append(s.M) or delivery_cost(s, v))
    inst = Instance(suppliers=tuple(Supplier(0, 1, 2, M) for M in windows), P=windows[1], c_hold=2)
    with pytest.raises(ResourceLimitError, match="^grid enumeration needs more than 2000000 candidate plans$"):
        grid_oracle(inst)
    assert priced == []


def test_candidate_budget_refuses_the_next_menu_unpriced(monkeypatch):
    # n = 3 and c_hold = 1: a menu holds the grids of steps 1, 1/2 and 1/3, 4
    # volumes per unit, and the finest grid alone 3.  The finest grids
    # multiply to 302 * 3002 * 2 plans, under the cap, so the first menu is
    # built, 402 volumes; then 402 * 3002 * 2 is over it.  P = 1001 lets
    # every menu run up to its M
    priced = []
    monkeypatch.setattr(oracle, "delivery_cost", lambda s, v: priced.append(s.M) or delivery_cost(s, v))
    inst = Instance(suppliers=(Supplier(0, 1, 1, 101), Supplier(0, 1, 1, 1001), Supplier(0, 1, 1, 1)), P=1001)
    with pytest.raises(ResourceLimitError, match="2000000 candidate plans"):
        grid_oracle(inst)
    assert priced == [101] * 401  # volume 0 costs nothing and is not priced


def test_grid_oracle_menus_end_at_the_demand(monkeypatch):
    # a volume above max(P, m) alone covers P, and cutting it back to that
    # costs less, so each menu ends there.  With windows up to 10**5, the
    # grids of steps 1/2, 1/4 and 1/6 put 8 volumes in each unit up to P = 5:
    # 4*8 + 1 for m = 1, 3*8 + 1 for m = 2, and m alone for m = 6 > P, each
    # priced once more for the incumbent plan at the menus' tops
    priced = []
    monkeypatch.setattr(oracle, "delivery_cost", lambda s, v: priced.append(s.m) or delivery_cost(s, v))
    inst = Instance(
        suppliers=(Supplier(3, 1, 2, 10**5), Supplier(1, 2, 1, 10**5), Supplier(2, 0, 6, 10**5)),
        P=5,
        c_hold=2,
    )
    wide = grid_oracle(inst)
    assert sorted(Counter(priced).items()) == [(1, 34), (2, 26), (6, 2)]
    assert wide.objective == structural_oracle(inst).objective
    cut = replace(inst, suppliers=tuple(replace(s, M=max(s.m, 5)) for s in inst.suppliers))
    assert grid_oracle(cut) == wide


def test_oracles_are_deterministic(golden):
    assert structural_oracle(golden) == structural_oracle(golden)
    assert grid_oracle(golden) == grid_oracle(golden)


def test_oracles_agree_on_random_tiny_instances():
    rng = random.Random(4242)
    for _ in range(30):
        inst = random_instance(rng, n_max=3, p_max=12, c_max=2, bound_max=6)
        a = structural_oracle(inst).objective
        b = grid_oracle(inst).objective
        assert a == b, f"disagreement on {inst}"


def test_oracles_agree_with_rational_intensity():
    rng = random.Random(11)
    for _ in range(10):
        inst = random_instance(rng, n_max=2, p_max=8, c_max=2, bound_max=5, lam=F(3, 2))
        assert structural_oracle(inst).objective == grid_oracle(inst).objective

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lotdp import (
    MULTI,
    InfeasibleInstanceError,
    Instance,
    ResourceLimitError,
    Supplier,
    duplication_oracle,
    grid_oracle,
    random_instance,
    solution_cost,
    solve,
    structural_oracle,
)
from lotdp import oracle
from lotdp.generate import bench_instance
from lotdp.model import delivery_cost
from conftest import structural_minima


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


def test_state_cap(monkeypatch):
    # nine suppliers take no refusal at the cap of 2,000,000 label states, and
    # a lower cap refuses them
    inst = Instance(suppliers=(Supplier(1, 1, 1, 2),) * 9, P=9)
    assert structural_oracle(inst).objective == solve(inst).solution.objective == F(87, 4)
    monkeypatch.setattr(oracle, "MAX_CANDIDATES", 100)
    with pytest.raises(ResourceLimitError, match="^structural oracle needs more than 100 label states$"):
        structural_oracle(inst)


def test_structural_plan_is_checked_against_its_state(golden, monkeypatch):
    # a split of the group other than the equal-marginal one is feasible
    # here, (3, 2) in the windows [2, 3], but dearer than the state's 35/2:
    # an explicit raise, which python -O keeps, refuses the plan
    monkeypatch.setattr(oracle, "lemma1_solution", lambda betas, p, lam, c_hold: (F(3), p - 3))
    with pytest.raises(AssertionError, match="^structural oracle: plan recomputes to 18, its state holds 35/2$"):
        structural_oracle(golden)


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


@st.composite
def label_instances(draw):
    """Up to six suppliers, windows up to 8 wide (m == M among them), demand
    0..capacity, lam = a/b with b up to 3 and c_hold up to 3."""
    suppliers = []
    for _ in range(draw(st.integers(1, 6))):
        alpha, beta, m = draw(st.integers(0, 10)), draw(st.integers(0, 10)), draw(st.integers(1, 8))
        suppliers.append(Supplier(alpha, beta, m, m + draw(st.integers(0, 8))))
    return Instance(
        suppliers=tuple(suppliers),
        P=draw(st.integers(0, sum(s.M for s in suppliers))),
        lam=F(draw(st.integers(1, 4)), draw(st.integers(1, 3))),
        c_hold=draw(st.integers(1, 3)),
    )


PAIR = (Supplier(1, 2, 2, 5), Supplier(3, 0, 1, 4))


@settings(max_examples=80, deadline=None)
@given(inst=label_instances())
@example(inst=Instance((Supplier(2, 1, 3, 3), Supplier(0, 4, 2, 2)), P=4, lam=F(1, 2)))  # m == M
@example(inst=Instance(PAIR, P=0, lam=F(2, 3), c_hold=3))
@example(inst=Instance(PAIR, P=9, lam=F(3, 2), c_hold=2))  # capacity == P
@example(inst=Instance((Supplier(1, 1, 7, 9), Supplier(0, 3, 6, 8)), P=4, lam=F(4, 3)))  # over-delivery
def test_structural_oracle_matches_every_labeling(inst):
    # the label states reach the cheapest of the 4**n labelings, and the plan
    # built from them is feasible at that cost
    sol = structural_oracle(inst)
    assert sol.objective == min(structural_minima(inst).values())
    assert solution_cost(inst, sol) == sol.objective


def test_structural_oracle_matches_solve_past_eight_suppliers():
    # the benchmark family at n = 9..14, and two draws of a grid finer than
    # 1/H: c_hold * den(lam) = 4 and 9
    rng = random.Random(9)
    draws = [bench_instance(rng, n, 30, 1 + n % 3) for n in range(9, 15)]
    draws.append(replace(bench_instance(rng, 10, 30, 2), lam=F(3, 2)))
    draws.append(replace(bench_instance(rng, 11, 30, 3), lam=F(2, 3)))
    for inst in draws:
        assert structural_oracle(inst).objective == solve(inst).solution.objective, inst

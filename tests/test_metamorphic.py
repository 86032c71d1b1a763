"""Metamorphic checks: transformations of an instance whose effect on the
optimum is known in advance, so no oracle is needed and the instances are not
limited to what brute force can handle."""

import math
import random
from dataclasses import replace

import pytest

from lotdp import MULTI, SINGLE, Instance, Supplier, random_instance, solve, solve_multi

SOLVERS = {SINGLE: solve, MULTI: solve_multi}

# beyond the oracles' reach (and, in multi mode, beyond TestMultiDelivery's
# draws) while a draw of 20 still solves in well under a second
LARGE = {
    SINGLE: dict(n_max=6, p_max=40, bound_max=24),
    MULTI: dict(n_max=4, p_max=24, bound_max=16),
}


def draws(mode: str, seed: int, n_max=4, p_max=14, bound_max=8):
    rng = random.Random(seed)
    return [
        random_instance(rng, n_max=n_max, p_max=p_max, c_max=2, bound_max=bound_max, mode=mode)
        for _ in range(20)
    ]


def objective(inst):
    return SOLVERS[inst.mode](inst).solution.objective


@pytest.mark.parametrize("mode", [SINGLE, MULTI])
def test_permuting_suppliers_keeps_the_objective(mode):
    rng = random.Random(31)
    for inst in draws(mode, 30):
        order = list(inst.suppliers)
        rng.shuffle(order)
        assert objective(replace(inst, suppliers=tuple(order))) == objective(inst)


@pytest.mark.parametrize("mode", [SINGLE, MULTI])
def test_doubling_every_cost_rate_doubles_the_objective(mode):
    # alpha, beta and c_hold each enter the cost linearly, so the same plans
    # stay optimal at twice the cost
    for inst in draws(mode, 40):
        doubled = replace(
            inst,
            suppliers=tuple(replace(s, alpha=2 * s.alpha, beta=2 * s.beta) for s in inst.suppliers),
            c_hold=2 * inst.c_hold,
        )
        assert objective(doubled) == 2 * objective(inst)


@pytest.mark.parametrize("mode", [SINGLE, MULTI])
def test_a_supplier_dearer_than_the_optimum_changes_nothing(mode):
    # any plan that uses the new supplier pays at least its alpha, which is
    # above the current optimum
    rng = random.Random(51)
    for inst in draws(mode, 50, **LARGE[mode]):
        obj = objective(inst)
        m = rng.randint(1, 16)
        extra = Supplier(math.floor(obj) + 1, rng.randint(0, 5), m, rng.randint(m, 24))
        position = rng.randint(0, inst.n)
        sups = inst.suppliers[:position] + (extra,) + inst.suppliers[position:]
        assert objective(replace(inst, suppliers=sups)) == obj


@pytest.mark.parametrize("mode", [SINGLE, MULTI])
def test_raising_the_demand_never_lowers_the_objective(mode):
    # every plan that covers P + 1 also covers P
    for inst in draws(mode, 60, **LARGE[mode]):
        if inst.P < sum(s.M for s in inst.suppliers):
            assert objective(replace(inst, P=inst.P + 1)) >= objective(inst)


def test_single_and_multi_mode_agree_when_no_window_holds_two_batches():
    # M < 2m: a second batch never fits, so multi mode has nothing to add
    rng = random.Random(71)
    for _ in range(20):
        suppliers = []
        for _ in range(rng.randint(2, 4)):
            m = rng.randint(3, 9)
            suppliers.append(
                Supplier(rng.randint(0, 9), rng.randint(0, 9), m, m + rng.randint(0, m - 1))
            )
        cap = sum(s.M for s in suppliers)
        inst = Instance(suppliers=tuple(suppliers), P=rng.randint(cap // 2, cap), c_hold=rng.randint(1, 2))
        assert solve(inst).solution.objective == solve_multi(replace(inst, mode=MULTI)).solution.objective

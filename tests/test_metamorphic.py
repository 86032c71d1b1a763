"""Metamorphic checks: transformations of an instance whose effect on the
optimum is known in advance, so no oracle is needed and the instances are not
limited to what brute force can handle."""

import random
from dataclasses import replace

import pytest

from lotdp import MULTI, SINGLE, random_instance, solve, solve_multi

SOLVERS = {SINGLE: solve, MULTI: solve_multi}


def draws(mode: str, seed: int):
    rng = random.Random(seed)
    return [
        random_instance(rng, n_max=4, p_max=14, c_max=2, bound_max=8, mode=mode)
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

import itertools

import pytest

from lotdp import Instance, Supplier, lemma1_solution


@pytest.fixture
def golden():
    """Two identical suppliers, window [2, 3], demand 5: the optimum splits the
    demand into two batches of 5/2."""
    return Instance(
        suppliers=(Supplier(0, 1, 2, 3), Supplier(0, 1, 2, 3)),
        P=5,
        lam=1,
        c_hold=2,
    )


@pytest.fixture
def overshoot():
    """One supplier whose minimum batch exceeds the demand."""
    return Instance(suppliers=(Supplier(1, 1, 10, 20),), P=5, lam=1, c_hold=1)


def structural_minima(inst):
    """The cheapest plan of each interior count c over all 4**n labelings
    0/m/M/interior, the interior volumes split by lemma1_solution and kept
    when each lies strictly inside its window: the reference that
    structural_oracle's label states and the interior-count bound are
    checked against."""
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

"""Seeded random instance families for tests, verification batches, benchmarks."""

from __future__ import annotations

import random
from fractions import Fraction

from .model import SINGLE, Instance, Supplier


def random_instance(
    rng: random.Random,
    *,
    n: int | None = None,
    n_max: int = 4,
    p_max: int = 20,
    c_max: int = 3,
    bound_max: int = 12,
    alpha_max: int = 10,
    beta_max: int = 10,
    lam: int | Fraction = 1,
    mode: str = SINGLE,
    infeasible: bool = False,
) -> Instance:
    """Draw an instance; every draw comes from ``rng`` so a seed fixes the
    result byte for byte.  Feasible by construction unless ``infeasible``."""
    count = n if n is not None else rng.randint(1, n_max)
    suppliers = []
    for _ in range(count):
        m = rng.randint(1, bound_max)
        suppliers.append(
            Supplier(
                alpha=rng.randint(0, alpha_max),
                beta=rng.randint(0, beta_max),
                m=m,
                M=rng.randint(m, bound_max),
            )
        )
    capacity = sum(s.M for s in suppliers)
    if infeasible:
        demand = capacity + rng.randint(1, max(3, p_max // 4))
    else:
        demand = rng.randint(0, min(p_max, capacity))
    return Instance(
        suppliers=tuple(suppliers),
        P=demand,
        lam=lam,
        c_hold=rng.randint(1, c_max),
        mode=mode,
    )


def bench_instance(rng: random.Random, n: int, P: int, c_hold: int) -> Instance:
    """Benchmark family: volume windows sized so n suppliers always cover P
    while window widths stay narrow enough to keep candidate lists small."""
    suppliers = []
    floor_m = max(1, P // max(1, n))
    for _ in range(n):
        m = rng.randint(floor_m, floor_m + 4)
        suppliers.append(
            Supplier(
                alpha=rng.randint(0, 10),
                beta=rng.randint(0, 10),
                m=m,
                M=m + rng.randint(6, 10),
            )
        )
    return Instance(suppliers=tuple(suppliers), P=P, lam=1, c_hold=c_hold, mode=SINGLE)

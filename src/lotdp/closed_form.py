"""Closed-form building blocks used by the solvers and the oracles.

Two small optimization problems admit exact formulas:

* splitting a residual demand across a group of suppliers so that every one of
  them ends at the same marginal cost (``lemma1_solution`` returns the tuple of
  volumes, and ``marginal_costs`` takes that tuple back), and
* splitting one supplier's total volume into the best number of equal batches,
  found in O(1) with an exact integer square root.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import VolumeBoundsError
from .model import Supplier, as_rational


def lemma1_solution(betas, p, lam, c_hold) -> tuple[Fraction, ...]:
    """Cheapest split of demand ``p`` across suppliers with unit costs ``betas``
    when volume windows are ignored: one volume per beta, in order.

    Minimizing  sum_i (beta_i * x_i + c_hold * x_i**2 / (2*lam))  subject to
    sum_i x_i = p equalizes the marginal costs beta_i + c_hold * x_i / lam,
    which pins each volume to

        x_i = p/H + lam * (sum(betas) - H * beta_i) / (H * c_hold)

    with H the group size.  With integer betas, c_hold, lam and integer p every
    component is a rational with denominator dividing H * c_hold.
    """
    betas = tuple(betas)
    H = len(betas)
    if H == 0:
        raise ValueError("the supplier group must not be empty")
    p = as_rational(p)
    lam = as_rational(lam)
    if lam <= 0:
        raise ValueError("consumption intensity must be positive")
    total_beta = sum(betas)
    return tuple(p / H + lam * (total_beta - H * beta) / (H * c_hold) for beta in betas)


def marginal_costs(volumes, betas, lam, c_hold) -> tuple[Fraction, ...]:
    """Per-supplier marginal cost beta_i + c_hold * x_i / lam; equal across the
    group exactly when ``volumes`` came from lemma1_solution with these betas."""
    lam = as_rational(lam)
    return tuple(beta + c_hold * x / lam for beta, x in zip(betas, volumes, strict=True))


def best_batch_count(A: int, Q: int, r_max: int) -> int:
    """The batch count r in 1..r_max minimizing r*A + Q/r, for integers
    A >= 0 and Q > 0; ties go to the smaller r.

    With A > 0 the function is strictly convex in r, so its integer minimizer
    is the floor or the ceiling of sqrt(Q/A), and isqrt(Q // A) is that floor
    exactly.  Clamped to the window, the floor t loses to t + 1 exactly when
    f(t+1) < f(t), i.e. t*(t+1)*A < Q.  With A = 0 more batches always help.
    """
    if A == 0:
        return r_max
    r = min(max(math.isqrt(Q // A), 1), r_max)
    if r < r_max and r * (r + 1) * A < Q:
        r += 1
    return r


def multi_delivery_cost(supplier: Supplier, volume, lam, c_hold) -> tuple[int, Fraction]:
    """Best way to buy ``volume`` units from one supplier using repeated batches.

    Splitting a fixed total x into r equal batches costs

        r * alpha + beta * x + c_hold * x**2 / (2 * lam * r)

    (equal batches are optimal for a fixed r by convexity of the holding term),
    and r may range over 1..floor(x/m) so each batch stays >= m.  Returns the
    best (r, cost); ties go to the smaller r.

    In integers: with x = n/d and lam = a/b the holding term is Q/(QD*r),
    Q = c_hold*b*n**2 and QD = 2*a*d**2, so r minimizes r*alpha*QD + Q/r, and
    the cost is (r**2*alpha*QD + 2*a*d*beta*n*r + Q) / (r*QD): one Fraction.
    """
    x = as_rational(volume)
    if x < supplier.m or x > supplier.M:
        raise VolumeBoundsError(
            f"total volume {x} outside the allowed window [{supplier.m}, {supplier.M}]"
        )
    lam = as_rational(lam)
    n, d, a = x.numerator, x.denominator, lam.numerator
    Q, QD = c_hold * lam.denominator * n * n, 2 * a * d * d
    A = supplier.alpha * QD
    r = best_batch_count(A, Q, n // (supplier.m * d))
    return r, Fraction((r * A + 2 * a * d * supplier.beta * n) * r + Q, r * QD)

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lotdp import (
    Supplier,
    VolumeBoundsError,
    lemma1_solution,
    marginal_costs,
    multi_delivery_cost,
)
from lotdp.closed_form import best_batch_count
from lotdp.model import as_rational


def objective(volumes, betas):
    # beta * x + x**2 / 2 with lam = c_hold = 1; written out directly because
    # the unconstrained optimum may place negative volumes
    return sum(b * x + F(1, 2) * x * x for b, x in zip(betas, volumes))


class TestLemma1:
    def test_two_supplier_example(self):
        # betas (1, 3), p = 10, lam = 1, c_hold = 1: marginals equalize at 7
        volumes = lemma1_solution((1, 3), 10, 1, 1)
        assert volumes == (6, 4)
        assert marginal_costs(volumes, (1, 3), 1, 1) == (7, 7)

    def test_symmetric_split(self):
        volumes = lemma1_solution((1, 1), 5, 1, 2)
        assert volumes == (F(5, 2), F(5, 2))

    def test_single_supplier_takes_everything(self):
        volumes = lemma1_solution((4,), 9, 2, 3)
        assert volumes == (9,)

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            lemma1_solution((), 5, 1, 1)

    @pytest.mark.parametrize("lam", [0, F(-1, 2)])
    def test_rejects_a_nonpositive_intensity(self, lam):
        with pytest.raises(ValueError, match="intensity"):
            lemma1_solution((1, 3), 10, lam, 1)


rational = st.builds(F, st.integers(0, 50), st.integers(1, 4))


class TestLemma1Properties:
    @given(
        betas=st.lists(st.integers(0, 20), min_size=1, max_size=6),
        p=rational,
        lam=st.builds(F, st.integers(1, 5), st.integers(1, 3)),
        c_hold=st.integers(1, 4),
    )
    def test_volumes_cover_demand_and_share_one_marginal(self, betas, p, lam, c_hold):
        volumes = lemma1_solution(betas, p, lam, c_hold)
        assert sum(volumes) == p
        marginals = marginal_costs(volumes, betas, lam, c_hold)
        assert len(set(marginals)) == 1

    @given(
        betas=st.lists(st.integers(0, 20), min_size=1, max_size=6),
        p=st.integers(0, 50),
        c_hold=st.integers(1, 4),
    )
    def test_denominators_divide_group_size_times_holding_rate(self, betas, p, c_hold):
        volumes = lemma1_solution(betas, p, 1, c_hold)
        bound = len(betas) * c_hold
        for x in volumes:
            assert bound % x.denominator == 0

    @given(
        betas=st.lists(st.integers(0, 10), min_size=2, max_size=5),
        p=st.integers(1, 40),
        shift=st.builds(F, st.integers(1, 9), st.integers(2, 5)),
        seed=st.integers(0, 10_000),
    )
    def test_any_reshuffle_costs_at_least_as_much(self, betas, p, shift, seed):
        """Moving volume between two suppliers while keeping the sum fixed can
        only increase the total cost (strictly, by convexity)."""
        volumes = lemma1_solution(betas, p, 1, 1)
        base = objective(volumes, betas)
        rng = random.Random(seed)
        i, j = rng.sample(range(len(betas)), 2)
        moved = list(volumes)
        moved[i] += shift
        moved[j] -= shift
        assert objective(moved, betas) > base


class TestMultiDeliveryCost:
    def test_worked_example_matches_direct_enumeration(self):
        s = Supplier(1, 0, 1, 10)
        r, cost = multi_delivery_cost(s, 6, 1, 1)
        assert (r, cost) == (4, F(17, 2))
        # same answer from scratch
        by_hand = min(
            (k * s.alpha + s.beta * 6 + F(6 * 6, 2 * k), k) for k in range(1, 7)
        )
        assert (by_hand[1], by_hand[0]) == (r, cost)

    def test_volume_equal_to_minimum_forces_one_batch(self):
        assert multi_delivery_cost(Supplier(1, 2, 3, 9), 3, 1, 1) == (1, 1 + 6 + F(9, 2))

    def test_huge_fixed_cost_forces_one_batch(self):
        r, _ = multi_delivery_cost(Supplier(10_000, 0, 1, 100), 12, 1, 1)
        assert r == 1

    def test_below_minimum_raises(self):
        with pytest.raises(VolumeBoundsError):
            multi_delivery_cost(Supplier(1, 0, 5, 9), 4, 1, 1)

    def test_tie_prefers_fewer_batches(self):
        # x = 2, alpha = 1: r=1 costs 1 + 2; r=2 costs 2 + 1.  Both equal 3.
        r, cost = multi_delivery_cost(Supplier(1, 0, 1, 5), 2, 1, 1)
        assert (r, cost) == (1, 3)

    @given(
        alpha=st.integers(0, 12),
        beta=st.integers(0, 12),
        m=st.integers(1, 5),
        extra=st.integers(0, 20),
        seed=st.integers(0, 10_000),
    )
    def test_equal_batches_beat_random_uneven_splits(self, alpha, beta, m, extra, seed):
        x = m + extra
        s = Supplier(alpha, beta, m, x)
        r, cost = multi_delivery_cost(s, x, 1, 1)
        rng = random.Random(seed)
        for _ in range(25):
            k = rng.randint(1, max(1, x // m))
            # random composition of x into k parts, each >= m
            cuts = sorted(rng.randint(0, x - k * m) for _ in range(k - 1))
            parts = []
            prev = 0
            for c in cuts:
                parts.append(m + c - prev)
                prev = c
            parts.append(m + (x - k * m) - prev)
            assert sum(parts) == x and all(p >= m for p in parts)
            split_cost = sum(alpha + beta * p + F(p * p, 2) for p in parts)
            assert cost <= split_cost


def fraction_multi_delivery_cost(supplier, volume, lam, c_hold):
    """The reference: the same rule in Fractions, the holding term reduced
    first and its numerator and denominator handed to best_batch_count."""
    x = as_rational(volume)
    if x < supplier.m or x > supplier.M:
        raise VolumeBoundsError(
            f"total volume {x} outside the allowed window [{supplier.m}, {supplier.M}]"
        )
    quad = c_hold * x * x / (2 * as_rational(lam))
    r = best_batch_count(supplier.alpha * quad.denominator, quad.numerator, math.floor(x / supplier.m))
    return r, r * supplier.alpha + supplier.beta * x + quad / r


class TestIntegerMultiDeliveryCost:
    """multi_delivery_cost in integers against the Fraction reference."""

    @pytest.mark.parametrize("lam", [1, F(1, 2), F(2, 3), F(3, 2), F(2, 5)])
    @pytest.mark.parametrize("c_hold", [1, 2, 3])
    def test_matches_the_fraction_formula_on_every_grid(self, lam, c_hold):
        # every window total on the solver's grids H = 1..6, of denominator
        # H*c_hold*den(lam), with alpha 0 (the most batches), 1..10 (counts
        # that step up) and 400 (mostly one batch)
        rng = random.Random(c_hold * 100 + F(lam).numerator * 10 + F(lam).denominator)
        for alpha in [0, *range(1, 11), 400]:
            m = rng.randint(1, 4)
            s = Supplier(alpha, rng.randint(0, 9), m, rng.randint(m, 4 * m + 3))
            for H in range(1, 7):
                den = H * c_hold * F(lam).denominator
                for i in range(s.m * den, s.M * den + 1):
                    x = F(i, den)
                    got = multi_delivery_cost(s, x, lam, c_hold)
                    assert got == fraction_multi_delivery_cost(s, x, lam, c_hold), (s, x)
                    assert type(got[0]) is int and type(got[1]) is F

    def test_ties_go_to_the_smaller_count(self):
        # r = 1 and r = 2 tie at (r - 1)*r*2*a*alpha = c_hold*b*x**2: here
        # 2*2*3*alpha = 2*2*x**2 at x = 3 with lam = 3/2 and alpha = 3
        s = Supplier(3, 1, 1, 9)
        assert multi_delivery_cost(s, 3, F(3, 2), 2) == fraction_multi_delivery_cost(s, 3, F(3, 2), 2)
        assert multi_delivery_cost(s, 3, F(3, 2), 2)[0] == 1
        # just above the tie two batches win
        r, _ = multi_delivery_cost(s, F(301, 100), F(3, 2), 2)
        assert r == 2

    @pytest.mark.parametrize("x", [F(3, 2), 10, F(19, 2)])
    def test_window_error_text(self, x):
        with pytest.raises(VolumeBoundsError) as err:
            multi_delivery_cost(Supplier(1, 0, 2, 9), x, F(2, 3), 2)
        assert str(err.value) == f"total volume {x} outside the allowed window [2, 9]"

    @pytest.mark.parametrize("volume, lam", [(3.0, 1), (3, 1.0), (2.5, F(1, 2))])
    def test_floats_are_refused(self, volume, lam):
        with pytest.raises(TypeError, match="expected an integer or Fraction"):
            multi_delivery_cost(Supplier(1, 0, 2, 9), volume, lam, 1)

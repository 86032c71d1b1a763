import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lotdp import (
    MULTI,
    Delivery,
    FeasibilityError,
    Instance,
    SchemaError,
    Solution,
    Supplier,
    VolumeBoundsError,
    as_rational,
    delivery_cost,
    holding_cost,
    instance_from_json,
    instance_to_json,
    make_solution,
    random_instance,
    rational_from_json,
    rational_to_json,
    solution_cost,
    solution_from_json,
    solution_to_json,
    validate_instance,
)


def test_delivery_cost_values():
    assert delivery_cost(Supplier(3, 2, 1, 10), 4) == 11
    assert delivery_cost(Supplier(3, 2, 1, 10), 0) == 0
    assert delivery_cost(Supplier(0, 1, 2, 3), F(5, 2)) == F(5, 2)


def test_delivery_cost_window_errors():
    s = Supplier(3, 2, 4, 10)
    with pytest.raises(VolumeBoundsError):
        delivery_cost(s, 2)  # positive but below the minimum
    with pytest.raises(VolumeBoundsError):
        delivery_cost(s, 11)


@given(
    alpha=st.integers(0, 20),
    beta=st.integers(0, 20),
    m=st.integers(1, 8),
    span=st.integers(0, 8),
    num1=st.integers(0, 1000),
    num2=st.integers(0, 1000),
    den=st.integers(1, 6),
)
def test_delivery_cost_monotone_on_window(alpha, beta, m, span, num1, num2, den):
    s = Supplier(alpha, beta, m, m + span)
    v1 = m + F(span) * min(num1, num2) / 1000
    v2 = m + F(span) * max(num1, num2) / 1000
    assert delivery_cost(s, v1) <= delivery_cost(s, v2)
    assert holding_cost(v1, 1, den) <= holding_cost(v2, 1, den)


def test_holding_cost_values():
    assert holding_cost(0, 1, 5) == 0
    assert holding_cost(F(5, 2), 1, 2) == F(25, 4)
    assert holding_cost(10, 1, 1) == 50
    # doubling the intensity halves the time in stock
    assert holding_cost(10, 2, 1) == 25


def test_holding_cost_rejects_negative():
    with pytest.raises(ValueError):
        holding_cost(-1, 1, 1)


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_delivery_refuses_zero_volume():
    with pytest.raises(ValueError):
        Delivery(1, 0)


def test_solution_cost_golden(golden):
    sol = make_solution(golden, [(1, F(5, 2)), (2, F(5, 2))])
    assert sol.objective == F(35, 2)
    assert solution_cost(golden, sol) == F(35, 2)
    assert sol.per_supplier_totals == (F(5, 2), F(5, 2))


def test_solution_cost_single_full_batch():
    inst = Instance(suppliers=(Supplier(3, 2, 1, 7),), P=7)
    sol = make_solution(inst, [(1, 7)])
    assert sol.objective == 3 + 14 + F(49, 2)


def test_empty_solution_for_zero_demand():
    inst = Instance(suppliers=(Supplier(1, 1, 1, 5),), P=0)
    sol = make_solution(inst, [])
    assert sol.objective == 0
    assert sol.deliveries == ()


def test_make_solution_drops_zero_batches(golden):
    sol = make_solution(golden, [(1, F(5, 2)), (2, 0), (2, F(5, 2))])
    assert len(sol.deliveries) == 2


def test_feasibility_error_lists_every_violation(golden):
    # one oversized batch breaks the window, the supplier cap, and (being the
    # only delivery) coverage of the demand
    sol_deliveries = [Delivery(1, 4)]
    with pytest.raises(FeasibilityError) as err:
        make_solution(golden, sol_deliveries)
    text = str(err.value)
    assert "outside its window" in text
    assert "below the demand" in text


def test_cost_is_order_invariant(golden):
    a = make_solution(golden, [(1, F(5, 2)), (2, F(5, 2))])
    b = make_solution(golden, [(2, F(5, 2)), (1, F(5, 2))])
    assert a.objective == b.objective


def test_validate_ok(golden):
    report = validate_instance(golden)
    assert report.ok
    assert report.violations == ()


def test_validate_min_exceeds_max():
    inst = Instance(suppliers=(Supplier(1, 1, 5, 3),), P=2)
    report = validate_instance(inst)
    assert not report.ok
    assert any(v.code == "min_exceeds_max" for v in report.violations)


def test_validate_demand_above_capacity():
    inst = Instance(suppliers=(Supplier(1, 1, 1, 2), Supplier(1, 1, 1, 2)), P=5)
    report = validate_instance(inst)
    assert report.infeasible_demand
    assert len(report.violations) == 1


def test_validate_flags_tight_capacity():
    inst = Instance(suppliers=(Supplier(1, 1, 1, 2), Supplier(1, 1, 1, 3)), P=5)
    report = validate_instance(inst)
    assert report.ok
    assert any("capacity equals demand" in note for note in report.notes)


def test_validate_bad_fields():
    inst = Instance(
        suppliers=(Supplier(-1, 2, 0, 3),), P=-2, lam=F(1), c_hold=0, mode="weird"
    )
    codes = {v.code for v in validate_instance(inst).violations}
    assert {"bad_alpha", "bad_min_volume", "bad_demand", "bad_holding_rate", "bad_mode"} <= codes


def test_validate_nonpositive_intensity():
    inst = Instance(suppliers=(Supplier(1, 1, 1, 3),), P=2, lam=F(-1, 2))
    assert any(v.code == "bad_intensity" for v in validate_instance(inst).violations)


def test_validate_no_suppliers():
    report = validate_instance(Instance(suppliers=(), P=0))
    assert any(v.code == "no_suppliers" for v in report.violations)


# --- wire format ------------------------------------------------------------


def test_rational_json_roundtrip():
    q = F(-6, 4)
    encoded = rational_to_json(q)
    assert encoded == {"num": -3, "den": 2}  # lowest terms, positive denominator
    assert rational_from_json(encoded) == q
    assert rational_from_json(7) == 7


def test_rational_json_rejects_bad_denominator():
    with pytest.raises(SchemaError):
        rational_from_json({"num": 1, "den": 0})


def test_instance_json_roundtrip_random():
    rng = random.Random(5)
    for _ in range(25):
        inst = random_instance(rng)
        assert instance_from_json(instance_to_json(inst)) == inst


def test_instance_json_rational_intensity():
    inst = Instance(suppliers=(Supplier(1, 1, 1, 3),), P=2, lam=F(3, 2))
    doc = instance_to_json(inst)
    assert doc["lambda"] == {"num": 3, "den": 2}
    assert instance_from_json(doc) == inst


def test_instance_json_missing_field_names_the_path():
    with pytest.raises(SchemaError) as err:
        instance_from_json({"P": 1, "lambda": 1, "c_hold": 1, "mode": "single",
                            "suppliers": [{"alpha": 0, "beta": 0, "m": 1}]})
    assert "suppliers[0]" in str(err.value)
    assert "'M'" in str(err.value)


def test_solution_json_roundtrip(golden):
    sol = make_solution(golden, [(1, F(5, 2)), (2, F(5, 2))])
    doc = solution_to_json(sol)
    assert doc["objective"] == {"num": 35, "den": 2}
    assert doc["deliveries"][0] == {"supplier": 1, "volume": {"num": 5, "den": 2}}
    assert solution_from_json(doc, golden) == sol


def test_solution_json_rejects_wrong_objective(golden):
    sol = make_solution(golden, [(1, F(5, 2)), (2, F(5, 2))])
    doc = solution_to_json(sol)
    doc["objective"] = {"num": 18, "den": 1}
    with pytest.raises(SchemaError):
        solution_from_json(doc, golden)


def test_single_mode_refuses_a_supplier_split_into_batches():
    # two batches of 2 would cost 8, below the true optimum 12 of one batch of 4
    inst = Instance(suppliers=(Supplier(0, 1, 1, 10),), P=4)
    split = [(1, 2), (1, 2)]
    with pytest.raises(FeasibilityError, match="more than one batch"):
        make_solution(inst, split)
    sol = Solution((Delivery(1, F(2)), Delivery(1, F(2))), F(8), (F(4),))
    with pytest.raises(FeasibilityError, match="more than one batch"):
        solution_cost(inst, sol)
    doc = {"objective": 8, "deliveries": [{"supplier": 1, "volume": 2}] * 2}
    with pytest.raises(FeasibilityError, match="more than one batch"):
        solution_from_json(doc, inst)
    # multi mode allows the split
    assert make_solution(replace(inst, mode=MULTI), split).objective == 8


def test_solution_json_rejects_deliveries_that_are_not_a_list(golden):
    with pytest.raises(SchemaError, match="solution.deliveries: expected a list"):
        solution_from_json({"objective": 12, "deliveries": 5}, golden)

import random
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
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
    solution_to_json,
    validate_instance,
)
from lotdp.model import _audit, is_integer


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
    # capacity equal to demand is valid: every supplier ships its maximum
    inst = Instance(suppliers=(Supplier(1, 1, 1, 2), Supplier(1, 1, 1, 3)), P=5)
    report = validate_instance(inst)
    assert report.ok


def test_validate_bad_fields():
    inst = Instance(
        suppliers=(Supplier(-1, 2, 0, 3), Supplier(1, -2, 1, 0)),
        P=-2, lam=F(1), c_hold=0, mode="weird",
    )
    codes = {v.code for v in validate_instance(inst).violations}
    assert {
        "bad_alpha", "bad_beta", "bad_min_volume", "bad_max_volume",
        "bad_demand", "bad_holding_rate", "bad_mode",
    } <= codes


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


GOOD_INSTANCE_DOC = {"P": 1, "lambda": 1, "c_hold": 1, "mode": "single",
                     "suppliers": [{"alpha": 0, "beta": 0, "m": 1, "M": 2}]}


@pytest.mark.parametrize(
    "parse, doc, message",
    [
        ("rational", {"num": 1}, "value: missing field 'den'"),
        ("rational", {"num": F(1, 2), "den": 2}, "value.num: expected an integer"),
        ("rational", "1/2", "value: expected an integer or a num/den object"),
        ("instance", [], "instance: top level must be a JSON object"),
        ("instance", {**GOOD_INSTANCE_DOC, "P": "1"}, "instance.P: expected an integer"),
        ("instance", {**GOOD_INSTANCE_DOC, "suppliers": {}}, "instance.suppliers: expected a list"),
        ("instance", {**GOOD_INSTANCE_DOC, "suppliers": [3]}, r"instance.suppliers\[0\]: expected an object"),
        ("instance", {**GOOD_INSTANCE_DOC, "mode": "many"}, "instance.mode: expected 'single' or 'multi'"),
        ("rational", {"num": 1, "den": 0}, "value.den: denominator must be >= 1, got 0"),
    ],
)
def test_schema_errors_name_the_field(parse, doc, message):
    read = {"rational": rational_from_json, "instance": instance_from_json}[parse]
    with pytest.raises(SchemaError, match=message):
        read(doc)


class _Int(int):
    pass


@pytest.mark.parametrize(
    "value, expected",
    [(3, True), (np.int64(3), True), (_Int(3), True), (True, False), (False, False),
     (F(2), False), (2.0, False)],
    ids=["int", "numpy-int64", "int-subclass", "True", "False", "Fraction", "float"],
)
def test_is_integer_accepts_integers_but_not_bools(value, expected):
    assert is_integer(value) is expected


def test_solution_json_roundtrip(golden):
    sol = make_solution(golden, [(1, F(5, 2)), (2, F(5, 2))])
    doc = solution_to_json(sol)
    assert doc["objective"] == {"num": 35, "den": 2}
    assert doc["deliveries"][0] == {"supplier": 1, "volume": {"num": 5, "den": 2}}


def test_single_mode_refuses_a_supplier_split_into_batches():
    # two batches of 2 would cost 8, below the true optimum 12 of one batch of 4
    inst = Instance(suppliers=(Supplier(0, 1, 1, 10),), P=4)
    split = [(1, 2), (1, 2)]
    with pytest.raises(FeasibilityError, match="more than one batch"):
        make_solution(inst, split)
    sol = Solution((Delivery(1, F(2)), Delivery(1, F(2))), F(8), (F(4),))
    with pytest.raises(FeasibilityError, match="more than one batch"):
        solution_cost(inst, sol)
    # multi mode allows the split
    assert make_solution(replace(inst, mode=MULTI), split).objective == 8


# --- the integer audit against a Fraction reference ------------------------------


def ref_violations(inst, deliveries):
    """The audit's checks in plain Fraction arithmetic, one delivery at a time."""
    problems = []
    totals = [F(0)] * inst.n
    batches = [0] * inst.n
    for d in deliveries:
        if not 1 <= d.supplier_index <= inst.n:
            problems.append(
                f"delivery names supplier {d.supplier_index}, "
                f"but the instance has suppliers 1..{inst.n}"
            )
            continue
        s = inst.suppliers[d.supplier_index - 1]
        if d.volume < s.m or d.volume > s.M:
            problems.append(
                f"batch of {d.volume} from supplier {d.supplier_index} "
                f"outside its window [{s.m}, {s.M}]"
            )
        if inst.mode == "single" and batches[d.supplier_index - 1] == 1:
            problems.append(
                f"supplier {d.supplier_index} delivers more than one batch "
                f"in single-delivery mode"
            )
        batches[d.supplier_index - 1] += 1
        totals[d.supplier_index - 1] += d.volume
    for i, t in enumerate(totals):
        cap = inst.suppliers[i].M
        if t > cap:
            problems.append(f"supplier {i + 1} delivers {t} in total, above its cap {cap}")
    delivered = sum(totals, F(0))
    if delivered < inst.P:
        problems.append(f"total delivered volume {delivered} is below the demand {inst.P}")
    return problems, totals


def ref_cost(inst, deliveries):
    return sum(
        (
            delivery_cost(inst.suppliers[d.supplier_index - 1], d.volume)
            + holding_cost(d.volume, inst.lam, inst.c_hold)
            for d in deliveries
        ),
        F(0),
    )


def check_audit(inst, deliveries):
    """The integer audit equals the reference: problems and totals on every
    plan, and on a plan with no problem the cost, which make_solution and
    solution_cost both return."""
    problems, totals, cost = _audit(inst, deliveries)
    assert (problems, totals) == ref_violations(inst, deliveries)
    assert all(type(t) is F for t in totals)
    if problems:
        assert cost is None
        with pytest.raises(FeasibilityError) as err:
            make_solution(inst, deliveries)
        assert err.value.violations == tuple(problems)
    else:
        assert type(cost) is F and cost == ref_cost(inst, deliveries)
        sol = make_solution(inst, deliveries)
        assert sol.objective == solution_cost(inst, sol) == cost
        assert sol.per_supplier_totals == tuple(totals)
    return problems


@st.composite
def audited_plans(draw):
    n = draw(st.integers(1, 4))
    sups = []
    for _ in range(n):
        m = draw(st.integers(1, 5))
        sups.append(Supplier(draw(st.integers(0, 20)), draw(st.integers(0, 9)), m,
                             draw(st.integers(m, 12))))
    inst = Instance(
        suppliers=tuple(sups),
        P=draw(st.integers(0, sum(s.M for s in sups))),
        # non-integer intensities and holding rates above 1
        lam=draw(st.builds(F, st.integers(1, 7), st.integers(1, 5))),
        c_hold=draw(st.integers(1, 4)),
        mode=draw(st.sampled_from(["single", MULTI])),
    )
    deliveries = []
    for _ in range(draw(st.integers(0, 6))):
        # mostly real suppliers, now and then a name outside 1..n
        idx = draw(st.integers(0, n + 1)) if draw(st.integers(0, 9)) == 0 else draw(st.integers(1, n))
        top = inst.suppliers[idx - 1].M + 2 if 1 <= idx <= n else 12
        den = draw(st.integers(1, 7))  # mixed volume denominators
        deliveries.append(Delivery(idx, F(draw(st.integers(1, top * den)), den)))
    return inst, deliveries


@settings(max_examples=300, deadline=None)
@given(plan=audited_plans())
def test_integer_audit_matches_the_fraction_reference(plan):
    check_audit(*plan)


@st.composite
def feasible_plans(draw):
    # every batch inside its window and every total under its cap, several
    # batches per supplier in multi mode, and a demand the plan covers: the
    # cost is compared on every example
    inst, _ = draw(audited_plans())
    deliveries = []
    for i, s in enumerate(inst.suppliers, 1):
        total = 0
        for _ in range(draw(st.integers(0, 3 if inst.mode == MULTI else 1))):
            den = draw(st.integers(1, 7))
            volume = s.m + F(draw(st.integers(0, (s.M - s.m) * den)), den)
            if total + volume <= s.M:
                deliveries.append(Delivery(i, volume))
                total += volume
    delivered = sum((d.volume for d in deliveries), F(0))
    inst = replace(inst, P=draw(st.integers(0, int(delivered))))
    return inst, draw(st.permutations(deliveries))


@settings(max_examples=300, deadline=None)
@given(plan=feasible_plans())
def test_integer_audit_prices_in_window_plans_like_the_fraction_sum(plan):
    assert check_audit(*plan) == []


AUDIT_INST = Instance(
    suppliers=(Supplier(3, 2, 2, 5), Supplier(1, 4, 1, 3)), P=6, lam=F(3, 2), c_hold=2
)


@pytest.mark.parametrize(
    "mode, deliveries, problem",
    [
        ("single", [(1, F(7, 2)), (2, F(5, 2))], None),
        ("single", [(1, F(3, 2)), (2, 3)], "outside its window"),
        ("single", [(1, F(11, 2)), (2, 1)], "outside its window"),
        ("multi", [(1, 4), (1, F(5, 3)), (2, 1)], "outside its window"),
        ("multi", [(1, 3), (1, F(5, 2)), (2, F(2, 3))], "above its cap"),
        ("single", [(1, F(5, 2)), (2, F(7, 3))], "below the demand"),
        ("single", [(1, 2), (1, 2), (2, 2)], "more than one batch"),
        ("single", [(3, 2), (1, 5), (2, 1)], "names supplier 3"),
        ("multi", [(1, 2), (1, F(5, 2)), (2, F(3, 2))], None),
    ],
)
def test_integer_audit_on_each_kind_of_plan(mode, deliveries, problem):
    inst = replace(AUDIT_INST, mode=mode)
    problems = check_audit(inst, [Delivery(i, v) for i, v in deliveries])
    if problem is None:
        assert problems == []
    else:
        assert any(problem in text for text in problems)

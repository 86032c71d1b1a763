"""Problem data model: suppliers, instances, solutions, exact cost arithmetic.

A single product is consumed at a constant intensity ``lam`` (units per time)
and a total of ``P`` units must be procured over the horizon.  Each delivery of
``v > 0`` units from a supplier costs ``alpha + beta * v``; an empty delivery is
free.  A batch of ``v`` units sits in stock while it is consumed, which costs
``v**2 * c_hold / (2 * lam)``.  Per-supplier volumes are restricted to
``{0} union [m, M]`` and the per-supplier total over the horizon may not
exceed ``M``.

Every quantity is an exact rational (`fractions.Fraction`); floats never enter
cost computations.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    FeasibilityError,
    InfeasibleInstanceError,
    InvalidInstanceError,
    SchemaError,
    VolumeBoundsError,
)

SINGLE = "single"
MULTI = "multi"


def is_integer(value) -> bool:
    # a plain int, the common case, answers without the ABC checks
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def as_rational(value) -> Fraction:
    """Coerce an int or Fraction to Fraction.  Floats are rejected: they carry
    rounding error and this package promises exact answers."""
    if isinstance(value, Fraction):
        return value
    if is_integer(value):
        return Fraction(int(value))
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


@dataclass(frozen=True)
class Supplier:
    """One source of product: fixed-plus-linear pricing and volume limits."""

    alpha: int  # fixed cost charged per delivery
    beta: int  # cost per delivered unit
    m: int  # smallest allowed single-delivery volume
    M: int  # largest total volume over the whole horizon


@dataclass(frozen=True)
class Instance:
    suppliers: tuple[Supplier, ...]
    P: int  # total demand over the horizon
    lam: Fraction = Fraction(1)  # consumption intensity, units per time
    c_hold: int = 1  # holding cost per unit per time-unit in stock
    mode: str = SINGLE  # "single": one delivery per supplier; "multi": repeats allowed

    def __post_init__(self):
        object.__setattr__(self, "suppliers", tuple(self.suppliers))
        object.__setattr__(self, "lam", as_rational(self.lam))

    @property
    def n(self) -> int:
        return len(self.suppliers)

    @property
    def capacity(self) -> int:
        """Sum of the per-supplier volume caps."""
        return sum(s.M for s in self.suppliers)


@dataclass(frozen=True)
class Delivery:
    supplier_index: int  # 1-based, matching the wire format
    volume: Fraction

    def __post_init__(self):
        object.__setattr__(self, "volume", as_rational(self.volume))
        if self.volume <= 0:
            raise ValueError("delivery volume must be positive; omit zero batches")


@dataclass(frozen=True)
class Solution:
    deliveries: tuple[Delivery, ...]
    objective: Fraction
    per_supplier_totals: tuple[Fraction, ...]


def delivery_cost(supplier: Supplier, volume) -> Fraction:
    """Purchase cost of one batch: zero for an empty batch, else alpha + beta*v.

    Raises VolumeBoundsError when 0 < v < m or v > M.
    """
    v = as_rational(volume)
    if v == 0:
        return Fraction(0)
    if v < supplier.m or v > supplier.M:
        raise VolumeBoundsError(
            f"batch volume {v} outside the allowed window [{supplier.m}, {supplier.M}]"
        )
    return supplier.alpha + supplier.beta * v


def holding_cost(volume, lam, c_hold) -> Fraction:
    """Storage cost of one batch consumed at rate lam: v**2 * c_hold / (2*lam).

    The batch arrives when stock hits zero and is drawn down linearly, so the
    stored quantity traces a triangle of height v and base v/lam.
    """
    v = as_rational(volume)
    if v < 0:
        raise ValueError("batch volume must be nonnegative")
    return v * v * c_hold / (2 * as_rational(lam))


def _audit(inst: Instance, deliveries) -> tuple[list[str], list[Fraction], Fraction | None]:
    """Every feasibility problem of a plan, each supplier's total volume and,
    when there is no problem, the plan's cost: the sum of delivery_cost +
    holding_cost over its batches.  One pass puts every volume over D, the
    lcm of the volume denominators, and compares windows, caps and the demand
    as integers over D.  With lam = a/b and every volume x/D, one batch costs

        alpha + beta*x/D + c*b*x**2/(2*a*D**2)

    so the cost is one integer over 2*a*D**2, and one Fraction is built."""
    problems = []
    D = math.lcm(*{d.volume.denominator for d in deliveries})
    a, b = inst.lam.numerator, inst.lam.denominator
    fixed, unit, square = 2 * a * D * D, 2 * a * D, inst.c_hold * b
    totals = [0] * inst.n
    batches = [0] * inst.n
    cost = 0
    for d in deliveries:
        i = d.supplier_index - 1
        if not 0 <= i < inst.n:
            problems.append(
                f"delivery names supplier {d.supplier_index}, "
                f"but the instance has suppliers 1..{inst.n}"
            )
            continue
        s = inst.suppliers[i]
        x = d.volume.numerator * (D // d.volume.denominator)
        if x < s.m * D or x > s.M * D:
            problems.append(
                f"batch of {d.volume} from supplier {d.supplier_index} "
                f"outside its window [{s.m}, {s.M}]"
            )
        if inst.mode == SINGLE and batches[i] == 1:
            problems.append(
                f"supplier {d.supplier_index} delivers more than one batch "
                f"in single-delivery mode"
            )
        batches[i] += 1
        totals[i] += x
        cost += s.alpha * fixed + s.beta * unit * x + square * x * x
    for i, (t, s) in enumerate(zip(totals, inst.suppliers)):
        if t > s.M * D:
            problems.append(f"supplier {i + 1} delivers {Fraction(t, D)} in total, above its cap {s.M}")
    delivered = sum(totals)
    if delivered < inst.P * D:
        problems.append(
            f"total delivered volume {Fraction(delivered, D)} is below the demand {inst.P}"
        )
    return problems, [Fraction(t, D) for t in totals], None if problems else Fraction(cost, fixed)


def solution_cost(inst: Instance, sol: Solution) -> Fraction:
    """Recompute the objective of a solution from scratch.

    Raises FeasibilityError listing every violated constraint (demand coverage,
    per-supplier caps, per-batch volume windows, one batch per supplier in
    single-delivery mode).
    """
    problems, _, cost = _audit(inst, sol.deliveries)
    if problems:
        raise FeasibilityError(problems)
    return cost


def make_solution(inst: Instance, deliveries) -> Solution:
    """Build a Solution from (supplier_index, volume) pairs or Delivery objects.

    Zero-volume entries are dropped, feasibility is checked, and the objective
    is computed here so the stored value always matches a recomputation.
    """
    batch: list[Delivery] = []
    for d in deliveries:
        if not isinstance(d, Delivery):
            idx, vol = d
            vol = as_rational(vol)
            if vol == 0:
                continue
            d = Delivery(idx, vol)
        batch.append(d)
    problems, totals, cost = _audit(inst, batch)
    if problems:
        raise FeasibilityError(problems)
    return Solution(tuple(batch), cost, tuple(totals))


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    @property
    def infeasible_demand(self) -> bool:
        return any(v.code == "demand_exceeds_capacity" for v in self.violations)


def validate_instance(inst: Instance) -> ValidationReport:
    """Check every structural invariant of an instance and report all failures.

    Constructors are deliberately lenient so that malformed data can be
    collected into one report instead of failing fast on the first field.
    """
    violations: list[Violation] = []

    def bad(code, message):
        violations.append(Violation(code, message))

    if inst.n == 0:
        bad("no_suppliers", "instance has no suppliers")
    bounds_ok = True
    for i, s in enumerate(inst.suppliers, start=1):
        if not is_integer(s.alpha) or s.alpha < 0:
            bad("bad_alpha", f"supplier {i}: fixed cost must be a nonnegative integer, got {s.alpha!r}")
        if not is_integer(s.beta) or s.beta < 0:
            bad("bad_beta", f"supplier {i}: unit cost must be a nonnegative integer, got {s.beta!r}")
        if not is_integer(s.m) or s.m <= 0:
            bad("bad_min_volume", f"supplier {i}: minimum volume must be a positive integer, got {s.m!r}")
            bounds_ok = False
        if not is_integer(s.M) or s.M <= 0:
            bad("bad_max_volume", f"supplier {i}: maximum volume must be a positive integer, got {s.M!r}")
            bounds_ok = False
        if is_integer(s.m) and is_integer(s.M) and s.m > s.M:
            bad("min_exceeds_max", f"supplier {i}: minimum volume {s.m} exceeds maximum {s.M}")
    if not is_integer(inst.P) or inst.P < 0:
        bad("bad_demand", f"demand must be a nonnegative integer, got {inst.P!r}")
        bounds_ok = False
    if not is_integer(inst.c_hold) or inst.c_hold < 1:
        bad("bad_holding_rate", f"holding rate must be an integer >= 1, got {inst.c_hold!r}")
    if inst.lam <= 0:
        bad("bad_intensity", f"consumption intensity must be positive, got {inst.lam}")
    if inst.mode not in (SINGLE, MULTI):
        bad("bad_mode", f"mode must be {SINGLE!r} or {MULTI!r}, got {inst.mode!r}")
    if bounds_ok and inst.n > 0:
        cap = inst.capacity
        if cap < inst.P:
            bad(
                "demand_exceeds_capacity",
                f"total supplier capacity {cap} cannot cover the demand {inst.P}",
            )
    return ValidationReport(not violations, tuple(violations))


def require_valid(inst: Instance) -> None:
    """Raise on an invalid instance; used as the entry check of every solver."""
    report = validate_instance(inst)
    if report.ok:
        return
    if report.infeasible_demand and len(report.violations) == 1:
        raise InfeasibleInstanceError(report.violations[0].message)
    raise InvalidInstanceError("; ".join(v.message for v in report.violations))


# --- JSON wire format -------------------------------------------------------
#
# Instance: {"P": int, "lambda": int | {"num", "den"}, "c_hold": int,
#            "mode": "single" | "multi",
#            "suppliers": [{"alpha", "beta", "m", "M"}, ...]}
# Solution: {"objective": {"num", "den"},
#            "deliveries": [{"supplier": int (1-based), "volume": {"num", "den"}}]}
#
# Instances are read and written; solutions are only written.  With approx,
# a rational within float range also carries a decimal "approx"; num/den
# stay the exact value.


def rational_to_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def rational_from_json(obj, where: str = "value") -> Fraction:
    if is_integer(obj):
        return Fraction(int(obj))
    if isinstance(obj, dict):
        num, den = _int_field(obj, "num", where), _int_field(obj, "den", where)
        if den < 1:
            raise SchemaError(f"{where}.den: denominator must be >= 1, got {den}")
        return Fraction(num, den)
    raise SchemaError(f"{where}: expected an integer or a num/den object, got {obj!r}")


def _int_field(obj: dict, key: str, where: str) -> int:
    if key not in obj:
        raise SchemaError(f"{where}: missing field {key!r}")
    if not is_integer(obj[key]):
        raise SchemaError(f"{where}.{key}: expected an integer, got {obj[key]!r}")
    return int(obj[key])


def instance_to_json(inst: Instance) -> dict:
    lam = inst.lam
    return {
        "P": inst.P,
        "lambda": lam.numerator if lam.denominator == 1 else rational_to_json(lam),
        "c_hold": inst.c_hold,
        "mode": inst.mode,
        "suppliers": [
            {"alpha": s.alpha, "beta": s.beta, "m": s.m, "M": s.M} for s in inst.suppliers
        ],
    }


def instance_from_json(obj) -> Instance:
    if not isinstance(obj, dict):
        raise SchemaError("instance: top level must be a JSON object")
    for key in ("P", "lambda", "c_hold", "mode", "suppliers"):
        if key not in obj:
            raise SchemaError(f"instance: missing field {key!r}")
    if not isinstance(obj["suppliers"], list):
        raise SchemaError("instance.suppliers: expected a list")
    suppliers = []
    for i, raw in enumerate(obj["suppliers"]):
        where = f"instance.suppliers[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{where}: expected an object")
        suppliers.append(
            Supplier(
                alpha=_int_field(raw, "alpha", where),
                beta=_int_field(raw, "beta", where),
                m=_int_field(raw, "m", where),
                M=_int_field(raw, "M", where),
            )
        )
    mode = obj["mode"]
    if mode not in (SINGLE, MULTI):
        raise SchemaError(f"instance.mode: expected 'single' or 'multi', got {mode!r}")
    return Instance(
        suppliers=tuple(suppliers),
        P=_int_field(obj, "P", "instance"),
        lam=rational_from_json(obj["lambda"], "instance.lambda"),
        c_hold=_int_field(obj, "c_hold", "instance"),
        mode=mode,
    )


def solution_to_json(sol: Solution, approx: bool = False) -> dict:
    out = {
        "objective": rational_to_json(sol.objective),
        "deliveries": [
            {"supplier": d.supplier_index, "volume": rational_to_json(d.volume)}
            for d in sol.deliveries
        ],
    }
    if approx:
        pairs = [(out["objective"], sol.objective)]
        pairs += [(entry["volume"], d.volume) for entry, d in zip(out["deliveries"], sol.deliveries)]
        for entry, q in pairs:
            if abs(q) <= sys.float_info.max:  # float() overflows beyond it
                entry["approx"] = float(q)
    return out


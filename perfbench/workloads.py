"""Workload inputs, the operation each workload times, and the exactness audit.

A workload is a pool of instances drawn from the run's seed.  The pools of
narrow, wide and multi are stratified: the structural sizes that set the
solve time (supplier count, demand) cycle through a fixed pattern over the
pool index, and only the remaining parameters are drawn from the seed.  Pools
from different seeds therefore hold different instances with the same mix of
sizes, which keeps run-to-run spread down without pinning the inputs.  The
patterns have many size levels, or a p50 and a p90 rank inside a level, so
that neither percentile sits on the step between two levels.

Each pool item is a *case* with two steps: ``run`` (the timed operation: one
solve) and ``collect`` (untimed: turn the raw output into a comparable
value).  ``audit`` checks one collected value independently
of the solver and returns its canonical record for the digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import lotdp
import lotdp.cli
import lotdp.dp
from lotdp import Delivery, Instance, Solution, Supplier
from lotdp.generate import bench_instance, random_instance
from lotdp.model import MULTI, solution_cost


class AuditError(Exception):
    """A solver output that fails the independent exactness checks."""


# --- pools --------------------------------------------------------------------


def narrow_pool(rng: random.Random, tiny: bool) -> list[Instance]:
    if tiny:
        return [bench_instance(rng, 2 + i % 2, 12, 1) for i in range(4)]
    return [bench_instance(rng, 6 + i % 5, 30, 1) for i in range(100)]


def wide_pool(rng: random.Random, tiny: bool) -> list[Instance]:
    pool = []
    for i in range(4 if tiny else 100):
        # one supplier count and every demand from 60 to 100: the sorted times
        # rise smoothly, with no step for p50 or p90 to straddle
        n = 2 + i % 2 if tiny else 3
        P = 10 if tiny else 60 + i % 41
        suppliers = []
        for _ in range(n):
            m = rng.randint(1, 5)
            # M - m within 5 of P: nearly every column is inside the window
            suppliers.append(
                Supplier(
                    alpha=rng.randint(0, 10),
                    beta=rng.randint(0, 10),
                    m=m,
                    M=m + P - rng.randint(0, 5),
                )
            )
        pool.append(Instance(suppliers=tuple(suppliers), P=P, lam=1, c_hold=1))
    return pool


# five size levels of multi mode, as (P, minimum lots), in rising solve time;
# with 20 instances of each, p50 falls in the middle of the third level and
# p90 in the middle of the fifth, not on a step between two levels
MULTI_LEVELS = ((12, (2, 3)), (14, (3, 2)), (16, (4, 2)), (15, (4, 2, 3)), (17, (2, 3, 4)))


def multi_pool(rng: random.Random, tiny: bool) -> list[Instance]:
    pool = []
    for i in range(4 if tiny else 100):
        P, lots = (8, ((2, 3), (3, 2, 4))[i % 2]) if tiny else MULTI_LEVELS[i % 5]
        suppliers = []
        for k, m in enumerate(lots):
            # M >= 3P/4 - 2 >= P/2 with n >= 2 suppliers, so capacity covers P;
            # M sets the window width, so it cycles and only costs are drawn
            suppliers.append(
                Supplier(
                    alpha=rng.randint(0, 10),
                    beta=rng.randint(0, 10),
                    m=m,
                    M=max(m, 3 * P // 4 - (i // 5 + k) % 3),
                )
            )
        pool.append(Instance(suppliers=tuple(suppliers), P=P, lam=1, c_hold=1, mode=MULTI))
    return pool


def cli_pool(rng: random.Random, tiny: bool) -> list[Instance]:
    # every tenth instance is drawn infeasible; the CLI must exit with code 2
    if tiny:
        return [
            random_instance(rng, n_max=2, p_max=8, infeasible=(i % 10 == 9)) for i in range(10)
        ]
    # the tail of this family is long (n, c_hold and the windows all vary), so
    # n cycles and a large pool keeps its p90 from depending on the seed
    return [random_instance(rng, n=1 + i % 4, infeasible=(i % 10 == 9)) for i in range(1000)]


# --- cases ---------------------------------------------------------------------


def _fraction_pair(q: Fraction) -> list[int]:
    return [q.numerator, q.denominator]


def _audited_record(inst: Instance, best_H, deliveries, objective: Fraction) -> list:
    """Recompute the objective with model.solution_cost, recompute the
    per-supplier totals from the deliveries, and check coverage of P."""
    totals = [Fraction(0)] * inst.n
    for d in deliveries:
        if not 1 <= d.supplier_index <= inst.n:
            raise AuditError(f"delivery names supplier {d.supplier_index} of {inst.n}")
        totals[d.supplier_index - 1] += d.volume
    if sum(totals) < inst.P:
        raise AuditError(f"total volume {sum(totals)} is below the demand {inst.P}")
    try:
        recomputed = solution_cost(inst, Solution(tuple(deliveries), objective, tuple(totals)))
    except lotdp.LotSizingError as exc:
        raise AuditError(f"solution_cost refused the plan: {exc}") from exc
    if recomputed != objective:
        raise AuditError(f"objective {objective} recomputes to {recomputed}")
    return [
        "ok",
        _fraction_pair(objective),
        best_H,
        [_fraction_pair(t) for t in totals],
        [[d.supplier_index, *_fraction_pair(d.volume)] for d in deliveries],
    ]


class LibCase:
    """One in-process ``lotdp.solve`` / ``solve_multi`` call on an Instance."""

    def __init__(self, inst: Instance):
        self.inst = inst

    def run(self):
        # looked up through the module on every call so traced wrappers apply
        if self.inst.mode == MULTI:
            return lotdp.dp.solve_multi(self.inst)
        return lotdp.dp.solve(self.inst)

    def collect(self, report):
        return report.best_H, report.solution, report.table_cells_filled

    def cells(self, collected) -> int:
        return collected[2]

    def repeat_key(self, collected):
        return collected

    def audit(self, collected) -> list:
        best_H, sol, _ = collected
        record = _audited_record(self.inst, best_H, sol.deliveries, sol.objective)
        if [_fraction_pair(t) for t in sol.per_supplier_totals] != record[3]:
            raise AuditError("per-supplier totals do not match the deliveries")
        return record


def instance_json(inst: Instance) -> dict:
    """The documented instance wire format, written here so the input files do
    not depend on the program's own serializer."""
    return {
        "P": inst.P,
        "lambda": {"num": inst.lam.numerator, "den": inst.lam.denominator},
        "c_hold": inst.c_hold,
        "mode": inst.mode,
        "suppliers": [{"alpha": s.alpha, "beta": s.beta, "m": s.m, "M": s.M} for s in inst.suppliers],
    }


class CliCase:
    """One in-process ``lotdp solve FILE`` call; the solution JSON goes to
    standard output, which is captured in memory along with standard error."""

    def __init__(self, inst: Instance, path):
        self.inst = inst
        self.path = path

    def write_input(self) -> None:
        self.path.write_text(json.dumps(instance_json(self.inst)) + "\n", encoding="utf-8")

    def run(self):
        # fresh buffers on every call, so no earlier output can pass for this one
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lotdp.cli.main(["solve", str(self.path)])
        return code, out, err

    def collect(self, raw):
        code, out, err = raw
        cells = None
        if code == 0:
            cells = json.loads(err.getvalue())["table_cells_filled"]
        return code, out.getvalue(), cells, err.getvalue()

    def cells(self, collected) -> int:
        return collected[2] or 0

    def repeat_key(self, collected):
        # stderr carries wall times, so repeats compare everything else
        return collected[:3]

    def audit(self, collected) -> list:
        code, out, _, err = collected
        feasible = sum(s.M for s in self.inst.suppliers) >= self.inst.P
        if code != (0 if feasible else 2):
            raise AuditError(f"exit code {code} for a {'feasible' if feasible else 'infeasible'} instance")
        if not feasible:
            if out:
                raise AuditError("an infeasible instance printed a solution")
            return ["infeasible", code]
        doc = json.loads(out)
        objective = Fraction(doc["objective"]["num"], doc["objective"]["den"])
        deliveries = [
            Delivery(d["supplier"], Fraction(d["volume"]["num"], d["volume"]["den"]))
            for d in doc["deliveries"]
        ]
        return _audited_record(self.inst, json.loads(err)["best_H"], deliveries, objective)


def digest(records: list) -> str:
    """sha256 of the canonical JSON of every audited record, in pool order."""
    text = json.dumps(records, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


POOLS = {
    "narrow": narrow_pool,
    "wide": wide_pool,
    "multi": multi_pool,
    "cli-small": cli_pool,
}


def make_cases(workload: str, seed, tiny: bool, workdir, limit: int | None = None) -> list:
    """Draw the pool for (workload, seed) and wrap its first ``limit``
    instances in cases; CLI cases also write their input file into
    ``workdir``."""
    pool = POOLS[workload](random.Random(f"{workload}:{seed}"), tiny)[:limit]
    if workload != "cli-small":
        return [LibCase(inst) for inst in pool]
    cases = []
    for i, inst in enumerate(pool):
        case = CliCase(inst, workdir / f"{seed}-{i}.instance.json")
        case.write_input()
        cases.append(case)
    return cases

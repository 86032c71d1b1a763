"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import lotdp  # noqa: E402
import lotdp.cli  # noqa: E402
import lotdp.dp as dp  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def tiny_run(workload, trace, tmp_path, **kwargs):
    kwargs.setdefault("expected", {})
    return run.run(workload, 0, 0, trace, tiny=True, state_dir=tmp_path, **kwargs)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_untraced(workload, tmp_path):
    result = tiny_run(workload, False, tmp_path)
    assert result["messages"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= result["raw"]["cases"]
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced(workload, tmp_path):
    result = tiny_run(workload, True, tmp_path)
    assert result["messages"] == []
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    assert result["metrics"]["dp.fill.cells"] > 0
    multi_calls = result["metrics"]["closed_form.multi_delivery_cost.calls"]
    assert (multi_calls > 0) == (workload == "multi")
    assert (result["metrics"]["cli.self_ms"] > 0) == (workload == "cli-small")


def _lotdp_bindings():
    return {
        (name, key): value
        for name, module in sys.modules.items()
        if name == "lotdp" or name.startswith("lotdp.")
        for key, value in vars(module).items()
    }


def test_wrapped_attributes_are_restored():
    before = _lotdp_bindings()
    tracer = tracing.Tracer()
    inst = lotdp.Instance(suppliers=(lotdp.Supplier(0, 1, 2, 3), lotdp.Supplier(0, 1, 2, 3)), P=5)
    with pytest.raises(RuntimeError):
        with tracer.patched():
            assert dp.solve is not before[("lotdp.dp", "solve")]
            assert lotdp.cli.solve is dp.solve  # the CLI's own binding is wrapped too
            dp.solve(inst)
            raise RuntimeError("leave the block early")
    after = _lotdp_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.calls["dp.solve"] == 1 and tracer.calls["dp.fill"] == inst.n


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile(reversed(values), 90) == 90
    assert run.percentile([7.5], 90) == 7.5
    assert run.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_pools_leave_ten_instances_beyond_p90():
    assert run.beyond(range(run.MIN_POOL), 90) == 10
    assert run.beyond(range(run.MIN_POOL - 1), 90) < 10
    for workload, make_pool in workloads.POOLS.items():
        assert len(make_pool(random.Random(0), False)) >= run.MIN_POOL, workload


def test_end_to_end_metrics_use_each_cases_median_normalized_time():
    # (raw, normalized) seconds per solve; the raw times are diagnostics only
    times = [[(0.1, 0.004), (0.1, 0.002), (0.1, 0.003)]] * 50 + [[(0.2, 0.010), (0.2, 0.020)]] * 50
    metrics, raw = run.end_to_end_metrics(times, wall=1.0, probes=[0.003, 0.005])
    assert metrics["solve_ms.p50"] == pytest.approx(3.0)
    assert metrics["solve_ms.p90"] == pytest.approx(15.0)
    assert metrics["solves_per_s"] == pytest.approx(100 / (50 * 0.003 + 50 * 0.015))
    assert raw["solves"] == 250 and raw["raw_solves_per_s"] == 250
    assert raw["raw_solve_ms.p50"] == pytest.approx(100.0)
    assert raw["probe_ms.p50"] == pytest.approx(4.0)


def test_normalized_rescales_to_the_reference_speed():
    ref = run.REFERENCE_MS * 1e-3
    assert run.normalized(0.05, ref, ref) == pytest.approx(0.05)
    # a host running at half speed makes both the solve and the probes twice as long
    assert run.normalized(0.10, 2 * ref, 2 * ref) == pytest.approx(0.05)
    assert run.normalized(0.06, ref, 2 * ref) == pytest.approx(0.04)


def test_failed_ratio():
    assert run.failed_ratio(0, 10) == 0
    assert run.failed_ratio(3, 12) == 0.25
    with pytest.raises(ValueError):
        run.failed_ratio(0, 0)


def test_fill_transitions_match_the_reference_loop():
    """The computed count equals the iterations of the reference recursion."""
    inst = lotdp.Instance(
        suppliers=(lotdp.Supplier(0, 1, 2, 5), lotdp.Supplier(1, 0, 1, 9), lotdp.Supplier(0, 0, 4, 4)),
        P=7,
        lam=lotdp.as_rational(1),
        c_hold=2,
    )
    for H in (1, 2, 3):
        grid = dp.build_grid(inst, H)
        counted = 0
        for lo, hi in grid.spans:
            for p in range(grid.demand_points):
                counted += max(0, min(hi, p) - lo + 1)  # interior window
                counted += max(p + 1, lo) <= hi  # over-delivery lookup
        assert tracing.fill_transitions(inst, H) == counted


def test_absent_layer_is_left_out(tmp_path, monkeypatch):
    """Once the candidate-cost builders are gone, the pricing metrics are
    absent rather than zero, and everything else still works."""
    single, aggregated = dp._single_candidate_costs, dp._aggregated_candidate_costs

    def solve_fixed_H(inst, H, *, max_cells=None):
        grid = dp.build_grid(inst, H)
        if inst.mode == lotdp.MULTI:
            return dp._fill(inst, grid, aggregated(inst, grid), "multi-aggregated", max_cells)
        return dp._fill(inst, grid, single(inst, grid), lotdp.SINGLE, max_cells)

    monkeypatch.setattr(dp, "solve_fixed_H", solve_fixed_H)
    monkeypatch.delattr(dp, "_single_candidate_costs")
    monkeypatch.delattr(dp, "_aggregated_candidate_costs")
    result = tiny_run("narrow", True, tmp_path)
    assert result["correct"]
    pricing = {"dp.price.ms", "dp.price.candidates", "dp.price.us_per_candidate"}
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS) - pricing


def test_wrong_answer_fails_every_operation_of_its_case(tmp_path, monkeypatch):
    solve = dp.solve

    def skewed(inst, **kwargs):
        report = solve(inst, **kwargs)
        sol = report.solution
        wrong = lotdp.Solution(sol.deliveries, sol.objective + 1, sol.per_supplier_totals)
        return type(report)(**{**vars(report), "solution": wrong})

    monkeypatch.setattr(dp, "solve", skewed)
    result = tiny_run("narrow", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("audit failed" in m for m in result["messages"])


def test_digest_mismatch_fails_the_run(tmp_path):
    result = tiny_run("wide", False, tmp_path, expected={"wide": {"0": "0" * 64}})
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_counts_and_digest_must_repeat_across_runs(tmp_path):
    first = tiny_run("multi", True, tmp_path)
    second = tiny_run("multi", True, tmp_path)
    assert first["correct"] and second["correct"]
    assert first["digest"] == second["digest"]
    for name in run.EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name]

    (state,) = tmp_path.glob("*-multi-0.json")
    stored = json.loads(state.read_text())
    stored["counts"]["dp.fill.cells"] += 1
    state.write_text(json.dumps(stored))
    third = tiny_run("multi", True, tmp_path)
    assert not third["correct"]
    assert any("dp.fill.cells" in m for m in third["messages"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "narrow", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

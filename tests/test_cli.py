import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

import lotdp
from lotdp import (
    MULTI,
    Instance,
    ResourceLimitError,
    Supplier,
    duplication_oracle,
    instance_to_json,
    make_solution,
    structural_oracle,
)
from lotdp import cli, dp, model


def write_instance(path, inst):
    path.write_text(json.dumps(instance_to_json(inst)) + "\n")
    return str(path)


# optimum 73/2 from the plan (5, 4); (6, 3) is feasible at 75/2
AUDITED = Instance(suppliers=(Supplier(3, 1, 2, 6), Supplier(0, 2, 1, 5)), P=9)


def _lowered_fill(*args, fill=dp._fill):
    table = fill(*args)
    table.phi[-1][-1] -= 1
    return table


FAULTS = {
    "objective": ("backtrack", lambda table, inst: make_solution(inst, [(1, 6), (2, 3)])),
    "infeasible-plan": (
        "_chosen_indices",
        lambda table, walk=dp._chosen_indices: walk(table)[:-1],
    ),
    "phi": ("_fill", _lowered_fill),
    "interior": ("_interior_count", lambda inst, solution: 99),
}


@pytest.fixture
def golden_file(golden, tmp_path):
    return write_instance(tmp_path / "golden.json", golden)


@pytest.fixture
def multi_file(tmp_path):
    # the cheapest plan ships the total of 6 as four batches of 3/2
    inst = Instance(suppliers=(Supplier(1, 0, 1, 10),), P=6, mode=MULTI)
    return write_instance(tmp_path / "multi.json", inst)


SOLVE_STDOUT = Path(__file__).parent / "data" / "solve_stdout"
HAND_WRITTEN = ["frac", "frac-multi", "wide", "counts", "one-run", "cap", "long-window"]


class TestSolve:
    @pytest.mark.parametrize("name", HAND_WRITTEN)
    def test_stdout_bytes_of_the_hand_written_instances(self, name, capsys, monkeypatch):
        # each <name>.out holds the stdout of `lotdp solve <name>.json`, byte
        # for byte: a change to any answer, volume, tie-break or output format
        # shows here
        monkeypatch.delenv("LOTDP_MAX_CELLS", raising=False)
        assert cli.main(["solve", str(SOLVE_STDOUT / f"{name}.json")]) == 0
        expected = (SOLVE_STDOUT / f"{name}.out").read_bytes()
        out = capsys.readouterr()
        assert out.out.encode() == expected
        # stderr is one JSON document: every table filled is in per_H, with
        # the fields a trace needs, and the interior bound L lies in
        # 1..L_count and bounds the plan's count
        report = json.loads(out.err)
        keys = {"H", "objective", "cells", "computed", "micros"}
        assert report["per_H"] and all(keys <= entry.keys() for entry in report["per_H"])
        assert 1 <= report["L"] <= report["L_count"]
        assert report["interior"] <= report["L"]

    def test_golden(self, golden_file, capsys):
        assert cli.main(["solve", golden_file]) == 0
        out = capsys.readouterr()
        doc = json.loads(out.out)
        assert doc["objective"] == {"num": 35, "den": 2}
        assert doc["deliveries"] == [
            {"supplier": 1, "volume": {"num": 5, "den": 2}},
            {"supplier": 2, "volume": {"num": 5, "den": 2}},
        ]
        report = json.loads(out.err)
        assert report["best_H"] == 2
        assert [h["H"] for h in report["per_H"]] == [1, 2]

    def test_pretty_adds_decimal_approximations(self, golden_file, capsys):
        assert cli.main(["solve", "--pretty", golden_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["objective"]["approx"] == 17.5

    def test_pretty_leaves_out_approximations_beyond_float_range(self, tmp_path, capsys):
        # the objective 10**400 + 35/2 has no float; the volume 5 has one
        inst = Instance(suppliers=(Supplier(10**400, 1, 2, 6),), P=5)
        assert cli.main(["solve", "--pretty", write_instance(tmp_path / "huge.json", inst)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["objective"] == {"num": 2 * 10**400 + 35, "den": 2}
        assert doc["deliveries"] == [{"supplier": 1, "volume": {"num": 5, "den": 1, "approx": 5.0}}]

    def test_out_flag_writes_file(self, golden_file, tmp_path, capsys):
        target = tmp_path / "solution.json"
        assert cli.main(["solve", "--out", str(target), golden_file]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["objective"] == {"num": 35, "den": 2}

    def test_report_names_the_skipped_grids(self, tmp_path, capsys):
        # at most (9 - 1) // 2 = 4 interior batches, while best_H ranges up to
        # 9 // 2 + 9 // 2 = 8; the sweep decides the grids from 4 down and
        # takes best_H's plan from them: four batches of 9/4, all interior.
        # Grid 2 lies inside grid 4, and both have the largest multiple 8 up
        # to H_top, so the filled table 4 covers it
        inst = Instance(suppliers=(Supplier(1, 1, 2, 12),) * 2, P=9, mode=MULTI)
        assert cli.main(["solve", write_instance(tmp_path / "m.json", inst)]) == 0
        report = json.loads(capsys.readouterr().err)
        assert (report["L"], report["interior"], report["L_count"]) == (4, 4, 4)
        assert [h["H"] for h in report["per_H"]] == [1, 4, 3]
        assert report["best_H"] == 8
        assert report["skipped_H"] == [2, 5, 6, 7, 8]
        assert report["skip_reason"] == {"H > L": [5, 6, 7, 8], "covered": [2], "count bound": []}
        assert report["table_cells_filled"] == sum(h["cells"] for h in report["per_H"])

    def test_report_names_the_grids_the_count_bound_leaves_out(self, tmp_path, capsys):
        # three wide windows: the optimum puts each supplier at 13/3 on grid
        # 3, and at the prices (24, 27, 31)/20 * v1/P every optimum with
        # exactly two interior suppliers would cost more than table 1's 163/2
        inst = Instance(
            suppliers=(Supplier(4, 3, 1, 14), Supplier(5, 3, 2, 13), Supplier(5, 3, 2, 12)),
            P=13,
        )
        assert cli.main(["solve", write_instance(tmp_path / "wide.json", inst)]) == 0
        report = json.loads(capsys.readouterr().err)
        assert (report["L"], report["best_H"], report["objective"]) == (3, 3, {"num": 487, "den": 6})
        assert [h["H"] for h in report["per_H"]] == [1, 3]
        assert report["skipped_H"] == [2]
        assert report["skip_reason"] == {"H > L": [], "covered": [], "count bound": [2]}
        assert structural_oracle(inst).objective == F(487, 6)

    def test_report_counts_the_computed_cells(self, golden_file, capsys):
        # the golden relaxation costs what the optimum does, so each row's
        # band is one residual: the fill evaluates 5 of 33 and 5 of 63 cells
        # (see test_cells_computed_on_the_golden_instance)
        assert cli.main(["solve", golden_file]) == 0
        report = json.loads(capsys.readouterr().err)
        assert [(h["cells"], h["computed"]) for h in report["per_H"]] == [(33, 5), (63, 5)]
        assert report["table_cells_filled"] == 96

    @pytest.mark.parametrize("which", ["golden_file", "multi_file"])
    def test_report_carries_every_table_of_the_trace(self, which, request, capsys):
        # stderr is one JSON document, and its per_H is the solve's own trace
        path = request.getfixturevalue(which)
        assert cli.main(["solve", path]) == 0
        report = json.loads(capsys.readouterr().err)
        inst = model.instance_from_json(json.loads(Path(path).read_text()))
        trace = (lotdp.solve_multi(inst) if inst.mode == MULTI else lotdp.solve(inst)).trace
        per_H = [
            (h["H"], model.rational_from_json(h["objective"]), h["cells"], h["computed"])
            for h in report["per_H"]
        ]
        assert per_H == [(t.H, t.objective, t.cells, t.computed) for t in trace]

    def test_golden_report_skips_no_grid(self, golden_file, capsys):
        assert cli.main(["solve", golden_file]) == 0
        report = json.loads(capsys.readouterr().err)
        assert (report["L"], report["interior"], report["L_count"]) == (2, 2, 2)
        assert report["skipped_H"] == []

    def test_mode_override(self, golden_file, capsys):
        assert cli.main(["solve", "--mode", "multi", golden_file]) == 0
        report = json.loads(capsys.readouterr().err)
        assert report["kind"] == "multi-aggregated"

    def test_infeasible_instance_exits_2(self, tmp_path, capsys):
        inst = Instance(suppliers=(Supplier(1, 1, 1, 3),), P=50)
        path = write_instance(tmp_path / "too_big.json", inst)
        assert cli.main(["solve", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
        assert "capacity" in err and "demand" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("objective", "the plan recomputes to 75/2, its table holds 73/2"),
            ("infeasible-plan", "total delivered volume 5 is below the demand 9"),
            ("phi", "no volume attains phi[2][9] on the H=1 grid"),
            ("interior", "the plan has 99 interior batches, above L = 2"),
        ],
        ids=["objective", "infeasible-plan", "phi", "interior"],
    )
    def test_failed_audit_exits_3(self, tmp_path, capsys, monkeypatch, fault, message):
        # faults inside the solver: a feasible but dearer plan, a backtrack
        # that drops the last supplier, a final cell one below its value, an
        # interior count above the bound (an assert, which python -O drops)
        monkeypatch.setattr(dp, *FAULTS[fault])
        path = write_instance(tmp_path / "i.json", AUDITED)
        for command in ("solve", "verify"):
            assert cli.main([command, path]) == cli.EXIT_MISMATCH
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: internal audit failed: {message}\n"

    def test_objective_check_survives_python_O(self, tmp_path):
        path = write_instance(tmp_path / "i.json", AUDITED)
        script = (
            "import sys\n"
            "from lotdp import cli, dp, make_solution\n"
            "dp.backtrack = lambda table, inst: make_solution(inst, [(1, 6), (2, 3)])\n"
            f"sys.exit(cli.main(['solve', {path!r}]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(lotdp.__file__).parents[1])},
        )
        assert (proc.returncode, proc.stdout) == (cli.EXIT_MISMATCH, "")
        assert proc.stderr == "error: internal audit failed: the plan recomputes to 75/2, its table holds 73/2\n"

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert cli.main(["solve", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"P": 5,,}\n')
        assert cli.main(["solve", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_missing_field_exits_1(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"P": 5, "lambda": 1, "c_hold": 1, "mode": "single"}))
        assert cli.main(["solve", str(path)]) == 1
        assert "suppliers" in capsys.readouterr().err

    def test_empty_supplier_list_exits_1(self, tmp_path, capsys):
        inst = Instance(suppliers=(), P=5)
        path = write_instance(tmp_path / "empty.json", inst)
        assert cli.main(["solve", path]) == 1
        assert "supplier" in capsys.readouterr().err

    def test_every_violation_on_one_error_line(self, tmp_path, capsys):
        inst = Instance(suppliers=(Supplier(-1, 1, 3, 2),), P=1)
        path = write_instance(tmp_path / "bad.json", inst)
        assert cli.main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "fixed cost" in err and "; " in err and "exceeds maximum" in err

    def test_validates_the_instance_once(self, golden_file, capsys, monkeypatch):
        calls = []
        validate = model.validate_instance
        monkeypatch.setattr(
            model, "validate_instance", lambda inst: calls.append(inst) or validate(inst)
        )
        assert cli.main(["solve", golden_file]) == 0
        assert len(calls) == 1

    def test_cell_budget_env_var(self, golden_file, capsys, monkeypatch):
        monkeypatch.setenv("LOTDP_MAX_CELLS", "10")
        assert cli.main(["solve", golden_file]) == 1
        assert "cell" in capsys.readouterr().err

    def test_bad_cell_budget_env_var(self, golden_file, capsys, monkeypatch):
        for raw in ("many", "0"):
            monkeypatch.setenv("LOTDP_MAX_CELLS", raw)
            assert cli.main(["solve", golden_file]) == 1
            assert f"LOTDP_MAX_CELLS must be a positive integer, got {raw!r}" in capsys.readouterr().err


class TestVerify:
    def test_file_agreement(self, golden_file, capsys):
        assert cli.main(["verify", golden_file]) == 0
        out = capsys.readouterr().out
        for line in ("dp: 35/2", "structural: 35/2", "grid: 35/2", "agreement: yes"):
            assert line in out

    @pytest.mark.parametrize("name", HAND_WRITTEN)
    def test_every_hand_written_instance_agrees(self, name, capsys, monkeypatch):
        # single mode runs the fill against the structural oracle, and frac's
        # n = 3, P = 11 and c_hold = 2 admit the grid oracle too; multi mode
        # runs the aggregated sweep against the duplication oracle.
        # long-window's windows reach M = 10**5, but its menus end at P = 5,
        # so the grid oracle runs there too
        monkeypatch.delenv("LOTDP_MAX_CELLS", raising=False)
        path = SOLVE_STDOUT / f"{name}.json"
        assert cli.main(["verify", str(path)]) == 0
        solvers = {
            "single": ["dp", "structural"],
            "multi": ["aggregated", "duplication"],
        }[json.loads(path.read_text())["mode"]]
        if name in ("frac", "long-window"):
            solvers.append("grid")
        solved = json.loads((SOLVE_STDOUT / f"{name}.out").read_text())
        objective = model.rational_from_json(solved["objective"])
        expected = "".join(f"{solver}: {objective}\n" for solver in solvers)
        out = capsys.readouterr()
        assert out.out == expected + "agreement: yes\n"
        assert out.err == ""

    @pytest.mark.parametrize(
        "lam, c_hold, M, objective",
        [(F(1, 7), 2, 11, "4983/14"), (F(1, 2), 2, 200, "463/4")],
        ids=["lambda-1/7", "windows-1-200"],
    )
    def test_grid_oracle_over_its_cap_is_left_out(
        self, tmp_path, capsys, monkeypatch, lam, c_hold, M, objective
    ):
        # n = 3, P = 12 and c_hold <= 2 admit the grid oracle, but den(lambda)
        # puts its enumeration above its candidate cap: at lambda = 1/2 the
        # menus, though cut at P = 12 from windows up to 200, hold 134
        # volumes each, and 134**3 > 2,000,000
        suppliers = (Supplier(3, 1, 1, M), Supplier(0, 2, 1, M), Supplier(5, 0, 1, M))
        inst = Instance(suppliers, P=12, lam=lam, c_hold=c_hold)
        path = write_instance(tmp_path / "small.json", inst)
        assert cli.main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert f"dp: {objective}" in out and f"structural: {objective}" in out
        assert "agreement: yes" in out
        assert "grid:" not in out
        # the solver's own cell cap is still a refusal
        monkeypatch.setenv("LOTDP_MAX_CELLS", "10")
        assert cli.main(["verify", path]) == 1
        assert "above the cap 10" in capsys.readouterr().err

    def test_cell_cap_also_bounds_the_duplication_oracle(self, tmp_path, capsys, monkeypatch):
        # solve fills the grids 1..L_count = 1..3, 153 cells; the duplication
        # oracle counts every grid 1..multi_h_limit = 1..8, 888 cells
        inst = Instance(suppliers=(Supplier(1, 1, 2, 5), Supplier(0, 2, 2, 5)), P=8, mode=MULTI)
        path = write_instance(tmp_path / "cap.json", inst)
        monkeypatch.setenv("LOTDP_MAX_CELLS", "200")
        assert cli.main(["solve", path]) == 0
        assert json.loads(capsys.readouterr().err)["table_cells_filled"] == 153
        assert cli.main(["verify", path]) == 1
        message = "duplication oracle: the sweep over H=1..8 needs 888 table cells, above the cap 200"
        assert capsys.readouterr() == ("", f"error: {message}\n")
        # the oracle raises the refusal itself, so a library caller reads the same
        with pytest.raises(ResourceLimitError) as refused:
            duplication_oracle(inst, max_cells=200)
        assert str(refused.value) == message

    def test_seed_batch(self, capsys):
        assert cli.main(["verify", "--seed-batch", "20", "--seed", "3"]) == 0
        assert "20/20 agree" in capsys.readouterr().out

    def test_seed_batch_without_a_seed_draws_seed_0(self, capsys, monkeypatch):
        drawn = []

        def recorded(rng, draw=cli.random_instance):
            drawn.append(draw(rng))
            return drawn[-1]

        monkeypatch.setattr(cli, "random_instance", recorded)
        for argv in (["--seed-batch", "3"], ["--seed-batch", "3", "--seed", "0"]):
            assert cli.main(["verify", *argv]) == 0
        rng = random.Random(0)
        assert drawn[:3] == drawn[3:] == [lotdp.random_instance(rng) for _ in range(3)]

    def test_seed_batch_names_the_instance_over_the_cell_cap(self, capsys, monkeypatch):
        # instance 31 of seed 0 needs 1,635 cells and the 31 before it fit
        # under 1,500: the batch stops there on one error line that names it
        monkeypatch.setenv("LOTDP_MAX_CELLS", "1500")
        assert cli.main(["verify", "--seed-batch", "40"]) == 1
        assert capsys.readouterr() == (
            "",
            "error: instance 31: the sweep over H=1..3 needs 1635 table cells, above the cap 1500\n",
        )

    def test_needs_some_input(self, capsys):
        assert cli.main(["verify"]) == 1

    def test_refuses_large_instances(self, tmp_path, capsys, monkeypatch):
        # verify refuses with the structural oracle's own cap, before any solve
        inst = Instance(suppliers=(Supplier(1, 1, 1, 3),) * 9, P=5)
        with pytest.raises(ResourceLimitError, match="cap is 8"):
            structural_oracle(inst)
        monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: pytest.fail("verify solved"))
        path = write_instance(tmp_path / "wide.json", inst)
        assert cli.main(["verify", path]) == 1
        assert capsys.readouterr() == (
            "",
            "error: verify enumerates 4**n assignments in single mode and refuses n > 8\n",
        )

    def test_verifies_a_multi_mode_instance_of_many_suppliers(self, tmp_path, capsys):
        # neither solve_multi nor the duplication oracle enumerates
        # assignments, so the single-mode size refusal does not apply
        suppliers = tuple(Supplier(alpha, 1, 1, 3) for alpha in range(1, 10))
        path = write_instance(tmp_path / "wide-multi.json", Instance(suppliers, P=7, mode=MULTI))
        assert cli.main(["verify", path]) == 0
        out = capsys.readouterr().out
        for line in ("aggregated: 81/4", "duplication: 81/4", "agreement: yes"):
            assert line in out

    def test_disagreement_exits_3(self, golden_file, capsys, monkeypatch):
        def skewed(inst):
            sol = structural_oracle(inst)
            return replace(sol, objective=sol.objective + 1)

        monkeypatch.setattr(cli, "structural_oracle", skewed)
        assert cli.main(["verify", golden_file]) == 3
        assert "disagreement" in capsys.readouterr().err
        # a seed batch names each instance it disagrees on
        assert cli.main(["verify", "--seed-batch", "2", "--seed", "3"]) == 3
        out, err = capsys.readouterr()
        assert out == "0/2 agree\n"
        assert err.count("disagreement:") == 2
        assert err.startswith("instance 0: {") and "\ninstance 1: {" in err

    def test_seed_batch_counts_a_failed_audit_and_goes_on(self, capsys, monkeypatch):
        # a backtrack that drops the last supplier when P = 7 breaks its own
        # plan's feasibility check on those instances only
        def walk(table, original=dp._chosen_indices):
            plan = original(table)
            return plan[:-1] if table.grid.demand_points - 1 == 7 * table.grid.denominator else plan

        monkeypatch.setattr(dp, "_chosen_indices", walk)
        rng = random.Random(1)
        failing = [i for i in range(50) if lotdp.random_instance(rng).P == 7]
        assert failing == [29, 38]
        assert cli.main(["verify", "--seed-batch", "50", "--seed", "1"]) == cli.EXIT_MISMATCH
        out, err = capsys.readouterr()
        assert out == "48/50 agree\n"
        named = [line for line in err.splitlines() if line.startswith("instance ")]
        assert [int(line.split()[1].rstrip(":")) for line in named] == failing
        assert err.count("  internal audit failed: total delivered volume") == 2
        assert "error:" not in err

    def test_multi_mode_agreement(self, multi_file, capsys):
        assert cli.main(["verify", multi_file]) == 0
        out = capsys.readouterr().out
        for line in ("aggregated: 17/2", "duplication: 17/2", "agreement: yes"):
            assert line in out

    def test_multi_mode_disagreement_exits_3(self, multi_file, capsys, monkeypatch):
        def skewed(inst, **kwargs):
            sol = duplication_oracle(inst, **kwargs)
            return replace(sol, objective=sol.objective + 1)

        monkeypatch.setattr(cli, "duplication_oracle", skewed)
        assert cli.main(["verify", multi_file]) == 3
        err = capsys.readouterr().err
        assert "disagreement" in err and "duplication: objective 19/2" in err


class TestGen:
    def test_same_seed_same_bytes(self, capsys):
        assert cli.main(["gen", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["gen", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first
        assert cli.main(["gen", "--seed", "10"]) == 0
        assert capsys.readouterr().out != first

    def test_supplier_count_flag(self, capsys):
        assert cli.main(["gen", "--n", "3", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["suppliers"]) == 3

    def test_generated_instances_solve(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        assert cli.main(["gen", "--seed", "5", "--out", str(path)]) == 0
        assert cli.main(["solve", str(path)]) == 0

    def test_infeasible_flag_round_trips_to_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        assert cli.main(["gen", "--seed", "5", "--infeasible", "--out", str(path)]) == 0
        assert cli.main(["solve", str(path)]) == 2


class TestBench:
    def test_sweep_with_explicit_values(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert cli.main(["bench", "--sweep", "P", "--values", "12,24", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,P,c_hold,cells,computed,wall_micros,objective_num,objective_den"
        assert len(lines) == 3
        assert lines[1].startswith("5,12,1,")
        assert lines[2].startswith("5,24,1,")

    @pytest.mark.parametrize(
        "sweep, columns",
        [
            ("P", [(5, 50, 1), (5, 100, 1), (5, 200, 1)]),
            ("n", [(2, 60, 1), (4, 60, 1), (8, 60, 1)]),
            ("c", [(5, 60, 1), (5, 60, 2), (5, 60, 3)]),
        ],
    )
    def test_sweep_with_default_values(self, sweep, columns, capsys):
        assert cli.main(["bench", "--sweep", sweep]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [tuple(int(x) for x in row.split(",")[:3]) for row in rows] == columns

    def test_rejects_junk_values(self, capsys):
        assert cli.main(["bench", "--sweep", "P", "--values", "12,x"]) == 1
        assert "--values" in capsys.readouterr().err

    def test_rejects_empty_values(self, capsys):
        # an empty list is refused, not read as "use the default sweep"
        assert cli.main(["bench", "--sweep", "P", "--values", ""]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --values must be comma-separated integers, got ''\n"

    @pytest.mark.parametrize(
        "sweep, values, message",
        [
            ("n", "3,0", "--values for --sweep n must be at least 1, got 0"),
            ("c", "2,0", "--values for --sweep c must be at least 1, got 0"),
            ("P", "12,-5", "--values for --sweep P must be at least 0, got -5"),
        ],
    )
    def test_rejects_values_below_the_sweeps_floor(self, sweep, values, message, capsys, monkeypatch):
        # each value is checked before the first solve, and the error names
        # the flag, not an instance the user never wrote
        calls = []
        monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: calls.append(args))
        assert cli.main(["bench", "--sweep", sweep, "--values", values]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"
        assert calls == []


class TestBadFiles:
    def refused(self, argv, capsys):
        assert cli.main(argv) == 1
        out = capsys.readouterr()
        assert out.err.startswith("error:") and out.err.count("error:") == 1
        assert "Traceback" not in out.out + out.err
        return out.err

    @pytest.mark.parametrize("command", ["solve", "gen", "bench"])
    def test_out_into_a_missing_directory_exits_1(self, command, golden_file, tmp_path, capsys):
        argv = {
            "solve": ["solve", golden_file],
            "gen": ["gen"],
            "bench": ["bench", "--sweep", "P", "--values", "12"],
        }[command]
        target = tmp_path / "missing" / "dir" / "o.json"
        err = self.refused(argv + ["--out", str(target)], capsys)
        assert str(target) in err and "No such file" in err
        assert not target.parent.exists()

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_unwritable_out_is_refused_before_any_solve(
        self, command, golden_file, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: calls.append(args))
        argv = {
            "solve": ["solve", golden_file],
            "bench": ["bench", "--sweep", "P", "--values", "12"],
        }[command]
        target = tmp_path / "missing" / "o.json"
        assert str(target) in self.refused(argv + ["--out", str(target)], capsys)
        assert calls == []

    def test_failed_solve_leaves_an_existing_out_file_alone(self, tmp_path, capsys):
        # demand 9 above the one window [1, 2]: the solve exits 2
        inst = Instance(suppliers=(Supplier(0, 1, 1, 2),), P=9)
        target = tmp_path / "o.json"
        target.write_text("kept\n")
        argv = ["solve", write_instance(tmp_path / "i.json", inst), "--out", str(target)]
        assert cli.main(argv) == cli.EXIT_INFEASIBLE
        assert capsys.readouterr().err.startswith("error:")
        assert target.read_text() == "kept\n"

    def test_writable_out_probe_leaves_no_file_behind(self, tmp_path, capsys):
        target = tmp_path / "o.json"
        inst = Instance(suppliers=(Supplier(0, 1, 1, 2),), P=9)
        argv = ["solve", write_instance(tmp_path / "i.json", inst), "--out", str(target)]
        assert cli.main(argv) == cli.EXIT_INFEASIBLE
        capsys.readouterr()
        assert not target.exists()

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_instance_file_not_in_utf8_exits_1(self, command, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        assert "not UTF-8" in self.refused([command, str(path)], capsys)

    def test_verify_refuses_a_file_with_a_seed_batch(self, golden_file, capsys):
        err = self.refused(["verify", golden_file, "--seed-batch", "2"], capsys)
        assert "either" in err

    def test_verify_refuses_a_file_with_a_seed(self, golden_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_verify_one", lambda *args: pytest.fail("verify solved"))
        err = self.refused(["verify", golden_file, "--seed", "7"], capsys)
        assert "--seed only with --seed-batch" in err


class TestUsageErrors:
    def usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_INPUT
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("error:") == 1
        return out.err

    @pytest.mark.parametrize(
        "argv", [["bench"], ["solve"], ["gen", "--n", "x"], ["frobnicate"], []]
    )
    def test_missing_or_malformed_arguments_exit_1(self, argv, capsys):
        self.usage_error(argv, capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--bound-max", "0"],
            ["gen", "--cmax", "0"],
            ["gen", "--pmax", "-1"],
            ["gen", "--alpha-max", "-1"],
            ["gen", "--beta-max", "-1"],
            ["gen", "--n", "0"],
            ["gen", "--n", "-2"],
            ["verify", "--seed-batch", "0"],
            ["verify", "--seed-batch", "-3"],
        ],
    )
    def test_out_of_range_arguments_exit_1(self, argv, capsys):
        assert f"{argv[1]}: must be at least" in self.usage_error(argv, capsys)

    def test_solve_has_no_trace_option(self, golden_file, capsys):
        # the per-H trace is the report's per_H on stderr
        assert "--trace" in self.usage_error(["solve", "--trace", golden_file], capsys)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "usage: lotdp" in capsys.readouterr().out


class TestCommandLineSurface:
    """``main`` adds arguments only to the subcommand its argv names; what
    it prints, returns and parses is that of ``build_parser()``, which adds
    every subcommand's arguments."""

    @staticmethod
    def outcome(run, capsys):
        try:
            result = ("returned", run())
        except SystemExit as exc:
            result = ("exited", exc.code)
        out = capsys.readouterr()
        return result, out.out, out.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["-h", "solve"],
            ["solve", "--help"],
            ["verify", "--help"],
            ["gen", "--help"],
            ["bench", "--help"],
            [],
            ["frobnicate"],
            ["sol", "FILE"],
            ["--pretty", "solve", "FILE"],
            ["--mode", "single", "solve", "FILE"],
            ["--", "solve", "FILE"],
            ["solve", "FILE", "extra"],
            ["solve"],
            ["bench"],
            ["verify", "--seed-batch"],
            ["solve", "--mode", "bogus", "FILE"],
            ["solve", "--trace", "FILE"],
            ["gen", "--n", "x"],
            ["verify", "--seed-batch", "0"],
            ["solve", "FILE"],
            ["solve", "--pretty", "--mode", "multi", "--out", "x.json", "FILE"],
            ["verify", "FILE"],
            ["verify", "--seed-batch", "3", "--seed", "2"],
            ["gen"],
            ["gen", "--n", "2", "--mode", "multi", "--infeasible", "--seed", "5"],
            ["bench", "--sweep", "P", "--values", "1,2"],
        ],
    )
    def test_main_parses_as_the_full_parser(self, argv, golden_file, capsys, monkeypatch):
        # each command hands back what it was parsed with
        for name in ("solve", "verify", "gen", "bench"):
            monkeypatch.setattr(cli, f"cmd_{name}", lambda args: vars(args))
        argv = [golden_file if arg == "FILE" else arg for arg in argv]

        def full():
            args = cli.build_parser().parse_args(argv)
            return args.func(args)

        assert self.outcome(lambda: cli.main(argv), capsys) == self.outcome(full, capsys)

    def test_a_parser_for_one_command_leaves_the_others_bare(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser("solve").parse_args(["gen", "--pmax", "3"])
        assert "unrecognized arguments: --pmax 3" in capsys.readouterr().err

    def test_dispatch_reads_the_patched_command(self, golden_file, monkeypatch):
        calls = []
        for name in ("cmd_solve", "cmd_gen"):
            monkeypatch.setattr(cli, name, lambda args, name=name: calls.append((name, args.command)) or 0)
        assert cli.main(["solve", golden_file]) == 0
        assert cli.main(["gen"]) == 0
        assert calls == [("cmd_solve", "solve"), ("cmd_gen", "gen")]


def test_module_entry_point(golden, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(golden)))
    proc = subprocess.run(
        [sys.executable, "-m", "lotdp", "solve", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["objective"] == {"num": 35, "den": 2}

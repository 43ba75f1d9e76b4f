import dataclasses
import json
import re

import numpy as np
import pytest

from ocpqp.alm import SolveReport
from ocpqp.bench import SpringMassConfig, gen_random_ocp, gen_spring_mass
from ocpqp.cli import main, parse_range
from ocpqp.model import OcpDims, save_problem


@pytest.fixture
def spring_file(tmp_path):
    p = gen_spring_mass(SpringMassConfig(masses=3, horizon=6, seed=0))
    path = tmp_path / "spring.ocpq"
    save_problem(p, path)
    return str(path)


class TestParsing:
    def test_parse_range(self):
        assert parse_range("10..70:10") == [10, 20, 30, 40, 50, 60, 70]
        assert parse_range("15..240:x2") == [15, 30, 60, 120, 240]
        assert parse_range("30") == [30]
        assert parse_range("1,4,8") == [1, 4, 8]

    @pytest.mark.parametrize("spec", ("0..8:x2", "15..240:x1", "15..240:x0", "-4..8:x2"))
    def test_geometric_sweep_that_cannot_grow_raises(self, spec):
        with pytest.raises(ValueError, match="cannot grow"):
            parse_range(spec)

    @pytest.mark.parametrize("spec", ("70..10", "10..70:-10", "10..70:0", "240..15:x2"))
    def test_sweep_that_runs_nothing_raises(self, spec):
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            parse_range(spec)

    @pytest.mark.parametrize("command", (
        ["--masses", "2"],
        ["--masses", "2", "--horizons", "4"],
    ))
    def test_bench_needs_a_run(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", *command, "--runs", "0"])
        assert exc.value.code == 2
        assert "--runs" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, spec", (
        ([], "--masses", "70..10"),
        (["--masses", "2"], "--horizons", "15..240:x1"),
        (["--masses", "2"], "--workers", "2..1"),
    ))
    def test_empty_sweep_is_a_usage_error(self, command, flag, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", *command, flag, spec, "--runs", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and flag in err and repr(spec) in err

    @pytest.mark.parametrize("command, flag, value", (
        (["--masses", "2", "--horizons", "2"], "--workers", "0"),
        (["--masses", "2,3", "--horizons", "2,4"], "--workers", "0"),
        (["--masses", "2", "--horizons", "2"], "--workers", "1,0"),
        (["--masses", "2"], "--horizons", "0"),
        (["--masses", "2"], "--horizons", "0,2"),
        (["--horizons", "2"], "--masses", "1"),
        (["--horizons", "2"], "--masses", "1,2"),
        (["--horizons", "2,4"], "--masses", "1"),
        (["--masses", "2", "--horizons", "2"], "--eps-abs", "0"),
        (["--masses", "2", "--horizons", "2"], "--eps-abs", "nan"),
        (["--masses", "2", "--horizons", "2"], "--seed0", "-1"),
    ))
    def test_rejected_value_is_a_usage_error(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", *command, flag, value, "--runs", "1"])
        assert exc.value.code == 2
        assert_usage_error(capsys.readouterr(), flag)


def assert_usage_error(captured, flag):
    """The output of one usage error that names ``flag``, and nothing else."""
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage:")
    errors = [line for line in lines if ": error: " in line]
    assert len(errors) == 1 and f"error: argument {flag}: " in errors[0]


@pytest.fixture
def bad_problem_files(tmp_path, spring_file):
    """Problem files that load_problem or the solver rejects, by kind."""
    body = open(spring_file, "rb").read()
    files = {"missing": tmp_path / "missing.ocpq", "directory": tmp_path}
    files["malformed"] = tmp_path / "malformed.json"
    files["malformed"].write_text("not a problem")
    files["truncated"] = tmp_path / "truncated.ocpq"
    files["truncated"].write_bytes(body[:-8])
    p = gen_spring_mass(SpringMassConfig(masses=3, horizon=6, seed=0))
    p.lin.stack[1, 0, 0] = np.nan
    files["non_finite"] = tmp_path / "non_finite.ocpq"
    save_problem(p, files["non_finite"])
    return {kind: str(path) for kind, path in files.items()}


REPORT_KEYS = {f.name for f in dataclasses.fields(SolveReport)}


class TestSolveCommand:
    def test_solve_writes_report(self, spring_file, tmp_path):
        report = tmp_path / "report.json"
        rc = main([
            "solve", "--problem", spring_file, "--eps-abs", "1e-8",
            "--report", str(report), "--solution",
        ])
        assert rc == 0
        doc = json.loads(report.read_text())
        # every SolveReport field under its own name, and nothing else
        assert set(doc) == REPORT_KEYS | {"x", "y", "lam"}
        assert doc["status"] == "solved"
        assert doc["dual_res"] <= 1e-8
        for key in ("factorizations", "full_factorizations", "stages_factored", "psi_blocks_factored"):
            assert isinstance(doc[key], int)
        assert doc["psi_order"] == "reversed"  # a new solver's first solve
        assert 0 < doc["full_factorizations"] <= doc["factorizations"]
        # no inner solve stalled, and every penalty is at least the cold start's
        assert doc["nondescent_breaks"] == doc["max_inner_hits"] == 0
        assert doc["max_penalty"] >= 20.0
        assert len(doc["x"]) == 6 * (6 + 2) + 6

    def test_report_without_solution(self, spring_file, tmp_path):
        report = tmp_path / "report.json"
        assert main(["solve", "--problem", spring_file, "--report", str(report)]) == 0
        assert set(json.loads(report.read_text())) == REPORT_KEYS

    def test_report_in_a_missing_directory_is_a_usage_error(self, spring_file, tmp_path,
                                                              capsys, monkeypatch):
        monkeypatch.setattr("ocpqp.cli.Solver", None)  # no solve may run
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--problem", spring_file,
                  "--report", str(tmp_path / "missing" / "report.json")])
        assert exc.value.code == 2
        assert_usage_error(capsys.readouterr(), "--report")

    def test_json_problem_is_accepted(self, tmp_path):
        p = gen_random_ocp(OcpDims(2, 2, 1, 1, 1), seed=0, feasibility_margin=1.0)
        path = tmp_path / "prob.json"
        save_problem(p, path, fmt="json")
        rc = main(["solve", "--problem", str(path)])
        assert rc == 0


    @pytest.mark.parametrize("argv, flag", (
        (["--eps-abs", "0", "--eps-rel", "0"], "--eps-abs/--eps-rel"),
        (["--eps-abs", "-1"], "--eps-abs/--eps-rel"),
        (["--workers", "0"], "--workers"),
    ))
    def test_rejected_value_is_a_usage_error(self, spring_file, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--problem", spring_file, *argv])
        assert exc.value.code == 2
        assert_usage_error(capsys.readouterr(), flag)

    def test_diagonal_variant_of_a_dense_problem_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "dense.ocpq"
        save_problem(gen_random_ocp(OcpDims(3, 2, 1, 1, 1), seed=0), path)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--problem", str(path), "--variant", "diagonal"])
        assert exc.value.code == 2
        assert_usage_error(capsys.readouterr(), "--problem/--variant")

    def test_refused_problem_leaves_no_report_file(self, tmp_path, capsys):
        # the report path is checked before the solver refuses the problem,
        # and that check leaves no empty file behind
        path = tmp_path / "dense.ocpq"
        save_problem(gen_random_ocp(OcpDims(3, 2, 1, 1, 1), seed=0), path)
        report = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--problem", str(path), "--variant", "diagonal",
                  "--report", str(report)])
        assert exc.value.code == 2
        assert_usage_error(capsys.readouterr(), "--problem/--variant")
        assert not report.exists()


@pytest.mark.parametrize("command", ("solve", "verify"))
@pytest.mark.parametrize("kind", ("missing", "directory", "malformed", "truncated", "non_finite"))
def test_bad_problem_file_is_a_usage_error(command, kind, bad_problem_files, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--problem", bad_problem_files[kind]])
    assert exc.value.code == 2
    assert_usage_error(capsys.readouterr(), "--problem")


class TestVerifyCommand:
    def test_rejected_eps_is_a_usage_error(self, spring_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--problem", spring_file, "--eps-abs", "0"])
        assert exc.value.code == 2
        assert_usage_error(capsys.readouterr(), "--eps-abs")

    def test_residual_oracle(self, spring_file):
        assert main(["verify", "--problem", spring_file, "--oracle", "residual"]) == 0

    def test_riccati_oracle(self, tmp_path):
        p = gen_random_ocp(OcpDims(3, 2, 1, 0, 0), seed=1, feasibility_margin=np.inf)
        path = tmp_path / "lqr.ocpq"
        save_problem(p, path)
        assert main(["verify", "--problem", str(path), "--oracle", "riccati"]) == 0

    def test_enumerate_oracle(self, tmp_path):
        p = gen_random_ocp(OcpDims(2, 2, 1, 1, 1), seed=2, feasibility_margin=0.8)
        path = tmp_path / "tiny.ocpq"
        save_problem(p, path)
        assert main(["verify", "--problem", str(path), "--oracle", "enumerate"]) == 0

    @pytest.mark.parametrize("dims, margin, method", (
        (OcpDims(3, 2, 1, 0, 0), np.inf, "riccati"),  # no finite bound
        (OcpDims(2, 2, 1, 1, 1), 0.8, "enumerate"),  # n = 8 <= 60, m = 3 <= 14
        (OcpDims(2, 20, 1, 2, 2), 0.8, "residual"),  # n = 62 > 60
        (OcpDims(5, 2, 1, 3, 0), 0.8, "residual"),  # m = 15 > 14
    ), ids=("riccati", "enumerate", "residual_n", "residual_m"))
    def test_default_oracle(self, tmp_path, capsys, dims, margin, method):
        path = tmp_path / "prob.ocpq"
        save_problem(gen_random_ocp(dims, seed=2, feasibility_margin=margin), path)
        assert main(["verify", "--problem", str(path)]) == 0
        assert f"verification PASS ({method})" in capsys.readouterr().out

    def test_intractable_returns_3(self, spring_file):
        assert main(["verify", "--problem", spring_file, "--oracle", "enumerate"]) == 3


class TestBenchCommands:
    def test_spring_mass_csv(self, tmp_path):
        out = tmp_path / "res.csv"
        rc = main([
            "bench", "--masses", "2,3", "--horizons", "4",
            "--runs", "2", "--out", str(out), "--gnuplot",
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("masses,horizon,")
        assert [line.split(",")[:2] for line in lines[1:]] == [["2", "4"], ["3", "4"]]
        assert (tmp_path / "res.csv.gp").exists()

    def test_scaling(self, capsys):
        rc = main([
            "bench", "--masses", "2", "--horizons", "4..8:x2",
            "--runs", "1", "--workers", "1",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[1:]] == ["M=2,N=4", "M=2,N=8"]

    def test_sweeps_every_worker_count_mass_count_and_horizon(self, capsys):
        rc = main([
            "bench", "--masses", "2,3", "--horizons", "4,8", "--workers", "1,2", "--runs", "1",
        ])
        assert rc == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(row[0], row[2]) for row in rows] == [
            (f"M={m},N={N}", w) for w in "12" for m in (2, 3) for N in (4, 8)
        ]

    def test_out_in_a_missing_directory_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("ocpqp.bench.run_case", None)  # no case may run
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--masses", "2", "--horizons", "2", "--runs", "1",
                  "--out", str(tmp_path / "missing" / "res.csv")])
        assert exc.value.code == 2
        assert_usage_error(capsys.readouterr(), "--out")

    def test_gnuplot_without_out_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("ocpqp.bench.run_case", None)  # no case may run
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--masses", "2", "--horizons", "2", "--runs", "1", "--gnuplot"])
        assert exc.value.code == 2
        assert_usage_error(capsys.readouterr(), "--gnuplot")

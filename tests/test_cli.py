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
        ["spring-mass", "--masses", "2"],
        ["scaling", "--masses", "2", "--horizons", "4"],
    ))
    def test_bench_needs_a_run(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", *command, "--runs", "0"])
        assert exc.value.code == 2
        assert "--runs" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, spec", (
        (["spring-mass"], "--masses", "70..10"),
        (["scaling", "--masses", "2"], "--horizons", "15..240:x1"),
        (["scaling", "--masses", "2"], "--workers", "2..1"),
    ))
    def test_empty_sweep_is_a_usage_error(self, command, flag, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", *command, flag, spec, "--runs", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and flag in err and repr(spec) in err


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
        assert 0 < doc["full_factorizations"] <= doc["factorizations"]
        # no inner solve stalled, and every penalty is at least the cold start's
        assert doc["nondescent_breaks"] == doc["max_inner_hits"] == 0
        assert doc["max_penalty"] >= 20.0
        assert len(doc["x"]) == 6 * (6 + 2) + 6

    def test_report_without_solution(self, spring_file, tmp_path):
        report = tmp_path / "report.json"
        assert main(["solve", "--problem", spring_file, "--report", str(report)]) == 0
        assert set(json.loads(report.read_text())) == REPORT_KEYS

    def test_json_problem_is_accepted(self, tmp_path):
        p = gen_random_ocp(OcpDims(2, 2, 1, 1, 1), seed=0, feasibility_margin=1.0)
        path = tmp_path / "prob.json"
        save_problem(p, path, fmt="json")
        rc = main(["solve", "--problem", str(path)])
        assert rc == 0


class TestVerifyCommand:
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

    def test_intractable_returns_3(self, spring_file):
        assert main(["verify", "--problem", spring_file, "--oracle", "enumerate"]) == 3


class TestBenchCommands:
    def test_spring_mass_csv(self, tmp_path):
        out = tmp_path / "res.csv"
        rc = main([
            "bench", "spring-mass", "--masses", "2,3", "--horizon", "4",
            "--runs", "2", "--out", str(out), "--gnuplot",
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert (tmp_path / "res.csv.gp").exists()

    def test_scaling(self, tmp_path, capsys):
        rc = main([
            "bench", "scaling", "--masses", "2", "--horizons", "4..8:x2",
            "--runs", "1", "--workers", "1",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len([l for l in lines if "spring" not in l and "M=2" in l]) == 2

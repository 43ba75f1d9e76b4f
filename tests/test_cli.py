import json

import numpy as np
import pytest

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


class TestSolveCommand:
    def test_solve_writes_report(self, spring_file, tmp_path):
        report = tmp_path / "report.json"
        rc = main([
            "solve", "--problem", spring_file, "--eps-abs", "1e-8",
            "--report", str(report), "--solution",
        ])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["status"] == "solved"
        assert doc["dual_residual"] <= 1e-8
        assert "blas_threads" in doc
        for key in ("factorizations", "full_factorizations", "stages_factored"):
            assert isinstance(doc[key], int)
        assert 0 < doc["full_factorizations"] <= doc["factorizations"]
        assert len(doc["x"]) == 6 * (6 + 2) + 6

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

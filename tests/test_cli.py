"""Tests for the command-line front end."""

import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import uqcm.cli as cli


def _run(capsys, argv):
    status = cli.main(argv)
    out = capsys.readouterr().out
    return status, out


def _schema():
    text = resources.files("uqcm").joinpath("report_schema.json").read_text()
    return json.loads(text)


class TestTable:
    def test_json_is_valid_and_correct(self, capsys):
        status, out = _run(capsys, ["table", "--d", "2", "--n", "1", "--m", "2"])
        assert status == 0
        payload = json.loads(out)
        jsonschema.validate(payload, _schema())
        rationals = [row["closed_rational"] for row in payload["rows"]]
        assert rationals == ["5/6", "2/3"]
        assert all(row["abs_diff"] < 1e-10 for row in payload["rows"])

    def test_csv_header_stable(self, capsys):
        status, out = _run(
            capsys, ["table", "--d", "2", "--n", "1", "--m", "2", "--format", "csv"]
        )
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "L,numeric,closed_rational,closed_float,abs_diff"
        assert len(lines) == 3

    def test_perfect_cloning_rows(self, capsys):
        _, out = _run(capsys, ["table", "--d", "2", "--n", "2", "--m", "2"])
        payload = json.loads(out)
        assert all(row["closed_rational"] == "1/1" for row in payload["rows"])

    def test_single_level_restriction(self, capsys):
        _, out = _run(capsys, ["table", "--d", "2", "--n", "1", "--m", "3", "--l", "2"])
        payload = json.loads(out)
        jsonschema.validate(payload, _schema())
        assert [row["L"] for row in payload["rows"]] == [2]
        # The sweep stopped at L gives the same row as the full table.
        _, full = _run(capsys, ["table", "--d", "2", "--n", "1", "--m", "3"])
        assert payload["rows"][0] == json.loads(full)["rows"][1]

    def test_invalid_dimension_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--d", "1", "--n", "1", "--m", "2"])
        assert exc.value.code == 2

    def test_invalid_level_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--d", "2", "--n", "1", "--m", "2", "--l", "5"])
        assert exc.value.code == 2

    def test_over_fast_path_cap_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--d", "12", "--n", "2", "--m", "12"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "fast-path cap" in err
        assert err.startswith("usage: uqcm table ")


class TestVerify:
    def test_full_mode_passes(self, capsys):
        status, out = _run(
            capsys,
            ["verify", "--d", "2", "--n", "1", "--m", "3", "--trials", "5", "--seed", "7"],
        )
        assert status == 0
        payload = json.loads(out)
        jsonschema.validate(payload, _schema())
        assert payload["mode"] == "full"
        assert payload["pass"] is True
        names = {check["name"] for check in payload["checks"]}
        assert "unified-vs-oracle" in names
        assert "covariance" in names

    def test_trivial_case_distances_zero(self, capsys):
        status, out = _run(
            capsys, ["verify", "--d", "2", "--n", "2", "--m", "2", "--trials", "3"]
        )
        assert status == 0
        payload = json.loads(out)
        assert all(c["max_distance"] < 1e-10 for c in payload["checks"])

    def test_over_cap_falls_back_with_warning(self, capsys):
        status = cli.main(["verify", "--d", "3", "--n", "1", "--m", "5", "--trials", "2"])
        captured = capsys.readouterr()
        assert status == 0
        assert "oracle" in captured.err
        payload = json.loads(captured.out)
        assert payload["mode"] == "fast-path-only"
        assert {c["name"] for c in payload["checks"]} == {
            "pairwise-werner-fan",
            "pairwise-werner-unified",
            "pairwise-fan-unified",
        }

    def test_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DISTANCE_TOL", 1e-30)
        status, out = _run(
            capsys, ["verify", "--d", "2", "--n", "1", "--m", "2", "--trials", "2"]
        )
        assert status == 1
        assert json.loads(out)["pass"] is False

    def test_worst_seed_reproduces_the_check(self, capsys):
        argv = ["verify", "--d", "2", "--n", "1", "--m", "3"]
        _, out = _run(capsys, argv + ["--trials", "4", "--seed", "11"])
        payload = json.loads(out)
        jsonschema.validate(payload, _schema())
        checks = payload["checks"]
        assert any(c["worst_trial"] > 0 for c in checks)
        for seed in sorted({c["worst_seed"] for c in checks}):
            _, rerun = _run(capsys, argv + ["--trials", "1", "--seed", str(seed)])
            again = {c["name"]: c["max_distance"] for c in json.loads(rerun)["checks"]}
            for check in checks:
                if check["worst_seed"] == seed:
                    assert check["worst_seed"] == 11 + check["worst_trial"]
                    assert again[check["name"]] == check["max_distance"]

    def test_csv_header_stable(self, capsys):
        status, out = _run(
            capsys,
            ["verify", "--d", "2", "--n", "1", "--m", "2", "--trials", "2",
             "--format", "csv"],
        )
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "name,max_distance,worst_trial,worst_seed,threshold,pass"
        assert len(lines) == 8

    def test_bad_trials_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--d", "2", "--n", "1", "--m", "2", "--trials", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: uqcm verify ")
        assert "--trials must be positive" in err

    def test_over_fast_path_cap_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--d", "12", "--n", "2", "--m", "12", "--trials", "1"])
        assert exc.value.code == 2
        assert "fast-path cap" in capsys.readouterr().err


class TestAsymSweep:
    def test_sweep_shape_and_endpoints(self, capsys):
        status, out = _run(capsys, ["asym-sweep", "--d", "2", "--sweep-points", "5"])
        assert status == 0
        payload = json.loads(out)
        jsonschema.validate(payload, _schema())
        rows = payload["rows"]
        assert len(rows) == 5
        assert rows[0]["ratio"] == 0.0
        assert rows[0]["fidelity_a"] == pytest.approx(1.0, abs=1e-12)
        assert rows[0]["fidelity_b"] == pytest.approx(0.5, abs=1e-12)
        assert rows[-1]["ratio"] is None
        assert rows[-1]["fidelity_a"] == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_point_matches_reference(self, capsys):
        _, out = _run(capsys, ["asym-sweep", "--d", "2", "--sweep-points", "51"])
        payload = json.loads(out)
        middle = payload["rows"][25]
        assert middle["ratio"] == 1.0
        reference = payload["symmetric_reference"]
        assert reference["closed_rational"] == "5/6"
        assert middle["fidelity_a"] == pytest.approx(reference["closed_float"], abs=1e-10)
        assert middle["fidelity_b"] == pytest.approx(reference["closed_float"], abs=1e-10)

    def test_csv_serializes_endpoint_ratio(self, capsys):
        _, out = _run(
            capsys, ["asym-sweep", "--d", "2", "--sweep-points", "3", "--format", "csv"]
        )
        lines = out.splitlines()
        assert lines[0] == "ratio,alpha,beta,fidelity_a,fidelity_b"
        assert lines[-1].startswith("inf,")

    def test_single_point_mode(self, capsys):
        status, out = _run(
            capsys, ["asym-sweep", "--d", "3", "--alpha", "0.6", "--beta", "0.8"]
        )
        assert status == 0
        payload = json.loads(out)
        jsonschema.validate(payload, _schema())
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["ratio"] == pytest.approx(0.8 / 0.6)

    def test_half_specified_point_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["asym-sweep", "--d", "2", "--alpha", "0.5"])
        assert exc.value.code == 2

    def test_conflicting_flags_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                [
                    "asym-sweep", "--d", "2",
                    "--alpha", "0.5", "--beta", "0.5",
                    "--sweep-points", "7",
                ]
            )
        assert exc.value.code == 2


class TestIdentityCheck:
    def test_default_grid_passes(self, capsys):
        status, out = _run(capsys, ["identity-check"])
        assert status == 0
        payload = json.loads(out)
        jsonschema.validate(payload, _schema())
        assert payload["all_equal"] is True
        assert payload["note"]
        assert all(r["printed_summand_evaluable"] is False for r in payload["rows"])

    def test_single_point(self, capsys):
        status, out = _run(capsys, ["identity-check", "--d", "2", "--n", "1", "--m", "2"])
        assert status == 0
        payload = json.loads(out)
        assert payload["rows"] == [
            {
                "d": 2,
                "n_in": 1,
                "m_out": 2,
                "lhs": "5/6",
                "rhs": "5/6",
                "equal": True,
                "printed_summand_evaluable": False,
            }
        ]

    def test_csv_header(self, capsys):
        _, out = _run(capsys, ["identity-check", "--format", "csv", "--d-max", "2"])
        assert out.splitlines()[0] == (
            "d,n_in,m_out,lhs,rhs,equal,printed_summand_evaluable"
        )

    def test_empty_grid_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["identity-check", "--m-max", "0"])
        assert exc.value.code == 2

    def test_mixed_point_and_grid_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["identity-check", "--d", "2", "--n", "1", "--m", "2", "--d-max", "3"])
        assert exc.value.code == 2


class TestOutputHandling:
    def test_byte_identical_reruns(self, capsys):
        argv = ["verify", "--d", "2", "--n", "1", "--m", "2", "--trials", "4", "--seed", "3"]
        _, first = _run(capsys, argv)
        _, second = _run(capsys, argv)
        assert first == second

    def test_output_file_written(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        status = cli.main(
            ["table", "--d", "2", "--n", "1", "--m", "2", "--output", str(target)]
        )
        assert status == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(target.read_text())
        assert payload["command"] == "table"

    def test_output_dir_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("UQCM_OUTPUT_DIR", str(tmp_path))
        cli.main(["identity-check", "--d-max", "2", "--output", "grid.json"])
        assert (tmp_path / "grid.json").exists()

    def test_output_dir_created_if_missing(self, capsys, tmp_path, monkeypatch):
        # a fresh output dir must be materialized, not crash open()
        fresh = tmp_path / "not" / "yet" / "there"
        monkeypatch.setenv("UQCM_OUTPUT_DIR", str(fresh))
        status = cli.main(
            ["table", "--d", "2", "--n", "1", "--m", "2", "--output", "t.json"]
        )
        assert status == 0
        assert (fresh / "t.json").exists()


class TestConsoleScript:
    def test_python_dash_m_runs_without_install(self):
        proc = subprocess.run(
            [sys.executable, "-m", "uqcm", "table", "--d", "2", "--n", "1", "--m", "3"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parents[1],
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["command"] == "table"
        assert [row["L"] for row in payload["rows"]] == [1, 2, 3]

    def test_entry_point_installed(self):
        exe = shutil.which("uqcm")
        assert exe is not None
        proc = subprocess.run(
            [exe, "table", "--d", "2", "--n", "1", "--m", "2", "--format", "csv"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "L,numeric,closed_rational,closed_float,abs_diff"

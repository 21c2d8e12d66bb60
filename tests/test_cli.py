"""Tests for the command-line front end."""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import uqcm.cli as cli
from uqcm import machines, symmetric


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

    @pytest.mark.parametrize("m", [1050, 2100])
    def test_unified_keeps_precision_at_many_copies(self, capsys, m):
        # The pair factor 2^-(m-1)/2 squared would be subnormal here.
        status, out = _run(capsys, ["table", "--d", "2", "--n", "1", "--m", str(m),
                                    "--machine", "unified", "--l", "1"])
        assert status == 0
        assert json.loads(out)["rows"][0]["abs_diff"] <= 1e-10

    def test_many_levels_enumerate_without_recursion(self, capsys):
        status, out = _run(capsys, ["table", "--d", "1200", "--n", "1", "--m", "1"])
        assert status == 0
        rows = json.loads(out)["rows"]
        assert [(r["L"], r["closed_rational"]) for r in rows] == [(1, "1/1")]
        assert rows[0]["numeric"] == pytest.approx(1.0, abs=1e-12)


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
        jsonschema.validate(payload, _schema())
        assert payload["mode"] == "fast-path-only"
        assert {c["name"] for c in payload["checks"]} == {
            "pairwise-werner-fan",
            "pairwise-werner-unified",
            "pairwise-fan-unified",
            "closed-form",
        }

    def test_closed_form_check_reproduces_from_its_worst_seed(self, capsys):
        argv = ["verify", "--d", "3", "--n", "2", "--m", "5"]
        status, out = _run(capsys, argv + ["--trials", "3", "--seed", "8"])
        assert status == 0
        check = {c["name"]: c for c in json.loads(out)["checks"]}["closed-form"]
        assert check["pass"] and check["threshold"] == 1e-10
        assert check["max_distance"] < 1e-10
        assert check["worst_seed"] == 8 + check["worst_trial"]
        seed = str(check["worst_seed"])
        _, rerun = _run(capsys, argv + ["--trials", "1", "--seed", seed])
        again = {c["name"]: c for c in json.loads(rerun)["checks"]}["closed-form"]
        assert again["max_distance"] == check["max_distance"]

    def test_full_mode_runs_no_closed_form_check(self, capsys):
        _, out = _run(capsys, ["verify", "--d", "2", "--n", "1", "--m", "2", "--trials", "1"])
        payload = json.loads(out)
        assert payload["mode"] == "full"
        assert "closed-form" not in {c["name"] for c in payload["checks"]}

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

    def test_whole_factor_over_cap_exits_2_before_allocating(self, capsys):
        # `table` reaches (10,2,10); `verify` scatters the whole 92378 x 24310 J.
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                cli.main(["verify", "--d", "10", "--n", "2", "--m", "10", "--trials", "1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: uqcm verify ")
        assert "92378 x 24310" in err and "fast-path cap" in err
        assert peak < 1_000_000


    @pytest.mark.parametrize("d,n,m,dim_out", [(8, 7, 8, 6435), (10, 9, 10, 92378)])
    def test_dense_densities_over_cap_exit_2_before_allocating(
        self, capsys, monkeypatch, d, n, m, dim_out
    ):
        # The factors are small (6435 x 8, 92378 x 10), but every pairwise
        # check reads each machine's dim_out x dim_out density.  A rule that
        # let them through must fail here, not build gigabytes of densities.
        def refuse(*args):
            raise AssertionError("verify ran a machine past its cap check")

        monkeypatch.setattr(cli, "run_machine", refuse)
        argv = ["verify", "--d", str(d), "--n", str(n), "--m", str(m), "--trials", "1"]
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{dim_out} x {dim_out}" in err and "fast-path cap" in err
        assert peak < 1_000_000

    def test_budget_counts_what_a_trial_allocates(self, capsys, monkeypatch):
        # A cap equal to the count puts (5,2,7) right at it, and one
        # fast-path-only trial, tables built inside the traced span, stays
        # within it.  Its three 330 x 330 densities alone are far above the
        # 330 x 126 factor the rule used to count.
        spec = machines.CloneSpec(5, 2, 7)
        counted = machines.check_fast_path(spec, joint=True)
        for module in (symmetric, machines):
            monkeypatch.setattr(module, "FAST_PATH_CAP", counted)
        for cached in (symmetric._counts_table, symmetric.split_table,
                       symmetric.log_factorials):
            cached.cache_clear()
        tracemalloc.start()
        try:
            status, out = _run(capsys, ["verify", "--d", "5", "--n", "2", "--m", "7",
                                        "--trials", "1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 0
        assert json.loads(out)["mode"] == "fast-path-only"
        assert 16 * 3 * spec.dim_out**2 < peak <= 16 * counted

    def test_dense_oracle_arrays_over_cap_fall_back(self, capsys):
        # d^(2M-N) = 4096 fits the oracle cap, but the oracle checks would
        # hold 4.5 dense 4096 x 4096 arrays (1.2 GB), above the fast-path cap.
        tracemalloc.start()
        try:
            status = cli.main(["verify", "--d", "2", "--n", "12", "--m", "12",
                               "--trials", "1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert status == 0
        assert "4096 x 4096" in captured.err and "fast-path cap" in captured.err
        payload = json.loads(captured.out)
        jsonschema.validate(payload, _schema())
        assert payload["mode"] == "fast-path-only"
        assert payload["pass"] is True
        assert peak < 1_000_000

    def test_full_mode_budget_counts_the_dense_oracle_arrays(self, capsys, monkeypatch):
        # A cap equal to the full-mode count at (2,9,9) keeps full mode on, and
        # one trial, with the uqcm tables built inside the traced span, stays
        # within it; one entry less and the same trial falls back.
        spec = machines.CloneSpec(2, 9, 9)
        counted = machines.full_mode_entries(spec)
        argv = ["verify", "--d", "2", "--n", "9", "--m", "9", "--trials", "1"]
        _run(capsys, argv)  # warm-up: lazy imports are not part of a trial
        for module in (symmetric, machines, cli):
            monkeypatch.setattr(module, "FAST_PATH_CAP", counted)
        for cached in (symmetric._counts_table, symmetric.split_table,
                       symmetric.log_factorials, symmetric._embed_isometry):
            cached.cache_clear()
        tracemalloc.start()
        try:
            status, out = _run(capsys, argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 0
        assert json.loads(out)["mode"] == "full"
        assert 16 * 4 * 512**2 < peak <= 16 * counted

        monkeypatch.setattr(cli, "FAST_PATH_CAP", counted - 1)
        status, out = _run(capsys, argv)
        assert status == 0
        assert json.loads(out)["mode"] == "fast-path-only"

    def test_benchmark_oracle_configs_stay_in_full_mode(self):
        # Every d^M <= 343 point with n < m that fits the oracle cap.
        configs = [
            machines.CloneSpec(d, n, m)
            for d in range(2, 9)
            for m in range(2, 10)
            if d**m <= 343
            for n in range(1, m)
            if d ** (2 * m - n) <= cli.ORACLE_CAP
        ]
        assert len(configs) == 45
        assert all(machines.full_mode_entries(s) <= cli.FAST_PATH_CAP for s in configs)


class TestAsymSweep:
    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_sweep_lies_on_cerf_optimal_curve(self, capsys, d):
        # Cerf's optimal 1 -> 2 trade-off: with nu^2 = alpha^2 + beta^2 +
        # 2 alpha beta / d, p = alpha / nu and q = beta / nu,
        # F_a = 1 - (d-1) q^2 / d and F_b = 1 - (d-1) p^2 / d.
        _, out = _run(capsys, ["asym-sweep", "--d", str(d)])
        rows = json.loads(out)["rows"]
        assert len(rows) == 51
        worst = 0.0
        for row in rows:
            alpha, beta = row["alpha"], row["beta"]
            nu_sq = alpha**2 + beta**2 + 2 * alpha * beta / d
            f_a = 1 - (d - 1) * beta**2 / (d * nu_sq)
            f_b = 1 - (d - 1) * alpha**2 / (d * nu_sq)
            worst = max(worst, abs(row["fidelity_a"] - f_a), abs(row["fidelity_b"] - f_b))
        assert worst < 1e-12

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

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_weight_exits_2(self, capsys, flag, bad):
        weights = {"--alpha": "1", "--beta": "1", flag: bad}
        # "--alpha=-inf": a bare "-inf" would parse as an unknown option.
        argv = ["asym-sweep", "--d", "3"] + [f"{k}={v}" for k, v in weights.items()]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: uqcm asym-sweep ")
        assert "non-finite" in err

    def test_dimension_over_oracle_cap_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["asym-sweep", "--d", "17", "--sweep-points", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: uqcm asym-sweep ")
        assert "oracle cap" in err

    def test_dimension_at_oracle_cap_runs(self, capsys):
        # 16^3 = 4096 amplitudes, exactly the cap.
        status, out = _run(capsys, ["asym-sweep", "--d", "16", "--sweep-points", "3"])
        assert status == 0
        assert len(json.loads(out)["rows"]) == 3

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


class TestSeed:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--d", "2", "--n", "1", "--m", "3"],
            ["verify", "--d", "2", "--n", "1", "--m", "2", "--trials", "1"],
            ["asym-sweep", "--d", "2"],
            ["identity-check"],
        ],
    )
    @pytest.mark.parametrize("seed", ["-1", "-5"])
    def test_negative_seed_is_a_usage_error(self, capsys, argv, seed):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: uqcm {argv[0]} ")
        assert "argument --seed: must be nonnegative" in err

    def test_non_integer_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--d", "2", "--n", "1", "--m", "3", "--seed", "x"])
        assert exc.value.code == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err

    def test_schema_rejects_negative_seeds(self, capsys):
        _, out = _run(capsys, ["verify", "--d", "2", "--n", "1", "--m", "2", "--trials", "1"])
        payload = json.loads(out)
        jsonschema.validate(payload, _schema())
        for broken in ({**payload, "config": {**payload["config"], "seed": -1}},
                       {**payload, "checks": [{**payload["checks"][0], "worst_seed": -1}]}):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(broken, _schema())


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

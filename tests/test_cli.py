"""Tests for the command-line front end."""

import argparse
import csv
import fractions
import functools
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqcm.cli as cli
from uqcm import combinatorics, machines, symmetric
from uqcm.hilbert import FullDensity, PureState, random_pure_state, random_unitary
from uqcm.symmetric import SymDensity

from reference import clear_caches, dense_matrix, trace_distance_matrices


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

    @pytest.mark.parametrize("machine", machines.MACHINES)
    def test_a_cold_run_builds_three_log_factorial_vectors(self, capsys, monkeypatch,
                                                            machine):
        # Every machine's weight table gathers its pair term from the level-M
        # vector through the split index and reads the input and ancilla
        # terms off the (d, N) and (d, M-N) vectors; nothing else builds one.
        built = []
        original = symmetric.log_factorial_sums.__wrapped__

        @functools.lru_cache(maxsize=None)
        def spy(d, total):
            built.append((d, total))
            return original(d, total)

        for module in (symmetric, machines):
            monkeypatch.setattr(module, "log_factorial_sums", spy)
        clear_caches()
        argv = ["table", "--d", "5", "--n", "2", "--m", "8", "--machine", machine]
        assert _run(capsys, argv)[0] == 0
        assert sorted(built) == [(5, 2), (5, 6), (5, 8)]

    @pytest.mark.parametrize("machine", machines.MACHINES)
    def test_a_cold_run_pins_only_the_input_count_table(self, capsys, machine):
        # The input (5,2), ancilla (5,6) and level M-1 (5,7) bases all
        # differ here.  The split index and the ladder table each build
        # the count table that only they read and release it, so the
        # cache is left with the input basis's, which every call reads.
        clear_caches()
        argv = ["table", "--d", "5", "--n", "2", "--m", "8", "--machine", machine]
        assert _run(capsys, argv)[0] == 0
        assert symmetric.occupation_counts.cache_info().currsize == 1
        hits = symmetric.occupation_counts.cache_info().hits
        symmetric.occupation_counts(5, 2)
        assert symmetric.occupation_counts.cache_info().hits == hits + 1

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

    @pytest.mark.parametrize("machine", machines.MACHINES)
    def test_a_numeric_failure_exits_1_with_one_line(self, machine):
        # At N = 2100 sqrt(multinomial) overflows (ROADMAP item 8); the
        # machine's own check raises, and the CLI reports that alone.
        proc = subprocess.run(
            [sys.executable, "-m", "uqcm", "table", "--d", "2", "--n", "2100",
             "--m", "2101", "--machine", machine],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parents[1],
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("uqcm: error: ")
        assert "Traceback" not in proc.stderr

    def test_fan_norm_check_is_a_value_error(self, capsys, monkeypatch):
        # A joint state off unit norm is a numeric failure, not a usage error.
        monkeypatch.setattr(machines, "_fan_weights", lambda d, n, m: np.full((2, 3), 0.5))
        argv = ["table", "--d", "2", "--n", "1", "--m", "3", "--machine", "fan"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("uqcm: error: amplitude-form joint state has norm ")
        assert err.count("\n") == 1

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
        assert [c["name"] for c in payload["checks"]] == [
            "pairwise-bound-werner-fan",
            "pairwise-bound-werner-unified",
            "pairwise-bound-fan-unified",
            "covariance-bound",
            "symmetric-support",
            "werner-vs-oracle",
            "unified-vs-oracle",
        ]

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
        assert "oracle cap" in captured.err
        assert "skipping the covariance and oracle checks" in captured.err
        payload = json.loads(captured.out)
        jsonschema.validate(payload, _schema())
        assert payload["mode"] == "fast-path-only"
        assert [c["name"] for c in payload["checks"]] == [
            "pairwise-bound-werner-fan",
            "pairwise-bound-werner-unified",
            "pairwise-bound-fan-unified",
            "closed-form",
        ]

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

    def test_tables_over_cap_exit_2_before_allocating(self, capsys, monkeypatch):
        # `table` reaches (10,3,11); `verify` builds three 220 x 24310 tables
        # beside the arrays that build them, which do not fit, so it must
        # fail here, not run.
        def refuse(*args):
            raise AssertionError("verify ran a machine past its cap check")

        monkeypatch.setattr(cli, "run_machine", refuse)
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                cli.main(["verify", "--d", "10", "--n", "3", "--m", "11", "--trials", "1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: uqcm verify ")
        assert "3 machines (220 x 24310 each)" in err and "fast-path cap" in err
        assert peak < 1_000_000

    @pytest.mark.parametrize("d,n,m", [(8, 2, 8), (8, 3, 8)])
    def test_wide_tables_pass_on_bounds_without_a_factor(self, capsys, monkeypatch, d, n, m):
        # Three 6435 x 1716 (or x 792) factors J used to put these over the
        # cap.  A fast-path-only trial reads neither J nor rho, its whole
        # count is below one J, and one trial, tables built inside the traced
        # span, passes every check within the count.
        def refuse(self):
            raise AssertionError("a fast-path-only trial formed J or rho")

        # warm-up: lazy imports and numpy's first generator are not part of a trial
        _run(capsys, ["verify", "--d", "3", "--n", "2", "--m", "5", "--trials", "1"])
        monkeypatch.setattr(SymDensity, "joint", property(refuse))
        spec = machines.CloneSpec(d, n, m)
        counted = machines.check_fast_path(spec, tables=3)
        assert counted <= cli.FAST_PATH_CAP and counted < spec.dim_out * spec.dim_anc
        clear_caches()
        argv = ["verify", "--d", str(d), "--n", str(n), "--m", str(m), "--trials", "1"]
        tracemalloc.start()
        try:
            status, out = _run(capsys, argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        payload = json.loads(out)
        assert status == 0 and payload["pass"] is True
        assert payload["mode"] == "fast-path-only"
        assert all(c["max_distance"] <= 1e-10 for c in payload["checks"])
        assert peak <= 16 * counted

    def test_budget_counts_what_a_trial_allocates(self, capsys, monkeypatch):
        # A cap equal to the count puts each point right at it, and one
        # fast-path-only trial, tables built inside the traced span, stays
        # within it.  (5,2,7) has a wide table (r = 126), (6,6,8) a narrow
        # one (r = 21) whose whole count is below one 1287 x 1287 density,
        # so its trace alone shows that no density is formed.  Each count is
        # taken at the real cap, before any cap is lowered to it.
        points = [(5, 2, 7), (6, 6, 8)]
        counts = [machines.check_fast_path(machines.CloneSpec(*p), tables=3)
                  for p in points]
        # warm-up: lazy imports and numpy's first generator are not part of a trial
        _run(capsys, ["verify", "--d", "3", "--n", "2", "--m", "5", "--trials", "1"])
        for (d, n, m), counted in zip(points, counts):
            for module in (symmetric, machines):
                monkeypatch.setattr(module, "FAST_PATH_CAP", counted)
            clear_caches()
            tracemalloc.start()
            try:
                status, out = _run(capsys, ["verify", "--d", str(d), "--n", str(n),
                                            "--m", str(m), "--trials", "1"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert status == 0
            assert json.loads(out)["mode"] == "fast-path-only"
            assert peak <= 16 * counted
        assert counted < machines.CloneSpec(d, n, m).dim_out ** 2

    def test_multi_block_sweeps_pass_within_the_count(self, capsys, monkeypatch):
        # A cap with room for the three 36 x 792 tables and the arrays that
        # build them, but for only 47 columns in a sweep block: each machine
        # is swept in 17 blocks.  The tables are released before the
        # sweeps, so the block is not counted beside them; one trial, tables
        # built inside the traced span, passes within the count.  A trial
        # that kept the tables through its sweeps would pass the count by 18%.
        d, n, m = 8, 2, 7
        spec = machines.CloneSpec(d, n, m)
        held, transient, per_column = symmetric.sweep_budget(d, m, n)
        cap = held + transient + 2 * spec.dim_in * spec.dim_anc
        # warm-up: lazy imports and numpy's first generator are not part of a trial
        _run(capsys, ["verify", "--d", "3", "--n", "2", "--m", "5", "--trials", "1"])
        for module in (symmetric, machines):
            monkeypatch.setattr(module, "FAST_PATH_CAP", cap)
        assert machines.check_fast_path(spec, tables=3) == cap
        assert -(-spec.dim_anc // symmetric.sweep_width(d, m, n)) == 17
        clear_caches()
        argv = ["verify", "--d", str(d), "--n", str(n), "--m", str(m), "--trials", "1"]
        tracemalloc.start()
        try:
            status, out = _run(capsys, argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        payload = json.loads(out)
        assert status == 0 and payload["pass"] is True
        assert payload["mode"] == "fast-path-only"
        assert all(c["max_distance"] < 1e-10 for c in payload["checks"])
        assert peak <= 16 * cap

    @pytest.mark.parametrize("d,n,m", [(8, 7, 8), (10, 9, 10)])
    def test_narrow_factors_past_the_dense_rule_pass(self, capsys, d, n, m):
        # One dense density would be 6435^2 or 92378^2 entries, over the cap;
        # the factors are 6435 x 8 and 92378 x 10.  One trial, tables built
        # inside the traced span, passes every check within the count.
        spec = machines.CloneSpec(d, n, m)
        counted = machines.check_fast_path(spec, tables=3)
        assert counted <= cli.FAST_PATH_CAP < spec.dim_out**2
        clear_caches()
        argv = ["verify", "--d", str(d), "--n", str(n), "--m", str(m), "--trials", "1"]
        tracemalloc.start()
        try:
            status, out = _run(capsys, argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        payload = json.loads(out)
        assert status == 0 and payload["pass"] is True
        assert payload["mode"] == "fast-path-only"
        assert all(c["max_distance"] < 1e-10 for c in payload["checks"])
        assert peak <= 16 * counted

    def test_dense_oracle_arrays_over_cap_fall_back(self, capsys):
        # d^(2M-N) = 4096 fits the oracle cap.  The oracle checks hold their
        # densities as factors of at most 4096 entries, so (2,12,12) runs in
        # full mode, far below one 4096 x 4096 complex array (268 MB).
        argv = ["verify", "--d", "2", "--n", "12", "--m", "12", "--trials", "1"]
        tracemalloc.start()
        try:
            status = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert status == 0
        assert captured.err == ""
        payload = json.loads(captured.out)
        jsonschema.validate(payload, _schema())
        assert payload["mode"] == "full"
        assert payload["pass"] is True
        assert peak < 16 * 4096**2 // 8

    def test_full_mode_budget_counts_the_dense_oracle_arrays(self, capsys, monkeypatch):
        # A cap equal to the full-mode count keeps full mode on, and one
        # trial, with the uqcm tables built inside the traced span, stays
        # within it; one entry less and the same trial falls back.  (2,9,9)
        # has one ancilla column, (4,2,4) ten, so u_anc and the covariance
        # products are counted at a width that shows; at (2,2,7) and (2,4,8)
        # each oracle's 32 or 16 blank strings are summed to 6 or 5 columns,
        # and the literal block and its column gather are traced with the
        # rest.  Each count is taken at the real cap, before any cap is
        # lowered to it.
        points = [(2, 9, 9), (4, 2, 4), (2, 2, 7), (2, 4, 8)]
        counts = [machines.full_mode_entries(machines.CloneSpec(*p)) for p in points]
        argvs = [["verify", "--d", str(d), "--n", str(n), "--m", str(m), "--trials", "1"]
                 for d, n, m in points]
        for argv in argvs:
            _run(capsys, argv)  # warm-up: lazy imports are not part of a trial
        for argv, counted in zip(argvs, counts):
            for module in (symmetric, machines, cli):
                monkeypatch.setattr(module, "FAST_PATH_CAP", counted)
            clear_caches()
            tracemalloc.start()
            try:
                status, out = _run(capsys, argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert status == 0
            assert json.loads(out)["mode"] == "full"
            assert peak <= 16 * counted

            monkeypatch.setattr(cli, "FAST_PATH_CAP", counted - 1)
            status = cli.main(argv)
            captured = capsys.readouterr()
            assert status == 0
            assert json.loads(captured.out)["mode"] == "fast-path-only"
            assert f"{counted} entries" in captured.err
            assert "fast-path cap" in captured.err

    def test_full_mode_trial_forms_no_full_space_matrix(self, capsys):
        # One 512 x 512 complex array is 4 MiB; the whole traced trial at
        # (2,9,9), oracles and all, stays below that.
        argv = ["verify", "--d", "2", "--n", "9", "--m", "9", "--trials", "1"]
        _run(capsys, argv)  # warm-up: lazy imports are not part of a trial
        symmetric._embed_columns.cache_clear()
        tracemalloc.start()
        try:
            status, out = _run(capsys, argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 0
        assert json.loads(out)["mode"] == "full"
        assert peak < 16 * 512**2

    def test_benchmark_oracle_configs_stay_in_full_mode(self, capsys):
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
        for s in configs:
            argv = ["verify", "--d", str(s.d), "--n", str(s.n_in), "--m", str(s.m_out),
                    "--trials", "1"]
            status, out = _run(capsys, argv)
            payload = json.loads(out)
            assert (status, payload["mode"], payload["pass"]) == (0, "full", True), argv


class TestOracleChecksHaveTeeth:
    """Each mutation pushes its full-mode check above DISTANCE_TOL."""

    ARGV = ["verify", "--d", "2", "--n", "1", "--m", "3", "--trials", "1"]

    def _distances(self, capsys):
        status, out = _run(capsys, self.ARGV)
        checks = {c["name"]: c["max_distance"] for c in json.loads(out)["checks"]}
        return status, checks

    def test_unmutated_checks_pass(self, capsys):
        status, checks = self._distances(capsys)
        assert status == 0
        assert max(checks.values()) < cli.DISTANCE_TOL

    def test_perturbed_werner_table(self, capsys, monkeypatch):
        real = machines.werner_output

        def perturbed(spec, phi):
            rho = real(spec, phi)
            table = rho.factor + 1e-8 * np.arange(rho.factor.size).reshape(
                rho.factor.shape
            )
            return SymDensity(rho.d, rho.total, table / np.linalg.norm(table), rho.kept)

        monkeypatch.setattr(machines, "werner_output", perturbed)
        status, checks = self._distances(capsys)
        assert status == 1
        assert checks["werner-vs-oracle"] > cli.DISTANCE_TOL
        assert checks["unified-vs-oracle"] < cli.DISTANCE_TOL

    @pytest.mark.parametrize("which", ["werner", "unified"])
    def test_oracle_factor_with_a_column_dropped(self, capsys, monkeypatch, which):
        def dropped(density):
            factor = density.factor[:, :-1]
            return FullDensity(
                factor / np.linalg.norm(factor), density.factors, density.local_dim
            )

        if which == "werner":
            real = cli.werner_output_oracle
            monkeypatch.setattr(
                cli, "werner_output_oracle", lambda spec, phi: dropped(real(spec, phi))
            )
        else:
            real_unified = cli.unified_output_oracle
            monkeypatch.setattr(
                cli, "unified_output_oracle",
                lambda spec, phi: dropped(real_unified(spec, phi)),
            )
        status, checks = self._distances(capsys)
        assert status == 1
        assert checks[f"{which}-vs-oracle"] > cli.DISTANCE_TOL

    def _oracle_widths(self, monkeypatch):
        # The width of every oracle factor the checks read, in call order.
        widths = []
        for name in ("werner_output_oracle", "unified_output_oracle"):
            def spy(spec, phi, real=getattr(cli, name)):
                density = real(spec, phi)
                widths.append(density.factor.shape[1])
                return density

            monkeypatch.setattr(cli, name, spy)
        return widths

    def test_unmutated_oracles_merge_to_one_column_per_blank_occupation(
        self, capsys, monkeypatch
    ):
        # d^(M-N) = 4 blank strings, D_(M-N) = 3 occupations: 01 and 10 are
        # one column of each oracle.
        widths = self._oracle_widths(monkeypatch)
        status, _ = self._distances(capsys)
        assert status == 0
        assert widths == [3, 3]

    def test_werner_oracle_without_its_projection(self, capsys, monkeypatch):
        # sqrt(d^-(M-N)) |phi>^N x I, normalized but never projected, on
        # its d^(M-N) columns.
        def unprojected(spec, phi):
            d, n, m = spec.d, spec.n_in, spec.m_out
            blank = d ** (m - n)
            padded = machines._power(phi, n)[:, None, None] * np.eye(blank)
            return FullDensity(padded.reshape(-1, blank) / math.sqrt(blank), m, d)

        monkeypatch.setattr(cli, "werner_output_oracle", unprojected)
        widths = self._oracle_widths(monkeypatch)
        status, checks = self._distances(capsys)
        assert status == 1
        assert checks["symmetric-support"] > cli.DISTANCE_TOL
        assert checks["werner-vs-oracle"] > cli.DISTANCE_TOL
        assert checks["unified-vs-oracle"] < cli.DISTANCE_TOL
        assert widths == [4, 3]

    @pytest.mark.parametrize("which", ["werner", "unified"])
    def test_a_phase_on_one_oracle_column_changes_nothing(self, capsys, monkeypatch, which):
        # e^(i theta) f f^dagger e^(-i theta) = f f^dagger: the density and
        # every check stay as they are.
        name = f"{which}_output_oracle"
        real = getattr(cli, name)

        def phased(spec, phi):
            density = real(spec, phi)
            factor = density.factor.copy()
            factor[:, 1] *= np.exp(0.7j)
            return FullDensity(factor, density.factors, density.local_dim)

        monkeypatch.setattr(cli, name, phased)
        widths = self._oracle_widths(monkeypatch)
        status, checks = self._distances(capsys)
        assert status == 0
        assert max(checks.values()) < cli.DISTANCE_TOL
        assert widths == [3, 3]

    def test_unified_oracle_with_its_pair_halves_unsorted(self, capsys, monkeypatch):
        # The pairs left interleaved as (half, ancilla): the copy slots then
        # hold an ancilla half, and the ancilla holds a copy half.
        def unsorted(phi, copies, blanks):
            state, pair = machines._power(phi, copies), machines.maximally_entangled(phi.dim)
            for _ in range(blanks):
                state = np.multiply.outer(state, pair).ravel()
            return state

        monkeypatch.setattr(machines, "_pair_arrangement", unsorted)
        status, checks = self._distances(capsys)
        assert status == 1
        assert checks["unified-vs-oracle"] > cli.DISTANCE_TOL
        assert checks["werner-vs-oracle"] < cli.DISTANCE_TOL

    def test_projection_without_its_compress_step(self, capsys, monkeypatch):
        # P x = iso @ (iso^T @ x); dropping iso^T gathers rows of x as if
        # they were occupation amplitudes.
        monkeypatch.setattr(
            cli, "project_symmetric", lambda x, d, total: symmetric._expand(x, d, total)
        )
        status, checks = self._distances(capsys)
        assert status == 1
        assert checks["symmetric-support"] > cli.DISTANCE_TOL


def _perturbed(real):
    """A machine whose table is moved by 1e-8 * arange, then renormalized."""

    def machine(spec, phi):
        rho = real(spec, phi)
        table = rho.factor + 1e-8 * np.arange(rho.factor.size).reshape(rho.factor.shape)
        return SymDensity(rho.d, rho.total, table / np.linalg.norm(table), rho.kept)

    return machine


class TestFactorChecks:
    """The pairwise and covariance checks, against the dense reference.

    Both are certified bounds, never below the exact trace distance:
    ||V_a - V_b||_F on the machines' tables in both modes, and in full
    mode ||J(u phi) - u_out J(phi) u_anc^dagger||_F for covariance.
    """

    GRID = [(2, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 2), (2, 3, 3), (3, 2, 3),
            (4, 2, 2), (3, 3, 3), (3, 2, 5)]
    ARGV = {
        "full": ["verify", "--d", "2", "--n", "1", "--m", "3", "--trials", "1"],
        "fast-path-only": ["verify", "--d", "3", "--n", "2", "--m", "5", "--trials", "1"],
    }
    PAIRS = [("werner", "fan"), ("werner", "unified"), ("fan", "unified")]

    @classmethod
    def _dense_reference(cls, spec, seed, mode):
        # The dense D_out x D_out trace distances the bounds stand for.
        phi = random_pure_state(spec.d, seed)
        rho = {name: dense_matrix(machines.run_machine(spec, phi, name))
               for name in machines.MACHINES}
        values = {
            f"pairwise-bound-{a}-{b}": trace_distance_matrices(rho[a], rho[b])
            for a, b in cls.PAIRS
        }
        if mode == "full":
            u = random_unitary(spec.d, 10_000 + seed)
            u_sym = symmetric.sym_unitary(u, spec.m_out)
            rotated = PureState(u @ phi.amplitudes)
            values["covariance-bound"] = max(
                trace_distance_matrices(
                    dense_matrix(machines.run_machine(spec, rotated, name)),
                    u_sym @ rho[name] @ u_sym.conj().T,
                )
                for name in machines.MACHINES
            )
        return values

    def _checks(self, capsys, argv):
        status, out = _run(capsys, argv)
        return status, {c["name"]: c["max_distance"] for c in json.loads(out)["checks"]}

    @pytest.mark.parametrize("d,n,m", GRID)
    @pytest.mark.parametrize("seed", [0, 17])
    def test_report_matches_dense_reference(self, capsys, d, n, m, seed):
        argv = ["verify", "--d", str(d), "--n", str(n), "--m", str(m),
                "--trials", "1", "--seed", str(seed)]
        status, out = _run(capsys, argv)
        payload = json.loads(out)
        assert status == 0
        reported = {c["name"]: c["max_distance"] for c in payload["checks"]}
        dense = self._dense_reference(machines.CloneSpec(d, n, m), seed, payload["mode"])
        assert set(dense) < set(reported)
        for name, value in dense.items():
            # A bound: never below the exact distance.
            assert reported[name] >= value - 1e-13, name

    def test_every_factor_distance_matches_dense(self, capsys, monkeypatch):
        # Every trace distance verify takes, on the factors it passes, and on
        # the same factors with one side's rows rolled, so that the distance
        # is far from 0, agrees with the dense trace distance of x x^dagger
        # and y y^dagger.
        real = cli.trace_distance_factors
        calls = []

        def spy(x, y):
            value = real(x, y)
            calls.append((x, y, value))
            return value

        monkeypatch.setattr(cli, "trace_distance_factors", spy)
        for d, n, m in self.GRID:
            _run(capsys, ["verify", "--d", str(d), "--n", str(n), "--m", str(m),
                          "--trials", "1", "--seed", "5"])
        # The three oracle checks of each full-mode trial.
        assert len(calls) == 3 * (len(self.GRID) - 1)
        for x, y, value in calls:
            dense = trace_distance_matrices(x @ x.conj().T, y @ y.conj().T)
            assert abs(value - dense) <= 1e-13
            rolled = np.roll(y, 1, axis=0)
            far = trace_distance_matrices(x @ x.conj().T, rolled @ rolled.conj().T)
            assert abs(real(x, rolled) - far) <= 1e-13

    @pytest.mark.parametrize("d,n,m,mode", [(2, 1, 3, "full"), (3, 2, 5, "fast-path-only")])
    def test_no_trial_forms_a_dense_density(self, capsys, monkeypatch, d, n, m, mode):
        # Fast-path-only mode compares tables, so it scatters no J either.
        def refuse(self):
            raise AssertionError("verify formed a dense density")

        # No density type has a dense accessor to form one with.
        for cls in (SymDensity, FullDensity):
            assert not hasattr(cls, "matrix")
        if mode == "fast-path-only":
            monkeypatch.setattr(SymDensity, "joint", property(refuse))
        status, out = _run(capsys, ["verify", "--d", str(d), "--n", str(n),
                                    "--m", str(m), "--trials", "2"])
        assert status == 0
        assert json.loads(out)["mode"] == mode

    @pytest.mark.parametrize("argv", list(ARGV.values()))
    def test_a_perturbed_machine_fails_its_pairwise_checks(self, capsys, monkeypatch, argv):
        # fan has no oracle check, so only the pairwise checks can see it;
        # a check that compared a machine with itself would read 0 here.
        monkeypatch.setattr(machines, "fan_output", _perturbed(machines.fan_output))
        status, out = _run(capsys, argv)
        payload = json.loads(out)
        checks = {c["name"]: c["max_distance"] for c in payload["checks"]}
        assert status == 1
        assert checks["pairwise-bound-werner-fan"] > cli.DISTANCE_TOL
        assert checks["pairwise-bound-fan-unified"] > cli.DISTANCE_TOL
        assert checks["pairwise-bound-werner-unified"] < cli.DISTANCE_TOL

    @pytest.mark.parametrize("mode", list(ARGV))
    @pytest.mark.parametrize("machine", machines.MACHINES)
    def test_each_perturbed_machine_fails_exactly_its_pairs(
        self, capsys, monkeypatch, mode, machine
    ):
        # Over the three machines, only the right name for each pairwise
        # value gives every pattern.
        attr = f"{machine}_output"
        monkeypatch.setattr(machines, attr, _perturbed(getattr(machines, attr)))
        _, checks = self._checks(capsys, self.ARGV[mode])
        for a, b in self.PAIRS:
            distance = checks[f"pairwise-bound-{a}-{b}"]
            assert (distance > cli.DISTANCE_TOL) == (machine in (a, b)), (a, b)

    def test_a_wrong_rotation_fails_only_covariance(self, capsys, monkeypatch):
        # u_out and u_anc built from conj(u) rotate the output the wrong way;
        # only the covariance bound can see it.
        monkeypatch.setattr(
            cli, "sym_unitary", lambda u, total: symmetric.sym_unitary(u.conj(), total)
        )
        status, checks = self._checks(capsys, self.ARGV["full"])
        assert status == 1
        assert checks.pop("covariance-bound") > cli.DISTANCE_TOL
        assert max(checks.values()) < cli.DISTANCE_TOL

    def test_a_wrong_ancilla_rotation_fails_only_covariance(self, capsys, monkeypatch):
        # At (2,1,3) u_anc acts on m - n = 2 qudits and u_out on 3, so only
        # u_anc is built from conj(u) here; the bound must see the ancilla
        # side too, not only the output side.
        real = symmetric.sym_unitary
        monkeypatch.setattr(
            cli, "sym_unitary",
            lambda u, total: real(u.conj() if total == 2 else u, total),
        )
        status, checks = self._checks(capsys, self.ARGV["full"])
        assert status == 1
        assert checks.pop("covariance-bound") > cli.DISTANCE_TOL
        assert max(checks.values()) < cli.DISTANCE_TOL

    @pytest.mark.parametrize("mode", list(ARGV))
    def test_a_table_in_another_gauge(self, capsys, monkeypatch, mode):
        # e^(i theta) V is the same density, but the pairwise bounds of both
        # modes fail loudly on it, never falsely.  The rotated fan table has
        # the same phase, so the covariance bound still passes.
        real = machines.fan_output

        def rephased(spec, phi):
            rho = real(spec, phi)
            return SymDensity(rho.d, rho.total, np.exp(0.5j) * rho.factor, rho.kept)

        monkeypatch.setattr(machines, "fan_output", rephased)
        status, checks = self._checks(capsys, self.ARGV[mode])
        assert status == 1
        assert checks.pop("pairwise-bound-werner-fan") > 0.1
        assert checks.pop("pairwise-bound-fan-unified") > 0.1
        assert max(checks.values()) < cli.DISTANCE_TOL


class TestParserReuse:
    """One parser serves every call of a process, and no call leaks into the next."""

    TABLE = ["table", "--d", "2", "--n", "1", "--m", "3"]

    def test_level_restriction_does_not_carry_over(self, capsys):
        _, restricted = _run(capsys, self.TABLE + ["--l", "2"])
        assert [row["L"] for row in json.loads(restricted)["rows"]] == [2]
        _, out = _run(capsys, self.TABLE)
        payload = json.loads(out)
        assert payload["config"]["L"] is None
        assert [row["L"] for row in payload["rows"]] == [1, 2, 3]

    def test_output_file_is_not_reused(self, capsys, tmp_path):
        target = tmp_path / "first.json"
        assert cli.main(self.TABLE + ["--output", str(target)]) == 0
        written = target.read_text()
        assert capsys.readouterr().out == ""
        _, out = _run(capsys, self.TABLE + ["--seed", "1"])
        assert json.loads(out)["config"]["seed"] == 1
        assert target.read_text() == written

    def test_usage_error_after_a_successful_verify(self, capsys):
        status, _ = _run(capsys, ["verify", "--d", "2", "--n", "1", "--m", "2",
                                  "--trials", "1"])
        assert status == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--d", "2", "--n", "1", "--m", "2", "--trials", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: uqcm verify ")

    def test_parser_is_built_on_the_first_call_only(self, capsys, monkeypatch):
        built = []
        real = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            real(self, *args, **kwargs)

        cli._build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        _run(capsys, self.TABLE)
        first = len(built)
        assert first == 5  # the parser and its four subcommands
        _run(capsys, self.TABLE + ["--l", "1"])
        _run(capsys, ["identity-check", "--d-max", "2"])
        assert len(built) == first

    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "real = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k):\n"
            "    built.append(1)\n"
            "    real(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import uqcm.cli\n"
            "print(len(built), uqcm.cli._build_parser.cache_info().currsize)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parents[1],
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]


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

    def test_a_single_sweep_point_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["asym-sweep", "--d", "2", "--sweep-points", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: uqcm asym-sweep ")
        assert "--sweep-points must be >= 2, got 1" in err

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

    @pytest.mark.parametrize("d", ["1", "-3"])
    def test_dimension_below_2_exits_2_with_the_library_message(self, capsys, d):
        with pytest.raises(SystemExit) as exc:
            cli.main(["asym-sweep", "--d", d])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: uqcm asym-sweep ")
        assert f"qudit dimension must be >= 2, got {d}" in err

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

    @pytest.mark.parametrize(
        "alpha, beta, reference",
        [("1e308", "1e308", ("1", "1")), ("1e200", "1e-200", ("1", "0")),
         ("1e-320", "0", ("1", "0"))],
    )
    def test_extreme_weights_give_the_ordinary_fidelities(
        self, capsys, alpha, beta, reference
    ):
        # Finite nonnegative weights at either end of the float range: the
        # sum neither overflows nor vanishes (and warns of nothing).
        def fidelities(a, b):
            status, out = _run(capsys, ["asym-sweep", "--d", "2", "--alpha", a, "--beta", b])
            assert status == 0
            row = json.loads(out)["rows"][0]
            return row["fidelity_a"], row["fidelity_b"]

        got, expected = fidelities(alpha, beta), fidelities(*reference)
        assert max(abs(g - e) for g, e in zip(got, expected)) < 1e-12

    def test_overflowing_ratio_is_null_in_json_and_inf_in_csv(self, capsys):
        argv = ["asym-sweep", "--d", "2", "--alpha", "1e-320", "--beta", "1"]
        _, out = _run(capsys, argv)

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(out, parse_constant=refuse)
        jsonschema.validate(payload, _schema())
        assert payload["rows"][0]["ratio"] is None
        _, out = _run(capsys, argv + ["--format", "csv"])
        assert out.splitlines()[1].startswith("inf,")

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_payload_validates_at_every_seed(self, capsys, d):
        # Rounding puts a raw slot fidelity a few ulps above 1 at about half
        # of the seeds; the report must still meet the schema's maximum.
        schema = _schema()
        for seed in range(50):
            status, out = _run(capsys, ["asym-sweep", "--d", str(d), "--seed", str(seed)])
            assert status == 0
            payload = json.loads(out)
            jsonschema.validate(payload, schema)
            for row in payload["rows"]:
                assert 0.0 <= row["fidelity_a"] <= 1.0
                assert 0.0 <= row["fidelity_b"] <= 1.0

    def test_a_non_finite_report_value_fails_loudly(self, capsys, monkeypatch):
        real = cli.weighted_clone

        def broken(spec, phi, w):
            result = real(spec, phi, w)
            nan = float("nan")
            return machines.WeightedCloneResult(result.joint, (nan, nan), 1.0)

        monkeypatch.setattr(cli, "weighted_clone", broken)
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli.main(["asym-sweep", "--d", "2", "--alpha", "1", "--beta", "1"])
        assert capsys.readouterr().out == ""


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

    @pytest.mark.parametrize(
        "d, n, m, message",
        [
            ("1", "1", "2", "qudit dimension must be >= 2, got 1"),
            ("-3", "1", "2", "qudit dimension must be >= 2, got -3"),
            ("2", "0", "2", "need 1 <= N <= M, got N=0, M=2"),
            ("2", "3", "2", "need 1 <= N <= M, got N=3, M=2"),
        ],
    )
    def test_point_out_of_range_exits_2_with_the_library_message(
        self, capsys, d, n, m, message
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(["identity-check", "--d", d, "--n", n, "--m", m])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: uqcm identity-check ")
        assert message in err

    def test_half_specified_point_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["identity-check", "--d", "2", "--n", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: uqcm identity-check ")
        assert "single-point mode needs all of --d, --n and --m" in err

    def test_mixed_point_and_grid_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["identity-check", "--d", "2", "--n", "1", "--m", "2", "--d-max", "3"])
        assert exc.value.code == 2

    # SHA-256 of the stdout of the benchmark's identity-check op as the
    # frozen-dataclass reports printed it; tuple reports must not move a byte.
    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("json", "b763cc55a312ef7de8c45946f875b739587e834b7437eb1231db5a68e7ff012c"),
            ("csv", "f59d69e6d61d1bfe85cca8c40a83e14273008ec0cbaa7f606a412058424cc62c"),
        ],
    )
    def test_grid_bytes_are_pinned(self, capsys, fmt, digest):
        argv = ["identity-check", "--d-max", "6", "--n-max", "16", "--m-max", "24"]
        status, out = _run(capsys, argv + ["--format", fmt])
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_unequal_row_prints_its_own_lhs(self, capsys, monkeypatch):
        exact = combinatorics._identity_sums
        monkeypatch.setattr(
            combinatorics, "_identity_sums", lambda *args: [v + 1 for v in exact(*args)]
        )
        status, out = _run(capsys, ["identity-check", "--d", "2", "--n", "1", "--m", "2"])
        row = json.loads(out)["rows"][0]
        # S(2) = 5 becomes 6 over C(3, 1) * 2 = 6.
        assert (status, row["lhs"], row["rhs"], row["equal"]) == (1, "1/1", "5/6", False)

        # In grid mode every row is unequal, and each prints its own left side.
        status, out = _run(capsys, ["identity-check", "--d-max", "4", "--n-max", "3"])
        rows = json.loads(out)["rows"]
        assert status == 1 and len(rows) == 3 * (5 + 4 + 3)
        for row in rows:
            d, n, m = row["d"], row["n_in"], row["m_out"]
            rhs = fractions.Fraction(n * (d + m) + m - n, (d + n) * m)
            lhs = rhs + fractions.Fraction(1, math.comb(m + d - 1, m - n) * m)
            assert row["lhs"] == f"{lhs.numerator}/{lhs.denominator}"
            assert row["rhs"] == f"{rhs.numerator}/{rhs.denominator}"
            assert row["equal"] is False


class TestExactPathsBuildNoFraction:
    """``table``, fast-path-only ``verify`` and ``identity-check`` print integer pairs."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--d", "2", "--n", "3", "--m", "9", "--machine", "werner"],
            ["table", "--d", "3", "--n", "2", "--m", "5", "--machine", "fan", "--l", "4"],
            ["table", "--d", "2", "--n", "1", "--m", "6", "--machine", "unified", "--format", "csv"],
            # d^(2m-n) = 6561 is above the oracle cap: fast-path-only mode.
            ["verify", "--d", "3", "--n", "2", "--m", "5", "--trials", "2"],
            ["identity-check"],
            ["identity-check", "--d", "4", "--n", "3", "--m", "9", "--format", "csv"],
        ],
        ids=["table", "table-l", "table-csv", "verify-fast-path-only",
             "identity-check-grid", "identity-check-point-csv"],
    )
    def test_no_fraction_is_built(self, capsys, monkeypatch, argv):
        expected = _run(capsys, argv)
        if argv[0] == "verify":
            assert json.loads(expected[1])["mode"] == "fast-path-only"
        # Cold caches, so every table is rebuilt under the patch.
        clear_caches()

        def refuse(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(fractions.Fraction, "__new__", refuse)
        with pytest.raises(AssertionError, match="a Fraction was built"):
            fractions.Fraction(1, 2)
        assert _run(capsys, argv) == expected


class TestCsvMatchesJson:
    """The CSV of a run is its JSON rows (``checks`` for verify), field by field."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--d", "3", "--n", "1", "--m", "3", "--machine", "fan"],
            ["verify", "--d", "2", "--n", "1", "--m", "3", "--trials", "2"],
            # Five points reach both endpoints: ratio 0.0 and ratio null.
            ["asym-sweep", "--d", "2", "--sweep-points", "5"],
            ["identity-check", "--d-max", "3", "--n-max", "2", "--m-max", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_rows_agree(self, capsys, argv):
        json_status, json_out = _run(capsys, argv)
        csv_status, csv_out = _run(capsys, argv + ["--format", "csv"])
        assert json_status == csv_status
        payload = json.loads(json_out)
        rows = payload["checks"] if argv[0] == "verify" else payload["rows"]
        parsed = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(parsed) == len(rows)
        for row, cells in zip(rows, parsed):
            assert list(cells) == list(row)
            for key, value in row.items():
                if value is None:
                    assert (argv[0], key, cells[key]) == ("asym-sweep", "ratio", "inf")
                elif isinstance(value, bool):
                    assert cells[key] == ("true" if value else "false")
                elif isinstance(value, float):
                    assert cells[key] == repr(value)
                else:
                    assert cells[key] == str(value)
        if argv[0] == "asym-sweep":
            ratios = [row["ratio"] for row in rows]
            assert ratios[0] == 0.0 and ratios[-1] is None


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

    def test_no_command_imports_numpy_random(self):
        # The seeded inputs come from the standard library's generator;
        # numpy.random would cost every fresh process its import.
        code = (
            "import contextlib, io, sys\n"
            "import uqcm.cli\n"
            "runs = [\n"
            "    ['table', '--d', '3', '--n', '1', '--m', '3', '--seed', '4'],\n"
            "    ['verify', '--d', '2', '--n', '1', '--m', '2', '--trials', '2'],\n"
            "    ['asym-sweep', '--d', '2', '--sweep-points', '3'],\n"
            "    ['identity-check', '--d', '2', '--n', '1', '--m', '2'],\n"
            "]\n"
            "for argv in runs:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert uqcm.cli.main(argv) == 0, argv\n"
            "print('numpy.random' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parents[1],
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

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

    def test_unwritable_output_is_one_error_line(self, capsys, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        target = blocker / "x.json"
        status = cli.main(["table", "--d", "2", "--n", "1", "--m", "2", "--output", str(target)])
        assert status == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"uqcm: error: cannot write report to {target}: File exists"
        ]


# Strings that would break a renderer splicing text: raw newlines, the
# separator between two rows, braces, quotes, backslashes, non-ASCII.
_AWKWARD = ["\n", "},\n    {", "},\n      {", "{", "}", '"', "\\", "é", "日本", " ", "\x00"]
_TEXT = st.text(max_size=8) | st.lists(
    st.sampled_from(_AWKWARD) | st.text(max_size=3), max_size=4
).map("".join)
_SCALAR = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**300), max_value=10**300)
    | st.floats(allow_nan=False, allow_infinity=False)
    | _TEXT
)
# json writes int, float, bool and None keys as the strings of their JSON text.
_KEY = _TEXT | st.integers() | st.booleans() | st.none() | st.floats(
    allow_nan=False, allow_infinity=False
)
_ROWS = st.lists(st.dictionaries(_KEY, _SCALAR, min_size=1, max_size=4), max_size=4)
_TREE = st.recursive(
    _SCALAR | _ROWS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_KEY, children, max_size=4)
    ),
    max_leaves=16,
)

# Lists of dicts that share one key list: the renderer's splice path.
_ROW_SCALAR = _SCALAR | st.sampled_from(
    ["\n", "},\n", '"', "\\", "é日本\u2028", -0.0, 5e-324, 2**64 + 1, -(2**70), 10**40]
)
_SAME_KEYED_ROWS = st.lists(_KEY, min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.lists(
        st.tuples(*[_ROW_SCALAR] * len(keys)).map(lambda vals: dict(zip(keys, vals))),
        min_size=1,
        max_size=6,
    )
)


class TestJsonRenderer:
    """``_json_text`` writes exactly the bytes of ``json.dumps(indent=2)``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_TREE)
    def test_equals_indented_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2, allow_nan=False)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_SAME_KEYED_ROWS | _SAME_KEYED_ROWS.map(lambda rows: {"rows": rows, "n": 1}))
    def test_same_keyed_rows_equal_indented_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2, allow_nan=False)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            [[], {}],
            {"rows": [{"a": "},\n    {", "b": None}, {"a": 2.5, "b": [1, {}]}]},
            [{"a": 1}, {}, {"a": 2}],
            [{"a": 1}, 3, {"b": {"c": "\n"}}],
            {1: [True], None: {"x": []}, 1.5: "日本"},
            10**200,
            [{"a": 1, "b": 2}, {"b": 3, "a": 4}],
            [{"a": 1, "b": 2}, {"a": 3, "c": 4}],
            [{1: "x", 1.5: -0.0, None: 5e-324, "s": 2**65}, {1: "},\n", 1.5: 2, None: 3, "s": 4}],
            [{True: 1, False: "\n"}, {True: 2, False: '"\\'}],
            [{"a": "},\n    {", "b": None}],
            ({"a": 1}, {"a": 2}),
            [{"a": 1}, {"a": [1, 2]}],
            [{"a": 1}, {"a": {"b": "\n"}}],
            {"rows": [{"a": 1, "b": [{"c": 2}, {"c": 3}]}, {"a": 2, "b": []}]},
        ],
    )
    def test_edge_cases(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2, allow_nan=False)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "wrap",
        [
            lambda v: v,
            lambda v: [1, v],
            lambda v: {"a": v},
            lambda v: [{"a": 1}, {"a": v}],
            lambda v: [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}, {"a": 5, "b": v}],
            lambda v: {"a": [1, {"b": [v]}]},
        ],
    )
    def test_non_finite_floats_raise(self, bad, wrap):
        with pytest.raises(ValueError):
            json.dumps(wrap(bad), indent=2, allow_nan=False)
        with pytest.raises(ValueError):
            cli._json_text(wrap(bad))

    @pytest.mark.parametrize(
        "value",
        [{(1, 2): 3}, {(1, 2): [1, {}]}, [{(1, 2): 1}, {(1, 2): 2}], [{"a": 1}, {b"a": 2}]],
    )
    def test_unsupported_keys_raise_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, allow_nan=False)
        with pytest.raises(TypeError):
            cli._json_text(value)

    def test_rows_take_a_fixed_number_of_encoder_calls(self, monkeypatch):
        # One call per container and per key, none per row: rendering 1000
        # rows of the identity grid calls json.dumps as often as 10 rows.
        argv = ["identity-check", "--d-max", "6", "--n-max", "16", "--m-max", "24"]
        args = cli._build_parser().parse_args(argv)
        _, payload, rows = args.run(args)
        assert len(rows) >= 1000
        dumps = json.dumps
        calls = []

        def counted(*a, **kw):
            calls.append(1)
            return dumps(*a, **kw)

        monkeypatch.setattr(cli.json, "dumps", counted)
        counts = []
        for n_rows in (10, 1000):
            value = {**payload, "rows": rows[:n_rows]}
            calls.clear()
            text = cli._json_text(value)
            counts.append(len(calls))
            assert text == dumps(value, indent=2, allow_nan=False)
        assert counts[0] == counts[1]


class TestGoldenOutput:
    """``main`` prints the handler's payload as ``json.dumps(indent=2)`` would, and its rows as CSV."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--d", "2", "--n", "1", "--m", "4", "--machine", "fan", "--seed", "3"],
            ["table", "--d", "3", "--n", "2", "--m", "5", "--l", "3"],
            ["verify", "--d", "2", "--n", "1", "--m", "3", "--trials", "2", "--seed", "1"],
            # d^(2m-n) = 8192 is above the oracle cap: fast-path-only mode.
            ["verify", "--d", "2", "--n", "1", "--m", "7", "--trials", "1"],
            ["asym-sweep", "--d", "2", "--sweep-points", "5"],
            ["asym-sweep", "--d", "2", "--alpha", "1e-320", "--beta", "1"],
            ["identity-check"],
            ["identity-check", "--d", "4", "--n", "3", "--m", "9"],
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_stdout_is_the_payload(self, capsys, argv):
        args = cli._build_parser().parse_args(argv)
        status, payload, rows = args.run(args)
        capsys.readouterr()
        assert _run(capsys, argv) == (
            status,
            json.dumps(payload, indent=2, allow_nan=False) + "\n",
        )
        assert _run(capsys, argv + ["--format", "csv"]) == (status, cli._csv_text(rows))

    def test_literal_report(self, capsys):
        argv = ["identity-check", "--d", "2", "--n", "1", "--m", "2"]
        assert _run(capsys, argv) == (
            0,
            "{\n"
            '  "command": "identity-check",\n'
            '  "config": {\n'
            '    "d": 2,\n'
            '    "n_in": 1,\n'
            '    "m_out": 2\n'
            "  },\n"
            '  "rows": [\n'
            "    {\n"
            '      "d": 2,\n'
            '      "n_in": 1,\n'
            '      "m_out": 2,\n'
            '      "lhs": "5/6",\n'
            '      "rhs": "5/6",\n'
            '      "equal": true,\n'
            '      "printed_summand_evaluable": false\n'
            "    }\n"
            "  ],\n"
            '  "all_equal": true,\n'
            '  "note": "left side evaluated with denominator '
            'M * m! * (N+m-1)! * (M-N-m)! * (d-2)!"\n'
            "}\n",
        )
        assert _run(capsys, argv + ["--format", "csv"]) == (
            0,
            "d,n_in,m_out,lhs,rhs,equal,printed_summand_evaluable\n"
            "2,1,2,5/6,5/6,true,false\n",
        )

    # SHA-256 of the stdout of the benchmark's `table` ops at seed 0, of
    # two ops whose long sums of squares a threaded BLAS would split:
    # (7,2,8) unified and a fast-path-only `verify` at (8,2,8), of two
    # sweeps that write their first levels in place and the rest side by
    # side, (3,60,61) unified and (4,2,10) unified, and of three full-mode
    # `verify` reports, whose oracle factors sum each blank occupation's
    # strings into one column.  Every sum of squares is BLAS-free, so the
    # bytes are the same at one thread and at two.
    DIGESTS = [
        (["table", "--d", "2", "--n", "1", "--m", "40", "--machine", "werner"],
         "194cfff9856eb8af80f84be808e38231f796f7f92019e86a325e382c9e0945af"),
        (["table", "--d", "2", "--n", "1", "--m", "40", "--machine", "fan"],
         "d4c01050b99ba928949cc06215ec1a7367222c8f40b8689845dae67346fe8e2b"),
        (["table", "--d", "2", "--n", "1", "--m", "40", "--machine", "unified"],
         "8f1f944b74cbe02d95cec7856d6970415914cc7de0fbcf5ac4de49d0d2565332"),
        (["table", "--d", "2", "--n", "8", "--m", "48", "--machine", "werner"],
         "f807c472d1eaacd1dbc73c0f4bfb18cce339681448341d8f5bbded144f44aec5"),
        (["table", "--d", "2", "--n", "8", "--m", "48", "--machine", "fan"],
         "be4c77189d0c40ba342d41b3a518328477c0eadb8aed480b01d812edbe07b79b"),
        (["table", "--d", "2", "--n", "8", "--m", "48", "--machine", "unified"],
         "7f5c4a2dfd842898a97924157a6066d351f07a40dc7de1aae4a0342077e3903a"),
        (["table", "--d", "3", "--n", "2", "--m", "12", "--machine", "fan"],
         "202fbeedcdb8e5703181e3d365860937d33b2c33f190f2c40baff2f1fe20c5dd"),
        (["table", "--d", "3", "--n", "2", "--m", "12", "--machine", "unified"],
         "bf9b7996a4d89658ed6249d98db1ace24a18152dadf49b33245a70d2cf751996"),
        (["table", "--d", "5", "--n", "2", "--m", "8", "--machine", "fan"],
         "890c183ff1ace0b1f981202d7cf42aa452440be3a25592b4028a68e18853f5ba"),
        (["table", "--d", "6", "--n", "2", "--m", "7", "--machine", "unified"],
         "4237375e94fa905478f8d8f856431ca4f905cd33b8b1bdedbe20a096a242bde6"),
        (["table", "--d", "9", "--n", "2", "--m", "5", "--machine", "fan"],
         "37e2b41f77c6914cd2ce7e026f1ad439901aa6c08c521ca45c431ea259958bfd"),
        (["table", "--d", "7", "--n", "2", "--m", "8", "--machine", "unified"],
         "f2551bea7c8066891bb85a8917539d80695441858984fca8315f6414c7ddaaef"),
        (["table", "--d", "3", "--n", "60", "--m", "61", "--machine", "unified"],
         "044d3fe369563eb17188248d3a23f859cd00a53de829490bd5eee6005bbc1446"),
        (["table", "--d", "4", "--n", "2", "--m", "10", "--machine", "unified"],
         "890d097fed32671f0f8c55667f4c857a2999d4acd7f5051b7bf502eb7f62161b"),
        (["verify", "--d", "8", "--n", "2", "--m", "8", "--trials", "2"],
         "ef88c6c10d57b5ac42342c1ab0864378a84f300668545d7e47a74a5a823126a2"),
        (["verify", "--d", "3", "--n", "1", "--m", "3", "--trials", "2"],
         "7a145a9920a5ca2a3afbd566fd5eafb73662ad36810e41fb615f6d590fc82937"),
        (["verify", "--d", "2", "--n", "2", "--m", "5", "--trials", "2"],
         "89374c5ae3abfa6dedcb111160512afd81720460e36e2835c045ee73375940f9"),
        # Each oracle sums its 32 blank strings into 6 columns.
        (["verify", "--d", "2", "--n", "2", "--m", "7", "--trials", "1"],
         "bf7a25d0342af463bb63c371847ce7bbc29b9719eb78f1f660292af28dc4c7b2"),
    ]

    def test_benchmark_table_bytes_are_pinned(self):
        code = (
            "import contextlib, hashlib, io, json, sys\n"
            "import uqcm.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        assert uqcm.cli.main(argv + ['--seed', '0']) == 0, argv\n"
            "    print(hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
        )
        argvs = json.dumps([argv for argv, _ in self.DIGESTS])
        for threads in ("1", "2"):
            blas = {name: threads for name in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
            proc = subprocess.run(
                [sys.executable, "-c", code, argvs],
                capture_output=True,
                text=True,
                cwd=Path(__file__).resolve().parents[1],
                env={**os.environ, **blas, "PYTHONPATH": "src"},
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == [digest for _, digest in self.DIGESTS], threads


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

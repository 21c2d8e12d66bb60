"""Tests for the cloning machines: equivalence, oracles, the asymmetric cloner."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqcm
from uqcm import combinatorics, machines, symmetric
from uqcm.fidelity import fidelities_closed, fidelities_numeric
from uqcm.hilbert import (
    FAST_PATH_CAP,
    ORACLE_CAP,
    FastPathCapError,
    FullDensity,
    PureState,
    fidelity_pure,
    maximally_entangled,
    partial_trace,
    permute_factors,
    random_pure_state,
    random_unitary,
    trace_distance_factors,
)
from uqcm.machines import (
    MACHINES,
    AsymmetryWeights,
    CloneSpec,
    check_fast_path,
    fan_output,
    run_machine,
    unified_output,
    unified_output_oracle,
    weighted_clone,
    werner_output,
    werner_output_oracle,
)
from uqcm.symmetric import (
    expand_power,
    occupation_counts,
    project_symmetric,
    split_index,
    sweep_budget,
    sweep_width,
    sym_to_full_density,
    sym_unitary,
)

from reference import (
    dense_matrix,
    explicit_1to2,
    occupation_tuples,
    projector_full,
    reference_weights,
    scatter_loop,
    splitting_coefficient_sq,
    trace_distance_matrices,
)

TOL = 1e-10
# Lowest eigenvalue a formed density may show: rounding, not negativity.
PSD_TOL = -1e-10
GRID = [
    (d, n, m)
    for d in (2, 3)
    for n in (1, 2)
    for m in range(n, n + 3)
]
# Every (d, n, m) with d <= 8 whose oracles fit under the cap: 97 points.
ORACLE_GRID = [
    (d, n, m)
    for d in range(2, 9)
    for m in range(1, 13)
    for n in range(1, m + 1)
    if d ** (2 * m - n) <= ORACLE_CAP
]


class TestCloneSpec:
    def test_normalization_constant(self):
        spec = CloneSpec(2, 1, 2)
        assert spec.eta_sq == Fraction(1, 3)

    def test_dimensions(self):
        spec = CloneSpec(3, 2, 4)
        assert spec.dim_in == 6
        assert spec.dim_out == 15

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            CloneSpec(1, 1, 2)
        with pytest.raises(ValueError):
            CloneSpec(2, 0, 2)
        with pytest.raises(ValueError):
            CloneSpec(2, 3, 2)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            werner_output(CloneSpec(2, 1, 2), random_pure_state(3, 0))


class TestThreeMachineEquivalence:
    @pytest.mark.parametrize("d,n,m", GRID)
    def test_pairwise_agreement(self, d, n, m):
        spec = CloneSpec(d, n, m)
        for seed in range(3):
            phi = random_pure_state(d, seed)
            outs = [dense_matrix(run_machine(spec, phi, name)) for name in MACHINES]
            for a, b in combinations(outs, 2):
                assert trace_distance_matrices(a, b) < TOL

    def test_basis_state_input(self):
        # Zero amplitudes meet zero exponents here; no entry may turn into NaN.
        spec = CloneSpec(3, 2, 4)
        for level in range(3):
            phi = PureState.basis(3, level)
            outs = [dense_matrix(run_machine(spec, phi, name)) for name in MACHINES]
            assert all(np.isfinite(out).all() for out in outs)
            for a, b in combinations(outs, 2):
                assert trace_distance_matrices(a, b) < TOL
            numerics = fidelities_numeric(run_machine(spec, phi, "fan"), phi)
            assert len(numerics) == spec.m_out
            for numeric, closed in zip(numerics, fidelities_closed(spec)):
                assert numeric == pytest.approx(float(closed), abs=TOL)

    def test_identity_when_no_extra_copies(self):
        # N = M: every machine returns the pure input power.
        for d in (2, 3):
            spec = CloneSpec(d, 2, 2)
            phi = random_pure_state(d, 5)
            target = expand_power(phi, 2)
            expected = np.outer(target, target.conj())
            for name in MACHINES:
                rho = run_machine(spec, phi, name)
                assert trace_distance_matrices(dense_matrix(rho), expected) < TOL


class TestMaterializedDensity:
    # Factored outputs skip the eigenvalue check on construction; the
    # dense matrix formed from their factor must still pass every check.
    @pytest.mark.parametrize("d,n,m", GRID)
    def test_matrix_is_a_density(self, d, n, m):
        spec = CloneSpec(d, n, m)
        phi = random_pure_state(d, 17)
        for name in MACHINES:
            mat = dense_matrix(run_machine(spec, phi, name))
            assert mat.shape == (spec.dim_out, spec.dim_out)
            assert np.abs(mat - mat.conj().T).max() <= TOL
            assert abs(np.trace(mat) - 1.0) <= TOL
            assert np.linalg.eigvalsh(mat).min() >= PSD_TOL


def _weight_tables(d, n, m):
    return {
        "werner": machines._werner_weights(d, n, m),
        "fan": machines._fan_weights(d, n, m),
        "unified": machines._unified_weights(d, n, m),
    }


class TestWeightTables:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(2, 7), st.integers(1, 5), st.integers(0, 5))
    def test_slot_sums_equal_the_broadcast_formula(self, d, n, extra):
        m = n + extra
        reference = reference_weights(d, n, m)
        for name, table in _weight_tables(d, n, m).items():
            assert table.shape == reference[name].shape
            assert np.all(np.abs(table - reference[name]) <= 1e-14 * reference[name])

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (9, 1)])
    def test_every_m_has_its_own_table(self, d, n):
        # Tables of one (d, n_in) at growing m_out, built in turn: each
        # answers to its own m_out, not to the first one cached.
        for m in range(n, n + 5):
            reference = reference_weights(d, n, m)
            for name, table in _weight_tables(d, n, m).items():
                assert table.shape == reference[name].shape
                assert np.all(np.abs(table - reference[name]) <= 1e-14 * reference[name])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 3))
    def test_split_index_is_the_rank(self, d, n, extra):
        m = n + extra
        idx = split_index(d, m, n)
        enumeration = list(occupation_tuples(d, m))
        for i, a in enumerate(occupation_counts(d, n)):
            for j, k in enumerate(occupation_counts(d, m - n)):
                whole = tuple(int(x) for x in a + k)
                assert idx[i, j] == enumeration.index(whole)
                # The count table comes from the np.repeat passes, not the rank.
                assert tuple(occupation_counts(d, m)[idx[i, j]]) == whole

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 3))
    def test_unified_weights_are_the_exact_coefficient(self, d, n, extra):
        m = n + extra
        weights = machines._unified_weights(d, n, m)
        for i, a in enumerate(occupation_tuples(d, n)):
            for j, k in enumerate(occupation_tuples(d, m - n)):
                whole = tuple(x + y for x, y in zip(a, k))
                exact = float(splitting_coefficient_sq(whole, k, m, n))
                assert weights[i, j] ** 2 == pytest.approx(exact, rel=1e-13)

    def test_tables_are_read_only(self):
        tables = _weight_tables(4, 2, 5)
        tables["index"] = split_index(4, 5, 2)
        for table in tables.values():
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0

    def test_werner_and_fan_never_read_the_unified_weights(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("werner or fan read the unified weights")

        monkeypatch.setattr(machines, "_unified_weights", refuse)
        machines._werner_weights.cache_clear()
        machines._fan_weights.cache_clear()
        spec = CloneSpec(3, 2, 5)
        phi = random_pure_state(3, 41)
        outs = [werner_output(spec, phi), fan_output(spec, phi)]
        assert symmetric.trace_distance_bound(*outs) < TOL
        with pytest.raises(AssertionError, match="unified weights"):
            unified_output(spec, phi)


class TestFastPathCap:
    def test_frontier_point_fits(self):
        check_fast_path(CloneSpec(8, 2, 8))  # 6435 x 1716 entries

    def test_table_budget_reaches_past_the_whole_factor_rule(self):
        # (10,2,10): J would be 92378 x 24310 (36 GB), but only the 55 x 24310
        # table, the ladder tables and one 48620-row sweep block are built.
        spec = CloneSpec(10, 2, 10)
        assert check_fast_path(spec) <= FAST_PATH_CAP

    def test_verify_rule_counts_three_tables(self):
        # A fast-path-only `uqcm verify` trial holds every machine's D_in x r
        # table while it compares them, and no factor J; it releases them
        # before it sweeps each machine's table alone.  So the two extra
        # tables sit beside the tables' construction, not beside a sweep
        # block.  At (8,2,8) that is less than one 6435 x 1716 factor.
        # (10,2,10)'s block fills the cap, so its count is the table rule's,
        # and so is (9,2,12)'s, whose split index is ranked one slot at a
        # time; (10,3,11)'s three 220 x 24310 tables and their construction
        # do not fit.
        for spec in (CloneSpec(6, 2, 8), CloneSpec(8, 7, 8), CloneSpec(10, 9, 10),
                     CloneSpec(8, 2, 8), CloneSpec(8, 3, 8), CloneSpec(10, 2, 10),
                     CloneSpec(9, 2, 12)):
            d, n, m = spec.d, spec.n_in, spec.m_out
            held, transient, per_column = sweep_budget(d, m, n)
            extra = 2 * spec.dim_in * spec.dim_anc
            counted = check_fast_path(spec, tables=3)
            assert counted == held + max(
                transient + extra, per_column * sweep_width(d, m, n)
            )
            assert check_fast_path(spec) <= counted <= check_fast_path(spec) + extra
            assert counted <= FAST_PATH_CAP
        assert check_fast_path(CloneSpec(8, 2, 8), tables=3) < 6435 * 1716
        spec = CloneSpec(10, 2, 10)
        assert check_fast_path(spec, tables=3) == check_fast_path(spec) == 33_522_456
        check_fast_path(CloneSpec(10, 3, 11))
        with pytest.raises(FastPathCapError, match=r"3 machines \(220 x 24310 each\)"):
            check_fast_path(CloneSpec(10, 3, 11), tables=3)

    @pytest.mark.parametrize(
        "d,n,m,tables,counted",
        [
            (11, 2, 11, 1, 33_455_964),
            (12, 2, 10, 1, 33_443_748),
            (10, 2, 10, 1, 33_522_456),
            (10, 3, 10, 1, 33_519_985),
            (3, 400, 401, 1, 19_105_719),
            (4, 100, 101, 3, 17_231_561),
        ],
    )
    def test_the_frontier_is_admitted(self, d, n, m, tables, counted):
        # Level M's coefficients are held once, by target row, and the
        # ancilla and level M-1 count tables only while the split index
        # and the ladder table are built, so these fit beside their block.
        assert check_fast_path(CloneSpec(d, n, m), tables=tables) == counted

    @pytest.mark.parametrize(
        "d,n,m,tables,counted", [(10, 3, 11, 3, 35_730_715), (3, 500, 501, 1, 34_923_511)]
    )
    def test_the_frontier_is_refused(self, d, n, m, tables, counted):
        with pytest.raises(FastPathCapError, match=f"needs {counted} entries"):
            check_fast_path(CloneSpec(d, n, m), tables=tables)

    def test_table_rule_admits_what_the_slot_loop_builds(self):
        # (10,3,10)'s 220 x 11440 tables used to be built beside a
        # 220 x 11440 x 10 array each; ranked slot by slot and gathered,
        # they fit, with one sweep block filling the cap.
        spec = CloneSpec(10, 3, 10)
        held, transient, _ = sweep_budget(10, 10, 3)
        assert held + transient < check_fast_path(spec) <= FAST_PATH_CAP
        assert transient < 2 * spec.dim_in * spec.dim_anc

    def test_over_budget_fails_before_allocating(self):
        # V alone is 78 x 352716, and with the tables cached beside it that
        # is over budget before any sweep block.
        spec = CloneSpec(12, 2, 12)
        phi = random_pure_state(12, 3)
        tracemalloc.start()
        try:
            for name in MACHINES:
                with pytest.raises(FastPathCapError, match="fast-path cap"):
                    run_machine(spec, phi, name)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestLargeCopyNumbers:
    # Every factorial here is far above the float range; the weight tables
    # work with log-factorials throughout.
    @pytest.mark.parametrize(
        "machine,d,n,m",
        [
            ("werner", 2, 1, 175),
            ("werner", 2, 1, 300),
            ("werner", 2, 1, 400),
            ("fan", 2, 180, 181),
            ("unified", 2, 200, 240),
        ],
    )
    def test_matches_closed_form(self, machine, d, n, m):
        spec = CloneSpec(d, n, m)
        phi = random_pure_state(d, 71)
        rho = run_machine(spec, phi, machine)
        numerics = fidelities_numeric(rho, phi)
        assert len(numerics) == m
        for numeric, closed in zip(numerics, fidelities_closed(spec)):
            assert abs(numeric - float(closed)) <= TOL

    @pytest.mark.parametrize("n,m", [(600, 1200), (1030, 2060)])
    def test_fan_eta_stays_in_the_exponent(self, n, m):
        # As floats, eta^2 = 1/C(m+1, m-n) is subnormal from (521, 1042)
        # on, too coarse for the norm check, and 0 at (600, 1200); the
        # multinomial's square root overflows at (1030, 2060).  Only their
        # product is a float.
        spec = CloneSpec(2, n, m)
        phi = random_pure_state(2, 73)
        numerics = fidelities_numeric(fan_output(spec, phi), phi, 2)
        for numeric, closed in zip(numerics, fidelities_closed(spec, 2), strict=True):
            assert abs(numeric - float(closed)) <= 1e-10


class TestOracles:
    @pytest.mark.parametrize("d,n,m", [(2, 1, 2), (2, 1, 3), (2, 2, 4), (3, 1, 2), (3, 2, 3)])
    def test_werner_fast_path_matches_full_space(self, d, n, m):
        spec = CloneSpec(d, n, m)
        phi = random_pure_state(d, 9)
        fast = sym_to_full_density(werner_output(spec, phi))
        oracle = werner_output_oracle(spec, phi)
        assert trace_distance_matrices(dense_matrix(fast), dense_matrix(oracle)) < TOL

    @pytest.mark.parametrize("d,n,m", [(2, 1, 2), (2, 1, 3), (2, 2, 3), (3, 1, 2)])
    def test_unified_fast_path_matches_full_space(self, d, n, m):
        spec = CloneSpec(d, n, m)
        phi = random_pure_state(d, 10)
        fast = unified_output(spec, phi)
        oracle = unified_output_oracle(spec, phi)
        fast_full = sym_to_full_density(fast)
        oracle_mat = dense_matrix(oracle)
        assert trace_distance_matrices(dense_matrix(fast_full), oracle_mat) < TOL

    def test_normalization_bookkeeping_matches(self):
        # The projection shrinks every input occupation by the same factor:
        # the oracle's d^(-(M-N)/2) / sqrt(C(M,N)) prefactor times the weight
        # sqrt(C(M,N)) * 1/eta that test_pure_expansion_norm_is_inverse_eta
        # pins, so the oracle's normalization lam = 1/||P block|| is
        # sqrt(d^(M-N) * C(M,N) * eta^2) whatever the input.
        for d, n, m in [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 3), (2, 2, 5)]:
            spec = CloneSpec(d, n, m)
            phi = random_pure_state(d, 12)
            block = machines._pair_arrangement(phi, n, m - n).reshape(d**m, d ** (m - n))
            lam = 1.0 / float(np.linalg.norm(project_symmetric(block, d, m)))
            exact = Fraction(d ** (m - n) * math.comb(m, n)) * spec.eta_sq
            assert lam == pytest.approx(math.sqrt(exact), rel=1e-12)

    @pytest.mark.parametrize("d,n,m", [(2, 1, 2), (2, 1, 3), (2, 2, 4), (3, 1, 3)])
    def test_werner_oracle_factor_is_the_dense_projector_form(self, d, n, m):
        # The dense literal form, (D_N / D_M) P (sigma^(x N) x I) P, is
        # built here only, as the reference for the oracle's factor.
        spec = CloneSpec(d, n, m)
        phi = random_pure_state(d, 14)
        block = np.eye(1, dtype=np.complex128)
        for _ in range(n):
            block = np.kron(block, dense_matrix(phi))
        block = np.kron(block, np.eye(d ** (m - n)))
        proj = projector_full(d, m)
        dense = spec.dim_in / spec.dim_out * (proj @ block @ proj)
        oracle = werner_output_oracle(spec, phi)
        assert oracle.factor.shape == (d**m, d ** (m - n))
        assert np.allclose(dense_matrix(oracle), dense, atol=TOL)

    @pytest.mark.parametrize("d,n,m", [(2, 1, 2), (2, 1, 3), (2, 2, 5), (3, 1, 2),
                                       (3, 2, 4), (4, 1, 3)])
    def test_oracle_factors_equal_the_kron_reference(self, d, n, m):
        # The oracles build their tensor products as outer products; the
        # same products through np.kron give the same bits.
        spec = CloneSpec(d, n, m)
        phi = random_pure_state(d, 16)
        inputs = np.ones(1, dtype=np.complex128)
        for _ in range(n):
            inputs = np.kron(inputs, phi.amplitudes)
        padded = np.kron(inputs[:, None], np.eye(d ** (m - n)))
        werner = math.sqrt(spec.dim_in / spec.dim_out) * project_symmetric(padded, d, m)
        assert np.array_equal(werner_output_oracle(spec, phi).factor, werner)

        pairs = inputs
        for _ in range(m - n):
            pairs = np.kron(pairs, maximally_entangled(d))
        perm = [*range(n), *range(n, 2 * m - n, 2), *range(n + 1, 2 * m - n, 2)]
        state = permute_factors(pairs, d, perm)
        projected = project_symmetric(state.reshape(d**m, -1), d, m)
        projected *= 1.0 / float(np.linalg.norm(projected))
        assert np.array_equal(unified_output_oracle(spec, phi).factor, projected)

    @pytest.mark.parametrize("d,n,m", ORACLE_GRID)
    def test_the_two_literal_oracles_give_the_same_state(self, d, n, m):
        # The paper's claim in its most literal form: the projector-form and
        # the entangled-pair constructions, both in the full space.
        spec = CloneSpec(d, n, m)
        phi = random_pure_state(d, 17)
        werner = werner_output_oracle(spec, phi).factor
        unified = unified_output_oracle(spec, phi).factor
        assert trace_distance_factors(werner, unified) < 1e-12

    def test_oracle_output_in_symmetric_subspace(self):
        spec = CloneSpec(2, 1, 3)
        phi = random_pure_state(2, 13)
        rho = werner_output_oracle(spec, phi)
        proj = projector_full(2, 3)
        mat = dense_matrix(rho)
        assert trace_distance_matrices(proj @ mat @ proj, mat) < TOL


def _check_joint_factor(spec, phi, out):
    joint = scatter_loop(out)
    assert np.array_equal(out.joint, joint)
    assert joint.shape == (spec.dim_out, spec.dim_anc)
    assert np.linalg.norm(joint) == pytest.approx(1.0, abs=TOL)
    traced = joint @ joint.conj().T
    assert np.allclose(traced, dense_matrix(werner_output(spec, phi)), atol=TOL)


class TestJointStates:
    def test_fan_joint_traces_to_density(self):
        spec = CloneSpec(2, 1, 3)
        phi = random_pure_state(2, 21)
        _check_joint_factor(spec, phi, fan_output(spec, phi))

    def test_unified_joint_traces_to_density(self):
        spec = CloneSpec(3, 1, 2)
        phi = random_pure_state(3, 22)
        _check_joint_factor(spec, phi, unified_output(spec, phi))

    def test_pure_expansion_norm_is_inverse_eta(self):
        # Every symmetric input |a> picks up the same total weight 1/eta:
        # C(M, N) * sum_k f(a+k, k)^2 = 1/eta^2 on every row of the unified weights.
        for d, n, m in [(2, 1, 2), (2, 2, 4), (3, 1, 3), (3, 2, 3), (4, 3, 7)]:
            coeff = machines._unified_weights(d, n, m)
            rows = math.comb(m, n) * (coeff**2).sum(axis=1)
            inverse_eta_sq = 1 / CloneSpec(d, n, m).eta_sq
            assert np.allclose(rows, float(inverse_eta_sq), rtol=1e-12, atol=0)


class TestExplicitPair:
    def test_matches_unified_machine_joint(self):
        # The closed-form 1 -> 2 map is the entangled-pair machine itself.
        for d in (2, 3):
            phi = random_pure_state(d, 31)
            closed = explicit_1to2(d, phi)
            oracle = unified_output_oracle(CloneSpec(d, 1, 2), phi)
            overlap = abs(np.vdot(closed, oracle.factor.ravel()))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_basis_input_amplitudes_d2(self):
        out = explicit_1to2(2, PureState.basis(2, 0))
        amps = out.real
        assert amps[0b000] == pytest.approx(math.sqrt(2 / 3), abs=1e-12)
        assert amps[0b011] == pytest.approx(math.sqrt(1 / 6), abs=1e-12)
        assert amps[0b101] == pytest.approx(math.sqrt(1 / 6), abs=1e-12)
        assert np.count_nonzero(np.abs(out) > 1e-15) == 3

    def test_clone_fidelity_is_symmetric_optimum(self):
        for d in (2, 3, 4):
            phi = random_pure_state(d, 33)
            out = explicit_1to2(d, phi)
            rho = partial_trace(FullDensity(out[:, None], 3, d), {0})
            expected = (d + 3) / (2 * (d + 1))
            assert fidelity_pure(rho, phi.amplitudes) == pytest.approx(expected, abs=TOL)


class TestCovariance:
    @pytest.mark.parametrize("d,n,m", [(2, 1, 2), (2, 2, 3), (3, 1, 2)])
    def test_rotating_input_conjugates_output(self, d, n, m):
        spec = CloneSpec(d, n, m)
        phi = random_pure_state(d, 41)
        u = random_unitary(d, 42)
        big = sym_unitary(u, m)
        for name in MACHINES:
            direct = run_machine(spec, PureState(u @ phi.amplitudes), name)
            conjugated = big @ dense_matrix(run_machine(spec, phi, name)) @ big.conj().T
            assert trace_distance_matrices(dense_matrix(direct), conjugated) < TOL


def _pair_clone(d, phi, alpha, beta):
    return weighted_clone(CloneSpec(d, 1, 2), phi, AsymmetryWeights.pair(alpha, beta))


class TestAsymmetricPair:
    def test_limit_all_weight_on_first(self):
        for d in (2, 3, 4):
            phi = random_pure_state(d, 51)
            res = _pair_clone(d, phi, 1.0, 0.0)
            assert res.slot_fidelities[0] == pytest.approx(1.0, abs=1e-12)
            assert res.slot_fidelities[1] == pytest.approx(1.0 / d, abs=1e-12)
            clone_b = partial_trace(FullDensity(res.joint[:, None], 3, d), {1})
            assert np.allclose(dense_matrix(clone_b), np.eye(d) / d, atol=1e-12)

    def test_equal_weights_reach_symmetric_value(self):
        for d in (2, 3):
            phi = random_pure_state(d, 52)
            res = _pair_clone(d, phi, 1.0, 1.0)
            expected = (d + 3) / (2 * (d + 1))
            assert res.slot_fidelities[0] == pytest.approx(expected, abs=TOL)
            assert res.slot_fidelities[1] == pytest.approx(expected, abs=TOL)

    def test_normalization_closed_form(self):
        # Cross term of the two routings contributes 2 alpha beta / d.
        d = 3
        phi = random_pure_state(d, 53)
        alpha, beta = 0.8, 0.6
        res = _pair_clone(d, phi, alpha, beta)
        expected = math.sqrt(alpha**2 + beta**2 + 2 * alpha * beta / d)
        assert res.normalization == pytest.approx(expected, abs=1e-12)

    def test_weights_scale_by_powers_of_two_exactly(self):
        # The sum is taken with the largest weight scaled into [1/2, 1), so
        # weights 2^k times larger give the same bits, from the smallest
        # normal weights to the float range, where the normalization is inf.
        d = 3
        phi = random_pure_state(d, 55)
        base = _pair_clone(d, phi, 0.8, 0.6)
        for k in (-1021, -600, 600, 1024):
            res = _pair_clone(d, phi, math.ldexp(0.8, k), math.ldexp(0.6, k))
            assert np.array_equal(res.joint, base.joint)
            assert res.slot_fidelities == base.slot_fidelities
            if k < 1024:
                assert res.normalization == math.ldexp(base.normalization, k)
            else:
                assert res.normalization == math.inf

    def test_tradeoff_is_monotone(self):
        for d in (2, 3):
            phi = random_pure_state(d, 54)
            f_a, f_b = [], []
            for i in range(50):
                theta = (math.pi / 2) * (i / 49)
                res = _pair_clone(d, phi, math.cos(theta), math.sin(theta))
                f_a.append(res.slot_fidelities[0])
                f_b.append(res.slot_fidelities[1])
            assert all(x > y for x, y in zip(f_a, f_a[1:]))
            assert all(x < y for x, y in zip(f_b, f_b[1:]))

    def test_fidelities_independent_of_input(self):
        d = 2
        values = [
            _pair_clone(d, random_pure_state(d, s), 0.9, 0.3).slot_fidelities[0]
            for s in range(5)
        ]
        assert max(values) - min(values) < TOL


class TestAsymmetryWeights:
    def test_subsets_are_sorted_and_deduplicated(self):
        w = AsymmetryWeights({(2, 0): 1.0})
        assert (0, 2) in w.weights

    def test_negative_weight_raises(self):
        with pytest.raises(ValueError):
            AsymmetryWeights.pair(-0.1, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            AsymmetryWeights.pair(bad, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            AsymmetryWeights.pair(1.0, bad)

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            AsymmetryWeights.pair(0.0, 0.0)

    def test_repeated_slot_raises(self):
        with pytest.raises(ValueError):
            AsymmetryWeights({(1, 1): 1.0})

    def test_equal_builder_covers_all_subsets(self):
        w = AsymmetryWeights.equal(2, 4)
        assert len(w.weights) == 6


class TestWeightedClone:
    def test_equal_weights_match_symmetric_machine(self):
        for d, n, m in [(2, 1, 3), (2, 2, 3), (3, 1, 2)]:
            spec = CloneSpec(d, n, m)
            phi = random_pure_state(d, 61)
            res = weighted_clone(spec, phi, AsymmetryWeights.equal(n, m))
            joint = FullDensity(res.joint[:, None], 2 * m - n, d)
            output = partial_trace(joint, range(m))
            oracle = unified_output_oracle(spec, phi)
            oracle_mat = dense_matrix(oracle)
            assert trace_distance_matrices(dense_matrix(output), oracle_mat) < TOL

    def test_single_subset_clones_perfectly_inside(self):
        spec = CloneSpec(2, 1, 3)
        phi = random_pure_state(2, 62)
        w = AsymmetryWeights({(0,): 1.0, (1,): 0.0, (2,): 0.0})
        res = weighted_clone(spec, phi, w)
        assert res.slot_fidelities[0] == pytest.approx(1.0, abs=1e-12)
        assert res.slot_fidelities[1] == pytest.approx(0.5, abs=1e-12)
        assert res.slot_fidelities[2] == pytest.approx(0.5, abs=1e-12)

    def test_missing_subset_raises(self):
        spec = CloneSpec(2, 1, 3)
        phi = random_pure_state(2, 64)
        with pytest.raises(ValueError):
            weighted_clone(spec, phi, AsymmetryWeights({(0,): 1.0}))

    def test_vanishing_combination_raises(self, monkeypatch):
        # Every overlap of two permuted pair arrangements is positive, so no
        # valid weights cancel them; a zero arrangement reaches the check.
        monkeypatch.setattr(
            machines,
            "_pair_arrangement",
            lambda phi, copies, blanks: np.zeros(phi.dim ** (copies + 2 * blanks)),
        )
        phi = random_pure_state(2, 65)
        with pytest.raises(ValueError, match="weighted combination vanished"):
            weighted_clone(CloneSpec(2, 1, 2), phi, AsymmetryWeights.pair(0.8, 0.6))


class TestRunMachine:
    def test_unknown_machine_raises(self):
        with pytest.raises(ValueError):
            run_machine(CloneSpec(2, 1, 2), random_pure_state(2, 0), "telepathy")

    def test_machines_are_looked_up_when_run(self, monkeypatch):
        # A tracer wraps the module attribute; run_machine must reach the wrapper.
        calls = []

        def spy(spec, phi):
            calls.append((spec, phi))
            return fan_output(spec, phi)

        monkeypatch.setattr(machines, "fan_output", spy)
        spec, phi = CloneSpec(2, 1, 2), random_pure_state(2, 0)
        run_machine(spec, phi, "fan")
        assert calls == [(spec, phi)]

    def test_fast_paths_build_no_occupation_vector(self, monkeypatch):
        # Cold caches, so the occupation tables are rebuilt inside the run;
        # they come from the count tuples alone, never from the exact layer.
        for cached in (symmetric.occupation_counts, symmetric.split_index,
                       machines._werner_weights, machines._fan_weights,
                       machines._unified_weights):
            cached.cache_clear()

        # The exact coefficient is a test reference, out of the package's reach.
        for module in (uqcm, combinatorics):
            assert not hasattr(module, "splitting_coefficient_sq")
        spec = CloneSpec(3, 2, 5)
        phi = random_pure_state(3, 17)
        for machine in MACHINES:
            rho = run_machine(spec, phi, machine)
            numerics = fidelities_numeric(rho, phi)
            assert len(numerics) == spec.m_out
            for numeric, closed in zip(numerics, fidelities_closed(spec)):
                assert numeric == pytest.approx(float(closed), abs=TOL)

"""Tests for the full-tensor-space oracle substrate."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqcm.hilbert import (
    ORACLE_CAP,
    FullDensity,
    OracleCapError,
    PureState,
    check_cap,
    check_factor,
    checked_fidelities,
    fidelity_pure,
    maximally_entangled,
    partial_trace,
    permute_factors,
    random_pure_state,
    random_unitary,
    trace_distance_factors,
    _standard_normals,
)

from reference import dense_matrix, trace_distance_matrices

TOL = 1e-12


def _svd_trace_distance(a, b):
    """Reference: half the sum of the singular values of a - b."""
    return 0.5 * float(np.linalg.svd(a - b, compute_uv=False).sum())


def _density_with_spectrum(weights, seed):
    """U diag(weights) U^dagger for a Haar U, made exactly Hermitian."""
    u = random_unitary(len(weights), seed)
    mat = (u * weights) @ u.conj().T
    return (mat + mat.conj().T) / 2


def _rank_deficient_spectrum(dim):
    """dim // 2 positive weights, the rest 0; trace 1."""
    rng = np.random.default_rng(dim)
    weights = np.zeros(dim)
    positive = max(dim // 2, 1)
    weights[:positive] = rng.uniform(0.5, 1.0, positive)
    weights[:positive] /= weights[:positive].sum()
    return weights


def _random_full(d, factors, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=d**factors) + 1j * rng.normal(size=d**factors)
    return amps / np.linalg.norm(amps)


def _pure(amps, factors, d):
    """|amps><amps| as the one-column factor of the amplitudes."""
    return FullDensity(amps[:, None], factors, d)


class TestPureState:
    def test_basis_state(self):
        psi = PureState.basis(3, 1)
        assert psi.amplitudes[1] == 1
        assert psi.dim == 3

    @pytest.mark.parametrize("level", [-1, 3])
    def test_basis_level_outside_the_qudit_raises(self, level):
        with pytest.raises(ValueError, match="outside 0..2"):
            PureState.basis(3, level)

    def test_unnormalized_raises(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("amps", [[1.0], []])
    def test_fewer_than_two_amplitudes_raise(self, amps):
        with pytest.raises(ValueError, match="qudit dimension must be >= 2"):
            PureState(np.array(amps))

    def test_normalizing_the_zero_vector_raises(self):
        with pytest.raises(ValueError, match="zero vector"):
            PureState.normalized(np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make", [PureState, PureState.normalized])
    def test_non_finite_amplitudes_raise(self, make, bad):
        # A NaN norm fails every comparison, so the check must fail on it too.
        for amps in ([bad, 0.0], [bad, 1.0], [1.0, 1j * bad]):
            with pytest.raises(ValueError):
                make(np.array(amps))

    def test_normalized_constructor(self):
        psi = PureState.normalized(np.array([3.0, 4.0]))
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=TOL)

    def test_density_is_projector(self):
        psi = random_pure_state(3, 5)
        rho = dense_matrix(psi)
        assert np.allclose(rho @ rho, rho, atol=TOL)
        assert np.trace(rho).real == pytest.approx(1.0, abs=TOL)


class TestTensorAndPermute:
    def test_permute_swaps_factors(self):
        a = PureState.basis(2, 0).amplitudes
        b = PureState.basis(2, 1).amplitudes
        swapped = permute_factors(np.kron(a, b), 2, (1, 0))
        assert swapped[2] == 1  # |1>|0>

    def test_permutation_composition(self):
        psi = _random_full(2, 3, 9)
        once = permute_factors(permute_factors(psi, 2, (1, 2, 0)), 2, (1, 2, 0))
        thrice = permute_factors(psi, 2, (2, 0, 1))
        assert np.allclose(once, thrice, atol=TOL)

    def test_bad_permutation_raises(self):
        psi = _random_full(2, 2, 1)
        with pytest.raises(ValueError):
            permute_factors(psi, 2, (0, 0))

    def test_permutation_of_another_length_raises(self):
        psi = _random_full(2, 3, 1)
        with pytest.raises(ValueError, match="does not permute 8 amplitudes"):
            permute_factors(psi, 2, (1, 0))


class TestPartialTrace:
    def test_product_state_factorizes(self):
        a = random_pure_state(2, 3)
        b = random_pure_state(2, 4)
        joint = np.kron(a.amplitudes, b.amplitudes)
        left = partial_trace(_pure(joint, 2, 2), {0})
        assert np.allclose(dense_matrix(left), dense_matrix(a), atol=TOL)

    def test_two_step_equals_one_step(self):
        rho = _pure(_random_full(2, 4, 11), 4, 2)
        direct = partial_trace(rho, {0, 2})
        staged = partial_trace(partial_trace(rho, {0, 2, 3}), {0, 1})
        assert np.allclose(dense_matrix(direct), dense_matrix(staged), atol=TOL)

    def test_state_shortcut_matches_density_route(self):
        # A pure state's one-column factor, traced, against the dense
        # contraction of |psi><psi|.
        amps = _random_full(3, 3, 13)
        shaped = np.multiply.outer(amps, amps.conj()).reshape((3,) * 6)
        for keep in ({0}, {1}, {2}, {0, 2}, {1, 2}):
            cols = [i if i not in keep else 3 + i for i in range(3)]
            out = sorted(keep) + [3 + i for i in sorted(keep)]
            dim = 3 ** len(keep)
            expected = np.einsum(shaped, [0, 1, 2] + cols, out).reshape(dim, dim)
            reduced = partial_trace(_pure(amps, 3, 3), keep)
            assert np.allclose(dense_matrix(reduced), expected, atol=TOL)

    @pytest.mark.parametrize(
        "keep, match", [(set(), "nonempty"), ({-1}, "outside 0..1"), ({0, 2}, "outside 0..1")]
    )
    def test_keep_set_outside_the_factors_raises(self, keep, match):
        with pytest.raises(ValueError, match=match):
            partial_trace(_pure(_random_full(2, 2, 17), 2, 2), keep)

    def test_keep_all_is_identity(self):
        psi = _random_full(2, 2, 17)
        rho = partial_trace(_pure(psi, 2, 2), {0, 1})
        assert np.allclose(dense_matrix(rho), dense_matrix(_pure(psi, 2, 2)), atol=TOL)

    @pytest.mark.parametrize("keep", [{0}, {2}, {0, 2}, {1, 3}, {0, 1, 3}])
    def test_factor_reshape_matches_dense_contraction(self, keep):
        # A rank-3 density on four qutrits, traced on its dense matrix as
        # the reference; the reduced factor moves the traced qudits into
        # its columns.
        rng = np.random.default_rng(19)
        factor = rng.normal(size=(81, 3)) + 1j * rng.normal(size=(81, 3))
        rho = FullDensity(factor / np.linalg.norm(factor), 4, 3)
        reduced = partial_trace(rho, keep)
        assert reduced.factor.shape == (3 ** len(keep), 3 ** (4 - len(keep)) * 3)
        shaped = dense_matrix(rho).reshape((3,) * 8)
        rows = list(range(4))
        cols = [i if i not in keep else 4 + i for i in range(4)]
        out = sorted(keep) + [4 + i for i in sorted(keep)]
        dim = 3 ** len(keep)
        expected = np.einsum(shaped, rows + cols, out).reshape(dim, dim)
        assert np.allclose(dense_matrix(reduced), expected, atol=TOL)

    def test_state_shortcut_is_the_amplitude_block(self):
        psi = _random_full(2, 3, 23)
        rho = partial_trace(_pure(psi, 3, 2), {0})
        assert rho.factor.shape == (2, 4)
        assert np.array_equal(rho.factor.ravel(), psi)


class TestFullDensity:
    def test_matrix_is_formed_from_the_read_only_factor(self):
        # The density holds no dense matrix; the reference forms one from F.
        rng = np.random.default_rng(29)
        factor = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
        rho = FullDensity(factor / np.linalg.norm(factor), 3, 2)
        assert not hasattr(rho, "matrix")
        assert not rho.factor.flags.writeable
        assert np.allclose(dense_matrix(rho), rho.factor @ rho.factor.conj().T, atol=TOL)

    def test_pure_state_density_is_its_column(self):
        psi = _random_full(3, 2, 31)
        rho = _pure(psi, 2, 3)
        assert rho.factor.shape == (9, 1)
        assert np.allclose(dense_matrix(rho), np.outer(psi, psi.conj()), atol=TOL)

    @pytest.mark.parametrize(
        "factor, match",
        [
            (np.full((4, 1), 0.6), "trace"),
            (np.full((4, 1), np.nan), "non-finite"),
            (np.full((2, 2), 0.5), "shape"),
        ],
    )
    def test_bad_factor_rejected(self, factor, match):
        with pytest.raises(ValueError, match=match):
            FullDensity(factor, 2, 2)


class TestMetrics:
    def test_trace_distance_extremes(self):
        a = FullDensity(PureState.basis(2, 0).amplitudes[:, None], 1, 2)
        b = FullDensity(PureState.basis(2, 1).amplitudes[:, None], 1, 2)
        a_mat, b_mat = dense_matrix(a), dense_matrix(b)
        assert trace_distance_matrices(a_mat, a_mat) == pytest.approx(0.0, abs=TOL)
        assert trace_distance_matrices(a_mat, b_mat) == pytest.approx(1.0, abs=TOL)
        assert trace_distance_factors(a.factor, a.factor) == pytest.approx(0.0, abs=TOL)
        assert trace_distance_factors(a.factor, b.factor) == pytest.approx(1.0, abs=TOL)

    def test_matrix_variant_agrees(self):
        # Two pure states sit at trace distance sqrt(1 - |<x|y>|^2).
        x = random_pure_state(3, 1)
        y = random_pure_state(3, 2)
        overlap = abs(np.vdot(x.amplitudes, y.amplitudes)) ** 2
        expected = np.sqrt(1.0 - overlap)
        got = trace_distance_matrices(dense_matrix(x), dense_matrix(y))
        assert got == pytest.approx(expected, abs=TOL)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(2, 64),
        st.integers(1, 64),
        st.integers(1, 64),
        st.integers(0, 2**16),
    )
    def test_matches_singular_value_sum(self, dim, rank_a, rank_b, seed):
        # Full rank when the drawn rank reaches dim, rank-deficient otherwise.
        rng = np.random.default_rng(seed)

        def density(rank):
            rank = min(rank, dim)
            factor = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
            return factor @ factor.conj().T / np.vdot(factor, factor).real

        a, b = density(rank_a), density(rank_b)
        expected = _svd_trace_distance(a, b)
        assert trace_distance_matrices(a, b) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("skew", [1e-6, 1e-6j, 0.8e-10 * (1 + 1j)])
    def test_non_hermitian_difference_raises(self, skew):
        a = np.eye(3, dtype=np.complex128) / 3
        b = a.copy()
        b[0, 2] += skew
        with pytest.raises(ValueError, match="not Hermitian"):
            trace_distance_matrices(a, b)

    @pytest.mark.parametrize("skew, hermitian", [(0.5e-10 * (1 + 1j), True),
                                                 (0.8e-10 * (1 + 1j), False)])
    def test_hermiticity_bounds_the_entry_modulus(self, skew, hermitian):
        # Real and imaginary parts of the gap are each 0.5e-10 or 0.8e-10,
        # so only the modulus (0.71e-10 or 1.13e-10) decides.
        a = np.eye(3, dtype=np.complex128) / 3
        b = a.copy()
        b[0, 2] += skew
        if hermitian:
            assert 0.0 <= trace_distance_matrices(a, b) <= abs(skew)
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                trace_distance_matrices(a, b)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        a = np.eye(2, dtype=np.complex128) / 2
        b = a.copy()
        b[1, 1] = bad
        with pytest.raises(ValueError, match="not Hermitian"):
            trace_distance_matrices(a, b)

    def test_fidelity_pure_matches_expectation(self):
        psi = random_pure_state(2, 8)
        rho = FullDensity(np.eye(2) / np.sqrt(2), 1, 2)
        assert fidelity_pure(rho, psi.amplitudes) == pytest.approx(0.5, abs=TOL)

    def test_fidelity_pure_rejects_a_state_of_another_size(self):
        rho = FullDensity(np.eye(2) / np.sqrt(2), 1, 2)
        with pytest.raises(ValueError, match="amplitudes against"):
            fidelity_pure(rho, random_pure_state(3, 8).amplitudes)

    def test_checked_fidelities_clip_rounding_onto_the_interval(self):
        values = (1.0 + 4e-16, -3e-17, 0.25, 1.0 + 1e-10, -1e-10)
        assert checked_fidelities(iter(values)) == (1.0, 0.0, 0.25, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [1.0 + 2e-10, -2e-10, np.nan, np.inf])
    def test_checked_fidelities_reject_a_value_beyond_the_tolerance(self, bad):
        with pytest.raises(ValueError, match="outside"):
            checked_fidelities([0.5, bad])

    def test_checked_fidelities_keep_every_bit_inside(self):
        # A signed zero stays signed, as min(max(value, 0.0), 1.0) keeps it,
        # and an array comes back as Python floats.
        values = np.array([-0.0, 0.0, 0.1 + 0.2, 1.0 - 2**-53, 5e-324, 1.0])
        checked = checked_fidelities(values)
        assert all(type(value) is float for value in checked)
        assert [math.copysign(1.0, value) for value in checked[:2]] == [-1.0, 1.0]
        assert np.array_equal(np.array(checked).view(np.int64), values.view(np.int64))
        assert checked_fidelities([]) == ()

    @pytest.mark.parametrize(
        "values,first",
        [([0.5, 2.0, np.nan], "2.0"), ([np.nan, 2.0], "nan"), ([1.0, -np.inf, 0.5], "-inf")],
    )
    def test_checked_fidelities_name_the_first_value_outside(self, values, first):
        with pytest.raises(ValueError, match=rf"^fidelity {first} outside \[0, 1\]$"):
            checked_fidelities(values)


class TestTraceDistanceFactors:
    @staticmethod
    def _factor(rng, dim, rank):
        factor = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        return factor / np.linalg.norm(factor)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(2, 64),
        st.integers(1, 80),
        st.integers(1, 80),
        st.integers(0, 2**16),
    )
    def test_equals_dense_trace_distance(self, dim, rank_x, rank_y, seed):
        # Ranks up to 80 against dims from 2 put r_x + r_y above D as often
        # as below it.
        rng = np.random.default_rng(seed)
        x, y = self._factor(rng, dim, rank_x), self._factor(rng, dim, rank_y)
        dense = trace_distance_matrices(x @ x.conj().T, y @ y.conj().T)
        assert trace_distance_factors(x, y) == pytest.approx(dense, abs=1e-12)

    @pytest.mark.parametrize("dim, rank_x, rank_y", [(343, 1, 1), (343, 1, 7),
                                                    (27, 20, 20), (8, 1, 40)])
    def test_equals_dense_at_rank_one_and_wide_stacks(self, dim, rank_x, rank_y):
        rng = np.random.default_rng(dim + rank_x + rank_y)
        x, y = self._factor(rng, dim, rank_x), self._factor(rng, dim, rank_y)
        dense = trace_distance_matrices(x @ x.conj().T, y @ y.conj().T)
        assert trace_distance_factors(x, y) == pytest.approx(dense, abs=1e-12)

    def test_rank_one_pair_is_the_pure_state_distance(self):
        x = random_pure_state(5, 3).amplitudes[:, None]
        y = random_pure_state(5, 4).amplitudes[:, None]
        overlap = abs(np.vdot(x, y)) ** 2
        assert trace_distance_factors(x, y) == pytest.approx(
            np.sqrt(1.0 - overlap), abs=TOL
        )

    @pytest.mark.parametrize("dim, rank", [(27, 4), (343, 7), (8, 12)])
    def test_gauge_rotated_equal_pair_reads_zero(self, dim, rank):
        # F and F W give the same density for any unitary W.
        rng = np.random.default_rng(dim * rank)
        x = self._factor(rng, dim, rank)
        y = x @ random_unitary(rank, dim)
        assert trace_distance_factors(x, y) < 1e-14

    def test_two_dimensional_operands_give_a_float(self):
        rng = np.random.default_rng(3)
        x, y = self._factor(rng, 6, 2), self._factor(rng, 6, 3)
        assert type(trace_distance_factors(x, y)) is float

    def test_different_row_counts_raise(self):
        with pytest.raises(ValueError, match="rows"):
            trace_distance_factors(np.ones((4, 1)) / 2, np.ones((2, 1)) / np.sqrt(2))


class TestStackedTraceDistance:
    """Stacks of factors are refused, whether or not their leading shapes
    agree: only two matrices are compared."""

    @staticmethod
    def _stack(rng, lead, dim, rank):
        return rng.normal(size=lead + (dim, rank))

    @pytest.mark.parametrize("x_lead,y_lead", [((3,), (2,)), ((3,), ()), ((), (3,)),
                                               ((2, 3), (3, 2)), ((6,), (6, 1))])
    def test_leading_shapes_that_differ_raise(self, x_lead, y_lead):
        rng = np.random.default_rng(5)
        x, y = self._stack(rng, x_lead, 5, 2), self._stack(rng, y_lead, 5, 2)
        with pytest.raises(ValueError, match="not matrices with the same rows"):
            trace_distance_factors(x, y)

    @pytest.mark.parametrize("lead", [(1,), (6,), (2, 3)])
    def test_stacks_with_the_same_leading_shape_raise(self, lead):
        rng = np.random.default_rng(7)
        x, y = self._stack(rng, lead, 5, 2), self._stack(rng, lead, 5, 3)
        with pytest.raises(ValueError, match="not matrices with the same rows"):
            trace_distance_factors(x, y)


class TestMaximallyEntangled:
    def test_reduction_is_maximally_mixed(self):
        for d in (2, 3, 4):
            pair = maximally_entangled(d)
            assert np.linalg.norm(pair) == pytest.approx(1.0, abs=TOL)
            rho = partial_trace(_pure(pair, 2, d), {0})
            assert np.allclose(dense_matrix(rho), np.eye(d) / d, atol=TOL)

    def test_dimension_below_2_raises(self):
        with pytest.raises(ValueError, match="qudit dimension must be >= 2, got 1"):
            maximally_entangled(1)


class TestRandomness:
    def test_unitary_is_unitary(self):
        for d in (2, 3, 5, 8, 16):
            for seed in (0, 123, 2**31 - 1):
                u = random_unitary(d, seed)
                assert np.abs(u @ u.conj().T - np.eye(d)).max() < TOL

    def test_seeded_determinism(self):
        assert np.array_equal(random_unitary(3, 7), random_unitary(3, 7))
        assert np.array_equal(
            random_pure_state(3, 7).amplitudes, random_pure_state(3, 7).amplitudes
        )

    def test_different_seeds_differ(self):
        assert not np.allclose(random_unitary(3, 1), random_unitary(3, 2))
        # 5 + 2^32: Random seeds from the whole int, not its low 32 bits.
        seeds = [*range(50), 5 + 2**32]
        states = {random_pure_state(4, seed).amplitudes.tobytes() for seed in seeds}
        assert len(states) == len(seeds)

    def test_normals_are_box_muller_of_the_stdlib_stream(self):
        # Pins the stream: uniforms u from random.Random(seed).random(),
        # taken as 1 - u, paired as (radius of the first half, angle of the
        # second).  An odd count drops the last sine.
        for seed, count in ((0, 6), (7, 5), (2**40 + 3, 2)):
            stream = random.Random(seed)
            pairs = (count + 1) // 2
            u = [1.0 - stream.random() for _ in range(2 * pairs)]
            radius = [math.sqrt(-2.0 * math.log(x)) for x in u[:pairs]]
            angle = [2.0 * math.pi * x for x in u[pairs:]]
            expected = [r * math.cos(a) for r, a in zip(radius, angle)]
            expected += [r * math.sin(a) for r, a in zip(radius, angle)]
            got = _standard_normals(count, seed)
            assert got.shape == (count,)
            assert np.allclose(got, expected[:count], rtol=1e-15, atol=1e-15)

    def test_samplers_read_their_normals_from_the_helper(self):
        z = _standard_normals(6, 11).view(np.complex128)
        assert np.array_equal(random_pure_state(3, 11).amplitudes, z / np.linalg.norm(z))
        g = _standard_normals(18, 12).view(np.complex128).reshape(3, 3) / math.sqrt(2)
        q, r = np.linalg.qr(g)
        diag = np.diagonal(r)
        assert np.array_equal(random_unitary(3, 12), q * (diag / np.abs(diag)))

    @pytest.mark.parametrize("seed", [-1, -5, 1.5, 2.0, "3", None, True])
    def test_seed_must_be_a_non_negative_int(self, seed):
        for sample in (random_pure_state, random_unitary):
            with pytest.raises(ValueError, match="non-negative int"):
                sample(3, seed)

    @pytest.mark.parametrize("d", [2, 5])
    def test_first_amplitude_has_the_haar_mean(self, d):
        # |x_0|^2 of a Haar state is Beta(1, d-1): mean 1/d, variance
        # (d-1) / (d^2 (d+1)).
        trials = 2000
        weights = [abs(random_pure_state(d, seed).amplitudes[0]) ** 2 for seed in range(trials)]
        sigma = math.sqrt((d - 1) / (d * d * (d + 1)) / trials)
        assert abs(np.mean(weights) - 1 / d) < 5 * sigma

    def test_state_is_normalized(self):
        psi = random_pure_state(4, 99)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=TOL)

    def test_large_state_draws_no_unitary(self):
        # A 3000 x 3000 unitary and its QR would take hundreds of MB.
        tracemalloc.start()
        try:
            psi = random_pure_state(3000, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=TOL)
        assert np.array_equal(psi.amplitudes, random_pure_state(3000, 5).amplitudes)


class TestDenseCheckMemory:
    # Measured at D = 343, relative to a.nbytes: trace_distance_matrices
    # 2.03x (the difference and the two real Hermiticity buffers).  LAPACK's
    # own work copies are allocated outside tracemalloc's view.  The slack
    # covers numpy's fixed-size ufunc buffers, whatever the size of a.
    @pytest.fixture(scope="class")
    def pair(self):
        weights = _rank_deficient_spectrum(343)
        return _density_with_spectrum(weights, 1), _density_with_spectrum(weights, 2)

    @staticmethod
    def _peak(func, *args):
        func(*args)  # numpy's first-call set-up is not what is measured
        tracemalloc.start()
        try:
            func(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_trace_distance_peak(self, pair):
        a, b = pair
        slack = 2 * np.getbufsize() * a.itemsize
        assert self._peak(trace_distance_matrices, a, b) <= 2 * a.nbytes + slack


class TestCheckFactor:
    def test_unit_norm_factor_passes(self):
        factor = np.arange(6, dtype=np.complex128).reshape(3, 2)
        check_factor(factor / np.linalg.norm(factor), 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        factor = np.full((2, 2), 0.5, dtype=np.complex128)
        factor[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            check_factor(factor, 2)

    def test_wrong_trace_raises(self):
        with pytest.raises(ValueError, match="trace"):
            check_factor(np.full((2, 2), 0.6, dtype=np.complex128), 2)

    def test_wrong_shape_raises(self):
        column = np.array([0.6, 0.8], dtype=np.complex128)
        with pytest.raises(ValueError, match="shape"):
            check_factor(column.reshape(2, 1), 3)
        with pytest.raises(ValueError, match="shape"):
            check_factor(column, 2)


class TestOracleCap:
    def test_boundary_allowed(self):
        check_cap(2, 12)  # exactly 4096 amplitudes

    def test_over_cap_raises(self):
        with pytest.raises(OracleCapError):
            check_cap(2, 13)
        with pytest.raises(OracleCapError):
            check_cap(4, 7)

    def test_cap_value(self):
        assert ORACLE_CAP == 4096

"""Tests for the occupation-number representation of the symmetric subspace."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqcm.combinatorics import sym_dim
from uqcm.hilbert import (
    FullDensity,
    PureState,
    maximally_entangled,
    partial_trace,
    permute_factors,
    random_pure_state,
    random_unitary,
    trace_distance_factors,
)
from uqcm.symmetric import (
    SymDensity,
    _canonical_index,
    _ladder_table,
    expand_power,
    occupation_counts,
    project_symmetric,
    split_index,
    sym_to_full_density,
    sym_unitary,
    trace_distance_bound,
)

from reference import (
    dense_matrix,
    embed,
    embed_isometry,
    full_to_sym_density,
    occupation_tuples,
    projector_full,
    reduce_symmetric,
    reference_weights,
    scatter_loop,
    sym_to_full_state,
)

TOL = 1e-12


def _random_sym_density(d, total, seed, kept=None):
    """Random amplitude table on the (kept, total - kept) split; kept = total by default.

    At kept = total the table is one column, an arbitrary pure state of the
    symmetric subspace, so reductions checked on it are checked, by
    linearity, on every density the subspace supports.
    """
    kept = total if kept is None else kept
    rng = np.random.default_rng(seed)
    shape = (sym_dim(d, kept), sym_dim(d, total - kept))
    table = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return SymDensity(d, total, table / np.linalg.norm(table), kept)


def _gram(factor):
    return factor @ factor.conj().T


class TestSymBasis:
    """The symmetric basis (d, total): its count table and the rank of a vector."""

    def test_dimension_and_order(self):
        counts = occupation_counts(2, 3)
        assert counts.shape == (sym_dim(2, 3), 2) == (4, 2)
        assert tuple(counts[0]) == (3, 0)
        assert tuple(counts[-1]) == (0, 3)
        assert not counts.flags.writeable

    def test_negative_count_raises(self):
        # (3, -1) has the right slot count and total for (2, 2).
        with pytest.raises(ValueError, match="negative"):
            embed((3, -1))

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(2, 5), st.integers(0, 6))
    def test_counts_table_is_the_enumeration(self, d, total):
        counts = occupation_counts(d, total)
        assert [tuple(row) for row in counts] == list(occupation_tuples(d, total))
        assert np.array_equal(
            _canonical_index(total, counts), np.arange(sym_dim(d, total))
        )

    @pytest.mark.parametrize("d,total", [(3, 300), (10, 10), (4, 150), (2, 2000), (16, 3)])
    def test_vectorised_counts_equal_the_enumeration_at_size(self, d, total):
        # The table is built by np.repeat passes, never from the tuples.
        occupation_counts.cache_clear()
        expected = np.array(list(occupation_tuples(d, total)), dtype=np.intp)
        assert np.array_equal(occupation_counts(d, total), expected)


class TestEmbedding:
    def test_isometry_matches_literal_product_strings(self):
        # Column m holds 1/sqrt(#strings) on every product string whose
        # level histogram is m, found here by search over the enumeration.
        d, total = 3, 3
        occs = list(occupation_tuples(d, total))
        strings = list(product(range(d), repeat=total))
        expected = np.zeros((d**total, len(occs)))
        for row, string in enumerate(strings):
            expected[row, occs.index(tuple(string.count(j) for j in range(d)))] = 1.0
        expected /= np.sqrt(expected.sum(axis=0))
        assert np.array_equal(embed_isometry(d, total), expected)

    def test_isometry_property(self):
        for d, total in [(2, 2), (2, 3), (3, 2)]:
            iso = embed_isometry(d, total)
            assert np.allclose(
                iso.T @ iso, np.eye(sym_dim(d, total)), atol=TOL
            )

    def test_stretched_state_is_product_basis(self):
        # (total, 0, ...) holds every qudit in level 0, so it embeds to index 0.
        psi = embed((3, 0))
        assert psi[0] == pytest.approx(1.0, abs=TOL)

    def test_balanced_qubit_pair(self):
        psi = embed((1, 1))
        expected = np.zeros(4)
        expected[1] = expected[2] = 1 / np.sqrt(2)
        assert np.allclose(psi, expected, atol=TOL)

    def test_projector_idempotent_hermitian(self):
        proj = projector_full(2, 3)
        assert np.allclose(proj @ proj, proj, atol=TOL)
        assert np.allclose(proj, proj.conj().T, atol=TOL)
        assert np.trace(proj).real == pytest.approx(sym_dim(2, 3), abs=TOL)

    def test_projector_permutation_invariant(self):
        proj = projector_full(2, 3)
        perm = (2, 0, 1)
        swap = np.zeros((8, 8))
        for idx in range(8):
            bits = [(idx >> (2 - f)) & 1 for f in range(3)]
            new_bits = [bits[perm[f]] for f in range(3)]
            new_idx = (new_bits[0] << 2) | (new_bits[1] << 1) | new_bits[2]
            swap[new_idx, idx] = 1
        assert np.allclose(swap @ proj @ swap.T, proj, atol=TOL)


    @pytest.mark.parametrize("d,total,columns", [(2, 3, 1), (3, 4, 5), (4, 3, 16)])
    def test_projection_matches_dense_projector(self, d, total, columns):
        rng = np.random.default_rng(d * total + columns)
        x = rng.normal(size=(d**total, columns)) + 1j * rng.normal(
            size=(d**total, columns)
        )
        expected = projector_full(d, total) @ x
        assert np.allclose(project_symmetric(x, d, total), expected, atol=TOL)


class TestExpandPower:
    def test_matches_literal_tensor_power(self):
        for d in (2, 3):
            for copies in (1, 2, 3):
                phi = random_pure_state(d, 20 + d + copies)
                full = sym_to_full_state(expand_power(phi, copies), d, copies)
                literal = np.ones(1, dtype=np.complex128)
                for _ in range(copies):
                    literal = np.kron(literal, phi.amplitudes)
                assert np.allclose(full, literal, atol=TOL)

    def test_normalized(self):
        phi = random_pure_state(3, 41)
        sym = expand_power(phi, 4)
        assert np.linalg.norm(sym) == pytest.approx(1.0, abs=TOL)

    def test_no_copies_raises(self):
        with pytest.raises(ValueError, match="need at least one copy, got 0"):
            expand_power(random_pure_state(3, 41), 0)

    def test_power_of_a_state_at_the_edge_of_its_norm_check_raises(self):
        # ||x|| = 1 + 9e-13 passes PureState's 1e-12 check; ||x||^10 misses
        # 1 by 9e-12, which expand_power's check of the same width refuses.
        phi = PureState(np.array([0.6, 0.8]) * (1 + 9e-13))
        assert np.linalg.norm(expand_power(phi, 1)) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="amplitudes are not normalized"):
            expand_power(phi, 10)


class TestSymUnitary:
    def test_is_unitary(self):
        u = random_unitary(2, 5)
        big = sym_unitary(u, 3)
        assert np.allclose(big @ big.conj().T, np.eye(4), atol=TOL)

    def test_intertwines_tensor_powers(self):
        # Rotating then symmetrizing equals symmetrizing then rotating.
        for d, total in [(2, 3), (3, 2)]:
            u = random_unitary(d, 50 + d)
            phi = random_pure_state(d, 60 + d)
            rotated = expand_power(PureState(u @ phi.amplitudes), total)
            pushed = sym_unitary(u, total) @ expand_power(phi, total)
            assert np.allclose(rotated, pushed, atol=TOL)

    @pytest.mark.parametrize("d", [2, 5])
    def test_no_qudits_give_the_complex_identity(self, d):
        # At total = 0 no product with u runs; the result is still complex.
        big = sym_unitary(random_unitary(d, 70 + d), 0)
        assert big.dtype == np.complex128
        assert np.array_equal(big, np.eye(1))


def _kron_power_reference(u, total):
    """iso^T u^(x total) iso, the power built by Kronecker products.

    u^(x total) = A (x) B with A, B the Kronecker powers of the two halves,
    applied to each column of iso reshaped to a matrix X as A X B^T, so no
    d^total x d^total array is needed even at d^total = 4096.
    """
    d = u.shape[0]
    iso = embed_isometry(d, total)

    def power(copies):
        out = np.eye(1, dtype=np.complex128)
        for _ in range(copies):
            out = np.kron(out, u)
        return out

    a, b = power(total - total // 2), power(total // 2)
    grid = iso.T.reshape(-1, a.shape[0], b.shape[0])
    rotated = np.einsum("ij,cjk,lk->cil", a, grid, b, optimize=True)
    return iso.T @ rotated.reshape(iso.shape[1], -1).T


class TestSymUnitaryReference:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("total", [1, 2, 3, 4, 5, 6])
    def test_matches_kronecker_power(self, d, total):
        u = random_unitary(d, 10 * d + total)
        assert np.allclose(
            sym_unitary(u, total), _kron_power_reference(u, total), rtol=0, atol=1e-13
        )


class TestConversionRoundtrip:
    def test_full_to_sym_inverts_sym_to_full(self):
        for kept in range(4):
            rho = _random_sym_density(2, 3, 71, kept)
            back = full_to_sym_density(sym_to_full_density(rho))
            assert np.allclose(_gram(back), dense_matrix(rho), atol=TOL)

    def test_full_to_sym_rejects_support_outside_the_subspace(self):
        # |01> is not symmetric: iso^T keeps only half of its weight.
        column = np.zeros((4, 1))
        column[1] = 1.0
        with pytest.raises(ValueError, match="trace"):
            full_to_sym_density(FullDensity(column, 2, 2))

    def test_sym_to_full_preserves_trace(self):
        rho = _random_sym_density(3, 2, 72)
        full = sym_to_full_density(rho)
        assert np.trace(dense_matrix(full)).real == pytest.approx(1.0, abs=TOL)


class TestReduceSymmetric:
    def test_matches_full_partial_trace_leading_factors(self):
        for d, total in [(2, 3), (2, 4), (3, 3)]:
            for table_kept in range(total + 1):
                rho = _random_sym_density(d, total, 80 + d + total, table_kept)
                full = sym_to_full_density(rho)
                for kept in range(1, total):
                    reduced_full = partial_trace(full, set(range(kept)))
                    expected = _gram(full_to_sym_density(reduced_full))
                    got = _gram(reduce_symmetric(rho, kept))
                    assert np.allclose(got, expected, atol=TOL)

    def test_any_traced_factor_choice_agrees(self):
        d, total = 2, 4
        for table_kept in range(total + 1):
            rho = _random_sym_density(d, total, 90, table_kept)
            full = sym_to_full_density(rho)
            for keep in ({1, 3}, {0, 2}, {2, 3}, {1}, {0, 1, 3}):
                expected = _gram(full_to_sym_density(partial_trace(full, keep)))
                got = _gram(reduce_symmetric(rho, len(keep)))
                assert np.allclose(got, expected, atol=TOL)

    def test_keep_all_is_identity(self):
        for table_kept in range(4):
            rho = _random_sym_density(2, 3, 95, table_kept)
            assert np.array_equal(reduce_symmetric(rho, 3), rho.joint)

    def test_trace_preserved(self):
        rho = _random_sym_density(3, 3, 96)
        reduced = reduce_symmetric(rho, 1)
        assert np.trace(_gram(reduced)).real == pytest.approx(1.0, abs=TOL)

    def test_invalid_kept_raises(self):
        rho = _random_sym_density(2, 2, 97)
        with pytest.raises(ValueError):
            reduce_symmetric(rho, 0)
        with pytest.raises(ValueError):
            reduce_symmetric(rho, 3)


class TestEntangledPairProjection:
    def test_matches_literal_projection(self):
        # Projecting the first halves of n pairs into the symmetric
        # subspace leaves a uniform superposition of twin occupations.
        for d, n in [(2, 2), (2, 3), (3, 2)]:
            joint = maximally_entangled(d)
            for _ in range(n - 1):
                joint = np.kron(joint, maximally_entangled(d))
            perm = [2 * t for t in range(n)] + [2 * t + 1 for t in range(n)]
            joint = permute_factors(joint, d, perm)
            block = joint.reshape(d**n, d**n)
            projected = projector_full(d, n) @ block

            iso = embed_isometry(d, n)
            expected = d ** (-n / 2) * (iso @ iso.T)
            assert np.allclose(projected, expected, atol=TOL)


class TestValidation:
    def test_sym_density_trace_checked(self):
        with pytest.raises(ValueError, match="trace"):
            SymDensity(d=2, total=1, factor=np.ones((2, 1)), kept=1)

    def test_sym_density_factor_checked(self):
        with pytest.raises(ValueError):
            SymDensity(d=2, total=1, factor=np.ones((2, 1)), kept=1)
        with pytest.raises(ValueError):
            SymDensity(d=2, total=1, factor=np.ones((3, 1)) / np.sqrt(3), kept=1)

    def test_kept_is_required(self):
        with pytest.raises(TypeError):
            SymDensity(2, 1, np.ones((2, 1)) / np.sqrt(2))

    def test_matrix_built_only_when_read(self):
        # The density holds no dense matrix; the reference forms one from J.
        rho = _random_sym_density(2, 3, 99)
        assert not hasattr(rho, "matrix")
        assert np.allclose(dense_matrix(rho), _gram(rho.joint), atol=TOL)
        assert not rho.factor.flags.writeable

    def test_amplitude_table_scattered_only_when_read(self):
        # (d, total, kept) = (3, 4, 2): a 6 x 6 table V for a 15 x 6 factor J.
        rng = np.random.default_rng(98)
        table = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        table /= np.linalg.norm(table)
        rho = SymDensity(d=3, total=4, factor=table, kept=2)
        assert "joint" not in rho.__dict__ and not hasattr(rho, "matrix")
        joint = scatter_loop(rho)
        assert joint.shape == (15, 6)
        assert np.array_equal(rho.joint, joint)
        assert rho.joint is rho.joint
        assert not rho.joint.flags.writeable
        assert np.allclose(dense_matrix(rho), joint @ joint.conj().T, atol=TOL)

    def test_amplitude_table_checked(self):
        with pytest.raises(ValueError, match="does not split"):
            SymDensity(d=3, total=4, factor=np.ones((6, 3)) / np.sqrt(18), kept=2)
        with pytest.raises(ValueError):
            SymDensity(d=3, total=4, factor=np.ones((3, 6)) / np.sqrt(18), kept=2)
        with pytest.raises(ValueError, match="kept count"):
            SymDensity(d=3, total=4, factor=np.ones((1, 1)), kept=5)
        with pytest.raises(ValueError, match="trace"):
            SymDensity(d=3, total=4, factor=np.ones((6, 6)), kept=2)


class TestTraceDistanceBound:
    """||V_a - V_b||_F bounds the trace distance of the tables' densities from above."""

    @staticmethod
    def _table_density(rng, d, total, kept):
        shape = (sym_dim(d, kept), sym_dim(d, total - kept))
        table = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return SymDensity(d, total, table / np.linalg.norm(table), kept)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(2, 4),
        st.integers(1, 3),
        st.integers(1, 3),
        st.floats(0.0, 1.0),
        st.integers(0, 2**16),
    )
    def test_never_below_the_exact_distance(self, d, kept, extra, mix, seed):
        # mix runs from two independent tables to two equal ones.
        rng = np.random.default_rng(seed)
        a = self._table_density(rng, d, kept + extra, kept)
        other = self._table_density(rng, d, kept + extra, kept).factor
        table = (1 - mix) * other + mix * a.factor
        b = SymDensity(a.d, a.total, table / np.linalg.norm(table), kept)
        bound = trace_distance_bound(a, b)
        assert bound == pytest.approx(np.linalg.norm(a.joint - b.joint), abs=1e-15)
        assert bound >= trace_distance_factors(a.joint, b.joint) - 1e-15

    def test_equal_tables_give_zero(self):
        a = self._table_density(np.random.default_rng(4), 3, 2, 1)
        assert trace_distance_bound(a, SymDensity(a.d, a.total, a.factor.copy(), a.kept)) == 0

    @pytest.mark.parametrize("theta", [0.3, np.pi])
    def test_a_phase_raises_the_bound_not_the_distance(self, theta):
        # e^(i theta) V is the same density in another gauge: the exact
        # distance stays at the rounding floor, the bound does not, so a
        # check on it fails loudly.
        a = self._table_density(np.random.default_rng(6), 3, 4, 2)
        b = SymDensity(a.d, a.total, np.exp(1j * theta) * a.factor, a.kept)
        assert trace_distance_factors(a.joint, b.joint) < 1e-14
        assert trace_distance_bound(a, b) == pytest.approx(
            abs(np.exp(1j * theta) - 1), abs=1e-14
        )

    def test_tables_on_different_splits_raise(self):
        rng = np.random.default_rng(7)
        a = self._table_density(rng, 3, 4, 2)
        with pytest.raises(ValueError, match="same split"):
            trace_distance_bound(a, self._table_density(rng, 3, 4, 1))
        with pytest.raises(ValueError, match="same split"):
            trace_distance_bound(a, self._table_density(rng, 2, 4, 2))
        with pytest.raises(ValueError, match="same split"):
            trace_distance_bound(a, self._table_density(rng, 3, 5, 2))

    def test_tables_of_one_shape_on_different_splits_raise(self):
        # (2, 7, 2) and (3, 3, 1) both hold 3 x 6 tables, so only the
        # comparison of (d, total, kept) stops the subtraction.
        rng = np.random.default_rng(8)
        a = self._table_density(rng, 2, 7, 2)
        b = self._table_density(rng, 3, 3, 1)
        assert a.factor.shape == b.factor.shape == (3, 6)
        with pytest.raises(ValueError, match="same split"):
            trace_distance_bound(a, b)
        with pytest.raises(ValueError, match="same split"):
            trace_distance_bound(b, a)


class TestLadderTables:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_raising_never_moves_a_vector_forward(self, d):
        # The sweep overwrites a level in place because a + e_j is never
        # ranked before a: up[a, j] >= a for every row a and slot j, and
        # every level reads a prefix of these rows.
        up = _ladder_table(d, 8)[0]
        rows = np.arange(up.shape[0])[:, None]
        assert (up >= rows).all()
        assert (up[:, 0] == rows[:, 0]).all()

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_every_level_is_a_prefix_of_the_top_level(self, d):
        # Level t-1 is the first D_{t-1} rows of level total-1, slot 0
        # lowered by total-t: its index rows are the (t, t-1) split index,
        # its coefficients the (t, t-1) splitting coefficients, and the
        # first step's table is the (total, total-1) split inverted.  The
        # first step gathers level total's coefficients through it, and a
        # source row with no qudit in level j reads the spare 0.
        slots = np.arange(d)
        for total in range(1, 9):
            up, steps, down, first = _ladder_table(d, total)
            assert first.shape == (d, up.shape[0] + 1)
            assert len(steps) == total - 1
            top = occupation_counts(d, total - 1)
            for t in range(1, total + 1):
                idx = split_index(d, t, t - 1)
                coeff = reference_weights(d, t - 1, t)["unified"]
                rows, ours = steps[t - 1] if t < total else (up, first[:, :-1].T)
                assert np.array_equal(rows, idx) and np.array_equal(rows, up[: len(idx)])
                shifted = top[: len(idx)].copy()
                shifted[:, 0] -= total - t
                assert (shifted == occupation_counts(d, t - 1)).all()
                np.testing.assert_allclose(ours, coeff, rtol=1e-14, atol=0)
            assert (down[slots, up] == np.arange(up.shape[0])[:, None]).all()
            missing = np.ones(down.shape, dtype=bool)
            missing[slots, up] = False
            assert (down[missing] == up.shape[0]).all()
            assert (first[:, -1] == 0).all()
            gathered = first[slots[:, None], down]
            assert (gathered[slots, up] == first[:, :-1].T).all()
            assert (gathered[missing] == 0).all()

"""Tests for numeric and closed-form arbitrary-copy fidelities."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uqcm import machines, symmetric
from uqcm.combinatorics import sym_dim
from uqcm.fidelity import (
    fidelities_closed,
    fidelities_numeric,
    fidelity_L_closed,
    fidelity_L_closed_N1,
    fidelity_global_closed,
    fidelity_single_closed,
)
from uqcm.hilbert import PureState, random_pure_state, trace_distance_matrices
from uqcm.machines import MACHINES, CloneSpec, check_fast_path, run_machine
from uqcm.symmetric import (
    SymBasis,
    SymDensity,
    expand_power,
    ladder_fidelities,
    reduce_symmetric,
    reduced_expectation,
    scatter_factor,
    sweep_budget,
    sweep_width,
)

TOL = 1e-10
GRID = [
    (d, n, m)
    for d in (2, 3)
    for n in (1, 2)
    for m in range(n, n + 3)
]


def _literal_fidelity_L(spec, L):
    """The paper's F_L summed term by term in factorials, as printed."""
    d, n, m_total = spec.d, spec.n_in, spec.m_out
    f = math.factorial
    prefactor = Fraction(
        f(d + n - 1) * f(m_total - n) * f(m_total - L),
        f(d + m_total - 1) * f(m_total) * f(n),
    )
    total = Fraction(0)
    for m1 in range(max(L, n), m_total + 1):
        total += Fraction(
            f(m_total - m1 + d - 2) * f(m1) ** 2,
            f(m1 - L) * f(m1 - n) * f(d - 2) * f(m_total - m1),
        )
    return prefactor * total


class TestClosedForm:
    def test_integer_sum_equals_literal_factorial_sum(self):
        for d in range(2, 7):
            for n in range(1, 9):
                for m in range(n, 17):
                    spec = CloneSpec(d, n, m)
                    for L in range(1, m + 1):
                        assert fidelity_L_closed(spec, L) == _literal_fidelity_L(spec, L)

    def test_spot_values(self):
        assert fidelity_L_closed(CloneSpec(2, 1, 2), 1) == Fraction(5, 6)
        assert fidelity_L_closed(CloneSpec(2, 1, 2), 2) == Fraction(2, 3)
        assert fidelity_L_closed(CloneSpec(2, 1, 3), 2) == Fraction(11, 18)

    def test_perfect_when_no_extra_copies(self):
        for d in (2, 3, 4):
            spec = CloneSpec(d, 2, 2)
            for L in (1, 2):
                assert fidelity_L_closed(spec, L) == 1

    def test_values_in_unit_interval(self):
        for d, n, m in GRID:
            spec = CloneSpec(d, n, m)
            for L in range(1, m + 1):
                value = fidelity_L_closed(spec, L)
                assert 0 < value <= 1

    def test_non_increasing_in_copies_kept(self):
        for d, n, m in GRID:
            spec = CloneSpec(d, n, m)
            values = [fidelity_L_closed(spec, L) for L in range(1, m + 1)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_invalid_L_raises(self):
        with pytest.raises(ValueError):
            fidelity_L_closed(CloneSpec(2, 1, 2), 0)
        with pytest.raises(ValueError):
            fidelity_L_closed(CloneSpec(2, 1, 2), 3)


class TestFidelitiesClosed:
    """One weight table per call gives every F_L exactly."""

    @pytest.mark.parametrize("d, n", [(d, n) for d in range(2, 7) for n in range(1, 7)])
    def test_every_L_equals_literal_sum_and_specializations(self, d, n):
        for m in range(n, n + 11):
            spec = CloneSpec(d, n, m)
            values = fidelities_closed(spec)
            assert values == tuple(_literal_fidelity_L(spec, L) for L in range(1, m + 1))
            assert all(type(value) is Fraction for value in values)
            assert values[0] == fidelity_single_closed(spec)
            assert values[-1] == fidelity_global_closed(spec)
            if n == 1:
                assert values == tuple(
                    fidelity_L_closed_N1(d, m, L) for L in range(1, m + 1)
                )

    def test_stopped_list_is_a_prefix_holding_each_single_L(self):
        spec = CloneSpec(3, 2, 9)
        full = fidelities_closed(spec)
        for upto in range(1, 10):
            assert fidelities_closed(spec, upto) == full[:upto]
            assert fidelity_L_closed(spec, upto) == full[upto - 1]

    @pytest.mark.parametrize("upto", [0, -1, 4])
    def test_out_of_range_stop_raises(self, upto):
        with pytest.raises(ValueError):
            fidelities_closed(CloneSpec(2, 1, 3), upto)


class TestSpecializations:
    def test_single_copy_formula(self):
        assert fidelity_single_closed(CloneSpec(2, 1, 2)) == Fraction(5, 6)
        assert fidelity_single_closed(CloneSpec(2, 1, 3)) == Fraction(7, 9)
        assert fidelity_single_closed(CloneSpec(2, 2, 2)) == 1

    def test_global_formula(self):
        assert fidelity_global_closed(CloneSpec(2, 1, 2)) == Fraction(2, 3)
        assert fidelity_global_closed(CloneSpec(2, 1, 3)) == Fraction(1, 2)
        assert fidelity_global_closed(CloneSpec(3, 2, 2)) == 1

    def test_single_copy_agrees_exactly(self):
        for d in range(2, 5):
            for n in range(1, 7):
                for m in range(n, 7):
                    spec = CloneSpec(d, n, m)
                    assert fidelity_L_closed(spec, 1) == fidelity_single_closed(spec)

    def test_global_agrees_exactly(self):
        for d in range(2, 5):
            for n in range(1, 7):
                for m in range(n, 7):
                    spec = CloneSpec(d, n, m)
                    assert fidelity_L_closed(spec, m) == fidelity_global_closed(spec)

    def test_single_input_simplification_agrees_exactly(self):
        for d in range(2, 5):
            for m in range(1, 7):
                spec = CloneSpec(d, 1, m)
                for L in range(1, m + 1):
                    assert fidelity_L_closed(spec, L) == fidelity_L_closed_N1(d, m, L)

    def test_simplified_spot_value(self):
        assert fidelity_L_closed_N1(2, 3, 2) == Fraction(11, 18)
        assert fidelity_L_closed_N1(2, 2, 1) == Fraction(5, 6)


class TestNumericAgreement:
    @pytest.mark.parametrize("d,n,m", GRID)
    def test_closed_matches_numeric(self, d, n, m):
        spec = CloneSpec(d, n, m)
        phi = random_pure_state(d, 7)
        rho = run_machine(spec, phi, "werner")
        numerics = fidelities_numeric(rho, phi)
        assert len(numerics) == m
        for L, numeric in enumerate(numerics, start=1):
            assert abs(numeric - float(fidelity_L_closed(spec, L))) < TOL

    def test_machine_choice_does_not_matter(self):
        spec = CloneSpec(2, 1, 3)
        phi = random_pure_state(2, 8)
        values = [
            fidelities_numeric(run_machine(spec, phi, name), phi, 2)[-1]
            for name in MACHINES
        ]
        assert max(values) - min(values) < TOL

    def test_independent_of_input_state(self):
        # Universality: the fidelity is the same for every input.
        spec = CloneSpec(3, 1, 2)
        values = []
        for seed in range(20):
            phi = random_pure_state(3, seed)
            rho = run_machine(spec, phi, "unified")
            values.append(fidelities_numeric(rho, phi, 1)[0])
        assert max(values) - min(values) < TOL

    def test_invalid_L_raises(self):
        spec = CloneSpec(2, 1, 2)
        phi = random_pure_state(2, 1)
        rho = run_machine(spec, phi, "werner")
        with pytest.raises(ValueError):
            fidelities_numeric(rho, phi, 3)

    def test_dimension_mismatch_raises(self):
        spec = CloneSpec(2, 1, 2)
        rho = run_machine(spec, random_pure_state(2, 1), "werner")
        with pytest.raises(ValueError):
            fidelities_numeric(rho, random_pure_state(3, 1), 1)


class TestFactoredFidelity:
    @pytest.mark.parametrize(
        "d,n,m,machine", [(2, 1, 4, "werner"), (3, 2, 5, "fan"), (4, 1, 3, "unified")]
    )
    def test_matches_reduced_density_overlap(self, d, n, m, machine):
        spec = CloneSpec(d, n, m)
        inputs = [random_pure_state(d, 91)]
        if d == 3:
            # Basis states put zero amplitudes into every weight.
            inputs += [PureState.basis(d, level) for level in range(d)]
        for phi in inputs:
            rho = run_machine(spec, phi, machine)
            for L, numeric in enumerate(fidelities_numeric(rho, phi), start=1):
                target = expand_power(phi, L)
                factor = reduce_symmetric(rho, L)
                reduced = factor @ factor.conj().T
                overlap = (target.conj() @ reduced @ target).real
                assert not np.isnan(numeric)
                assert numeric == pytest.approx(overlap, abs=1e-12)

    def test_large_output_never_builds_dense_density(self):
        # D_out = 3003: the dense rho would be 144 MB; the factor is 62 MB.
        spec = CloneSpec(6, 2, 10)
        phi = random_pure_state(6, 92)
        rho = run_machine(spec, phi, "werner")
        for L, numeric in enumerate(fidelities_numeric(rho, phi), start=1):
            assert abs(numeric - float(fidelity_L_closed(spec, L))) <= TOL
        assert "matrix" not in rho.__dict__
        assert "joint" not in rho.__dict__

    @pytest.mark.parametrize("machine", MACHINES)
    def test_table_run_never_builds_the_whole_factor(self, machine):
        # What `uqcm table` does: one machine, then one sweep over its table.
        spec = CloneSpec(4, 2, 6)
        phi = random_pure_state(4, 96)
        rho = run_machine(spec, phi, machine)
        assert rho.kept == spec.n_in
        assert rho.factor.shape == (spec.dim_in, spec.dim_anc)
        for L, numeric in enumerate(fidelities_numeric(rho, phi), start=1):
            assert abs(numeric - float(fidelity_L_closed(spec, L))) <= TOL
        assert "joint" not in rho.__dict__
        assert "matrix" not in rho.__dict__


def _input_state(d, kind, seed):
    if kind == "basis":
        return PureState.basis(d, seed % d)
    amps = random_pure_state(d, seed).amplitudes.copy()
    if kind == "tiny":
        amps[seed % d] *= 1e-8 / abs(amps[seed % d])
    return PureState.normalized(amps)


class TestLadderSweep:
    # Budget on the factor J: D_out * D_anc entries, so every draw stays small.
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(2, 5),
        st.integers(1, 3),
        st.integers(0, 5),
        st.sampled_from(("random", "basis", "tiny")),
        st.integers(0, 2**16),
    )
    def test_machines_ladder_split_table_and_closed_form_agree(
        self, d, n, extra, kind, seed
    ):
        spec = CloneSpec(d, n, n + extra)
        assume(spec.dim_out * spec.dim_anc <= 4000)
        phi = _input_state(d, kind, seed)
        outs = [run_machine(spec, phi, name) for name in MACHINES]
        for a, b in combinations(outs, 2):
            assert trace_distance_matrices(a.matrix, b.matrix) < TOL
        for rho in outs:
            ladder = fidelities_numeric(rho, phi)
            assert len(ladder) == spec.m_out
            for L, value in enumerate(ladder, start=1):
                split = reduced_expectation(rho, expand_power(phi, L), L)
                closed = float(fidelity_L_closed(spec, L))
                assert value == pytest.approx(split, abs=1e-12)
                assert value == pytest.approx(closed, abs=TOL)
                assert split == pytest.approx(closed, abs=TOL)

    def test_stopped_sweep_is_a_prefix_of_the_full_one(self):
        spec = CloneSpec(3, 2, 6)
        phi = random_pure_state(3, 93)
        rho = run_machine(spec, phi, "unified")
        full = fidelities_numeric(rho, phi)
        for L in range(1, spec.m_out + 1):
            assert fidelities_numeric(rho, phi, L) == full[:L]

    @pytest.mark.parametrize("upto", [0, 4])
    def test_out_of_range_stop_raises(self, upto):
        spec = CloneSpec(2, 1, 3)
        phi = random_pure_state(2, 94)
        with pytest.raises(ValueError):
            fidelities_numeric(run_machine(spec, phi, "fan"), phi, upto)

    @pytest.mark.parametrize(
        "d,n,m,machine", [(2, 1, 300, "werner"), (6, 2, 7, "unified")]
    )
    def test_sweep_holds_at_most_three_factors(self, d, n, m, machine):
        # One level-(M-1) block and one gathered row chunk: about J at d=2.
        # Broadcast multiplies add numpy's fixed-size ufunc buffer,
        # whatever the size of J.
        spec = CloneSpec(d, n, m)
        phi = random_pure_state(d, 95)
        rho = run_machine(spec, phi, machine)
        joint = scatter_factor(d, m, n, rho.factor)
        fidelities_numeric(rho, phi)  # warms the split tables
        tracemalloc.start()
        try:
            fidelities_numeric(rho, phi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slack = 2 * np.getbufsize() * joint.itemsize
        assert peak <= 3 * joint.nbytes + slack

    @pytest.mark.parametrize("d,n,m,machine", [(6, 2, 7, "unified"), (8, 2, 8, "fan")])
    def test_sweep_peak_is_a_block_and_below_the_whole_factor(self, d, n, m, machine):
        spec = CloneSpec(d, n, m)
        phi = random_pure_state(d, 97)
        rho = run_machine(spec, phi, machine)
        fidelities_numeric(rho, phi)  # warms the split tables
        tracemalloc.start()
        try:
            fidelities_numeric(rho, phi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = sym_dim(d, m - 1) * sweep_width(d, m, n) * 16
        slack = 2 * np.getbufsize() * 16
        assert peak <= 3 * block + slack
        assert peak < spec.dim_out * spec.dim_anc * 16

    @pytest.mark.parametrize("machine", MACHINES)
    def test_column_blocks_match_one_block(self, machine, monkeypatch):
        spec = CloneSpec(4, 2, 6)
        phi = random_pure_state(4, 98)
        rho = run_machine(spec, phi, machine)
        assert sweep_width(4, 6, 2) == spec.dim_anc
        one_block = fidelities_numeric(rho, phi)
        held, _, per_column = sweep_budget(4, 6, 2)
        cap = held + per_column * (spec.dim_anc // 3)
        monkeypatch.setattr(symmetric, "FAST_PATH_CAP", cap)
        assert -(-spec.dim_anc // sweep_width(4, 6, 2)) >= 3
        blocked = fidelities_numeric(rho, phi)
        assert np.abs(np.subtract(blocked, one_block)).max() <= 1e-14

    @pytest.mark.parametrize(
        "d,n,m,machine,upto",
        [
            (6, 2, 7, "werner", None),
            (6, 2, 7, "fan", None),
            (6, 2, 7, "unified", None),
            (8, 2, 8, "fan", None),
            (8, 2, 8, "fan", 2),
        ],
    )
    def test_budget_counts_what_machine_and_sweep_allocate(
        self, d, n, m, machine, upto, monkeypatch
    ):
        # A cap with room for a quarter of the columns puts the problem
        # right at it; every table is then built inside the traced span.
        # A sweep stopped early ends each block on a large level.
        spec = CloneSpec(d, n, m)
        held, transient, per_column = sweep_budget(d, m, n)
        cap = held + max(transient, per_column * (spec.dim_anc // 4))
        for module in (symmetric, machines):
            monkeypatch.setattr(module, "FAST_PATH_CAP", cap)
        counted = check_fast_path(spec)
        assert cap - per_column < counted <= cap
        assert -(-spec.dim_anc // sweep_width(d, m, n)) >= 4
        phi = random_pure_state(d, 99)
        for cached in (symmetric._counts_table, symmetric.split_table,
                       symmetric.log_factorials):
            cached.cache_clear()
        tracemalloc.start()
        try:
            fidelities_numeric(run_machine(spec, phi, machine), phi, upto)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * counted


def _random_table(rng, d, total, kept):
    """A unit-norm complex amplitude table on the split (total, kept) that no machine made."""
    shape = (sym_dim(d, kept), sym_dim(d, total - kept))
    table = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SymDensity(SymBasis(d, total), table / np.linalg.norm(table), kept)


def _assert_sweep_is_the_split_reference(rho, phi, values=None):
    if values is None:
        values = ladder_fidelities(rho, phi, rho.basis.total)
    reference = [
        reduced_expectation(rho, expand_power(phi, L), L)
        for L in range(1, rho.basis.total + 1)
    ]
    assert np.abs(np.subtract(values, reference)).max() <= 1e-12


class TestRealSweep:
    # The sweep multiplies the table's rows by the phases
    # psi_a = prod_j (conj x_j / |x_j|)^{a_j} and then runs on real
    # coefficients |x_j| sqrt(m_j / t).  Each case is held to
    # reduced_expectation, which contracts with conj(psi) in one split.

    @pytest.mark.parametrize("d,total,kept", [(3, 5, 2), (4, 4, 1), (2, 7, 3), (3, 4, 4)])
    def test_a_table_no_machine_made(self, d, total, kept):
        rng = np.random.default_rng(100 + 10 * d + total)
        rho = _random_table(rng, d, total, kept)
        phi = random_pure_state(d, 101)
        # The rotated table is far from real, so a sweep that dropped its
        # imaginary half would be far off.
        angles = SymBasis(d, kept).counts @ np.angle(phi.amplitudes)
        rotated = rho.factor * np.exp(-1j * angles)[:, None]
        assert np.abs(rotated.imag).max() > 0.1
        _assert_sweep_is_the_split_reference(rho, phi)

    @pytest.mark.parametrize(
        "amplitudes",
        [
            [1, 0, 0],
            [1 / math.sqrt(2), 0, 1 / math.sqrt(2)],
            [0.5, 0, 0.5j, -0.5, 0, 0.5 * np.exp(0.7j)],
        ],
        ids=["basis", "1-0-1", "d6-two-zeros"],
    )
    def test_zero_amplitudes(self, amplitudes):
        phi = PureState.normalized(np.array(amplitudes, dtype=np.complex128))
        d = phi.dim
        spec = CloneSpec(d, 2, 4)
        for rho in [run_machine(spec, phi, name) for name in MACHINES] + [
            _random_table(np.random.default_rng(102), d, 4, 2)
        ]:
            _assert_sweep_is_the_split_reference(rho, phi)
        for name in MACHINES:
            values = fidelities_numeric(run_machine(spec, phi, name), phi)
            closed = [float(fidelity_L_closed(spec, L)) for L in range(1, 5)]
            assert np.abs(np.subtract(values, closed)).max() <= TOL

    def test_inputs_that_differ_only_in_level_phases(self):
        phi = random_pure_state(4, 103)
        turned = PureState.normalized(
            phi.amplitudes * np.exp(1j * np.array([0.0, 2.1, -0.9, 3.0]))
        )
        rho = _random_table(np.random.default_rng(104), 4, 5, 2)
        values = [ladder_fidelities(rho, state, 5) for state in (phi, turned)]
        for state, value in zip((phi, turned), values):
            _assert_sweep_is_the_split_reference(rho, state, value)
        # The phases change the overlap with a table no machine made...
        assert np.abs(values[0] - values[1]).max() > 1e-3
        # ...but not a machine's fidelities with its own input.
        spec = CloneSpec(4, 2, 5)
        for name in MACHINES:
            own = [fidelities_numeric(run_machine(spec, s, name), s) for s in (phi, turned)]
            assert np.abs(np.subtract(*own)).max() <= 1e-12
            _assert_sweep_is_the_split_reference(run_machine(spec, turned, name), turned)

    def test_row_chunks_match_one_piece(self, monkeypatch):
        spec = CloneSpec(6, 2, 7)
        phi = random_pure_state(6, 105)
        rho = run_machine(spec, phi, "unified")
        step = symmetric._ladder_step
        pieces = []

        def counting(level, idx, scale, chunk):
            pieces.append(-(-idx.shape[0] // chunk))
            return step(level, idx, scale, chunk)

        def one_piece(level, idx, scale, chunk):
            return step(level, idx, scale, idx.shape[0])

        monkeypatch.setattr(symmetric, "_ladder_step", counting)
        chunked = ladder_fidelities(rho, phi, spec.m_out)
        assert max(pieces) >= 3
        monkeypatch.setattr(symmetric, "_ladder_step", one_piece)
        whole = ladder_fidelities(rho, phi, spec.m_out)
        assert np.abs(chunked - whole).max() <= 1e-14
        _assert_sweep_is_the_split_reference(rho, phi, chunked)

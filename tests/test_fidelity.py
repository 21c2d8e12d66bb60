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
    closed_form_pairs,
    fidelities_closed,
    fidelities_numeric,
    fidelity_L_closed_N1,
    fidelity_global_closed,
    fidelity_single_closed,
)
from uqcm.hilbert import PureState, random_pure_state
from uqcm.machines import MACHINES, CloneSpec, check_fast_path, run_machine
from uqcm.symmetric import (
    SymDensity,
    expand_power,
    ladder_fidelities,
    occupation_counts,
    sweep_budget,
    sweep_width,
)

from reference import (
    clear_caches,
    dense_matrix,
    in_place_sweep,
    reduce_symmetric,
    reduced_expectation,
    trace_distance_matrices,
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
                        exact = _literal_fidelity_L(spec, L)
                        assert fidelities_closed(spec, L)[-1] == exact

    def test_spot_values(self):
        assert fidelities_closed(CloneSpec(2, 1, 2)) == (Fraction(5, 6), Fraction(2, 3))
        assert fidelities_closed(CloneSpec(2, 1, 3), 2)[-1] == Fraction(11, 18)

    def test_perfect_when_no_extra_copies(self):
        for d in (2, 3, 4):
            spec = CloneSpec(d, 2, 2)
            assert fidelities_closed(spec) == (1, 1)

    def test_values_in_unit_interval(self):
        for d, n, m in GRID:
            spec = CloneSpec(d, n, m)
            for value in fidelities_closed(spec):
                assert 0 < value <= 1

    def test_non_increasing_in_copies_kept(self):
        for d, n, m in GRID:
            spec = CloneSpec(d, n, m)
            values = fidelities_closed(spec)
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_invalid_L_raises(self):
        # Every entry point that takes an L reports it in the same words.
        spec = CloneSpec(2, 1, 2)
        phi = random_pure_state(2, 0)
        rho = run_machine(spec, phi, "fan")
        for L in (0, 3):
            for call in (
                lambda: fidelities_closed(spec, L),
                lambda: fidelities_numeric(rho, phi, L),
                lambda: fidelity_L_closed_N1(2, 2, L),
            ):
                with pytest.raises(ValueError, match=f"need 1 <= L <= 2, got L={L}"):
                    call()


def _per_L_sum(spec, L):
    """F_L as one integer sum over the weights, one L at a time."""
    d, n, m_total = spec.d, spec.n_in, spec.m_out
    inverse_k = math.comb(d + m_total - 1, m_total - n)
    weights = [
        math.comb(m_total - m1 + d - 2, d - 2) * math.comb(m1, n)
        for m1 in range(n, m_total + 1)
    ]
    return Fraction(
        sum(w * math.comb(m1, L) for m1, w in enumerate(weights, n)),
        inverse_k * math.comb(m_total, L),
    )


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

    @pytest.mark.parametrize(
        "d, n, m",
        [(2, 1, 300), (2, 40, 400), (3, 5, 120), (7, 2, 60), (2, 3, 200), (2, 1700, 1701)],
    )
    def test_packed_digits_equal_per_L_sums(self, d, n, m):
        # Large M - N, d and N: every digit of the one big integer is checked.
        spec = CloneSpec(d, n, m)
        assert fidelities_closed(spec) == tuple(_per_L_sum(spec, L) for L in range(1, m + 1))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(d=st.integers(2, 6), copies=st.tuples(st.integers(1, 30), st.integers(1, 30)))
    def test_integer_pairs_are_reduced_and_are_the_fractions(self, d, copies):
        n, m = sorted(copies)
        spec = CloneSpec(d, n, m)
        full = closed_form_pairs(spec)
        assert full == tuple(
            (value.numerator, value.denominator)
            for value in (_per_L_sum(spec, L) for L in range(1, m + 1))
        )
        for upto in range(1, m + 1):
            pairs = closed_form_pairs(spec, upto)
            values = fidelities_closed(spec, upto)
            assert pairs == full[:upto]
            assert len(values) == upto
            for (num, den), value in zip(pairs, values, strict=True):
                assert type(num) is int and type(den) is int
                assert den > 0 and math.gcd(num, den) == 1
                assert type(value) is Fraction
                assert (value.numerator, value.denominator) == (num, den)

    def test_stopped_list_is_a_prefix_holding_each_single_L(self):
        # A stop truncates the one big integer to its low L+1 digits.
        for spec in (CloneSpec(3, 2, 9), CloneSpec(2, 3, 200)):
            full = fidelities_closed(spec)
            for upto in range(1, spec.m_out + 1):
                assert fidelities_closed(spec, upto) == full[:upto]

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
                    assert fidelities_closed(spec, 1) == (fidelity_single_closed(spec),)

    def test_global_agrees_exactly(self):
        for d in range(2, 5):
            for n in range(1, 7):
                for m in range(n, 7):
                    spec = CloneSpec(d, n, m)
                    assert fidelities_closed(spec)[-1] == fidelity_global_closed(spec)

    def test_single_input_simplification_agrees_exactly(self):
        for d in range(2, 5):
            for m in range(1, 7):
                spec = CloneSpec(d, 1, m)
                assert fidelities_closed(spec) == tuple(
                    fidelity_L_closed_N1(d, m, L) for L in range(1, m + 1)
                )

    def test_simplified_spot_value(self):
        assert fidelity_L_closed_N1(2, 3, 2) == Fraction(11, 18)
        assert fidelity_L_closed_N1(2, 2, 1) == Fraction(5, 6)

    @pytest.mark.parametrize(
        "d, m, L, match",
        [
            (1, 3, 1, "qudit dimension must be >= 2, got 1"),
            (2, 3, 0, "need 1 <= L <= 3, got L=0"),
            (2, 3, 4, "need 1 <= L <= 3, got L=4"),
        ],
    )
    def test_simplified_form_rejects_arguments_out_of_range(self, d, m, L, match):
        with pytest.raises(ValueError, match=match):
            fidelity_L_closed_N1(d, m, L)


class TestNumericAgreement:
    @pytest.mark.parametrize("d,n,m", GRID)
    def test_closed_matches_numeric(self, d, n, m):
        spec = CloneSpec(d, n, m)
        phi = random_pure_state(d, 7)
        rho = run_machine(spec, phi, "werner")
        numerics = fidelities_numeric(rho, phi)
        assert len(numerics) == m
        for numeric, closed in zip(numerics, fidelities_closed(spec), strict=True):
            assert abs(numeric - float(closed)) < TOL

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
        closed = fidelities_closed(spec)
        for numeric, exact in zip(fidelities_numeric(rho, phi), closed, strict=True):
            assert abs(numeric - float(exact)) <= TOL
        assert not hasattr(rho, "matrix")
        assert "joint" not in rho.__dict__

    @pytest.mark.parametrize("machine", MACHINES)
    def test_table_run_never_builds_the_whole_factor(self, machine):
        # What `uqcm table` does: one machine, then one sweep over its table.
        spec = CloneSpec(4, 2, 6)
        phi = random_pure_state(4, 96)
        rho = run_machine(spec, phi, machine)
        assert rho.kept == spec.n_in
        assert rho.factor.shape == (spec.dim_in, spec.dim_anc)
        closed = fidelities_closed(spec)
        for numeric, exact in zip(fidelities_numeric(rho, phi), closed, strict=True):
            assert abs(numeric - float(exact)) <= TOL
        assert "joint" not in rho.__dict__
        assert not hasattr(rho, "matrix")


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
            assert trace_distance_matrices(dense_matrix(a), dense_matrix(b)) < TOL
        for rho in outs:
            ladder = fidelities_numeric(rho, phi)
            assert len(ladder) == spec.m_out
            for L, (value, exact) in enumerate(zip(ladder, fidelities_closed(spec)), 1):
                split = reduced_expectation(rho, expand_power(phi, L), L)
                closed = float(exact)
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
        joint = rho.joint
        fidelities_numeric(rho, phi)  # warms the cached tables
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
        fidelities_numeric(rho, phi)  # warms the cached tables
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
            (2, 8, 48, "fan", None),
            (4, 2, 11, "unified", None),
        ],
    )
    def test_budget_counts_what_machine_and_sweep_allocate(
        self, d, n, m, machine, upto, monkeypatch
    ):
        # A cap with room for a quarter of the columns puts the problem
        # right at it; every table is then built inside the traced span.
        # A sweep stopped early ends each block on a large level.  At
        # (2,8,48) no level is written over the one it reads, and the
        # block holds several levels side by side; at (4,2,11) the first
        # two are written in place.
        spec = CloneSpec(d, n, m)
        held, transient, per_column = sweep_budget(d, m, n)
        cap = held + max(transient, per_column * (spec.dim_anc // 4))
        for module in (symmetric, machines):
            monkeypatch.setattr(module, "FAST_PATH_CAP", cap)
        counted = check_fast_path(spec)
        assert cap - per_column < counted <= cap
        assert -(-spec.dim_anc // sweep_width(d, m, n)) >= 4
        phi = random_pure_state(d, 99)
        clear_caches()
        tracemalloc.start()
        try:
            fidelities_numeric(run_machine(spec, phi, machine), phi, upto)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * counted

    @pytest.mark.parametrize("machine", MACHINES)
    def test_budget_counts_the_table_construction(self, machine, monkeypatch):
        # A cap of held + transient: the slot-by-slot build of a 120 x 792
        # table, not a sweep block, sets the count, and the blocks are as
        # narrow as what is left.  Every table is built inside the traced span.
        d, n, m = 8, 3, 8
        spec = CloneSpec(d, n, m)
        held, transient, per_column = sweep_budget(d, m, n)
        cap = held + transient
        for module in (symmetric, machines):
            monkeypatch.setattr(module, "FAST_PATH_CAP", cap)
        width = sweep_width(d, m, n)
        assert per_column * width <= transient
        assert check_fast_path(spec) == cap
        assert -(-spec.dim_anc // width) >= 4
        phi = random_pure_state(d, 99)
        clear_caches()
        tracemalloc.start()
        try:
            fidelities_numeric(run_machine(spec, phi, machine), phi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * cap

    @pytest.mark.parametrize("d,n,m,machine", [(3, 40, 41, "unified"), (2, 200, 201, "fan")])
    def test_budget_counts_the_ladder_at_large_m(self, d, n, m, machine):
        # At M = N+1 the table has d columns, and the ladder table and the
        # coefficients of every level are what the sweep holds; every table
        # is built inside the traced span.
        spec = CloneSpec(d, n, m)
        counted = check_fast_path(spec)
        phi = random_pure_state(d, 99)
        clear_caches()
        tracemalloc.start()
        try:
            values = fidelities_numeric(run_machine(spec, phi, machine), phi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * counted
        closed = fidelities_closed(spec)
        assert max(abs(v - float(c)) for v, c in zip(values, closed)) <= TOL

    @pytest.mark.parametrize(
        "d,n,m,machine", [(3, 2, 7, "unified"), (2, 3, 9, "fan"), (4, 2, 6, "werner")]
    )
    def test_sweep_builds_no_table_below_the_top_level(self, d, n, m, machine, monkeypatch):
        # Every level reads a prefix of the one ladder table of level M-1,
        # so a sweep builds no split, count or log-factorial table below
        # that, and the ladder table releases the level M-1 count table it
        # is built from.  It reads the problem's tables: the input basis
        # (d, N), and the (d, M, N) split index of the first step, which
        # the machine built, as its weights are gathered through it.
        spec = CloneSpec(d, n, m)
        phi = random_pure_state(d, 96)
        clear_caches()
        rho = run_machine(spec, phi, machine)
        built = symmetric.occupation_counts.cache_info().currsize
        splits = symmetric.split_index.cache_info().currsize
        calls = []
        for name in ("split_index", "occupation_counts", "log_factorial_sums"):
            original = getattr(symmetric, name)

            def spy(*args, _name=name, _original=original):
                calls.append((_name, args))
                return _original(*args)

            monkeypatch.setattr(symmetric, name, spy)
        values = fidelities_numeric(rho, phi)
        assert calls
        assert set(calls) <= {("split_index", (d, m, n)), ("occupation_counts", (d, n))}
        # Both were built with the machine: the sweep adds no count table.
        monkeypatch.undo()
        assert symmetric.occupation_counts.cache_info().currsize == built
        assert symmetric.split_index.cache_info().currsize == splits
        closed = fidelities_closed(spec)
        assert max(abs(v - float(c)) for v, c in zip(values, closed)) <= TOL


def _random_table(rng, d, total, kept):
    """A unit-norm complex amplitude table on the split (total, kept) that no machine made."""
    shape = (sym_dim(d, kept), sym_dim(d, total - kept))
    table = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SymDensity(d, total, table / np.linalg.norm(table), kept)


def _assert_sweep_is_the_split_reference(rho, phi, values=None):
    if values is None:
        values = ladder_fidelities(rho, phi, rho.total)
    reference = [
        reduced_expectation(rho, expand_power(phi, L), L)
        for L in range(1, rho.total + 1)
    ]
    assert np.abs(np.subtract(values, reference)).max() <= 1e-12


def _count_parts(monkeypatch):
    """Wrap the sweep's first step; the list grows by one per part of each block."""
    step = symmetric._first_step
    calls = []

    def counting(table, rows, down, top_scale, height):
        calls.append(table.shape[1])
        return step(table, rows, down, top_scale, height)

    monkeypatch.setattr(symmetric, "_first_step", counting)
    return calls


def _blocks(rho):
    d, total, kept = rho.d, rho.total, rho.kept
    return -(-rho.factor.shape[1] // sweep_width(d, total, kept))


def _row_phases(rho, phi):
    """psi_a = prod_j (conj x_j / |x_j|)^{a_j} for the rows a of rho's table."""
    angles = occupation_counts(rho.d, rho.kept) @ np.angle(phi.amplitudes)
    return np.exp(-1j * angles)


class TestRealSweep:
    # The sweep multiplies the table's rows by the phases
    # psi_a = prod_j (conj x_j / |x_j|)^{a_j} and then runs on real
    # coefficients |x_j| sqrt(m_j / t).  It sweeps the real part of the
    # rotated table, and the imaginary part only when its squared norm
    # exceeds spacing(min_s F_s(Re)) / 4: the sweep is a contraction, so
    # F_s(Im) <= ||Im||_F^2 could not change a digit.  Each case is held
    # to reduced_expectation, which contracts with conj(psi) in one split.

    @pytest.mark.parametrize("d,total,kept", [(3, 5, 2), (4, 4, 1), (2, 7, 3), (3, 4, 4)])
    def test_a_table_no_machine_made(self, d, total, kept, monkeypatch):
        rng = np.random.default_rng(100 + 10 * d + total)
        rho = _random_table(rng, d, total, kept)
        phi = random_pure_state(d, 101)
        # The rotated table is far from real, so a sweep that dropped its
        # imaginary part would be far off: both parts are swept.
        rotated = rho.factor * _row_phases(rho, phi)[:, None]
        assert np.abs(rotated.imag).max() > 0.1
        calls = _count_parts(monkeypatch)
        values = ladder_fidelities(rho, phi, total)
        assert len(calls) == 2 * _blocks(rho)
        _assert_sweep_is_the_split_reference(rho, phi, values)

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
            closed = [float(value) for value in fidelities_closed(spec)]
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

        def counting(level, idx, scale, chunk, out):
            pieces.append(-(-idx.shape[0] // chunk))
            return step(level, idx, scale, chunk, out)

        def one_piece(level, idx, scale, chunk, out):
            return step(level, idx, scale, idx.shape[0], out)

        monkeypatch.setattr(symmetric, "_ladder_step", counting)
        chunked = ladder_fidelities(rho, phi, spec.m_out)
        assert max(pieces) >= 3
        monkeypatch.setattr(symmetric, "_ladder_step", one_piece)
        whole = ladder_fidelities(rho, phi, spec.m_out)
        assert np.abs(chunked - whole).max() <= 1e-14
        _assert_sweep_is_the_split_reference(rho, phi, chunked)

    @pytest.mark.parametrize("machine", MACHINES)
    @pytest.mark.parametrize("d,n,m", [(5, 2, 8), (3, 2, 6), (2, 100, 400)])
    def test_a_machine_table_sweeps_one_part_per_block(
        self, d, n, m, machine, monkeypatch
    ):
        phi = random_pure_state(d, 106)
        rho = run_machine(CloneSpec(d, n, m), phi, machine)
        calls = _count_parts(monkeypatch)
        values = ladder_fidelities(rho, phi, m)
        assert len(calls) == _blocks(rho)
        assert sum(calls) == rho.factor.shape[1]
        for L in sorted({1, 2, m - 1, m}):
            reference = reduced_expectation(rho, expand_power(phi, L), L)
            assert values[L - 1] == pytest.approx(reference, abs=1e-12)

    @pytest.mark.parametrize("machine,parts", [("unified", 1), (None, 2)])
    def test_parts_are_counted_per_block(self, machine, parts, monkeypatch):
        spec = CloneSpec(4, 2, 6)
        phi = random_pure_state(4, 107)
        if machine is None:
            rho = _random_table(np.random.default_rng(107), 4, 6, 2)
        else:
            rho = run_machine(spec, phi, machine)
        held, _, per_column = sweep_budget(4, 6, 2)
        monkeypatch.setattr(symmetric, "FAST_PATH_CAP", held + per_column * 10)
        calls = _count_parts(monkeypatch)
        values = ladder_fidelities(rho, phi, spec.m_out)
        assert _blocks(rho) >= 3
        assert len(calls) == parts * _blocks(rho)
        assert sum(calls) == parts * spec.dim_anc
        _assert_sweep_is_the_split_reference(rho, phi, values)

    @pytest.mark.parametrize("machine", MACHINES)
    def test_table_times_i_sweeps_its_imaginary_part(self, machine, monkeypatch):
        # The rotated table's real part is rounding noise, far below the
        # imaginary part's norm, so the imaginary part must be swept.
        spec = CloneSpec(4, 2, 5)
        phi = random_pure_state(4, 110)
        rho = run_machine(spec, phi, machine)
        turned = SymDensity(rho.d, rho.total, 1j * rho.factor, rho.kept)
        calls = _count_parts(monkeypatch)
        values = ladder_fidelities(turned, phi, spec.m_out)
        assert len(calls) == 2 * _blocks(turned)
        own = ladder_fidelities(rho, phi, spec.m_out)
        assert np.abs(values - own).max() <= 1e-15
        _assert_sweep_is_the_split_reference(turned, phi, values)

    @pytest.mark.parametrize("share,parts", [(0.9, 1), (1.1, 2)])
    def test_imaginary_part_at_the_threshold(self, share, parts, monkeypatch):
        spec = CloneSpec(4, 2, 6)
        phi = random_pure_state(4, 111)
        rho = run_machine(spec, phi, "fan")
        threshold = np.spacing(ladder_fidelities(rho, phi, spec.m_out).min()) / 4
        # An imaginary part of squared norm share * threshold, put on the
        # rotated table: V + conj(psi_a) i c X for a unit-norm real X.
        noise = np.random.default_rng(112).standard_normal(rho.factor.shape)
        noise *= math.sqrt(share * threshold) / np.linalg.norm(noise)
        shift = 1j * noise * _row_phases(rho, phi).conj()[:, None]
        perturbed = SymDensity(rho.d, rho.total, rho.factor + shift, rho.kept)
        real, imag = symmetric._sweep(perturbed, phi, spec.m_out, np.real)
        assert (imag > np.spacing(real.min()) / 4) == (share > 1)
        calls = _count_parts(monkeypatch)
        values = ladder_fidelities(perturbed, phi, spec.m_out)
        assert len(calls) == parts * _blocks(perturbed)
        # Skipped or swept, the imaginary part changes no bit.
        swept, _ = symmetric._sweep(perturbed, phi, spec.m_out, np.imag)
        assert (values == real + swept).all()
        _assert_sweep_is_the_split_reference(perturbed, phi, values)

    @pytest.mark.parametrize("theta", [0.3, 2.0, -1.1])
    def test_global_phase_leaves_fidelities_unchanged(self, theta):
        spec = CloneSpec(3, 2, 6)
        phi = random_pure_state(3, 113)
        machine = run_machine(spec, phi, "unified")
        for rho in (machine, _random_table(np.random.default_rng(114), 3, 6, 2)):
            turned = SymDensity(rho.d, rho.total, np.exp(1j * theta) * rho.factor, rho.kept)
            values = ladder_fidelities(turned, phi, spec.m_out)
            own = ladder_fidelities(rho, phi, spec.m_out)
            assert np.abs(values - own).max() <= 1e-15
            _assert_sweep_is_the_split_reference(turned, phi, values)


def _force_block_rows(monkeypatch, extra):
    """Give every sweep block ``extra`` rows past level M-1 and its spare row."""
    monkeypatch.setattr(symmetric, "_block_rows", lambda width, d, upper, chunk: upper + 1 + extra)


def _placements(monkeypatch):
    """Wrap the sweep's step; the list grows by whether each level went over the one it read."""
    step = symmetric._ladder_step
    placements = []

    def recording(level, idx, scale, chunk, out):
        placements.append("in place" if np.may_share_memory(level, out) else "apart")
        return step(level, idx, scale, chunk, out)

    monkeypatch.setattr(symmetric, "_ladder_step", recording)
    return placements


def _block_shapes(monkeypatch):
    """Wrap the sweep's first step; the list grows by the (rows, columns) of each block."""
    step = symmetric._first_step
    shapes = []

    def recording(table, rows, down, top_scale, height):
        shapes.append((height, table.shape[1]))
        return step(table, rows, down, top_scale, height)

    monkeypatch.setattr(symmetric, "_first_step", recording)
    return shapes


def _extra_rows(d, m, upto):
    """Block rows past level M-1 at which the grouping of a sweep's levels changes."""
    sizes = [sym_dim(d, t) for t in range(m - upto, m - 1)]
    ends = {sum(sizes[:k]) for k in range(len(sizes) + 1)}
    return sorted(ends | {end - 1 for end in ends if end})


class TestBlockPlacement:
    # Each step writes its level into the block's rows after the one it
    # reads while they hold it; otherwise the levels so far are summed and
    # it goes to the block's first rows, or over the level it reads.  The
    # placement changes no product and no level's sum, so the bits of F_s
    # do not depend on it: at every block height they are the same, and
    # within 1e-15 of the sweep that writes every level in place.

    @pytest.mark.parametrize(
        "d,n,m,machine,upto",
        [
            (2, 8, 48, "fan", None),
            (2, 1, 40, "werner", None),
            (3, 2, 12, "werner", None),
            (4, 2, 10, "unified", None),
            (4, 2, 10, "fan", 4),
            (6, 2, 7, "unified", None),
        ],
    )
    def test_every_block_height_gives_the_same_bits(
        self, d, n, m, machine, upto, monkeypatch
    ):
        spec = CloneSpec(d, n, m)
        phi = random_pure_state(d, 120)
        rho = run_machine(spec, phi, machine)
        upto = upto or m
        closed = np.array([float(value) for value in fidelities_closed(spec)[:upto]])
        in_place = in_place_sweep(rho, phi, upto)
        assert np.abs(in_place - closed).max() <= TOL
        values = ladder_fidelities(rho, phi, upto)
        assert np.abs(values - in_place).max() <= 1e-15
        assert np.abs(values - closed).max() <= 1e-12
        for extra in _extra_rows(d, m, upto):
            _force_block_rows(monkeypatch, extra)
            assert (ladder_fidelities(rho, phi, upto) == values).all(), extra

    def test_every_block_height_in_narrow_blocks_of_both_parts(self, monkeypatch):
        rho = _random_table(np.random.default_rng(121), 3, 7, 2)
        phi = random_pure_state(3, 121)
        held, _, per_column = sweep_budget(3, 7, 2)
        monkeypatch.setattr(symmetric, "FAST_PATH_CAP", held + per_column * 4)
        assert _blocks(rho) >= 3
        calls = _count_parts(monkeypatch)
        values = ladder_fidelities(rho, phi, 7)
        assert len(calls) == 2 * _blocks(rho)
        assert np.abs(values - in_place_sweep(rho, phi, 7)).max() <= 1e-15
        _assert_sweep_is_the_split_reference(rho, phi, values)
        for extra in _extra_rows(3, 7, 7):
            _force_block_rows(monkeypatch, extra)
            assert (ladder_fidelities(rho, phi, 7) == values).all(), extra

    @pytest.mark.parametrize(
        "d,n,m,in_place",
        [(2, 1, 40, 0), (2, 8, 48, 0), (3, 2, 12, 0), (5, 2, 8, 2), (6, 2, 7, 1), (9, 2, 5, 1)],
    )
    def test_large_levels_go_in_place_and_small_ones_side_by_side(
        self, d, n, m, in_place, monkeypatch
    ):
        # The many-copies points write no level over the one it reads; at
        # the qudit-dense points only the first, large levels are, and the
        # block is the size of level M-1.
        phi = random_pure_state(d, 122)
        rho = run_machine(CloneSpec(d, n, m), phi, "unified")
        placements = _placements(monkeypatch)
        ladder_fidelities(rho, phi, m)
        assert placements == ["in place"] * in_place + ["apart"] * (m - 1 - in_place)

    @pytest.mark.parametrize("d,n,m,products", [(9, 2, 5, 1), (5, 2, 8, 2)])
    def test_a_run_of_levels_takes_one_scaling_product(self, d, n, m, products, monkeypatch):
        # A run that starts in place takes its later levels' scaling from
        # the same product: at (9,2,5) the in-place step and the three
        # side-by-side steps after it read one.  Scaling each step on its
        # own ran the (2,1,40) and (2,8,48) sweeps 1.15-1.16x slower.
        phi = random_pure_state(d, 125)
        rho = run_machine(CloneSpec(d, n, m), phi, "fan")
        step = symmetric._ladder_step
        # Held, not only counted by id, so that no id is reused.
        scales = []

        def recording(level, idx, scale, chunk, out):
            scales.append(scale if scale.base is None else scale.base)
            return step(level, idx, scale, chunk, out)

        monkeypatch.setattr(symmetric, "_ladder_step", recording)
        ladder_fidelities(rho, phi, m)
        assert len(scales) == m - 1
        assert len({id(scale) for scale in scales}) == products

    @pytest.mark.parametrize("d,n,m", [(2, 1, 40), (2, 8, 48), (3, 2, 12), (5, 2, 8), (6, 2, 7)])
    def test_a_block_grows_only_under_the_heap_threshold(self, d, n, m, monkeypatch):
        phi = random_pure_state(d, 123)
        rho = run_machine(CloneSpec(d, n, m), phi, "fan")
        shapes = _block_shapes(monkeypatch)
        ladder_fidelities(rho, phi, m)
        (height, width), = shapes
        level = sym_dim(d, m - 1) + 1
        if 8 * width * level > symmetric.HEAP_BYTES:
            assert height == level
        else:
            assert level < height and 8 * width * height <= symmetric.HEAP_BYTES

    def test_less_chunk_room_gives_smaller_blocks(self, monkeypatch):
        spec = CloneSpec(2, 8, 48)
        phi = random_pure_state(2, 124)
        rho = run_machine(spec, phi, "fan")
        values = ladder_fidelities(rho, phi, 48)
        heights = []
        for chunk in (2**19, 2**16, 2**15, 2**14, 0):
            monkeypatch.setattr(symmetric, "CHUNK_BYTES", chunk)
            shapes = _block_shapes(monkeypatch)
            assert (ladder_fidelities(rho, phi, 48) == values).all(), chunk
            monkeypatch.undo()
            heights += [height for height, _ in shapes]
        assert heights == sorted(heights, reverse=True)
        assert heights[0] > heights[-1] == sym_dim(2, 47) + 1

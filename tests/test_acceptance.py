"""Acceptance gate: every contract criterion at its stated tolerance.

One test per criterion, each printing a single pass/fail summary line
(visible with ``pytest -s``, or through the verbose test listing).  The
tolerances are stated inline: 1e-10 for trace distances and numeric
fidelity comparisons, 1e-12 for amplitude-level checks, and exact
rational equality where no floating point is involved.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from uqcm.combinatorics import verify_identity_family
from uqcm.fidelity import (
    fidelities_closed,
    fidelities_numeric,
    fidelity_L_closed_N1,
    fidelity_global_closed,
    fidelity_single_closed,
)
from uqcm.hilbert import (
    FullDensity,
    PureState,
    fidelity_pure,
    partial_trace,
    random_pure_state,
    random_unitary,
)
from uqcm.machines import (
    MACHINES,
    AsymmetryWeights,
    CloneSpec,
    run_machine,
    unified_output_oracle,
    weighted_clone,
    werner_output_oracle,
)
from uqcm.symmetric import sym_to_full_density, sym_unitary

from reference import (
    dense_matrix,
    full_to_sym_density,
    reduce_symmetric,
    trace_distance_matrices,
)

DIST_TOL = 1e-10
AMP_TOL = 1e-12

# Every point fits the brute-force oracle: d^(2M-N) <= 4096 throughout.
GRID = [
    (d, n, m)
    for d in (2, 3)
    for n in (1, 2)
    for m in range(n, n + 3)
]


def _line(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def test_01_three_machine_equivalence():
    """Projector, amplitude and entangled-pair outputs coincide below 1e-10."""
    worst = 0.0
    for d, n, m in GRID:
        spec = CloneSpec(d, n, m)
        for seed in range(20):
            phi = random_pure_state(d, seed)
            outs = [dense_matrix(run_machine(spec, phi, name)) for name in MACHINES]
            for a, b in combinations(outs, 2):
                worst = max(worst, trace_distance_matrices(a, b))
    ok = worst < DIST_TOL
    _line(
        ok,
        "criterion 1, three-machine equivalence",
        f"max pairwise trace distance {worst:.3e} over {len(GRID)} grid points "
        f"x 20 states (tolerance {DIST_TOL:g})",
    )
    assert ok, f"max pairwise trace distance {worst}"


def test_02_closed_form_fidelity_agreement():
    """Numeric F_L matches the closed form below 1e-10; specializations exact."""
    worst = 0.0
    for d, n, m in GRID:
        spec = CloneSpec(d, n, m)
        phi = random_pure_state(d, 17)
        rho = run_machine(spec, phi, "werner")
        closed_forms = fidelities_closed(spec)
        for numeric, closed in zip(fidelities_numeric(rho, phi), closed_forms):
            worst = max(worst, abs(numeric - float(closed)))
    numeric_ok = worst < DIST_TOL

    exact_cases = 0
    exact_ok = True
    for d in range(2, 5):
        for n in range(1, 7):
            for m in range(n, 7):
                spec = CloneSpec(d, n, m)
                closed = fidelities_closed(spec)
                exact_ok &= closed[0] == fidelity_single_closed(spec)
                exact_ok &= closed[-1] == fidelity_global_closed(spec)
                exact_cases += 2
                if n == 1:
                    for L in range(1, m + 1):
                        exact_ok &= closed[L - 1] == fidelity_L_closed_N1(d, m, L)
                        exact_cases += 1

    ok = numeric_ok and exact_ok
    _line(
        ok,
        "criterion 2, closed-form fidelity agreement",
        f"max |numeric - closed| {worst:.3e} (tolerance {DIST_TOL:g}); "
        f"{exact_cases} exact rational identities hold",
    )
    assert numeric_ok, f"numeric mismatch {worst}"
    assert exact_ok, "an exact specialization identity failed"


def test_03_spot_values():
    """Named fidelity values exact, double-checked by the full-tensor oracle."""
    spots = [
        (CloneSpec(2, 1, 2), 1, Fraction(5, 6)),
        (CloneSpec(2, 1, 2), 2, Fraction(2, 3)),
        (CloneSpec(2, 1, 3), 2, Fraction(11, 18)),
    ]
    exact_ok = all(fidelities_closed(spec, L)[-1] == value for spec, L, value in spots)

    worst = 0.0
    for spec, L, value in spots:
        phi = random_pure_state(spec.d, 29)
        rho_full = werner_output_oracle(spec, phi)
        reduced = partial_trace(rho_full, set(range(L)))
        target = np.ones(1, dtype=np.complex128)
        for _ in range(L):
            target = np.kron(target, phi.amplitudes)
        oracle_value = fidelity_pure(reduced, target)
        worst = max(worst, abs(oracle_value - float(value)))
    oracle_ok = worst < DIST_TOL

    ok = exact_ok and oracle_ok
    _line(
        ok,
        "criterion 3, fidelity spot values",
        f"5/6, 2/3, 11/18 exact; oracle deviation {worst:.3e} "
        f"(tolerance {DIST_TOL:g})",
    )
    assert exact_ok, "a closed-form spot value is wrong"
    assert oracle_ok, f"oracle deviation {worst}"


def test_04_explicit_qubit_pair_amplitudes():
    """Qubit 1 -> 2 joint amplitudes are sqrt(2/3) and sqrt(1/6), up to phase."""
    spec = CloneSpec(2, 1, 2)
    worst = 0.0
    for level in (0, 1):
        # The copy slots lead: the reduced factor read row-major is the joint state.
        oracle = unified_output_oracle(spec, PureState.basis(2, level))
        amps = oracle.factor.ravel()
        anchor = amps[np.argmax(np.abs(amps))]
        amps = amps * (abs(anchor) / anchor)

        expected = np.zeros(8, dtype=np.complex128)
        big, small = math.sqrt(2 / 3), math.sqrt(1 / 6)
        if level == 0:
            expected[0b000] = big
            expected[0b011] = small
            expected[0b101] = small
        else:
            expected[0b111] = big
            expected[0b100] = small
            expected[0b010] = small
        worst = max(worst, float(np.max(np.abs(amps - expected))))
    ok = worst < AMP_TOL
    _line(
        ok,
        "criterion 4, explicit qubit-pair machine",
        f"max amplitude deviation {worst:.3e} (tolerance {AMP_TOL:g})",
    )
    assert ok, f"amplitude deviation {worst}"


def test_05_covariance():
    """Rotating the input is the same as conjugating the output, below 1e-10."""
    worst = 0.0
    for d, n, m in GRID:
        spec = CloneSpec(d, n, m)
        phi = random_pure_state(d, 43)
        base = {name: dense_matrix(run_machine(spec, phi, name)) for name in MACHINES}
        for trial in range(10):
            u = random_unitary(d, 1000 + trial)
            big = sym_unitary(u, m)
            rotated = PureState(u @ phi.amplitudes)
            for name in MACHINES:
                direct = dense_matrix(run_machine(spec, rotated, name))
                conjugated = big @ base[name] @ big.conj().T
                worst = max(worst, trace_distance_matrices(direct, conjugated))
    ok = worst < DIST_TOL
    _line(
        ok,
        "criterion 5, covariance",
        f"max trace distance {worst:.3e} over {len(GRID)} grid points x 10 "
        f"unitaries x 3 machines (tolerance {DIST_TOL:g})",
    )
    assert ok, f"covariance deviation {worst}"


def test_06_asymmetric_limits():
    """Weight limits: (1, 1/d) at beta=0, symmetric F_1 at alpha=beta, equal
    weights reproduce the symmetric machine."""
    worst_exact = 0.0
    for d in (2, 3, 4):
        phi = random_pure_state(d, 61)
        res = weighted_clone(CloneSpec(d, 1, 2), phi, AsymmetryWeights.pair(1.0, 0.0))
        f_a, f_b = res.slot_fidelities
        worst_exact = max(worst_exact, abs(f_a - 1.0), abs(f_b - 1.0 / d))
    limit_ok = worst_exact < AMP_TOL

    worst_sym = 0.0
    for d in (2, 3, 4):
        phi = random_pure_state(d, 62)
        spec = CloneSpec(d, 1, 2)
        res = weighted_clone(spec, phi, AsymmetryWeights.pair(1.0, 1.0))
        target = float(fidelity_single_closed(spec))
        worst_sym = max(worst_sym, *(abs(f - target) for f in res.slot_fidelities))
    sym_ok = worst_sym < DIST_TOL

    spec = CloneSpec(2, 1, 3)
    phi = random_pure_state(2, 63)
    weighted = weighted_clone(spec, phi, AsymmetryWeights.equal(1, 3))
    joint = FullDensity(weighted.joint[:, None], 2 * spec.m_out - spec.n_in, spec.d)
    output = partial_trace(joint, range(spec.m_out))
    oracle = unified_output_oracle(spec, phi)
    dist = trace_distance_matrices(dense_matrix(output), dense_matrix(oracle))
    equal_ok = dist < DIST_TOL

    ok = limit_ok and sym_ok and equal_ok
    _line(
        ok,
        "criterion 6, asymmetric limits",
        f"endpoint deviation {worst_exact:.3e} (tol {AMP_TOL:g}); symmetric-point "
        f"deviation {worst_sym:.3e} and equal-weight distance {dist:.3e} "
        f"(tol {DIST_TOL:g})",
    )
    assert limit_ok, f"beta=0 limit deviates by {worst_exact}"
    assert sym_ok, f"alpha=beta point deviates by {worst_sym}"
    assert equal_ok, f"equal-weight machine deviates by {dist}"


def test_07_summation_identity():
    """The single-copy summation identity holds exactly on the whole grid."""
    count = 0
    all_equal = True
    documented = True
    for d in range(2, 5):
        for n in range(1, 6):
            for report in verify_identity_family(n, 5, d):
                all_equal &= report.equal
                documented &= not report.printed_summand_evaluable
                documented &= "denominator" in report.note
                count += 1
    ok = all_equal and documented
    _line(
        ok,
        "criterion 7, summation identity",
        f"exact equality on all {count} points; printed-form defect documented",
    )
    assert all_equal, "identity failed somewhere on the grid"
    assert documented, "printed-form issue not documented"


def test_08_reduction_oracle():
    """Occupation-basis reduction equals the full partial trace for every
    choice of traced factors."""
    worst = 0.0
    subsets_checked = 0
    for d, n, m in GRID:
        spec = CloneSpec(d, n, m)
        phi = random_pure_state(d, 83)
        rho = run_machine(spec, phi, "werner")
        full = sym_to_full_density(rho)
        for kept in range(1, m + 1):
            native = reduce_symmetric(rho, kept)
            for keep in combinations(range(m), kept):
                via_full = full_to_sym_density(partial_trace(full, set(keep)))
                worst = max(
                    worst,
                    trace_distance_matrices(
                        native @ native.conj().T, via_full @ via_full.conj().T
                    ),
                )
                subsets_checked += 1
    ok = worst < DIST_TOL
    _line(
        ok,
        "criterion 8, reduction oracle",
        f"max trace distance {worst:.3e} over {subsets_checked} factor choices "
        f"(tolerance {DIST_TOL:g})",
    )
    assert ok, f"reduction deviates by {worst}"

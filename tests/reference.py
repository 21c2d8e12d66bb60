"""Dense and exact references that the tests hold the package to.

Nothing in ``src/uqcm`` calls these; they exist so that each fast path
has an independent, literal counterpart to be compared against:

* the exact layer: the enumeration of occupation tuples, the one check
  of a count tuple and the exact splitting coefficient, as ``Fraction``;
* the three machines' weight tables from one broadcast log-multinomial,
  and the scatter of an amplitude table into its factor, one entry at a
  time;
* the dense trace distance of two Hermitian matrices;
* the embedding isometry and what is built from it: the embedded basis
  state, the dense symmetric projector, the full-space image of a
  vector, and the compression of a full-space density back into the
  occupation basis;
* the one-split partial trace and expectation in the occupation basis;
* the closed-form symmetric 1 -> 2 cloner;

and two helpers: :func:`dense_matrix`, the dense density of a state or
a factor-held density, and :func:`clear_caches`, which empties every
cached table before a traced span.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from uqcm import machines, symmetric
from uqcm.combinatorics import check_d, sym_dim
from uqcm.hilbert import (
    NORM_TOL,
    FullDensity,
    PureState,
    _check_hermitian,
    check_cap,
    check_factor,
)
from uqcm.symmetric import (
    SymDensity,
    _canonical_index,
    _compress,
    _embed_columns,
    occupation_counts,
    split_index,
)


def occupation_tuples(d: int, total: int) -> Iterator[tuple[int, ...]]:
    """Plain count tuples of ``total`` particles in ``d`` slots, in canonical order.

    The exact layer's enumeration of the basis, and the reference that
    the numeric table :func:`uqcm.symmetric.occupation_counts` is tested
    against.
    """
    check_d(d)
    if total < 0:
        raise ValueError(f"particle number must be >= 0, got {total}")
    return _tuples(d, total)


def _tuples(d: int, total: int) -> Iterator[tuple[int, ...]]:
    # The successor in decreasing order moves one particle out of the last
    # occupied slot j before the final one into slot j+1, which also
    # collects everything the final slot held.
    counts = [total] + [0] * (d - 1)
    while True:
        yield tuple(counts)
        j = d - 2
        while j >= 0 and counts[j] == 0:
            j -= 1
        if j < 0:
            return
        moved = counts[-1] + 1
        counts[j] -= 1
        counts[-1] = 0
        counts[j + 1] = moved


def check_occupation(m: Sequence[int], d: int, total: int) -> tuple[int, ...]:
    """``m`` as a tuple of ints; ValueError unless it is ``total`` particles in ``d`` slots."""
    counts = tuple(int(c) for c in m)
    if len(counts) != d:
        raise ValueError(f"{counts} has {len(counts)} slots, expected {d}")
    if any(c < 0 for c in counts):
        raise ValueError(f"negative occupation in {counts}")
    if sum(counts) != total:
        raise ValueError(f"{counts} sums to {sum(counts)}, expected {total}")
    return counts


def splitting_coefficient_sq(
    m: Sequence[int], k: Sequence[int], total: int, kept: int
) -> Fraction:
    """Exact square of the coefficient of |m-k>|k> in the split of |m>.

    Splitting the symmetric state |m> of ``total`` qudits into a front
    group of ``kept`` qudits and a back group of ``total - kept`` qudits
    gives the back-group occupation ``k`` the amplitude whose square is

        prod_j C(m_j, k_j) / C(total, kept).

    The squares over all admissible ``k`` sum to one exactly.  ``m`` and
    ``k`` are count tuples with the same number of slots, and ``k`` must
    fit slotwise inside ``m``.
    """
    if not 0 <= kept <= total:
        raise ValueError(f"kept group size {kept} outside 0..{total}")
    m = check_occupation(m, len(m), total)
    k = check_occupation(k, len(m), total - kept)
    if any(kj > mj for mj, kj in zip(m, k)):
        raise ValueError(f"split {k} exceeds occupation {m}")
    num = 1
    for mj, kj in zip(m, k):
        num *= math.comb(mj, kj)
    return Fraction(num, math.comb(total, kept))


def reference_weights(d: int, n: int, m: int) -> dict[str, np.ndarray]:
    """werner's, fan's and unified's weight tables from D_in x r x d arrays.

    The log-multinomial summed over a broadcast slot axis from its own
    ``math.lgamma`` table, not gathered from the package's log-factorial
    sums through the split index as :mod:`uqcm.machines` does.
    "unified" holds the splitting coefficients f(a+k, k) of m qudits
    split as (n, m - n).
    """
    a = occupation_counts(d, n)
    k = occupation_counts(d, m - n)
    log_fac = np.array([math.lgamma(t + 1) for t in range(m + d)])
    multinomial = log_fac[a[:, None, :] + k[None, :, :]].sum(axis=2)
    log_a = log_fac[a].sum(axis=1)[:, None]
    log_k = log_fac[k].sum(axis=1)[None, :]
    log_prefactor = log_fac[n] + log_fac[m - n] + log_fac[n + d - 1] - log_fac[m + d - 1]
    log_eta_sq = log_fac[m - n] + log_fac[n + d - 1] - log_fac[m + d - 1]
    log_split = log_fac[m] - log_fac[n] - log_fac[m - n]
    return {
        "werner": np.exp(0.5 * log_prefactor + 0.5 * multinomial - log_a - 0.5 * log_k),
        "fan": np.exp(0.5 * (log_eta_sq + multinomial - log_a - log_k)),
        "unified": np.exp(0.5 * (multinomial - log_a - log_k - log_split)),
    }


def scatter_loop(rho: SymDensity) -> np.ndarray:
    """The factor J of a table-held density, J[a+k, k] = V[a, k], one entry at a time.

    Every row is found by its position in the enumeration of the
    (d, total) basis, not by the rank formula or the split index.
    """
    d, total, kept = rho.d, rho.total, rho.kept
    rows = {m: i for i, m in enumerate(occupation_tuples(d, total))}
    joint = np.zeros((len(rows), rho.factor.shape[1]), dtype=np.complex128)
    for i, a in enumerate(occupation_tuples(d, kept)):
        for j, k in enumerate(occupation_tuples(d, total - kept)):
            joint[rows[tuple(x + y for x, y in zip(a, k))], j] = rho.factor[i, j]
    return joint


def trace_distance_matrices(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance 0.5 * ||a - b||_1 between two Hermitian matrices of equal shape.

    The dense reference: no production path calls it, since every
    density the package compares is held as a factor and compared by
    :func:`trace_distance_factors`; the tests hold that to this.  The
    trace norm of a Hermitian matrix is the sum of the absolute values
    of its eigenvalues (its singular values are exactly those), so the
    Hermitian eigensolver's eigenvalues of ``a - b`` give the distance
    without the singular value decomposition.  ``a - b`` must be Hermitian
    to ``TRACE_TOL`` (:func:`_check_hermitian`): ``eigvalsh`` reads only
    one triangle, so a non-Hermitian difference would give a wrong
    distance silently.  Cost O(D^3); peak about two D x D complex
    buffers (the difference and LAPACK's copy).
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    diff = a - b
    _check_hermitian(diff, "difference of the operands")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def embed(m: tuple[int, ...]) -> np.ndarray:
    """Amplitudes of the normalized permutation-invariant state with occupation m."""
    d, total = len(m), sum(m)
    counts = np.array(check_occupation(m, d, total), dtype=np.intp)
    return embed_isometry(d, total)[:, _canonical_index(total, counts)]


def embed_isometry(d: int, total: int) -> np.ndarray:
    """d^total x sym_dim matrix whose columns are the embedded basis states."""
    check_cap(d, total)
    columns, scale, _, _ = _embed_columns(d, total)
    iso = np.zeros((d**total, scale.size))
    iso[np.arange(d**total), columns] = scale[columns]
    return iso


def projector_full(d: int, total: int) -> np.ndarray:
    """Orthogonal projector onto the symmetric subspace, as a d^total matrix.

    The dense reference only; :func:`project_symmetric` applies it.
    """
    iso = embed_isometry(d, total)
    return iso @ iso.T


def sym_to_full_state(amplitudes: np.ndarray, d: int, total: int) -> np.ndarray:
    """Full-space amplitudes iso @ amplitudes of a vector over the (d, total) basis."""
    return embed_isometry(d, total) @ amplitudes


def full_to_sym_density(rho: FullDensity) -> np.ndarray:
    """Compress a full-space density with symmetric support into the occupation basis.

    Returns the occupation-basis factor iso^T @ F.  It keeps unit trace
    only if F lies in the symmetric subspace, so the factor check also
    tests the support.  A reference for the tests: nothing in the package
    calls it.
    """
    d, total = rho.local_dim, rho.factors
    check_cap(d, total)
    factor = _compress(rho.factor, d, total)
    check_factor(factor, sym_dim(d, total))
    return factor


def reduce_symmetric(rho: SymDensity, kept: int) -> np.ndarray:
    """Partial trace down to ``kept`` qudits, natively in the occupation basis.

    Entries follow the two-group splitting of each |m>:

        rho_L[a, b] = sum_k f(a+k, k) f(b+k, k) rho[a+k, b+k]

    with f the splitting coefficient for total qudits split as
    (kept, total - kept).  With rho = J J^dagger this is B B^dagger for

        B[a, (k, c)] = f(a+k, k) J[a+k, c],

    so the reduction is returned as the factor B, gathered in one step
    and never passing through the dense rho.  Agrees with the full-space
    partial trace over any choice of traced factors.  A reference for the
    tests: :func:`ladder_fidelities` reads F_L without it.
    """
    total, d = rho.total, rho.d
    if not 1 <= kept <= total:
        raise ValueError(f"kept count {kept} outside 1..{total}")
    idx = split_index(d, total, kept)
    coeff = reference_weights(d, kept, total)["unified"]
    factor = (coeff[:, :, None] * rho.joint[idx]).reshape(idx.shape[0], -1)
    check_factor(factor, sym_dim(d, kept))
    return factor


def reduced_expectation(rho: SymDensity, psi: np.ndarray, copies: int) -> float:
    """<psi| rho_L |psi>, with rho_L the reduction of rho to L = ``copies`` qudits.

    Read straight off the factor J of rho = J J^dagger as

        sum_k || sum_a conj(psi_a) f(a+k, k) J[a+k, :] ||^2,

    one ancilla-sized row per traced occupation k, so neither rho nor
    rho_L is formed.  Nothing in the package calls it: it contracts all
    L traced qudits in one split instead of one qudit per step, and the
    tests hold :func:`ladder_fidelities` to it as the independent
    reference.
    """
    idx = split_index(rho.d, rho.total, copies)
    coeff = reference_weights(rho.d, copies, rho.total)["unified"]
    weights = psi.conj()[:, None] * coeff
    value = 0.0
    for w, where in zip(weights.T, idx.T):
        row = w @ rho.joint[where]
        value += np.vdot(row, row).real
    return value


def explicit_1to2(d: int, phi: PureState) -> np.ndarray:
    """Closed-form 1 -> 2 cloner: the d^3 amplitudes on (copy, copy, ancilla).

    On a basis input |l> the output is proportional to
    |ll>|l>_a + (1/2) sum_{j != l} (|lj> + |jl>) |j>_a, extended linearly;
    each basis image has squared norm (d+1)/2, so one global factor
    sqrt(2/(d+1)) normalizes the whole map.
    """
    if d != phi.dim:
        raise ValueError(f"state dimension {phi.dim} does not match d={d}")
    check_cap(d, 3)
    amps = np.zeros(d**3, dtype=np.complex128)
    for l, x_l in enumerate(phi.amplitudes):
        if x_l == 0:
            continue
        amps[(l * d + l) * d + l] += x_l
        for j in range(d):
            if j == l:
                continue
            amps[(l * d + j) * d + j] += 0.5 * x_l
            amps[(j * d + l) * d + j] += 0.5 * x_l
    amps *= math.sqrt(2.0 / (d + 1))
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > NORM_TOL:
        raise AssertionError(f"1->2 output has norm {norm}")
    return amps


def dense_matrix(state: SymDensity | FullDensity | PureState) -> np.ndarray:
    """The dense density matrix: J J^dagger, F F^dagger or |psi><psi|."""
    if isinstance(state, SymDensity):
        factor = state.joint
    elif isinstance(state, FullDensity):
        factor = state.factor
    else:
        factor = state.amplitudes[:, None]
    return factor @ factor.conj().T


def clear_caches() -> None:
    """Empty every ``lru_cache`` of :mod:`uqcm.symmetric` and :mod:`uqcm.machines`.

    A budget test clears them before its ``tracemalloc`` span, so that every
    table is built inside it; a cache added later is cleared too.
    """
    for module in (symmetric, machines):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

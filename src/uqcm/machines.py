"""Universal qudit cloning machines, their oracles and the asymmetric cloner.

Three equivalent constructions of the optimal N -> M universal cloner are
implemented as independent code paths so they can be cross-checked:

* ``werner_output``  — projector form: rescaled symmetric projection of
  the input copies padded with maximally mixed blanks; the fast path
  evaluates the closed-form occupation-basis entries as a Gram product.
* ``fan_output``     — amplitude form: the explicit transformation on
  symmetric basis states, kept as a pure joint state with a
  symmetric-occupation ancilla.
* ``unified_output`` — entangled-pair form: symmetric projection of the
  inputs together with one half of M-N maximally entangled pairs, the
  other halves acting as the ancilla.

Each machine has a polynomial-size fast path in the occupation basis
whose output density rho = J J^dagger has the factor J (the Gram
factor, or the joint state with the ancilla columns open).  J is
nonzero only on |a+k>|k>, so all three return the same type, a
:class:`~uqcm.symmetric.SymDensity` holding the dim_in x dim_anc table
of those entries; J itself is scattered only when read, and all of it
is subject to :data:`~uqcm.hilbert.FAST_PATH_CAP`.  Each table is a
vector over the inputs a, which depends on phi, times a read-only
dim_in x dim_anc weight table, which depends only on (d, n_in, m_out)
and is cached per problem: ``_werner_weights``, ``_fan_weights`` and
``_unified_weights``, the splitting coefficients.  Each is built from
its own formula from the same log-factorial sums of the input, ancilla
and output bases, the output's gathered through the split index, and no
machine reads another's table.
``*_oracle`` variants rebuild the same object in the full tensor space
(subject to the oracle cap) for verification: the same projector-form
and entangled-pair constructions, held as factors of at most
d^(2 m_out - n_in) entries, with the symmetric projector applied through
the embedding isometry instead of formed as a d^m_out x d^m_out matrix.
Full-space pure states (the pair arrangement, the asymmetric joint
state) are plain arrays of amplitudes, copy slots leading.

``weighted_clone`` is the one asymmetric machine: the entangled-pair
arrangement of ``unified_output_oracle``, summed over every permutation
of the output slots with per-subset weights.  It is literal and full
space only; at (1, 2) with pair weights it is Cerf's optimal asymmetric
cloner, which is what ``uqcm asym-sweep`` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .combinatorics import check_d, sym_dim
from .hilbert import (
    FAST_PATH_CAP,
    NORM_TOL,
    FastPathCapError,
    FullDensity,
    PureState,
    check_cap,
    check_state_dim,
    checked_fidelities,
    maximally_entangled,
    fidelity_pure,
    partial_trace,
    permute_factors,
    sum_squares,
)
from .symmetric import (
    SymDensity,
    expand_power,
    log_factorial_sums,
    occupation_counts,
    project_symmetric,
    split_index,
    sweep_budget,
    sweep_width,
)


@dataclass(frozen=True)
class CloneSpec:
    """Cloning-problem parameters (d, n_in, m_out) and derived constants."""

    d: int
    n_in: int
    m_out: int

    def __post_init__(self) -> None:
        check_d(self.d)
        if not 1 <= self.n_in <= self.m_out:
            raise ValueError(
                f"need 1 <= n_in <= m_out, got n_in={self.n_in}, m_out={self.m_out}"
            )

    @property
    def dim_in(self) -> int:
        return sym_dim(self.d, self.n_in)

    @property
    def dim_out(self) -> int:
        return sym_dim(self.d, self.m_out)

    @property
    def dim_anc(self) -> int:
        """Dimension sym_dim(d, m_out - n_in) of the fast paths' symmetric ancilla."""
        return sym_dim(self.d, self.m_out - self.n_in)

    @property
    def eta_sq(self) -> Fraction:
        """Exact square of the normalization constant of the amplitude form."""
        d, n, m = self.d, self.n_in, self.m_out
        return Fraction(
            math.factorial(m - n) * math.factorial(n + d - 1),
            math.factorial(m + d - 1),
        )


def werner_output(spec: CloneSpec, phi: PureState) -> SymDensity:
    """Projector-form cloner, evaluated from its occupation-basis entries.

    Entry (m, m') carries n_in! * eta^2 times the sum over ancilla-sized
    occupations k <= m, m' of

        prod_j x_j^{m_j-k_j} conj(x_j)^{m'_j-k_j}
               * sqrt(m_j! m'_j!) / ((m_j-k_j)! (m'_j-k_j)! k_j!).

    The summand factorises as A[m, k] conj(A[m', k]) with

        A[a+k, k] = prod_j x_j^{a_j} sqrt((a_j+k_j)!) / (a_j! sqrt(k_j!)),

    so the density is the Gram product n_in! * eta^2 * A A^dagger, and
    sqrt(n_in! * eta^2) A is returned as its factor, held as the table of
    its entries A[a+k, k] (``kept`` = n_in).  That table is the vector
    x^a over the inputs times the input-independent weight table
    :func:`_werner_weights`, built once per (d, n_in, m_out).
    """
    _check_phi(spec, phi)
    check_fast_path(spec)
    d, n, m_total = spec.d, spec.n_in, spec.m_out
    # Powers stay out of the logarithm: a zero amplitude to the power 0 is exactly 1.
    powers = np.prod(phi.amplitudes ** occupation_counts(d, n), axis=1)
    gram = powers[:, None] * _werner_weights(d, n, m_total)
    return SymDensity(d=d, total=m_total, factor=gram, kept=n)


@lru_cache(maxsize=None)
def _werner_weights(d: int, n: int, m_total: int) -> np.ndarray:
    """sqrt(n_in! eta^2) prod_j sqrt((a_j+k_j)!) / (a_j! sqrt(k_j!)), read-only.

    The D_in x r weights of :func:`werner_output`'s factor, rows over the
    inputs a and columns over the ancilla k.  The prefactor's square
    root is folded in the log domain, where no factorial overflows; the
    log-multinomial is a gather through the split index
    (:func:`~uqcm.symmetric.log_factorial_sums`).
    """
    # log(n_in! * eta^2), eta^2 = (m_out-n_in)! (n_in+d-1)! / (m_out+d-1)!
    log_prefactor = math.lgamma(n + 1) + math.lgamma(m_total - n + 1) + math.lgamma(n + d)
    log_prefactor -= math.lgamma(m_total + d)
    weights = log_factorial_sums(d, m_total)[split_index(d, m_total, n)]
    weights *= 0.5
    weights += 0.5 * log_prefactor
    weights -= log_factorial_sums(d, n)[:, None]
    weights -= 0.5 * log_factorial_sums(d, m_total - n)[None, :]
    np.exp(weights, out=weights)
    weights.setflags(write=False)
    return weights


def werner_output_oracle(spec: CloneSpec, phi: PureState) -> FullDensity:
    """Projector-form cloner built literally in the full tensor space.

    (D_N / D_M) P (rho_in x I) P for the pure input rho_in =
    (|phi><phi|)^(x n_in), with P the symmetric projector on m_out qudits
    and D_t = sym_dim(d, t), held as its factor
    sqrt(D_N / D_M) P (|phi>^(x n_in) x I_(d^(m_out - n_in))), which has
    d^(2 m_out - n_in) entries.
    """
    _check_phi(spec, phi)
    d, n, m_total = spec.d, spec.n_in, spec.m_out
    check_cap(d, 2 * m_total - n)
    blank = d ** (m_total - n)
    padded = (_power(phi, n)[:, None, None] * np.eye(blank)).reshape(-1, blank)
    scale = math.sqrt(sym_dim(d, n) / sym_dim(d, m_total))
    factor = scale * project_symmetric(padded, d, m_total)
    return FullDensity(factor, factors=m_total, local_dim=d)


def fan_output(spec: CloneSpec, phi: PureState) -> SymDensity:
    """Amplitude-form cloner: pure joint state with an occupation ancilla.

    Each input occupation |a> of |phi>^(x n_in) goes to
    eta * sum_k sqrt(prod_j (a_j+k_j)! / (a_j! k_j!)) |a+k>|k>.  The joint
    state, with rows over |a+k> and columns over the ancilla |k>, is the
    factor of the output density; it is held as the table of its
    amplitudes on |a+k>|k> (``kept`` = n_in).  That table is the
    expansion of |phi>^(x n_in) over the inputs times the
    input-independent weight table :func:`_fan_weights`, built once per
    (d, n_in, m_out).
    """
    _check_phi(spec, phi)
    check_fast_path(spec)
    d, n_total, m_total = spec.d, spec.n_in, spec.m_out
    inputs = expand_power(phi, n_total)
    table = inputs[:, None] * _fan_weights(d, n_total, m_total)
    norm = np.linalg.norm(table)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"amplitude-form joint state has norm {norm}")
    return SymDensity(d=d, total=m_total, factor=table, kept=n_total)


@lru_cache(maxsize=None)
def _fan_weights(d: int, n_total: int, m_total: int) -> np.ndarray:
    """eta * sqrt(prod_j (a_j+k_j)! / (a_j! k_j!)), read-only.

    The D_in x r weights of :func:`fan_output`'s joint state, rows over
    the inputs a and columns over the ancilla k.  eta is folded into the
    multinomial in the log domain, where neither underflows nor
    overflows; the log-multinomial is a gather through the split index
    (:func:`~uqcm.symmetric.log_factorial_sums`).
    """
    # log(eta^2), eta^2 = (m_out-n_in)! (n_in+d-1)! / (m_out+d-1)!
    log_eta_sq = math.lgamma(m_total - n_total + 1) + math.lgamma(n_total + d)
    log_eta_sq -= math.lgamma(m_total + d)
    weights = log_factorial_sums(d, m_total)[split_index(d, m_total, n_total)]
    weights += log_eta_sq
    weights -= log_factorial_sums(d, n_total)[:, None]
    weights -= log_factorial_sums(d, m_total - n_total)[None, :]
    weights *= 0.5
    np.exp(weights, out=weights)
    weights.setflags(write=False)
    return weights


def unified_output(spec: CloneSpec, phi: PureState) -> SymDensity:
    """Entangled-pair cloner on identical pure inputs, fast path.

    Projecting |a>|k> into the symmetric subspace of all m_out qudits
    leaves sqrt(C(m_out, n_in)) f(a+k, k) |a+k>|k>, with f the splitting
    coefficient, and the literal full-space projection next to the pair
    halves scales every such term by the same d^(-(m_out-n_in)/2) /
    sqrt(C(m_out, n_in)).  A uniform scale drops out on normalization,
    so input occupation |a> contributes f(a+k, k) (:func:`_unified_weights`),
    and the sum over the expansion of |phi>^(x n_in) is normalized by its
    own norm (with the pair factor in, its square would underflow at
    large m_out).  The joint state, ancilla occupations still open, is
    the factor of the output density, held as the table of its
    amplitudes on |a+k>|k> (``kept`` = n_in).
    """
    _check_phi(spec, phi)
    check_fast_path(spec)
    d, n_total, m_total = spec.d, spec.n_in, spec.m_out
    inputs = expand_power(phi, n_total)
    raw = inputs[:, None] * _unified_weights(d, n_total, m_total)
    raw /= math.sqrt(sum_squares(raw))
    return SymDensity(d=d, total=m_total, factor=raw, kept=n_total)


@lru_cache(maxsize=None)
def _unified_weights(d: int, n_total: int, m_total: int) -> np.ndarray:
    """f(a+k, k) = sqrt(prod_j C(a_j+k_j, k_j) / C(m_out, n_in)), read-only.

    The D_in x r weights of :func:`unified_output`, rows over the inputs
    a and columns over the ancilla k: the amplitude of |a>|k> in the
    split of |a+k> into n_in and m_out - n_in qudits, formed from
    log-factorials, the log-multinomial gathered through the split index
    (:func:`~uqcm.symmetric.log_factorial_sums`).
    """
    weights = log_factorial_sums(d, m_total)[split_index(d, m_total, n_total)]
    weights -= log_factorial_sums(d, n_total)[:, None]
    weights -= log_factorial_sums(d, m_total - n_total)[None, :]
    log_split = math.lgamma(m_total + 1) - math.lgamma(n_total + 1)
    weights -= log_split - math.lgamma(m_total - n_total + 1)
    weights *= 0.5
    np.exp(weights, out=weights)
    weights.setflags(write=False)
    return weights


def unified_output_oracle(spec: CloneSpec, phi: PureState) -> FullDensity:
    """Entangled-pair cloner built literally: project, normalize, trace.

    Factor layout of the joint state: the m_out copy slots first, then
    the m_out - n_in ancilla halves of the entangled pairs; the factor,
    read row-major, is the joint state.
    """
    _check_phi(spec, phi)
    d, n_total, m_total = spec.d, spec.n_in, spec.m_out
    blanks = m_total - n_total
    check_cap(d, m_total + blanks)

    block = _pair_arrangement(phi, n_total, blanks).reshape(d**m_total, d**blanks)
    projected = project_symmetric(block, d, m_total)
    projected *= 1.0 / float(np.linalg.norm(projected))
    # The copy slots lead, so the joint state's block with the ancilla
    # still open is the factor of their reduced state.
    return FullDensity(projected, factors=m_total, local_dim=d)


@dataclass(frozen=True)
class AsymmetryWeights:
    """Finite nonnegative routing weights, one per n_in-subset of output slots.

    For the 1 -> 2 machine the two singleton subsets carry the familiar
    pair (alpha, beta).  Weights may be passed unnormalized; machines
    normalize internally and report the normalization they used.
    """

    weights: dict[tuple[int, ...], float]

    def __post_init__(self) -> None:
        cleaned: dict[tuple[int, ...], float] = {}
        for subset, w in self.weights.items():
            key = tuple(sorted(int(s) for s in subset))
            if len(set(key)) != len(key):
                raise ValueError(f"subset {subset} has repeated slots")
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight {w} for subset {subset}")
            if w < 0:
                raise ValueError(f"negative weight {w} for subset {subset}")
            cleaned[key] = float(w)
        if not cleaned or all(w == 0 for w in cleaned.values()):
            raise ValueError("at least one weight must be positive")
        object.__setattr__(self, "weights", cleaned)

    @classmethod
    def pair(cls, alpha: float, beta: float) -> "AsymmetryWeights":
        return cls({(0,): alpha, (1,): beta})

    @classmethod
    def equal(cls, n_in: int, m_out: int) -> "AsymmetryWeights":
        return cls({s: 1.0 for s in combinations(range(m_out), n_in)})


@dataclass(frozen=True)
class WeightedCloneResult:
    """Asymmetric cloner output; see :func:`weighted_clone`."""

    joint: np.ndarray
    slot_fidelities: tuple[float, ...]
    normalization: float


def weighted_clone(
    spec: CloneSpec, phi: PureState, w: AsymmetryWeights
) -> WeightedCloneResult:
    """Asymmetric entangled-pair cloner: a per-subset-weighted symmetrization.

    Every permutation of the output slots is applied to the pair
    arrangement (inputs in the leading slots, pair halves behind) and
    weighted by w_S, where S is the slot subset that ends up holding the
    inputs; a subset's weight is shared uniformly by its whole
    permutation coset.  Equal weights reproduce the symmetric machine
    exactly.  At (n_in, m_out) = (1, 2) with ``AsymmetryWeights.pair``
    the two permutations give alpha |phi>_1 |pair>_{2a} +
    beta |phi>_2 |pair>_{1a}, normalized by
    sqrt(alpha^2 + beta^2 + 2 alpha beta / d), which is Cerf's optimal
    asymmetric 1 -> 2 cloner.  No optimality is claimed for general
    weights; runs in full tensor space only.  ``slot_fidelities`` are the
    single-slot fidelities with the input, clipped to [0, 1] by
    :func:`~uqcm.hilbert.checked_fidelities` as every numeric fidelity
    is.  The weights are summed scaled by 2^-e, with e the binary
    exponent of the largest: that is exact, and extreme weights neither
    overflow nor vanish.  ``normalization`` is the norm of the unscaled
    sum, or inf beyond the float range.
    """
    _check_phi(spec, phi)
    d, n_total, m_total = spec.d, spec.n_in, spec.m_out
    blanks = m_total - n_total
    check_cap(d, m_total + blanks)

    expected = set(combinations(range(m_total), n_total))
    if set(w.weights) != expected:
        raise ValueError(
            f"weights must cover all {len(expected)} subsets of size "
            f"{n_total} from {m_total} slots"
        )

    _, exponent = math.frexp(max(w.weights.values()))
    scaled = {s: math.ldexp(v, -exponent) for s, v in w.weights.items()}
    base = _pair_arrangement(phi, n_total, blanks)
    raw = np.zeros_like(base)
    anc = [m_total + t for t in range(blanks)]
    for copy_perm in permutations(range(m_total)):
        subset = tuple(sorted(i for i in range(m_total) if copy_perm[i] < n_total))
        weight = scaled[subset]
        if weight == 0:
            continue
        raw = raw + weight * permute_factors(base, d, list(copy_perm) + anc)

    norm = float(np.linalg.norm(raw))
    if norm == 0:
        raise ValueError("weighted combination vanished")
    joint = raw / norm
    density = FullDensity(joint[:, None], factors=m_total + blanks, local_dim=d)
    fids = checked_fidelities(
        fidelity_pure(partial_trace(density, {s}), phi.amplitudes)
        for s in range(m_total)
    )
    try:
        normalization = math.ldexp(norm, exponent)
    except OverflowError:
        normalization = math.inf
    return WeightedCloneResult(joint, fids, normalization)


MACHINES = ("werner", "fan", "unified")


def run_machine(spec: CloneSpec, phi: PureState, which: str) -> SymDensity:
    """Fast-path output density of the named symmetric machine."""
    if which == "werner":
        return werner_output(spec, phi)
    if which == "fan":
        return fan_output(spec, phi)
    if which == "unified":
        return unified_output(spec, phi)
    raise ValueError(f"unknown machine {which!r}; expected one of {MACHINES}")


def check_fast_path(spec: CloneSpec, tables: int = 1) -> int:
    """Raise FastPathCapError if the problem is over budget; else return its entries.

    The budget is what a machine and the ladder sweep over its table
    allocate (:func:`uqcm.symmetric.sweep_budget`): the tables held
    throughout, plus the larger of two spans that never overlap, the
    tables' construction and one block of the sweep.  ``tables`` is how
    many machines' dim_in x dim_anc amplitude tables are alive while the
    last one is built: 1 for ``uqcm table``, 3 for ``uqcm verify``, whose
    fast-path-only trial builds every machine's table, compares them by
    :func:`~uqcm.symmetric.trace_distance_bound` and releases them, then
    builds and sweeps each machine's table in turn; it scatters no
    factor J.  The block is as wide as the cap leaves room for
    (:func:`~uqcm.symmetric.sweep_width`), so it is not narrowed by the
    extra tables.  Runs before any occupation table or factor of the
    problem is built, so an oversized request fails at once instead of
    running out of memory.
    """
    d, n, m = spec.d, spec.n_in, spec.m_out
    held, transient, per_column = sweep_budget(d, m, n)
    extra = (tables - 1) * spec.dim_in * spec.dim_anc
    entries = held + max(extra + transient, per_column * sweep_width(d, m, n))
    if entries > FAST_PATH_CAP:
        what = "its occupation tables and one sweep block"
        if tables > 1:
            what = (
                f"its occupation tables, then either the amplitude tables of "
                f"{tables} machines ({spec.dim_in} x {spec.dim_anc} each) or "
                "one sweep block"
            )
        raise FastPathCapError(
            f"(d, n_in, m_out) = ({d}, {n}, {m}) needs {entries} entries for "
            f"{what}, above the fast-path cap of {FAST_PATH_CAP}"
        )
    return entries


def full_mode_entries(spec: CloneSpec) -> int:
    """Entries one full-mode ``uqcm verify`` trial holds at its peak.

    Starts from the ``uqcm verify`` rule of :func:`check_fast_path`
    (three tables and their construction, and the pairwise bounds on
    them).  The covariance check adds the three machines' dim_out x
    dim_anc factors J and the dim_out x dim_out restriction u_out of u
    to the symmetric output space (:func:`~uqcm.symmetric.sym_unitary`)
    with its last product.  Then the larger of two spans that never
    overlap: ``sym_unitary``'s two d^m_out x dim_out transients, and the
    bound itself, which holds the ancilla space's dim_anc x dim_anc
    u_anc and its adjoint, one rotated machine's table and its J, the two
    products u_out J u_anc^dagger and their difference.  The
    oracle checks add factors of at most d^(2 m_out - n_in) entries
    each: the oracle, its projection and their stack, and the arrays the
    projection passes through.  The same term bounds the merged factors
    the checks read (:func:`~uqcm.hilbert.merge_equal_columns`): a merge
    holds the oracle, its transpose, its columns' bytes and a merged
    factor no wider than the oracle, and the projection and the stacks
    are then built from the merged factor.  No d^m_out x d^m_out array
    is formed.
    ``uqcm verify`` runs full mode only when this fits under
    FAST_PATH_CAP.
    """
    d, n, m = spec.d, spec.n_in, spec.m_out
    d_in, d_out, r = spec.dim_in, spec.dim_out, spec.dim_anc
    covariance = (d_in + 4 * d_out) * r + 2 * r**2
    return (
        check_fast_path(spec, tables=len(MACHINES))
        + 3 * d_out * r
        + 2 * d_out**2
        + max(2 * d**m * d_out, covariance)
        + 6 * d ** (2 * m - n)
    )


def _pair_arrangement(phi: PureState, copies: int, blanks: int) -> np.ndarray:
    """|phi>^(x copies) beside ``blanks`` maximally entangled pairs, halves sorted.

    Factor layout: the copies, then one half of every pair (together the
    copy slots), then the other halves (the ancilla).
    """
    state, pair = _power(phi, copies), maximally_entangled(phi.dim)
    for _ in range(blanks):
        state = np.multiply.outer(state, pair).ravel()
    # Pairs interleave as (half, ancilla); bring all copy halves forward.
    perm = list(range(copies))
    perm += [copies + 2 * t for t in range(blanks)]
    perm += [copies + 2 * t + 1 for t in range(blanks)]
    return permute_factors(state, phi.dim, perm)


def _power(phi: PureState, copies: int) -> np.ndarray:
    """The d^copies amplitudes of |phi>^(x copies), one outer product per copy."""
    amps = np.ones(1, dtype=np.complex128)
    for _ in range(copies):
        amps = np.multiply.outer(amps, phi.amplitudes).ravel()
    return amps


def _check_phi(spec: CloneSpec, phi: PureState) -> None:
    check_state_dim(phi, spec.d, "input state", "spec")

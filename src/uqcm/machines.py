"""Universal qudit cloning machines and their asymmetric variants.

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
whose output density rho = J J^dagger is held as its factor J (the Gram
factor, or the joint state with the ancilla columns open), subject to
:data:`~uqcm.hilbert.FAST_PATH_CAP`; ``*_oracle`` variants rebuild the
same object in the full tensor space (subject to the oracle cap) for
verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from .combinatorics import sym_dim
from .hilbert import (
    FAST_PATH_CAP,
    NORM_TOL,
    FastPathCapError,
    FullDensity,
    FullState,
    PureState,
    check_cap,
    maximally_entangled,
    partial_trace_state,
    fidelity_pure,
    permute_factors,
    tensor,
)
from .symmetric import (
    SymBasis,
    SymDensity,
    expand_power,
    log_factorials,
    projector_full,
    scatter_factor,
    split_table,
)


@dataclass(frozen=True)
class CloneSpec:
    """Cloning-problem parameters (d, n_in, m_out) and derived constants."""

    d: int
    n_in: int
    m_out: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"qudit dimension must be >= 2, got {self.d}")
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

    @property
    def eta(self) -> float:
        sq = self.eta_sq
        return math.sqrt(sq.numerator / sq.denominator)


@dataclass(frozen=True)
class MachineOutput:
    """Result of a symmetric cloning machine.

    ``density.factor`` is the normalized pure joint state as a
    (dim_out x dim_anc) coefficient matrix over occupation bases; tracing
    its ancilla index gives ``density.matrix``.  ``lam`` is the
    normalization applied after projection (1.0 for machines whose
    construction is already norm-preserving).
    """

    density: SymDensity
    lam: float
    machine_tag: str


def werner_output(spec: CloneSpec, phi: PureState) -> SymDensity:
    """Projector-form cloner, evaluated from its occupation-basis entries.

    Entry (m, m') carries n_in! * eta^2 times the sum over ancilla-sized
    occupations k <= m, m' of

        prod_j x_j^{m_j-k_j} conj(x_j)^{m'_j-k_j}
               * sqrt(m_j! m'_j!) / ((m_j-k_j)! (m'_j-k_j)! k_j!).

    The summand factorises as A[m, k] conj(A[m', k]) with

        A[a+k, k] = prod_j x_j^{a_j} sqrt((a_j+k_j)!) / (a_j! sqrt(k_j!)),

    so the density is the Gram product n_in! * eta^2 * A A^dagger, and
    sqrt(n_in! * eta^2) A is returned as its factor.  The prefactor's
    square root is folded into A in the log domain, where no factorial
    overflows.
    """
    _check_phi(spec, phi)
    check_fast_path(spec)
    d, n, m_total = spec.d, spec.n_in, spec.m_out
    a = SymBasis(d, n).counts
    k = SymBasis(d, m_total - n).counts
    log_fac = log_factorials(m_total + d - 1)
    # log(n_in! * eta^2), eta^2 = (m_out-n_in)! (n_in+d-1)! / (m_out+d-1)!
    log_prefactor = (
        log_fac[n] + log_fac[m_total - n] + log_fac[n + d - 1] - log_fac[m_total + d - 1]
    )
    log_mag = (
        0.5 * log_prefactor
        + 0.5 * log_fac[a[:, None, :] + k[None, :, :]].sum(axis=2)
        - log_fac[a].sum(axis=1)[:, None]
        - 0.5 * log_fac[k].sum(axis=1)[None, :]
    )
    # Powers stay out of the logarithm: a zero amplitude to the power 0 is exactly 1.
    powers = np.prod(phi.amplitudes**a, axis=1)
    gram = scatter_factor(d, m_total, n, powers[:, None] * np.exp(log_mag))
    return SymDensity(basis=SymBasis(d, m_total), factor=gram)


def werner_output_oracle(spec: CloneSpec, phi: PureState) -> FullDensity:
    """Projector-form cloner built literally in the full tensor space."""
    _check_phi(spec, phi)
    d, n, m_total = spec.d, spec.n_in, spec.m_out
    check_cap(d, m_total)
    sigma = phi.density()
    block = np.eye(1, dtype=np.complex128)
    for _ in range(n):
        block = np.kron(block, sigma)
    block = np.kron(block, np.eye(d ** (m_total - n), dtype=np.complex128))
    proj = projector_full(d, m_total)
    out = (sym_dim(d, n) / sym_dim(d, m_total)) * (proj @ block @ proj)
    # Validating the density needs three D x D buffers of its own.
    del block, proj
    return FullDensity(out, factors=m_total, local_dim=d)


def fan_output(spec: CloneSpec, phi: PureState) -> MachineOutput:
    """Amplitude-form cloner: pure joint state with an occupation ancilla.

    Each input occupation |a> of |phi>^(x n_in) goes to
    eta * sum_k sqrt(prod_j (a_j+k_j)! / (a_j! k_j!)) |a+k>|k>.  The joint
    state, with rows over |a+k> and columns over the ancilla |k>, is the
    factor of the output density.
    """
    _check_phi(spec, phi)
    check_fast_path(spec)
    d, n_total, m_total = spec.d, spec.n_in, spec.m_out
    a = SymBasis(d, n_total).counts
    k = SymBasis(d, m_total - n_total).counts
    log_fac = log_factorials(m_total)
    log_multinomial = (
        log_fac[a[:, None, :] + k[None, :, :]].sum(axis=2)
        - log_fac[a].sum(axis=1)[:, None]
        - log_fac[k].sum(axis=1)[None, :]
    )
    inputs = expand_power(phi, n_total)
    joint = scatter_factor(
        d, m_total, n_total,
        spec.eta * inputs.amplitudes[:, None] * np.exp(0.5 * log_multinomial),
    )
    norm = np.linalg.norm(joint)
    if abs(norm - 1.0) > NORM_TOL:
        raise AssertionError(f"amplitude-form joint state has norm {norm}")
    density = SymDensity(basis=SymBasis(d, m_total), factor=joint)
    return MachineOutput(density=density, lam=1.0, machine_tag="fan")


def unified_output(spec: CloneSpec, phi: PureState) -> MachineOutput:
    """Entangled-pair cloner on identical pure inputs, fast path.

    Projecting |a>|k> into the symmetric subspace of all m_out qudits
    leaves sqrt(C(m_out, n_in)) f(a+k, k) |a+k>|k>, with f the splitting
    coefficient.  The oracle prefactor d^(-(m_out-n_in)/2) / sqrt(C(m_out, n_in))
    relates this to the literal full-space projection next to the pair
    halves, so input occupation |a> contributes d^(-(m_out-n_in)/2) f(a+k, k).
    The sum over the expansion of |phi>^(x n_in) is normalized by ``lam``;
    the joint state, ancilla occupations still open, is the factor of the
    output density.
    """
    _check_phi(spec, phi)
    check_fast_path(spec)
    d, n_total, m_total = spec.d, spec.n_in, spec.m_out
    _, coeff = split_table(d, m_total, n_total)
    inputs = expand_power(phi, n_total)
    pair_factor = d ** (-(m_total - n_total) / 2)
    raw = scatter_factor(
        d, m_total, n_total, pair_factor * inputs.amplitudes[:, None] * coeff
    )
    lam = 1.0 / np.linalg.norm(raw)
    density = SymDensity(basis=SymBasis(d, m_total), factor=lam * raw)
    return MachineOutput(density=density, lam=lam, machine_tag="unified")


@dataclass(frozen=True)
class UnifiedOracleResult:
    """Full-tensor-space evaluation of the entangled-pair cloner."""

    joint: FullState
    lam: float
    density: FullDensity


def unified_output_oracle(spec: CloneSpec, phi: PureState) -> UnifiedOracleResult:
    """Entangled-pair cloner built literally: project, normalize, trace.

    Factor layout of the joint state: the m_out copy slots first, then
    the m_out - n_in ancilla halves of the entangled pairs.
    """
    _check_phi(spec, phi)
    d, n_total, m_total = spec.d, spec.n_in, spec.m_out
    blanks = m_total - n_total
    check_cap(d, m_total + blanks)

    state = _pure_power(phi, n_total)
    for _ in range(blanks):
        state = tensor(state, maximally_entangled(d))
    # Pairs interleave as (half, ancilla); bring all copy halves forward.
    perm = list(range(n_total))
    perm += [n_total + 2 * t for t in range(blanks)]
    perm += [n_total + 2 * t + 1 for t in range(blanks)]
    state = permute_factors(state, perm)

    block = state.amplitudes.reshape(d**m_total, d**blanks)
    projected = projector_full(d, m_total) @ block
    norm = float(np.linalg.norm(projected))
    lam = 1.0 / norm
    joint = FullState(
        (lam * projected).ravel(), factors=m_total + blanks, local_dim=d
    )
    density = partial_trace_state(joint, range(m_total))
    return UnifiedOracleResult(joint=joint, lam=lam, density=density)


def explicit_1to2(d: int, phi: PureState) -> FullState:
    """Closed-form 1 -> 2 cloner as a pure state on (copy, copy, ancilla).

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
    state = FullState(amps, factors=3, local_dim=d)
    if abs(state.norm() - 1.0) > NORM_TOL:
        raise AssertionError(f"1->2 output has norm {state.norm()}")
    return state


@dataclass(frozen=True)
class AsymmetryWeights:
    """Nonnegative routing weights, one per n_in-subset of output slots.

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

    @property
    def alpha(self) -> float:
        return self.weights.get((0,), 0.0)

    @property
    def beta(self) -> float:
        return self.weights.get((1,), 0.0)


@dataclass(frozen=True)
class AsymmetricPairResult:
    """1 -> 2 asymmetric cloner output: joint state, both clones, both fidelities."""

    joint: FullState
    clone_a: FullDensity
    clone_b: FullDensity
    fidelity_a: float
    fidelity_b: float
    normalization: float


def asymmetric_1to2(d: int, phi: PureState, w: AsymmetryWeights) -> AsymmetricPairResult:
    """Weighted superposition of routing the input into slot 1 or slot 2.

    The state alpha |phi>_1 |pair>_{2a} + beta |phi>_2 |pair>_{1a} is
    normalized accounting for the 2*alpha*beta/d overlap of the two
    (non-orthogonal) terms; clones are the single-slot reductions.
    """
    if d != phi.dim:
        raise ValueError(f"state dimension {phi.dim} does not match d={d}")
    check_cap(d, 3)
    alpha, beta = w.alpha, w.beta
    if alpha == 0 and beta == 0:
        raise ValueError("1->2 weights must include a positive alpha or beta")

    phi_state = FullState(phi.amplitudes, factors=1, local_dim=d)
    into_first = tensor(phi_state, maximally_entangled(d))
    into_second = permute_factors(tensor(maximally_entangled(d), phi_state), (0, 2, 1))

    raw = alpha * into_first.amplitudes + beta * into_second.amplitudes
    norm = float(np.linalg.norm(raw))
    joint = FullState(raw / norm, factors=3, local_dim=d)

    clone_a = partial_trace_state(joint, {0})
    clone_b = partial_trace_state(joint, {1})
    return AsymmetricPairResult(
        joint=joint,
        clone_a=clone_a,
        clone_b=clone_b,
        fidelity_a=fidelity_pure(clone_a, phi_state),
        fidelity_b=fidelity_pure(clone_b, phi_state),
        normalization=norm,
    )


@dataclass(frozen=True)
class WeightedCloneResult:
    """Exploratory general-asymmetry output; see :func:`weighted_clone`."""

    joint: FullState
    output: FullDensity
    slot_fidelities: tuple[float, ...]
    normalization: float
    machine_tag: str = field(default="weighted-exploratory")


def weighted_clone(
    spec: CloneSpec, phi: PureState, w: AsymmetryWeights
) -> WeightedCloneResult:
    """Exploratory: per-subset-weighted symmetrization of the pair construction.

    Every permutation of the output slots is applied to the base
    arrangement (inputs in the leading slots, pair halves behind) and
    weighted by w_S, where S is the slot subset that ends up holding the
    inputs; a subset's weight is shared uniformly by its whole
    permutation coset.  Equal weights reproduce the symmetric machine
    exactly, and (n_in=1, m_out=2) reduces to :func:`asymmetric_1to2`.
    No optimality is claimed for general weights; runs in full tensor
    space only.
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

    base = _pure_power(phi, n_total)
    for _ in range(blanks):
        base = tensor(base, maximally_entangled(d))
    perm = list(range(n_total))
    perm += [n_total + 2 * t for t in range(blanks)]
    perm += [n_total + 2 * t + 1 for t in range(blanks)]
    base = permute_factors(base, perm)

    raw = np.zeros_like(base.amplitudes)
    anc = [m_total + t for t in range(blanks)]
    for copy_perm in permutations(range(m_total)):
        subset = tuple(sorted(i for i in range(m_total) if copy_perm[i] < n_total))
        weight = w.weights[subset]
        if weight == 0:
            continue
        raw = raw + weight * permute_factors(base, list(copy_perm) + anc).amplitudes

    norm = float(np.linalg.norm(raw))
    if norm == 0:
        raise ValueError("weighted combination vanished")
    joint = FullState(raw / norm, factors=m_total + blanks, local_dim=d)
    output = partial_trace_state(joint, range(m_total))
    phi_state = FullState(phi.amplitudes, factors=1, local_dim=d)
    fids = tuple(
        fidelity_pure(partial_trace_state(joint, {s}), phi_state)
        for s in range(m_total)
    )
    return WeightedCloneResult(
        joint=joint, output=output, slot_fidelities=fids, normalization=norm
    )


MACHINES = ("werner", "fan", "unified")


def run_machine(spec: CloneSpec, phi: PureState, which: str) -> SymDensity:
    """Fast-path output density of the named symmetric machine."""
    if which == "werner":
        return werner_output(spec, phi)
    if which == "fan":
        return fan_output(spec, phi).density
    if which == "unified":
        return unified_output(spec, phi).density
    raise ValueError(f"unknown machine {which!r}; expected one of {MACHINES}")


def check_fast_path(spec: CloneSpec) -> None:
    """Raise FastPathCapError if the dim_out x dim_anc output factor is over budget.

    Runs before any occupation table or factor of the problem is built,
    so an oversized request fails at once instead of running out of memory.
    """
    entries = spec.dim_out * spec.dim_anc
    if entries > FAST_PATH_CAP:
        raise FastPathCapError(
            f"(d, n_in, m_out) = ({spec.d}, {spec.n_in}, {spec.m_out}) needs a "
            f"{spec.dim_out} x {spec.dim_anc} output factor ({entries} entries), "
            f"above the fast-path cap of {FAST_PATH_CAP}"
        )


def _pure_power(phi: PureState, copies: int) -> FullState:
    amps = np.ones(1, dtype=np.complex128)
    for _ in range(copies):
        amps = np.kron(amps, phi.amplitudes)
    return FullState(amps, factors=copies, local_dim=phi.dim)


def _check_phi(spec: CloneSpec, phi: PureState) -> None:
    if phi.dim != spec.d:
        raise ValueError(
            f"input state dimension {phi.dim} does not match spec d={spec.d}"
        )

"""Occupation-number representation of the symmetric subspace.

A symmetric basis state |m> = |m_1,...,m_d> is the normalized sum of all
product strings with ``m_j`` factors in level |j> (slot j counts the
0-based computational level j, so at d=2 the vector (2,0) embeds to |00>).
The polynomial-size occupation representation is used for all production
paths; :func:`embed` and friends bridge to the exponential full tensor
space, which serves only as the verification oracle.

Every decision about the numeric occupation basis is made here: the one
cached count table per (d, total) (:attr:`SymBasis.counts`), the one
rank formula (:meth:`SymBasis.index`, vectorised in the split table and
the embedding), the one split table of where |a>|k> sits in |a+k>
(:func:`split_table`), the one scatter of a machine's amplitude table
into its factor (:func:`scatter_factor`), and the one sweep that reads
every F_L off a factor, one contracted qudit per step
(:func:`ladder_fidelities`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .combinatorics import OccupationVector, occupation_tuples, sym_dim
from .hilbert import (
    NORM_TOL,
    FullDensity,
    FullState,
    PureState,
    check_cap,
    check_density,
    check_factor,
)


@dataclass(frozen=True)
class SymBasis:
    """Canonically ordered occupation basis of ``total`` qudits of dimension d.

    (d, total) fixes the basis.  ``counts`` is its one cached, read-only
    dim x d table (row i is the occupation vector at index i), and
    :meth:`index` ranks a vector by formula, not by lookup.
    """

    d: int
    total: int

    @property
    def dim(self) -> int:
        return sym_dim(self.d, self.total)

    @property
    def counts(self) -> np.ndarray:
        return _counts_table(self.d, self.total)

    def index(self, m: OccupationVector) -> int:
        counts = np.array(tuple(m), dtype=np.intp)
        if counts.size != self.d or counts.sum() != self.total or counts.min() < 0:
            raise ValueError(f"{m} is not a basis vector of ({self.d},{self.total})")
        return int(_canonical_index(counts, self.total))


@lru_cache(maxsize=None)
def _counts_table(d: int, total: int) -> np.ndarray:
    counts = np.array(list(occupation_tuples(d, total)), dtype=np.intp)
    counts.setflags(write=False)
    return counts


@lru_cache(maxsize=None)
def log_factorials(n: int) -> np.ndarray:
    """Read-only vector of log(t!) for t = 0..n."""
    out = np.array([math.lgamma(t + 1) for t in range(n + 1)])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def split_table(d: int, total: int, kept: int) -> tuple[np.ndarray, np.ndarray]:
    """Where and with what weight |a>|k> sits in the two-group split of |a+k>.

    Rows run over the (d, kept) basis a, columns over the
    (d, total - kept) basis k.  ``idx[a, k]`` is the (d, total) basis
    index of a+k, and

        coeff[a, k] = sqrt(prod_j C(a_j+k_j, k_j) / C(total, kept)),

    the splitting coefficient, is formed from log-factorials so that no
    factorial is ever converted to a float.  Both arrays are read-only.
    """
    a = SymBasis(d, kept).counts
    k = SymBasis(d, total - kept).counts
    m = a[:, None, :] + k[None, :, :]
    log_fac = log_factorials(total)
    log_sq = (
        log_fac[m].sum(axis=2)
        - log_fac[a].sum(axis=1)[:, None]
        - log_fac[k].sum(axis=1)[None, :]
        - (log_fac[total] - log_fac[kept] - log_fac[total - kept])
    )
    idx = _canonical_index(m, total)
    coeff = np.exp(0.5 * log_sq)
    idx.setflags(write=False)
    coeff.setflags(write=False)
    return idx, coeff


def _canonical_index(counts: np.ndarray, total: int) -> np.ndarray:
    """Position of each occupation vector (last axis, summing to total) in its basis.

    In lexicographically decreasing order the vectors ahead of m are those
    that agree with m up to some slot j and hold more in slot j; with
    s_j = m_{j+1} + ... + m_{d-1} there are C(s_j + d-j-2, d-j-1) of them.
    """
    d = counts.shape[-1]
    suffix = np.cumsum(counts[..., ::-1], axis=-1)[..., ::-1]
    index = np.zeros(counts.shape[:-1], dtype=np.intp)
    for j in range(d - 1):
        choose = np.array([math.comb(s + d - j - 2, d - j - 1) for s in range(total + 1)])
        index += choose[suffix[..., j + 1]]
    return index


@dataclass(frozen=True)
class SymVector:
    """Complex coefficients over a symmetric basis."""

    basis: SymBasis
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128).ravel()
        if amps.size != self.basis.dim:
            raise ValueError(
                f"{amps.size} amplitudes for a basis of dimension {self.basis.dim}"
            )
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
            raise ValueError("amplitudes are not normalized")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class SymDensity:
    """Density operator over a symmetric occupation basis, held as a factor.

    ``factor`` is a dim x r matrix J with rho = J J^dagger, e.g. a machine's
    pure joint state with its r ancilla columns still open.  Construction
    checks J in O(dim * r): the shape, finite entries and ||J||_F^2 = 1;
    Hermiticity and positivity hold by construction.  ``matrix`` forms
    the dense rho only when it is read.  A matrix that comes without a
    factor enters through :meth:`from_matrix`, which runs the full density
    check, eigenvalues included.
    """

    basis: SymBasis
    factor: np.ndarray

    def __post_init__(self) -> None:
        factor = np.asarray(self.factor, dtype=np.complex128)
        check_factor(factor, self.basis.dim)
        factor.setflags(write=False)
        object.__setattr__(self, "factor", factor)

    @classmethod
    def from_matrix(cls, basis: SymBasis, matrix: np.ndarray) -> "SymDensity":
        mat = np.asarray(matrix, dtype=np.complex128)
        if mat.shape != (basis.dim, basis.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match dim {basis.dim}")
        check_density(mat)
        # The eigenvalues passed the PSD check; clipping only drops rounding noise.
        weights, vecs = np.linalg.eigh(mat)
        return cls(basis=basis, factor=vecs * np.sqrt(np.clip(weights, 0.0, None)))

    @cached_property
    def matrix(self) -> np.ndarray:
        mat = self.factor @ self.factor.conj().T
        mat.setflags(write=False)
        return mat


def embed(m: OccupationVector) -> FullState:
    """Normalized permutation-invariant full-space state with occupation m."""
    d, total = m.d, m.total
    check_cap(d, total)
    column = _embed_isometry(d, total)[:, SymBasis(d, total).index(m)]
    return FullState(column.astype(np.complex128), factors=total, local_dim=d)


def embed_isometry(d: int, total: int) -> np.ndarray:
    """d^total x sym_dim matrix whose columns are the embedded basis states."""
    check_cap(d, total)
    return _embed_isometry(d, total)


@lru_cache(maxsize=None)
def _embed_isometry(d: int, total: int) -> np.ndarray:
    # Row r is the product string of r's base-d digits; its occupation is
    # the digit histogram, and all d^total histograms are ranked at once.
    digits = np.arange(d**total)[:, None] // d ** np.arange(total) % d
    counts = (digits[:, :, None] == np.arange(d)).sum(axis=1)
    iso = np.zeros((d**total, sym_dim(d, total)))
    iso[np.arange(d**total), _canonical_index(counts, total)] = 1.0
    # Occupation m has total!/prod(m_j!) strings, each weighted 1/sqrt of that.
    iso /= np.sqrt(iso.sum(axis=0))
    iso.setflags(write=False)
    return iso


def projector_full(d: int, total: int) -> np.ndarray:
    """Orthogonal projector onto the symmetric subspace, as a d^total matrix."""
    iso = embed_isometry(d, total)
    return iso @ iso.T


def sym_to_full_state(v: SymVector) -> FullState:
    iso = embed_isometry(v.basis.d, v.basis.total)
    return FullState(iso @ v.amplitudes, factors=v.basis.total, local_dim=v.basis.d)


def sym_to_full_density(rho: SymDensity) -> FullDensity:
    iso = embed_isometry(rho.basis.d, rho.basis.total)
    return FullDensity(
        iso @ rho.matrix @ iso.T,
        factors=rho.basis.total,
        local_dim=rho.basis.d,
    )


def full_to_sym_density(rho: FullDensity) -> SymDensity:
    """Compress a full-space density with symmetric support into the occupation basis."""
    iso = embed_isometry(rho.local_dim, rho.factors)
    basis = SymBasis(rho.local_dim, rho.factors)
    return SymDensity.from_matrix(basis, iso.T @ rho.matrix @ iso)


def sym_unitary(u: np.ndarray, total: int) -> np.ndarray:
    """Restriction of u^(x total) to the symmetric subspace (a dim x dim unitary)."""
    d = u.shape[0]
    iso = embed_isometry(d, total)
    power = np.eye(1, dtype=np.complex128)
    for _ in range(total):
        power = np.kron(power, u)
    return iso.T @ power @ iso


def expand_power(phi: PureState, copies: int) -> SymVector:
    """Occupation-basis coefficients of the tensor power |phi>^(x copies).

    The amplitude on |n> is sqrt(copies!) * prod_j x_j^{n_j} / sqrt(n_j!);
    the result is normalized because |phi>^(x copies) already lives in the
    symmetric subspace.
    """
    if copies < 1:
        raise ValueError(f"need at least one copy, got {copies}")
    basis = SymBasis(phi.dim, copies)
    counts = basis.counts
    log_fac = log_factorials(copies)
    # Powers stay out of the logarithm: a zero amplitude to the power 0 is exactly 1.
    powers = np.prod(phi.amplitudes**counts, axis=1)
    amps = powers * np.exp(0.5 * (log_fac[copies] - log_fac[counts].sum(axis=1)))
    return SymVector(basis=basis, amplitudes=amps)


def reduce_symmetric(rho: SymDensity, kept: int) -> SymDensity:
    """Partial trace down to ``kept`` qudits, natively in the occupation basis.

    Entries follow the two-group splitting of each |m>:

        rho_L[a, b] = sum_k f(a+k, k) f(b+k, k) rho[a+k, b+k]

    with f the splitting coefficient for total qudits split as
    (kept, total - kept).  With rho = J J^dagger this is B B^dagger for

        B[a, (k, c)] = f(a+k, k) J[a+k, c],

    so the reduction is returned as the factor B, gathered in one step
    and never passing through the dense rho.  Agrees with the full-space
    partial trace over any choice of traced factors.
    """
    total, d = rho.basis.total, rho.basis.d
    if not 1 <= kept <= total:
        raise ValueError(f"kept count {kept} outside 1..{total}")
    if kept == total:
        return rho
    idx, coeff = split_table(d, total, kept)
    factor = (coeff[:, :, None] * rho.factor[idx]).reshape(idx.shape[0], -1)
    return SymDensity(basis=SymBasis(d, kept), factor=factor)


def scatter_factor(d: int, total: int, kept: int, amplitudes: np.ndarray) -> np.ndarray:
    """The factor J of a joint state whose amplitude on |a+k>|k> is amplitudes[a, k].

    ``amplitudes`` is a machine's table V, rows over the (d, kept) basis a
    and columns over the (d, total - kept) ancilla basis k.  J is
    sym_dim(d, total) x sym_dim(d, total - kept) with J[a+k, k] = V[a, k]
    and zeros elsewhere.
    """
    idx, _ = split_table(d, total, kept)
    factor = np.zeros((sym_dim(d, total), idx.shape[1]), dtype=np.complex128)
    factor[idx, np.arange(idx.shape[1])] = amplitudes
    return factor


def ladder_fidelities(rho: SymDensity, phi: PureState, upto: int) -> np.ndarray:
    """<phi|^(x s) rho_s |phi>^(x s) for s = 1..upto, in one sweep down rho's factor.

    On the symmetric subspace of t qudits, contracting one qudit with
    <phi| is the annihilation operator |m> -> sum_j conj(x_j)
    sqrt(m_j / t) |m - e_j>.  Starting from J_M = J, the factor of
    rho = J J^dagger, each step

        J_{t-1}[a, :] = sum_j conj(x_j) sqrt((a_j+1)/t) J_t[a+e_j, :]

    reads the (t, t-1) split table, whose columns are the single-qudit
    occupations e_j, and F_s = ||J_{M-s}||_F^2.  The sweep costs
    d * r * sum_t D_t for r columns of J and D_t = sym_dim(d, t).  It
    holds at most three levels' worth of columns at once: the previous
    level, the level being built, and one direction's gather, which is
    multiplied and added in place.
    """
    d, total = rho.basis.d, rho.basis.total
    weights = phi.amplitudes.conj()
    level = rho.factor
    values = np.empty(upto)
    for s in range(1, upto + 1):
        t = total - s + 1
        idx, coeff = split_table(d, t, t - 1)
        built = None
        for j in range(d):
            gathered = level[idx[:, j]]
            gathered *= (weights[j] * coeff[:, j])[:, None]
            if built is None:
                built = gathered
            else:
                built += gathered
            # Released before the next gather is allocated, so only one is alive.
            del gathered
        level = built
        values[s - 1] = np.vdot(level, level).real
    return values


def reduced_expectation(rho: SymDensity, psi: SymVector) -> float:
    """<psi| rho_L |psi>, with rho_L the reduction of rho to psi's L copies.

    Read straight off the factor J of rho = J J^dagger as

        sum_k || sum_a conj(psi_a) f(a+k, k) J[a+k, :] ||^2,

    one ancilla-sized row per traced occupation k, so neither rho nor
    rho_L is formed.  Nothing in the package calls it: it contracts all
    L traced qudits in one split instead of one qudit per step, and the
    tests hold :func:`ladder_fidelities` to it as the independent
    reference.
    """
    idx, coeff = split_table(rho.basis.d, rho.basis.total, psi.basis.total)
    weights = psi.amplitudes.conj()[:, None] * coeff
    value = 0.0
    for w, where in zip(weights.T, idx.T):
        row = w @ rho.factor[where]
        value += np.vdot(row, row).real
    return value

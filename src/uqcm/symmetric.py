"""Occupation-number representation of the symmetric subspace.

A symmetric basis state |m> = |m_1,...,m_d> is the normalized sum of all
product strings with ``m_j`` factors in level |j> (slot j counts the
0-based computational level j, so at d=2 the vector (2,0) embeds to |00>).
The polynomial-size occupation representation is used for all production
paths; :func:`embed` and friends bridge to the exponential full tensor
space, which serves only as the verification oracle.  The bridge forms
no d^total x d^total matrix: the embedding isometry has one nonzero per
row, so iso @ y is a row gather and iso^T @ x a sum over each
occupation's strings.  :func:`project_symmetric` applies P = iso iso^T
that way, full-space densities cross as factors
(:func:`sym_to_full_density`, :func:`full_to_sym_density`), and
:func:`sym_unitary` contracts u into each tensor axis instead of forming
u^(x total).  :func:`projector_full` is kept as the dense reference.

Every decision about the numeric occupation basis is made here: the one
cached count table per (d, total) (:attr:`SymBasis.counts`), the one
rank formula (:meth:`SymBasis.index`, vectorised in the split table and
the embedding), the one split table of where |a>|k> sits in |a+k>
(:func:`split_table`), the one scatter of a machine's amplitude table
into its factor (:func:`scatter_factor`), and the one sweep that reads
every F_L off a factor, one contracted qudit per step
(:func:`ladder_fidelities`).

The sweep starts from a machine's D_in x r amplitude table V, never
from the whole factor J: its first step is d scatters of V's D_in * r
entries into level M-1, and it runs over blocks of columns, each later
step overwriting the level it reads.  It costs d * sum_t D_t per column
for D_t = sym_dim(d, t), and a block holds one level-(M-1) block plus
half of level M-2 twice.  :func:`sweep_budget` counts everything a
machine and the sweep allocate, in 16-byte entries, and
:func:`sweep_width` makes the blocks as wide as FAST_PATH_CAP leaves
room for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .combinatorics import OccupationVector, occupation_tuples, sym_dim
from .hilbert import (
    FAST_PATH_CAP,
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

    rho = J J^dagger for a dim x r factor J, e.g. a machine's pure joint
    state with its r ancilla columns still open.  ``factor`` is J itself
    when ``kept`` is None.  Otherwise it is the sym_dim(d, kept) x r
    amplitude table V that J is scattered from, J[a+k, k] = V[a, k]
    (:func:`scatter_factor`), which is how every machine hands over its
    output: D_in * r entries instead of D_out * r.  Construction checks
    the factor in O(size): the shape, finite entries and
    ||J||_F^2 = ||V||_F^2 = 1; Hermiticity and positivity hold by
    construction.  ``joint`` scatters the whole J and ``matrix`` forms
    the dense rho, each only when read.  A matrix that comes without a
    factor enters through :meth:`from_matrix`, which runs the full
    density check, eigenvalues included, and holds J whole; only a
    density holding a table is swept by :func:`ladder_fidelities`.
    """

    basis: SymBasis
    factor: np.ndarray
    kept: int | None = None

    def __post_init__(self) -> None:
        factor = np.asarray(self.factor, dtype=np.complex128)
        d, total, kept = self.basis.d, self.basis.total, self.kept
        if kept is None:
            check_factor(factor, self.basis.dim)
        else:
            if not 0 <= kept <= total:
                raise ValueError(f"kept count {kept} outside 0..{total}")
            check_factor(factor, sym_dim(d, kept))
            if factor.shape[1] != sym_dim(d, total - kept):
                raise ValueError(
                    f"amplitude table shape {factor.shape} does not split "
                    f"({d},{total}) as {kept} + {total - kept}"
                )
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
    def joint(self) -> np.ndarray:
        """The whole dim x r factor J."""
        if self.kept is None:
            return self.factor
        joint = scatter_factor(self.basis.d, self.basis.total, self.kept, self.factor)
        joint.setflags(write=False)
        return joint

    @cached_property
    def matrix(self) -> np.ndarray:
        mat = self.joint @ self.joint.conj().T
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
    columns, scale, _, _ = _embed_columns(d, total)
    iso = np.zeros((d**total, scale.size))
    iso[np.arange(d**total), columns] = scale[columns]
    iso.setflags(write=False)
    return iso


@lru_cache(maxsize=None)
def _embed_columns(
    d: int, total: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The isometry's one nonzero per row: where it sits, and its value per column.

    Returns (columns, scale, order, starts): row r of the isometry holds
    scale[columns[r]] in column columns[r]; ``order`` lists the rows
    column by column, and column c's rows start at ``starts[c]`` of it.
    Row r is the product string of r's base-d digits, its column the
    rank of the digit histogram, all d^total ranked at once; occupation m
    has total!/prod(m_j!) strings, each weighted 1/sqrt of that.
    """
    digits = np.arange(d**total)[:, None] // d ** np.arange(total) % d
    counts = (digits[:, :, None] == np.arange(d)).sum(axis=1)
    columns = _canonical_index(counts, total)
    scale = 1.0 / np.sqrt(np.bincount(columns, minlength=sym_dim(d, total)))
    order = np.argsort(columns, kind="stable")
    starts = np.searchsorted(columns[order], np.arange(scale.size))
    for table in (columns, scale, order, starts):
        table.setflags(write=False)
    return columns, scale, order, starts


def _expand(y: np.ndarray, d: int, total: int) -> np.ndarray:
    """iso @ y for the embedding isometry, as one row gather."""
    columns, scale, _, _ = _embed_columns(d, total)
    return y[columns] * scale[columns, None]


def _compress(x: np.ndarray, d: int, total: int) -> np.ndarray:
    """iso^T @ x for the embedding isometry, as one sum over each column's rows."""
    _, scale, order, starts = _embed_columns(d, total)
    return np.add.reduceat(x[order], starts, axis=0) * scale[:, None]


def projector_full(d: int, total: int) -> np.ndarray:
    """Orthogonal projector onto the symmetric subspace, as a d^total matrix.

    The dense reference only; :func:`project_symmetric` applies it.
    """
    iso = embed_isometry(d, total)
    return iso @ iso.T


def project_symmetric(x: np.ndarray, d: int, total: int) -> np.ndarray:
    """P @ x for the symmetric projector P = iso iso^T on ``total`` qudits.

    Applied as iso @ (iso^T @ x), a sum over each occupation's strings
    and a gather back, O(d^total) per column of x; P itself, a
    d^total x d^total matrix, is never formed.
    """
    check_cap(d, total)
    return _expand(_compress(x, d, total), d, total)


def sym_to_full_state(v: SymVector) -> FullState:
    iso = embed_isometry(v.basis.d, v.basis.total)
    return FullState(iso @ v.amplitudes, factors=v.basis.total, local_dim=v.basis.d)


def sym_to_full_density(rho: SymDensity) -> FullDensity:
    """The full-space density iso rho iso^T, held as the factor iso @ J."""
    d, total = rho.basis.d, rho.basis.total
    check_cap(d, total)
    return FullDensity(_expand(rho.joint, d, total), factors=total, local_dim=d)


def full_to_sym_density(rho: FullDensity) -> SymDensity:
    """Compress a full-space density with symmetric support into the occupation basis.

    The factor iso^T @ F keeps unit trace only if F lies in the
    symmetric subspace, so the density check also tests the support.
    """
    d, total = rho.local_dim, rho.factors
    check_cap(d, total)
    return SymDensity(
        basis=SymBasis(d, total), factor=_compress(rho.factor, d, total)
    )


def sym_unitary(u: np.ndarray, total: int) -> np.ndarray:
    """Restriction of u^(x total) to the symmetric subspace (a dim x dim unitary).

    iso^T u^(x total) iso without the Kronecker power: iso, reshaped to
    (d,) * total + (dim,), has u contracted into each of its ``total``
    tensor axes in turn, one batched d x d product per axis, and the
    result is compressed by iso^T.  It costs total * d^(total+1) * dim
    and holds d^total x dim complex arrays, never a d^total x d^total one.
    """
    d = u.shape[0]
    check_cap(d, total)
    columns, scale, _, _ = _embed_columns(d, total)
    rotated = np.zeros((d**total, scale.size), dtype=np.complex128)
    rotated[np.arange(d**total), columns] = scale[columns]
    for axis in range(total):
        rotated = np.matmul(u, rotated.reshape(d**axis, d, -1))
    return _compress(rotated.reshape(d**total, -1), d, total)


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
    factor = (coeff[:, :, None] * rho.joint[idx]).reshape(idx.shape[0], -1)
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


def trace_distance_bound(a: SymDensity, b: SymDensity) -> float:
    """||V_a - V_b||_F, an upper bound on the trace distance of two table-held densities.

    For unit-norm factors, J_a J_a^dagger - J_b J_b^dagger =
    J_a (J_a - J_b)^dagger + (J_a - J_b) J_b^dagger, so by Hoelder's
    inequality for Schatten norms (Watrous, The Theory of Quantum
    Information, 2018, section 1.1) 0.5 * ||J_a J_a^dagger -
    J_b J_b^dagger||_1 <= ||J_a - J_b||_F.  The scatter
    J[a+k, k] = V[a, k] (:func:`scatter_factor`) puts each entry of V in
    its own place of J, so ||J_a - J_b||_F = ||V_a - V_b||_F: one
    D_in x r subtraction, and no J is formed.

    The bound is never below the exact distance, so a check on it cannot
    pass falsely.  It is small only when both tables are in the same
    gauge: a density fixes its factor only up to a unitary on the
    columns, so a table multiplied by a phase e^(i theta) gives the same
    density and the bound |e^(i theta) - 1|, and a check on it fails
    loudly.  (Permuting a table's columns moves its entries to other
    rows of J, so that changes the density and both distances.)
    """
    if a.kept is None or (a.basis, a.kept) != (b.basis, b.kept):
        raise ValueError("the bound compares two amplitude tables on the same split")
    return float(np.linalg.norm(a.factor - b.factor))


@lru_cache(maxsize=None)
def sweep_budget(d: int, total: int, kept: int) -> tuple[int, int, int]:
    """What sweeping a table scattered on (total, kept) holds, in 16-byte entries.

    Returns (held, transient, per_column) for D_t = sym_dim(d, t),
    D_in = D_kept and r = D_{total-kept}:

    * held, alive from the machine to the last block: the D_in x r
      table V and its split table, every ladder table, count table and
      log-factorial vector, the D_total x d first-step table, and
      numpy's ufunc buffers;
    * transient, before the first block: the largest of the D_in x r x d
      log-factorial and rank arrays that build the split table (and a
      machine's own amplitudes), the D_{total-1} x d x d arrays that
      build a ladder table, and the tuples behind a count table;
    * per_column, for each column of a block: one column of level
      total-1, plus the larger of the first step's scatter operands and
      the next level's accumulator and gather.

    The sweep's blocks are as wide as FAST_PATH_CAP leaves room for
    (:func:`sweep_width`); :func:`uqcm.machines.check_fast_path` counts
    held + max(transient, per_column * width).
    """
    d_in, r = sym_dim(d, kept), sym_dim(d, total - kept)
    upper = sym_dim(d, total - 1) if total >= 1 else 0
    lower = sym_dim(d, total - 2) if total >= 2 else 0
    split = d_in * r  # idx and coeff, 8 bytes each
    # idx and coeff of each (t, t-1) split table, sym_dim(d+1, T) being
    # sum_{t<=T} D_t, and one step's coefficients times the weights.
    ladder = d * (sym_dim(d + 1, total - 1) if total >= 1 else 0) + d * upper
    counts = d * sym_dim(d + 1, total) // 2
    down = 3 * d * sym_dim(d, total) // 2
    # log(t!) vectors cached for every t below total + d, 8 bytes an entry.
    factorials = (total + d) * (total + d + 1) // 4
    # Array headers and cache entries of the per-level tables, about 1 kB
    # a level; the step's index copies, below one column; numpy's ufunc
    # buffers, and a level too small to halve.
    overhead = 64 * (total + 1) + upper + 3 * np.getbufsize()
    held = d_in * r + split + ladder + counts + down + factorials + overhead
    transient = max(
        (d + 3) * d_in * r, (d + 2) * d * upper, (d + 4) * sym_dim(d, total)
    )
    per_column = upper + 1 + max(4 * d_in, lower + 1)
    return held, transient, per_column


def sweep_width(d: int, total: int, kept: int) -> int:
    """Columns per block of :func:`ladder_fidelities`.

    As many as FAST_PATH_CAP leaves room for after what the sweep holds
    throughout, at most all r columns of the table and at least one; a
    problem with no room for one column is over budget, and
    :func:`uqcm.machines.check_fast_path` refuses it.
    """
    held, _, per_column = sweep_budget(d, total, kept)
    room = (FAST_PATH_CAP - held) // per_column
    return max(1, min(sym_dim(d, total - kept), room))


def ladder_fidelities(rho: SymDensity, phi: PureState, upto: int) -> np.ndarray:
    """<phi|^(x s) rho_s |phi>^(x s) for s = 1..upto, in one sweep down rho's factor.

    On the symmetric subspace of t qudits, contracting one qudit with
    <phi| is the annihilation operator |m> -> sum_j conj(x_j)
    sqrt(m_j / t) |m - e_j>.  Starting from J_M = J, the factor of
    rho = J J^dagger, each step

        J_{t-1}[a, :] = sum_j conj(x_j) sqrt((a_j+1)/t) J_t[a+e_j, :]

    reads the (t, t-1) split table, whose columns are the single-qudit
    occupations e_j, and F_s = ||J_{M-s}||_F^2.  rho holds the amplitude
    table V that J is scattered from, so the first step never forms J:
    it is d scatters of V's D_in * r entries,

        J_{M-1}[a+k-e_j, k] += conj(x_j) sqrt((a+k)_j / M) V[a, k],

    and, columns being independent, the sweep runs over blocks of
    :func:`sweep_width` columns and sums F_s over them.  Every later step
    overwrites the rows of the level it reads, half of them at a time,
    so a block holds one level-(M-1) block, and half of the next level
    twice (an accumulator and one direction's gather).  The sweep costs
    d * sum_t D_t per column, for D_t = sym_dim(d, t).
    """
    d, total = rho.basis.d, rho.basis.total
    weights = phi.amplitudes.conj()
    columns = rho.factor.shape[1]
    # Every table is built before the first block, so no block is alive
    # while one is being built.
    ladder = [split_table(d, t, t - 1) for t in range(total - 1, total - upto, -1)]
    size = sym_dim(d, total - 1)
    width = sweep_width(d, total, rho.kept)
    rows = split_table(d, total, rho.kept)[0]
    down, down_scale = _down_table(d, total, weights)
    values = np.zeros(upto)
    for start in range(0, columns, width):
        block = rho.factor[:, start : start + width]
        # Rows in one numpy ufunc buffer: the shortest half _ladder_step writes.
        least = -(-np.getbufsize() // block.shape[1])
        level = np.zeros((size + 1, block.shape[1]), dtype=np.complex128)
        _first_step(block, rows[:, start : start + width], down, down_scale, level)
        level = level[:size]
        values[0] += np.vdot(level, level).real
        for s, (idx, coeff) in enumerate(ladder, start=1):
            level = _ladder_step(level, idx, weights * coeff, least)
            values[s] += np.vdot(level, level).real
        # Released before the next block is allocated, so only one is alive.
        del level
    return values


def _down_table(
    d: int, total: int, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where each |m> of ``total`` qudits goes when one qudit in level j is removed.

    ``down[i, j]`` is the (d, total-1) index of m_i - e_j and
    ``down_scale[i, j]`` is weights[j] times its (total, total-1) split
    coefficient sqrt(m_j / total); where m_j = 0 the index is
    sym_dim(d, total-1), one row past the end, and the scale is 0.
    """
    idx, coeff = split_table(d, total, total - 1)
    down = np.full((sym_dim(d, total), d), idx.shape[0])
    down_scale = np.zeros((sym_dim(d, total), d), dtype=np.complex128)
    slots = np.arange(d)
    down[idx, slots] = np.arange(idx.shape[0])[:, None]
    down_scale[idx, slots] = weights * coeff
    return down, down_scale


def _first_step(
    table: np.ndarray,
    rows: np.ndarray,
    down: np.ndarray,
    down_scale: np.ndarray,
    level: np.ndarray,
) -> None:
    """Add J_{M-1} for the columns of ``table`` into the zeroed ``level``, straight from V.

    ``rows[a, k]`` is the level-M row a+k that V[a, k] sits on.  In each
    direction j the targets a+k-e_j are distinct within a column, so a
    plain ``+=`` scatter adds every entry; entries with no qudit in
    level j land in ``level``'s last row, a spare that is never read.
    """
    where = np.arange(table.shape[1])
    for j in range(down.shape[1]):
        level[down[rows, j], where] += table * down_scale[rows, j]


def _ladder_step(
    level: np.ndarray, idx: np.ndarray, scale: np.ndarray, least: int
) -> np.ndarray:
    """The next level, sum_j scale[:, j] level[idx[:, j]], written over ``level``.

    Row a of the next level reads rows idx[a, j] >= a of this one (a+e_j
    is never ranked before a), so the rows are written in increasing
    order, half of them at a time, and each half is gathered in full
    before it is written.  A half is at least ``least`` rows, one numpy
    ufunc buffer, below which halving saves less than numpy's own
    buffering holds; so a level that fits in one buffer is returned as a
    new array.
    """
    size = idx.shape[0]
    half = max(-(-size // 2), least)
    if half >= size:
        return _combine(level, idx, scale)
    for start in range(0, size, half):
        part = slice(start, min(start + half, size))
        level[part] = _combine(level, idx[part], scale[part])
    return level[:size]


def _combine(source: np.ndarray, idx: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """sum_j scale[:, j] source[idx[:, j]], with one direction's gather alive at a time."""
    built = None
    for j in range(idx.shape[1]):
        gathered = source[idx[:, j]]
        gathered *= scale[:, j, None]
        if built is None:
            built = gathered
        else:
            built += gathered
        # Released before the next gather is allocated, so only one is alive.
        del gathered
    return built


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
        row = w @ rho.joint[where]
        value += np.vdot(row, row).real
    return value

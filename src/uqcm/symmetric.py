"""Occupation-number representation of the symmetric subspace.

A symmetric basis state |m> = |m_1,...,m_d> is the normalized sum of all
product strings with ``m_j`` factors in level |j> (slot j counts the
0-based computational level j, so at d=2 the vector (2,0) embeds to |00>).
The polynomial-size occupation representation is used for all production
paths; :func:`embed` and friends bridge to the exponential full tensor
space, which serves only as the verification oracle.  The bridge forms
no d^total x d^total matrix: the embedding isometry has one nonzero per
row, cached as those nonzeros alone (:func:`embed_isometry` builds the
dense matrix from them for the references), so iso @ y is a row gather
and iso^T @ x a sum over each occupation's strings.
:func:`project_symmetric` applies P = iso iso^T that way, full-space
densities cross as factors (:func:`sym_to_full_density`,
:func:`full_to_sym_density`), and :func:`sym_unitary` contracts u into
each tensor axis instead of forming u^(x total).  :func:`projector_full`
is kept as the dense reference.

Every decision about the numeric occupation basis is made here: the one
cached count table per (d, total) (:attr:`SymBasis.counts`), the one
rank formula (:meth:`SymBasis.index`, vectorised in the split table and
the embedding), the one split table of where |a>|k> sits in |a+k>
(:func:`split_table`), the one density type, a :class:`SymDensity`
that holds only an amplitude table, the one scatter of that table into
its factor (:func:`scatter_factor`), and the one sweep that reads every
F_L off a factor, one contracted qudit per step
(:func:`ladder_fidelities`).  A vector over a basis, such as
:func:`expand_power`'s, is a plain read-only array.  The references the
tests compare against, :func:`reduce_symmetric`,
:func:`full_to_sym_density` and :func:`reduced_expectation`, return
plain factors or numbers.

The sweep starts from a machine's D_in x r amplitude table V, never
from the whole factor J, and runs over blocks of columns.  It first
multiplies each block of V by the unit-modulus row phases
psi_a = prod_j (conj x_j / |x_j|)^{a_j}; that leaves every norm as it
is and makes every later coefficient the real |x_j| sqrt(m_j / t), so
the levels are swept as float64 arrays with two real columns for each
complex one.  Its first step is d flat scatter-adds of the rotated
block's D_in * w entries into level M-1; each later step is one gather
of the d parent rows of a chunk of rows and one batched real product,
written over the level it reads in increasing row order.  It costs
d * sum_t D_t per column for D_t = sym_dim(d, t), and a block holds one
level-(M-1) block plus one gathered row chunk, kept within CHUNK_BYTES
where one row allows it.  :func:`sweep_budget` counts everything a
machine and the sweep allocate, in 16-byte entries, and
:func:`sweep_width` makes the blocks as wide as FAST_PATH_CAP leaves
room for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .combinatorics import check_occupation, occupation_tuples, sym_dim
from .hilbert import (
    FAST_PATH_CAP,
    NORM_TOL,
    FullDensity,
    PureState,
    check_cap,
    check_factor,
)


# Bytes of one gathered row chunk of the sweep at most: a chunk that stays
# in a core's L2 cache between its gather and its product.  On a 2-vCPU
# Xeon VM (2 MB of L2 a core) one (10,8) -> (10,7) step over 384 columns
# took 79 ms with 0.5 MB chunks, 117 ms with 2 MB and 273 ms with 64 MB.
CHUNK_BYTES = 2**19


@dataclass(frozen=True)
class SymBasis:
    """Canonically ordered occupation basis of ``total`` qudits of dimension d.

    (d, total) fixes the basis.  ``counts`` is its one cached, read-only
    dim x d table (row i is the occupation vector at index i), and
    :meth:`index` ranks a count tuple by formula, not by lookup.
    """

    d: int
    total: int

    @property
    def dim(self) -> int:
        return sym_dim(self.d, self.total)

    @property
    def counts(self) -> np.ndarray:
        return _counts_table(self.d, self.total)

    def index(self, m: tuple[int, ...]) -> int:
        counts = check_occupation(m, self.d, self.total)
        return int(_canonical_index(np.array(counts, dtype=np.intp), self.total))


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
class SymDensity:
    """Density operator over a symmetric occupation basis, held as an amplitude table.

    rho = J J^dagger for the dim x r factor J of a pure joint state with
    its r ancilla columns still open, such as a machine's output.  J is
    nonzero only on |a+k>|k>, so ``factor`` is the sym_dim(d, kept) x r
    amplitude table V that J is scattered from, J[a+k, k] = V[a, k]
    (:func:`scatter_factor`): D_in * r entries instead of D_out * r.
    Every machine hands over its output this way with ``kept`` = n_in; at
    ``kept`` = total the table is a single column, any pure state.
    Construction checks the table in O(size): the shape, finite entries
    and ||J||_F^2 = ||V||_F^2 = 1; Hermiticity and positivity hold by
    construction.  ``joint`` scatters the whole J and ``matrix`` forms the
    dense rho, each only when read.
    """

    basis: SymBasis
    factor: np.ndarray
    kept: int

    def __post_init__(self) -> None:
        factor = np.asarray(self.factor, dtype=np.complex128)
        d, total, kept = self.basis.d, self.basis.total, self.kept
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

    @cached_property
    def joint(self) -> np.ndarray:
        """The whole dim x r factor J, scattered from the table."""
        joint = scatter_factor(self.basis.d, self.basis.total, self.kept, self.factor)
        joint.setflags(write=False)
        return joint

    @cached_property
    def matrix(self) -> np.ndarray:
        mat = self.joint @ self.joint.conj().T
        mat.setflags(write=False)
        return mat


def embed(m: tuple[int, ...]) -> np.ndarray:
    """Amplitudes of the normalized permutation-invariant state with occupation m."""
    d, total = len(m), sum(m)
    return embed_isometry(d, total)[:, SymBasis(d, total).index(m)]


def embed_isometry(d: int, total: int) -> np.ndarray:
    """d^total x sym_dim matrix whose columns are the embedded basis states."""
    check_cap(d, total)
    columns, scale, _, _ = _embed_columns(d, total)
    iso = np.zeros((d**total, scale.size))
    iso[np.arange(d**total), columns] = scale[columns]
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


def sym_to_full_state(amplitudes: np.ndarray, d: int, total: int) -> np.ndarray:
    """Full-space amplitudes iso @ amplitudes of a vector over the (d, total) basis."""
    return embed_isometry(d, total) @ amplitudes


def sym_to_full_density(rho: SymDensity) -> FullDensity:
    """The full-space density iso rho iso^T, held as the factor iso @ J."""
    d, total = rho.basis.d, rho.basis.total
    check_cap(d, total)
    return FullDensity(_expand(rho.joint, d, total), factors=total, local_dim=d)


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


def expand_power(phi: PureState, copies: int) -> np.ndarray:
    """Occupation-basis coefficients of the tensor power |phi>^(x copies).

    A read-only vector over the (d, copies) basis, whose amplitude on |n>
    is sqrt(copies!) * prod_j x_j^{n_j} / sqrt(n_j!).  It is normalized
    because |phi>^(x copies) already lives in the symmetric subspace; one
    that misses unit norm by more than NORM_TOL raises ValueError.
    """
    if copies < 1:
        raise ValueError(f"need at least one copy, got {copies}")
    counts = SymBasis(phi.dim, copies).counts
    log_fac = log_factorials(copies)
    # Powers stay out of the logarithm: a zero amplitude to the power 0 is exactly 1.
    powers = np.prod(phi.amplitudes**counts, axis=1)
    amps = powers * np.exp(0.5 * (log_fac[copies] - log_fac[counts].sum(axis=1)))
    if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
        raise ValueError("amplitudes are not normalized")
    amps.setflags(write=False)
    return amps


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
    total, d = rho.basis.total, rho.basis.d
    if not 1 <= kept <= total:
        raise ValueError(f"kept count {kept} outside 1..{total}")
    idx, coeff = split_table(d, total, kept)
    factor = (coeff[:, :, None] * rho.joint[idx]).reshape(idx.shape[0], -1)
    check_factor(factor, sym_dim(d, kept))
    return factor


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
    if (a.basis, a.kept) != (b.basis, b.kept):
        raise ValueError("the bound compares two amplitude tables on the same split")
    return float(np.linalg.norm(a.factor - b.factor))


@lru_cache(maxsize=None)
def sweep_budget(d: int, total: int, kept: int) -> tuple[int, int, int]:
    """What sweeping a table scattered on (total, kept) holds, in 16-byte entries.

    Returns (held, transient, per_column) for D_t = sym_dim(d, t),
    D_in = D_kept and r = D_{total-kept}:

    * held, alive from the machine to the last block: the D_in x r
      table V and its split table, every ladder table, count table and
      log-factorial vector, the d x D_total first-step tables and the
      D_in row phases, and numpy's ufunc buffers;
    * transient, before the first block: the largest of the D_in x r x d
      log-factorial and rank arrays that build the split table (and a
      machine's own amplitudes), the D_{total-1} x d x d arrays that
      build a ladder table, and the tuples behind a count table;
    * per_column, for each column of a block: one column of level
      total-1, plus the larger of the first step's transients (the
      phase-rotated block, one direction's flat target index and
      product, and the gather inside its ``+=``: 4 D_in) and a later
      step's gathered row chunk and its product (D_{total-2} + 1; a
      chunk is at most that many rows over d + 1, or one ufunc buffer).

    The sweep's blocks are as wide as FAST_PATH_CAP leaves room for
    (:func:`sweep_width`); :func:`uqcm.machines.check_fast_path` counts
    held + max(transient, per_column * width).
    """
    d_in, r = sym_dim(d, kept), sym_dim(d, total - kept)
    upper = sym_dim(d, total - 1) if total >= 1 else 0
    lower = sym_dim(d, total - 2) if total >= 2 else 0
    split = d_in * r  # idx and coeff, 8 bytes each
    # idx and coeff of each (t, t-1) split table, sym_dim(d+1, T) being
    # sum_{t<=T} D_t, and one step's real coefficients.
    ladder = d * (sym_dim(d + 1, total - 1) if total >= 1 else 0) + d * upper
    counts = d * sym_dim(d + 1, total) // 2
    # The first step's index and real scale tables, one entry a slot, and
    # the D_in <= D_total row phases.
    down = 3 * d * sym_dim(d, total) // 2
    # log(t!) vectors cached for every t below total + d, 8 bytes an entry.
    factorials = (total + d) * (total + d + 1) // 4
    # Array headers and cache entries of the per-level tables, about 1 kB
    # a level; the first step's column offsets, below one column; numpy's
    # ufunc buffers, and a row chunk held at its floor of one buffer.
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
    occupations e_j, and F_s = ||J_{M-s}||_F^2.

    The sweep runs in real arithmetic.  With u_j = conj(x_j) / |x_j|
    (u_j = 1 where x_j = 0) and the unit-modulus row phases
    psi_a = prod_j u_j^{a_j}, the rows K_t[a] = psi_a J_t[a] obey

        K_{t-1}[a, :] = sum_j |x_j| sqrt((a_j+1)/t) K_t[a+e_j, :],

    because psi_{a+e_j} = psi_a u_j and conj(u_j) u_j = 1, and
    ||K_t||_F = ||J_t||_F.  rho holds the amplitude table V that J is
    scattered from, J[a+k, k] = V[a, k], and psi_{a+k} = psi_a psi_k,
    where the column phase psi_k drops out of every norm; so each block
    of V's columns is multiplied once by psi_a, and every later
    coefficient is real and acts on a level's float64 view, 2w real
    columns for w complex ones.

    The first step never forms J: it is d flat scatter-adds of the
    rotated block's D_in * w entries into level M-1,

        K_{M-1}[a+k-e_j, k] += |x_j| sqrt((a+k)_j / M) psi_a V[a, k].

    Columns being independent, the sweep runs over blocks of
    :func:`sweep_width` columns and sums F_s over them.  Every later
    step is one gather of the d parent rows of a chunk of the next
    level's rows and one batched real product, written over the rows of
    the level it reads in increasing order (:func:`_ladder_step`).  A
    chunk is at most half of the next level; at most D_{M-2} + 1 rows
    over d + 1, so that its gather and product fit in the column of
    level M-2 that :func:`sweep_budget` counts; and at most CHUNK_BYTES
    of gather.  It is at least the rows whose gather fills one numpy
    ufunc buffer, so a level that small is done in one piece.  A block
    holds one level-(M-1) block and one gathered row chunk; the sweep
    costs d * sum_t D_t per column, for D_t = sym_dim(d, t).
    """
    d, total = rho.basis.d, rho.basis.total
    magnitudes = np.abs(phi.amplitudes)
    columns = rho.factor.shape[1]
    # Every table is built before the first block, so no block is alive
    # while one is being built.
    ladder = [split_table(d, t, t - 1) for t in range(total - 1, total - upto, -1)]
    size = sym_dim(d, total - 1)
    # Rows of a chunk whose gather and product fit in one column of level M-2.
    counted = max(1, ((sym_dim(d, total - 2) if total >= 2 else 0) + 1) // (d + 1))
    width = sweep_width(d, total, rho.kept)
    rows = split_table(d, total, rho.kept)[0]
    down, down_scale = _down_table(d, total, magnitudes)
    # np.angle(0) = 0: a zero amplitude has phase 1.
    phases = np.exp(-1j * (SymBasis(d, rho.kept).counts @ np.angle(phi.amplitudes)))
    values = np.zeros(upto)
    for start in range(0, columns, width):
        block = slice(start, start + width)
        level = _first_step(
            rho.factor[:, block] * phases[:, None], rows[:, block], down, down_scale, size
        )
        values[0] += np.vdot(level, level)
        # Bytes of one row's gather: d parent rows of 2w float64 entries.
        gathered = d * level.shape[1] * level.itemsize
        least = -(-np.getbufsize() * level.itemsize // gathered)
        most = min(counted, CHUNK_BYTES // gathered)
        for s, (idx, coeff) in enumerate(ladder, start=1):
            chunk = max(least, min(-(-idx.shape[0] // 2), most))
            level = _ladder_step(level, idx, magnitudes * coeff, chunk)
            values[s] += np.vdot(level, level)
        # Released before the next block is allocated, so only one is alive.
        del level
    return values


def _down_table(
    d: int, total: int, magnitudes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where each |m> of ``total`` qudits goes when one qudit in level j is removed.

    ``down[j, i]`` is the (d, total-1) index of m_i - e_j and
    ``down_scale[j, i]`` is magnitudes[j] times its (total, total-1)
    split coefficient sqrt(m_j / total), one contiguous row per
    direction j; where m_j = 0 the index is sym_dim(d, total-1), one row
    past the end, and the scale is 0.
    """
    idx, coeff = split_table(d, total, total - 1)
    down = np.full((d, sym_dim(d, total)), idx.shape[0])
    down_scale = np.zeros((d, sym_dim(d, total)))
    slots = np.arange(d)
    down[slots, idx] = np.arange(idx.shape[0])[:, None]
    down_scale[slots, idx] = magnitudes * coeff
    return down, down_scale


def _first_step(
    table: np.ndarray,
    rows: np.ndarray,
    down: np.ndarray,
    down_scale: np.ndarray,
    size: int,
) -> np.ndarray:
    """Level M-1 for the columns of the rotated ``table``, as a float64 view.

    ``rows[a, k]`` is the level-M row a+k that table[a, k] sits on.  In
    each direction j the targets a+k-e_j are distinct within a column,
    so a plain ``+=`` on the flattened level adds every entry; entries
    with no qudit in level j land in a spare last row, which is cut off.
    """
    width = table.shape[1]
    level = np.zeros((size + 1, width), dtype=np.complex128)
    flat = level.reshape(-1)
    where = np.arange(width)
    for j in range(down.shape[0]):
        target = down[j][rows] * width
        target += where
        flat[target] += table * down_scale[j][rows]
    return level.view(np.float64)[:size]


def _ladder_step(
    level: np.ndarray, idx: np.ndarray, scale: np.ndarray, chunk: int
) -> np.ndarray:
    """The next level, sum_j scale[:, j] level[idx[:, j]], written over ``level``.

    Row a of the next level reads rows idx[a, j] >= a of this one (a+e_j
    is never ranked before a), so the rows are written ``chunk`` at a
    time in increasing order, and each chunk is gathered in full, d
    parent rows a row, before one batched (1 x d) @ (d x 2w) product
    writes it.
    """
    size = idx.shape[0]
    for start in range(0, size, chunk):
        part = slice(start, min(start + chunk, size))
        np.matmul(scale[part, None, :], level[idx[part]], out=level[part, None, :])
    return level[:size]


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
    idx, coeff = split_table(rho.basis.d, rho.basis.total, copies)
    weights = psi.conj()[:, None] * coeff
    value = 0.0
    for w, where in zip(weights.T, idx.T):
        row = w @ rho.joint[where]
        value += np.vdot(row, row).real
    return value

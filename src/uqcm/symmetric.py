"""Occupation-number representation of the symmetric subspace.

A symmetric basis state |m> = |m_1,...,m_d> is the normalized sum of all
product strings with ``m_j`` factors in level |j> (slot j counts the
0-based computational level j, so at d=2 the vector (2,0) embeds to |00>).
The polynomial-size occupation representation is used for all production
paths; the exponential full tensor space serves only as the verification
oracle.  The bridge forms no d^total x d^total matrix: the embedding
isometry has one nonzero per row, cached as those nonzeros alone
(``_embed_columns``), so iso @ y is a row gather and iso^T @ x a sum
over each occupation's strings.  :func:`project_symmetric` applies
P = iso iso^T that way, a density crosses to the full space as a factor
(:func:`sym_to_full_density`), and :func:`sym_unitary` contracts u into
each tensor axis instead of forming u^(x total).

Every decision about the numeric occupation basis is made here.  A basis
is the pair of ints (d, total); nothing wraps it.  There is one fill
loop for a count table (np.repeat passes), cached by
:func:`occupation_counts` only for a basis read on every call, the input
basis, and one cached vector of sum_j log(m_j!) per (d, total)
(:func:`log_factorial_sums`),
one rank formula (``_canonical_index``, vectorised in the split index
and the embedding), one split index of where |a>|k> sits in |a+k>
(:func:`split_index`, which the machines' weights gather through), one
density type, a :class:`SymDensity`
that holds (d, total, kept) and an amplitude table and scatters it into
its factor when ``joint`` is read, and one sweep that reads every F_L
off a factor, one contracted qudit per step (:func:`ladder_fidelities`),
from one ladder table per (d, total) (``_ladder_table``).  A vector
over a basis, such as :func:`expand_power`'s, is a plain read-only array.

The sweep starts from a machine's D_in x r amplitude table V, never
from the whole factor J, and runs over blocks of columns.  It first
multiplies each block of V by unit-modulus row phases, which leave
every norm as it is and make every later coefficient real; it sweeps
the real part of the rotated table, and the imaginary part only when
that could change a digit (:func:`ladder_fidelities` gives the
argument).  The first step is d flat scatter-adds of the block's
D_in * w entries into level M-1; each later step is one gather of the
d parent rows of a chunk of rows and one batched real product, written
after the level it reads while the block has room, so that small levels
lie side by side and are summed a group at a time, and from the
block's first row otherwise.  Every level is a prefix of level M-1, so
all steps read one ladder table, which holds every level's coefficients
in one array, level M's first, each by the row it reaches.  It costs
d * sum_t D_t per column and part for D_t = sym_dim(d, t), and a block
holds level M-1, room for small levels below HEAP_BYTES, and one
gathered row chunk, kept within CHUNK_BYTES where one row allows it.
:func:`sweep_budget` counts everything a machine and the sweep
allocate, in 16-byte entries, and :func:`sweep_width` makes the blocks
as wide as FAST_PATH_CAP leaves room for.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .combinatorics import sym_dim
from .hilbert import (
    FAST_PATH_CAP,
    NORM_TOL,
    FullDensity,
    PureState,
    check_cap,
    check_factor,
    sum_squares,
)


# Bytes of one gathered row chunk of the sweep at most: a chunk that stays
# in a core's L2 cache between its gather and its product.  On a 2-vCPU
# Xeon VM (2 MB of L2 a core) one (10,8) -> (10,7) step over 384 columns
# took 79 ms with 0.5 MB chunks, 117 ms with 2 MB and 273 ms with 64 MB.
CHUNK_BYTES = 2**19
# Bytes of a sweep block below which it may grow past its level to hold
# the smaller levels: glibc serves an allocation under its 128 KiB mmap
# threshold from the heap.  A larger block is mapped fresh, and freeing
# it raises the threshold for the rest of the process: in the benchmark's
# many-copies loop, a 400 kB array allocated and freed once at start-up
# made the identity-check op about 5% slower (median of 3 runs).
HEAP_BYTES = 2**17 - 2**12


@lru_cache(maxsize=None)
def occupation_counts(d: int, total: int) -> np.ndarray:
    """The (d, total) basis as a cached, read-only dim x d table.

    Row i is the occupation vector at index i (:func:`_occupation_columns`),
    and ``_canonical_index`` ranks a vector by formula, not by lookup.
    Read for the input basis, which every call reads again; the one-time
    builds of the split index and the ladder table use :func:`_fill_counts`.
    """
    counts = _fill_counts(d, total)
    counts.setflags(write=False)
    return counts


def _fill_counts(d: int, total: int) -> np.ndarray:
    """A fresh, uncached (d, total) count table, filled one column a slot."""
    counts = np.empty((sym_dim(d, total), d), dtype=np.intp)
    for j, column in enumerate(_occupation_columns(d, total)):
        counts[:, j] = column
    return counts


def _occupation_columns(d: int, total: int) -> Iterator[np.ndarray]:
    """The (d, total) count table's columns in slot order, one np.repeat pass each.

    Rows that agree in slots 0..j-1 form one block, and within it slot j
    runs from what those slots left down to 0, which is the canonical
    order.  Each slot's column is its values, one per block of the next
    slot, repeated over the rows of that block: a block that leaves t
    for slots j+1..d-1 has sym_dim(d-j-1, t) rows.
    """
    left = np.array([total])
    for j in range(d - 1):
        # Block i splits into left[i] + 1 blocks, which leave 0..left[i].
        starts = np.cumsum(left + 1) - (left + 1)
        rest = np.arange(starts[-1] + left[-1] + 1) - np.repeat(starts, left + 1)
        rows = np.array([math.comb(t + d - j - 2, t) for t in range(total + 1)])[rest]
        yield np.repeat(np.repeat(left, left + 1) - rest, rows)
        left = rest
    yield left


@lru_cache(maxsize=None)
def log_factorial_sums(d: int, total: int) -> np.ndarray:
    """sum_j log(m_j!) for every row m of :func:`occupation_counts`, read-only.

    Summed slot by slot in slot order as the columns are built, holding no
    count table; gathered through :func:`split_index` it is sum_j log((a_j+k_j)!).
    """
    log_fac = np.array([math.lgamma(t + 1) for t in range(total + 1)])
    sums = np.zeros(sym_dim(d, total))
    for column in _occupation_columns(d, total):
        sums += log_fac[column]
    sums.setflags(write=False)
    return sums


@lru_cache(maxsize=None)
def split_index(d: int, total: int, kept: int) -> np.ndarray:
    """Where |a>|k> sits in the two-group split of |a+k>, read-only.

    Rows run over the (d, kept) basis a, columns over the
    (d, total - kept) basis k, and ``idx[a, k]`` is the (d, total) basis
    index of a+k, ranked one slot at a time (:func:`_canonical_index`).
    Read by :attr:`SymDensity.joint`, the sweep's first step and each
    machine's own weight table (:mod:`uqcm.machines`).  The ancilla
    basis's count table is built for this alone and released after it.
    """
    a = occupation_counts(d, kept)
    k = _fill_counts(d, total - kept)
    idx = _canonical_index(total, a[:, None, :], k[None, :, :])
    idx.setflags(write=False)
    return idx


def _canonical_index(total: int, *parts: np.ndarray) -> np.ndarray:
    """Position in its basis of each occupation vector sum(parts) (last axis, sum total).

    In lexicographically decreasing order the vectors ahead of m are those
    that agree with m up to some slot j and hold more in slot j; with
    s_j = m_{j+1} + ... + m_{d-1} there are C(s_j + d-j-2, d-j-1) of them.
    The parts broadcast against each other, and the suffix sums of their
    sum are the sums of theirs, so they are added one slot at a time and
    no broadcast array with the slot axis is formed.
    """
    d = parts[0].shape[-1]
    suffixes = [np.cumsum(p[..., ::-1], axis=-1)[..., ::-1] for p in parts]
    shape = np.broadcast_shapes(*(p.shape[:-1] for p in parts))
    index = np.zeros(shape, dtype=np.intp)
    for j in range(d - 1):
        choose = np.array([math.comb(s + d - j - 2, d - j - 1) for s in range(total + 1)])
        index += choose[sum(suffix[..., j + 1] for suffix in suffixes)]
    return index


@dataclass(frozen=True)
class SymDensity:
    """Density operator over the (d, total) occupation basis, held as an amplitude table.

    rho = J J^dagger for the sym_dim(d, total) x r factor J of a pure
    joint state with its r ancilla columns still open, such as a
    machine's output.  J is nonzero only on |a+k>|k>, so ``factor`` is
    the sym_dim(d, kept) x r amplitude table V that J is scattered from,
    J[a+k, k] = V[a, k] at the rows of :func:`split_index`: D_in * r
    entries instead of D_out * r.  Every machine hands over its output
    this way with ``kept`` = n_in; at ``kept`` = total the table is a
    single column, any pure state.  Construction checks the table in
    O(size): the shape, finite entries and ||J||_F^2 = ||V||_F^2 = 1;
    Hermiticity and positivity hold by construction.  ``joint`` scatters
    the whole J only when read; nothing forms the dense rho.
    """

    d: int
    total: int
    factor: np.ndarray
    kept: int

    def __post_init__(self) -> None:
        factor = np.asarray(self.factor, dtype=np.complex128)
        d, total, kept = self.d, self.total, self.kept
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
        """The whole D_out x r factor J: J[a+k, k] = V[a, k], zeros elsewhere."""
        idx = split_index(self.d, self.total, self.kept)
        joint = np.zeros((sym_dim(self.d, self.total), idx.shape[1]), dtype=complex)
        joint[idx, np.arange(idx.shape[1])] = self.factor
        joint.setflags(write=False)
        return joint


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
    columns = _canonical_index(total, counts)
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


def project_symmetric(x: np.ndarray, d: int, total: int) -> np.ndarray:
    """P @ x for the symmetric projector P = iso iso^T on ``total`` qudits.

    Applied as iso @ (iso^T @ x), a sum over each occupation's strings
    and a gather back, O(d^total) per column of x; P itself, a
    d^total x d^total matrix, is never formed.
    """
    check_cap(d, total)
    return _expand(_compress(x, d, total), d, total)


def sym_to_full_density(rho: SymDensity) -> FullDensity:
    """The full-space density iso rho iso^T, held as the factor iso @ J."""
    d, total = rho.d, rho.total
    check_cap(d, total)
    return FullDensity(_expand(rho.joint, d, total), factors=total, local_dim=d)


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
    counts = occupation_counts(phi.dim, copies)
    # Powers stay out of the logarithm: a zero amplitude to the power 0 is exactly 1.
    powers = np.prod(phi.amplitudes**counts, axis=1)
    amps = powers * np.exp(0.5 * (math.lgamma(copies + 1) - log_factorial_sums(phi.dim, copies)))
    if not abs(np.linalg.norm(amps) - 1.0) <= NORM_TOL:
        raise ValueError("amplitudes are not normalized")
    amps.setflags(write=False)
    return amps


def trace_distance_bound(a: SymDensity, b: SymDensity) -> float:
    """||V_a - V_b||_F, an upper bound on the trace distance of two table-held densities.

    For unit-norm factors, J_a J_a^dagger - J_b J_b^dagger =
    J_a (J_a - J_b)^dagger + (J_a - J_b) J_b^dagger, so by Hoelder's
    inequality for Schatten norms (Watrous, The Theory of Quantum
    Information, 2018, section 1.1) 0.5 * ||J_a J_a^dagger -
    J_b J_b^dagger||_1 <= ||J_a - J_b||_F.  The scatter J[a+k, k] =
    V[a, k] (:attr:`SymDensity.joint`) puts each entry of V in its own
    place of J, so ||J_a - J_b||_F = ||V_a - V_b||_F: one D_in x r
    subtraction, summed by :func:`~uqcm.hilbert.sum_squares`, and no J is formed.

    The bound is never below the exact distance, so a check on it cannot
    pass falsely.  It is small only when both tables are in the same
    gauge: a density fixes its factor only up to a unitary on the
    columns, so a table multiplied by a phase e^(i theta) gives the same
    density and the bound |e^(i theta) - 1|, and a check on it fails
    loudly.  (Permuting a table's columns moves its entries to other
    rows of J, so that changes the density and both distances.)
    """
    if (a.d, a.total, a.kept) != (b.d, b.total, b.kept):
        raise ValueError("the bound compares two amplitude tables on the same split")
    return math.sqrt(sum_squares(a.factor - b.factor))


@lru_cache(maxsize=None)
def sweep_budget(d: int, total: int, kept: int) -> tuple[int, int, int]:
    """What sweeping a table scattered on (total, kept) holds, in 16-byte entries.

    Returns (held, transient, per_column) for D_t = sym_dim(d, t),
    D_in = D_kept and r = D_{total-kept}:

    * held, alive from the machine to the last block: the D_in x r
      table V, the input-independent tables cached for the problem (its
      split index, the three machines' weight tables, the input basis's
      count table, the log-factorial sums of both bases and the sums of
      level total), the ladder table, every level's coefficients (level
      total's first, D_{total-1} + 1 rows of d with the spare), one
      step's real coefficients and the D_in row phases, the d x D_total
      first-step index rows, level total's coefficients scaled by
      |x_j|, one later step's gathered row chunk at its CHUNK_BYTES cap,
      and numpy's ufunc buffers;
    * transient, before the first block: the largest of what builds one
      cached table.  A split index or ladder table on rows x cols is
      ranked one slot at a time: one slot's index and term beside the
      sum (rows x cols), and the suffix sums of both bases ((rows +
      cols) d / 2); D_in x r for the split index (the weights are
      gathered through it) and D_{total-1} x d for the ladder table.
      Each also holds the count table that only it reads, the ancilla
      basis's or level total-1's, d / 2 entries a row.  A count table or
      log-factorial sum takes at most 3 entries a row;
    * per_column, for each column of a block: one column of level
      total-1, plus the first step's transients (the phase-rotated
      complex block, its real or imaginary part, one direction's flat
      target index and scaled entries, and the gather inside its ``+=``:
      3 D_in, counted as 4 D_in).  A later step's chunk is past
      CHUNK_BYTES only when one row's gather is, and then it is that
      one row, d / 2 entries a column: so max(4 D_in, d).

    per_column counts a level column as 16-byte entries, while the
    sweep's level holds one float64 part, 8 bytes a row.  A block of
    level total-1 under HEAP_BYTES spends that second half, with the
    CHUNK_BYTES, on rows for the small levels, their scaled
    coefficients and their row sums (:func:`_block_rows`), so it adds
    nothing to these counts.  The sweep's
    blocks are as wide as FAST_PATH_CAP leaves room for
    (:func:`sweep_width`); :func:`uqcm.machines.check_fast_path` counts
    held + max(transient, per_column * width).
    """
    d_in, r = sym_dim(d, kept), sym_dim(d, total - kept)
    upper = sym_dim(d, total - 1) if total >= 1 else 0
    # The split index and the three weight tables, 8 bytes each; the
    # input basis's count table, 8 bytes a slot, and log-factorial sums,
    # 8 bytes a row.
    tables = 2 * d_in * r + (d * d_in + d_in + r + sym_dim(d, total)) // 2
    # The ladder table and one step's real coefficients, 8 bytes over at
    # most D_{total-1} x d each; the coefficients of every level below
    # total, 8 bytes over D_{t-1} x d for t < total, sym_dim(d+1, T)
    # being sum_{t<=T} D_t; and the D_in row phases.
    below = sym_dim(d + 1, total - 2) if total >= 2 else 0
    ladder = d * (2 * upper + below) // 2 + d_in
    # The first step's index rows, half an entry a slot of level total;
    # level total's coefficients, at the head of the ladder table's with
    # their spare row, and their |x_j|-scaled copy, half an entry each.
    down = d * sym_dim(d, total) // 2 + d * (upper + 1)
    # Array headers and cache entries of the per-level steps, about 1 kB
    # a level; the first step's column offsets, below one column; numpy's
    # ufunc buffers, and a row chunk's gather, at most CHUNK_BYTES and one
    # buffer more.
    overhead = 64 * (total + 1) + upper + 3 * np.getbufsize() + CHUNK_BYTES // 16
    held = d_in * r + tables + ladder + down + overhead

    def build(rows: int, cols: int) -> int:
        return rows * cols + (rows + cols) * d // 2

    # Each build also holds the count table that only it reads: the
    # ancilla basis's for the split index, level total-1's for the ladder.
    split, steps = build(d_in, r) + d * r // 2, build(upper, d) + d * upper // 2
    transient = max(split, steps, 3 * sym_dim(d, total))
    per_column = upper + 1 + max(4 * d_in, d)
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

    reads where a+e_j sits off the first D_{t-1} rows of one ladder
    table (``_ladder_table``), and F_s = ||J_{M-s}||_F^2.  Small levels
    are kept side by side, so their norms are summed a group at a time
    (:func:`_sweep`).

    The sweep runs in real arithmetic.  With u_j = conj(x_j) / |x_j|
    (u_j = 1 where x_j = 0) and the unit-modulus row phases
    psi_a = prod_j u_j^{a_j}, the rows K_t[a] = psi_a J_t[a] obey

        K_{t-1}[a, :] = sum_j |x_j| sqrt((a_j+1)/t) K_t[a+e_j, :],

    because psi_{a+e_j} = psi_a u_j and conj(u_j) u_j = 1, and
    ||K_t||_F = ||J_t||_F.  rho holds the amplitude table V that J is
    scattered from, J[a+k, k] = V[a, k], and psi_{a+k} = psi_a psi_k,
    where the column phase psi_k drops out of every norm; so the sweep
    starts from the rotated table psi_a V[a, k], and every coefficient
    is real.

    A real-coefficient sweep is real-linear, so F_s = F_s(Re) + F_s(Im)
    for the real and imaginary parts of the rotated table, each swept on
    its own as a float64 table (:func:`_sweep`).  It is also a
    contraction, <phi|^(x s) (x) I having norm at most 1 on the
    symmetric subspace, so F_s(Im) <= ||Im||_F^2.  The imaginary part is
    therefore swept only when ||Im||_F^2 > spacing(min_s F_s(Re)) / 4;
    below that, adding F_s(Im) rounds back to F_s(Re) for every s, and
    skipping it gives the same bits.  A machine's table is x^a times a
    real weight, so after the rotation its imaginary part is rounding
    noise and it takes one part; a table no machine made takes two.
    """
    values, imag = _sweep(rho, phi, upto, np.real)
    if imag <= np.spacing(values.min()) / 4:
        return values
    return values + _sweep(rho, phi, upto, np.imag)[0]


def _sweep(
    rho: SymDensity,
    phi: PureState,
    upto: int,
    part: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, float]:
    """F_1..F_upto of one part of the rotated table, and ||Im||_F^2 of the table.

    ``part`` is np.real or np.imag, taken of each phase-rotated block of
    V's columns; the level is that part alone, a float64 array with one
    column for each of V's.  The first step never forms J: it is d flat
    scatter-adds of the block's D_in * w entries into level M-1,

        K_{M-1}[a+k-e_j, k] += |x_j| sqrt((a+k)_j / M) part(psi_a V[a, k]).

    Columns being independent, the sweep runs over blocks of
    :func:`sweep_width` columns and sums F_s over them.  A block holds
    level M-1 and, under HEAP_BYTES, room for smaller levels
    (:func:`_block_rows`), which :func:`_sweep_block` fills.  Every later
    step is one gather of the d parent rows of a chunk of rows, read off
    the ladder table (:func:`_ladder_table`), and one batched real
    product (:func:`_ladder_step`).  A chunk is at most CHUNK_BYTES of
    gather, which :func:`sweep_budget` counts as held, and at most
    D_{M-2} + 1 rows over d + 1: whole-level gathers made the (2,1,40)
    werner, (2,8,48) fan and (5,2,8) fan sweeps 1.17-1.19x slower on a
    2-vCPU Xeon VM.  A chunk is at least the rows whose gather fills one
    numpy ufunc buffer.  The sweep costs d * sum_t D_t per column, for
    D_t = sym_dim(d, t).
    """
    d, total = rho.d, rho.total
    magnitudes = np.abs(phi.amplitudes)
    columns = rho.factor.shape[1]
    # Every table is built before the first block, so no block is alive
    # while one is being built.
    up, coeffs, offsets, down = _ladder_table(d, total)
    # Rows of a chunk whose gather is no larger than a level-(M-2) block.
    smaller = max(1, ((sym_dim(d, total - 2) if total >= 2 else 0) + 1) // (d + 1))
    width = sweep_width(d, total, rho.kept)
    rows = split_index(d, total, rho.kept)
    # Level M's scaled coefficients a direction a row, each gathered by target row.
    first_scale = np.ascontiguousarray((magnitudes * coeffs[: offsets[0]]).T)
    # np.angle(0) = 0: a zero amplitude has phase 1.
    phases = np.exp(-1j * (occupation_counts(d, rho.kept) @ np.angle(phi.amplitudes)))
    values = np.zeros(upto)
    imag = 0.0
    for start in range(0, columns, width):
        block = slice(start, start + width)
        rotated = rho.factor[:, block] * phases[:, None]
        imag += sum_squares(rotated.imag)
        # Bytes of one row's gather: d parent rows of w float64 entries.
        gathered = d * rotated.shape[1] * 8
        least = -(-np.getbufsize() * 8 // gathered)
        chunk = max(least, min(smaller, CHUNK_BYTES // gathered))
        height = _block_rows(rotated.shape[1], d, len(up), chunk)
        buffer = _first_step(
            np.ascontiguousarray(part(rotated)), rows[:, block], down, first_scale, height
        )
        del rotated
        values += _sweep_block(buffer, up, coeffs, offsets[:upto], magnitudes, chunk)
        # Released before the next block is allocated, so only one is alive.
        del buffer
    return values, imag


def _block_rows(width: int, d: int, upper: int, chunk: int) -> int:
    """Rows of a sweep block of ``width`` columns: level M-1, its spare row, and room.

    A block grows past level M-1 while it stays under HEAP_BYTES, by
    what :func:`sweep_budget` counts for it and leaves idle: the
    level's 16 bytes a row, where it holds 8, and the CHUNK_BYTES of a
    gathered chunk.  In 8-byte entries, that pays for each row of the
    block, d scaled coefficients and one row sum for it
    (:func:`_sweep_block`), beside a gathered chunk of ``chunk`` rows, d
    entries a column each.
    """
    level = upper + 1
    room = 2 * width * level + CHUNK_BYTES // 8 - d * width * chunk
    return max(level, min(room // (width + d + 1), HEAP_BYTES // (8 * width)))


def _sweep_block(
    buffer: np.ndarray,
    up: np.ndarray,
    coeffs: np.ndarray,
    offsets: tuple[int, ...],
    magnitudes: np.ndarray,
    chunk: int,
) -> np.ndarray:
    """F_1..F_{len(offsets)} of one block, level M-1 in its first D_{M-1} rows.

    Step i of ``_ladder_table``'s order reads ``up`` and the coefficient
    rows ``offsets[i]:offsets[i+1]``; ``offsets`` is cut after the
    sweep's last step.

    Each step writes its level into the block's rows after the level it
    reads while they hold it.  Where it does not fit, the levels written
    so far, all from row 0, are summed, and it goes to row 0: over the
    level it reads (:func:`_ladder_step`) if that starts there, else
    before it, since a level that starts further on was written after a
    larger one.  Levels written one after another read consecutive rows
    of the one coefficient array (``_ladder_table``), so a run of them,
    in place or not at its start, takes its |x_j| scaling in one product
    of as many rows as the block has from the run's first row.  Every
    F_s is a BLAS-free sum a row and a sum over the level's rows, so its
    bits do not depend on where the level sits.
    """
    height = buffer.shape[0]
    values = np.empty(len(offsets))
    start, end = 0, len(up)
    # The levels not yet summed: F index ``first`` on, each from a row of ``starts``.
    first, starts = 0, [0]
    # The coefficient rows from ``base`` to ``scaled_end``, scaled by |x_j|.
    base = scaled_end = 0
    for i, (low, high) in enumerate(itertools.pairwise(offsets)):
        size = high - low
        at = end if end + size <= height else 0
        if not at:
            values[first : i + 1] = _level_sums(buffer[:end], starts)
            first, starts = i + 1, []
        starts.append(at)
        if high > scaled_end:
            base, scaled_end = low, min(offsets[-1], low + height - at)
            scaled = magnitudes * coeffs[base:scaled_end]
        scale = scaled[low - base : high - base]
        _ladder_step(buffer[start:end], up[:size], scale, chunk, buffer[at : at + size])
        start, end = at, at + size
    values[first:] = _level_sums(buffer[:end], starts)
    return values


def _level_sums(levels: np.ndarray, starts: list[int]) -> np.ndarray:
    """||level||_F^2 of each level of consecutive rows, the level starting at each of ``starts``."""
    return np.add.reduceat(np.einsum("ij,ij->i", levels, levels), starts)


@lru_cache(maxsize=None)
def _ladder_table(
    d: int, total: int
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...], np.ndarray]:
    """Every step's tables for a sweep down from ``total`` qudits, read-only.

    In the canonical order m -> m + e_0 maps the (d, t-1) basis onto the
    first D_{t-1} rows of the (d, t) basis, in order: every level below
    ``total`` is a prefix of level total-1, slot 0 lowered by the
    difference.  ``up[i, j]`` is the (d, total) index of row i of level
    total-1 plus e_j.  Step t reads sqrt((a_j+1)/t) over the rows a of
    level t-1, all steps in one array, ``coeffs``, from step total down.
    Step total's rows come first, with a spare row of 0 after them, and
    end at ``offsets[0]``; step t < total, the (total-1-t)-th later
    step, reads ``up[:D_{t-1}]`` and the coefficient rows from
    ``offsets[total-1-t]``, so the steps from any level down read one
    slice.  ``down`` inverts ``up`` for the first step, one row per
    direction j: ``down[j, i]`` is the (d, total-1) index of m_i - e_j,
    or D_{total-1}, the spare row, where m_j = 0.  The level total-1
    count table is built for this alone and released.
    """
    counts = _fill_counts(d, total - 1)
    up = _canonical_index(total, counts[:, None, :], np.eye(d, dtype=np.intp))
    sizes = [sym_dim(d, t - 1) for t in range(total, 0, -1)]
    offsets = tuple(itertools.accumulate(sizes[1:], initial=sizes[0] + 1))
    # Each level is written in place into its rows: freed temporaries left
    # glibc's heap holding 255 MB of peak RSS at (3,300,301) unified,
    # against 152 MB.
    coeffs = np.empty((offsets[-1], d))
    coeffs[sizes[0]] = 0.0
    for t, start, size in zip(range(total, 0, -1), (0, *offsets), sizes):
        raised = coeffs[start : start + size]
        np.add(counts[:size], 1.0, out=raised)
        raised[:, 0] -= total - t
        raised /= t
        np.sqrt(raised, out=raised)
    down = np.full((d, sym_dim(d, total)), counts.shape[0])
    down[np.arange(d), up] = np.arange(counts.shape[0])[:, None]
    for table in (up, coeffs, down):
        table.setflags(write=False)
    return up, coeffs, offsets, down


def _first_step(
    table: np.ndarray,
    rows: np.ndarray,
    down: np.ndarray,
    scale: np.ndarray,
    height: int,
) -> np.ndarray:
    """A block of ``height`` rows, level M-1 of one part of a rotated block first.

    ``table`` is the real or the imaginary part of the phase-rotated
    block (:func:`ladder_fidelities` says when the imaginary part is
    swept).  ``rows[a, k]`` is the level-M row a+k that table[a, k] sits on.  In
    each direction j the targets a+k-e_j are distinct within a column,
    so a plain ``+=`` on the flattened level adds every entry; entries
    with no qudit in level j land in the spare row after level M-1.
    Each entry's scale is gathered from ``scale[j]``, step M's
    |x_j|-scaled coefficients in direction j, by its target row, whose
    spare column is 0.  Only level M-1 and the spare row are zeroed; the
    rows after them are for later levels (:func:`_sweep_block`).
    """
    width = table.shape[1]
    size = scale.shape[1] - 1
    level = np.empty((height, width))
    level[: size + 1] = 0.0
    flat = level.reshape(-1)
    where = np.arange(width)
    for j in range(down.shape[0]):
        target = down[j][rows]
        scaled = scale[j][target]
        scaled *= table
        target *= width
        target += where
        flat[target] += scaled
    return level


def _ladder_step(
    level: np.ndarray, idx: np.ndarray, scale: np.ndarray, chunk: int, out: np.ndarray
) -> None:
    """The next level, sum_j scale[:, j] level[idx[:, j]], written into ``out``.

    ``level`` is one part of the rotated table swept so far, real or
    imaginary (see :func:`ladder_fidelities`), one float64 column per
    column of V, and ``scale`` is real.  Rows are written ``chunk`` at a
    time in increasing order, and each chunk is gathered in full, d
    parent rows a row, before one batched (1 x d) @ (d x w) product
    writes it.  So ``out`` may be ``level`` itself: row a of the next
    level reads rows idx[a, j] >= a of this one (a+e_j is never ranked
    before a), none of them overwritten yet.  Otherwise it is rows of the
    block apart from ``level`` (:func:`_sweep_block`).
    """
    size = idx.shape[0]
    for start in range(0, size, chunk):
        part = slice(start, min(start + chunk, size))
        np.matmul(scale[part, None, :], level.take(idx[part], axis=0), out=out[part, None, :])

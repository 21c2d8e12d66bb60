"""Dense complex linear algebra over full tensor-product spaces.

This is the brute-force substrate every fast path is verified against:
states and density operators live over the full ``d^n``-dimensional
product basis with no symmetry compression; a pure state is a plain
array of its d^n amplitudes.  Factor 0 is the leftmost (most
significant) position in the computational index, as in ``np.kron``.

All sizes are capped at :data:`ORACLE_CAP` amplitudes; requests beyond
that fail fast instead of exhausting memory.  The occupation-basis fast
paths have their own, far larger budget, :data:`FAST_PATH_CAP`.

A density operator over the full space is held as a factor, rho = F F^dagger
for a d^n x r matrix F (:class:`FullDensity`), as the occupation-basis
densities are: a pure state psi is the one-column factor
``psi[:, None]``, the one partial trace (:func:`partial_trace`) is a
reshape of the factor, and the dense rho is never formed.  Two
factor-held densities are compared by :func:`trace_distance_factors`,
which is exact and works on an (r_x + r_y)-sized matrix from one QR
factorisation, never on a d^n x d^n array.

Densities enter only as factors, so the one density check is
:func:`check_factor`, O(size): Hermiticity and positivity hold by
construction.

The seeded randomness draws its standard normals from the standard
library's Mersenne Twister, ``random.Random(seed).random()``, the stream
Python documents as reproducible across versions, through Box-Muller
(Box and Muller, Ann. Math. Stat. 29, 610 (1958)); ``numpy.random`` is
never imported, so no run pays for loading it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .combinatorics import check_d

#: Largest full-space state (in amplitudes) the oracle will build.
ORACLE_CAP = 4096

#: Budget, in 16-byte complex entries, for what an occupation-basis fast
#: path allocates (see :func:`uqcm.machines.check_fast_path`).
FAST_PATH_CAP = 2**25

#: Rounding slack on a density: on its trace, its Hermiticity and the
#: fidelities read off it.
TRACE_TOL = 1e-10
NORM_TOL = 1e-12


class OracleCapError(ValueError):
    """Raised when a full-tensor computation would exceed ORACLE_CAP."""


class FastPathCapError(ValueError):
    """Raised when a fast-path problem would allocate more than FAST_PATH_CAP."""


def check_cap(local_dim: int, factors: int) -> None:
    size = local_dim**factors
    if size > ORACLE_CAP:
        raise OracleCapError(
            f"{factors} factors of dimension {local_dim} need {size} amplitudes, "
            f"above the oracle cap of {ORACLE_CAP}"
        )


@dataclass(frozen=True)
class PureState:
    """Single-qudit pure state: complex amplitudes over levels |0>..|d-1>."""

    amplitudes: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128).ravel()
        check_d(amps.size)
        if not abs(np.linalg.norm(amps) - 1.0) <= NORM_TOL:
            raise ValueError("pure state amplitudes are not normalized")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dim", amps.size)

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        amps = np.asarray(amplitudes, dtype=np.complex128).ravel()
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        if not np.isfinite(norm):
            raise ValueError("cannot normalize non-finite amplitudes")
        return cls(amps / norm)

    @classmethod
    def basis(cls, d: int, level: int) -> "PureState":
        if not 0 <= level < d:
            raise ValueError(f"basis level {level} outside 0..{d - 1}")
        amps = np.zeros(d, dtype=np.complex128)
        amps[level] = 1.0
        return cls(amps)


def check_state_dim(phi: PureState, d: int, state: str, basis: str) -> None:
    """Raise ValueError unless ``phi`` is a state of one d-level qudit."""
    if phi.dim != d:
        raise ValueError(f"{state} dimension {phi.dim} does not match {basis} d={d}")


@dataclass(frozen=True)
class FullDensity:
    """Density operator F F^dagger on ``factors`` qudits, held as its factor.

    ``factor`` is a d^factors x r matrix F.  Construction checks it in
    O(size) (:func:`check_factor`): the shape, finite entries and
    ||F||_F^2 = 1; Hermiticity and positivity hold by construction.
    """

    factor: np.ndarray
    factors: int
    local_dim: int

    def __post_init__(self) -> None:
        factor = np.asarray(self.factor, dtype=np.complex128)
        check_factor(factor, self.local_dim**self.factors)
        factor.setflags(write=False)
        object.__setattr__(self, "factor", factor)


def check_factor(factor: np.ndarray, dim: int) -> None:
    """Raise ValueError unless ``factor`` is a finite dim x r J with ||J||_F^2 = 1.

    J J^dagger is then a density matrix: Hermitian and positive
    semidefinite by construction, with trace ||J||_F^2.
    """
    if factor.ndim != 2 or factor.shape[0] != dim:
        raise ValueError(f"factor shape {factor.shape} does not have {dim} rows")
    if not np.isfinite(factor).all():
        raise ValueError("factor has non-finite entries")
    trace = np.vdot(factor, factor).real
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"factor gives density trace {trace} != 1")


def sum_squares(x: np.ndarray) -> float:
    """sum |x_ij|^2 over a matrix x, added in one order at any BLAS thread count.

    A threaded BLAS adds the parts of a long np.vdot or np.linalg.norm in
    another order, which moves their last digits; np.einsum uses no BLAS.
    A complex x, whose last axis must be contiguous, is read as its
    float64 pairs.
    """
    if x.dtype.kind == "c":
        x = x.view(np.float64)
    return np.einsum("ij,ij->", x, x)


def maximally_entangled(d: int) -> np.ndarray:
    """The d^2 amplitudes of the two-qudit state with 1/sqrt(d) on every |jj>."""
    check_d(d)
    amps = np.zeros(d * d, dtype=np.complex128)
    amps[np.arange(d) * d + np.arange(d)] = 1.0 / math.sqrt(d)
    return amps


def permute_factors(amplitudes: np.ndarray, d: int, perm) -> np.ndarray:
    """Reorder a pure state's tensor factors: new factor i is old factor perm[i]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(len(perm))) or amplitudes.size != d ** len(perm):
        raise ValueError(f"{perm} does not permute {amplitudes.size} amplitudes")
    shaped = amplitudes.reshape((d,) * len(perm))
    return np.ascontiguousarray(shaped.transpose(perm)).ravel()


def partial_trace(rho: FullDensity, keep) -> FullDensity:
    """Reduced density operator on the kept factors (ascending original order).

    Tracing out factors of F F^dagger moves them, with F's r columns,
    into the columns of the reduced factor: F is reshaped to
    (kept, traced * r), and no d^n x d^n array is formed.  A pure state
    psi enters as ``FullDensity(psi[:, None], n, d)``, whose reduced
    factor is its kept x traced block of amplitudes.
    """
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= rho.factors:
        raise ValueError(f"keep indices {keep} outside 0..{rho.factors - 1}")
    traced = [i for i in range(rho.factors) if i not in keep]
    d, columns = rho.local_dim, rho.factor.shape[1]
    shaped = rho.factor.reshape((d,) * rho.factors + (columns,))
    moved = shaped.transpose(keep + traced + [rho.factors])
    return FullDensity(moved.reshape(d ** len(keep), -1), len(keep), d)


def fidelity_pure(rho: FullDensity, psi: np.ndarray) -> float:
    """<psi|rho|psi> = ||F^dagger psi||^2 for rho = F F^dagger and amplitudes psi."""
    if psi.shape != rho.factor.shape[:1]:
        raise ValueError(f"{psi.shape} amplitudes against {rho.factor.shape} factor")
    overlaps = psi.conj() @ rho.factor
    return float(np.vdot(overlaps, overlaps).real)


def checked_fidelities(values) -> tuple[float, ...]:
    """The fidelities ``values`` as floats clipped to [0, 1].

    Rounding carries a fidelity a few ulps past 0 or 1; a value within
    TRACE_TOL of the interval is clipped onto it, and one further out (or
    not finite) raises ValueError naming the first such value.  One range
    check and one np.clip over the array, which leaves a -0.0 as it is.
    """
    values = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)
    low, high = -TRACE_TOL, 1.0 + TRACE_TOL
    # A NaN fails both comparisons, and the minimum of an array holding one is NaN.
    if not (values.min(initial=0.0) >= low and values.max(initial=1.0) <= high):
        inside = (values >= low) & (values <= high)
        raise ValueError(f"fidelity {values[inside.argmin()]} outside [0, 1]")
    return tuple(np.clip(values, 0.0, 1.0).tolist())


def trace_distance_factors(x: np.ndarray, y: np.ndarray) -> float:
    """Trace distance 0.5 * ||x x^dagger - y y^dagger||_1 of two factor-held densities.

    Exact, not a bound.  With [x y] = Q R, Q an isometry and R split into
    the column blocks R_x, R_y, x x^dagger - y y^dagger equals
    Q (R_x R_x^dagger - R_y R_y^dagger) Q^dagger, and the Schatten norms are
    unitarily invariant (Watrous, The Theory of Quantum Information,
    2018, section 1.1), so the trace norm is that of the small Hermitian
    matrix R_x R_x^dagger - R_y R_y^dagger, the sum of the absolute values
    of its eigenvalues.  One QR of the D x (r_x + r_y) stack and one
    eigensolve of a matrix at most (r_x + r_y) x (r_x + r_y): O(D (r_x +
    r_y)^2), and no D x D array.  The cost grows with the columns as
    given, so a factor with repeated columns is passed through
    :func:`merge_equal_columns` first: the same density, fewer columns.
    """
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(
            f"factors {x.shape} and {y.shape} are not matrices with the same rows"
        )
    r = np.linalg.qr(np.hstack([x, y]), mode="r")
    r_x, r_y = r[:, : x.shape[1]], r[:, x.shape[1] :]
    small = r_x @ r_x.conj().T - r_y @ r_y.conj().T
    _check_hermitian(small, "difference of the factors' Gram matrices")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(small)).sum())


def merge_equal_columns(factor: np.ndarray) -> np.ndarray:
    """A complex factor with its bitwise-equal columns merged: k copies of f become sqrt(k) f.

    Exact, because F F^dagger = sum_j f_j f_j^dagger.  Columns are keyed
    on their bytes, so two that differ in any bit (a -0.0, one ulp) stay
    apart; the merged columns keep their first-seen order.  The scaling
    is applied to the float64 parts, so a column seen once keeps every
    bit (a complex product would turn a -0.0 into 0.0).  A factor with no
    two equal columns is returned as it is.
    """
    groups: dict[bytes, list[int]] = {}
    for j, column in enumerate(np.ascontiguousarray(factor.T)):
        groups.setdefault(column.tobytes(), []).append(j)
    if len(groups) == factor.shape[1]:
        return factor
    merged = factor.take([group[0] for group in groups.values()], axis=1)
    sizes = np.array([len(group) for group in groups.values()], dtype=np.float64)
    merged.view(np.float64)[...] *= np.repeat(np.sqrt(sizes), 2)
    return merged


def _check_hermitian(mat: np.ndarray, what: str) -> None:
    """Raise ValueError unless max |mat - mat^dagger| <= TRACE_TOL.

    The entries of mat - mat^dagger are (re - re^T) + i (im + im^T); their
    squared modulus is built in two real buffers, never a complex
    temporary, and compared with TRACE_TOL^2.  A non-finite entry fails
    the comparison and is rejected too.
    """
    re, im = mat.real, mat.imag
    gap = np.subtract(re, re.T)
    gap *= gap
    imag_gap = np.add(im, im.T)
    imag_gap *= imag_gap
    gap += imag_gap
    if not gap.max() <= TRACE_TOL**2:
        raise ValueError(f"{what} is not Hermitian")


def _standard_normals(count: int, seed: int) -> np.ndarray:
    """``count`` standard normals, a function of the non-negative int ``seed`` alone.

    Uniforms u from ``random.Random(seed).random()`` are taken as 1 - u in
    (0, 1], so the logarithm is finite, and paired by Box-Muller:
    sqrt(-2 ln u1) (cos 2 pi u2, sin 2 pi u2) are two independent standard
    normals.  ``Random`` seeds from |seed|, so a negative seed, which would
    repeat its positive twin, is refused, as is any seed that is not an int.
    """
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    pairs = (count + 1) // 2
    uniforms = 1.0 - np.fromiter(
        iter(random.Random(seed).random, None), dtype=np.float64, count=2 * pairs
    )
    radius = np.sqrt(-2.0 * np.log(uniforms[:pairs]))
    angle = (2.0 * math.pi) * uniforms[pairs:]
    return np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))[:count]


def random_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed d x d unitary via QR of a complex Ginibre matrix.

    The phases of R's diagonal are moved into Q, which makes the
    distribution exactly Haar (Mezzadri, Notices AMS 54, 592 (2007)).  The
    2 d^2 normals come from :func:`_standard_normals`, the standard
    library's ``random.Random(seed)`` stream; ``seed`` is a non-negative
    int.
    """
    z = _standard_normals(2 * d * d, seed).view(np.complex128).reshape(d, d)
    q, r = np.linalg.qr(z / math.sqrt(2))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_pure_state(d: int, seed: int) -> PureState:
    """Haar-random qudit state: a complex Gaussian vector, normalized.

    The Gaussian is invariant under every unitary, so its direction is
    uniform on the sphere; no d x d unitary is drawn.  The 2 d normals come
    from :func:`_standard_normals`, the standard library's
    ``random.Random(seed)`` stream; ``seed`` is a non-negative int.
    """
    z = _standard_normals(2 * d, seed).view(np.complex128)
    return PureState(z / np.linalg.norm(z))

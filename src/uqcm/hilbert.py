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
reshape of the factor, and the dense rho is formed only when read.  Two
factor-held densities are compared by :func:`trace_distance_factors`,
which is exact and works on an (r_x + r_y)-sized matrix from one QR
factorisation, never on a d^n x d^n array.

Densities enter only as factors, so the one density check is
:func:`check_factor`, O(size): Hermiticity and positivity hold by
construction.  :func:`trace_distance_matrices`, the dense reference for
:func:`trace_distance_factors`, sums the absolute eigenvalues of the
Hermitian difference from the Hermitian eigensolver instead of its
singular values: O(D^3) for a D x D matrix, with a constant well below
that of the singular value problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

#: Largest full-space state (in amplitudes) the oracle will build.
ORACLE_CAP = 4096

#: Budget, in 16-byte complex entries, for what an occupation-basis fast
#: path allocates (see :func:`uqcm.machines.check_fast_path`).
FAST_PATH_CAP = 2**25

HERMITICITY_TOL = 1e-10
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
        if amps.size < 2:
            raise ValueError("qudit dimension must be >= 2")
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
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
        return cls(amps / norm)

    @classmethod
    def basis(cls, d: int, level: int) -> "PureState":
        amps = np.zeros(d, dtype=np.complex128)
        amps[level] = 1.0
        return cls(amps)

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True)
class FullDensity:
    """Density operator F F^dagger on ``factors`` qudits, held as its factor.

    ``factor`` is a d^factors x r matrix F.  Construction checks it in
    O(size) (:func:`check_factor`): the shape, finite entries and
    ||F||_F^2 = 1; Hermiticity and positivity hold by construction.
    ``matrix`` forms the dense rho only when read.
    """

    factor: np.ndarray
    factors: int
    local_dim: int

    def __post_init__(self) -> None:
        factor = np.asarray(self.factor, dtype=np.complex128)
        check_factor(factor, self.local_dim**self.factors)
        factor.setflags(write=False)
        object.__setattr__(self, "factor", factor)

    @cached_property
    def matrix(self) -> np.ndarray:
        mat = self.factor @ self.factor.conj().T
        mat.setflags(write=False)
        return mat


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


def maximally_entangled(d: int) -> np.ndarray:
    """The d^2 amplitudes of the two-qudit state with 1/sqrt(d) on every |jj>."""
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
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
    r_y)^2), and no D x D array.
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


def trace_distance_matrices(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance 0.5 * ||a - b||_1 between two Hermitian matrices of equal shape.

    The dense reference: no production path calls it, since every
    density the package compares is held as a factor and compared by
    :func:`trace_distance_factors`; the tests hold that to this.  The
    trace norm of a Hermitian matrix is the sum of the absolute values
    of its eigenvalues (its singular values are exactly those), so the
    Hermitian eigensolver's eigenvalues of ``a - b`` give the distance
    without the singular value decomposition.  ``a - b`` must be Hermitian
    to ``HERMITICITY_TOL``: ``eigvalsh`` reads only one triangle, so a
    non-Hermitian difference would give a wrong distance silently.  Cost
    O(D^3); peak about two D x D complex buffers (the difference and
    LAPACK's copy).
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    diff = a - b
    _check_hermitian(diff, "difference of the operands")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def _check_hermitian(mat: np.ndarray, what: str) -> None:
    """Raise ValueError unless max |mat - mat^dagger| <= HERMITICITY_TOL.

    The entries of mat - mat^dagger are (re - re^T) + i (im + im^T); their
    squared modulus is built in two real buffers, never a complex
    temporary, and compared with HERMITICITY_TOL^2.  A non-finite entry
    fails the comparison and is rejected too.
    """
    re, im = mat.real, mat.imag
    gap = np.subtract(re, re.T)
    gap *= gap
    imag_gap = np.add(im, im.T)
    imag_gap *= imag_gap
    gap += imag_gap
    if not gap.max() <= HERMITICITY_TOL**2:
        raise ValueError(f"{what} is not Hermitian")


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed d x d unitary via QR of a complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    # Fixing the phases of R's diagonal makes the distribution exactly Haar.
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_pure_state(d: int, seed) -> PureState:
    """Haar-random qudit state: a complex Gaussian vector, normalized.

    The Gaussian is invariant under every unitary, so its direction is
    uniform on the sphere; no d x d unitary is drawn.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(z / np.linalg.norm(z))


"""Dense complex linear algebra over full tensor-product spaces.

This is the brute-force substrate every fast path is verified against:
states and density operators live over the full ``d^n``-dimensional
product basis with no symmetry compression.  Factor 0 is the leftmost
(most significant) position in the computational index, so a composite
built by :func:`tensor` keeps the left operand's factors in front.

All sizes are capped at :data:`ORACLE_CAP` amplitudes; requests beyond
that fail fast instead of exhausting memory.  The occupation-basis fast
paths have their own, far larger budget, :data:`FAST_PATH_CAP`.

The dense checks use the cheapest LAPACK call that decides them.
:func:`check_density` decides positive semidefiniteness by a Cholesky
factorisation of the matrix shifted by ``-PSD_TOL`` on its diagonal,
which succeeds exactly when every eigenvalue is above ``PSD_TOL``.
:func:`trace_distance_matrices` sums the absolute eigenvalues of the
Hermitian difference from the Hermitian eigensolver instead of its
singular values.  Both are O(D^3) for a D x D matrix, with constants
well below those of the full eigenvalue or singular value problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Largest full-space state (in amplitudes) the oracle will build.
ORACLE_CAP = 4096

#: Largest occupation-basis factor (in complex entries) a fast path will build.
FAST_PATH_CAP = 2**25

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = -1e-10
NORM_TOL = 1e-12


class OracleCapError(ValueError):
    """Raised when a full-tensor computation would exceed ORACLE_CAP."""


class FastPathCapError(ValueError):
    """Raised when a fast-path output factor would exceed FAST_PATH_CAP."""


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
class FullState:
    """Pure state of ``factors`` qudits as a dense vector of d^factors amplitudes."""

    amplitudes: np.ndarray
    factors: int
    local_dim: int

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128).ravel()
        if amps.size != self.local_dim**self.factors:
            raise ValueError(
                f"{amps.size} amplitudes do not match "
                f"{self.local_dim}^{self.factors} factors"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "FullState":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return FullState(self.amplitudes / n, self.factors, self.local_dim)

    def overlap(self, other: "FullState") -> complex:
        """<self|other>."""
        _check_same_space(self, other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def density(self) -> "FullDensity":
        return FullDensity(
            np.outer(self.amplitudes, self.amplitudes.conj()),
            self.factors,
            self.local_dim,
        )


@dataclass(frozen=True)
class FullDensity:
    """Density operator on ``factors`` qudits, validated on construction."""

    matrix: np.ndarray
    factors: int
    local_dim: int

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.complex128)
        dim = self.local_dim**self.factors
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match dim {dim}")
        check_density(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def check_density(mat: np.ndarray) -> None:
    """Raise ValueError unless ``mat`` is Hermitian, unit-trace and positive semidefinite.

    Positive semidefinite means no eigenvalue below ``PSD_TOL``.  A
    Hermitian ``mat`` has every eigenvalue above ``PSD_TOL`` exactly when
    ``mat - PSD_TOL * I`` is positive definite, i.e. has a Cholesky
    factor, so one factorisation of a shifted copy decides the check.  It
    can disagree with the smallest computed eigenvalue only within about
    D * eps of the threshold, where rounding can tip either test.
    Cholesky costs about D^3 / 6 complex multiply-adds with no iteration,
    about a quarter of the flops of the eigensolver's reduction to
    tridiagonal form; its peak is about three D x D complex buffers (the
    shifted copy and numpy's two).
    """
    _check_hermitian(mat, "density matrix")
    if abs(np.trace(mat).real - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {np.trace(mat)} != 1")
    shifted = np.array(mat, dtype=np.complex128)
    diagonal = np.arange(shifted.shape[0])
    shifted[diagonal, diagonal] -= PSD_TOL
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        raise ValueError("density matrix is not positive semidefinite") from None


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


def maximally_entangled(d: int) -> FullState:
    """The two-qudit state with amplitude 1/sqrt(d) on every |jj>."""
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
    amps = np.zeros(d * d, dtype=np.complex128)
    amps[np.arange(d) * d + np.arange(d)] = 1.0 / math.sqrt(d)
    return FullState(amps, factors=2, local_dim=d)


def tensor(a: FullState, b: FullState) -> FullState:
    """Kronecker composite; the left operand occupies the leading factors."""
    if not (isinstance(a, FullState) and isinstance(b, FullState)):
        raise TypeError("tensor expects two FullState operands")
    _check_same_dim(a, b)
    check_cap(a.local_dim, a.factors + b.factors)
    return FullState(
        np.kron(a.amplitudes, b.amplitudes), a.factors + b.factors, a.local_dim
    )


def permute_factors(state: FullState, perm) -> FullState:
    """Reorder tensor factors: new factor i is old factor perm[i]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(state.factors)):
        raise ValueError(f"{perm} is not a permutation of 0..{state.factors - 1}")
    shaped = state.amplitudes.reshape((state.local_dim,) * state.factors)
    return FullState(
        np.ascontiguousarray(shaped.transpose(perm)).ravel(),
        state.factors,
        state.local_dim,
    )


def partial_trace(rho: FullDensity, keep) -> FullDensity:
    """Reduced density operator on the kept factors (ascending original order)."""
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= rho.factors:
        raise ValueError(f"keep indices {keep} outside 0..{rho.factors - 1}")
    n, d = rho.factors, rho.local_dim
    shaped = rho.matrix.reshape((d,) * (2 * n))
    row_labels = list(range(n))
    col_labels = [i if i not in keep else n + i for i in range(n)]
    out_labels = keep + [n + i for i in keep]
    reduced = np.einsum(shaped, row_labels + col_labels, out_labels)
    dim = d ** len(keep)
    return FullDensity(reduced.reshape(dim, dim), len(keep), d)


def partial_trace_state(psi: FullState, keep) -> FullDensity:
    """Partial trace of |psi><psi| without forming the full outer product."""
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= psi.factors:
        raise ValueError(f"keep indices {keep} outside 0..{psi.factors - 1}")
    traced = [i for i in range(psi.factors) if i not in keep]
    moved = permute_factors(psi, keep + traced)
    d = psi.local_dim
    block = moved.amplitudes.reshape(d ** len(keep), d ** len(traced))
    return FullDensity(block @ block.conj().T, len(keep), d)


def fidelity_pure(rho: FullDensity, psi: FullState) -> float:
    """<psi|rho|psi> as a real number."""
    if rho.factors != psi.factors or rho.local_dim != psi.local_dim:
        raise ValueError("state and density operator live on different spaces")
    value = complex(psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes)
    if abs(value.imag) > NORM_TOL:
        raise ValueError(f"fidelity came out non-real: {value}")
    return value.real


def trace_distance_matrices(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance 0.5 * ||a - b||_1 between two Hermitian matrices of equal shape.

    The trace norm of a Hermitian matrix is the sum of the absolute values
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


def as_generator(seed) -> np.random.Generator:
    """Accept an int seed or a Generator; global RNG state is never used."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed d x d unitary via QR of a complex Gaussian matrix."""
    rng = as_generator(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    # Fixing the phases of R's diagonal makes the distribution exactly Haar.
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_pure_state(d: int, seed) -> PureState:
    """Haar-random qudit state (first column of a Haar unitary)."""
    return PureState(random_unitary(d, seed)[:, 0])


def _check_same_dim(a, b) -> None:
    if a.local_dim != b.local_dim:
        raise ValueError(f"local dimensions differ: {a.local_dim} vs {b.local_dim}")


def _check_same_space(a, b) -> None:
    if a.local_dim != b.local_dim or a.factors != b.factors:
        raise ValueError("operands live on different tensor spaces")

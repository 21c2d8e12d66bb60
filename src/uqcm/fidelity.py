"""Arbitrary-copy cloning fidelities, numeric and in closed form.

The numeric route reads every F_L off the factor J of the machine output
rho = J J^dagger in one ladder sweep (:func:`uqcm.symmetric.ladder_fidelities`).
Contracting one output qudit with <phi| maps the factor J_t of t qudits
to J_{t-1}, d gathers of J_t's rows with weights conj(x_j) sqrt((a_j+1)/t);
starting from J_M = J,

    F_L = ||J_{M-L}||_F^2,

so the sweep from t = M down to M - L + 1 yields F_1..F_L together.  It
costs d * r * sum_t D_t for r columns of J and D_t = sym_dim(d, t), and
never forms rho, a reduction, or J itself: a machine hands over the
D_in x r amplitude table V that J is scattered from, the first step
scatters V straight into level M-1, and the sweep runs over column
blocks, holding one level-(M-1) block plus half of level M-2 twice.  The
blocks are as wide as :data:`~uqcm.hilbert.FAST_PATH_CAP` leaves room for
after the tables the sweep holds (:func:`uqcm.symmetric.sweep_width`).

The closed-form route evaluates the general F_L expression

    F_L = (d+N-1)! (M-N)! (M-L)! / ((d+M-1)! M! N!)
          * sum_{m1} (M-m1+d-2)! (m1!)^2
                     / ((m1-L)! (m1-N)! (d-2)! (M-m1)!)

in exact rationals.  Its summand is L! N! C(M-m1+d-2, d-2) C(m1, L)
C(m1, N), so with K = (d+N-1)! (M-N)! / (d+M-1)! and the L-independent
integer weights w[m1] = C(M-m1+d-2, d-2) C(m1, N),

    F_L = K * sum_{m1} w[m1] C(m1, L) / C(M, L),

one integer sum and one rational per L.  The specializations F_1, F_M
and the N=1 simplification are implemented separately and checked to
agree exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .combinatorics import sym_dim
from .hilbert import TRACE_TOL, PureState
from .machines import CloneSpec
from .symmetric import SymDensity, ladder_fidelities


def fidelities_numeric(
    rho: SymDensity, phi: PureState, upto: int | None = None
) -> tuple[float, ...]:
    """F_1..F_upto of rho against |phi>, from one ladder sweep (all L by default).

    rho is a machine's output, which holds its amplitude table; a
    density holding its whole factor (``kept`` None) is refused.
    """
    if rho.kept is None:
        raise ValueError(
            "density has no amplitude table to sweep (kept is None); "
            "pass a machine's output"
        )
    m_total = rho.basis.total
    if upto is None:
        upto = m_total
    if not 1 <= upto <= m_total:
        raise ValueError(f"need 1 <= L <= {m_total}, got L={upto}")
    if phi.dim != rho.basis.d:
        raise ValueError(
            f"state dimension {phi.dim} does not match basis d={rho.basis.d}"
        )
    values = ladder_fidelities(rho, phi, upto)
    for value in values:
        if not -TRACE_TOL <= value <= 1.0 + TRACE_TOL:
            raise ValueError(f"fidelity {value} outside [0, 1]")
    return tuple(float(min(max(value, 0.0), 1.0)) for value in values)


def fidelity_L_closed(spec: CloneSpec, L: int) -> Fraction:
    """Closed-form F_L as an exact rational: K * sum_m1 w[m1] C(m1, L) / C(M, L)."""
    d, n, m_total = spec.d, spec.n_in, spec.m_out
    if not 1 <= L <= m_total:
        raise ValueError(f"need 1 <= L <= {m_total}, got L={L}")
    prefactor = Fraction(
        math.factorial(d + n - 1) * math.factorial(m_total - n),
        math.factorial(d + m_total - 1) * math.comb(m_total, L),
    )
    total = sum(
        math.comb(m_total - m1 + d - 2, d - 2) * math.comb(m1, n) * math.comb(m1, L)
        for m1 in range(max(L, n), m_total + 1)
    )
    return prefactor * total


def fidelity_single_closed(spec: CloneSpec) -> Fraction:
    """Single-copy fidelity F_1 = (N(d+M)+M-N) / ((d+N)M)."""
    d, n, m_total = spec.d, spec.n_in, spec.m_out
    return Fraction(n * (d + m_total) + m_total - n, (d + n) * m_total)


def fidelity_global_closed(spec: CloneSpec) -> Fraction:
    """Global fidelity F_M: symmetric-dimension ratio d[N]/d[M]."""
    return Fraction(sym_dim(spec.d, spec.n_in), sym_dim(spec.d, spec.m_out))


def fidelity_L_closed_N1(d: int, M: int, L: int) -> Fraction:
    """F_L for a single input copy: L! d! (L(d+M)+M-L) / ((d+L)! M)."""
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
    if not 1 <= L <= M:
        raise ValueError(f"need 1 <= L <= {M}, got L={L}")
    return Fraction(
        math.factorial(L) * math.factorial(d) * (L * (d + M) + M - L),
        math.factorial(d + L) * M,
    )

"""Arbitrary-copy cloning fidelities, numeric and in closed form.

The numeric route reads every F_L off the factor J of the machine output
rho = J J^dagger in one ladder sweep (:func:`uqcm.symmetric.ladder_fidelities`).
Contracting one output qudit with <phi| maps the factor J_t of t qudits
to J_{t-1}, d gathers of J_t's rows with weights conj(x_j) sqrt((a_j+1)/t);
starting from J_M = J,

    F_L = ||J_{M-L}||_F^2,

so the sweep from t = M down to M - L + 1 yields F_1..F_L together.  It
costs d * r * sum_t D_t for r columns of J and D_t = sym_dim(d, t), and
never forms rho, a reduction, or J itself: a
:class:`~uqcm.symmetric.SymDensity` holds only the D_in x r amplitude
table V that J is scattered from.  The sweep multiplies V's rows once by
unit-modulus phases, which leaves every norm as it is and makes every
weight the real |x_j| sqrt((a_j+1)/t).  A sweep with real weights is
real-linear, so F_L = F_L(Re) + F_L(Im) over the two parts of the
rotated V, and a contraction, so F_L(Im) <= ||Im||_F^2.  It sweeps the
real part, and the imaginary part only when ||Im||_F^2 exceeds
spacing(min_L F_L(Re)) / 4, below which it could not change a digit;
for every machine's table, x^a times a real weight, the imaginary part
is rounding noise far below that bound.  The first step scatters the part
straight into level M-1, and each later step is one gather and one
batched real product per chunk of rows.  It runs over column blocks,
holding one level-(M-1) block plus one gathered row chunk.  The blocks
are as wide as :data:`~uqcm.hilbert.FAST_PATH_CAP` leaves room for
after the tables the sweep holds (:func:`uqcm.symmetric.sweep_width`).

The closed-form route evaluates the general F_L expression

    F_L = (d+N-1)! (M-N)! (M-L)! / ((d+M-1)! M! N!)
          * sum_{m1} (M-m1+d-2)! (m1!)^2
                     / ((m1-L)! (m1-N)! (d-2)! (M-m1)!)

in exact rationals.  Its summand is L! N! C(M-m1+d-2, d-2) C(m1, L)
C(m1, N), so with K = (d+N-1)! (M-N)! / (d+M-1)! and the L-independent
integer weights w[m1] = C(M-m1+d-2, d-2) C(m1, N),

    F_L = K * sum_{m1} w[m1] C(m1, L) / C(M, L),

with 1/K = C(d+M-1, M-N).  :func:`fidelities_closed` builds w once and
then spends one integer sum and one rational per L;
:func:`fidelity_L_closed` runs the same code for its one L, so the
formula has one implementation, and nothing is kept from one call to the
next.  The specializations F_1, F_M and the N=1 simplification are
implemented separately and checked to agree exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .combinatorics import sym_dim
from .hilbert import PureState, checked_fidelities
from .machines import CloneSpec
from .symmetric import SymDensity, ladder_fidelities


def fidelities_numeric(
    rho: SymDensity, phi: PureState, upto: int | None = None
) -> tuple[float, ...]:
    """F_1..F_upto of rho against |phi>, from one ladder sweep (all L by default)."""
    m_total = rho.basis.total
    if upto is None:
        upto = m_total
    if not 1 <= upto <= m_total:
        raise ValueError(f"need 1 <= L <= {m_total}, got L={upto}")
    if phi.dim != rho.basis.d:
        raise ValueError(
            f"state dimension {phi.dim} does not match basis d={rho.basis.d}"
        )
    return checked_fidelities(ladder_fidelities(rho, phi, upto))


def fidelities_closed(spec: CloneSpec, upto: int | None = None) -> tuple[Fraction, ...]:
    """Closed-form F_1..F_upto as exact rationals (all L by default)."""
    if upto is None:
        upto = spec.m_out
    return _closed_form(spec, range(1, upto + 1), upto)


def fidelity_L_closed(spec: CloneSpec, L: int) -> Fraction:
    """Closed-form F_L as an exact rational: one integer sum, one ``Fraction``."""
    return _closed_form(spec, (L,), L)[0]


def _closed_form(spec: CloneSpec, levels, last: int) -> tuple[Fraction, ...]:
    """F_L for each L of ``levels``, the highest of which is ``last``.

    The weights w[m1] are built once; each L then costs one integer sum
    and one ``Fraction``: F_L = sum_m1 w[m1] C(m1, L) / (C(d+M-1, M-N) C(M, L)).
    """
    d, n, m_total = spec.d, spec.n_in, spec.m_out
    if not 1 <= last <= m_total:
        raise ValueError(f"need 1 <= L <= {m_total}, got L={last}")
    # 1/K = (d+M-1)! / ((d+N-1)! (M-N)!).
    inverse_k = math.comb(d + m_total - 1, m_total - n)
    weights = [
        math.comb(m_total - m1 + d - 2, d - 2) * math.comb(m1, n)
        for m1 in range(n, m_total + 1)
    ]
    # C(m1, L) is 0 for m1 < L, so those terms drop out.
    return tuple(
        Fraction(
            sum(w * math.comb(m1, L) for m1, w in enumerate(weights, n)),
            inverse_k * math.comb(m_total, L),
        )
        for L in levels
    )


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

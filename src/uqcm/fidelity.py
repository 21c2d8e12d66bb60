"""Arbitrary-copy cloning fidelities, numeric and in closed form.

The numeric route reads every F_L = ||J_{M-L}||_F^2, where J_t is the
factor J of the machine output rho = J J^dagger with M - t qudits
contracted with <phi|, off one ladder sweep, whose steps and cost
:func:`uqcm.symmetric.ladder_fidelities` describes.

The closed-form route evaluates the general F_L expression

    F_L = (d+N-1)! (M-N)! (M-L)! / ((d+M-1)! M! N!)
          * sum_{m1} (M-m1+d-2)! (m1!)^2
                     / ((m1-L)! (m1-N)! (d-2)! (M-m1)!)

in exact rationals.  Its summand is L! N! C(M-m1+d-2, d-2) C(m1, L)
C(m1, N), so with K = (d+N-1)! (M-N)! / (d+M-1)! and the L-independent
integer weights w[m1] = C(M-m1+d-2, d-2) C(m1, N),

    F_L = K * sum_{m1} w[m1] C(m1, L) / C(M, L),

with 1/K = C(d+M-1, M-N).  The numerators A_L = sum_{m1} w[m1] C(m1, L)
are the coefficients of x^L in P(1+x), where P(y) = sum_{m1} w[m1] y^m1 =
y^N Q(y).  Each is at most sum(w) 2^M, so with B = 2^bits above that
bound P(B+1) holds every A_L as one base-B digit, with no carry
(Kronecker substitution).  One shift-add Horner pass over w gives
Q(B+1), one product with the digits C(N, k) gives (B+1)^N Q(B+1), and
one ``to_bytes`` yields the digits; everything is kept modulo
B^(last+1), so a list stopped at L = last costs in proportion to last.
:func:`fidelities_closed` is the one implementation of the formula, and
nothing is kept from one call to the next.  The specializations F_1,
F_M and the N=1 simplification are implemented separately and checked
to agree exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .combinatorics import check_d, sym_dim
from .hilbert import PureState, check_state_dim, checked_fidelities
from .machines import CloneSpec
from .symmetric import SymDensity, ladder_fidelities


def fidelities_numeric(
    rho: SymDensity, phi: PureState, upto: int | None = None
) -> tuple[float, ...]:
    """F_1..F_upto of rho against |phi>, from one ladder sweep (all L by default)."""
    m_total = rho.total
    if upto is None:
        upto = m_total
    _check_L(upto, m_total)
    check_state_dim(phi, rho.d, "state", "basis")
    return checked_fidelities(ladder_fidelities(rho, phi, upto))


def fidelities_closed(spec: CloneSpec, upto: int | None = None) -> tuple[Fraction, ...]:
    """Closed-form F_1..F_upto as exact rationals (all L by default).

    F_L = A_L / (C(d+M-1, M-N) C(M, L)), and every numerator
    A_L = sum_m1 w[m1] C(m1, L) is one base-2^bits digit of one big integer,
    the polynomial sum_m1 w[m1] y^m1 at y = 2^bits + 1, kept modulo
    2^(bits (last+1)) for last = upto: F_L alone is
    ``fidelities_closed(spec, L)[-1]``, at a cost that grows with L only.
    """
    d, n, m_total = spec.d, spec.n_in, spec.m_out
    last = m_total if upto is None else upto
    _check_L(last, m_total)
    # 1/K = (d+M-1)! / ((d+N-1)! (M-N)!).
    inverse_k = math.comb(d + m_total - 1, m_total - n)
    # w[m1] = C(M-m1+d-2, d-2) C(m1, N), with C(m1, N) stepped up in m1.
    weights, choose_n = [], 1
    for m1 in range(n, m_total + 1):
        weights.append(math.comb(m_total - m1 + d - 2, d - 2) * choose_n)
        choose_n = choose_n * (m1 + 1) // (m1 + 1 - n)
    # C(m1, L) <= 2^M, so every A_L is below sum(w) 2^M: one whole byte count.
    width = -(-(sum(weights) << m_total).bit_length() // 8)
    bits = 8 * width
    mask = (1 << bits * (last + 1)) - 1
    # Horner for sum_m1 w[m1] y^(m1-N) at y = 2^bits + 1, by shift and add.
    packed = 0
    for w in reversed(weights):
        packed = (packed << bits) + packed + w
        if packed > mask:
            packed &= mask
    # Times (2^bits + 1)^N, whose digits are C(N, k).
    binomial, digits = 1, []
    for k in range(min(n, last) + 1):
        digits.append(binomial.to_bytes(width, "little"))
        binomial = binomial * (n - k) // (k + 1)
    packed = packed * int.from_bytes(b"".join(digits), "little") & mask
    raw = packed.to_bytes(width * (last + 1), "little")
    return tuple(
        Fraction(
            int.from_bytes(raw[L * width : (L + 1) * width], "little"),
            inverse_k * math.comb(m_total, L),
        )
        for L in range(1, last + 1)
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
    check_d(d)
    _check_L(L, M)
    return Fraction(
        math.factorial(L) * math.factorial(d) * (L * (d + M) + M - L),
        math.factorial(d + L) * M,
    )


def _check_L(L: int, m_total: int) -> None:
    if not 1 <= L <= m_total:
        raise ValueError(f"need 1 <= L <= {m_total}, got L={L}")

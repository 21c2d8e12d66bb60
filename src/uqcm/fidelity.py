"""Arbitrary-copy cloning fidelities, numeric and in closed form.

The numeric route scores the overlap of the L-copy reduction with
|phi>^(x L) straight on the factor J of the machine output rho = J J^dagger:

    F_L = sum_k || sum_a conj(t_a) f(a+k, k) J[a+k, :] ||^2

with t the occupation amplitudes of |phi>^(x L) and f the splitting
coefficient (:func:`uqcm.symmetric.reduced_expectation`), so neither rho
nor its reduction is ever formed.  The closed-form route evaluates the
general F_L expression in exact rationals:

    F_L = (d+N-1)! (M-N)! (M-L)! / ((d+M-1)! M! N!)
          * sum_{m1} (M-m1+d-2)! (m1!)^2
                     / ((m1-L)! (m1-N)! (d-2)! (M-m1)!)

with m1 running over max(L, N) <= m1 <= M; outside that range a
negative-argument factorial annihilates the term.  The specializations
F_1, F_M and the N=1 simplification are implemented separately and
checked to agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import sym_dim
from .hilbert import TRACE_TOL, PureState, random_pure_state
from .machines import MACHINES, CloneSpec, run_machine
from .symmetric import SymDensity, expand_power, reduced_expectation


def fidelity_L_numeric(rho: SymDensity, phi: PureState, L: int) -> float:
    """Overlap of rho's L-copy reduction with |phi>^(x L), read off rho's factor."""
    m_total = rho.basis.total
    if not 1 <= L <= m_total:
        raise ValueError(f"need 1 <= L <= {m_total}, got L={L}")
    if phi.dim != rho.basis.d:
        raise ValueError(
            f"state dimension {phi.dim} does not match basis d={rho.basis.d}"
        )
    value = reduced_expectation(rho, expand_power(phi, L))
    if not -TRACE_TOL <= value <= 1.0 + TRACE_TOL:
        raise ValueError(f"fidelity {value} outside [0, 1]")
    return float(min(max(value, 0.0), 1.0))


def fidelity_L_closed(spec: CloneSpec, L: int) -> Fraction:
    """Closed-form F_L as an exact rational."""
    d, n, m_total = spec.d, spec.n_in, spec.m_out
    if not 1 <= L <= m_total:
        raise ValueError(f"need 1 <= L <= {m_total}, got L={L}")
    prefactor = Fraction(
        math.factorial(d + n - 1)
        * math.factorial(m_total - n)
        * math.factorial(m_total - L),
        math.factorial(d + m_total - 1)
        * math.factorial(m_total)
        * math.factorial(n),
    )
    total = Fraction(0)
    for m1 in range(max(L, n), m_total + 1):
        total += Fraction(
            math.factorial(m_total - m1 + d - 2) * math.factorial(m1) ** 2,
            math.factorial(m1 - L)
            * math.factorial(m1 - n)
            * math.factorial(d - 2)
            * math.factorial(m_total - m1),
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


@dataclass(frozen=True)
class FidelityReport:
    """Per-L comparison of numeric and closed-form fidelities."""

    spec: CloneSpec
    machine: str
    rows: tuple[tuple[int, float, Fraction, float], ...]

    def max_abs_diff(self) -> float:
        return max(row[3] for row in self.rows)


def fidelity_table(
    spec: CloneSpec,
    phi: PureState | None = None,
    machine: str = "werner",
    seed: int = 0,
) -> FidelityReport:
    """Run one machine and tabulate F_L for every L in 1..m_out.

    When no input state is given a seeded random one is drawn, which the
    covariance of the machines makes representative.
    """
    if machine not in MACHINES:
        raise ValueError(f"unknown machine {machine!r}; expected one of {MACHINES}")
    if phi is None:
        phi = random_pure_state(spec.d, seed)
    rho = run_machine(spec, phi, machine)
    rows = []
    for L in range(1, spec.m_out + 1):
        numeric = fidelity_L_numeric(rho, phi, L)
        closed = fidelity_L_closed(spec, L)
        rows.append((L, numeric, closed, abs(numeric - float(closed))))
    return FidelityReport(spec=spec, machine=machine, rows=tuple(rows))


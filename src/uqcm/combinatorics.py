"""Exact combinatorial kernel for symmetric-subspace bookkeeping.

Everything in this module is computed with arbitrary-precision integers
and exact rationals (``fractions.Fraction``).  :func:`occupation_tuples`
is the one enumeration of the basis: the exact layer wraps its tuples as
:class:`OccupationVector`, and :mod:`uqcm.symmetric` stacks them into the
numeric count table behind every fast path, whose floating-point split
table is tested against the exact coefficients here.

Occupation vectors index the completely symmetric basis: the vector
``(m_1, ..., m_d)`` labels the normalized permutation-invariant state of
``sum(m)`` qudits with ``m_j`` of them in computational level ``j``
(levels are 0-based: slot 0 counts level |0>).  The canonical enumeration
order is lexicographically decreasing, so ``(M, 0, ..., 0)`` comes first;
every matrix index downstream relies on this order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator


@dataclass(frozen=True, order=True)
class OccupationVector:
    """Nonnegative integer counts ``(m_1, ..., m_d)`` with their sum as total.

    Instances are immutable, hashable and ordered by plain tuple
    comparison of ``counts``; sorting a basis in decreasing order yields
    the canonical enumeration.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        if len(counts) == 0:
            raise ValueError("occupation vector needs at least one slot")
        if any(c < 0 for c in counts):
            raise ValueError(f"negative occupation in {counts}")
        object.__setattr__(self, "counts", counts)

    @property
    def d(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.counts)

    def __getitem__(self, j: int) -> int:
        return self.counts[j]

    def contains(self, other: "OccupationVector") -> bool:
        """True when ``other`` fits slotwise inside this vector."""
        self._check_slots(other)
        return all(b <= a for a, b in zip(self.counts, other.counts))

    def _check_slots(self, other: "OccupationVector") -> None:
        if len(self.counts) != len(other.counts):
            raise ValueError("occupation vectors have different slot counts")

    def __repr__(self) -> str:
        return f"OccupationVector({self.counts})"


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero when k is out of range.

    >>> binomial(5, 2)
    10
    >>> binomial(2, 3)
    0
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def sym_dim(d: int, n: int) -> int:
    """Dimension C(d+n-1, n) of the symmetric subspace of n qudits."""
    _check_d(d)
    if n < 0:
        raise ValueError(f"particle number must be >= 0, got {n}")
    return math.comb(d + n - 1, n)


def occupation_tuples(d: int, total: int) -> Iterator[tuple[int, ...]]:
    """Plain count tuples of ``total`` particles in ``d`` slots, in canonical order.

    The one enumeration of the basis: :func:`enumerate_occupations` wraps
    these tuples for the exact layer, and :class:`uqcm.symmetric.SymBasis`
    stacks them into its numeric table.
    """
    _check_d(d)
    if total < 0:
        raise ValueError(f"particle number must be >= 0, got {total}")
    return _tuples(d, total)


def _tuples(d: int, total: int) -> Iterator[tuple[int, ...]]:
    # The successor in decreasing order moves one particle out of the last
    # occupied slot j before the final one into slot j+1, which also
    # collects everything the final slot held.
    counts = [total] + [0] * (d - 1)
    while True:
        yield tuple(counts)
        j = d - 2
        while j >= 0 and counts[j] == 0:
            j -= 1
        if j < 0:
            return
        moved = counts[-1] + 1
        counts[j] -= 1
        counts[-1] = 0
        counts[j + 1] = moved


def enumerate_occupations(d: int, total: int) -> list[OccupationVector]:
    """All occupation vectors of ``total`` particles in ``d`` slots.

    Returned in canonical (lexicographically decreasing) order; the list
    has exactly ``sym_dim(d, total)`` entries.
    """
    return [OccupationVector(c) for c in occupation_tuples(d, total)]


def splitting_coefficient_sq(
    m: OccupationVector, k: OccupationVector, total: int, kept: int
) -> Fraction:
    """Exact square of the coefficient of |m-k>|k> in the split of |m>.

    Splitting the symmetric state |m> of ``total`` qudits into a front
    group of ``kept`` qudits and a back group of ``total - kept`` qudits
    gives the back-group occupation ``k`` the amplitude whose square is

        prod_j C(m_j, k_j) / C(total, kept).

    The squares over all admissible ``k`` sum to one exactly.
    """
    _check_split_args(m, k, total, kept)
    num = 1
    for mj, kj in zip(m, k):
        num *= math.comb(mj, kj)
    return Fraction(num, math.comb(total, kept))


def _check_split_args(
    m: OccupationVector, k: OccupationVector, total: int, kept: int
) -> None:
    if not 0 <= kept <= total:
        raise ValueError(f"kept group size {kept} outside 0..{total}")
    if m.total != total:
        raise ValueError(f"m sums to {m.total}, expected {total}")
    if k.total != total - kept:
        raise ValueError(f"k sums to {k.total}, expected {total - kept}")
    if not m.contains(k):
        raise ValueError(f"split {k.counts} exceeds occupation {m.counts}")


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of checking the single-copy summation identity exactly."""

    n_in: int
    m_out: int
    d: int
    lhs: Fraction
    rhs: Fraction
    equal: bool
    printed_summand_evaluable: bool
    note: str


#: Denominator actually used for the m-th summand of the identity's left side.
#: The typeset source garbles it to "M m (M-N-m)! (d-2)!", which divides by
#: zero at m = 0; restoring the summand from the general L-copy fidelity at
#: L = 1 forces the form below.
RECONSTRUCTED_DENOMINATOR = "M * m! * (N+m-1)! * (M-N-m)! * (d-2)!"


def verify_identity(n_in: int, m_out: int, d: int) -> IdentityReport:
    """Check the reconstructed summation identity behind the F_1 closed form.

    Left side (reconstruction; see :data:`RECONSTRUCTED_DENOMINATOR`):

        (M-N)!(N+d-1)!/((M+d-1)! N!) *
        sum_{m=0}^{M-N} ((N+m)!)^2 (M-N-m+d-2)!
                        / (M * m! * (N+m-1)! * (M-N-m)! * (d-2)!)

    The m-th summand is (N!/M) (N+m) C(N+m, N) C(M-N-m+d-2, d-2), so the
    left side is evaluated as (M-N)!(N+d-1)!/((M+d-1)! M) times one
    integer sum.

    Right side:  (N(d+M) + M - N) / ((d+N) M).

    Both sides are exact rationals; ``equal`` reports their equality.
    ``printed_summand_evaluable`` records whether the literally typeset
    summand (denominator term "Mm") can be evaluated over the full range
    of m; it cannot, because the m = 0 term divides by zero.
    """
    n, m_total = n_in, m_out
    _check_d(d)
    if not 1 <= n <= m_total:
        raise ValueError(f"need 1 <= N <= M, got N={n}, M={m_total}")

    f = math.factorial
    prefactor = Fraction(f(m_total - n) * f(n + d - 1), f(m_total + d - 1) * m_total)
    acc = sum(
        (n + m) * math.comb(n + m, n) * math.comb(m_total - n - m + d - 2, d - 2)
        for m in range(m_total - n + 1)
    )
    lhs = prefactor * acc

    rhs = Fraction(n * (d + m_total) + m_total - n, (d + n) * m_total)

    # The typeset denominator contains a bare factor m, so any m = 0 term
    # (always present since the sum starts at 0) is a division by zero.
    printed_ok = all(m_total * m != 0 for m in range(m_total - n + 1))

    return IdentityReport(
        n_in=n,
        m_out=m_total,
        d=d,
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        printed_summand_evaluable=printed_ok,
        note=f"left side evaluated with denominator {RECONSTRUCTED_DENOMINATOR}",
    )


def _check_d(d: int) -> None:
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")

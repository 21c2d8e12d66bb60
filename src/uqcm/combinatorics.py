"""Exact combinatorial kernel for symmetric-subspace bookkeeping.

Everything in this module is computed with arbitrary-precision integers
and exact rationals (reduced integer pairs, or ``fractions.Fraction``).
:mod:`uqcm.symmetric` builds the numeric count table behind every fast
path with numpy, and the tests hold it and the split index to an exact
enumeration of count tuples, and unified's floating-point weights to
exact splitting coefficients (``tests/reference.py``).

Occupation vectors index the completely symmetric basis: the vector
``(m_1, ..., m_d)`` labels the normalized permutation-invariant state of
``sum(m)`` qudits with ``m_j`` of them in computational level ``j``
(levels are 0-based: slot 0 counts level |0>).  The canonical enumeration
order is lexicographically decreasing, so ``(M, 0, ..., 0)`` comes first;
every matrix index downstream relies on this order.

The summation identity behind the single-copy fidelity is checked one
(d, N) family at a time, in integers: :func:`identity_rows` reads the
sums S(M) of every M = N..m_max off d-1 prefix summations of one list,
decides each equality by cross-multiplying integers, and returns each
side as a reduced ``(numerator, denominator)`` pair.  It is the one
implementation of the identity.  :func:`verify_identity_family` is the
only place that builds ``Fraction`` objects from those pairs, one per
right side and a second only for a left side that differs from it; the
command line prints the pairs directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple


def sym_dim(d: int, n: int) -> int:
    """Dimension C(d+n-1, n) of the symmetric subspace of n qudits."""
    check_d(d)
    if n < 0:
        raise ValueError(f"particle number must be >= 0, got {n}")
    return math.comb(d + n - 1, n)


class IdentityReport(NamedTuple):
    """Outcome of checking the single-copy summation identity exactly.

    An immutable record: a ``NamedTuple``, so assigning to a field raises
    ``AttributeError``.  Each report is one tuple, built positionally.
    """

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

#: The ``note`` of every :class:`IdentityReport`.
IDENTITY_NOTE = f"left side evaluated with denominator {RECONSTRUCTED_DENOMINATOR}"

#: The ``printed_summand_evaluable`` of every :class:`IdentityReport`: the
#: typeset denominator holds a bare factor m, and every sum starts at m = 0.
PRINTED_SUMMAND_EVALUABLE = False


def identity_rows(
    n_in: int, m_max: int, d: int
) -> list[tuple[int, tuple[int, int], tuple[int, int], bool]]:
    """Check the summation identity behind the F_1 closed form, M = N..m_max.

    Left side (reconstruction; see :data:`RECONSTRUCTED_DENOMINATOR`):

        (M-N)!(N+d-1)!/((M+d-1)! N!) *
        sum_{m=0}^{M-N} ((N+m)!)^2 (M-N-m+d-2)!
                        / (M * m! * (N+m-1)! * (M-N-m)! * (d-2)!)

    The m-th summand is (N!/M) (N+m) C(N+m, N) C(M-N-m+d-2, d-2), so the
    left side is S(M) / (C(M+d-1, M-N) M) with the integer sum

        S(M) = sum_{j=N}^{M} j C(j, N) C(M-j+d-2, d-2).

    Right side:  (N(d+M) + M - N) / ((d+N) M).

    One row ``(M, lhs, rhs, equal)`` per M at fixed (d, N), the last for
    M = m_max.  Each side is a ``(numerator, denominator)`` pair in lowest
    terms with a positive denominator, reduced by ``math.gcd``.  Every
    S(M) of the family comes from one set of prefix sums
    (:func:`_identity_sums`), and equality is decided by cross-multiplying
    integers: an equal left side *is* the reduced right side's pair
    (``lhs is rhs``), so only an unequal one is reduced on its own.
    """
    n = n_in
    check_d(d)
    if not 1 <= n <= m_max:
        raise ValueError(f"need 1 <= N <= M, got N={n}, M={m_max}")

    rows = []
    for m_total, acc in zip(range(n, m_max + 1), _identity_sums(n, m_max, d)):
        lhs_den = math.comb(m_total + d - 1, m_total - n) * m_total
        rhs_num = n * (d + m_total) + m_total - n
        rhs_den = (d + n) * m_total
        common = math.gcd(rhs_num, rhs_den)
        rhs = (rhs_num // common, rhs_den // common)
        if acc * rhs_den == rhs_num * lhs_den:
            rows.append((m_total, rhs, rhs, True))
        else:
            common = math.gcd(acc, lhs_den)
            rows.append((m_total, (acc // common, lhs_den // common), rhs, False))
    return rows


def verify_identity_family(n_in: int, m_max: int, d: int) -> list[IdentityReport]:
    """The rows of :func:`identity_rows` as :class:`IdentityReport` records.

    Both sides become exact ``Fraction`` objects; an equal left side is
    the right side's own ``Fraction`` (``lhs is rhs``).
    ``printed_summand_evaluable`` records whether the literally typeset
    summand (denominator term "Mm") can be evaluated over the full range
    of m; it cannot, because the m = 0 term divides by zero.  Each report
    is one tuple, built positionally, sharing :data:`IDENTITY_NOTE`.
    """
    reports = []
    for m_total, lhs, rhs, equal in identity_rows(n_in, m_max, d):
        rhs_value = Fraction(*rhs)
        lhs_value = rhs_value if lhs is rhs else Fraction(*lhs)
        reports.append(
            IdentityReport(
                n_in, m_total, d, lhs_value, rhs_value, equal,
                PRINTED_SUMMAND_EVALUABLE, IDENTITY_NOTE,
            )
        )
    return reports


def _identity_sums(n: int, m_max: int, d: int) -> list[int]:
    """S(N), ..., S(m_max) of :func:`identity_rows`, exactly.

    S(M) = sum_j a(j) b(M-j) with a(j) = j C(j, N) and b(k) = C(k+d-2, d-2).
    b has the generating function 1/(1-x)^(d-1), so convolving with it is
    d-1 prefix summations of a.
    """
    sums = [j * math.comb(j, n) for j in range(n, m_max + 1)]
    for _ in range(d - 1):
        sums = list(accumulate(sums))
    return sums


def check_d(d: int) -> None:
    """Raise ValueError unless d is a qudit dimension, d >= 2."""
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")

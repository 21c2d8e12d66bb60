"""Tests for the exact combinatorial kernel."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqcm import combinatorics
from uqcm.combinatorics import (
    IDENTITY_NOTE,
    RECONSTRUCTED_DENOMINATOR,
    PRINTED_SUMMAND_EVALUABLE,
    IdentityReport,
    identity_rows,
    sym_dim,
    verify_identity_family,
)
from uqcm.machines import _unified_weights
from uqcm.symmetric import split_index

from reference import check_occupation, occupation_tuples, splitting_coefficient_sq


class TestSymDim:
    def test_known_dimensions(self):
        assert sym_dim(2, 1) == 2
        assert sym_dim(2, 2) == 3
        assert sym_dim(2, 3) == 4
        assert sym_dim(3, 2) == 6
        assert sym_dim(4, 3) == 20

    def test_trivial_total(self):
        assert sym_dim(5, 0) == 1

    def test_bad_dimension_raises(self):
        with pytest.raises(ValueError):
            sym_dim(1, 2)

    def test_negative_particle_number_raises(self):
        with pytest.raises(ValueError, match="particle number must be >= 0, got -1"):
            sym_dim(2, -1)


class TestEnumerateOccupations:
    def test_count_matches_dimension(self):
        for d in (2, 3, 4):
            for total in range(5):
                assert len(list(occupation_tuples(d, total))) == sym_dim(d, total)

    def test_canonical_order_endpoints(self):
        occs = list(occupation_tuples(3, 2))
        assert occs[0] == (2, 0, 0)
        assert occs[-1] == (0, 0, 2)

    def test_lexicographically_decreasing(self):
        occs = list(occupation_tuples(3, 4))
        assert occs == sorted(occs, reverse=True)

    def test_all_totals_correct(self):
        for m in occupation_tuples(4, 3):
            assert sum(m) == 3
            assert len(m) == 4

    def test_no_duplicates(self):
        occs = list(occupation_tuples(3, 5))
        assert len(set(occs)) == len(occs)

    def test_bad_arguments_raise(self):
        with pytest.raises(ValueError, match="qudit dimension"):
            occupation_tuples(1, 2)
        with pytest.raises(ValueError, match="particle number"):
            occupation_tuples(3, -1)


def _recursive_tuples(slots, remaining):
    """The recursive generator the iterative enumeration replaced."""
    if slots == 1:
        yield (remaining,)
        return
    for first in range(remaining, -1, -1):
        for rest in _recursive_tuples(slots - 1, remaining - first):
            yield (first,) + rest


class TestOccupationTuples:
    @pytest.mark.parametrize("d", range(2, 7))
    def test_matches_recursive_enumeration(self, d):
        for total in range(9):
            assert list(occupation_tuples(d, total)) == list(_recursive_tuples(d, total))

    def test_many_slots_need_no_recursion(self):
        # One frame per slot would pass the interpreter's recursion limit.
        tuples = list(occupation_tuples(1200, 1))
        assert len(tuples) == sym_dim(1200, 1)
        assert tuples[0][0] == 1 and tuples[-1][-1] == 1
        assert all(sum(t) == 1 for t in tuples)


def _fits(k, m):
    """True when k fits slotwise inside m."""
    return all(b <= a for a, b in zip(m, k))


class TestCheckOccupation:
    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match="negative"):
            check_occupation((2, -1), 2, 1)
        with pytest.raises(ValueError, match="negative"):
            splitting_coefficient_sq((2, -1), (0, 0), 1, 1)

    def test_mismatched_slots_raise(self):
        with pytest.raises(ValueError, match="slots"):
            check_occupation((1, 0, 0), 2, 1)
        with pytest.raises(ValueError, match="slots"):
            splitting_coefficient_sq((1, 0), (1, 0, 0), 1, 0)

    def test_wrong_sum_raises(self):
        with pytest.raises(ValueError, match="sums to"):
            check_occupation((1, 1), 2, 3)


class TestSplittingCoefficient:
    def test_spot_values(self):
        m = (1, 1)
        assert splitting_coefficient_sq(m, (1, 0), 2, 1) == Fraction(1, 2)
        assert splitting_coefficient_sq(m, (0, 1), 2, 1) == Fraction(1, 2)
        assert splitting_coefficient_sq((2, 0), (1, 0), 2, 1) == 1

    def test_squares_sum_to_one(self):
        # Removing total-kept excitations in all ways resolves the state completely.
        for d, total, kept in [(2, 3, 1), (2, 4, 2), (3, 3, 2), (3, 4, 1)]:
            for m in occupation_tuples(d, total):
                acc = Fraction(0)
                for k in occupation_tuples(d, total - kept):
                    if _fits(k, m):
                        acc += splitting_coefficient_sq(m, k, total, kept)
                assert acc == 1

    def test_incompatible_arguments_raise(self):
        m = (2, 1)
        with pytest.raises(ValueError):
            splitting_coefficient_sq(m, (1, 0), 3, 1)
        with pytest.raises(ValueError, match="exceeds"):
            splitting_coefficient_sq(m, (0, 3), 3, 0)

    @settings(max_examples=100, derandomize=True)
    @given(st.integers(2, 4), st.integers(1, 5), st.data())
    def test_normalization_property(self, d, total, data):
        kept = data.draw(st.integers(0, total))
        occs = list(occupation_tuples(d, total))
        m = data.draw(st.sampled_from(occs))
        acc = Fraction(0)
        for k in occupation_tuples(d, total - kept):
            if _fits(k, m):
                acc += splitting_coefficient_sq(m, k, total, kept)
        assert acc == 1

    @settings(max_examples=100, derandomize=True)
    @given(st.integers(2, 4), st.integers(1, 5), st.data())
    def test_split_index_matches_the_enumeration(self, d, total, data):
        kept = data.draw(st.integers(0, total))
        idx = split_index(d, total, kept)
        # Positions come from the enumeration itself, not from the rank formula.
        basis = list(occupation_tuples(d, total))
        for ai, a in enumerate(occupation_tuples(d, kept)):
            for ki, k in enumerate(occupation_tuples(d, total - kept)):
                assert idx[ai, ki] == basis.index(tuple(x + y for x, y in zip(a, k)))

    @settings(max_examples=100, derandomize=True)
    @given(st.integers(2, 4), st.integers(1, 5), st.data())
    def test_unified_weights_match_exact(self, d, total, data):
        kept = data.draw(st.integers(0, total))
        weights = _unified_weights(d, kept, total)
        for ai, a in enumerate(occupation_tuples(d, kept)):
            for ki, k in enumerate(occupation_tuples(d, total - kept)):
                m = tuple(x + y for x, y in zip(a, k))
                exact = float(splitting_coefficient_sq(m, k, total, kept))
                assert weights[ai, ki] ** 2 == pytest.approx(exact, rel=1e-13)


def _literal_summands(n, m_total, d):
    """The summands of the identity's left side, as reconstructed, added term by term."""
    f = math.factorial
    acc = Fraction(0)
    for m in range(m_total - n + 1):
        num = f(n + m) ** 2 * f(m_total - n - m + d - 2)
        den = m_total * f(m) * f(n + m - 1) * f(m_total - n - m) * f(d - 2)
        acc += Fraction(num, den)
    return acc


def _literal_identity_lhs(n, m_total, d):
    """The identity's left side summed term by term, as reconstructed."""
    f = math.factorial
    prefactor = Fraction(f(m_total - n) * f(n + d - 1), f(m_total + d - 1) * f(n))
    return prefactor * _literal_summands(n, m_total, d)


def _fraction_report(n, m_total, d):
    """The report built with ``Fraction`` arithmetic throughout, one point at a time."""
    f = math.factorial
    prefactor = Fraction(f(m_total - n) * f(n + d - 1), f(m_total + d - 1) * m_total)
    acc = sum(
        (n + m) * math.comb(n + m, n) * math.comb(m_total - n - m + d - 2, d - 2)
        for m in range(m_total - n + 1)
    )
    lhs = prefactor * acc
    rhs = Fraction(n * (d + m_total) + m_total - n, (d + n) * m_total)
    return IdentityReport(
        n_in=n,
        m_out=m_total,
        d=d,
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        printed_summand_evaluable=all(m_total * m != 0 for m in range(m_total - n + 1)),
        note=f"left side evaluated with denominator {RECONSTRUCTED_DENOMINATOR}",
    )


# Every family with d <= 8 and N <= 16, up to M = 30.
M_MAX = 30


class TestIdentityFamily:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_prefix_sums_equal_literal_sum(self, d):
        for n in range(1, 17):
            sums = combinatorics._identity_sums(n, M_MAX, d)
            # S(M) is M/N! times the docstring's summands.
            literal = [
                _literal_summands(n, m, d) * m / math.factorial(n)
                for m in range(n, M_MAX + 1)
            ]
            assert sums == literal

    @pytest.mark.parametrize("d", range(2, 9))
    def test_reports_equal_fraction_reports(self, d):
        for n in range(1, 17):
            expected = [_fraction_report(n, m, d) for m in range(n, M_MAX + 1)]
            assert verify_identity_family(n, M_MAX, d) == expected
            # A family's last report does not depend on where it stops.
            last = [verify_identity_family(n, m, d)[-1] for m in range(n, M_MAX + 1)]
            assert last == expected
            assert all(report.equal for report in expected)

    def test_reports_are_immutable_records(self):
        reports = verify_identity_family(2, 6, 3)
        assert all(type(report) is IdentityReport for report in reports)
        assert IdentityReport._fields == (
            "n_in",
            "m_out",
            "d",
            "lhs",
            "rhs",
            "equal",
            "printed_summand_evaluable",
            "note",
        )
        assert all(report.note is IDENTITY_NOTE for report in reports)
        # An equal left side is the right side's own Fraction.
        assert all(report.lhs is report.rhs for report in reports)
        with pytest.raises(AttributeError):
            reports[0].equal = False
        with pytest.raises(AttributeError):
            reports[0].lhs = Fraction(0)
        assert reports[0].equal is True

    @pytest.mark.parametrize("d, n", [(2, 1), (3, 2), (5, 4), (8, 16)])
    def test_perturbed_sum_is_reported_unequal(self, monkeypatch, d, n):
        exact = combinatorics._identity_sums
        monkeypatch.setattr(
            combinatorics,
            "_identity_sums",
            lambda *args: [value + 1 for value in exact(*args)],
        )
        reports = verify_identity_family(n, M_MAX, d)
        for m, report in zip(range(n, M_MAX + 1), reports):
            truth = _fraction_report(n, m, d)
            lhs = truth.lhs + Fraction(1, math.comb(m + d - 1, m - n) * m)
            assert report.equal is False
            # Fractions compare by their reduced numerator and denominator.
            assert report.lhs == lhs and report.lhs != report.rhs
            assert report.rhs == truth.rhs

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(d=st.integers(2, 6), copies=st.tuples(st.integers(1, 30), st.integers(1, 30)))
    def test_integer_rows_are_the_reports_field_by_field(self, d, copies):
        n, m_max = sorted(copies)
        exact = combinatorics._identity_sums
        # Unperturbed every row is equal; one more in every S(M) makes each unequal.
        for shift in (0, 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    combinatorics,
                    "_identity_sums",
                    lambda *args: [value + shift for value in exact(*args)],
                )
                rows = identity_rows(n, m_max, d)
                reports = verify_identity_family(n, m_max, d)
            assert len(rows) == len(reports) == m_max - n + 1
            for m, row, report in zip(range(n, m_max + 1), rows, reports, strict=True):
                m_out, lhs, rhs, equal = row
                assert (report.n_in, report.m_out, report.d) == (n, m_out, d)
                assert m_out == m
                for pair, value in ((lhs, report.lhs), (rhs, report.rhs)):
                    num, den = pair
                    assert type(num) is int and type(den) is int
                    assert den > 0 and math.gcd(num, den) == 1
                    assert type(value) is Fraction
                    assert (value.numerator, value.denominator) == pair
                assert report.equal is equal is (shift == 0)
                # An equal left side is the right side's own pair and own Fraction.
                assert (lhs is rhs) is equal is (report.lhs is report.rhs)
                assert report.printed_summand_evaluable is PRINTED_SUMMAND_EVALUABLE
                assert report.note is IDENTITY_NOTE


class TestVerifyIdentity:
    def test_integer_sum_equals_literal_summand(self):
        # The reference spells out this denominator factor by factor.
        assert RECONSTRUCTED_DENOMINATOR == "M * m! * (N+m-1)! * (M-N-m)! * (d-2)!"
        for d in range(2, 7):
            for n in range(1, 17):
                for m, report in zip(range(n, 25), verify_identity_family(n, 24, d)):
                    literal = _literal_identity_lhs(n, m, d)
                    assert report.lhs == literal
                    assert report.rhs == Fraction(n * (d + m) + m - n, (d + n) * m)
                    assert report.equal == (literal == report.rhs)

    def test_single_input_two_outputs(self):
        report = verify_identity_family(1, 2, 2)[-1]
        assert report.lhs == Fraction(5, 6)
        assert report.rhs == Fraction(5, 6)
        assert report.equal

    def test_more_spot_checks(self):
        assert verify_identity_family(1, 3, 2)[-1].rhs == Fraction(7, 9)
        assert verify_identity_family(2, 3, 2)[-1].rhs == Fraction(11, 12)
        assert verify_identity_family(2, 2, 3)[-1].rhs == 1

    def test_holds_on_grid(self):
        for d in (2, 3, 4):
            for n in range(1, 6):
                assert all(report.equal for report in verify_identity_family(n, 5, d))

    def test_printed_summand_never_evaluable(self):
        # The literally typeset denominator vanishes at the first summand.
        report = verify_identity_family(2, 4, 3)[-1]
        assert report.printed_summand_evaluable is False
        assert "denominator" in report.note

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            verify_identity_family(0, 2, 2)
        with pytest.raises(ValueError):
            verify_identity_family(3, 2, 2)
        with pytest.raises(ValueError):
            verify_identity_family(1, 2, 1)

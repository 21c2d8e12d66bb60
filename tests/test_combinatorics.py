"""Tests for the exact combinatorial kernel."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqcm.combinatorics import (
    RECONSTRUCTED_DENOMINATOR,
    OccupationVector,
    binomial,
    enumerate_occupations,
    occupation_tuples,
    splitting_coefficient_sq,
    sym_dim,
    verify_identity,
)
from uqcm.symmetric import split_table


class TestBinomial:
    def test_small_values(self):
        assert binomial(4, 2) == 6
        assert binomial(5, 0) == 1
        assert binomial(5, 5) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0

    def test_negative_n_raises(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @settings(max_examples=200, derandomize=True)
    @given(st.integers(1, 40), st.integers(0, 40))
    def test_pascal_rule(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


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


class TestEnumerateOccupations:
    def test_count_matches_dimension(self):
        for d in (2, 3, 4):
            for total in range(5):
                assert len(enumerate_occupations(d, total)) == sym_dim(d, total)

    def test_canonical_order_endpoints(self):
        occs = enumerate_occupations(3, 2)
        assert occs[0].counts == (2, 0, 0)
        assert occs[-1].counts == (0, 0, 2)

    def test_lexicographically_decreasing(self):
        occs = enumerate_occupations(3, 4)
        counts = [m.counts for m in occs]
        assert counts == sorted(counts, reverse=True)

    def test_all_totals_correct(self):
        for m in enumerate_occupations(4, 3):
            assert m.total == 3
            assert m.d == 4

    def test_no_duplicates(self):
        occs = enumerate_occupations(3, 5)
        assert len(set(occs)) == len(occs)


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


class TestOccupationVector:
    def test_properties(self):
        m = OccupationVector((2, 1, 0))
        assert m.d == 3
        assert m.total == 3
        assert m[0] == 2
        assert list(m) == [2, 1, 0]

    def test_add_sub_contains(self):
        m = OccupationVector((2, 1))
        k = OccupationVector((1, 0))
        assert m.contains(k)
        assert m.contains(m)
        assert not k.contains(m)
        assert not OccupationVector((1, 0)).contains(OccupationVector((0, 1)))

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            OccupationVector((1, -1))

    def test_mismatched_slots_raise(self):
        with pytest.raises(ValueError):
            OccupationVector((1, 0)).contains(OccupationVector((1, 0, 0)))


class TestSplittingCoefficient:
    def test_spot_values(self):
        m = OccupationVector((1, 1))
        assert splitting_coefficient_sq(m, OccupationVector((1, 0)), 2, 1) == Fraction(1, 2)
        assert splitting_coefficient_sq(m, OccupationVector((0, 1)), 2, 1) == Fraction(1, 2)
        m2 = OccupationVector((2, 0))
        assert splitting_coefficient_sq(m2, OccupationVector((1, 0)), 2, 1) == 1

    def test_squares_sum_to_one(self):
        # Removing total-kept excitations in all ways resolves the state completely.
        for d, total, kept in [(2, 3, 1), (2, 4, 2), (3, 3, 2), (3, 4, 1)]:
            for m in enumerate_occupations(d, total):
                acc = Fraction(0)
                for k in enumerate_occupations(d, total - kept):
                    if m.contains(k):
                        acc += splitting_coefficient_sq(m, k, total, kept)
                assert acc == 1

    def test_incompatible_arguments_raise(self):
        m = OccupationVector((2, 1))
        with pytest.raises(ValueError):
            splitting_coefficient_sq(m, OccupationVector((1, 0)), 3, 1)
        with pytest.raises(ValueError):
            splitting_coefficient_sq(m, OccupationVector((0, 3)), 3, 0)

    @settings(max_examples=100, derandomize=True)
    @given(st.integers(2, 4), st.integers(1, 5), st.data())
    def test_normalization_property(self, d, total, data):
        kept = data.draw(st.integers(0, total))
        occs = enumerate_occupations(d, total)
        m = data.draw(st.sampled_from(occs))
        acc = Fraction(0)
        for k in enumerate_occupations(d, total - kept):
            if m.contains(k):
                acc += splitting_coefficient_sq(m, k, total, kept)
        assert acc == 1

    @settings(max_examples=100, derandomize=True)
    @given(st.integers(2, 4), st.integers(1, 5), st.data())
    def test_split_table_matches_exact(self, d, total, data):
        kept = data.draw(st.integers(0, total))
        idx, coeff = split_table(d, total, kept)
        # Positions come from the enumeration itself, not from the rank formula.
        basis = enumerate_occupations(d, total)
        for ai, a in enumerate(enumerate_occupations(d, kept)):
            for ki, k in enumerate(enumerate_occupations(d, total - kept)):
                m = OccupationVector(tuple(x + y for x, y in zip(a, k)))
                assert idx[ai, ki] == basis.index(m)
                exact = math.sqrt(splitting_coefficient_sq(m, k, total, kept))
                assert coeff[ai, ki] == pytest.approx(exact, rel=1e-12)


def _literal_identity_lhs(n, m_total, d):
    """The identity's left side summed term by term, as reconstructed."""
    f = math.factorial
    prefactor = Fraction(f(m_total - n) * f(n + d - 1), f(m_total + d - 1) * f(n))
    acc = Fraction(0)
    for m in range(m_total - n + 1):
        num = f(n + m) ** 2 * f(m_total - n - m + d - 2)
        den = m_total * f(m) * f(n + m - 1) * f(m_total - n - m) * f(d - 2)
        acc += Fraction(num, den)
    return prefactor * acc


class TestVerifyIdentity:
    def test_integer_sum_equals_literal_summand(self):
        # The reference spells out this denominator factor by factor.
        assert RECONSTRUCTED_DENOMINATOR == "M * m! * (N+m-1)! * (M-N-m)! * (d-2)!"
        for d in range(2, 7):
            for n in range(1, 17):
                for m in range(n, 25):
                    report = verify_identity(n, m, d)
                    literal = _literal_identity_lhs(n, m, d)
                    assert report.lhs == literal
                    assert report.rhs == Fraction(n * (d + m) + m - n, (d + n) * m)
                    assert report.equal == (literal == report.rhs)

    def test_single_input_two_outputs(self):
        report = verify_identity(1, 2, 2)
        assert report.lhs == Fraction(5, 6)
        assert report.rhs == Fraction(5, 6)
        assert report.equal

    def test_more_spot_checks(self):
        assert verify_identity(1, 3, 2).rhs == Fraction(7, 9)
        assert verify_identity(2, 3, 2).rhs == Fraction(11, 12)
        assert verify_identity(2, 2, 3).rhs == 1

    def test_holds_on_grid(self):
        for d in (2, 3, 4):
            for n in range(1, 6):
                for m in range(n, 6):
                    assert verify_identity(n, m, d).equal

    def test_printed_summand_never_evaluable(self):
        # The literally typeset denominator vanishes at the first summand.
        report = verify_identity(2, 4, 3)
        assert report.printed_summand_evaluable is False
        assert "denominator" in report.note

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            verify_identity(0, 2, 2)
        with pytest.raises(ValueError):
            verify_identity(3, 2, 2)
        with pytest.raises(ValueError):
            verify_identity(1, 2, 1)

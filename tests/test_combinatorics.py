"""Tests for exact binomial rigidity sums and residue-class sign facts."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from anticirculant.combinatorics import (
    SPECIAL_R3_ORDERS,
    PeriodicSequence,
    RigidityViolation,
    SequenceVerdict,
    residue_sum_table,
    sign_fact_report,
    theorem1_sums,
    theorem1_verdict,
)
from anticirculant.polyeval import residue_components
from anticirculant.tensor import CirculantSpec, pattern_witnesses


def _compositions(m, parts):
    """Every tuple of ``parts`` counts >= 0 that add up to m."""
    if parts == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in _compositions(m - first, parts - 1):
            yield (first,) + rest


def enumerated_residue_sums(m, r, pattern):
    """S_0..S_{r-1} by their definition, without the evaluation kernel.

    S_j sums ``m!/(k_1! ... k_L!) * t_1**k_1 * ... * t_L**k_L`` over the
    counts with ``k_1 + ... + k_L = m`` whose weighted position sum
    ``1*k_1 + ... + L*k_L`` is congruent to j mod r.
    """
    sums = [0] * r
    for counts in _compositions(m, len(pattern)):
        term = math.factorial(m)
        for c in counts:
            term //= math.factorial(c)
        for t, c in zip(pattern, counts):
            term *= t**c
        weight = sum(c * (pos + 1) for pos, c in enumerate(counts))
        sums[weight % r] += term
    return tuple(sums)


def _written_out_theorem1_sums(u, order):
    """D_i = sum_j (-1)**j * binom(order, j) * u[(i + j) mod p], term by term."""
    p = len(u)
    return tuple(
        sum((-1) ** j * math.comb(order, j) * u[(i + j) % p] for j in range(order + 1))
        for i in range(p)
    )


class TestAlternatingSums:
    def test_constant_sequence_annihilated(self):
        assert theorem1_sums(PeriodicSequence((5, 5, 5)), 2) == (0, 0, 0)

    def test_hand_computed_second_differences(self):
        assert theorem1_sums(PeriodicSequence((1, 2, 3)), 2) == (0, -3, 3)

    def test_period_two_third_order(self):
        assert theorem1_sums(PeriodicSequence((1, 0)), 3) == (4, -4)

    def test_exact_rational_arithmetic(self):
        seq = PeriodicSequence((Fraction(1, 3), Fraction(1, 7)))
        sums = theorem1_sums(seq, 1)
        assert sums == (Fraction(4, 21), Fraction(-4, 21))

    def test_rejects_tiny_period(self):
        with pytest.raises(ValueError):
            PeriodicSequence((1,))

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            theorem1_sums(PeriodicSequence((1, 2)), 0)

    @given(
        value=st.fractions(max_denominator=50),
        p=st.integers(2, 6),
        order=st.integers(1, 8),
    )
    def test_constant_sequences_yield_zero(self, value, p, order):
        sums = theorem1_sums(PeriodicSequence((value,) * p), order)
        assert sums == (0,) * p

    @settings(deadline=None, max_examples=300)
    @given(
        u=st.lists(st.one_of(st.integers(-9, 9), st.fractions(max_denominator=20)),
                   min_size=2, max_size=6),
        order=st.integers(1, 40),
    )
    def test_matches_written_out_sums(self, u, order):
        seq = PeriodicSequence(tuple(u))
        sums = theorem1_sums(seq, order)
        expected = _written_out_theorem1_sums(seq.u, order)
        assert sums == expected
        assert [type(d) for d in sums] == [type(d) for d in expected] == [Fraction] * len(u)


def _verdict(seq, order):
    return theorem1_verdict(seq, theorem1_sums(seq, order))


class TestRigidityVerdict:
    def test_constant_is_forced(self):
        for order in range(1, 9):
            verdict = _verdict(PeriodicSequence((7, 7, 7, 7)), order)
            assert verdict == SequenceVerdict.FORCED_CONSTANT

    def test_nonconstant_mixes_signs(self):
        assert _verdict(PeriodicSequence((1, 2, 3)), 2) == SequenceVerdict.MIXED_SIGNS

    def test_one_signed_sums_on_a_nonconstant_sequence_raise(self):
        with pytest.raises(RigidityViolation, match="one-signed sums"):
            theorem1_verdict(PeriodicSequence((1, 2, 3)), (0, 1, 2))

    @settings(deadline=None, max_examples=300)
    @given(
        u=st.lists(st.fractions(max_denominator=20), min_size=2, max_size=6),
        order=st.integers(1, 8),
    )
    def test_nonconstant_never_forced(self, u, order):
        # the rigidity contrapositive: one-signed sums force constancy, so a
        # non-constant sequence must produce mixed signs
        seq = PeriodicSequence(tuple(u))
        if seq.is_constant():
            assert _verdict(seq, order) == SequenceVerdict.FORCED_CONSTANT
        else:
            assert _verdict(seq, order) == SequenceVerdict.MIXED_SIGNS

    def test_violation_type_is_loud(self):
        assert issubclass(RigidityViolation, AssertionError)


class TestResidueSumTable:
    def test_alternating_pattern_order_six(self):
        assert residue_sum_table(6, 3, (1, -1)) == (-18, 9, 9)

    def test_alternating_pattern_order_twelve(self):
        sums = residue_sum_table(12, 3, (1, -1))
        assert sums == (486, -243, -243)
        assert sums[0] > 0

    def test_even_odd_binomial_halves(self):
        assert residue_sum_table(4, 2, (1, 1)) == (8, 8)

    def test_three_entry_pattern_order_twelve(self):
        assert residue_sum_table(12, 3, (1, -3, 2)) == (
            -37300986,
            -18878427,
            56179413,
        )

    def test_swapped_pattern_pair(self):
        a = residue_sum_table(12, 3, (1, -3, 2))
        b = residue_sum_table(12, 3, (1, 2, -3))
        assert a[0] == b[0]
        assert (a[1], a[2]) == (b[2], b[1])
        assert b[1] - b[2] != 0

    def test_telescoping_total(self):
        assert sum(residue_sum_table(6, 3, (1, 1, -2))) == 0

    @given(
        m=st.integers(1, 12),
        r=st.integers(1, 6),
        pattern=st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    )
    def test_total_is_power_of_pattern_sum(self, m, r, pattern):
        assert sum(residue_sum_table(m, r, tuple(pattern))) == sum(pattern) ** m

    @settings(deadline=None, max_examples=300)
    @given(
        m=st.integers(1, 12),
        r=st.integers(1, 7),
        pattern=st.lists(st.integers(-3, 3), min_size=1, max_size=6),
    )
    def test_matches_enumeration(self, m, r, pattern):
        sums = residue_sum_table(m, r, pattern)
        assert sums == enumerated_residue_sums(m, r, pattern)
        assert [type(s) for s in sums] == [int] * r

    @pytest.mark.parametrize("m, r", [(3000, 1000), (2000, 500), (3000, 3), (7, 400)])
    def test_two_entry_pattern_at_wide_and_narrow_r(self, m, r):
        # (1, 1): S_j adds binom(m, k) over the k with m + k = j mod r
        expected = [0] * r
        for k in range(m + 1):
            expected[(m + k) % r] += math.comb(m, k)
        assert residue_sum_table(m, r, (1, 1)) == tuple(expected)

    @given(m=st.integers(1, 15))
    def test_alternating_tail_symmetry(self, m):
        # binomial reflection C(m, p) = C(m, m-p) makes S_1 = S_2 for (1, -1)
        # at even orders (odd orders flip the sign under p -> m-p)
        sums = residue_sum_table(2 * m, 3, (1, -1))
        assert sums[1] == sums[2]

    def test_input_validation(self):
        # any pattern length past zero is answered
        five = (1, -1, 2, 0, 1)
        assert residue_sum_table(6, 3, five) == enumerated_residue_sums(6, 3, five) == (225, 252, 252)
        with pytest.raises(ValueError, match="at least one entry"):
            residue_sum_table(6, 3, ())
        with pytest.raises(ValueError):
            residue_sum_table(6, 3, (1.5, -1))
        with pytest.raises(ValueError):
            residue_sum_table(0, 3, (1, -1))
        with pytest.raises(ValueError):
            residue_sum_table(6, 0, (1, -1))

    @pytest.mark.parametrize("pattern", [(1, -1), (1, 1, -2), (1, -3, 2), (1, 2, -3)])
    @pytest.mark.parametrize("m", SPECIAL_R3_ORDERS)
    def test_agrees_with_float_residue_split(self, pattern, m):
        # the table and the split of a float witness, both against enumeration:
        # the split's float components are the enumerated sums rounded once
        expected = enumerated_residue_sums(m, 3, pattern)
        assert residue_sum_table(m, 3, pattern) == expected
        n = max(3, len(pattern))
        spec = CirculantSpec(m, n, 3, (1, 1, 1))
        x = tuple(map(float, pattern_witnesses(n, (pattern,))[0].x))
        assert residue_components(spec, x) == tuple(map(float, expected))


class TestSignFactReport:
    def test_every_row_passes(self):
        rows = sign_fact_report()
        assert rows
        assert all(row.passed for row in rows)

    def test_rows_match_enumeration(self):
        # the facts stay checked independently of the kernel that computes them
        for row in sign_fact_report():
            assert row.r == 3
            assert row.sums == enumerated_residue_sums(row.m, 3, row.pattern)

    def test_negative_leading_sums_at_special_orders(self):
        for m in (6, 18, 30, 42):
            assert residue_sum_table(m, 3, (1, -1))[0] < 0
            assert residue_sum_table(m, 3, (1, 1, -2))[0] > 0

    def test_order_twelve_flips(self):
        assert residue_sum_table(12, 3, (1, -1))[0] > 0
        assert residue_sum_table(12, 3, (1, -3, 2))[0] < 0

    def test_report_covers_all_special_orders(self):
        rows = sign_fact_report()
        orders = {row.m for row in rows}
        assert orders == set(SPECIAL_R3_ORDERS)

    def test_rows_carry_exact_sums(self):
        rows = sign_fact_report()
        by_key = {(row.m, row.pattern, row.requirement): row for row in rows}
        row = by_key[(6, (1, -1), "S0 < 0")]
        assert row.sums == (-18, 9, 9)
        assert row.r == 3

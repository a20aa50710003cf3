"""Tests for generating vectors, circulant expansion, Hankel views, witnesses."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from anticirculant.tensor import (
    CirculantSpec,
    GeneratingVector,
    HankelTensor,
    WitnessVector,
    alpha_template,
    candidate_witnesses,
    entry,
    expand,
    genvec_length,
    hankel_matrix,
    pattern_vector,
    witnesses,
)


class TestGeneratingVector:
    def test_length_formula(self):
        assert genvec_length(4, 3) == 9
        assert genvec_length(2, 2) == 3
        assert genvec_length(10, 5) == 41

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="9 entries"):
            GeneratingVector(4, 3, (1, 2, 3))

    def test_rejects_small_order_or_dimension(self):
        with pytest.raises(ValueError):
            GeneratingVector(1, 3, (1, 2, 3))
        with pytest.raises(ValueError):
            GeneratingVector(2, 1, (1, 2, 3))

    def test_values_kept_exact(self):
        v = (Fraction(1, 3),) * 9
        gen = GeneratingVector(4, 3, v)
        assert gen.v[0] == Fraction(1, 3)
        assert isinstance(gen.v[0], Fraction)

    def test_max_abs(self):
        gen = GeneratingVector(2, 2, (1, -4, 2))
        assert gen.max_abs() == 4.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GeneratingVector(2, 2, (1.0, bad, 1.0))

    def test_huge_exact_entries_are_finite(self):
        GeneratingVector(2, 2, (10**400, Fraction(10**400, 3), 1))


class TestCirculantSpec:
    def test_expand_constant(self):
        assert expand(CirculantSpec(2, 2, 1, (1,))).v == (1, 1, 1)

    def test_expand_period_three(self):
        gen = expand(CirculantSpec(4, 3, 3, (1, 2, 3)))
        assert gen.v == (1, 2, 3, 1, 2, 3, 1, 2, 3)

    def test_expand_alternating(self):
        gen = expand(CirculantSpec(4, 4, 2, (1, 0.5)))
        assert len(gen.v) == 13
        assert gen.v == (1, 0.5) * 6 + (1,)

    def test_rejects_index_below_one(self):
        with pytest.raises(ValueError):
            CirculantSpec(4, 3, 0, ())

    def test_rejects_index_above_cap(self):
        # cap is max(n, 2n - 4): for n = 3 that is 3, for n = 5 it is 6
        with pytest.raises(ValueError):
            CirculantSpec(4, 3, 4, (1, 2, 3, 4))
        CirculantSpec(4, 5, 6, (1,) * 6)  # allowed: 2n - 4 = 6 > n

    def test_rejects_seed_length_mismatch(self):
        with pytest.raises(ValueError, match="seed"):
            CirculantSpec(4, 3, 2, (1,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_seed(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CirculantSpec(4, 4, 2, (bad, 1))

    @given(
        m=st.integers(2, 8),
        n=st.integers(2, 6),
        data=st.data(),
    )
    def test_expand_is_periodic(self, m, n, data):
        r = data.draw(st.integers(1, max(n, 2 * n - 4)), label="r")
        seed = data.draw(
            st.tuples(*([st.integers(-5, 5)] * r)), label="seed"
        )
        gen = expand(CirculantSpec(m, n, r, seed))
        length = genvec_length(m, n)
        for i in range(length - r):
            assert gen.v[i] == gen.v[i + r]

    @given(m=st.integers(2, 6), n=st.integers(2, 6))
    def test_classical_index_depends_on_residue(self, m, n):
        # r = n recovers the classical anti-circulant structure: the value at
        # position i depends only on i mod n.
        seed = tuple(range(1, n + 1))
        gen = expand(CirculantSpec(m, n, n, seed))
        for i, value in enumerate(gen.v):
            assert value == seed[i % n]


class TestHankelEntries:
    def test_small_matrix_case(self):
        gen = GeneratingVector(2, 2, (1, 1, 1))
        assert entry(gen, (1, 2)) == 1

    def test_direct_lookup(self):
        gen = expand(CirculantSpec(4, 3, 3, (1, 2, 3)))
        assert entry(gen, (3, 3, 3, 3)) == gen.v[8] == 3

    def test_permutation_symmetry_example(self):
        gen = expand(CirculantSpec(4, 3, 3, (1, 2, 3)))
        assert entry(gen, (1, 2, 1, 1)) == entry(gen, (2, 1, 1, 1))

    @given(data=st.data())
    def test_permutation_symmetry(self, data):
        m = data.draw(st.integers(2, 5), label="m")
        n = data.draw(st.integers(2, 4), label="n")
        v = data.draw(
            st.lists(
                st.integers(-9, 9),
                min_size=genvec_length(m, n),
                max_size=genvec_length(m, n),
            ),
            label="v",
        )
        gen = GeneratingVector(m, n, tuple(v))
        idx = data.draw(st.tuples(*([st.integers(1, n)] * m)), label="idx")
        perm = data.draw(st.permutations(list(idx)), label="perm")
        assert entry(gen, idx) == entry(gen, tuple(perm))

    def test_rejects_bad_indices(self):
        gen = GeneratingVector(2, 2, (1, 1, 1))
        with pytest.raises(ValueError):
            entry(gen, (1,))
        with pytest.raises(ValueError):
            entry(gen, (0, 1))
        with pytest.raises(ValueError):
            entry(gen, (1, 3))

    def test_materialize_matches_entry(self):
        gen = expand(CirculantSpec(3, 3, 3, (1, 2, 3)))
        dense = HankelTensor(gen).materialize()
        for idx in itertools.product(range(1, 4), repeat=3):
            assert dense[tuple(i - 1 for i in idx)] == entry(gen, idx)

    def test_materialize_cap(self):
        gen = expand(CirculantSpec(4, 3, 1, (1,)))
        with pytest.raises(ValueError, match="cap"):
            HankelTensor(gen).materialize(cap=80)

    def test_materialize_read_only(self):
        gen = expand(CirculantSpec(2, 2, 1, (1,)))
        dense = HankelTensor(gen).materialize()
        with pytest.raises(ValueError):
            dense[0, 0] = 5.0


class TestHankelMatrix:
    def test_two_by_two(self):
        hm = hankel_matrix(GeneratingVector(2, 2, (1, 1, 1)))
        assert hm.size == 2
        assert np.array_equal(hm.a, np.ones((2, 2)))

    def test_all_ones_five_by_five(self):
        hm = hankel_matrix(expand(CirculantSpec(4, 3, 1, (1,))))
        assert hm.size == 5
        assert np.array_equal(hm.a, np.ones((5, 5)))

    def test_alternating_signs(self):
        hm = hankel_matrix(expand(CirculantSpec(4, 4, 2, (1, -1))))
        assert hm.size == 7
        expected = np.fromfunction(lambda i, j: (-1.0) ** (i + j), (7, 7))
        assert np.array_equal(hm.a, expected)

    def test_rejects_odd_order(self):
        gen = GeneratingVector(3, 3, tuple(range(7)))
        with pytest.raises(ValueError, match="even"):
            hankel_matrix(gen)

    @given(data=st.data())
    def test_entries_depend_on_index_sum(self, data):
        m = data.draw(st.sampled_from([2, 4, 6]), label="m")
        n = data.draw(st.integers(2, 5), label="n")
        v = data.draw(
            st.lists(
                st.integers(-9, 9),
                min_size=genvec_length(m, n),
                max_size=genvec_length(m, n),
            ),
            label="v",
        )
        hm = hankel_matrix(GeneratingVector(m, n, tuple(v)))
        assert np.array_equal(hm.a, hm.a.T)
        for i in range(hm.size):
            for j in range(hm.size):
                assert hm.a[i, j] == v[i + j]

    def test_uses_whole_generating_vector(self):
        # the bottom-right entry reads the last generating value
        gen = GeneratingVector(4, 3, (0,) * 8 + (7,))
        hm = hankel_matrix(gen)
        assert hm.a[-1, -1] == 7


class TestWitnesses:
    def test_unit_difference_n3(self):
        got = [w.x for w in witnesses(3, "unit-difference")]
        assert got == [(1, -1, 0), (0, 1, -1), (-1, 0, 1)]

    def test_step2_difference_n4(self):
        got = [w.x for w in witnesses(4, "step-2-difference")]
        assert got == [(1, 0, -1, 0), (0, 1, 0, -1), (-1, 0, 1, 0), (0, -1, 0, 1)]

    def test_step2_needs_three_coordinates(self):
        with pytest.raises(ValueError, match="n >= 3"):
            witnesses(2, "step-2-difference")

    def test_pattern_family(self):
        got = witnesses(4, "pattern:1,-1,-1,1")
        assert len(got) == 1
        assert got[0].x == (1, -1, -1, 1)

    def test_pattern_needs_room(self):
        with pytest.raises(ValueError):
            pattern_vector((1, -1, -1, 1), 3)
        with pytest.raises(ValueError):
            pattern_vector((0, 0), 4)

    def test_pattern_zero_padding(self):
        assert pattern_vector((1, -1), 5) == (1, -1, 0, 0, 0)

    def test_alpha_family_values(self):
        got = {w.label: w.x for w in witnesses(3, "alpha", alpha=2.0)}
        # q=1 wraps e_0 to e_3: x = e_1 + alpha*e_3 - alpha*e_2
        assert got["alpha(q=1, alpha=2.0)"] == (1, -2.0, 2.0)
        assert got["alpha(q=2, alpha=2.0)"] == (2.0, 1, -2.0)

    def test_alpha_neg_flips_center(self):
        plus = witnesses(3, "alpha", alpha=4.0)[1].x
        minus = witnesses(3, "alpha-neg", alpha=4.0)[1].x
        assert plus == (4.0, 1, -4.0)
        assert minus == (4.0, -1, -4.0)

    def test_alpha_template_matches_concrete(self):
        for family in ("alpha", "alpha-neg"):
            for q in range(1, 5):
                coords = alpha_template(family, q, 4)
                concrete = witnesses(4, family, alpha=3.0)[q - 1].x
                assert tuple(c0 + c1 * 3.0 for c0, c1 in coords) == concrete

    def test_alpha_needs_value_and_room(self):
        with pytest.raises(ValueError, match="alpha"):
            witnesses(3, "alpha")
        with pytest.raises(ValueError, match="n >= 3"):
            alpha_template("alpha", 1, 2)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown"):
            witnesses(3, "mystery")

    def test_witness_vector_must_be_nonzero(self):
        with pytest.raises(ValueError):
            WitnessVector((0, 0, 0), "zero")

    def test_candidate_order_is_stable(self):
        first = [w.x for w in candidate_witnesses(4)]
        second = [w.x for w in candidate_witnesses(4)]
        assert first == second
        # unit differences lead, named patterns close the list
        assert first[0] == (1, -1, 0, 0)
        assert first[-1] == (1, -1, -1, 1)

    def test_candidates_for_flat_dimension(self):
        got = candidate_witnesses(2)
        labels = {w.label for w in got}
        assert all("alpha" not in label for label in labels)
        assert (1, -1) in {w.x for w in got}

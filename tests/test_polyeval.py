"""Tests for polynomial evaluation: profiles, fast/naive agreement, residues."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from anticirculant.polyeval import (
    conv_power,
    convolve,
    eval_fast,
    eval_naive,
    residue_components,
    value_and_gradient,
)
from anticirculant.tensor import (
    CirculantSpec,
    GeneratingVector,
    alpha_template,
    expand,
    genvec_length,
)


def gen_strategy(max_m=6, max_n=4):
    @st.composite
    def build(draw):
        m = draw(st.integers(2, max_m))
        n = draw(st.integers(2, max_n))
        length = genvec_length(m, n)
        v = draw(
            st.lists(
                st.floats(-1, 1, allow_nan=False, allow_infinity=False, width=32),
                min_size=length,
                max_size=length,
            )
        )
        return GeneratingVector(m, n, tuple(v))

    return build()


def x_for(gen, draw_values):
    return tuple(draw_values[: gen.n])


class TestConvolution:
    def test_matches_polynomial_squares(self):
        assert convolve([1, -1], [1, -1]) == [1, -2, 1]
        assert convolve([1, 2], [3, 4]) == [3, 10, 8]

    def test_exact_on_fractions(self):
        out = convolve([Fraction(1, 3)], [Fraction(3, 5)])
        assert out == [Fraction(1, 5)]

    def test_conv_power_examples(self):
        assert conv_power([1, -1], 2) == [1, -2, 1]
        assert conv_power([1, 1, 1], 2) == [1, 2, 3, 2, 1]
        assert conv_power([1, 0, -1], 2) == [1, 0, -2, 0, 1]

    def test_conv_power_length(self):
        assert len(conv_power((1.0, 2.0, 3.0), 4)) == genvec_length(4, 3)

    def test_conv_power_total_is_power_of_sum(self):
        assert sum(conv_power((1, 2, 3), 4)) == 6**4

    @given(
        x=st.lists(st.integers(-5, 5), min_size=2, max_size=4),
        m=st.integers(2, 5),
    )
    def test_conv_power_total_property(self, x, m):
        assert sum(conv_power(tuple(x), m)) == sum(x) ** m

    def test_conv_power_rejects_zero(self):
        with pytest.raises(ValueError):
            conv_power([1, 2], 0)

    @given(
        a=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        b=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    )
    def test_convolution_commutes(self, a, b):
        assert convolve(a, b) == convolve(b, a)


class TestEvaluation:
    def test_naive_square_examples(self):
        gen = GeneratingVector(2, 2, (1, 1, 1))
        assert eval_naive(gen, (1, 1)) == 4
        assert eval_naive(gen, (1, -1)) == 0

    def test_naive_hand_enumeration(self):
        gen = GeneratingVector(2, 2, (1, 0, 1))
        assert eval_naive(gen, (1, -1)) == 2
        assert eval_fast(gen, (1, -1)) == 2

    def test_fast_power_sum(self):
        gen = expand(CirculantSpec(4, 3, 1, (1,)))
        assert eval_fast(gen, (1, 1, 1)) == 81

    def test_fast_kills_alternating_sum(self):
        gen = expand(CirculantSpec(6, 3, 3, (1, 1, 1)))
        assert eval_fast(gen, (1, -1, 0)) == 0

    def test_naive_cap(self):
        gen = expand(CirculantSpec(4, 3, 1, (1,)))
        with pytest.raises(ValueError, match="cap"):
            eval_naive(gen, (1, 1, 1), cap=10)

    def test_dimension_mismatch(self):
        gen = GeneratingVector(2, 2, (1, 1, 1))
        with pytest.raises(ValueError, match="coordinates"):
            eval_fast(gen, (1, 1, 1))

    def test_exact_arithmetic_survives(self):
        gen = GeneratingVector(2, 2, (Fraction(1, 3),) * 3)
        out = eval_fast(gen, (Fraction(1, 2), Fraction(1, 2)))
        assert out == Fraction(1, 3)
        assert isinstance(out, Fraction)

    @settings(deadline=None, max_examples=60)
    @given(gen=gen_strategy(), data=st.data())
    def test_fast_matches_naive(self, gen, data):
        x = tuple(
            data.draw(st.floats(-1, 1, allow_nan=False, width=32))
            for _ in range(gen.n)
        )
        fast = eval_fast(gen, x)
        naive = eval_naive(gen, x)
        assert abs(fast - naive) <= 1e-10 * max(1.0, abs(fast), abs(naive))

    @settings(deadline=None, max_examples=60)
    @given(gen=gen_strategy(), data=st.data())
    def test_homogeneity(self, gen, data):
        x = tuple(
            data.draw(st.floats(-1, 1, allow_nan=False, width=32))
            for _ in range(gen.n)
        )
        lam = data.draw(st.floats(0.25, 2.0, width=32))
        scaled = eval_fast(gen, tuple(lam * t for t in x))
        direct = lam**gen.m * eval_fast(gen, x)
        assert abs(scaled - direct) <= 1e-10 * max(1.0, abs(scaled), abs(direct))


class TestGradient:
    def test_square_gradient(self):
        gen = GeneratingVector(2, 2, (1, 1, 1))
        assert value_and_gradient(gen, (1, 1))[1] == (4, 4)
        assert value_and_gradient(gen, (1, -1))[1] == (0, 0)

    def test_zero_point(self):
        gen = expand(CirculantSpec(4, 3, 1, (1,)))
        assert value_and_gradient(gen, (0, 0, 0))[1] == (0, 0, 0)

    def test_value_and_gradient_consistent(self):
        gen = expand(CirculantSpec(4, 3, 3, (1, 2, 3)))
        x = (0.3, -0.7, 0.5)
        value, grad = value_and_gradient(gen, x)
        assert value == eval_fast(gen, x)
        assert len(grad) == gen.n

    @settings(deadline=None, max_examples=40)
    @given(gen=gen_strategy(max_m=5), data=st.data())
    def test_matches_finite_differences(self, gen, data):
        x = tuple(
            data.draw(st.floats(-1, 1, allow_nan=False, width=32))
            for _ in range(gen.n)
        )
        h = 1e-5
        grad = value_and_gradient(gen, x)[1]
        for i in range(gen.n):
            up = list(x)
            down = list(x)
            up[i] += h
            down[i] -= h
            fd = (eval_fast(gen, tuple(up)) - eval_fast(gen, tuple(down))) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-5

    @settings(deadline=None, max_examples=60)
    @given(gen=gen_strategy(), data=st.data())
    def test_euler_identity(self, gen, data):
        x = tuple(
            data.draw(st.floats(-1, 1, allow_nan=False, width=32))
            for _ in range(gen.n)
        )
        value, grad = value_and_gradient(gen, x)
        paired = sum(g * t for g, t in zip(grad, x))
        target = gen.m * value
        assert abs(paired - target) <= 1e-8 * max(1.0, abs(paired), abs(target))


class TestResidueComponents:
    def test_r3_alternating(self):
        spec = CirculantSpec(6, 3, 3, (1, 1, 1))
        assert residue_components(spec, (1, -1, 0)) == (-18, 9, 9)

    def test_r2_binomial_halves(self):
        spec = CirculantSpec(4, 4, 2, (1, 1))
        assert residue_components(spec, (1, 1, 0, 0)) == (8, 8)

    def test_quartic_step2_pattern(self):
        spec = CirculantSpec(4, 4, 4, (1, 1, 1, 1))
        parts = residue_components(spec, (1, 0, -1, 0))
        assert parts == (8, 0, -8, 0)
        assert parts[0] == -parts[2] > 0

    def test_components_ignore_seed_values(self):
        a = CirculantSpec(6, 3, 3, (1, 1, 1))
        b = CirculantSpec(6, 3, 3, (5, -2, 7))
        x = (0.4, -1.1, 0.3)
        assert residue_components(a, x) == residue_components(b, x)

    def test_weighted_recombination_matches_eval(self):
        spec = CirculantSpec(6, 3, 3, (5, -2, 7))
        x = (Fraction(2, 5), Fraction(-3, 5), Fraction(1, 5))
        parts = residue_components(spec, x)
        f = sum(s * p for s, p in zip(spec.seed, parts))
        assert f == eval_fast(expand(spec), x)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_components_sum_to_power(self, data):
        m = data.draw(st.integers(2, 6), label="m")
        n = data.draw(st.integers(2, 5), label="n")
        r = data.draw(st.integers(1, max(n, 2 * n - 4)), label="r")
        spec = CirculantSpec(m, n, r, (1,) * r)
        x = tuple(
            data.draw(st.floats(-1, 1, allow_nan=False, width=32))
            for _ in range(n)
        )
        parts = residue_components(spec, x)
        total = sum(parts)
        target = sum(x) ** m
        assert abs(total - target) <= 1e-10 * max(1.0, abs(total), abs(target))


def _alpha_values(spec, family, q):
    """f along the alpha witness family at alpha = 0..m+1, exactly (int seeds)."""
    gen = expand(spec)
    template = alpha_template(family, q, spec.n)
    return [
        eval_fast(gen, tuple(c0 + c1 * alpha for c0, c1 in template))
        for alpha in range(spec.m + 2)
    ]


def _differences(values, order):
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


def _top_coefficients(values, m):
    """(a_m, a_{m-1}) of a degree-m polynomial from its values at 0..m.

    Forward differences at 0: Delta^m p = m! a_m and
    Delta^(m-1) p = (m-1)! (a_{m-1} + C(m, 2) a_m).
    """
    lead = Fraction(_differences(values, m)[0], math.factorial(m))
    sub = Fraction(_differences(values, m - 1)[0], math.factorial(m - 1))
    return lead, sub - math.comb(m, 2) * lead


class TestAlphaCoefficients:
    """f along ``alpha*e_{q-1} +/- e_q - alpha*e_{q+1}`` is a polynomial in alpha."""

    def test_leading_power_vanishes_for_alternating_seeds(self):
        # constant even-index values kill the alpha^m coefficient
        spec = CirculantSpec(4, 4, 2, (1, 3))
        for q in range(1, 5):
            lead, _ = _top_coefficients(_alpha_values(spec, "alpha", q), spec.m)
            assert lead == 0

    def test_subleading_power_vanishes_when_odd_seeds_equal(self):
        spec = CirculantSpec(4, 4, 2, (1, 3))
        for q in range(1, 5):
            _, sub = _top_coefficients(_alpha_values(spec, "alpha", q), spec.m)
            assert sub == 0

    def test_constant_in_alpha_for_matrix_case(self):
        spec = CirculantSpec(2, 3, 1, (1,))
        assert _alpha_values(spec, "alpha", 2) == [1, 1, 1, 1]

    def test_subleading_coefficient_formula_interior(self):
        # against the closed form m * sum_j C(m-1, j) (-1)^j v[m*q - 2*m + 1 + 2*j]
        spec = CirculantSpec(4, 5, 4, (2, -1, 3, 7))
        gen = expand(spec)
        m = spec.m
        for q in (3, 4):  # interior shifts: no cyclic wrap in the index formula
            _, sub = _top_coefficients(_alpha_values(spec, "alpha", q), m)
            closed = m * sum(
                math.comb(m - 1, j) * (-1) ** j * gen.v[m * q - 2 * m + 1 + 2 * j]
                for j in range(m)
            )
            assert sub == closed

    def test_degree_bound(self):
        # linear coordinates in alpha: the (m+1)-th difference vanishes
        spec = CirculantSpec(6, 5, 4, (1, 0, 1, 0))
        values = _alpha_values(spec, "alpha-neg", 3)
        assert _differences(values, spec.m) != [0]
        assert _differences(values, spec.m + 1) == [0]

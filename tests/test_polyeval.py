"""Tests for polynomial evaluation: the coefficient kernel, fast/naive agreement, residues."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from anticirculant import polyeval
from anticirculant.combinatorics import residue_sum_table
from anticirculant.polyeval import (
    cyclic_power,
    eval_exact,
    eval_fast,
    eval_naive,
    residue_components,
    rounded,
    value_and_gradient,
)
from anticirculant.tensor import (
    CirculantSpec,
    GeneratingVector,
    alpha_template,
    expand,
    genvec_length,
    max_circulant_index,
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


def profile(x, m):
    """The whole coefficient profile of ``p(z)**m``: ``cyclic_power`` at r = L."""
    return cyclic_power(x, m, genvec_length(m, len(x)))


class TestConvolution:
    """``cyclic_power`` at r = L is the convolution power of x."""

    def test_matches_polynomial_squares(self):
        assert profile([1, -1], 2) == [1, -2, 1]
        assert profile([1, 2], 2) == [1, 4, 4]

    def test_exact_on_fractions(self):
        out = profile([Fraction(1, 3), Fraction(3, 5)], 2)
        assert out == [Fraction(1, 9), Fraction(2, 5), Fraction(9, 25)]

    def test_conv_power_examples(self):
        assert profile([1, -1], 2) == [1, -2, 1]
        assert profile([1, 1, 1], 2) == [1, 2, 3, 2, 1]
        assert profile([1, 0, -1], 2) == [1, 0, -2, 0, 1]

    def test_conv_power_length(self):
        assert len(profile((1.0, 2.0, 3.0), 4)) == genvec_length(4, 3)

    def test_conv_power_total_is_power_of_sum(self):
        assert sum(profile((1, 2, 3), 4)) == 6**4

    @given(
        x=st.lists(st.integers(-5, 5), min_size=2, max_size=4),
        m=st.integers(2, 5),
    )
    def test_conv_power_total_property(self, x, m):
        assert sum(profile(tuple(x), m)) == sum(x) ** m

    def test_conv_power_rejects_zero(self):
        with pytest.raises(ValueError):
            profile([1, 2], 0)


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

    def test_exact_gradient_is_the_naive_one(self):
        # grad_i = m * f_i(x), with f_i the order-(m-1) form of v[i:]
        gen = expand(CirculantSpec(6, 4, 3, (Fraction(1, 3), 2, -1)))
        x = (Fraction(1, 2), -1, 0, 2)
        value, grad = value_and_gradient(gen, x)
        assert value == eval_fast(gen, x) == eval_naive(gen, x)
        width = genvec_length(gen.m - 1, gen.n)
        for i, g in enumerate(grad):
            assert type(g) is Fraction
            assert g == gen.m * eval_naive(GeneratingVector(gen.m - 1, gen.n, gen.v[i : i + width]), x)

    def test_float_gradient_is_the_exact_one_rounded_once(self):
        rng = random.Random(14)
        checked = 0
        while checked < 150:
            gen, x = _mixed_case(rng)
            if gen.m < 3:
                continue
            if float not in set(map(type, gen.v + x)):
                x = x[:-1] + (float(x[-1]),)
            value, grad = value_and_gradient(gen, x)
            assert value == eval_fast(gen, x)
            v, fx = tuple(map(Fraction, gen.v)), tuple(map(Fraction, x))
            width = genvec_length(gen.m - 1, gen.n)
            for i, g in enumerate(grad):
                exact = gen.m * eval_naive(GeneratingVector(gen.m - 1, gen.n, v[i : i + width]), fx)
                assert type(g) is float
                try:
                    assert g == float(exact)
                except OverflowError:
                    assert g == (math.inf if exact > 0 else -math.inf)
            checked += 1

    def test_gradient_type_follows_the_value(self):
        rng = random.Random(15)
        for _ in range(400):
            gen, x = _exact_case(rng)
            value, grad = value_and_gradient(gen, x)
            assert value == eval_fast(gen, x)
            assert type(value) is _exact_type(gen, x)
            assert {type(g) for g in grad} == {type(value)}
        # a Fraction zero next to a nonzero int makes every entry a Fraction
        value, grad = value_and_gradient(expand(CirculantSpec(4, 3, 2, (1, 2))), (Fraction(0), 1, 0))
        assert (value, grad) == (1, (8, 4, 8))
        assert {type(value)} | {type(g) for g in grad} == {Fraction}

    def test_one_kernel_call_at_the_period(self, monkeypatch):
        seen = _recorded_periods(monkeypatch)
        cases = [
            (expand(CirculantSpec(6, 4, 3, (Fraction(1, 3), 2, -1))), (Fraction(1, 2), -1, 0, 2), 3),
            (expand(CirculantSpec(8, 6, 4, (1, 0.5, 1, 0.25))), (0.5, -1, 0, 0, 0.25, 0), 4),
            (GeneratingVector(4, 3, (0,) * 8 + (1,)), (1, 2, 3), 9),
        ]
        for gen, x, period in cases:
            seen.clear()
            value_and_gradient(gen, x)
            assert seen == [period]

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

    def test_recombination_rotates_the_seed_by_m(self):
        # components are keyed by the 1-based index sum, so seed[j] alone
        # pairs them only when m = 0 mod r
        spec = CirculantSpec(4, 4, 3, (1, 2, 5))
        x = (1, 2, -1, 3)
        parts = residue_components(spec, x)
        assert eval_fast(expand(spec), x) == 1821
        assert sum(spec.seed[(j - spec.m) % spec.r] * p for j, p in enumerate(parts)) == 1821
        assert sum(s * p for s, p in zip(spec.seed, parts)) == 2329

    @pytest.mark.parametrize("m, n, r", [(4, 4, 3), (6, 5, 4), (10, 4, 3), (8, 6, 5), (6, 7, 10)])
    def test_recombination_on_fraction_seeds(self, m, n, r):
        assert m % r != 0
        rng = random.Random(f"{m}:{n}:{r}")
        for _ in range(5):
            seed = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(r))
            spec = CirculantSpec(m, n, r, seed)
            x = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n))
            parts = residue_components(spec, x)
            f = sum(seed[(j - m) % r] * p for j, p in enumerate(parts))
            assert f == _dot_profile(expand(spec), x)

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

    def test_zero_entries_do_not_set_the_type(self):
        # components are exact sums over the nonzero entries of x: a
        # Fraction(0) coordinate leaves them ints, a nonzero Fraction makes
        # every one a Fraction
        spec = CirculantSpec(4, 4, 3, (1, 2, 5))
        parts = residue_components(spec, (Fraction(0), 1, 2, -1))
        assert parts == residue_components(spec, (0, 1, 2, -1)) == (-26, 13, 29)
        assert [type(p) for p in parts] == [int] * 3
        parts = residue_components(spec, (Fraction(1, 2), 1, 2, -1))
        assert parts == (Fraction(1, 2), Fraction(193, 16), Fraction(53, 2))
        assert [type(p) for p in parts] == [Fraction] * 3


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


def _dot_profile(gen, x):
    """f(x) over the whole coefficient profile (r = L): the reference for folding."""
    return sum(a * b for a, b in zip(gen.v, profile(x, gen.m)))


def _exact_type(gen, x):
    """The type of an exact f(x): Fraction if some entry of v is one, or if x
    is nonzero and some entry of x is one; else int."""
    def has_fraction(values):
        return any(type(t) is Fraction for t in values)

    return Fraction if has_fraction(gen.v) or (any(x) and has_fraction(x)) else int


def _naive_residue_sums(x, m, r):
    """Entry k: the sum of the profile coefficients at positions k mod r, as
    f(x) for the 0/1 vector of those positions, by brute-force enumeration."""
    n = len(x)
    length = genvec_length(m, n)
    return [
        eval_naive(GeneratingVector(m, n, [int(s % r == k) for s in range(length)]), x)
        for k in range(r)
    ]


def _recorded_periods(monkeypatch):
    """The r of every ``cyclic_power`` call that ``polyeval`` makes from now on."""
    seen = []

    def recording(x, m, r):
        seen.append(r)
        return cyclic_power(x, m, r)

    monkeypatch.setattr(polyeval, "cyclic_power", recording)
    return seen


def _exact_number(rng, kind):
    if kind == "int":
        return rng.randint(-6, 6)
    if kind == "fraction":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    mixed = (True, False, rng.randint(-4, 4), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return rng.choice(mixed)


def _exact_case(rng):
    """A generating vector and a point, every entry int, Fraction or bool.

    Specs share their seed objects over the vector.  Bare vectors either
    repeat a seed's objects, repeat its values as new objects (a Fraction
    vector of those has no period by identity and is folded at its period
    by value), or have free entries.
    """
    m, n = rng.randint(2, 10), rng.randint(2, 7)
    length = genvec_length(m, n)
    kind = rng.choice(("int", "fraction", "mixed"))
    shape = rng.choice(("spec", "periodic", "by-value", "free"))
    r = rng.randint(1, max_circulant_index(n))
    if shape == "spec":
        gen = expand(CirculantSpec(m, n, r, [_exact_number(rng, kind) for _ in range(r)]))
    elif shape == "periodic":
        seed = [_exact_number(rng, kind) for _ in range(r)]
        gen = GeneratingVector(m, n, [seed[s % r] for s in range(length)])
    elif shape == "by-value":
        seed = [_exact_number(rng, kind) for _ in range(r)]
        gen = GeneratingVector(m, n, [seed[s % r] + 0 for s in range(length)])
    else:
        gen = GeneratingVector(m, n, [_exact_number(rng, kind) for _ in range(length)])
    x_kind = rng.choice(("int", "fraction", "mixed", kind))
    x = []
    for _ in range(n):
        pick = rng.random()
        if pick < 0.2:
            x.append(rng.choice((0, Fraction(0), False)))
        else:
            x.append(_exact_number(rng, x_kind))
    return gen, tuple(x)


class TestResidueRoute:
    """``cyclic_power`` against independent references, and the r ``eval_fast`` picks."""

    def test_cyclic_power_folds_the_profile(self):
        # r from 1 to L + 3 against enumeration, with zero entries, an
        # all-zero x, x with only x_1 nonzero, Fractions and bools
        rng = random.Random(3)
        special = [(0, 0, 0), (Fraction(0), False, 0), (2, 0, 0), (Fraction(-1, 3), 0, False)]
        for trial in range(60):
            m, n = rng.randint(2, 5), rng.randint(2, 4)
            if trial < 2 * len(special):
                x = special[trial // 2]
                n = len(x)
            else:
                choices = (0, 0, True, False, rng.randint(-3, 3), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                x = tuple(rng.choice(choices) for _ in range(n))
            for r in range(1, genvec_length(m, n) + 4):
                assert cyclic_power(x, m, r) == _naive_residue_sums(x, m, r)

    def test_cyclic_power_matches_residue_sum_table(self):
        # the table keys a coefficient by its 1-based index sum, position + m
        rng = random.Random(4)
        for _ in range(60):
            m = rng.randint(1, 6)
            pattern = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
            for r in range(1, genvec_length(m, len(pattern)) + 4):
                folded = cyclic_power(pattern, m, r)
                expected = residue_sum_table(m, r, pattern).sums
                assert tuple(folded[(j - m) % r] for j in range(r)) == expected

    def test_cyclic_power_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclic_power([1, 2], 0, 2)

    def test_exact_input_equals_profile_by_value_and_type(self):
        rng = random.Random(10)
        routes = {True: 0, False: 0}
        for _ in range(1500):
            gen, x = _exact_case(rng)
            ours = eval_fast(gen, x)
            assert ours == _dot_profile(gen, x)
            assert type(ours) is _exact_type(gen, x)
            routes[polyeval._int_form(gen)[2] < len(gen.v)] += 1
        assert min(routes.values()) >= 300

    def test_float_input_is_the_profile_bitwise(self):
        # any float entry makes the value the exact profile sum rounded once
        rng = random.Random(11)
        for _ in range(400):
            gen, x = _exact_case(rng)
            where = rng.choice(("v", "x", "both", "all"))
            if where in ("v", "both"):
                v = list(gen.v)
                v[rng.randrange(len(v))] = rng.uniform(-2.0, 2.0)
                gen = GeneratingVector(gen.m, gen.n, v)
            if where in ("x", "both"):
                x = tuple(float(t) if rng.random() < 0.5 else t for t in x)
                x = x[:-1] + (rng.uniform(-1.0, 1.0),)
            if where == "all":
                gen = GeneratingVector(gen.m, gen.n, [float(t) + rng.uniform(-0.5, 0.5) for t in gen.v])
                x = tuple(float(t) + rng.uniform(-0.5, 0.5) for t in x)
            value = eval_fast(gen, x)
            as_fractions = GeneratingVector(gen.m, gen.n, [Fraction(t) for t in gen.v])
            assert type(value) is float
            assert value == float(eval_exact(gen, x))
            assert value == float(_dot_profile(as_fractions, tuple(map(Fraction, x))))

    @pytest.mark.parametrize("v", [(1, 0, 1), (Fraction(1, 3), 0, 1), (1.0, 0.0, 1.0)])
    def test_float_zero_point_gives_a_float(self, v):
        # every product is skipped at a zero point; a float entry still makes
        # the value and the gradient float64
        gen = GeneratingVector(2, 2, v)
        for x in ((0.0, -0.0), (0, 0.0)):
            assert repr(eval_fast(gen, x)) == "0.0"
            assert repr(value_and_gradient(gen, x)) == "(0.0, (0.0, 0.0))"

    def test_float_input_is_folded_at_a_period(self, monkeypatch):
        # v is scaled to ints once per instance, at its smallest period by
        # value, else r = L
        x = (1, -1, 0, 0, 0, 0)
        cases = [
            (expand(CirculantSpec(8, 6, 4, (1, 0.5, 1, 0.25))), x),
            (expand(CirculantSpec(8, 6, 4, (1, 2, 1, 2))), (0.5,) + x[1:]),
            (GeneratingVector(4, 3, [0.5 * (s % 2 + 1) for s in range(9)]), (1, -1, 2)),
            (GeneratingVector(4, 3, (0.5,) * 8 + (1.0,)), (1, -1, 2)),
        ]
        seen = _recorded_periods(monkeypatch)
        values = [eval_fast(gen, x) for gen, x in cases]
        assert seen == [4, 2, 2, 9]
        assert values == [float(eval_exact(gen, x)) for gen, x in cases]

    def test_periodic_exact_input_takes_the_residue_route(self, monkeypatch):
        seen = _recorded_periods(monkeypatch)
        spec = CirculantSpec(30, 5, 2, (Fraction(7, 3), Fraction(-9, 2)))
        assert eval_fast(expand(spec), (1, -1, 0, 0, 0)) == Fraction(11005853696, 3)
        seed = (Fraction(1, 3), 2, Fraction(-5, 7), 4, 1, 0)  # n = 5: r up to 6
        gen = GeneratingVector(4, 5, [seed[s % 6] for s in range(17)])
        assert eval_fast(gen, (1, 2, 0, -1, 3)) == _dot_profile(gen, (1, 2, 0, -1, 3))
        assert seen == [2, 6]

    def test_fraction_values_repeated_as_new_objects_fold_by_value(self, monkeypatch):
        seen = _recorded_periods(monkeypatch)
        seed = (Fraction(1, 3), 2, Fraction(-5, 7), 4, 1, 0)
        gen = GeneratingVector(4, 5, [seed[s % 6] + 0 for s in range(17)])
        x = (1, 2, 0, -1, 3)
        value = eval_fast(gen, x)
        assert value == _dot_profile(gen, x)
        assert type(value) is Fraction
        assert seen == [6]

    @pytest.mark.parametrize(
        "v, period",
        [
            ((0,) * 660 + (1,), 661),
            ((0,) * 330 + (1,) + (0,) * 330, 331),
            ((Fraction(1, 2),) * 660 + (Fraction(1),), 661),
            (tuple(Fraction(s % 21, 5) for s in range(661)), 21),  # 21 > max(n, 2n - 4)
        ],
    )
    def test_no_period_up_to_the_cap_folds_by_value(self, monkeypatch, v, period):
        seen = _recorded_periods(monkeypatch)
        gen = GeneratingVector(60, 12, v)
        x = (1, -1) + (0,) * 10
        value = eval_fast(gen, x)
        assert value == _dot_profile(gen, x)
        assert type(value) is type(v[-1])
        assert seen == [period]

    def test_period_search_is_the_smallest_repeat(self):
        # brute force agrees, with the length itself when nothing shorter repeats
        rng = random.Random(12)
        for _ in range(2000):
            length = rng.randint(1, 40)
            period = rng.randint(1, 12)
            base = [rng.randint(0, 1) for _ in range(period)]
            keys = tuple(base[s % period] for s in range(length))
            if rng.random() < 0.5:
                s = rng.randrange(length)
                keys = keys[:s] + (1 - keys[s],) + keys[s + 1 :]
            brute = next(r for r in range(1, length + 1) if keys[r:] == keys[: length - r])
            assert polyeval._repeat(keys) == brute


def _routes(monkeypatch):
    """Per kernel path, the calls ``cyclic_power`` makes from now on:
    ``packed`` gets ``(r, width in bits)``, ``loop`` gets r."""
    seen = {"packed": [], "loop": []}
    packed, loop = polyeval._packed_power, polyeval._cyclic_products

    def recording_packed(folded, m, b):
        seen["packed"].append((len(folded), len(folded) * b))
        return packed(folded, m, b)

    def recording_loop(folded, m, r):
        seen["loop"].append(r)
        return loop(folded, m, r)

    monkeypatch.setattr(polyeval, "_packed_power", recording_packed)
    monkeypatch.setattr(polyeval, "_cyclic_products", recording_loop)
    return seen


def _folded_power(x, m, r):
    """``cyclic_power``'s reference: the schoolbook power of p(z), folded mod r."""
    power = [1]
    for _ in range(m):
        power = [sum(c * x[i - j] for j, c in enumerate(power) if 0 <= i - j < len(x))
                 for i in range(len(power) + len(x) - 1)]
    out = [0] * r
    for s, c in enumerate(power):
        out[s % r] += c
    return out


def _both_paths(monkeypatch, x, m, r):
    """``cyclic_power(x, m, r)`` through the packed path and through the loop."""
    monkeypatch.setattr(polyeval, "PACKED_BITS_MAX", math.inf)
    packed = cyclic_power(x, m, r)
    monkeypatch.setattr(polyeval, "PACKED_BITS_MAX", -1)
    looped = cyclic_power(x, m, r)
    monkeypatch.undo()
    return packed, looped


class TestPackedPower:
    """Kronecker substitution in ``cyclic_power``: the loop's integers, for int input."""

    def test_packed_equals_the_loop_and_enumeration(self, monkeypatch):
        # negative entries, zeros, r = 1, m = 1, r > L, entries of 0 to 200 bits
        rng = random.Random(21)
        checked = 0
        for trial in range(1500):
            m, n = rng.randint(1, 12), rng.randint(1, 7)
            bits = rng.choice((0, 1, 2, 8, 30, 60, 120, 200))
            x = [rng.choice((0, rng.randint(-(1 << bits), 1 << bits))) for _ in range(n)]
            r = rng.choice((1, rng.randint(1, genvec_length(m, n) + 5)))
            packed, looped = _both_paths(monkeypatch, x, m, r)
            assert packed == looped == _folded_power(x, m, r)
            assert [type(t) for t in packed] == [int] * r
            if m > 1 and n > 1 and n**m <= 4096 and trial % 5 == 0:
                assert packed == _naive_residue_sums(x, m, r)
                checked += 1
        assert checked >= 100

    def test_edge_shapes(self, monkeypatch):
        cases = [
            ([0, 0, 0], 5, 2),          # x = 0
            ([7], 9, 1),                # r = 1, n = 1
            ([3, -2, 5], 1, 2),         # m = 1: the folded x
            ([-1, 1], 7, 1),            # the sum is 0
            ([1, -1, 2], 4, 40),        # r > L = 9
            ([-(1 << 200), 1 << 199, 0, -1], 3, 5),
            ([0, 0, 5], 6, 3),          # only x_3: folded to index 2
        ]
        for x, m, r in cases:
            packed, looped = _both_paths(monkeypatch, x, m, r)
            assert packed == looped == _folded_power(x, m, r)

    def test_cutoff_splits_the_routes(self, monkeypatch):
        # the width span * b, b = m * bits(sum |F_k|) + 2, on each side of the cutoff
        limit = polyeval.PACKED_BITS_MAX
        m, r = 8, 4
        s = (limit // r - 2) // m  # the widest sum that still packs, in bits
        assert r * (m * s + 2) <= limit < r * (m * (s + 1) + 2)
        below, above = [1 << (s - 1), -3, 0, 1], [1 << s, -3, 0, 1]
        seen = _routes(monkeypatch)
        values = [cyclic_power(x, m, r) for x in (below, above)]
        # past L - 1 = degree of F**m nothing wraps, and only L slots pack
        cyclic_power([1, -1, 2], 4, 40)
        assert seen == {"packed": [(r, r * (m * s + 2)), (9, 9 * (4 * 3 + 2))], "loop": [r]}
        monkeypatch.undo()
        for x, value in zip((below, above), values):
            packed, looped = _both_paths(monkeypatch, x, m, r)
            assert packed == looped == value

    def test_non_int_input_keeps_the_loop(self, monkeypatch):
        seen = _routes(monkeypatch)
        for x in ((0.5, -1, 2), (Fraction(1, 3), 2, 0), (1, 2.0, 3)):
            cyclic_power(x, 4, 3)
        assert seen == {"packed": [], "loop": [3, 3, 3]}
        # zeros of any type are skipped, bools fold into ints
        cyclic_power((0.0, Fraction(0), True, 2), 4, 3)
        assert seen["packed"] == [(3, 3 * (4 * 2 + 2))]

    def test_covered_specs_take_the_packed_path(self, monkeypatch):
        # classify over shapes and seeds like the covered bench workload's:
        # int, Fraction and float seeds, PSD and not; every kernel call packs
        seen = _routes(monkeypatch)
        from anticirculant.classifier import classify

        shapes = ((6, 7, 1), (8, 5, 3), (12, 8, 3), (18, 6, 3), (30, 5, 2), (20, 6, 2),
                  (10, 10, 6), (6, 10, 4), (4, 20, 4))
        rng = random.Random(22)
        for m, n, r in shapes:
            for a in (100 * rng.randint(1, 20), Fraction(rng.randint(20, 100), rng.randint(1, 12)),
                      rng.uniform(0.5, 2.0)):
                b = a + a // 2 if type(a) is int else a * 3 / 2
                off_rule = [a, -b] * (r // 2) if r % 2 == 0 else [-b] + [a] * (r - 1)
                seeds = [[a] * r, [-a] * r, [a] * (r - 1) + [b], off_rule]
                for seed in seeds:
                    classify(CirculantSpec(m, n, r, tuple(seed)))
        assert len(seen["packed"]) >= 50
        assert seen["loop"] == []
        assert max(width for _, width in seen["packed"]) <= polyeval.PACKED_BITS_MAX

    def test_residue_components_keep_their_types_and_float_bits(self):
        # float and Fraction input keeps the product loop: reprs of its values
        cases = [
            (CirculantSpec(6, 3, 3, (1, 1, 1)), (0.4, -1.1, 0.3),
             "(5.867086000000002, -1.031415, -4.831575000000002)"),
            (CirculantSpec(8, 5, 4, (1, 2, 1, 2)), (0.1, -0.7, 0.25, 1e-3, -2.5),
             "(328.670319223116, 2480.3897484694044, 1851.4033219536018, -319.965055120364)"),
            (CirculantSpec(12, 4, 2, (1, -1)), (1.5, 0, -0.3, 2),
             "(576460.7866631617, 576460.717943685)"),
            (CirculantSpec(6, 5, 4, (1, 1, 1, 1)), (Fraction(1, 3), 2, 0.5, -1, 0),
             "(357.1697530864198, 129.74382716049385, -338.1843921467764, -110.75848765432102)"),
            (CirculantSpec(4, 4, 3, (1, 2, 5)), (Fraction(1, 2), True, 2, -1),
             "(Fraction(1, 2), Fraction(193, 16), Fraction(53, 2))"),
            (CirculantSpec(4, 4, 3, (1, 2, 5)), (0, True, 2.0 - 2.0, -1), "(6, -3, -3)"),
        ]
        for spec, x, expected in cases:
            parts = residue_components(spec, x)
            assert repr(parts) == expected


def _mixed_case(rng):
    """A generating vector and a point mixing float, int, Fraction and bool
    entries, with v near 1e300 and x near 1e-200, signed zeros included;
    small enough for ``eval_naive``."""
    m, n = rng.randint(2, 6), rng.randint(2, 4)

    def number(kind):
        if kind == "float":
            return rng.uniform(-2.0, 2.0)
        if kind == "int":
            return rng.randint(-5, 5)
        if kind == "fraction":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if kind == "bool":
            return rng.random() < 0.5
        if kind == "huge":
            return rng.uniform(-1.0, 1.0) * 1e300
        if kind == "tiny":
            return rng.uniform(-1.0, 1.0) * 1e-200
        return rng.choice((0.0, -0.0))

    kinds = ("float", "int", "fraction", "bool", "huge", "tiny", "zero")
    v_kinds = rng.sample(kinds, rng.randint(1, 3))
    x_kinds = rng.sample(kinds, rng.randint(1, 3))
    if rng.random() < 0.5:  # a repeating seed, as a spec expands
        r = rng.randint(1, max_circulant_index(n))
        seed = [number(rng.choice(v_kinds)) for _ in range(r)]
        v = [seed[s % r] for s in range(genvec_length(m, n))]
    else:
        v = [number(rng.choice(v_kinds)) for _ in range(genvec_length(m, n))]
    x = tuple(number(rng.choice(x_kinds)) for _ in range(n))
    return GeneratingVector(m, n, v), x


class TestExactEvaluation:
    """``eval_exact``: f(x) as one integer over one denominator."""

    def test_equals_naive_on_fractions(self):
        rng = random.Random(12)
        for _ in range(300):
            gen, x = _mixed_case(rng)
            as_fractions = GeneratingVector(gen.m, gen.n, [Fraction(t) for t in gen.v])
            value = eval_exact(gen, x)
            assert type(value) is Fraction
            assert value == eval_naive(as_fractions, tuple(Fraction(t) for t in x))

    def test_exact_where_float64_overflows(self):
        gen = GeneratingVector(60, 4, tuple(1e307 * (1 + 0.001 * ((37 * k) % 11)) for k in range(181)))
        x = (0.5358211478638143, 0.692704122545054, -0.4502878632004412, 0.17406187510587207)
        assert eval_fast(gen, x) == float(eval_exact(gen, x))
        as_fractions = GeneratingVector(60, 4, [Fraction(t) for t in gen.v])
        value = eval_exact(gen, x)
        assert value == _dot_profile(as_fractions, tuple(map(Fraction, x)))
        assert rounded(value) == -6.629662731171532e307

    def test_period_is_found_by_value(self, monkeypatch):
        seen = _recorded_periods(monkeypatch)
        seed = (Fraction(1, 3), 2, Fraction(-5, 7), 4, 1, 0)
        # equal values held as distinct objects, and a float seed: r = 6, r = 2
        gen = GeneratingVector(4, 5, [seed[s % 6] + 0 for s in range(17)])
        assert eval_exact(gen, (1, 2, 0, -1, 3)) == _dot_profile(gen, (1, 2, 0, -1, 3))
        eval_exact(expand(CirculantSpec(20, 6, 2, (1e306, -1.2e306))), (1, 1, 0, 0, 0, 0))
        # no period below the length: r = L
        eval_exact(GeneratingVector(4, 3, (0,) * 8 + (1,)), (0.5, 0.25, -1.0))
        assert seen == [6, 2, 9]

    def test_float_input_is_the_exact_value_rounded_once(self, monkeypatch):
        scalings = []

        def counting(values):
            scalings.append(len(values))
            return scaled(values)

        scaled = polyeval._scaled
        monkeypatch.setattr(polyeval, "_scaled", counting)
        rng = random.Random(13)
        period_free = overflowed = 0
        for _ in range(500):
            gen, x = _mixed_case(rng)
            if float not in set(map(type, gen.v + x)):
                x = x[:-1] + (float(x[-1]),)
            scalings.clear()
            polyeval._point_form.cache_clear()
            value = eval_fast(gen, x)
            exact = eval_exact(gen, x)
            assert eval_fast(gen, x) == value
            # v once per instance; x once for both eval_fast calls, which
            # share the point memo, and once for eval_exact, which is off it
            assert len(scalings) == 3
            assert type(value) is float
            try:
                assert value == float(exact)
            except OverflowError:
                assert value == (math.inf if exact > 0 else -math.inf)
                overflowed += 1
            period_free += polyeval._int_form(gen)[2] == len(gen.v)
        assert overflowed >= 10
        assert period_free >= 100

    def test_rounded_clamps_past_float64(self):
        big = sys.float_info.max
        assert rounded(Fraction(1, 3)) == 1 / 3
        assert rounded(10**400) == big
        assert rounded(-Fraction(10**400, 3)) == -big
        assert rounded(-2.5) == -2.5


def _point_entry():
    """An int, bool, Fraction or float coordinate, signed zeros included."""
    return st.one_of(
        st.integers(-5, 5),
        st.booleans(),
        st.fractions(min_value=-4, max_value=4, max_denominator=12),
        st.floats(-4, 4, allow_nan=False, allow_infinity=False),
        st.sampled_from((0.0, -0.0)),
    )


def _same_value(t, choice: int):
    """t as another type of equal value where one exists: 1 -> 1.0 or
    Fraction(1), 0.5 -> Fraction(1, 2), 0 -> -0.0, ..."""
    options = [Fraction(t), t]
    if float(t) == t:
        options.append(float(t))
    if t == int(t):
        options.append(int(t))
    if t == 0:
        options.append(-0.0)
    return options[choice % len(options)]


def _typed_value(value):
    """A value with its type and, for floats, its repr (which tells -0.0 from 0.0)."""
    return type(value), value, repr(value) if type(value) is float else None


class TestPointMemo:
    """``eval_fast`` reads x's integer form from a memo keyed by x's values
    and their types."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_memoized_value_and_type_equal_a_fresh_evaluation(self, data):
        m, n = data.draw(st.sampled_from((2, 4, 6))), data.draw(st.integers(2, 4))
        v = data.draw(st.lists(_point_entry(), min_size=genvec_length(m, n),
                               max_size=genvec_length(m, n)))
        gen = GeneratingVector(m, n, v)
        x = tuple(data.draw(st.lists(_point_entry(), min_size=n, max_size=n)))
        choices = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        y = tuple(_same_value(t, c) for t, c in zip(x, choices))
        assert y == x
        fresh = {}
        for point in (x, y):
            polyeval._point_form.cache_clear()
            fresh[point is y] = _typed_value(eval_fast(gen, point))
        # equal-valued points, in either order, each keep the value and type
        # their own entries give; points of the same types share one entry
        shared = list(map(type, x)) == list(map(type, y))
        for first, second in ((x, y), (y, x)):
            polyeval._point_form.cache_clear()
            for point in (first, second, first):
                assert _typed_value(eval_fast(gen, point)) == fresh[point is y]
            assert polyeval._point_form.cache_info().currsize == (1 if shared else 2)

    def test_a_point_equal_only_in_float64_has_its_own_entry(self):
        # numpy compares its float64 with an int in float64: these two are
        # == and hash alike, yet differ by 2**61 - 1
        np = pytest.importorskip("numpy")
        gen = GeneratingVector(2, 2, (1, 0, 0))
        big = 2**114 + 2**61 - 1
        rounded_big = np.float64(2.0**114)
        assert (rounded_big, 0) == (big, 0) and hash((rounded_big, 0)) == hash((big, 0))
        for first, second in (((rounded_big, 0), (big, 0)), ((big, 0), (rounded_big, 0))):
            polyeval._point_form.cache_clear()
            for point in (first, second):
                assert eval_fast(gen, point) == point[0] ** 2

    def test_memo_never_exceeds_its_size(self):
        gen = GeneratingVector(2, 2, (1, Fraction(1, 3), 2.0))
        polyeval._point_form.cache_clear()
        for k in range(polyeval.POINT_MEMO_SIZE + 200):
            assert eval_fast(gen, (k, 0.5)) == float(eval_exact(gen, (k, 0.5)))
            assert polyeval._point_form.cache_info().currsize <= polyeval.POINT_MEMO_SIZE
        assert polyeval._point_form.cache_info().currsize == polyeval.POINT_MEMO_SIZE

    def test_non_finite_point_raises_and_is_not_kept(self):
        gen = GeneratingVector(2, 2, (1, 0, 1))
        polyeval._point_form.cache_clear()
        with pytest.raises(OverflowError):
            eval_fast(gen, (math.inf, 1.0))
        with pytest.raises(ValueError):
            eval_fast(gen, (math.nan, 1.0))
        assert polyeval._point_form.cache_info().currsize == 0

"""Tests for the deterministic sphere search and the Jacobi matrix check."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from anticirculant import oracle
from anticirculant.classifier import Status, classify
from anticirculant.oracle import (
    SplitMix64,
    jacobi_eigenvalues,
    matrix_psd,
    sphere_min,
)
from anticirculant.polyeval import conv_power, eval_fast, value_and_gradient
from anticirculant.tensor import CirculantSpec, GeneratingVector, expand


def _starts(n, count, seed=0):
    rng = SplitMix64(seed)
    return np.array([rng.unit_vector(n) for _ in range(count)])


class TestSplitMix64:
    def test_reference_outputs_seed_zero(self):
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_reference_outputs_seed_1234567(self):
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 0x599ED017FB08FC85
        assert rng.next_u64() == 0x2C73F08458540FA5

    def test_uniform_signed_range(self):
        rng = SplitMix64(42)
        values = [rng.uniform_signed() for _ in range(2000)]
        assert all(-1.0 <= v < 1.0 for v in values)
        assert min(values) < -0.9
        assert max(values) > 0.9

    def test_unit_vector_is_unit(self):
        rng = SplitMix64(7)
        for n in (2, 3, 5, 8):
            x = rng.unit_vector(n)
            assert len(x) == n
            assert math.sqrt(sum(t * t for t in x)) == pytest.approx(1.0, abs=1e-12)

    def test_streams_are_deterministic(self):
        a = [SplitMix64(99).next_u64() for _ in range(5)]
        b = [SplitMix64(99).next_u64() for _ in range(5)]
        assert a == b


class TestSphereMin:
    def test_square_form_on_circle(self):
        result = sphere_min(GeneratingVector(2, 2, (1, 1, 1)), starts=8)
        assert result.min_value == pytest.approx(0.0, abs=1e-12)
        x = result.argmin
        assert abs(abs(x[0]) - 1 / math.sqrt(2)) < 1e-6
        assert x[0] * x[1] < 0

    def test_alternating_excess_quartic(self):
        # f((1,-1,0,0)/sqrt(2)) = -1.6 / 4 by degree-4 homogeneity
        result = sphere_min(expand(CirculantSpec(4, 4, 2, (1, 1.2))), starts=16)
        assert result.min_value <= -0.4 + 1e-12

    def test_power_sum_floor(self):
        result = sphere_min(expand(CirculantSpec(4, 3, 1, (1,))), starts=16)
        assert -1e-12 <= result.min_value <= 1e-9

    def test_deterministic_replay(self):
        gen = expand(CirculantSpec(4, 4, 2, (1, 0.7)))
        a = sphere_min(gen, starts=12, rng_seed=3)
        b = sphere_min(gen, starts=12, rng_seed=3)
        assert a == b

    def test_min_value_is_an_evaluation(self):
        gen = expand(CirculantSpec(6, 5, 4, (1, 0, 2, 0)))
        result = sphere_min(gen, starts=8)
        assert result.min_value == eval_fast(gen, result.argmin)
        norm = math.sqrt(sum(t * t for t in result.argmin))
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_candidates_cover_structured_minima(self):
        # one start still finds the sign-pattern minimum via seeded candidates
        result = sphere_min(expand(CirculantSpec(4, 4, 2, (1, 1.2))), starts=1)
        assert result.min_value <= -0.4 + 1e-12

    def test_rejects_odd_order(self):
        with pytest.raises(ValueError, match="even"):
            sphere_min(GeneratingVector(3, 3, (1,) * 7), starts=2)

    def test_rejects_zero_starts(self):
        with pytest.raises(ValueError, match="starts"):
            sphere_min(GeneratingVector(2, 2, (1, 1, 1)), starts=0)

    def test_converged_flags(self):
        result = sphere_min(expand(CirculantSpec(4, 3, 1, (1,))), starts=8)
        assert result.converged_starts == 8

    def test_converged_starts_counts_rows(self, monkeypatch):
        # with the cap at 30 iterations only some of these descents stop in time
        monkeypatch.setattr(oracle, "MAX_ITERATIONS", 30)
        gen = expand(CirculantSpec(8, 6, 4, (1, 0.5, 1, 0.5)))
        hankel = sliding_window_view(np.array(gen.v, dtype=float), gen.n)
        x0 = _starts(gen.n, 16)
        alone = sum(
            bool(oracle._descend_rows(hankel, gen.m, x0[i : i + 1])[2][0]) for i in range(16)
        )
        result = sphere_min(gen, starts=16)
        assert 0 < result.converged_starts < 16
        assert result.converged_starts == alone

    def test_to_dict_round_trip(self):
        result = sphere_min(GeneratingVector(2, 2, (1, 1, 1)), starts=2)
        payload = result.to_dict()
        assert payload["starts"] == 2
        assert payload["min_value"] == result.min_value
        assert payload["rng_seed"] == 0


class TestBatchedKernels:
    @pytest.mark.parametrize("trial", range(40))
    def test_agree_with_scalar_polyeval(self, trial):
        rng = np.random.default_rng(trial)
        m, n = int(rng.integers(2, 11)), int(rng.integers(2, 9))
        v = rng.uniform(-2.0, 2.0, (n - 1) * m + 1)
        gen = GeneratingVector(m, n, tuple(v.tolist()))
        x = rng.uniform(-1.0, 1.0, (5, n))
        hankel = sliding_window_view(v, n)
        profiles = oracle._profiles(x, m)
        values, grads = oracle._values_and_gradients(x, hankel, m)
        for row, p, f, g in zip(x.tolist(), profiles, values, grads):
            # bounds on the rounding error: the same sums taken over |x| and |v|
            p_abs = np.array(conv_power([abs(t) for t in row], m))
            d_abs = np.array(conv_power([abs(t) for t in row], m - 1))
            assert np.all(np.abs(p - conv_power(row, m)) <= 1e-12 * p_abs)
            f_ref, g_ref = value_and_gradient(gen, row)
            assert abs(f - eval_fast(gen, row)) <= 1e-12 * float(np.abs(v) @ p_abs)
            assert abs(f - f_ref) <= 1e-12 * float(np.abs(v) @ p_abs)
            g_scale = m * np.abs(hankel).T @ d_abs
            assert np.all(np.abs(g - np.array(g_ref)) <= 1e-12 * g_scale)

    @pytest.mark.parametrize(
        "spec",
        [
            CirculantSpec(8, 6, 4, (1, 0.5, 1, 0.5)),
            CirculantSpec(6, 5, 6, (1, -1.3, 1, -1.3, 1, -1.3)),
            CirculantSpec(10, 5, 5, (1, 1, 1, 1, 1)),
            CirculantSpec(4, 7, 3, (0.9, 1.4, 1.1)),
        ],
    )
    def test_each_start_is_independent_of_its_batch(self, spec):
        gen = expand(spec)
        hankel = sliding_window_view(np.array(gen.v, dtype=float), gen.n)
        x0 = _starts(gen.n, 16, seed=5)
        f, x, ok = oracle._descend_rows(hankel, gen.m, x0)
        for i in range(16):
            f1, x1, ok1 = oracle._descend_rows(hankel, gen.m, x0[i : i + 1])
            assert f1[0] == f[i]
            assert np.array_equal(x1[0], x[i])
            assert ok1[0] == ok[i]

    def test_candidates_follow_the_product_order(self):
        n = 4
        points = oracle._candidates(n)
        patterns = [p for p in itertools.product((0.0, 1.0, -1.0), repeat=n) if any(p)]
        tail = points[-len(patterns):]
        for row, p in zip(tail, patterns):
            assert np.allclose(row, np.array(p) / math.sqrt(sum(t * t for t in p)), atol=1e-15)


class TestJacobi:
    def test_all_ones_spectrum(self):
        eigs, _ = jacobi_eigenvalues(np.ones((5, 5)))
        assert np.allclose(eigs, [0, 0, 0, 0, 5], atol=1e-10)

    def test_two_by_two_indefinite(self):
        result = matrix_psd([[1.0, 1.2], [1.2, 1.0]])
        assert not result.passed
        assert result.min_eigenvalue == pytest.approx(-0.2, abs=1e-12)
        assert max(result.eigenvalues) == pytest.approx(2.2, abs=1e-12)

    def test_zero_matrix_passes(self):
        assert matrix_psd(np.zeros((4, 4))).passed

    def test_diagonal_matrix_short_circuit(self):
        eigs, sweeps = jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert sweeps == 0
        assert np.array_equal(eigs, [-1.0, 2.0, 3.0])

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            matrix_psd([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            matrix_psd(np.ones((2, 3)))

    @settings(deadline=None, max_examples=50)
    @given(data=st.data())
    def test_matches_library_eigenvalues(self, data):
        size = data.draw(st.integers(2, 7), label="size")
        entries = data.draw(
            st.lists(
                st.floats(-5, 5, allow_nan=False, width=32),
                min_size=size * size,
                max_size=size * size,
            ),
            label="entries",
        )
        raw = np.array(entries).reshape(size, size)
        sym = (raw + raw.T) / 2.0
        ours, _ = jacobi_eigenvalues(sym)
        reference = np.linalg.eigvalsh(sym)
        assert np.allclose(ours, reference, atol=1e-9 * max(1.0, abs(sym).max()))

    def test_psd_threshold_is_relative(self):
        tiny = -1e-11
        m = np.diag([1.0, tiny])
        assert matrix_psd(m).passed  # within -1e-9 * max_abs
        assert not matrix_psd(np.diag([1.0, -1e-6])).passed

    def test_large_tau_does_not_overflow(self):
        # a tiny off-diagonal entry against a wide diagonal gap: tau * tau overflows
        spec = CirculantSpec(20, 6, 2, (0.9702998637461073, 0.0002736266631457719))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = classify(spec)
        assert verdict.status == Status.PSD
        assert verdict.strong_hankel.matrix_eigen_floor == -3.916880239968563e-15

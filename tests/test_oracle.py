"""Tests for the deterministic sphere search and the Jacobi matrix check."""

import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from anticirculant import oracle
from anticirculant.oracle import (
    SplitMix64,
    jacobi_eigenvalues,
    matrix_psd,
    sphere_min,
)
from anticirculant.polyeval import _repeat, cyclic_power, eval_exact, eval_fast, value_and_gradient
from anticirculant.tensor import CirculantSpec, GeneratingVector, expand, hankel_matrix


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
        assert result.min_value == float(eval_exact(gen, result.argmin))
        norm = math.sqrt(sum(t * t for t in result.argmin))
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_min_value_is_exact_where_float64_cancels(self):
        # f = (x_1 + ... + x_16)^400 vanishes at (1, -1, 0, ...)/sqrt(2), where
        # a float64 evaluation cancels to about 1e43
        gen = expand(CirculantSpec(400, 16, 5, (1.0,) * 5))
        result = sphere_min(gen)
        assert eval_fast(gen, result.argmin) == float(eval_exact(gen, result.argmin))
        assert result.min_value == 0.0

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
        spectrum = oracle._spectrum(gen)
        x0 = _starts(gen.n, 16)
        alone = sum(
            bool(oracle._descend_rows(spectrum, gen.m, x0[i : i + 1])[2][0]) for i in range(16)
        )
        result = sphere_min(gen, starts=16)
        assert 0 < result.converged_starts < 16
        assert result.converged_starts == alone

    def test_candidates_and_starts_are_built_once_and_read_only(self):
        assert oracle._candidates(4) is oracle._candidates(4)
        assert oracle._start_matrix(4, 8, 0) is oracle._start_matrix(4, 8, 0)
        assert oracle._roots(4, 3) is oracle._roots(4, 3)
        gen = expand(CirculantSpec(6, 4, 3, (1.0, 2.0, 0.5)))
        assert oracle._spectrum(gen)[1] is oracle._roots(4, 3)
        for cached in (oracle._candidates(4), oracle._start_matrix(4, 8, 0), oracle._roots(4, 3)):
            assert not cached.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0] = 2.0

    def test_start_matrix_is_the_splitmix_stream(self):
        assert np.array_equal(oracle._start_matrix(5, 16, 3), _starts(5, 16, seed=3))
        assert not np.array_equal(oracle._start_matrix(5, 16, 3), oracle._start_matrix(5, 16, 4))
        # more starts extend the same stream
        assert np.array_equal(oracle._start_matrix(5, 24, 3)[:16], oracle._start_matrix(5, 16, 3))

    def test_cache_does_not_capture_the_iteration_cap(self, monkeypatch):
        gen = expand(CirculantSpec(8, 6, 4, (1, 0.5, 1, 0.5)))
        assert sphere_min(gen, starts=16).converged_starts == 16  # caches warm
        monkeypatch.setattr(oracle, "MAX_ITERATIONS", 30)
        assert sphere_min(gen, starts=16).converged_starts == 6

    #: ``sphere_min(...).to_dict()`` as the lockstep loop of the
    #: roots-of-unity kernel first produced it (numpy 2.4, x86_64), with
    #: ``min_value`` re-recorded as the exact f(argmin) rounded once.  Every
    #: spec has rows that take halvings; the last entry caps the iterations
    #: at 30, so that some rows stop unconverged.
    GOLDEN = [
        (CirculantSpec(6, 5, 6, (1.3,) * 6), 16, 0, None, {
            "min_value": 0.0,
            "argmin": [0.7071067811865475, -0.7071067811865475, 0.0, 0.0, 0.0],
            "starts": 16, "converged_starts": 16, "rng_seed": 0}),
        (CirculantSpec(8, 4, 4, (1.1, 0.4, 1.1, 0.4)), 16, 7, None, {
            "min_value": 0.0,
            "argmin": [0.7071067811865475, 0.0, -0.7071067811865475, 0.0],
            "starts": 16, "converged_starts": 16, "rng_seed": 7}),
        (CirculantSpec(6, 5, 6, (1.0, -1.3) * 3), 16, 0, None, {
            "min_value": -18.74110733252026,
            "argmin": [0.4463821362176555, 0.44845789400861696, 0.44638213621765516,
                       0.44845789400861696, 0.4463821362176555],
            "starts": 16, "converged_starts": 16, "rng_seed": 0}),
        (CirculantSpec(8, 4, 4, (0.9, 1.2, 0.9, 1.2)), 16, 3, None, {
            "min_value": -38.40000000000002,
            "argmin": [0.4999999994800991, -0.5000000026365007, 0.5000000009468265,
                       -0.4999999969365739],
            "starts": 16, "converged_starts": 16, "rng_seed": 3}),
        (CirculantSpec(8, 6, 4, (1, 0.5, 1, 0.5)), 16, 0, 30, {
            "min_value": 0.0,
            "argmin": [0.7071067811865475, 0.0, -0.7071067811865475, 0.0, 0.0, 0.0],
            "starts": 16, "converged_starts": 6, "rng_seed": 0}),
    ]

    @pytest.mark.parametrize("spec, starts, rng_seed, cap, expected", GOLDEN)
    def test_golden_output(self, monkeypatch, spec, starts, rng_seed, cap, expected):
        if cap is not None:
            monkeypatch.setattr(oracle, "MAX_ITERATIONS", cap)
        assert sphere_min(expand(spec), starts=starts, rng_seed=rng_seed).to_dict() == expected

    #: As GOLDEN, recorded with the one-halving-at-a-time line search, at
    #: three settings of MAX_HALVINGS: 3 and 13 end the halvings inside a
    #: block of the doubling ladder (1 + 2 and 1 + 2 + 4 + 6 levels), and
    #: every entry has rows that use up every halving.  The last field is a
    #: digest of the descents' float64 ends ``(f, x, converged)``.
    LADDER_GOLDEN = [
        (CirculantSpec(8, 4, 4, (0.9, 1.2, 0.9, 1.2)), 1, 3, {
            "min_value": -38.40000000000002,
            "argmin": [-0.49999999934673767, 0.49999999998541683, -0.5000000008034016,
                       0.4999999998644441],
            "starts": 16, "converged_starts": 16, "rng_seed": 1}, "791eaa59e0a554ab"),
        (CirculantSpec(4, 7, 3, (0.9, 1.4, 1.1)), 0, 3, {
            "min_value": -4.537432990235784,
            "argmin": [0.4811565942393324, -0.34776808808372994, -0.17829709778146907,
                       0.4811565943988221, -0.34776808867596903, -0.17829709723346704,
                       0.4811565929472536],
            "starts": 16, "converged_starts": 16, "rng_seed": 0}, "2bc684508ee66d10"),
        (CirculantSpec(6, 6, 6, (1, 2, 1, 2, 1, 2)), 2, 3, {
            "min_value": -108.00000000000009,
            "argmin": [-0.4082482912104795, 0.40824829050747813, -0.40824829015808967,
                       0.4082482902009554, -0.4082482899796638, 0.408248290726512],
            "starts": 16, "converged_starts": 16, "rng_seed": 2}, "c8e55c1c53d7de94"),
        (CirculantSpec(8, 4, 4, (0.9, 1.2, 0.9, 1.2)), 1, 13, {
            "min_value": -38.400000000000034,
            "argmin": [-0.5000000000061748, 0.5000000000194108, -0.4999999999864144,
                       0.4999999999880002],
            "starts": 16, "converged_starts": 16, "rng_seed": 1}, "a4ebb31b1b37ec50"),
        (CirculantSpec(6, 6, 6, (1, 2, 1, 2, 1, 2)), 2, 13, {
            "min_value": -108.00000000000009,
            "argmin": [-0.4082482912104795, 0.40824829050747813, -0.40824829015808967,
                       0.4082482902009554, -0.4082482899796638, 0.408248290726512],
            "starts": 16, "converged_starts": 16, "rng_seed": 2}, "3e440ef295bfe377"),
        (CirculantSpec(8, 4, 4, (0.9, 1.2, 0.9, 1.2)), 1, 40, {
            "min_value": -38.400000000000034,
            "argmin": [-0.5000000000061748, 0.5000000000194108, -0.4999999999864144,
                       0.4999999999880002],
            "starts": 16, "converged_starts": 16, "rng_seed": 1}, "5bcb0213587fcad0"),
        (CirculantSpec(10, 5, 5, (1, 1, 1, 1, 1)), 2, 40, {
            "min_value": 0.0,
            "argmin": [0.7071067811865475, -0.7071067811865475, 0.0, 0.0, 0.0],
            "starts": 16, "converged_starts": 16, "rng_seed": 2}, "346af62f83f2451a"),
        (CirculantSpec(6, 6, 6, (1, 2, 1, 2, 1, 2)), 2, 40, {
            "min_value": -108.00000000000009,
            "argmin": [-0.4082482912104795, 0.40824829050747813, -0.40824829015808967,
                       0.4082482902009554, -0.4082482899796638, 0.408248290726512],
            "starts": 16, "converged_starts": 16, "rng_seed": 2}, "7c9406003d1b6776"),
    ]

    @pytest.mark.parametrize("spec, rng_seed, halvings, expected, digest", LADDER_GOLDEN)
    def test_golden_halving_ladder(self, monkeypatch, spec, rng_seed, halvings, expected, digest):
        monkeypatch.setattr(oracle, "MAX_HALVINGS", halvings)
        # Watch the ladder: an iteration's blocks follow its one-level first
        # trial, and a row that misses in a block ending at MAX_HALVINGS has
        # used up every halving.
        blocks, step = [], oracle._step

        def watch(spectrum, m, x, f, grad, eta):
            out = step(spectrum, m, x, f, grad, eta)
            blocks.append((len(eta), int((~out[3].any(axis=0)).sum())) if eta.ndim == 2 else None)
            return out

        monkeypatch.setattr(oracle, "_step", watch)
        gen = expand(spec)
        assert sphere_min(gen, starts=16, rng_seed=rng_seed).to_dict() == expected
        f, x, ok = oracle._descend_rows(
            oracle._spectrum(gen), gen.m, oracle._start_matrix(gen.n, 16, rng_seed)
        )
        assert hashlib.sha256(f.tobytes() + x.tobytes() + ok.tobytes()).hexdigest()[:16] == digest
        used_up, levels = 0, 0
        for block in blocks:
            levels = 0 if block is None else levels + block[0]
            if block is not None and levels == halvings:
                used_up += block[1]
        assert used_up > 0

    def test_golden_descent_values(self):
        # the PSD specs above take their argmin from a candidate, so pin the
        # descents' own end values too (same recording as GOLDEN)
        gen = expand(CirculantSpec(6, 5, 6, (1.3,) * 6))
        f, _, converged = oracle._descend_rows(oracle._spectrum(gen), gen.m, _starts(gen.n, 16))
        assert converged.all()
        assert f.tolist() == [
            2.4356147705020114e-15, 2.43561476225348e-15, 2.4356147705153905e-15,
            2.4356147694814148e-15, 2.435614770515946e-15, 2.4356147677209296e-15,
            2.4356147705153905e-15, 2.435614770515113e-15, 2.4356147705150876e-15,
            2.435614770514936e-15, 2.435614770515214e-15, 2.4356147705155672e-15,
            2.4356147704402657e-15, 2.435614770514734e-15, 2.4356147705149614e-15,
            2.435614770515113e-15,
        ]

    def test_to_dict_round_trip(self):
        result = sphere_min(GeneratingVector(2, 2, (1, 1, 1)), starts=2)
        payload = result.to_dict()
        assert payload["starts"] == 2
        assert payload["min_value"] == result.min_value
        assert payload["rng_seed"] == 0


def _random_gen(seed, period=None):
    """A random vector (repeating with ``period`` if given) and five random points."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 11)), int(rng.integers(2, 9))
    length = (n - 1) * m + 1
    v = rng.uniform(-2.0, 2.0, period or length)
    v = np.resize(v, length)
    return GeneratingVector(m, n, tuple(v.tolist())), rng.uniform(-1.0, 1.0, (5, n))


def _scales(gen, row):
    """Rounding scales of f and its gradient: the same sums taken over |x| and |v|."""
    v = np.abs(np.array(gen.v))
    x_abs = [abs(t) for t in row]
    p_abs = np.array(cyclic_power(x_abs, gen.m, len(gen.v)))
    d_abs = np.array(cyclic_power(x_abs, gen.m - 1, len(gen.v) - gen.n + 1))
    return float(v @ p_abs), gen.m * sliding_window_view(v, gen.n).T @ d_abs


class TestBatchedKernels:
    @pytest.mark.parametrize("trial", range(40))
    def test_agree_with_scalar_polyeval(self, trial):
        gen, x = _random_gen(trial)
        values, grads = oracle._values_and_gradients(x, oracle._spectrum(gen), gen.m)
        for row, f, g in zip(x.tolist(), values, grads):
            f_scale, g_scale = _scales(gen, row)
            f_ref, g_ref = value_and_gradient(gen, row)
            assert abs(f - eval_fast(gen, row)) <= 1e-12 * f_scale
            assert abs(f - f_ref) <= 1e-12 * f_scale
            assert np.all(np.abs(g - np.array(g_ref)) <= 1e-12 * g_scale)

    @pytest.mark.parametrize("trial", range(10))
    def test_gradient_satisfies_euler_identity(self, trial):
        # x . grad f = m f for a degree-m form, with f from the scalar path
        gen, x = _random_gen(trial, period=1 + trial % 5)
        _, grads = oracle._values_and_gradients(x, oracle._spectrum(gen), gen.m)
        for row, g in zip(x.tolist(), grads):
            f_scale, _ = _scales(gen, row)
            assert abs(float(np.dot(row, g)) - gen.m * eval_fast(gen, row)) <= 1e-12 * gen.m * f_scale

    @pytest.mark.parametrize("trial", range(10))
    def test_gradient_matches_central_differences(self, trial):
        gen, x = _random_gen(trial, period=1 + trial % 5)
        spectrum, h = oracle._spectrum(gen), 1e-5
        _, grads = oracle._values_and_gradients(x, spectrum, gen.m)
        for row, g in zip(x, grads):
            steps = h * np.eye(gen.n)
            fp = oracle._values_and_gradients(row + steps, spectrum, gen.m)[0]
            fm = oracle._values_and_gradients(row - steps, spectrum, gen.m)[0]
            _, g_scale = _scales(gen, row.tolist())
            assert np.all(np.abs((fp - fm) / (2 * h) - g) <= 1e-6 * g_scale)

    @pytest.mark.parametrize(
        "gen, period",
        [
            (expand(CirculantSpec(8, 6, 4, (1, 0.5, 1, 0.5))), 2),
            (expand(CirculantSpec(10, 5, 5, (2, 2, 2, 2, 2))), 1),
            (GeneratingVector(4, 5, tuple(np.random.default_rng(3).uniform(-1, 1, 17).tolist())), 17),
        ],
    )
    def test_period_is_the_smallest_repeat(self, gen, period):
        # the shared finder, by value on the float64 vector, falling back to L
        values = np.array(gen.v, dtype=float).tolist()
        assert (_repeat(values, len(values) - 1) or len(values)) == period
        assert oracle._spectrum(gen)[1].shape == (gen.n, period)

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
        spectrum = oracle._spectrum(gen)
        x0 = _starts(gen.n, 16, seed=5)
        f, x, ok = oracle._descend_rows(spectrum, gen.m, x0)
        for i in range(16):
            f1, x1, ok1 = oracle._descend_rows(spectrum, gen.m, x0[i : i + 1])
            assert f1[0] == f[i]
            assert np.array_equal(x1[0], x[i])
            assert ok1[0] == ok[i]

    @pytest.mark.parametrize(
        "rows, n", [(1, 2), (2, 16), (3, 7), (16, 5), (64, 12), (795, 6), (800, 16), (100, 3)]
    )
    @pytest.mark.parametrize("which_r", ["one", "between", "L"])
    def test_kernel_is_the_mixed_dtype_formula(self, rows, n, which_r):
        # casting x to complex first multiplies the same numbers as letting
        # einsum cast the float operand itself
        rng = np.random.default_rng([rows, n, len(which_r)])
        m = int(rng.integers(1, 6)) * 2
        length = (n - 1) * m + 1
        r = {"one": 1, "between": int(rng.integers(2, length)), "L": length}[which_r]
        gen = GeneratingVector(m, n, tuple(np.resize(rng.uniform(-2, 2, r), length).tolist()))
        spectrum = oracle._spectrum(gen)
        c, w = spectrum
        assert w.shape == (n, r)
        x = rng.uniform(-1.0, 1.0, (rows, n))
        p = np.einsum("bi,ik->bk", x, w)
        g = np.einsum("bk,ik->bi", c * p ** (m - 1), w).real
        f, grad = oracle._values_and_gradients(x, spectrum, m)
        assert f.tobytes() == np.einsum("bi,bi->b", x, g).tobytes()
        assert grad.tobytes() == (m * g).tobytes()

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
            result = matrix_psd(hankel_matrix(expand(spec)).a)
        assert result.passed
        assert result.min_eigenvalue == -3.916880239968563e-15

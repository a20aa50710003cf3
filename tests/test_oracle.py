"""Tests for the deterministic sphere search and the LAPACK matrix check."""

import hashlib
import itertools
import json
import math
import random
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from anticirculant import oracle
from anticirculant.classifier import classify
from anticirculant.oracle import (
    SplitMix64,
    matrix_psd,
    sphere_min,
)
from anticirculant.polyeval import (
    _repeat,
    _scaled,
    cyclic_power,
    eval_exact,
    eval_fast,
    value_and_gradient,
)
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
        # with the cap at 6 iterations only some of these descents stop in time
        monkeypatch.setattr(oracle, "MAX_ITERATIONS", 6)
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
        monkeypatch.setattr(oracle, "MAX_ITERATIONS", 6)
        assert sphere_min(gen, starts=16).converged_starts == 5

    #: ``sphere_min(...).to_dict()`` as the block line search produced it
    #: (numpy 2.4, x86_64), with ``min_value`` the exact f(argmin) rounded
    #: once.  Every spec has rows that miss the block and take the further
    #: halvings; the last entry caps the iterations at 30, so that some rows
    #: stop unconverged.
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
            "min_value": -18.741107332520265,
            "argmin": [0.44638213559167234, 0.4484578949384119, 0.4463821355969994,
                       0.44845789492980964, 0.44638213560469936],
            "starts": 16, "converged_starts": 16, "rng_seed": 0}),
        (CirculantSpec(8, 4, 4, (0.9, 1.2, 0.9, 1.2)), 16, 3, None, {
            "min_value": -38.40000000000005,
            "argmin": [-0.500000000506794, 0.5000000006494997, -0.4999999994817331,
                       0.49999999936197354],
            "starts": 16, "converged_starts": 16, "rng_seed": 3}),
        (CirculantSpec(8, 6, 5, (1, 0.9, 1.1, 1, 1.05)), 16, 0, 30, {
            "min_value": -10.81261314985945,
            "argmin": [-0.5142389383096952, 0.31745535644280265, 0.0035314951807448223,
                       -0.3201063041044256, 0.517552174294738, -0.5142369497508644],
            "starts": 16, "converged_starts": 4, "rng_seed": 0}),
    ]

    @pytest.mark.parametrize("spec, starts, rng_seed, cap, expected", GOLDEN)
    def test_golden_output(self, monkeypatch, spec, starts, rng_seed, cap, expected):
        if cap is not None:
            monkeypatch.setattr(oracle, "MAX_ITERATIONS", cap)
        assert sphere_min(expand(spec), starts=starts, rng_seed=rng_seed).to_dict() == expected

    #: As GOLDEN, at three settings of MAX_HALVINGS: at 3 the block's own
    #: three halvings are all there is, and 13 and 40 end the halvings inside
    #: a cut block past it (8 + 10 and 8 + 16 + 21 levels).  Every entry has
    #: rows that use up every halving.  The last field is a digest of the
    #: descents' float64 ends ``(f, x, converged)``.
    LADDER_GOLDEN = [
        pytest.param(CirculantSpec(8, 4, 4, (0.9, 1.2, 0.9, 1.2)), 1, 3, {
            "min_value": -38.40000000000002,
            "argmin": [0.499999999387228, -0.5000000017666378, 0.5000000005937547,
                       -0.4999999982523796],
            "starts": 16, "converged_starts": 16, "rng_seed": 1},
            "767c0e17eb5dde69", id="8-4-4-seed1-halvings3"),
        pytest.param(CirculantSpec(4, 7, 3, (0.9, 1.4, 1.1)), 0, 3, {
            "min_value": -4.536866973292446,
            "argmin": [0.48041356836596333, -0.3436126337155639, -0.1825743462971428,
                       0.4813647361038809, -0.34888060263848236, -0.17661043829203799,
                       0.48288594758975045],
            "starts": 16, "converged_starts": 16, "rng_seed": 0},
            "0957586cb23f0ef9", id="4-7-3-seed0-halvings3"),
        pytest.param(CirculantSpec(6, 6, 6, (1, 2, 1, 2, 1, 2)), 2, 3, {
            "min_value": -108.00000000000011,
            "argmin": [0.40824829046375455, -0.4082482904640588, 0.40824829046147276,
                       -0.408248290465049, 0.40824829046381694, -0.4082482904650265],
            "starts": 16, "converged_starts": 16, "rng_seed": 2},
            "2bb254232c248ca8", id="6-6-6-seed2-halvings3"),
        pytest.param(CirculantSpec(8, 4, 4, (0.9, 1.2, 0.9, 1.2)), 1, 13, {
            "min_value": -38.400000000000034,
            "argmin": [0.499999999999741, -0.4999999999997898, 0.5000000000002789,
                       -0.5000000000001906],
            "starts": 16, "converged_starts": 16, "rng_seed": 1},
            "b6e841a33793e5b4", id="8-4-4-seed1-halvings13"),
        pytest.param(CirculantSpec(6, 6, 6, (1, 2, 1, 2, 1, 2)), 2, 13, {
            "min_value": -108.0000000000001,
            "argmin": [-0.4082482904638616, 0.40824829046386085, -0.4082482904638664,
                       0.4082482904638655, -0.4082482904638615, 0.40824829046386263],
            "starts": 16, "converged_starts": 16, "rng_seed": 2},
            "9ca4337972aae9eb", id="6-6-6-seed2-halvings13"),
        pytest.param(CirculantSpec(8, 4, 4, (0.9, 1.2, 0.9, 1.2)), 1, 40, {
            "min_value": -38.40000000000003,
            "argmin": [0.4999999999999611, -0.5000000000001124, 0.5000000000000379,
                       -0.4999999999998889],
            "starts": 16, "converged_starts": 16, "rng_seed": 1},
            "bd4d2fd2991fcad4", id="8-4-4-seed1-halvings40"),
        pytest.param(CirculantSpec(10, 5, 5, (1, 1, 1, 1, 1)), 2, 40, {
            "min_value": 0.0,
            "argmin": [0.7071067811865475, -0.7071067811865475, 0.0, 0.0, 0.0],
            "starts": 16, "converged_starts": 16, "rng_seed": 2},
            "acde53b2fac39f3a", id="10-5-5-seed2-halvings40"),
        pytest.param(CirculantSpec(6, 6, 6, (1, 2, 1, 2, 1, 2)), 2, 40, {
            "min_value": -108.0000000000001,
            "argmin": [-0.4082482904638616, 0.40824829046386085, -0.4082482904638664,
                       0.4082482904638655, -0.4082482904638615, 0.40824829046386263],
            "starts": 16, "converged_starts": 16, "rng_seed": 2},
            "ee29eea3930aebe1", id="6-6-6-seed2-halvings40"),
    ]

    @pytest.mark.parametrize("spec, rng_seed, halvings, expected, digest", LADDER_GOLDEN)
    def test_golden_halving_ladder(self, monkeypatch, spec, rng_seed, halvings, expected, digest):
        monkeypatch.setattr(oracle, "MAX_HALVINGS", halvings)
        # Watch the line searches, with a None for each kernel call: an
        # iteration's first search tries the block on every live row, and the
        # ones up to its kernel call continue the halvings on the rows that
        # did not move.
        calls, search, kernel = [], oracle._line_search, oracle._values_and_gradients

        def watch_search(spectrum, m, x, f, grad, p, pg, steps):
            out = search(spectrum, m, x, f, grad, p, pg, steps)
            calls.append((steps, x, out[0], out[1].copy()))  # the caller writes into y
            return out

        def watch_kernel(x, spectrum, m):
            calls.append(None)
            return kernel(x, spectrum, m)

        monkeypatch.setattr(oracle, "_line_search", watch_search)
        monkeypatch.setattr(oracle, "_values_and_gradients", watch_kernel)
        gen = expand(spec)
        assert sphere_min(gen, starts=16, rng_seed=rng_seed).to_dict() == expected
        f, x, ok = oracle._descend_rows(
            oracle._spectrum(gen), gen.m, oracle._start_matrix(gen.n, 16, rng_seed)
        )
        assert hashlib.sha256(f.tobytes() + x.tobytes() + ok.tobytes()).hexdigest()[:16] == digest
        # A row that misses the block goes on one halving at a time down to
        # 2 * eta * 2**-MAX_HALVINGS, and keeps its point if nothing hits.
        used_up, last = 0, None
        for call in calls:
            if call is None:
                if last is not None:  # an iteration's searches are over
                    assert np.array_equal(last, floor)
                    used_up += last.size
                last = None
                continue
            steps, x0, moved, y = call
            if last is None:
                assert len(steps) == oracle.BLOCK
                floor = steps[-1] * 2.0 ** (3 - halvings)  # steps[-1] is 2 * eta / 8
            else:
                assert np.array_equal(steps[0], last * 0.5)
            assert np.array_equal(y[~moved], x0[~moved])
            last, floor = steps[-1, ~moved], floor[~moved]
        assert used_up > 0

    def test_golden_descent_values(self):
        # the PSD specs above take their argmin from a candidate, so pin the
        # descents' own end values too (same recording as GOLDEN)
        gen = expand(CirculantSpec(6, 5, 6, (1.3,) * 6))
        f, _, converged = oracle._descend_rows(oracle._spectrum(gen), gen.m, _starts(gen.n, 16))
        assert converged.all()
        assert f.tolist() == [
            2.6384682046555604e-16, 8.396982570323761e-15, 7.320018147202217e-21,
            1.4402622830812167e-20, 5.085095040408483e-20, 1.1138412193960297e-16,
            5.977200613484467e-19, 9.785663974039307e-15, 1.3709010533484101e-15,
            2.3588902430646172e-15, 2.1211529440909846e-19, 7.798744416721293e-17,
            8.623487781339011e-16, 2.97314768676435e-18, 4.511318205701376e-15,
            7.479409776032456e-21,
        ]

    #: Uncovered shapes outside the six rows, as in the bench's uncovered
    #: workload: seeds constant or alternating, ints or floats.
    BATTERY_SHAPES = ((6, 5, 6), (6, 6, 6), (8, 4, 4), (8, 5, 4), (8, 6, 4), (10, 5, 5))

    @classmethod
    def _battery(cls):
        """Every battery vector: per ``random.Random(k)``, k = 0..7, one seed
        on each shape (alternating ones from PSD to clearly negative), then
        two period-free vectors, where r = L."""
        gens = []
        for k in range(8):
            rng = random.Random(k)
            for m, n, r in cls.BATTERY_SHAPES:
                if rng.random() < 0.5:
                    a = rng.randint(2, 9)
                    b = rng.randint(-2 * a, 2 * a)
                else:
                    a = rng.uniform(0.5, 2.0)
                    b = a * rng.uniform(-1.5, 1.5)
                seed = (a,) * r if rng.random() < 0.5 else (a, b) * (r // 2) + (a,) * (r % 2)
                gens.append(expand(CirculantSpec(m, n, r, seed)))
        for m, n, k in ((6, 5, 3), (4, 7, 4)):
            rng = random.Random(k)
            gens.append(GeneratingVector(m, n, tuple(rng.uniform(0.5, 2.0) for _ in range((n - 1) * m + 1))))
        return gens

    def test_battery_digest(self):
        # the search's whole output and its descents' float64 ends, at 16 and
        # 64 starts, pinned by one digest (numpy 2.4, x86_64)
        digest = hashlib.sha256()
        for gen in self._battery():
            spectrum = oracle._spectrum(gen)
            for starts in (16, 64):
                digest.update(json.dumps(sphere_min(gen, starts=starts).to_dict()).encode())
                f, x, ok = oracle._descend_rows(spectrum, gen.m, oracle._start_matrix(gen.n, starts, 0))
                digest.update(f.tobytes() + x.tobytes() + ok.tobytes())
        assert digest.hexdigest()[:16] == "214b0cba01102805"

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
    """Rounding scales of f and its gradient: the same sums taken over |x| and |v|,
    the |x| sums on |x| scaled to ints and rounded once."""
    v = np.abs(np.array(gen.v))
    x_abs, d = _scaled([abs(t) for t in row])
    p_abs = np.array([c / d**gen.m for c in cyclic_power(x_abs, gen.m, len(gen.v))])
    width = len(gen.v) - gen.n + 1
    d_abs = np.array([c / d ** (gen.m - 1) for c in cyclic_power(x_abs, gen.m - 1, width)])
    return float(v @ p_abs), gen.m * sliding_window_view(v, gen.n).T @ d_abs


class TestBatchedKernels:
    @pytest.mark.parametrize("trial", range(40))
    def test_agree_with_scalar_polyeval(self, trial):
        gen, x = _random_gen(trial)
        values, grads, _ = oracle._values_and_gradients(x, oracle._spectrum(gen), gen.m)
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
        _, grads, _ = oracle._values_and_gradients(x, oracle._spectrum(gen), gen.m)
        for row, g in zip(x.tolist(), grads):
            f_scale, _ = _scales(gen, row)
            assert abs(float(np.dot(row, g)) - gen.m * eval_fast(gen, row)) <= 1e-12 * gen.m * f_scale

    @pytest.mark.parametrize("trial", range(10))
    def test_gradient_matches_central_differences(self, trial):
        gen, x = _random_gen(trial, period=1 + trial % 5)
        spectrum, h = oracle._spectrum(gen), 1e-5
        _, grads, _ = oracle._values_and_gradients(x, spectrum, gen.m)
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
        assert _repeat(values) == period
        assert oracle._spectrum(gen)[1].shape == (gen.n, period)

    @pytest.mark.parametrize(
        "spec",
        [
            CirculantSpec(8, 6, 4, (1, 0.5, 1, 0.5)),
            CirculantSpec(6, 5, 6, (1, -1.3, 1, -1.3, 1, -1.3)),
            CirculantSpec(10, 5, 5, (1, 1, 1, 1, 1)),
            CirculantSpec(4, 7, 3, (0.9, 1.4, 1.1)),
            GeneratingVector(6, 5, tuple(np.random.default_rng(7).uniform(0.5, 2.0, 25).tolist())),
        ],
    )
    def test_each_start_is_independent_of_its_batch(self, spec):
        gen = spec if isinstance(spec, GeneratingVector) else expand(spec)
        spectrum = oracle._spectrum(gen)
        x0 = _starts(gen.n, 16, seed=5)
        f, x, ok = oracle._descend_rows(spectrum, gen.m, x0)
        for i in range(16):
            f1, x1, ok1 = oracle._descend_rows(spectrum, gen.m, x0[i : i + 1])
            assert f1[0] == f[i]
            assert np.array_equal(x1[0], x[i])
            assert ok1[0] == ok[i]

    @pytest.mark.parametrize("halvings, cap", [(3, None), (40, None), (40, 6)])
    @pytest.mark.parametrize(
        "spec",
        [
            CirculantSpec(8, 6, 4, (1, 0.5, 1, 0.5)),
            CirculantSpec(6, 5, 6, (1, -1.3, 1, -1.3, 1, -1.3)),
            CirculantSpec(10, 5, 5, (1, 1, 1, 1, 1)),
            CirculantSpec(4, 7, 3, (0.9, 1.4, 1.1)),
            GeneratingVector(6, 5, tuple(np.random.default_rng(7).uniform(0.5, 2.0, 25).tolist())),
        ],
    )
    def test_one_kernel_call_for_candidates_and_starts(self, monkeypatch, spec, halvings, cap):
        # sphere_min evaluates both in one call and starts the descents from
        # the starts' rows of it: the same bytes as two calls and a descent
        # that evaluates its own starts
        monkeypatch.setattr(oracle, "MAX_HALVINGS", halvings)
        if cap is not None:
            monkeypatch.setattr(oracle, "MAX_ITERATIONS", cap)
        gen = spec if isinstance(spec, GeneratingVector) else expand(spec)
        spectrum = oracle._spectrum(gen)
        candidates, x0 = oracle._candidates(gen.n), oracle._start_matrix(gen.n, 16, 5)
        both = oracle._values_and_gradients(np.concatenate([candidates, x0]), spectrum, gen.m)
        k = len(candidates)
        for rows, alone in ((slice(None, k), candidates), (slice(k, None), x0)):
            for shared, own in zip(both, oracle._values_and_gradients(alone, spectrum, gen.m)):
                assert shared[rows].tobytes() == own.tobytes()
        shared = oracle._descend_rows(spectrum, gen.m, x0, tuple(a[k:] for a in both))
        own = oracle._descend_rows(spectrum, gen.m, x0)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(shared, own))
        if cap is not None:
            assert not own[2].all()

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
        f, grad, p_out = oracle._values_and_gradients(x, spectrum, m)
        assert f.tobytes() == np.einsum("bi,bi->b", x, g).tobytes()
        assert grad.tobytes() == (m * g).tobytes()
        assert p_out.tobytes() == p.tobytes()

    def test_candidates_follow_the_product_order(self):
        n = 4
        points = oracle._candidates(n)
        patterns = [p for p in itertools.product((0.0, 1.0, -1.0), repeat=n) if any(p)]
        tail = points[-len(patterns):]
        for row, p in zip(tail, patterns):
            assert np.allclose(row, np.array(p) / math.sqrt(sum(t * t for t in p)), atol=1e-15)


def _block_case(trial):
    """A random vector (period-free or periodic), four unit rows with their
    f, gradient, P and P_g, and a block of step sizes ``2 * eta * 16 ... 1/8``."""
    gen, x = _random_gen(trial, period=(None, 1, 2, 3, 5)[trial % 5])
    x = x[:4] / np.sqrt(np.einsum("bi,bi->b", x[:4], x[:4]))[:, None]
    spectrum = oracle._spectrum(gen)
    f, grad, p = oracle._values_and_gradients(x, spectrum, gen.m)
    pg = np.einsum("bi,ik->bk", grad.astype(complex), spectrum[1])
    eta = 10.0 ** np.random.default_rng(trial).uniform(-4.0, 1.0, len(x))
    steps = 2.0 * eta * 2.0 ** np.arange(4.0, -4.0, -1.0)[:, None]
    return gen, spectrum, x, f, grad, p, pg, steps


class TestBlockLineSearch:
    @pytest.mark.parametrize("trial", range(20))
    def test_block_values_are_f_at_the_normalized_points(self, trial):
        # By linearity of P in x the block's values are the kernel's at the
        # explicitly normalized points up to rounding: at most 1e-12 of f's
        # scale over |x| and |v|, times (1 + s |grad|) / |x - s grad|, the
        # cancellation in forming the step (measured: below 1.3e-14).
        gen, spectrum, x, f, grad, p, pg, steps = _block_case(trial)
        y, norm, fy = oracle._block_values(spectrum, gen.m, x, grad, p, pg, steps)
        assert np.array_equal(y, x - steps[..., None] * grad)
        assert np.array_equal(norm, np.sqrt(np.einsum("lbi,lbi->lb", y, y)))
        points = y / norm[..., None]
        expected = oracle.eval_rows(gen, points.reshape(-1, gen.n)).reshape(fy.shape)
        for (level, row), value in np.ndenumerate(fy):
            step = steps[level, row] * math.sqrt(grad[row] @ grad[row])
            cancellation = (1.0 + step) / norm[level, row]
            bound = 1e-12 * _scales(gen, points[level, row].tolist())[0] * cancellation
            assert abs(value - expected[level, row]) <= bound

    @pytest.mark.parametrize("trial", range(20))
    def test_moves_to_the_lowest_decreasing_level(self, trial):
        gen, spectrum, x, f, grad, p, pg, steps = _block_case(trial)
        _, norm, fy = oracle._block_values(spectrum, gen.m, x, grad, p, pg, steps)
        moved, y, s = oracle._line_search(spectrum, gen.m, x, f, grad, p, pg, steps)
        for row in range(len(x)):
            down = [level for level in range(len(steps)) if fy[level, row] < f[row]]
            assert moved[row] == bool(down)
            if down:
                level = min(down, key=lambda k: fy[k, row])  # the first of equal minima
                assert s[row] == steps[level, row]
                assert np.array_equal(y[row], (x[row] - s[row] * grad[row]) / norm[level, row])
            else:
                assert np.array_equal(y[row], x[row])


class TestMatrixPsd:
    def test_all_ones_spectrum(self):
        result = matrix_psd(np.ones((5, 5)))
        assert result.passed
        assert np.allclose(result.eigenvalues, [0, 0, 0, 0, 5], atol=1e-10)

    def test_two_by_two_indefinite(self):
        result = matrix_psd([[1.0, 1.2], [1.2, 1.0]])
        assert not result.passed
        assert result.min_eigenvalue == pytest.approx(-0.2, abs=1e-12)
        assert max(result.eigenvalues) == pytest.approx(2.2, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scales(self, scale):
        # the squares of the entries overflow (underflow) float64, but not
        # the eigenvalues -scale and 3 * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = matrix_psd(np.array([[1.0, 2.0], [2.0, 1.0]]) * scale)
        assert not result.passed
        assert result.eigenvalues == pytest.approx((-scale, 3 * scale), rel=1e-12)
        assert result.min_eigenvalue == result.eigenvalues[0]

    def test_zero_matrix_passes(self):
        assert matrix_psd(np.zeros((4, 4))).passed

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            matrix_psd([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            matrix_psd(np.ones((2, 3)))

    def test_psd_threshold_is_relative(self):
        tiny = -1e-11
        m = np.diag([1.0, tiny])
        assert matrix_psd(m).passed  # within -1e-9 * max_abs
        assert not matrix_psd(np.diag([1.0, -1e-6])).passed

    def test_large_tau_does_not_overflow(self):
        # a tiny off-diagonal entry against a wide diagonal gap
        spec = CirculantSpec(20, 6, 2, (0.9702998637461073, 0.0002736266631457719))
        gen = expand(spec)
        a = hankel_matrix(gen)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = matrix_psd(a)
        assert result.passed
        # -8.416432433186058e-15 with numpy 2.4's bundled OpenBLAS LAPACK
        assert result.min_eigenvalue == np.linalg.eigvalsh(a)[0]
        # the rank-2 matrix's closed-form floor, 0 at this size
        floor = classify(spec).strong_hankel.matrix_eigen_floor
        assert abs(result.min_eigenvalue - floor) <= 1e-9 * gen.max_abs()

"""Tests for the closed-form PSD classifier, certificates, and witnesses."""

import json
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from anticirculant import classifier as classifier_mod
from anticirculant import oracle as oracle_mod
from anticirculant.classifier import (
    Case,
    Certificate,
    CertificateKind,
    Status,
    WITNESS_REL_MARGIN,
    classify,
    power_sum_certificate,
    power_sum_value,
    strong_hankel_check,
    verify_power_sum,
)
from anticirculant.oracle import SplitMix64, matrix_psd, sphere_min
from anticirculant import polyeval
from anticirculant.polyeval import cyclic_power, eval_exact, eval_fast
from anticirculant.tensor import (
    NAMED_PATTERNS,
    CirculantSpec,
    GeneratingVector,
    alpha_witnesses,
    differences,
    expand,
    hankel_matrix,
    pattern_witnesses,
)


class TestNecessaryConditions:
    # a generating vector declares no r: only the unit vectors can refute it
    def test_all_ones_pass(self):
        gen = expand(CirculantSpec(4, 3, 1, (1,)))
        assert classify(gen, evidence_starts=4).status == Status.UNCOVERED

    def test_zero_tensor_passes(self):
        gen = GeneratingVector(4, 3, (0,) * 9)
        assert classify(gen, evidence_starts=4).status == Status.UNCOVERED

    def test_negative_unit_value_fails(self):
        v = [1.0] * 9
        v[4] = -1.0  # j = 1 reads v[j * m] = v[4]
        verdict = classify(GeneratingVector(4, 3, tuple(v)))
        assert verdict.status == Status.NOT_PSD
        assert verdict.case == Case.NECESSARY_ONLY
        assert verdict.witness.label == "unit(e_2)"
        assert verdict.witness_value == -1.0

    def test_odd_order_rejected(self):
        gen = GeneratingVector(3, 3, (1,) * 7)
        with pytest.raises(ValueError, match="odd order"):
            classify(gen)


class TestDispatch:
    def test_constant_seed_case(self):
        assert classify(CirculantSpec(4, 3, 1, (2,))).case == Case.INDEX_ONE

    def test_coprime_odd_beats_special_r3(self):
        # r=3 with gcd(m, 3) = 1 lands in the coprime family, not the r=3 one
        assert classify(CirculantSpec(4, 3, 3, (1, 1, 1))).case == Case.COPRIME_ODD

    def test_special_r3_orders(self):
        assert (
            classify(CirculantSpec(6, 3, 3, (1, 1, 1))).case == Case.INDEX_3_SPECIAL
        )

    def test_r2_takes_precedence_over_even_family(self):
        # gcd(m, 2) = 2 would also fit the even family; r=2 keeps its own tag
        assert classify(CirculantSpec(4, 4, 2, (1, 0.5))).case == Case.INDEX_TWO
        assert classify(CirculantSpec(2, 4, 2, (1, 0.5))).case == Case.INDEX_TWO

    def test_even_gcd_two_family(self):
        assert classify(CirculantSpec(6, 5, 4, (1, 0, 1, 0))).case == Case.EVEN_GCD_2

    def test_quartic_family_requires_gcd_mismatch(self):
        # m=4, r=4 has gcd 4, so the even-gcd-2 family passes it over
        assert (
            classify(CirculantSpec(4, 4, 4, (1, 0, 1, 0))).case
            == Case.QUARTIC_INDEX_4
        )

    def test_uncovered_combination(self):
        verdict = classify(CirculantSpec(10, 5, 5, (1, 1, 1, 1, 1)))
        assert verdict.status == Status.UNCOVERED
        assert verdict.case is None

    def test_coprime_even_r8(self):
        verdict = classify(CirculantSpec(8, 5, 5, (1, 1, 1, 1, 1)))
        assert verdict.status == Status.PSD
        assert verdict.case == Case.COPRIME_ODD

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError, match="odd order"):
            classify(CirculantSpec(3, 3, 1, (1,)))


class TestPsdVerdicts:
    def test_constant_positive_seed(self):
        verdict = classify(CirculantSpec(4, 3, 1, (2,)))
        assert verdict.status == Status.PSD
        assert verdict.certificate.kind == CertificateKind.POWER_SUM
        assert verdict.certificate.t == 1.0
        assert verdict.certificate.v0 == 2.0
        assert verdict.strong_hankel.kind == CertificateKind.STRONG_HANKEL

    def test_half_seed_gives_three_quarters(self):
        verdict = classify(CirculantSpec(4, 4, 2, (1, 0.5)))
        assert verdict.status == Status.PSD
        assert verdict.certificate.t == 0.75

    def test_quartic_interleaved(self):
        verdict = classify(CirculantSpec(4, 4, 4, (1, 0, 1, 0)))
        assert verdict.status == Status.PSD
        assert verdict.certificate.t == 0.5

    def test_even_family_with_wide_index(self):
        verdict = classify(CirculantSpec(6, 5, 4, (1, 0, 1, 0)))
        assert verdict.status == Status.PSD
        assert verdict.certificate.t == 0.5

    def test_zero_tensor(self):
        verdict = classify(CirculantSpec(4, 3, 1, (0,)))
        assert verdict.status == Status.PSD
        assert verdict.certificate.v0 == 0.0
        assert verdict.certificate.t == 1.0

    def test_boundary_seed_is_psd(self):
        verdict = classify(CirculantSpec(4, 4, 2, (1, 1.0)))
        assert verdict.status == Status.PSD
        result = sphere_min(expand(CirculantSpec(4, 4, 2, (1, 1.0))), starts=16)
        assert -1e-6 <= result.min_value <= 1e-6

    def test_negative_alternating_boundary(self):
        verdict = classify(CirculantSpec(4, 4, 2, (1, -1)))
        assert verdict.status == Status.PSD
        assert verdict.certificate.t == 0.0

    def test_certificate_identity_spot_checks(self):
        for spec in (
            CirculantSpec(4, 3, 1, (2,)),
            CirculantSpec(4, 4, 2, (1, 0.5)),
            CirculantSpec(6, 5, 4, (1, 0, 1, 0)),
            CirculantSpec(4, 4, 4, (1, 0.25, 1, 0.25)),
        ):
            verdict = classify(spec)
            passed, worst = verify_power_sum(expand(spec), verdict.certificate)
            assert passed, f"certificate identity broke for {spec}: {worst}"

    def test_power_sum_value_closed_form(self):
        cert = power_sum_certificate(expand(CirculantSpec(4, 4, 2, (1, 0.5))), 0.0)
        x = (0.3, -0.2, 0.9, 0.1)
        plain = sum(x) ** 4
        alternating = (x[0] - x[1] + x[2] - x[3]) ** 4
        assert power_sum_value(cert, 4, x) == pytest.approx(
            0.75 * plain + 0.25 * alternating
        )

    def test_certificate_requires_dominant_v0(self):
        with pytest.raises(ValueError, match="needs"):
            power_sum_certificate(expand(CirculantSpec(4, 4, 2, (1, 1.2))), 0.0)

    @pytest.mark.parametrize("spec", [
        CirculantSpec(4, 4, 2, (1, 0.5)),
        CirculantSpec(6, 5, 4, (3, Fraction(1, 2), 3, Fraction(1, 2))),
    ])
    def test_sampled_check_matches_point_loop(self, spec):
        # a wrong t makes the error depend on every point, so equal worst
        # errors mean the same points in the same order
        gen = expand(spec)
        cert = Certificate(CertificateKind.POWER_SUM, v0=float(gen.v[0]), t=0.6)
        rng = SplitMix64(3)
        worst = 0.0
        for _ in range(50):
            x = tuple(rng.uniform_signed() for _ in range(gen.n))
            direct, closed = float(eval_fast(gen, x)), power_sum_value(cert, gen.m, x)
            worst = max(worst, abs(direct - closed) / max(1.0, abs(direct), abs(closed)))
        passed, batched = verify_power_sum(gen, cert, points=50, rng_seed=3)
        assert not passed
        assert batched == pytest.approx(worst, rel=1e-12)

    @given(lam=st.floats(0.01, 100.0))
    @settings(deadline=None, max_examples=25)
    def test_scaling_invariance(self, lam):
        base = CirculantSpec(4, 4, 2, (1.0, 0.5))
        scaled = CirculantSpec(4, 4, 2, (lam, 0.5 * lam))
        assert classify(base).status == classify(scaled).status

    @given(lam=st.floats(0.01, 100.0))
    @settings(deadline=None, max_examples=25)
    def test_scaling_invariance_not_psd(self, lam):
        scaled = CirculantSpec(4, 4, 2, (lam, 1.2 * lam))
        assert classify(scaled).status == Status.NOT_PSD


class TestNotPsdVerdicts:
    def test_unequal_seeds_in_coprime_family(self):
        verdict = classify(CirculantSpec(4, 3, 3, (1, 2, 1)))
        assert verdict.status == Status.NOT_PSD
        assert verdict.witness is not None
        assert "unit-difference" in verdict.witness.label
        assert verdict.witness_value == -3

    def test_alternating_excess(self):
        verdict = classify(CirculantSpec(4, 4, 2, (1, 1.2)))
        assert verdict.status == Status.NOT_PSD
        assert verdict.witness.x == (1, -1, 0, 0)
        assert verdict.witness_value == pytest.approx(-1.6)

    def test_even_family_unequal_evens(self):
        verdict = classify(CirculantSpec(6, 5, 4, (1, 0, 2, 0)))
        assert verdict.status == Status.NOT_PSD
        assert verdict.witness_value < 0

    def test_negative_constant_seed(self):
        verdict = classify(CirculantSpec(4, 3, 1, (-1,)))
        assert verdict.status == Status.NOT_PSD
        assert verdict.witness_value == -1
        assert verdict.witness.label.startswith("unit")

    def test_witness_evaluation_matches_reported_value(self):
        for spec in (
            CirculantSpec(4, 3, 3, (1, 2, 1)),
            CirculantSpec(4, 4, 2, (1, 1.2)),
            CirculantSpec(6, 3, 3, (2, 2, 1)),
            CirculantSpec(4, 4, 4, (1, 0.5, 2, 0.5)),
            CirculantSpec(6, 5, 4, (1, 0, 2, 0)),
        ):
            verdict = classify(spec)
            assert verdict.status == Status.NOT_PSD
            gen = expand(spec)
            value = eval_fast(gen, verdict.witness.x)
            assert float(value) == pytest.approx(verdict.witness_value, rel=1e-12)
            assert value < -WITNESS_REL_MARGIN * gen.max_abs()

    def test_quartic_mismatched_pairs(self):
        verdict = classify(CirculantSpec(4, 4, 4, (1, 0.5, 1, -0.5)))
        assert verdict.status == Status.NOT_PSD

    def test_special_r3_rejects_unequal(self):
        verdict = classify(CirculantSpec(12, 3, 3, (1, 1, 2)))
        assert verdict.status == Status.NOT_PSD


#: Covered shapes with r > 1, including m = 2, for the near-rule seeds.
NEAR_RULE_SHAPES = ((8, 5, 3), (6, 4, 3), (4, 4, 2), (10, 4, 2), (2, 4, 2),
                    (6, 5, 4), (2, 5, 4), (4, 6, 4))


def _near_rule_seed(rng, r):
    """A seed that misses the rule by 2e-12 to 1e-11 of its scale: one entry
    moved, the odd entries past the even ones, or the even ones below the odd."""
    a = rng.uniform(0.5, 2.0)
    b = a * rng.uniform(-1.0, 1.0) if r % 2 == 0 else a
    seed = [a if s % 2 == 0 else b for s in range(r)]
    d = rng.uniform(2e-12, 1e-11) * a
    # moving one entry breaks the rule only where another entry must equal it
    kind = 0 if r % 2 else rng.randrange(r == 2, 3)
    if kind == 0:
        seed[rng.randrange(r)] += rng.choice((-1, 1)) * d
    elif kind == 1:
        seed[1::2] = [rng.choice((-1, 1)) * (a + d)] * (r // 2)
    else:
        seed[0::2] = [a - d] * ((r + 1) // 2)
        seed[1::2] = [rng.choice((-1, 1)) * a] * (r // 2)
    return tuple(seed)


class TestExactArbiter:
    """Witnesses whose float64 values are at rounding level are decided exactly."""

    def test_near_rule_seeds_have_exactly_negative_witnesses(self):
        rng = random.Random(5)
        below_margin = 0
        for _ in range(60):
            m, n, r = rng.choice(NEAR_RULE_SHAPES)
            spec = CirculantSpec(m, n, r, _near_rule_seed(rng, r))
            verdict = classify(spec, evidence_starts=16)
            assert verdict.status == Status.NOT_PSD, spec
            assert verdict.notes == (), spec
            gen = expand(spec)
            exact = eval_exact(gen, verdict.witness.x)
            assert exact < 0, spec
            if verdict.witness_value >= -WITNESS_REL_MARGIN * gen.max_abs():
                assert verdict.witness_value == float(exact)
                below_margin += 1
        assert below_margin >= 10

    def test_float_value_inside_its_rounding_bound_is_not_a_witness(self):
        # at this alpha witness a float64 evaluation cancels to -0.6875, while
        # the exact value is about +1.70: eval_fast rounds the exact value
        spec = CirculantSpec(6, 5, 4, (1.697658410866139, -1.697658410869975) * 2)
        gen = expand(spec)
        x = (256.0, 1.0, -256.0, 0.0, 0.0)
        assert eval_fast(gen, x) == float(eval_exact(gen, x))
        assert eval_exact(gen, x) > 1
        verdict = classify(spec)
        assert verdict.witness.x != x
        assert eval_exact(gen, verdict.witness.x) < 0

    def test_alpha_witness_of_an_exact_spec_is_evaluated_at_the_period(self, monkeypatch):
        # alpha witnesses have float coordinates; on an exact spec they are
        # evaluated exactly at r = 4, not on the L-entry float profile
        seen = []

        def recording(x, m, r):
            seen.append(r)
            return cyclic_power(x, m, r)

        monkeypatch.setattr(polyeval, "cyclic_power", recording)
        spec = CirculantSpec(4, 20, 4, (44, Fraction(759, 25), 44, 33))
        verdict = classify(spec)
        assert verdict.status == Status.NOT_PSD
        assert verdict.witness.label == "alpha(q=1, alpha=2.0)"
        assert verdict.witness_value == float(eval_exact(expand(spec), verdict.witness.x))
        assert verdict.witness_value == -272.8
        assert set(seen) == {4}


class TestWitnessPastFloat64:
    """A canonical candidate is the witness by the sign of its exact value,
    finite in float64 or not; past float64 it is reported clamped, with a note."""

    @staticmethod
    def _no_search(monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the sphere search ran")

        monkeypatch.setattr(oracle_mod, "sphere_min", refused)

    def test_index_2_canonical_witness_past_float64(self, monkeypatch):
        # f(1, -1, 0) = -2**(m - 2): past float64 from m = 1026 on
        self._no_search(monkeypatch)
        spec = CirculantSpec(1026, 3, 2, (0.5, 1))
        assert eval_fast(expand(spec), (1, -1, 0)) == -math.inf
        verdict = classify(spec)
        assert verdict.status == Status.NOT_PSD
        assert verdict.witness.label == "pattern(1, -1)"
        assert verdict.witness_value == -sys.float_info.max
        assert verdict.notes == (
            "the witness value is exactly -1.0 * 2**1024, past float64; "
            "it is reported as -1.7976931348623157e+308",
        )
        assert eval_exact(expand(spec), verdict.witness.x) == -(2**1024)

    def test_earlier_overflowing_candidate_wins_over_a_later_finite_one(self, monkeypatch):
        # pattern(1, -3, 2) overflows float64; pattern(1, 1), later in the
        # canonical order, is finite and negative, and was the witness while
        # only finite values were taken
        self._no_search(monkeypatch)
        spec = CirculantSpec(12, 3, 3, (1e303, -5e303, -3e303))
        gen = expand(spec)
        assert eval_fast(gen, (1, -3, 2)) == -math.inf
        assert -math.inf < eval_fast(gen, (1, 1, 0)) < 0
        verdict = classify(spec)
        assert verdict.witness.label == "pattern(1, -3, 2)"
        assert verdict.witness_value == -sys.float_info.max
        exact = eval_exact(gen, verdict.witness.x)
        assert exact < -sys.float_info.max
        e = exact.numerator.bit_length() - exact.denominator.bit_length()
        assert verdict.notes == (
            f"the witness value is exactly {float(exact / 2**e)!r} * 2**{e}, past float64; "
            "it is reported as -1.7976931348623157e+308",
        )

    def test_exact_value_is_computed_once(self, monkeypatch):
        calls = []

        def counting(gen, x):
            calls.append(x)
            return exact(gen, x)

        exact = classifier_mod.eval_exact
        monkeypatch.setattr(classifier_mod, "eval_exact", counting)
        verdict = classify(CirculantSpec(1026, 3, 2, (0.5, 1)))
        assert len(verdict.notes) == 1
        assert calls == [(1, -1, 0)]
        # exact input: eval_fast's value is the exact one, and is reused
        calls.clear()
        verdict = classify(CirculantSpec(1026, 3, 2, (1, 2)))
        assert verdict.witness_value == -sys.float_info.max
        assert len(verdict.notes) == 1
        assert calls == []


def _reference_candidates(case, gen, tol):
    """The candidate sequence as a generator that builds every record on each
    call: the reference for the cached families."""
    yield from classifier_mod._necessary_witnesses(gen, tol)
    n = gen.n
    if case in (Case.COPRIME_ODD, Case.INDEX_3_SPECIAL):
        yield from differences(n, 1)
    if case == Case.INDEX_3_SPECIAL:
        yield from pattern_witnesses(n, ((1, -1), (1, 1, -2), (1, -3, 2), (1, 2, -3)))
    if case == Case.INDEX_TWO:
        yield from pattern_witnesses(n, ((1, -1), (1, 1)))
    if case == Case.EVEN_GCD_2:
        yield from differences(n, 2)
        yield from pattern_witnesses(n, ((1, -1), (1, 1)))
        for alpha in classifier_mod.ALPHA_LADDER:
            yield from alpha_witnesses(n, "alpha", alpha)
    if case == Case.QUARTIC_INDEX_4:
        yield from pattern_witnesses(n, ((1, 0, -1, 0), (1, -1, -1, 1), (1, -1), (1, 1)))
        for alpha in classifier_mod.ALPHA_LADDER:
            for family in ("alpha", "alpha-neg"):
                yield from alpha_witnesses(n, family, alpha)
    yield from differences(n, 1)
    if n >= 3:
        yield from differences(n, 2)
    yield from pattern_witnesses(n, NAMED_PATTERNS)


def _drain(candidates):
    """Each record's repr (which tells 2 from 2.0) up to the end or the first error."""
    out = []
    try:
        for witness in candidates:
            out.append(repr(witness))
    except ValueError as exc:
        out.append(f"ValueError: {exc}")
    return out


def _clear_family_caches():
    for cached in (classifier_mod._family_prefix, classifier_mod._alpha_rung,
                   classifier_mod._generic_tail):
        cached.cache_clear()


#: NotPSD specs over every covered case, some of which climb the alpha ladder.
NOT_PSD_BATTERY = (
    CirculantSpec(4, 4, 1, (-1,)),
    CirculantSpec(8, 5, 3, (1, 1, 2)),
    CirculantSpec(6, 4, 3, (1, 1, 2)),
    CirculantSpec(12, 8, 3, (2, 1, 2)),
    CirculantSpec(4, 4, 2, (1, 1.2)),
    CirculantSpec(20, 6, 2, (1, -3)),
    CirculantSpec(6, 5, 4, (1.697658410866139, -1.697658410869975) * 2),
    CirculantSpec(6, 10, 4, (2, 1, 2.5, 1)),
    CirculantSpec(4, 6, 4, (1, 0.5, 1, 0.7)),
    CirculantSpec(4, 20, 4, (44, Fraction(759, 25), 44, 33)),
    CirculantSpec(4, 4, 4, (1.0, -1.09, 1.0, -1.18)),
)


class TestWitnessFamilies:
    """Each (case, n) builds its family records once; the sequence is the old one."""

    @pytest.mark.parametrize("case", [*Case, None])
    def test_cached_sequence_matches_the_reference(self, case):
        for n in range(2, 13):
            # v[0] < 0 puts the unit witness e_1 in front of the families
            gen = GeneratingVector(2, n, (-1,) + (1,) * (2 * n - 2))
            reference = _drain(_reference_candidates(case, gen, 0))
            _clear_family_caches()
            assert _drain(classifier_mod._witness_candidates(case, gen, 0)) == reference
            # the second walk reads every record from the caches
            assert _drain(classifier_mod._witness_candidates(case, gen, 0)) == reference

    def test_records_are_built_once(self):
        _clear_family_caches()
        first = classifier_mod._family_prefix(Case.QUARTIC_INDEX_4, 6)
        assert classifier_mod._family_prefix(Case.QUARTIC_INDEX_4, 6) is first
        rung = classifier_mod._alpha_rung(Case.QUARTIC_INDEX_4, 6, 2.0)
        assert classifier_mod._alpha_rung(Case.QUARTIC_INDEX_4, 6, 2.0) is rung
        assert classifier_mod._generic_tail(6) is classifier_mod._generic_tail(6)

    def test_rungs_are_built_when_first_read(self):
        _clear_family_caches()
        verdict = classify(CirculantSpec(4, 20, 4, (44, Fraction(759, 25), 44, 33)))
        assert verdict.witness.label == "alpha(q=1, alpha=2.0)"
        # the verdict stopped at the first record of the second rung
        assert classifier_mod._alpha_rung.cache_info().currsize == 2

    def test_cold_and_warm_verdicts_agree(self):
        cold = []
        for spec in NOT_PSD_BATTERY:
            _clear_family_caches()
            cold.append(classify(spec, evidence_starts=8).to_dict())
        warm = [classify(spec, evidence_starts=8).to_dict() for spec in NOT_PSD_BATTERY]
        assert all(doc["status"] == "NotPSD" for doc in cold)
        assert warm == cold

    def test_threads_agree(self):
        specs = [CirculantSpec(4, 20, 4, (44, Fraction(759, 25), 44, 33)),
                 CirculantSpec(4, 20, 4, (1, 0.5, 1, 0.7)),
                 CirculantSpec(4, 20, 4, (1, -1.5, 1, -1.5))]
        expected = [classify(spec).to_dict() for spec in specs]
        results, errors = [None] * 4, []

        def worker(k):
            try:
                results[k] = [classify(spec).to_dict() for spec in specs * 3]
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                errors.append(exc)

        _clear_family_caches()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [expected * 3] * 4


def _check(spec, rel_tol=1e-12):
    gen = expand(spec)
    return strong_hankel_check(gen, power_sum_certificate(gen, 0.0), rel_tol)


class TestStrongHankel:
    def test_all_ones_spectrum(self):
        result = _check(CirculantSpec(4, 3, 1, (1,)))
        assert result.passed
        assert result.size == 5
        assert result.residual == 0.0
        assert result.min_eigenvalue == 0.0

    def test_alternating_rank_two(self):
        result = _check(CirculantSpec(4, 4, 2, (1, -1)))
        assert result.passed
        assert result.residual == 0.0
        assert result.min_eigenvalue == 0.0

    def test_indefinite_matrix_fails(self):
        # v1 = v0 * (2t - 1) = 1.2 needs t = 1.1, so beta = v0 * (1 - t) < 0
        gen = expand(CirculantSpec(4, 4, 2, (1, 1.2)))
        result = strong_hankel_check(gen, Certificate(CertificateKind.POWER_SUM, v0=1.0, t=1.1))
        assert not result.passed
        assert result.min_eigenvalue < -0.1
        lapack = matrix_psd(hankel_matrix(gen).a).min_eigenvalue
        assert result.min_eigenvalue == pytest.approx(lapack, abs=1e-9)

    def test_psd_implies_strong_for_covered_cases(self):
        for spec in (
            CirculantSpec(4, 3, 3, (2, 2, 2)),
            CirculantSpec(6, 3, 3, (1, 1, 1)),
            CirculantSpec(4, 4, 2, (1, 0.5)),
            CirculantSpec(6, 5, 4, (3, 1, 3, 1)),
            CirculantSpec(4, 4, 4, (1, 0.25, 1, 0.25)),
        ):
            verdict = classify(spec)
            assert verdict.status == Status.PSD
            assert strong_hankel_check(expand(spec), verdict.certificate, verdict.tolerance).passed

    @pytest.mark.parametrize("spec", [
        CirculantSpec(4, 4, 2, (1, 0.5)),
        CirculantSpec(6, 5, 4, (3, Fraction(1, 3), 3, Fraction(1, 3))),
        CirculantSpec(30, 5, 2, (1.0, -0.3)),
    ])
    def test_nudged_t_fails(self, spec):
        verdict = classify(spec)
        cert = verdict.certificate
        nudged = Certificate(cert.kind, v0=cert.v0, t=cert.t + 1e-6)
        assert strong_hankel_check(expand(spec), cert, verdict.tolerance).passed
        assert not strong_hankel_check(expand(spec), nudged, verdict.tolerance).passed

    def test_slack_is_the_verdict_tolerance(self):
        # the odd seeds sit 0.4 from v1, inside a relative tolerance of 0.5
        spec = CirculantSpec(4, 3, 3, (1.0, 1.4, 1.0))
        verdict = classify(spec, rel_tol=0.5)
        assert verdict.status == Status.PSD
        assert strong_hankel_check(expand(spec), verdict.certificate, 0.5).passed
        assert not strong_hankel_check(expand(spec), verdict.certificate).passed

    @pytest.mark.parametrize("spec", [
        CirculantSpec(2, 2, 2, (1e-320, -5e-324)),
        CirculantSpec(8, 3, 2, (5e-324, -0.0)),
    ])
    def test_subnormal_seed_passes_the_check(self, spec):
        # alpha = v0 * t lands one subnormal ulp off, where ulp(1.0) * max|v|
        # underflows to zero: the slack keeps at least one ulp of max|v|
        verdict = classify(spec)
        assert verdict.status == Status.PSD
        check = strong_hankel_check(expand(spec), verdict.certificate)
        assert check.passed
        assert 0 < check.residual <= check.slack

    def test_floor_matches_eigenvalues(self):
        for spec in (
            CirculantSpec(2, 2, 2, (1.0, 0.5)),  # size 2: eigenvalues 2*alpha, 2*beta
            CirculantSpec(2, 3, 2, (1.0, 0.5)),
            CirculantSpec(4, 4, 2, (1.0, -0.3)),
            CirculantSpec(6, 5, 4, (2.5, 1.0, 2.5, 1.0)),
        ):
            gen = expand(spec)
            floor = _check(spec).min_eigenvalue
            assert floor == pytest.approx(matrix_psd(hankel_matrix(gen).a).min_eigenvalue, abs=1e-12)

    @pytest.mark.parametrize("alpha, beta", [
        (1.1, -0.1), (-0.1, 1.1), (-0.5, -0.25), (0.3, -1e-13), (-1e-13, 0.7), (0.0, -2.0),
    ])
    def test_floor_with_a_negative_coefficient(self, alpha, beta):
        # the floor is exact for the Gram form, and a lower bound on A's own
        for m, n in ((2, 2), (2, 3), (4, 2), (2, 5), (4, 4), (6, 5)):
            gen = expand(CirculantSpec(m, n, 2, (alpha + beta, alpha - beta)))
            cert = Certificate(CertificateKind.POWER_SUM, v0=alpha + beta, t=alpha / (alpha + beta))
            result = strong_hankel_check(gen, cert)
            lapack = matrix_psd(hankel_matrix(gen).a).min_eigenvalue
            assert result.min_eigenvalue <= lapack + 1e-12
            assert result.min_eigenvalue == pytest.approx(lapack, abs=1e-9)

    @pytest.mark.parametrize("spec", [
        CirculantSpec(6, 5, 4, (1.0, -1.09, 1.0, -1.18)),  # even-gcd-2
        CirculantSpec(4, 4, 4, (1.0, -1.09, 1.0, -1.18)),  # quartic-index-4
        CirculantSpec(6, 5, 4, (1.0, -1.0 - 0.9e-12, 1.0, -1.0 - 1.8e-12)),
    ])
    def test_chained_seed_comparisons_pass_the_check(self, spec):
        # -1.18 is within tol of v1 and |v1| within tol of v0, so the seed
        # criterion accepts it although it sits nearly 2*tol from t = 0's -v0
        rel_tol = 0.1 if spec.seed[1] == -1.09 else 1e-12
        verdict = classify(spec, rel_tol=rel_tol)
        assert verdict.status == Status.PSD
        assert verdict.certificate.t == 0.0
        check = strong_hankel_check(expand(spec), verdict.certificate, rel_tol)
        assert check.passed
        assert check.residual > 1.5 * rel_tol * 1.18
        lapack = matrix_psd(hankel_matrix(expand(spec)).a).min_eigenvalue
        assert verdict.strong_hankel.matrix_eigen_floor <= lapack

    @pytest.mark.parametrize("subject", [
        CirculantSpec(6, 5, 4, (3, Fraction(1, 3), 3, Fraction(1, 3))),
        CirculantSpec(8, 6, 2, (5, -2)),
        CirculantSpec(30, 5, 2, (1.0, -0.3)),
        CirculantSpec(6, 5, 4, (1.0, -0.9, 1.0, -0.95)),
        GeneratingVector(4, 3, (1.0, 0.5, 1.0, 0.5000001, 1.0, 0.5, 0.9999, 0.5, 1.0)),
    ])
    def test_residual_is_the_maximum_over_every_entry(self, subject):
        # the check reads v's window, each distinct object once, which gives
        # the max over all L entries, for the verdict's certificate and a
        # wrong one
        gen = subject if isinstance(subject, GeneratingVector) else expand(subject)
        for cert in (power_sum_certificate(gen, 0.0),
                     Certificate(CertificateKind.POWER_SUM, v0=1.0, t=0.3)):
            alpha, beta = cert.v0 * cert.t, cert.v0 * (1.0 - cert.t)
            expected = max(max(abs(float(t) - (alpha + beta)) for t in gen.v[0::2]),
                           max(abs(float(t) - (alpha - beta)) for t in gen.v[1::2]))
            assert strong_hankel_check(gen, cert).residual == expected

    def test_wrong_certificate_raises_in_classify(self, monkeypatch):
        def wrong_t(gen, tol):
            return Certificate(CertificateKind.POWER_SUM, v0=float(gen.v[0]), t=0.5)

        monkeypatch.setattr(classifier_mod, "power_sum_certificate", wrong_t)
        with pytest.raises(RuntimeError, match="fails its identity check"):
            classify(CirculantSpec(4, 4, 2, (1, 0.5)))

    def test_classify_runs_no_eigensolver(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("PSD verdicts need no eigensolver")

        monkeypatch.setattr(oracle_mod, "matrix_psd", forbidden)
        for spec in (
            CirculantSpec(4, 3, 1, (2,)),
            CirculantSpec(30, 5, 2, (1.0, -0.3)),
            CirculantSpec(12, 8, 3, (2, 2, 2)),
            CirculantSpec(6, 5, 4, (3, 1, 3, 1)),
            CirculantSpec(4, 4, 4, (1, 0.25, 1, 0.25)),
        ):
            assert classify(spec).status == Status.PSD


class TestUncoveredAndNotes:
    def test_uncovered_attaches_labeled_evidence(self):
        verdict = classify(CirculantSpec(10, 5, 5, (1, 1, 1, 1, 1)))
        assert verdict.status == Status.UNCOVERED
        assert verdict.evidence is not None
        assert verdict.evidence.min_value >= -1e-6
        assert any("not a certificate" in note for note in verdict.notes)

    def test_high_order_evidence_stays_at_rounding_level(self):
        # (x_1 + ... + x_12)^60 >= 0; f reaches 12^30 ~ 2.4e32 on the sphere
        verdict = classify(CirculantSpec(60, 12, 3, (1, 1, 1)))
        assert verdict.status == Status.UNCOVERED
        assert verdict.evidence.min_value >= -1e-6

    def test_uncovered_with_failing_necessary_condition(self):
        verdict = classify(CirculantSpec(10, 5, 5, (-1, 1, 1, 1, 1)))
        assert verdict.status == Status.NOT_PSD
        assert verdict.case == Case.NECESSARY_ONLY
        assert verdict.witness_value < 0

    def test_wide_index_note(self):
        # r = 6 > n = 5 is legal because 2n - 4 = 6; the verdict says so
        verdict = classify(CirculantSpec(8, 5, 6, (1, 0, 1, 0, 1, 0)))
        assert verdict.case == Case.EVEN_GCD_2
        assert any("extends" in note for note in verdict.notes)

    def test_generating_vector_without_index(self):
        gen = GeneratingVector(4, 3, (1,) * 9)
        verdict = classify(gen)
        assert verdict.status == Status.UNCOVERED
        assert any("no circulant index" in note for note in verdict.notes)

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -math.inf, -1e-12])
    def test_tolerance_must_be_finite_and_nonnegative(self, rel_tol):
        for subject in (CirculantSpec(4, 4, 2, (1.0, 1.2)), GeneratingVector(2, 2, (1, 0, 1))):
            with pytest.raises(ValueError, match="tolerance"):
                classify(subject, rel_tol=rel_tol)

    @pytest.mark.parametrize("starts", [0, -1])
    def test_evidence_starts_below_one_is_refused(self, starts):
        # PSD, NotPSD and Uncovered subjects alike, before any search could run
        subjects = (
            CirculantSpec(4, 4, 2, (1, 0.5)),
            CirculantSpec(4, 4, 2, (1.0, 1.2)),
            CirculantSpec(10, 5, 5, (1, 1, 1, 1, 1)),
            GeneratingVector(2, 2, (1, 0, 1)),
        )
        for subject in subjects:
            with pytest.raises(ValueError, match="starts must be >= 1"):
                classify(subject, evidence_starts=starts)

    def test_generating_vector_refuted_by_units(self):
        v = [1.0] * 9
        v[4] = -2.0
        verdict = classify(GeneratingVector(4, 3, tuple(v)))
        assert verdict.status == Status.NOT_PSD
        assert verdict.witness.x == (0, 1, 0)
        assert verdict.witness_value == -2.0


class TestExactMode:
    def test_fraction_seeds_use_zero_tolerance(self):
        # a disparity far below the float tolerance still refutes in exact mode
        eps = Fraction(1, 10**40)
        verdict = classify(CirculantSpec(4, 3, 3, (1, 1, 1 + eps)), rel_tol=1e-12)
        assert verdict.status == Status.NOT_PSD

    def test_fraction_witness_margin_note(self):
        # no float value clears the margin; the witness is exactly negative,
        # so it carries no note
        eps = Fraction(1, 10**40)
        spec = CirculantSpec(4, 3, 3, (1, 1, 1 + eps))
        verdict = classify(spec)
        assert -1e-30 < verdict.witness_value < 0
        assert eval_exact(expand(spec), verdict.witness.x) < 0
        assert verdict.notes == ()

    def test_float_seeds_use_relative_tolerance(self):
        verdict = classify(CirculantSpec(4, 3, 3, (1.0, 1.0, 1.0 + 1e-14)))
        assert verdict.status == Status.PSD

    def test_scale_and_exactness_visit_each_seed_object_once(self, monkeypatch):
        calls, scanned = [], []

        class CountingFraction(Fraction):
            def __float__(self):
                calls.append(self)
                return super().__float__()

        def spy(fn):
            return lambda values, *rest: scanned.append(len(values)) or fn(values, *rest)

        monkeypatch.setattr(classifier_mod, "_scale", spy(classifier_mod._scale))
        monkeypatch.setattr(classifier_mod, "_effective_tol", spy(classifier_mod._effective_tol))
        seed = (CountingFraction(7, 3), CountingFraction(-9, 2), 0.5)
        gen = expand(CirculantSpec(30, 5, 3, seed))  # 121 entries, 3 objects
        calls.clear()
        assert gen.max_abs() == 4.5
        assert len(calls) == 2
        check = strong_hankel_check(gen, Certificate(CertificateKind.POWER_SUM, v0=4.5, t=1.0))
        assert check.slack == 2 * 1e-12 * 4.5 + 8 * math.ulp(1.0) * 4.5
        exact = GeneratingVector(30, 5, expand(CirculantSpec(30, 5, 2, seed[1::-1])).v)
        assert classify(exact).status is Status.NOT_PSD
        assert scanned and max(scanned) <= 3


#: The README's six rows as written there, each comparison given the slack tol.
README_ROWS = {
    Case.INDEX_ONE: lambda v, tol: v[0] >= -tol,
    Case.COPRIME_ODD: lambda v, tol: max(v) - min(v) <= tol and v[0] >= -tol,
    Case.INDEX_3_SPECIAL: lambda v, tol: max(v) - min(v) <= tol and v[0] >= -tol,
    Case.INDEX_TWO: lambda v, tol: abs(v[1]) <= v[0] + tol,
    Case.EVEN_GCD_2: lambda v, tol: (
        max(v[0::2]) - min(v[0::2]) <= tol
        and max(v[1::2]) - min(v[1::2]) <= tol
        and v[0] >= abs(v[1]) - tol
    ),
    Case.QUARTIC_INDEX_4: lambda v, tol: (
        abs(v[0] - v[2]) <= tol and abs(v[1] - v[3]) <= tol and abs(v[1]) <= v[0] + tol
    ),
}
ROW_SHAPES = {
    Case.INDEX_ONE: (4, 3, 1),
    Case.COPRIME_ODD: (4, 6, 5),
    Case.INDEX_3_SPECIAL: (6, 4, 3),
    Case.INDEX_TWO: (4, 4, 2),
    Case.EVEN_GCD_2: (6, 5, 4),
    Case.QUARTIC_INDEX_4: (4, 6, 4),
}
#: Large enough that 1.5 tol off the rule is far above witness resolution.
MARGIN_TOL = 0.01


def _seeds_around_the_rule(r, one, d, within):
    """(seed, PSD?) pairs: each seed misses one condition of the rule by d, the
    others held with room; ``within`` says whether d is inside the slack."""
    if r % 2:
        # the slack scales with max|seed|, so below zero only the sign counts
        pairs = [([-d * one] * r, d == 0)]
        if r > 1:
            pairs += [([one] * (r - 1) + [one + d], within), ([one] * (r - 1) + [one - d], within)]
        return pairs
    pairs = [([one, one + d] * (r // 2), within), ([one, -one - d] * (r // 2), within)]
    for i in range(2, r):  # the parity classes
        for sign in (1, -1):
            seed = [one, one / 2] * (r // 2)
            seed[i] += sign * d
            pairs.append((seed, within))
    return pairs


class TestSeedRuleMargins:
    @pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
    @pytest.mark.parametrize("case", list(ROW_SHAPES), ids=lambda case: case.value)
    def test_status_follows_the_readme_row(self, case, exact):
        m, n, r = ROW_SHAPES[case]
        one = Fraction(1) if exact else 1.0
        misses = (0, Fraction(1, 1000)) if exact else (0.5 * MARGIN_TOL, 1.5 * MARGIN_TOL)
        for within, d in zip((True, False), misses):
            for seed, psd in _seeds_around_the_rule(r, one, d, within):
                tol = 0 if exact else MARGIN_TOL * max(abs(t) for t in seed)
                assert README_ROWS[case](seed, tol) == psd, seed
                verdict = classify(CirculantSpec(m, n, r, tuple(seed)), rel_tol=MARGIN_TOL)
                assert verdict.case == case
                assert verdict.status == (Status.PSD if psd else Status.NOT_PSD), seed


class TestSerialization:
    def test_verdict_to_dict_is_json_ready(self):
        for spec in (
            CirculantSpec(4, 3, 1, (2,)),
            CirculantSpec(4, 4, 2, (1, 1.2)),
            CirculantSpec(10, 5, 5, (1, 1, 1, 1, 1)),
        ):
            verdict = classify(spec)
            payload = json.loads(json.dumps(verdict.to_dict()))
            assert payload["status"] == verdict.status.value
            assert "tolerance" in payload

    def test_not_psd_dict_carries_witness(self):
        payload = classify(CirculantSpec(4, 4, 2, (1, 1.2))).to_dict()
        assert payload["witness"] == [1.0, -1.0, 0.0, 0.0]
        assert payload["witness_value"] == pytest.approx(-1.6)


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_verdicts_match_seed_criteria(data):
    """Random seeds against the closed-form condition evaluated independently."""
    family = data.draw(
        st.sampled_from(["index-1", "coprime", "r2", "even", "quartic"]),
        label="family",
    )
    vals = st.floats(-2, 2, allow_nan=False, width=32)
    if family == "index-1":
        spec = CirculantSpec(4, 4, 1, (data.draw(vals),))
        expected = spec.seed[0] >= 0
    elif family == "coprime":
        seed = tuple(data.draw(vals) for _ in range(3))
        spec = CirculantSpec(4, 3, 3, seed)
        expected = seed[0] == seed[1] == seed[2] and seed[0] >= 0
    elif family == "r2":
        seed = (data.draw(vals), data.draw(vals))
        spec = CirculantSpec(4, 4, 2, seed)
        expected = abs(seed[1]) <= seed[0]
    elif family == "even":
        seed = tuple(data.draw(vals) for _ in range(4))
        spec = CirculantSpec(6, 5, 4, seed)
        expected = (
            seed[0] == seed[2] and seed[1] == seed[3] and abs(seed[1]) <= seed[0]
        )
    else:
        seed = tuple(data.draw(vals) for _ in range(4))
        spec = CirculantSpec(4, 4, 4, seed)
        expected = (
            seed[0] == seed[2] and seed[1] == seed[3] and abs(seed[1]) <= seed[0]
        )
    verdict = classify(spec)
    assert verdict.status == (Status.PSD if expected else Status.NOT_PSD)

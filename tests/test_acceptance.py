"""Acceptance gate: eight go/no-go criteria, one printed verdict line each.

Criteria 3-5 share one battery of 1200 classified instances (12 covered
configurations x 100 seeds).  Seed generation is stratified: every fourth
seed is constructed to satisfy its case's equalities exactly (the PSD sets
of the equality-constrained cases have measure zero, so uniform draws alone
would never exercise the PSD branch), and the remaining draws are required
to violate the case conditions by at least 5% of the seed scale so that
witness evaluations sit far from the decision thresholds.
"""

import contextlib
import random
import time
from fractions import Fraction

from anticirculant.classifier import (
    CertificateKind,
    Status,
    classify,
    verify_power_sum,
)
from anticirculant.combinatorics import (
    PeriodicSequence,
    SequenceVerdict,
    residue_sum_table,
    theorem1_sums,
    theorem1_verdict,
)
from anticirculant.oracle import matrix_psd, sphere_min
from anticirculant.polyeval import (
    eval_fast,
    eval_naive,
    residue_components,
    value_and_gradient,
)
from anticirculant.tensor import (
    CirculantSpec,
    GeneratingVector,
    expand,
    genvec_length,
    hankel_matrix,
)


@contextlib.contextmanager
def criterion(number, name, capsys):
    """Print exactly one [criterion N] PASS/FAIL line, bypassing capture."""
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"\n[criterion {number}] {name}: FAIL")
        raise
    detail = f" ({info['detail']})" if info["detail"] else ""
    with capsys.disabled():
        print(f"\n[criterion {number}] {name}: PASS{detail}")


# --- criteria 3-5: shared battery of covered configurations ---------------

BATTERY_CONFIGS = (
    ("index-1", 4, 4, 1),
    ("coprime-odd", 4, 3, 3),
    ("coprime-odd", 6, 5, 5),
    ("coprime-odd", 2, 3, 3),
    ("index-3-special", 6, 4, 3),
    ("index-2", 2, 4, 2),
    ("index-2", 4, 4, 2),
    ("index-2", 6, 4, 2),
    ("even-gcd-2", 6, 5, 4),
    ("even-gcd-2", 2, 4, 4),
    ("quartic-index-4", 4, 4, 4),
    ("quartic-index-4", 4, 5, 4),
)
SEEDS_PER_CONFIG = 100
VIOLATION_FRACTION = 0.05  # violated draws must miss the conditions by >= 5%


def constructed_psd_seed(tag, r, rng):
    """A seed satisfying the case's sufficient conditions, equalities exact."""
    if tag == "index-1":
        u = 0.0 if rng.random() < 0.1 else round(rng.uniform(0.0, 2.0), 3)
        return (u,)
    if tag in ("coprime-odd", "index-3-special"):
        c = 0.0 if rng.random() < 0.1 else round(rng.uniform(0.0, 2.0), 3)
        return (c,) * r
    # index-2, even-gcd-2, quartic-index-4: v0 >= |v1| with the even/odd
    # positions repeating exactly.
    a = round(rng.uniform(0.0, 2.0), 3)
    sign = rng.choice((-1.0, 1.0))
    b = sign * a if rng.random() < 0.15 else sign * a * rng.random()
    pair = (a, b)
    return tuple(pair[i % 2] for i in range(r))


def condition_violation(tag, seed):
    """How far the seed is from the case's PSD conditions (0 = satisfied)."""
    if tag == "index-1":
        return -seed[0]
    if tag in ("coprime-odd", "index-3-special"):
        return max(max(seed) - min(seed), -min(seed))
    if tag == "index-2":
        return abs(seed[1]) - seed[0]
    # even-gcd-2 / quartic-index-4: v0 = v2, v1 = v3, v0 >= |v1|
    return max(abs(seed[0] - seed[2]), abs(seed[1] - seed[3]), abs(seed[1]) - seed[0])


def violated_seed(tag, r, rng):
    """A uniform draw rejected until the case conditions fail by a clear margin."""
    for _ in range(1000):
        seed = tuple(rng.uniform(-2.0, 2.0) for _ in range(r))
        scale = max(1.0, max(abs(t) for t in seed))
        if condition_violation(tag, seed) >= VIOLATION_FRACTION * scale:
            return seed
    raise AssertionError(f"could not draw a clearly violated seed for {tag}")


def _run_battery():
    records = []
    started = time.perf_counter()
    for config_index, (tag, m, n, r) in enumerate(BATTERY_CONFIGS):
        rng = random.Random(1000 + config_index)
        for i in range(SEEDS_PER_CONFIG):
            expect_psd = i % 4 == 0
            seed = (
                constructed_psd_seed(tag, r, rng)
                if expect_psd
                else violated_seed(tag, r, rng)
            )
            spec = CirculantSpec(m=m, n=n, r=r, seed=seed)
            gen = expand(spec)
            verdict = classify(spec)
            record = {
                "tag": tag,
                "spec": spec,
                "gen": gen,
                "verdict": verdict,
                "expect_psd": expect_psd,
            }
            if verdict.status is Status.NOT_PSD:
                record["witness_eval"] = float(eval_fast(gen, verdict.witness.x))
            elif verdict.status is Status.PSD:
                record["oracle"] = sphere_min(gen, starts=64, rng_seed=0)
            records.append(record)
    elapsed = time.perf_counter() - started
    return {"records": records, "elapsed": elapsed}


_BATTERY_CACHE = {}


def battery():
    if "value" not in _BATTERY_CACHE:
        try:
            _BATTERY_CACHE["value"] = ("ok", _run_battery())
        except BaseException as exc:
            _BATTERY_CACHE["value"] = ("error", exc)
            raise
    kind, payload = _BATTERY_CACHE["value"]
    if kind == "error":
        raise payload
    return payload


# --- criterion 1 -----------------------------------------------------------


def test_criterion_1_sign_fact_table(capsys):
    with criterion(1, "exact alternating-sum sign facts", capsys) as info:
        started = time.perf_counter()
        facts = 0

        for m in (6, 18, 30, 42):
            assert residue_sum_table(m, 3, (1, -1)).sums[0] < 0
            assert residue_sum_table(m, 3, (1, 1, -2)).sums[0] > 0
            facts += 2
        assert residue_sum_table(12, 3, (1, -1)).sums[0] > 0
        facts += 1

        falling = residue_sum_table(12, 3, (1, -3, 2))
        rising = residue_sum_table(12, 3, (1, 2, -3))
        assert falling.sums[0] < 0
        assert rising.sums[0] == falling.sums[0]
        facts += 2

        for m in (6, 12, 18, 30, 42):
            table = residue_sum_table(m, 3, (1, -1))
            assert table.sums[1] == table.sums[2]
            facts += 1

        rising_gap = rising.sums[1] - rising.sums[2]
        falling_gap = falling.sums[1] - falling.sums[2]
        assert rising_gap == -falling_gap
        assert rising_gap != 0
        facts += 1

        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        info["detail"] = f"{facts} exact integer facts, {elapsed:.2f}s < 5s"


# --- criterion 2 -----------------------------------------------------------


def test_criterion_2_rigidity_property_suite(capsys):
    with criterion(2, "alternating sums on random periodic sequences", capsys) as info:
        rng = random.Random(2026)

        def rational():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

        constant_count = mixed_count = 0
        for i in range(1000):
            period = rng.randint(2, 6)
            order = rng.randint(1, 8)
            if i % 5 == 0:
                entries = (rational(),) * period
            else:
                entries = tuple(rational() for _ in range(period))
                while all(t == entries[0] for t in entries):
                    entries = tuple(rational() for _ in range(period))
            seq = PeriodicSequence(entries)
            sums = theorem1_sums(seq, order)
            verdict = theorem1_verdict(seq, order)
            if seq.is_constant():
                assert all(d == 0 for d in sums)
                assert verdict is SequenceVerdict.FORCED_CONSTANT
                constant_count += 1
            else:
                assert any(d > 0 for d in sums) and any(d < 0 for d in sums)
                assert verdict is SequenceVerdict.MIXED_SIGNS
                mixed_count += 1
        info["detail"] = (
            f"1000 sequences: {constant_count} constant all-zero, "
            f"{mixed_count} non-constant mixed-sign, 0 failures"
        )


# --- criterion 3 -----------------------------------------------------------


def test_criterion_3_classifier_oracle_agreement(capsys):
    with criterion(3, "classifier-oracle agreement on covered cases", capsys) as info:
        result = battery()
        records = result["records"]
        assert len(records) == len(BATTERY_CONFIGS) * SEEDS_PER_CONFIG

        psd_count = notpsd_count = 0
        worst_witness_ratio = float("-inf")  # closest-to-zero witness, over scale
        oracle_floor = 0.0
        for rec in records:
            verdict = rec["verdict"]
            assert verdict.case is not None and verdict.case.value == rec["tag"]
            if rec["expect_psd"]:
                assert verdict.status is Status.PSD
            else:
                assert verdict.status is Status.NOT_PSD
            scale = max(1.0, rec["gen"].max_abs())
            if verdict.status is Status.NOT_PSD:
                notpsd_count += 1
                ratio = rec["witness_eval"] / scale
                assert ratio < -1e-8
                worst_witness_ratio = max(worst_witness_ratio, ratio)
            else:
                psd_count += 1
                assert rec["oracle"].min_value >= -1e-6
                oracle_floor = min(oracle_floor, rec["oracle"].min_value)

        elapsed = result["elapsed"]
        assert elapsed < 300.0
        info["detail"] = (
            f"{len(records)} instances ({psd_count} PSD, {notpsd_count} NotPSD); "
            f"thinnest witness margin {worst_witness_ratio:.3e} < -1e-8; "
            f"oracle floor {oracle_floor:.3e} >= -1e-6; {elapsed:.1f}s < 300s"
        )


# --- criterion 4 -----------------------------------------------------------


def test_criterion_4_power_sum_certificates(capsys):
    with criterion(4, "power-sum certificate identity", capsys) as info:
        psd_records = [
            rec for rec in battery()["records"] if rec["verdict"].status is Status.PSD
        ]
        assert psd_records, "battery produced no PSD verdicts"
        worst = 0.0
        for rec in psd_records:
            cert = rec["verdict"].certificate
            assert cert is not None and cert.kind is CertificateKind.POWER_SUM
            passed, err = verify_power_sum(
                rec["gen"], cert, points=1000, rng_seed=0, rel_tol=1e-9
            )
            assert passed
            worst = max(worst, err)
        info["detail"] = (
            f"{len(psd_records)} certificates x 1000 points, "
            f"max rel err {worst:.3e} <= 1e-9"
        )


# --- criterion 5 -----------------------------------------------------------


def test_criterion_5_strong_hankel_matrices(capsys):
    with criterion(5, "associated Hankel matrices of PSD verdicts", capsys) as info:
        psd_records = [
            rec for rec in battery()["records"] if rec["verdict"].status is Status.PSD
        ]
        assert psd_records, "battery produced no PSD verdicts"
        eigen_floor = 0.0
        worst_closed_form = 0.0
        rank_one_exact = 0
        for rec in psd_records:
            matrix = hankel_matrix(rec["gen"])
            result = matrix_psd(matrix.a)
            assert result.passed
            eigen_floor = min(eigen_floor, result.min_eigenvalue)
            closed_form = rec["verdict"].strong_hankel.matrix_eigen_floor
            scale = rec["gen"].max_abs()
            gap = abs(closed_form - result.min_eigenvalue)
            assert gap <= 1e-9 * scale
            worst_closed_form = max(worst_closed_form, gap / scale if scale else 0.0)
            if rec["spec"].r == 1:
                v0 = float(rec["spec"].seed[0])
                assert (matrix.a == v0).all()
                rank_one_exact += 1
        assert rank_one_exact > 0
        info["detail"] = (
            f"{len(psd_records)} matrices pass, eigen floor {eigen_floor:.3e}; "
            f"closed-form floors within {worst_closed_form:.1e} * max|v| <= 1e-9; "
            f"{rank_one_exact} r=1 matrices equal v0 x all-ones exactly"
        )


# --- criterion 6 -----------------------------------------------------------


def test_criterion_6_evaluation_equivalence(capsys):
    with criterion(6, "fast/naive evaluation, gradient, Euler identity", capsys) as info:
        rng = random.Random(6)

        def random_instance():
            m = rng.randint(2, 6)
            n = rng.randint(2, 4)
            gen = GeneratingVector(
                m=m,
                n=n,
                v=tuple(rng.uniform(-1.0, 1.0) for _ in range(genvec_length(m, n))),
            )
            x = tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
            return gen, x

        worst_eval = 0.0
        for _ in range(200):
            gen, x = random_instance()
            fast = float(eval_fast(gen, x))
            naive = float(eval_naive(gen, x))
            rel = abs(fast - naive) / max(1.0, abs(fast), abs(naive))
            assert rel <= 1e-10
            worst_eval = max(worst_eval, rel)

        h = 1e-5
        worst_grad = worst_euler = 0.0
        for _ in range(100):
            gen, x = random_instance()
            f, grad = value_and_gradient(gen, x)
            for index in range(gen.n):
                plus = list(x)
                minus = list(x)
                plus[index] += h
                minus[index] -= h
                central = (
                    float(eval_fast(gen, plus)) - float(eval_fast(gen, minus))
                ) / (2 * h)
                diff = abs(float(grad[index]) - central)
                assert diff <= 1e-5
                worst_grad = max(worst_grad, diff)
            euler_gap = abs(
                sum(xi * gi for xi, gi in zip(x, grad)) - gen.m * f
            ) / max(1.0, abs(gen.m * f))
            assert euler_gap <= 1e-8
            worst_euler = max(worst_euler, euler_gap)

        info["detail"] = (
            f"200 fast-vs-naive (worst rel {worst_eval:.1e}); "
            f"100 gradients vs central differences (worst abs {worst_grad:.1e}); "
            f"Euler identity worst rel {worst_euler:.1e}"
        )


# --- criterion 7 -----------------------------------------------------------


def quartic_residue_forms(x):
    """Closed-form residue components of the quartic with n = r = 4."""
    x1, x2, x3, x4 = x
    f0 = (
        x1**4
        + x2**4
        + x3**4
        + x4**4
        + 6 * (x1**2 * x3**2 + x2**2 * x4**2)
        + 12 * (x1**2 * x2 * x4 + x1 * x2**2 * x3 + x2 * x3**2 * x4 + x1 * x3 * x4**2)
    )
    f1 = 4 * (x1**3 * x2 + x2**3 * x3 + x3**3 * x4 + x1 * x4**3) + 12 * (
        x1**2 * x3 * x4 + x1 * x2**2 * x4 + x1 * x2 * x3**2 + x2 * x3 * x4**2
    )
    f2 = (
        4 * (x1**3 * x3 + x1 * x3**3 + x2**3 * x4 + x2 * x4**3)
        + 6 * (x1**2 * x2**2 + x2**2 * x3**2 + x3**2 * x4**2 + x1**2 * x4**2)
        + 24 * x1 * x2 * x3 * x4
    )
    f3 = 4 * (x1 * x2**3 + x2 * x3**3 + x3 * x4**3 + x1**3 * x4) + 12 * (
        x1**2 * x2 * x3 + x2**2 * x3 * x4 + x1 * x3**2 * x4 + x1 * x2 * x4**2
    )
    return f0, f1, f2, f3


def test_criterion_7_residue_component_identities(capsys):
    with criterion(7, "residue components: total and quartic forms", capsys) as info:
        rng = random.Random(7)

        worst_total = 0.0
        for _ in range(100):
            m = rng.choice((2, 4, 6))
            r = rng.randint(2, 6)
            seed = tuple(rng.uniform(-1.0, 1.0) for _ in range(r))
            spec = CirculantSpec(m=m, n=5, r=r, seed=seed)
            x = tuple(rng.uniform(-1.0, 1.0) for _ in range(5))
            total = float(sum(residue_components(spec, x)))
            target = float(sum(x)) ** m
            rel = abs(total - target) / max(1.0, abs(target))
            assert rel <= 1e-10
            worst_total = max(worst_total, rel)

        quartic = CirculantSpec(m=4, n=4, r=4, seed=(1.0, 0.0, 0.0, 0.0))
        worst_quartic = 0.0
        for _ in range(100):
            x = tuple(rng.uniform(-1.0, 1.0) for _ in range(4))
            computed = residue_components(quartic, x)
            expected = quartic_residue_forms(x)
            for got, want in zip(computed, expected):
                rel = abs(float(got) - want) / max(1.0, abs(want))
                assert rel <= 1e-10
                worst_quartic = max(worst_quartic, rel)

        info["detail"] = (
            f"100 totals match (sum x)^m (worst rel {worst_total:.1e}); "
            f"100 quartic points match the four closed forms "
            f"(worst rel {worst_quartic:.1e})"
        )


# --- criterion 8 -----------------------------------------------------------


def test_criterion_8_matrix_case_regression(capsys):
    with criterion(8, "order-2 verdicts match direct eigenvalues", capsys) as info:
        rng = random.Random(8)
        disagreements = 0
        psd_count = notpsd_count = 0
        for tag, r in (("index-2", 2), ("even-gcd-2", 4)):
            for i in range(100):
                seed = (
                    constructed_psd_seed(tag, r, rng)
                    if i % 3 == 0
                    else violated_seed(tag, r, rng)
                )
                spec = CirculantSpec(m=2, n=4, r=r, seed=seed)
                verdict = classify(spec)
                matrix = hankel_matrix(expand(spec))
                assert matrix.size == spec.n
                direct = matrix_psd(matrix.a)
                if (verdict.status is Status.PSD) != direct.passed:
                    disagreements += 1
                if verdict.status is Status.PSD:
                    psd_count += 1
                else:
                    notpsd_count += 1
        assert disagreements == 0
        assert psd_count > 0 and notpsd_count > 0
        info["detail"] = (
            f"200 seeds (r=2 and r=4; {psd_count} PSD, {notpsd_count} NotPSD), "
            f"0 disagreements with matrix_psd on the 4x4 Hankel matrix"
        )

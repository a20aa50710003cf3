"""Tests of the benchmark's own references: each check must reject a wrong verdict.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from anticirculant import classifier  # noqa: E402
from anticirculant.tensor import CirculantSpec  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

NOT_PSD = (4, 4, 2, (1.0, 1.2))
NOT_PSD_EXACT = (6, 5, 4, (3, Fraction(1, 2), 3, Fraction(2, 3)))
PSD = (4, 4, 2, (1.0, 0.5))
PSD_EXACT = (6, 5, 4, (Fraction(3, 2), -1, Fraction(3, 2), -1))
UNCOVERED_PSD = (8, 4, 4, (2.0, 2.0, 2.0, 2.0))


def verdict_doc(spec, starts=64):
    m, n, r, seed = spec
    return classifier.classify(CirculantSpec(m, n, r, seed), evidence_starts=starts).to_dict()


@pytest.mark.parametrize("spec", [NOT_PSD, NOT_PSD_EXACT, PSD, PSD_EXACT])
def test_true_verdict_passes(spec):
    assert checks.check_verdict(*spec, verdict_doc(spec)) == []


@pytest.mark.parametrize("spec", [NOT_PSD, PSD])
def test_flipped_status_is_rejected(spec):
    doc = verdict_doc(spec)
    doc["status"] = "PSD" if doc["status"] == "NotPSD" else "NotPSD"
    assert checks.check_verdict(*spec, doc)


@pytest.mark.parametrize("spec", [NOT_PSD, NOT_PSD_EXACT])
def test_perturbed_witness_is_rejected(spec):
    doc = verdict_doc(spec)
    doc["witness"][0] += 1e-3
    assert any("witness_value" in p for p in checks.check_verdict(*spec, doc))


def test_witness_that_is_not_negative_is_rejected():
    doc = verdict_doc(NOT_PSD)
    doc["witness"] = [1.0, 1.0, 0.0, 0.0]
    doc["witness_value"] = checks.f_value(checks.genvec(4, 4, NOT_PSD[3]), 4, doc["witness"])
    assert any("not below 0" in p for p in checks.check_verdict(*NOT_PSD, doc))


@pytest.mark.parametrize("spec", [PSD, PSD_EXACT])
def test_wrong_t_is_rejected(spec):
    doc = verdict_doc(spec)
    doc["certificate"]["t"] += 1e-6
    assert any("certificate gives" in p for p in checks.check_verdict(*spec, doc))
    doc["certificate"]["t"] = 1.5
    assert any("outside [0, 1]" in p for p in checks.check_verdict(*spec, doc))


def test_wrong_eigen_floor_is_rejected():
    doc = verdict_doc(PSD)
    doc["strong_hankel"]["matrix_eigen_floor"] = -0.1
    assert any("eigen floor" in p for p in checks.check_verdict(*PSD, doc))


@pytest.mark.parametrize("shift", [-0.5, 1e-6, 0.5])
def test_shifted_min_value_is_rejected(shift):
    doc = verdict_doc(UNCOVERED_PSD, starts=2)
    assert checks.check_verdict(*UNCOVERED_PSD, doc, psd_by_construction=True) == []
    bad = copy.deepcopy(doc)
    bad["evidence"]["min_value"] += shift
    assert checks.check_verdict(*UNCOVERED_PSD, bad, psd_by_construction=True)


def test_nonnegative_min_on_a_tensor_built_not_psd_is_rejected():
    spec = (8, 4, 4, (1.0, -1.3, 1.0, -1.3))
    doc = verdict_doc(spec, starts=2)
    assert checks.check_verdict(*spec, doc, psd_by_construction=False) == []
    assert checks.check_verdict(*spec, doc, psd_by_construction=True)


def test_min_value_above_a_unit_vector_is_rejected():
    spec = (8, 4, 4, (1.0, 1.2, 0.7, 1.1))
    doc = verdict_doc(spec, starts=2)
    assert checks.check_verdict(*spec, doc) == []
    x = [1.0, 0.0, 0.0, 0.0]
    v = checks.genvec(*spec[:2], spec[3])
    doc["evidence"]["argmin"], doc["evidence"]["min_value"] = x, checks.f_value(v, 8, x) + 1.0
    assert checks.check_verdict(*spec, doc)


def test_argmin_off_the_sphere_is_rejected():
    doc = verdict_doc(UNCOVERED_PSD, starts=2)
    doc["evidence"]["argmin"] = [2 * t for t in doc["evidence"]["argmin"]]
    assert any("norm" in p for p in checks.check_verdict(*UNCOVERED_PSD, doc))


def test_wrong_case_is_rejected():
    doc = verdict_doc(PSD)
    doc["case"] = "even-gcd-2"
    assert checks.check_verdict(*PSD, doc)


@pytest.mark.parametrize("m,n", [(2, 3), (4, 4), (6, 5), (8, 4)])
def test_reference_evaluators_agree(m, n):
    seed = (Fraction(3, 2), -1, 2, Fraction(-1, 3))
    v = checks.genvec(m, n, seed)
    x = [1, -2, Fraction(1, 2)] + [3] * (n - 3)
    exact = checks.f_value(v, m, x)
    assert isinstance(exact, Fraction)
    as_float = checks.f_value([float(t) for t in v], m, [float(t) for t in x])
    dense = checks.f_dense(v, m, [float(t) for t in x])
    assert as_float == pytest.approx(float(exact), rel=1e-12)
    assert dense == pytest.approx(float(exact), rel=1e-12)


def test_table_rows():
    assert checks.predict(4, 4, 2, (1, 1)) == ("index-2", "PSD")
    assert checks.predict(4, 4, 2, (1, -2)) == ("index-2", "NotPSD")
    assert checks.predict(12, 8, 3, (2, 2, 2)) == ("index-3-special", "PSD")
    assert checks.predict(6, 5, 4, (2, 1, 2, 1.5)) == ("even-gcd-2", "NotPSD")
    assert checks.predict(4, 6, 4, (2, 1, 2, 1)) == ("quartic-index-4", "PSD")
    assert checks.predict(8, 5, 3, (1, 1, 1)) == ("coprime-odd", "PSD")
    assert checks.predict(6, 7, 1, (-1,)) == ("index-1", "NotPSD")
    assert checks.predict(8, 4, 4, (1, 1, 1, 1)) == (None, "Uncovered")


@pytest.mark.parametrize("name", sorted(workloads.ROUNDS))
def test_rounds_are_seeded_and_built_as_labelled(name):
    make = workloads.ROUNDS[name]
    first = make(7, 0)
    assert make(7, 0) == first
    assert make(8, 0) != first
    for k in range(5):
        ops = make(7, k)
        assert len(ops) == len(first)
        assert sum(op.psd for op in ops) == sum(op.psd for op in first)
        assert sum(op.exact for op in ops) == sum(op.exact for op in first)
        for op in ops:
            assert op.exact == checks.is_exact(op.seed)
            if name != "uncovered":
                status = checks.predict(op.m, op.n, op.r, op.seed)[1]
                assert status == ("PSD" if op.psd else "NotPSD")


def test_tracer_counts_calls_where_the_caller_looks_them_up():
    tracer = Tracer()
    spec = CirculantSpec(*NOT_PSD[:3], NOT_PSD[3])
    with tracer.installed():
        verdict = classifier.classify(spec)
    assert classifier.classify(spec) == verdict  # wrappers are gone again
    stats = tracer.layer_stats()
    assert stats["classifier.classify"]["calls"] == 1
    assert stats["polyeval.eval_fast@classifier"]["calls"] >= 1
    assert stats["oracle.sphere_min"]["calls"] == 0
    busy = stats["classifier.classify"]["busy_s"]
    assert 0 < stats["classifier.classify"]["self_s"] < busy

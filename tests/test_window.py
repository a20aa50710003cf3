"""A spec is read through its window: every pass over v reads (seed * 2)[:L].

The passes over a ``CirculantSpec`` give the same strong-Hankel check,
scale, period and values as over the same vector built by
``GeneratingVector``, whose window is all of v; and ``classify``,
``classify --verify`` and ``eval`` on a spec never build v.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from anticirculant import classifier as classifier_mod
from anticirculant import cli, oracle, polyeval, tensor
from anticirculant.classifier import (
    Certificate,
    CertificateKind,
    _effective_tol,
    _necessary_witnesses,
    classify,
    power_sum_certificate,
    strong_hankel_check,
)
from anticirculant.tensor import CirculantSpec, GeneratingVector, expand, window

#: (m, n, r) per case, then Uncovered shapes; m = 2 gives L < 2r.
SHAPES = (
    (4, 3, 1), (6, 4, 1),  # index-1
    (4, 5, 3), (8, 5, 5), (2, 5, 5),  # coprime-odd
    (6, 4, 3), (12, 3, 3),  # index-3-special
    (4, 4, 2), (2, 5, 2), (20, 6, 2),  # index-2
    (6, 5, 4), (6, 6, 8), (2, 5, 6), (2, 7, 10), (2, 4, 4),  # even-gcd-2
    (4, 4, 4), (4, 5, 4),  # quartic-index-4
    (8, 4, 4), (10, 5, 5), (12, 6, 8), (4, 6, 8), (2, 6, 7),  # Uncovered
)

_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.fractions(-2, 2, max_denominator=7),
    st.floats(-2, 2, allow_nan=False),
    st.sampled_from([5e-324, -5e-324, 2.5e-308, -0.0, 0.0, True]),
)


def _identical(a, b):
    # repr tells -0.0 from 0.0 and a Fraction from an equal float
    return type(a) is type(b) and repr(a) == repr(b)


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_window_passes_match_the_full_vector(data):
    m, n, r = data.draw(st.sampled_from(SHAPES), label="shape")
    if data.draw(st.booleans(), label="alternating"):
        # v[s] = alpha + beta*(-1)^s on the seed, the PSD rule's shape
        pair = (data.draw(_ENTRIES), data.draw(_ENTRIES))
        seed = tuple(pair[s % 2] for s in range(r))
    else:
        seed = tuple(data.draw(_ENTRIES) for _ in range(r))
    spec = CirculantSpec(m, n, r, seed)
    full = GeneratingVector(m, n, expand(spec).v)
    assert window(full) is full.v
    assert len(window(spec)) == min(len(full.v), 2 * r)
    assert all(a is b for a, b in zip(window(spec), full.v))

    assert polyeval._int_form(spec) == polyeval._int_form(full)
    ours, theirs = oracle._spectrum(spec), oracle._spectrum(full)
    assert [a.tobytes() for a in ours] == [b.tobytes() for b in theirs]
    x = tuple(data.draw(_ENTRIES) for _ in range(n))
    assert _identical(polyeval.eval_fast(spec, x), polyeval.eval_fast(full, x))

    rel_tol = data.draw(st.sampled_from([0.0, 1e-12, 0.1]), label="rel_tol")
    tol = _effective_tol(full.v, rel_tol)
    assert _identical(_effective_tol(window(spec), rel_tol), tol)
    assert list(_necessary_witnesses(spec, tol)) == list(_necessary_witnesses(full, tol))
    certs = [Certificate(CertificateKind.POWER_SUM, v0=data.draw(st.floats(-2, 2)),
                         t=data.draw(st.floats(0, 1)))]
    if float(full.v[0]) - abs(float(full.v[1])) >= -tol:
        certs.append(power_sum_certificate(full, tol))
        assert power_sum_certificate(spec, tol) == certs[-1]
    for cert in certs:
        ours, theirs = strong_hankel_check(spec, cert, rel_tol), strong_hankel_check(full, cert, rel_tol)
        assert ours._fields == theirs._fields
        for a, b in zip(ours._values(), theirs._values()):
            assert _identical(a, b)


def _built(*args, **kwargs):
    raise AssertionError("a generating vector was built")


def _outputs(spec, tmp_path, capsys):
    """``classify(spec).to_dict()``, then per CLI call on the spec's document
    (for a seed that JSON holds) its exit code, stdout and stderr."""
    out = [classify(CirculantSpec(spec.m, spec.n, spec.r, spec.seed)).to_dict()]
    if any(isinstance(t, Fraction) for t in spec.seed):
        return out
    doc = tmp_path / "spec.json"
    doc.write_text(json.dumps({"m": spec.m, "n": spec.n, "r": spec.r, "seed": list(spec.seed)}))
    x = ",".join(map(str, (1, -2, 0.5, 3, -1, 0.25, 2, -3)[: spec.n]))
    for argv in (["classify", "--verify", "--json"], ["classify", "--verify"],
                 ["eval", "--gradient"], ["eval", "--json"]):
        code = cli.main([*argv, str(doc)] + ([x] if argv[0] == "eval" else []))
        out.append((code, *capsys.readouterr()))
    return out


def _unexpanded_outputs(spec, tmp_path, capsys, monkeypatch):
    """``_outputs`` with ``expand`` and ``GeneratingVector`` raising, and as
    they are; the two must be the same."""
    want = _outputs(spec, tmp_path, capsys)
    monkeypatch.setattr(tensor, "expand", _built)
    monkeypatch.setattr(classifier_mod, "expand", _built)
    monkeypatch.setattr(GeneratingVector, "__init__", _built)
    assert _outputs(spec, tmp_path, capsys) == want
    return want


@pytest.mark.parametrize("spec", [
    CirculantSpec(20, 6, 2, (1.0, 0.5)),
    CirculantSpec(6, 5, 4, (3, Fraction(1, 3), 3, Fraction(1, 3))),
    CirculantSpec(12, 8, 3, (2, 2, 2)),
    CirculantSpec(4, 4, 4, (1, 0.25, 1, 0.25)),
    CirculantSpec(8, 6, 2, (5, -2)),
])
def test_psd_verdict_scale_and_period_read_only_the_window(spec, tmp_path, capsys, monkeypatch):
    verdict, *calls = _unexpanded_outputs(spec, tmp_path, capsys, monkeypatch)
    assert verdict["status"] == "PSD"
    for code, _, err in calls:
        assert code == 0 and err == ""


@pytest.mark.parametrize("spec, status, codes", [
    # L = 2 * 10**9 + 1: the verdict reads 4 entries, eval is past the kernel's limit
    (CirculantSpec(10**9, 3, 2, (1, 0.5)), "PSD", (0, 0, 2, 2)),
    (CirculantSpec(6, 5, 4, (1, 0.5, 1, 0.7)), "NotPSD", (1, 1, 0, 0)),
    # past the alpha ladder, at alpha = 2**43
    (CirculantSpec(4, 4, 4, (10**40, 0, 10**40, 1)), "NotPSD", (1, 1, 0, 0)),
    # outside the families: a unit vector refutes it, or the sphere search runs
    (CirculantSpec(8, 4, 4, (-1, 1, 1, 1)), "NotPSD", (1, 1, 0, 0)),
    (CirculantSpec(8, 4, 4, (0.9, 1.2, 0.9, 1.2)), "Uncovered", (4, 4, 0, 0)),
])
def test_no_verdict_builds_the_vector(spec, status, codes, tmp_path, capsys, monkeypatch):
    verdict, *calls = _unexpanded_outputs(spec, tmp_path, capsys, monkeypatch)
    assert verdict["status"] == status
    assert tuple(code for code, _, _ in calls) == codes


def test_a_raw_vector_is_read_in_full():
    # periodic with period 2 except its last entry: the window is all of v,
    # so the identity fails there, the scale is that entry and the period is L
    v = (1.0, 0.5) * 4 + (3.0,)
    gen = GeneratingVector(4, 3, v)
    assert window(gen) is gen.v
    check = strong_hankel_check(gen, Certificate(CertificateKind.POWER_SUM, v0=1.0, t=0.75))
    assert not check.passed and check.residual == 2.0
    assert gen.max_abs() == 3.0
    assert polyeval._int_form(gen)[2] == len(v)

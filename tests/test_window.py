"""The window of an expanded seed: every pass over v reads v[:min(L, 2r)].

A vector that ``expand`` builds gives the same strong-Hankel check, scale
and period from its window as the same vector built by ``GeneratingVector``,
whose window is all of v; and the passes never read past the window.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from anticirculant import classifier as classifier_mod
from anticirculant import polyeval
from anticirculant.classifier import (
    Certificate,
    CertificateKind,
    Status,
    _effective_tol,
    classify,
    power_sum_certificate,
    strong_hankel_check,
)
from anticirculant.tensor import CirculantSpec, GeneratingVector, distinct, expand, window

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
    gen = expand(spec)
    full = GeneratingVector(m, n, gen.v)
    assert window(full) is full.v
    assert len(window(gen)) == min(len(gen.v), 2 * r)

    assert gen == full and hash(gen) == hash(full)
    assert repr(gen) == repr(full) and gen._as_dict() == full._as_dict()

    assert _identical(gen.max_abs(), full.max_abs())
    assert polyeval._int_form(gen) == polyeval._int_form(full)

    rel_tol = data.draw(st.sampled_from([0.0, 1e-12, 0.1]), label="rel_tol")
    certs = [Certificate(CertificateKind.POWER_SUM, v0=data.draw(st.floats(-2, 2)),
                         t=data.draw(st.floats(0, 1)))]
    tol = _effective_tol(distinct(gen.v), rel_tol)
    if float(gen.v[0]) - abs(float(gen.v[1])) >= -tol:
        certs.append(power_sum_certificate(gen, tol))
    for cert in certs:
        ours, theirs = strong_hankel_check(gen, cert, rel_tol), strong_hankel_check(full, cert, rel_tol)
        assert ours._fields == theirs._fields
        for a, b in zip(ours._values(), theirs._values()):
            assert _identical(a, b)


class _Untouchable:
    """An entry past the window: reading it as a number or comparing it fails."""

    def _touched(self, *args):
        raise AssertionError("an entry past the window was read")

    __float__ = __abs__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _touched
    __hash__ = object.__hash__


def _past_the_window(spec):
    """``expand(spec)`` with every entry from 2r on replaced by an _Untouchable."""
    gen = expand(spec)
    cut = 2 * spec.r
    assert cut < len(gen.v)
    gen.__dict__["v"] = gen.v[:cut] + tuple(_Untouchable() for _ in gen.v[cut:])
    return gen


@pytest.mark.parametrize("spec", [
    CirculantSpec(20, 6, 2, (1.0, 0.5)),
    CirculantSpec(6, 5, 4, (3, Fraction(1, 3), 3, Fraction(1, 3))),
    CirculantSpec(12, 8, 3, (2, 2, 2)),
    CirculantSpec(4, 4, 4, (1, 0.25, 1, 0.25)),
    CirculantSpec(8, 6, 2, (5, -2)),
])
def test_psd_verdict_scale_and_period_read_only_the_window(spec, monkeypatch):
    want = classify(spec).to_dict()
    gen = expand(spec)
    poisoned = _past_the_window(spec)
    monkeypatch.setattr(classifier_mod, "expand", _past_the_window)
    verdict = classify(spec)
    assert verdict.status == Status.PSD and verdict.to_dict() == want
    assert _identical(poisoned.max_abs(), gen.max_abs())
    assert polyeval._int_form(poisoned) == polyeval._int_form(gen)


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

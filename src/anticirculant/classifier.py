"""Closed-form positive semidefiniteness classification for circulant Hankel tensors.

``classify`` dispatches on the declared shape (m, n, r) to one of six proved
regimes, each with a finite seed-level criterion:

(a) ``index-1``           r = 1:                      PSD iff v0 >= 0.
(b) ``coprime-odd``       r odd, gcd(m, r) = 1, r <= n:
                          PSD iff all seeds equal and >= 0.
(c) ``index-3-special``   r = 3, m in {6, 12, 18, 30, 42}, n >= 3:
                          same criterion as (b).
(d) ``index-2``           r = 2:                      PSD iff |v1| <= v0.
(e) ``even-gcd-2``        r even, 4 <= r <= 2n - 4, gcd(m, r) = 2:
                          PSD iff even seeds all equal, odd seeds all equal,
                          and v0 >= |v1|.
(f) ``quartic-index-4``   m = 4, r = 4, n >= 4:
                          PSD iff v0 = v2, v1 = v3, |v1| <= v0.

Anything else is ``Uncovered``: no claim is made, and a clearly non-certified
numerical minimum estimate is attached as evidence.  NotPSD verdicts carry an
explicitly evaluated negative witness vector.  A covered PSD tensor is
f = alpha*(x1+...+xn)^m + beta*(x1-x2+x3-...)^m with alpha, beta >= 0, i.e.
v[s] = alpha + beta*(-1)^s; its verdict carries that power-sum certificate
and the strong-Hankel one it implies (the associated Hankel matrix is then
alpha*11^T + beta*aa^T), both checked by ``strong_hankel_check`` in O(L).

Only even orders are classifiable: for odd m the zero tensor is the only
positive semidefinite Hankel tensor, so odd orders are rejected.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import oracle as oracle_mod
from .combinatorics import SPECIAL_R3_ORDERS
from .polyeval import eval_fast
# hankel_matrix is not called here; bench/spans.py traces it under this name.
from .tensor import (  # noqa: F401
    CirculantSpec,
    GeneratingVector,
    WitnessVector,
    expand,
    hankel_matrix,
    pattern_vector,
    witnesses,
)

REL_TOL_DEFAULT = 1e-12
#: Witness values must clear -1e-9 times the generating vector scale.
WITNESS_REL_MARGIN = 1e-9
#: Rounding allowance of the certificate check, in ulps of max|v|: the
#: certificate's t is a float even for exact input.
CERTIFICATE_ULPS = 8


class Status(enum.Enum):
    PSD = "PSD"
    NOT_PSD = "NotPSD"
    UNCOVERED = "Uncovered"


class Case(enum.Enum):
    INDEX_ONE = "index-1"
    COPRIME_ODD = "coprime-odd"
    INDEX_3_SPECIAL = "index-3-special"
    INDEX_TWO = "index-2"
    EVEN_GCD_2 = "even-gcd-2"
    QUARTIC_INDEX_4 = "quartic-index-4"
    NECESSARY_ONLY = "necessary-only"


class CertificateKind(enum.Enum):
    POWER_SUM = "PowerSum"
    STRONG_HANKEL = "StrongHankel"


@dataclass(frozen=True)
class Certificate:
    """Verifiable witness of positive semidefiniteness.

    PowerSum: f(x) = t*v0*(x1+...+xn)^m + (1-t)*v0*(x1-x2+x3-...)^m with
    t in [0, 1]; both base forms are even powers, so nonnegativity is
    immediate.  The identity holds exactly when v[s] = v0*(t + (1-t)*(-1)^s)
    for every s, which ``strong_hankel_check`` verifies.
    StrongHankel: the associated Hankel matrix is the Gram form
    v0*t*11^T + v0*(1-t)*aa^T, a = (1, -1, 1, ...), by the same check;
    ``matrix_eigen_floor`` is that form's smallest eigenvalue in closed form,
    less the Weyl bound on the check's residual.
    """

    kind: CertificateKind
    v0: float
    t: float | None = None
    matrix_eigen_floor: float | None = None

    def to_dict(self) -> dict:
        out = {"kind": self.kind.value, "v0": self.v0}
        if self.t is not None:
            out["t"] = self.t
        if self.matrix_eigen_floor is not None:
            out["matrix_eigen_floor"] = self.matrix_eigen_floor
        return out


@dataclass(frozen=True)
class NecessaryCheck:
    passed: bool
    failing_index: int | None = None
    value: float | None = None


@dataclass(frozen=True)
class StrongHankelResult:
    """``residual`` is max_s |v[s] - (alpha + beta*(-1)^s)|; ``slack`` bounds it."""

    passed: bool
    min_eigenvalue: float
    size: int
    residual: float
    slack: float


@dataclass(frozen=True)
class Verdict:
    status: Status
    case: Case | None
    tolerance: float
    certificate: Certificate | None = None
    strong_hankel: Certificate | None = None
    witness: WitnessVector | None = None
    witness_value: float | None = None
    evidence: oracle_mod.SphereMinResult | None = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "case": self.case.value if self.case is not None else None,
            "tolerance": self.tolerance,
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "strong_hankel": self.strong_hankel.to_dict() if self.strong_hankel else None,
            "witness": list(float(t) for t in self.witness.x) if self.witness else None,
            "witness_label": self.witness.label if self.witness else None,
            "witness_value": self.witness_value,
            "evidence": self.evidence.to_dict() if self.evidence else None,
            "notes": list(self.notes),
        }


def _scale(values) -> float:
    return max(abs(float(t)) for t in values)


def _effective_tol(values, rel_tol: float):
    """Absolute comparison slack: zero in exact mode, relative otherwise."""
    if all(isinstance(t, (int, Fraction)) for t in values):
        return 0
    return rel_tol * _scale(values)


def _all_equal(values, tol) -> bool:
    lo, hi = min(values), max(values)
    return hi - lo <= tol


def necessary_psd(gen: GeneratingVector, rel_tol: float = REL_TOL_DEFAULT) -> NecessaryCheck:
    """Necessary condition from the unit vectors: v[j*m] >= 0 for j = 0..n-1.

    Each unit vector e_{j+1} evaluates f to exactly v[j*m], so a failure
    index j is already a counterexample witness.
    """
    if gen.m % 2 != 0:
        raise ValueError(f"necessary conditions apply to even order, got m={gen.m}")
    tol = _effective_tol(gen.v, rel_tol)
    for j in range(gen.n):
        value = gen.v[j * gen.m]
        if value < -tol:
            return NecessaryCheck(passed=False, failing_index=j, value=float(value))
    return NecessaryCheck(passed=True)


def necessary_strong(gen: GeneratingVector, rel_tol: float = REL_TOL_DEFAULT) -> NecessaryCheck:
    """Necessary condition for the strong Hankel property: v[2j] >= 0."""
    if gen.m % 2 != 0:
        raise ValueError(f"necessary conditions apply to even order, got m={gen.m}")
    tol = _effective_tol(gen.v, rel_tol)
    k = gen.m // 2
    for j in range((gen.n - 1) * k + 1):
        value = gen.v[2 * j]
        if value < -tol:
            return NecessaryCheck(passed=False, failing_index=j, value=float(value))
    return NecessaryCheck(passed=True)


def _dispatch(m: int, n: int, r: int) -> Case | None:
    if r == 1:
        return Case.INDEX_ONE
    if r % 2 == 1 and math.gcd(m, r) == 1 and r <= n:
        return Case.COPRIME_ODD
    if r == 3 and m in SPECIAL_R3_ORDERS and n >= 3:
        return Case.INDEX_3_SPECIAL
    if r == 2:
        return Case.INDEX_TWO
    if r % 2 == 0 and 4 <= r <= 2 * n - 4 and math.gcd(m, r) == 2:
        return Case.EVEN_GCD_2
    if m == 4 and r == 4 and n >= 4:
        return Case.QUARTIC_INDEX_4
    return None


def _psd_conditions(case: Case, seed, tol) -> bool:
    v0 = seed[0]
    if case == Case.INDEX_ONE:
        return v0 >= -tol
    if case in (Case.COPRIME_ODD, Case.INDEX_3_SPECIAL):
        return _all_equal(seed, tol) and v0 >= -tol
    if case == Case.INDEX_TWO:
        return v0 - abs(seed[1]) >= -tol
    if case == Case.EVEN_GCD_2:
        return (
            _all_equal(seed[0::2], tol)
            and _all_equal(seed[1::2], tol)
            and v0 - abs(seed[1]) >= -tol
        )
    if case == Case.QUARTIC_INDEX_4:
        return (
            abs(seed[0] - seed[2]) <= tol
            and abs(seed[1] - seed[3]) <= tol
            and v0 - abs(seed[1]) >= -tol
        )
    raise ValueError(f"no seed criterion for case {case}")


def power_sum_certificate(gen: GeneratingVector, tol) -> Certificate:
    """Two-term certificate: t from v1 = v0*(2t - 1), degenerating to t = 1.

    Requires |v1| <= v0 (up to the comparison slack); the reported t is
    clamped into [0, 1] only after that inequality has been confirmed.
    """
    v0 = float(gen.v[0])
    v1 = float(gen.v[1])
    if v0 == 0.0:
        return Certificate(kind=CertificateKind.POWER_SUM, v0=0.0, t=1.0)
    if v0 - abs(v1) < -tol:
        raise ValueError(f"power-sum certificate needs |v1| <= v0, got v0={v0}, v1={v1}")
    t = min(1.0, max(0.0, 0.5 * (v1 / v0 + 1.0)))
    return Certificate(kind=CertificateKind.POWER_SUM, v0=v0, t=t)


def power_sum_value(cert: Certificate, m: int, x):
    """Evaluate the certificate's closed form at x, or at every row of x, in float64."""
    x = np.asarray(x, dtype=float)
    plain, alternating = x.sum(axis=-1), x @ (-1.0) ** np.arange(x.shape[-1])
    return cert.t * cert.v0 * plain ** m + (1.0 - cert.t) * cert.v0 * alternating ** m


def verify_power_sum(
    gen: GeneratingVector,
    cert: Certificate,
    points: int = 1000,
    rng_seed: int = 0,
    rel_tol: float = 1e-9,
):
    """Compare the closed form against f at RNG points in [-1, 1]^n, in float64.

    A sampled diagnostic; ``strong_hankel_check`` is the proof.  Returns
    (passed, max relative error); the error is |a - b| over max(1, |a|, |b|).
    """
    rng = oracle_mod.SplitMix64(rng_seed)
    x = np.array([rng.uniform_signed() for _ in range(points * gen.n)]).reshape(points, gen.n)
    with np.errstate(all="ignore"):
        direct, closed = oracle_mod.eval_rows(gen, x), power_sum_value(cert, gen.m, x)
        err = np.abs(direct - closed) / np.maximum(1.0, np.maximum(np.abs(direct), np.abs(closed)))
    worst = float(err.max(initial=0.0))
    return worst <= rel_tol, worst


def _gram_floor(alpha: float, beta: float, size: int) -> float:
    """Smallest eigenvalue of alpha*11^T + beta*aa^T, a = (1, -1, ...), N = size >= 2.

    On span{1, a} the form acts as [[alpha*N, alpha*s], [beta*s, beta*N]] with
    s = 1^T a = N mod 2 (for N = 2 the eigenvalues 2*alpha, 2*beta); for N >= 3
    the other N - 2 eigenvalues are zero.  alpha and beta are scaled by
    max(|alpha|, |beta|) so that nothing overflows.
    """
    scale, s = max(abs(alpha), abs(beta)) or 1.0, size % 2
    a, b = alpha / scale, beta / scale
    trace, det = size * (a + b), a * b * (size * size - s)
    root = math.sqrt(max(0.0, (size * (a - b)) ** 2 + 4.0 * a * b * s))
    # for trace > 0 the smaller root is det over the larger: no cancellation
    low = 2.0 * det / (trace + root) if trace > 0.0 else 0.5 * (trace - root)
    return scale * (low if size == 2 else min(0.0, low))


def strong_hankel_check(
    gen: GeneratingVector, cert: Certificate, rel_tol: float = REL_TOL_DEFAULT
) -> StrongHankelResult:
    """Check the power-sum certificate (v0, t) as an identity on ``v``.

    With alpha = v0*t and beta = v0*(1-t), pass iff alpha, beta >= -slack and
    every v[s] is within slack of alpha + beta*(-1)^s.  As A[i, j] = v[i + j],
    that is the entrywise Gram identity A = alpha*11^T + beta*aa^T,
    a = (1, -1, ...), of the N x N associated Hankel matrix (Qi, CMS 2015).
    ``min_eigenvalue`` is that form's floor less the Weyl term N*residual.
    slack is CERTIFICATE_ULPS ulps of max|v| plus twice the seed-comparison
    slack: the even-gcd-2 and quartic-index-4 criteria chain two comparisons
    (odd seed with v1, |v1| with v0), so an accepted seed can miss by both.
    """
    alpha, beta = cert.v0 * cert.t, cert.v0 * (1.0 - cert.t)
    even, odd = alpha + beta, alpha - beta
    residual = max(max(abs(float(t) - even) for t in gen.v[0::2]),
                   max(abs(float(t) - odd) for t in gen.v[1::2]))
    slack = 2 * _effective_tol(gen.v, rel_tol) + CERTIFICATE_ULPS * math.ulp(1.0) * _scale(gen.v)
    size = (len(gen.v) + 1) // 2
    return StrongHankelResult(
        passed=alpha >= -slack and beta >= -slack and residual <= slack,
        min_eigenvalue=_gram_floor(alpha, beta, size) - size * residual,
        size=size,
        residual=residual,
        slack=slack,
    )


#: Escalation schedule for alpha-family witnesses: the leading alpha
#: coefficient is odd-degree, so any strictly negative leading coefficient
#: eventually dominates.
ALPHA_LADDER = tuple(float(2 ** k) for k in range(0, 31))


def _necessary_witnesses(gen: GeneratingVector, tol):
    for j in range(gen.n):
        if gen.v[j * gen.m] < -tol:
            x = tuple(1 if i == j else 0 for i in range(gen.n))
            yield WitnessVector(x, f"unit(e_{j + 1})")


def _pattern_witnesses(n: int, patterns):
    for pattern in patterns:
        try:
            yield WitnessVector(pattern_vector(pattern, n), f"pattern{pattern}")
        except ValueError:
            continue


def _alpha_witnesses(spec: CirculantSpec, families=("alpha",)):
    for alpha in ALPHA_LADDER:
        for family in families:
            yield from witnesses(spec, family, alpha=alpha)


def _witness_candidates(case: Case | None, spec: CirculantSpec, gen: GeneratingVector, tol):
    """Candidate witnesses in a fixed canonical order, case-specific first."""
    yield from _necessary_witnesses(gen, tol)
    n = spec.n
    if case in (Case.COPRIME_ODD, Case.INDEX_3_SPECIAL):
        yield from witnesses(spec, "unit-difference")
    if case == Case.INDEX_3_SPECIAL:
        yield from _pattern_witnesses(n, ((1, -1), (1, 1, -2), (1, -3, 2), (1, 2, -3)))
    if case == Case.INDEX_TWO:
        yield from _pattern_witnesses(n, ((1, -1), (1, 1)))
    if case == Case.EVEN_GCD_2:
        yield from witnesses(spec, "step-2-difference")
        yield from _pattern_witnesses(n, ((1, -1), (1, 1)))
        yield from _alpha_witnesses(spec, ("alpha",))
    if case == Case.QUARTIC_INDEX_4:
        yield from _pattern_witnesses(n, ((1, 0, -1, 0), (1, -1, -1, 1), (1, -1), (1, 1)))
        yield from _alpha_witnesses(spec, ("alpha", "alpha-neg"))
    # Generic tail: everything that fits, so no covered case can fall through
    # to the oracle merely because its family list was too narrow.
    yield from witnesses(spec, "unit-difference")
    if n >= 3:
        yield from witnesses(spec, "step-2-difference")
    yield from _pattern_witnesses(n, ((1, -1), (1, 1), (1, 1, -2), (1, -3, 2),
                                      (1, 2, -3), (1, 0, -1, 0), (1, -1, -1, 1)))


def _find_witness(case, spec, gen, tol, evidence_starts, rng_seed):
    """First canonical witness clearing the margin, else best effort + notes."""
    scale = gen.max_abs()
    threshold = -WITNESS_REL_MARGIN * scale
    best = None
    for candidate in _witness_candidates(case, spec, gen, tol):
        value = float(eval_fast(gen, candidate.x))
        if value < threshold:
            return candidate, value, ()
        if value < 0.0 and (best is None or value < best[1]):
            best = (candidate, value)
    searched = oracle_mod.sphere_min(gen, starts=evidence_starts, rng_seed=rng_seed)
    if searched.min_value < threshold:
        witness = WitnessVector(searched.argmin, "sphere-search")
        return witness, searched.min_value, ()
    if best is not None and searched.min_value < best[1]:
        best = (WitnessVector(searched.argmin, "sphere-search"), searched.min_value)
    if best is not None:
        note = (
            "witness value clears zero but not the verification margin "
            f"{threshold:.3e}; seed margins are below float resolution"
        )
        return best[0], best[1], (note,)
    raise RuntimeError(
        "seed criterion says not positive semidefinite, but no negative witness "
        "was found; input margins are below numerical resolution"
    )


def _psd_verdict(case, gen, tol, rel_tol, notes) -> Verdict:
    cert = power_sum_certificate(gen, tol)
    check = strong_hankel_check(gen, cert, rel_tol)
    if not check.passed:
        raise RuntimeError(
            f"power-sum certificate v0={cert.v0!r} t={cert.t!r} fails its identity "
            f"check: residual {check.residual:.3e}, slack {check.slack:.3e}"
        )
    return Verdict(
        status=Status.PSD,
        case=case,
        tolerance=rel_tol,
        certificate=cert,
        strong_hankel=Certificate(
            CertificateKind.STRONG_HANKEL, v0=cert.v0, matrix_eigen_floor=check.min_eigenvalue
        ),
        notes=notes,
    )


def _not_psd_verdict(case, spec, gen, tol, rel_tol, notes, evidence_starts, rng_seed) -> Verdict:
    witness, value, extra = _find_witness(case, spec, gen, tol, evidence_starts, rng_seed)
    return Verdict(
        status=Status.NOT_PSD,
        case=case,
        tolerance=rel_tol,
        witness=witness,
        witness_value=value,
        notes=notes + extra,
    )


def classify(
    spec: CirculantSpec,
    rel_tol: float = REL_TOL_DEFAULT,
    evidence_starts: int = 64,
    rng_seed: int = 0,
) -> Verdict:
    """Verdict for a circulant spec: PSD with certificates, NotPSD with witness,
    or Uncovered with clearly labeled numerical evidence.

    Dispatch keys on the declared circulant index r; a seed that happens to
    have a smaller true period is still classified under its declared r.
    """
    if spec.m % 2 != 0:
        raise ValueError(
            f"odd order m={spec.m} is not classifiable: the zero tensor is the "
            "only odd-order positive semidefinite Hankel tensor"
        )
    gen = expand(spec)
    tol = _effective_tol(spec.seed, rel_tol)
    case = _dispatch(spec.m, spec.n, spec.r)

    notes: tuple[str, ...] = ()
    if case == Case.EVEN_GCD_2 and spec.r > spec.n:
        notes = (
            f"circulant index r={spec.r} exceeds n={spec.n}: this regime extends "
            "the classical r <= n definition up to r <= 2n-4",
        )

    if case is None:
        nec = necessary_psd(gen, rel_tol)
        if not nec.passed:
            return _not_psd_verdict(
                Case.NECESSARY_ONLY, spec, gen, tol, rel_tol, notes,
                evidence_starts, rng_seed,
            )
        evidence = oracle_mod.sphere_min(gen, starts=evidence_starts, rng_seed=rng_seed)
        return Verdict(
            status=Status.UNCOVERED,
            case=None,
            tolerance=rel_tol,
            evidence=evidence,
            notes=notes + (
                f"(m={spec.m}, r={spec.r}) is outside the proved families; "
                "attached sphere-search minimum is evidence, not a certificate",
            ),
        )

    if _psd_conditions(case, spec.seed, tol):
        return _psd_verdict(case, gen, tol, rel_tol, notes)
    return _not_psd_verdict(case, spec, gen, tol, rel_tol, notes, evidence_starts, rng_seed)


def classify_generating_vector(
    gen: GeneratingVector,
    rel_tol: float = REL_TOL_DEFAULT,
    evidence_starts: int = 64,
    rng_seed: int = 0,
) -> Verdict:
    """Classification without a declared circulant index.

    Only the unit-vector necessary condition can refute; everything else is
    Uncovered (the closed-form criteria all key on a declared r).
    """
    if gen.m % 2 != 0:
        raise ValueError(
            f"odd order m={gen.m} is not classifiable: the zero tensor is the "
            "only odd-order positive semidefinite Hankel tensor"
        )
    tol = _effective_tol(gen.v, rel_tol)
    nec = necessary_psd(gen, rel_tol)
    if not nec.passed:
        j = nec.failing_index
        x = tuple(1 if i == j else 0 for i in range(gen.n))
        return Verdict(
            status=Status.NOT_PSD,
            case=Case.NECESSARY_ONLY,
            tolerance=rel_tol,
            witness=WitnessVector(x, f"unit(e_{j + 1})"),
            witness_value=float(nec.value),
        )
    evidence = oracle_mod.sphere_min(gen, starts=evidence_starts, rng_seed=rng_seed)
    return Verdict(
        status=Status.UNCOVERED,
        case=None,
        tolerance=rel_tol,
        evidence=evidence,
        notes=(
            "no circulant index declared; the closed-form criteria do not apply; "
            "attached sphere-search minimum is evidence, not a certificate",
        ),
    )

"""Closed-form positive semidefiniteness classification for circulant Hankel tensors.

In each of six proved regimes a tensor is PSD iff its generating vector is
v[s] = alpha + beta*(-1)^s with alpha, beta >= 0, i.e.
f = alpha*(x1+...+xn)^m + beta*(x1-x2+x3-...)^m.  On the seed: for even r,
even seeds all equal, odd seeds all equal, and v0 >= |v1|; for odd r the two
parity classes merge, so all seeds equal and v0 >= 0.  ``classify`` dispatches
on the declared shape (m, n, r):

(a) ``index-1``           r = 1
(b) ``coprime-odd``       r odd, gcd(m, r) = 1, r <= n
(c) ``index-3-special``   r = 3, m in {6, 12, 18, 30, 42}, n >= 3
(d) ``index-2``           r = 2
(e) ``even-gcd-2``        r even, 4 <= r <= 2n - 4, gcd(m, r) = 2
(f) ``quartic-index-4``   m = 4, r = 4, n >= 4

The case only decides that failing the rule is a proved NotPSD and which
witness families are tried first.  Anything else, including a generating
vector given without r, is ``Uncovered`` unless a unit vector refutes it: no
claim is made, and a clearly non-certified numerical minimum estimate is
attached as evidence.  NotPSD verdicts carry an explicitly evaluated negative
witness vector.  A PSD verdict carries the power-sum certificate and the
strong-Hankel one it implies (the associated Hankel matrix is then
alpha*11^T + beta*aa^T), both checked by ``strong_hankel_check`` on at
most 2r entries of v, the window that holds every (seed entry, parity of s)
pair (``tensor.window``).

Only even orders are classifiable: for odd m the zero tensor is the only
positive semidefinite Hankel tensor, so odd orders are rejected.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .polyeval import eval_exact, eval_fast, rounded
from .tensor import (
    NAMED_PATTERNS,
    CirculantSpec,
    GeneratingVector,
    WitnessVector,
    _Record,
    alpha_witnesses,
    differences,
    distinct,
    expand,
    hankel_matrix,
    pattern_witnesses,
    window,
)

if TYPE_CHECKING:
    from .oracle import SphereMinResult

REL_TOL_DEFAULT = 1e-12
#: Witness values must clear -1e-9 times the generating vector scale.
WITNESS_REL_MARGIN = 1e-9
#: Rounding allowance of the certificate check, in ulps of max|v|: the
#: certificate's t is a float even for exact input.
CERTIFICATE_ULPS = 8
#: Even orders for which the circulant-index-3 rule is proved via sign facts
#: (``combinatorics.sign_fact_report`` recomputes them).
SPECIAL_R3_ORDERS = (6, 12, 18, 30, 42)


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


class Certificate(_Record):
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
    t: float | None
    matrix_eigen_floor: float | None

    def __init__(self, kind: CertificateKind, v0: float, t: float | None = None,
                 matrix_eigen_floor: float | None = None):
        self.__dict__.update(kind=kind, v0=v0, t=t, matrix_eigen_floor=matrix_eigen_floor)

    def to_dict(self) -> dict:
        out = {**self._as_dict(), "kind": self.kind.value}
        return {key: value for key, value in out.items() if value is not None}


class StrongHankelResult(_Record):
    """``residual`` is max_s |v[s] - (alpha + beta*(-1)^s)|; ``slack`` bounds it."""

    passed: bool
    min_eigenvalue: float
    size: int
    residual: float
    slack: float

    def __init__(self, passed: bool, min_eigenvalue: float, size: int, residual: float,
                 slack: float):
        self.__dict__.update(passed=passed, min_eigenvalue=min_eigenvalue, size=size,
                             residual=residual, slack=slack)


class Verdict(_Record):
    status: Status
    case: Case | None
    tolerance: float
    certificate: Certificate | None
    strong_hankel: Certificate | None
    witness: WitnessVector | None
    witness_value: float | None
    evidence: SphereMinResult | None
    notes: tuple[str, ...]

    def __init__(self, status: Status, case: Case | None, tolerance: float,
                 certificate: Certificate | None = None,
                 strong_hankel: Certificate | None = None,
                 witness: WitnessVector | None = None, witness_value: float | None = None,
                 evidence: SphereMinResult | None = None, notes: tuple[str, ...] = ()):
        self.__dict__.update(status=status, case=case, tolerance=tolerance,
                             certificate=certificate, strong_hankel=strong_hankel,
                             witness=witness, witness_value=witness_value, evidence=evidence,
                             notes=notes)

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
    """Absolute comparison slack: zero in exact mode, relative otherwise.

    For a generating vector pass ``distinct(window(gen))``: the window
    holds every object of v, and for an expanded seed it is r objects
    instead of L entries.
    """
    if all(isinstance(t, (int, Fraction)) for t in values):
        return 0
    return rel_tol * _scale(values)


def _all_equal(values, tol) -> bool:
    lo, hi = min(values), max(values)
    return hi - lo <= tol


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


def _psd_conditions(seed, tol) -> bool:
    """The rule v[s] = alpha + beta*(-1)^s, alpha, beta >= 0, on an r-entry seed."""
    if len(seed) % 2:
        return _all_equal(seed, tol) and seed[0] >= -tol
    return (
        _all_equal(seed[0::2], tol)
        and _all_equal(seed[1::2], tol)
        and seed[0] - abs(seed[1]) >= -tol
    )


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
    import numpy as np

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
    import numpy as np

    from . import oracle as oracle_mod

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
    slack: for even r the rule chains two comparisons (odd seed with v1,
    |v1| with v0), so an accepted seed can miss by both.

    Residual, scale and slack come from ``window(gen)``, all of v unless
    ``expand`` built it, then its first min(L, 2r) entries: the identity
    depends only on an entry's object and the parity of s, and the window
    holds every such pair of v.  Max and all() ignore order, so each is the
    same float as over all L entries.
    """
    alpha, beta = cert.v0 * cert.t, cert.v0 * (1.0 - cert.t)
    even, odd = alpha + beta, alpha - beta
    win = window(gen)
    evens, odds, entries = win[0::2], win[1::2], distinct(win)
    if any(type(t) is Fraction for t in entries):
        # float() of a Fraction divides in Python, and v may repeat its
        # objects: visit each once per parity.  For floats and ints the
        # deduplicating dicts cost more than the float() calls they save.
        evens, odds = distinct(evens), distinct(odds)
    residual = max(max(abs(float(t) - even) for t in evens),
                   max(abs(float(t) - odd) for t in odds))
    scale = _scale(entries)
    # at a subnormal scale ulp(1.0) * scale underflows, while alpha = v0 * t
    # still rounds to the subnormal grid: one ulp of scale is the floor
    slack = (2 * _effective_tol(entries, rel_tol)
             + CERTIFICATE_ULPS * max(math.ulp(1.0) * scale, math.ulp(scale)))
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
#: Each case's own families, tried before the generic tail in this order:
#: differences of these steps, these sign patterns, then these alpha families
#: climbing ``ALPHA_LADDER``.
_CASE_FAMILIES = {
    Case.COPRIME_ODD: ((1,), (), ()),
    Case.INDEX_3_SPECIAL: ((1,), ((1, -1), (1, 1, -2), (1, -3, 2), (1, 2, -3)), ()),
    Case.INDEX_TWO: ((), ((1, -1), (1, 1)), ()),
    Case.EVEN_GCD_2: ((2,), ((1, -1), (1, 1)), ("alpha",)),
    Case.QUARTIC_INDEX_4: (
        (), ((1, 0, -1, 0), (1, -1, -1, 1), (1, -1), (1, 1)), ("alpha", "alpha-neg")
    ),
}
_NO_FAMILIES = ((), (), ())


def _necessary_witnesses(gen: GeneratingVector, tol):
    for j in range(gen.n):
        if gen.v[j * gen.m] < -tol:
            x = tuple(1 if i == j else 0 for i in range(gen.n))
            yield WitnessVector(x, f"unit(e_{j + 1})")


# The family records depend only on (case, n), never on the seed, so a
# process builds them once.  Every verdict gets the same immutable tuples and
# walks them with its own iterator.
@functools.lru_cache(maxsize=64)
def _family_prefix(case: Case | None, n: int) -> tuple[WitnessVector, ...]:
    """The case's differences and sign patterns."""
    steps, patterns, _ = _CASE_FAMILIES.get(case, _NO_FAMILIES)
    out = [w for step in steps for w in differences(n, step)]
    return tuple(out + pattern_witnesses(n, patterns))


@functools.lru_cache(maxsize=256)
def _alpha_rung(case: Case, n: int, alpha: float) -> tuple[WitnessVector, ...]:
    """The case's alpha families at one ``ALPHA_LADDER`` value."""
    families = _CASE_FAMILIES[case][2]
    return tuple(w for family in families for w in alpha_witnesses(n, family, alpha))


@functools.lru_cache(maxsize=64)
def _generic_tail(n: int) -> tuple[WitnessVector, ...]:
    """Everything that fits, so no covered case can fall through to the
    oracle merely because its family list was too narrow."""
    out = differences(n, 1)
    if n >= 3:
        out += differences(n, 2)
    return tuple(out + pattern_witnesses(n, NAMED_PATTERNS))


def _witness_candidates(case: Case | None, gen: GeneratingVector, tol):
    """Candidate witnesses in a fixed canonical order, case-specific first.

    A rung of the alpha ladder is built when a verdict first reads it.
    """
    yield from _necessary_witnesses(gen, tol)
    n = gen.n
    yield from _family_prefix(case, n)
    if _CASE_FAMILIES.get(case, _NO_FAMILIES)[2]:
        for alpha in ALPHA_LADDER:
            yield from _alpha_rung(case, n, alpha)
    yield from _generic_tail(n)


def _hankel_eigenvector(gen: GeneratingVector) -> WitnessVector:
    """Eigenvector of the smallest eigenvalue of the associated Hankel matrix.

    At m = 2 the form is x^T A x, so this vector is its minimizer on the
    sphere: the witness when the seed misses the rule by less than the
    families and the sphere search resolve.
    """
    import numpy as np

    vector = np.linalg.eigh(hankel_matrix(gen).a)[1][:, 0]
    return WitnessVector(tuple(float(t) for t in vector), "hankel-eigenvector")


def _find_witness(case, gen, tol, evidence_starts, rng_seed):
    """``(witness, value, exact)``: the first canonical witness whose value,
    rounded once, clears the margin; else the first of those candidates, the
    sphere argmin and (m = 2) the Hankel eigenvector, most negative value
    first, that is negative in exact arithmetic.  A rounded value below the
    negative margin, ``-inf`` included, is the rounding of a negative f(x).
    value is f(witness) rounded once and clamped to ``-sys.float_info.max``;
    exact is f(witness) when it is already known, else None.
    """
    threshold = -WITNESS_REL_MARGIN * gen.max_abs()
    tried = []
    for candidate in _witness_candidates(case, gen, tol):
        fast = eval_fast(gen, candidate.x)
        value = rounded(fast)
        if value < threshold:
            if math.isinf(value):  # float input, f(x) past float64
                return candidate, -sys.float_info.max, eval_exact(gen, candidate.x)
            return candidate, value, None if type(fast) is float else fast
        tried.append((candidate, value))
    from . import oracle as oracle_mod

    searched = oracle_mod.sphere_min(gen, starts=evidence_starts, rng_seed=rng_seed)
    if searched.argmin is not None:
        witness = WitnessVector(searched.argmin, "sphere-search")
        if searched.min_value < threshold:
            return witness, searched.min_value, None
        tried.append((witness, searched.min_value))
    if gen.m == 2:
        candidate = _hankel_eigenvector(gen)
        tried.append((candidate, eval_fast(gen, candidate.x)))
    tried.sort(key=lambda item: item[1])
    for candidate, _ in tried:
        value = eval_exact(gen, candidate.x)
        if value < 0:
            return candidate, rounded(value), value
    raise RuntimeError(
        "seed criterion says not positive semidefinite, but no candidate witness "
        "is negative in exact arithmetic"
    )


def _past_float64(what: str, gen: GeneratingVector, x, value: float,
                  exact=None) -> tuple[str, ...]:
    """A note giving f(x) as mantissa * 2**e if ``value``, f(x) rounded once, was
    clamped; f(x) is ``exact`` if given, else evaluated here."""
    if abs(value) != sys.float_info.max:
        return ()
    if exact is None:
        exact = eval_exact(gen, x)
    if abs(exact) <= sys.float_info.max:
        return ()
    e = exact.numerator.bit_length() - exact.denominator.bit_length()
    return (f"{what} is exactly {float(exact / 2**e)!r} * 2**{e}, past float64; "
            f"it is reported as {value!r}",)


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


def _not_psd_verdict(case, gen, tol, rel_tol, notes, evidence_starts, rng_seed) -> Verdict:
    witness, value, exact = _find_witness(case, gen, tol, evidence_starts, rng_seed)
    return Verdict(
        status=Status.NOT_PSD,
        case=case,
        tolerance=rel_tol,
        witness=witness,
        witness_value=value,
        notes=notes + _past_float64("the witness value", gen, witness.x, value, exact),
    )


def classify(
    subject: CirculantSpec | GeneratingVector,
    rel_tol: float = REL_TOL_DEFAULT,
    evidence_starts: int = 64,
    rng_seed: int = 0,
) -> Verdict:
    """Verdict for a circulant spec or a generating vector: PSD with
    certificates, NotPSD with witness, or Uncovered with clearly labeled
    numerical evidence.

    Dispatch keys on the declared circulant index r; a seed that happens to
    have a smaller true period is still classified under its declared r.  A
    generating vector declares no r, so only the unit-vector necessary
    condition can refute it, and everything else is Uncovered.
    """
    if not (math.isfinite(rel_tol) and rel_tol >= 0):
        raise ValueError(f"relative tolerance must be finite and >= 0, got {rel_tol!r}")
    if evidence_starts < 1:
        raise ValueError(f"starts must be >= 1, got {evidence_starts}")
    if subject.m % 2 != 0:
        raise ValueError(
            f"odd order m={subject.m} is not classifiable: the zero tensor is the "
            "only odd-order positive semidefinite Hankel tensor"
        )
    if isinstance(subject, CirculantSpec):
        gen = expand(subject)
        tol = _effective_tol(subject.seed, rel_tol)
        case = _dispatch(subject.m, subject.n, subject.r)
    else:
        gen, tol, case = subject, _effective_tol(distinct(window(subject)), rel_tol), None

    notes: tuple[str, ...] = ()
    if case == Case.EVEN_GCD_2 and subject.r > subject.n:
        notes = (
            f"circulant index r={subject.r} exceeds n={subject.n}: this regime extends "
            "the classical r <= n definition up to r <= 2n-4",
        )

    if case is None:
        # unit vector e_{j+1} evaluates f to v[j*m]: a necessary condition
        if any(gen.v[j * gen.m] < -tol for j in range(gen.n)):
            return _not_psd_verdict(
                Case.NECESSARY_ONLY, gen, tol, rel_tol, notes, evidence_starts, rng_seed
            )
        from . import oracle as oracle_mod

        evidence = oracle_mod.sphere_min(gen, starts=evidence_starts, rng_seed=rng_seed)
        outside = (
            f"(m={subject.m}, r={subject.r}) is outside the proved families"
            if isinstance(subject, CirculantSpec)
            else "no circulant index declared; the closed-form criteria do not apply"
        )
        notes += (f"{outside}; attached sphere-search minimum is evidence, not a certificate",)
        if evidence.argmin is None:
            notes += (
                "the sphere search found no point with a finite float64 value, "
                "so the evidence has no argmin",
            )
        else:
            notes += _past_float64("min_value", gen, evidence.argmin, evidence.min_value)
        return Verdict(
            status=Status.UNCOVERED, case=None, tolerance=rel_tol, evidence=evidence, notes=notes
        )

    if _psd_conditions(subject.seed, tol):
        return _psd_verdict(case, gen, tol, rel_tol, notes)
    return _not_psd_verdict(case, gen, tol, rel_tol, notes, evidence_starts, rng_seed)

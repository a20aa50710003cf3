"""Reference computations made apart from the program, and the verdict checks.

Nothing here imports ``anticirculant``.  The case table is re-implemented
from the paper's six rows, the polynomial is evaluated with ``np.convolve``
powers (``Fraction`` arithmetic for exact seeds), and the eigenvalue floor of
the associated Hankel matrix comes from ``np.linalg.eigvalsh`` of a matrix
built here.  Every check reads a verdict in its ``to_dict()`` / ``--json``
form and returns a list of problems; an empty list means the verdict holds.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

EPS = float(np.finfo(float).eps)
#: Relative agreement asked of a witness value and of a sphere minimum.
VALUE_REL = 1e-9
#: Relative agreement asked of the two-term power-sum identity, per entry.
IDENTITY_REL = 1e-12
#: PSD floor for the associated Hankel matrix, relative to max |v|.
FLOOR_REL = 1e-9
#: Seed-comparison tolerance the paper's table is read with for float seeds.
TABLE_REL = 1e-12
SPECIAL_R3 = (6, 12, 18, 30, 42)


def is_exact(values) -> bool:
    return all(isinstance(t, (int, Fraction)) and not isinstance(t, bool) for t in values)


def genvec(m: int, n: int, seed) -> list:
    """The seed repeated over the ``(n - 1) * m + 1`` entries of the generating vector."""
    r = len(seed)
    return [seed[i % r] for i in range((n - 1) * m + 1)]


def table_case(m: int, n: int, r: int) -> str | None:
    """The row of the paper's table that covers ``(m, n, r)``, first match wins."""
    if r == 1:
        return "index-1"
    if r % 2 == 1 and math.gcd(m, r) == 1 and r <= n:
        return "coprime-odd"
    if r == 3 and m in SPECIAL_R3 and n >= 3:
        return "index-3-special"
    if r == 2:
        return "index-2"
    if r % 2 == 0 and 4 <= r <= 2 * n - 4 and math.gcd(m, r) == 2:
        return "even-gcd-2"
    if m == 4 and r == 4 and n >= 4:
        return "quartic-index-4"
    return None


def _equal(values, tol) -> bool:
    return max(values) - min(values) <= tol


def table_psd(case: str, seed, tol) -> bool:
    """The row's seed criterion."""
    v0 = seed[0]
    if case == "index-1":
        return v0 >= -tol
    if case in ("coprime-odd", "index-3-special"):
        return _equal(seed, tol) and v0 >= -tol
    if case == "index-2":
        return v0 - abs(seed[1]) >= -tol
    if case == "even-gcd-2":
        return _equal(seed[0::2], tol) and _equal(seed[1::2], tol) and v0 - abs(seed[1]) >= -tol
    if case == "quartic-index-4":
        return (abs(seed[0] - seed[2]) <= tol and abs(seed[1] - seed[3]) <= tol
                and v0 - abs(seed[1]) >= -tol)
    raise ValueError(f"no row {case!r}")


def predict(m: int, n: int, r: int, seed) -> tuple[str | None, str]:
    """(case, status) as the table gives them; status ``Uncovered`` off the table."""
    case = table_case(m, n, r)
    if case is None:
        return None, "Uncovered"
    tol = 0 if is_exact(seed) else TABLE_REL * max(abs(float(t)) for t in seed)
    return case, "PSD" if table_psd(case, seed, tol) else "NotPSD"


def _exact_profile(x, m: int) -> list:
    """Coefficients of ``(x_1 + x_2 z + ... + x_n z^(n-1))^m`` in exact arithmetic."""
    out = [1]
    for _ in range(m):
        nxt = [0] * (len(out) + len(x) - 1)
        for j, xj in enumerate(x):
            if xj:
                for i, oi in enumerate(out):
                    nxt[i + j] += oi * xj
        out = nxt
    return out


def f_value(v, m: int, x):
    """f(x) = sum_s v[s] * [z^s](sum_i x_i z^(i-1))^m.

    Exact (a ``Fraction`` or int) when ``v`` is exact; ``x`` floats are taken
    at their exact binary value there.  Float otherwise, via ``np.convolve``.
    """
    if is_exact(v):
        xe = [int(t) if float(t).is_integer() else Fraction(t) for t in x]
        return sum(vs * cs for vs, cs in zip(v, _exact_profile(xe, m)))
    xf = np.asarray(x, dtype=float)
    profile = xf
    for _ in range(m - 1):
        profile = np.convolve(profile, xf)
    return float(np.dot(np.asarray(v, dtype=float), profile))


def f_dense(v, m: int, x) -> float:
    """f(x) by contracting the dense tensor; for cross-checks with ``n**m <= 10**6``."""
    n = len(x)
    if n ** m > 10 ** 6:
        raise ValueError(f"dense tensor of {n ** m} entries is over the cap")
    tensor = np.asarray(v, dtype=float)[np.indices((n,) * m).sum(axis=0)]
    xf = np.asarray(x, dtype=float)
    for _ in range(m):
        tensor = tensor @ xf
    return float(tensor)


def eigen_floor(v) -> float:
    """Smallest eigenvalue of the associated Hankel matrix ``A[i, j] = v[i + j]``."""
    size = (len(v) + 1) // 2
    idx = np.arange(size)
    a = np.asarray(v, dtype=float)[idx[:, None] + idx[None, :]]
    return float(np.linalg.eigvalsh(a)[0])


def _eval_slack(scale: float, x, m: int) -> float:
    # Rounding bound of a float evaluation: every coefficient is at most
    # (sum |x_i|)^m and every v[s] at most scale; 1000 eps of headroom.
    return 1000 * EPS * scale * sum(abs(float(t)) for t in x) ** m


def check_verdict(m: int, n: int, r: int, seed, doc: dict, psd_by_construction=None) -> list[str]:
    """Problems with the verdict ``doc`` for the spec ``(m, n, r, seed)``.

    On Uncovered specs, ``psd_by_construction=True`` asks in addition that the
    sphere minimum is not below ``-1e-9 * scale``, and ``False`` that it is
    negative.
    """
    case, status = predict(m, n, r, seed)
    v = genvec(m, n, seed)
    scale = max(abs(float(t)) for t in v)
    problems = []
    if doc.get("status") != status:
        problems.append(f"status {doc.get('status')!r}, table says {status!r}")
    if doc.get("case") != case:
        problems.append(f"case {doc.get('case')!r}, table says {case!r}")
    if problems:
        return problems

    if status == "NotPSD":
        x = doc.get("witness")
        if x is None or len(x) != n:
            return [f"witness {x!r} is not an {n}-vector"]
        ref = f_value(v, m, x)
        claimed = doc.get("witness_value")
        if not ref < 0:
            problems.append(f"witness evaluates to {float(ref)!r}, not below 0")
        if claimed is None or abs(float(ref) - claimed) > VALUE_REL * abs(float(ref)):
            problems.append(f"witness_value {claimed!r}, reference {float(ref)!r}")
    elif status == "PSD":
        cert = doc.get("certificate") or {}
        v0, t = cert.get("v0"), cert.get("t")
        if t is None or not 0.0 <= t <= 1.0:
            return [f"certificate t={t!r} outside [0, 1]"]
        for s, vs in enumerate(v):
            want = v0 * (t + (1.0 - t) * (-1) ** s)
            if abs(float(vs) - want) > IDENTITY_REL * scale:
                problems.append(f"v[{s}]={float(vs)!r}, certificate gives {want!r} (t={t!r})")
                break
        floor = (doc.get("strong_hankel") or {}).get("matrix_eigen_floor")
        ref = eigen_floor(v)
        if floor is None or abs(floor - ref) > FLOOR_REL * scale:
            problems.append(f"eigen floor {floor!r}, eigvalsh gives {ref!r}")
        elif floor < -FLOOR_REL * scale:
            problems.append(f"eigen floor {floor!r} below -1e-9 * {scale!r}")
    else:
        ev = doc.get("evidence") or {}
        x, low = ev.get("argmin"), ev.get("min_value")
        if x is None or len(x) != n or low is None:
            return [f"evidence {ev!r} lacks an {n}-vector argmin or a min_value"]
        norm = math.sqrt(sum(t * t for t in x))
        if abs(norm - 1.0) > 1e-12:
            problems.append(f"argmin has norm {norm!r}")
        ref = float(f_value(v, m, x))
        if abs(ref - low) > VALUE_REL * max(abs(ref), abs(low)) + _eval_slack(scale, x, m):
            problems.append(f"min_value {low!r}, f(argmin) is {ref!r}")
        unit_slack = _eval_slack(scale, [1.0], m)
        for j in range(n):
            if low > float(v[j * m]) + unit_slack:
                problems.append(f"min_value {low!r} above f(e_{j + 1}) = {float(v[j * m])!r}")
                break
        if psd_by_construction and low < -FLOOR_REL * scale:
            problems.append(f"min_value {low!r} below -1e-9 * {scale!r} on a PSD tensor")
        if psd_by_construction is False and not low < 0:
            problems.append(f"min_value {low!r} is not negative on a tensor built not PSD")
    return problems

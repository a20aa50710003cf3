"""Hankel tensors, circulant generating vectors, and witness vectors.

An order ``m``, dimension ``n`` Hankel tensor is determined by a generating
vector ``v`` of length ``(n - 1) * m + 1``: the entry at 1-based indices
``(i_1, ..., i_m)`` is ``v[i_1 + ... + i_m - m]``.  When ``v`` is periodic
with period ``r`` (``v[i] == v[i + r]`` wherever both sides exist) the tensor
is a generalized anti-circulant tensor with circulant index ``r``, and the
first ``r`` values (the seed) determine everything.  ``r = n`` recovers the
classical anti-circulant tensor; indices ``r`` up to ``max(n, 2n - 4)`` are
accepted because the even-index classification results remain meaningful in
that extended range.

Even-order tensors (``m = 2k``) also carry an associated Hankel matrix of
size ``n*k - k + 1`` built from the same generating vector; positive
semidefiniteness of that matrix is the strong Hankel property.

Entry values are kept exactly as supplied (int, float, or Fraction), so exact
arithmetic survives downstream when the inputs are exact.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

#: Largest number of index tuples brute-force evaluation may visit.
DENSE_CAP_DEFAULT = 1_000_000

#: Constant sign patterns used as ready-made witness vectors.  Each pattern is
#: placed in the leading coordinates and padded with zeros.
NAMED_PATTERNS: tuple[tuple[int, ...], ...] = (
    (1, -1),
    (1, 1),
    (1, 1, -2),
    (1, -3, 2),
    (1, 2, -3),
    (1, 0, -1, 0),
    (1, -1, -1, 1),
)


def distinct(values):
    """Each object of ``values`` once, in order of first appearance.

    An expanded seed repeats its r objects over L entries, so a scan of the
    distinct objects visits r of them; a max or an all() over them is the
    max or all() over ``values``.
    """
    return dict(zip(map(id, values), values)).values()


def _require_finite(values, what: str) -> None:
    # floats can carry NaN or inf; an int or Fraction is finite but must still
    # fit in float64, since the numerical layers and the certificate use floats.
    for t in distinct(values):
        try:
            finite = math.isfinite(t)
        except OverflowError:
            raise ValueError(
                f"{what} entries must be finite, got one too large for float64"
            ) from None
        if not finite:
            raise ValueError(f"{what} entries must be finite, got {t!r}")


class _Record:
    """Base of the package's frozen records; the annotated names are the fields.

    Each record's own ``__init__`` validates its arguments and stores them in
    the instance ``__dict__``; normal attribute assignment and deletion raise
    ``AttributeError``.  Records compare, hash and print field by field, as
    frozen dataclasses do, and ``_as_dict`` maps field names to values, with
    records among the values as dicts.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _as_dict(self) -> dict:
        return {
            name: value._as_dict() if isinstance(value, _Record) else value
            for name, value in zip(self._fields, self._values())
        }


def genvec_length(m: int, n: int) -> int:
    """Length of the generating vector of an order-m, dimension-n Hankel tensor."""
    return (n - 1) * m + 1


def max_circulant_index(n: int) -> int:
    """Largest circulant index r a dimension-n spec accepts: ``max(n, 2n - 4)``."""
    return max(n, 2 * n - 4)


class GeneratingVector(_Record):
    """Order ``m``, dimension ``n``, and the generating vector ``v``.

    ``v[0]`` generates the all-ones-index entry; ``v[-1]`` the all-``n`` one.
    """

    m: int
    n: int
    v: tuple

    def __init__(self, m: int, n: int, v):
        v = tuple(v)
        self.__dict__.update(m=m, n=n, v=v)
        if m < 2:
            raise ValueError(f"order m must be >= 2, got {m}")
        if n < 2:
            raise ValueError(f"dimension n must be >= 2, got {n}")
        want = genvec_length(m, n)
        if len(v) != want:
            raise ValueError(
                f"generating vector needs (n-1)*m+1 = {want} entries, got {len(v)}"
            )
        _require_finite(v, "generating vector")

    def max_abs(self) -> float:
        return max(abs(float(t)) for t in distinct(self.v))


class CirculantSpec(_Record):
    """A generalized anti-circulant tensor given by (m, n, r) and an r-entry seed.

    The full generating vector is the seed repeated periodically.  ``r`` may
    exceed ``n`` up to ``max(n, 2n - 4)``, but never the generating vector
    length.
    """

    m: int
    n: int
    r: int
    seed: tuple

    def __init__(self, m: int, n: int, r: int, seed):
        seed = tuple(seed)
        self.__dict__.update(m=m, n=n, r=r, seed=seed)
        if m < 2:
            raise ValueError(f"order m must be >= 2, got {m}")
        if n < 2:
            raise ValueError(f"dimension n must be >= 2, got {n}")
        r_cap = max_circulant_index(n)
        if not 1 <= r <= r_cap:
            raise ValueError(
                f"circulant index r={r} outside 1..max(n, 2n-4) = 1..{r_cap}"
            )
        if r > genvec_length(m, n):
            raise ValueError(
                f"circulant index r={r} exceeds generating vector length "
                f"{genvec_length(m, n)}"
            )
        if len(seed) != r:
            raise ValueError(f"seed needs exactly r={r} entries, got {len(seed)}")
        _require_finite(seed, "seed")


def expand(spec: CirculantSpec) -> GeneratingVector:
    """Expand a circulant seed into the full generating vector.

    Examples: (m=4, n=3, r=1, seed=(2,)) gives nine 2s; (m=4, n=3, r=3,
    seed=(1,2,3)) gives (1,2,3,1,2,3,1,2,3).
    """
    length = genvec_length(spec.m, spec.n)
    v = (spec.seed * -(-length // spec.r))[:length]
    return GeneratingVector(spec.m, spec.n, v)


def entry(gen: GeneratingVector, idx):
    """Tensor entry at 1-based indices ``idx`` (any order; the tensor is symmetric)."""
    if len(idx) != gen.m:
        raise ValueError(f"need {gen.m} indices, got {len(idx)}")
    total = 0
    for i in idx:
        if not 1 <= i <= gen.n:
            raise ValueError(f"index {i} outside 1..{gen.n}")
        total += i
    return gen.v[total - gen.m]


class HankelMatrix(_Record):
    """Associated Hankel matrix of an even-order tensor: ``a[i, j] = v[i + j]`` (0-based)."""

    gen: GeneratingVector
    k: int
    size: int
    a: np.ndarray

    def __init__(self, gen: GeneratingVector, k: int, size: int, a: np.ndarray):
        self.__dict__.update(gen=gen, k=k, size=size, a=a)

    def __eq__(self, other):
        if not isinstance(other, HankelMatrix):
            return NotImplemented
        import numpy as np

        return self.gen == other.gen and np.array_equal(self.a, other.a)


def hankel_matrix(gen: GeneratingVector) -> HankelMatrix:
    """Build the associated Hankel matrix; only defined for even order.

    For order ``m = 2k`` the matrix has size ``n*k - k + 1`` and consumes the
    whole generating vector: the anti-diagonal ``i + j = s`` carries ``v[s]``.
    """
    if gen.m % 2 != 0:
        raise ValueError(f"associated Hankel matrix needs even order, got m={gen.m}")
    import numpy as np

    k = gen.m // 2
    size = gen.n * k - k + 1
    idx = np.arange(size)
    a = np.asarray(gen.v, dtype=float)[idx[:, None] + idx[None, :]]
    a.flags.writeable = False
    return HankelMatrix(gen=gen, k=k, size=size, a=a)


class WitnessVector(_Record):
    """A concrete vector ``x`` with a label describing which family produced it."""

    x: tuple
    label: str

    def __init__(self, x, label: str):
        x = tuple(x)
        self.__dict__.update(x=x, label=label)
        if all(t == 0 for t in x):
            raise ValueError("witness vector must be nonzero")


def _wrap(pos: int, n: int) -> int:
    # 1-based cyclic position: 0 stands for n, n + 1 for 1, n + 2 for 2.
    return (pos - 1) % n + 1


def alpha_template(family: str, q: int, n: int) -> tuple[tuple, ...]:
    """Coordinates of the alpha witness family as linear polynomials in alpha.

    Returns one ``(constant, alpha_coefficient)`` pair per coordinate for
    ``alpha * e_{q-1} + s * e_q - alpha * e_{q+1}`` with ``s = +1`` for family
    ``"alpha"`` and ``s = -1`` for ``"alpha-neg"``.  Positions wrap cyclically
    (``e_0`` means ``e_n``); ``n >= 3`` keeps the three positions distinct.
    """
    if family not in ("alpha", "alpha-neg"):
        raise ValueError(f"unknown alpha family {family!r}")
    if n < 3:
        raise ValueError(f"alpha witness family needs n >= 3, got n={n}")
    if not 1 <= q <= n:
        raise ValueError(f"shift q={q} outside 1..{n}")
    sign = 1 if family == "alpha" else -1
    coords = [[0, 0] for _ in range(n)]
    coords[_wrap(q - 1, n) - 1][1] += 1
    coords[_wrap(q, n) - 1][0] += sign
    coords[_wrap(q + 1, n) - 1][1] -= 1
    return tuple((c0, c1) for c0, c1 in coords)


def pattern_vector(pattern, n: int) -> tuple:
    """Place ``pattern`` in the leading coordinates of an n-vector, zero padded."""
    support = max((i + 1 for i, t in enumerate(pattern) if t != 0), default=0)
    if support == 0:
        raise ValueError("pattern has no nonzero entry")
    if support > n:
        raise ValueError(f"pattern {tuple(pattern)} needs n >= {support}, got n={n}")
    return tuple(pattern[i] if i < len(pattern) else 0 for i in range(n))


def differences(n: int, step: int) -> list[WitnessVector]:
    """``e_q - e_{q+step}`` for ``q = 1..n`` (cyclic; needs n > step).

    Labelled ``unit-difference(q=...)`` for step 1, else ``step-<step>-difference(q=...)``.
    """
    if n <= step:
        raise ValueError(f"step-{step}-difference needs n >= {step + 1}, got n={n}")
    name = "unit-difference" if step == 1 else f"step-{step}-difference"
    out = []
    for q in range(1, n + 1):
        x = [0] * n
        x[q - 1] = 1
        x[_wrap(q + step, n) - 1] -= 1
        out.append(WitnessVector(tuple(x), f"{name}(q={q})"))
    return out


def alpha_witnesses(n: int, family: str, alpha) -> list[WitnessVector]:
    """``alpha*e_{q-1} +/- e_q - alpha*e_{q+1}`` for ``q = 1..n`` at a concrete alpha.

    ``family`` is ``"alpha"`` (+) or ``"alpha-neg"`` (-); see :func:`alpha_template`.
    """
    out = []
    for q in range(1, n + 1):
        x = tuple(c0 + c1 * alpha for c0, c1 in alpha_template(family, q, n))
        out.append(WitnessVector(x, f"{family}(q={q}, alpha={alpha})"))
    return out


def pattern_witnesses(n: int, patterns) -> list[WitnessVector]:
    """Each pattern zero padded to dimension ``n``; patterns that do not fit are skipped."""
    out = []
    for pattern in patterns:
        try:
            out.append(WitnessVector(pattern_vector(pattern, n), f"pattern{pattern}"))
        except ValueError:
            continue
    return out


#: Alpha values of the alpha families among the numerical search's candidates.
CANDIDATE_ALPHAS = (2.0, 4.0, 8.0, 16.0)


def candidate_witnesses(n: int) -> list[WitnessVector]:
    """Every witness-family member that fits dimension ``n``, in a fixed order.

    Used to seed numerical searches: unit differences, step-2 differences,
    alpha families at ``CANDIDATE_ALPHAS``, then the named constant patterns
    that fit.
    """
    out = differences(n, 1)
    if n >= 3:
        out += differences(n, 2)
        for alpha in CANDIDATE_ALPHAS:
            out += alpha_witnesses(n, "alpha", alpha)
            out += alpha_witnesses(n, "alpha-neg", alpha)
    return out + pattern_witnesses(n, NAMED_PATTERNS)

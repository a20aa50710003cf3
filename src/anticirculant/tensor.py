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
import sys
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


def _require_finite(values, what: str) -> None:
    # floats can carry NaN or inf; an int or Fraction is finite but must still
    # fit in float64, since the numerical layers and the certificate use floats.
    for t in values:
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
        return max(abs(float(t)) for t in self.v)


class CirculantSpec(_Record):
    """A generalized anti-circulant tensor given by (m, n, r) and an r-entry seed.

    The full generating vector is the seed repeated periodically.  ``r`` may
    exceed ``n`` up to ``max(n, 2n - 4)``, below the generating vector length
    L for m, n >= 2; L may not pass ``sys.maxsize``.
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
        if len(seed) != r:
            raise ValueError(f"seed needs exactly r={r} entries, got {len(seed)}")
        if genvec_length(m, n) > sys.maxsize:
            raise ValueError(f"generating vector of L = (n-1)*m+1 = {genvec_length(m, n)} "
                             f"entries is past sys.maxsize = {sys.maxsize}")
        _require_finite(seed, "seed")


def expand(spec: CirculantSpec) -> GeneratingVector:
    """Expand a circulant seed into the full generating vector.

    Examples: (m=4, n=3, r=1, seed=(2,)) gives nine 2s; (m=4, n=3, r=3,
    seed=(1,2,3)) gives (1,2,3,1,2,3,1,2,3).  Only the passes that read all
    of v need it: ``hankel_matrix`` and ``polyeval.eval_naive``.  An L past
    what a tuple can hold is a ``ValueError``: CPython refuses such a
    repetition before it allocates.
    """
    length = genvec_length(spec.m, spec.n)
    try:
        v = (spec.seed * -(-length // spec.r))[:length]
    except MemoryError:
        raise ValueError(
            f"generating vector of L = (n-1)*m+1 = {length} entries is too long to build"
        ) from None
    return GeneratingVector(spec.m, spec.n, v)


def window(gen: CirculantSpec | GeneratingVector) -> tuple:
    """The entries of v a pass over v reads: ``(seed * 2)[:L]`` for a
    ``CirculantSpec`` of r seed entries, all of ``gen.v`` for a
    ``GeneratingVector``.

    The window is exact: s -> s + 2r keeps both s mod r and the parity of
    s, so the window holds every (object, parity) pair of v, and every seed
    object, as r < L.  A max, an all() or a type set over v, or over v's
    even or odd entries, is the same over the window's, and
    ``v[s] == window[s % len(window)]``.
    """
    if isinstance(gen, CirculantSpec):
        return (gen.seed * 2)[: genvec_length(gen.m, gen.n)]
    return gen.v


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


def hankel_matrix(gen: GeneratingVector) -> np.ndarray:
    """The associated Hankel matrix ``A[i, j] = v[i + j]`` (0-based) of an
    even-order tensor, as a read-only float64 array.

    For order ``m = 2k`` the matrix has size ``n*k - k + 1`` and consumes the
    whole generating vector: the anti-diagonal ``i + j = s`` carries ``v[s]``.
    """
    if gen.m % 2 != 0:
        raise ValueError(f"associated Hankel matrix needs even order, got m={gen.m}")
    import numpy as np

    k = gen.m // 2
    idx = np.arange(gen.n * k - k + 1)
    a = np.asarray(gen.v, dtype=float)[idx[:, None] + idx[None, :]]
    a.flags.writeable = False
    return a


class WitnessVector(_Record):
    """A concrete vector ``x`` with a label describing which family produced it."""

    x: tuple
    label: str

    def __init__(self, x, label: str):
        x = tuple(x)
        self.__dict__.update(x=x, label=label)
        if all(t == 0 for t in x):
            raise ValueError("witness vector must be nonzero")


def differences(n: int, step: int) -> list[WitnessVector]:
    """``e_q - e_{q+step}`` for ``q = 1..n``, positions cyclic (``e_{n+1}`` is
    ``e_1``); needs n > step.

    Labelled ``unit-difference(q=...)`` for step 1, else ``step-<step>-difference(q=...)``.
    """
    if n <= step:
        raise ValueError(f"step-{step}-difference needs n >= {step + 1}, got n={n}")
    name = "unit-difference" if step == 1 else f"step-{step}-difference"
    out = []
    for q in range(n):
        x = [0] * n
        x[q], x[(q + step) % n] = 1, -1
        out.append(WitnessVector(x, f"{name}(q={q + 1})"))
    return out


def alpha_witnesses(n: int, family: str, alpha) -> list[WitnessVector]:
    """``alpha*e_{q-1} + s*e_q - alpha*e_{q+1}`` for ``q = 1..n`` at a concrete alpha.

    ``s = +1`` for family ``"alpha"`` and ``-1`` for ``"alpha-neg"``.
    Positions wrap cyclically (``e_0`` is ``e_n``); ``n >= 3`` keeps the
    three positions distinct.  Every coordinate has alpha's type: the zeros
    are ``0 * alpha`` and the centre is ``s + 0 * alpha``.  An int power of
    two is labelled ``2**k``, not by its digits.
    """
    if family not in ("alpha", "alpha-neg"):
        raise ValueError(f"unknown alpha family {family!r}")
    if n < 3:
        raise ValueError(f"alpha witness family needs n >= 3, got n={n}")
    sign = 1 if family == "alpha" else -1
    power = type(alpha) is int and alpha > 0 and alpha.bit_count() == 1
    shown = f"2**{alpha.bit_length() - 1}" if power else alpha
    out = []
    for q in range(n):
        x = [0 * alpha] * n
        x[q - 1], x[q], x[(q + 1) % n] = alpha, sign + 0 * alpha, -alpha
        out.append(WitnessVector(x, f"{family}(q={q + 1}, alpha={shown})"))
    return out


def pattern_witnesses(n: int, patterns) -> list[WitnessVector]:
    """Each pattern in the leading coordinates, zero padded to dimension ``n``.

    A pattern with no nonzero entry, or with one past coordinate n, is skipped.
    """
    out = []
    for pattern in patterns:
        support = max((i + 1 for i, t in enumerate(pattern) if t != 0), default=0)
        if 0 < support <= n:
            x = tuple(pattern[:n]) + (0,) * (n - len(pattern))
            out.append(WitnessVector(x, f"pattern{pattern}"))
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

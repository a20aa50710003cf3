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
from dataclasses import dataclass

import numpy as np

#: Largest number of entries for which dense materialization is permitted.
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
    # ints and Fractions are always finite; only floats can carry NaN or inf
    for t in values:
        if isinstance(t, float) and not math.isfinite(t):
            raise ValueError(f"{what} entries must be finite, got {t!r}")


def genvec_length(m: int, n: int) -> int:
    """Length of the generating vector of an order-m, dimension-n Hankel tensor."""
    return (n - 1) * m + 1


@dataclass(frozen=True)
class GeneratingVector:
    """Order ``m``, dimension ``n``, and the generating vector ``v``.

    ``v[0]`` generates the all-ones-index entry; ``v[-1]`` the all-``n`` one.
    """

    m: int
    n: int
    v: tuple

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(self.v))
        if self.m < 2:
            raise ValueError(f"order m must be >= 2, got {self.m}")
        if self.n < 2:
            raise ValueError(f"dimension n must be >= 2, got {self.n}")
        want = genvec_length(self.m, self.n)
        if len(self.v) != want:
            raise ValueError(
                f"generating vector needs (n-1)*m+1 = {want} entries, got {len(self.v)}"
            )
        _require_finite(self.v, "generating vector")

    def max_abs(self) -> float:
        return max(abs(float(t)) for t in self.v)


@dataclass(frozen=True)
class CirculantSpec:
    """A generalized anti-circulant tensor given by (m, n, r) and an r-entry seed.

    The full generating vector is the seed repeated periodically.  ``r`` may
    exceed ``n`` up to ``max(n, 2n - 4)``, but never the generating vector
    length.
    """

    m: int
    n: int
    r: int
    seed: tuple

    def __post_init__(self):
        object.__setattr__(self, "seed", tuple(self.seed))
        if self.m < 2:
            raise ValueError(f"order m must be >= 2, got {self.m}")
        if self.n < 2:
            raise ValueError(f"dimension n must be >= 2, got {self.n}")
        r_cap = max(self.n, 2 * self.n - 4)
        if not 1 <= self.r <= r_cap:
            raise ValueError(
                f"circulant index r={self.r} outside 1..max(n, 2n-4) = 1..{r_cap}"
            )
        if self.r > genvec_length(self.m, self.n):
            raise ValueError(
                f"circulant index r={self.r} exceeds generating vector length "
                f"{genvec_length(self.m, self.n)}"
            )
        if len(self.seed) != self.r:
            raise ValueError(f"seed needs exactly r={self.r} entries, got {len(self.seed)}")
        _require_finite(self.seed, "seed")


def expand(spec: CirculantSpec) -> GeneratingVector:
    """Expand a circulant seed into the full generating vector.

    Examples: (m=4, n=3, r=1, seed=(2,)) gives nine 2s; (m=4, n=3, r=3,
    seed=(1,2,3)) gives (1,2,3,1,2,3,1,2,3).
    """
    length = genvec_length(spec.m, spec.n)
    v = tuple(spec.seed[i % spec.r] for i in range(length))
    return GeneratingVector(spec.m, spec.n, v)


@dataclass(frozen=True)
class HankelTensor:
    """Lazy view of the symmetric tensor generated by ``gen``.

    Entries are computed on demand from the generating vector; a dense numpy
    array is only built on request and only under the entry-count cap.
    """

    gen: GeneratingVector

    @property
    def m(self) -> int:
        return self.gen.m

    @property
    def n(self) -> int:
        return self.gen.n

    def entry(self, idx):
        """Tensor entry at 1-based indices ``idx`` (any order; the tensor is symmetric)."""
        gen = self.gen
        if len(idx) != gen.m:
            raise ValueError(f"need {gen.m} indices, got {len(idx)}")
        total = 0
        for i in idx:
            if not 1 <= i <= gen.n:
                raise ValueError(f"index {i} outside 1..{gen.n}")
            total += i
        return gen.v[total - gen.m]

    def materialize(self, cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
        """Dense ``(n,) * m`` array of entries.  Refuses when ``n**m > cap``."""
        gen = self.gen
        count = gen.n ** gen.m
        if count > cap:
            raise ValueError(f"dense tensor would hold {count} entries, cap is {cap}")
        index_sum = np.indices((gen.n,) * gen.m, dtype=np.int64).sum(axis=0)
        dense = np.asarray(gen.v, dtype=float)[index_sum]
        dense.flags.writeable = False
        return dense


def entry(gen: GeneratingVector, idx) -> float:
    """Tensor entry at 1-based indices ``idx``; see :meth:`HankelTensor.entry`."""
    return HankelTensor(gen).entry(idx)


@dataclass(frozen=True)
class HankelMatrix:
    """Associated Hankel matrix of an even-order tensor: ``a[i, j] = v[i + j]`` (0-based)."""

    gen: GeneratingVector
    k: int
    size: int
    a: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, HankelMatrix):
            return NotImplemented
        return self.gen == other.gen and np.array_equal(self.a, other.a)


def hankel_matrix(gen: GeneratingVector) -> HankelMatrix:
    """Build the associated Hankel matrix; only defined for even order.

    For order ``m = 2k`` the matrix has size ``n*k - k + 1`` and consumes the
    whole generating vector: the anti-diagonal ``i + j = s`` carries ``v[s]``.
    """
    if gen.m % 2 != 0:
        raise ValueError(f"associated Hankel matrix needs even order, got m={gen.m}")
    k = gen.m // 2
    size = gen.n * k - k + 1
    idx = np.arange(size)
    a = np.asarray(gen.v, dtype=float)[idx[:, None] + idx[None, :]]
    a.flags.writeable = False
    return HankelMatrix(gen=gen, k=k, size=size, a=a)


@dataclass(frozen=True)
class WitnessVector:
    """A concrete vector ``x`` with a label describing which family produced it."""

    x: tuple
    label: str

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        if all(t == 0 for t in self.x):
            raise ValueError("witness vector must be nonzero")


def _unit(n: int, pos: int, value=1) -> list:
    x = [0] * n
    x[pos - 1] = value
    return x


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


def witnesses(n: int, family: str, alpha=None) -> list[WitnessVector]:
    """Members of a canonical witness family in dimension ``n``.

    Families:

    * ``"unit-difference"``: ``e_q - e_{q+1}`` for ``q = 1..n`` (cyclic).
    * ``"step-2-difference"``: ``e_q - e_{q+2}`` for ``q = 1..n`` (cyclic, needs n >= 3).
    * ``"alpha"`` / ``"alpha-neg"``: ``alpha*e_{q-1} +/- e_q - alpha*e_{q+1}``
      for ``q = 1..n`` at a concrete ``alpha`` value (needs n >= 3).
    * ``"pattern:a,b,..."``: the single zero-padded constant pattern.
    """
    out: list[WitnessVector] = []
    if family == "unit-difference":
        for q in range(1, n + 1):
            x = _unit(n, q)
            x[_wrap(q + 1, n) - 1] -= 1
            out.append(WitnessVector(tuple(x), f"unit-difference(q={q})"))
    elif family == "step-2-difference":
        if n < 3:
            raise ValueError(f"step-2-difference needs n >= 3, got n={n}")
        for q in range(1, n + 1):
            x = _unit(n, q)
            x[_wrap(q + 2, n) - 1] -= 1
            out.append(WitnessVector(tuple(x), f"step-2-difference(q={q})"))
    elif family in ("alpha", "alpha-neg"):
        if alpha is None:
            raise ValueError(f"family {family!r} needs a concrete alpha value")
        for q in range(1, n + 1):
            coords = alpha_template(family, q, n)
            x = tuple(c0 + c1 * alpha for c0, c1 in coords)
            out.append(WitnessVector(x, f"{family}(q={q}, alpha={alpha})"))
    elif family.startswith("pattern:"):
        pattern = tuple(int(t) for t in family.split(":", 1)[1].split(","))
        out.append(WitnessVector(pattern_vector(pattern, n), f"pattern{pattern}"))
    else:
        raise ValueError(f"unknown witness family {family!r}")
    return out


def candidate_witnesses(n: int, alphas=(2.0, 4.0, 8.0, 16.0)) -> list[WitnessVector]:
    """Every witness-family member that fits dimension ``n``, in a fixed order.

    Used to seed numerical searches: unit differences, step-2 differences,
    alpha families at the supplied alpha values, then the named constant
    patterns that fit.
    """
    out = witnesses(n, "unit-difference")
    if n >= 3:
        out.extend(witnesses(n, "step-2-difference"))
        for alpha in alphas:
            out.extend(witnesses(n, "alpha", alpha=alpha))
            out.extend(witnesses(n, "alpha-neg", alpha=alpha))
    for pattern in NAMED_PATTERNS:
        try:
            vec = pattern_vector(pattern, n)
        except ValueError:
            continue
        out.append(WitnessVector(vec, f"pattern{pattern}"))
    return out

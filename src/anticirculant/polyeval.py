"""Evaluation of the homogeneous polynomial attached to a Hankel tensor.

For a generating vector ``v`` the polynomial is

    f(x) = sum over 1-based multi-indices (i_1..i_m) of
           v[i_1 + ... + i_m - m] * x_{i_1} * ... * x_{i_m}

Grouping by the index sum turns this into a dot product: the coefficient of
``v[s]`` is the coefficient of ``z**s`` in ``p(z)**m``, where
``p(z) = x_1 + x_2 z + ... + x_n z**(n-1)``.  One kernel computes them, by
direct products, never FFT: ``cyclic_power(x, m, r)``, the r coefficients
of ``p**m`` modulo ``z**r - 1``.  If v repeats with period r, f is their
dot product with ``v[:r]``.  Every v repeats with its length
``L = (n-1)*m + 1``, where nothing wraps and the r coefficients are the
whole profile.  Exact input takes the smallest period of v up to
``max(n, 2n - 4)``, which every expanded spec has.  Float input runs at
r = L, in a direct convolution's order.  ``eval_exact`` runs the kernel in
int arithmetic on v and x scaled to integers: every float64 is a dyadic
rational.  The sphere search's batch kernel (``oracle``) evaluates the same
residue sums at roots of unity.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from fractions import Fraction

from .tensor import (
    DENSE_CAP_DEFAULT,
    CirculantSpec,
    GeneratingVector,
    max_circulant_index,
)

#: Entry types whose arithmetic is exact; any other type is evaluated in float64.
_EXACT_TYPES = frozenset((int, bool, Fraction))


def cyclic_power(x, m: int, r: int) -> list:
    """Coefficients of ``(x_1 + x_2 z + ... + x_n z**(n-1))**m`` modulo ``z**r - 1``.

    Entry k is the sum of the profile coefficients at positions congruent to
    k mod r; for r >= L = (n-1)*m + 1 the entries are the profile, then
    zeros.  x is folded mod r, then each of the m - 1 cyclic products adds
    one rotated copy per nonzero folded entry: O(m * nnz * r) in all.  The
    copies are added from the highest index down, so each entry receives its
    products in the order of a direct convolution, and zero products are
    skipped with the zero entries of x.  With ``top`` the highest nonzero
    folded index, the power j is zero past entry ``j * top`` until it wraps,
    so only its first ``min(r, j * top + 1)`` entries are computed.
    """
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    folded = [0] * r
    for i, t in enumerate(x):
        if t != 0:
            folded[i % r] += t
    terms = [(k, t) for k, t in enumerate(folded) if t != 0][::-1]
    top = terms[0][0] if terms else 0
    out, width = folded, top + 1  # out is zero from entry width on
    for _ in range(m - 1):
        if width < r:
            out += [0] * (r - len(out))
            width = min(r, width + top)
        acc = [0] * width
        for k, t in terms:
            # rotated[i] = out[(i - k) mod r], the coefficient that z**k moves
            # to i; k <= top < width
            rotated = out[r - k :] + out[: width - k]
            acc = [s + t * c for s, c in zip(acc, rotated)]
        out = acc
    return out + [0] * (r - len(out))


def _dot(a, b):
    return sum(map(operator.mul, a, b))


def _repeat(keys, cap: int):
    """Smallest r <= cap with ``keys[s] == keys[s + r]`` wherever both exist, or None.

    Only the smallest such r of the first ``2 * cap`` keys, r0, is checked on
    the whole sequence.  If r0 fails there, no r <= cap holds: r0's first break
    at some s >= 2 * cap - r0 >= r would, through period r, also be a break
    at s - r, before it.  cap must be below ``len(keys)``.
    """
    head = keys[: 2 * cap]
    for r in range(1, cap + 1):
        # the first pair decides most shifts without copying two slices
        if head[r] == head[0] and head[r:] == head[:-r]:
            return r if keys[r:] == keys[:-r] else None
    return None


def _period(v, cap: int, fractions: bool):
    """A period r <= cap of v, or None.

    An int vector is compared by value.  Fraction equality runs in Python,
    so a vector with Fractions is compared by object id: an expanded seed
    repeats its r objects, while equal Fractions held as distinct objects
    find no period and are evaluated at r = L, which gives the same value.
    """
    return _repeat(tuple(map(id, v)) if fractions else v, cap)


def _check_dim(gen: GeneratingVector, x):
    if len(x) != gen.n:
        raise ValueError(f"x has {len(x)} coordinates, tensor dimension is {gen.n}")


def eval_fast(gen: GeneratingVector, x):
    """f(x) as ``sum_k v[k] * R[k]`` over the r entries of ``cyclic_power(x, m, r)``.

    If every entry of ``gen.v`` and ``x`` is an int, bool or Fraction, r is
    the smallest period of v up to the largest circulant index
    ``max(n, 2n - 4)``, else the length L; Fraction entries must repeat as
    the same objects, as ``expand`` makes them.  The value is exact, and a
    Fraction exactly when the profile's sum would be one (some entry of v
    is, or x is nonzero and some entry of x is).  Any other entry makes the
    evaluation float64: x is converted to float and r = L, and the value is
    a float even where every product is skipped, as at a zero point.
    """
    _check_dim(gen, x)
    v, m = gen.v, gen.m
    v_types, x_types = set(map(type, v)), set(map(type, x))
    if not _EXACT_TYPES.issuperset(v_types | x_types):
        return float(_dot(v, cyclic_power(tuple(map(float, x)), m, len(v))))
    r = _period(v, max_circulant_index(gen.n), Fraction in v_types) or len(v)
    value = _dot(v[:r], cyclic_power(x, m, r))
    if type(value) is int and (Fraction in v_types or (Fraction in x_types and any(x))):
        return Fraction(value)
    return value


def _scaled(values):
    """``(ints, d)``: the values times d, the lcm of their exact denominators."""
    ratios = [t.as_integer_ratio() for t in values]
    d = math.lcm(*{den for _, den in ratios})
    return [num * (d // den) for num, den in ratios], d


def eval_exact(gen: GeneratingVector, x) -> Fraction:
    """f(x) exactly, for finite int, bool, Fraction or float entries: with
    ``V, d_v = _scaled(v)``, ``X, d_x = _scaled(x)`` and r the smallest period
    of V (or L), ``sum_k V[k] * cyclic_power(X, m, r)[k] / (d_v * d_x**m)``."""
    _check_dim(gen, x)
    v, dv = _scaled(gen.v)
    xs, dx = _scaled(x)
    r = _repeat(v, len(v) - 1) or len(v)
    return Fraction(_dot(v[:r], cyclic_power(xs, gen.m, r)), dv * dx**gen.m)


def rounded(value) -> float:
    """``value`` rounded once to float64; past float64, ``±sys.float_info.max``."""
    try:
        return float(value)
    except OverflowError:
        return sys.float_info.max if value > 0 else -sys.float_info.max


def eval_naive(gen: GeneratingVector, x, cap: int = DENSE_CAP_DEFAULT):
    """f(x) by brute-force enumeration of all n**m index tuples.

    Independent of ``cyclic_power``; kept as a cross-check and refused
    above the dense entry cap.
    """
    _check_dim(gen, x)
    count = gen.n ** gen.m
    if count > cap:
        raise ValueError(f"naive evaluation would visit {count} index tuples, cap is {cap}")
    total = 0
    for idx in itertools.product(range(gen.n), repeat=gen.m):
        term = gen.v[sum(idx)]
        if term == 0:
            continue
        for i in idx:
            term = term * x[i]
        total += term
    return total


def value_and_gradient(gen: GeneratingVector, x):
    """``eval_fast(gen, x)`` and the gradient of f at x, in the same arithmetic.

    With ``d = cyclic_power(x, m - 1, width)``, the whole order-(m-1)
    profile of ``width = (n-1)*(m-1) + 1`` entries,
    ``grad_i = m * sum_u d[u] * v[u + i - 1]``.
    """
    _check_dim(gen, x)
    m, v = gen.m, gen.v
    if not _EXACT_TYPES.issuperset(set(map(type, v)) | set(map(type, x))):
        x = tuple(map(float, x))
    width = len(v) - gen.n + 1
    d = cyclic_power(x, m - 1, width)
    return eval_fast(gen, x), tuple(m * _dot(d, v[i : i + width]) for i in range(gen.n))


def residue_components(spec: CirculantSpec, x) -> tuple:
    """Split the monomials of f by the residue class mod r of their index sum.

    Component ``j`` sums the profile coefficients whose 1-based index sum is
    congruent to ``j`` mod ``r``; profile position ``s`` has index sum
    ``s + m``, so component ``j`` is entry ``(j - m) mod r`` of
    ``cyclic_power(x, m, r)``.  The split reads only (m, n, r), never the
    seed: ``f(x) = sum_j seed[(j - m) mod r] * component_j(x)``, and the
    components always add up to ``(x_1 + ... + x_n)**m``.  They are exact sums
    over the nonzero entries of x, so a zero entry does not set their type.
    """
    _check_dim(spec, x)
    m, r = spec.m, spec.r
    folded = cyclic_power(x, m, r)
    return tuple(folded[(j - m) % r] for j in range(r))

"""Evaluation of the homogeneous polynomial attached to a Hankel tensor.

For a generating vector ``v`` the polynomial is

    f(x) = sum over 1-based multi-indices (i_1..i_m) of
           v[i_1 + ... + i_m - m] * x_{i_1} * ... * x_{i_m}

Grouping by the index sum turns this into a dot product: the coefficient of
``v[s]`` is the coefficient of ``z**s`` in ``p(z)**m``, where
``p(z) = x_1 + x_2 z + ... + x_n z**(n-1)``.  ``eval_fast`` takes one of two
routes, both by direct products, never FFT:

- the coefficient profile: all ``L = (n-1)*m + 1`` coefficients of ``p**m``
  by m - 1 convolutions (``conv_power``), then one dot product with ``v``;
- the residue route, for exact input whose ``v`` repeats with a period r
  up to ``max(n, 2n - 4)``, which is below L (every expanded spec's does):
  as ``v[s] = v[s mod r]``, f only needs the residue-class sums of
  the coefficients, which are the r coefficients of ``p**m`` modulo
  ``z**r - 1`` (``cyclic_power``, m - 1 cyclic products), and
  ``f = sum_k v[k] * R[k]``.  In exact arithmetic this is the profile's
  value, and ``eval_fast`` returns it with the profile's type.

Float input keeps the profile route: a float sum depends on its order, and
the profile's order is the one the sphere search's reported minimum
(``oracle._eval_float``) reproduces bitwise.  The float batch kernel of the
sphere search (``oracle``) evaluates the same residue sums at roots of unity
instead.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

from .tensor import (
    DENSE_CAP_DEFAULT,
    CirculantSpec,
    GeneratingVector,
    max_circulant_index,
)

#: Entry types whose arithmetic is exact; any other type takes the profile.
_EXACT_TYPES = frozenset((int, bool, Fraction))


def convolve(a, b) -> list:
    """Direct O(len(a)*len(b)) convolution; exact on exact inputs."""
    nb = len(b)
    out = [0] * (len(a) + nb - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue  # witness vectors are sparse; skipping zeros is exact
        out[i : i + nb] = [s + ai * bj for s, bj in zip(out[i : i + nb], b)]
    return out


def conv_power(x, m: int) -> list:
    """Coefficients of ``(x_1 + x_2 z + ... + x_n z**(n-1))**m`` by repeated convolution."""
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    out = list(x)
    for _ in range(m - 1):
        out = convolve(out, x)
    return out


def cyclic_power(x, m: int, r: int) -> list:
    """Coefficients of ``(x_1 + x_2 z + ... + x_n z**(n-1))**m`` modulo ``z**r - 1``.

    Entry k is the sum of the profile coefficients at positions congruent to
    k mod r.  x is folded mod r, then each of the m - 1 cyclic products adds
    one rotated copy per nonzero folded entry: O(m * nnz * r) in all.
    """
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    folded = [0] * r
    for i, t in enumerate(x):
        if t != 0:
            folded[i % r] += t
    terms = [(k, t) for k, t in enumerate(folded) if t != 0]
    out = folded
    for _ in range(m - 1):
        acc = [0] * r
        for k, t in terms:
            # rotated[j] = out[(j - k) mod r], the coefficient that z**k moves to j
            rotated = out[r - k :] + out[: r - k]
            acc = [s + t * c for s, c in zip(acc, rotated)]
        out = acc
    return out


def _dot(a, b):
    return sum(map(operator.mul, a, b))


def _repeat(keys, cap: int):
    """Smallest r <= cap with ``keys[s] == keys[s + r]`` wherever both exist, or None.

    Only the smallest such r of the first ``2 * cap`` keys, r0, is checked on
    the whole tuple.  If r0 fails there, no r <= cap holds: r0's first break
    at some s >= 2 * cap - r0 >= r would, through period r, also be a break
    at s - r, before it.
    """
    head = keys[: 2 * cap]
    for r in range(1, cap + 1):
        if head[r:] == head[:-r]:
            return r if keys[r:] == keys[:-r] else None
    return None


def _period(v, cap: int, fractions: bool):
    """A period r <= cap of v, or None.

    An int vector is compared by value.  Fraction equality runs in Python,
    so a vector with Fractions is compared by object id: an expanded seed
    repeats its r objects, while equal Fractions held as distinct objects
    find no period and take the profile route, which gives the same value.
    """
    return _repeat(tuple(map(id, v)) if fractions else v, cap)


def _check_dim(gen: GeneratingVector, x):
    if len(x) != gen.n:
        raise ValueError(f"x has {len(x)} coordinates, tensor dimension is {gen.n}")


def eval_fast(gen: GeneratingVector, x):
    """f(x) by the residue route when it applies, else by the coefficient profile.

    The residue route runs when every entry of ``gen.v`` and ``x`` is an int
    or a Fraction and ``gen.v`` has a period r up to the largest circulant
    index ``max(n, 2n - 4)``, which is below its length L for every m >= 2;
    Fraction entries must repeat as the same objects, as ``expand`` makes them.
    It returns ``sum_k v[k] * R[k]`` over the r entries of
    ``cyclic_power(x, m, r)``:
    equal to the profile's value, and a Fraction exactly when the profile's
    sum would be one (some entry of v is, or x is nonzero and some entry of
    x is).  Any float entry, or a vector with no shorter period, takes the
    profile route, whose float results are pinned bitwise
    (``oracle._eval_float``).
    """
    _check_dim(gen, x)
    v, m = gen.v, gen.m
    v_types, x_types = set(map(type, v)), set(map(type, x))
    if _EXACT_TYPES.issuperset(v_types | x_types):
        r = _period(v, max_circulant_index(gen.n), Fraction in v_types)
        if r is not None:
            value = _dot(v[:r], cyclic_power(x, m, r))
            if type(value) is int and (
                Fraction in v_types or (Fraction in x_types and any(x))
            ):
                return Fraction(value)
            return value
    return _dot(v, conv_power(x, m))


def eval_naive(gen: GeneratingVector, x, cap: int = DENSE_CAP_DEFAULT):
    """f(x) by brute-force enumeration of all n**m index tuples.

    Independent of the convolution path; kept as a cross-check and refused
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
    """f(x) and its gradient, sharing one order-(m-1) profile.

    With ``d`` the profile of ``x`` at order ``m - 1``:
    ``grad_i = m * sum_u d[u] * v[u + i - 1]`` and ``f = dot(v, convolve(d, x))``.
    """
    _check_dim(gen, x)
    m, v = gen.m, gen.v
    d = conv_power(x, m - 1)
    value = _dot(v, convolve(d, x))
    width = len(d)
    grad = tuple(m * _dot(d, v[i : i + width]) for i in range(gen.n))
    return value, grad


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
    gen_n, m, r = spec.n, spec.m, spec.r
    if len(x) != gen_n:
        raise ValueError(f"x has {len(x)} coordinates, tensor dimension is {gen_n}")
    folded = cyclic_power(x, m, r)
    return tuple(folded[(j - m) % r] for j in range(r))

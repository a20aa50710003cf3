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
whole profile.  Every scalar value and gradient is computed in int
arithmetic: each int, bool, Fraction and float64 is a rational, so one
period of v is scaled to integers once per ``GeneratingVector``
(``_int_form``) and x on each call, and f(x) is one integer over one
denominator, given in the input's type (``_typed``).  ``eval_exact`` gives
it unrounded.  The sphere search's batch kernel (``oracle``) evaluates the
same residue sums at roots of unity.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from fractions import Fraction

from .tensor import DENSE_CAP_DEFAULT, CirculantSpec, GeneratingVector

#: Entry types whose arithmetic is exact; any other type makes values round to float64.
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


def _repeat(keys) -> int:
    """The smallest period of ``keys``: the smallest r with
    ``keys[s] == keys[s + r]`` wherever both exist, ``len(keys)`` if none is
    shorter."""
    for r in range(1, len(keys)):
        # the first pair decides most shifts without copying two slices
        if keys[r] == keys[0] and keys[r:] == keys[:-r]:
            return r
    return len(keys)


def _check_dim(gen: GeneratingVector, x):
    if len(x) != gen.n:
        raise ValueError(f"x has {len(x)} coordinates, tensor dimension is {gen.n}")


def eval_fast(gen: GeneratingVector, x):
    """f(x), exactly as ``eval_exact`` computes it, in the input's type.

    If every entry of ``gen.v`` and ``x`` is an int, bool or Fraction, the
    value is exact: a Fraction if some entry of v is one, or x is nonzero
    and some entry of x is one, else an int.  Any other entry makes the
    value a float: the exact value rounded once to float64, so correctly
    rounded, and ``±inf`` past float64.
    """
    _check_dim(gen, x)
    numerator, denominator = _exact_ratio(gen, x)
    return _typed(_result_type(gen, x), numerator, denominator)


def _result_type(gen: GeneratingVector, x) -> type:
    """float, Fraction or int: the type ``eval_fast`` gives f(x) in."""
    v_types, x_types = _int_form(gen)[3], set(map(type, x))
    if not _EXACT_TYPES.issuperset(v_types | x_types):
        return float
    if Fraction in v_types or (Fraction in x_types and any(x)):
        return Fraction
    return int


def _typed(kind: type, numerator: int, denominator: int):
    """``numerator / denominator`` as ``kind``: a float rounded once (``±inf``
    past float64), a Fraction, or the int numerator, the denominator being 1."""
    if kind is float:
        try:
            return numerator / denominator  # int true division rounds once
        except OverflowError:
            return math.inf if numerator > 0 else -math.inf
    return Fraction(numerator, denominator) if kind is Fraction else numerator


def _scaled(values):
    """``(ints, d)``: the values times d, the lcm of their exact denominators."""
    ratios = [t.as_integer_ratio() for t in values]
    d = math.lcm(*{den for _, den in ratios})
    return [num * (d // den) for num, den in ratios], d


def _int_form(gen: GeneratingVector):
    """``(V, d, r, types)``: one period ``V = v[:r] * d`` of v as ints, d the
    lcm of v's denominators, and the set of the types of v's entries.

    r is v's smallest period by value, else L; tuple comparison matches the
    objects that ``expand`` repeats by identity, without their ``__eq__``.
    v is immutable, so the form is computed once per instance and kept on it.
    """
    form = gen.__dict__.get("_int_form")
    if form is None:
        v = gen.v
        r = _repeat(v)
        scaled, d = _scaled(v[:r])
        form = scaled, d, r, frozenset(map(type, v))
        object.__setattr__(gen, "_int_form", form)
    return form


def _exact_ratio(gen: GeneratingVector, x):
    """f(x) as ``(numerator, denominator)`` ints, denominator positive."""
    scaled_v, dv, r, _ = _int_form(gen)
    scaled_x, dx = _scaled(x)
    return _dot(scaled_v, cyclic_power(scaled_x, gen.m, r)), dv * dx**gen.m


def eval_exact(gen: GeneratingVector, x) -> Fraction:
    """f(x) exactly, for finite int, bool, Fraction or float entries: with
    ``V, d_v, r`` one period of v scaled to ints (``_int_form``) and
    ``X, d_x = _scaled(x)``,
    ``sum_k V[k] * cyclic_power(X, m, r)[k] / (d_v * d_x**m)``."""
    _check_dim(gen, x)
    return Fraction(*_exact_ratio(gen, x))


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
    """``eval_fast(gen, x)`` and the gradient of f at x, in the same type.

    On the int forms ``V, d_v, r`` of v and ``X, d_x`` of x, with
    ``D = cyclic_power(X, m - 1, r)``, ``G_i = sum_k D[k] * V[(k + i) mod r]``
    is ``d_v * d_x**(m-1) / m`` times the gradient's entry i, as v has
    period r.  By Euler's identity ``x . grad f = m f``, ``sum_i X_i * G_i``
    over ``d_v * d_x**m`` is f(x): the integer ``eval_fast`` computes, from
    one kernel call.
    """
    _check_dim(gen, x)
    scaled_v, dv, r, _ = _int_form(gen)
    scaled_x, dx = _scaled(x)
    m = gen.m
    folded = cyclic_power(scaled_x, m - 1, r)
    sums = [_dot(folded, scaled_v[i % r :] + scaled_v[: i % r]) for i in range(gen.n)]
    kind, denominator = _result_type(gen, x), dv * dx ** (m - 1)
    value = _typed(kind, _dot(scaled_x, sums), denominator * dx)
    return value, tuple(_typed(kind, m * t, denominator) for t in sums)


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

"""Evaluation of the homogeneous polynomial attached to a Hankel tensor.

For a generating vector ``v`` the polynomial is

    f(x) = sum over 1-based multi-indices (i_1..i_m) of
           v[i_1 + ... + i_m - m] * x_{i_1} * ... * x_{i_m}

Grouping by the index sum turns this into a dot product: the coefficient of
``v[s]`` is the coefficient of ``z**s`` in ``(x_1 + x_2 z + ... + x_n z**(n-1))**m``.
That power is computed by repeated direct convolution, never FFT: sizes here
are tiny, convolution is exact on int/Fraction inputs, and the same profile
also yields gradients and residue splits.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

from .tensor import (
    DENSE_CAP_DEFAULT,
    CirculantSpec,
    GeneratingVector,
    alpha_template,
    expand,
)


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


def _dot(a, b):
    return sum(map(operator.mul, a, b))


def _check_dim(gen: GeneratingVector, x):
    if len(x) != gen.n:
        raise ValueError(f"x has {len(x)} coordinates, tensor dimension is {gen.n}")


def eval_fast(gen: GeneratingVector, x):
    """f(x) via the coefficient profile: one convolution power and one dot product."""
    _check_dim(gen, x)
    return _dot(gen.v, conv_power(x, gen.m))


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
    congruent to ``j`` mod ``r`` (profile position ``s`` has index sum
    ``s + m``).  The split reads only (m, n, r), never the seed: for a
    periodic seed, ``f(x) = sum_j seed[j] * component_j(x)``, and the
    components always add up to ``(x_1 + ... + x_n)**m``.
    """
    gen_n, m, r = spec.n, spec.m, spec.r
    if len(x) != gen_n:
        raise ValueError(f"x has {len(x)} coordinates, tensor dimension is {gen_n}")
    profile = conv_power(x, m)
    parts = [0] * r
    for s, coeff in enumerate(profile):
        parts[(s + m) % r] += coeff
    return tuple(parts)


def _to_fraction(value):
    """Exact Fraction for ints, Fractions, and floats with small exact ratios."""
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        frac = Fraction(value)
        if frac.numerator.bit_length() <= 63 and frac.denominator.bit_length() <= 63:
            return frac
    return None


def alpha_coefficients(spec: CirculantSpec, family: str, q: int) -> tuple:
    """Coefficients of f along an alpha-parameterized witness, lowest power first.

    The witness coordinates are degree-1 polynomials in alpha, so f restricted
    to the family is a degree-m polynomial.  It is recovered by evaluating at
    the integer nodes ``alpha = 0..m`` and solving the Vandermonde system.
    When every seed entry is exactly representable (int, Fraction, or a float
    whose exact ratio fits in 64-bit integers) the solve runs in Fraction
    arithmetic and the returned coefficients are exact Fractions; otherwise
    they are floats.
    """
    gen = expand(spec)
    template = alpha_template(family, q, spec.n)
    exact_v = [_to_fraction(t) for t in gen.v]
    exact = all(t is not None for t in exact_v)
    v = exact_v if exact else [float(t) for t in gen.v]

    m = spec.m
    nodes = range(m + 1)
    values = []
    for node in nodes:
        x = [c0 + c1 * node for c0, c1 in template]
        values.append(_dot(v, conv_power(x, m)))

    if exact:
        return _solve_vandermonde_exact(list(nodes), values)
    import numpy as np

    vand = np.vander(np.asarray(nodes, dtype=float), increasing=True)
    return tuple(np.linalg.solve(vand, np.asarray(values, dtype=float)))


def _solve_vandermonde_exact(nodes, values) -> tuple:
    size = len(nodes)
    rows = [[Fraction(node) ** p for p in range(size)] + [Fraction(values[i])]
            for i, node in enumerate(nodes)]
    for col in range(size):
        pivot = next(i for i in range(col, size) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [t / lead for t in rows[col]]
        for i in range(size):
            if i != col and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return tuple(rows[i][size] for i in range(size))

"""Evaluation of the homogeneous polynomial attached to a Hankel tensor.

For a generating vector ``v`` the polynomial is

    f(x) = sum over 1-based multi-indices (i_1..i_m) of
           v[i_1 + ... + i_m - m] * x_{i_1} * ... * x_{i_m}

Grouping by the index sum turns this into a dot product: the coefficient of
``v[s]`` is the coefficient of ``z**s`` in ``(x_1 + x_2 z + ... + x_n z**(n-1))**m``.
On this exact scalar path that power is computed by repeated direct
convolution, never FFT: convolution is exact on int/Fraction inputs, and the
same profile also yields gradients and residue splits.  The float batch
kernel of the sphere search (``oracle``) evaluates the same sum at roots of
unity instead.
"""

from __future__ import annotations

import itertools
import operator

from .tensor import DENSE_CAP_DEFAULT, CirculantSpec, GeneratingVector


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

"""Evaluation of the homogeneous polynomial attached to a Hankel tensor.

For a generating vector ``v`` the polynomial is

    f(x) = sum over 1-based multi-indices (i_1..i_m) of
           v[i_1 + ... + i_m - m] * x_{i_1} * ... * x_{i_m}

Grouping by the index sum turns this into a dot product: the coefficient of
``v[s]`` is the coefficient of ``z**s`` in ``p(z)**m``, where
``p(z) = x_1 + x_2 z + ... + x_n z**(n-1)``.  One kernel computes them, never
by FFT: ``cyclic_power(x, m, r)``, the r coefficients of ``p**m`` modulo
``z**r - 1``.  For int input on a packing of at most ``PACKED_BITS_MAX``
bits it is one big-int power (Kronecker substitution, ``_packed_power``),
else m - 1 cyclic products over the folded x (``_cyclic_products``); both
give the same integers.  If v repeats with period r, f is their dot product
with ``v[:r]``.  Every v repeats with its length ``L = (n-1)*m + 1``, where
nothing wraps and the r coefficients are the whole profile.  Every scalar
value and gradient is computed in int arithmetic: each int, bool, Fraction
and float64 is a rational, so one period of v is scaled to integers once
per ``GeneratingVector`` (``_int_form``), and f(x) is one integer over one
denominator, given in the input's type (``_typed``).  ``eval_fast`` scales
x once per distinct point (``_point_form``, a bounded memo: the witness
scan evaluates a few points per shape, many times); ``eval_exact`` and
``value_and_gradient`` scale x on each call, as the sphere search's points
never repeat.  ``eval_exact`` gives f(x) unrounded.  The sphere search's
batch kernel (``oracle``) evaluates the same residue sums at roots of unity.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from fractions import Fraction

from .tensor import DENSE_CAP_DEFAULT, CirculantSpec, GeneratingVector, window

#: Entry types whose arithmetic is exact; any other type makes values round to float64.
_EXACT_TYPES = frozenset((int, bool, Fraction))


#: Packed widths ``span * b``, in bits, up to which ``cyclic_power`` takes
#: int input through ``_packed_power``; wider ones keep ``_cyclic_products``.
#: Both paths were timed over n in {4, 6, 8, 12}, m in {4, 6, 8, 12, 16, 20,
#: 30, 40, 60}, r in {2, 3, 4, 6, 8, 12, 16, 25, 50, 100, 200, 300} and x of
#: 2, 30 and 60 bits (2-core x86_64, Python 3.11).  On the 845 shapes up to
#: 10k bits the packed path took at most 0.94 of the loop's time.  Of the 380
#: shapes timed between 10k and 150k bits it lost on 113, the narrowest at
#: 11k bits, by up to 2.4 times: CPython's Karatsuba products outgrow the
#: loop's small ones.
PACKED_BITS_MAX = 8192


def cyclic_power(x, m: int, r: int) -> list:
    """Coefficients of ``(x_1 + x_2 z + ... + x_n z**(n-1))**m`` modulo ``z**r - 1``.

    Entry k is the sum of the profile coefficients at positions congruent to
    k mod r; for r >= L = (n-1)*m + 1 the entries are the profile, then
    zeros.  x is folded mod r to F, with ``top`` its highest nonzero index.
    F**m has degree at most ``m * top``, so only its first
    ``span = min(r, m * top + 1)`` entries can be nonzero.  With
    ``s = bit_length(sum |F_k|)`` and ``b = m * s + 2`` every coefficient of
    every power up to m is below ``2**(b - 2)`` in size.  If F holds only
    ints and the packed width ``span * b`` is at most ``PACKED_BITS_MAX``,
    F**m is one big-int power at slot width b (``_packed_power``).
    Otherwise, and always for float or Fraction entries, whose rounding and
    types the loop keeps, F goes through m - 1 cyclic products
    (``_cyclic_products``).  On int input both give the same integers.
    """
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    folded = [0] * r
    for i, t in enumerate(x):
        if t != 0:
            folded[i % r] += t
    if set(map(type, folded)) == {int}:
        top = r - 1
        while top and not folded[top]:
            top -= 1
        span = min(r, m * top + 1)
        b = m * sum(map(abs, folded)).bit_length() + 2
        if span * b <= PACKED_BITS_MAX:
            return _packed_power(folded[:span], m, b) + [0] * (r - span)
    return _cyclic_products(folded, m, r)


def _packed_power(folded: list, m: int, b: int) -> list:
    """``F**m`` modulo ``z**r - 1`` by Kronecker substitution, for int F.

    z -> 2**b maps Z[z]/(z**r - 1) into Z/(2**w - 1), w = r*b, as a ring
    homomorphism, since 2**w = 1 there.  F packed at slot width b is raised
    to the m-th power by repeated squaring, each product reduced by
    ``_fold`` (``pow`` with a modulus is slower: it divides).  Every result
    coefficient c_k has |c_k| < 2**(b - 2), so ``sum_k c_k 2**(k*b)`` lies
    strictly within (2**w - 1)/2 of 0: the symmetric residue is that sum,
    and its r balanced base-2**b digits are the coefficients.
    """
    r = len(folded)
    w = r * b
    base = 0
    for t in reversed(folded):
        base = (base << b) + t
    power, modulus = base, (1 << w) - 1
    for bit in bin(m)[3:]:
        power *= power
        while power >> w:  # a square is not negative: _fold inline
            power = (power & modulus) + (power >> w)
        if bit == "1":
            power = _fold(power * base, w)
    if power > modulus >> 1:
        power -= modulus
    elif power < -(modulus >> 1):
        power += modulus
    slot, half, out = (1 << b) - 1, 1 << (b - 1), []
    for _ in range(r):
        digit = power & slot
        if digit >= half:
            digit -= 1 << b
        out.append(digit)
        power = (power - digit) >> b
    return out


def _fold(p: int, w: int) -> int:
    """An int congruent to p modulo 2**w - 1, of p's sign, below 2**w in size.

    Each pass adds the bits from w on to the bits below w, as 2**w = 1.  p is
    left as it is while it is below 2**w in size: a power that has not
    wrapped stays as short as its degree, where a reduced negative one would
    fill all w bits.
    """
    if p < 0:
        return -_fold(-p, w)
    low = (1 << w) - 1
    while p >> w:
        p = (p & low) + (p >> w)
    return p


def _cyclic_products(folded: list, m: int, r: int) -> list:
    """``F**m`` modulo ``z**r - 1`` by m - 1 cyclic products: O(m * nnz * r).

    Each product adds one rotated copy per nonzero entry of F, from the
    highest index down, so each entry receives its products in the order of
    a direct convolution, and zero products are skipped with the zero
    entries of F.  With ``top`` the highest nonzero index, the power j is
    zero past entry ``j * top`` until it wraps, so only its first
    ``min(r, j * top + 1)`` entries are computed.
    """
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
    rounded, and ``±inf`` past float64.  x's integer form comes from the
    ``_point_form`` memo, its type from x itself.
    """
    _check_dim(gen, x)
    numerator, denominator = _exact_ratio(gen, _point_form(*x))
    return _typed(_result_type(gen, x), numerator, denominator)


def _result_type(gen: GeneratingVector, x) -> type:
    """float, Fraction or int: the type ``eval_fast`` gives f(x) in."""
    v_types = _int_form(gen)[3]
    if not _EXACT_TYPES.issuperset(v_types):
        return float
    x_types = set(map(type, x))
    if not _EXACT_TYPES.issuperset(x_types):
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
    Period and types are read from ``window(gen)``.  For an expanded seed of
    q entries with L >= 2q that is the first 2q entries, of which q is a
    period; their smallest period p <= q is v's: by Fine and Wilf, as
    p + q <= 2q, gcd(p, q) is a period of the window, so of the seed and v.
    Otherwise the window is v.
    v is immutable, so the form is computed once per instance and kept on it.
    """
    form = gen.__dict__.get("_int_form")
    if form is None:
        v = window(gen)
        r = _repeat(v)
        scaled, d = _scaled(v[:r])
        form = scaled, d, r, frozenset(map(type, v))
        object.__setattr__(gen, "_int_form", form)
    return form


#: Entries of the ``_point_form`` memo.  The covered witness scan reads a
#: few hundred distinct points in all (the families depend only on the case
#: and n); an entry holds one point's values and types, its ints and d_x.
POINT_MEMO_SIZE = 1024


# typed: the key holds each entry's type next to its value.  Values of one
# type compare exactly, so equal keys scale to the same ints (0.0 and -0.0
# share an entry).  Across types ``==`` can round: numpy compares its float64
# with an int in float64, and np.float64(2.0**114) equals 2**114 + 2**61 - 1,
# with the same hash.
@functools.lru_cache(maxsize=POINT_MEMO_SIZE, typed=True)
def _point_form(*x) -> tuple:
    """``_scaled(x)`` as ``(X, d_x)``, X a tuple, kept per point: the caller
    types f(x) from its own x.  A non-finite entry raises in ``_scaled``
    and is not kept."""
    scaled, d = _scaled(x)
    return tuple(scaled), d


def _exact_ratio(gen: GeneratingVector, form):
    """f(x) as ``(numerator, denominator)`` ints, denominator positive, from
    x's integer form ``(X, d_x)``."""
    scaled_v, dv, r, _ = _int_form(gen)
    scaled_x, dx = form
    return _dot(scaled_v, cyclic_power(scaled_x, gen.m, r)), dv * dx**gen.m


def eval_exact(gen: GeneratingVector, x) -> Fraction:
    """f(x) exactly, for finite int, bool, Fraction or float entries: with
    ``V, d_v, r`` one period of v scaled to ints (``_int_form``) and
    ``X, d_x = _scaled(x)``,
    ``sum_k V[k] * cyclic_power(X, m, r)[k] / (d_v * d_x**m)``.  x is scaled
    on each call, off the ``_point_form`` memo."""
    _check_dim(gen, x)
    return Fraction(*_exact_ratio(gen, _scaled(x)))


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

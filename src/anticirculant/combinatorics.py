"""Exact combinatorics behind the circulant classification rules.

Two independent tools live here, both in exact integer or rational
arithmetic:

* Alternating binomial sums over a periodic sequence.  For a sequence ``u``
  of period ``p`` and an order ``M``, the sums

      D_i = sum_{j=0}^{M} binom(M, j) * (-1)**j * u[(i + j) mod p]

  have a rigidity property: if every ``D_i`` is >= 0, or every ``D_i`` is
  <= 0, the sequence must be constant.  ``theorem1_verdict`` applies this and
  aborts loudly if the rigidity is ever violated, since everything downstream
  leans on it.

* Residue-class multinomial sums.  For a small integer pattern
  ``(t_1, ..., t_L)`` placed at coordinates ``1..L``, the value of the
  order-m polynomial splits as ``f = sum_j v_j_class * S_j`` where

      S_j = sum of m!/(k_1! ... k_L!) * t_1**k_1 * ... * t_L**k_L

  over compositions with ``k_1 + ... + k_L = m`` and weighted position sum
  ``1*k_1 + 2*k_2 + ... + L*k_L`` congruent to ``j`` mod ``r``.  The handful
  of sign facts about these sums that the order-(6, 12, 18, 30, 42)
  circulant-index-3 classification rule needs are recomputed exactly by
  ``sign_fact_report`` instead of being trusted as constants.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction

from .classifier import SPECIAL_R3_ORDERS
from .tensor import _Record


class SequenceVerdict(enum.Enum):
    FORCED_CONSTANT = "ForcedConstant"
    MIXED_SIGNS = "MixedSigns"


class RigidityViolation(AssertionError):
    """One-signed alternating sums on a non-constant sequence: must never happen."""


class PeriodicSequence(_Record):
    """One period of a sequence extended periodically; entries become Fractions."""

    u: tuple

    def __init__(self, u):
        u = tuple(Fraction(t) for t in u)
        self.__dict__.update(u=u)
        if len(u) < 2:
            raise ValueError("need at least two entries per period")

    @property
    def period(self) -> int:
        return len(self.u)

    def is_constant(self) -> bool:
        return all(t == self.u[0] for t in self.u)


def theorem1_sums(seq: PeriodicSequence, order: int) -> tuple:
    """The alternating binomial sums D_0..D_{p-1} at the given order, exactly.

    The signed binomial coefficients are added per residue class of j mod p,
    as ints, before they multiply u: ``D_i = sum_c S_c * u[(i + c) mod p]``
    with ``S_c = sum_{j = c mod p} (-1)**j * binom(order, j)``.  The row of
    binomials is built term by term.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    p, u = seq.period, seq.u
    classes = [0] * p
    binom = 1
    for j in range(order + 1):
        classes[j % p] += -binom if j % 2 else binom
        binom = binom * (order - j) // (j + 1)
    return tuple(sum(s * u[(i + c) % p] for c, s in enumerate(classes)) for i in range(p))


def theorem1_verdict(seq: PeriodicSequence, order: int) -> SequenceVerdict:
    """Classify the sums as one-signed (forcing constancy) or mixed-signed.

    A one-signed result on a non-constant sequence contradicts the rigidity
    property and raises :class:`RigidityViolation` instead of returning.
    """
    sums = theorem1_sums(seq, order)
    if all(d >= 0 for d in sums) or all(d <= 0 for d in sums):
        if not seq.is_constant():
            raise RigidityViolation(
                f"one-signed sums {sums} on non-constant period {seq.u}; "
                f"this contradicts the constancy rigidity and indicates a bug"
            )
        return SequenceVerdict.FORCED_CONSTANT
    return SequenceVerdict.MIXED_SIGNS


class ResidueSumTable(_Record):
    """Exact residue-class sums S_0..S_{r-1} of a pattern at order m."""

    m: int
    r: int
    pattern: tuple
    sums: tuple

    def __init__(self, m: int, r: int, pattern: tuple, sums: tuple):
        self.__dict__.update(m=m, r=r, pattern=pattern, sums=sums)

    def total(self) -> int:
        return sum(self.sums)


def residue_sum_table(m: int, r: int, pattern) -> ResidueSumTable:
    """Exact multinomial residue sums for an integer pattern of length <= 4.

    Enumerates the counts of every coordinate but the first directly (at most
    a triple loop of size m**3) and groups by the weighted position sum mod r.
    The sums always satisfy ``sum_j S_j == (sum(pattern)) ** m``.
    """
    pattern = tuple(pattern)
    if not 1 <= len(pattern) <= 4:
        raise ValueError(f"pattern length must be 1..4, got {len(pattern)}")
    if not all(isinstance(t, int) for t in pattern):
        raise ValueError(f"pattern entries must be integers, got {pattern}")
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    if r < 1:
        raise ValueError(f"residue count must be >= 1, got {r}")

    # binom(m, used), the first factor of each multinomial, from one row
    row = [1]
    for j in range(m):
        row.append(row[j] * (m - j) // (j + 1))
    sums = [0] * r
    tail = len(pattern) - 1
    for rest in itertools.product(range(m + 1), repeat=tail):
        used = sum(rest)
        if used > m:
            continue
        counts = (m - used,) + rest
        coeff = row[used]
        remaining = used
        for c in rest:
            coeff *= math.comb(remaining, c)
            remaining -= c
        term = coeff
        for t, c in zip(pattern, counts):
            if c:
                term *= t ** c
        if term == 0:
            continue
        weight = sum(c * (pos + 1) for pos, c in enumerate(counts))
        sums[weight % r] += term
    return ResidueSumTable(m=m, r=r, pattern=pattern, sums=tuple(sums))


class SignFactRow(_Record):
    m: int
    r: int
    pattern: tuple
    sums: tuple
    requirement: str
    passed: bool

    def __init__(self, m: int, r: int, pattern: tuple, sums: tuple, requirement: str,
                 passed: bool):
        self.__dict__.update(m=m, r=r, pattern=pattern, sums=sums, requirement=requirement,
                             passed=passed)


def _facts():
    flipped = (12,)  # the one special order whose (1, -1) residue sums flip sign
    plain = tuple(m for m in SPECIAL_R3_ORDERS if m not in flipped)
    for m in plain:
        yield m, (1, -1), "S0 < 0", lambda s: s[0] < 0
        yield m, (1, 1, -2), "S0 > 0", lambda s: s[0] > 0
    for m in flipped:
        yield m, (1, -1), "S0 > 0", lambda s: s[0] > 0
        yield m, (1, -3, 2), "S0 < 0", lambda s: s[0] < 0
    for m in SPECIAL_R3_ORDERS:
        yield m, (1, -1), "S1 == S2", lambda s: s[1] == s[2]
        yield m, (1, 1, -2), "S1 == S2", lambda s: s[1] == s[2]


def sign_fact_report() -> tuple[SignFactRow, ...]:
    """Recompute every sign fact the index-3 rule rests on; nothing is assumed.

    Beyond the per-pattern rows, the order-12 rule needs the pair
    ``(1, -3, 2)`` / ``(1, 2, -3)``: equal S0, swapped S1/S2, and a nonzero
    swap gap.  Those three facts are emitted as extra rows with ``m = 12``.
    """
    rows = []
    for m, pattern, requirement, check in _facts():
        table = residue_sum_table(m, 3, pattern)
        rows.append(
            SignFactRow(m=m, r=3, pattern=pattern, sums=table.sums,
                        requirement=requirement, passed=bool(check(table.sums)))
        )
    a = residue_sum_table(12, 3, (1, -3, 2))
    b = residue_sum_table(12, 3, (1, 2, -3))
    rows.append(SignFactRow(12, 3, (1, 2, -3), b.sums, "S0 equal for swapped pair",
                            a.sums[0] == b.sums[0]))
    rows.append(SignFactRow(12, 3, (1, 2, -3), b.sums, "S1/S2 swap across pair",
                            b.sums[1] - b.sums[2] == a.sums[2] - a.sums[1]))
    rows.append(SignFactRow(12, 3, (1, 2, -3), b.sums, "swap gap nonzero",
                            b.sums[1] - b.sums[2] != 0))
    return tuple(rows)


def all_sign_facts_pass(rows=None) -> bool:
    if rows is None:
        rows = sign_fact_report()
    return all(row.passed for row in rows)

"""Exact combinatorics behind the circulant classification rules.

Two tools live here, both in exact integer or rational arithmetic, and both
on the evaluation kernel ``polyeval.cyclic_power``, the coefficients of an
integer polynomial's m-th power added up by exponent mod r:

* Alternating binomial sums over a periodic sequence.  For a sequence ``u``
  of period ``p`` and an order ``M``, the sums

      D_i = sum_{j=0}^{M} binom(M, j) * (-1)**j * u[(i + j) mod p]

  have a rigidity property: if every ``D_i`` is >= 0, or every ``D_i`` is
  <= 0, the sequence must be constant.  ``theorem1_verdict`` applies this and
  aborts loudly if the rigidity is ever violated, since everything downstream
  leans on it.

* Residue-class multinomial sums.  For an integer pattern
  ``(t_1, ..., t_L)`` placed at coordinates ``1..L``, the value of the
  order-m polynomial splits as ``f = sum_j v_j_class * S_j`` where

      S_j = sum of m!/(k_1! ... k_L!) * t_1**k_1 * ... * t_L**k_L

  over compositions with ``k_1 + ... + k_L = m`` and weighted position sum
  ``1*k_1 + 2*k_2 + ... + L*k_L`` congruent to ``j`` mod ``r``: the
  coefficients of ``(t_1 + t_2 z + ... + t_L z**(L-1))**m`` at exponents
  congruent to ``j - m`` mod ``r``.  The handful of sign facts about these
  sums that the order-(6, 12, 18, 30, 42) circulant-index-3 classification
  rule needs are recomputed exactly by ``sign_fact_report`` instead of being
  trusted as constants.

The tests check both against their definitions: a brute-force enumeration
of the compositions, and the binomial sums written out term by term.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .classifier import SPECIAL_R3_ORDERS
from .polyeval import cyclic_power
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
    with ``S_c = sum_{j = c mod p} (-1)**j * binom(order, j)``, the
    coefficients of ``(1 - z)**order`` summed by exponent mod p.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    p, u = seq.period, seq.u
    classes = cyclic_power((1, -1), order, p)
    return tuple(sum(s * u[(i + c) % p] for c, s in enumerate(classes)) for i in range(p))


def theorem1_verdict(seq: PeriodicSequence, sums: tuple) -> SequenceVerdict:
    """Classify ``theorem1_sums(seq, order)`` as one-signed or mixed-signed.

    One-signed sums force constancy: on a non-constant sequence they
    contradict the rigidity property and raise :class:`RigidityViolation`
    instead of returning.
    """
    if all(d >= 0 for d in sums) or all(d <= 0 for d in sums):
        if not seq.is_constant():
            raise RigidityViolation(
                f"one-signed sums {sums} on non-constant period {seq.u}; "
                f"this contradicts the constancy rigidity and indicates a bug"
            )
        return SequenceVerdict.FORCED_CONSTANT
    return SequenceVerdict.MIXED_SIGNS


def residue_sum_table(m: int, r: int, pattern) -> tuple:
    """Exact multinomial residue sums S_0..S_{r-1} of an integer pattern at order m.

    The pattern sits at coordinates 1..L, so a monomial's weighted position
    sum is its exponent in the pattern polynomial's m-th power plus m, so
    S_j is entry ``(j - m) mod r`` of ``cyclic_power(pattern, m, r)``.  Any
    pattern length is answered.  The sums always satisfy
    ``sum_j S_j == (sum(pattern)) ** m``.
    """
    pattern = tuple(pattern)
    if not pattern:
        raise ValueError("pattern must have at least one entry")
    if not all(isinstance(t, int) for t in pattern):
        raise ValueError(f"pattern entries must be integers, got {pattern}")
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    if r < 1:
        raise ValueError(f"residue count must be >= 1, got {r}")
    folded = cyclic_power(pattern, m, r)
    return tuple(folded[(j - m) % r] for j in range(r))


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
        sums = residue_sum_table(m, 3, pattern)
        rows.append(
            SignFactRow(m=m, r=3, pattern=pattern, sums=sums,
                        requirement=requirement, passed=bool(check(sums)))
        )
    a = residue_sum_table(12, 3, (1, -3, 2))
    b = residue_sum_table(12, 3, (1, 2, -3))
    rows.append(SignFactRow(12, 3, (1, 2, -3), b, "S0 equal for swapped pair",
                            a[0] == b[0]))
    rows.append(SignFactRow(12, 3, (1, 2, -3), b, "S1/S2 swap across pair",
                            b[1] - b[2] == a[2] - a[1]))
    rows.append(SignFactRow(12, 3, (1, 2, -3), b, "swap gap nonzero",
                            b[1] - b[2] != 0))
    return tuple(rows)

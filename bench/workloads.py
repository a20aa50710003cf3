"""Seeded inputs of the three workloads.

A run is a sequence of rounds.  Round ``k`` of a workload is drawn from
``random.Random(f"{workload}:{seed}:{k}")``, so the same seed gives the same
inputs, and every round has the same make-up: the same shapes, the same
number of PSD / not-PSD specs and the same number of exact ones.  Only the
seed values, the choice of violated condition and the order change.

An ``Op`` is one spec.  ``psd`` is what the spec was built to be: on
``covered`` and ``cli`` the table's status, on ``uncovered`` whether the
tensor is PSD by construction (the rest have a negative minimum by construction).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from checks import table_case

#: Covered shapes (m, n, r) with associated-matrix sizes 7 to 61.  PSD
#: verdict time grows with the size (Jacobi); the sizes are spread so that the
#: PSD median falls inside a run of close values, not in a gap between two.
COVERED_SHAPES = (
    (6, 7, 1), (10, 4, 1), (8, 8, 1),       # index-1, sizes 19, 16, 29
    (4, 6, 5), (8, 5, 3), (8, 7, 3),        # coprime-odd, 11, 17, 25
    (12, 8, 3), (18, 6, 3), (6, 4, 3),      # index-3-special, 43, 46, 10
    (6, 12, 3),                             # index-3-special, 34
    (4, 4, 2), (20, 6, 2), (30, 5, 2),      # index-2, 7, 51, 61
    (4, 12, 2),                             # index-2, 23
    (6, 5, 4), (10, 10, 6), (6, 10, 4),     # even-gcd-2, 13, 46, 28
    (4, 6, 4), (4, 20, 4),                  # quartic-index-4, 11, 39
)
#: Per covered shape and round: 16 specs, 4 PSD (one per quarter of ``u``,
#: see ``_covered_psd``); one PSD and three not-PSD specs exact.
COVERED_SLOTS = tuple((s < 4, s in (3, 4, 5, 6)) for s in range(16))

#: Uncovered PSD-by-construction specs: (m, n, r), seed form, exact ints.
#: Verdict times of these forms stay within about 10% across seeds; the list
#: is chosen so that the medians fall among close values: the three exact
#: specs take about the same time.
UNCOVERED_PSD = (
    ((6, 5, 6), "constant", False),
    ((6, 6, 6), "constant", True),
    ((8, 4, 4), "constant", False),
    ((6, 6, 6), "alternating", True),
    ((8, 4, 4), "alternating", False),
    ((8, 5, 4), "alternating", True),
    ((8, 6, 4), "alternating", False),
    ((10, 5, 5), "constant", False),
)
#: Uncovered shapes of the negative-by-construction specs.  Both take about the
#: same time per verdict, so their median does not fall between two clusters.
UNCOVERED_NEGATIVE = ((6, 5, 6), (8, 4, 4), (6, 5, 6), (8, 4, 4))

#: CLI shapes with associated-matrix size at most 13, one per family or more.
CLI_SHAPES = (
    (2, 3, 2), (4, 4, 2), (6, 3, 2),   # index-2, sizes 3, 7, 7
    (4, 6, 1),                         # index-1, 11
    (8, 3, 3), (4, 5, 3),              # coprime-odd, 9 and 9
    (6, 4, 3),                         # index-3-special, 10
    (6, 5, 4),                         # even-gcd-2, 13
    (4, 4, 4), (4, 6, 4),              # quartic-index-4, 7 and 11
)
#: Per CLI round: one PSD and one not-PSD document per shape; of each ten, five exact.
CLI_EXACT_PER_KIND = 5


@dataclass(frozen=True)
class Op:
    m: int
    n: int
    r: int
    seed: tuple
    psd: bool
    exact: bool


class _Numbers:
    """Seed values in one arithmetic: ``float``, ``int`` or ``Fraction``."""

    def __init__(self, rng: random.Random, kind: str):
        self.rng, self.kind = rng, kind

    def base(self):
        rng = self.rng
        if self.kind == "float":
            return rng.uniform(0.5, 2.0)
        if self.kind == "int":
            return 100 * rng.randint(1, 20)
        return Fraction(rng.randint(20, 100), rng.randint(1, 12))

    def times(self, a, lo: float, hi: float):
        """``a`` times a factor in [lo, hi]; hundredths when exact, so ints stay ints."""
        if self.kind == "float":
            return a * self.rng.uniform(lo, hi)
        value = a * Fraction(self.rng.randint(round(lo * 100), round(hi * 100)), 100)
        return int(value) if self.kind == "int" else value


def _alternating(a, b, r: int) -> list:
    return [a if s % 2 == 0 else b for s in range(r)]


def _covered_psd(case: str, r: int, num: _Numbers, stratum: int | None = None) -> list:
    """A seed meeting the row's condition; two-value rows get ``b = u * a``.

    ``u`` is uniform in [-1, 1], or in its quarter number ``stratum``: the
    Jacobi sweeps of the PSD check depend on ``u``, and one draw per quarter
    keeps the PSD timings of a round alike from seed to seed.
    """
    a = num.base()
    if case in ("index-1", "coprime-odd", "index-3-special"):
        return [a] * r
    lo, hi = (-1.0, 1.0) if stratum is None else (-1.0 + 0.5 * stratum, -0.5 + 0.5 * stratum)
    return _alternating(a, num.times(a, lo, hi), r)


def _covered_violated(case: str, r: int, num: _Numbers, variant: int | None = None) -> list:
    """A seed that misses the row's condition by at least 5% of the seed scale.

    Every miss is ``delta >= 0.06 * a`` with scale at most ``a + delta``, and
    ``delta >= 0.06 * a`` implies ``delta >= 0.05 * (a + delta)``.  The kind
    of miss and its sign are drawn, or taken in turn from ``variant``: the
    witness search costs more for some kinds, and taking them in turn gives
    every round the same mix.
    """
    rng = num.rng
    a = num.base()
    sign = rng.choice((-1, 1)) if variant is None else (-1, 1)[variant % 2]
    if case == "index-1":
        return [-a]
    if case in ("coprime-odd", "index-3-special"):
        if (rng.random() < 0.25) if variant is None else variant % 4 == 0:
            return [-a] * r
        seed = [a] * r
        seed[rng.randrange(r)] += sign * num.times(a, 0.06, 0.5)
        return seed
    seed = _alternating(a, num.times(a, -1.0, 1.0), r)
    if case == "index-2" or ((rng.random() < 1 / 3) if variant is None else variant % 3 == 0):
        # |v1| > v0 on every odd entry
        return _alternating(a, sign * num.times(a, 1.06, 1.5), r)
    # one entry past the first two leaves its parity class
    seed[rng.randrange(2, r)] += sign * num.times(a, 0.06, 0.5)
    return seed


def covered_round(seed: int, k: int) -> list[Op]:
    rng = random.Random(f"covered:{seed}:{k}")
    ops = []
    for i, (m, n, r) in enumerate(COVERED_SHAPES):
        case = table_case(m, n, r)
        for slot, (psd, exact) in enumerate(COVERED_SLOTS):
            # Exact seeds take turns between int and Fraction, which costs more,
            # so that every round holds as many of each.
            num = _Numbers(rng, ("int", "fraction")[(i + slot) % 2] if exact else "float")
            values = _covered_psd(case, r, num, slot) if psd else _covered_violated(case, r, num, slot)
            ops.append(Op(m, n, r, tuple(values), psd, exact))
    rng.shuffle(ops)
    return ops


def uncovered_round(seed: int, k: int) -> list[Op]:
    """Eight PSD-by-construction specs and four with a clearly negative minimum.

    With ``v[s] = A + B * (-1)^s`` the polynomial is
    ``A * (x1 + x2 + ...)^m + B * (x1 - x2 + ...)^m``.  PSD by construction:
    a constant seed ``c > 0`` (``B = 0``), or an alternating seed
    ``(a, b, a, b, ...)`` with ``a >= |b|``, so ``A = (a + b) / 2`` and
    ``B = (a - b) / 2`` are both nonnegative; both minima are degenerate zeros.
    Negative by construction: an alternating seed with ``|b| >= 1.06 * a``, so
    ``A`` or ``B`` is negative and ``f < 0`` where the other form vanishes.
    """
    rng = random.Random(f"uncovered:{seed}:{k}")
    ops = []
    for (m, n, r), form, exact in UNCOVERED_PSD:
        if exact:
            a = rng.randint(2, 9)
            b = rng.randint(-a, a)
        else:
            a = rng.uniform(0.5, 2.0)
            b = a * rng.uniform(-1.0, 1.0)
        values = [a] * r if form == "constant" else _alternating(a, b, r)
        ops.append(Op(m, n, r, tuple(values), True, exact))
    for m, n, r in UNCOVERED_NEGATIVE:
        a = rng.uniform(0.5, 2.0)
        b = a * rng.uniform(1.06, 1.5) * rng.choice((-1, 1))
        ops.append(Op(m, n, r, tuple(_alternating(a, b, r)), False, False))
    rng.shuffle(ops)
    return ops


def cli_round(seed: int, k: int) -> list[Op]:
    rng = random.Random(f"cli:{seed}:{k}")
    exact = {
        psd: set(rng.sample(range(len(CLI_SHAPES)), CLI_EXACT_PER_KIND)) for psd in (True, False)
    }
    ops = []
    for i, (m, n, r) in enumerate(CLI_SHAPES):
        case = table_case(m, n, r)
        for psd in (True, False):
            # JSON keeps integers exact but has no fractions.
            num = _Numbers(rng, "int" if i in exact[psd] else "float")
            values = _covered_psd(case, r, num) if psd else _covered_violated(case, r, num)
            ops.append(Op(m, n, r, tuple(values), psd, i in exact[psd]))
    rng.shuffle(ops)
    return ops


ROUNDS = {"covered": covered_round, "uncovered": uncovered_round, "cli": cli_round}

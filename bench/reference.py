#!/usr/bin/env python3
"""Reference figures: single public calls at fixed sizes, timed one at a time.

    python3 bench/reference.py

Prints a Markdown table (median of repeated timings) for README.md.  These
are figures to compare layers by, not gated metrics; sizes too slow for a
workload (matrix size 190, Uncovered verdicts on random positive seeds) are
timed here only.
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import sys
import time
from fractions import Fraction

import numpy as np

from bench import child_wall, load_program

#: A timing repeats the call until a batch lasts this long, over this many batches.
BATCH_S = 0.2
BATCHES = 5


def per_call(fn, batches=BATCHES) -> float:
    """Median seconds per call over batches of at least ``BATCH_S``."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= BATCH_S or reps >= 1 << 20:
            break
        reps *= 2
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times)


def fmt(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} µs"
    if seconds < 1:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.2f} s"


def main() -> int:
    load_program()
    from anticirculant import classifier, combinatorics, oracle, polyeval, tensor

    spec = tensor.CirculantSpec
    rows = []

    def row(what, seconds, note=""):
        rows.append((what, fmt(seconds), note))
        print(f"  {what}: {fmt(seconds)} {note}", file=sys.stderr, flush=True)

    gen_float = tensor.expand(spec(4, 4, 2, (1.0, 0.5)))
    gen_exact = tensor.expand(spec(4, 4, 2, (Fraction(3, 2), Fraction(-1, 3))))
    x_float, x_exact = (0.3, -0.7, 0.2, 0.5), (1, -2, Fraction(1, 2), 3)
    row("`eval_fast`, m=n=4, float", per_call(lambda: polyeval.eval_fast(gen_float, x_float)))
    row("`eval_fast`, m=n=4, exact", per_call(lambda: polyeval.eval_fast(gen_exact, x_exact)),
        "Fraction seed, int/Fraction x")
    row("`value_and_gradient`, m=n=4, float",
        per_call(lambda: polyeval.value_and_gradient(gen_float, x_float)))
    row("`value_and_gradient`, m=n=4, exact",
        per_call(lambda: polyeval.value_and_gradient(gen_exact, x_exact)))

    gen_844 = tensor.expand(spec(8, 4, 4, (1.0, 1.0, 1.0, 1.0)))
    row("`sphere_min`, (8,4,4), 64 starts", per_call(lambda: oracle.sphere_min(gen_844), 3),
        "constant seed: degenerate zero minimum")
    rng = random.Random("reference")
    random_seeds = [tuple(rng.uniform(0.5, 1.5) for _ in range(4)) for _ in range(5)]
    times = []
    for seed in random_seeds:
        t0 = time.perf_counter()
        classifier.classify(spec(8, 5, 4, seed))
        times.append(time.perf_counter() - t0)
    rows.append(("`classify` Uncovered, (8,5,4), 5 random positive seeds",
                 " / ".join(fmt(t) for t in (min(times), statistics.median(times), max(times))),
                 "min / median / max; not a workload: too spread to gate"))

    big = spec(40, 12, 2, (1.0, 0.5))
    row("`classify` PSD, (40,12,2), matrix size 221", per_call(lambda: classifier.classify(big), 1),
        "too slow for a workload")

    for size in (13, 43, 190):
        v = np.array([1.0 if s % 2 == 0 else 0.3 for s in range(2 * size - 1)])
        idx = np.arange(size)
        a = v[idx[:, None] + idx[None, :]]
        row(f"`matrix_psd`, size {size}", per_call(lambda: oracle.matrix_psd(a), 3),
            f"`np.linalg.eigvalsh`: {fmt(per_call(lambda: np.linalg.eigvalsh(a)))}")

    for m, n in ((4, 4), (12, 8)):
        r = 2 if m == 4 else 3
        seed = (1.0, 0.5) if r == 2 else (2.0, 2.0, 2.0)
        gen = tensor.expand(spec(m, n, r, seed))
        cert = classifier.classify(spec(m, n, r, seed)).certificate
        row(f"`verify_power_sum`, 1000 points, ({m},{n},{r})",
            per_call(lambda: classifier.verify_power_sum(gen, cert), 3))

    row("`sign_fact_report`", per_call(combinatorics.sign_fact_report, 3))

    bare = statistics.median(child_wall("pass")[0] for _ in range(BATCHES))
    full = statistics.median(child_wall("import anticirculant.cli")[0] for _ in range(BATCHES))
    numpy_only = statistics.median(child_wall("import numpy")[0] for _ in range(BATCHES))
    row("bare interpreter start", bare, "`python -c pass`")
    row("`import anticirculant.cli` beyond a bare start", full - bare,
        f"numpy alone: {fmt(numpy_only - bare)}")

    print(f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__}")
    print()
    print("| call | time | note |")
    print("|---|---|---|")
    for what, value, note in rows:
        print(f"| {what} | {value} | {note} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

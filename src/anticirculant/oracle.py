"""Independent numerical ground truth for tensor and matrix positive semidefiniteness.

``sphere_min`` estimates the minimum of the Hankel polynomial on the unit
sphere by deterministic multistart projected gradient descent.  By
homogeneity, the tensor is positive semidefinite exactly when that minimum is
nonnegative, so a negative evaluation is a hard refutation while a
nonnegative estimate is merely evidence (the search is non-convex and never
proves positivity; proofs come from certificates).

The search works on float64 arrays with one row per point, through a
roots-of-unity kernel.  Let ``p(z) = x_1 + x_2 z + ... + x_n z**(n-1)``, so
that f sums ``v[s]`` times the coefficient of ``z**s`` in ``p**m``.  If v
repeats with period r, that sum only needs the residue-class sums of the
coefficients mod r, which the r-th roots of unity ``omega**k`` pick out:
``f(x) = Re sum_k c_k p(omega**k)**m`` with ``c = fft(v[:r]) / r``.  As
``p**m`` has degree ``L - 1 < L``, nothing aliases, so this is exact for any
period, ``r = L`` included.  r is the smallest period of v, found by
comparing v with its own shifts: a spec's vector repeats with its index r or
a divisor of it, and a vector with no shorter period takes ``r = L``.  With
``W[i, k] = omega**(i k mod r)`` and ``P = x @ W``, the gradient is ``m *
Re((c * P**(m-1)) @ W^T)`` and the value ``x . grad / m`` (Euler's identity
for a degree-m form).  Every reduction stays within a row (``np.einsum``,
never BLAS), so a row's numbers are bitwise the same whatever rows share its
array.  The candidates are evaluated together, then all descents advance in
lockstep, each row with its own step size, line search and stopping rules.
Each iteration makes the first line-search trial on every live row at once.
The rows it fails climb a doubling ladder of halvings: blocks of 1, 2, 4,
... halving levels, each block tried at every level in one kernel call, and
a row takes the first level that hits, as a one-at-a-time search would.
The live arrays are compacted only in iterations where some row stops.  The
candidate rows (a function of n), the start matrix (a function of n,
starts and rng_seed) and ``W`` (a function of n and r) are built once per
process and kept read-only.  The reported ``min_value`` is
``polyeval.eval_fast`` at ``argmin``, bitwise: ``argmin`` is a float point,
so ``eval_fast`` takes its coefficient-profile route, and ``_eval_float``
runs the same convolutions on float64 arrays; if no point has a finite
float64 value, there is no argmin.

``matrix_psd`` decides matrix positive semidefiniteness with a hand-rolled
cyclic Jacobi eigenvalue iteration, deliberately independent of any library
eigensolver so that library and oracle cannot share a bug.

Randomness is a splitmix-style 64-bit mixing generator, written out below so
results reproduce across implementations::

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output <- z XOR (z >> 31)

Unit-vector starts draw each coordinate uniformly from [-1, 1) (output /
2^63 - 1), redraw vectors with norm below 1e-3, then normalize.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import GeneratingVector, candidate_witnesses
# eval_fast and value_and_gradient are not called here; bench/spans.py traces
# them under these names.
from .polyeval import _dot, eval_fast, value_and_gradient  # noqa: F401

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Initial line-search step and maximum halvings per descent step.
ETA0 = 0.1
MAX_HALVINGS = 40
MAX_ITERATIONS = 10_000
PLATEAU_TOL = 1e-14
#: Secondary stop: if a whole window of iterations decreases f by less than
#: COARSE_TOL per step on average, the descent is inside a flat polynomial
#: tail (there the per-step decrease shrinks like a power of the iteration
#: count, so waiting for PLATEAU_TOL would burn the whole iteration cap
#: without changing any verdict-relevant digit).
COARSE_TOL = 1e-9
COARSE_WINDOW = 30
#: Upper bound on the adaptive step size (the line search halves from here).
ETA_MAX = 1e12


class SplitMix64:
    """The 64-bit mixing generator from the module docstring."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform_signed(self) -> float:
        """Uniform in [-1, 1)."""
        return self.next_u64() / (1 << 63) - 1.0

    def unit_vector(self, n: int) -> tuple:
        while True:
            x = [self.uniform_signed() for _ in range(n)]
            norm = math.sqrt(sum(t * t for t in x))
            if norm >= 1e-3:
                return tuple(t / norm for t in x)


@dataclass(frozen=True)
class SphereMinResult:
    min_value: float
    argmin: tuple | None
    starts: int
    converged_starts: int
    rng_seed: int

    def to_dict(self) -> dict:
        return {
            "min_value": self.min_value,
            "argmin": None if self.argmin is None else list(self.argmin),
            "starts": self.starts,
            "converged_starts": self.converged_starts,
            "rng_seed": self.rng_seed,
        }


def _period(a: np.ndarray) -> int:
    """Smallest r >= 1 with ``a[s] == a[s + r]`` for all s; ``len(a)`` if none is shorter."""
    for r in range(1, len(a)):
        if np.array_equal(a[r:], a[:-r]):
            return r
    return len(a)


def _spectrum(gen: GeneratingVector):
    """``(c, W)`` for the roots-of-unity kernel of ``gen``'s float64 vector.

    With r the period of v, ``c = fft(v[:r]) / r`` and ``W = _roots(n, r)``.
    """
    a = np.array(gen.v, dtype=float)
    r = _period(a)
    return np.fft.fft(a[:r]) / r, _roots(gen.n, r)


@functools.lru_cache(maxsize=16)
def _roots(n: int, r: int) -> np.ndarray:
    """``W[i, k] = omega**(i * k mod r)``, ``omega = exp(2 pi i / r)``; built
    once per ``(n, r)`` and read-only."""
    ik = np.arange(n)[:, None] * np.arange(r) % r
    w = np.exp(2j * np.pi / r * ik)
    w.setflags(write=False)
    return w


def _values_and_gradients(x: np.ndarray, spectrum, m: int):
    """f and its gradient for every row of x.

    With ``P = x @ W`` the values of the point's polynomial at the r-th roots
    of unity, ``grad = m * Re((c * P**(m-1)) @ W^T)`` and, by Euler's identity
    for a degree-m form, ``f = x . grad / m``.  x is cast to complex first:
    the einsum then multiplies the same numbers without casting through
    buffers.
    """
    c, w = spectrum
    p = np.einsum("bi,ik->bk", x.astype(complex), w)
    g = np.einsum("bk,ik->bi", c * p ** (m - 1), w).real
    return np.einsum("bi,bi->b", x, g), m * g


def eval_rows(gen: GeneratingVector, x: np.ndarray) -> np.ndarray:
    """f at every row of the float array ``x`` (``points x n``)."""
    return _values_and_gradients(x, _spectrum(gen), gen.m)[0]


@functools.lru_cache(maxsize=16)
def _candidates(n: int) -> np.ndarray:
    """Unit rows: every witness-family member, then (n <= 6) every nonzero
    sign pattern in {0, 1, -1}^n in ``itertools.product`` order.  Built once
    per n and read-only."""
    points = np.array([w.x for w in candidate_witnesses(n)], dtype=float)
    if n <= 6:
        codes = np.arange(1, 3**n)  # code 0 is the zero pattern
        digits = codes[:, None] // 3 ** np.arange(n - 1, -1, -1) % 3
        points = np.concatenate([points, np.array([0.0, 1.0, -1.0])[digits]])
    points /= np.sqrt(np.einsum("bi,bi->b", points, points))[:, None]
    points.setflags(write=False)
    return points


@functools.lru_cache(maxsize=32)
def _start_matrix(n: int, starts: int, rng_seed: int) -> np.ndarray:
    """The ``starts`` SplitMix64 unit vectors of ``rng_seed``, one per row;
    built once per ``(n, starts, rng_seed)`` and read-only."""
    rng = SplitMix64(rng_seed)
    x = np.array([rng.unit_vector(n) for _ in range(starts)])
    x.setflags(write=False)
    return x


def _step(spectrum, m: int, x, f, grad, eta):
    """``(y, f(y), grad f(y), hit)`` for the normalized points
    ``y = x - eta * grad``; ``hit`` marks the rows where y decreases f.

    ``eta`` holds one step size per row of x, or a ``(levels, rows)`` block
    of them; then every row steps at every level, and the results carry
    the leading ``levels`` axis.
    """
    y = x - eta[..., None] * grad
    rows = y.reshape(-1, y.shape[-1])  # a view: normalizing y normalizes rows
    norm = np.sqrt(np.einsum("bi,bi->b", rows, rows)).reshape(eta.shape)
    y /= norm[..., None]
    fy, gy = _values_and_gradients(rows, spectrum, m)
    fy = fy.reshape(eta.shape)
    return y, fy, gy.reshape(y.shape), (norm != 0.0) & np.isfinite(norm) & (fy < f)


def _descend_rows(spectrum, m: int, x: np.ndarray):
    """Projected gradient descent from every row of x, in lockstep.

    Returns per-row ``(f, x, converged)`` arrays.  A row stops when no step
    decreases f at line-search resolution, when one step decreases f by less
    than PLATEAU_TOL, or when a COARSE_WINDOW of steps decreases it by less
    than COARSE_TOL per step; a row still moving after MAX_ITERATIONS is not
    converged.
    """
    f_out = np.empty(len(x))
    x_out = np.empty_like(x)
    converged = np.ones(len(x), dtype=bool)
    live = np.arange(len(x))
    f, grad = _values_and_gradients(x, spectrum, m)
    eta = np.full(len(x), ETA0)
    checkpoint = f
    for iteration in range(1, MAX_ITERATIONS + 1):
        # Carry each row's last successful step size forward and let it grow;
        # on degenerate minima the useful step size diverges, and resetting to
        # ETA0 every iteration would trap the descent in a power-law tail.
        trial = np.minimum(eta * 2.0, ETA_MAX)
        y, fy, gy, hit = _step(spectrum, m, x, f, grad, trial)
        eta = np.where(hit, trial, eta)
        pending = (~hit).nonzero()[0]
        if pending.size:
            # Rows that missed keep their point unless a halved step hits.
            xp, fp, gp, tp = x[pending], f[pending], grad[pending], trial[pending]
            fy[pending], y[pending], gy[pending] = fp, xp, gp
            # Try the halvings in blocks of 1, 2, 4, ... levels, each block
            # in one step; a row takes the first level that hits, which is
            # the step a one-halving-at-a-time search would take.
            done, size = 0, 1
            while done < MAX_HALVINGS:
                size = min(size, MAX_HALVINGS - done)
                levels = np.empty((size, pending.size))
                levels[0], levels[1:] = tp * 0.5, 0.5
                np.multiply.accumulate(levels, out=levels)  # repeated halving
                yb, fb, gb, hb = _step(spectrum, m, xp, fp, gp, levels)
                found = np.logical_or.reduce(hb)
                cols = found.nonzero()[0]
                first, rows = hb.argmax(axis=0)[cols], pending[cols]
                fy[rows], y[rows], gy[rows] = fb[first, cols], yb[first, cols], gb[first, cols]
                eta[rows] = levels[first, cols]
                if cols.size == pending.size:
                    break
                missed = ~found
                pending, xp, fp, gp = pending[missed], xp[missed], fp[missed], gp[missed]
                tp = levels[-1, missed]
                done, size = done + size, 2 * size
        # Stop where f fell by less than PLATEAU_TOL.  A row that found no
        # decreasing step kept fy = f and stops here too; the negated >= also
        # stops rows whose value is NaN.
        scale = 1.0 + np.abs(fy)
        stop = ~(f - fy >= PLATEAU_TOL * scale)
        if iteration % COARSE_WINDOW == 0:
            stop |= checkpoint - fy < COARSE_WINDOW * COARSE_TOL * scale
            checkpoint = fy
        x, f, grad = y, fy, gy
        if stop.any():
            f_out[live[stop]], x_out[live[stop]] = f[stop], x[stop]
            go = ~stop
            live, x, f, grad = live[go], x[go], f[go], grad[go]
            eta, checkpoint = eta[go], checkpoint[go]
            if not live.size:
                break
    f_out[live], x_out[live], converged[live] = f, x, False
    return f_out, x_out, converged


def _eval_float(gen: GeneratingVector, x: tuple) -> float:
    """``polyeval.eval_fast(gen, x)`` at a float point, bitwise, on float64 arrays.

    The twin of ``eval_fast``'s float route, the coefficient profile: float
    input never takes the exact residue route, whose sums would run in
    another order.  The same m - 1 convolutions as ``polyeval.conv_power``:
    adding ``a * x[j]`` for j from n - 1 down to 0 gives each output its
    terms in the order of ``polyeval.convolve``.  The zero terms that ``convolve``
    skips add +-0.0 here, which changes no sum: a sum that starts at 0.0
    never becomes -0.0.
    """
    xs = np.array(x, dtype=float)
    a = xs
    with np.errstate(all="ignore"):
        for _ in range(gen.m - 1):
            out = np.zeros(len(a) + len(xs) - 1)
            for j in range(len(xs) - 1, -1, -1):
                out[j : j + len(a)] += a * xs[j]
            a = out
    return float(_dot(gen.v, a.tolist()))


def sphere_min(gen: GeneratingVector, starts: int = 64, rng_seed: int = 0) -> SphereMinResult:
    """Best point found over seeded candidates plus ``starts`` descents.

    Candidates come first, in a fixed order: every witness-family member that
    fits the dimension, then (for n <= 6) every nonzero sign pattern in
    {-1, 0, 1}^n.  Then the descents run from RNG unit vectors.  The result
    is deterministic for fixed (gen, starts, rng_seed); ties keep the
    earliest point in this fixed ordering.  If no point has a finite float64
    value, ``argmin`` is None and ``min_value`` is inf.
    """
    if gen.m % 2 != 0:
        raise ValueError(f"sphere search needs even order, got m={gen.m}")
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    n, m = gen.n, gen.m
    candidates = _candidates(n)
    with np.errstate(all="ignore"):
        spectrum = _spectrum(gen)
        candidate_f = _values_and_gradients(candidates, spectrum, m)[0]
        run_f, run_x, converged = _descend_rows(spectrum, m, _start_matrix(n, starts, rng_seed))
    values = np.concatenate([candidate_f, run_f])
    points = np.concatenate([candidates, run_x])
    values[np.isnan(values)] = math.inf  # as with `<`, NaN never becomes the best
    best = int(np.argmin(values))  # earliest of equal minima
    argmin = tuple(points[best].tolist()) if values[best] < math.inf else None
    return SphereMinResult(
        min_value=math.inf if argmin is None else _eval_float(gen, argmin),
        argmin=argmin,
        starts=starts,
        converged_starts=int(converged.sum()),
        rng_seed=rng_seed,
    )


@dataclass(frozen=True)
class MatrixPsdResult:
    passed: bool
    min_eigenvalue: float
    eigenvalues: tuple
    sweeps: int


def jacobi_eigenvalues(matrix, off_tol: float = 1e-12, max_sweeps: int = 100):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate every off-diagonal pair in row order until the off-diagonal
    Frobenius norm drops below ``off_tol`` times the (rotation-invariant)
    Frobenius norm of the input.  Returns (sorted eigenvalues, sweeps used).
    """
    a = np.array(matrix, dtype=float)
    size = a.shape[0]
    frob = math.sqrt(float((a * a).sum()))
    threshold = off_tol * frob
    sweeps = 0
    while True:
        off = math.sqrt(2.0 * float((np.triu(a, 1) ** 2).sum()))
        if off <= threshold:
            break
        if sweeps >= max_sweeps:
            raise RuntimeError(
                f"Jacobi iteration failed to reach off-norm {threshold} "
                f"in {max_sweeps} sweeps (off-norm {off})"
            )
        for p in range(size - 1):
            for q in range(p + 1, size):
                apq = float(a[p, q])
                if apq == 0.0:
                    continue
                tau = (float(a[q, q]) - float(a[p, p])) / (2.0 * apq)
                if abs(tau) > 1e150:
                    t = 0.5 / tau  # tau * tau would overflow; the asymptote is exact here
                elif tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, q] = 0.0
                a[q, p] = 0.0
        sweeps += 1
    return np.sort(np.diag(a)), sweeps


def matrix_psd(matrix, psd_tol: float = 1e-9) -> MatrixPsdResult:
    """Pass iff the minimum Jacobi eigenvalue is >= -psd_tol * max |entry|."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    max_abs = float(np.abs(m).max()) if m.size else 0.0
    if float(np.abs(m - m.T).max()) > 1e-12 * max(1.0, max_abs):
        raise ValueError("matrix is not symmetric within 1e-12")
    eigs, sweeps = jacobi_eigenvalues(m)
    min_eig = float(eigs[0])
    return MatrixPsdResult(
        passed=min_eig >= -psd_tol * max_abs,
        min_eigenvalue=min_eig,
        eigenvalues=tuple(float(t) for t in eigs),
        sweeps=sweeps,
    )

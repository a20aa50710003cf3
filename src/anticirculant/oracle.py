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
comparing v with its own shifts (``polyeval._repeat``): a spec's vector
repeats with its index r or a divisor of it, and a vector with no shorter
period takes ``r = L``.  With
``W[i, k] = omega**(i k mod r)`` and ``P = x @ W``, the gradient is ``m *
Re((c * P**(m-1)) @ W^T)`` and the value ``x . grad / m`` (Euler's identity
for a degree-m form).  Every reduction stays within a row (``np.einsum``,
never BLAS), so a row's numbers are bitwise the same whatever rows share its
array.  The candidates are evaluated together, then all descents advance in
lockstep, each row with its own step size, line search and stopping rules.
Each iteration tries a block of eight step sizes s on every live row at
once.  P is linear in x, so ``y = (x - s * grad) / |x - s * grad|`` has
``P = (P_x - s * P_g) / |x - s * grad|`` with ``P_g = grad @ W``: one
broadcast gives f at every step size of the block, with no kernel call per
step size.  A row moves to the lowest of the values that decrease f; the rows
that no step of the block decreases try the further halvings in doubling
blocks.  At the new point the kernel recomputes P, f and grad.  The live
arrays are compacted only in iterations where some row stops.  The
candidate rows (a function of n), the start matrix (a function of n, starts
and rng_seed) and ``W`` (a function of n and r) are built once per process
and kept read-only.  The reported ``min_value`` is the exact value
of f at ``argmin`` (``polyeval.eval_exact``), rounded once to float64 and
clamped to ``±sys.float_info.max`` past it, so float cancellation in the
search's own values never reaches it; if no point has a finite float64
value, there is no argmin and no ``min_value``.

``matrix_psd`` decides matrix positive semidefiniteness numerically from
LAPACK's symmetric eigenvalues (``np.linalg.eigvalsh``).  No verdict path
runs it; certificates are checked by exact identity in ``classifier``.

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

import numpy as np

from .tensor import CirculantSpec, GeneratingVector, _Record, candidate_witnesses, window
# eval_fast and value_and_gradient are not called here; bench/spans.py traces
# them under these names.
from .polyeval import _repeat, eval_exact, eval_fast, rounded, value_and_gradient  # noqa: F401

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Initial line-search step and maximum halvings of twice the last step.
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
#: Upper bound on every step size the line search tries.
ETA_MAX = 1e12
#: Step sizes per line-search block: twice the row's last step times 16, 8,
#: ..., 1/8, the last three of them halvings.
BLOCK = 8
#: ``matrix_psd``'s pass tolerance, relative to the largest |entry|.
MATRIX_PSD_TOL = 1e-9


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


class SphereMinResult(_Record):
    min_value: float | None
    argmin: tuple | None
    starts: int
    converged_starts: int
    rng_seed: int

    def __init__(self, min_value: float | None, argmin: tuple | None, starts: int,
                 converged_starts: int, rng_seed: int):
        self.__dict__.update(min_value=min_value, argmin=argmin, starts=starts,
                             converged_starts=converged_starts, rng_seed=rng_seed)

    def to_dict(self) -> dict:
        return {**self._as_dict(), "argmin": None if self.argmin is None else list(self.argmin)}


def _spectrum(gen: CirculantSpec | GeneratingVector):
    """``(c, W)`` for the roots-of-unity kernel of ``gen``'s float64 vector.

    With r the smallest period of the float64 values of v, compared by
    value, or L if none is shorter, ``c = fft(v[:r]) / r`` and
    ``W = _roots(n, r)``.  Both are read from ``window(gen)``: for a spec
    of q seed entries, q is a period of the float values too, so the
    window's smallest period is v's, as in ``polyeval._int_form``.
    """
    a = np.array(window(gen), dtype=float)
    r = _repeat(a.tolist())
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
    """f, its gradient and ``P`` for every row of x.

    With ``P = x @ W`` the values of the point's polynomial at the r-th roots
    of unity, ``grad = m * Re((c * P**(m-1)) @ W^T)`` and, by Euler's identity
    for a degree-m form, ``f = x . grad / m``.  x is cast to complex first:
    the einsum then multiplies the same numbers without casting through
    buffers.
    """
    c, w = spectrum
    p = np.einsum("bi,ik->bk", x.astype(complex), w)
    g = np.einsum("bk,ik->bi", c * p ** (m - 1), w).real
    return np.einsum("bi,bi->b", x, g), m * g, p


def eval_rows(gen: CirculantSpec | GeneratingVector, x: np.ndarray) -> np.ndarray:
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


def _power(z: np.ndarray, m: int) -> np.ndarray:
    """``z**m`` by repeated squaring, a few whole-array products where
    numpy's complex power runs its own loop per element."""
    out = None
    while True:
        if m & 1:
            out = z if out is None else out * z
        m >>= 1
        if not m:
            return out
        z = z * z


def _block_values(spectrum, m: int, x, grad, p, pg, steps):
    """``(y, norm, f)``: the points ``y = x - s * grad`` for every step size
    s of the ``(levels, rows)`` block ``steps``, their norms, and f at the
    normalized points.

    P is linear in x: with ``P_g = grad @ W``, ``y / norm`` has
    ``P = (p - s * P_g) / norm``, so the whole block costs one broadcast and
    no kernel call.
    """
    y = x - steps[..., None] * grad
    norm = np.sqrt(np.einsum("lbi,lbi->lb", y, y))
    py = (p - steps[..., None] * pg) * (1.0 / norm)[..., None]
    return y, norm, np.einsum("lbk,k->lb", _power(py, m), spectrum[0]).real


def _line_search(spectrum, m: int, x, f, grad, p, pg, steps):
    """``(moved, y, s)``: per row, whether a step size of the ``(levels,
    rows)`` block ``steps`` decreases f; the step s with the lowest f among
    those that do (ties: the earlier level); and the normalized point
    ``x - s * grad``, or x where no step decreases f.
    """
    y, norm, fy = _block_values(spectrum, m, x, grad, p, pg, steps)
    fy[~((norm != 0.0) & np.isfinite(norm) & (fy < f))] = np.inf
    best = fy.argmin(axis=0)  # the earliest of equal minima
    cols = np.arange(len(best))
    moved = fy[best, cols] < np.inf
    y = np.where(moved[:, None], y[best, cols] / norm[best, cols, None], x)
    return moved, y, steps[best, cols]


def _descend_rows(spectrum, m: int, x: np.ndarray):
    """Projected gradient descent from every row of x, in lockstep.

    Returns per-row ``(f, x, converged)`` arrays.  Each iteration tries the
    BLOCK step sizes ``2 * eta * 2**k``, k = 4, 3, ..., -3, capped at
    ETA_MAX, in one ``_line_search``, where eta is the row's last step size,
    and moves the row to the lowest value among the steps that decrease f.  A
    row that no step of the block decreases tries the further halvings in
    blocks of 16, 32, ... levels, up to MAX_HALVINGS halvings of ``2 * eta``,
    and keeps its point if none decreases f.  At the new point the kernel
    recomputes f, its gradient and P, so the block's rounding never carries
    over.  A row stops when no step decreases f, when one step decreases f
    by less than PLATEAU_TOL, or when a COARSE_WINDOW of steps decreases it
    by less than COARSE_TOL per step; a row still moving after
    MAX_ITERATIONS is not converged.
    """
    f_out = np.empty(len(x))
    x_out = np.empty_like(x)
    converged = np.ones(len(x), dtype=bool)
    live = np.arange(len(x))
    f, grad, p = _values_and_gradients(x, spectrum, m)
    eta = np.full(len(x), ETA0)
    checkpoint = f
    # Multiples of 2 * eta, 16, 8, ..., 2**-MAX_HALVINGS: the block, then
    # every further halving.
    ladder = 2.0 ** np.arange(4.0, -MAX_HALVINGS - 1, -1)[:, None]
    for iteration in range(1, MAX_ITERATIONS + 1):
        # Carry each row's last successful step size forward and let it grow;
        # on degenerate minima the useful step size diverges, and resetting to
        # ETA0 every iteration would trap the descent in a power-law tail.
        pg = np.einsum("bi,ik->bk", grad.astype(complex), spectrum[1])
        steps = np.minimum(2.0 * eta * ladder[:BLOCK], ETA_MAX)
        moved, y, s = _line_search(spectrum, m, x, f, grad, p, pg, steps)
        eta = np.where(moved, s, eta)
        # Rows that no step of the block moves try the further halvings.
        pending, done, size = (~moved).nonzero()[0], BLOCK, 2 * BLOCK
        while pending.size and done < len(ladder):
            steps = np.minimum(2.0 * eta[pending] * ladder[done : done + size], ETA_MAX)
            moved, y[pending], s = _line_search(
                spectrum, m, x[pending], f[pending], grad[pending], p[pending], pg[pending], steps
            )
            eta[pending[moved]] = s[moved]
            pending, done, size = pending[~moved], done + size, 2 * size
        fy, grad, p = _values_and_gradients(y, spectrum, m)
        # Stop where f fell by less than PLATEAU_TOL.  A row that found no
        # decreasing step kept its point and stops here too; the negated >=
        # also stops rows whose value is NaN.
        scale = 1.0 + np.abs(fy)
        stop = ~(f - fy >= PLATEAU_TOL * scale)
        if iteration % COARSE_WINDOW == 0:
            stop |= checkpoint - fy < COARSE_WINDOW * COARSE_TOL * scale
            checkpoint = fy
        x, f = y, fy
        if stop.any():
            f_out[live[stop]], x_out[live[stop]] = f[stop], x[stop]
            go = ~stop
            live, x, f, grad, p = live[go], x[go], f[go], grad[go], p[go]
            eta, checkpoint = eta[go], checkpoint[go]
            if not live.size:
                break
    f_out[live], x_out[live], converged[live] = f, x, False
    return f_out, x_out, converged


def sphere_min(gen: CirculantSpec | GeneratingVector, starts: int = 64,
               rng_seed: int = 0) -> SphereMinResult:
    """Best point found over seeded candidates plus ``starts`` descents.

    Candidates come first, in a fixed order: every witness-family member that
    fits the dimension, then (for n <= 6) every nonzero sign pattern in
    {-1, 0, 1}^n.  Then the descents run from RNG unit vectors.  The result
    is deterministic for fixed (gen, starts, rng_seed); ties keep the
    earliest point in this fixed ordering.  ``min_value`` is f(argmin)
    rounded once from its exact value.  If no point has a finite float64
    value, ``argmin`` and ``min_value`` are None.
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
        min_value=None if argmin is None else rounded(eval_exact(gen, argmin)),
        argmin=argmin,
        starts=starts,
        converged_starts=int(converged.sum()),
        rng_seed=rng_seed,
    )


class MatrixPsdResult(_Record):
    passed: bool
    min_eigenvalue: float
    eigenvalues: tuple

    def __init__(self, passed: bool, min_eigenvalue: float, eigenvalues: tuple):
        self.__dict__.update(passed=passed, min_eigenvalue=min_eigenvalue, eigenvalues=eigenvalues)


def matrix_psd(matrix) -> MatrixPsdResult:
    """Pass iff the smallest eigenvalue is >= -MATRIX_PSD_TOL * max |entry|.

    The eigenvalues are LAPACK's (``np.linalg.eigvalsh``), in ascending order;
    LAPACK scales the matrix internally, so entries near the ends of the
    float64 range neither overflow nor underflow on the way.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    max_abs = float(np.abs(m).max()) if m.size else 0.0
    if float(np.abs(m - m.T).max()) > 1e-12 * max(1.0, max_abs):
        raise ValueError("matrix is not symmetric within 1e-12")
    eigs = np.linalg.eigvalsh(m)
    min_eig = float(eigs[0])
    return MatrixPsdResult(
        passed=min_eig >= -MATRIX_PSD_TOL * max_abs,
        min_eigenvalue=min_eig,
        eigenvalues=tuple(float(t) for t in eigs),
    )

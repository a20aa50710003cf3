"""Independent numerical ground truth for tensor and matrix positive semidefiniteness.

``sphere_min`` estimates the minimum of the Hankel polynomial on the unit
sphere by deterministic multistart projected gradient descent.  By
homogeneity, the tensor is positive semidefinite exactly when that minimum is
nonnegative, so a negative evaluation is a hard refutation while a
nonnegative estimate is merely evidence (the search is non-convex and never
proves positivity; proofs come from certificates).

The search works on float64 arrays with one row per point.  Each row's
coefficient profile comes from repeated convolution with its point, n
shifted adds per convolution; the gradient is ``m * d @ H`` (``d`` the
order-(m-1) profile, ``H[u, i] = v[u + i]``) and the value
``x . grad / m``, which equals ``profile . v``.  Every reduction
stays within a row (``np.einsum``, never BLAS), so a row's numbers are
bitwise the same whatever rows share its array.  The candidates are
evaluated together, then all descents advance in lockstep, each row with
its own step size, line search and stopping rules.  The reported
``min_value`` is the scalar ``polyeval.eval_fast`` at ``argmin``.

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

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import GeneratingVector, candidate_witnesses
# value_and_gradient is not called here; bench/spans.py traces it under this name.
from .polyeval import eval_fast, value_and_gradient  # noqa: F401

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
#: Rows evaluated as one array; bounds the (rows, n, width) convolution
#: temporaries.  Rows never interact, so the blocking does not change results.
BLOCK_ROWS = 128


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
    argmin: tuple
    starts: int
    converged_starts: int
    rng_seed: int

    def to_dict(self) -> dict:
        return {
            "min_value": self.min_value,
            "argmin": list(self.argmin),
            "starts": self.starts,
            "converged_starts": self.converged_starts,
            "rng_seed": self.rng_seed,
        }


def _convolve_rows(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise convolution of ``(B, w)`` with ``(B, n)``: n shifted adds.

    Product j, ``x[:, j] * a``, is zero-padded to one more than the output
    length, so reading the products at the output length shifts product j
    by j; the sum over j adds them in order, as a loop of slice-adds would.
    """
    rows, width = a.shape
    n = x.shape[1]
    length = width + n - 1
    padded = np.zeros((rows, n, length + 1))
    np.multiply(x[:, :, None], a[:, None, :], out=padded[:, :, :width])
    return padded.reshape(rows, -1)[:, : n * length].reshape(rows, n, length).sum(axis=1)


def _profiles(x: np.ndarray, k: int) -> np.ndarray:
    """Order-k coefficient profile of every row of x (``conv_power`` per row)."""
    out = x
    for _ in range(k - 1):
        out = _convolve_rows(out, x)
    return out


def _values_and_gradients(x: np.ndarray, hankel: np.ndarray, m: int):
    """f and its gradient for every row of x; ``hankel[u, i] = v[u + i]``.

    With ``d`` the order-(m-1) profile, ``grad = m * d @ H`` and, by Euler's
    identity for a degree-m form, ``f = x . grad / m``.
    """
    g = np.einsum("bu,ui->bi", _profiles(x, m - 1), hankel)
    return np.einsum("bi,bi->b", x, g), m * g


def _blocks(a: np.ndarray) -> list:
    return np.split(a, range(BLOCK_ROWS, len(a), BLOCK_ROWS))


def eval_rows(gen: GeneratingVector, x: np.ndarray) -> np.ndarray:
    """f at every row of the float array ``x`` (``points x n``)."""
    hankel = sliding_window_view(np.array(gen.v, dtype=float), gen.n)
    return np.concatenate([_values_and_gradients(b, hankel, gen.m)[0] for b in _blocks(x)])


def _candidates(n: int) -> np.ndarray:
    """Unit rows: every witness-family member, then (n <= 6) every nonzero
    sign pattern in {0, 1, -1}^n in ``itertools.product`` order."""
    points = np.array([w.x for w in candidate_witnesses(n)], dtype=float)
    if n <= 6:
        codes = np.arange(1, 3**n)  # code 0 is the zero pattern
        digits = codes[:, None] // 3 ** np.arange(n - 1, -1, -1) % 3
        points = np.concatenate([points, np.array([0.0, 1.0, -1.0])[digits]])
    return points / np.sqrt(np.einsum("bi,bi->b", points, points))[:, None]


def _descend_rows(hankel: np.ndarray, m: int, x: np.ndarray):
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
    f, grad = _values_and_gradients(x, hankel, m)
    eta = np.full(len(x), ETA0)
    checkpoint = f.copy()
    for iteration in range(1, MAX_ITERATIONS + 1):
        # Carry each row's last successful step size forward and let it grow;
        # on degenerate minima the useful step size diverges, and resetting to
        # ETA0 every iteration would trap the descent in a power-law tail.
        trial = np.minimum(eta * 2.0, ETA_MAX)
        fy, y, gy = f.copy(), x.copy(), grad.copy()
        pending = np.arange(len(live))
        for _ in range(MAX_HALVINGS + 1):
            yp = x[pending] - trial[pending, None] * grad[pending]
            norm = np.sqrt(np.einsum("bi,bi->b", yp, yp))
            yp /= norm[:, None]
            fp, gp = _values_and_gradients(yp, hankel, m)
            hit = (norm != 0.0) & np.isfinite(norm) & (fp < f[pending])
            rows = pending[hit]
            fy[rows], y[rows], gy[rows], eta[rows] = fp[hit], yp[hit], gp[hit], trial[rows]
            pending = pending[~hit]
            if not pending.size:
                break
            trial[pending] *= 0.5
        # Stop where f fell by less than PLATEAU_TOL.  A row that found no
        # decreasing step kept fy = f and stops here too; the negated >= also
        # stops rows whose value is NaN.
        stop = ~(f - fy >= PLATEAU_TOL * (1.0 + np.abs(fy)))
        if iteration % COARSE_WINDOW == 0:
            stop |= checkpoint - fy < COARSE_WINDOW * COARSE_TOL * (1.0 + np.abs(fy))
            checkpoint = fy
        f_out[live[stop]], x_out[live[stop]] = fy[stop], y[stop]
        go = ~stop
        live, x, f, grad = live[go], y[go], fy[go], gy[go]
        eta, checkpoint = eta[go], checkpoint[go]
        if not live.size:
            break
    f_out[live], x_out[live], converged[live] = f, x, False
    return f_out, x_out, converged


def sphere_min(gen: GeneratingVector, starts: int = 64, rng_seed: int = 0) -> SphereMinResult:
    """Best point found over seeded candidates plus ``starts`` descents.

    Candidates come first, in a fixed order: every witness-family member that
    fits the dimension, then (for n <= 6) every nonzero sign pattern in
    {-1, 0, 1}^n.  Then the descents run from RNG unit vectors.  The result
    is deterministic for fixed (gen, starts, rng_seed); ties keep the
    earliest point in this fixed ordering.
    """
    if gen.m % 2 != 0:
        raise ValueError(f"sphere search needs even order, got m={gen.m}")
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    n, m = gen.n, gen.m
    rng = SplitMix64(rng_seed)
    starts_x = np.array([rng.unit_vector(n) for _ in range(starts)])
    candidates = _candidates(n)
    hankel = sliding_window_view(np.array(gen.v, dtype=float), n)
    with np.errstate(all="ignore"):
        candidate_f = eval_rows(gen, candidates)
        runs = [_descend_rows(hankel, m, x0) for x0 in _blocks(starts_x)]
    values = np.concatenate([candidate_f] + [f for f, _, _ in runs])
    points = np.concatenate([candidates] + [x for _, x, _ in runs])
    values[np.isnan(values)] = math.inf  # as with `<`, NaN never becomes the best
    best = int(np.argmin(values))  # earliest of equal minima
    argmin = tuple(points[best].tolist()) if values[best] < math.inf else None
    return SphereMinResult(
        min_value=math.inf if argmin is None else eval_fast(gen, argmin),
        argmin=argmin,
        starts=starts,
        converged_starts=sum(int(ok.sum()) for _, _, ok in runs),
        rng_seed=rng_seed,
    )


@dataclass(frozen=True)
class MatrixPsdResult:
    passed: bool
    min_eigenvalue: float
    eigenvalues: tuple
    sweeps: int

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "min_eigenvalue": self.min_eigenvalue,
            "eigenvalues": list(self.eigenvalues),
            "sweeps": self.sweeps,
        }


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

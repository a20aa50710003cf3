"""Positive semidefiniteness of generalized anti-circulant Hankel tensors.

Construct Hankel tensors from generating vectors, classify positive
semidefiniteness through closed-form seed criteria, emit power-sum and
strong-Hankel certificates checked by exact identity
(``strong_hankel_check``) or explicit negative witnesses, and cross-check
everything against exact combinatorics and an independent numerical
sphere-minimization oracle.

The package root holds the Library API of the README; everything else is
reached through its module (``anticirculant.polyeval``, ``.combinatorics``, ...).
``matrix_psd`` (a numerical PSD test of a symmetric matrix from LAPACK's
eigenvalues) and ``sphere_min`` resolve on first access, so that importing
the package does not import numpy.
"""

from .classifier import Status, Verdict, classify, strong_hankel_check, verify_power_sum
from .polyeval import eval_fast
from .tensor import CirculantSpec, GeneratingVector, expand, hankel_matrix

__version__ = "0.1.0"

_FROM_ORACLE = ("matrix_psd", "sphere_min")


def __getattr__(name: str):
    if name in _FROM_ORACLE:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_FROM_ORACLE))

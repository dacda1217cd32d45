"""Finite-dimensional model of the state and noise spaces.

Everything lives in R^n: the state space H is R^{dim_H} with the Euclidean
inner product, and the noise space U is R^{dim_U} in a basis that
diagonalizes the covariance operator.  In finite dimensions all operators are
bounded and the smoothness space G is H itself, so no grading is modeled.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "CovOperator",
    "HSOperator",
    "hs_norm",
    "as_matrix",
]


def _integer_in(value, name, least, most=np.inf):
    """value as an int if it is a Python or numpy integer, not a bool, in [least, most]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not least <= int(value) <= most:
        raise ValueError(f"{name} must lie in [{least}, {most}], got {value}")
    return int(value)


def _readonly(a):
    """A read-only float copy of a, the one way a value object holds an array."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _readonly_fields(obj, *names):
    """Replace each named field of the frozen dataclass obj by its `_readonly` copy."""
    for name in names:
        object.__setattr__(obj, name, _readonly(getattr(obj, name)))


@dataclass(frozen=True, eq=False)
class CovOperator:
    """Covariance operator of the driving noise, diagonal in the canonical basis.

    ``q`` holds the nonnegative eigenvalues.  ``cylindrical`` records that the
    modeled operator has infinite trace and ``q`` is a finite-mode stand-in;
    the flag is bookkeeping only, every computation uses the listed modes.
    """

    q: np.ndarray
    cylindrical: bool = False

    def __post_init__(self):
        _readonly_fields(self, "q")
        if self.q.ndim != 1 or self.q.size < 1:
            raise ValueError("q must be a nonempty vector of eigenvalues")
        if not np.all(np.isfinite(self.q)) or np.any(self.q < 0):
            raise ValueError("covariance eigenvalues must be finite and >= 0")

    @property
    def dim(self):
        return self.q.size

    @property
    def trace(self):
        return float(np.sum(self.q))

    @classmethod
    def cylindrical_truncation(cls, modes):
        """Identity covariance on `modes` modes, flagged as a cylindrical stand-in."""
        return cls(np.ones(modes), cylindrical=True)


@dataclass(frozen=True, eq=False)
class HSOperator:
    """A bounded operator from the noise space into the state space, as a matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        _readonly_fields(self, "matrix")
        if self.matrix.ndim != 2:
            raise ValueError(f"expected a matrix, got array of ndim {self.matrix.ndim}")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("operator entries must be finite")


def as_matrix(B):
    """The matrix of an HSOperator, or of a plain array made one: a read-only float copy,
    finite and two-dimensional (ValueError otherwise)."""
    return B.matrix if isinstance(B, HSOperator) else HSOperator(B).matrix


def _square(A, name):
    """`as_matrix(A)`, which must be square (ValueError naming it otherwise)."""
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    return A


def _vector(x, name, d=None):
    """A read-only float copy of the vector x, finite and of length d when d is given."""
    x = _readonly(x)
    if x.ndim != 1 or d not in (None, x.size):
        raise DimensionMismatch(f"{name} shape", x.shape, (d,))
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must have finite entries")
    return x


def hs_norm(B, Q):
    """Hilbert-Schmidt norm of B with respect to the covariance Q.

    Because the canonical basis diagonalizes Q, the norm reduces to
    sqrt(sum_k q_k |column_k(B)|^2), which equals sqrt(Tr(B Q B')).
    Zero exactly when B vanishes on the modes Q charges.  Q is a CovOperator or its
    eigenvalues, checked as one.
    """
    m = as_matrix(B)
    q = (Q if isinstance(Q, CovOperator) else CovOperator(Q)).q
    if m.shape[1] != q.size:
        raise DimensionMismatch("operator columns vs covariance modes", m.shape, (q.size,))
    return float(np.sqrt(np.sum(q * np.sum(m * m, axis=0))))

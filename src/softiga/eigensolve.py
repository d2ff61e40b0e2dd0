"""Symmetric-definite generalized eigensolver with a residual contract.

The solve reduces A v = lambda B v to a standard symmetric problem via
the Cholesky factor of B, tridiagonalizes, and runs implicit-shift QR
(the LAPACK sygv path). Eigenvalues are then refined by one Rayleigh
quotient per pair, v^T A v / v^T B v, which restores per-mode relative
accuracy near machine precision; the plain factorized solve only bounds
the absolute error by eps times the largest eigenvalue, i.e. the small
end of a stiff spectrum would carry relative errors around 1e-13.

Assembled operators arrive in symmetric band storage (SymBandedMatrix);
definiteness checks on them factor the band directly.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack


class DefinitenessError(ArithmeticError):
    """A matrix required to be positive definite is not.

    Attributes
    ----------
    pivot : int
        1-based index of the first non-positive Cholesky pivot.
    """

    def __init__(self, pivot, message="matrix is not positive definite"):
        super().__init__(f"{message} (leading minor of order {pivot})")
        self.pivot = pivot


class EigenSolveError(RuntimeError):
    """The QR iteration failed to converge within bounded sweeps."""


@dataclass(frozen=True)
class SymBandedMatrix:
    """Symmetric banded matrix stored by diagonal.

    Attributes
    ----------
    diagonals : tuple of ndarray
        ``diagonals[k]`` holds the k-th subdiagonal (length n - k);
        ``diagonals[0]`` is the main diagonal. Everything beyond
        ``half_bandwidth`` is exactly zero and not stored.
    scale : str
        Annotation of the entry magnitude class: "1/h", "h", or "1".
    """

    diagonals: tuple
    scale: str = "1"

    @property
    def n(self):
        return len(self.diagonals[0])

    @property
    def half_bandwidth(self):
        return len(self.diagonals) - 1

    def entry(self, i, j):
        k = abs(i - j)
        if k > self.half_bandwidth:
            return self.diagonals[0][0] * 0
        return self.diagonals[k][min(i, j)]

    def toarray(self):
        n = self.n
        out = np.zeros((n, n), dtype=self.diagonals[0].dtype)
        flat = out.reshape(-1)
        for k, diag in enumerate(self.diagonals):
            # entries (i + k, i) and (i, i + k) are n + 1 apart in memory
            flat[k * n::n + 1] = diag
            flat[k:(n - k) * n:n + 1] = diag
        return out

    def row(self, i):
        out = np.zeros(self.n, dtype=self.diagonals[0].dtype)
        for k, diag in enumerate(self.diagonals):
            if i >= k:
                out[i - k] = diag[i - k]
            if i + k < self.n:
                out[i + k] = diag[i]
        return out

    def principal(self, lo, hi):
        """The principal submatrix on rows and columns lo..hi-1."""
        return SymBandedMatrix(tuple(d[lo:hi - k] for k, d
                                     in enumerate(self.diagonals)
                                     if k < hi - lo), self.scale)

    @classmethod
    def from_dense(cls, A, scale="1"):
        """Fold a (nearly) symmetric dense array into banded storage."""
        A = np.asarray(A)
        sym = (A + A.T) / 2  # exact for object (rational) entries too
        diagonals = [np.diagonal(sym, -k).copy()
                     for k in range(sym.shape[0])]
        hbw = max((k for k in range(1, len(diagonals))
                   if np.any(diagonals[k] != 0)), default=0)
        return cls(tuple(diagonals[:hbw + 1]), scale)


RESIDUAL_RTOL = 1e-10


def _as_dense(A):
    if hasattr(A, "toarray"):
        A = A.toarray()
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def cholesky_pivot(B):
    """0 if B is positive definite, else the 1-based failing pivot.

    A SymBandedMatrix is factored in band storage, in O(n * hbw^2).
    """
    if isinstance(B, SymBandedMatrix):
        ab = np.zeros((B.half_bandwidth + 1, B.n))
        for k, diag in enumerate(B.diagonals):
            ab[k, :B.n - k] = diag
        _, info = lapack.dpbtrf(ab, lower=1)
    else:
        _, info = lapack.dpotrf(_as_dense(B), lower=1)
    return int(info) if info > 0 else 0


@dataclass(frozen=True)
class Spectrum:
    """Full solution of a symmetric-definite pencil.

    Attributes
    ----------
    values : ndarray
        Eigenvalues, ascending.
    vectors : ndarray
        Eigenvectors as columns, B-orthonormal, largest-magnitude
        component positive.
    residuals : ndarray
        ||A v - lambda B v||_2 per pair.
    residual_bounds : ndarray
        Contract bound per pair, RESIDUAL_RTOL*(||A||_F + |lambda| ||B||_F).
    meta : dict
        Pencil metadata (p, N, eta, ...), informational.
    """

    values: np.ndarray
    vectors: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    residual_bounds: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)

    @property
    def n(self):
        return len(self.values)

    @property
    def lam_min(self):
        return float(self.values[0])

    @property
    def lam_max(self):
        return float(self.values[-1])


def generalized_eig(A, B, meta=None):
    """Solve A v = lambda B v for symmetric A and SPD B.

    Parameters
    ----------
    A, B : array or SymBandedMatrix
        Same order; A symmetric, B symmetric positive definite.
    meta : dict, optional
        Attached to the returned Spectrum untouched.

    Returns
    -------
    Spectrum

    Raises
    ------
    DefinitenessError
        If B fails its Cholesky factorization; carries the pivot index.
    EigenSolveError
        If the iteration does not converge.
    """
    A = _as_dense(A)
    B = _as_dense(B)
    if A.shape != B.shape:
        raise ValueError(f"order mismatch: {A.shape} vs {B.shape}")
    A = (A + A.T) / 2.0
    B = (B + B.T) / 2.0
    pivot = cholesky_pivot(B)
    if pivot:
        raise DefinitenessError(pivot)
    try:
        w, V = sla.eigh(A, B)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise EigenSolveError(str(exc)) from exc

    # deterministic sign: largest-magnitude component positive
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    V = V * signs

    AV = A @ V
    BV = B @ V
    w = np.einsum("ij,ij->j", V, AV) / np.einsum("ij,ij->j", V, BV)
    order = np.argsort(w, kind="stable")
    w, V, AV, BV = w[order], V[:, order], AV[:, order], BV[:, order]

    if not np.all(np.isfinite(w)) or not np.all(np.isfinite(V)):
        raise EigenSolveError("non-finite values in eigensolution")

    residuals = np.linalg.norm(AV - BV * w, axis=0)
    bounds = RESIDUAL_RTOL * (np.linalg.norm(A) + np.abs(w) * np.linalg.norm(B))
    return Spectrum(w, V, residuals, bounds, dict(meta or {}))

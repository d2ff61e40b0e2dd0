"""Symmetric-definite generalized eigensolver with a residual contract.

The solve reduces A v = lambda B v to a standard symmetric problem via
the Cholesky factor of B, tridiagonalizes, and runs implicit-shift QR
(the LAPACK sygv path). Eigenvalues are then refined by one Rayleigh
quotient per pair, v^T A v / v^T B v, which restores per-mode relative
accuracy near machine precision; the plain factorized solve only bounds
the absolute error by eps times the largest eigenvalue, i.e. the small
end of a stiff spectrum would carry relative errors around 1e-13.

Assembled operators arrive in LAPACK lower band storage
(SymBandedMatrix): one (hbw + 1, n) array whose row k holds the k-th
subdiagonal, ``band[k, i]`` = entry (i + k, i). Definiteness checks hand
that array to ``dpbtrf`` as it is.
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
    """Symmetric banded matrix in LAPACK lower band storage.

    Attributes
    ----------
    band : ndarray, shape (half_bandwidth + 1, n)
        ``band[k, i]`` is entry (i + k, i); the last k slots of row k
        lie past the matrix and are zero. Entries beyond the half
        bandwidth are exactly zero and not stored.
    """

    band: np.ndarray

    @property
    def n(self):
        return self.band.shape[1]

    @property
    def half_bandwidth(self):
        return self.band.shape[0] - 1

    def entry(self, i, j):
        k = abs(i - j)
        if k > self.half_bandwidth:
            return self.band[0, 0] * 0
        return self.band[k, min(i, j)]

    def toarray(self):
        """Dense copy; reads only the slots inside the matrix."""
        n = self.n
        out = np.zeros((n, n), dtype=self.band.dtype)
        flat = out.reshape(-1)
        for k, diag in enumerate(self.band):
            # entries (i + k, i) and (i, i + k) are n + 1 apart in memory
            flat[k * n::n + 1] = diag[:n - k]
            flat[k:(n - k) * n:n + 1] = diag[:n - k]
        return out

    def principal(self, lo, hi):
        """The dense principal submatrix on rows and columns lo..hi-1."""
        # the window's slots past its end are never read by toarray
        return SymBandedMatrix(self.band[:hi - lo, lo:hi]).toarray()

    def plus(self, weight, other):
        """self + weight * other, in the dtype of both bands."""
        count = max(len(self.band), len(other.band))
        dtype = np.result_type(self.band, other.band)
        band = np.zeros((count, self.n), dtype=dtype)
        band[:len(self.band)] += self.band
        band[:len(other.band)] += weight * other.band
        return SymBandedMatrix(band)


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
        _, info = lapack.dpbtrf(B.band, lower=1)
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

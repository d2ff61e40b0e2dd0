"""Symmetric-definite generalized eigensolver with a residual contract.

The solve reduces A v = lambda B v to a standard symmetric problem via
the Cholesky factor of B, tridiagonalizes, and runs implicit-shift QR
(the LAPACK sygv path). Eigenvalues are then refined by one Rayleigh
quotient per pair, v^T A v / v^T B v, with the assembled float
operators. That does not reach machine precision on the low modes: in
the interior the operators are a differencing stencil whose entry
errors of eps*||A|| move every quotient by about eps*lambda_max, a
relative error of about eps*lambda_max/lambda_j. Against the closed
form at the default weight, lambda_1 at p = 2, N = 2000 is off by
2.3e-11 to 2.4e-11 relative.

Both sides of the pencil arrive in LAPACK lower band storage
(SymBandedMatrix), the one matrix type every function of the package
takes: one (hbw + 1, n) array whose row k holds the k-th subdiagonal,
``band[k, i]`` = entry (i + k, i). The definiteness check hands that
array to ``dpbtrf`` as it is, in O(n * hbw^2); the solve densifies each
side once, and dense arrays live only inside it. Its peak memory is
about 8 n^2 doubles, so an order above ``MAX_DENSE_ORDER`` is refused
before anything dense is allocated.

A solve returns a ``Spectrum``: the eigenvalues, the B-orthonormal
eigenvectors and the residual contract of every pair, nothing more.
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


@dataclass(frozen=True, eq=False)
class SymBandedMatrix:
    """Symmetric banded matrix in LAPACK lower band storage.

    Instances compare and hash by identity; compare ``band`` arrays to
    compare entries.

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

# Largest order the dense solve accepts: 8 n^2 doubles is about 1.6 GB.
MAX_DENSE_ORDER = 5000


def cholesky_pivot(B):
    """0 if the SymBandedMatrix B is positive definite, else the 1-based
    failing pivot; factored in band storage, in O(n * hbw^2)."""
    _, info = lapack.dpbtrf(B.band, lower=1)
    return int(info) if info > 0 else 0


@dataclass(frozen=True, eq=False)
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
    """

    values: np.ndarray
    vectors: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    residual_bounds: np.ndarray = field(repr=False)

    @property
    def n(self):
        return len(self.values)

    @property
    def lam_min(self):
        return float(self.values[0])

    @property
    def lam_max(self):
        return float(self.values[-1])


def generalized_eig(A, B):
    """Solve A v = lambda B v for symmetric A and SPD B.

    Parameters
    ----------
    A, B : SymBandedMatrix
        Same order; B positive definite. Entries of any real dtype,
        Fraction included, are solved in double precision.

    Returns
    -------
    Spectrum

    Raises
    ------
    ValueError
        On an order mismatch, or, before densifying, for an order above
        ``MAX_DENSE_ORDER``.
    DefinitenessError
        If B fails its Cholesky factorization; carries the pivot index.
    EigenSolveError
        If the iteration does not converge.
    """
    if A.n != B.n:
        raise ValueError(f"order mismatch: {A.n} vs {B.n}")
    if A.n > MAX_DENSE_ORDER:
        raise ValueError(f"a dense solve of order {A.n} is above the limit"
                         f" of {MAX_DENSE_ORDER}")
    pivot = cholesky_pivot(B)
    if pivot:
        raise DefinitenessError(pivot)
    # exact (Fraction) bands are solved in double precision too
    A, B = (np.asarray(X.toarray(), dtype=float) for X in (A, B))
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
    return Spectrum(w, V, residuals, bounds)

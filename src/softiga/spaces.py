"""Trial spaces as extraction operators over raw B-splines.

Two flavors share one representation, which does not record the
flavor: a (dim x raw) extraction operator whose rows express each space
basis function in raw coordinates. It is the identity away from the
boundary, so a space stores only its two corner blocks; the dense
matrix is built on request.

* standard: drop the two endpoint-interpolatory raw functions, which
  imposes homogeneous Dirichlet conditions; dim = N + p - 2.
* outlier_free: additionally force even boundary derivatives up to
  order 2*alpha_p to vanish, alpha_p = floor((p-1)/2); dim = N - 1 for
  odd p and N for even p. For p <= 2 no extra constraint binds, so the
  two flavors are one space.

The constrained boundary basis is any orthonormal null-space basis of
the boundary constraint matrix; the pencil spectrum does not depend on
that choice. The right-end basis mirrors the left-end one, which keeps
assembled matrices exactly persymmetric on the uniform mesh.
"""

from dataclasses import dataclass, field

import numpy as np

from .splines import KnotVector, eval_basis, open_knot_vector


@dataclass(frozen=True)
class SplineSpace:
    """A trial space spanned by extraction rows over raw B-splines.

    The extraction is stored by its corners. With ``left`` of shape
    (a, c) and ``right`` of shape (b, e), the first a members are the
    rows of ``left`` over raw functions 0..c-1, the last b members are
    the rows of ``right`` over the last e raw functions, and every
    member in between is one raw function. A dense (dim x raw)
    extraction passed as ``left`` alone is the case with no identity
    part.
    """

    kv: KnotVector
    left: np.ndarray
    right: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    @property
    def inner(self):
        """Number of members that are single raw functions."""
        return self.kv.num_raw - self.left.shape[1] - self.right.shape[1]

    @property
    def dim(self):
        return self.left.shape[0] + self.inner + self.right.shape[0]

    @property
    def extraction(self):
        """The dense (dim x raw) extraction matrix, rows independent."""
        return self.raw_coefficients(np.eye(self.dim)).T

    def raw_coefficients(self, coeffs):
        """Raw coordinates E^T c of members with coefficients c.

        ``coeffs`` has the space dimension as its first axis; further
        axes (several coefficient vectors as columns) are kept.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        (a, c), (b, e) = self.left.shape, self.right.shape
        out = np.empty((self.kv.num_raw,) + coeffs.shape[1:])
        out[:c] = self.left.T @ coeffs[:a]
        out[c:c + self.inner] = coeffs[a:a + self.inner]
        out[c + self.inner:] = self.right.T @ coeffs[a + self.inner:]
        return out


# Corner block that drops the endpoint raw function and keeps nothing.
_ENDPOINT = np.zeros((0, 1))


def build_standard_space(p, N):
    """Space of all raw functions except the two endpoint ones."""
    kv = open_knot_vector(p, N)
    raw = kv.num_raw
    if raw < 3:
        raise ValueError(f"no interior functions for p={p}, N={N}")
    return SplineSpace(kv, _ENDPOINT, _ENDPOINT)


def _boundary_constraints(kv, m, alpha):
    """Constraint rows: even derivatives 0..2*alpha of the first m raw
    functions at x=0, one row per order, unit-normalized."""
    rows = eval_basis(kv, 0.0, 2 * alpha).ders[::2, :m]
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _left_null_basis(kv, m, alpha):
    """Orthonormal, sign-fixed basis of the boundary null space."""
    C = _boundary_constraints(kv, m, alpha)
    u, s, vt = np.linalg.svd(C)
    if s[-1] < 1e-8:
        raise ValueError("boundary constraint system is rank-deficient")
    null = vt[alpha + 1:]
    # canonical order and sign: sort by peak position, peak made positive
    peaks = [int(np.argmax(np.abs(row))) for row in null]
    null = null[np.argsort(peaks, kind="stable")]
    for row in null:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return null


def build_of_space(p, N):
    """Outlier-free space: even boundary derivatives vanish to 2*alpha_p.

    Parameters
    ----------
    p, N : int
        Degree and element count. N must be large enough that the two
        boundary constraint blocks decouple:
        N >= max(2*alpha_p + 2, 4*alpha_p + 2 - p).

    Returns
    -------
    SplineSpace. For p <= 2 no constraint binds, and the result is
    ``build_standard_space(p, N)`` itself.
    """
    alpha = (p - 1) // 2
    if p <= 2:
        return build_standard_space(p, N)
    n_min = max(2 * alpha + 2, 4 * alpha + 2 - p)
    if N < n_min:
        raise ValueError(
            f"p={p} needs N >= {n_min} for the boundary blocks to decouple")
    kv = open_knot_vector(p, N)
    m = 2 * alpha + 1  # raw functions with a constrained boundary trace
    left = _left_null_basis(kv, m, alpha)
    # mirrored right block, reversed row order for persymmetry
    return SplineSpace(kv, left, left[::-1, ::-1].copy())


def space_dimension(p, N, flavor):
    """Dimension of the space ``flavor`` of degree p on N elements,
    without building it."""
    if flavor == "standard":
        return N + p - 2
    if flavor == "outlier_free":
        return N + p - 2 - 2 * ((p - 1) // 2)
    raise ValueError(f"unknown space flavor {flavor!r}")


"""Banded assembly of the stiffness, mass, and softness forms.

Every operator is assembled straight into symmetric band storage in
O(N * p^2) work; no dense matrix of the raw or space dimension is ever
formed.

Per-element Gauss-Legendre quadrature with p+1 points is exact through
polynomial degree 2p+1, so stiffness and mass entries are exact up to
round-off. On the uniform open knot vector all elements but the p-1 at
each end are translates of one another, so the basis is evaluated once
per distinct element, and all three forms read one table
(``splines.basis_table``): derivatives 0..p at the p+1 Gauss points and
at the element midpoint. The stiffness and mass element matrices come
from one ``einsum`` each over its rows 1 and 0 at the Gauss points, and
they are added into the raw band one (row, column) slot at a time
across all elements.

The softness form needs no quadrature at all: in 1D a face is a point
and the form is a weighted sum of p-th-derivative jump products,

    s(w, v) = sum over interior faces of h^(2p-1) * [d^p w][d^p v]
            + (even p only) 2 * sum over the two boundary faces.

The p-th derivative is constant on each element, so the jump at face f
touches only raw functions f-1..f+p and comes from row p of the same
table at the midpoint.

The space extraction is the identity away from the boundary; it is
applied to the two corner blocks alone, each widened by the raw half
bandwidth (p, or p+1 for the softness form) so that every coupling of a
boundary member is covered. On tiny meshes whose corners meet, one
block covers the whole matrix.

The raw bands depend only on the knot vector, so the spaces of one
mesh can share them: ``build_soft_system`` assembles them once into a
list its caller passes to the next build, and extracts each space from
them. The three bands of a space are the ``stiffness``, ``mass`` and
``softness`` of its ``SoftSystem``.

Every band, raw or extracted, is one LAPACK lower band array
(``SymBandedMatrix.band``, row k the k-th subdiagonal), so the
definiteness check factors it with no repacking.
"""

import dataclasses
import math
import warnings

import numpy as np

from .analytic import eta_table
from .eigensolve import SymBandedMatrix, _column_dots
from .spaces import SplineSpace, build_of_space, build_standard_space
from .splines import basis_table, gauss_rule


class IndefinitenessWarning(UserWarning):
    """Softness weight at or beyond the sharp threshold."""


@dataclasses.dataclass(frozen=True, eq=False)
class SoftSystem:
    """The softened generalized eigenvalue pencil on the OF space.

    A = stiffness - eta * softness, and the mass side carries the
    dimensionless weight of the printed pencil, B = mass +
    eta_b * h^2 * softness. Only the three banded operators are stored;
    A and B are built from them, as bands, on access. Instances compare
    and hash by identity.
    """

    eta: float
    eta_b: float
    space: SplineSpace
    stiffness: SymBandedMatrix
    mass: SymBandedMatrix
    softness: SymBandedMatrix

    @property
    def A(self):
        """Stiffness side K - eta * S."""
        return self.stiffness.plus(-self.eta, self.softness)

    @property
    def B(self):
        """Mass side M + eta_b * h^2 * S."""
        h = self.space.kv.h
        return self.mass.plus(self.eta_b * h * h, self.softness)

    def energies(self, X):
        """Per-mode stiffness, mass and softness energies of the columns
        X, from one block band product per operator.

        Returns ((k, m, s), (KX, MX, SX)): k_j = x_j^T K x_j, m_j and
        s_j likewise, and the three products they were read from. A
        column's energies are the same bits in a block of any width.
        """
        products = tuple(op.matvec(X) for op in (self.stiffness, self.mass,
                                                  self.softness))
        return tuple(_column_dots(X, Y) for Y in products), products

    def with_weights(self, eta, eta_b=0.0):
        """The same operators under other softness weights.

        Runs the checks of ``build_soft_system`` without reassembling.
        """
        eta, eta_b = _checked_weights(self.space.kv.p, eta, eta_b)
        return dataclasses.replace(self, eta=eta, eta_b=eta_b)


def _checked_weights(p, eta, eta_b):
    """Weights as floats; warns at or beyond the sharp threshold."""
    eta, eta_b = float(eta), float(eta_b)
    if not (math.isfinite(eta) and math.isfinite(eta_b)):
        raise ValueError("softness weights must be finite")
    if eta < 0 or eta_b < 0:
        raise ValueError("softness weights must be nonnegative")
    sharp = eta_table().sharp_max.get(p)
    if sharp is not None and eta >= float(sharp):
        # stacklevel 3: the caller of build_soft_system or with_weights
        warnings.warn(
            f"eta={eta} is at or beyond the sharp threshold {float(sharp)}"
            f" for p={p}; the stiffness side may be indefinite",
            IndefinitenessWarning, stacklevel=3)
    return eta, eta_b


def _raw_band(num_raw, blocks, index):
    """Raw band of the sum over i of blocks[index[i]], each (w x w)
    block placed on raw functions i..i+w-1."""
    w = blocks.shape[-1]
    band = np.zeros((min(w, num_raw), num_raw))
    for a in range(w):
        for b in range(a, min(w, a + len(band))):
            band[b - a, a:a + len(index)] += blocks[index, a, b]
    return band


def _raw_operators(kv):
    """Raw bands [K, M, S] of the stiffness, mass and softness forms,
    from one basis table of derivatives 0..p at the p+1 Gauss points
    and the element midpoint.

    The jump at interior face f lives on raw functions f-1..f+p: the
    left limit on element f-1 minus the right limit on element f, both
    rows of the per-element table.
    """
    p, N, h = kv.p, kv.N, kv.h
    x, w = gauss_rule(p + 1)
    ders, index = basis_table(kv, np.append((x + 1.0) / 2.0, 0.5), p)
    raw = []
    for deriv in (1, 0):
        values = ders[:, :-1, deriv, :]
        blocks = np.einsum("q,dqi,dqj->dij", w * (h / 2.0), values, values)
        raw.append(SymBandedMatrix(_raw_band(kv.num_raw, blocks, index)))
    pth = ders[:, -1, p, :]  # the p-th derivative is constant per element
    # a jump depends only on the table rows of its two elements, so one
    # block per distinct pair of rows serves every face
    pairs, face = np.unique(index[:-1] * len(pth) + index[1:],
                            return_inverse=True)
    left, right = np.divmod(pairs, len(pth))
    jumps = np.zeros((len(pairs), p + 2))
    jumps[:, :p + 1] = pth[left]
    jumps[:, 1:] -= pth[right]
    blocks = np.einsum("fi,fj->fij", jumps, jumps)
    band = _raw_band(kv.num_raw, blocks, face)
    if p % 2 == 0:
        # boundary faces: twice the one-sided trace products
        for first, trace in ((0, pth[index[0]]), (N - 1, pth[index[-1]])):
            for k in range(p + 1):
                band[k, first:first + p + 1 - k] += (
                    2.0 * trace[:p + 1 - k] * trace[k:])
    raw.append(SymBandedMatrix(h ** (2 * p - 1) * band))
    return raw


def _block_diag(first, second):
    """The block-diagonal matrix with blocks first and second."""
    (r, c), (s, t) = first.shape, second.shape
    W = np.zeros((r + s, c + t))
    W[:r, :c] = first
    W[r:, c:] = second
    return W


def _extract(space, raw):
    """Space operator E R E^T in band storage from the raw band R.

    The identity rows of E copy the raw band. A corner member
    couples only with the next q raw functions, q the raw half
    bandwidth, so each corner is computed densely on a window of its
    block plus q identity rows. When fewer than q identity members
    separate the corners, one window covers the whole (small) matrix.
    """
    q, dim, num_raw = raw.half_bandwidth, space.dim, raw.n
    (a, c), (b, e) = space.left.shape, space.right.shape
    inner = space.inner
    if inner < q:
        hbw = dim - 1
        windows = [(space.extraction, 0, 0)]
    else:
        hbw = max(q, a + q - 1, b + q - 1)
        windows = [(_block_diag(space.left, np.eye(q)), 0, 0),
                   (_block_diag(np.eye(q), space.right), dim - b - q,
                    num_raw - e - q)]
    band = np.zeros((hbw + 1, dim))
    if inner >= q:
        for k in range(q + 1):
            band[k, a:a + inner - k] = raw.band[k, c:c + inner - k]
    for W, space_start, raw_start in windows:
        R = raw.principal(raw_start, raw_start + W.shape[1])
        block = W @ R @ W.T
        for k in range(min(hbw + 1, len(block))):
            band[k, space_start:space_start + len(block) - k] = (
                np.diagonal(block, -k))
    return SymBandedMatrix(band)


def build_soft_system(p, N, eta, eta_b=0.0, flavor="outlier_free",
                      raw=None):
    """Assemble the softened pencil (A, B).

    Parameters
    ----------
    p, N : int
        Degree and element count.
    eta : float
        Softness weight, >= 0. A warning is issued at or beyond the
        sharp admissibility threshold, where A may turn indefinite.
    eta_b : float
        Mass-side softness weight, >= 0. The solvers refuse a mass side
        that is not positive definite.
    flavor : {"outlier_free", "standard"}
        Trial space; the plain Galerkin baseline uses "standard" with
        eta = 0.
    raw : list, optional
        The raw stiffness, mass and softness bands of the knot vector,
        shared by the spaces built on it: an empty list receives them
        from the raw assembly, and a filled one is extracted as it is,
        with no assembly. Two builds on one mesh, on one space or on
        both, then cost one raw assembly and one extraction each.

    Returns
    -------
    SoftSystem
    """
    eta, eta_b = _checked_weights(p, eta, eta_b)
    if flavor == "standard":
        space = build_standard_space(p, N)
    elif flavor == "outlier_free":
        space = build_of_space(p, N)
    else:
        raise ValueError(f"unknown space flavor {flavor!r}")
    if raw is None:
        raw = []
    if not raw:
        raw += _raw_operators(space.kv)
    K, M, S = (_extract(space, band) for band in raw)
    return SoftSystem(eta, eta_b, space, K, M, S)

"""Banded assembly of the stiffness, mass, and softness forms.

Every operator is assembled straight into symmetric band storage in
O(N * p^2) work; no dense matrix of the raw or space dimension is ever
formed.

Per-element Gauss-Legendre quadrature with p+1 points is exact through
polynomial degree 2p+1, so stiffness and mass entries are exact up to
round-off. On the uniform open knot vector all elements but the p-1 at
each end are translates of one another, so the basis is evaluated once
per distinct element (``splines.basis_table``), the element matrices
come from one ``einsum`` over that table, and they are added into the
raw band one (row, column) slot at a time across all elements.

The softness form needs no quadrature at all: in 1D a face is a point
and the form is a weighted sum of p-th-derivative jump products,

    s(w, v) = sum over interior faces of h^(2p-1) * [d^p w][d^p v]
            + (even p only) 2 * sum over the two boundary faces.

The p-th derivative is constant on each element, so the jump at face f
touches only raw functions f-1..f+p and comes from the same table.

The space extraction is the identity away from the boundary; it is
applied to the two corner blocks alone, each widened by the raw half
bandwidth (p, or p+1 for the softness form) so that every coupling of a
boundary member is covered. On tiny meshes whose corners meet, one
block covers the whole matrix.

Every band, raw or extracted, is one LAPACK lower band array
(``SymBandedMatrix.band``, row k the k-th subdiagonal), so the
definiteness check factors it with no repacking.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .analytic import eta_table
from .eigensolve import DefinitenessError, SymBandedMatrix, cholesky_pivot
from .spaces import SplineSpace, build_of_space, build_standard_space
from .splines import basis_table


class IndefinitenessWarning(UserWarning):
    """Softness weight at or beyond the sharp threshold."""


@dataclass(frozen=True)
class SoftSystem:
    """The softened generalized eigenvalue pencil on the OF space.

    A = stiffness - eta * softness, and the mass side carries the
    dimensionless weight of the printed pencil, B = mass +
    eta_b * h^2 * softness. Only the three banded operators are stored;
    A and B are built from them, as dense arrays, on access.
    """

    p: int
    N: int
    eta: float
    eta_b: float
    space: SplineSpace
    stiffness: SymBandedMatrix
    mass: SymBandedMatrix
    softness: SymBandedMatrix

    @property
    def A(self):
        """Stiffness side K - eta * S."""
        return self.stiffness.plus(-self.eta, self.softness).toarray()

    @property
    def B(self):
        """Mass side M + eta_b * h^2 * S."""
        return self._mass_side().toarray()

    def _mass_side(self):
        h = self.space.kv.h
        return self.mass.plus(self.eta_b * h * h, self.softness)

    def with_weights(self, eta, eta_b=0.0):
        """The same operators under other softness weights.

        Runs the checks of ``build_soft_system`` without reassembling.
        """
        eta, eta_b = _checked_weights(self.p, eta, eta_b)
        return _pencil(self.space, self.stiffness, self.mass,
                       self.softness, eta, eta_b)


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


def _pencil(space, K, M, S, eta, eta_b):
    system = SoftSystem(space.p, space.N, eta, eta_b, space, K, M, S)
    if eta_b > 0:
        pivot = cholesky_pivot(system._mass_side())
        if pivot:
            raise DefinitenessError(pivot, "mass side lost definiteness")
    return system


def _raw_band(num_raw, blocks, index):
    """Raw band of the sum over i of blocks[index[i]], each (w x w)
    block placed on raw functions i..i+w-1."""
    w = blocks.shape[-1]
    band = np.zeros((min(w, num_raw), num_raw))
    for a in range(w):
        for b in range(a, min(w, a + len(band))):
            band[b - a, a:a + len(index)] += blocks[index, a, b]
    return band


def _gram(kv, deriv):
    """Raw band of the deriv-th-derivative Gram matrix, Gauss p+1 points."""
    x, w = np.polynomial.legendre.leggauss(kv.p + 1)
    ders, index = basis_table(kv, (x + 1.0) / 2.0, deriv)
    values = ders[:, :, deriv, :]
    blocks = np.einsum("q,dqi,dqj->dij", w * (kv.h / 2.0), values, values)
    return SymBandedMatrix(_raw_band(kv.num_raw, blocks, index))


def _softness_raw(kv):
    """Raw band of the softness form from per-element p-th derivatives.

    The jump at interior face f lives on raw functions f-1..f+p: the
    left limit on element f-1 minus the right limit on element f, both
    rows of the per-element table.
    """
    p, N = kv.p, kv.N
    ders, index = basis_table(kv, [0.5], p)
    pth = ders[:, 0, p, :]  # the p-th derivative is constant per element
    jumps = np.zeros((N - 1, p + 2))
    jumps[:, :p + 1] = pth[index[:-1]]
    jumps[:, 1:] -= pth[index[1:]]
    blocks = np.einsum("fi,fj->fij", jumps, jumps)
    band = _raw_band(kv.num_raw, blocks, np.arange(N - 1))
    if p % 2 == 0:
        # boundary faces: twice the one-sided trace products
        for first, trace in ((0, pth[index[0]]), (N - 1, pth[index[-1]])):
            for k in range(p + 1):
                band[k, first:first + p + 1 - k] += (
                    2.0 * trace[:p + 1 - k] * trace[k:])
    return SymBandedMatrix(kv.h ** (2 * p - 1) * band)


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
        windows = [(sla.block_diag(space.left, np.eye(q)), 0, 0),
                   (sla.block_diag(np.eye(q), space.right), dim - b - q,
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


def assemble_stiffness(space):
    """Gram matrix of first derivatives, a(v, w) = (v', w')."""
    return _extract(space, _gram(space.kv, 1))


def assemble_mass(space):
    """Gram matrix of values, b(v, w) = (v, w)."""
    return _extract(space, _gram(space.kv, 0))


def assemble_softness(space):
    """Jump-penalty matrix of the softness form.

    Interior faces contribute h^(2p-1) times the product of the p-th
    derivative jumps; for even p the two boundary faces contribute twice
    the one-sided trace products on top.
    """
    return _extract(space, _softness_raw(space.kv))


def build_soft_system(p, N, eta, eta_b=0.0, flavor="outlier_free"):
    """Assemble the softened pencil (A, B).

    Parameters
    ----------
    p, N : int
        Degree and element count.
    eta : float
        Softness weight, >= 0. A warning is issued at or beyond the
        sharp admissibility threshold, where A may turn indefinite.
    eta_b : float
        Mass-side softness weight, >= 0; accepted whenever the mass side
        stays positive definite.
    flavor : {"outlier_free", "standard"}
        Trial space; the plain Galerkin baseline uses "standard" with
        eta = 0.

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
    return _pencil(space, assemble_stiffness(space), assemble_mass(space),
                   assemble_softness(space), eta, eta_b)

"""Banded assembly of the stiffness, mass, and softness forms.

Every operator is built straight into symmetric band storage, in
O(N * p^2) work on the mesh itself or O(p^2) stretched from a
per-degree reference; no dense matrix of the raw or space dimension is
ever formed, and no extraction either: a space is its knot vector and
the flag ``odd`` (``spaces.SplineSpace``), which picks one of two
routes:

* The outlier-free space (the one space for p <= 2) is the splines odd
  about both ends of the mesh, so its operators are exact: the
  completion of the cardinal B-spline stencils by the method of images
  (``analytic.reference_matrix``), times N (K and S) or 1/N (M), each
  entry rounded once. No basis is evaluated and no raw band is formed.
* The standard space at p >= 3 drops the first and last raw function,
  so its bands are the raw bands with their first and last row and
  column sliced off. The raw bands come from quadrature.

Per-element Gauss-Legendre quadrature with p+1 points is exact through
polynomial degree 2p+1, so raw stiffness and mass entries are exact up
to round-off. On the uniform open knot vector all elements but the p-1
at each end are translates of one another, so the basis is evaluated
once per distinct element, and all three forms read one table
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

On the uniform mesh every operator is a per-degree constant: its
interior is Toeplitz, its two corners depend only on p and mirror each
other, and K and S scale as N, M as 1/N. So either route runs only on
meshes of at most ``_reference_size(p)`` = 4p + 2 elements, once per
mesh, space and process (``_bands``), and the reference of each degree
serves every larger mesh: the space band there is the reference's left
corner columns (``_corner_width``: p + p // 2 on the odd space, 2p - 1
on the standard one), its first interior column repeated, and the
mirror of the left corner, times N/N_ref (K and S) or N_ref/N (M). It
is stored as just that, the scaled corner and column and the order, a
stretched ``SymBandedMatrix`` of O(p^2) entries, built once per mesh
and space (``_operators``): exactly persymmetric, with an exactly
constant interior on every diagonal, and written out in LAPACK lower
band layout (``SymBandedMatrix.band``, row k the k-th subdiagonal) only
where a factorization or a dense solve reads it. The three bands of a
space are the ``stiffness``, ``mass`` and ``softness`` of its
``SoftSystem``, and so are the sums A and B of a stretched system.

The mass side of the odd space needs no factorization to be known
positive definite: its symbol bounds it below, less the rounding of
its entries (``_mass_side_floor``).
"""

import dataclasses
import functools
import math
import warnings
from fractions import Fraction

import numpy as np

from .analytic import _mass_polynomial, reference_matrix, sharp_weight
from .eigensolve import SymBandedMatrix
from .spaces import SplineSpace, build_of_space, build_standard_space
from .splines import basis_table, gauss_rule, open_knot_vector


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

    def with_weights(self, eta, eta_b=0.0):
        """The same operators under other softness weights.

        Runs the checks of ``build_soft_system`` without reassembling.
        """
        [eta], eta_b = _checked_weights(self.space.kv.p, [eta], eta_b)
        return dataclasses.replace(self, eta=eta, eta_b=eta_b)


def _checked_weights(p, etas, eta_b, stacklevel=3):
    """The softness weights ``etas``, a sequence, and ``eta_b`` as floats,
    each pair (eta, eta_b) checked in turn: ValueError when one is not
    finite or is negative, and a warning for each eta at or beyond the
    sharp threshold (``analytic.sharp_weight``, computed once) of any
    degree p >= 1. ``stacklevel`` locates the warnings, by default at
    the caller of ``build_soft_system`` or ``with_weights``.
    """
    etas, eta_b = [float(eta) for eta in etas], float(eta_b)
    # a degree below 1 is left to the space builders to refuse
    sharp = float(sharp_weight(p)) if p >= 1 else math.inf
    for eta in etas:
        if not (math.isfinite(eta) and math.isfinite(eta_b)):
            raise ValueError("softness weights must be finite")
        if eta < 0 or eta_b < 0:
            raise ValueError("softness weights must be nonnegative")
        if eta >= sharp:
            warnings.warn(
                f"eta={eta} is at or beyond the sharp threshold {sharp}"
                f" for p={p}; the stiffness side may be indefinite",
                IndefinitenessWarning, stacklevel=stacklevel)
    return etas, eta_b


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


def _reference_size(p):
    """Element count N_ref of the reference mesh of degree p: the
    smallest on which the left corner of every space band, one interior
    column, and the right corner are apart.

    Raw column i meets only elements and faces that are translates of
    one another, on every diagonal of all three raw bands (the softness
    band reaches p + 1 rows down), for 2p <= i <= N - 2p - 2, so one
    such column needs N = 4p + 2. On that mesh the corner columns of
    either space (``_corner_width``), one interior column with its p + 1
    softness rows, and the mirrored corner fill the band exactly.
    """
    return 4 * p + 2


_SPACES = {"standard": build_standard_space, "outlier_free": build_of_space}


def _corner_width(space):
    """Columns of a space band that meet a boundary element or face:
    those of the members over raw functions 0..2p-1, the p // 2 folds
    and p raw functions of the odd space, or 2p - 1 raw functions."""
    p = space.kv.p
    return p + p // 2 if space.odd else 2 * p - 1


def _without_ends(raw):
    """The band of R without its first and last row and column: the
    standard space's E R E^T, E dropping the two endpoint functions.
    It keeps the raw half bandwidth unless the order is smaller."""
    n = raw.n - 2
    band = raw.band[:n if n < raw.half_bandwidth else None, 1:-1].copy()
    for k, row in enumerate(band):
        row[n - k:] = 0.0
    return band


@functools.cache
def _bands(p, N, odd):
    """The (K, M, S) bands of degree p on N <= N_ref elements, of the
    outlier-free space when ``odd`` (the one space for p <= 2) and of
    the standard space otherwise; built once per process, read-only.

    The outlier-free bands are the exact completions of
    ``analytic.reference_matrix``, times N (K, S) or 1/N (M), each entry
    rounded once. The standard ones are sliced from the raw bands of the
    mesh.
    """
    if odd:
        bands = [(reference_matrix(kind, p, N).band * scale).astype(float)
                 for kind, scale in zip("KMS", (N, Fraction(1, N), N))]
    else:
        bands = [_without_ends(raw)
                 for raw in _raw_operators(open_knot_vector(p, N))]
    for band in bands:
        band.flags.writeable = False
    return bands


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
        Mass-side softness weight, >= 0. The solvers refuse a mass side
        that is not positive definite.
    flavor : {"outlier_free", "standard"}
        Trial space; the plain Galerkin baseline uses "standard" with
        eta = 0.

    Returns
    -------
    SoftSystem
        On N <= N_ref elements its bands are the read-only ones of the
        mesh (``_bands``); on more, they are the per-degree reference
        stretched to N, stored as its corner and one interior column.
        Either way the bands of a mesh are built once per process
        (``_operators``) and shared, read-only, by every build.
    """
    [eta], eta_b = _checked_weights(p, [eta], eta_b)
    if flavor not in _SPACES:
        raise ValueError(f"unknown space flavor {flavor!r}")
    space = _SPACES[flavor](p, N)
    lefts, order = _operators(space.kv.p, space.kv.N, space.odd)
    return SoftSystem(eta, eta_b, space,
                      *(SymBandedMatrix(left, order) for left in lefts))


@functools.lru_cache(maxsize=256)
def _operators(p, N, odd):
    """The read-only ``left`` of the (K, M, S) bands of the space on N
    elements and their ``order`` (``SymBandedMatrix``): the mesh's own
    bands up to N_ref elements, and above it the reference's corner and
    first interior column, times N/N_ref (K and S) or N_ref/N (M)."""
    size = _reference_size(p)
    if N <= size:
        return tuple(_bands(p, N, odd)), None
    space = SplineSpace(open_knot_vector(p, N), odd)
    corner = _corner_width(space)
    lefts = []
    for band, scale in zip(_bands(p, size, odd),
                           (N / size, size / N, N / size)):
        left = np.asfortranarray(band[:, :corner + 1] * scale)
        left.flags.writeable = False
        lefts.append(left)
    return tuple(lefts), space.dim


@functools.lru_cache(maxsize=256)
def _mass_side_terms(p, N):
    """m_p(0)/N, the margin per unit of row sum, and the row-sum bounds
    of |M| and |S| of ``_mass_side_floor``."""
    (_, mass, softness), _ = _operators(p, N, True)
    sums = [float(abs(X).max(1) @ np.r_[1.0, np.full(len(X) - 1, 2.0)])
            for X in (mass, softness)]
    hbw = max(len(mass), len(softness)) - 1
    u = 0.5 * float(np.finfo(float).eps)
    margin = (6.0 + (hbw + 2) ** 2) * u
    return float(_mass_polynomial(p)[0]) / N, margin, *sums


def _mass_side_floor(system):
    """A lower bound on the smallest eigenvalue of the system's B from
    its symbol, or 0.0 where none is proved.

    Only the odd space's own bands, as ``build_soft_system`` forms them,
    are bounded. Their exact completion M + w S, w the double eta_b h^2
    of ``SoftSystem.B``, has the sine modes as eigenvectors and values
    m_p(c)/N + w N (4s)^(p+1) >= m_p(0)/N, c = cos^2(theta/2), as the
    mass symbol has positive coefficients in c. Each stored entry of M
    and S is rounded at most three times from the exact one (reference,
    scale, product) and ``plus`` rounds twice more, so B lies within
    6 u (|M| + w |S|) of the completion, u = eps/2, entry by entry, and
    by Weyl's inequality its eigenvalues within that difference's
    largest absolute row sum of the completion's. The bound takes off
    (hbw + 2)^2 u times that sum more, for its own rounding and room for
    the factorization's, so that ``dpbtrf`` succeeds where it is positive.
    """
    space = system.space
    if not space.odd:
        return 0.0
    p, N = space.kv.p, space.kv.N
    (_, mass, softness), order = _operators(p, N, True)
    if not (system.mass.left is mass and system.softness.left is softness
            and system.mass.order == system.softness.order == order):
        return 0.0
    h = space.kv.h
    symbol, margin, mass, softness = _mass_side_terms(p, N)
    # in Python floats, which overflow to inf quietly
    floor = symbol - margin * (mass + system.eta_b * h * h * softness)
    return floor if floor > 0 else 0.0

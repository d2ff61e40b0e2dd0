"""Trial spaces as extraction operators over raw B-splines.

Two flavors share one representation, which does not record the
flavor: a (dim x raw) extraction operator whose rows express each space
basis function in raw coordinates. It is the identity away from the
boundary, so a space stores only its two corner blocks.

* standard: drop the two endpoint-interpolatory raw functions, which
  imposes homogeneous Dirichlet conditions; dim = N + p - 2.
* outlier_free: the splines odd about both ends of the mesh, whose even
  boundary derivatives vanish; dim = N - 1 for odd p and N for even p.
  For p <= 2 the two flavors are one space.

Every member of the outlier-free space is the restriction to [0, 1] of
a spline on the bi-infinite uniform mesh that is odd about 0 and about
1. Member k - 1 (k = 1..dim) is the uniform B-spline B_k, centred at
node k for odd p and k - 1/2 for even p, minus its mirror about the
nearer end, which misses (0, 1) but for the first and the last p // 2
members. So the first p // 2 are the folds B_k - B_(-k) restricted to
[0, 1], over raw functions 0..p-1, found once per degree by knot
insertion in exact rationals (``_folds``); the last p // 2 are their
mirror, so the assembled matrices are persymmetric on the uniform mesh
(exactly, once the assembly stretches them from one reference); every
other member is one raw function, B_k itself.

So the pencils of the outlier-free space have the paper's closed-form
eigenvectors as plain samples (``has_sine_modes``): mode j is the odd
spline whose uniform B-spline coefficients are sin(j*pi*node/N), and
its component k - 1 is the sample at node k, corners included.
"""

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .splines import KnotVector, open_knot_vector


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

    def raw_coefficients(self, coeffs):
        """Raw coordinates E^T c of members with coefficients c.

        ``coeffs`` has the space dimension as its first axis; further
        axes (several coefficient vectors as columns) are kept. Each
        corner sums its members one after another, so a column gives the
        same bits among any others.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        (a, c), (b, e) = self.left.shape, self.right.shape
        out = np.zeros((self.kv.num_raw,) + coeffs.shape[1:])
        for row, member in zip(self.left, coeffs[:a]):
            out[:c] += np.multiply.outer(row, member)
        out[c:c + self.inner] = coeffs[a:a + self.inner]
        for row, member in zip(self.right, coeffs[a + self.inner:]):
            out[c + self.inner:] += np.multiply.outer(row, member)
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


def build_of_space(p, N):
    """Outlier-free space: the splines odd about both ends of the mesh.

    Parameters
    ----------
    p, N : int
        Degree and element count, N >= p so that the two corners, each
        over p raw functions, do not overlap.

    Returns
    -------
    SplineSpace whose corners are the p // 2 folds at each end
    (``_folds``). For p <= 2 the result is ``build_standard_space(p,
    N)`` itself.
    """
    if p <= 2:
        return build_standard_space(p, N)
    if N < p:
        raise ValueError(f"p={p} needs N >= {p} for its two corners not"
                         f" to overlap")
    left = _folds(p)
    # mirrored right block, reversed row order for persymmetry
    return SplineSpace(open_knot_vector(p, N), left, left[::-1, ::-1])


def space_dimension(p, N, flavor):
    """Dimension of the space ``flavor`` of degree p on N elements,
    without building it."""
    if flavor == "standard":
        return N + p - 2
    if flavor == "outlier_free":
        return N + p - 2 - 2 * ((p - 1) // 2)
    raise ValueError(f"unknown space flavor {flavor!r}")


@functools.cache
def _folds(p):
    """The left corner of the outlier-free space of degree p: the raw
    coefficients of the folds B_k - B_(-k), k = 1..p // 2, over raw
    functions 0..p-1, as a read-only (p // 2, p) array.

    B_k is the uniform B-spline centred at node k (odd p) or k - 1/2
    (even p) on the mesh with knots at every integer multiple of h, and
    B_(-k) its mirror about 0. Inserting the knot 0 p more times
    (Boehm's algorithm) leaves a (p + 1)-fold knot at 0, where the
    B-splines that start there are the raw functions of the open knot
    vector; the folds' coefficients are read off them. Every step is
    exact in rationals, so the folds are exact up to their final
    rounding.
    """
    count = p // 2
    # knots from -reach to reach carry every B-spline the insertion reads
    reach = p + 1
    knots = [Fraction(i) for i in range(-reach, reach + 1)]
    coeffs = []
    for start in range(len(knots) - p - 1):
        # twice the centre of the B-spline on knots start..start + p + 1
        twice = 2 * (start - reach) + p + 1
        row = np.full(count, Fraction(0), dtype=object)
        k = (abs(twice) - 1) // 2
        if twice and k < count:
            row[k] = Fraction(1 if twice > 0 else -1)
        coeffs.append(row)
    for _ in range(p):
        span = len(knots) - 1 - knots[::-1].index(0)
        refined = coeffs[:span - p + 1]
        for i in range(span - p + 1, span + 1):
            a = -knots[i] / (knots[i + p] - knots[i])
            refined.append(a * coeffs[i] + (1 - a) * coeffs[i - 1])
        refined += coeffs[span:]
        knots.insert(span + 1, Fraction(0))
        coeffs = refined
    first = knots.index(0)
    out = np.array(coeffs[first:first + p], dtype=float).T
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=4)
def sine_table(N, dtype=float):
    """sin(pi*i/(2N)) for i = 0..4N-1 in the precision ``dtype``, exactly
    odd about i = 0 and 2N and even about N and 3N, as the sine is.
    Entry (2*a*b) mod 4N is sin(pi*a*b/N) for integers a, b; the only
    rounding in its argument is that of pi*i/(2N) for some i <= N.
    Read-only, and kept for the pairs and H1 errors of the same mesh."""
    pi = 4 * np.arctan(dtype(1))
    quarter = np.sin(pi / (2 * N) * np.arange(N + 1, dtype=dtype))
    table = np.concatenate((quarter, quarter[-2::-1], -quarter[1:],
                            -quarter[-2:0:-1]))
    table.flags.writeable = False
    return table


def has_sine_modes(space):
    """Whether the eigenvectors of ``space`` are the sine samples: the
    outlier-free space of any degree, known by its (p // 2, p) corner of
    folds, the standard space included for p <= 2, the same space."""
    p = space.kv.p
    return space.left.shape == ((p // 2, p) if p >= 3 else (0, 1))

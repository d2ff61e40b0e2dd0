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

The pencils of the outlier-free space have the paper's closed-form
eigenvectors (``sine_modes``). Every member of the space is the
restriction to [0, 1] of a spline on the bi-infinite uniform mesh that
is odd about 0 and about 1, and mode j is the one whose uniform
B-spline coefficients are sine samples sin(j*pi*node/N), node the
centre of the B-spline: k for odd p and k - 1/2 for even p. Those
samples are the components of the identity part of the space basis
itself. The r = (p - 1) // 2 corner members at each end are a fixed
map of the first p + 2 samples, found once per degree by knot
insertion in exact rationals (``_corner_samples``).
"""

import functools
from dataclasses import dataclass, field
from fractions import Fraction

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


# Highest degree whose pencils take their eigenvectors from
# ``sine_modes``. Up to it the closed-form pairs meet the residual
# contract with a margin above 300 on every mesh measured (N up to
# 2000; above 1800 for N <= 200, which tests/test_spectral.py holds);
# past it the margin falls to about 130 at p = 14 and 5 at p = 15.
SINE_MODE_MAX_DEGREE = 12


@functools.cache
def _corner_samples(p):
    """Raw coefficients of the first p + 1 raw functions of the odd
    extension, as a read-only (p + 1, p + 2) map of the samples
    s_1..s_(p+2).

    The odd extension carries sample s_k at node k (odd p) or k - 1/2
    (even p) and -s_k at the mirrored node on the uniform mesh, knots
    at every integer multiple of h. Inserting the knot 0 p more times
    (Boehm's algorithm) leaves a (p + 1)-fold knot at 0, where the
    B-splines that start there are the raw functions of the open knot
    vector; their coefficients are read off. Every step is exact in
    rationals, so the map is exact up to its final rounding.
    """
    count = p + 2
    reach = 2 * p + 2
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
    out = np.array(coeffs[first:first + p + 1], dtype=float)
    out.flags.writeable = False
    return out


def corner_map(space):
    """The (r, p + 2) map Q from the first p + 2 sine samples to the r
    left corner members of a mode of ``sine_modes``."""
    left = space.left
    return left @ _corner_samples(space.kv.p)[:left.shape[1]]


def sine_table(N):
    """sin(pi*i/(2N)) for i = 0..4N-1, exactly odd about i = 0 and 2N and
    even about N and 3N, as the sine is. Entry (2*a*b) mod 4N is
    sin(pi*a*b/N) for integers a, b; the only rounding in its argument
    is that of pi*i/(2N) for some i <= N."""
    quarter = np.sin(np.pi / (2 * N) * np.arange(N + 1))
    return np.concatenate((quarter, quarter[-2::-1], -quarter[1:],
                           -quarter[-2:0:-1]))


def has_sine_modes(space):
    """Whether ``sine_modes`` knows the eigenvectors of ``space``: the
    outlier-free space up to degree ``SINE_MODE_MAX_DEGREE``, the
    standard space included for p <= 2, where the two are one."""
    p = space.kv.p
    alpha = (p - 1) // 2
    return (p <= SINE_MODE_MAX_DEGREE
            and space.left.shape == (alpha, 2 * alpha + 1))


def sine_modes(space, js=None):
    """The pencil eigenvectors of ``space`` in closed form, unnormalized,
    mode js[i] in column i (every mode 1..dim by default, mode j in
    column j - 1); None where they are not known (``has_sine_modes``).

    Component k of mode j is sin(j*pi*node_k/N), node_k = k for odd p
    and k - 1/2 for even p, the argument reduced in integers and read
    from ``sine_table``. The r corner members at the left are
    ``corner_map`` of the first p + 2 samples, and those at the right
    their mirror times (-1)^(j + 1), as for every sample. Each mode
    costs O(dim).
    """
    if not has_sine_modes(space):
        return None
    p, N = space.kv.p, space.kv.N
    n, r = space.dim, (p - 1) // 2
    js = np.arange(1, n + 1) if js is None else np.asarray(js)
    # 2 * node_k, and every product reduced modulo 4N before the lookup
    twice = 2 * np.arange(1, max(n, p + 2) + 1) - (p + 1) % 2
    index = np.multiply.outer(twice, js)
    np.remainder(index, 4 * N, out=index)
    table = sine_table(N)
    samples = table[index]
    del index
    X = samples[:n]
    if r:
        # the corners of all n modes come from one product, and the
        # chosen ones are picked from it: a BLAS product orders a
        # column's sums by its place in the product, so a mode's corner
        # is then the same bits whichever modes are asked for
        heads = np.multiply.outer(twice[:p + 2], np.arange(1, n + 1))
        np.remainder(heads, 4 * N, out=heads)
        corner = (corner_map(space) @ table[heads])[:, js - 1]
        X[:r] = corner
        X[n - r:] = corner[::-1] * np.where(js % 2, 1.0, -1.0)
    return X

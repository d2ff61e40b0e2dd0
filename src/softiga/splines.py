"""Open-knot B-spline bases on uniform meshes of [0, 1].

Degree-p splines of maximal continuity C^{p-1}: the knot vector repeats
each endpoint p+1 times and places single knots at the N-1 interior
breakpoints j/N. Values and derivatives come from the knot-difference
recursion (never numeric differentiation), so polynomial data is exact.
The recursion runs its loops over the degree once for a whole array of
points, each point an entry along a numpy axis, so every point takes
the same floating-point operations as when evaluated on its own.

Breakpoint evaluations take the right limit, except at x=1 where only
the left limit exists. The p-th derivative is constant on each element,
so it is read at a point inside the element, not at a breakpoint.

The Gauss-Legendre rule the quadratures sample these bases at is
computed once per point count (``gauss_rule``).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KnotVector:
    """Open uniform knot vector: degree ``p``, ``N`` elements on [0, 1].

    Attributes
    ----------
    p : int
        Polynomial degree, at least 1.
    N : int
        Number of elements; breakpoints are j/N.
    knots : ndarray
        Non-decreasing knot sequence of length N + 2p + 1 with both
        endpoints repeated p+1 times, formed on first use: the closed
        forms of the outlier-free space never read it.
    """

    p: int
    N: int

    @functools.cached_property
    def knots(self):
        return np.concatenate([np.zeros(self.p + 1),
                               np.arange(1, self.N) / self.N,
                               np.ones(self.p + 1)])

    @property
    def h(self):
        return 1.0 / self.N

    @property
    def num_raw(self):
        """Number of raw basis functions, N + p."""
        return self.N + self.p


@dataclass(frozen=True)
class BasisEval:
    """Derivatives of the raw basis functions supported on one element.

    Attributes
    ----------
    element : int
        Anchor element index; the supported functions are
        ``element .. element + p``.
    ders : ndarray, shape (r + 1, p + 1)
        ``ders[k, m]`` is the k-th derivative of raw function
        ``element + m`` at the evaluation point, for k = 0..r, r the
        highest derivative order evaluated.
    """

    element: int
    ders: np.ndarray


def open_knot_vector(p, N):
    """Build the open uniform knot vector for degree p on N elements.

    Parameters
    ----------
    p : int
        Degree, p >= 1.
    N : int
        Element count, N >= 1.

    Returns
    -------
    KnotVector
    """
    p = int(p)
    N = int(N)
    if p < 1:
        raise ValueError(f"degree must be at least 1, got {p}")
    if N < 1:
        raise ValueError(f"element count must be at least 1, got {N}")
    return KnotVector(p, N)


def eval_basis(kv, x, r=0):
    """Evaluate raw basis derivatives of orders 0..r at a point or at
    an array of points.

    Parameters
    ----------
    kv : KnotVector
    x : float or array_like
        Point(s) in [0, 1]; an array of shape S is evaluated in one
        pass, every point through the same arithmetic as on its own. A
        breakpoint is evaluated as the right limit, x=1 as the left one.
    r : int
        Highest derivative order, 0 <= r <= p.

    Returns
    -------
    BasisEval
        For a scalar x, ``element`` is an int and ``ders`` has shape
        (r + 1, p + 1); for an array of shape S, ``element`` is an int
        array of shape S and ``ders`` a C-ordered array of shape
        S + (r + 1, p + 1).
    """
    p, N = kv.p, kv.N
    x = np.asarray(x, dtype=float)
    if not np.all((0.0 <= x) & (x <= 1.0)):
        raise ValueError(f"evaluation points must lie in [0, 1], got {x}")
    if not 0 <= r <= p:
        raise ValueError(f"derivative order must be in 0..{p}, got {r}")
    # clamp: below the first element there is no left limit, above the
    # last there is no right limit
    span = np.clip(np.searchsorted(kv.knots, x, side="right") - 1, p,
                   N - 1 + p)
    U = kv.knots

    # Triangular table of all lower-degree values plus the knot
    # differences needed for the derivative recursion; the trailing
    # axes run over the points.
    ndu = np.zeros((p + 1, p + 1) + x.shape)
    left, right = np.zeros((2, p + 1) + x.shape)
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = x - U[span + 1 - j]
        right[j] = U[span + j] - x
        saved = 0.0
        for k in range(j):
            ndu[j, k] = right[k + 1] + left[j - k]
            temp = ndu[k, j - 1] / ndu[j, k]
            ndu[k, j] = saved + right[k + 1] * temp
            saved = left[j - k] * temp
        ndu[j, j] = saved

    ders = np.zeros((r + 1, p + 1) + x.shape)
    ders[0] = ndu[:, p]
    a = np.zeros((2, p + 1) + x.shape)
    for m in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, r + 1):
            d = 0.0
            rk = m - k
            pk = p - k
            if m >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if m - 1 <= pk else p - m
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if m <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, m]
                d += a[s2, k] * ndu[m, pk]
            # the recursion gives the k-th derivative over p!/(p-k)!
            ders[k, m] = d * math.perm(p, k)
            s1, s2 = s2, s1

    element = span - p if x.ndim else int(span - p)
    # C order: callers contract the last two axes with einsum
    return BasisEval(element, np.ascontiguousarray(
        np.moveaxis(ders, (0, 1), (-2, -1))))


@functools.cache
def gauss_rule(n):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], computed
    once per n and shared by every caller, so both arrays are
    read-only."""
    rule = np.polynomial.legendre.leggauss(n)
    for array in rule:
        array.flags.writeable = False
    return rule


def basis_table(kv, points, r=0):
    """Raw basis derivatives at the same reference points of every element.

    Element e carries raw functions e..e+p, whose restrictions to it
    depend only on the knots U[e+1..e+2p]. Those are equally spaced for
    p-1 <= e <= N-p, so every such element is a translate of element
    p-1 and is evaluated once; only the p-1 elements at each end (all
    elements when N < 2p-1) are evaluated on their own. All of them go
    through one ``eval_basis`` call on a (distinct, len(points)) array.

    Parameters
    ----------
    kv : KnotVector
    points : array
        Reference points in the open interval (0, 1); element e is
        sampled at x = (e + t) / N for each t.
    r : int
        Highest derivative order, 0 <= r <= p.

    Returns
    -------
    (ders, index)
        ``ders[index[e], q, k, m]`` is the k-th derivative of raw
        function e + m at the q-th point of element e; ``ders`` has one
        row per distinct element, shape (distinct, len(points), r + 1,
        p + 1), and ``index`` has length N.
    """
    p, N = kv.p, kv.N
    points = np.asarray(points, dtype=float)
    if not np.all((0.0 < points) & (points < 1.0)):
        raise ValueError("reference points must lie in (0, 1)")
    elements = np.arange(N)
    interior = (elements >= p - 1) & (elements <= N - p)
    distinct, index = np.unique(np.where(interior, p - 1, elements),
                                return_inverse=True)
    return eval_basis(kv, (distinct[:, None] + points) / N, r).ders, index


"""Open-knot B-spline bases on uniform meshes of [0, 1].

Degree-p splines of maximal continuity C^{p-1}: the knot vector repeats
each endpoint p+1 times and places single knots at the N-1 interior
breakpoints j/N. Values and derivatives come from the knot-difference
recursion (never numeric differentiation), so polynomial data is exact.

Breakpoint evaluations are one-sided. The default is the right-limit,
except at x=1 where only the left-limit exists; callers may force a side
to probe the piecewise-constant p-th derivative on a chosen element.
"""

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
        endpoints repeated p+1 times.
    """

    p: int
    N: int
    knots: np.ndarray

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
    knots = np.concatenate([
        np.zeros(p + 1),
        np.arange(1, N) / N,
        np.ones(p + 1),
    ])
    return KnotVector(p, N, knots)


def _find_element(kv, x, side):
    """Element index containing x under the requested one-sided limit."""
    if side == "left":
        span = int(np.searchsorted(kv.knots, x, side="left")) - 1
    else:
        span = int(np.searchsorted(kv.knots, x, side="right")) - 1
    # clamp: below the first element there is no left limit, above the
    # last there is no right limit
    span = min(max(span, kv.p), kv.N - 1 + kv.p)
    return span - kv.p


def eval_basis(kv, x, r=0, side=None):
    """Evaluate raw basis derivatives of orders 0..r at a point.

    Parameters
    ----------
    kv : KnotVector
    x : float
        Point in [0, 1].
    r : int
        Highest derivative order, 0 <= r <= p.
    side : {"right", "left", None}
        One-sided limit taken when x is exactly a breakpoint. None means
        right-limit (left-limit at x=1).

    Returns
    -------
    BasisEval
    """
    p = kv.p
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"evaluation point {x} outside [0, 1]")
    if not 0 <= r <= p:
        raise ValueError(f"derivative order must be in 0..{p}, got {r}")
    if side not in (None, "right", "left"):
        raise ValueError(f"unknown side {side!r}")
    element = _find_element(kv, x, side or "right")
    span = element + p
    U = kv.knots

    # Triangular table of all lower-degree values plus the knot
    # differences needed for the derivative recursion.
    ndu = np.zeros((p + 1, p + 1))
    left = np.zeros(p + 1)
    right = np.zeros(p + 1)
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

    ders = np.zeros((r + 1, p + 1))
    ders[0] = ndu[:, p]
    a = np.zeros((2, p + 1))
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
            ders[k, m] = d
            s1, s2 = s2, s1

    fact = p
    for k in range(1, r + 1):
        ders[k] *= fact
        fact *= p - k
    return BasisEval(element, ders)


def basis_table(kv, points, r=0):
    """Raw basis derivatives at the same reference points of every element.

    Element e carries raw functions e..e+p, whose restrictions to it
    depend only on the knots U[e+1..e+2p]. Those are equally spaced for
    p-1 <= e <= N-p, so every such element is a translate of element
    p-1 and is evaluated once; only the p-1 elements at each end (all
    elements when N < 2p-1) are evaluated on their own.

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
    if np.any((points <= 0.0) | (points >= 1.0)):
        raise ValueError("reference points must lie in (0, 1)")
    elements = np.arange(N)
    interior = (elements >= p - 1) & (elements <= N - p)
    distinct, index = np.unique(np.where(interior, p - 1, elements),
                                return_inverse=True)
    ders = np.empty((distinct.size, points.size, r + 1, p + 1))
    for row, e in enumerate(distinct):
        for q, t in enumerate(points):
            ders[row, q] = eval_basis(kv, (e + t) / N, r).ders
    return ders, index


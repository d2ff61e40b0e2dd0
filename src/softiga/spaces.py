"""Trial spaces: a knot vector and whether the space is the odd one.

Two flavors of degree p on the open uniform knot vector of N elements:

* standard: every raw B-spline but the two endpoint-interpolatory ones,
  which imposes homogeneous Dirichlet conditions; dim = N + p - 2.
* outlier_free: the splines odd about both ends of the mesh, whose even
  boundary derivatives vanish; dim = N - 1 for odd p and N for even p.
  For p <= 2 the two flavors are one space.

Member k - 1 (k = 1..dim) of the outlier-free space is the uniform
B-spline B_k, centred at node k for odd p and k - 1/2 for even p, minus
its mirror about the nearer end, which misses (0, 1) but for the first
and the last p // 2 members: the folds B_k - B_(-k), over raw functions
0..p-1, and their mirror. Every other member is one raw function. So
mode j of its pencils is the odd spline whose uniform B-spline
coefficients are sin(j*pi*node/N): its component k - 1 is the sample
at node k, corners included (``sine_table``, or the few samples a
certificate reads, ``sine_samples``).

The package forms no extraction: a ``SplineSpace`` is its knot vector
and the flag ``odd``, which picks the exact completion of the odd
space's operators in the assembly and its closed-form pairs in the
solvers. The tests build the folds by knot insertion in exact rationals
(``folds`` in ``tests/oracles.py``) and check the completion against
E R E^T, E that extraction.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .splines import KnotVector, open_knot_vector


@dataclass(frozen=True)
class SplineSpace:
    """A trial space of degree ``kv.p`` on ``kv.N`` elements: the
    outlier-free one when ``odd`` (at p <= 2 also the standard one),
    else the standard one."""

    kv: KnotVector
    odd: bool

    @property
    def dim(self):
        return space_dimension(self.kv.p, self.kv.N, "outlier_free"
                               if self.odd else "standard")


def build_standard_space(p, N):
    """Space of all raw functions except the two endpoint ones."""
    kv = open_knot_vector(p, N)
    if kv.num_raw < 3:
        raise ValueError(f"no interior functions for p={p}, N={N}")
    return SplineSpace(kv, kv.p <= 2)


def build_of_space(p, N):
    """Outlier-free space: the splines odd about both ends of the mesh.

    Parameters
    ----------
    p, N : int
        Degree and element count, N >= p so that the p // 2 folds at
        each end, each over p raw functions, do not overlap.

    Returns
    -------
    SplineSpace with ``odd`` set. For p <= 2 the result is
    ``build_standard_space(p, N)`` itself.
    """
    if p <= 2:
        return build_standard_space(p, N)
    if N < p:
        raise ValueError(f"p={p} needs N >= {p} for its two corners not"
                         f" to overlap")
    return SplineSpace(open_knot_vector(p, N), True)


def space_dimension(p, N, flavor):
    """Dimension of the space ``flavor`` of degree p on N elements,
    without building it."""
    if flavor == "standard":
        return N + p - 2
    if flavor == "outlier_free":
        return N + p - 2 - 2 * ((p - 1) // 2)
    raise ValueError(f"unknown space flavor {flavor!r}")


@functools.lru_cache(maxsize=4)
def sine_table(N, dtype=float):
    """sin(pi*i/(2N)) for i = 0..4N-1 in the precision ``dtype``, exactly
    odd about i = 0 and 2N and even about N and 3N, as the sine is.
    Entry (2*a*b) mod 4N is sin(pi*a*b/N) for integers a, b; the only
    rounding in its argument is that of pi*i/(2N) for some i <= N.
    Read-only, and kept for the H1 errors of the same mesh and for
    ``sine_samples`` that outnumber its entries."""
    quarter = quarter_sines(N, np.arange(N + 1), dtype)
    table = np.concatenate((quarter, quarter[-2::-1], -quarter[1:],
                            -quarter[-2:0:-1]))
    table.flags.writeable = False
    return table


def quarter_sines(N, i, dtype=float):
    """Entries i, an integer array of 0..N, of ``sine_table(N, dtype)``,
    bit for bit."""
    return np.sin(_pi(dtype) / (2 * N) * i)


@functools.cache
def _pi(dtype):
    """pi, rounded once to ``dtype``."""
    return 4 * np.arctan(np.dtype(dtype).type(1))


def sine_samples(N, index, dtype=float):
    """Entries ``index`` (an integer array, reduced mod 4N) of
    ``sine_table(N, dtype)``, bit for bit: the sine of the quarter-wave
    argument the table folds each onto, or, when they outnumber its
    entries, the table's."""
    i = np.remainder(index, 4 * N)
    if i.size >= 4 * N:
        return sine_table(N, dtype)[i]
    # onto 0..2N, odd about 2N, then onto 0..N, even about N
    past = i > 2 * N
    np.subtract(4 * N, i, out=i, where=past)
    np.minimum(i, 2 * N - i, out=i)
    value = quarter_sines(N, i, dtype)
    return np.negative(value, out=value, where=past)

"""Tensor-product lift of 1D spectra to 2D and 3D.

On a tensor-product space both 1D pencil matrices share eigenvectors,
so the multi-dimensional generalized eigenvalues are exactly the d-fold
sums of the 1D ones. That makes the 3D benchmark tables computable from
a single small 1D solve instead of a dense solve of order N^3.

The lift is a left fold of broadcast sums over the 1D values
(``_sums``, for one list or a row of them per weight), so each sum is
formed in multi-index order, ordered by a stable argsort of the
row-major (lexicographic) flattening. A lift has n1^d entries and is
refused up front above ``MAX_LIFT_ENTRIES``. Condition numbers need only
the two ends of the lifted spectrum, the d-fold sums of the 1D extremes
(``lifted_extremes``), so they never build the lift. The multi-indices
of a lift stay one integer array; only the report formats them.

The continuum eigenvalues that a lift is paired with by rank are the
smallest sums pi^2 * |j|^2 over the positive lattice
(``continuum_values``), counted by |j|^2 rather than enumerated, so
they take no more memory than the n1^d values themselves.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# Largest lift, n1^d entries, that kron_sum_spectrum will build.
MAX_LIFT_ENTRIES = 2_000_000


@dataclass(frozen=True, eq=False)
class TensorSpectrum:
    """Composed spectrum with multi-indices, sorted ascending.

    Row k of ``indices``, an (n1^d, d) integer array, holds the 1-based
    1D mode numbers whose eigenvalues sum to ``values[k]``.
    """

    values: np.ndarray
    indices: np.ndarray = field(repr=False)


def check_lift_size(n1, d):
    """Refuse a d-fold lift of n1 values above ``MAX_LIFT_ENTRIES``."""
    if n1 ** d > MAX_LIFT_ENTRIES:
        raise ValueError(f"a {d}D lift of {n1} 1D eigenvalues has"
                         f" {n1 ** d} entries, above the limit of"
                         f" {MAX_LIFT_ENTRIES}")


def _ascending(one_d, d):
    one_d = np.asarray(one_d, dtype=float)
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2, or 3, got {d}")
    if np.any(np.diff(one_d) < 0):
        raise ValueError("1D eigenvalue list must be ascending")
    return one_d


def kron_sum_spectrum(one_d, d):
    """All d-fold sums of a sorted 1D eigenvalue list.

    Parameters
    ----------
    one_d : array
        1D eigenvalues, ascending.
    d : int
        Dimension, 1..3.

    Returns
    -------
    TensorSpectrum
        Sorted ascending; equal values are ordered by lexicographic
        multi-index, so the pairing with exact eigenvalues is stable.
        Each sum is added left to right over its multi-index.

    Raises
    ------
    ValueError
        Before allocating, when the lift would exceed
        ``MAX_LIFT_ENTRIES``.
    """
    one_d = _ascending(one_d, d)
    n = one_d.size
    check_lift_size(n, d)
    sums = _sums(one_d, d)
    order = np.argsort(sums, kind="stable")
    indices = np.stack(np.unravel_index(order, (n,) * d), axis=1)
    indices += 1
    return TensorSpectrum(sums[order], indices)


def _sums(rows, d):
    """Every d-fold sum of the values along the last axis of ``rows``,
    each added left to right over its multi-index, in row-major
    (lexicographic) multi-index order: n^d values per row."""
    sums = rows
    for _ in range(d - 1):
        sums = (sums[..., :, None] + rows[..., None, :]).reshape(
            *rows.shape[:-1], -1)
    return sums


def lifted_extremes(one_d, d):
    """The smallest and largest d-fold sums of a sorted 1D list, or of
    each row of a 2D array of them.

    Returns ``[lo, hi]`` (a row of them per row), added in the order of
    ``kron_sum_spectrum``, so they equal the first and last entries of
    the lift bit for bit (rounded addition is monotone) without building
    it.
    """
    one_d = _ascending(one_d, d)
    ends = one_d[..., [0, -1]]
    lifted = ends
    for _ in range(d - 1):
        lifted = lifted + ends
    return lifted


def continuum_values(d, n1):
    """The n1^d smallest continuum eigenvalues pi^2 * |j|^2, ascending.

    These are the rank-paired targets of a d-fold lift of n1 discrete
    1D eigenvalues. The box [1, n1]^d already holds n1^d lattice points
    with |j|^2 <= top = d * n1^2, so only sums up to top count, and a
    point with component j_i has |j|^2 >= j_i^2 + d - 1, so its
    components are at most floor(sqrt(top - (d - 1))). Cutting each axis
    at n1 instead would miss modes such as (1, 1, n1 + 1).

    In 2D and 3D the values are counted, not enumerated: the number of
    points with each |j|^2 <= top comes from the sums of two squares,
    and a third square shifts those counts once per square. Each value
    is then repeated by its count, up to n1^d in all, so nothing larger
    than the result is formed: at d = 3 the sums of two squares take
    about 3 n1^2 entries, and at d = 2 they are 2 n1^2 int32s. Like the
    lift, n1^d is refused above ``MAX_LIFT_ENTRIES``.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2, or 3, got {d}")
    # the sums below fit in int32 within the limit
    check_lift_size(n1, d)
    if d == 1:
        return np.pi ** 2 * (np.arange(1, n1 + 1) ** 2).astype(float)
    count = n1 ** d
    top = d * n1 * n1
    squares = np.arange(1, math.isqrt(top - (d - 1)) + 1,
                        dtype=np.int32) ** 2
    sums = np.add.outer(squares, squares).ravel()
    # every sum past top counts in one bin past the end
    np.minimum(sums, top + 1, out=sums)
    counts = np.bincount(sums, minlength=top + 2)[:top + 1]
    if d == 3:
        pairs, counts = counts, np.zeros_like(counts)
        for q in squares.tolist():
            counts[q:] += pairs[:top + 1 - q]
    # keep the first n1^d points, ties at the last value included
    reached = np.cumsum(counts)
    last = int(np.searchsorted(reached, count))
    counts = counts[:last + 1]
    counts[last] -= reached[last] - count
    return np.repeat(np.pi ** 2 * np.arange(last + 1, dtype=float), counts)

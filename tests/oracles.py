"""Oracles used only by the tests.

The package assembles from per-element basis tables; two helpers here
evaluate one space member or one face jump at a time through
``eval_basis``, so the tests can check the banded operators against an
independent route. ``full_lift_values`` builds the whole d-dimensional
spectrum, which the ``condition`` command never does, and
``sorted_continuum_values`` its continuum targets by sorting every
lattice sum in a box, where the package counts them. ``banded`` turns
a dense symmetric test matrix into the band type the package takes.
``dense_commutator_norm`` multiplies dense operands in the arithmetic
of their entries, Fractions included: the reference for the package's
scaled-integer commutators. ``loop_reference_numerators`` completes a
reference band by a loop over its entries, where the package reads it
from the wrapped stencil by index arrays.
``fresh_assembly_caches`` empties the per-degree caches of the
assembly, so that a test can count the work of one build.
``band_entry``, ``lam_min`` and ``lam_max`` read one entry of a band and
the two ends of a spectrum, which the package never reads that way.
``stretch`` writes a band above the reference size out entry by entry,
where the package stores its corners and one interior column.
``whole_edge`` bisects for the top of a pencil on the whole pencil,
where the package first tries a shift just above the top of the
pencil's leading block and bisects, in the same arithmetic, only where
no such shift factors.

A space of the package is its knot vector and the flag ``odd``; it
forms no extraction. ``folds`` computes the corners of the outlier-free
space by knot insertion in exact rationals, ``extraction_corners`` the
two corner blocks of either space, and ``raw_coefficients`` and
``dense_extraction`` the raw coordinates E^T c of its members and the
extraction E itself: the independent route E R E^T against which the
tests check the exact completions the package assembles.

``PRINTED_STENCILS`` holds the paper's interior stencils for p = 2..5,
the exact reference for the ones the package computes at any degree,
and ``PRINTED_SHARP`` its sharp softness weights for p = 2..4, the
reference for the package's ``sharp_weight``.

The rest restate, for the tests, what the package computes only on
its way to a printed number:
- ``space_operators``, the (K, M, S) of a space, or of a remixed one
  that ``build_soft_system`` does not build, given by its dense
  extraction, as E R E^T from that extraction and the raw bands of its
  own mesh, whatever its size;
- ``softened_reference``, the printed pencil in exact rationals;
- ``dispersion_eigenvalue``, the interior symbol's eigenvalue at one
  wavenumber, in mpmath;
- ``mpmath_fit``, the dispersion fit of ``fit_leading_coefficient`` in
  mpmath at 60 digits, where the package sums it in fixed-point
  integers;
- ``sine_sample``, one component of a closed-form eigenvector,
  ``sine_modes``, the unnormalized closed-form eigenvectors of chosen
  modes, and ``closed_form_vectors``, the B-normalized eigenvectors of
  a closed-form spectrum, which keeps only their mode numbers;
- ``band_product``, the product of a band with a block of vectors, one
  pass per diagonal, with which the tests measure the residuals that
  the package only bounds, in extended precision where they are held
  to the bounds;
- ``pythagorean_residual``, the energy-norm identity of one mode, whose
  L2 error is integrated here point by point.
"""

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy import sparse

from softiga.analytic import (FIT_WAVENUMBERS, dispersion_expansion,
                              interior_stencil, interior_symbol,
                              reference_matrix)
import softiga.assembly as assembly
from softiga.assembly import _raw_operators, build_soft_system
import softiga.eigensolve as eigensolve
from softiga.eigensolve import SymBandedMatrix
from softiga.spaces import sine_table
from softiga.spectral_analysis import h1_errors_for_modes, solve_system
from softiga.splines import eval_basis
from softiga.tensor import kron_sum_spectrum


F = Fraction

# Interior stencils of the printed matrices, s_k the entries k off the
# main diagonal, k = 0 first.
PRINTED_STENCILS = {
    ("K", 2): (F(1), F(-1, 3), F(-1, 6)),
    ("M", 2): (F(11, 20), F(13, 60), F(1, 120)),
    ("S", 2): (F(20), F(-15), F(6), F(-1)),
    ("T", 2): (F(3, 4), F(1, 8)),
    ("K", 3): (F(2, 3), F(-1, 8), F(-1, 5), F(-1, 120)),
    ("M", 3): (F(151, 315), F(397, 1680), F(1, 42), F(1, 5040)),
    ("S", 3): (F(70), F(-56), F(28), F(-8), F(1)),
    ("T", 3): (F(2, 3), F(1, 6)),
    ("K", 4): (F(35, 72), F(-11, 360), F(-17, 90), F(-59, 2520),
               F(-1, 5040)),
    ("M", 4): (F(15619, 36288), F(44117, 181440), F(913, 22680),
               F(251, 181440), F(1, 362880)),
    ("S", 4): (F(252), F(-210), F(120), F(-45), F(10), F(-1)),
    ("T", 4): (F(115, 192), F(19, 96), F(1, 384)),
    ("K", 5): (F(809, 2160), F(1, 64), F(-31, 189), F(-907, 24192),
               F(-25, 18144), F(-1, 362880)),
    ("M", 5): (F(655177, 1663200), F(1623019, 6652800), F(1093, 19800),
               F(50879, 13305600), F(509, 9979200), F(1, 39916800)),
    ("S", 5): (F(924), F(-792), F(495), F(-220), F(66), F(-12), F(1)),
    ("T", 5): (F(11, 20), F(13, 60), F(1, 120)),
}


# The largest softness weights that keep the stiffness side positive
# semidefinite, as the paper prints them for p = 2..4.
PRINTED_SHARP = {2: F(1, 48), 3: F(1, 480), 4: F(17, 80640)}


def banded(dense):
    """Full-bandwidth SymBandedMatrix of a dense symmetric array; only
    its lower triangle is read."""
    dense = np.asarray(dense)
    n = len(dense)
    band = np.zeros((n, n), dtype=dense.dtype)
    for k in range(n):
        band[k, :n - k] = np.diagonal(dense, -k)
    return SymBandedMatrix(band)


def band_entry(A, i, j):
    """Entry (i, j) of the SymBandedMatrix A, in the type of its band:
    zero outside the band."""
    k = abs(i - j)
    if k > A.half_bandwidth:
        return A.band[0, 0] * 0
    return A.band[k, min(i, j)]


def lam_min(spectrum):
    """The smallest eigenvalue of a Spectrum, as a float."""
    return float(spectrum.values[0])


def lam_max(spectrum):
    """The largest eigenvalue of a Spectrum, as a float."""
    return float(spectrum.values[-1])


@functools.cache
def folds(p):
    """The left corner of the outlier-free space of degree p >= 3: the
    raw coefficients of the folds B_k - B_(-k), k = 1..p // 2, over raw
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


def extraction_corners(space):
    """The two corner blocks (left, right) of the space's extraction.

    With ``left`` of shape (a, c) and ``right`` of shape (b, e), the
    first a members are the rows of ``left`` over raw functions 0..c-1,
    the last b members are the rows of ``right`` over the last e raw
    functions, and every member in between is one raw function. The
    outlier-free space of degree p >= 3 has the folds at the left and
    their mirror, rows reversed, at the right, so its extraction is
    persymmetric; otherwise each corner drops one endpoint function and
    keeps no member.
    """
    p = space.kv.p
    if space.odd and p >= 3:
        left = folds(p)
        return left, left[::-1, ::-1]
    endpoint = np.zeros((0, 1))
    return endpoint, endpoint


def raw_coefficients(space, coeffs):
    """Raw coordinates E^T c of members of the space with coefficients c.

    ``coeffs`` has the space dimension as its first axis; further axes
    (several coefficient vectors as columns) are kept. Each corner sums
    its members one after another (``extraction_corners``).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    left, right = extraction_corners(space)
    (a, c), (b, e) = left.shape, right.shape
    inner = space.kv.num_raw - c - e
    out = np.zeros((space.kv.num_raw,) + coeffs.shape[1:])
    for row, member in zip(left, coeffs[:a]):
        out[:c] += np.multiply.outer(row, member)
    out[c:c + inner] = coeffs[a:a + inner]
    for row, member in zip(right, coeffs[a + inner:]):
        out[c + inner:] += np.multiply.outer(row, member)
    return out


def dense_extraction(space):
    """The dense (dim x raw) extraction matrix of a SplineSpace, one row
    per member over the raw B-splines."""
    return raw_coefficients(space, np.eye(space.dim)).T


def sine_modes(space, js, dtype=float):
    """The pencil eigenvectors of an odd space (``SplineSpace.odd``), in
    closed form and unnormalized, mode js[i] in column i, in the
    precision ``dtype``.

    Component k of mode j is sin(j*pi*node_(k+1)/N), node_k = k for
    odd p and k - 1/2 for even p, corners included, the argument reduced
    in integers and read from ``sine_table``. Each mode costs O(dim),
    and its bits do not depend on which other modes are asked for.
    """
    p, N, n = space.kv.p, space.kv.N, space.dim
    # 2 * node_k, and every product reduced modulo 4N before the lookup
    index = np.multiply.outer(2 * np.arange(1, n + 1) - (p + 1) % 2, js)
    np.remainder(index, 4 * N, out=index)
    return sine_table(N, dtype)[index]


def band_product(A, X):
    """A X for the SymBandedMatrix A and every column of the (n, m)
    block X, one whole-array pass per diagonal, in double precision or
    in that of X if it is wider."""
    band = np.asarray(A.band, dtype=np.result_type(float, X))
    n = A.n
    out = np.multiply(band[0, :, None], X, order="C")
    for k in range(1, min(len(band), n)):
        diag = band[k, :n - k, None]
        # entry (i + k, i) scales x_i into row i + k, and its mirror
        # (i, i + k) scales x_(i + k) into row i
        out[k:] += diag * X[:n - k]
        out[:n - k] += diag * X[k:]
    return out


def closed_form_vectors(system, spectrum):
    """The eigenvectors of a closed-form Spectrum of the system's pencil,
    as columns in the order of its ranks: ``sine_modes`` of its mode
    numbers, each scaled to x^T B x = 1."""
    X = sine_modes(system.space, spectrum.modes)
    return X / np.sqrt(np.einsum("ij,ij->j", X, band_product(system.B, X)))


def dense_commutator_norm(A, B):
    """Frobenius norm of AB - BA from the dense products of two
    SymBandedMatrix operands, in the arithmetic of their entries."""
    if A.n != B.n:
        raise ValueError(f"order mismatch: {A.n} vs {B.n}")
    # both operands are symmetric, so BA = (AB)^T
    C = A.toarray() @ B.toarray()
    C = C - C.T
    total = sum(x * x for x in C.ravel())
    return math.sqrt(total)


def full_lift_values(p, N, eta, d=1, eta_b=0.0, flavor="outlier_free"):
    """Every eigenvalue of the d-dimensional pencil, ascending."""
    system = build_soft_system(p, N, eta, eta_b, flavor)
    return kron_sum_spectrum(solve_system(system).values, d).values


def sorted_continuum_values(d, n1):
    """The n1^d smallest pi^2 * |j|^2 over the positive lattice, by
    enumeration: every sum over the box [1, side]^d, side = floor(sqrt(
    d * n1^2 - (d - 1))), which holds every wanted point, sorted. About
    5.2 times n1^d sums at d = 3; the package counts them instead."""
    side = math.isqrt(d * n1 * n1 - (d - 1))
    squares = np.arange(1, side + 1) ** 2
    sums = squares
    for _ in range(d - 1):
        sums = np.add.outer(sums, squares)
    smallest = np.sort(sums, axis=None)[:n1 ** d]
    return np.pi ** 2 * smallest.astype(float)


def stretch(band, corner, n, scale):
    """The band of order n whose first ``corner`` columns are those of
    ``band``, whose last ones are their mirror, and whose other columns
    are ``band``'s column ``corner``, times scale, written out entry by
    entry in O(n * hbw): the stretch the assembly once formed for every
    mesh above the reference size.

    Entry (i + k, i) of the right corner is entry (n-1-i, n-1-i-k) of
    the left one, so row k of the band ends with row k of the left
    corner reversed, followed by the k slots past the matrix.
    """
    out = np.empty((len(band), n))
    out[:, :corner] = band[:, :corner]
    out[:, corner:] = band[:, corner, None]
    for k, row in enumerate(out):
        row[n - k - corner:n - k] = band[k, corner - 1::-1]
        row[n - k:] = 0.0
    out *= scale
    return out


def whole_edge(A, B, norms, tol, work, flip=False):
    """``eigensolve._edge`` bisecting on the whole pencil from the start,
    with no shift read from the leading block: the top eigenpair of
    (A, B), or with ``flip`` of (-A, B) formed as a negated copy, as
    (x, B x). ``work`` is unused; the bisection factors into a buffer of
    its own."""
    from scipy.linalg.lapack import dpbtrf
    if flip:
        A = SymBandedMatrix(-A.band)
    a, b = A.band, B.band
    work = np.empty_like(a)

    def factor_at(t):
        np.multiply(b, t, out=work)
        np.subtract(work, a, out=work)
        factor, info = dpbtrf(work, lower=1, overwrite_ab=1)
        return factor if info == 0 else None

    lo = float(np.max(a[0] / b[0]))
    step = abs(lo) or 1.0
    hi = lo + step
    while (factor := factor_at(hi)) is None:
        lo, step = hi, 2.0 * step
        hi = lo + step
        if not np.isfinite(hi):
            raise eigensolve.EigenSolveError("no shift above the spectrum")
    floor = eigensolve._EPS * max(abs(lo), abs(hi))
    while hi - lo > floor:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        factor = factor_at(mid)
        if factor is None:
            lo = mid
        else:
            hi = mid
    if factor is None:
        factor = factor_at(hi)
    start = 1.0 + np.arange(A.n) / A.n
    start[1::2] *= -1.0
    x, bx, _, _ = eigensolve._inverse_iteration(
        factor, hi, B, start, norms, max(tol, 4.0 * floor),
        eigensolve.MAX_INVERSE_STEPS)
    return x, bx


def fresh_assembly_caches():
    """Empty the per-mesh bands and operators of the assembly."""
    assembly._bands.cache_clear()
    assembly._operators.cache_clear()
    assembly._mass_side_terms.cache_clear()


def space_member_eval(space, i, x, r=0):
    """Derivative of order r of the i-th space basis function at x, the
    right limit at a breakpoint and the left one at x = 1."""
    if not 0 <= i < space.dim:
        raise IndexError(f"member index {i} out of range 0..{space.dim - 1}")
    be = eval_basis(space.kv, x, r)
    unit = np.zeros(space.dim)
    unit[i] = 1.0
    row = raw_coefficients(space, unit)
    p = space.kv.p
    return float(row[be.element:be.element + p + 1] @ be.ders[r])


def _pth_trace(kv, element):
    """p-th-derivative values of every raw function on one element, as
    a raw-length row, read at its midpoint: the derivative is constant
    there, so this is the trace at either end of the element."""
    be = eval_basis(kv, (element + 0.5) / kv.N, kv.p)
    out = np.zeros(kv.num_raw)
    out[be.element:be.element + kv.p + 1] = be.ders[kv.p]
    return out


def pth_derivative_jump(kv, interface_index):
    """Jump of the p-th derivative of every raw function at a face.

    Interior faces (index 1..N-1) use the left-limit minus the
    right-limit, i.e. the trace weighted by the outward normal of the
    left element. Boundary faces (index 0 and N) carry the one-sided
    trace weighted by the outward normal: -1 at x=0, +1 at x=1.

    Parameters
    ----------
    kv : KnotVector
    interface_index : int
        Face index in 0..N; 0 and N are the boundary faces.

    Returns
    -------
    ndarray of length ``kv.num_raw``.
    """
    k = int(interface_index)
    N = kv.N
    if not 0 <= k <= N:
        raise ValueError(f"interface index must be in 0..{N}, got {k}")
    if k == 0:
        return -_pth_trace(kv, 0)
    if k == N:
        return _pth_trace(kv, N - 1)
    return _pth_trace(kv, k - 1) - _pth_trace(kv, k)


def space_operators(space, E=None):
    """The stiffness, mass and softness (K, M, S) of the space, E R E^T
    from the raw bands R of its mesh and a dense extraction E, by
    default the space's own (``dense_extraction``), as full-bandwidth
    bands. Another E, of the same rows in another basis, gives a
    remixed space that the package does not build. The products skip
    the zeros of E and R."""
    if E is None:
        E = dense_extraction(space)
    E = sparse.csr_array(E)
    return tuple(banded((E @ sparse.csr_array(raw.toarray()) @ E.T)
                        .toarray()) for raw in _raw_operators(space.kv))


def softened_reference(p, N, eta, eta_b=0):
    """Printed-pencil matrices (K - eta*S, M + eta_b*S), exact."""
    S = reference_matrix("S", p, N)
    return (reference_matrix("K", p, N).plus(-Fraction(eta), S),
            reference_matrix("M", p, N).plus(Fraction(eta_b), S))


def dispersion_eigenvalue(p, t, eta=0, eta_b=0):
    """Interior-symbol pencil eigenvalue lambda*h^2 at wavenumber t, at
    the caller's mpmath working precision: the cosine series of the
    stencils of K - eta*S over that of M + eta_b*S, each term
    s_0 + 2 * sum over k >= 1 of s_k cos(k t), summed unfactored."""
    t = mpmath.mpf(t)

    def series(kind, weight=1):
        out = mpmath.mpf(0)
        for k, c in enumerate(interior_stencil(kind, p)):
            c *= Fraction(weight)
            term = mpmath.mpf(c.numerator) / c.denominator
            out += term * (2 * mpmath.cos(k * t) if k else 1)
        return out

    return ((series("K") - series("S", eta))
            / (series("M") + series("S", eta_b)))


def mpmath_fit(p, eta):
    """The fitted double of ``fit_leading_coefficient(p, eta)``, from the
    symbol evaluated in mpmath at 60 digits (``interior_symbol`` on
    mpmath numbers, eta rounded to that precision) and the Lagrange sum
    at t -> 0 of the quadratic in t^2 through its three points."""
    exp = dispersion_expansion(p, eta)
    power = 2 * p if exp.lead != 0 else 2 * p + 2

    def exact(x):
        x = Fraction(x)
        return mpmath.mpf(x.numerator) / x.denominator

    with mpmath.workdps(60):
        ts = np.array([mpmath.mpf(t) for t in FIT_WAVENUMBERS], dtype=object)
        values = interior_symbol(
            p, exact(eta), 0, np.array([mpmath.sin(t / 2) ** 2 for t in ts]),
            np.array([mpmath.cos(t / 2) ** 2 for t in ts]), exact)
        us = ts ** 2
        rs = (values / us - 1) / ts ** power
        return float(sum(r * math.prod(v / (v - u) for v in us if v != u)
                         for r, u in zip(rs, us)))


def loop_reference_numerators(kind, p, N):
    """The band of d * ``reference_matrix(kind, p, N)`` in Python
    integers, entry by entry: the wrapped stencil at a - b less its
    value at a + b, for entry (a, b) in node units."""
    sym = interior_stencil(kind, p)
    n = N if p % 2 == 0 else N - 1
    d = math.lcm(*(x.denominator for x in sym))
    wrapped = [0] * (2 * N)
    for k in range(1 - len(sym), len(sym)):
        wrapped[k % (2 * N)] += sym[abs(k)].numerator * (
            d // sym[abs(k)].denominator)
    band = np.zeros((min(len(sym), n), n), dtype=object)
    for k in range(len(band)):
        for i in range(n - k):
            band[k, i] = (wrapped[k]
                          - wrapped[(2 * i + k + 1 + p % 2) % (2 * N)])
    return band, d


def sine_sample(p, j, N, k):
    """k-th component of the sine-pattern eigenvector (unnormalized).

    Odd p samples sin(j*pi*k/N) at the nodes k/N, k = 1..N-1; even p
    samples sin(j*pi*(k-1/2)/N) at the staggered nodes, k = 1..N.
    """
    node = k if p % 2 else k - 0.5
    return math.sin(node * (j * math.pi / N))


def pythagorean_residual(p, N, eta, j):
    """Residual of the energy-norm identity for mode j of the
    outlier-free pencil.

    With the energy seminorm induced by the softened stiffness form,
    the squared error splits as lambda_j * ||u - u_h||_L2^2 plus the
    eigenvalue error. The H1 error is the package's; the L2 error is
    integrated here with the same (p + 4)-point Gauss rule, one
    ``eval_basis`` call per point. Returns (residual, gap) where gap is
    the eigenvalue error, so residual should be far below gap.
    """
    system = build_soft_system(p, N, eta)
    spectrum = solve_system(system)
    lam_h = spectrum.values[j - 1]
    lam = (j * math.pi) ** 2
    c = closed_form_vectors(system, spectrum)[:, j - 1]
    c = c / math.sqrt(c @ system.mass.matvec(c))
    soft = float(c @ system.softness.matvec(c))
    raw = raw_coefficients(system.space, c)
    xg, wg = np.polynomial.legendre.leggauss(p + 4)
    rows = []
    for e in range(N):
        for xq, wq in zip(xg, wg):
            x = (e + 0.5 * (xq + 1.0)) / N
            be = eval_basis(system.space.kv, x, 0)
            rows.append((0.5 * wq / N,
                         be.ders[0] @ raw[be.element:be.element + p + 1],
                         math.sqrt(2.0) * math.sin(j * math.pi * x)))
    w, uh, u = map(np.array, zip(*rows))
    sign = 1.0 if w @ (uh * u) >= 0 else -1.0
    l2_sq = w @ (sign * uh - u) ** 2
    h1_sq = h1_errors_for_modes(system, spectrum, [j])[0] ** 2
    energy_sq = h1_sq - system.eta * soft
    gap = abs(lam_h - lam)
    return abs(energy_sq - (lam * l2_sq + lam_h - lam)), gap

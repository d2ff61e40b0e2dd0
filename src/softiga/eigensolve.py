"""Symmetric-definite generalized eigensolvers with a residual contract.

Both sides of the pencil arrive in LAPACK lower band storage
(SymBandedMatrix), the one matrix type every function of the package
takes, whole or stretched from its corner and one interior column:
row k holds the k-th subdiagonal, ``band[k, i]`` = entry (i + k, i).
``scipy.linalg`` is imported by the functions that factor or solve, on
their first call. The two solvers serve the standard space at p >= 3,
where no closed form is known, and write their sides out whole.

* ``generalized_eig`` returns every eigenpair from the LAPACK sygvd
  path. The dense sides exist only as the call's arguments and A V and
  B V are band products, one vector at a time, so the call's peak of
  about 6 n^2 doubles is the solve's; an order above
  ``MAX_DENSE_ORDER`` is refused before anything dense is allocated.
* ``extreme_eigenpairs`` returns only the smallest and the largest
  pair, from band factorizations alone, in O(n * hbw) memory: A, B,
  one buffer for the factors of both ends and a few vectors. By
  Sylvester's law of inertia, sigma*B - A is positive definite exactly
  when sigma > lambda_max, which one ``dpbtrf`` decides in
  O(n * hbw^2): a shift just above the top of the pencil's leading
  block is so proved above lambda_max, or lambda_max is bisected, and
  a shift just below lambda_min proves it lowest; shift-invert steps
  at those shifts give the two pairs.

Their eigenvalues are Rayleigh quotients of the float operators, off by
about eps*lambda_max/lambda_j relative on the low modes; the
closed-form values are the interior symbol of the exact stencils.

Every path enters through one check of the pencil (``_checked_pencil``),
which refuses an order mismatch, a B that is not definite (with its
Cholesky pivot) and non-finite entries, and hands on double-precision
bands of one height with their Frobenius norms, and leaves through the
residual contract (``_contract``): ||A v - lambda B v|| <=
RESIDUAL_RTOL * (||A||_F + |lambda| ||B||_F), measured by the solvers
(``_residual_norms``) and certified for the closed-form pairs. A pair
that breaks it raises ``EigenSolveError`` (exit 2 on the command line)
rather than being returned; so does a floating-point overflow, invalid
operation or division by zero anywhere inside a solve, as with finite
entries whose squares overflow the Frobenius norm. A solve returns a
``Spectrum``: the eigenvalues, the residual contract of every pair and
either the B-orthonormal eigenvectors or the closed-form mode numbers.
A vector keeps the sign its solver gave it; the H1 error of a pair with
no mode number aligns it with its continuum counterpart first.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np


class DefinitenessError(ArithmeticError):
    """A matrix required to be positive definite is not.

    Attributes
    ----------
    pivot : int
        1-based index of the first non-positive Cholesky pivot.
    """

    def __init__(self, pivot, message="matrix is not positive definite"):
        super().__init__(f"{message} (leading minor of order {pivot})")
        self.pivot = pivot


class EigenSolveError(RuntimeError):
    """A solve failed: non-finite entries, no convergence, or a pair
    that breaks the residual contract."""


def _padded(band, rows):
    """The band with ``rows`` rows, zero below its own, in double
    precision and Fortran order so that BLAS and LAPACK read it in
    place; not copied when it already is one."""
    if len(band) == rows:
        return np.asarray(band, dtype=float, order="F")
    out = np.zeros((rows, band.shape[1]), order="F")
    out[:len(band)] = band
    return out


@functools.lru_cache(maxsize=64)
def _mirror_slots(rows, c):
    """Index arrays of the right end of a band of ``rows`` rows stretched
    from a corner of c columns, counted from the end: slot (k, j - k - c)
    takes corner entry (k, c - 1 - j); slots (k, i - k), i < k, lie past
    the matrix."""
    k, j = np.ogrid[:rows, :c]
    k_past, i = np.tril_indices(rows, -1)
    slots = (k, j - k - c, c - 1 - j, k_past, i - k_past)
    for index in slots:
        index.flags.writeable = False
    return slots


def _written_out(left, out):
    """Write into ``out`` (rows, n) the band stretched from ``left``
    (rows, c + 1), with zeros in the slots past the matrix. Row k ends
    with row k of the left corner reversed, then k such slots."""
    c = left.shape[-1] - 1
    k, to, source, k_past, past = _mirror_slots(len(left), c)
    out[:, :c] = left[:, :c]
    out[:, c:] = left[:, c:]
    out[k, to] = left[k, source]
    out[k_past, past] = 0
    return out


@functools.lru_cache(maxsize=64)
def _multiplicities(rows, width, n):
    """How often each entry of the ``left`` of a band stretched to order
    n occurs in the matrix: a corner entry twice, the interior entry of
    row k n - 2c - k times, and each twice again off the diagonal."""
    c = width - 1
    out = np.empty((rows, width))
    out[:, :c] = 2.0
    out[:, c] = n - 2 * c - np.arange(rows)
    out[1:] *= 2.0
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SymBandedMatrix:
    """Symmetric banded matrix in LAPACK lower band storage.

    Instances compare and hash by identity; compare ``band`` arrays to
    compare entries.

    Attributes
    ----------
    left : ndarray, shape (half_bandwidth + 1, n or c + 1)
        The first columns of ``band``, ``left[k, i]`` entry (i + k, i):
        all n of a whole band, whose last k slots of row k lie past the
        matrix and are zero, or the c of a stretched band's left corner
        and its first interior column.
    order : int or None
        The order n >= 2c + hbw + 1 of a stretched band, whose columns
        c..n-c-1 all equal ``left[:, c]`` and whose last c mirror the
        first, entry (i + k, i) equal to entry (n-1-i, n-1-i-k); None
        for a whole band. Its sums and norms cost O(c * hbw).

    Entries beyond the half bandwidth are exactly zero and not stored.
    """

    left: np.ndarray
    order: int = None

    @property
    def n(self):
        return self.left.shape[1] if self.order is None else self.order

    @property
    def half_bandwidth(self):
        return len(self.left) - 1

    @property
    def band(self):
        """The band, shape (half_bandwidth + 1, n): ``left``, or a
        stretched band written out in Fortran order."""
        if self.order is None:
            return self.left
        return _written_out(self.left, np.empty(
            (len(self.left), self.order), self.left.dtype, order="F"))

    def whole(self):
        """The same matrix as a whole band, itself when it is one."""
        return self if self.order is None else SymBandedMatrix(self.band)

    def toarray(self):
        """Dense copy; reads only the slots inside the matrix."""
        n, band = self.n, self.band
        out = np.zeros((n, n), dtype=band.dtype)
        flat = out.reshape(-1)
        for k, diag in enumerate(band):
            # entries (i + k, i) and (i, i + k) are n + 1 apart in memory
            flat[k * n::n + 1] = diag[:n - k]
            flat[k:(n - k) * n:n + 1] = diag[:n - k]
        return out

    def plus(self, weight, other):
        """self + weight * other, in the dtype of both bands and in
        Fortran order, which BLAS and LAPACK read in place: stretched
        when both are, to one order and corner, else whole."""
        order = self.order if (self.order == other.order and self.left.shape[1]
                               == other.left.shape[1]) else None
        a, b = (self.left, other.left) if order else (self.band, other.band)
        band = np.zeros((max(len(a), len(b)), a.shape[1]), order="F",
                        dtype=np.result_type(a, b))
        band[:len(a)] += a
        # a weight past the double range leaves inf entries, which the
        # pencil check of both solvers refuses in one error
        with np.errstate(over="ignore"):
            band[:len(b)] += weight * b
        return SymBandedMatrix(band, order)

    def inner(self, other):
        """Frobenius inner product with a band of the same form and
        shape; the off-diagonal rows count twice."""
        x, y = self.left, other.left
        if self.order is None:
            return 2.0 * np.vdot(x, y) - x[0] @ y[0]
        # a product that overflows raises, as the whole band's matmul does
        return (_multiplicities(*x.shape, self.order) * x).ravel() @ y.ravel()

    def frobenius(self):
        """Frobenius norm; the off-diagonal rows count twice."""
        if self.order is not None:
            return math.sqrt(self.inner(self))
        flat = self.left.ravel(order="K")
        return math.sqrt(2.0 * (flat @ flat) - self.left[0] @ self.left[0])

    def padded(self, rows):
        """The matrix with ``rows`` rows of band (``_padded``)."""
        return SymBandedMatrix(_padded(self.left, rows), self.order)

    def matvec(self, x):
        """The product with the vector x (BLAS dsbmv), in double
        precision and O(n * hbw)."""
        from scipy.linalg import blas
        return blas.dsbmv(self.half_bandwidth, 1.0, self.band, x, lower=1)


RESIDUAL_RTOL = 1e-10

# Largest order whose full spectrum is computed: the dense solve's 6 n^2
# doubles are about 1.2 GB there. The closed-form pairs of
# ``spectral_analysis`` take O(n * p^2) time and O(n) memory, and there
# the limit bounds the report that prints them.
MAX_DENSE_ORDER = 5000


def check_full_order(n):
    """Refuse a full spectrum of order n above ``MAX_DENSE_ORDER``, before
    anything of order n^2 is allocated."""
    if n > MAX_DENSE_ORDER:
        raise ValueError(f"a full spectrum of order {n} is above the limit"
                         f" of {MAX_DENSE_ORDER}")


def cholesky_pivot(B):
    """0 if the SymBandedMatrix B is positive definite, else the 1-based
    failing pivot; factored in band storage, in O(n * hbw^2)."""
    from scipy.linalg import lapack
    _, info = lapack.dpbtrf(B.band, lower=1)
    return int(info) if info > 0 else 0


def lowest_eigenvalue(X):
    """Smallest eigenvalue of the SymBandedMatrix X, one selected
    eigenvalue of its band (LAPACK dsbevx)."""
    from scipy.linalg import eigvals_banded
    return eigvals_banded(X.band, lower=True, select="i",
                          select_range=(0, 0))[0]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenpairs of a symmetric-definite pencil: all of them
    (``generalized_eig``) or the smallest and the largest
    (``extreme_eigenpairs``).

    A numerical solve sets ``vectors`` and leaves ``modes`` None; a
    closed-form one (``spectral_analysis.solve_system``) does the reverse.

    Attributes
    ----------
    values : ndarray
        Eigenvalues, ascending.
    vectors : ndarray or None
        Eigenvectors as columns in the order of ``values``, B-normalized
        and B-orthogonal (the two extreme ones of a pencil of order 1
        are one vector), each with the sign its solver gave it.
    residuals : ndarray
        ||A v - lambda B v||_2 per pair.
    residual_bounds : ndarray
        Contract bound per pair, RESIDUAL_RTOL*(||A||_F + |lambda| ||B||_F).
    modes : ndarray or None
        The closed-form mode number j of each pair, in the order of
        ``values``; the pair of rank r need not be mode r, as when the
        mass-side weight lifts the top modes. None for the numerical
        solvers, which know no mode numbers.
    """

    values: np.ndarray
    vectors: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    residual_bounds: np.ndarray = field(repr=False)
    modes: np.ndarray = field(default=None, repr=False)

    @property
    def n(self):
        return len(self.values)


def _checked_pencil(A, B, definite=False):
    """The pencil (A, B) as two double-precision, Fortran-order bands of
    one height, which BLAS and LAPACK read in place, and their Frobenius
    norms.

    Raises ValueError on an order mismatch, DefinitenessError with the
    pivot when B is not positive definite (unless the caller proved it
    ``definite``), and EigenSolveError on non-finite entries.
    """
    if A.n != B.n:
        raise ValueError(f"order mismatch: {A.n} vs {B.n}")
    if not definite:
        pivot = cholesky_pivot(B)
        if pivot:
            raise DefinitenessError(pivot)
    rows = max(len(A.left), len(B.left))
    A, B = A.padded(rows), B.padded(rows)
    if not (np.logical_and.reduce(np.isfinite(A.left), None)
            and np.logical_and.reduce(np.isfinite(B.left), None)):
        raise EigenSolveError("non-finite entries in the pencil")
    return A, B, (A.frobenius(), B.frobenius())


def _solver(solve):
    """The solver ``solve`` with every floating-point overflow, invalid
    operation or division by zero inside it raised as one
    EigenSolveError instead of warned about and carried on."""
    @functools.wraps(solve)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return solve(*args, **kwargs)
        except FloatingPointError as exc:
            raise EigenSolveError(f"{exc} during the solve") from None
    return checked


def _column_dots(X, Y):
    """x_j^T y_j for every column pair of the blocks X and Y, summed
    row after row whatever the number of columns or the memory order of
    the blocks, so that a column's value does not depend on the block it
    came in: numpy would sum a lone contiguous column, or the columns of
    a Fortran-order block, pairwise instead."""
    if X.shape[1] == 1:
        return np.add.accumulate(X[:, 0] * Y[:, 0])[-1:]
    return np.einsum("ij,ij->j", np.ascontiguousarray(X),
                     np.ascontiguousarray(Y))


def _residual_norms(values, AX, BX):
    """||A x_j - values[j] B x_j|| for every column of the products A X
    and B X, with one temporary block."""
    R = BX * values
    np.subtract(AX, R, out=R)
    return np.sqrt(_column_dots(R, R))


def _contract(values, residuals, norms):
    """The contract bounds of the pairs, in their order, from the
    Frobenius norms of A and B. Two-dimensional arrays hold one pencil
    per row, with the norms as columns. Nothing is sorted: each caller
    sorts what it reads.

    Raises EigenSolveError on non-finite values, or when a pair breaks
    the residual contract ||A x - lambda B x|| <= RESIDUAL_RTOL *
    (||A||_F + |lambda| ||B||_F), naming the worst pair of the first
    pencil that breaks it by its rank in that pencil's stable ascending
    order.
    """
    if not np.all(np.isfinite(values)):
        raise EigenSolveError("non-finite values in eigensolution")
    bounds = RESIDUAL_RTOL * (norms[0] + np.abs(values) * norms[1])
    kept = residuals <= bounds
    if not kept.all():
        n = values.shape[-1]
        row = int(np.argmin(kept.reshape(-1, n).all(1)))
        order = np.argsort(values.reshape(-1, n)[row], kind="stable")
        residuals = residuals.reshape(-1, n)[row][order]
        bounds = bounds.reshape(-1, n)[row][order]
        j = int(np.argmax(residuals / bounds))
        raise EigenSolveError(f"eigenpair {j + 1} of {n} breaks"
                              f" the residual contract: residual"
                              f" {residuals[j]:.3e} above its bound"
                              f" {bounds[j]:.3e}")
    return bounds


def _spectrum(values, X, residuals, norms):
    """The Spectrum of the pairs (values[j], X[:, j]), with the residual
    norms of ``_residual_norms`` and the Frobenius norms of A and B, the
    pairs in stable ascending order: X itself when already in that
    order, else a sorted copy. With X None the pairs are closed-form
    ones, and the Spectrum keeps the mode number of each rank instead.

    Raises EigenSolveError on non-finite values or vectors, or when a
    pair breaks the residual contract (``_contract``).
    """
    if X is not None and not np.all(np.isfinite(X)):
        raise EigenSolveError("non-finite values in eigensolution")
    bounds = _contract(values, residuals, norms)
    order = np.argsort(values, kind="stable")
    values, residuals, bounds = values[order], residuals[order], bounds[order]
    if X is None:
        return Spectrum(values, None, residuals, bounds, order + 1)
    if not np.array_equal(order, np.arange(len(order))):
        X = X[:, order]
    return Spectrum(values, X, residuals, bounds)


@_solver
def generalized_eig(A, B):
    """Solve A v = lambda B v for symmetric A and SPD B.

    Parameters
    ----------
    A, B : SymBandedMatrix
        Same order; B positive definite. Entries of any real dtype,
        Fraction included, are solved in double precision.

    Returns
    -------
    Spectrum

    Raises
    ------
    ValueError
        For an order above ``MAX_DENSE_ORDER``, before densifying, or
        on an order mismatch.
    DefinitenessError
        If B fails its Cholesky factorization; carries the pivot index.
    EigenSolveError
        On non-finite entries, if the iteration does not converge, on
        a floating-point overflow, or when a pair breaks the residual
        contract.
    """
    check_full_order(A.n)
    A, B, norms = _checked_pencil(A.whole(), B.whole())
    import scipy.linalg as sla
    try:
        w, V = sla.eigh(A.toarray(), B.toarray())
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise EigenSolveError(str(exc)) from exc
    # one vector product (dsbmv) per column: the dense solve decides
    # pencils at the edge of the residual contract, such as standard
    # spaces of degree 14 to 16 on coarse meshes, and keeps the
    # arithmetic, and so the verdict, of its earlier releases
    AV, BV = np.empty(V.shape), np.empty(V.shape)
    for j, v in enumerate(V.T):
        AV[:, j], BV[:, j] = A.matvec(v), B.matvec(v)
    w = np.einsum("ij,ij->j", V, AV) / np.einsum("ij,ij->j", V, BV)
    residuals = _residual_norms(w, AV, BV)
    del AV, BV
    return _spectrum(w, V, residuals, norms)


# Inverse-iteration steps one end of a spectrum may take.
MAX_INVERSE_STEPS = 64

_EPS = np.finfo(float).eps


def _shifted_factor(a, b, t, out, dpbtrf, flip=False):
    """LAPACK's ``dpbtrf`` of t*B - A in ``out``, or with ``flip`` of
    t*B + A, which is t*B - (-A) bit for bit since negation is exact: 0
    when it factors, which by Sylvester's law of inertia is exactly when
    t > lambda_max, else the 1-based failing pivot. ``out`` then holds the
    factor in place.

    The caller imports ``dpbtrf`` once for all of its shifts: an import
    statement, even of a loaded module, costs up to a tenth of the
    factorization of a small band, and a bisection factors about 55.
    """
    np.multiply(b, t, out=out)
    (np.add if flip else np.subtract)(out, a, out=out)
    return dpbtrf(out, lower=1, overwrite_ab=1)[1]


def _inverse_iteration(factor, t, B, x, norms, tol, steps):
    """Shift-invert steps x <- (t*B - A)^-1 B x with the factor of
    t*B - A, towards the eigenpair nearest t.

    The steps settle once the eigenvalue estimate moves by at most tol
    and the pair meets the residual contract RESIDUAL_RTOL * (||A||_F +
    |lambda| ||B||_F) a hundredfold, ``norms`` holding the two Frobenius
    norms. Returns the B-normalized x, B x, the estimate and whether the
    steps settled.
    """
    from scipy.linalg import blas, lapack
    bx = B.matvec(x)
    estimate = None
    settled = False
    for _ in range(steps):
        y, _ = lapack.dpbtrs(factor, bx, lower=1)
        # y grows as B x over the gap to t, so its products with B may
        # overflow: bring its norm into [0.5, 1) first, with B x
        # alongside. A power of two scales every product exactly, so
        # the steps are the same to the last bit wherever the unscaled
        # ones stay finite. The steps work in place, with four vectors
        # of order n at most besides the start.
        power = -math.frexp(blas.dnrm2(y))[1]
        np.ldexp(y, power, out=y)
        np.ldexp(bx, power, out=bx)
        by = B.matvec(y)
        yby = y @ by
        # (t*B - A) y = B x, so A y = t*B y - B x: the Rayleigh quotient
        # and the residual A y - estimate*B y need no product with A
        shift = (y @ bx) / yby
        previous, estimate = estimate, t - shift
        if previous is not None and abs(estimate - previous) <= tol:
            # the previous iterate, past the start, holds the residual
            r = np.multiply(by, shift, out=x)
            r -= bx
            bound = RESIDUAL_RTOL * (norms[0] + abs(estimate) * norms[1])
            settled = r @ r <= (0.01 * bound) ** 2 * yby
            del r
        scale = math.sqrt(yby)
        y /= scale
        by /= scale
        x, bx = y, by
        if settled:
            break
    return x, bx, estimate, settled


def _halve(a, b, work, lo, hi, floor, flip, dpbtrf):
    """The bracket lo <= lambda_max < hi of the pencil of bands ``a`` and
    ``b`` (``flip`` as for ``_bisection``) halved down to floor or until
    it stops shrinking; returns hi, with its factor in ``work``."""
    factored = True
    while hi - lo > floor:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        # a shift that does not factor spoils the factor at hi in work
        factored = _shifted_factor(a, b, mid, work, dpbtrf, flip) == 0
        if factored:
            hi = mid
        else:
            lo = mid
    if not factored:
        _shifted_factor(a, b, hi, work, dpbtrf, flip)
    return hi


def _bisection(a, b, work, flip, dpbtrf, width=_EPS):
    """Bracket and halve lambda_max of the pencil (A, B), or with
    ``flip`` of (-A, B), their bands ``a`` and ``b`` (the first m
    columns are its leading block of order m), factoring in ``work``:
    from the largest diagonal ratio, a Rayleigh quotient, the bracket
    doubles until hi factors and is halved until it stops shrinking,
    about 53 factorizations, or fewer to a relative ``width``. Returns
    hi and the final width."""
    lo = float(np.max((-a[0] if flip else a[0]) / b[0]))
    step = abs(lo) or 1.0
    hi = lo + step
    while _shifted_factor(a, b, hi, work, dpbtrf, flip):
        lo, step = hi, 2.0 * step
        hi = lo + step
        if not np.isfinite(hi):
            raise EigenSolveError("no shift above the spectrum")
    floor = width * max(abs(lo), abs(hi))
    return _halve(a, b, work, lo, hi, floor, flip, dpbtrf), floor


def _corner_shift(a, b, work, norms, dpbtrf):
    """A shift just above lambda_max of the pencil of bands ``a`` and
    ``b``, its factor in ``work``, and the floor eps * s; None when the
    pencil is no larger than its leading block of order m = 12 hbw + 24
    or its top mode is not at the corner. The block's top lambda_b,
    below the pencil's, is bisected to 2^-10 and read from shift-invert
    steps there; s is the larger of |lambda_b| and the block's largest
    diagonal ratio (lambda_b is 0 at a null corner). A whole factor at
    lambda_b + 64 eps s proves every eigenvalue below it; a refused
    margin is widened fourfold up to 2^-20 s, and the bracket found
    halved to 64 eps s, which separates a top pair 1e-12 apart."""
    n, hbw = a.shape[1], len(a) - 1
    m = min(n, 12 * hbw + 24)
    if m == n:
        return None
    # a dense solve of the block (LAPACK dsygvx) takes longer, and its
    # last bits vary with the number of BLAS threads
    hi, _ = _bisection(a[:, :m], b[:, :m], work[:, :m], False, dpbtrf,
                       2.0 ** -10)
    floor = _EPS * max(abs(hi), float(np.max(abs(a[0, :m] / b[0, :m]))))
    _, _, top, _ = _inverse_iteration(work[:, :m], hi, SymBandedMatrix(
        b[:, :m]), _ramp(m), norms, 4.0 * floor, MAX_INVERSE_STEPS)
    lo = top + 64.0 * floor
    for widening in range(14):
        hi = top + 64.0 * floor * 4.0 ** widening
        if _shifted_factor(a, b, hi, work, dpbtrf) == 0:
            return _halve(a, b, work, lo, hi, 64.0 * floor, False,
                          dpbtrf), floor
        lo = hi
    return None


def _edge(A, B, norms, tol, work, flip=False):
    """The eigenpair of the largest eigenvalue of the pencil (A, B), or
    with ``flip`` of (-A, B), as (x, B x), x B-normalized; ``work``, a
    band of A's shape, holds the shifted factors.

    The top mode of a standard space at p >= 3 is a boundary outlier,
    which the pencil's leading rows fix to about 1e-14, so the final
    shift lies just above the top of its leading block
    (``_corner_shift``); elsewhere, and for the global top of (-A, B),
    it is bisected on the whole pencil (``_bisection``). Shift-invert
    steps there, two from the corner's shift, give the eigenvector from
    a ramp of alternating signs, as the top modes of a stiffness pencil,
    that breaks every symmetry.
    """
    from scipy.linalg.lapack import dpbtrf
    a, b = A.band, B.band
    hi, floor = ((None if flip else _corner_shift(a, b, work, norms, dpbtrf))
                 or _bisection(a, b, work, flip, dpbtrf))
    x, bx, _, _ = _inverse_iteration(work, hi, B, _ramp(A.n), norms,
                                     max(tol, 4.0 * floor),
                                     MAX_INVERSE_STEPS)
    return x, bx


def _ramp(n):
    """1 + i/n with alternating signs, i = 0..n-1."""
    start = 1.0 + np.arange(n) / n
    start[1::2] *= -1.0
    return start


def _sine(n):
    """sin(pi i / (n + 1)), i = 1..n: the lowest mode of a Laplacian."""
    return np.sin(np.pi * np.arange(1, n + 1) / (n + 1))


def _lowest(A, B, norms, tol, work):
    """The eigenpair of the smallest eigenvalue of the pencil (A, B), as
    (x, B x), x B-normalized; ``work``, a band of A's shape, holds the
    factors.

    When A is positive definite, two steps of inverse iteration with its
    factor from ``_sine`` estimate lambda_min as mu. If A - sigma*B
    factors at sigma = mu (1 - 2^-10), every eigenvalue lies above
    sigma (Sylvester's law), and steps at sigma settle on lambda_min.
    Otherwise the steps with the factor of A run from the start until
    they settle, and A - s*B must factor for s a little below the value
    found. Failing that, or when A is not definite, the end is the top
    of the pencil (-A, B) (``_edge``).
    """
    from scipy.linalg.lapack import dpbtrf
    a, b = A.band, B.band
    np.copyto(work, a)
    if dpbtrf(work, lower=1, overwrite_ab=1)[1]:
        return _edge(A, B, norms, tol, work, True)
    # the factor of A is that of t*B - (-A) at t = 0: the pencil (-A, B),
    # whose eigenvalue nearest 0 is -lambda_min
    x, bx, estimate, _ = _inverse_iteration(work, 0.0, B, _sine(A.n), norms,
                                            tol, 2)
    # t*B + A at t = -sigma, which is A - sigma*B
    t = estimate * (1.0 - 2.0 ** -10)
    del bx, estimate
    if _shifted_factor(a, b, t, work, dpbtrf, True) == 0:
        x, bx, _, settled = _inverse_iteration(work, t, B, x, norms, tol,
                                               MAX_INVERSE_STEPS)
        if settled:
            return x, bx
    x = bx = None
    np.copyto(work, a)
    dpbtrf(work, lower=1, overwrite_ab=1)
    x, bx, estimate, settled = _inverse_iteration(
        work, 0.0, B, _sine(A.n), norms, tol, MAX_INVERSE_STEPS)
    # a definiteness test resolves a shift only to the round-off of A,
    # which tol measures
    below = -estimate - math.sqrt(_EPS) * abs(estimate) - 256.0 * tol
    if settled and _shifted_factor(a, b, -below, work, dpbtrf, True) == 0:
        return x, bx
    return _edge(A, B, norms, tol, work, True)


@_solver
def extreme_eigenpairs(A, B):
    """The smallest and the largest eigenpair of A v = lambda B v, for
    symmetric A and SPD B, from band factorizations alone.

    lambda_max comes from a shift just above the top of the pencil's
    leading block, certified by a band Cholesky factorization of
    sigma*B - A, or from bisection on its definiteness (about 55
    factorizations of O(n * hbw^2), ``_edge``); lambda_min from inverse
    iteration with the factors of A and of A - sigma*B for a sigma just
    below it, which certifies it (``_lowest``). Both values are Rayleigh
    quotients with band products, so lambda_min carries a round-off
    floor of about eps * lambda_max. One buffer holds the factors of
    both ends, so the solve peaks at A, B, that buffer and a few vectors
    of order n.

    Parameters
    ----------
    A, B : SymBandedMatrix
        Same order; B positive definite. Entries of any real dtype are
        solved in double precision.

    Returns
    -------
    Spectrum
        Two pairs, ``values`` = [lambda_min, lambda_max].

    Raises
    ------
    ValueError
        On an order mismatch.
    DefinitenessError
        If B fails its Cholesky factorization; carries the pivot index.
    EigenSolveError
        On non-finite entries, on a floating-point overflow, or when a
        pair breaks the residual contract.
    """
    A, B, norms = _checked_pencil(A.whole(), B.whole())
    # the one buffer of every shifted factor of both ends
    work = np.empty_like(A.left)
    top, b_top = _edge(A, B, norms, 0.0, work)
    a_top = A.matvec(top)
    # eps * lambda_max is the round-off floor of both ends
    tol = 4.0 * _EPS * abs(top @ a_top)
    bottom, b_bottom = _lowest(A, B, norms, tol, work)
    del work
    a_bottom = A.matvec(bottom)
    values = np.array([(x @ ax) / (x @ bx) for x, ax, bx in
                       ((bottom, a_bottom, b_bottom), (top, a_top, b_top))])
    residuals = _residual_norms(values, np.column_stack((a_bottom, a_top)),
                                np.column_stack((b_bottom, b_top)))
    return _spectrum(values, np.column_stack((bottom, top)), residuals,
                     norms)

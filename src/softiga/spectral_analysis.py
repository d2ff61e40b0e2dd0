"""Spectrum comparison against the continuum problem: relative
eigenvalue errors, H1 eigenfunction errors, condition-number reduction
statistics, weight sweeps, and convergence-rate fits.

Every report, in any dimension, lifts the ascending 1D eigenvalues with
``kron_sum_spectrum`` and pairs them by rank with ``continuum_values``
(``spectral_report``); a report holds only the paired arrays. The error
of one mode over a mesh family, of its eigenvalue or of its H1
seminorm, comes from one routine (``mode_convergence``) that builds and
solves each mesh once. A weight sweep takes one set of eigenvectors
per space and reweights every weight from it (``reweighted_values``):
the grid is one array of values, checked once, whose condition numbers
read the two ends of each row's lift (``lifted_extremes``) and whose
errors lift a few rows at a time, so a sweep holds n values per weight
and one chunk of lifts (``eta_sweep``).
Condition statistics read only the two ends of each spectrum, which the
``condition`` command takes from ``tensor.lifted_extremes`` without
building a lift, from the 1D ends of ``extreme_values``, one call per
space and mass-side weight: where the target and its unsoftened
baseline share both, one pass of the symbol gives the ends of both
weights, and an identical pencil is solved once. The bands of every
system come from one raw reference per degree
(``assembly.build_soft_system``).

On the outlier-free space of any degree, and on the standard space
at p <= 2, which is the same space, the eigenvector of mode j is the
paper's closed form, the sine samples of ``spaces.sine_table``, and its
eigenvalue the interior symbol at theta = j*pi/N. ``solve_system``,
``extreme_values`` and ``reweighted_values`` form no vector: they read
the pairs through ``_sine_pairs``, which certifies each against the
residual contract of ``eigensolve`` from the bands, and a closed-form
spectrum keeps the mode number of each rank. A stretched band's
certificates multiply out its first c + hbw rows, twice for their
mirror, and read the rows between off the symbol; other bands are
certified row by row. On the standard space at
p >= 3 they use ``generalized_eig`` and ``extreme_eigenpairs``, and
``reweighted_values`` refuses the space.

The H1 seminorm is the only eigenfunction error the package reports
(``h1_errors_for_modes``): from one element of the uniform mesh for
every rank of a closed-form spectrum (``_closed_form_h1``), and over
all N elements from the vectors of a dense solve (``_quadrature_h1``).
Either way every sum runs in a fixed order per mode, so a mode's error
is the same bits whichever other ranks are asked for.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import eta_table, interior_symbol
from .assembly import _checked_weights, _mass_side_floor, build_soft_system
from .eigensolve import (RESIDUAL_RTOL, _checked_pencil, _column_dots,
                         _contract, _solver, _spectrum, check_full_order,
                         extreme_eigenpairs, generalized_eig)
from .spaces import (quarter_sines, sine_samples, sine_table,
                     space_dimension)
from .splines import basis_table, gauss_rule, open_knot_vector
from .tensor import (_sums, check_lift_size, continuum_values,
                     kron_sum_spectrum, lifted_extremes)


class InsufficientDataError(ValueError):
    """Raised when a fit has fewer than two usable points."""


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Discrete spectrum paired with continuum targets, rank by rank."""

    indices: np.ndarray  # (n1^d, d) 1-based mode numbers, one row per mode
    exact: np.ndarray
    computed: np.ndarray
    rel_errors: np.ndarray


# Entries per slice of the closed-form values, of the certificates' rows
# and of a sweep's lifts, whose temporaries it bounds.
_SLICE = 1 << 15

_EPS = np.finfo(float).eps
# sums along an axis, without the wrapper of ndarray.sum
_add = np.add.reduce


@_solver
def _sine_pairs(system, etas, ends=False):
    """Values (the interior symbol at theta = j*pi/N), residual
    certificates (``_certificates``) and both sides' Frobenius norms of
    the closed-form pairs under each softness weight of ``etas``: rows
    follow ``etas``, columns the modes, unsorted, or with ``ends`` each
    row's own lowest and highest, found a block of ``_SLICE`` values at
    a time; the modes of every row's ends are certified under every
    weight, and each row reads its own two. Another weight has the
    stiffness side A + t S, t = eta_sys - eta, whose norm comes from
    ||A||_F and the band dots <A, S> and <S, S>. B is factored only
    where its symbol does not prove it positive
    (``assembly._mass_side_floor``). A mode that double precision does
    not certify is certified again in extended precision.
    """
    A, B, (norm, mass_norm) = _checked_pencil(
        system.A, system.B, _mass_side_floor(system) > 0)
    p, N, n = system.space.kv.p, system.space.kv.N, system.space.dim
    rows = len(etas)
    weights = np.array(etas, dtype=float)[:, None]
    width = max(1, _SLICE // rows)
    if ends:
        # row r's first lowest and first highest mode are columns 2r and
        # 2r + 1, with the values of every weight there
        js, values = np.empty(2 * rows, dtype=int), np.empty((rows, 2 * rows))
    else:
        js, values = np.arange(1, n + 1), np.empty((rows, n))
    for lo in range(0, n, width):
        part = np.arange(lo + 1, min(lo + width, n) + 1)
        # sin^2(theta/2) and cos^2(theta/2) of modes 1..n <= N, with no
        # folding onto the quarter wave
        sines = quarter_sines(N, np.concatenate((part, N - part)))
        sines *= sines
        block = (N * N) * interior_symbol(p, weights, system.eta_b,
                                          sines[:len(part)],
                                          sines[len(part):])
        if not ends:
            values[:, lo:lo + len(part)] = block
            continue
        for end, at in enumerate((block.argmin(1), block.argmax(1))):
            if not lo:
                js[end::2], values[:, end::2] = 1 + at, block[:, at]
                continue
            # the rows whose end this block moves
            best, kept = block[range(rows), at], values[:, end::2].diagonal()
            moved = best < kept if end == 0 else best > kept
            js[end::2][moved] = lo + 1 + at[moved]
            values[:, end::2][:, moved] = block[:, at[moved]]
    bands, shifts, stiffness = [A, B], None, [norm] * rows
    if any(eta != system.eta for eta in etas):
        shifts = system.eta - weights[:, 0]
        bands.append(system.softness.padded(len(A.left)))
    if len({X.left.shape[1] for X in bands}) > 1:
        # a band changed by hand is whole, and so are the others then
        bands = [X.whole() for X in bands]
    if shifts is not None:
        as_, ss = (x.inner(bands[2]) for x in (bands[0], bands[2]))
        stiffness = np.sqrt(np.maximum(
            norm ** 2 + shifts * (2 * as_ + shifts * ss), 0.0))
    certificates = _certificates(bands, shifts, values, js, p, N, float)
    # every contract bound is at least RESIDUAL_RTOL * ||A_t||_F
    if certificates.max() > RESIDUAL_RTOL * min(stiffness):
        redo = certificates > RESIDUAL_RTOL * (
            np.reshape(stiffness, (-1, 1)) + abs(values) * mass_norm)
        if ends:
            # only the columns of its own ends are read from a row
            redo &= np.repeat(np.eye(rows, dtype=bool), 2, axis=1)
        redo = redo.any(0)
        if redo.any():
            extended = _certificates(bands, shifts, values[:, redo],
                                     js[redo], p, N, np.longdouble)
            certificates[:, redo] = np.minimum(certificates[:, redo],
                                               extended)
    if ends:
        values, certificates = (X.reshape(rows, rows, 2).diagonal().T
                                for X in (values, certificates))
    return values, certificates, [(x, mass_norm) for x in stiffness]


def _certificates(bands, shifts, values, js, p, N, dtype):
    """Bounds on ||A_t x - lambda B x|| / sqrt(x^T B x), in exact
    arithmetic on the stored entries, for the sine modes x of ``js`` with
    the values ``values``, one row per shift t of A_t = A + t S; ``bands``
    holds A, B and, with shifts, S, as bands of one form and height, and
    the products are summed in the precision ``dtype`` of their sine
    samples (``spaces.sine_samples``).

    The rows certified come from the construction of the bands. A
    stretched band of order n > 2L, L = c + hbw with ``left`` of c + 1
    columns, is persymmetric, entry (i, k) equal to entry
    (n-1-k, n-1-i), and each sine mode is even or odd under reversal,
    x_(n-1-i) = +-x_i: so r_(n-1-i) = +-r_i exactly, and its rows
    0..L-1 are products with the samples they reach, each counted
    twice. Its rows L..n-1-L read only the interior column. There
    (A_t x)_i = d_A x_i and (B x)_i = m x_i, the cosine sums of the
    middle column at theta = j*pi/N, so the residual is d x_i,
    d = d_A - lambda m, and sum_reg x_i^2 = ||x||^2 (N/2, or N for j = N
    at even p) less twice the squares of the L end samples; d is one more
    row, the middle column against cos(k*theta), k = -hbw..hbw. A mode
    costs O(p^2) there. Every other band (a whole band, one changed by
    hand, a stretched band of order up to 2L) is written out and every
    row is a product, a block of rows and of modes at a time
    (``_plan``). x^T B x splits the same way, the terms x_i (B x)_i of
    rows 0..L-1 doubled.

    Rounding, with u = eps/2, e the machine epsilon of the samples
    (extended precision has 64 bits where the platform has them, else
    e = eps and the bound is looser) and R the rows that are products,
    mirrors included (2L or n): a sample is within 5e/2 of its
    sine, relative (three roundings of the argument move sin(y) by at
    most 3u*y*cos(y) <= 3u*sin(y), y <= pi/2, and the sine takes one
    ulp). A row's product over at most K = 2 hbw + 1 nonzero entries
    b_k, summed in the samples' precision in any order, is then within
    (hbw + 4) e sum |b_k| of its exact value, and r_i or d, combined in
    that precision and rounded to double, within (hbw + 5) e times the
    weighted absolute row sums of A, S and B and u |r_i| more. These
    bounds are summed as a norm with the residual's weights, sum_reg
    x_i^2 taken up by (R + 8) eps ||x||^2 for the rounding of the
    samples; x^T B x is taken down by the same bounds, (R/2 + 2) times
    those of the R rows of B, and the certificate is infinite when
    nothing of it is left. The sums, square roots and the u |r_i| round
    it by at most (R/2 + 8) eps, relative, for which it is scaled up:
    the terms of x^T B x, m x_i^2 in exact arithmetic, do not cancel.
    """
    eps, e = _EPS, _EPS if dtype is float else float(np.finfo(dtype).eps)
    (rows, width), n, count = bands[0].left.shape, bands[0].n, len(bands)
    hbw = rows - 1
    ends = width - 1 + hbw
    mirrored = bands[0].order is not None and n > 2 * ends
    if mirrored:
        explicit = step = ends
    else:
        bands = [X.whole() for X in bands]
        width = explicit = n
        step = min(n, math.isqrt(hbw * hbw + _SLICE) - hbw)
    # each band's columns after hbw zero ones, each with a zero slot after
    # its rows (a whole band's slots past the matrix hold zeros too)
    flat = np.zeros((count, hbw + width, rows + 1))
    for out, X in zip(flat, bands):
        out[hbw:, :rows] = X.left.T
    flat = flat.ravel()
    reads, nodes = _plan(count, rows, width, step, N, p % 2, mirrored)
    R, twice = (2 * ends, 2.0) if mirrored else (n, 1.0)
    modes = max(1, _SLICE // reads.shape[2])
    # sum r_i^2 and the sum of their rounding bounds squared, per weight
    # and mode
    residual, error_sq = np.zeros(values.shape), np.zeros(values.shape)
    xbx, spread, symbol = (np.zeros(len(js), dtype) for _ in range(3))
    rounding = 0.0
    norm_sq = 0.5 * N * (1.0 + ((js == N) & (p % 2 == 0)))
    widen = (R + 8) * eps * norm_sq
    for top in range(0, explicit, step):
        part = min(step, explicit - top)
        entries = flat[reads[:, :part + mirrored] + (rows + 1) * top]
        entries = entries.reshape(-1, reads.shape[2])
        # each row's bound on the rounding of its product and combination,
        # per unit of its weight (1, |t| or |lambda|)
        slack = _add(abs(entries), 1).reshape(count, -1, 1) * ((hbw + 5) * e)
        rounding += _add(slack[1, :part], None)
        at = nodes[0] + 2 * top
        for lo in range(0, len(js), modes):
            hi = min(lo + modes, len(js))
            # sin(j*pi*node/N) and cos(k*j*pi/N), in quarter waves; einsum
            # sums each product in one order, so a mode's bits do not
            # depend on the other modes
            samples = sine_samples(N, js[lo:hi, None] * at + nodes[1], dtype)
            products = np.einsum("rk,jk->rj", entries, samples)
            products = products.reshape(count, -1, hi - lo)
            own = samples[:, hbw:hbw + part].T
            xbx[lo:hi] += _add(own * products[1, :part], 0)
            if mirrored:
                spread[lo:hi] = norm_sq[lo:hi] - 2 * _add(own * own, 0)
                symbol[lo:hi] = products[1, part] - slack[1, part]
            # the rows of each weight and their rounding, in blocks of
            # weights of at most _SLICE entries (or one weight)
            block = max(1, _SLICE // products[0].size)
            for first in range(0, len(values), block):
                lam = values[first:first + block, None, lo:hi]
                side, error = products[0], slack[0]
                if count > 2:
                    t = shifts[first:first + block, None, None]
                    side = side + t * products[2]
                    error = error + abs(t) * slack[2]
                # combined in the precision of the products, then rounded
                both = np.empty((2, len(lam), *products[0].shape))
                np.subtract(side, lam * products[1], out=both[0])
                np.multiply(abs(lam), slack[1], out=both[1])
                both[1] += error
                both *= both
                sums = twice * _add(both[:, :, :part], 2)
                if mirrored:
                    sums += both[:, :, part] * (spread[lo:hi] + widen[lo:hi])
                residual[first:first + block, lo:hi] += sums[0]
                error_sq[first:first + block, lo:hi] += sums[1]
    bound = np.sqrt(residual, out=residual)
    bound += np.sqrt(error_sq, out=error_sq)
    bound *= 1 + (R / 2 + 8) * eps
    low = twice * (xbx - (R / 2 + 2) * rounding)
    if mirrored:
        low += symbol * spread - abs(symbol) * widen
    if low.min() > 0:
        return np.divide(bound, np.sqrt(low), out=bound)
    return np.divide(bound, np.sqrt(np.maximum(low, 0.0)), where=low > 0,
                     out=np.full(bound.shape, np.inf))


@functools.lru_cache(maxsize=64)
def _plan(count, rows, width, block, N, parity, symbol):
    """Where the entries of rows 0..block-1 of ``count`` bands with a
    ``left`` of shape (rows, width) against columns -hbw..block-1+hbw
    lie in the flattened columns of ``_certificates``, and with
    ``symbol`` those of one more row, the middle column against the
    cosines: shape (count, block + symbol, block + 2 hbw + symbol *
    (2 hbw + 1)); and the quarter waves j * nodes[0] + nodes[1] of
    their sine samples. Rows i + top read the same slots (rows + 1) * top
    further on, and their samples 2 top quarter waves on.

    Entry (i, k) is slot |i - k| of column min(i, k, width - 1), the
    zero slot past the band and a zero column before the first. Node k
    is k + 1 at odd p and k + 1/2 at even p, its sample sin(j*pi*node/N)
    at 2 * node j quarter waves, and cos(k*j*pi/N) at 2k j + N.
    """
    hbw = rows - 1
    i, k = np.arange(block)[:, None], np.arange(-hbw, block + hbw)
    offsets = np.arange(-hbw, hbw + 1)
    columns = len(k) + symbol * len(offsets)
    reads = np.full((count, block + symbol, columns), rows)
    reads[:, :block, :len(k)] = ((np.minimum(np.minimum(i, k), width - 1)
                                  + hbw) * (rows + 1)
                                 + np.minimum(abs(i - k), rows))
    if symbol:
        reads[:, block, len(k):] = ((width - 1 + hbw) * (rows + 1)
                                    + abs(offsets))
    reads += (np.arange(count) * (hbw + width) * (rows + 1))[:, None, None]
    nodes = np.zeros((2, columns), dtype=int)
    nodes[0, :len(k)] = 2 * k + 1 + parity
    if symbol:
        nodes[0, len(k):], nodes[1, len(k):] = 2 * offsets, N
    for array in (reads, nodes):
        array.flags.writeable = False
    return reads, nodes


@_solver
def solve_system(system):
    """Generalized eigenpairs of an assembled pencil.

    On the odd space (``SplineSpace.odd``), whose eigenvectors are the
    sine samples, the pairs are the closed-form modes, B-normalized,
    with the symbol's values, each certified against the residual
    contract (``_sine_pairs``), so a wrong vector exits 2 rather than
    printing; the Spectrum keeps their mode numbers. Else
    ``generalized_eig``.
    """
    if not system.space.odd:
        return generalized_eig(system.A, system.B)
    # the pairs take O(n * p^2) time; the limit bounds the report
    check_full_order(system.space.dim)
    (values,), (residuals,), (norms,) = _sine_pairs(system, [system.eta])
    return _spectrum(values, None, residuals, norms)


def extreme_values(system, etas=None):
    """[lambda_min, lambda_max] of the system's pencil, or with ``etas``
    a (len(etas), 2) array of them, one row per softness weight, each on
    the system's stiffness and mass operators and its eta_b.

    Where the eigenvectors are the sine samples, the rows are the
    extremes of the symbol values, evaluated elementwise per weight, with
    only their pairs certified, all in one pass (``_sine_pairs``); a
    weight other than the system's has the checks of ``with_weights``.
    Else the pencil is solved by band factorizations
    (``extreme_eigenpairs``), once whatever the number of rows, and every
    weight must be the system's own: no other has its eigenvectors.
    """
    weights = [system.eta] if etas is None else list(map(float, etas))
    # each distinct weight once, in order
    distinct = list(dict.fromkeys(weights))
    if distinct != [system.eta]:
        if not system.space.odd:
            raise ValueError(f"no closed-form eigenvectors to reweight on"
                             f" this space (p={system.space.kv.p})")
        _checked_weights(system.space.kv.p, [eta for eta in distinct
                                             if eta != system.eta],
                         system.eta_b)
    if system.space.odd:
        values, residuals, norms = _sine_pairs(system, distinct, ends=True)
        _contract(values, residuals, np.array(norms).T[..., None])
        values = np.sort(values, axis=1)
    else:
        values = extreme_eigenpairs(system.A, system.B).values[None]
    if etas is None:
        return values[0]
    return values[[distinct.index(eta) for eta in weights]]


@_solver
def reweighted_values(system, etas):
    """Eigenvalues of the system's operators under each softness weight
    of ``etas``, with its own mass-side weight eta_b, from one set of
    eigenvectors: a (len(etas), n) array, each row ascending.

    On the outlier-free space K, M and S all commute with the paper's
    transformation T, so one set of eigenvectors diagonalizes all three,
    and every weight's eigenvalues are the symbol's values of the same
    modes, all certified at once (``_sine_pairs``). The grid is checked
    as ``with_weights`` checks one weight, with the sharp weight computed
    once, and the array of pairs against the contract in one pass. Any
    other space, such as a standard space with p >= 3, whose eta = 0
    eigenvectors do not diagonalize S, is refused with ValueError before
    its pencil is checked.
    """
    if not system.space.odd:
        raise ValueError(f"no closed-form eigenvectors to reweight on"
                         f" this space (p={system.space.kv.p})")
    check_full_order(system.space.dim)
    # the checks and warnings of every weight, with no pencil formed;
    # the warnings point at the caller, past the solver's wrapper
    etas, _ = _checked_weights(system.space.kv.p, etas, system.eta_b,
                               stacklevel=4)
    values, residuals, norms = _sine_pairs(system, etas)
    # the norms as two columns, one row per weight
    _contract(values, residuals, np.array(norms).T[..., None])
    values.sort(axis=1, kind="stable")
    return values


def spectral_report(values, d=1):
    """Pair ascending 1D eigenvalues, lifted to d dimensions, with the
    continuum eigenvalues pi^2 * sum(j_i^2) by rank.

    The k-th discrete eigenvalue is compared with the k-th smallest
    continuum one; lifted values with equal sums keep their
    lexicographic index order. A 1D spectrum is its own lift. Returns a
    SpectralReport.
    """
    lift = kron_sum_spectrum(values, d)
    exact = continuum_values(d, len(values))
    rel = np.abs(lift.values - exact) / exact
    return SpectralReport(lift.indices, exact, lift.values, rel)


def _check_mode(p, N_list, j, flavor):
    """Refuse a mode index j outside 1..dim before any assembly, dim
    the smallest space dimension over the meshes of N_list."""
    dim = min((space_dimension(p, N, flavor) for N in N_list), default=0)
    if not 1 <= j <= dim:
        raise ValueError(f"mode index j must be in 1..{dim}, the smallest"
                         f" space dimension over the meshes, got {j}")


def h1_errors_for_modes(system, spectrum, js):
    """H1-seminorm errors of the pairs of ranks ``js`` of one solved
    pencil.

    The mode of rank j is rescaled to unit L2 norm and sign-aligned with
    its continuum counterpart sqrt(2)*sin(j*pi*x); the derivative
    mismatch is then integrated with a (p + 4)-point Gauss rule per
    element. The rule is exact for the square of a mode, so the norm is
    taken with it too.

    Every rank of a closed-form spectrum, whichever mode it holds, takes
    its error from one element (``_closed_form_h1``); every rank of a
    numerical solve is integrated from its vector (``_quadrature_h1``).
    """
    kv = system.space.kv
    js = np.array(list(js), dtype=int)
    for j in js:
        if not 1 <= j <= spectrum.n:
            raise ValueError(f"mode index j must be in 1..{spectrum.n},"
                             f" got {j}")
    xg, wg = gauss_rule(kv.p + 4)
    t = 0.5 * (xg + 1.0)
    weights = wg * (0.5 * kv.h)
    if spectrum.modes is None:
        h1_sq = _quadrature_h1(system, spectrum, t, weights, js)
    else:
        h1_sq = _closed_form_h1(kv, t, weights, js, spectrum.modes[js - 1])
    return [math.sqrt(float(e)) for e in h1_sq]


@functools.cache
def _element_pieces(p):
    """Values and first derivatives of the p + 1 pieces of the uniform
    B-splines on one element, at the (p + 4)-point Gauss rule of the H1
    errors, computed once per degree: two read-only (p + 4, p + 1)
    arrays and the element count of the mesh whose slopes they are.

    They are those of raw functions p-1..2p-1 on element p-1 of a mesh
    of 2p-1 elements, the one whose knots are all equally spaced
    (``basis_table``).
    """
    size = 2 * p - 1
    xg, _ = gauss_rule(p + 4)
    ders, index = basis_table(open_knot_vector(p, size), 0.5 * (xg + 1.0),
                              1)
    values, slopes = np.moveaxis(ders[index[p - 1]], 1, 0)
    values.flags.writeable = False
    slopes.flags.writeable = False
    return values, slopes, size


def _closed_form_h1(kv, t, weights, ranks, modes):
    """Squared H1 errors of the closed-form modes ``modes`` against the
    continuum modes ``ranks``, from one element, at the Gauss points t of
    weights ``weights``.

    With theta = j*pi/N, the B-spline coefficient of mode j that meets
    element e as its piece m is sin(theta*(e + c_m)), c_m = m - (p -
    1)/2, on the boundary elements too, since the outlier-free members
    are folds of the uniform B-splines. So on element e mode j is
    sin(theta*e)*P(t) + cos(theta*e)*Q(t), with P and Q the pieces
    weighted by cos(theta*c_m) and sin(theta*c_m), and the continuum
    mode sqrt(2)*sin(theta*(e + t)) and both derivatives split the same
    way. Every integral over the mesh is then a sum over the points of
    one element, weighted by the sums over e = 0..N-1 of the products of
    sin and cos of theta_a*e and theta_b*e, from C(q) and S(q), the sums
    of cos and sin of q*pi*e/N: N (q = 0 mod 2N) and 0 at even q, 1 and
    cot(q*pi/(2N)) at odd q. A rank that holds another mode, as under a
    mass-side weight, expands the squared mismatch into three integrals.
    Each mode costs O((p + 4)*(p + 1)), and every sum runs in a fixed
    order, so a mode's bits do not depend on the other modes.
    """
    p, N = kv.p, kv.N
    values, slopes, size = _element_pieces(p)
    pieces = np.stack((values, slopes * (N / size)))
    # cos and sin of theta*c_m per piece and mode, the argument 2*j*c_m
    # reduced in integers
    table = sine_table(N)
    phase = np.multiply.outer(2 * np.arange(p + 1) - (p - 1), modes)
    phase %= 4 * N
    coeffs = np.stack((table[(phase + N) % (4 * N)], table[phase]))
    # values and derivatives of the sin(theta*e) and cos(theta*e) parts,
    # ordered (derivative, part, point, mode)
    parts = np.zeros((2, 2, len(t), len(modes)))
    for m in range(p + 1):
        parts += pieces[:, None, :, m, None] * coeffs[None, :, m, None, :]
    uh, duh = parts
    omega = math.pi * ranks
    inner = np.multiply.outer(t, omega / N)
    sq, cq = np.sin(inner), np.cos(inner)
    u = math.sqrt(2.0) * np.stack((cq, sq))
    du = np.stack((-sq, cq))
    du *= math.sqrt(2.0) * omega
    moved = modes != ranks
    if moved.any():
        def sums(a, b):
            """Element sums of the parts' products, (part a, part b, j)."""
            q = np.stack((a - b, a + b)) % (2 * N)
            cosine = np.where(q == 0, float(N), q % 2)
            sine = np.divide(table[q + N], table[q], where=q % 2 == 1,
                             out=np.zeros(q.shape))
            return 0.5 * np.array([[cosine[0] - cosine[1], sine[1] + sine[0]],
                                   [sine[1] - sine[0], cosine[0] + cosine[1]]])

        def pair(f, g, sums):
            """The integral of f g over the mesh per mode."""
            f = sum(sums[a, b] * f[a] * g[b] for a in (0, 1) for b in (0, 1))
            return _column_dots(np.broadcast_to(weights[:, None], f.shape), f)

        m, r = modes[moved], ranks[moved]
        f, df, g, dg = (x[..., moved] for x in (uh, duh, u, du))
        own, cross = sums(m, m), sums(m, r)
        norm = pair(f, f, own)
        sign = np.where(pair(f, g, cross) >= 0, 1.0, -1.0)
        errors = (pair(df, df, own) / norm + pair(dg, dg, sums(r, r))
                  - 2.0 * sign * pair(df, dg, cross) / np.sqrt(norm))
    # quadrature weight times the element sum of each part's square
    top = ranks == N
    sums = np.stack((np.where(top, 0.0, 0.5 * N),
                     np.where(top, float(N), 0.5 * N)))
    rule = (sums[:, None, :] * weights[:, None]).reshape(-1, len(ranks))

    def integral(f):
        """Integral over the mesh per mode, summed in a fixed order."""
        return _column_dots(rule, f.reshape(rule.shape))

    duh *= (np.where(integral(uh * u) >= 0, 1.0, -1.0)
            / np.sqrt(integral(uh * uh)))
    duh -= du
    duh *= duh
    h1_sq = integral(duh)
    if moved.any():
        h1_sq[moved] = errors
    return h1_sq


# Working memory of one block of modes in ``_quadrature_h1``, about
# nine arrays of one value per quadrature point and mode.
_ERROR_BLOCK_BYTES = 1 << 19


def _quadrature_h1(system, spectrum, t, weights, js):
    """Squared H1 errors of the pairs of ranks ``js`` of a numerical
    solve on the standard space, integrated over every element from
    their vectors, at the Gauss points t of weights ``weights``.

    The modes go in blocks of columns, each sized to
    ``_ERROR_BLOCK_BYTES``. The values and derivatives of a block's
    modes at every point are sums over the p + 1 functions on each
    element, using basis values tabulated once per distinct element,
    and the continuum mode at x = (e + t) h comes from angle addition,
    the element part e*j reduced in integers. Every sum, over the
    functions, the elements and the points, runs in a fixed order per
    mode, so a mode's bits do not depend on the other ranks asked for.
    """
    space = system.space
    p, N = space.kv.p, space.kv.N
    ders, index = basis_table(space.kv, t, 1)
    # (2, p + 1, p + 4, N): values, then first derivatives, of each
    # function on an element at every point of every element
    ders = np.ascontiguousarray(ders[index].transpose(2, 3, 1, 0))
    table = math.sqrt(2.0) * sine_table(N)

    def integral(f):
        """Quadrature per mode of f, ordered (point, mode, element):
        along the elements, then over the points row after row."""
        sums = f.sum(axis=2)
        return _column_dots(np.broadcast_to(weights[:, None], sums.shape),
                            sums)

    h1_sq = np.empty(len(js))
    width = max(1, _ERROR_BLOCK_BYTES // (9 * 8 * N * len(t)))
    for lo in range(0, len(js), width):
        block = js[lo:lo + width]
        # the standard space's raw coefficients: its vectors with a zero
        # row for each endpoint function
        raw = np.zeros((len(block), N + p))
        raw[:, 1:-1] = spectrum.vectors[:, block - 1].T
        # values and derivatives, ordered (point, mode, element) so that
        # every pass below runs along the elements
        local = np.zeros((2, len(t), len(block), N))
        term = np.empty_like(local)
        for m in range(p + 1):
            np.multiply(ders[:, m, :, None, :], raw[:, m:m + N], out=term)
            local += term
        uh, duh = local
        # freed before the continuum modes are built
        del term
        omega = math.pi * np.array(block)
        # sqrt(2) sin(j pi e / N) and cos(...) per element e, reduced in
        # integers, and sin(j pi t / N), cos(...) per point t
        phase = np.multiply.outer(block, 2 * np.arange(N)) % (4 * N)
        se = table[phase]
        phase += N
        ce = table[phase % (4 * N)]
        inner = np.multiply.outer(t, omega / N)[:, :, None]
        sq, cq = np.sin(inner), np.cos(inner)
        # u = sqrt(2) sin(omega x) and its derivative at every point
        u = se * cq
        u += ce * sq
        du = ce * (omega[:, None] * cq)
        du -= se * (omega[:, None] * sq)
        duh *= (np.where(integral(uh * u) >= 0, 1.0, -1.0)
                / np.sqrt(integral(uh * uh)))[:, None]
        duh -= du
        duh *= duh
        h1_sq[lo:lo + len(block)] = integral(duh)
    return h1_sq


def mode_convergence(p, N_list, j, quantity="eigenvalue", eta=0.0,
                     eta_b=0.0, flavor="outlier_free"):
    """Errors of mode j over a mesh family, one build and solve per mesh.

    ``quantity`` is "eigenvalue" for the relative error against
    (j*pi)^2, or "h1" for the H1-seminorm error against
    sqrt(2)*sin(j*pi*x) (see ``h1_errors_for_modes``). Both j and the
    quantity are checked before any assembly.
    """
    _check_mode(p, N_list, j, flavor)
    if quantity not in ("eigenvalue", "h1"):
        raise ValueError(f"quantity must be 'eigenvalue' or 'h1', got"
                         f" {quantity!r}")
    errors = []
    for N in N_list:
        system = build_soft_system(p, N, eta, eta_b, flavor)
        spectrum = solve_system(system)
        if quantity == "eigenvalue":
            error = spectral_report(spectrum.values).rel_errors[j - 1]
        else:
            error = h1_errors_for_modes(system, spectrum, [j])[0]
        errors.append(float(error))
    return errors


@dataclass(frozen=True)
class ConditionStats:
    """Generalized-condition-number reduction of a target spectrum
    relative to a baseline one."""

    lambda_min: float
    lambda_max_baseline: float
    lambda_max_target: float
    gamma_baseline: float
    gamma_target: float
    rho: float
    varrho_pct: float


def condition_stats(target, baseline):
    """Reduction statistics between two positive spectra.

    Both arguments are ascending arrays of eigenvalues; only their first
    and last entries are read. rho = gamma_baseline / gamma_target and
    varrho = 100 * (1 - 1/rho) percent.
    """
    target = np.asarray(target, dtype=float)
    baseline = np.asarray(baseline, dtype=float)
    if target.size == 0 or baseline.size == 0:
        raise ValueError("empty spectrum")
    if target[0] <= 0 or baseline[0] <= 0:
        raise ValueError("spectra must be positive to form condition"
                         " numbers")
    lam_min = float(baseline[0])
    g_base = float(baseline[-1] / baseline[0])
    g_target = float(target[-1] / target[0])
    rho = g_base / g_target
    varrho = 100.0 * (1.0 - 1.0 / rho)
    return ConditionStats(lam_min, float(baseline[-1]), float(target[-1]),
                          g_base, g_target, rho, varrho)


def eta_sweep(p, N, etas, d=1):
    """Condition reduction and total eigenvalue error along a weight
    grid.

    The baseline is the unsoftened pencil (eta = 0). Every weight must
    lie in [0, sharp_max); each row is (eta, rho, e_lambda) where
    e_lambda is the root of the sum of squared relative errors. The
    unsoftened pencil is assembled and solved once, and every weight's
    spectrum is reweighted from it (``reweighted_values``), one row of n
    values per weight. rho reads the two ends of each row's lift
    (``lifted_extremes``), with no lift built, and e_lambda pairs each
    lift, values only, with the continuum targets, built once. Those
    lifts are formed a few weights at a time, at most ``_SLICE`` values
    or one weight's n^d, and dropped, so the peak does not grow with the
    grid.
    """
    sharp = float(eta_table().resolve(p, "sharp_max"))
    etas = [float(e) for e in etas]
    for e in etas:
        if not 0.0 <= e < sharp:
            raise ValueError(f"weight {e} outside [0, {sharp})")
    system = build_soft_system(p, N, 0.0)
    values = reweighted_values(system, [0.0] + etas)
    ends = lifted_extremes(values, d)
    n = values.shape[1]
    check_lift_size(n, d)
    exact = continuum_values(d, n)
    if etas and ends[:, 0].min() <= 0:
        # the refusal of condition_stats
        raise ValueError("spectra must be positive to form condition"
                         " numbers")
    gammas = ends[:, 1] / ends[:, 0]
    rhos = gammas[0] / gammas[1:]
    errors = np.empty(len(etas))
    step = max(1, _SLICE // n ** d)
    for lo in range(0, len(etas), step):
        lift = np.sort(_sums(values[1 + lo:1 + lo + step], d), axis=1)
        lift -= exact
        np.abs(lift, out=lift)
        lift /= exact
        lift *= lift
        errors[lo:lo + step] = np.sqrt(lift.sum(1))
    return list(zip(etas, rhos.tolist(), errors.tolist()))


def convergence_slope(ns, errors):
    """Least-squares slope of log(error) against log(1/N).

    Non-positive errors carry no rate information and are dropped; a
    fit needs surviving points on at least two distinct meshes.
    """
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ns.shape != errors.shape:
        raise ValueError("N list and error list must have equal length")
    keep = errors > 0
    ns, errors = ns[keep], errors[keep]
    if np.unique(ns).size < 2:
        raise InsufficientDataError("need positive errors on at least two"
                                    " distinct meshes to fit a slope")
    slope = np.polyfit(np.log(1.0 / ns), np.log(errors), 1)[0]
    return float(slope)

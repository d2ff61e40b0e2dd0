"""Spectrum comparison against the continuum problem: relative
eigenvalue errors, H1 eigenfunction errors, condition-number reduction
statistics, weight sweeps, and convergence-rate fits.

Every report, in any dimension, lifts the ascending 1D eigenvalues with
``kron_sum_spectrum`` and pairs them by rank with ``continuum_values``
(``spectral_report``); a report holds only the paired arrays. The error
of one mode over a mesh family, of its eigenvalue or of its H1
seminorm, comes from one routine (``mode_convergence``) that builds and
solves each mesh once. A weight sweep takes one set of eigenvectors
per space and reweights every weight from it (``reweighted_values``).
Condition statistics read only the two ends of each spectrum, which the
``condition`` command takes from ``tensor.lifted_extremes`` without
building a lift, from the 1D ends of ``extreme_values``, one call per
pencil: the target and its unsoftened baseline are two systems, on one
space or two, whose bands come from one raw reference per degree
(``assembly.build_soft_system``).

On the outlier-free space of any degree, and on the standard space
at p <= 2, which is the same space, the eigenvectors are the paper's
closed form (``spaces.sine_modes``) and the eigenvalue of mode j is the
interior symbol at theta = j*pi/N (``analytic.interior_symbol``), O(p)
per mode. So ``solve_system`` makes no dense solve: the pairs cost
O(n^2 * hbw) time instead of O(n^3), and every pair still leaves through
the residual contract of ``eigensolve``. Both ``solve_system`` and
``reweighted_values`` read the closed-form pairs through one routine
(``_sine_pairs``), which measures the residuals one block of
``_MODE_BLOCK`` modes at a time, so a block's working memory is O(n).
A closed-form spectrum keeps the mode number of each rank, not its
vector, which ``_sine_block`` builds only where it is read.
``extreme_values`` takes the two ends as the extremes of the n symbol
values, O(n * p) with no factorization, and measures only those two
pairs. On the standard space at p >= 3 ``solve_system`` uses the dense
``generalized_eig``, ``extreme_values`` the band ``extreme_eigenpairs``,
and ``reweighted_values``, which needs vectors that diagonalize every
weight's pencil, refuses the space.

The H1 seminorm is the only eigenfunction error the package reports
(``h1_errors_for_modes``). A closed-form spectrum records the mode
number of every rank (``Spectrum.modes``); where rank j holds mode j,
the error comes from one element of the uniform mesh, in O(p^2) per
mode and with no vector read, because the element sums of the squares
and products of sin(j*pi*e/N) and cos(j*pi*e/N) are known; the basis
pieces on that element are evaluated once per degree. The other ranks,
and every rank of a dense solve, are integrated over all N elements
from their vectors, in blocks of modes of a fixed byte size. Either
way every sum runs in a fixed order per mode, so a mode's error is the
same bits whichever other ranks are asked for.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import eta_table, interior_symbol
from .assembly import build_soft_system
from .eigensolve import (Spectrum, _checked_pencil, _column_dots,
                         _contract, _residual_norms, _solver,
                         check_full_order, extreme_eigenpairs,
                         generalized_eig)
from .spaces import (has_sine_modes, sine_modes, sine_table,
                     space_dimension)
from .splines import basis_table, gauss_rule, open_knot_vector
from .tensor import continuum_values, kron_sum_spectrum


class InsufficientDataError(ValueError):
    """Raised when a fit has fewer than two usable points."""


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Discrete spectrum paired with continuum targets, rank by rank."""

    indices: np.ndarray  # (n1^d, d) 1-based mode numbers, one row per mode
    exact: np.ndarray
    computed: np.ndarray
    rel_errors: np.ndarray


# Modes per block of the closed-form pairs (``_sine_pairs``): a block
# of residuals takes about five arrays of n x 128 doubles, and every
# pencil of the benchmark (order <= 199) takes one or two blocks.
_MODE_BLOCK = 128


def _sine_block(space, B, js):
    """The block X of closed-form modes ``js`` (``sine_modes``), B X,
    and the scales 1/sqrt(x_j^T B x_j) that B-normalize its columns,
    each column the same bits in any block."""
    X = sine_modes(space, js)
    BX = B.matvec(X)
    return X, BX, 1.0 / np.sqrt(_column_dots(X, BX))


@_solver
def _sine_pairs(system, etas, ends=False):
    """Values and residual norms of the closed-form pairs of the
    system's operators under each softness weight of ``etas``, with its
    own mass-side weight, and the Frobenius norms of the system's
    pencil, which is checked first (``_checked_pencil``).

    The value of mode j is the interior symbol at theta = j*pi/N
    (``analytic.interior_symbol``) in double precision, with
    sin^2(theta/2) and cos^2(theta/2) = sin^2((N - j)*pi/(2N)) squared
    from ``sine_table``. With ``ends``, only the modes of the lowest and
    the highest value of the first weight are kept. Values
    and residuals go in blocks of ``_MODE_BLOCK`` modes, so that their
    temporaries stay a few blocks: for the residuals one block of
    modes (``_sine_block``) and its band products A X and B X live at a
    time, with S X where a weight differs from the system's own, whose
    stiffness side is then A - (eta - eta_sys) S. Rows follow ``etas``,
    columns the modes; nothing is sorted or held to the contract yet,
    and every value is the same bits at any block width.
    """
    A, B, norms = _checked_pencil(system.A, system.B)
    p, N = system.space.kv.p, system.space.kv.N
    table = sine_table(N)
    js = np.arange(1, system.space.dim + 1)
    weights = np.array(etas, dtype=float)[:, None]
    values = np.empty((len(etas), len(js)))
    for lo in range(0, len(js), _MODE_BLOCK):
        block = js[lo:lo + _MODE_BLOCK]
        values[:, lo:lo + len(block)] = (N * N) * interior_symbol(
            p, weights, system.eta_b, table[block] ** 2, table[N - block] ** 2)
    if ends:
        picks = [np.argmin(values[0]), np.argmax(values[0])]
        js, values = js[picks], values[:, picks]
    # freed before ``sine_modes`` builds its own
    del table
    residuals = np.empty_like(values)
    reweighted = any(eta != system.eta for eta in etas)
    for lo in range(0, len(js), _MODE_BLOCK):
        block = slice(lo, lo + _MODE_BLOCK)
        X, BX, scales = _sine_block(system.space, B, js[block])
        AX = A.matvec(X)
        AX *= scales
        BX *= scales
        if reweighted:
            SX = system.softness.matvec(X) * scales
        # freed before the products of the next block
        del X
        for row, eta in enumerate(etas):
            side = AX if eta == system.eta else AX + SX * (system.eta - eta)
            residuals[row, block] = _residual_norms(values[row, block],
                                                    side, BX)
    return values, residuals, norms


@_solver
def solve_system(system):
    """Generalized eigenpairs of an assembled pencil.

    Where ``sine_modes`` knows the eigenvectors (the outlier-free space
    of any degree, and the standard space at p <= 2, which is the same
    space) no dense solve is made: the pairs are the closed-form modes,
    B-normalized, with the symbol's values (``_sine_pairs``), held to
    the residual contract of both solvers, so a wrong vector exits 2
    rather than printing; the Spectrum keeps their mode numbers, not
    their vectors. On the standard space at p >= 3 it is
    ``generalized_eig``. Either way the pencil is checked once.
    """
    if not has_sine_modes(system.space):
        return generalized_eig(system.A, system.B)
    # the pairs keep O(n) memory; the limit bounds the O(n^2 * hbw) time
    # of their residuals
    check_full_order(system.space.dim)
    (values,), (residuals,), norms = _sine_pairs(system, [system.eta])
    values, order, residuals, bounds = _contract(values, residuals, norms)
    return Spectrum(values, None, residuals, bounds, order + 1)


def extreme_values(system):
    """[lambda_min, lambda_max] of the system's pencil.

    Where ``sine_modes`` knows the eigenvectors, these are the extremes
    of the n symbol values, O(n * p) with no factorization, and only
    their two pairs are measured and held to the residual contract
    (``_sine_pairs``). On the standard space at p >= 3 they come from
    band factorizations (``extreme_eigenpairs``), and a system passed as
    a temporary is freed once its pencil is formed, so that only the
    bands of the pencil live through the solve.
    """
    if has_sine_modes(system.space):
        (values,), (residuals,), norms = _sine_pairs(
            system, [system.eta], ends=True)
        return _contract(values, residuals, norms)[0]
    A, B = system.A, system.B
    del system
    return extreme_eigenpairs(A, B).values


@_solver
def reweighted_values(system, etas):
    """Eigenvalues of the system's operators under each softness weight
    of ``etas``, with its own mass-side weight eta_b, from one set of
    eigenvectors.

    On the outlier-free space K, M and S all commute with the paper's
    transformation T, so one set of eigenvectors diagonalizes all
    three, and every weight's eigenvalues are the symbol's values of the
    same modes (``_sine_pairs``), with their residuals measured one
    block of modes at a time. Each weight's pairs are sorted and held to
    the residual contract of both solvers against that weight's bands;
    only the values are kept.

    A space whose eigenvectors ``sine_modes`` does not know, such as a
    standard space with p >= 3, is refused with ValueError before
    anything of order n^2 is allocated: its eta = 0 eigenvectors do not
    diagonalize S.
    """
    if not has_sine_modes(system.space):
        raise ValueError(f"no closed-form eigenvectors to reweight on"
                         f" this space (p={system.space.kv.p})")
    check_full_order(system.space.dim)
    pencils = [system.with_weights(eta, system.eta_b) for eta in etas]
    values, residuals, (_, mass_norm) = _sine_pairs(
        system, [pencil.eta for pencil in pencils])
    return [_contract(row, res, (pencil.A.frobenius(), mass_norm))[0]
            for pencil, row, res in zip(pencils, values, residuals)]


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

    Where the pair of rank j is the closed-form mode j
    (``Spectrum.modes``), the error comes from one element
    (``_closed_form_h1``), in O(p^2) and with no vector read, and its
    bits do not depend on which other ranks are asked for. Every other
    rank, such as one that a mass-side weight fills with another mode,
    and every rank of a numerical solve, is integrated over all N
    elements from its vector (``_quadrature_h1``).
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
    closed = (np.zeros(len(js), dtype=bool) if spectrum.modes is None
              else spectrum.modes[js - 1] == js)
    h1_sq = np.empty(len(js))
    if closed.any():
        h1_sq[closed] = _closed_form_h1(kv, t, weights, js[closed])
    if not closed.all():
        h1_sq[~closed] = _quadrature_h1(system, spectrum, t, weights,
                                        js[~closed])
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


def _closed_form_h1(kv, t, weights, js):
    """Squared H1 errors of the closed-form modes ``js``, from one
    element, at the Gauss points t of weights ``weights``.

    With theta = j*pi/N, the B-spline coefficient of mode j that meets
    element e as its piece m is sin(theta*(e + c_m)), c_m = m - (p -
    1)/2, on the boundary elements too, since the outlier-free members
    are folds of the uniform B-splines. So on element e mode j is
    sin(theta*e)*P(t) + cos(theta*e)*Q(t), with P and Q the pieces
    weighted by cos(theta*c_m) and sin(theta*c_m), and the continuum
    mode sqrt(2)*sin(theta*(e + t)) and both derivatives split the same
    way. Over e = 0..N-1 the sums of sin^2, cos^2 and sin*cos of
    theta*e are N/2, N/2 and 0 (0, N and 0 for j = N), so every
    integral over the mesh is a sum over the points of one element.
    Each mode costs O((p + 4)*(p + 1)), and every sum runs in a fixed
    order, so a mode's bits do not depend on the other modes.
    """
    p, N = kv.p, kv.N
    values, slopes, size = _element_pieces(p)
    pieces = np.stack((values, slopes * (N / size)))
    # cos and sin of theta*c_m per piece and mode, the argument 2*j*c_m
    # reduced in integers as in ``sine_modes``
    table = sine_table(N)
    phase = np.multiply.outer(2 * np.arange(p + 1) - (p - 1), js)
    phase %= 4 * N
    coeffs = np.stack((table[(phase + N) % (4 * N)], table[phase]))
    # values and derivatives of the sin(theta*e) and cos(theta*e) parts,
    # ordered (derivative, part, point, mode)
    parts = np.zeros((2, 2, len(t), len(js)))
    for m in range(p + 1):
        parts += pieces[:, None, :, m, None] * coeffs[None, :, m, None, :]
    uh, duh = parts
    omega = math.pi * js
    inner = np.multiply.outer(t, omega / N)
    sq, cq = np.sin(inner), np.cos(inner)
    u = math.sqrt(2.0) * np.stack((cq, sq))
    du = np.stack((-sq, cq))
    du *= math.sqrt(2.0) * omega
    # quadrature weight times the element sum of each part's square
    top = js == N
    sums = np.stack((np.where(top, 0.0, 0.5 * N),
                     np.where(top, float(N), 0.5 * N)))
    rule = (sums[:, None, :] * weights[:, None]).reshape(-1, len(js))

    def integral(f):
        """Integral over the mesh per mode, summed in a fixed order."""
        return _column_dots(rule, f.reshape(rule.shape))

    duh *= (np.where(integral(uh * u) >= 0, 1.0, -1.0)
            / np.sqrt(integral(uh * uh)))
    duh -= du
    duh *= duh
    return integral(duh)


# Working memory of one block of modes in ``_quadrature_h1``, about
# nine arrays of one value per quadrature point and mode.
_ERROR_BLOCK_BYTES = 1 << 19


def _quadrature_h1(system, spectrum, t, weights, js):
    """Squared H1 errors of the pairs of ranks ``js`` of the system's
    pencil, integrated over every element from their vectors, at the
    Gauss points t of weights ``weights``.

    The modes go in blocks of columns, each sized to
    ``_ERROR_BLOCK_BYTES``; a closed-form block is built from its mode
    numbers (``_sine_block``). The values and derivatives of a block's
    modes at every point are sums over the p + 1 functions on each
    element, using basis values tabulated once per distinct element,
    and the continuum mode at x = (e + t) h comes from angle addition,
    the element part e*j reduced in integers. Every sum, over the
    functions, the elements and the points, runs in a fixed order per
    mode, so a mode's bits do not depend on the other ranks asked for.
    """
    space, B = system.space, system.B
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
        if spectrum.modes is None:
            vectors = spectrum.vectors[:, block - 1]
        else:
            X, _, scales = _sine_block(space, B, spectrum.modes[block - 1])
            vectors = X * scales
        raw = space.raw_coefficients(vectors).T
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
    spectrum is reweighted from its eigenvectors
    (``reweighted_values``).
    """
    sharp = float(eta_table().resolve(p, "sharp_max"))
    etas = [float(e) for e in etas]
    for e in etas:
        if not 0.0 <= e < sharp:
            raise ValueError(f"weight {e} outside [0, {sharp})")
    system = build_soft_system(p, N, 0.0)
    values = reweighted_values(system, [0.0] + etas)
    baseline = spectral_report(values[0], d)
    rows = []
    for e, softened in zip(etas, values[1:]):
        report = spectral_report(softened, d)
        stats = condition_stats(report.computed, baseline.computed)
        e_lambda = float(np.sqrt(np.sum(report.rel_errors ** 2)))
        rows.append((e, stats.rho, e_lambda))
    return rows


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

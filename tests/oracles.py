"""Oracles used only by the tests.

The package assembles from per-element basis tables; two helpers here
evaluate one space member or one face jump at a time through
``eval_basis``, so the tests can check the banded operators against an
independent route. ``full_lift_values`` builds the whole d-dimensional
spectrum, which the ``condition`` command never does. ``banded`` turns
a dense symmetric test matrix into the band type the package takes.
``dense_commutator_norm`` multiplies dense operands in the arithmetic
of their entries, Fractions included: the reference for the package's
scaled-integer commutators.
"""

import math

import numpy as np

from softiga.assembly import build_soft_system
from softiga.eigensolve import SymBandedMatrix
from softiga.spectral_analysis import solve_system
from softiga.splines import eval_basis
from softiga.tensor import kron_sum_spectrum


def banded(dense):
    """Full-bandwidth SymBandedMatrix of a dense symmetric array; only
    its lower triangle is read."""
    dense = np.asarray(dense)
    n = len(dense)
    band = np.zeros((n, n), dtype=dense.dtype)
    for k in range(n):
        band[k, :n - k] = np.diagonal(dense, -k)
    return SymBandedMatrix(band)


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


def space_member_eval(space, i, x, r=0, side=None):
    """Derivative of order r of the i-th space basis function at x."""
    if not 0 <= i < space.dim:
        raise IndexError(f"member index {i} out of range 0..{space.dim - 1}")
    be = eval_basis(space.kv, x, r, side)
    unit = np.zeros(space.dim)
    unit[i] = 1.0
    row = space.raw_coefficients(unit)
    p = space.kv.p
    return float(row[be.element:be.element + p + 1] @ be.ders[r])


def _pth_trace(kv, x, side):
    """Dense p-th-derivative values at x, as a raw-length row."""
    be = eval_basis(kv, x, kv.p, side)
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
    x = k / N
    if k == 0:
        return -_pth_trace(kv, x, "right")
    if k == N:
        return _pth_trace(kv, x, "left")
    return _pth_trace(kv, x, "left") - _pth_trace(kv, x, "right")

"""B-spline basis tests against an independent symbolic construction.

The oracle builds each basis function as a sympy Piecewise via the
two-term recurrence, so values and derivatives come from exact rational
arithmetic rather than from the evaluation code under test.
"""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import softiga.splines as splines
from oracles import fresh_assembly_caches, pth_derivative_jump
from softiga.assembly import build_soft_system
from softiga.splines import (basis_table, eval_basis, gauss_rule,
                             open_knot_vector)

x_sym = sp.Symbol("x")


def _sym_knots(p, N):
    return [sp.Integer(0)] * (p + 1) + [sp.Rational(i, N)
                                        for i in range(1, N)] \
        + [sp.Integer(1)] * (p + 1)


def _sym_basis(p, N):
    """All raw basis functions as exact piecewise polynomials.

    Returns a list of lists: table[i][e] is the polynomial of raw
    function i on element e.
    """
    knots = _sym_knots(p, N)
    n = len(knots) - 1
    # degree 0: indicator of the half-open knot span
    table = {0: [[sp.Integer(1) if knots[i] <= sp.Rational(2 * e + 1, 2 * N)
                  < knots[i + 1] else sp.Integer(0)
                  for e in range(N)] for i in range(n)]}
    for q in range(1, p + 1):
        prev = table[q - 1]
        cur = []
        for i in range(n - q):
            polys = []
            for e in range(N):
                left = sp.Integer(0)
                if knots[i + q] != knots[i]:
                    left = ((x_sym - knots[i]) / (knots[i + q] - knots[i])
                            * prev[i][e])
                right = sp.Integer(0)
                if knots[i + q + 1] != knots[i + 1]:
                    right = ((knots[i + q + 1] - x_sym)
                             / (knots[i + q + 1] - knots[i + 1])
                             * prev[i + 1][e])
                polys.append(sp.expand(left + right))
            cur.append(polys)
        table[q] = cur
    return table[p]


@pytest.mark.parametrize("p,N", [(1, 4), (2, 2), (2, 5), (3, 4), (4, 5)])
def test_values_and_derivatives_match_symbolic_recurrence(p, N):
    basis = _sym_basis(p, N)
    kv = open_knot_vector(p, N)
    rng = np.random.default_rng(1234)
    xs = np.concatenate([rng.uniform(0, 1, 12), [0.0, 1.0]])
    for x in xs:
        e = min(int(x * N), N - 1)
        be = eval_basis(kv, float(x), r=p)
        assert be.element == e
        for r in range(p + 1):
            for local, i in enumerate(range(be.element,
                                            be.element + p + 1)):
                exact = sp.diff(basis[i][e], x_sym, r).subs(
                    x_sym, sp.Rational(x).limit_denominator(10**12))
                got = be.ders[r][local]
                scale = max(1.0, abs(float(exact)))
                assert got == pytest.approx(float(exact),
                                            abs=1e-10 * scale)


def _limits(kv, element, x):
    """Derivatives 0..p of every raw function at x as limits from inside
    one element, a raw-length row per order: the Taylor expansion of the
    element's polynomial pieces about its midpoint, which is exact."""
    p = kv.p
    mid = (element + 0.5) / kv.N
    be = eval_basis(kv, mid, r=p)
    assert be.element == element
    out = np.zeros((p + 1, kv.num_raw))
    for r in range(p + 1):
        for q in range(r, p + 1):
            out[r, element:element + p + 1] += (
                be.ders[q] * (x - mid) ** (q - r) / math.factorial(q - r))
    return out


def test_one_sided_limits_differ_by_the_derivative_jump():
    p, N = 3, 6
    kv = open_knot_vector(p, N)
    for k in range(1, N):
        x = k / N
        left, right = _limits(kv, k - 1, x), _limits(kv, k, x)
        # a breakpoint is evaluated as the right limit
        at = eval_basis(kv, x, r=p)
        assert at.element == k
        np.testing.assert_allclose(at.ders, right[:, k:k + p + 1],
                                   atol=1e-9)
        # values are C^(p-1): the p-1 lowest orders agree across the face
        np.testing.assert_allclose(left[:p], right[:p], atol=1e-9)
        # and the p-th derivatives differ by the jump
        np.testing.assert_allclose(left[p] - right[p],
                                   pth_derivative_jump(kv, k), atol=1e-9)


def test_pth_derivative_jump_matches_one_sided_traces():
    # the oracle reads each element's constant p-th derivative at its
    # midpoint; here the traces are the breakpoint evaluations, the
    # right limit, and the left limit at x = 1 and at a point a quarter
    # element before each interior face
    p, N = 2, 5
    kv = open_knot_vector(p, N)
    for k in range(N + 1):
        jump = pth_derivative_jump(kv, k)
        assert jump.shape == (kv.num_raw,)
        if 1 <= k <= N - 1:
            left = eval_basis(kv, (k - 0.25) / N, r=p)
            right = eval_basis(kv, k / N, r=p)
            assert (left.element, right.element) == (k - 1, k)
            manual = np.zeros(kv.num_raw)
            manual[left.element:left.element + p + 1] += left.ders[p]
            manual[right.element:right.element + p + 1] -= right.ders[p]
            np.testing.assert_allclose(jump, manual, atol=1e-9)
    # boundary faces carry the outward-signed one-sided trace
    right = eval_basis(kv, 0.0, r=p)
    manual = np.zeros(kv.num_raw)
    manual[right.element:right.element + p + 1] = -right.ders[p]
    np.testing.assert_allclose(pth_derivative_jump(kv, 0), manual)
    left = eval_basis(kv, 1.0, r=p)
    manual = np.zeros(kv.num_raw)
    manual[left.element:left.element + p + 1] = left.ders[p]
    np.testing.assert_allclose(pth_derivative_jump(kv, N), manual)


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 5), N=st.integers(1, 9),
       x=st.floats(0.0, 1.0, allow_nan=False))
def test_partition_of_unity_and_nonnegativity(p, N, x):
    kv = open_knot_vector(p, N)
    be = eval_basis(kv, x)
    assert abs(be.ders[-1].sum() - 1.0) < 1e-13
    assert np.all(be.ders[-1] > -1e-14)


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 5), N=st.integers(2, 9),
       x=st.floats(0.0, 1.0, allow_nan=False), r=st.integers(0, 5))
def test_derivative_rows_sum_to_zero(p, N, x, r):
    r = min(r, p)
    kv = open_knot_vector(p, N)
    be = eval_basis(kv, x, r=r)
    for q in range(1, r + 1):
        assert abs(be.ders[q].sum()) < 1e-8 * max(1.0, N ** q)


def test_finite_difference_consistency():
    p, N = 3, 7
    kv = open_knot_vector(p, N)
    rng = np.random.default_rng(7)
    delta = 1e-6
    for x in rng.uniform(2 * delta, 1 - 2 * delta, 8):
        lo = eval_basis(kv, x - delta, r=0)
        hi = eval_basis(kv, x + delta, r=0)
        mid = eval_basis(kv, x, r=1)
        if lo.element == hi.element == mid.element:
            fd = (hi.ders[-1] - lo.ders[-1]) / (2 * delta)
            np.testing.assert_allclose(mid.ders[1], fd, atol=1e-5,
                                       rtol=1e-5)


def test_local_support_window():
    p, N = 4, 8
    kv = open_knot_vector(p, N)
    for e in range(N):
        x = (e + 0.37) / N
        be = eval_basis(kv, x)
        assert be.element == e
        assert be.element == e
        assert be.ders.shape == (1, p + 1)


def test_pth_derivative_is_piecewise_constant():
    p, N = 3, 5
    kv = open_knot_vector(p, N)
    for e in range(N):
        xs = (e + np.array([0.1, 0.5, 0.9])) / N
        rows = [eval_basis(kv, float(x), r=p).ders[p] for x in xs]
        np.testing.assert_allclose(rows[0], rows[1], atol=1e-12 * N ** p)
        np.testing.assert_allclose(rows[0], rows[2], atol=1e-12 * N ** p)


def test_open_knot_vector_shape_and_validation():
    kv = open_knot_vector(2, 2)
    assert kv.num_raw == 4
    assert kv.h == 0.5
    np.testing.assert_allclose(kv.knots,
                               [0, 0, 0, 0.5, 1, 1, 1])
    assert open_knot_vector(3, 1).num_raw == 4
    with pytest.raises(ValueError):
        open_knot_vector(0, 4)
    with pytest.raises(ValueError):
        open_knot_vector(2, 0)


def test_eval_basis_argument_validation():
    kv = open_knot_vector(2, 4)
    with pytest.raises(ValueError):
        eval_basis(kv, -0.1)
    with pytest.raises(ValueError):
        eval_basis(kv, 1.1)
    with pytest.raises(ValueError):
        eval_basis(kv, 0.5, r=3)


def test_endpoint_values_are_interpolatory():
    for p in (1, 2, 3, 4):
        kv = open_knot_vector(p, 5)
        at0 = eval_basis(kv, 0.0)
        assert at0.element == 0
        np.testing.assert_allclose(at0.ders[-1],
                                   [1.0] + [0.0] * p, atol=1e-14)
        at1 = eval_basis(kv, 1.0)
        assert at1.element == kv.N - 1
        np.testing.assert_allclose(at1.ders[-1],
                                   [0.0] * p + [1.0], atol=1e-14)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_basis_table_matches_pointwise_evaluation(p):
    points = np.array([0.1, 0.5, 0.9])
    for N in (1, 2, p, 2 * p - 1, 2 * p + 1, 3 * p + 4):
        if N < 1:
            continue
        kv = open_knot_vector(p, N)
        ders, index = basis_table(kv, points, p)
        assert index.shape == (N,)
        # p - 1 distinct elements at each end plus one translate
        assert len(ders) == min(N, 2 * p - 1)
        distinct = [e for e in range(N) if e < p or e > N - p]
        assert len(distinct) == len(ders)
        for e in range(N):
            for q, t in enumerate(points):
                be = eval_basis(kv, (e + t) / N, p)
                assert be.element == e
                row = ders[index[e], q]
                if e in distinct:
                    # the row was evaluated on element e itself
                    assert row.tobytes() == be.ders.tobytes()
                else:
                    # a translate: its knot differences round apart
                    scale = np.abs(be.ders).max(axis=1, keepdims=True)
                    assert np.all(np.abs(row - be.ders) <= 1e-12 * scale)


@pytest.mark.parametrize("side", [None, "left", "right"])
def test_array_evaluation_equals_pointwise_calls_bitwise(side):
    p, N = 3, 5
    kv = open_knot_vector(p, N)
    # both ends, interior breakpoints and points inside elements; with a
    # side, the interior breakpoints are approached one ulp from that side
    x = np.array([[0.0, 1 / N, 0.37], [3 / N, 0.71, 1.0]])
    if side is not None:
        toward = 0.0 if side == "left" else 1.0
        for i, j in ((0, 1), (1, 0)):
            x[i, j] = np.nextafter(x[i, j], toward)
    be = eval_basis(kv, x, p)
    assert be.element.shape == (2, 3)
    assert be.ders.shape == (2, 3, p + 1, p + 1)
    assert be.ders.flags.c_contiguous
    for i, j in np.ndindex(x.shape):
        one = eval_basis(kv, float(x[i, j]), p)
        assert isinstance(one.element, int)
        assert be.element[i, j] == one.element
        assert be.ders[i, j].tobytes() == one.ders.tobytes()
    # a breakpoint goes to the element on its right, x = 1 to the last
    if side == "left":
        assert be.element.tolist() == [[0, 0, 1], [2, 3, 4]]
    else:
        assert be.element.tolist() == [[0, 1, 1], [3, 3, 4]]


def test_nan_points_are_refused():
    kv = open_knot_vector(2, 4)
    for x in (np.nan, [0.5, np.nan]):
        with pytest.raises(ValueError):
            eval_basis(kv, x)
    with pytest.raises(ValueError):
        basis_table(kv, [np.nan])


def _counting_evaluations(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return eval_basis(*args, **kwargs)

    monkeypatch.setattr(splines, "eval_basis", counted)
    return calls


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("N", [6, 13, 400])
def test_assembly_evaluates_the_basis_once_per_table(p, N, monkeypatch):
    fresh_assembly_caches()
    calls = _counting_evaluations(monkeypatch)
    build_soft_system(p, N, 0.0, 0.0, "standard")
    # one table serves the stiffness, mass and softness forms, of the
    # mesh itself or, past the reference size, of the reference mesh;
    # for p <= 2 the standard space is the outlier-free one, whose bands
    # are rounded from the exact completion with no table
    assert len(calls) == (p >= 3)
    calls.clear()
    # the outlier-free space needs no evaluation, and a second build
    # reads the cached bands again
    build_soft_system(p, N, 0.0)
    build_soft_system(p, N, 0.0, 0.0, "standard")
    assert calls == []


def test_basis_table_rejects_points_on_breakpoints():
    kv = open_knot_vector(2, 4)
    with pytest.raises(ValueError):
        basis_table(kv, [0.0, 0.5])
    with pytest.raises(ValueError):
        basis_table(kv, [1.0])


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_gauss_rule_is_shared_and_read_only(n):
    x, w = gauss_rule(n)
    expected = np.polynomial.legendre.leggauss(n)
    assert x.tobytes() == expected[0].tobytes()
    assert w.tobytes() == expected[1].tobytes()
    assert gauss_rule(n)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0

"""Generalized symmetric eigensolvers, dense and band: oracles,
residual contract, definiteness diagnostics, and deterministic,
sorted pairs."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

import softiga.eigensolve as eigensolve
from oracles import band_product, banded, lam_max, lam_min, whole_edge
from softiga.analytic import analytic_eigenvalue, eta_table
from softiga.assembly import IndefinitenessWarning, build_soft_system
from softiga.cli import EXIT_CONFIG, main
from softiga.eigensolve import (DefinitenessError, EigenSolveError,
                                Spectrum, SymBandedMatrix, cholesky_pivot,
                                extreme_eigenpairs, generalized_eig)
from softiga.spectral_analysis import extreme_values

EPS = np.finfo(float).eps


def test_identity_mass_reduces_to_ordinary_eigenproblem():
    A = np.diag([3.0, 1.0, 2.0])
    spectrum = generalized_eig(banded(A), banded(np.eye(3)))
    np.testing.assert_allclose(spectrum.values, [1.0, 2.0, 3.0])
    # eigenvectors are unit vectors up to sign, B-orthonormal
    np.testing.assert_allclose(np.abs(spectrum.vectors),
                               np.eye(3)[:, [1, 2, 0]], atol=1e-14)


def test_three_by_three_matches_characteristic_polynomial_roots():
    import itertools

    A = np.array([[4.0, 1.0, 0.5],
                  [1.0, 3.0, 0.25],
                  [0.5, 0.25, 2.0]])
    B = np.array([[2.0, 0.3, 0.1],
                  [0.3, 1.5, 0.2],
                  [0.1, 0.2, 1.0]])

    # det(A - x B): the x^k coefficient is (-1)^k times the sum of
    # determinants with k columns of A replaced by those of B
    def coeff(k):
        total = 0.0
        for cols in itertools.combinations(range(3), k):
            M = A.copy()
            M[:, list(cols)] = B[:, list(cols)]
            total += np.linalg.det(M)
        return (-1.0) ** k * total

    roots = np.sort(np.roots([coeff(3), coeff(2), coeff(1), coeff(0)]))
    spectrum = generalized_eig(banded(A), banded(B))
    np.testing.assert_allclose(spectrum.values, roots, rtol=1e-12)


def test_b_orthonormality_and_residual_contract():
    rng = np.random.default_rng(3)
    Q = rng.standard_normal((8, 8))
    A = Q + Q.T
    R = rng.standard_normal((8, 8))
    B = R @ R.T + 8 * np.eye(8)
    spectrum = generalized_eig(banded(A), banded(B))
    gram = spectrum.vectors.T @ B @ spectrum.vectors
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-12)
    assert np.all(spectrum.residuals <= spectrum.residual_bounds)
    assert np.all(np.diff(spectrum.values) >= 0)


def test_indefinite_mass_raises_with_pivot_index():
    A = banded(np.eye(3))
    B = banded(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(DefinitenessError) as err:
        generalized_eig(A, B)
    assert err.value.pivot == 2
    assert "order 2" in str(err.value)


def test_cholesky_pivot_reports_first_failing_minor():
    assert cholesky_pivot(banded(np.eye(4))) == 0
    assert cholesky_pivot(banded(np.diag([1.0, 1.0, -1.0, 1.0]))) == 3


def test_shape_validation():
    # a band is square by construction; only the orders can disagree
    with pytest.raises(ValueError):
        generalized_eig(banded(np.eye(3)), banded(np.eye(4)))


def test_order_above_the_dense_limit_is_refused_before_densifying(
        monkeypatch):
    A, B = banded(np.diag([3.0, 1.0, 2.0])), banded(np.eye(3))
    dense = []
    toarray = SymBandedMatrix.toarray
    monkeypatch.setattr(SymBandedMatrix, "toarray",
                        lambda self: dense.append(self) or toarray(self))
    monkeypatch.setattr(eigensolve, "MAX_DENSE_ORDER", 2)
    with pytest.raises(ValueError, match="above the limit of 2"):
        generalized_eig(A, B)
    assert dense == []
    monkeypatch.setattr(eigensolve, "MAX_DENSE_ORDER", 3)
    np.testing.assert_allclose(generalized_eig(A, B).values,
                               [1.0, 2.0, 3.0])


def test_solves_are_deterministic():
    rng = np.random.default_rng(11)
    Q = rng.standard_normal((6, 6))
    A = Q + Q.T
    B = np.eye(6)
    first = generalized_eig(banded(A), banded(B))
    second = generalized_eig(banded(A.copy()), banded(B.copy()))
    assert first.values.tobytes() == second.values.tobytes()
    assert first.vectors.tobytes() == second.vectors.tobytes()


@pytest.mark.parametrize("layout", [np.ascontiguousarray,
                                    np.asfortranarray])
@pytest.mark.parametrize("shuffle", [False, True])
def test_finish_sorts_in_copies(layout, shuffle, monkeypatch):
    # the finish gathers the columns of X and the residuals into value
    # order, inputs untouched. Random pairs break any contract, so the
    # bound is lifted.
    monkeypatch.setattr(eigensolve, "RESIDUAL_RTOL", 1e300)
    rng = np.random.default_rng(12)
    values = rng.standard_normal(7)
    if not shuffle:
        values.sort()
    X = layout(rng.standard_normal((9, 7)))
    residuals = rng.uniform(size=7)
    held = [Y.copy() for Y in (values, X, residuals)]
    order = np.argsort(values, kind="stable")
    spectrum = eigensolve._spectrum(values, X, residuals, (1.0, 1.0))
    for Y, copy in zip((values, X, residuals), held):
        assert Y.tobytes() == copy.tobytes()
    assert spectrum.values.tobytes() == values[order].tobytes()
    assert spectrum.vectors.tobytes() == X[:, order].tobytes()
    assert spectrum.residuals.tobytes() == residuals[order].tobytes()


@pytest.mark.parametrize("width", [1, 2, 5, 9])
def test_residual_norms_do_not_depend_on_the_block(width):
    # a column's norm is the same bits alone or in a block of any width
    rng = np.random.default_rng(13)
    values = rng.standard_normal(9)
    AX, BX = rng.standard_normal((2, 40, 9))
    whole = eigensolve._residual_norms(values, AX, BX)
    np.testing.assert_allclose(
        whole, np.linalg.norm(AX - BX * values, axis=0), rtol=1e-14)
    parts = [eigensolve._residual_norms(values[lo:lo + width],
                                        AX[:, lo:lo + width].copy(),
                                        BX[:, lo:lo + width].copy())
             for lo in range(0, 9, width)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray,
                                    lambda X: np.broadcast_to(X[:, :1],
                                                              X.shape)])
def test_column_dots_do_not_depend_on_the_memory_order(layout):
    # each column is summed row after row, as it is alone
    rng = np.random.default_rng(17)
    X, Y = (layout(Z) for Z in rng.standard_normal((2, 40, 9)))
    alone = [eigensolve._column_dots(X[:, [j]], Y[:, [j]])[0]
             for j in range(9)]
    assert eigensolve._column_dots(X, Y).tolist() == alone


def test_spectrum_dataclass_accessors():
    spectrum = generalized_eig(banded(np.diag([2.0, 5.0])),
                               banded(np.eye(2)))
    assert isinstance(spectrum, Spectrum)
    assert spectrum.n == 2
    assert lam_min(spectrum) == pytest.approx(2.0)
    assert lam_max(spectrum) == pytest.approx(5.0)


def test_refined_eigenvalues_hit_closed_form_at_machine_level():
    # rank-paired comparison with the exact pencil eigenvalues; the
    # Rayleigh-quotient refinement keeps per-mode relative error near
    # machine epsilon even for well-separated large modes
    p, N = 2, 20
    system = build_soft_system(p, N, 0.0)
    spectrum = generalized_eig(system.A, system.B)
    exact = np.array([analytic_eigenvalue(p, 0.0, j, N)
                      for j in range(1, N + 1)])
    np.testing.assert_allclose(spectrum.values, exact, rtol=1e-12)


def test_pencil_turns_indefinite_beyond_sharp_weight():
    table = eta_table()
    for p in (2, 3, 4):
        sharp = float(table.sharp_max[p])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IndefinitenessWarning)
            below = build_soft_system(p, 50, 0.99 * sharp)
            above = build_soft_system(p, 50, 1.01 * sharp)
        assert lam_min(generalized_eig(below.A, below.B)) > 0
        assert lam_min(generalized_eig(above.A, above.B)) < 0


def test_band_product_matches_the_dense_product():
    rng = np.random.default_rng(5)
    for n, hbw in ((1, 0), (2, 1), (7, 3), (40, 5)):
        dense = rng.standard_normal((n, n))
        dense = np.tril(np.triu(dense + dense.T, -hbw), hbw)
        band = SymBandedMatrix(banded(dense).band[:hbw + 1])
        x = rng.standard_normal(n)
        np.testing.assert_allclose(band.matvec(x), dense @ x, rtol=1e-13,
                                   atol=1e-13)


@pytest.mark.parametrize("band_order", ["C", "F"])
@pytest.mark.parametrize("layout", [np.ascontiguousarray,
                                    np.asfortranarray])
def test_block_product_is_the_column_products(layout, band_order):
    # the tests' block product (``oracles.band_product``), with which they
    # measure the residuals the package only bounds, is one C-order block
    # within rounding of the dense product. A block sums by diagonals and
    # a vector through dsbmv, so a column agrees with its vector product
    # in round-off, not bit for bit.
    rng = np.random.default_rng(17)
    for n, hbw, m in ((1, 0, 1), (2, 1, 3), (9, 3, 1), (40, 5, 7),
                      (3, 5, 2)):
        dense = rng.standard_normal((n, n))
        dense = np.tril(np.triu(dense + dense.T, -hbw), hbw)
        band = np.zeros((hbw + 1, n))
        band[:min(hbw + 1, n)] = banded(dense).band[:hbw + 1]
        band = SymBandedMatrix(np.array(band, order=band_order))
        X = layout(rng.standard_normal((n, m)))
        AX = band_product(band, X)
        assert AX.flags.c_contiguous
        scale = np.abs(dense) @ np.abs(X)
        assert np.all(np.abs(AX - dense @ X) <= 1e-14 * scale)
        columns = np.column_stack([band.matvec(x) for x in X.T])
        assert np.all(np.abs(AX - columns) <= 1e-14 * scale)


def test_dense_solve_holds_no_dense_copy_past_eigh():
    # the dense sides live only as the arguments of eigh, and A V and
    # B V are band products: the peak is eigh's own, about 6 n^2
    p, N = 3, 400
    system = build_soft_system(p, N, float(eta_table().default[p]))
    n = system.A.n
    tracemalloc.start()
    try:
        generalized_eig(system.A, system.B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7 * n * n * 8


def _weights(p):
    """(label, eta, eta_b) of every tabulated weight of degree p."""
    table = eta_table()
    out = [("zero", 0.0, 0.0)]
    for label, eta in (("default", table.default.get(p)),
                       ("super", table.superconvergent.get(p))):
        if eta is not None:
            out.append((label, float(eta), 0.0))
    mass_side = table.mass_side.get(p)
    if mass_side is not None:
        out.append(("eta_b paper", float(table.default[p]),
                    float(mass_side)))
    return out


def _assert_ends_match_the_dense_solve(A, B):
    ends = extreme_eigenpairs(A, B)
    dense = generalized_eig(A, B)
    assert ends.values[1] == pytest.approx(lam_max(dense), rel=1e-13)
    # both solves carry the round-off floor eps * lambda_max on the low end
    assert abs(ends.values[0] - lam_min(dense)) <= 8 * EPS * abs(
        lam_max(dense))
    assert np.all(ends.residuals <= ends.residual_bounds)
    norms = np.einsum("ij,ij->j", ends.vectors,
                      B.toarray() @ ends.vectors)
    np.testing.assert_allclose(norms, 1.0, rtol=1e-12)
    return ends


@pytest.mark.parametrize("flavor", ["outlier_free", "standard"])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_band_ends_match_the_dense_solve(p, flavor):
    for label, eta, eta_b in _weights(p):
        for N in (12, 61, 240):
            system = build_soft_system(p, N, eta, eta_b, flavor)
            _assert_ends_match_the_dense_solve(system.A, system.B)


def test_band_ends_match_the_dense_solve_at_n_800():
    table = eta_table()
    for flavor in ("outlier_free", "standard"):
        system = build_soft_system(3, 800, table.default[3], 0.0, flavor)
        _assert_ends_match_the_dense_solve(system.A, system.B)


@pytest.mark.parametrize("N", [1000, 10_000, 100_000])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_band_lambda_max_hits_the_closed_form_at_scale(p, N):
    eta = float(eta_table().default[p])
    top = N if p % 2 == 0 else N - 1
    system = build_soft_system(p, N, eta)
    ends = extreme_eigenpairs(system.A, system.B)
    assert ends.values[1] == pytest.approx(
        analytic_eigenvalue(p, eta, top, N), rel=1e-13)


def test_band_ends_of_orders_one_and_two():
    one = extreme_eigenpairs(banded([[2.0]]), banded([[4.0]]))
    np.testing.assert_allclose(one.values, [0.5, 0.5], rtol=1e-15)
    np.testing.assert_allclose(one.vectors, [[0.5, 0.5]], rtol=1e-15)
    # the smooth start vector of inverse iteration is blind to the
    # lowest mode here, (1, -1); the definiteness certificate catches it
    two = extreme_eigenpairs(banded([[2.0, 1.0], [1.0, 2.0]]),
                             banded(np.eye(2)))
    np.testing.assert_allclose(two.values, [1.0, 3.0], rtol=1e-14)
    A = banded([[4.0, 1.0], [1.0, 3.0]])
    B = banded([[2.0, 0.3], [0.3, 1.5]])
    _assert_ends_match_the_dense_solve(A, B)


def test_band_ends_of_sides_with_different_bandwidths():
    rng = np.random.default_rng(2)
    Q = rng.standard_normal((9, 9))
    A = banded(np.tril(np.triu(Q + Q.T, -3), 3))
    B = SymBandedMatrix(rng.uniform(1.0, 2.0, (1, 9)))  # diagonal
    _assert_ends_match_the_dense_solve(A, B)
    _assert_ends_match_the_dense_solve(B, A.plus(20.0, SymBandedMatrix(
        np.ones((1, 9)))))


def test_band_ends_of_an_indefinite_stiffness_side():
    sharp = float(eta_table().sharp_max[3])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IndefinitenessWarning)
        system = build_soft_system(3, 50, 1.01 * sharp)
    ends = _assert_ends_match_the_dense_solve(system.A, system.B)
    assert lam_min(ends) < 0


def test_band_solve_refuses_an_indefinite_mass_side_with_its_pivot():
    A = banded(np.eye(4))
    B = banded(np.diag([1.0, 1.0, -1.0, 1.0]))
    with pytest.raises(DefinitenessError) as err:
        extreme_eigenpairs(A, B)
    assert err.value.pivot == cholesky_pivot(B) == 3


@pytest.mark.parametrize("solve", [generalized_eig, extreme_eigenpairs],
                         ids=lambda solve: solve.__name__)
def test_solvers_refuse_bad_input(solve):
    with pytest.raises(ValueError):
        solve(banded(np.eye(3)), banded(np.eye(4)))
    A = np.eye(3)
    A[0, 0] = np.nan
    with pytest.raises(EigenSolveError):
        solve(banded(A), banded(np.eye(3)))


@pytest.mark.parametrize("solve", [generalized_eig, extreme_eigenpairs],
                         ids=lambda solve: solve.__name__)
def test_overflow_in_a_solve_is_one_solver_error(solve):
    A = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # finite entries whose squares overflow
        with pytest.raises(EigenSolveError, match="^overflow encountered"):
            solve(banded(A), banded(1e200 * np.eye(3)))
        A[0, 0] = np.inf
        with pytest.raises(EigenSolveError, match="non-finite entries"):
            solve(banded(A), banded(np.eye(3)))


@pytest.mark.parametrize("eta_b", [1e100, 1e150])
def test_band_ends_of_a_huge_mass_side_weight(eta_b):
    # B x, and with it the inverse-iteration iterate, grows as eta_b;
    # its products with B must not overflow
    system = build_soft_system(2, 8, eta_table().default[2], eta_b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = extreme_eigenpairs(system.A, system.B)
    dense = generalized_eig(system.A, system.B)
    assert abs(ends.values[0] - lam_min(dense)) <= 8 * EPS * lam_max(dense)
    # the top end carries a floor of about 1e-13 relative on this pencil
    # at any mass-side weight: 8.6e-14 at eta_b = 1e10, 1.1e-13 here
    assert ends.values[1] == pytest.approx(lam_max(dense), rel=5e-13)


@pytest.mark.parametrize("solve", [generalized_eig, extreme_eigenpairs],
                         ids=lambda solve: solve.__name__)
def test_solvers_raise_on_a_contract_breach(solve, monkeypatch):
    monkeypatch.setattr(eigensolve, "RESIDUAL_RTOL", 1e-300)
    A = banded([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
    with pytest.raises(EigenSolveError) as err:
        solve(A, banded(np.diag([2.0, 1.5, 1.0])))
    # one line naming the worst pair, not the arrays of every pair
    assert re.fullmatch(r"eigenpair \d+ of \d+ breaks the residual"
                        r" contract: residual \S+ above its bound \S+",
                        str(err.value))


def test_dense_solve_of_a_high_degree_coarse_space_breaks_the_contract():
    # the dense pairs of standard spaces with p >= 14 on coarse meshes
    # miss their bound; at p = 16, N = 3 the worst misses it 25-fold
    system = build_soft_system(16, 3, 0.0, 0.0, "standard")
    with pytest.raises(EigenSolveError, match="residual contract"):
        generalized_eig(system.A, system.B)


def test_condition_with_an_indefinite_pencil_keeps_its_message(capsys):
    # p = 5 has no tabulated sharp bound to refuse eta = 1 up front, but
    # the assembly warns at its sharp weight; the symbol gives
    # lambda_min < 0 and the statistics refuse it
    with pytest.warns(IndefinitenessWarning, match="sharp threshold"):
        code = main(["condition", "-p", "5", "-N", "40", "--eta", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err == ("softiga: config error: spectra must be"
                            " positive to form condition numbers\n")


def _counting_factorizations(monkeypatch):
    """The order of every shifted band factorization of the band solver:
    n for the whole pencil, less for its leading block."""
    calls = []
    original = eigensolve._shifted_factor

    def counted(*args):
        calls.append(args[3].shape[1])
        return original(*args)

    monkeypatch.setattr(eigensolve, "_shifted_factor", counted)
    return calls


@pytest.mark.parametrize("p, N, flavor, count", [
    (1, 40, "standard", 0), (2, 100, "standard", 0),
    (2, 100, "outlier_free", 0), (3, 100, "outlier_free", 0),
    (12, 40, "outlier_free", 0), (13, 40, "outlier_free", 0),
    (16, 40, "outlier_free", 0), (20, 40, "outlier_free", 0),
    # factorizations of the whole pencil: one just above the top of the
    # leading block and one just below the estimate of lambda_min; at
    # p = 11, N = 300 the margin is refused twice, the bracket found is
    # halved four times, and its top factored again; at p = 5, N = 40 the
    # block is the whole pencil, which is bisected
    (3, 100, "standard", 2), (4, 100, "standard", 2),
    (5, 40, "standard", 54), (11, 300, "standard", 9)])
def test_closed_form_extremes_factor_no_shifted_pencil(p, N, flavor, count,
                                                       monkeypatch):
    # the extremes of a pencil with closed-form modes are the extremes of
    # its symbol values; every other pencil keeps its band solve, whose
    # other factorizations bisect the top of its leading block
    calls = _counting_factorizations(monkeypatch)
    weights = [0.0] + ([eta_table().default[p]]
                       if flavor == "outlier_free" and p <= 4 else [])
    for eta in weights:
        calls.clear()
        system = build_soft_system(p, N, eta, 0.0, flavor)
        extreme_values(system)
        n = system.space.dim
        assert calls.count(n) == count
        assert set(calls) <= {n, 12 * system.A.half_bandwidth + 24}


def _oracle_driven(A, B, monkeypatch):
    """extreme_eigenpairs with its top found by bisection on the whole
    pencil (``oracles.whole_edge``), as before the corner's shift."""
    with monkeypatch.context() as patch:
        patch.setattr(eigensolve, "_edge", whole_edge)
        return extreme_eigenpairs(A, B)


def _bisections(monkeypatch):
    """The order of every bisection the band solver runs: n for the whole
    pencil, 12 hbw + 24 for its leading block."""
    orders = []
    original = eigensolve._bisection

    def spied(*args):
        orders.append(args[0].shape[1])
        return original(*args)

    monkeypatch.setattr(eigensolve, "_bisection", spied)
    return orders


def _assert_bits_equal(got, want):
    for name in ("values", "vectors", "residuals", "residual_bounds"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def _standard_meshes(p):
    return sorted({p + 1, 2 * p, 4 * p + 2, 4 * p + 3, 30, 60, 100, 150, 200,
                   300, 400, 1000, 3000})


def _rayleigh_floor(A, B, x, value):
    """The rounding bound eps (|x|^T |A| |x| + |value| |x|^T |B| |x|) of
    the Rayleigh quotient of a B-normalized x."""
    x = abs(x)
    return EPS * sum(scale * (x @ SymBandedMatrix(abs(X.whole().band))
                              .matvec(x)) for scale, X in ((1.0, A),
                                                           (abs(value), B)))


@pytest.mark.parametrize("p", range(3, 17))
def test_the_corner_shift_meets_the_whole_bisection(p, monkeypatch):
    # the top of a standard space at p >= 3 is a boundary outlier: on
    # every mesh whose pencil is larger than its leading block a shift
    # above the block's top factors, with no bisection of the whole
    # pencil, and both ends lie within 128 eps * lambda_max of the solve
    # whose top is bisected on the whole pencil (33 at most, at p = 8,
    # N = 150); a pencil no larger than the block is that solve, bit for
    # bit. From p = 9 the Rayleigh quotients of both routes and the dense
    # solve scatter over the rounding bound of the quotient, from 2e3
    # eps * lambda_max at p = 9 to 1.4e6 at p = 16, at most 0.16 of it
    # apart (a 60-digit solve of the stored pencil at p = 8..10, N = 150
    # puts this top 8 to 15 eps * lambda_max off, the bisected one 15 to
    # 70 and the dense one 19 to 106): there the top is no farther from
    # the dense solve than twice the bisected top, or than a quarter of
    # that bound
    import scipy.linalg as sla
    for N in _standard_meshes(p):
        system = build_soft_system(p, N, 0.0, 0.0, "standard")
        A, B, n = system.A, system.B, system.space.dim
        m = 12 * A.half_bandwidth + 24
        orders = _bisections(monkeypatch)
        got = extreme_eigenpairs(A, B)
        want = _oracle_driven(A, B, monkeypatch)
        if n <= m:
            assert orders == [n]
            _assert_bits_equal(got, want)
            continue
        assert orders == [m]
        scale = 128 * EPS * lam_max(want)
        assert abs(lam_min(got) - lam_min(want)) <= scale
        if p <= 8:
            assert abs(lam_max(got) - lam_max(want)) <= scale
        elif n <= 1100:
            dense = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True)[-1]
            floor = _rayleigh_floor(A, B, got.vectors[:, 1], lam_max(got))
            assert abs(lam_max(got) - dense) <= max(
                2 * abs(lam_max(want) - dense), floor / 4)


@pytest.mark.parametrize("p", [3, 4])
def test_the_corner_shift_at_n_100_000(p, monkeypatch):
    system = build_soft_system(p, 100_000, 0.0, 0.0, "standard")
    orders = _bisections(monkeypatch)
    got = extreme_eigenpairs(system.A, system.B)
    assert orders == [12 * system.A.half_bandwidth + 24]
    want = _oracle_driven(system.A, system.B, monkeypatch)
    np.testing.assert_allclose(got.values, want.values, rtol=0.0,
                               atol=128 * EPS * lam_max(want))


def _random_band_pair(n, hbw, seed):
    rng = np.random.default_rng(seed)
    sides = []
    for _ in range(2):
        band = rng.standard_normal((hbw + 1, n))
        for k in range(1, hbw + 1):
            band[k, n - k:] = 0.0
        # diagonally dominant, so positive definite
        spread = abs(band[1:])
        band[0] = 1.0 + abs(band[0]) + spread.sum(0)
        for k in range(1, hbw + 1):
            band[0, k:] += spread[k - 1, :n - k]
        sides.append(SymBandedMatrix(np.asfortranarray(band)))
    return sides


def _global_top_pencil(n):
    """-1 2 -1 over the identity, its diagonal raised by a bump in the
    middle of the mesh: the top mode lives there, far from the corner."""
    i = np.arange(n)
    stiffness = np.zeros((2, n))
    stiffness[0] = 2.0 + 1e-3 * np.exp(-((i - n / 2) / 50.0) ** 2)
    stiffness[1, :-1] = -1.0
    return (SymBandedMatrix(np.asfortranarray(stiffness)),
            SymBandedMatrix(np.ones((1, n))))


def _zero_corner_pencil(k):
    """A Neumann -L of order k, an exact zero mode, decoupled from a
    -L of order 990 shifted up to a top of 1e-3, over the identity: the
    leading block's top is 0, the pencil's lies past it."""
    n = k + 990
    stiffness = np.zeros((2, n))
    stiffness[0, :k] = -2.0
    stiffness[0, [0, k - 1]] = -1.0
    stiffness[1, :k - 1] = 1.0
    stiffness[0, k:] = -2.0 + 4.0 * np.sin(np.pi / 1982) ** 2 + 1e-3
    stiffness[1, k:n - 1] = 1.0
    return (SymBandedMatrix(np.asfortranarray(stiffness)),
            SymBandedMatrix(np.ones((1, n))))


@pytest.mark.parametrize("pencil", [
    *[f"standard-{p}-{N}" for p in (1, 2) for N in (100, 1000, 100_000)],
    "random-200-3", "random-1000-5", "random-5000-2", "global-2000",
    "zero-4", "zero-10"])
def test_a_wrong_corner_reruns_on_the_whole_pencil(pencil, monkeypatch):
    # where the top mode is not at the corner, the whole pencil refuses
    # every shift within 2^-20 of the block's top, the top is bisected on
    # the whole pencil, and the result is the whole-pencil bisection's,
    # bit for bit. Where the block's top is an exact 0, the diagonal sets
    # the margins, and the top, 1e-3, lies past all of them
    kind, *sizes = pencil.split("-")
    if kind == "standard":
        system = build_soft_system(*map(int, sizes), 0.0, 0.0, "standard")
        A, B = system.A.whole(), system.B.whole()
    elif kind == "random":
        A, B = _random_band_pair(*map(int, sizes), seed=sum(map(int, sizes)))
    elif kind == "zero":
        A, B = _zero_corner_pencil(int(sizes[0]))
        assert lam_max(extreme_eigenpairs(A, B)) == pytest.approx(1e-3)
    else:
        A, B = _global_top_pencil(int(sizes[0]))
    orders = _bisections(monkeypatch)
    got = extreme_eigenpairs(A, B)
    hbw = max(A.half_bandwidth, B.half_bandwidth)
    assert orders[:2] == [12 * hbw + 24, A.n]
    _assert_bits_equal(got, _oracle_driven(A, B, monkeypatch))


@pytest.mark.parametrize("p, N", [(19, 1721), (20, 1366), (20, 2481)])
def test_the_corner_shift_where_definiteness_flips(p, N, monkeypatch):
    # at p = 19 and 20 the whole pencil's definiteness flips back and
    # forth near lambda_max, and the top pair and the block's top lie
    # within 1e-11 of each other: a corner shift factors, and the top is
    # the bisected one to within a quarter of the rounding bound of its
    # Rayleigh quotient (1e6 eps * lambda_max and more), 0.06 at most
    system = build_soft_system(p, N, 0.0, 0.0, "standard")
    A, B = system.A, system.B
    orders = _bisections(monkeypatch)
    got = extreme_eigenpairs(A, B)
    assert orders == [12 * A.half_bandwidth + 24]
    want = _oracle_driven(A, B, monkeypatch)
    assert abs(lam_min(got) - lam_min(want)) <= 128 * EPS * lam_max(want)
    assert abs(lam_max(got) - lam_max(want)) <= _rayleigh_floor(
        A, B, got.vectors[:, 1], lam_max(got)) / 4


def test_a_start_blind_to_the_lowest_mode_is_refused_its_shift(monkeypatch):
    # the sine start is the top mode of tridiag(1, 2, 1), orthogonal to
    # the lowest: the first shift of the lower end, below the estimate of
    # two steps, lies above lambda_min and does not factor, and the lower
    # end is found from the start again, certified or bisected
    n = 60
    A = banded(2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1))
    lower = []
    original = eigensolve._shifted_factor

    def spied(a, b, t, out, dpbtrf, flip=False):
        info = original(a, b, t, out, dpbtrf, flip)
        if flip:
            lower.append((-t, info))
        return info

    monkeypatch.setattr(eigensolve, "_shifted_factor", spied)
    ends = extreme_eigenpairs(A, banded(np.eye(n)))
    exact = 2.0 + 2.0 * np.cos(np.array([n, 1]) * np.pi / (n + 1))
    np.testing.assert_allclose(ends.values, exact, rtol=1e-12)
    sigma, info = lower[0]
    assert sigma > 3.9 and info > 0


def test_the_band_solver_peaks_at_six_band_arrays():
    # the standard p = 3 pencil at N = 10^5: A, B and one buffer for the
    # shifted factors of both ends, with a few vectors; (p + 1) n doubles
    # are one unit (the stored bands have p + 2 rows). Measured 5.75 units;
    # a negated copy of A and a factor of A of its own took 7.75
    p, N = 3, 100_000
    system = build_soft_system(p, N, 0.0, 0.0, "standard")
    extreme_values(build_soft_system(p, 1000, 0.0, 0.0, "standard"))
    tracemalloc.start()
    try:
        extreme_values(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * (p + 1) * system.space.dim

"""Closed-form eigenvalues, canonical softness weights, the
inverse-estimate constant behind the theoretical weight bound,
dispersion expansions, exact reference matrices, and commutator checks.

Everything rational is stored exactly (fractions.Fraction) and converted
to floating point only at use sites. The interior stencils of the
reference matrices are samples of the cardinal B-spline and binomial
coefficients, computed for any degree (``interior_stencil``); the
boundary entries follow from one completion rule, the method-of-images
sum of the stencil over the period 2N (a symmetric Toeplitz part minus
a Hankel part), that reproduces every printed boundary row. The rule
runs in Python integers over the stencil's common denominator, in
O(n * hbw) work; on the uniform mesh these are the outlier-free
operators, which ``assembly`` rounds.

The interior symbol of the softened pencil's stencils gives its
eigenvalue as a function of the wavenumber (``interior_symbol``), one
evaluator in the arithmetic of its arguments, with no cancelling sum
(``_mass_polynomial``): in double precision it is every closed-form
eigenvalue of the outlier-free pencil, and in mpmath it gives dispersion
fits, extrapolated by a Lagrange sum with no mpmath linear algebra. Only
those fits use mpmath, so it is imported by them. The same
symbols give the sharp softness weight of every degree
(``sharp_weight``); the closed-form eigenvectors are the sine samples
of ``spaces.sine_table``.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .eigensolve import SymBandedMatrix

F = Fraction


@dataclass(frozen=True)
class EtaTable:
    """Canonical softness weights per degree, exact rationals.

    ``sharp_max`` is the largest weight keeping the stiffness side
    positive semidefinite; ``theoretical_max`` = 1/(2*C_{p,3}^2) is the
    (smaller) bound certified by the inverse estimate; ``default``
    preserves strict spectrum monotonicity; ``superconvergent`` cancels
    the t^(2p) dispersion term; ``mass_side`` is the matching mass
    weight where one is known. Missing entries are None.
    """

    theoretical_max: dict
    sharp_max: dict
    default: dict
    superconvergent: dict
    mass_side: dict

    def resolve(self, p, mode):
        """Look up a named weight; raises KeyError when not tabulated."""
        table = getattr(self, mode)
        value = table.get(p)
        if value is None:
            raise KeyError(f"no {mode} softness weight tabulated for p={p}")
        return value


_DEFAULT = {2: F(3, 272), 3: F(69, 79360), 4: F(451, 6191360), 5: None}
_SUPER = {2: F(1, 720), 3: F(1, 30240), 4: F(1, 1209600), 5: F(1, 47900160)}
_MASS_SIDE = {2: F(1, 3360), 3: F(1, 60480), 4: None, 5: None}

# Coefficient of t^(2p+2) in the relative eigenvalue-error expansion;
# the t^(2p) coefficient is superconvergent-eta minus eta.
_NEXT_COEFF = {2: F(1, 3360), 3: F(1, 60480), 4: F(1, 1368576),
               5: F(691, 24216192000)}


def inverse_constants_squared(p):
    """Exact square C_{p,3}^2 of the inverse-estimate constant, a
    Fraction."""
    if p < 1:
        raise ValueError(f"degree must be at least 1, got {p}")
    return F(math.factorial(p - 1) * math.factorial(p) * math.factorial(p + 1)
             * math.factorial(p + 2), 3 * 2 ** p)


@functools.cache
def eta_table():
    """The canonical softness-weight table for p in {2, 3, 4, 5}.

    Built once and shared: its tables are read-only mappings of
    immutable Fractions. The sharp weights are ``sharp_weight`` at
    p = 2..4; p = 5 is left untabulated, so that it resolves no named
    weight and refuses no ``--eta``.
    """
    theoretical = {p: 1 / (2 * inverse_constants_squared(p))
                   for p in (2, 3, 4, 5)}
    sharp = {p: sharp_weight(p) for p in (2, 3, 4)} | {5: None}
    return EtaTable(*(MappingProxyType(dict(table)) for table in
                      (theoretical, sharp, _DEFAULT, _SUPER, _MASS_SIDE)))


def analytic_eigenvalue(p, eta, j, N):
    """Closed-form pencil eigenvalue for p in {2, 3, 4}.

    Parameters
    ----------
    p : int
        Degree 2, 3, or 4.
    eta : float
        Softness weight.
    j : int
        Mode index, 1..N for even p and 1..N-1 for odd p.
    N : int
        Element count; t_j = j*pi/N.

    Returns
    -------
    float
    """
    top = N if p % 2 == 0 else N - 1
    if not 1 <= j <= top:
        raise ValueError(f"mode index must be in 1..{top}, got {j}")
    eta = float(eta)
    h = 1.0 / N
    t = j * math.pi * h
    c1, c2, c3, c4 = (math.cos(k * t) for k in (1, 2, 3, 4))
    s = math.sin(t / 2.0) ** 2 / h ** 2
    if p == 2:
        return (80.0 * s * (2.0 - 18.0 * eta + (1.0 + 24.0 * eta) * c1
                            - 6.0 * eta * c2)
                / (33.0 + 26.0 * c1 + c2))
    if p == 3:
        return (168.0 * s * (33.0 - 1200.0 * eta
                             + 2.0 * (13.0 + 900.0 * eta) * c1
                             + (1.0 - 720.0 * eta) * c2 + 120.0 * eta * c3)
                / (1208.0 + 1191.0 * c1 + 120.0 * c2 + c3))
    if p == 4:
        return (288.0 * s * (1208.0 - 176400.0 * eta
                             + 3.0 * (397.0 + 94080.0 * eta) * c1
                             + 120.0 * (1.0 - 1176.0 * eta) * c2
                             + (1.0 + 40320.0 * eta) * c3
                             - 5040.0 * eta * c4)
                / (78095.0 + 88234.0 * c1 + 14608.0 * c2 + 502.0 * c3 + c4))
    raise ValueError(f"no closed form for p={p}")


def _cardinal(n, x):
    """Schoenberg's cardinal B-spline N_n of degree n, supported on
    [0, n + 1], at the rational x, exactly."""
    return sum(F((-1) ** j * math.comb(n + 1, j)) * (x - j) ** n
               for j in range(n + 2) if x > j) / math.factorial(n)


@functools.cache
def _mass_stencil(q):
    """The mass stencil of degree q >= 0: N_(2q+1)(q + 1 + k)."""
    return tuple(_cardinal(2 * q + 1, F(q + 1 + k)) for k in range(q + 1))


@functools.cache
def _mass_polynomial(q):
    """The mass symbol of degree q >= 0, m_0 + 2 sum_k m_k cos(k theta),
    as its exact coefficients a_0..a_q in c = cos^2(theta / 2), through
    cos(k theta) = T_k(2c - 1). All are positive (the Euler-Frobenius
    polynomials), so it sums with no cancellation on 0 <= c <= 1."""
    coeffs = [F(0)] * (q + 1)
    # T_(k-1) and T_k in c, lowest power first, from T_(-1) = T_1 = 2c - 1
    # and T_(k+1) = (4c - 2) T_k - T_(k-1)
    before, chebyshev = [-1, 2], [1]
    for k, m in enumerate(_mass_stencil(q)):
        for i, t in enumerate(chebyshev):
            coeffs[i] += (2 if k else 1) * m * t
        before, chebyshev = chebyshev, [
            4 * a - 2 * b - d for a, b, d in
            zip([0] + chebyshev, chebyshev + [0], before + [0, 0])]
    return tuple(coeffs)


@functools.cache
def sharp_weight(p):
    """The largest softness weight that keeps the stiffness side of
    degree p >= 1 positive semidefinite, exactly: m_(p-1)(pi) / 4^p.

    The stiffness side's symbol (``interior_symbol``) is nonnegative
    while eta <= m_(p-1)(theta) / sigma^(2p), least at theta = pi, where
    sigma = 2 and m_(p-1) is its constant coefficient in c (c = 0)."""
    return _mass_polynomial(p - 1)[0] / 4 ** p


@functools.cache
def interior_stencil(kind, p):
    """Exact interior stencil s_0, s_1, ... (diagonal first) of the
    printed matrix of the given kind and degree p >= 1, as Fractions.

    The uniform B-splines of degree p are translates of the cardinal
    B-spline N_p, so every stencil is a sample of one:
    - M: N_(2p+1)(p + 1 + k), the Gram matrix of N_p;
    - K: 2 c_k - c_(k-1) - c_(k+1), c the mass stencil of degree p - 1,
      since N_p' is the difference of two translates of N_(p-1);
    - S: (-1)^k C(2p + 2, p + 1 + k), the products of the p-th derivative
      jumps, whose values are the binomial differences;
    - T: N_p((p + 1)/2 + k), the B-spline values at the nodes.
    """
    if kind not in ("K", "M", "S", "T") or p < 1:
        raise ValueError(f"no reference matrix of kind {kind!r} for p={p}")
    if kind == "M":
        return _mass_stencil(p)
    if kind == "S":
        return tuple(F((-1) ** k * math.comb(2 * p + 2, p + 1 + k))
                     for k in range(p + 2))
    if kind == "T":
        return tuple(_cardinal(p, F(p + 1, 2) + k)
                     for k in range((p + 2) // 2))
    c = _mass_stencil(p - 1) + (F(0), F(0))
    return tuple(2 * c[k] - c[abs(k - 1)] - c[k + 1] for k in range(p + 1))


def reference_matrix(kind, p, N):
    """Exact printed matrix of the given kind on N elements.

    Parameters
    ----------
    kind : {"K", "M", "S", "T"}
        Stiffness, mass, softness, or transformation matrix. Entries
        are dimensionless as printed.
    p : int
        Degree >= 1.
    N : int
        Element count; the order is N for even p, N-1 for odd p.

    Returns
    -------
    SymBandedMatrix with Fraction entries, its half bandwidth that of
    the stencil (or less on a smaller order), built in O(n * hbw).

    The space is the splines odd about both ends of the mesh, so its
    members are the B-splines centred at the nodes a (a = 1..N-1 for
    odd p, a = 1/2..N-1/2 for even p), each minus its mirror about 0,
    repeated with period 2N. Entry (a, b) is therefore the method-of-
    images sum over m of s(a - b + 2mN) - s(a + b + 2mN), s the two-
    sided stencil: the stencil wrapped onto a circle of 2N nodes and
    read as a Toeplitz part minus a Hankel part. Once the order is at
    least twice the stencil length, only the first image of each end
    reaches the matrix, and the Hankel part is two mirrored tails.
    """
    A, d = _reference_numerators(kind, p, N)
    return SymBandedMatrix(A.band / F(d))


def _reference_numerators(kind, p, N):
    """d * ``reference_matrix(kind, p, N)`` in integers, and d."""
    sym = interior_stencil(kind, p)
    n = N if p % 2 == 0 else N - 1
    if n < 1:
        raise ValueError(f"no interior node for p={p}, N={N}")
    d = math.lcm(*(x.denominator for x in sym))
    numerators = [x.numerator * (d // x.denominator) for x in sym]
    # the stencil wrapped onto the 2N nodes of one period
    wrapped = [0] * (2 * N)
    for k in range(1 - len(sym), len(sym)):
        wrapped[k % (2 * N)] += numerators[abs(k)]
    # a + b = 2i + k + 1 + sigma for entry (i + k, i), in node units
    sigma = p % 2
    band = np.zeros((min(len(sym), n), n), dtype=object)
    for k in range(len(band)):
        for i in range(n - k):
            band[k, i] = (wrapped[k]
                          - wrapped[(2 * i + k + 1 + sigma) % (2 * N)])
    return SymBandedMatrix(band), d


def _scaled(M):
    """The dense integer matrix d*M and d, d the least common multiple
    of the denominators of the entries of the band M, each read as the
    rational it is (exactly, for a double)."""
    try:
        ratios = [x.as_integer_ratio() for x in M.band.ravel().tolist()]
    except (OverflowError, ValueError):
        raise ValueError("non-finite entry in a commutator operand") from None
    d = math.lcm(*(den for _, den in ratios))
    band = np.array([num * (d // den) for num, den in ratios],
                    dtype=object).reshape(M.band.shape)
    return SymBandedMatrix(band).toarray(), d


def commutator_norm(A, B):
    """Frobenius norm of AB - BA for two SymBandedMatrix operands, of
    integer, rational or float entries, rounded once from its exact value.

    Each operand is scaled to integers by the lcm of its denominators (a
    double is a rational), so the products run in Python integers with
    no gcd per operation; the result is the square root of the exact
    rational norm squared. Raises ValueError on an order mismatch or a
    non-finite entry.
    """
    if A.n != B.n:
        raise ValueError(f"order mismatch: {A.n} vs {B.n}")
    (A, d_A), (B, d_B) = _scaled(A), _scaled(B)
    # both operands are symmetric, so BA = (AB)^T
    C = A @ B
    C = C - C.T
    total = sum(x * x for x in C.ravel())
    return math.sqrt(total / (d_A * d_B) ** 2)


def transformation_commutators(p, N):
    """Frobenius norms of [K, T], [M, T] and [S, T] for the reference
    matrices of degree p on N elements; when they vanish, so does
    [K - eta S, T] for every eta. No Fraction is built: the products
    run on the integer completions, each norm over their denominators.
    """
    T, t = _reference_numerators("T", p, N)
    return [commutator_norm(X, T) / (x * t)
            for X, x in (_reference_numerators(kind, p, N) for kind in "KMS")]


@dataclass(frozen=True)
class DispersionExpansion:
    """Two leading coefficients of the relative eigenvalue-error
    expansion in t = omega*h: lead * t^(2p) + next * t^(2p+2) + ..."""

    lead: Fraction
    next: Fraction


def dispersion_expansion(p, eta):
    """Exact expansion coefficients; pass eta as a Fraction to make the
    superconvergent cancellation exact."""
    if p not in _SUPER:
        raise ValueError(f"no dispersion expansion for p={p}")
    eta = Fraction(eta)
    return DispersionExpansion(_SUPER[p] - eta, _NEXT_COEFF[p])


def interior_symbol(p, eta, eta_b, s, c, number=float):
    """lambda * h^2 of the softened interior pencil, K - eta S over
    M + eta_b S, at wavenumbers theta, in the arithmetic of the
    arguments: double precision from floats, mpmath from mpmath numbers.

    ``s`` holds sin^2(theta / 2) and ``c`` cos^2(theta / 2) per
    wavenumber, and the weights are numbers of the same arithmetic, each
    a scalar or an array that broadcasts elementwise (one row per
    weight, say). With m_q the mass symbol of degree q, a polynomial in
    c summed by Horner's rule (``_mass_polynomial``), the stiffness
    symbol is sigma^2 m_(p-1) (de Boor's derivative identity) and the
    softness symbol sigma^(2p+2) (the binomial stencil), sigma^2 = 4 s:

        sigma^2 (m_(p-1) - eta sigma^(2p)) / (m_p + eta_b sigma^(2p+2)).

    On the outlier-free space the sine modes are the pencil's exact
    eigenvectors, so this is the eigenvalue of mode j at theta = j pi/N,
    times h^2. Every sum runs in a fixed order per wavenumber and weight.
    """
    def horner(q):
        coeffs = (_float_polynomial(q) if number is float
                  else [number(a) for a in _mass_polynomial(q)])
        value = coeffs[-1]
        for a in coeffs[-2::-1]:
            # arrays on the left of each product and sum: mpmath reads
            # an array on its right through its repr
            value = c * value + a
        return value

    square = 4 * s
    soft = square ** p
    return square * (horner(p - 1) - soft * eta) / (
        horner(p) + soft * square * eta_b)


@functools.cache
def _float_polynomial(q):
    """The coefficients of ``_mass_polynomial(q)``, each rounded once."""
    return tuple(map(float, _mass_polynomial(q)))


# Sample wavenumbers t of the dispersion fit, and its mpmath precision
# in decimal digits.
FIT_WAVENUMBERS = (0.02, 0.01, 0.005)
FIT_DPS = 60


def fit_leading_coefficient(p, eta):
    """Empirical leading dispersion coefficient from a 3-point fit.

    Evaluates the symbol relative error at ``FIT_WAVENUMBERS``,
    divides by the leading power of t, and extrapolates t -> 0 by the
    Lagrange sum of the quadratic in t^2 through the three points. The
    power is 2p, or 2p+2 when the t^(2p) coefficient vanishes.

    Returns
    -------
    (fitted, exact, exponent)
        Fitted coefficient, its exact rational target, and the power of
        t it multiplies.
    """
    import mpmath

    exp = dispersion_expansion(p, eta)
    if exp.lead != 0:
        power, target = 2 * p, exp.lead
    else:
        power, target = 2 * p + 2, exp.next

    def exact(x):
        x = Fraction(x)
        return mpmath.mpf(x.numerator) / x.denominator

    with mpmath.workdps(FIT_DPS):
        ts = np.array([mpmath.mpf(t) for t in FIT_WAVENUMBERS], dtype=object)
        values = interior_symbol(
            p, exact(eta), 0, np.array([mpmath.sin(t / 2) ** 2 for t in ts]),
            np.array([mpmath.cos(t / 2) ** 2 for t in ts]), exact)
        us = ts ** 2
        rs = (values / us - 1) / ts ** power
        fitted = float(sum(r * math.prod(v / (v - u) for v in us if v != u)
                           for r, u in zip(rs, us)))
    return fitted, target, power

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
runs in integers over the stencil's common denominator (int64 where
they fit), read from the wrapped stencil by index arrays; on the uniform
mesh these are the outlier-free operators, which ``assembly`` rounds.
The commutators of those integer completions are exact: their products
run in int64 where n * max|X| * max|T| * 2 < 2^63 bounds every partial
sum, and in Python integers past it.

The interior symbol of the softened pencil's stencils gives its
eigenvalue as a function of the wavenumber (``interior_symbol``), one
evaluator in the arithmetic of its arguments, with no cancelling sum
(``_mass_polynomial``): in double precision it is every closed-form
eigenvalue of the outlier-free pencil. The dispersion fits evaluate the
same symbol in fixed-point Python integers with ``FIT_BITS`` = 384
fractional bits and extrapolate it by an exact Lagrange sum, rounded
once; nothing in the package uses mpmath. The same symbols give the
sharp softness weight of every degree (``sharp_weight``); the
closed-form eigenvectors are the sine samples of ``spaces.sine_table``.
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
    return SymBandedMatrix(A.band.astype(object) / F(d))


def _reference_numerators(kind, p, N):
    """d * ``reference_matrix(kind, p, N)`` in integers, and d: an int64
    band where the wrapped stencil is below 2^62, so that every entry,
    a difference of two of its values, fits; else Python integers."""
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
    wrapped = np.array(wrapped, dtype=np.int64 if max(map(abs, wrapped))
                       < 2 ** 62 else object)
    # a + b = 2i + k + 1 + sigma for entry (i + k, i), in node units
    k, i = np.arange(min(len(sym), n))[:, None], np.arange(n)
    band = wrapped[k] - wrapped[(2 * i + k + 1 + p % 2) % (2 * N)]
    # the last k slots of row k lie past the matrix
    band[i >= n - k] = 0
    return SymBandedMatrix(band), d


def _scaled(M):
    """The band of d*M in integers and d, d the least common multiple of
    the denominators of the entries of the band M, each read as the
    rational it is (exactly, for a double): M itself and 1 for an int64
    band, else a band of Python integers."""
    band = M.band
    if band.dtype == np.int64:
        return SymBandedMatrix(band), 1
    try:
        ratios = [x.as_integer_ratio() for x in band.ravel().tolist()]
    except (OverflowError, ValueError):
        raise ValueError("non-finite entry in a commutator operand") from None
    d = math.lcm(*(den for _, den in ratios))
    band = np.array([num * (d // den) for num, den in ratios],
                    dtype=object).reshape(band.shape)
    return SymBandedMatrix(band), d


def _commutator_square(A, B):
    """The squared Frobenius norm of AB - BA, exactly, for two
    SymBandedMatrix operands of one order with integer bands (int64 or
    Python integers).

    Where n * max|A| * max|B| * 2 < 2^63 bounds every partial sum of the
    products and of their difference, the dense products run in int64,
    exactly; past that bound, in Python integers. The squares of the
    nonzero entries are summed in Python integers either way.
    """
    bound = 2 * A.n * math.prod(int(abs(M.band).max()) for M in (A, B))
    dtype = np.int64 if bound < 2 ** 63 else object
    A, B = (SymBandedMatrix(M.band.astype(dtype, copy=False)).toarray()
            for M in (A, B))
    # both operands are symmetric, so BA = (AB)^T
    C = A @ B
    C = C - C.T
    return sum(x * x for x in C[C != 0].tolist())


def commutator_norm(A, B):
    """Frobenius norm of AB - BA for two SymBandedMatrix operands, of
    integer, rational or float entries, rounded once from its exact value.

    Each operand is scaled to integers by the lcm of its denominators (a
    double is a rational), so the products run in integers with no gcd
    per operation: in int64 where n * max|A| * max|B| * 2 < 2^63 proves
    every partial sum exact, in Python integers past it (where the
    scaled doubles of most float operands lie). The result is the square
    root of the exact rational norm squared. Raises ValueError on an
    order mismatch or a non-finite entry.
    """
    if A.n != B.n:
        raise ValueError(f"order mismatch: {A.n} vs {B.n}")
    (A, d_A), (B, d_B) = _scaled(A), _scaled(B)
    return math.sqrt(_commutator_square(A, B) / (d_A * d_B) ** 2)


def transformation_commutators(p, N):
    """Frobenius norms of [K, T], [M, T] and [S, T] for the reference
    matrices of degree p on N elements; when they vanish, so does
    [K - eta S, T] for every eta. No Fraction is built: the products
    run on the integer completions, in int64 under the bound of
    ``commutator_norm`` (at p = 2..5 and N = 14 the numerators have at
    most 24 bits), each norm over their denominators.
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
    arguments: double precision from floats, or that of any other number
    type (mpmath's, in the tests), whose ``number`` maps a Fraction into
    it. The dispersion fit (``fit_leading_coefficient``) evaluates the
    same expression at eta_b = 0 in fixed-point integers with
    ``FIT_BITS`` = 384 fractional bits.

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
            # arrays on the left of each product and sum: an mpmath
            # number reads an array on its right through its repr
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


# Sample wavenumbers t of the dispersion fit, and the fractional bits of
# its fixed-point integers.
FIT_WAVENUMBERS = (0.02, 0.01, 0.005)
FIT_BITS = 384


@functools.cache
def _fit_sines():
    """s = sin^2(t/2) at each of ``FIT_WAVENUMBERS``, times 2^FIT_BITS,
    rounded to an integer.

    Each t is a double, so an exact dyadic rational, and s = (1 - cos t)/2
    is the alternating series sum over k >= 1 of (-1)^(k+1) t^(2k) /
    (2 (2k)!), with no cancellation. It is summed exactly until a term
    falls below 2^-(FIT_BITS + 2), which bounds the rest, so each integer
    is within one unit of s * 2^FIT_BITS.
    """
    sines = []
    for t in FIT_WAVENUMBERS:
        square = F(t) ** 2
        term, total, k = square / 4, F(0), 1
        while term >= F(1, 1 << FIT_BITS + 2):
            total += term if k % 2 else -term
            term *= square / ((2 * k + 1) * (2 * k + 2))
            k += 1
        sines.append(round(total * (1 << FIT_BITS)))
    return tuple(sines)


@functools.cache
def _integer_polynomial(q):
    """The coefficients of ``_mass_polynomial(q)`` as integers over
    their common denominator, and that denominator."""
    coeffs = _mass_polynomial(q)
    d = math.lcm(*(a.denominator for a in coeffs))
    return tuple(a.numerator * (d // a.denominator) for a in coeffs), d


@functools.cache
def _fit_weights(power):
    """The fit at t -> 0 as sum_i g_i V_i - h over one denominator, for
    V_i the symbol value at the i-th of ``FIT_WAVENUMBERS``: the integers
    g_i and h and that denominator times 2^FIT_BITS.

    With u = t^2 and w_i the Lagrange weight at u = 0 of the quadratic in
    u through the three points, the fit is sum_i w_i (V_i / u_i - 1) /
    t_i^power, so g_i = w_i / (u_i t_i^power) and h = sum_i w_i /
    t_i^power, each an exact rational.
    """
    ts = [F(t) for t in FIT_WAVENUMBERS]
    us = [t * t for t in ts]
    lagrange = [math.prod(v / (v - u) for v in us if v != u) / t ** power
                for t, u in zip(ts, us)]
    weights = [w / u for w, u in zip(lagrange, us)] + [sum(lagrange)]
    d = math.lcm(*(w.denominator for w in weights))
    *g, h = (w.numerator * (d // w.denominator) for w in weights)
    return tuple(g), h, d << FIT_BITS


def _fixed_horner(coeffs, c):
    """The integer polynomial at c / 2^FIT_BITS, times 2^FIT_BITS and
    rounded down at each step, so below the value by under one unit a
    coefficient."""
    value = coeffs[-1] << FIT_BITS
    for a in coeffs[-2::-1]:
        value = (value * c >> FIT_BITS) + (a << FIT_BITS)
    return value


def fit_leading_coefficient(p, eta):
    """Empirical leading dispersion coefficient from a 3-point fit.

    Evaluates the symbol relative error at ``FIT_WAVENUMBERS``,
    divides by the leading power of t, and extrapolates t -> 0 by the
    Lagrange sum of the quadratic in t^2 through the three points. The
    power is 2p, or 2p+2 when the t^(2p) coefficient vanishes.

    The fit runs in Python integers with ``FIT_BITS`` = 384 fractional
    bits, and eta as the exact rational it is. At each wavenumber, s =
    sin^2(t/2) (``_fit_sines``) and c = 1 - s are within 2^-384 of their
    values, m_(p-1)(c) and m_p(c) are summed by Horner's rule on the
    integer coefficients of ``_mass_polynomial``, and the symbol value
    (``interior_symbol`` at eta_b = 0) is one floor quotient. Since s >=
    2^-18 and every coefficient is positive, each value is within about
    (2p + 4) 2^-366 of its exact value relative to the larger of its two
    terms. The Lagrange weights, over t^2 and t^power, are exact
    rationals (``_fit_weights``) whose magnitudes sum to below 2^108, so
    the fit, summed as one integer over 2^384 and rounded once by
    integer division, is within 2^-260 (1 + |eta|) of the exact fit: the
    double returned is the exact fit's, correctly rounded, unless that
    lies within that distance of a rounding boundary.

    Returns
    -------
    (fitted, exact, exponent)
        Fitted coefficient, its exact rational target, and the power of
        t it multiplies.
    """
    exp = dispersion_expansion(p, eta)
    if exp.lead != 0:
        power, target = 2 * p, exp.lead
    else:
        power, target = 2 * p + 2, exp.next
    eta = Fraction(eta)
    (stiff, d_stiff), (mass, d_mass) = (_integer_polynomial(p - 1),
                                        _integer_polynomial(p))
    weights, h, d = _fit_weights(power)
    # V = 4s (m_(p-1)(c) - eta (4s)^p) / m_p(c), times 2^FIT_BITS
    shift = FIT_BITS * (p - 1)
    total = -h << FIT_BITS
    for g, s in zip(weights, _fit_sines()):
        c = (1 << FIT_BITS) - s
        top = ((_fixed_horner(stiff, c) << shift) * eta.denominator
               - eta.numerator * d_stiff * (4 * s) ** p)
        total += g * (4 * s * d_mass * top // (
            d_stiff * eta.denominator * _fixed_horner(mass, c) << shift))
    return total / d, target, power

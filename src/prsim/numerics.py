"""Special functions and quadrature for the closed-form link analysis.

Everything in this module is a pure scalar function implemented from
power series, asymptotic expansions and a continued fraction, so the
library core depends on nothing beyond the standard library.  Accuracy
is verified in the test suite against independent high-precision
oracles; the targets are

* ``bessel_j0``: absolute error <= 1e-7 on |x| <= 50 (measured ~2e-11),
* ``exp_integral_e1``: absolute error <= 1e-8 on (0, inf).

The tan-mapped Gauss-Chebyshev rule maps the Chebyshev nodes on (-1, 1)
through u = pi/4 * (cos(theta) + 1) onto s = tan(u) in (0, inf).  The
capacity closed forms are exact finite sums and use no quadrature; the
rule serves the single-link self-check ``capacity_exponential_check``.
"""

import math

EULER_GAMMA = 0.5772156649015328606

# switch points between series and asymptotic branches; chosen so both
# branches overlap with margin (validated against mpmath in tests)
_J0_CUTOVER = 12.0
_E1_CUTOVER = 1.0


def bessel_j0(x):
    """Bessel function of the first kind, order zero.

    Power series up to |x| = 12, then the Hankel asymptotic expansion
    with coefficients built by recurrence.  J0 is even, so the sign of
    x is irrelevant.
    """
    x = abs(float(x))
    if x <= _J0_CUTOVER:
        term = 1.0
        total = 1.0
        q = -0.25 * x * x
        m = 0
        while True:
            m += 1
            term *= q / (m * m)
            total += term
            if abs(term) < 1e-18 * max(1.0, abs(total)):
                return total
    # Hankel expansion J0(x) ~ sqrt(2/(pi x)) (P cos chi - Q sin chi),
    # chi = x - pi/4; the (0,k) coefficients follow c_k = -c_{k-1} (2k-1)^2 / (8k)
    # (signed: c_k = (-1)^k |a_k|, so Q starts at -1/(8x))
    p = 1.0
    q = 0.0
    c = 1.0
    for k in range(1, 12):
        c *= -((2 * k - 1) ** 2) / (8.0 * k)
        t = c / x ** k
        if k % 2 == 0:
            p += t * (-1) ** (k // 2)
        else:
            q += t * (-1) ** ((k - 1) // 2)
    chi = x - 0.25 * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(chi) - q * math.sin(chi))


def exp_integral_e1(x):
    """Exponential integral E1(x) = int_x^inf exp(-t)/t dt for x > 0.

    Series with the -gamma - ln(x) head below x = 1, modified-Lentz
    continued fraction above.
    """
    x = float(x)
    if x <= 0.0:
        raise ValueError("E1 is defined for x > 0, got %r" % x)
    if x <= _E1_CUTOVER:
        total = 0.0
        term = 1.0
        k = 0
        while True:
            k += 1
            term *= -x / k
            add = -term / k
            total += add
            if abs(add) < 1e-18 * max(abs(total), 1e-300):
                break
        return -EULER_GAMMA - math.log(x) + total
    # E1(x) = e^{-x} / (x + 1 - 1/(x + 3 - 4/(x + 5 - ...)))
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x)


def phi(s):
    """The capacity kernel Phi(s) = -E1(s) for s > 0.

    An exponential-SNR link of mean g has capacity
    -exp(1/g) Phi(1/g) / ln 2.  The kernel is pinned by the Laplace
    identity int_0^inf exp(-s g) Phi(s) ds = -ln(1 + g)/g; tests check
    the identity numerically.
    """
    if s <= 0.0:
        raise ValueError("phi is defined for s > 0, got %r" % s)
    return -exp_integral_e1(s)


def gauss_chebyshev(Q):
    """(nodes, weights) of the order-Q tan-mapped Gauss-Chebyshev rule.

    Approximates int_0^inf g(s) ds as sum_q w_q g(s_q); both are tuples,
    bit-identical for the same order.

    s_q = tan(pi/4 * cos(theta_q) + pi/4) with theta_q = (q - 1/2) pi / Q,
    w_q = pi^2 sin(theta_q) / (4 Q cos^2(u_q)), u_q = pi/4 (cos(theta_q) + 1).

    The endpoint density of the map compresses the integrand tail; the
    rule converges quickly for smooth integrands on (0, inf) but only
    polynomially when the integrand has an endpoint singularity, such
    as the log singularity of the kernel Phi at s = 0.
    """
    Q = int(Q)
    if Q < 1:
        raise ValueError("Q must be >= 1")
    quarter_pi = 0.25 * math.pi
    nodes = []
    weights = []
    for q in range(1, Q + 1):
        theta = (q - 0.5) * math.pi / Q
        u = quarter_pi * (math.cos(theta) + 1.0)
        nodes.append(math.tan(u))
        weights.append(math.pi ** 2 * math.sin(theta) / (4.0 * Q * math.cos(u) ** 2))
    return tuple(nodes), tuple(weights)

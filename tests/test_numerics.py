"""Special functions against independent oracles.

Oracles used here are deliberately not the implementation under test:
mpmath arbitrary precision for sweeps, explicit truncated series coded
inline for the anchor examples, and scipy adaptive quadrature for the
integral identities.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from prsim.numerics import (
    EULER_GAMMA,
    bessel_j0,
    exp_integral_e1,
    gauss_chebyshev,
    phi,
)

mpmath = pytest.importorskip("mpmath")


def test_j0_trivial_zero():
    assert bessel_j0(0.0) == 1.0


def test_j0_tabulated_anchors():
    # the two Doppler-lag correlation anchors used throughout
    assert abs(bessel_j0(0.4 * math.pi) - 0.6425) <= 5e-4
    assert abs(bessel_j0(0.6 * math.pi) - 0.2906) <= 5e-4


def test_j0_accuracy_sweep():
    mpmath.mp.dps = 30
    xs = np.linspace(0.01, 50.0, 1709)
    worst = max(abs(bessel_j0(x) - float(mpmath.besselj(0, mpmath.mpf(float(x))))) for x in xs)
    assert worst <= 1e-7


def test_j0_bounded_and_even():
    xs = np.linspace(-40, 40, 401)
    assert all(abs(bessel_j0(x)) <= 1.0 + 1e-15 for x in xs)
    assert bessel_j0(-7.3) == bessel_j0(7.3)


def test_j0_sign_alternation_across_zeros():
    # first zeros at 2.4048, 5.5201, 8.6537, 11.7915, 14.9309
    probes = [1.0, 4.0, 7.0, 10.0, 13.0, 16.0]
    signs = [math.copysign(1.0, bessel_j0(x)) for x in probes]
    assert signs == [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]


def test_e1_tabulated_anchor():
    assert abs(exp_integral_e1(1.0) - 0.21938) <= 1e-5


def test_e1_small_x_log_limit():
    # E1(x) + ln x -> -gamma as x -> 0+
    x = 1e-6
    assert abs(exp_integral_e1(x) + math.log(x) + EULER_GAMMA) <= 1e-6


def test_e1_accuracy_sweep():
    mpmath.mp.dps = 30
    for x in np.concatenate([np.linspace(1e-4, 1.0, 157), np.linspace(1.0, 50.0, 157)]):
        want = float(mpmath.e1(mpmath.mpf(float(x))))
        assert abs(exp_integral_e1(float(x)) - want) <= 1e-8


def test_e1_laplace_identity():
    # int_0^inf e^{-s} E1(s) ds = ln 2  (adaptive quadrature oracle)
    val, err = integrate.quad(lambda s: math.exp(-s) * exp_integral_e1(s), 0, 50)
    assert err < 1e-9
    assert abs(val - math.log(2.0)) <= 1e-8


def test_e1_shape_properties():
    xs = np.logspace(-3, 1.5, 45)
    vals = [exp_integral_e1(x) for x in xs]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))  # strictly decreasing
    mids = [exp_integral_e1(0.5 * (a + b)) for a, b in zip(xs, xs[1:])]
    chords = [0.5 * (u + v) for u, v in zip(vals, vals[1:])]
    assert all(m <= c + 1e-15 for m, c in zip(mids, chords))  # convex


def test_e1_domain_error():
    with pytest.raises(ValueError):
        exp_integral_e1(0.0)
    with pytest.raises(ValueError):
        exp_integral_e1(-2.0)


def test_phi_anchor_and_sign():
    assert abs(phi(1.0) + 0.21938) <= 1e-5
    assert phi(700.0) < 0.0  # decays to zero from below
    assert phi(700.0) > -1e-300 - 1e-306
    with pytest.raises(ValueError):
        phi(0.0)


def test_phi_laplace_inversion_identity():
    # -g * int_0^inf e^{-s g} Phi(s) ds = ln(1 + g) within 1e-6
    for g in (0.5, 1.0, 7.0):
        val, _ = integrate.quad(lambda s: math.exp(-s * g) * phi(s), 0, 200, limit=200)
        assert abs(-g * val - math.log1p(g)) <= 1e-6


def test_phi_quadrature_consistency_ln2():
    # same identity evaluated with the capacity rule itself at gamma = 1
    nodes, weights = gauss_chebyshev(200)
    total = sum(w * math.exp(-s) * phi(s) for s, w in zip(nodes, weights))
    assert abs(-total - math.log(2.0)) <= 1e-3


def test_gauss_chebyshev_middle_node():
    nodes, weights = gauss_chebyshev(201)
    mid = (201 + 1) // 2 - 1  # q = (Q+1)/2 in 1-based indexing
    assert abs(nodes[mid] - 1.0) <= 1e-14
    assert abs(weights[mid] - math.pi ** 2 / (2 * 201)) <= 1e-14


def test_gauss_chebyshev_structure():
    nodes, weights = gauss_chebyshev(64)
    assert len(nodes) == len(weights) == 64
    assert all(s > 0 for s in nodes)
    assert all(w > 0 for w in weights)


def test_gauss_chebyshev_deterministic():
    assert gauss_chebyshev(200) == gauss_chebyshev(200)  # bit identical


def test_gauss_chebyshev_integrates_smooth_decay():
    # int_0^inf e^{-s} ds = 1, and the error shrinks as the order grows
    err = []
    for Q in (50, 100, 400):
        nodes, weights = gauss_chebyshev(Q)
        total = sum(w * math.exp(-s) for s, w in zip(nodes, weights))
        err.append(abs(total - 1.0))
    assert err[1] <= 1e-4
    assert err[2] < err[1] < err[0]

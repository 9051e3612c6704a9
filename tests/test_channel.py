import math

import numpy as np
import pytest
from scipy import stats

from prsim.channel import (
    FadingProcessConfig,
    correlated_pair,
    generate_series,
    jakes_correlation,
    snr_from_gain,
)
from prsim.rng import stream


def complex_pair(rng, rho, size):
    """correlated_pair's planes as (metric, actual) complex arrays."""
    planes = correlated_pair(rng, rho, size)
    return planes[0::2] + 1j * planes[1::2]


@pytest.fixture(scope="module")
def long_series():
    cfg = FadingProcessConfig(doppler_hz=100.0, sample_rate_hz=1000.0, seed=11)
    return generate_series(cfg, 1_000_000)


def empirical_autocorr(h, lag):
    num = np.vdot(h[:-lag], h[lag:]).real
    den = np.vdot(h, h).real
    return num / den


def test_jakes_correlation_anchors():
    assert jakes_correlation(100.0, 0.0) == 1.0
    assert abs(jakes_correlation(100.0, 0.002) - 0.6425) <= 5e-4
    assert abs(jakes_correlation(100.0, 0.003) - 0.2906) <= 5e-4


def test_config_validation():
    with pytest.raises(ValueError):
        FadingProcessConfig(doppler_hz=600.0, sample_rate_hz=1000.0)
    with pytest.raises(ValueError):
        FadingProcessConfig(doppler_hz=100.0, sample_rate_hz=1000.0, k_factor=-1.0)


def test_series_mean_power(long_series):
    assert 0.99 <= np.mean(np.abs(long_series) ** 2) <= 1.01


def test_series_autocorrelation_vs_jakes(long_series):
    assert abs(empirical_autocorr(long_series, 1) - 0.9037) <= 0.01
    for lag in range(1, 6):
        want = jakes_correlation(100.0, lag / 1000.0)
        assert abs(empirical_autocorr(long_series, lag) - want) <= 0.02


def cisoid_series(cfg, length, link=0):
    """Reference synthesis: the complex-exponential sum, one path at a time."""
    rng = stream(cfg.seed, 17, int(link))
    n = cfg.num_sinusoids
    rotation = rng.uniform(0.0, 2.0 * np.pi)
    angles = (2.0 * np.pi * (np.arange(n) + 0.5) + rotation) / n
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    omega = 2.0 * np.pi * cfg.doppler_hz / cfg.sample_rate_hz * np.cos(angles)
    t = np.arange(length, dtype=np.float64)
    diffuse = np.zeros(length, dtype=np.complex128)
    for k in range(n):
        diffuse += np.exp(1j * (omega[k] * t + phases[k]))
    diffuse *= np.sqrt(1.0 / n)
    k_rice = cfg.k_factor
    if k_rice == 0.0:
        return diffuse
    return np.sqrt(k_rice / (k_rice + 1.0)) + diffuse / np.sqrt(k_rice + 1.0)


# 20 009 samples at f_d/f_s = 0.1 reach |omega t| of about 1.2e4 rad, and
# paths past pi/2 of arrival angle have negative omega.
@pytest.mark.parametrize("length", [1, 20_009])
@pytest.mark.parametrize("doppler_hz", [0.0, 100.0])
@pytest.mark.parametrize("num_sinusoids", [1, 64])
@pytest.mark.parametrize("k_factor", [0.0, 3.0])
def test_series_equals_cisoid_sum_bit_for_bit(k_factor, num_sinusoids,
                                              doppler_hz, length):
    cfg = FadingProcessConfig(doppler_hz=doppler_hz, sample_rate_hz=1000.0,
                              k_factor=k_factor, num_sinusoids=num_sinusoids,
                              seed=9)
    for link in (0, 3):
        h = generate_series(cfg, length, link)
        want = cisoid_series(cfg, length, link)
        assert h.dtype == want.dtype
        assert np.array_equal(h, want)
        assert h.tobytes() == want.tobytes()  # signed zeros too


def test_series_reproducible():
    cfg = FadingProcessConfig(doppler_hz=100.0, sample_rate_hz=1000.0, seed=5)
    a = generate_series(cfg, 4096, link=2)
    b = generate_series(cfg, 4096, link=2)
    assert np.array_equal(a, b)
    c = generate_series(cfg, 4096, link=3)
    assert not np.array_equal(a, c)


def test_series_magnitude_squared_is_exponential(long_series):
    # subsample far past the coherence time so KS sees ~independent draws
    g = np.abs(long_series[::53]) ** 2
    res = stats.kstest(g, "expon", args=(0, 1.0))
    assert res.pvalue > 0.01


def test_rician_large_k_is_line_of_sight():
    cfg = FadingProcessConfig(
        doppler_hz=100.0, sample_rate_hz=1000.0,
        k_factor=1e6, seed=2,
    )
    h = generate_series(cfg, 10_000)
    assert np.var(np.abs(h)) < 1e-5
    assert abs(np.mean(np.abs(h)) - 1.0) < 1e-2


def test_k_factor_alone_selects_rician():
    # k_factor = 0 is Rayleigh; any other value adds the LOS component
    ray = FadingProcessConfig(doppler_hz=100.0, sample_rate_hz=1000.0, seed=4)
    ric = FadingProcessConfig(doppler_hz=100.0, sample_rate_hz=1000.0,
                              k_factor=3.0, seed=4)
    h0 = generate_series(ray, 1000)
    assert np.allclose(generate_series(ric, 1000), np.sqrt(0.75) + h0 / 2.0)


def test_rician_mean_power_preserved():
    cfg = FadingProcessConfig(
        doppler_hz=100.0, sample_rate_hz=1000.0,
        k_factor=3.0, seed=4,
    )
    h = generate_series(cfg, 400_000)
    assert abs(np.mean(np.abs(h) ** 2) - 1.0) <= 0.02


def test_correlated_pair_statistics():
    rng = stream(5)
    met, act = complex_pair(rng, 0.95, 500_000)
    assert abs(np.mean(np.abs(met) ** 2) - 1.0) < 0.01
    assert abs(np.mean(np.abs(act) ** 2) - 1.0) < 0.01
    corr = np.vdot(met, act).real / math.sqrt(np.vdot(met, met).real * np.vdot(act, act).real)
    assert abs(corr - 0.95) < 0.005


def test_snr_from_gain_arithmetic():
    assert snr_from_gain(1.0 + 0j, 1.0) == 1.0
    assert snr_from_gain(2.0 + 0j, 0.5) == 2.0
    with pytest.raises(ValueError):
        snr_from_gain(1.0, -1.0)


def test_snr_from_gain_average():
    rng = stream(6)
    h = complex_pair(rng, 1.0, 1_000_000)[0]
    snr = snr_from_gain(h, 10.0)
    assert abs(np.mean(snr) - 10.0) <= 0.1

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import prsim
from prsim.channel import (
    FadingProcessConfig,
    correlated_pair,
    generate_series,
    jakes_correlation,
)
from prsim.rng import stream

from pair_oracle import complex_pair


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


def path_draws(cfg, link):
    """(omega, phases) of each path, read from the (seed, 17, link)
    stream as generate_series reads them: rotation, then n phases."""
    rng = stream(cfg.seed, 17, int(link))
    n = cfg.num_sinusoids
    rotation = rng.uniform(0.0, 2.0 * np.pi)
    angles = (2.0 * np.pi * (np.arange(n) + 0.5) + rotation) / n
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    omega = 2.0 * np.pi * cfg.doppler_hz / cfg.sample_rate_hz * np.cos(angles)
    return omega, phases


def cisoid_series(cfg, length, link=0):
    """float64 reference: the complex-exponential sum, one path at a time."""
    omega, phases = path_draws(cfg, link)
    t = np.arange(length, dtype=np.float64)
    diffuse = np.zeros(length, dtype=np.complex128)
    for w, phi in zip(omega, phases):
        diffuse += np.exp(1j * (w * t + phi))
    diffuse *= np.sqrt(1.0 / len(omega))
    k_rice = cfg.k_factor
    if k_rice == 0.0:
        return diffuse
    return np.sqrt(k_rice / (k_rice + 1.0)) + diffuse / np.sqrt(k_rice + 1.0)


def exact_series(cfg, length, link=0):
    """(re, im) of the cisoid sum in extended precision (np.longdouble)
    from the same float64 draws: the oracle of both float64 sums."""
    omega, phases = path_draws(cfg, link)
    t = np.arange(length, dtype=np.longdouble)
    re, im = np.zeros(length, np.longdouble), np.zeros(length, np.longdouble)
    for w, phi in zip(omega, phases):
        x = np.longdouble(w) * t + np.longdouble(phi)
        re += np.cos(x)
        im += np.sin(x)
    scale = np.sqrt(np.longdouble(1) / len(omega))
    k_rice = np.longdouble(cfg.k_factor)
    if k_rice == 0:
        return re * scale, im * scale
    scale /= np.sqrt(k_rice + 1)
    return np.sqrt(k_rice / (k_rice + 1)) + re * scale, im * scale


def max_error(h, exact):
    re, im = exact
    return float(max(np.max(np.abs(h.real - re)), np.max(np.abs(h.imag - im))))


# 20 009 samples at f_d/f_s = 0.1 reach |omega t| of about 1.26e4 rad, and
# paths past pi/2 of arrival angle have negative omega.  Rounding that
# phase to float64 puts both float64 sums about 1.6e-12 off the exact
# one there (and within 1e-15 at length 1 or zero Doppler); SERIES_TOL
# is twice that.  The GEMM record may round differently from the
# per-path loop, but no worse by more than GEMM_VS_LOOP, with
# ERROR_FLOOR absorbing errors at the 1e-16 level.
SERIES_TOL = 3.2e-12
GEMM_VS_LOOP = 1.5
ERROR_FLOOR = 1e-15


@pytest.mark.parametrize("length", [1, 20_009])
@pytest.mark.parametrize("doppler_hz", [0.0, 100.0])
@pytest.mark.parametrize("num_sinusoids", [1, 64])
@pytest.mark.parametrize("k_factor", [0.0, 3.0])
def test_series_matches_extended_precision_cisoid_sum(k_factor, num_sinusoids,
                                                      doppler_hz, length):
    cfg = FadingProcessConfig(doppler_hz=doppler_hz, sample_rate_hz=1000.0,
                              k_factor=k_factor, num_sinusoids=num_sinusoids,
                              seed=9)
    for link in (0, 3):
        h = generate_series(cfg, length, link)
        assert h.dtype == np.complex128 and h.shape == (length,)
        exact = exact_series(cfg, length, link)
        err = max_error(h, exact)
        assert err <= SERIES_TOL
        loop_err = max_error(cisoid_series(cfg, length, link), exact)
        assert err <= GEMM_VS_LOOP * loop_err + ERROR_FLOOR


# With one path the GEMM's inner sum is a single product, and without
# rotation inside the record (zero Doppler, or the lone sample t = 0)
# its tail factor is exactly 1, so the record must still equal the
# per-path loop bit for bit: same phasor, scaling and Rician branch.
@pytest.mark.parametrize(
    "k_factor,num_sinusoids,doppler_hz,length",
    [(k, 1, doppler, length) for k in (0.0, 3.0)
     for doppler, length in ((0.0, 1), (0.0, 20_009), (100.0, 1))])
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


def test_longer_record_extends_shorter_one():
    cfg = FadingProcessConfig(doppler_hz=100.0, sample_rate_hz=1000.0, seed=9)
    for link in (0, 3):
        short = generate_series(cfg, 1_000, link)
        long = generate_series(cfg, 100_009, link)
        assert np.max(np.abs(long[:1_000] - short)) <= 1e-13


RECORD_BYTES = """
import hashlib
from prsim.channel import FadingProcessConfig, generate_series
cfg = FadingProcessConfig(doppler_hz=100.0, sample_rate_hz=1000.0, seed=9)
print(hashlib.sha256(generate_series(cfg, 100_009, 3).tobytes()).hexdigest())
"""


def test_record_bytes_do_not_depend_on_blas_threads():
    # perfbench pins one BLAS thread, Tier-1 runs at the default
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(prsim.__file__).parents[1]))
        shown = subprocess.run([sys.executable, "-c", RECORD_BYTES], env=env,
                               capture_output=True, text=True, check=True,
                               timeout=120)
        digests.add(shown.stdout.strip())
    assert len(digests) == 1


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
    # given Exp(1) metric SNRs the conditional actual SNRs are Exp(1)
    # too, and the two SNRs of a link correlate at rho^2
    rng = stream(5)
    metric = rng.standard_exponential(500_000)
    act = correlated_pair(rng, 0.95, metric.shape, metric)
    assert act.shape == metric.shape
    assert abs(np.mean(act) - 1.0) < 0.01
    assert abs(np.var(act) - 1.0) < 0.02
    assert abs(np.corrcoef(metric, act)[0, 1] - 0.95 ** 2) < 0.005
    # the same law as whole four-normal pairs: a two-sample KS test on
    # the actual SNR of the best of 8 metrics
    met8 = rng.standard_exponential((100_000, 8))
    best = correlated_pair(rng, 0.8, 100_000, met8.max(axis=1))
    m, a = complex_pair(rng, 0.8, (100_000, 8))
    rows = np.arange(100_000)
    whole = np.abs(a[rows, np.argmax(np.abs(m), axis=1)]) ** 2
    assert stats.ks_2samp(best, whole).pvalue > 1e-3
    # the ends: rho = 1 hands the metric back, a scalar metric broadcasts
    assert np.allclose(correlated_pair(rng, 1.0, 5, metric[:5]), metric[:5],
                       rtol=1e-15, atol=0.0)
    assert correlated_pair(rng, 0.5, (3, 2), 2.0).shape == (3, 2)
    with pytest.raises(ValueError):
        correlated_pair(rng, 1.5, 5, metric[:5])

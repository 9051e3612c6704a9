"""Correlated fading generation and the synthetic-rho pair sampler.

FadingSettings, the [fading] section of an experiment file, holds the
parameters of the link processes; FadingProcessConfig adds the seed
that generate_series draws each link from.

Time series come from a sum-of-cisoids generator (modified Jakes):
equally spaced arrival angles with a random global rotation plus i.i.d.
uniform path phases.  Averaged over the rotation the autocorrelation at
lag m is exactly J0(2 pi f_d m / f_s); a single realization approaches
it as the number of sinusoids grows.  The generator is stateless and
reproducible: the same (config, link) always yields the same series.

The sum runs as one complex matrix product by angle addition.  With
t = b BLOCK + s, path k contributes exp(j(omega_k b BLOCK + phi_k)) *
exp(j omega_k s), so the record is head @ tail for head[b, k] the first
factor and tail[k, s] the second, raveled and cut to the length: (T /
BLOCK + BLOCK) n complex exponentials instead of T n, and the path sum
runs in BLAS.  The bits are those of the BLAS complex GEMM, whose
summation order may differ between BLAS builds and CPU kernels; on
OpenBLAS 0.3.31 they do not depend on the thread count.  BLOCK is
fixed, so a longer record of the same (config, link) extends a shorter
one: their common prefix agrees to 1e-15 or better, and bit for bit
there once both span more than one block (a one-block product takes
BLAS's vector path).  Against the exact cisoid sum the record is off by
about 1e-16 |omega t|, as the per-sample float64 sum is: both round the
phase omega t, which reaches 1.2e4 rad after 20 009 samples at f_d/f_s
= 0.1, where both are within 2e-12.

Outdated CSI follows the Gaussian degradation
  h_out = rho * h + eps * sqrt(1 - rho^2),
eps ~ CN(0, 1), which leaves the marginal complex Gaussian and sets the
correlation between h and h_out to rho.  `correlated_pair` is the
synthetic-rho sampler that validates the closed forms at an exactly
prescribed correlation.  It draws the conditional law instead of whole
pairs: a metric SNR |h|^2 is Exp(1) whatever rho, and ranking reads
metrics alone, so a caller draws the metric SNRs of the links it needs
(`estimate` draws the picks' as order statistics of Exp(1), the
synthetic frame network every relay's), and then their actual SNRs,
two normals each, given their metrics.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import bessel_j0
from .rng import stream


def jakes_correlation(f_d, tau_s):
    """Channel autocorrelation J0(2 pi f_d tau) of the Jakes spectrum."""
    if f_d < 0 or tau_s < 0:
        raise ValueError("doppler and delay must be nonnegative")
    return bessel_j0(2.0 * math.pi * f_d * tau_s)


@dataclass(frozen=True)
class FadingSettings:
    """Doppler, sampling and Rician k factor (0 is Rayleigh) of the links."""

    doppler_hz: float = 100.0
    sample_rate_hz: float = 1000.0
    k_factor: float = 0.0
    num_sinusoids: int = 64

    def __post_init__(self):
        if not 0 < self.sample_rate_hz < math.inf:
            raise ValueError("sample rate must be positive")
        if not 0 <= self.doppler_hz < self.sample_rate_hz / 2.0:
            raise ValueError("need 0 <= doppler < sample_rate/2")
        if not 0 <= self.k_factor < math.inf:
            raise ValueError("rician k factor must be >= 0")
        if not 1 <= self.num_sinusoids < math.inf:
            raise ValueError("need at least one sinusoid")


@dataclass(frozen=True)
class FadingProcessConfig(FadingSettings):
    """FadingSettings plus the seed of the link draws."""

    seed: int = 0


BLOCK = 128  # samples per row of generate_series' matrix product


def generate_series(cfg, length, link=0):
    """Sampled fading series h[0..length-1] for one link.

    Each link gets an independent draw of path angles and phases from
    the (seed, link) stream, so a K-link network is built by calling
    this with link = 0..K-1.
    """
    length = int(length)
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = stream(cfg.seed, 17, int(link))
    n = cfg.num_sinusoids
    rotation = rng.uniform(0.0, 2.0 * np.pi)
    angles = (2.0 * np.pi * (np.arange(n) + 0.5) + rotation) / n
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    omega = 2.0 * np.pi * cfg.doppler_hz / cfg.sample_rate_hz * np.cos(angles)

    # t = b BLOCK + s: row b of head is the record at t = b BLOCK,
    # column s of tail the rotation of each path over s samples
    blocks = -(-length // BLOCK)
    head = np.exp(1j * (np.outer(np.arange(blocks) * float(BLOCK), omega)
                        + phases))
    tail = np.exp(1j * np.outer(omega, np.arange(BLOCK, dtype=np.float64)))
    diffuse = (head @ tail).ravel()[:length]
    diffuse *= np.sqrt(1.0 / n)

    k_rice = cfg.k_factor
    if k_rice == 0.0:
        return diffuse
    los = np.sqrt(k_rice / (k_rice + 1.0))  # fixed LOS phase 0
    return los + diffuse / np.sqrt(k_rice + 1.0)


def correlated_pair(rng, rho, size, metric):
    """Actual SNRs of links, drawn given their metric SNRs at rho.

    The metric and actual gains of a link are a pair at correlation
    rho, both CN(0, 1) (see the module docstring); metric holds metric
    SNRs |h_m|^2, broadcast to shape size, and the result is the actual
    SNRs |h|^2 of the same links, shape size.  Given the metric, the
    actual gain is rho |h_m| + sqrt(1 - rho^2) CN(0, 1) in
    distribution, by rotation invariance, so a link costs two standard
    normals and no draw of the metric's phase.  The stream is read as
    two whole planes of shape size: the real parts of the innovation,
    then its imaginary parts.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [0, 1]")
    z = rng.standard_normal((2, *np.atleast_1d(size)))
    z *= math.sqrt(0.5 * (1.0 - rho * rho))
    z[0] += rho * np.sqrt(metric)
    z *= z
    return z[0] + z[1]

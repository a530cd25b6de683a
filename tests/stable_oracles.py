"""Oracles of the stable limit law for gates c08 and c10; no command runs them.

:func:`estimate_alpha` fits the tail index as the log-log slope of
``-log|ecf|``, always on the window of :func:`auto_window`, which bisects
``log u`` over the whole float range: so the window of a small ``alpha``,
near ``u = 1e-26`` at ``alpha = 0.05``, is found.  :func:`stable_oracle`
draws exact symmetric stable samples by the trigonometric
(Chambers-Mallows-Stuck) transform, sharing no code with the series, and
:func:`oracle_family_distance` compares a sample set with them by KS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lepage.parallel import replicate_mean_se
from lepage.random_inputs import ConfigurationError
from lepage.rng import RngStream
from lepage.stable_checks import _values, ks_statistic

_TAG_ORACLE = 303  # c10 is pinned to the draws of this tag: another tag moves its statistic
_FLOAT = np.finfo(np.float64)
# |ecf| band of the regression window, its log-spaced points, and the blocks of its SE
_ECF_BAND = (0.05, 0.95)
_GRID_SIZE = 32
_SE_BLOCKS = 8
_BASELINE_PAIRS = 9  # the oracle pairs of the family-distance baseline


class WindowError(ValueError):
    """Raised when the characteristic-function window is unusable."""


def _abs_ecf(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.abs(np.exp(1j * u[:, None] * x[None, :]).mean(axis=1))


def auto_window(samples) -> tuple[float, float]:
    """The u-range on which ``|ecf|`` runs from 0.95 down to 0.05, bisected in ``log u``.

    log(-log|ecf|) is numerically unstable outside roughly (0.05, 0.95), so the
    regression window is confined there.  Each edge is one bisection whose
    bracket is the float range: from the smallest normal float to the largest
    ``u`` at which every ``u * x`` stays finite, so the window of any scale,
    however small ``alpha`` makes it, lies inside the bracket.
    """
    x = _values(samples)
    scale = float(np.max(np.abs(x)))
    if not 0.0 < scale < math.inf:
        raise WindowError(f"samples of largest magnitude {scale} have no ecf window; they look degenerate")
    bottom = math.log(_FLOAT.tiny)
    top = math.log(_FLOAT.max) - max(math.log(scale), 0.0) - 1.0  # u * x stays below max / e

    def modulus(log_u: float) -> float:
        return float(_abs_ecf(x, np.array([math.exp(log_u)]))[0])

    lo, hi = _ECF_BAND
    if not modulus(top) < lo:
        raise WindowError("could not push |ecf| below the lower band; samples look degenerate")
    if not modulus(bottom) > hi:
        raise WindowError("could not push |ecf| above the upper band; samples look degenerate")

    def crossing(target: float) -> tuple[float, float]:
        a, b = bottom, top  # modulus(a) > target >= modulus(b)
        for _ in range(64):  # the bracket spans under 1420 in log u: 64 halvings pin u to a float's precision
            mid = 0.5 * (a + b)
            a, b = (mid, b) if modulus(mid) > target else (a, mid)
        return a, b

    lo_edge, hi_edge = math.exp(crossing(hi)[1]), math.exp(crossing(lo)[0])
    if not lo_edge < hi_edge:
        raise WindowError(f"degenerate ecf window [{lo_edge}, {hi_edge}]")
    return lo_edge, hi_edge


@dataclass(frozen=True)
class AlphaEstimate:
    alpha: float
    se: float
    u_min: float
    u_max: float
    n_samples: int


def estimate_alpha(samples) -> AlphaEstimate:
    """Tail index via the log-log slope of ``-log|ecf|``.

    For a strictly stable law ``-log|cf(u)| = (scale * u)^alpha`` whatever its
    skewness, which moves only the phase of ``cf`` (Samorodnitsky & Taqqu
    1994, Thm 1.4.5), so ``log(-log|ecf|)`` is affine in ``log u`` with slope
    alpha for skewed samples too.  The slope
    is fit by least squares on 32 log-spaced points inside the window of
    :func:`auto_window`; the standard error is that of the slopes refit on
    8 disjoint sample blocks, by :func:`replicate_mean_se`.
    """
    x = _values(samples)
    u_min, u_max = auto_window(x)
    u = np.exp(np.linspace(math.log(u_min), math.log(u_max), _GRID_SIZE))
    mod = _abs_ecf(x, u)
    if np.any(mod == 0.0) or np.any(mod >= 1.0):
        raise WindowError("|ecf| hit 0 or 1 inside the window; samples look degenerate")
    slope = _loglog_slope(u, mod)
    block = x.size // _SE_BLOCKS
    se = math.inf
    if block >= 2:
        slopes = [_loglog_slope(u, np.clip(_abs_ecf(x[b * block: (b + 1) * block], u), 1e-300, 1.0 - 1e-12))
                  for b in range(_SE_BLOCKS)]
        se = float(replicate_mean_se([slopes])[1][0])
    return AlphaEstimate(slope, se, u_min, u_max, x.size)


def _loglog_slope(u: np.ndarray, mod: np.ndarray) -> float:
    xs = np.log(u)
    ys = np.log(-np.log(mod))
    xbar = xs.mean()
    return float(np.dot(xs - xbar, ys - ys.mean()) / np.dot(xs - xbar, xs - xbar))


def stable_oracle(alpha: float, scale: float, stream: RngStream, size: int = 1) -> np.ndarray:
    """Exact symmetric alpha-stable draws via the trigonometric transform.

    Independent of the series construction: one uniform angle on
    (-pi/2, pi/2) and one unit exponential per draw.  ``alpha = 2`` reduces
    to Normal(0, 2 scale^2), ``alpha = 1`` to Cauchy(scale).
    """
    if not 0.0 < alpha <= 2.0:
        raise ConfigurationError(f"oracle is defined for alpha in (0, 2], got {alpha}")
    if scale <= 0.0:
        raise ConfigurationError(f"scale must be positive, got {scale}")
    gen = stream.generator()
    u = gen.random(size)
    w = gen.standard_exponential(size)
    while True:
        bad = (u == 0.0) | (w == 0.0)
        if not bad.any():
            break
        k = int(bad.sum())
        u[bad] = gen.random(k)
        w[bad] = gen.standard_exponential(k)
    theta = math.pi * (u - 0.5)
    if alpha == 1.0:
        return scale * np.tan(theta)
    x = (
        np.sin(alpha * theta)
        / np.cos(theta) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha)
    )
    return scale * x


@dataclass(frozen=True)
class FamilyDistance:
    ks: float
    baseline_median: float
    scale: float
    n: int

    @property
    def ratio(self) -> float:
        return self.ks / self.baseline_median


def oracle_family_distance(samples, alpha: float, stream: RngStream) -> FamilyDistance:
    """KS distance to the stable family, scale calibrated by quartile matching.

    The unknown scale of the limit marginal is never asserted; it is
    estimated by matching interquartile ranges against a unit-scale oracle
    draw, then the sample set is compared to an oracle set of that scale.
    The baseline is the median KS distance between independent oracle
    pairs of the same size, i.e. the pure sampling-noise floor.
    """
    x = _values(samples)
    nx = x.size
    ref = stable_oracle(alpha, 1.0, stream.substream(_TAG_ORACLE, 0), nx)
    iqr_ref = float(np.subtract(*np.percentile(ref, [75, 25])))
    iqr_x = float(np.subtract(*np.percentile(x, [75, 25])))
    if iqr_ref <= 0 or iqr_x <= 0:
        raise ConfigurationError("interquartile calibration failed (degenerate samples)")
    scale = iqr_x / iqr_ref
    oracle = stable_oracle(alpha, scale, stream.substream(_TAG_ORACLE, 1), nx)
    d_obs = ks_statistic(x, oracle)
    baseline = []
    for b in range(_BASELINE_PAIRS):
        a = stable_oracle(alpha, scale, stream.substream(_TAG_ORACLE, 2 + 2 * b), nx)
        c = stable_oracle(alpha, scale, stream.substream(_TAG_ORACLE, 3 + 2 * b), nx)
        baseline.append(ks_statistic(a, c))
    return FamilyDistance(d_obs, float(np.median(baseline)), scale, nx)

"""Distributional checks on the simulated limit.

Marginal samples of the series are probed for heavy-tail index (log-log
regression on the empirical characteristic function), for the defining
sum-stability property (two independent copies, rescaled by ``2^(1/alpha)``,
must reproduce the law), and for family membership against an exact
symmetric-stable oracle sampler that shares no code with the series
construction.  Path samples are probed for their directional distribution
(spectral masses of named sphere events) and for the regular-variation
tail limit with its normalizing quantiles ``b_n``.

``b_n`` deserves a note: the defining display reads like a lower quantile
(``P(norm < r) <= 1/n``), which would not normalize the upper tail, so this
module implements the upper-tail convention
``inf { r : P(norm > r) <= 1/n }`` and reports which convention is in use.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .parallel import map_replicates, replicate_mean_se
from .random_inputs import ConfigurationError, EpsilonSpec, YGeneratorSpec, _EpsilonSource, term_value_extremes
from .rng import RngStream
from .series import PathStatsSample

__all__ = [
    "WindowError",
    "DegenerateGeneratorError",
    "auto_window",
    "AlphaEstimate",
    "estimate_alpha",
    "stable_oracle",
    "ks_statistic",
    "ks_threshold",
    "StabilityResult",
    "sum_stability_test",
    "SphereEvent",
    "full_sphere",
    "nonnegative_path",
    "norm_equals",
    "SpectralEstimate",
    "spectral_estimate",
    "tail_quantile_bn",
    "RegVarRow",
    "RegVarTable",
    "regular_variation_table",
    "FamilyDistance",
    "oracle_family_distance",
    "BN_CONVENTION_NOTE",
]

_TAG_SPECTRAL = 301
_TAG_STABILITY = 302
_TAG_ORACLE = 303

BN_CONVENTION_NOTE = (
    "b_n computed as the upper-tail quantile inf{r : P(norm > r) <= 1/n}; "
    "the lower-quantile reading P(norm < r) <= 1/n would leave the tail limit vacuous"
)


_FLOAT = np.finfo(np.float64)
# |ecf| band of the regression window, its log-spaced points, and the blocks of its SE
_ECF_BAND = (0.05, 0.95)
_GRID_SIZE = 32
_SE_BLOCKS = 8
# the level of the sum-stability KS test, and the oracle pairs of the family-distance baseline
_KS_LEVEL = 0.01
_BASELINE_PAIRS = 9


class WindowError(ValueError):
    """Raised when the characteristic-function window is unusable."""


class DegenerateGeneratorError(ValueError):
    """Raised when the spectral normalizer estimates to zero."""


def _values(samples) -> np.ndarray:
    v = np.asarray(samples, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise ConfigurationError("sample set must be nonempty")
    return v


# ---------------------------------------------------------------------------
# empirical characteristic function and tail index
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# exact symmetric stable oracle
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov machinery
# ---------------------------------------------------------------------------


def ks_statistic(x, y) -> float:
    """Two-sample KS distance, ties handled exactly."""
    xs = np.sort(_values(x))
    ys = np.sort(_values(y))
    grid = np.concatenate([xs, ys])
    f1 = np.searchsorted(xs, grid, side="right") / xs.size
    f2 = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.max(np.abs(f1 - f2)))


def ks_threshold(n1: int, n2: int) -> float:
    """Asymptotic two-sample KS critical value at the 1% level."""
    c = math.sqrt(-math.log(_KS_LEVEL / 2.0) / 2.0)
    return c * math.sqrt((n1 + n2) / (n1 * n2))


@dataclass(frozen=True)
class StabilityResult:
    ks: float
    threshold: float
    passed: bool
    alpha: float
    n_sums: int
    n_heldout: int

    def row(self) -> dict:
        return {
            "alpha": self.alpha,
            "ks": self.ks,
            "threshold_1pct": self.threshold,
            "verdict": "satisfied" if self.passed else "violated",
            "n_sums": self.n_sums,
            "n_heldout": self.n_heldout,
        }


def sum_stability_test(samples, alpha: float, stream: RngStream) -> StabilityResult:
    """Defining-property check: ``(X + X') / 2^(1/alpha)`` must have the law of X.

    The samples are shuffled and split in three: two thirds are paired and
    rescaled into sums, the held-out third is the comparison set; the
    two-sample KS distance is tested against the asymptotic 1% threshold.
    """
    x = _values(samples)
    if x.size < 300:
        warnings.warn(f"only {x.size} samples; the stability test has little power", stacklevel=2)
    m = x.size // 3
    if m < 1:
        raise ConfigurationError(f"need at least 3 samples, got {x.size}")
    perm = stream.substream(_TAG_STABILITY).generator().permutation(x.size)
    shuffled = x[perm]
    sums = (shuffled[:m] + shuffled[m: 2 * m]) / 2.0 ** (1.0 / alpha)
    heldout = shuffled[2 * m:]
    d = ks_statistic(sums, heldout)
    thr = ks_threshold(m, heldout.size)
    return StabilityResult(d, thr, d < thr, alpha, m, heldout.size)


# ---------------------------------------------------------------------------
# sphere events and the spectral measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereEvent:
    """Named measurable event on the unit sphere of the path space.

    Each kind evaluates vectorized on per-replicate path reductions:

    * ``full_sphere`` is always true;
    * ``nonnegative`` asks the largest-magnitude segment value of the
      (sign-adjusted) path to be nonnegative, which coincides with
      pointwise nonnegativity for single-sign paths and keeps the event
      symmetry-exact for signed paths;
    * ``norm_equals`` compares the pre-normalization uniform norm to a
      constant (exact float comparison, intended for atom-valued norms).
    """

    name: str
    kind: str
    value: float = math.nan

    def evaluate(self, sign: np.ndarray, sup: np.ndarray, vmax: np.ndarray, vmin: np.ndarray) -> np.ndarray:
        if self.kind == "full_sphere":
            return np.ones(sup.shape, dtype=bool)
        if self.kind == "nonnegative":
            smax = np.where(sign >= 0, vmax, -vmin)
            smin = np.where(sign >= 0, vmin, -vmax)
            return smax + smin >= 0.0
        if self.kind == "norm_equals":
            return sup == self.value
        raise ConfigurationError(f"unknown event kind {self.kind!r}")


def full_sphere() -> SphereEvent:
    return SphereEvent("full_sphere", kind="full_sphere")


def nonnegative_path() -> SphereEvent:
    return SphereEvent("nonnegative_path", kind="nonnegative")


def norm_equals(value: float, name: str | None = None) -> SphereEvent:
    return SphereEvent(name or f"norm_equals_{value:g}", kind="norm_equals", value=float(value))


@dataclass(frozen=True)
class SpectralEstimate:
    """Ratio-estimated masses of sphere events, with delta-method errors.

    Every mean and SE here comes from :func:`replicate_mean_se` over the
    replicates in chunk order.
    """

    event_masses: dict  # name -> (mass, se)
    normalizer: tuple[float, float]  # mean of |eps|^a * norm^a, with SE
    replicates: int
    alpha: float
    meta: dict = field(default_factory=dict)

    def mass(self, name: str) -> float:
        return self.event_masses[name][0]

    def rows(self) -> list[dict]:
        out = [{"event": name, "mass": m, "se": s} for name, (m, s) in self.event_masses.items()]
        out.append({"event": "__normalizer__", "mass": self.normalizer[0], "se": self.normalizer[1]})
        return out


def spectral_estimate(
    eps_spec: EpsilonSpec,
    y_spec: YGeneratorSpec,
    alpha: float,
    events,
    replicates: int,
    stream: RngStream,
    threads=1,
) -> SpectralEstimate:
    """Monte Carlo spectral masses ``sigma(A)``.

    Each replicate draws one multiplier and one path and contributes the
    weight ``w = |eps|^alpha * norm^alpha`` to the denominator and, when the
    sign-adjusted normalized path lies in the event, to the numerator.
    Replicates with a zero-norm path carry zero weight on both sides.  The
    rows ``[w, w 1{A_1}, ...]`` are reduced by one :func:`replicate_mean_se`
    call, so the mass of ``A`` is a ratio of row means and the full-sphere
    mass is exactly 1.  Its delta-method SE is the SE of the residual
    ``w 1{A} - mass w`` over the mean weight.  Weights whose mean or SE
    overflows raise :class:`ConfigurationError`.
    """
    if replicates < 1000:
        raise ConfigurationError(f"need at least 1000 replicates, got {replicates}")
    events = list(events)
    names = [ev.name for ev in events]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"event names must be distinct, got {names}")
    def one_chunk(sub, m):
        eps = eps_spec.sample(_EpsilonSource(sub.substream(0).generator()), m)
        blk = y_spec.block_sampler(sub.substream(1)).take(m)
        vmax, vmin = term_value_extremes(blk)
        sup = np.maximum(np.abs(vmax), np.abs(vmin))
        sign = np.sign(eps)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, with its cause
            w = np.abs(eps) ** alpha * sup**alpha
            return np.stack([w] + [w * ev.evaluate(sign, sup, vmax, vmin) for ev in events])

    rows = np.concatenate(map_replicates(one_chunk, stream.substream(_TAG_SPECTRAL), replicates, 1, threads), 1)
    mean, se = replicate_mean_se(rows)
    d_mean, d_se = float(mean[0]), float(se[0])
    if not (math.isfinite(d_mean) and math.isfinite(d_se)):
        raise ConfigurationError(f"alpha {alpha}: event '__normalizer__' sums |eps|^alpha * norm^alpha to "
                                 f"{d_mean * replicates}, their mean has se {d_se}: the weights overflow")
    if d_mean == 0.0:
        raise DegenerateGeneratorError("all replicates have zero weight; the generator is degenerate")
    mass = mean[1:] / d_mean
    _, resid_se = replicate_mean_se(rows[1:] - mass[:, None] * rows[0])
    masses = {ev.name: (m, s / d_mean) for ev, m, s in zip(events, mass.tolist(), resid_se.tolist())}
    return SpectralEstimate(masses, (d_mean, d_se), replicates, alpha,
                            {"epsilon": eps_spec.echo(), "y": y_spec.echo()})


# ---------------------------------------------------------------------------
# tail quantiles and the regular-variation table
# ---------------------------------------------------------------------------


def tail_quantile_bn(norm_samples, n: int) -> float:
    """Upper-tail normalizing quantile ``inf { r : P(norm > r) <= 1/n }``.

    Estimated from order statistics: with N samples and k = floor(N/n),
    the result is the (N-k)-th smallest sample.  At the ``n = 1`` boundary
    the tail constraint is vacuous and the convention returns the largest
    sample.  See ``BN_CONVENTION_NOTE`` for the convention choice.  A negative
    norm raises :class:`ConfigurationError`.
    """
    x = _values(norm_samples)
    if np.any(x < 0):
        raise ConfigurationError("norm samples must be nonnegative")
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if x.size < n:
        raise ConfigurationError(f"quantile resolution: need at least n = {n} samples, got {x.size}")
    if x.size < 10 * n:
        warnings.warn(f"only {x.size} samples for n = {n}; b_n is noisy below 10n", stacklevel=2)
    return float(np.sort(x)[x.size - 1 - x.size // n])  # n = 1 reads index -1, the largest sample


@dataclass(frozen=True)
class RegVarRow:
    r: float
    event: str
    exceed_count: int
    cond_prob: float | None
    se: float | None
    prediction: float | None
    scaled_exceedance: float
    predicted_scaled_exceedance: float

    def row(self) -> dict:
        return {
            "r": self.r,
            "event": self.event,
            "exceed_count": self.exceed_count,
            "cond_prob": "no data" if self.cond_prob is None else self.cond_prob,
            "se": "" if self.se is None else self.se,
            "prediction": "" if self.prediction is None else self.prediction,
            "scaled_exceedance": self.scaled_exceedance,
            "predicted_scaled_exceedance": self.predicted_scaled_exceedance,
        }


@dataclass(frozen=True)
class RegVarTable:
    b_n: float
    n: int
    alpha: float
    n_paths: int
    rows: tuple[RegVarRow, ...]
    convention_note: str = BN_CONVENTION_NOTE

    def exceed_counts(self) -> dict:
        return {row.r: row.exceed_count for row in self.rows if row.event == "full_sphere"}


def regular_variation_table(
    stats: PathStatsSample,
    events,
    r_grid,
    n: int,
    alpha: float,
    sigma: SpectralEstimate | None = None,
) -> RegVarTable:
    """Empirical conditional sphere probabilities above scaled tail thresholds.

    ``stats`` holds the sup norm and value extremes of each sampled path
    (:func:`~lepage.series.sample_path_stats`).  Per (r, event): the conditional
    probability ``P(X/|X| in A | |X| > r b_n)`` next to the spectral
    prediction ``sigma(A)``, plus the scaled exceedance probability
    ``n P(|X| > r b_n)`` next to its limit ``r^-alpha``.  The probabilities of
    all events at one r and their SEs are one :func:`replicate_mean_se` call
    over the exceedances.  Entries with no exceedances are marked "no data"
    rather than failing, and one exceedance has no SE.
    """
    events = list(events)
    sup = stats.sup
    n_paths = sup.size
    b_n = tail_quantile_bn(sup, n)
    sign = np.ones(n_paths)
    flags = np.array([ev.evaluate(sign, sup, stats.vmax, stats.vmin) for ev in events],
                     np.float64).reshape(len(events), n_paths)
    rows = []
    for r in (float(r) for r in r_grid):
        exceed = sup > r * b_n
        count = int(exceed.sum())
        cond = se = [None] * len(events)
        if count >= 2:
            cond, se = (v.tolist() for v in replicate_mean_se(flags[:, exceed]))
        elif count:  # one draw has no SE
            cond = flags[:, exceed][:, 0].tolist()
        rows += [RegVarRow(r, ev.name, count, p, s, None if sigma is None else sigma.mass(ev.name),
                           n * count / n_paths, r**-alpha) for ev, p, s in zip(events, cond, se)]
    return RegVarTable(b_n, n, alpha, n_paths, tuple(rows))


# ---------------------------------------------------------------------------
# family membership against the oracle
# ---------------------------------------------------------------------------


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

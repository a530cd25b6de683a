"""Distributional checks on the simulated limit.

Marginal samples of the series are probed for the defining sum-stability
property (two independent copies, rescaled by ``2^(1/alpha)``, must
reproduce the law).  Path samples are probed for their directional
distribution (spectral masses of named sphere events) and for the
regular-variation tail limit with its normalizing quantiles ``b_n``.  The
tail-index fit and the exact stable sampler that gates c08 and c10 read
are test oracles and live in ``tests/stable_oracles.py``.

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
    "DegenerateGeneratorError",
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
    "BN_CONVENTION_NOTE",
]

_TAG_SPECTRAL = 301
_TAG_STABILITY = 302

BN_CONVENTION_NOTE = (
    "b_n computed as the upper-tail quantile inf{r : P(norm > r) <= 1/n}; "
    "the lower-quantile reading P(norm < r) <= 1/n would leave the tail limit vacuous"
)


# the level of the sum-stability KS test
_KS_LEVEL = 0.01


class DegenerateGeneratorError(ValueError):
    """Raised when the spectral normalizer estimates to zero."""


def _values(samples) -> np.ndarray:
    v = np.asarray(samples, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise ConfigurationError("sample set must be nonempty")
    return v


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

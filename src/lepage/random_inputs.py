"""Seedable generators for the three series ingredients.

The weighted-jump series needs three independent i.i.d. sequences: Poisson
arrival times ``Gamma_1 < Gamma_2 < ...`` (cumulative unit exponentials),
real multipliers ``eps_i``, and cadlag step paths ``Y_i``.  Everything here
is a pure function of an :class:`~lepage.rng.RngStream`, so replicate
``r`` sees the same draws whether it runs serially or on a thread pool.

Path generators hand out their draws in *blocks of terms*
(:class:`TermEvents`): a flat list of jump events tagged with the index of
the term they belong to, grouped by term but not time-ordered inside a
term, or flat ``(terms, width)`` rows when each term has ``width`` events
(see :class:`TermEvents`).  Each ingredient consumes its own substream in term
order, which makes a realization extendable: asking a sampler for more
terms never changes the terms already drawn.  Partial sums observed at
several truncation depths therefore share one realization bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .paths import PathValidationError, StepPath
from .rng import RngStream

__all__ = [
    "ConfigurationError",
    "EpsilonSpec",
    "CdfGrid",
    "JumpHeightDist",
    "YGeneratorSpec",
    "unit_jump",
    "weighted_jumps",
    "poisson_counts",
    "user_paths",
    "TermEvents",
    "interval_increments",
    "values_at",
    "term_sup_norms",
    "term_value_extremes",
]

# substream roles inside one replicate
_GAMMA_ROLE = 0
_EPSILON_ROLE = 1
_Y_ROLE = 2

_TILE_EVENTS = 1 << 14  # chunks are drawn and reduced, and term extremes padded, in tiles of this many events


class ConfigurationError(ValueError):
    """Raised when a distribution or generator spec is invalid."""


# ---------------------------------------------------------------------------
# Poisson arrival times
# ---------------------------------------------------------------------------


def _buffer(scratch: dict | None, name: str, shape) -> np.ndarray | None:
    """A float64 ``shape`` view of ``scratch[name]``, grown when too small; None without scratch."""
    if scratch is None:
        return None
    size = math.prod(shape)
    if name not in scratch or scratch[name].size < size:
        scratch[name] = np.empty(size)
    return scratch[name][:size].reshape(shape)


def _nonzero_draws(draw, n: int, out: np.ndarray | None) -> np.ndarray:
    """``draw(n)``, or ``draw(out=out)`` into ``out``, with each exact 0.0 redrawn."""
    out = draw(n) if out is None else draw(out=out)
    while out.min(initial=1.0) == 0.0:  # draws are >= 0, so a 0.0 is their minimum
        bad = out == 0.0
        out[bad] = draw(int(bad.sum()))
    return out


def _positive_exponentials(gen: np.random.Generator, n: int, out: np.ndarray | None = None) -> np.ndarray:
    return _nonzero_draws(gen.standard_exponential, n, out)  # a 0.0 gap would tie two arrivals


# ---------------------------------------------------------------------------
# multiplier distributions
# ---------------------------------------------------------------------------


def _atom_table(values: np.ndarray, probs, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``values`` (one atom per row) and ``probs`` as read-only arrays, once they are a law:
    as many finite atoms as probabilities, each probability in [0, 1], summing to 1 within 1e-12.

    A nan or infinite probability fails these tests, so it is refused too.
    """
    p = np.asarray(probs, dtype=np.float64).reshape(-1)
    if p.size == 0 or len(values) != p.size:
        raise ConfigurationError(f"{what} atoms and probabilities must be nonempty and equal length")
    if not np.all(np.isfinite(values)):
        raise ConfigurationError(f"{what} atoms must be finite, got {values.tolist()}")
    if not (np.all((p >= 0.0) & (p <= 1.0)) and abs(p.sum() - 1.0) <= 1e-12):
        raise ConfigurationError(f"{what} probabilities must be finite, lie in [0, 1] and sum to 1, "
                                 f"got {p.tolist()}")
    values.setflags(write=False)
    p.setflags(write=False)
    return values, p


def _atom_draws(values: np.ndarray, probs: np.ndarray, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The atom (row of ``values``) of each uniform ``u`` by the inverse cdf, into ``out`` when given."""
    idx = np.searchsorted(np.cumsum(probs), u, side="right")
    return np.take(values, idx, axis=0, out=out, mode="clip")  # clip: u past the last cum


@dataclass(frozen=True)
class EpsilonSpec:
    """Distribution of the i.i.d. real multipliers.

    Families
    --------
    rademacher
        Uniform on {-1, +1}.
    uniform_symmetric
        Uniform on [-a, a].
    two_point
        Atoms ``x_neg`` (probability p) and ``x_pos`` (probability 1-p);
        the mean is required to be zero at construction.
    table
        Finite atom list with arbitrary probabilities (may have nonzero
        mean, which restricts it to exponents below 1).

    All moment functionals used by the analytic diagnostics
    (absolute moments, truncated moments, tail probabilities) are computed
    in closed form, vectorized over the truncation cutoff.
    """

    family: str
    a: float = 1.0
    atom_values: np.ndarray | None = None
    atom_probs: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.family == "uniform_symmetric":
            if not (self.a > 0.0 and np.isfinite(self.a)):
                raise ConfigurationError(f"uniform_symmetric needs a > 0, got {self.a}")
        elif self.family in ("rademacher", "two_point", "table"):
            if self.atom_values is None or self.atom_probs is None:
                raise ConfigurationError(
                    f"{self.family} spec needs atoms; use the EpsilonSpec.{self.family}() constructor"
                )
            v, p = _atom_table(np.asarray(self.atom_values, dtype=np.float64).reshape(-1), self.atom_probs,
                               "multiplier")
            object.__setattr__(self, "atom_values", v)
            object.__setattr__(self, "atom_probs", p)
        else:
            raise ConfigurationError(f"unknown multiplier family {self.family!r}")

    # -- constructors -------------------------------------------------

    @classmethod
    def rademacher(cls) -> "EpsilonSpec":
        return cls("rademacher", atom_values=np.array([-1.0, 1.0]), atom_probs=np.array([0.5, 0.5]))

    @classmethod
    def uniform_symmetric(cls, a: float) -> "EpsilonSpec":
        return cls("uniform_symmetric", a=float(a))

    @classmethod
    def two_point(cls, p: float, x_neg: float, x_pos: float) -> "EpsilonSpec":
        if not 0.0 < p < 1.0:
            raise ConfigurationError(f"two_point needs p in (0,1), got {p}")
        mean = p * x_neg + (1.0 - p) * x_pos
        scale = max(abs(x_neg), abs(x_pos), 1.0)
        if abs(mean) > 1e-12 * scale:
            raise ConfigurationError(
                f"two_point multipliers must have mean zero, got {mean!r} from "
                f"({p} * {x_neg} + {1.0 - p} * {x_pos})"
            )
        return cls("two_point", atom_values=np.array([x_neg, x_pos]), atom_probs=np.array([p, 1.0 - p]))

    @classmethod
    def table(cls, values, probabilities) -> "EpsilonSpec":
        return cls("table", atom_values=np.asarray(values, float), atom_probs=np.asarray(probabilities, float))

    # -- analytic functionals ------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return self.family != "uniform_symmetric"

    def mean(self) -> float:
        if self.is_discrete:
            return float(np.dot(self.atom_values, self.atom_probs))
        return 0.0

    @property
    def is_mean_zero(self) -> bool:
        scale = max(self.max_abs(), 1.0)
        return abs(self.mean()) <= 1e-12 * scale

    def max_abs(self) -> float:
        if self.is_discrete:
            return float(np.max(np.abs(self.atom_values)))
        return self.a

    def abs_moment(self, m: float) -> float:
        """E |eps|^m."""
        if self.is_discrete:
            return float(np.dot(np.abs(self.atom_values) ** m, self.atom_probs))
        return self.a**m / (m + 1.0)

    def truncated_abs_moment(self, m: float, index, alpha: float) -> np.ndarray:
        """``E |eps|^m 1{|eps|^alpha <= i}``, vectorized over the index.

        Membership is tested on the ``|eps|^alpha`` side, bitwise matching
        the truncation applied to sampled multipliers (the float power of
        the other side can misclassify exact boundary atoms).
        """
        i = np.asarray(index, dtype=np.float64)
        if self.is_discrete:
            av = np.abs(self.atom_values)
            kept = (av**alpha)[None, ...] <= i[..., None]
            return np.sum((av**m * self.atom_probs) * kept, axis=-1)
        ceff = np.minimum(np.maximum(i, 0.0) ** (1.0 / alpha), self.a)
        return ceff ** (m + 1.0) / ((m + 1.0) * self.a)

    def truncated_mean(self, index, alpha: float) -> np.ndarray:
        """``E eps 1{|eps|^alpha <= i}``, vectorized over the index."""
        i = np.asarray(index, dtype=np.float64)
        if self.is_discrete:
            kept = (np.abs(self.atom_values) ** alpha)[None, ...] <= i[..., None]
            return np.sum((self.atom_values * self.atom_probs) * kept, axis=-1)
        return np.zeros_like(i)

    def tail_prob(self, index, alpha: float) -> np.ndarray:
        """``P(|eps|^alpha > i)``, vectorized over the index."""
        i = np.asarray(index, dtype=np.float64)
        if self.is_discrete:
            out = (np.abs(self.atom_values) ** alpha)[None, ...] > i[..., None]
            return np.sum(self.atom_probs * out, axis=-1)
        return np.clip(1.0 - np.maximum(i, 0.0) ** (1.0 / alpha) / self.a, 0.0, 1.0)

    def require_mean_zero(self, alpha: float) -> None:
        if alpha >= 1.0 and not self.is_mean_zero:
            raise ConfigurationError(
                f"multiplier family {self.family!r} has mean {self.mean()!r}; "
                f"alpha = {alpha} >= 1 requires mean-zero multipliers"
            )

    # -- sampling -------------------------------------------------------

    def sample(self, gen: np.random.Generator, size: int, out: np.ndarray | None = None) -> np.ndarray:
        """``size`` multipliers, drawn into ``out`` when given (same draws, same bytes)."""
        v = gen.random(size) if out is None else gen.random(out=out)
        if self.family == "rademacher":
            v -= 0.5  # exact, and u == 0.5 gives +0.0, so sign +1
            return np.copysign(1.0, v, out=v)
        if self.family == "uniform_symmetric":
            v *= 2.0
            v -= 1.0
            v *= self.a
            return v
        return _atom_draws(self.atom_values, self.atom_probs, v, out=v)

    def echo(self) -> dict:
        out = {"family": self.family}
        if self.family == "uniform_symmetric":
            out["a"] = self.a
        elif self.family != "rademacher":
            out["values"] = self.atom_values.tolist()
            out["probabilities"] = self.atom_probs.tolist()
        return out


# ---------------------------------------------------------------------------
# path generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TermEvents:
    """Flat jump-event view of a block of i.i.d. paths.

    ``term_index`` counts the block's terms from 0 and is nondecreasing;
    within one term, events keep the order they were drawn in, which need
    not be time order.  ``heights`` are the jump sizes (value deltas),
    ``initials`` the t=0 value of each term's path, either possibly a
    read-only broadcast.  ``width`` is set when every term has that many
    events (unit jumps 1, weighted jumps p): masked sums and
    :func:`_row_extremes` then reshape ``(n_terms, width)`` rows, and no
    ``index`` is stored.
    """

    n_terms: int
    dimension: int
    index: np.ndarray | None  # (k,) int64, nondecreasing; None when width is set
    times: np.ndarray  # (k,) float64 in (0, 1]
    heights: np.ndarray  # (k, d)
    initials: np.ndarray  # (n_terms, d)
    width: int | None = None  # events per term, when fixed

    @property
    def term_index(self) -> np.ndarray:
        """The term of each event; built on each read for a fixed-width block."""
        return self.index if self.width is None else np.repeat(np.arange(self.n_terms), self.width)

    def offset(self, n: int) -> int:
        """Number of events of the first ``n`` terms (the first event of term ``n``)."""
        return int(np.searchsorted(self.index, n)) if self.width is None else n * self.width

    def terms(self, a: int, b: int) -> "TermEvents":
        """Events of terms ``a`` to ``b - 1``, counted from 0 again (views of the times, heights and initials)."""
        if not 0 <= a <= b <= self.n_terms:
            raise ValueError(f"terms {a} to {b} requested from {self.n_terms}")
        i, j = self.offset(a), self.offset(b)
        return TermEvents(b - a, self.dimension, None if self.index is None else self.index[i:j] - a,
                          self.times[i:j], self.heights[i:j], self.initials[a:b], self.width)


def _draw_open_unit(gen: np.random.Generator, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Uniform draws in (0, 1): zeros are resampled (a t=0 jump is illegal)."""
    return _nonzero_draws(gen.random, n, out)


class YBlockSampler:
    """Stateful per-replicate sampler handing out terms in order.  Each defines ``take(n, out)``, drawing a
    fixed-width block's jump times into ``out`` when given, and ``values_at_one(n, out)``, writing the next
    ``n`` terms' ``Y(1)`` into ``out`` (n, d) with the bytes of ``values_at`` and drawing no jump location."""

    def __init__(self, spec: "YGeneratorSpec"):
        self.spec = spec


@dataclass(frozen=True)
class CdfGrid:
    """Continuous nondecreasing cdf on [0, 1], piecewise linear on a grid."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=np.float64).reshape(-1)
        ys = np.asarray(self.ys, dtype=np.float64).reshape(-1)
        if xs.size < 2 or xs.shape != ys.shape or not np.all(np.isfinite(xs) & np.isfinite(ys)):
            raise ConfigurationError("cdf grid needs finite matching xs/ys with at least two points")
        if xs[0] != 0.0 or xs[-1] != 1.0 or np.any(np.diff(xs) <= 0):
            raise ConfigurationError("cdf grid xs must increase strictly from 0 to 1")
        if ys[0] != 0.0 or ys[-1] != 1.0 or np.any(np.diff(ys) < 0):
            raise ConfigurationError("cdf grid ys must be nondecreasing from 0 to 1")
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @classmethod
    def uniform(cls) -> "CdfGrid":
        return cls(np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    def __call__(self, t) -> np.ndarray:
        return np.interp(t, self.xs, self.ys)

    def inverse(self, u) -> np.ndarray:
        return np.interp(u, self.ys, self.xs)


@dataclass(frozen=True)
class JumpHeightDist:
    """Finite-atom distribution of a jump height vector in R^d."""

    values: np.ndarray  # (k, d)
    probs: np.ndarray  # (k,)

    def __post_init__(self) -> None:
        v, p = _atom_table(np.atleast_2d(np.array(self.values, dtype=np.float64)), self.probs, "height")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)

    @classmethod
    def constant(cls, value) -> "JumpHeightDist":
        return cls(np.atleast_2d(np.asarray(value, float)), np.array([1.0]))

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    def fourth_moment(self) -> float:
        return float(np.dot(np.sum(self.values**2, axis=1) ** 2, self.probs))

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return _atom_draws(self.values, self.probs, gen.random(size))


class YGeneratorSpec:
    """Base class for i.i.d. step-path generators (see the factories below)."""

    variant: str = "base"
    dimension: int = 1
    width: int | None = None  # events per path, when fixed (see TermEvents)

    def block_sampler(self, stream: RngStream) -> YBlockSampler:
        raise NotImplementedError

    def echo(self) -> dict:
        return {"variant": self.variant, "dimension": self.dimension}


@dataclass(frozen=True)
class _UnitJumpSpec(YGeneratorSpec):
    """Single unit jump at a uniform location: 0 before U, 1 from U on."""

    variant: str = "example1"
    dimension: int = 1
    width = 1

    def block_sampler(self, stream: RngStream) -> YBlockSampler:
        return _UnitJumpSampler(self, stream)


class _UnitJumpSampler(YBlockSampler):
    def __init__(self, spec, stream):
        super().__init__(spec)
        self._loc = stream.substream(0).generator()

    def take(self, n: int, out: np.ndarray | None = None) -> TermEvents:
        return TermEvents(n, 1, None, _draw_open_unit(self._loc, n, out),
                          np.broadcast_to(1.0, (n, 1)), np.broadcast_to(0.0, (n, 1)), 1)

    def values_at_one(self, n: int, out: np.ndarray) -> np.ndarray:
        return np.add(0.0, 1.0, out=out)  # initial + the jump, wherever it is


@dataclass(frozen=True)
class _WeightedJumpsSpec(YGeneratorSpec):
    """Superposition of p jumps: heights R_j at locations U_j ~ F_j."""

    cdfs: tuple[CdfGrid, ...] = ()
    height_dist: JumpHeightDist = None  # type: ignore[assignment]
    fourth_moment_bound: float = np.inf
    variant: str = "example2"

    def __post_init__(self) -> None:
        if not self.cdfs:
            raise ConfigurationError("weighted_jumps needs at least one location cdf")
        object.__setattr__(self, "dimension", self.height_dist.dimension)
        m4 = self.height_dist.fourth_moment()
        if m4 > self.fourth_moment_bound * (1.0 + 1e-12):
            warnings.warn(
                f"declared fourth-moment bound {self.fourth_moment_bound} is exceeded by "
                f"the height distribution's E|R|^4 = {m4}",
                stacklevel=2,
            )

    @property
    def p(self) -> int:
        return len(self.cdfs)

    width = p

    def block_sampler(self, stream: RngStream) -> YBlockSampler:
        return _WeightedJumpsSampler(self, stream)

    def echo(self) -> dict:
        return {"variant": self.variant, "dimension": self.dimension, "p": self.p,
                "fourth_moment_bound": self.fourth_moment_bound}


class _WeightedJumpsSampler(YBlockSampler):
    def __init__(self, spec, stream):
        super().__init__(spec)
        # one substream per component so extending a block never reshuffles draws
        self._locs = [stream.substream(0, j).generator() for j in range(spec.p)]
        self._heights = [stream.substream(1, j).generator() for j in range(spec.p)]

    def take(self, n: int, out: np.ndarray | None = None) -> TermEvents:
        spec: _WeightedJumpsSpec = self.spec
        p, d = spec.p, spec.dimension
        times = np.empty((n, p)) if out is None else out.reshape(n, p)
        heights = np.empty((n, p, d))
        for j, (cdf, loc) in enumerate(zip(spec.cdfs, self._locs)):
            # inverse cdf can land on 0 where the grid starts flat
            times[:, j] = _nonzero_draws(lambda k: cdf.inverse(_draw_open_unit(loc, k)), n, None)
            heights[:, j] = spec.height_dist.sample(self._heights[j], n)
        return TermEvents(n, d, None, times.reshape(-1), heights.reshape(-1, d), np.broadcast_to(0.0, (n, d)), p)

    def values_at_one(self, n: int, out: np.ndarray) -> np.ndarray:
        out.fill(0.0)  # the heights from +0.0 in component order, as _masked_term_sums adds
        for gen in self._heights:
            out += self.spec.height_dist.sample(gen, n)
        return out  # the initial +0.0 added to a sum that is not -0.0 changes no bit


@dataclass(frozen=True)
class _PoissonSpec(YGeneratorSpec):
    """Unit-height counting path with Poisson(lambda) many uniform jumps."""

    lam: float = 1.0
    variant: str = "example3"
    dimension: int = 1

    def __post_init__(self) -> None:
        if not (self.lam > 0.0 and np.isfinite(self.lam)):
            raise ConfigurationError(f"poisson intensity must be positive, got {self.lam}")

    def block_sampler(self, stream: RngStream) -> YBlockSampler:
        return _PoissonSampler(self, stream)

    def echo(self) -> dict:
        return {"variant": self.variant, "dimension": 1, "lambda": self.lam}


class _PoissonSampler(YBlockSampler):
    def __init__(self, spec, stream):
        super().__init__(spec)
        self._counts = stream.substream(0).generator()
        self._locs = stream.substream(1).generator()

    def take(self, n: int, out: np.ndarray | None = None) -> TermEvents:
        spec: _PoissonSpec = self.spec
        counts = self._counts.poisson(spec.lam, n)
        total = int(counts.sum())
        return TermEvents(n, 1, np.repeat(np.arange(n, dtype=np.int64), counts), _draw_open_unit(self._locs, total),
                          np.broadcast_to(1.0, (total, 1)), np.broadcast_to(0.0, (n, 1)))

    def values_at_one(self, n: int, out: np.ndarray) -> np.ndarray:
        return np.add(self._counts.poisson(self.spec.lam, n)[:, None], 0.0, out=out)  # count + initial


@dataclass(frozen=True, eq=False)
class _UserSpec(YGeneratorSpec):
    """A pool of step paths: path k is term k of ``pool``, from event ``starts[k]``, with ``Y(1) = at_one[k]``."""

    pool: TermEvents
    starts: np.ndarray  # (k + 1,) event offsets of the k paths
    at_one: np.ndarray  # (k, d)
    dimension: int = 1
    variant: str = "user"

    def block_sampler(self, stream: RngStream) -> YBlockSampler:
        return _UserSampler(self, stream)


class _UserSampler(YBlockSampler):
    def __init__(self, spec, stream):
        super().__init__(spec)
        self._gen = stream.substream(0).generator()

    def take(self, n: int, out: np.ndarray | None = None) -> TermEvents:
        spec: _UserSpec = self.spec
        pick = self._gen.integers(spec.pool.n_terms, size=n)
        counts = np.diff(spec.starts)[pick]
        first = np.cumsum(counts) - counts  # each term's first event in the block
        at = np.arange(counts.sum()) + np.repeat(spec.starts[pick] - first, counts)  # their events in the pool
        return TermEvents(n, spec.dimension, np.repeat(np.arange(n, dtype=np.int64), counts),
                          spec.pool.times[at], spec.pool.heights[at], spec.pool.initials[pick])

    def values_at_one(self, n: int, out: np.ndarray) -> np.ndarray:
        return np.take(self.spec.at_one, self._gen.integers(self.spec.pool.n_terms, size=n), axis=0, out=out)


def unit_jump() -> YGeneratorSpec:
    """Indicator path jumping from 0 to 1 at a uniform location."""
    return _UnitJumpSpec()


def weighted_jumps(cdfs, height_dist: JumpHeightDist, fourth_moment_bound: float = np.inf) -> YGeneratorSpec:
    """Sum of one weighted jump per component, locations from the given cdfs."""
    return _WeightedJumpsSpec(cdfs=tuple(cdfs), height_dist=height_dist,
                              fourth_moment_bound=float(fourth_moment_bound))


def poisson_counts(lam: float) -> YGeneratorSpec:
    """Poisson counting path of intensity ``lam`` on [0, 1]."""
    return _PoissonSpec(lam=float(lam))


def user_paths(paths) -> YGeneratorSpec:
    """Each term one of ``paths``, a non-empty sequence of step paths of one dimension, uniformly at random."""
    paths = list(paths)
    if not paths or not all(isinstance(p, StepPath) for p in paths):
        raise PathValidationError(f"user paths must be a non-empty sequence of StepPaths, got {len(paths)} "
                                  f"items of types {sorted({type(p).__name__ for p in paths})}")
    d = paths[0].dimension
    if any(p.dimension != d for p in paths):
        raise PathValidationError(f"user paths must share one dimension, got {sorted({p.dimension for p in paths})}")
    counts = [p.n_jumps for p in paths]
    pool = TermEvents(len(paths), d, np.repeat(np.arange(len(paths), dtype=np.int64), counts),
                      np.concatenate([p.jump_times for p in paths]),
                      np.concatenate([np.diff(p.segment_values(), axis=0) for p in paths]),
                      np.array([p.initial_value for p in paths]))
    return _UserSpec(pool, np.concatenate([[0], np.cumsum(counts)]), values_at(pool, [1.0])[:, 0, :], d)


# ---------------------------------------------------------------------------
# vectorized reductions over event blocks
# ---------------------------------------------------------------------------


def _masked_term_sums(events: TermEvents, mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum of the masked event heights per term, written into ``out`` (n_terms, d).

    Heights add in event order from +0.0, as in ``np.bincount``, also across
    fixed-width row columns (``sum(axis=1)`` adds 8 or more pairwise).  A
    masked-off height is skipped, not added as 0.0; the two agree because a
    sum that starts at +0.0 never becomes -0.0.
    """
    n, d, w = events.n_terms, events.dimension, events.width
    if w is None:
        for j in range(d):
            out[:, j] = np.bincount(events.term_index[mask], events.heights[mask, j], n)
        return out
    out[...] = 0.0
    heights = events.heights.reshape(n, w, d)
    for j, m in enumerate(mask.reshape(n, w).T):
        np.add(out, heights[:, j], out=out, where=m[:, None])
    return out


def interval_increments(events: TermEvents, intervals, out: np.ndarray | None = None) -> np.ndarray:
    """Per-term increments ``Y(b) - Y(a)`` for each half-open interval (a, b].

    Returns shape ``(n_terms, len(intervals), d)``, written into ``out`` when given.
    """
    out = np.empty((events.n_terms, len(intervals), events.dimension)) if out is None else out
    for j, (a, b) in enumerate(intervals):
        if not 0.0 <= a <= b <= 1.0:
            raise ConfigurationError(f"interval must satisfy 0 <= a <= b <= 1, got ({a}, {b})")
        _masked_term_sums(events, (events.times > a) & (events.times <= b), out[:, j, :])
    return out


def values_at(events: TermEvents, ts, out: np.ndarray | None = None) -> np.ndarray:
    """Per-term path values at each time, shape ``(n_terms, len(ts), d)``, into ``out`` when given."""
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    out = np.empty((events.n_terms, ts.size, events.dimension)) if out is None else out
    for j, t in enumerate(ts):
        _masked_term_sums(events, events.times <= t, out[:, j, :])
        out[:, j, :] += events.initials
    return out


def _row_extremes(events: TermEvents, scale: np.ndarray, initials: np.ndarray, terms_per_row: int = 1,
                  scratch: dict | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sup norm, largest and smallest value (over coords) of each row's path.

    Row ``r`` holds the next ``terms_per_row`` terms: it starts at ``initials[r]``
    and jumps by ``scale[term] * height`` at each event.  A fixed-width block
    is reshaped, any other scattered into rows padded with ``+inf`` times and
    zero jumps.  numpy's default (SIMD) argsort gives the stable row order
    unless a row holds two equal finite times; then the block is sorted stably,
    and only values the path takes are counted: at a tie only the last event
    at that time ends a segment, so a partial sum between tied events is skipped.
    Each row's ``cumsum`` is its own, so its rounding reaches no other row.
    A fixed-width block is sorted and summed in the ``scratch`` buffers, if given.
    """
    rows, d = initials.shape[0], events.dimension
    if events.width is None:
        row = events.term_index // terms_per_row  # nondecreasing
        counts = np.bincount(row, minlength=rows)
        col = np.arange(row.size) - (np.cumsum(counts) - counts)[row]
        times = np.full((rows, int(counts.max(initial=0))), np.inf)
        times[row, col] = events.times
        deltas = np.zeros(times.shape + (d,))
        deltas[row, col] = events.heights * scale[events.term_index, None]
    else:
        times = events.times.reshape(rows, events.width * terms_per_row)
    order, ends = None, True  # ends: the sorted positions that end a segment
    if times.shape[1] > 1:  # a row of one event is in time order already
        starts = np.arange(0, times.size, times.shape[1])[:, None]  # each row's order as flat positions
        order = np.argsort(times, axis=1)
        order += starts
        s = np.take(times, order, out=_buffer(scratch, "work", times.shape), mode="clip")
        with np.errstate(invalid="ignore"):  # equal +inf padding gives nan, not 0
            steps = np.subtract(s[:, 1:], s[:, :-1], out=_buffer(scratch, "running", (rows, times.shape[1] - 1)))
        if not steps.all():  # a tie; steps is overwritten by the take into running below
            ends = np.ones(times.shape + (1,), dtype=bool)
            np.not_equal(steps, 0.0, out=ends[:, :-1, 0])
            order = np.argsort(times, axis=1, kind="stable")
            order += starts
    if events.width is not None:  # into the buffer the tie check is done with
        shape = (events.n_terms, events.width, d)
        deltas = np.multiply(events.heights.reshape(shape), scale.reshape(-1, 1, 1),
                             out=_buffer(scratch, "work", shape)).reshape(times.shape + (d,))
    running = deltas if order is None else np.take(deltas.reshape(-1, d), order, axis=0, mode="clip",
                                                   out=_buffer(scratch, "running", deltas.shape))
    np.cumsum(running, axis=1, out=running)
    running += initials[:, None, :]
    vmax = np.maximum(initials.max(axis=1), running.max(axis=(1, 2), initial=-np.inf, where=ends))
    vmin = np.minimum(initials.min(axis=1), running.min(axis=(1, 2), initial=np.inf, where=ends))
    return np.maximum(np.abs(vmax), np.abs(vmin)), vmax, vmin


def term_sup_norms(events: TermEvents) -> np.ndarray:
    """Uniform norm of each term's path: ``max|v| = max(|max v|, |min v|)`` exactly."""
    vmax, vmin = term_value_extremes(events)
    return np.maximum(np.abs(vmax), np.abs(vmin))


def term_value_extremes(events: TermEvents) -> tuple[np.ndarray, np.ndarray]:
    """Largest and smallest segment value of each term's path (over coords), exactly.

    Each tile of terms is rows of :func:`_row_extremes`, one term per row, so a
    term adds in time order as its own ``cumsum`` does.  A tile holds at most
    ``_TILE_EVENTS`` event slots once padded to the block's longest term (or that
    one term, if longer), so padding never grows with the block.
    """
    n = events.n_terms
    widest = events.width or int(np.bincount(events.index, minlength=n).max(initial=0))
    tile = max(1, _TILE_EVENTS // max(widest, 1))
    ones, vmax, vmin = np.broadcast_to(1.0, min(tile, n)), np.empty(n), np.empty(n)
    for a in range(0, n, tile):
        part = events.terms(a, min(a + tile, n))
        _, vmax[a:a + tile], vmin[a:a + tile] = _row_extremes(part, ones[:part.n_terms], part.initials)
    return vmax, vmin

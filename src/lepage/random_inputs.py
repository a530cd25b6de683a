"""Seedable generators for the three series ingredients.

The weighted-jump series needs three independent i.i.d. sequences: Poisson
arrival times ``Gamma_1 < Gamma_2 < ...`` (cumulative unit exponentials),
real multipliers ``eps_i``, and cadlag step paths ``Y_i``.  Everything here
is a pure function of an :class:`~lepage.rng.RngStream`, so replicate
``r`` sees the same draws whether it runs serially or on a thread pool.

Path generators hand out their draws in *blocks of terms*
(:class:`TermEvents`): a flat list of jump events grouped by term but not
time-ordered inside a term, with each term's first event at an offset the
block holds, or flat ``(terms, width)`` rows when each term has ``width``
events (see :class:`TermEvents`).  Each ingredient consumes its own substream in term
order, which makes a realization extendable: asking a sampler for more
terms never changes the terms already drawn.  Partial sums observed at
several truncation depths therefore share one realization bit for bit.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .paths import DomainError, PathValidationError, StepPath
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


def _buffer(scratch: dict | None, name: str, shape) -> np.ndarray:
    """A float64 ``shape`` view of ``scratch[name]``, grown when too small; a fresh array without scratch."""
    if scratch is None:
        return np.empty(shape)
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


def _require_two_point(values: np.ndarray, probs: np.ndarray) -> None:
    """Refuses a two_point law other than ``x_neg`` at probability p in (0, 1) and ``x_pos``, with mean zero."""
    if values.size != 2 or probs.size != 2:
        raise ConfigurationError(f"two_point needs two atoms, got {values.tolist()} at {probs.tolist()}")
    (x_neg, x_pos), p = values.tolist(), float(probs[0])
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"two_point needs p in (0,1), got {p}")
    mean = p * x_neg + (1.0 - p) * x_pos
    if abs(mean) > 1e-12 * max(abs(x_neg), abs(x_pos), 1.0):
        raise ConfigurationError(f"two_point multipliers must have mean zero, got {mean!r} from "
                                 f"({p} * {x_neg} + {1.0 - p} * {x_pos})")


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
            v = np.asarray(self.atom_values, dtype=np.float64).reshape(-1)
            if self.family == "two_point":
                _require_two_point(v, np.asarray(self.atom_probs, dtype=np.float64).reshape(-1))
            v, p = _atom_table(v, self.atom_probs, "multiplier")
            if self.family == "rademacher" and (v.tolist(), p.tolist()) != ([-1.0, 1.0], [0.5, 0.5]):
                raise ConfigurationError(f"rademacher multipliers are -1 and +1 at probability 1/2 each, "
                                         f"got atoms {v.tolist()} at probabilities {p.tolist()}")
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

    def sample(self, source: _EpsilonSource, size: int, out: np.ndarray | None = None) -> np.ndarray:
        """The next ``size`` multipliers of ``source``, drawn into ``out`` when given (same draws,
        same bytes).  Rademacher signs are raw bits (see :meth:`_EpsilonSource.signs`); every other
        family reads one ``random()`` double each of the source's generator."""
        if self.family == "rademacher":
            return source.signs(size, out)
        v = source.gen.random(size) if out is None else source.gen.random(out=out)
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


_SIGNS = np.array([-1.0, 1.0])  # 2b - 1 for b in {0, 1}


class _EpsilonSource:
    """A chunk's multiplier stream: its generator, and the bits of the raw words drawn for signs
    but not yet used, which the next Rademacher draw takes first.  So the tiles of a chunk draw
    the signs of one call over the whole chunk, whatever their sizes."""

    def __init__(self, gen: np.random.Generator):
        self.gen = gen
        self._bits = np.empty(0, dtype=np.uint8)

    def signs(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """The next ``n`` bits ``b`` as signs ``2b - 1``: each raw 64-bit word of the generator gives
        64 bits, its least significant first, read as little-endian bytes whatever the platform's
        byte order."""
        words = self.gen.bit_generator.random_raw(max(0, -(-(n - self._bits.size) // 64)))
        bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")
        if self._bits.size:
            bits = np.concatenate((self._bits, bits))
        self._bits = bits[n:]
        out = np.empty(n) if out is None else out
        np.take(_SIGNS, bits[:n], out=out.reshape(n), mode="clip")  # a view: the buffers are contiguous
        return out


# ---------------------------------------------------------------------------
# path generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TermEvents:
    """Flat jump-event view of a block of i.i.d. paths.

    Events are grouped by term, terms counted from 0: term ``r`` holds the
    events ``starts[r]`` to ``starts[r + 1] - 1``, in the order they were
    drawn, which need not be time order.  ``heights`` are the jump sizes
    (value deltas), ``initials`` the t=0 value of each term's path, either
    possibly a read-only broadcast.  ``width`` is set when every term has
    that many events (unit jumps 1, weighted jumps p): :func:`_row_values`
    then reshapes ``(n_terms, width)`` rows, and no ``starts`` are stored.
    """

    n_terms: int
    dimension: int
    starts: np.ndarray | None  # (n_terms + 1,) int64 event offsets from 0; None when width is set
    times: np.ndarray  # (k,) float64 in (0, 1]
    heights: np.ndarray  # (k, d)
    initials: np.ndarray  # (n_terms, d)
    width: int | None = None  # events per term, when fixed

    @property
    def term_index(self) -> np.ndarray:
        """The term of each event, built on each read."""
        return np.repeat(np.arange(self.n_terms), self.width if self.starts is None else np.diff(self.starts))

    def offset(self, n: int) -> int:
        """Number of events of the first ``n`` terms (the first event of term ``n``)."""
        return n * self.width if self.starts is None else int(self.starts[n])

    def terms(self, a: int, b: int) -> "TermEvents":
        """Events of terms ``a`` to ``b - 1``, counted from 0 again (views of the times, heights and initials)."""
        if not 0 <= a <= b <= self.n_terms:
            raise ValueError(f"terms {a} to {b} requested from {self.n_terms}")
        i, j = self.offset(a), self.offset(b)
        return TermEvents(b - a, self.dimension, None if self.starts is None else self.starts[a:b + 1] - i,
                          self.times[i:j], self.heights[i:j], self.initials[a:b], self.width)


def _draw_open_unit(gen: np.random.Generator, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Uniform draws in (0, 1): zeros are resampled (a t=0 jump is illegal)."""
    return _nonzero_draws(gen.random, n, out)


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

    def block_sampler(self, stream: RngStream):
        """A stateful sampler of this spec's paths from ``stream``, handing out terms in order.  Its
        ``take(n, scratch=None)`` returns the next ``n`` terms' :class:`TermEvents` (fixed-width jump times
        drawn into ``scratch["times"]``); its ``values_at_one(n, out)`` writes the next ``n`` terms' ``Y(1)``
        into ``out`` (n, d) with the bytes of ``values_at``, drawing no jump location."""
        raise NotImplementedError

    def echo(self) -> dict:
        return {"variant": self.variant, "dimension": self.dimension}


@dataclass(frozen=True)
class _UnitJumpSpec(YGeneratorSpec):
    """Single unit jump at a uniform location: 0 before U, 1 from U on."""

    variant: str = "example1"
    dimension: int = 1

    def block_sampler(self, stream: RngStream):
        return _UnitJumpSampler(self, stream)


class _UnitJumpSampler:
    def __init__(self, spec, stream):
        self.spec = spec
        self._loc = stream.substream(0).generator()

    def take(self, n: int, scratch: dict | None = None) -> TermEvents:
        return TermEvents(n, 1, None, _draw_open_unit(self._loc, n, _buffer(scratch, "times", (n,))),
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
        if not m4 <= self.fourth_moment_bound * (1.0 + 1e-12):  # refuses a nan bound; the default envelope reads it
            raise ConfigurationError(f"declared fourth-moment bound {self.fourth_moment_bound} is exceeded by "
                                     f"the height distribution's E|R|^4 = {m4}")

    @property
    def p(self) -> int:
        return len(self.cdfs)

    def block_sampler(self, stream: RngStream):
        return _WeightedJumpsSampler(self, stream)

    def echo(self) -> dict:
        return {"variant": self.variant, "dimension": self.dimension, "p": self.p,
                "fourth_moment_bound": self.fourth_moment_bound}


class _WeightedJumpsSampler:
    def __init__(self, spec, stream):
        self.spec = spec
        # one substream per component so extending a block never reshuffles draws
        self._locs = [stream.substream(0, j).generator() for j in range(spec.p)]
        self._heights = [stream.substream(1, j).generator() for j in range(spec.p)]

    def take(self, n: int, scratch: dict | None = None) -> TermEvents:
        spec: _WeightedJumpsSpec = self.spec
        p, d = spec.p, spec.dimension
        times = _buffer(scratch, "times", (n, p))
        heights = np.empty((n, p, d))
        for j, (cdf, loc) in enumerate(zip(spec.cdfs, self._locs)):
            # inverse cdf can land on 0 where the grid starts flat
            times[:, j] = _nonzero_draws(lambda k: cdf.inverse(_draw_open_unit(loc, k)), n, None)
            heights[:, j] = spec.height_dist.sample(self._heights[j], n)
        return TermEvents(n, d, None, times.reshape(-1), heights.reshape(-1, d), np.broadcast_to(0.0, (n, d)), p)

    def values_at_one(self, n: int, out: np.ndarray) -> np.ndarray:
        out.fill(0.0)  # the heights from +0.0 in component order, as interval_increments adds
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
        if not (0.0 < self.lam <= _MAX_LAMBDA):
            raise ConfigurationError(f"poisson intensity must lie in (0, {_MAX_LAMBDA:g}], got {self.lam}: its count "
                                     f"table grows like sqrt(lambda), to 1.4 MB at {_MAX_LAMBDA:g}")
        object.__setattr__(self, "_table", _PoissonTable(self.lam))  # built once per spec, not per chunk

    def block_sampler(self, stream: RngStream):
        return _PoissonSampler(self, stream)

    def echo(self) -> dict:
        return {"variant": self.variant, "dimension": 1, "lambda": self.lam}


# the guide table has a bucket of [0, 1) per 4096th; the cdf table about 18 sqrt(lambda)
# entries, 176 000 (1.4 MB) at this largest intensity, which bounds the table's memory
_GUIDE_BUCKETS = 4096
_MAX_LAMBDA = 1e8


class _PoissonTable:
    """Inverse cdf of Poisson(lam) with a guide table (Chen & Asau 1974; Devroye 1986, §III.2).

    The counts whose probability is at least 2^-64 of the mode's come from ``math`` scalars by the
    ratio recursion ``p(k+1) = p(k) lam / (k+1)`` out of the mode, normalized by their ``fsum``; their
    running sums are ``P(N <= k)``.  A ``random()`` double is a multiple of 2^-53 below 1, so ``cdf``
    keeps only the counts one reaches: ``cdf[0]`` is the lowest count ``first``, which ``u = 0.0``
    maps to, and entry ``i > 0`` the count ``offset + i``, from the one ``2^-53`` maps to up to the
    one ``1 - 2^-53`` maps to, whose entry is an ``inf`` sentinel.  So the table grows like
    ``sqrt(lam)``.  For the bucket ``j`` of [0, 1) per 4096th, ``guide_counts[j]`` is the count of
    the first entry with ``cdf > j / 4096`` and ``guide_cdf[j]`` that entry's ``cdf``; a uniform ``u``
    in bucket ``j`` has that count unless ``guide_cdf[j] <= u``, a step of the cdf inside the bucket
    below ``u``, and only those few are searched.
    """

    def __init__(self, lam: float):
        mode = math.floor(lam)

        def ratios(factors):  # p(k) / p(mode) outward from the mode, while at least 2^-64
            return list(itertools.takewhile(lambda p: p >= 2.0**-64, itertools.accumulate(factors, operator.mul)))

        down, up = ratios(k / lam for k in range(mode, 0, -1)), ratios(lam / k for k in itertools.count(mode + 1))
        weights = [*reversed(down), 1.0, *up]
        total = math.fsum(weights)
        cdf = np.array([*itertools.accumulate(w / total for w in weights[:-1]), math.inf])
        lo, hi = np.searchsorted(cdf, [2.0**-53, 1.0 - 2.0**-53], side="right")  # the entries they map to
        lo = max(int(lo), 1)
        self.cdf = cdf[np.r_[0, lo:hi + 1]]
        self.cdf[-1] = math.inf  # above every uniform, as the entry it replaces
        self.first, self.offset = mode - len(down), mode - len(down) + lo - 1
        guide = np.searchsorted(self.cdf, np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS, side="right")
        self.guide_counts = np.where(guide > 0, guide + self.offset, self.first)
        self.guide_cdf = self.cdf[guide]

    def counts(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """``n`` Poisson counts (int64), one ``random()`` double each."""
        u = gen.random(n)
        bucket = (u * _GUIDE_BUCKETS).astype(np.intp)  # u * 4096 is exact
        counts = self.guide_counts[bucket]
        step = np.flatnonzero(self.guide_cdf[bucket] <= u)
        counts[step] = np.searchsorted(self.cdf, u[step], side="right") + self.offset  # entries past cdf[0]
        return counts


class _PoissonSampler:
    def __init__(self, spec, stream):
        self.spec = spec
        self._counts = stream.substream(0).generator()
        self._locs = stream.substream(1).generator()

    def take(self, n: int, scratch: dict | None = None) -> TermEvents:
        starts = np.concatenate(([0], np.cumsum(self.spec._table.counts(self._counts, n))))
        total = int(starts[-1])
        return TermEvents(n, 1, starts, _draw_open_unit(self._locs, total),
                          np.broadcast_to(1.0, (total, 1)), np.broadcast_to(0.0, (n, 1)))

    def values_at_one(self, n: int, out: np.ndarray) -> np.ndarray:
        return np.add(self.spec._table.counts(self._counts, n)[:, None], 0.0, out=out)  # count + initial


@dataclass(frozen=True, eq=False)
class _UserSpec(YGeneratorSpec):
    """A pool of step paths: path k is term k of ``pool``, with ``Y(1) = y1[k]``."""

    pool: TermEvents
    y1: np.ndarray  # (k, d)
    dimension: int = 1
    variant: str = "user"

    def block_sampler(self, stream: RngStream):
        return _UserSampler(self, stream)


class _UserSampler:
    def __init__(self, spec, stream):
        self.spec = spec
        self._gen = stream.substream(0).generator()

    def take(self, n: int, scratch: dict | None = None) -> TermEvents:
        pool: TermEvents = self.spec.pool
        pick = self._gen.integers(pool.n_terms, size=n)
        counts = pool.starts[pick + 1] - pool.starts[pick]
        starts = np.concatenate(([0], np.cumsum(counts)))
        at = np.arange(starts[-1]) + np.repeat(pool.starts[pick] - starts[:-1], counts)  # their events in the pool
        return TermEvents(n, pool.dimension, starts, pool.times[at], _rows(pool.heights, at),
                          _rows(pool.initials, pick))

    def values_at_one(self, n: int, out: np.ndarray) -> np.ndarray:
        return np.take(self.spec.y1, self._gen.integers(self.spec.pool.n_terms, size=n), axis=0, out=out)


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
    with np.errstate(over="ignore"):  # refused below, naming the path
        heights = [np.diff(p.segment_values(), axis=0) for p in paths]
    for k, h in enumerate(heights):
        bad = np.flatnonzero(~np.isfinite(h).all(axis=1))
        if bad.size:
            i, v = bad[0], paths[k].segment_values()
            raise PathValidationError(f"user path {k} (counted from 0) jumps from {v[i].tolist()} to "
                                      f"{v[i + 1].tolist()}, a height of {h[i].tolist()}; heights must be finite")
    pool = TermEvents(len(paths), d, np.cumsum([0] + [p.n_jumps for p in paths]),
                      np.concatenate([p.jump_times for p in paths]), np.concatenate(heights),
                      np.array([p.initial_value for p in paths]))
    return _UserSpec(pool, values_at(pool, [1.0])[:, 0, :], d)


# ---------------------------------------------------------------------------
# vectorized reductions over event blocks
# ---------------------------------------------------------------------------


def interval_increments(events: TermEvents, intervals, out: np.ndarray | None = None) -> np.ndarray:
    """Per-term increments ``Y(b) - Y(a)`` for each half-open interval (a, b].

    Returns shape ``(n_terms, len(intervals), d)``, written into ``out`` when given.
    This is the one masked sum: every block, of fixed width or not, is one
    full-length ``np.bincount`` per coordinate over ``height * mask``.  Each
    term's heights add in event order from +0.0, and a masked-off height adds
    +0.0 or -0.0.  That gives the bits of a sum over the masked events alone:
    a sum that starts at +0.0 never becomes -0.0, so adding a signed zero
    changes no bit.  It needs finite heights (``inf * 0`` is nan), which every
    generator ensures.  An interval that leaves [0, 1] or is reversed raises
    :class:`~lepage.paths.DomainError`.
    """
    out = np.empty((events.n_terms, len(intervals), events.dimension)) if out is None else out
    for a, b in intervals:
        if not 0.0 <= a <= b <= 1.0:
            raise DomainError(f"interval must satisfy 0 <= a <= b <= 1, got ({a}, {b})")
    index, weights = events.term_index, np.empty(events.times.size)  # once for all intervals
    for i, (a, b) in enumerate(intervals):
        mask = (events.times > a) & (events.times <= b)
        for j in range(events.dimension):
            out[:, i, j] = np.bincount(index, np.multiply(events.heights[:, j], mask, out=weights), events.n_terms)
    return out


def values_at(events: TermEvents, ts, out: np.ndarray | None = None) -> np.ndarray:
    """Per-term path values at each time in [0, 1], shape ``(n_terms, len(ts), d)``, into ``out`` when
    given: the initial values plus the increments over ``(0, t]`` (every event time lies in (0, 1])."""
    out = interval_increments(events, [(0.0, t) for t in np.atleast_1d(np.asarray(ts, dtype=np.float64))], out)
    out += events.initials[:, None, :]
    return out


def _row_values(events: TermEvents, scratch: dict | None = None) -> tuple:
    """Each term's path as one row: its sorted jump times (rows, width), the running value after
    each of them (rows, width, d), and which sorted events end a segment.

    ``events`` is a fixed-width block (a variable-width one is padded into
    rows by :func:`_padded_terms` first), and each term one row: it starts
    at its ``initials`` and jumps by its ``heights`` (a replicate's row is a
    term whose heights are already scaled by their coefficients).  numpy's
    default (SIMD) argsort gives the stable row order unless a row holds two
    equal finite times; then the block is sorted stably, and only values the
    path takes end a segment: at a tie only the last event at that time does,
    so a partial sum between tied events is skipped.  The segment ends are
    ``True`` when no row holds a tie, else a (rows, width, 1) mask.  Each
    row's ``cumsum`` is its own, so its rounding reaches no other row.  The
    block is sorted and summed in the ``scratch`` buffers, if given.
    """
    rows, d = events.n_terms, events.dimension
    times = s = events.times.reshape(rows, events.width)
    order, ends = None, True
    if times.shape[1] > 1:  # a row of one event is in time order already
        first = np.arange(0, times.size, times.shape[1])[:, None]  # each row's order as flat positions
        order = np.argsort(times, axis=1)
        order += first
        s = np.take(times, order, out=_buffer(scratch, "work", times.shape), mode="clip")
        with np.errstate(invalid="ignore"):  # equal +inf padding gives nan, not 0
            steps = np.subtract(s[:, 1:], s[:, :-1], out=_buffer(scratch, "running", (rows, times.shape[1] - 1)))
        if not steps.all():  # a tie; steps is overwritten by the take into running below
            ends = np.ones(times.shape + (1,), dtype=bool)
            np.not_equal(steps, 0.0, out=ends[:, :-1, 0])
            order = np.argsort(times, axis=1, kind="stable")
            order += first
        del steps  # without scratch, freed before running is allocated
    out = _buffer(scratch, "running", times.shape + (d,))
    running = (np.positive(events.heights.reshape(times.shape + (d,)), out=out) if order is None
               else np.take(events.heights, order, axis=0, mode="clip", out=out))
    np.cumsum(running, axis=1, out=running)  # in place: running is a copy, never the block's heights
    running += events.initials[:, None, :]
    return s, running, ends


def _row_extremes(events: TermEvents, scratch: dict | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sup norm, largest and smallest value (over coords) of each term's path: its initial value
    and the running values of :func:`_row_values` at segment ends."""
    _, running, ends = _row_values(events, scratch)
    initials = events.initials
    vmax = np.maximum(initials.max(axis=1), running.max(axis=(1, 2), initial=-np.inf, where=ends))
    vmin = np.minimum(initials.min(axis=1), running.min(axis=(1, 2), initial=np.inf, where=ends))
    return np.maximum(np.abs(vmax), np.abs(vmin)), vmax, vmin


def _rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``a[idx]``, by ``np.take`` where ``a`` is contiguous: it gathers rows many times as fast as
    indexing, but copies a non-contiguous ``a`` (a read-only broadcast) whole first."""
    return np.take(a, idx, axis=0) if a.flags.c_contiguous else a[idx]


def _padded_terms(events: TermEvents, pick: np.ndarray) -> TermEvents:
    """Terms ``pick`` of a variable-width block as a fixed-width block for :func:`_row_values`, the one
    place such a block is laid into rows.  Row ``i`` holds term ``pick[i]``'s events in their order,
    padded to the longest row with ``+inf`` times and zero heights, and starts at its initial value."""
    first, counts = events.starts[pick], events.starts[pick + 1] - events.starts[pick]
    col = np.arange(counts.max(initial=0))
    slot = np.minimum(first[:, None] + col, max(events.times.size - 1, 0)).reshape(-1)
    real = (col < counts[:, None]).reshape(-1)
    return TermEvents(pick.size, events.dimension, None, np.where(real, _rows(events.times, slot), np.inf),
                      np.where(real[:, None], _rows(events.heights, slot), 0.0), _rows(events.initials, pick),
                      col.size)


def term_sup_norms(events: TermEvents) -> np.ndarray:
    """Uniform norm of each term's path: ``max|v| = max(|max v|, |min v|)`` exactly."""
    vmax, vmin = term_value_extremes(events)
    return np.maximum(np.abs(vmax), np.abs(vmin))


def term_value_extremes(events: TermEvents) -> tuple[np.ndarray, np.ndarray]:
    """Largest and smallest segment value of each term's path (over coords), exactly.

    Each tile of terms is rows of :func:`_row_extremes`, one term per row, so a
    term adds in time order as its own ``cumsum`` does.  A tile holds at most
    ``_TILE_EVENTS`` event slots once padded to its longest term (or that one
    term, if longer), so padding never grows with the block.  A fixed-width
    block is tiled in term order; any other in the stable order of its terms'
    event counts, each tile gathered by :func:`_padded_terms`, so a long term
    pads only the tiles of terms as long as itself.
    """
    n, w = events.n_terms, events.width
    if w is not None:
        tile = max(1, _TILE_EVENTS // max(w, 1))
        tiles = ((slice(a, a + tile), events.terms(a, min(a + tile, n))) for a in range(0, n, tile))
    else:
        # a term of a tile's events or more is a tile alone, so counts are clipped there, and
        # 16 bits take numpy's radix sort
        counts = np.minimum(np.diff(events.starts), _TILE_EVENTS).astype(np.uint16)
        order = np.argsort(counts, kind="stable")
        counts = np.maximum(counts[order], 1)  # padded slots per term of a tile, at least one
        bounds = [0]
        while bounds[-1] < n:  # each tile as long as it fits: (b - a) * counts[b - 1] grows with b
            a = bounds[-1]
            bounds.append(a + max(1, bisect.bisect_right(range(a + 1, n + 1), _TILE_EVENTS,
                                                         key=lambda b: (b - a) * int(counts[b - 1]))))
        picks = (order[a:b] for a, b in zip(bounds, bounds[1:]))
        tiles = ((p, _padded_terms(events, p)) for p in picks)
    vmax, vmin = np.empty(n), np.empty(n)
    for where, part in tiles:
        _, vmax[where], vmin[where] = _row_extremes(part)
    return vmax, vmin

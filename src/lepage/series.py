"""Truncated weighted-jump series and their convergence diagnostics.

The central object is the partial sum

    ``X_n(t) = sum_{i<=n} w_i eps_i Y_i(t)``

with weights either ``Gamma_i^(-1/alpha)`` (Poisson arrival times) or the
deterministic ``i^(-1/alpha)``, and multipliers either raw or truncated to
``eps_i 1{|eps_i|^alpha <= i}``.

Replicate ``r`` of any experiment uses the stream ``(seed, r)``; the
chunked samplers at the bottom draw fixed-size chunks of replicates (one
substream each) and work through each chunk in cache-sized tiles that reuse
the chunk's buffers, so memory does not grow with the chunk or churn between
tiles, and results are bit-reproducible for any thread count.  Each sampler
sets its tile's events (``_TILE_EVENTS_OF``): marginals tile at 2^15, since
each numpy call takes the GIL back from the other chunk threads and a larger
tile halves those hand-offs per replicate.  Path stats keep 2^14, as their
one-thread run is about 10% slower at 2^15, and so do increments, whose fresh
tile-long ``bincount`` arrays would cross glibc's 128 KiB mmap threshold at
2^15 and fault in again on every tile.  Path statistics
and the partial-sum paths regroup their terms so that each replicate is one row
(``_replicate_rows``), and read its sorted running values from one row reducer
(``random_inputs._row_values``); so a written path and its statistics agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import paths as _paths
from .parallel import chunk_size, map_replicates
from .paths import StepPath
from .random_inputs import (
    ConfigurationError,
    EpsilonSpec,
    TermEvents,
    YGeneratorSpec,
    _EPSILON_ROLE,
    _EpsilonSource,
    _GAMMA_ROLE,
    _TILE_EVENTS,
    _Y_ROLE,
    _buffer,
    _padded_terms,
    _positive_exponentials,
    _row_extremes,
    _row_values,
    interval_increments,
    term_sup_norms,
    values_at,
)
from .rng import RngStream

__all__ = [
    "SeriesSpec",
    "PartialSumResult",
    "partial_sum",
    "coupled_partial_sums",
    "sample_marginals",
    "sample_path_stats",
    "PathStatsSample",
]

# substream tags for the chunked multi-replicate samplers, and the events per tile of each
_TAG_MARGINAL = 101
_TAG_PATH_STATS = 102
_TAG_INCREMENTS = 103
_TILE_EVENTS_OF = {_TAG_MARGINAL: 2 * _TILE_EVENTS, _TAG_PATH_STATS: _TILE_EVENTS, _TAG_INCREMENTS: _TILE_EVENTS}


@dataclass(frozen=True)
class SeriesSpec:
    """Complete recipe for one series experiment.

    ``weight_mode`` selects ``gamma`` (arrival-time weights) or
    ``deterministic`` (``i^(-1/alpha)``); ``epsilon_mode`` selects ``raw``
    multipliers or their index-dependent truncation.  For ``alpha >= 1``
    the multiplier family must be mean-zero.
    """

    alpha: float
    truncation_n: int
    epsilon: EpsilonSpec
    y_gen: YGeneratorSpec
    seed: int = 0
    weight_mode: str = "gamma"
    epsilon_mode: str = "raw"

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 2.0:
            raise ConfigurationError(f"alpha must lie in the open interval (0, 2), got {self.alpha}")
        if self.truncation_n < 0:
            raise ConfigurationError(f"truncation_n must be nonnegative, got {self.truncation_n}")
        if self.weight_mode not in ("gamma", "deterministic"):
            raise ConfigurationError(f"unknown weight_mode {self.weight_mode!r}")
        if self.epsilon_mode not in ("raw", "truncated"):
            raise ConfigurationError(f"unknown epsilon_mode {self.epsilon_mode!r}")
        self.epsilon.require_mean_zero(self.alpha)

    @property
    def dimension(self) -> int:
        return self.y_gen.dimension

    def echo(self) -> dict:
        return {
            "alpha": self.alpha,
            "truncation_n": self.truncation_n,
            "weight_mode": self.weight_mode,
            "epsilon_mode": self.epsilon_mode,
            "epsilon": self.epsilon.echo(),
            "y": self.y_gen.echo(),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class PartialSumResult:
    """A partial sum realized as an exact step path."""

    path: StepPath
    terms_used: int
    per_term_norms: np.ndarray | None = None


def _truncate_block(eps: np.ndarray, indices, alpha: float, mag: np.ndarray | None = None) -> np.ndarray:
    """Sets each ``eps`` with ``|eps|^alpha > index`` to +0.0 in place (``mag`` is work space)."""
    mag = np.abs(eps, out=mag)
    mag **= alpha
    np.copyto(eps, 0.0, where=mag > indices)  # |eps|^alpha is never nan: where(<=, eps, 0.0)
    return eps


def _combine_term_events(coeffs: np.ndarray, events: TermEvents) -> StepPath:
    """The path of one replicate: its terms as one row of :func:`_replicate_rows`, and the running
    values of ``random_inputs._row_values`` at segment ends, those ``sample_path_stats`` reads."""
    rows = _replicate_rows(coeffs[None], events)
    times, running, ends = _row_values(rows)
    times, running = times[0], running[0]  # views: without a tie every event ends a segment
    if ends is not True:
        times, running = times[ends[0, :, 0]], running[ends[0, :, 0]]
    return _paths._compressed(events.dimension, rows.initials[0], times, running)


def _replicate_coeffs(spec: SeriesSpec, stream: RngStream | None, n: int) -> tuple[np.ndarray, TermEvents]:
    """The first ``n`` coefficients and path events of one replicate, from one draw.

    A non-finite coefficient raises :class:`ConfigurationError` naming alpha and the replicate.
    """
    stream = RngStream(spec.seed) if stream is None else stream
    draws = _chunk_draws(spec, stream)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, with its cause
        coeffs = _chunk_coeffs(replace(spec, truncation_n=n), draws, 1)
    bad = np.flatnonzero(~np.isfinite(coeffs[0]))
    if bad.size:
        raise ConfigurationError(f"alpha {spec.alpha}: replicate {stream.stream_id} has coefficient "
                                 f"{coeffs[0, bad[0]]} at term {bad[0] + 1}; small alpha overflows "
                                 "Gamma_i^(-1/alpha)")
    return coeffs[0], draws[2].take(n)


def partial_sum(
    spec: SeriesSpec,
    stream: RngStream | None = None,
    with_term_norms: bool = False,
) -> PartialSumResult:
    """One realization of the truncated series.

    ``stream`` defaults to ``RngStream(spec.seed)``; pass
    ``RngStream(spec.seed, r)`` for replicate ``r``.
    """
    coeffs, events = _replicate_coeffs(spec, stream, spec.truncation_n)
    return PartialSumResult(path=_combine_term_events(coeffs, events), terms_used=spec.truncation_n,
                            per_term_norms=np.abs(coeffs) * term_sup_norms(events) if with_term_norms else None)


def coupled_partial_sums(
    spec: SeriesSpec,
    checkpoints,
    stream: RngStream | None = None,
) -> list[PartialSumResult]:
    """Partial sums of one realization at several truncation depths.

    The largest checkpoint is drawn once and each result reads its prefix, so
    the difference of two checkpoints is exactly the sum of the in-between terms.
    """
    checkpoints = [int(c) for c in checkpoints]
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ConfigurationError(f"checkpoints must be strictly increasing, got {checkpoints}")
    if any(c < 0 for c in checkpoints):
        raise ConfigurationError(f"checkpoints must be nonnegative, got {checkpoints}")
    coeffs, events = _replicate_coeffs(spec, stream, max(checkpoints, default=0))
    return [PartialSumResult(path=_combine_term_events(coeffs[:c], events.terms(0, c)), terms_used=c)
            for c in checkpoints]


# ---------------------------------------------------------------------------
# chunked multi-replicate samplers
# ---------------------------------------------------------------------------


def _chunk_draws(spec: SeriesSpec, stream: RngStream) -> tuple:
    """The gamma generator, the epsilon source and the Y block sampler of a replicate or chunk."""
    return (stream.substream(_GAMMA_ROLE).generator(),
            _EpsilonSource(stream.substream(_EPSILON_ROLE).generator()),
            spec.y_gen.block_sampler(stream.substream(_Y_ROLE)))


def _chunk_coeffs(spec: SeriesSpec, draws: tuple, m: int, scratch: dict | None = None) -> np.ndarray:
    """One tile: the coefficients ``w_i eps_i`` (m, n) of the next m replicates of n terms, from a
    chunk's gaps and multipliers; its paths are drawn by each reduce (see :func:`_sample_chunks`).

    Generators consume their streams in sequence, so consecutive tiles get the
    draws of one call over the whole chunk, save where a 0.0 is redrawn.
    Gaps and multipliers are drawn into the ``scratch`` buffers and assembled
    there in place; without one, into fresh arrays.
    """
    n, k = spec.truncation_n, m * spec.truncation_n
    gamma_gen, eps_source, _ = draws
    eps = spec.epsilon.sample(eps_source, k, _buffer(scratch, "eps", (m, n))).reshape(m, n)
    if spec.weight_mode == "gamma":  # deterministic weights read no gaps, so none are drawn
        weights = _positive_exponentials(gamma_gen, k, _buffer(scratch, "gaps", (m, n))).reshape(m, n)
        np.cumsum(weights, axis=1, out=weights)
        weights **= -1.0 / spec.alpha
    else:
        weights = np.broadcast_to(np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / spec.alpha), (m, n))
    if spec.epsilon_mode == "truncated":
        # no |eps|^alpha exceeds max_abs^alpha (the slack covers pow's rounding), so the
        # columns past that index keep every multiplier
        with np.errstate(over="ignore"):
            r = int(min(n, np.float64(spec.epsilon.max_abs()) ** spec.alpha * (1.0 + 1e-9)))
        _truncate_block(eps[:, :r], np.arange(1, r + 1, dtype=np.float64), spec.alpha,
                        _buffer(scratch, "mag", (m, r)))
    return np.multiply(weights, eps, out=eps)


def _sample_chunks(spec: SeriesSpec, tag: int, n_samples: int, reduce, threads) -> list[np.ndarray]:
    """Each field of ``reduce(coeffs, paths, m, scratch)`` over the tiles of all chunks, concatenated.

    A tile holds ``max(2, _TILE_EVENTS_OF[tag] // n)`` replicates of n terms, the last one of a
    chunk fewer; its size moves no draw.  A tile of m replicates has the (m, n) ``coeffs`` of
    :func:`_chunk_coeffs`; the reduce draws its ``m * n`` paths from the chunk's sampler ``paths``,
    term k for (replicate k // n, term k % n), by ``take`` or ``values_at_one``.  Equal jump times
    are kept, and the path reducers decide ties.
    Chunk ``c`` draws from ``RngStream(spec.seed).substream(tag, c)``, so the result is a
    pure function of ``(spec, tag, n_samples)``.  Each chunk call owns a ``scratch`` of
    tile-sized buffers that all its tiles draw, assemble and reduce into, never shared.
    No tile holds one replicate unless its chunk does: above 8192 terms einsum
    sums a single row in another order, and tiles must reduce as whole chunks do.
    A replicate with a non-finite value in any field raises :class:`ConfigurationError`
    naming alpha, the first such replicate and its chunk.
    """

    def one_chunk(stream, m):
        draws, tile = _chunk_draws(spec, stream), max(2, _TILE_EVENTS_OF[tag] // max(1, spec.truncation_n))
        bounds, scratch = [*range(0, max(m - 1, 1), tile), m], {}
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, with its cause
            return [reduce(_chunk_coeffs(spec, draws, b - a, scratch), draws[2], b - a, scratch)
                    for a, b in zip(bounds, bounds[1:])]

    parts = map_replicates(one_chunk, RngStream(spec.seed).substream(tag), n_samples,
                           spec.truncation_n, threads)
    fields = [np.concatenate(field, axis=0) for field in zip(*(t for chunk in parts for t in chunk))]
    bad = np.flatnonzero(~np.all([np.isfinite(f).all(axis=tuple(range(1, f.ndim))) for f in fields], axis=0))
    if bad.size:
        r, chunk = bad[0], bad[0] // chunk_size(spec.truncation_n)
        raise ConfigurationError(f"alpha {spec.alpha}: replicate {r} (chunk {chunk}) has results "
                                 f"{[f[r].tolist() for f in fields]}; small alpha overflows Gamma_i^(-1/alpha)")
    return fields


def sample_marginals(spec: SeriesSpec, t: float, n_samples: int, threads=1) -> np.ndarray:
    """i.i.d. samples of the partial-sum marginal ``X_n(t)``, shape (n, d); at ``t == 1`` no path draws
    jump locations.  A ``t`` outside [0, 1] raises :class:`~lepage.paths.DomainError`, and a
    non-finite marginal :class:`ConfigurationError`."""
    if not 0.0 <= t <= 1.0:
        raise _paths.DomainError(f"marginal time must lie in [0, 1], got {t}")
    n, d = spec.truncation_n, spec.dimension

    def reduce(coeffs, paths, m, scratch):
        y = (paths.values_at_one(m * n, _buffer(scratch, "values", (m * n, d))) if t == 1.0
             else values_at(paths.take(m * n, scratch), [t], _buffer(scratch, "values", (m * n, 1, d))))
        return (np.einsum("mi,mid->md", coeffs, y.reshape(m, n, d)),)

    return _sample_chunks(spec, _TAG_MARGINAL, n_samples, reduce, threads)[0]


@dataclass(frozen=True)
class PathStatsSample:
    """Per-replicate reductions of simulated series paths."""

    sup: np.ndarray  # uniform norm
    vmax: np.ndarray  # largest segment value over all coordinates
    vmin: np.ndarray  # smallest segment value over all coordinates


def _replicate_rows(coeffs: np.ndarray, events: TermEvents, scratch: dict | None = None) -> TermEvents:
    """The ``(m, n)`` replicates of ``coeffs`` as a fixed-width block of one term per replicate: its
    terms' heights scaled by their coefficients, its initial value the ``einsum`` of theirs.  A block
    of width w gives rows of ``n * w`` events; any other is padded by ``random_inputs._padded_terms``."""
    (m, n), d, w = coeffs.shape, events.dimension, events.width
    initials = np.einsum("mi,mid->md", coeffs, events.initials.reshape(m, n, d))
    if w is not None:
        heights = np.multiply(events.heights.reshape(m * n, w, d), coeffs.reshape(-1, 1, 1),
                              out=_buffer(scratch, "heights", (m * n, w, d)))
        return TermEvents(m, d, None, events.times, heights.reshape(-1, d), initials, n * w)
    heights = events.heights * np.repeat(coeffs.reshape(-1), np.diff(events.starts))[:, None]
    return _padded_terms(TermEvents(m, d, events.starts[np.arange(m + 1) * n], events.times, heights, initials),
                         np.arange(m))


def sample_path_stats(spec: SeriesSpec, n_samples: int, threads=1) -> PathStatsSample:
    """Norms and extreme segment values of i.i.d. partial-sum paths: each tile's
    :func:`_replicate_rows` reduced by ``random_inputs._row_extremes``."""

    def reduce(coeffs, paths, m, scratch):
        return _row_extremes(_replicate_rows(coeffs, paths.take(coeffs.size, scratch), scratch), scratch)

    return PathStatsSample(*_sample_chunks(spec, _TAG_PATH_STATS, n_samples, reduce, threads))


def sample_weighted_increments(spec: SeriesSpec, intervals, n_samples: int, threads=1) -> np.ndarray:
    """Joint samples of partial-sum increments over the given intervals.

    Returns shape ``(n_samples, len(intervals), d)``.
    """
    n, d = spec.truncation_n, spec.dimension
    intervals = [(float(a), float(b)) for a, b in intervals]

    def reduce(coeffs, paths, m, scratch):
        inc = interval_increments(paths.take(m * n, scratch), intervals,
                                  _buffer(scratch, "values", (m * n, len(intervals), d)))
        return (np.einsum("mi,mijd->mjd", coeffs, inc.reshape(m, n, len(intervals), d)),)

    return _sample_chunks(spec, _TAG_INCREMENTS, n_samples, reduce, threads)[0]

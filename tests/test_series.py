import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lepage.paths import DomainError, StepPath, _compressed, sup_norm
from lepage.random_inputs import (
    CdfGrid,
    ConfigurationError,
    EpsilonSpec,
    JumpHeightDist,
    TermEvents,
    _positive_exponentials,
    interval_increments,
    poisson_counts,
    term_sup_norms,
    unit_jump,
    user_paths,
    values_at,
    weighted_jumps,
)
from lepage.parallel import chunk_size, map_replicates
from lepage.rng import RngStream
import lepage.random_inputs as random_inputs
import lepage.series as series
from lepage.series import (
    SeriesSpec,
    _chunk_coeffs,
    _chunk_draws,
    _combine_term_events,
    _truncate_block,
    coupled_partial_sums,
    partial_sum,
    sample_marginals,
    sample_path_stats,
    sample_weighted_increments,
)
import lepage.stable_checks as sc
from lepage.cli import main, parse_config
import lepage.cli as cli
from test_paths import difference_on_union_grid


def rademacher_spec(alpha=1.5, n=50, seed=7, y=None, epsilon=None, **kw):
    return SeriesSpec(alpha, n, epsilon or EpsilonSpec.rademacher(), y or unit_jump(), seed=seed, **kw)


def truncate_epsilon(eps: float, index: int, alpha: float) -> float:
    """Scalar oracle of ``_truncate_block``: ``eps`` if ``|eps|^alpha <= index``, else 0."""
    if index < 1:
        raise ConfigurationError(f"index must be >= 1, got {index}")
    if not 0.0 < alpha < 2.0:
        raise ConfigurationError(f"alpha must lie in (0, 2), got {alpha}")
    return float(eps) if abs(eps) ** alpha <= index else 0.0


def reference_draws(spec, draws, m, n):
    """Gaps and raw multipliers, both (m, n), and the path events of m replicates of n terms,
    drawn into fresh arrays."""
    gamma_gen, eps_source, y_sampler = draws
    return (_positive_exponentials(gamma_gen, m * n).reshape(m, n),
            spec.epsilon.sample(eps_source, m * n).reshape(m, n), y_sampler.take(m * n))


def reference_assembly(spec, gaps, eps):
    """The weights and the multipliers used, (m, n) each, with no in-place step."""
    idx = np.arange(1, gaps.shape[1] + 1, dtype=np.float64)
    if spec.weight_mode == "gamma":
        weights = np.cumsum(gaps, axis=1) ** (-1.0 / spec.alpha)
    else:
        weights = np.broadcast_to(idx ** (-1.0 / spec.alpha), gaps.shape)
    if spec.epsilon_mode == "truncated":
        eps = np.where(np.abs(eps) ** spec.alpha <= idx, eps, 0.0)
    return weights, eps


def reference_combine(coeffs, events) -> StepPath:
    """Oracle of ``_combine_term_events``: the events merged on one jump grid by their own stable
    sort by time, the heights at one time added first, and the initial value by ``@``."""
    d = events.dimension
    initial = coeffs @ events.initials
    if events.times.size == 0:
        return _compressed(d, initial, np.empty(0), np.empty((0, d)))
    deltas = events.heights * coeffs[events.term_index, None]
    order = np.argsort(events.times, kind="stable")
    uniq, first = np.unique(events.times[order], return_index=True)
    values = initial[None, :] + np.cumsum(np.add.reduceat(deltas[order], first, axis=0), axis=0)
    return _compressed(d, initial, uniq, values)


class ReplicateOracle:
    """Per-replicate oracle of ``partial_sum``: the replicate's ``spec.truncation_n`` terms drawn
    from ``_chunk_draws(spec, stream)`` into fresh arrays and assembled as
    :func:`reference_chunk_coeffs` does."""

    def __init__(self, spec: SeriesSpec, stream: RngStream | None = None):
        stream = RngStream(spec.seed) if stream is None else stream
        gaps, eps, self.events = reference_draws(spec, _chunk_draws(spec, stream), 1, spec.truncation_n)
        weights, eps_used = reference_assembly(spec, gaps, eps)
        self.gammas, self.eps_raw = np.cumsum(gaps[0]), eps[0]
        self.weights, self.eps_used = weights[0], eps_used[0]
        self.coeffs = self.weights * self.eps_used

    def path(self) -> StepPath:
        return reference_combine(self.coeffs, self.events)


def path_bytes(path: StepPath) -> bytes:
    return b"".join(a.tobytes() for a in (path.initial_value, path.jump_times, path.post_jump_values))


def gamma_deterministic_gap(spec: SeriesSpec, stream: RngStream | None = None) -> float:
    """``sum_{i<=n} |Gamma_i^(-1/a) - i^(-1/a)| |eps_i| sup_norm(Y_i)`` for one realization:
    the gap between arrival-time weights and their deterministic surrogates."""
    real = ReplicateOracle(spec, stream)
    n = spec.truncation_n
    inv_a = 1.0 / spec.alpha
    det = np.arange(1, n + 1, dtype=np.float64) ** (-inv_a)
    gap = np.abs(real.gammas ** (-inv_a) - det)
    return float(np.sum(gap * np.abs(real.eps_raw) * term_sup_norms(real.events)))


class TestTruncateEpsilon:
    def test_dropped_above_index(self):
        assert truncate_epsilon(2.0, 1, 1.0) == 0.0

    def test_kept_below_index(self):
        assert truncate_epsilon(0.5, 1, 1.0) == 0.5

    def test_kept_fractional_power(self):
        assert truncate_epsilon(-3.0, 100, 1.5) == -3.0  # 3^1.5 ~ 5.196 <= 100

    def test_boundary_is_inclusive(self):
        assert truncate_epsilon(1.0, 1, 1.5) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            truncate_epsilon(1.0, 0, 1.5)
        with pytest.raises(ConfigurationError):
            truncate_epsilon(1.0, 5, 2.5)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 0.5])
    def test_block_equals_scalar_oracle(self, alpha):
        # atoms on the boundary |eps|^alpha == i (eps +-2 at alpha 1 and i = 2, +-4 at
        # alpha 0.5), both signs of zero, and normal draws over indices 1..6
        eps = np.concatenate([[2.0, -2.0, 4.0, -4.0, 1.0, -1.0, 0.0, -0.0],
                              np.random.Generator(np.random.Philox(8)).normal(scale=3.0, size=400)])
        indices = np.concatenate([[2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0], np.arange(400) % 6 + 1.0])
        got = _truncate_block(eps.copy(), indices, alpha)
        want = np.array([truncate_epsilon(e, int(i), alpha) for e, i in zip(eps, indices)])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [40, 10], ids=["reach_below_n", "reach_above_n"])
    def test_chunk_truncates_only_reachable_columns_as_the_oracle(self, n):
        # 5^1.9 = 21.3: columns 1..21 can lose a multiplier, and the chunk truncates only those
        spec = rademacher_spec(alpha=1.9, n=n, seed=5, epsilon=EpsilonSpec.uniform_symmetric(5.0),
                               weight_mode="deterministic", epsilon_mode="truncated")
        stream = RngStream(5).substream(9)
        coeffs = _chunk_coeffs(spec, _chunk_draws(spec, stream), 60)
        raw = spec.epsilon.sample(_chunk_draws(spec, stream)[1], 60 * n).reshape(60, n)
        used = np.array([[truncate_epsilon(e, i + 1, spec.alpha) for i, e in enumerate(row)] for row in raw])
        assert coeffs.tobytes() == (np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / spec.alpha) * used).tobytes()
        assert np.any(used[:, min(n, 21) - 1] == 0.0) and np.all(used[:, 21:] == raw[:, 21:])


class TestSeriesSpec:
    def test_alpha_open_interval(self):
        for bad in (0.0, 2.0, -1.0, 2.5):
            with pytest.raises(ConfigurationError, match=r"\(0, 2\)"):
                SeriesSpec(bad, 10, EpsilonSpec.rademacher(), unit_jump())

    def test_mean_zero_required_at_alpha_geq_1(self):
        lopsided = EpsilonSpec.table([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(ConfigurationError, match="mean-zero"):
            SeriesSpec(1.5, 10, lopsided, unit_jump())
        # allowed below 1
        SeriesSpec(0.8, 10, lopsided, unit_jump())

    def test_mode_validation(self):
        with pytest.raises(ConfigurationError):
            rademacher_spec(weight_mode="bogus")
        with pytest.raises(ConfigurationError):
            rademacher_spec(epsilon_mode="bogus")


class TestPartialSum:
    def test_zero_terms_gives_zero_path(self):
        assert partial_sum(rademacher_spec(n=0)).path == StepPath(1, np.zeros(1))

    def test_single_term_is_scaled_first_path(self):
        spec = rademacher_spec(n=1)
        real = ReplicateOracle(spec, RngStream(7, 0))
        result = partial_sum(spec, RngStream(7, 0))
        c = real.coeffs[0]
        u = real.events.times[0]
        assert np.array_equal(result.path.jump_times, [u])
        assert result.path.post_jump_values[0, 0] == c * 1.0

    def test_matches_scalar_accumulation(self):
        spec = rademacher_spec(n=50)
        real = ReplicateOracle(spec, RngStream(7, 5))
        path = partial_sum(spec, RngStream(7, 5)).path
        coeffs = real.coeffs
        events = real.events
        rng = np.random.default_rng(1)
        for t in rng.random(100):
            direct = 0.0
            for i in range(50):
                mask = (events.term_index == i) & (events.times <= t)
                direct += coeffs[i] * float(events.heights[mask].sum())
            got = float(path(t)[0])
            assert abs(got - direct) <= 2.0**-40 * max(1.0, abs(direct))

    def test_bit_reproducible_across_calls(self):
        spec = rademacher_spec(n=200)
        a = partial_sum(spec, RngStream(9, 3))
        b = partial_sum(spec, RngStream(9, 3))
        assert a.path == b.path
        c = partial_sum(spec, RngStream(9, 4))
        assert a.path != c.path

    def test_per_term_norms(self):
        spec = rademacher_spec(n=20)
        result = partial_sum(spec, RngStream(9, 0), with_term_norms=True)
        real = ReplicateOracle(spec, RngStream(9, 0))
        # unit-jump paths have sup norm exactly 1
        assert np.array_equal(result.per_term_norms, np.abs(real.coeffs))

    def test_non_finite_coefficient_names_alpha_and_replicate(self):
        # at alpha 0.001 the weight Gamma_i^(-1000) overflows whenever Gamma_i < 0.49, in about
        # 2 replicates of 5; each error names the replicate and the oracle's first non-finite
        # coefficient, with no numpy warning on the way
        spec = rademacher_spec(alpha=0.001, n=200, seed=1)
        outcomes = []
        for r in range(20):
            with np.errstate(over="ignore", invalid="ignore"):
                coeffs = ReplicateOracle(spec, RngStream(1, r)).coeffs
            bad = np.flatnonzero(~np.isfinite(coeffs))
            outcomes.append(bad.size > 0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if not bad.size:
                    partial_sum(spec, RngStream(1, r))
                    continue
                message = rf"alpha 0\.001: replicate {r} has coefficient {coeffs[bad[0]]} at term {bad[0] + 1};"
                with pytest.raises(ConfigurationError, match=message):
                    partial_sum(spec, RngStream(1, r))
                with pytest.raises(ConfigurationError, match=message):
                    coupled_partial_sums(spec, [1, 200], RngStream(1, r))
        assert any(outcomes) and not all(outcomes)

    def test_weights_strictly_decreasing(self):
        spec = rademacher_spec(n=500)
        for r in range(5):
            w = ReplicateOracle(spec, RngStream(1, r)).weights
            assert np.all(np.diff(w) < 0)


class TestCoupledPartialSums:
    def test_checkpoints_must_increase(self):
        with pytest.raises(ConfigurationError):
            coupled_partial_sums(rademacher_spec(), [10, 10])
        with pytest.raises(ConfigurationError):
            coupled_partial_sums(rademacher_spec(), [20, 10])

    def test_single_checkpoint_matches_partial_sum(self):
        spec = rademacher_spec(n=40)
        direct = partial_sum(spec, RngStream(7, 2))
        (coupled,) = coupled_partial_sums(spec, [40], RngStream(7, 2))
        assert coupled.path == direct.path

    def test_granularity_does_not_change_realization(self):
        spec = rademacher_spec(n=64)
        fine = coupled_partial_sums(spec, [8, 16, 32, 64], RngStream(7, 3))
        assert fine[-1].path == partial_sum(spec, RngStream(7, 3)).path

    @pytest.mark.parametrize("epsilon_mode", ["raw", "truncated"])
    @pytest.mark.parametrize("weight_mode", ["gamma", "deterministic"])
    @pytest.mark.parametrize("name", ["unit", "poisson", "weighted2d_p3", "user_sixteenths", "user2d_no_jump"])
    def test_every_checkpoint_equals_partial_sum_and_oracle(self, name, weight_mode, epsilon_mode):
        # uniform multipliers on [-40, 40] are truncated at the early terms
        spec = rademacher_spec(alpha=0.8, n=40, seed=23, y=FAST_PATH_YS[name], weight_mode=weight_mode,
                               epsilon_mode=epsilon_mode, epsilon=EpsilonSpec.uniform_symmetric(40.0))
        checkpoints = [0, 1, 7, 20, 40]
        for c, coupled in zip(checkpoints, coupled_partial_sums(spec, checkpoints, RngStream(23, 4))):
            at_c = replace(spec, truncation_n=c)
            direct = partial_sum(at_c, RngStream(23, 4), with_term_norms=True)
            real = ReplicateOracle(at_c, RngStream(23, 4))
            assert coupled.terms_used == direct.terms_used == c
            assert path_bytes(coupled.path) == path_bytes(direct.path)
            if name.startswith("user"):
                # tied times and a summed initial value: equal within summation rounding
                oracle = real.path()
                scale = max(1.0, sup_norm(oracle))
                assert np.max(np.abs(difference_on_union_grid(direct.path, oracle))) <= 1e-12 * scale
            else:
                assert path_bytes(direct.path) == path_bytes(real.path())
            want = np.abs(real.coeffs) * term_sup_norms(real.events)
            assert direct.per_term_norms.tobytes() == want.tobytes()
        assert np.any(real.eps_used != real.eps_raw) == (epsilon_mode == "truncated")

    def test_difference_is_tail_terms(self):
        # result(n) - result(m) equals the partial sum over terms m+1..n
        spec = rademacher_spec(n=30)
        real = ReplicateOracle(spec, RngStream(8, 1))
        pa, pb = coupled_partial_sums(spec, [12, 30], RngStream(8, 1))
        ev = real.events
        mask = ev.term_index >= 12
        tail_events = TermEvents(30, 1, np.searchsorted(ev.term_index[mask], np.arange(31)), ev.times[mask],
                                 ev.heights[mask], ev.initials)
        tail = reference_combine(real.coeffs, tail_events)
        got = difference_on_union_grid(pb.path, pa.path)
        want = tail([0.0, *pb.path.jump_times, *pa.path.jump_times])
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-9 * scale

    def test_truncation_swap_count_bounded_by_alpha_moment(self):
        # average #\{i <= n : truncated eps differs\} <= empirical E|eps|^alpha
        spec = SeriesSpec(1.0, 100, EpsilonSpec.two_point(0.8, -1.0, 4.0), unit_jump(),
                          seed=3, epsilon_mode="truncated")
        swaps, amoments = [], []
        for r in range(400):
            real = ReplicateOracle(spec, RngStream(3, r))
            raw = real.eps_raw
            swaps.append(int(np.sum(real.eps_used != raw)))
            amoments.append(float(np.mean(np.abs(raw) ** spec.alpha)) * 100 / 100)
        assert np.mean(swaps) <= np.mean(np.abs(amoments)) * 1.0 + 1e-12


class TestGammaDeterministicGap:
    def test_zero_terms(self):
        assert gamma_deterministic_gap(rademacher_spec(n=0)) == 0.0

    def test_unit_factors_reduce_to_weight_gap(self):
        spec = rademacher_spec(n=200)
        stream = RngStream(5, 1)
        gap = gamma_deterministic_gap(spec, stream)
        real = ReplicateOracle(spec, stream)
        w = real.gammas ** (-1.0 / 1.5)
        det = np.arange(1, 201, dtype=float) ** (-1.0 / 1.5)
        assert gap == float(np.sum(np.abs(w - det)))

    def test_tail_mass_decays(self):
        # added mass from depth 10^3 to 10^4 is a small fraction of the base
        # value (the strict "<10% of the median" reading sits at ~11% for
        # alpha=1.5; the mean-based fraction is below 10%)
        spec_lo = rademacher_spec(n=1000, seed=6)
        spec_hi = rademacher_spec(n=10000, seed=6)
        heads, tails = [], []
        for r in range(100):
            head = gamma_deterministic_gap(spec_lo, RngStream(6, r))
            full = gamma_deterministic_gap(spec_hi, RngStream(6, r))
            heads.append(head)
            tails.append(full - head)
        heads, tails = np.array(heads), np.array(tails)
        assert np.all(tails > 0)
        assert tails.mean() / heads.mean() < 0.10
        assert np.median(tails / heads) < 0.15

    def test_deterministic_weights_draw_no_gaps(self, monkeypatch):
        # the weights i^(-1/alpha) read no Gamma_i, so the gaps are not drawn
        spec = rademacher_spec(n=40, y=poisson_counts(1.0), weight_mode="deterministic", epsilon_mode="truncated")
        want = sample_weighted_increments(spec, [(0.1, 0.6), (0.6, 0.9)], 300)

        def no_gaps(*args, **kwargs):
            raise AssertionError("gaps were drawn")

        monkeypatch.setattr(series, "_positive_exponentials", no_gaps)
        assert np.array_equal(sample_weighted_increments(spec, [(0.1, 0.6), (0.6, 0.9)], 300), want)
        with pytest.raises(AssertionError, match="gaps were drawn"):
            sample_weighted_increments(replace(spec, weight_mode="gamma"), [(0.1, 0.6)], 300)


def chunk_paths(spec, tag, m, terms=None, combine=reference_combine):
    """The m paths of chunk 0 of a chunked sampler, rebuilt one replicate at a time by ``combine``
    (the oracle by default) from the first ``terms`` (default all) of each replicate's terms."""
    n = spec.truncation_n
    terms = n if terms is None else terms
    draws = _chunk_draws(spec, RngStream(spec.seed).substream(tag, 0))
    coeffs, events = _chunk_coeffs(spec, draws, m), draws[2].take(m * n)
    rep, term = np.divmod(events.term_index, n)
    paths = []
    for r in range(m):
        sel = (rep == r) & (term < terms)
        own = TermEvents(terms, spec.dimension, np.searchsorted(term[sel], np.arange(terms + 1)), events.times[sel],
                         events.heights[sel], events.initials[r * n:r * n + terms])
        paths.append(combine(coeffs[r, :terms], own))
    return paths


WEIGHTED_2D = weighted_jumps([CdfGrid.uniform(), CdfGrid.uniform()],
                             JumpHeightDist(np.array([[1.0, -0.5], [0.5, 2.0]]), np.array([0.3, 0.7])))


def _sixteenths_path(gen):
    """1 to 5 jumps on the grid of sixteenths, so replicate rows hold tied times."""
    k = int(gen.integers(1, 6))
    times = np.sort(gen.choice(16, k, replace=False) + 1) / 16.0
    return StepPath(1, [gen.normal()], times, gen.normal(size=(k, 1)))


def sixteenths_pool(size=64, seed=16):
    """A pool of ``size`` draws of :func:`_sixteenths_path`."""
    gen = np.random.default_rng(seed)
    return user_paths([_sixteenths_path(gen) for _ in range(size)])


def long_tail_pool(seed=0):
    """Seven paths of 1 to 3 jumps and one of 1000."""
    gen = np.random.default_rng(seed)
    return user_paths([StepPath(1, gen.normal(size=1), np.sort(gen.random(k)), gen.normal(size=(k, 1)))
                       for k in (1, 2, 3, 1, 2, 3, 2, 1000)])


# a cdf whose mass sits on the 5 floats from 0.5 to 0.5000000000000004, so 6 such
# jumps always share a time; signed heights make the partial sum between them differ
FIVE_FLOATS = "{xs: [0.0, 0.5, 0.5000000000000004, 1.0], ys: [0.0, 0.0, 1.0, 1.0]}"
TIED_WEIGHTED = (f"{{variant: example2, p: 6, cdfs: [{', '.join([FIVE_FLOATS] * 6)}], "
                 "heights: {values: [[1.0], [-2.0]], probabilities: [0.5, 0.5]}}")


def close_to_paths(fast, slow, paths):
    """``fast`` equals ``slow`` to 1e-12 of each replicate path's sup norm."""
    scale = np.array([sup_norm(p) for p in paths]).reshape(-1, *[1] * (fast.ndim - 1))
    assert np.all(np.abs(fast - slow) <= 1e-12 * scale)


def assert_path_stats_match_paths(spec, m):
    """``sample_path_stats`` reads the segment values of the merged per-replicate paths."""
    paths = chunk_paths(spec, series._TAG_PATH_STATS, m)
    stats = sample_path_stats(spec, m)
    close_to_paths(stats.sup, np.array([sup_norm(p) for p in paths]), paths)
    close_to_paths(stats.vmax, np.array([p.segment_values().max() for p in paths]), paths)
    close_to_paths(stats.vmin, np.array([p.segment_values().min() for p in paths]), paths)


class TestChunkedSamplers:
    # 40 terms from a pool of 8 paths: every replicate repeats a path, so its row holds tied times
    @pytest.mark.parametrize("alpha", [1.5, 0.8, 0.3])
    @pytest.mark.parametrize("y", [unit_jump(), poisson_counts(2.0), WEIGHTED_2D, sixteenths_pool(size=8)],
                             ids=["unit", "poisson", "weighted2d", "user_repeats"])
    def test_match_per_replicate_paths_on_same_draws(self, y, alpha):
        spec = rademacher_spec(alpha=alpha, n=40, seed=16, y=y)
        m, t, intervals = 64, 0.7, [(0.1, 0.5), (0.5, 0.9)]

        paths = chunk_paths(spec, series._TAG_MARGINAL, m)
        close_to_paths(sample_marginals(spec, t, m), np.array([p(t) for p in paths]), paths)

        paths = chunk_paths(spec, series._TAG_INCREMENTS, m)
        slow = np.array([[p(b) - p(a) for a, b in intervals] for p in paths])
        close_to_paths(sample_weighted_increments(spec, intervals, m), slow, paths)

        assert_path_stats_match_paths(spec, m)

    def test_jump_times_that_always_tie(self, tmp_path):
        # no draw is redone when a term's jumps share a time: the block keeps its ties, the path
        # statistics read only values the merged paths take, and simulate writes its paths
        config = f"command: simulate\nalpha: 1.5\nepsilon: rademacher\ntruncation_n: 40\ny: {TIED_WEIGHTED}\n"
        spec = parse_config(config).series_spec()
        events = spec.y_gen.block_sampler(RngStream(1)).take(500)
        times = events.times.reshape(500, 6)
        assert set(np.unique(times)) <= set(0.5 + np.arange(5) * 2.0**-53)
        assert np.any(np.diff(np.sort(times, axis=1), axis=1) == 0.0, axis=1).all()
        assert_path_stats_match_paths(spec, 64)
        (tmp_path / "config.yaml").write_text(config)
        assert main(["--config", str(tmp_path / "config.yaml"), "--out", str(tmp_path / "out")]) == 0

    def test_overflow_stays_in_its_replicate(self):
        # at alpha 0.001 the weights of about 2 replicates in 5 overflow; the row reducer must
        # still give finite path statistics to every replicate whose coefficients are summable
        spec = rademacher_spec(alpha=0.001, n=500, seed=3)
        m = chunk_size(500)  # exactly the path-stats sampler's chunk 0
        with np.errstate(over="ignore", invalid="ignore"):
            draws = _chunk_draws(spec, RngStream(spec.seed).substream(series._TAG_PATH_STATS, 0))
            coeffs, events = _chunk_coeffs(spec, draws, m), draws[2].take(m * spec.truncation_n)
            finite = np.isfinite(np.abs(coeffs).sum(axis=1))
            stats = random_inputs._row_extremes(series._replicate_rows(coeffs, events))
        assert 0 < finite.sum() < m
        for field in stats:
            assert np.all(np.isfinite(field[finite]))

    @pytest.mark.parametrize("sample,reference,n,seed", [
        (lambda spec: sample_path_stats(spec, 1500),
         lambda spec: whole_chunk_reference(spec, series._TAG_PATH_STATS, 1500, reference_path_stats), 500, 3),
        (lambda spec: sample_weighted_increments(spec, [(0.1, 0.5), (0.5, 0.9)], 1500),
         lambda spec: [reference_weighted_increments(spec, [(0.1, 0.5), (0.5, 0.9)], 1500)], 200, 1),
    ], ids=["path_stats", "increments"])
    def test_non_finite_result_names_alpha_replicate_and_chunk(self, sample, reference, n, seed):
        # at alpha 0.001 the weights Gamma_i^(-1000) of about 2 replicates in 5 overflow, and
        # path values read inf or inf - inf; the error names the first replicate with a
        # non-finite result and its chunk, with no numpy warning on the way
        spec = rademacher_spec(alpha=0.001, n=n, seed=seed)
        with np.errstate(over="ignore", invalid="ignore"):
            replicate = first_non_finite(reference(spec))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=overflow_message(0.001, replicate, n)):
                sample(spec)

    def test_marginals_deterministic(self):
        spec = rademacher_spec(n=100, seed=11)
        a = sample_marginals(spec, 0.7, 1000)
        b = sample_marginals(spec, 0.7, 1000)
        assert np.array_equal(a, b)

    def test_marginals_match_path_evaluation_in_law(self):
        spec = rademacher_spec(n=200, seed=12)
        fast = sample_marginals(spec, 1.0, 4000)[:, 0]
        slow = np.array([
            float(partial_sum(spec, RngStream(12, r)).path(1.0)[0])
            for r in range(1500)
        ])
        d = sc.ks_statistic(fast, slow)
        assert d < sc.ks_threshold(fast.size, slow.size)

    def test_path_stats_match_partial_sum_paths(self):
        spec = rademacher_spec(n=50, seed=13)
        stats = sample_path_stats(spec, 300)
        # same construction replayed per replicate must give the same law;
        # spot-check the sup against a direct re-simulation quantile level
        direct = np.array([
            sup_norm(partial_sum(rademacher_spec(n=50, seed=13), RngStream(13, r)).path)
            for r in range(300)
        ])
        assert abs(np.median(stats.sup) - np.median(direct)) < 0.5
        assert np.all(stats.vmax >= stats.vmin)
        assert np.all(stats.sup >= np.maximum(np.abs(stats.vmax), np.abs(stats.vmin)) - 1e-12)

    @pytest.mark.parametrize("n, n_samples", [(0, 5), (0, 0), (10, 0)])
    def test_empty_terms_or_samples_give_shaped_zeros(self, n, n_samples):
        # at n 0 every replicate of a user-path chunk starts at event 0, and ends there
        for y in (poisson_counts(1.0), long_tail_pool()):
            spec = rademacher_spec(n=n, seed=15, y=y)
            assert np.array_equal(sample_marginals(spec, 0.5, n_samples), np.zeros((n_samples, 1)))
            stats = sample_path_stats(spec, n_samples)
            for field in (stats.sup, stats.vmax, stats.vmin):
                assert np.array_equal(field, np.zeros(n_samples))
            inc = sample_weighted_increments(spec, [(0.1, 0.4)], n_samples)
            assert np.array_equal(inc, np.zeros((n_samples, 1, 1)))

    def test_weighted_increments_zero_intervals(self):
        spec = SeriesSpec(1.5, 30, EpsilonSpec.rademacher(), poisson_counts(1.0),
                          seed=14, weight_mode="deterministic", epsilon_mode="truncated")
        inc = sample_weighted_increments(spec, [(0.3, 0.3), (0.2, 0.6)], 500)
        assert inc.shape == (500, 2, 1)
        assert np.all(inc[:, 0, :] == 0.0)


# reference copies of the flat reductions that every block used before
# fixed-width rows; the fast paths must reproduce them bit for bit

def reference_masked_sums(events, mask):
    idx = events.term_index[mask]
    out = np.empty((events.n_terms, events.dimension))
    for j in range(events.dimension):
        out[:, j] = np.bincount(idx, weights=events.heights[mask, j], minlength=events.n_terms)
    return out


def reference_values_at(events, ts):
    return np.stack([events.initials + reference_masked_sums(events, events.times <= t)
                     for t in ts], axis=1)


def reference_increments(events, intervals):
    return np.stack([reference_masked_sums(events, (events.times > a) & (events.times <= b))
                     for a, b in intervals], axis=1)


def reference_path_stats(coeffs, events, m):
    """The chunk reduction of sample_path_stats: padded rows and a stable row sort, with
    each running value read only at the last event of its time (a value the path takes)."""
    n, d = coeffs.shape[1], events.dimension
    rep = events.term_index // n
    counts = np.bincount(rep, minlength=m)
    col = np.arange(rep.size) - (np.cumsum(counts) - counts)[rep]
    width = int(counts.max(initial=0))
    times = np.full((m, width), np.inf)
    times[rep, col] = events.times
    deltas = np.zeros((m, width, d))
    deltas[rep, col] = events.heights * coeffs.reshape(-1)[events.term_index, None]
    order = np.argsort(times, axis=1, kind="stable")
    sorted_times = np.take_along_axis(times, order, axis=1)
    last = np.ones((m, width, 1), bool)
    last[:, :-1, 0] = sorted_times[:, 1:] != sorted_times[:, :-1]
    initials = np.einsum("mi,mid->md", coeffs, events.initials.reshape(m, n, d))
    running = initials[:, None, :] + np.cumsum(
        np.take_along_axis(deltas, order[:, :, None], axis=1), axis=1)
    vmax = np.maximum(initials.max(axis=1), np.where(last, running, -np.inf).max(axis=(1, 2), initial=-np.inf))
    vmin = np.minimum(initials.min(axis=1), np.where(last, running, np.inf).min(axis=(1, 2), initial=np.inf))
    return np.maximum(np.abs(vmax), np.abs(vmin)), vmax, vmin


FAST_PATH_YS = {
    "unit": unit_jump(),
    "weighted2d_p3": weighted_jumps(
        [CdfGrid.uniform()] * 3,
        JumpHeightDist(np.array([[1.1, -0.5], [-0.7, 0.25], [0.3, 2.0]]), np.array([0.4, 0.35, 0.25]))),
    # 9 columns: a pairwise row sum would add them in another order
    "weighted_p9": weighted_jumps(
        [CdfGrid.uniform()] * 9, JumpHeightDist(np.array([[1.1], [-0.7], [0.3]]), np.full(3, 1.0 / 3.0))),
    "poisson": poisson_counts(2.0),
    "user_sixteenths": sixteenths_pool(),
    # negative heights and paths back at exactly 0.0: a masked-off height weighs -0.0
    "user_signed_zero": user_paths([
        StepPath(1, [0.0], [0.25, 0.5], [[-0.75], [0.0]]),
        StepPath(1, [0.0], [0.3, 0.8125, 1.0], [[-1.5], [-0.25], [0.0]]),
        StepPath(1, [-0.0], [0.5], [[-2.0]]),
        StepPath(1, [1.0], [0.125, 0.3, 0.8125], [[0.0], [-1.0], [0.0]]),
    ]),
    # a 2-d pool with a path of no jump
    "user2d_no_jump": user_paths([
        StepPath(2, [0.5, -1.0]),
        StepPath(2, [0.0, 0.0], [0.25, 0.5, 0.8125], [[1.0, -1.0], [0.5, -2.0], [0.0, 0.0]]),
        StepPath(2, [-1.0, 2.0], [0.3, 1.0], [[-1.5, 2.5], [-1.0, 2.0]]),
    ]),
    # one path in 8 has 1000 jumps, so replicate rows differ in length many times over
    "user_long_tail": long_tail_pool(),
}


class TestWrittenPathsMatchTheirStatistics:
    @pytest.mark.parametrize("name", sorted(FAST_PATH_YS))
    def test_bit_for_bit(self, name):
        # the path partial_sum writes and the statistics sample_path_stats reads of it are one
        # reduction, so their extremes agree exactly, at tied times and with nonzero initials too
        spec = rademacher_spec(alpha=0.8, n=40, seed=17, y=FAST_PATH_YS[name])
        m = 300
        paths = chunk_paths(spec, series._TAG_PATH_STATS, m, combine=_combine_term_events)
        stats = sample_path_stats(spec, m)
        assert np.array_equal(stats.vmax, [p.segment_values().max() for p in paths])
        assert np.array_equal(stats.vmin, [p.segment_values().min() for p in paths])
        assert np.array_equal(stats.sup, [sup_norm(p) for p in paths])


class TestFastPathsMatchFlatReference:
    @pytest.mark.parametrize("name", sorted(FAST_PATH_YS))
    def test_bit_for_bit(self, name):
        spec = rademacher_spec(alpha=0.8, n=40, seed=17, y=FAST_PATH_YS[name])
        m = 64
        draws = _chunk_draws(spec, RngStream(17).substream(series._TAG_PATH_STATS, 0))
        coeffs, events = _chunk_coeffs(spec, draws, m), draws[2].take(m * spec.truncation_n)
        ts = [0.0, 0.3, 0.5, 1.0]
        intervals = [(0.0, 0.5), (0.25, 0.8125), (0.5, 1.0), (0.3, 0.3)]
        assert values_at(events, ts).tobytes() == reference_values_at(events, ts).tobytes()
        assert (interval_increments(events, intervals).tobytes()
                == reference_increments(events, intervals).tobytes())
        stats = sample_path_stats(spec, m)
        for got, want in zip((stats.sup, stats.vmax, stats.vmin),
                             reference_path_stats(coeffs, events, m)):
            assert got.tobytes() == want.tobytes()


# the chunked samplers before tiles: each chunk drawn and assembled at once
# into fresh arrays and reduced once; tiles must reproduce it bit for bit

def reference_chunk_coeffs(spec, draws, m):
    """``_chunk_coeffs`` over the whole chunk, with no buffer and no in-place step."""
    gaps, eps, events = reference_draws(spec, draws, m, spec.truncation_n)
    weights, eps = reference_assembly(spec, gaps, eps)
    return weights * eps, events


def whole_chunk_reference(spec, tag, n_samples, reduce):
    parts = map_replicates(
        lambda stream, m: reduce(*reference_chunk_coeffs(spec, _chunk_draws(spec, stream), m), m),
        RngStream(spec.seed).substream(tag), n_samples, spec.truncation_n)
    return [np.concatenate(field, axis=0) for field in zip(*parts)]


def first_non_finite(fields) -> int:
    """The first replicate with a non-finite value in any field."""
    finite = np.all([np.isfinite(f).reshape(len(f), -1).all(axis=1) for f in fields], axis=0)
    return int(np.flatnonzero(~finite)[0])


def overflow_message(alpha, replicate, n) -> str:
    """The chunked samplers' error for ``replicate``, in the chunk the plan puts it in."""
    return rf"alpha {alpha}: replicate {replicate} \(chunk {replicate // chunk_size(n)}\)"


def reference_marginals(spec, t, n_samples):
    def reduce(coeffs, events, m):
        per_term = values_at(events, [t])[:, 0, :].reshape(m, spec.truncation_n, spec.dimension)
        return (np.einsum("mi,mid->md", coeffs, per_term),)

    return whole_chunk_reference(spec, series._TAG_MARGINAL, n_samples, reduce)[0]


def reference_weighted_increments(spec, intervals, n_samples):
    def reduce(coeffs, events, m):
        inc = interval_increments(events, intervals).reshape(m, spec.truncation_n, len(intervals), -1)
        return (np.einsum("mi,mijd->mjd", coeffs, inc),)

    return whole_chunk_reference(spec, series._TAG_INCREMENTS, n_samples, reduce)[0]


# (y, n, samples): tiles hold 682 replicates of 24 terms, so a full chunk and 476 more
# end each chunk in a short tile; a full chunk of 2000 terms is tiles of 8, and 17 more
# are a chunk of one tile of 8 and one of 9 (no tile holds one replicate); 5 of 16500
# terms are tiles of 2 and 3, and one more than a full chunk of them (tiles of 2) leaves
# a chunk of 1; Poisson tiles of 163 replicates of 100 terms (the tightness workload's) draw
# 16 300 signs each, which leaves 44 bits of a raw word to the next tile
TILE_CASES = [*((name, 24, chunk_size(24) + 476) for name in ("unit", "weighted2d_p3", "poisson")),
              ("user_sixteenths", 24, 700), ("unit", 2000, chunk_size(2000) + 17), ("poisson", 100, 400),
              *((name, 16500, 5) for name in ("unit", "weighted2d_p3", "poisson")),
              ("unit", 16500, chunk_size(16500) + 1)]


# (y, n, samples, spec keywords): weight and multiplier modes, and every
# multiplier family; uniform multipliers on [-40, 40] and the table's -30 atom
# are truncated at the early terms
MODE_CASES = {
    "deterministic": ("unit", 24, 1500, {"weight_mode": "deterministic"}),
    "truncated_weighted": ("weighted2d_p3", 24, 1500, {"epsilon_mode": "truncated",
                                                        "epsilon": EpsilonSpec.uniform_symmetric(40.0)}),
    "uniform_symmetric_poisson": ("poisson", 24, 1500, {"epsilon": EpsilonSpec.uniform_symmetric(2.0)}),
    "two_point": ("unit", 24, 1500, {"epsilon": EpsilonSpec.two_point(0.8, -1.0, 4.0)}),
    "table_deterministic_truncated": ("unit", 500, 100, {
        "epsilon": EpsilonSpec.table([-30.0, 0.5, 1.0], [0.1, 0.45, 0.45]),
        "weight_mode": "deterministic", "epsilon_mode": "truncated"}),
}


class TestTilesEqualWholeChunk:
    @pytest.mark.parametrize("name, n, n_samples", TILE_CASES)
    def test_bit_for_bit(self, name, n, n_samples):
        self.check(rademacher_spec(alpha=0.8, n=n, seed=19, y=FAST_PATH_YS[name]), n_samples)

    @pytest.mark.parametrize("case", sorted(MODE_CASES))
    def test_modes_and_multipliers_bit_for_bit(self, case):
        name, n, n_samples, kw = MODE_CASES[case]
        self.check(rademacher_spec(alpha=0.8, n=n, seed=19, y=FAST_PATH_YS[name], **kw), n_samples)

    @staticmethod
    def check(spec, n_samples):
        assert max(2, series._TILE_EVENTS // spec.truncation_n) < n_samples  # more than one tile
        t, intervals = 0.8125, [(0.0, 0.5), (0.25, 0.8125)]
        assert (sample_marginals(spec, t, n_samples).tobytes()
                == reference_marginals(spec, t, n_samples).tobytes())
        # at t = 1 the built-in paths draw no jump locations; the reference draws and masks them
        assert (sample_marginals(spec, 1.0, n_samples).tobytes()
                == reference_marginals(spec, 1.0, n_samples).tobytes())
        assert (sample_weighted_increments(spec, intervals, n_samples).tobytes()
                == reference_weighted_increments(spec, intervals, n_samples).tobytes())
        stats = sample_path_stats(spec, n_samples)
        want = whole_chunk_reference(spec, series._TAG_PATH_STATS, n_samples, reference_path_stats)
        for got, ref in zip((stats.sup, stats.vmax, stats.vmin), want):
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("t", [-0.5, 1.5, math.nan])
def test_sample_marginals_refuses_a_time_outside_the_unit_interval(t):
    # the same exception as StepPath.__call__ and values_at give for the same time
    with pytest.raises(DomainError, match=r"marginal time must lie in \[0, 1\]"):
        sample_marginals(rademacher_spec(n=10), t, 5)


class TestMarginalsAtOne:
    @pytest.mark.parametrize("name", ["unit", "poisson", "weighted2d_p3"])
    def test_built_in_paths_draw_no_locations(self, name, monkeypatch):
        spec = rademacher_spec(n=40, seed=21, y=FAST_PATH_YS[name])
        expected = sample_marginals(spec, 1.0, 600)

        def no_location(*args, **kwargs):
            raise AssertionError("a jump location was drawn")

        monkeypatch.setattr(random_inputs, "_draw_open_unit", no_location)
        assert sample_marginals(spec, 1.0, 600).tobytes() == expected.tobytes()
        with pytest.raises(AssertionError, match="jump location"):
            sample_marginals(spec, 0.999, 600)

    def test_user_pools_gather_their_stored_values(self, monkeypatch):
        spec = rademacher_spec(n=10, seed=21, y=FAST_PATH_YS["user_sixteenths"])
        expected = reference_marginals(spec, 1.0, 30)

        def no_take(*args, **kwargs):
            raise AssertionError("a block of user paths was gathered")

        monkeypatch.setattr(random_inputs._UserSampler, "take", no_take)
        assert sample_marginals(spec, 1.0, 30).tobytes() == expected.tobytes()
        with pytest.raises(AssertionError, match="gathered"):
            sample_marginals(spec, 0.999, 30)

    def test_non_finite_marginal_names_alpha_replicate_and_chunk(self):
        # at alpha 0.001 the weights Gamma_i^(-1000) of about 2 replicates in 5 overflow
        spec = rademacher_spec(alpha=0.001, n=200, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            replicate = first_non_finite([reference_marginals(spec, 1.0, 2000)])
        with warnings.catch_warnings(), pytest.raises(ConfigurationError, match=overflow_message(0.001, replicate, 200)):
            warnings.simplefilter("error")
            sample_marginals(spec, 1.0, 2000)

    def test_non_finite_marginal_names_a_later_chunk(self, monkeypatch):
        # an overflow put into replicate 2 of chunk 1 is named as replicate chunk_size(n) + 2
        n, chunk_of, done = 2000, {}, {}  # by the chunk's gamma generator: its chunk, replicates drawn
        draws_of, coeffs_of = series._chunk_draws, series._chunk_coeffs

        def tagged_draws(spec, stream):
            draws = draws_of(spec, stream)
            chunk_of[id(draws[0])], done[id(draws[0])] = stream.route[-1], 0
            return draws

        def overflow_in_chunk_1(spec, draws, m, *rest):
            coeffs = coeffs_of(spec, draws, m, *rest)
            first = done[id(draws[0])]
            done[id(draws[0])] = first + m
            if chunk_of[id(draws[0])] == 1 and first <= 2 < first + m:
                coeffs[2 - first, 0] = np.inf
            return coeffs

        monkeypatch.setattr(series, "_chunk_draws", tagged_draws)
        monkeypatch.setattr(series, "_chunk_coeffs", overflow_in_chunk_1)
        replicate = chunk_size(n) + 2
        with pytest.raises(ConfigurationError, match=rf"replicate {replicate} \(chunk 1\)"):
            sample_marginals(rademacher_spec(n=n, seed=1), 1.0, 2 * chunk_size(n))


def traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestTiledMemory:
    # two full chunks each; the whole-chunk references, which draw and reduce a chunk
    # at once, peak at 78, 35 and 21 MB on these runs
    @pytest.mark.parametrize("case", ["marginals", "path_stats", "poisson_increments"])
    def test_peak_stays_within_budget(self, case):
        run = {
            "marginals": lambda: sample_marginals(rademacher_spec(n=2000, seed=0), 1.0, 2 * chunk_size(2000)),
            "path_stats": lambda: sample_path_stats(rademacher_spec(n=500, seed=114), 2 * chunk_size(500)),
            "poisson_increments": lambda: sample_weighted_increments(
                rademacher_spec(n=400, seed=107, y=poisson_counts(1.0)), [(0.1, 0.35), (0.35, 0.6)],
                2 * chunk_size(400)),
        }[case]
        assert traced_peak_mb(run) <= 8.0


class TestPartialSumMemory:
    # n = 200 000 unit jumps: the path's times and values take 3.2 MB; the whole-file writers
    # and the path-size copies of partial_sum peaked at 49.5 and 17.8 MB on these runs
    def test_partial_sum_peak_stays_within_budget(self):
        assert traced_peak_mb(lambda: partial_sum(rademacher_spec(n=200_000), RngStream(7, 0))) <= 12.0

    def test_simulate_peak_stays_within_budget(self, tmp_path):
        cfg = parse_config("command: simulate\nalpha: 1.5\nepsilon: rademacher\ny: example1\n"
                           "truncation_n: 200000\nseed: 7\n")
        cfg.out_dir = str(tmp_path)
        assert traced_peak_mb(lambda: cli.run(cfg)) <= 12.0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json", "path_0000.csv", "path_0000.json", "samples.csv", "samples.json"]


def truncated_limit_cf(alpha, u, n, y_atoms=(1.0,), y_probs=(1.0,)):
    """``exp(-E|Y|^alpha |u|^alpha / C_alpha - rho_n(u))``, the characteristic function of
    ``sum_{i<=n} Gamma_i^(-1/alpha) eps_i Y_i`` with Rademacher ``eps`` and ``Y`` on the
    given atoms (unit jumps at t = 1: ``Y = 1``).

    ``C_alpha = (1 - alpha) / (Gamma(2 - alpha) cos(pi alpha / 2))``, with its limit
    ``C_1 = 2 / pi`` at alpha 1 (Samorodnitsky & Taqqu 1994, Thm 1.4.5), and
    ``rho_n(u) = E int_n^inf (cos(u s^(-1/alpha) Y) - 1) ds``, summed as its power
    series, whose k-th term carries ``E[Y^(2k)]``.
    """
    y, p = np.asarray(y_atoms, dtype=float), np.asarray(y_probs, dtype=float)
    c_alpha = (2.0 / math.pi if alpha == 1.0
               else (1.0 - alpha) / (math.gamma(2.0 - alpha) * math.cos(math.pi * alpha / 2.0)))
    rho = sum((-1) ** k * u ** (2 * k) * float(p @ y ** (2 * k)) * n ** (1.0 - 2.0 * k / alpha)
              / (math.factorial(2 * k) * (2.0 * k / alpha - 1.0)) for k in range(1, 30))
    return math.exp(-float(p @ np.abs(y) ** alpha) * abs(u) ** alpha / c_alpha - rho)


def assert_cf_matches(x, alpha, n, y_atoms=(1.0,), y_probs=(1.0,)):
    for u in (0.1, 0.3, 1.0):
        c = np.cos(u * x)
        se = c.std(ddof=1) / math.sqrt(x.size)
        assert abs(c.mean() - truncated_limit_cf(alpha, u, n, y_atoms, y_probs)) <= 4.0 * se, (alpha, u)


class TestLimitLawScale:
    """Pins the scale of the simulated limit, which c08-c10 leave free."""

    @pytest.mark.parametrize("alpha", [0.3, 0.8, 1.0, 1.2, 1.5, 1.8])
    def test_characteristic_function_at_one(self, alpha):
        n, samples = 500, 20_000
        x = sample_marginals(rademacher_spec(alpha=alpha, n=n, seed=4), 1.0, samples)[:, 0]
        assert_cf_matches(x, alpha, n)

    @pytest.mark.parametrize("alpha", [0.8, 1.2, 1.8])
    def test_weighted_jumps_scale_by_the_alpha_moment(self, alpha):
        # two jumps with heights from {1.1, -0.7, 0.3} have both happened by t = 1,
        # so Y(1) is the sum of the two heights, on the nine pairs of atoms
        heights, probs = np.array([1.1, -0.7, 0.3]), np.array([0.4, 0.35, 0.25])
        y = weighted_jumps([CdfGrid.uniform()] * 2, JumpHeightDist(heights[:, None], probs))
        n, samples = 200, 20_000
        x = sample_marginals(rademacher_spec(alpha=alpha, n=n, seed=5, y=y), 1.0, samples)[:, 0]
        assert_cf_matches(x, alpha, n, np.add.outer(heights, heights).ravel(), np.outer(probs, probs).ravel())

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    def test_poisson_counts_scale_by_the_alpha_moment(self, alpha):
        # Y(1) of a Poisson(1) path is its count, on the atoms 0..30
        counts = np.arange(31)
        probs = np.exp(-1.0) / np.array([math.factorial(k) for k in counts], dtype=float)
        n, samples = 200, 20_000
        x = sample_marginals(rademacher_spec(alpha=alpha, n=n, seed=7, y=poisson_counts(1.0)), 1.0, samples)[:, 0]
        assert_cf_matches(x, alpha, n, counts, probs)


def tail_sup_and_end(spec, n, samples):
    """``sup_t |X_N(t) - X_n(t)|`` and ``X_N(1) - X_n(1)`` of unit-jump series, N the truncation,
    one row per replicate of the path-stats sampler's draws."""
    big_n = spec.truncation_n

    def reduce(coeffs, paths, m, scratch):
        coeffs[:, :n] = 0.0  # only the terms n+1..N jump
        events = paths.take(coeffs.size, scratch)
        sup, _, _ = random_inputs._row_extremes(series._replicate_rows(coeffs, events, scratch), scratch)
        return sup, coeffs.sum(axis=1)  # every unit-jump path ends at 1

    return series._sample_chunks(spec, series._TAG_PATH_STATS, samples, reduce, 1)


def tail_weight_second_moment(alpha, weight_mode, n, big_n):
    """``sum_{n<i<=N} E w_i^2``: ``i^(-2/alpha)``, or for gamma weights ``E Gamma_i^(-2/alpha)
    = Gamma(i - 2/alpha) / Gamma(i)``, finite for ``i > 2/alpha``."""
    i = np.arange(n + 1, big_n + 1, dtype=np.float64)
    if weight_mode == "deterministic":
        return math.fsum(i ** (-2.0 / alpha))
    return math.fsum(math.exp(math.lgamma(k - 2.0 / alpha) - math.lgamma(k)) for k in i)


class TestSeriesTailInSupNorm:
    """The tail ``X_N - X_n`` of Rademacher series of unit jumps, in the uniform norm.

    Given the weights and the jump times, the tail path is a walk of independent
    symmetric steps in time order, so Levy's inequality gives
    ``P(sup |X_N - X_n| > x) <= 2 P(|X_N(1) - X_n(1)| > x)`` and Doob's gives
    ``E sup^2 <= 4 E |X_N(1) - X_n(1)|^2`` (Ledoux & Talagrand 1991, section 2.3).
    """

    # 12 cases of 5 000 samples run in about 5 s on 2 vCPU
    @pytest.mark.parametrize("weight_mode", ["gamma", "deterministic"])
    @pytest.mark.parametrize("alpha", [0.3, 1.5, 1.9])
    @pytest.mark.parametrize("n", [10, 160])
    def test_levy_doob_and_second_moment(self, n, alpha, weight_mode):
        spec = SeriesSpec(alpha, 1000, EpsilonSpec.rademacher(), unit_jump(), seed=41, weight_mode=weight_mode)
        sup, end = tail_sup_and_end(spec, n, 5000)
        sq, size = end * end, end.size
        # the SE of the mean square needs E w_i^4 < inf: for gamma weights every tail i > 4/alpha;
        # at alpha 0.3 and n 10 the terms 11..13 have none, and the sample mean square is no test
        if weight_mode == "deterministic" or n + 1 > 4.0 / alpha:
            want = tail_weight_second_moment(alpha, weight_mode, n, 1000)
            assert abs(sq.mean() - want) <= 4.0 * sq.std(ddof=1) / math.sqrt(size)
        for q in (0.5, 0.9, 0.99):
            x = np.quantile(np.abs(end), q)
            excess = (sup > x).astype(np.float64) - 2.0 * (np.abs(end) > x)
            assert excess.mean() <= 4.0 * excess.std(ddof=1) / math.sqrt(size), q
        assert 1.0 <= np.mean(sup * sup) / sq.mean() <= 4.0

    @pytest.mark.parametrize("weight_mode", ["gamma", "deterministic"])
    def test_tail_equals_coupled_partial_sum_difference_on_the_same_draws(self, weight_mode):
        spec = SeriesSpec(0.8, 1000, EpsilonSpec.rademacher(), unit_jump(), seed=41, weight_mode=weight_mode)
        n, m = 10, 64  # 64 replicates of 1000 terms are four tiles of chunk 0
        sup, end = tail_sup_and_end(spec, n, m)
        whole = chunk_paths(spec, series._TAG_PATH_STATS, m)
        head = chunk_paths(spec, series._TAG_PATH_STATS, m, terms=n)
        for r in range(m):
            scale = sup_norm(whole[r]) + sup_norm(head[r])
            assert abs(sup[r] - np.max(np.abs(difference_on_union_grid(whole[r], head[r])))) <= 1e-12 * scale
            assert abs(end[r] - (whole[r](1.0) - head[r](1.0))[0]) <= 1e-12 * scale



def term_order_values(events, scratch=None):
    """A mutant of ``random_inputs._row_values``: each row summed in term order, not time order."""
    rows, width, d = events.n_terms, events.width, events.dimension
    running = np.cumsum(events.heights.reshape(rows, width, d), axis=1) + events.initials[:, None, :]
    return events.times.reshape(rows, width), running, True


def positives_and_argmax(spec, samples, row_values=random_inputs._row_values):
    """``N_n``, the number of positive values among ``X_n`` after each of its n jumps, and ``L_n``, the
    first argmax of ``0, S_1, ..., S_n``, per replicate of the path-stats sampler's tiles (1-d paths)."""

    def reduce(coeffs, paths, m, scratch):
        _, running, _ = row_values(series._replicate_rows(coeffs, paths.take(coeffs.size, scratch), scratch), scratch)
        walk = running[:, :, 0]
        return (walk > 0.0).sum(axis=1), np.argmax(np.concatenate((np.zeros((m, 1)), walk), axis=1), axis=1)

    return series._sample_chunks(spec, series._TAG_PATH_STATS, samples, reduce, 1)


def arcsine_chi_square(counts, n) -> float:
    """Pearson's chi-square of counts in 0..n against the discrete arcsine law ``u_2k u_(2n-2k)``."""
    u = [math.comb(2 * k, k) / 4**k for k in range(n + 1)]
    want = counts.size * np.array([u[k] * u[n - k] for k in range(n + 1)])
    return float(np.sum((np.bincount(counts, minlength=n + 1) - want) ** 2 / want))


class TestSparreAndersenArcsineLaws:
    """Exact path laws at every n, through the production tiles and row reducer.

    Given gamma weights, the steps of a unit-jump series ``X_n`` in time order are
    the values ``w_i eps_i`` in a uniformly random order with independent symmetric
    signs, and no partial sum is zero.  Sparre Andersen's theorem then gives both the
    number ``N_n`` of positive partial sums and the index ``L_n`` of the first maximum
    of ``0, S_1, ..., S_n`` the discrete arcsine law ``P(k) = u_2k u_(2n-2k)``, with
    ``u_2k = C(2k, k) / 4^k`` (Sparre Andersen, Math. Scand. 1953-54; Feller 1971,
    vol. II, section XII.8), whatever alpha is.
    """

    N, SAMPLES, BOUND = 16, 200_000, 39.25  # 39.25: the 99.9% point of chi-square on 16 df

    def spec(self, alpha):
        return SeriesSpec(alpha, self.N, EpsilonSpec.rademacher(), unit_jump(), seed=1)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5, 1.9])
    def test_positives_and_argmax_follow_the_arcsine_law(self, alpha):
        for counts in positives_and_argmax(self.spec(alpha), self.SAMPLES):
            assert arcsine_chi_square(counts, self.N) <= self.BOUND

    def test_summing_in_term_order_is_rejected(self):
        # the largest weights come first in term order, so the walk follows their signs
        for counts in positives_and_argmax(self.spec(1.5), self.SAMPLES, term_order_values):
            assert arcsine_chi_square(counts, self.N) > self.BOUND

FAULT_SCRIPT = """
import resource, sys
import lepage.cli  # what the command line imports shapes the heap a run starts from
from lepage.random_inputs import EpsilonSpec, poisson_counts, unit_jump
from lepage.series import SeriesSpec, sample_marginals, sample_path_stats, sample_weighted_increments
case, n, samples, seed = sys.argv[1], *map(int, sys.argv[2:])
if case == "increments":  # the tightness workload: Poisson(1) paths over the intervals of two triples
    spec = SeriesSpec(1.5, n, EpsilonSpec.rademacher(), poisson_counts(1.0), seed=seed,
                      weight_mode="deterministic", epsilon_mode="truncated")
    run = lambda: sample_weighted_increments(spec, [(0.0, 0.25), (0.25, 0.5), (0.05, 0.3), (0.3, 0.55)], samples)
else:
    spec = SeriesSpec(1.5, n, EpsilonSpec.rademacher(), unit_jump(), seed=seed)
    run = lambda: sample_marginals(spec, 1.0, samples) if case == "marginals" else sample_path_stats(spec, samples)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.fixture(scope="module")
def compiled_env(tmp_path_factory):
    """The environment of a fault-counting child, with ``src`` and every module the child imports
    byte-compiled first into a cache of its own (``PYTHONPYCACHEPREFIX``).  Imports then read the
    same bytecode whether or not the tree's own ``__pycache__`` is stale or written at all, so the
    heap a run starts from does not depend on it."""
    src = str(Path(series.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "PYTHONPYCACHEPREFIX": str(tmp_path_factory.mktemp("pycache"))}
    subprocess.run([sys.executable, "-c", "import compileall, sys, lepage.cli, lepage.series\n"
                    "compileall.compile_dir(sys.argv[1], quiet=1)", src],
                   env={**env, "PYTHONDONTWRITEBYTECODE": ""}, check=True)  # writes what the imports read
    return env


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux minor page faults")
class TestTiledPageFaults:
    # each chunk's tiles reuse its buffers, so the heap does not shrink and
    # regrow between tiles; fresh per-tile temporaries took 81 948 and 47 886
    # minor faults on these runs, the buffers about 500
    @pytest.mark.parametrize("case, n, samples, seed", [("marginals", 2000, 4194, 0),
                                                        ("path_stats", 500, 8192, 114),
                                                        ("increments", 100, 10_000, 107)])
    def test_minor_faults_stay_low(self, case, n, samples, seed, compiled_env):
        run = subprocess.run([sys.executable, "-c", FAULT_SCRIPT, case, str(n), str(samples), str(seed)],
                             env=compiled_env, capture_output=True, text=True, check=True)
        assert int(run.stdout) < 5000

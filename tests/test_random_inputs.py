import itertools
import math
import operator
import tracemalloc

import numpy as np
import pytest

from lepage.paths import DomainError, PathValidationError, StepPath, sup_norm
from lepage.random_inputs import (
    CdfGrid,
    ConfigurationError,
    EpsilonSpec,
    JumpHeightDist,
    TermEvents,
    _EpsilonSource,
    _Y_ROLE,
    _padded_terms,
    _row_extremes,
    _draw_open_unit,
    _positive_exponentials,
    interval_increments,
    poisson_counts,
    term_sup_norms,
    term_value_extremes,
    unit_jump,
    user_paths,
    values_at,
    weighted_jumps,
)
from lepage.rng import RngStream
import lepage.random_inputs as random_inputs
from lepage.series import SeriesSpec, partial_sum
from test_series import WEIGHTED_2D, ReplicateOracle, long_tail_pool


def term_path(events, r: int) -> StepPath:
    """Term ``r`` of a block as a step path, its events put in time order by a stable argsort."""
    lo, hi = events.offset(r), events.offset(r + 1)
    order = lo + np.argsort(events.times[lo:hi], kind="stable")
    values = events.initials[r][None, :] + np.cumsum(events.heights[order], axis=0)
    return StepPath(events.dimension, events.initials[r], events.times[order], values)


def arrival_times(n: int, stream: RngStream) -> np.ndarray:
    """The first ``n`` arrival times ``Gamma_1 < ... < Gamma_n``, as the series draws them."""
    return np.cumsum(_positive_exponentials(stream.generator(), n))


class TestGammaSequence:
    def test_empty(self):
        assert arrival_times(0, RngStream(1)).size == 0

    def test_strictly_increasing_positive(self):
        g = arrival_times(1000, RngStream(2))
        assert g[0] > 0
        assert np.all(np.diff(g) > 0)
        assert np.all(np.diff(g, prepend=0.0) > 0)

    def test_bit_reproducible(self):
        a = arrival_times(100, RngStream(3, 7))
        b = arrival_times(100, RngStream(3, 7))
        assert np.array_equal(a, b)
        c = arrival_times(100, RngStream(3, 8))
        assert not np.array_equal(a, c)

    def test_mean_matches_index(self):
        # E Gamma_k = k, Var = k (sum of unit exponentials)
        k, reps = 5, 4000
        vals = np.array([arrival_times(k, RngStream(11, r))[-1] for r in range(reps)])
        assert abs(vals.mean() - k) < 4.0 * math.sqrt(k / reps)

    def test_iterated_log_scale_bound(self):
        # |Gamma_k^(-1/a) - k^(-1/a)| <= 2/a * k^(-1/a) * sqrt(lnln k / k)
        # should hold for ~all realizations at k = 10^4
        k, alpha, reps = 10**4, 1.5, 300
        bound = 2.0 / alpha * k ** (-1 / alpha) * math.sqrt(math.log(math.log(k)) / k)
        hits = 0
        for r in range(reps):
            gk = arrival_times(k, RngStream(12, r))[-1]
            hits += abs(gk ** (-1 / alpha) - k ** (-1 / alpha)) <= bound
        assert hits / reps >= 0.99

    def test_exponential_gof(self):
        gaps = np.diff(arrival_times(10**6, RngStream(13)), prepend=0.0)
        n = gaps.size
        assert abs(gaps.mean() - 1.0) < 4.0 / math.sqrt(n)  # Var Exp(1) = 1
        p_hat = np.mean(gaps > 1.0)
        p = math.exp(-1.0)
        assert abs(p_hat - p) < 4.0 * math.sqrt(p * (1 - p) / n)


class TestEpsilonSpec:
    def test_rademacher_frequencies(self):
        # balanced overall and at each bit position of the raw words, and no lag-1 dependence
        draws = EpsilonSpec.rademacher().sample(_EpsilonSource(RngStream(20).generator()), 64 * 20_000)
        assert set(np.unique(draws)) == {-1.0, 1.0}
        n = draws.size
        assert abs(draws.mean()) < 4.0 / math.sqrt(n)
        assert abs(np.mean(draws[1:] * draws[:-1])) < 4.0 / math.sqrt(n - 1)
        assert np.all(np.abs(draws.reshape(-1, 64).mean(axis=0)) < 4.5 / math.sqrt(n / 64))

    def test_rademacher_signs_are_the_raw_bits_lowest_first(self):
        # oracle by integer shifts: bit b of raw word w is the sign 2 ((w >> b) & 1) - 1
        words = RngStream(22).generator().bit_generator.random_raw(40)
        want = [2.0 * ((int(w) >> b) & 1) - 1.0 for w in words for b in range(64)]
        assert EpsilonSpec.rademacher().sample(_EpsilonSource(RngStream(22).generator()), 2000).tolist() == want[:2000]
        # a chunk's source keeps the bits a draw leaves, so draws of any sizes read one bit stream
        source = _EpsilonSource(RngStream(22).generator())
        sizes = [1, 63, 64, 65, 0, 130, 7, 1700]
        got = np.concatenate([EpsilonSpec.rademacher().sample(source, k) for k in sizes])
        assert got.tolist() == want[:sum(sizes)]

    def test_two_point_mean_zero_accepted(self):
        spec = EpsilonSpec.two_point(0.8, -1.0, 4.0)
        # the complement probability 1 - 0.8 is off float(0.2) by one ulp,
        # so the stored mean carries dust of that size
        assert abs(spec.mean()) < 1e-15
        assert spec.is_mean_zero

    def test_two_point_nonzero_mean_rejected(self):
        with pytest.raises(ConfigurationError, match="mean zero"):
            EpsilonSpec.two_point(0.5, -1.0, 4.0)

    @pytest.mark.parametrize("values,probs", [
        ([0.0, 5.0], [0.5, 0.5]),  # sampled as +-1, yet read as mean 2.5 before
        ([-1.0, 1.0], [0.25, 0.75]),
        ([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25]),
    ])
    def test_rademacher_law_other_than_fair_signs_is_refused(self, values, probs):
        with pytest.raises(ConfigurationError, match=r"rademacher multipliers are -1 and \+1"):
            EpsilonSpec("rademacher", atom_values=values, atom_probs=probs)

    @pytest.mark.parametrize("values,probs,message", [
        ([-1.0, 0.0, 4.0], [0.5, 0.3, 0.2], "two atoms"),
        ([-1.0, 4.0], [0.5, 0.5], "mean zero"),
        ([-1.0, 4.0], [0.0, 1.0], r"p in \(0,1\), got 0.0"),
    ])
    def test_two_point_law_is_checked_by_the_constructor(self, values, probs, message):
        with pytest.raises(ConfigurationError, match=message):
            EpsilonSpec("two_point", atom_values=values, atom_probs=probs)

    def test_two_point_classmethod_names_p_and_the_mean(self):
        with pytest.raises(ConfigurationError, match=r"two_point needs p in \(0,1\), got 1.5"):
            EpsilonSpec.two_point(1.5, -1.0, 4.0)
        with pytest.raises(ConfigurationError, match=r"mean zero, got 1.5 from \(0.5 \* -1.0 \+ 0.5 \* 4.0\)"):
            EpsilonSpec.two_point(0.5, -1.0, 4.0)

    def test_table_probabilities_validated(self):
        with pytest.raises(ConfigurationError, match="sum to 1"):
            EpsilonSpec.table([1.0, 2.0], [0.5, 0.6])
        with pytest.raises(ConfigurationError):
            EpsilonSpec.table([1.0], [1.5])

    def test_mean_zero_families_average_to_zero(self):
        for spec in (EpsilonSpec.rademacher(), EpsilonSpec.uniform_symmetric(2.0),
                     EpsilonSpec.two_point(0.8, -1.0, 4.0)):
            draws = spec.sample(_EpsilonSource(RngStream(21).generator()), 10**6)
            se = draws.std() / math.sqrt(draws.size)
            assert abs(draws.mean()) < 4.0 * se

    def test_uniform_moments(self):
        spec = EpsilonSpec.uniform_symmetric(2.0)
        assert spec.abs_moment(2.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
        # truncation at |eps|^alpha <= i with alpha=2, i=1 keeps |eps| <= 1
        assert spec.truncated_abs_moment(2.0, np.array([1.0]), 2.0)[0] == pytest.approx(
            1.0 / 6.0, rel=1e-15
        )
        assert spec.tail_prob(np.array([1.0]), 2.0)[0] == pytest.approx(0.5, rel=1e-15)

    def test_truncated_moment_boundary_atom(self):
        # atom 4 with alpha = 1.5 enters exactly at index 8 (4^1.5 = 8)
        spec = EpsilonSpec.two_point(0.8, -1.0, 4.0)
        idx = np.arange(1.0, 11.0)
        mom = spec.truncated_abs_moment(4.0, idx, 1.5)
        assert np.all(mom[:7] == mom[0])
        assert np.all(mom[7:] == mom[7])
        assert mom[0] == pytest.approx(0.8, rel=1e-14)
        assert mom[7] == pytest.approx(52.0, rel=1e-14)

    def test_truncated_mean_and_tail(self):
        spec = EpsilonSpec.two_point(0.8, -1.0, 4.0)
        # alpha = 1: both atoms kept from i = 4 on (mean-zero up to prob dust)
        tm = spec.truncated_mean(np.arange(1.0, 6.0), 1.0)
        assert np.all(tm[:3] == -0.8)
        assert np.all(np.abs(tm[3:]) < 1e-15)
        tp = spec.tail_prob(np.arange(1.0, 6.0), 1.0)
        assert np.all(tp[:3] == spec.atom_probs[1])
        assert tp[0] == pytest.approx(0.2, rel=1e-15)
        assert np.all(tp[3:] == 0.0)

    def test_draw_reproducible(self):
        spec = EpsilonSpec.table([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        first, again = (spec.sample(_EpsilonSource(RngStream(5, 1).generator()), 1)[0] for _ in range(2))
        assert first == again


class ZeroingGenerator:
    """A numpy generator whose first draw holds an exact 0.0 at ``zeros``, so the
    callers' redraw loops run; later draws are the generator's own."""

    def __init__(self, seed, zeros):
        self.gen, self.zeros = np.random.default_rng(seed), list(zeros)

    def _draw(self, method, size=None, out=None):
        x = getattr(self.gen, method)(size, out=out)
        x[self.zeros] = 0.0
        self.zeros = []
        return x

    def random(self, size=None, out=None):
        return self._draw("random", size, out)

    def standard_exponential(self, size=None, out=None):
        return self._draw("standard_exponential", size, out)

    @property
    def bit_generator(self):  # Rademacher signs read raw words, which hold no 0.0 to redraw
        return self.gen.bit_generator


def _eps_draw(spec):
    """``spec.sample`` from a generator, through a new epsilon source."""
    return lambda gen, n, out=None: spec.sample(_EpsilonSource(gen), n, out)


OUT_DRAWS = {
    "exponentials": _positive_exponentials,
    "open_unit": _draw_open_unit,
    **{f"eps_{name}": _eps_draw(spec) for name, spec in {
        "rademacher": EpsilonSpec.rademacher(),
        "uniform_symmetric": EpsilonSpec.uniform_symmetric(2.5),
        "two_point": EpsilonSpec.two_point(0.8, -1.0, 4.0),
        "table": EpsilonSpec.table([-3.0, 0.5, 1.0], [0.1, 0.3, 0.6]),
    }.items()},
}


class TestDrawsIntoBuffers:
    """A draw into ``out`` is the fresh draw, byte for byte, and leaves the stream where it does."""

    @pytest.mark.parametrize("name", sorted(OUT_DRAWS))
    @pytest.mark.parametrize("zeros", [[], [0, 7, 999]], ids=["plain", "zeros"])
    def test_out_equals_fresh_draw(self, name, zeros):
        draw, n = OUT_DRAWS[name], 1000
        fresh_gen, out_gen = ZeroingGenerator(41, zeros), ZeroingGenerator(41, zeros)
        fresh = draw(fresh_gen, n)
        buf = np.full(n, np.nan)
        got = draw(out_gen, n, buf)
        assert got is buf
        assert got.tobytes() == fresh.tobytes()
        assert out_gen.gen.bit_generator.state == fresh_gen.gen.bit_generator.state
        if name in ("exponentials", "open_unit"):  # any zeros were redrawn
            assert np.all(got > 0.0)

    @pytest.mark.parametrize("name", ["exponentials", "open_unit"])
    def test_redraws_consume_the_stream_in_order(self, name):
        # three zeros in the first draw take the next three draws of the stream
        got = OUT_DRAWS[name](ZeroingGenerator(43, [2, 5, 8]), 10, np.empty(10))
        plain = getattr(np.random.default_rng(43), {"exponentials": "standard_exponential",
                                                    "open_unit": "random"}[name])(13)
        assert got.tolist() == [*plain[:2], plain[10], *plain[3:5], plain[11], *plain[6:8], plain[12], plain[9]]


class TestUnitJumpGenerator:
    def test_bit_reproducible(self):
        for spec in (unit_jump(), poisson_counts(2.0)):
            paths = [term_path(spec.block_sampler(RngStream(45, 2)).take(1), 0) for _ in range(2)]
            assert paths[0] == paths[1]

    def test_path_shape(self):
        path = term_path(unit_jump().block_sampler(RngStream(30)).take(1), 0)
        u = path.jump_times[0]
        assert path.n_jumps == 1
        assert 0.0 < u <= 1.0
        assert path(u / 2.0) == 0.0
        assert path(u) == 1.0
        assert sup_norm(path) == 1.0

    def test_increment_second_moment_is_interval_length(self):
        # E (Y(t2) - Y(t1))^2 = t2 - t1 for the indicator path
        sampler = unit_jump().block_sampler(RngStream(31))
        events = sampler.take(40000)
        pairs = [(0.0, 0.3), (0.2, 0.5), (0.1, 0.9), (0.45, 0.55)]
        inc = interval_increments(events, pairs)[:, :, 0]
        for j, (a, b) in enumerate(pairs):
            x = inc[:, j] ** 2
            se = x.std() / math.sqrt(x.size)
            assert abs(x.mean() - (b - a)) < 4.0 * se


class LayoutThreePoissonTable:
    """The guide-table inverse cdf of Poisson counts as layout 3 pinned it: every count whose weight is
    at least 2^-64 of the mode's, whether a uniform reaches it or not."""

    def __init__(self, lam):
        mode = math.floor(lam)

        def ratios(factors):
            return list(itertools.takewhile(lambda p: p >= 2.0**-64, itertools.accumulate(factors, operator.mul)))

        down, up = ratios(k / lam for k in range(mode, 0, -1)), ratios(lam / k for k in itertools.count(mode + 1))
        weights = [*reversed(down), 1.0, *up]
        total = math.fsum(weights)
        self.first = mode - len(down)
        self.cdf = np.array([*itertools.accumulate(w / total for w in weights[:-1]), math.inf])
        self.guide = np.searchsorted(self.cdf, np.arange(4096) / 4096, side="right")

    def counts(self, gen, n):
        u = gen.random(n)
        i = self.guide[(u * 4096).astype(np.intp)]
        step = np.flatnonzero(self.cdf[i] <= u)
        i[step] = np.searchsorted(self.cdf, u[step], side="right")
        return i + self.first


class TestPoissonGenerator:
    def test_total_count_mean(self):
        lam = 2.0
        events = poisson_counts(lam).block_sampler(RngStream(32)).take(10**5)
        totals = values_at(events, [1.0])[:, 0, 0]
        se = totals.std() / math.sqrt(totals.size)
        assert abs(totals.mean() - lam) < 4.0 * se

    @pytest.mark.parametrize("lam, seed", [(0.05, 36), (1.0, 37), (7.0, 38), (60.0, 39), (1e4, 40)])
    def test_counts_follow_the_poisson_pmf(self, lam, seed):
        # chi-square of 10^6 counts, each tail pooled into the last cell that expects 5 or more,
        # against the pmf from lgamma; 99.9% point by Wilson-Hilferty
        n = 10**6
        counts = poisson_counts(lam).block_sampler(RngStream(seed)).values_at_one(n, np.empty((n, 1)))
        ks = range(int(lam + 12.0 * math.sqrt(lam)) + 20)
        pmf = [math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)) for k in ks]
        cells = [k for k in ks if n * pmf[k] >= 5.0]
        lo, hi = cells[0], cells[-1]
        expected = n * np.array([math.fsum(pmf[:lo + 1]), *pmf[lo + 1:hi], 1.0 - math.fsum(pmf[:hi])])
        observed = np.bincount(np.clip(counts[:, 0].astype(np.int64), lo, hi) - lo, minlength=hi - lo + 1)
        chi2, df = float(np.sum((observed - expected) ** 2 / expected)), hi - lo
        assert chi2 < df * (1.0 - 2.0 / (9 * df) + 3.090 * math.sqrt(2.0 / (9 * df))) ** 3, (chi2, df)

    @pytest.mark.parametrize("lam", [1e-300, 0.05, 1.0, 7.0, 60.0, 1e4, 1e8])
    def test_count_table_grows_like_sqrt_lambda(self, lam):
        table = poisson_counts(lam)._table
        assert table.cdf.size <= 25 + 19 * math.sqrt(lam)
        assert table.cdf[-1] == math.inf and np.all(np.diff(table.cdf) >= 0)
        assert table.guide_counts.size == table.guide_cdf.size == 4096
        assert np.all(np.isin(table.guide_cdf, table.cdf))
        assert table.first <= table.guide_counts.min() and table.guide_counts.max() <= table.offset + table.cdf.size

    @pytest.mark.parametrize("lam", [1.0, 7.0, 1e4, 1e8])
    def test_count_table_keeps_every_count_a_uniform_reaches(self, lam):
        # the smallest and largest uniforms, the first nonzero one, and 10^6 more, against the
        # table cut at 2^-64 of the mode's weight that layout 3 was pinned with
        u = np.concatenate(([0.0, 2.0**-53, 1.0 - 2.0**-53], np.random.default_rng(3).random(10**6)))
        draws = type("Draws", (), {"random": lambda self, n: u[:n].copy()})()
        table, reference = poisson_counts(lam)._table, LayoutThreePoissonTable(lam)
        assert np.array_equal(table.counts(draws, u.size), reference.counts(draws, u.size))
        # entries below 2^-53 (but u = 0.0's) and above 1 - 2^-53 are cut
        assert np.sum(table.cdf[1:] <= 2.0**-53) == 0 and np.sum(table.cdf[:-1] > 1.0 - 2.0**-53) == 0
        if lam == 1e4:
            assert (reference.cdf.size, table.cdf.size) == (1884, 1611)

    def test_intensity_above_the_largest_table_is_refused(self):
        for lam in (1.0000001e8, math.inf, math.nan, 0.0):
            with pytest.raises(ConfigurationError, match=r"poisson intensity must lie in \(0, 1e\+08\]"):
                poisson_counts(lam)

    def test_jump_locations_uniform(self):
        events = poisson_counts(1.0).block_sampler(RngStream(33)).take(20000)
        locs = np.sort(events.times)
        n = locs.size
        # one-sample KS against Uniform(0,1), 1% asymptotic critical value
        grid = (np.arange(1, n + 1)) / n
        d = np.max(np.maximum(np.abs(grid - locs), np.abs(grid - 1.0 / n - locs)))
        assert d < 1.6276 / math.sqrt(n)

    def test_counting_path_is_unit_steps(self):
        path = term_path(poisson_counts(5.0).block_sampler(RngStream(34)).take(1), 0)
        if path.n_jumps:
            assert np.array_equal(path.post_jump_values.ravel(),
                                  np.arange(1, path.n_jumps + 1))

    def test_heights_and_initials_are_read_only_broadcasts(self):
        # every reader must copy before writing: a block allocates no per-event ones
        events = poisson_counts(2.0).block_sampler(RngStream(35)).take(500)
        for arr, value in ((events.heights, 1.0), (events.initials, 0.0)):
            assert arr.strides == (0, 0) and not arr.flags.writeable
            assert np.all(arr == value)
        assert events.heights.shape == (events.times.size, 1) and events.initials.shape == (500, 1)


class TestWeightedJumpsGenerator:
    def test_two_sure_jumps_increment(self):
        # p = 2, R = 1: the full-interval increment is exactly 2, always
        y = weighted_jumps([CdfGrid.uniform(), CdfGrid.uniform()], JumpHeightDist.constant([1.0]))
        events = y.block_sampler(RngStream(35)).take(5000)
        inc = interval_increments(events, [(0.0, 1.0)])[:, 0, 0]
        assert np.all(inc == 2.0)
        assert np.all(inc**2 == 4.0)

    def test_fourth_moment_bound_below_the_heights_is_refused(self):
        # the default example2 envelope is built from the declared bound, so a false one is no warning
        heights = JumpHeightDist(np.array([[3.0]]), np.array([1.0]))  # E R^4 = 81
        with pytest.raises(ConfigurationError, match="fourth-moment bound 1.0 is exceeded"):
            weighted_jumps([CdfGrid.uniform()], heights, fourth_moment_bound=1.0)
        assert weighted_jumps([CdfGrid.uniform()], heights, fourth_moment_bound=81.0).fourth_moment_bound == 81.0

    def test_nan_fourth_moment_bound_is_refused(self):
        # nan compares false both ways: it passed, and its echo wrote the non-JSON token NaN
        heights = JumpHeightDist.constant([1.0])
        with pytest.raises(ConfigurationError, match="fourth-moment bound nan is exceeded"):
            weighted_jumps([CdfGrid.uniform()], heights, fourth_moment_bound=math.nan)
        assert weighted_jumps([CdfGrid.uniform()], heights).fourth_moment_bound == math.inf

    def test_grid_cdf_inverse_sampling(self):
        # cdf concentrating mass on [0, 0.5]
        cdf = CdfGrid(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.9, 1.0]))
        y = weighted_jumps([cdf], JumpHeightDist.constant([1.0]))
        events = y.block_sampler(RngStream(36)).take(20000)
        frac = np.mean(events.times <= 0.5)
        assert abs(frac - 0.9) < 4.0 * math.sqrt(0.09 / 20000)

    def test_locations_at_zero_are_redrawn(self):
        # the inverse of this cdf rounds each u below 1/4 to the location 0.0, where no jump may sit
        cdf = CdfGrid(np.array([0.0, 5e-324, 1.0]), np.array([0.0, 0.5, 1.0]))
        events = weighted_jumps([cdf], JumpHeightDist.constant([1.0])).block_sampler(RngStream(37)).take(1000)
        gen = RngStream(37).substream(0, 0).generator()  # the locations of component 0
        want = cdf.inverse(_draw_open_unit(gen, 1000))
        assert np.sum(want == 0.0) > 100
        while np.any(want == 0.0):  # each 0.0 redrawn in place, from the same stream, until none is left
            zero = want == 0.0
            want[zero] = cdf.inverse(_draw_open_unit(gen, int(zero.sum())))
        assert events.times.tobytes() == want.tobytes()

    @pytest.mark.parametrize("build,arrays", [
        (JumpHeightDist, lambda: (np.array([[1.0, -2.0], [0.5, 3.0]]), np.array([0.5, 0.5]))),
        (EpsilonSpec.table, lambda: (np.array([-1.0, 1.0]), np.array([0.5, 0.5]))),
        (CdfGrid, lambda: (np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.9, 1.0]))),
    ], ids=["heights", "table", "cdf"])
    def test_caller_arrays_stay_writable(self, build, arrays):
        # the spec freezes its own copy of the table, not the caller's arrays
        arrays = arrays()
        build(*arrays)
        assert all(a.flags.writeable for a in arrays)

    def test_cdf_grid_validation(self):
        with pytest.raises(ConfigurationError):
            CdfGrid(np.array([0.0, 1.0]), np.array([0.2, 1.0]))
        with pytest.raises(ConfigurationError):
            CdfGrid(np.array([0.1, 1.0]), np.array([0.0, 1.0]))


def callback_take(paths, gen, n):
    """Oracle: the per-term callback loop that user pools replaced, one ``gen.integers`` per term."""
    d = paths[0].dimension
    blocks_t, blocks_h, counts, initials = [], [], [], []
    for k in range(n):
        path = paths[gen.integers(len(paths))]
        blocks_t.append(path.jump_times)
        blocks_h.append(np.diff(path.segment_values(), axis=0))
        counts.append(path.n_jumps)
        initials.append(path.initial_value)
    return TermEvents(n, d, np.cumsum([0] + counts),
                      np.concatenate([np.empty(0)] + blocks_t),
                      np.concatenate([np.empty((0, d))] + blocks_h), np.array(initials).reshape(n, d))


def _pool_with_empty_path(d, seed=0):
    """A zero-jump path and paths of 1 to 5 jumps on the grid of sixteenths, with normal values."""
    gen = np.random.default_rng(seed)
    paths = [StepPath(d, gen.normal(size=d))]
    for k in range(1, 6):
        times = np.sort(gen.choice(16, k, replace=False) + 1) / 16.0
        paths.append(StepPath(d, gen.normal(size=d), times, gen.normal(size=(k, d))))
    return paths


def _same_state(a, b) -> bool:
    return repr(a.bit_generator.state) == repr(b.bit_generator.state)


class TestUserGenerator:
    def test_round_trips_paths(self):
        fixed = StepPath(1, [0.5], [0.25, 0.75], [[1.0], [-2.0]])
        y = user_paths([fixed])
        path = term_path(y.block_sampler(RngStream(37)).take(1), 0)
        assert path == fixed

    def test_invalid_pool_rejected_at_construction(self):
        fixed = StepPath(1, [0.0], [0.5], [[1.0]])
        for pool in ([], ["not a path"], [fixed, "not a path"], iter([])):
            with pytest.raises(PathValidationError, match="non-empty sequence of StepPaths"):
                user_paths(pool)

    def test_mixed_dimensions_rejected_at_construction(self):
        one, two = StepPath(1, [0.0], [0.5], [[1.0]]), StepPath(2, [0.0, 0.0], [0.5], [[1.0, 1.0]])
        with pytest.raises(PathValidationError, match=r"one dimension, got \[1, 2\]"):
            user_paths([one, two])

    @pytest.mark.parametrize("d", [1, 2])
    def test_overflowing_heights_rejected_at_construction(self, d):
        # each value is finite, but the jump from 1e308 to -1e308 is -inf: values_at at t 0.8 read -inf
        fine = StepPath(d, np.zeros(d), [0.5], np.ones((1, d)))
        values = np.zeros((2, d))
        values[:, -1] = [1e308, -1e308]
        over = StepPath(d, np.zeros(d), [0.25, 0.75], values)
        with pytest.raises(PathValidationError, match=r"user path 1 \(counted from 0\) jumps from .*1e\+308\] to "
                                                      r".*-1e\+308\], a height of .*-inf\]; heights must be finite"):
            user_paths([fine, over])

    def test_dimension_comes_from_the_paths(self):
        y = user_paths(_pool_with_empty_path(2))
        assert y.dimension == 2 and y.echo() == {"variant": "user", "dimension": 2}

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, 7, 1000])
    def test_take_equals_callback_loop(self, d, n):
        paths = _pool_with_empty_path(d)
        sampler = user_paths(paths).block_sampler(RngStream(38))
        gen = RngStream(38).substream(0).generator()
        got, want = sampler.take(n), callback_take(paths, gen, n)
        assert got.n_terms == want.n_terms == n and got.dimension == want.dimension == d
        for field in ("starts", "term_index", "times", "heights", "initials"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field
        assert _same_state(sampler._gen, gen)
        assert sampler.take(5).times.tobytes() == callback_take(paths, gen, 5).times.tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    def test_values_at_one_equals_values_at_on_the_same_stream(self, d):
        y = user_paths(_pool_with_empty_path(d))
        for n in (0, 1, 1000):
            at_one, drawn = y.block_sampler(RngStream(39)), y.block_sampler(RngStream(39))
            out = np.empty((n, d))
            assert at_one.values_at_one(n, out) is out
            assert out.tobytes() == values_at(drawn.take(n), [1.0])[:, 0, :].tobytes()
            assert _same_state(at_one._gen, drawn._gen)


class TestEventReductions:
    def _events(self, spec, n, seed):
        return spec.block_sampler(RngStream(seed)).take(n)

    @pytest.mark.parametrize("y", [poisson_counts(2.0), unit_jump()], ids=["poisson", "unit"])
    def test_terms_slice_a_middle_range_counted_from_zero(self, y):
        events = self._events(y, 50, 40)
        mid = events.terms(20, 35)
        sel = (events.term_index >= 20) & (events.term_index < 35)
        assert mid.n_terms == 15 and mid.width == events.width
        assert np.array_equal(mid.term_index, events.term_index[sel] - 20)
        for field in ("times", "heights"):
            assert getattr(mid, field).tobytes() == getattr(events, field)[sel].tobytes()
        assert np.array_equal(mid.initials, events.initials[20:35])
        assert all(term_path(mid, r) == term_path(events, 20 + r) for r in range(15))
        assert events.terms(0, 50).times.tobytes() == events.times.tobytes()
        assert events.terms(50, 50).times.size == 0
        for a, b in ((40, 51), (-1, 3), (5, 4)):
            with pytest.raises(ValueError, match=f"terms {a} to {b} requested from 50"):
                events.terms(a, b)

    @pytest.mark.parametrize("y", [unit_jump(), WEIGHTED_2D, poisson_counts(1.0), user_paths(_pool_with_empty_path(2)),
                                   long_tail_pool()], ids=["unit", "weighted2d", "poisson1", "user2d", "user_long_tail"])
    def test_block_layout(self, y):
        # term r holds the events offset(r) to offset(r + 1) - 1; a variable-width block stores those
        # offsets as its starts, a fixed-width block none
        events = self._events(y, 300, 44)
        for a, b in ((0, 300), (17, 230), (299, 300), (0, 0), (120, 120), (300, 300)):
            block = events.terms(a, b)
            starts = np.array([block.offset(r) for r in range(block.n_terms + 1)], dtype=np.int64)
            assert (block.starts is None) == (block.width is not None)
            if block.starts is not None:
                assert block.starts.dtype == np.int64 and np.array_equal(block.starts, starts)
            assert starts[0] == 0 and np.all(np.diff(starts) >= 0) and starts[-1] == block.times.size
            index = block.term_index
            assert index.size == block.times.size and np.all(np.diff(index) >= 0)
            assert np.array_equal(np.searchsorted(index, np.arange(block.n_terms + 1)), starts)
            assert block.times.tobytes() == events.times[events.offset(a):events.offset(b)].tobytes()

    def test_term_sup_norms_match_path_oracle(self):
        for spec, seed in ((poisson_counts(3.0), 41), (unit_jump(), 42)):
            events = self._events(spec, 50, seed)
            sups = term_sup_norms(events)
            for r in range(50):
                mask = events.term_index == r
                vals = events.initials[r] + np.cumsum(events.heights[mask], axis=0)
                oracle = max(float(np.max(np.abs(vals))) if vals.size else 0.0,
                             float(np.max(np.abs(events.initials[r]))))
                assert sups[r] == oracle

    def test_term_value_extremes(self):
        fixed = StepPath(1, [1.0], [0.3, 0.6], [[-2.0], [0.5]])
        y = user_paths([fixed])
        events = self._events(y, 3, 43)
        vmax, vmin = term_value_extremes(events)
        assert np.all(vmax == 1.0)
        assert np.all(vmin == -2.0)

    def test_values_at_right_continuity(self):
        fixed = StepPath(1, [0.0], [0.5], [[1.0]])
        y = user_paths([fixed])
        events = self._events(y, 2, 44)
        vals = values_at(events, [0.4999, 0.5, 1.0])
        assert np.array_equal(vals[:, :, 0], [[0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])

    @pytest.mark.parametrize("t", [-0.5, 1.5, math.nan])
    def test_values_at_refuses_a_time_outside_the_unit_interval(self, t):
        # values at t are the increments over (0, t], so t must lie in [0, 1] as an interval end does
        events = self._events(unit_jump(), 5, 45)
        with pytest.raises(DomainError, match="0 <= a <= b <= 1"):
            values_at(events, [0.5, t])
        assert values_at(events, [0.0])[:, 0, 0].tolist() == [0.0] * 5


def _signed_weighted_jumps():
    cdfs = [CdfGrid.uniform(), CdfGrid(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.9, 1.0])),
            CdfGrid.uniform()]
    heights = JumpHeightDist(np.array([[1.0, -2.0], [-1.5, 0.5], [0.25, 1.0]]),
                             np.array([0.4, 0.35, 0.25]))
    return weighted_jumps(cdfs, heights)


def _argsort_oracle(events, r):
    """Times and post-jump values of term r, its events ordered by np.argsort of their times."""
    idx = np.nonzero(events.term_index == r)[0]
    idx = idx[np.argsort(events.times[idx])]
    return events.times[idx], events.initials[r] + np.cumsum(events.heights[idx], axis=0)


def _is_time_ordered(events):
    ti, t = events.term_index, events.times
    return bool(np.all((ti[1:] > ti[:-1]) | (t[1:] > t[:-1])))


class TestTimeOrderedReaders:
    """Blocks come grouped by term but not time-ordered inside a term; every
    reader that walks a path in time order must match a per-term argsort oracle."""

    SPECS = {"poisson": lambda: poisson_counts(5.0), "weighted": _signed_weighted_jumps}

    @pytest.mark.parametrize("alpha", [1.5, 0.8, 0.3])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_readers_match_argsort_oracle(self, name, alpha):
        y = self.SPECS[name]()
        spec = SeriesSpec(alpha=alpha, truncation_n=60, epsilon=EpsilonSpec.rademacher(), y_gen=y, seed=50)
        real = ReplicateOracle(spec)
        events = real.events
        assert not _is_time_ordered(events)
        vmax, vmin = term_value_extremes(events)
        sups = term_sup_norms(events)
        for r in range(60):
            times, values = _argsort_oracle(events, r)
            init = events.initials[r]
            assert vmax[r] == max(init.max(), values.max(initial=-np.inf))
            assert vmin[r] == min(init.min(), values.min(initial=np.inf))
            assert sups[r] == max(np.abs(init).max(), np.abs(values).max(initial=0.0))
            assert term_path(events, r) == StepPath(y.dimension, init, times, values)
        assert np.array_equal(partial_sum(spec, with_term_norms=True).per_term_norms, np.abs(real.coeffs) * sups)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_gen_path_matches_argsort_oracle(self, name):
        y = self.SPECS[name]()
        unordered = 0
        for seed in range(20):
            block = y.block_sampler(RngStream(seed).substream(_Y_ROLE)).take(1)
            unordered += not _is_time_ordered(block)
            times, values = _argsort_oracle(block, 0)
            assert term_path(block, 0) == StepPath(y.dimension, block.initials[0], times, values)
        assert unordered > 0


def per_term_cumsum_extremes(events):
    """Oracle: each term's own time-ordered cumsum, one term at a time."""
    order = np.lexsort((events.times, events.term_index))
    ti, heights = events.term_index[order], events.heights[order]
    bounds = np.searchsorted(ti, np.arange(events.n_terms + 1))
    vmax, vmin = events.initials.max(axis=1), events.initials.min(axis=1)
    for i in range(events.n_terms):
        running = np.cumsum(heights[bounds[i]:bounds[i + 1]], axis=0) + events.initials[i]
        vmax[i] = max(vmax[i], running.max(initial=-np.inf))
        vmin[i] = min(vmin[i], running.min(initial=np.inf))
    return vmax, vmin


def _normal_path(gen, d=2):
    """0 to 8 jumps with normal segment values, so running sums round."""
    k = int(gen.integers(0, 9))
    return StepPath(d, gen.normal(size=d), np.sort(gen.random(k)) * 0.5 + 0.25, gen.normal(size=(k, d)))


def normal_pool(d=2, size=256, seed=0):
    """A pool of ``size`` draws of :func:`_normal_path`."""
    gen = np.random.default_rng(seed)
    return user_paths([_normal_path(gen, d) for _ in range(size)])


class TestTiedJumpTimes:
    """At a tie only the last event at that time ends a segment: a partial sum between tied events is no value."""

    def test_within_term_tie_skips_the_partial_sum(self):
        # term 0 jumps +5 and -5 at 0.5, so it never leaves 0; term 1 has no tie
        events = TermEvents(2, 1, None, np.array([0.5, 0.5, 0.2, 0.7]), np.array([[5.0], [-5.0], [2.0], [-3.0]]),
                            np.zeros((2, 1)), 2)
        vmax, vmin = term_value_extremes(events)
        assert vmax.tolist() == [0.0, 2.0]
        assert vmin.tolist() == [0.0, -1.0]

    def test_cross_term_tie_in_one_row_skips_the_partial_sum(self):
        # row 0 holds two terms: term 0 jumps +4 and term 1 jumps -4, both at 0.3, then term 1 jumps +1 at 0.9;
        # row 1 holds one event, so its row is padded with +inf times, which are not ties
        rows = TermEvents(2, 1, np.array([0, 3, 4]), np.array([0.3, 0.3, 0.9, 0.6]),
                          np.array([[4.0], [-4.0], [1.0], [-2.5]]), np.array([[0.5], [0.0]]))
        sup, vmax, vmin = _row_extremes(_padded_terms(rows, np.arange(2)))
        assert vmax.tolist() == [1.5, 0.0]
        assert vmin.tolist() == [0.5, -2.5]
        assert sup.tolist() == [1.5, 2.5]


def one_long_path_pool(d=2, seed=0):
    """Eight :func:`_normal_path` draws and one path of more jumps than a tile of events holds."""
    gen = np.random.default_rng(seed)
    k = (1 << 14) + 1000
    long = StepPath(d, gen.normal(size=d), np.sort(gen.random(k)), gen.normal(size=(k, d)))
    return user_paths([_normal_path(gen, d) for _ in range(8)] + [long])


class TestExactTermExtremes:
    @pytest.mark.parametrize("y,n", [
        (poisson_counts(1.0), 3000), (poisson_counts(7.0), 3000), (normal_pool(2), 3000),
        (poisson_counts(1.0), 40_000),  # tiles of 1 to 9 events per term, and one of terms with none
        (unit_jump(), 40_000),  # tiles of 2^14 terms, the last one partial
        (one_long_path_pool(), 300),  # the long path's terms in tiles of one term each
        (long_tail_pool(), 20_000),  # the 1000-jump path's terms in tiles of 16
    ], ids=["poisson1", "poisson7", "user2d", "poisson1_many_tiles", "unit_many_tiles", "user_one_long_path",
            "user_long_tail"])
    def test_variable_width_blocks_match_per_term_cumsum(self, y, n):
        events = y.block_sampler(RngStream(62)).take(n)
        for got, want in zip(term_value_extremes(events), per_term_cumsum_extremes(events)):
            assert got.tobytes() == want.tobytes()

    def test_padding_stays_within_a_tile(self):
        # each tile is padded on its own; the whole block padded into rows at once takes hundreds of MB
        events = poisson_counts(1.0).block_sampler(RngStream(63)).take(10**6)
        tracemalloc.start()
        try:
            term_value_extremes(events)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_a_long_term_pads_only_its_own_tiles(self, monkeypatch):
        # one term in 8 has 1000 events; padding every tile to it took 7 times the slots of the events
        events = long_tail_pool().block_sampler(RngStream(64)).take(50_000)
        slots = []

        def counted(part, *args):
            slots.append(part.n_terms * part.width)
            return row_extremes(part, *args)

        row_extremes = random_inputs._row_extremes
        monkeypatch.setattr(random_inputs, "_row_extremes", counted)
        tracemalloc.start()
        try:
            term_value_extremes(events)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(slots) < 1.01 * events.times.size
        assert peak < 8e6

    def test_weighted_jumps_match_per_term_cumsum(self):
        # sums of 1.1, -0.7 and 0.3 round differently in a block-wide cumsum
        y = weighted_jumps([CdfGrid.uniform()] * 3,
                           JumpHeightDist(np.array([[1.1], [-0.7], [0.3]]), np.full(3, 1.0 / 3.0)))
        n = 10**6
        spec = SeriesSpec(alpha=1.5, truncation_n=n, epsilon=EpsilonSpec.rademacher(), y_gen=y, seed=61)
        real = ReplicateOracle(spec)
        events = real.events
        order = np.lexsort((events.times, events.term_index))
        running = np.cumsum(events.heights[order, 0].reshape(n, 3), axis=1)
        vmax = np.maximum(0.0, running.max(axis=1))
        vmin = np.minimum(0.0, running.min(axis=1))
        got_max, got_min = term_value_extremes(events)
        assert np.array_equal(got_max, vmax)
        assert np.array_equal(got_min, vmin)
        sups = np.maximum(np.abs(vmax), np.abs(vmin))
        assert np.array_equal(partial_sum(spec, with_term_norms=True).per_term_norms, np.abs(real.coeffs) * sups)

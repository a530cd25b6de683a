import math

import numpy as np
import pytest

from lepage.random_inputs import (
    CdfGrid,
    ConfigurationError,
    EpsilonSpec,
    JumpHeightDist,
    poisson_counts,
    unit_jump,
    weighted_jumps,
)
from lepage import stable_checks
from lepage.parallel import chunk_size, map_replicates
from lepage.rng import RngStream
from lepage.series import PathStatsSample, SeriesSpec, sample_path_stats
from lepage.stable_checks import (
    WindowError,
    auto_window,
    ecf,
    estimate_alpha,
    full_sphere,
    ks_statistic,
    ks_threshold,
    nonnegative_path,
    norm_equals,
    oracle_family_distance,
    regular_variation_table,
    spectral_estimate,
    stable_oracle,
    sum_stability_test,
    tail_quantile_bn,
)
from test_random_inputs import normal_pool, per_term_cumsum_extremes

RAD = EpsilonSpec.rademacher()


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def ks_one_sample(samples, cdf):
    s = np.sort(samples)
    n = s.size
    theo = np.array([cdf(x) for x in s])
    grid = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(np.abs(grid - theo), np.abs(grid - 1.0 / n - theo))))


class TestEcf:
    def test_constant_samples(self):
        phi = ecf(np.full(100, 2.0), [0.5, 1.0])
        assert np.allclose(phi, np.exp(1j * np.array([0.5, 1.0]) * 2.0))
        assert np.allclose(np.abs(phi), 1.0)

    def test_zero_u_rejected(self):
        with pytest.raises(ConfigurationError):
            ecf(np.ones(10), [0.0, 1.0])

    def test_duplicate_u_rejected(self):
        with pytest.raises(ConfigurationError):
            ecf(np.ones(10), [1.0, 1.0])

    def test_empty_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            ecf(np.empty(0), [1.0])

    def test_conjugate_symmetry_exact(self):
        x = np.random.Generator(np.random.Philox(1)).standard_normal(1000)
        u = np.array([0.3, 1.1, 2.7])
        pos = ecf(x, u)
        neg = ecf(x, -u)
        assert np.array_equal(neg, np.conj(pos))

    def test_paired_symmetric_samples_real(self):
        x = np.concatenate([np.arange(1.0, 50.0), -np.arange(1.0, 50.0)])
        phi = ecf(x, [0.7, 1.3])
        assert np.all(phi.imag == 0.0)


class TestEstimateAlpha:
    def test_gaussian_slope_two(self):
        x = np.random.Generator(np.random.Philox(2)).standard_normal(100_000)
        est = estimate_alpha(x)
        assert 1.9 <= est.alpha <= 2.1

    def test_cauchy_slope_one(self):
        gen = np.random.Generator(np.random.Philox(3))
        x = gen.standard_normal(100_000) / gen.standard_normal(100_000)
        est = estimate_alpha(x)
        assert 0.9 <= est.alpha <= 1.1

    def test_oracle_alpha_recovered(self):
        x = stable_oracle(1.5, 1.0, RngStream(4), 100_000)
        est = estimate_alpha(x)
        assert 1.4 <= est.alpha <= 1.6

    def test_scale_invariance(self):
        x = stable_oracle(1.3, 1.0, RngStream(5), 50_000)
        a1 = estimate_alpha(x).alpha
        a2 = estimate_alpha(1000.0 * x).alpha
        assert abs(a1 - a2) < 1e-6

    def test_window_errors(self):
        # degenerate constant samples pin |ecf| = 1 on any window
        with pytest.raises(WindowError):
            estimate_alpha(np.zeros(1000), u_window=(0.5, 2.0))
        x = stable_oracle(1.5, 1.0, RngStream(6), 1000)
        with pytest.raises(WindowError):
            estimate_alpha(x, u_window=(-1.0, 1.0))

    def test_auto_window_band(self):
        x = stable_oracle(1.5, 1.0, RngStream(7), 50_000)
        lo, hi = auto_window(x)
        mod = np.abs(ecf(x, [lo, hi]))
        assert 0.9 <= mod[0] <= 0.97
        assert 0.03 <= mod[1] <= 0.1


class TestStableOracle:
    def test_alpha_two_is_gaussian(self):
        s = 0.7
        x = stable_oracle(2.0, s, RngStream(8), 100_000)
        sd = s * math.sqrt(2.0)
        d = ks_one_sample(x, lambda v: normal_cdf(v / sd))
        assert d < 1.6276 / math.sqrt(x.size)

    def test_alpha_one_is_cauchy(self):
        x = stable_oracle(1.0, 1.0, RngStream(9), 100_000)
        gen = np.random.Generator(np.random.Philox(10))
        ratio = gen.standard_normal(100_000) / gen.standard_normal(100_000)
        assert ks_statistic(x, ratio) < ks_threshold(x.size, ratio.size)

    def test_median_zero_for_all_alpha(self):
        for alpha in (0.7, 1.0, 1.3, 1.5, 1.8, 2.0):
            x = stable_oracle(alpha, 1.0, RngStream(11), 20_000)
            # median SE ~ 1.25 * IQR-scale / sqrt(n); use a sign-count bound instead
            pos = np.mean(x > 0)
            assert abs(pos - 0.5) < 4.0 * math.sqrt(0.25 / x.size)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            stable_oracle(2.5, 1.0, RngStream(12), 10)
        with pytest.raises(ConfigurationError):
            stable_oracle(1.5, 0.0, RngStream(12), 10)


class TestKs:
    def test_identical_samples_zero(self):
        x = np.zeros(100)
        assert ks_statistic(x, x) == 0.0

    def test_hand_computed(self):
        # F1 jumps at 0,1; F2 jumps at 0.5: max gap 0.5 at 0 <= t < 0.5
        assert ks_statistic([0.0, 1.0], [0.5, 0.5]) == 0.5

    def test_threshold_formula(self):
        assert ks_threshold(10_000, 10_000) == pytest.approx(
            math.sqrt(-math.log(0.005) / 2.0) * math.sqrt(2.0 / 10_000), rel=1e-12
        )


class TestSumStability:
    def test_oracle_samples_pass(self):
        x = stable_oracle(1.5, 1.0, RngStream(13), 30_000)
        res = sum_stability_test(x, 1.5, RngStream(14))
        assert res.passed

    def test_oracle_alpha_grid_mostly_passes(self):
        # exact stability of the oracle: at least 4 of 5 seeds per alpha
        for alpha in (0.7, 1.0, 1.3, 1.5, 1.8):
            passes = 0
            for seed in range(5):
                x = stable_oracle(alpha, 1.0, RngStream(32, seed), 15_000)
                passes += sum_stability_test(x, alpha, RngStream(33, seed)).passed
            assert passes >= 4, f"alpha={alpha}: {passes}/5"

    def test_uniform_samples_fail(self):
        u = np.random.Generator(np.random.Philox(15)).uniform(-1, 1, 30_000)
        res = sum_stability_test(u, 1.5, RngStream(16))
        assert not res.passed

    def test_degenerate_zero_samples(self):
        res = sum_stability_test(np.zeros(900), 1.0, RngStream(17))
        assert res.ks == 0.0
        assert res.passed

    def test_small_sample_warns(self):
        with pytest.warns(UserWarning, match="power"):
            sum_stability_test(np.arange(90.0) - 45.0, 1.5, RngStream(18))


def raw_moment_spectral(eps_spec, y, alpha, events, replicates, stream):
    """Masses, their SEs and the normalizer (mean, SE) on the draws of ``spectral_estimate``,
    from per-chunk raw moment sums and the delta method on the joint means.  Its variances
    divide by R, not R - 1."""

    def one_chunk(sub, m):
        eps = eps_spec.sample(sub.substream(0).generator(), m)
        vmax, vmin = stable_checks.term_value_extremes(y.block_sampler(sub.substream(1)).take(m))
        sup = np.maximum(np.abs(vmax), np.abs(vmin))
        w = np.abs(eps) ** alpha * sup**alpha
        acc = {"w": np.sum(w), "w2": np.sum(w * w)}
        for ev in events:
            wa = w * ev.evaluate(np.sign(eps), sup, vmax, vmin)
            acc[ev.name], acc[ev.name + "/2"], acc[ev.name + "/x"] = np.sum(wa), np.sum(wa * wa), np.sum(wa * w)
        return acc

    parts = map_replicates(one_chunk, stream.substream(stable_checks._TAG_SPECTRAL), replicates, 1)

    def mean(key):
        return math.fsum(p[key] for p in parts) / replicates

    d_mean = mean("w")
    d_var = max(mean("w2") - d_mean**2, 0.0)
    masses = {}
    for ev in events:
        n_mean = mean(ev.name)
        mass = n_mean / d_mean
        n_var = max(mean(ev.name + "/2") - n_mean**2, 0.0)
        cov = mean(ev.name + "/x") - n_mean * d_mean
        var = max(n_var - 2.0 * mass * cov + mass**2 * d_var, 0.0) / (replicates * d_mean**2)
        masses[ev.name] = (mass, math.sqrt(var))
    return masses, (d_mean, math.sqrt(d_var / replicates))


class TestSpectralEstimate:
    def test_full_sphere_exactly_one(self):
        est = spectral_estimate(RAD, unit_jump(), 1.5, [full_sphere()], 5000, RngStream(19))
        assert est.mass("full_sphere") == 1.0

    def test_sign_symmetry_half(self):
        est = spectral_estimate(RAD, unit_jump(), 1.5,
                                [nonnegative_path()], 50_000, RngStream(20))
        mass, se = est.event_masses["nonnegative_path"]
        assert abs(mass - 0.5) < 4.0 * se

    def test_two_atom_norm_mass(self):
        y = weighted_jumps([CdfGrid.uniform()],
                           JumpHeightDist(np.array([[1.0], [2.0]]), np.array([0.5, 0.5])))
        est = spectral_estimate(RAD, y, 1.5, [norm_equals(2.0)], 50_000, RngStream(21))
        # brute force over the two-atom height law: sigma = 2^a / (1 + 2^a)
        want = 2.0**1.5 / (1.0 + 2.0**1.5)
        mass, se = est.event_masses["norm_equals_2"]
        assert abs(mass - want) < 4.0 * se

    def test_matches_raw_moment_delta_method(self):
        # two-atom weighted jumps, 4 full chunks and a short one.  The raw-moment variances
        # divide by R, so their SEs times sqrt(R / (R - 1)) are the SEs of the residual rows.
        # E[x^2] - E[x]^2 may cancel digits; here they agree to about 1e-15
        y = weighted_jumps([CdfGrid.uniform()],
                           JumpHeightDist(np.array([[1.0], [2.0]]), np.array([0.5, 0.5])))
        events = [full_sphere(), nonnegative_path(), norm_equals(2.0)]
        replicates = 4 * chunk_size(1) + chunk_size(1) // 3
        est = spectral_estimate(RAD, y, 1.5, events, replicates, RngStream(26))
        masses, (d_mean, d_se) = raw_moment_spectral(RAD, y, 1.5, events, replicates, RngStream(26))
        scale = math.sqrt(replicates / (replicates - 1))
        for ev in events:
            mass, se = est.event_masses[ev.name]
            assert mass == pytest.approx(masses[ev.name][0], rel=1e-14, abs=0.0)
            assert se == pytest.approx(masses[ev.name][1] * scale, rel=1e-12, abs=0.0)
        assert est.normalizer[0] == pytest.approx(d_mean, rel=1e-14, abs=0.0)
        assert est.normalizer[1] == pytest.approx(d_se * scale, rel=1e-12, abs=0.0)

    def test_disjoint_additivity(self):
        y = weighted_jumps([CdfGrid.uniform()],
                           JumpHeightDist(np.array([[1.0], [2.0]]), np.array([0.5, 0.5])))
        events = [full_sphere(), norm_equals(1.0), norm_equals(2.0)]
        est = spectral_estimate(RAD, y, 1.5, events, 20_000, RngStream(22))
        total = est.mass("norm_equals_1") + est.mass("norm_equals_2")
        # masses are ratios of exact accumulated sums; the division leaves
        # at most an ulp of slack
        assert total == pytest.approx(est.mass("full_sphere"), rel=1e-14)

    def test_replicate_floor(self):
        with pytest.raises(ConfigurationError):
            spectral_estimate(RAD, unit_jump(), 1.5, [full_sphere()], 999, RngStream(24))

    @staticmethod
    def check_extremes_equal_per_term_cumsum(monkeypatch, y, events):
        """Blocks reach ``term_value_extremes`` as drawn, with no time-order pre-sort,
        and give the masses that the per-term cumsum oracle gives."""
        blocks = []

        def recorded(blk):
            blocks.append(blk)
            return per_term_cumsum_extremes(blk)

        got = spectral_estimate(RAD, y, 1.5, events, 3000, RngStream(25)).rows()
        monkeypatch.setattr(stable_checks, "term_value_extremes", recorded)
        want = spectral_estimate(RAD, y, 1.5, events, 3000, RngStream(25)).rows()
        assert blocks and got == want

    def test_weighted_jump_extremes_equal_per_term_cumsum(self, monkeypatch):
        # partial sums of 1.1, -0.7 and 0.3 round differently in a block-wide cumsum
        y = weighted_jumps([CdfGrid.uniform()] * 3,
                           JumpHeightDist(np.array([[1.1], [-0.7], [0.3]]), np.full(3, 1.0 / 3.0)))
        events = [nonnegative_path(), norm_equals(1.1), norm_equals(0.7)]
        self.check_extremes_equal_per_term_cumsum(monkeypatch, y, events)

    @pytest.mark.parametrize("y,events", [
        # events unsorted inside each term
        (poisson_counts(1.0), [nonnegative_path(), norm_equals(1.0), norm_equals(2.0)]),
        # running values that round
        (normal_pool(1), [nonnegative_path(), full_sphere()]),
    ], ids=["poisson1", "user1d"])
    def test_variable_width_extremes_equal_per_term_cumsum(self, monkeypatch, y, events):
        self.check_extremes_equal_per_term_cumsum(monkeypatch, y, events)


class TestTailQuantile:
    def test_order_statistic_definition(self):
        assert tail_quantile_bn(np.arange(1.0, 101.0), 10) == 90.0

    def test_boundary_n_one_returns_max(self):
        assert tail_quantile_bn(np.arange(1.0, 101.0), 1) == 100.0

    def test_resolution_error(self):
        with pytest.raises(ConfigurationError, match="resolution"):
            tail_quantile_bn(np.ones(5), 10)

    def test_negative_norm_rejected(self):
        with pytest.raises(ConfigurationError, match="nonnegative"):
            tail_quantile_bn(np.array([3.0, 1.0, -0.5, 2.0]), 2)

    def test_low_sample_warning(self):
        with pytest.warns(UserWarning):
            tail_quantile_bn(np.arange(1.0, 51.0), 10)

    def test_monotone_in_n(self):
        x = np.random.Generator(np.random.Philox(25)).standard_exponential(10_000)
        values = [tail_quantile_bn(x, n) for n in (2, 5, 10, 50, 100, 500)]
        assert values == sorted(values)

    def test_pareto_scaling(self):
        # Pareto(alpha): P(X > x) = x^-alpha, exact quantile b_n = n^(1/alpha)
        alpha = 1.5
        u = np.random.Generator(np.random.Philox(26)).random(200_000)
        x = (1.0 - u) ** (-1.0 / alpha)
        ratios = [tail_quantile_bn(x, n) / n ** (1.0 / alpha) for n in (10, 100, 1000)]
        for r in ratios:
            assert abs(r - 1.0) < 0.25


class TestRegularVariationTable:
    def _stats(self, seed=27, n_paths=20_000, depth=200):
        spec = SeriesSpec(1.5, depth, RAD, unit_jump(), seed=seed)
        return sample_path_stats(spec, n_paths)

    def test_full_sphere_conditional_is_one(self):
        table = regular_variation_table(self._stats(), [full_sphere()], [1.0, 2.0], 50, 1.5)
        for row in table.rows:
            if row.exceed_count:
                assert row.cond_prob == 1.0

    def test_sign_symmetry_under_conditioning(self):
        table = regular_variation_table(self._stats(), [nonnegative_path()], [1.0], 50, 1.5)
        (row,) = table.rows
        assert abs(row.cond_prob - 0.5) < 4.0 * row.se

    def test_no_data_marking(self):
        table = regular_variation_table(self._stats(), [full_sphere()], [1e9], 50, 1.5)
        (row,) = table.rows
        assert row.exceed_count == 0
        assert row.cond_prob is None
        assert row.row()["cond_prob"] == "no data"

    def test_accepts_step_paths(self):
        # the stats of the 50 paths that start at 0 and jump to k + 1 at t = 0.5
        tops = np.arange(1.0, 51.0)
        stats = PathStatsSample(sup=tops, vmax=tops, vmin=np.zeros(50))
        table = regular_variation_table(stats, [full_sphere(), nonnegative_path()],
                                        [1.0], 5, 1.5)
        for row in table.rows:
            if row.event == "nonnegative_path" and row.exceed_count:
                assert row.cond_prob == 1.0


class TestOracleFamilyDistance:
    def test_oracle_close_to_itself(self):
        x = stable_oracle(1.5, 2.0, RngStream(28), 20_000)
        fd = oracle_family_distance(x, 1.5, RngStream(29))
        assert fd.ratio < 2.0

    def test_uniform_far_from_family(self):
        u = np.random.Generator(np.random.Philox(30)).uniform(-1, 1, 20_000)
        fd = oracle_family_distance(u, 1.5, RngStream(31))
        assert fd.ratio > 2.0

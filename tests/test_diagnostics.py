import itertools
import math
import warnings

import numpy as np
import pytest

import lepage.diagnostics as diagnostics
from lepage.diagnostics import (
    MomentEnvelope,
    PARTITION_CARDINALITY_NOTE,
    TightnessResult,
    _verdict,
    borel_cantelli_sum,
    centered_first_moment_sum,
    default_envelopes,
    enumerate_partitions,
    estimate_c1,
    estimate_c2,
    moment_constant,
    partition_envelope_exponents,
    partition_label,
    partition_report,
    partition_sum,
    tightness_functional,
)
from lepage.parallel import chunk_size, map_replicates
from lepage.paths import DomainError, StepPath
from lepage.random_inputs import (
    CdfGrid,
    ConfigurationError,
    EpsilonSpec,
    JumpHeightDist,
    interval_increments,
    poisson_counts,
    unit_jump,
    user_paths,
    weighted_jumps,
)
from lepage.rng import RngStream
from lepage.series import SeriesSpec, sample_weighted_increments

RAD = EpsilonSpec.rademacher()
TWO_POINT = EpsilonSpec.two_point(0.8, -1.0, 4.0)


# -- independent oracles used by several tests --------------------------------


def tuple_moment_factor(eps, block_size, index, alpha):
    """|E eps~^b| per the bounding convention: abs mean for singletons,
    absolute moment otherwise; computed straight from the atom definition."""
    i = np.array([float(index)])
    if block_size == 1:
        return abs(float(eps.truncated_mean(i, alpha)[0]))
    return float(eps.truncated_abs_moment(float(block_size), i, alpha)[0])


def brute_force_full_tuple_sum(alpha, eps, n):
    """Sum over all n^4 index tuples of weight * per-block moment product."""
    total = []
    for t in itertools.product(range(1, n + 1), repeat=4):
        w = (t[0] * t[1] * t[2] * t[3]) ** (-1.0 / alpha)
        counts = {}
        for i in t:
            counts[i] = counts.get(i, 0) + 1
        f = 1.0
        for i, b in counts.items():
            f *= tuple_moment_factor(eps, b, i, alpha)
        total.append(w * f)
    return math.fsum(total)


def recursive_partitions(items):
    """Independent recursive set-partition enumeration (test oracle)."""
    if len(items) == 1:
        return [((items[0],),)]
    head, rest = items[0], items[1:]
    out = []
    for part in recursive_partitions(rest):
        out.append(((head,),) + part)
        for j in range(len(part)):
            grown = tuple(sorted((head,) + part[j]))
            out.append(part[:j] + (grown,) + part[j + 1:])
    return [tuple(sorted(p, key=lambda b: b[0])) for p in out]


# -- envelopes ----------------------------------------------------------------


class TestMomentEnvelope:
    def test_beta_must_exceed_half(self):
        with pytest.raises(ConfigurationError):
            MomentEnvelope(beta=0.5)

    def test_identity_bounds(self):
        env = MomentEnvelope(beta=1.0)
        assert env.pair_bound(0.2, 0.7) == pytest.approx(0.5)
        assert env.triple_bound(0.2, 0.7) == pytest.approx(0.25)

    def test_poly(self):
        env = MomentEnvelope(beta=1.0, coeffs=(2.0, 4.0))
        assert env.f(0.5) == pytest.approx(2.0)  # 2*0.5 + 4*0.25

    def test_default_envelopes(self):
        e1, e2 = default_envelopes(unit_jump())
        assert e1.coeffs == (1.0,) and e1.grid_xs is None and e1.beta == 1.0
        p1, _ = default_envelopes(poisson_counts(2.0))
        assert p1.f(1.0) == pytest.approx(6.0)  # 2 + 4
        with pytest.raises(ConfigurationError):
            default_envelopes(user_paths([StepPath(1, [0.0])]))

    def test_weighted_jump_default_is_the_scaled_cdf_sum_on_the_union_grid(self):
        cdfs = [CdfGrid(np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.7, 1.0])), CdfGrid.uniform()]
        dist = JumpHeightDist(np.array([[1.1], [-0.7], [0.3]]), np.array([0.3, 0.3, 0.4]))
        env, env2 = default_envelopes(weighted_jumps(cdfs, dist))
        assert env is env2 and env.beta == 2.0
        scale = dist.fourth_moment() ** 0.25 * 2

        def want(t):
            return scale * sum(cdf(t) for cdf in cdfs)

        knots = np.array([0.0, 0.3, 1.0])
        assert np.array_equal(env.grid_xs, knots) and np.array_equal(env.f(knots), want(knots))
        t = np.linspace(0.0, 1.0, 1001)
        assert np.all(np.abs(env.f(t) - want(t)) <= 4 * np.spacing(want(t)))

    @pytest.mark.parametrize("params", [
        {"beta": math.inf}, {"coeffs": ()}, {"coeffs": (math.nan,)}, {"coeffs": (math.inf,)},
        {"grid_xs": [], "grid_ys": []}, {"grid_xs": [0.0, math.nan, 1.0], "grid_ys": [0.0, 0.5, 1.0]},
        {"grid_xs": [0.0, 1.0], "grid_ys": [0.0, math.inf]},
    ], ids=["beta-inf", "no-coeffs", "coeff-nan", "coeff-inf", "empty-grid", "grid-xs-nan", "grid-ys-inf"])
    def test_non_finite_or_empty_parameters_are_rejected(self, params):
        with pytest.raises(ConfigurationError):
            MomentEnvelope(**{"beta": 1.0, **params})


# -- increment-moment estimates ------------------------------------------------


class TestEstimateC1:
    def test_unit_jump_matches_interval_length(self):
        env = MomentEnvelope(beta=1.0)
        rep = estimate_c1(unit_jump(), [(0.2, 0.7)], 100_000, env, RngStream(50))
        (entry,) = rep.entries
        assert abs(entry.estimate - 0.5) < 4.0 * entry.se
        assert entry.verdict != "violated"

    def test_degenerate_pair_is_exact_zero(self):
        env = MomentEnvelope(beta=1.0)
        rep = estimate_c1(unit_jump(), [(0.4, 0.4)], 1000, env, RngStream(51))
        assert rep.entries[0].estimate == 0.0
        assert rep.entries[0].se == 0.0
        assert rep.entries[0].verdict == "satisfied"

    def test_poisson_closed_form(self):
        # lam*dt + lam^2*dt^2 with lam=2, dt=0.5 -> 2.0
        lam = 2.0
        env, _ = default_envelopes(poisson_counts(lam))
        rep = estimate_c1(poisson_counts(lam), [(0.0, 0.5)], 100_000, env, RngStream(52))
        (entry,) = rep.entries
        assert abs(entry.estimate - 2.0) < 4.0 * entry.se

    def test_ordering_validated(self):
        with pytest.raises(DomainError):
            estimate_c1(unit_jump(), [(0.7, 0.2)], 1000, MomentEnvelope(beta=1.0), RngStream(53))

    def test_minimum_replicates(self):
        with pytest.raises(ConfigurationError):
            estimate_c1(unit_jump(), [(0.0, 0.5)], 99, MomentEnvelope(beta=1.0), RngStream(54))

    def test_engineered_violation(self):
        big = StepPath(1, [0.0], [0.5], [[10.0]])
        y = user_paths([big])
        rep = estimate_c1(y, [(0.4, 0.6)], 1000, MomentEnvelope(beta=1.0), RngStream(55))
        assert rep.entries[0].estimate == 100.0
        assert rep.entries[0].verdict == "violated"
        assert rep.violated

    def test_se_does_not_cancel_at_large_mean(self):
        # squared increments are 1e12 or about 1e12 + 2e3: a sum of squares
        # minus R * mean^2 loses the whole spread to rounding
        lo, hi = (StepPath(1, [0.0], [0.5], [[h]]) for h in (1e6, 1e6 + 1e-3))
        y = user_paths([lo, hi])  # each with probability 1/2
        rep = estimate_c1(y, [(0.4, 0.6)], 20_000, MomentEnvelope(beta=1.0), RngStream(57))
        half_spread = ((1e6 + 1e-3) ** 2 - 1e12) / 2.0  # std of the two-point law
        assert rep.entries[0].se == pytest.approx(half_spread / math.sqrt(20_000), rel=0.03)


class TestEstimateC2:
    def test_unit_jump_cross_moment_exactly_zero(self):
        env = MomentEnvelope(beta=1.0)
        rep = estimate_c2(unit_jump(), [(0.1, 0.5, 0.9), (0.2, 0.3, 0.4)], 20_000, env, RngStream(56))
        for entry in rep.entries:
            assert entry.estimate == 0.0
            assert entry.se == 0.0

    def test_degenerate_triple(self):
        env = MomentEnvelope(beta=1.0)
        rep = estimate_c2(unit_jump(), [(0.3, 0.3, 0.3)], 1000, env, RngStream(57))
        assert rep.entries[0].estimate == 0.0

    def test_poisson_product_formula(self):
        # independent increments factor: (lam a + lam^2 a^2)(lam b + lam^2 b^2)
        lam = 1.0
        env, env2 = default_envelopes(poisson_counts(lam))
        rep = estimate_c2(poisson_counts(lam), [(0.0, 0.5, 1.0)], 100_000, env2, RngStream(58))
        (entry,) = rep.entries
        assert abs(entry.estimate - 0.5625) < 4.0 * entry.se

    def test_ordering_validated(self):
        with pytest.raises(DomainError):
            estimate_c2(unit_jump(), [(0.5, 0.2, 0.9)], 1000, MomentEnvelope(beta=1.0), RngStream(59))


def chan_pooled_mean_se(y, intervals, statistic, tag, replicates, stream):
    """Per-entry mean and SE pooled from each chunk's ``(count, sum, M2)`` (Chan, Golub &
    LeVeque, Amer. Statist. 1983), on the draws of the moment reports."""

    def one_chunk(sub, m):
        inc = interval_increments(y.block_sampler(sub).take(m), intervals)
        vals = statistic(np.sum(inc * inc, axis=2))
        total = np.sum(vals, axis=0)
        return m, total, np.sum((vals - total / m) ** 2, axis=0)

    parts = map_replicates(one_chunk, stream.substream(tag), replicates, 1)
    counts = np.array([[p[0]] for p in parts], dtype=np.float64)
    sums = np.array([p[1] for p in parts])
    mean = np.array([math.fsum(col) for col in sums.T]) / replicates
    # pooled M2 = sum of chunk M2s + sum of m_c * (chunk mean - mean)^2
    m2 = np.array([p[2] for p in parts]) + counts * (sums / counts - mean) ** 2
    var = np.array([math.fsum(col) for col in m2.T]) / (replicates - 1)
    return mean, np.sqrt(var / replicates)


def test_moment_reports_match_chan_pooled_chunks():
    # Poisson(1) counts: 5 full chunks and a short one.  The squared counts are integers,
    # so both means are exact sums over R; the two SE formulas round differently, about
    # 3e-15 apart here
    y = poisson_counts(1.0)
    replicates = 5 * chunk_size(1) + chunk_size(1) // 3
    env1, env2 = default_envelopes(y)
    pairs = [(0.0, 0.5), (0.2, 0.9), (0.4, 0.45)]
    triples = [(0.0, 0.25, 0.5), (0.1, 0.5, 1.0)]
    rep1 = estimate_c1(y, pairs, replicates, env1, RngStream(64))
    rep2 = estimate_c2(y, triples, replicates, env2, RngStream(64))
    k = len(triples)
    want1 = chan_pooled_mean_se(y, pairs, lambda sq: sq, diagnostics._TAG_C1, replicates, RngStream(64))
    want2 = chan_pooled_mean_se(y, [(a, b) for a, b, _ in triples] + [(b, c) for _, b, c in triples],
                                lambda sq: sq[:, :k] * sq[:, k:], diagnostics._TAG_C2, replicates, RngStream(64))
    for rep, (mean, se) in ((rep1, want1), (rep2, want2)):
        assert [e.estimate for e in rep.entries] == pytest.approx(mean.tolist(), rel=1e-15, abs=0.0)
        assert [e.se for e in rep.entries] == pytest.approx(se.tolist(), rel=1e-12, abs=0.0)


class TestOverflowingMoments:
    def test_cross_moment_names_the_entry(self):
        # (0.3, 0.5] holds a jump to 1e200 and (0.5, 0.7] none: inf * 0 reads nan
        y = user_paths([StepPath(1, [0.0], [0.5], [[1e200]])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=r"cross_moment entry \(0\.3, 0\.5, 0\.7\): estimate nan"):
                estimate_c2(y, [(0.1, 0.2, 0.3), (0.3, 0.5, 0.7)], 1000, MomentEnvelope(beta=1.0), RngStream(62))

    def test_finite_chunk_sums_whose_total_overflows(self):
        # each squared increment is 1e304, and 20 480 of them, over the chunks' values
        # concatenated in one row, sum past the float range (1.8e308)
        y = user_paths([StepPath(1, [0.0], [0.5], [[1e152]])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=r"increment_second_moment entry \(0\.4, 0\.6\): estimate inf"):
                estimate_c1(y, [(0.4, 0.6)], 20_480, MomentEnvelope(beta=1.0), RngStream(63))


def test_examples_never_report_violated_with_default_envelopes():
    for y in (unit_jump(), poisson_counts(0.5), poisson_counts(2.0)):
        env1, env2 = default_envelopes(y)
        pairs = [(i / 10.0, i / 10.0 + 0.4) for i in range(6)]
        triples = [(i / 10.0, i / 10.0 + 0.2, i / 10.0 + 0.4) for i in range(6)]
        r1 = estimate_c1(y, pairs, 20_000, env1, RngStream(60))
        r2 = estimate_c2(y, triples, 20_000, env2, RngStream(61))
        assert not r1.violated
        assert not r2.violated


# -- analytic constants ---------------------------------------------------------


class TestMomentConstant:
    def test_rademacher_reduces_to_power_sum(self):
        mc = moment_constant(1.5, 4.0, RAD, 10_000)
        oracle = math.fsum(i ** (-4.0 / 1.5) for i in range(10_000, 0, -1))
        assert abs(mc.value - oracle) <= 1e-12 * oracle

    def test_divergent_regime_rejected(self):
        with pytest.raises(ConfigurationError, match="divergent"):
            moment_constant(1.5, 1.5, RAD, 100)
        with pytest.raises(ConfigurationError, match="divergent"):
            moment_constant(1.5, 1.0, RAD, 100)

    def test_two_point_atom_entry(self):
        mc = moment_constant(1.5, 4.0, TWO_POINT, 50)
        oracle = math.fsum(
            i ** (-4.0 / 1.5) * (0.8 * 1.0 * (1 <= i) + 0.2 * 256.0 * (8 <= i))
            for i in range(1, 51)
        )
        assert abs(mc.value - oracle) <= 1e-12 * oracle

    def test_monotone_in_n_and_decreasing_in_m(self):
        values_n = [moment_constant(1.5, 2.0, RAD, n).value for n in (10, 100, 1000)]
        assert values_n == sorted(values_n)
        values_m = [moment_constant(1.5, m, RAD, 1000).value for m in (2.0, 3.0, 4.0)]
        assert values_m == sorted(values_m, reverse=True)

    def test_convergence_flag(self):
        assert moment_constant(1.5, 4.0, RAD, 10**6).converged
        assert not moment_constant(1.9, 2.0, RAD, 100).converged


class TestCenteredFirstMomentSum:
    def test_rademacher_exact_zero(self):
        assert centered_first_moment_sum(1.5, RAD, 1000) == 0.0

    def test_two_point_atoms(self):
        got = centered_first_moment_sum(1.0, TWO_POINT, 50)
        want = 0.8 * (1.0 + 0.5 + 1.0 / 3.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_empty_sum(self):
        assert centered_first_moment_sum(1.5, RAD, 0) == 0.0

    def test_requires_mean_zero(self):
        with pytest.raises(ConfigurationError):
            centered_first_moment_sum(0.8, EpsilonSpec.table([1.0, 2.0], [0.5, 0.5]), 10)


class TestBorelCantelliSum:
    def test_rademacher_never_truncated(self):
        assert borel_cantelli_sum(1.5, RAD, 1000).value == 0.0

    def test_two_point_tail(self):
        res = borel_cantelli_sum(1.0, TWO_POINT, 100)
        assert res.value == pytest.approx(0.6, rel=1e-12)
        assert res.alpha_moment == pytest.approx(1.6, rel=1e-12)
        assert res.value <= res.alpha_moment

    def test_empty(self):
        assert borel_cantelli_sum(1.5, RAD, 0).value == 0.0


# -- partitions -----------------------------------------------------------------


class TestEnumeratePartitions:
    def test_count_matches_recursive_oracle(self):
        got = enumerate_partitions()
        oracle = sorted(set(recursive_partitions((1, 2, 3, 4))))
        assert len(got) == 15
        assert sorted(got) == oracle

    def test_contains_extremes(self):
        parts = enumerate_partitions()
        assert ((1, 2, 3, 4),) in parts
        assert ((1,), (2,), (3,), (4,)) in parts

    def test_canonical_order(self):
        parts = enumerate_partitions()
        assert parts == sorted(parts)
        assert partition_label(((1, 2), (3, 4))) == "{1,2}{3,4}"


class TestPartitionSum:
    def test_full_block_reduces_to_moment_constant(self):
        s = partition_sum(((1, 2, 3, 4),), 1.5, RAD, 50)
        assert s == pytest.approx(moment_constant(1.5, 4.0, RAD, 50).value, rel=1e-12)

    def test_singletons_vanish_for_symmetric_families(self):
        assert partition_sum(((1,), (2,), (3,), (4,)), 1.5, RAD, 50) == 0.0

    def test_only_full_block_survives_at_n_1(self):
        for tau in enumerate_partitions():
            s = partition_sum(tau, 1.5, TWO_POINT, 1)
            if tau == ((1, 2, 3, 4),):
                assert s > 0.0
            else:
                assert s == 0.0

    def test_invalid_partition_rejected(self):
        with pytest.raises(ConfigurationError):
            partition_sum(((1, 2), (3,)), 1.5, RAD, 10)

    @pytest.mark.parametrize("eps", [RAD, TWO_POINT], ids=["rademacher", "two_point"])
    def test_sum_over_partitions_is_full_tuple_sum(self, eps):
        for n in (3, 8, 10):
            total = math.fsum(partition_sum(tau, 1.5, eps, n) for tau in enumerate_partitions())
            brute = brute_force_full_tuple_sum(1.5, eps, n)
            assert abs(total - brute) <= 1e-12 * max(brute, 1e-300)

    def test_nondecreasing_in_n(self):
        for tau in enumerate_partitions():
            vals = [partition_sum(tau, 1.2, TWO_POINT, n) for n in (1, 2, 4, 8, 16, 32)]
            assert vals == sorted(vals)


SKEWED = EpsilonSpec.two_point(0.2, -4.0, 1.0)  # its truncated mean vanishes from i = 3 on at alpha 0.7


def block_factors(tau, alpha, eps, n):
    """Per-block factors ``x^(-|B|/alpha) * moment`` at x = 1..n, from the atom definition."""
    return [[x ** (-len(b) / alpha) * tuple_moment_factor(eps, len(b), x, alpha) for x in range(1, n + 1)]
            for b in tau]


def brute_force_distinct_sum(tau, alpha, eps, n):
    """``S_{n,tau}`` summed over every tuple of pairwise-distinct indices."""
    gs = block_factors(tau, alpha, eps, n)
    return math.fsum(math.prod(g[x] for g, x in zip(gs, xs)) for xs in itertools.permutations(range(n), len(gs)))


def inclusion_exclusion_sum(tau, alpha, eps, n):
    """``S_{n,tau}`` by inclusion-exclusion over the set partitions of the blocks, and the sum of
    the magnitudes of its terms: the terms cancel, so its error is relative to that scale."""
    gs = np.array(block_factors(tau, alpha, eps, n))
    terms = []
    for pi in recursive_partitions(tuple(range(len(gs)))):
        terms.append(math.prod((-1.0) ** (len(group) - 1) * math.factorial(len(group) - 1)
                               * math.fsum(np.prod(gs[list(group)], axis=0)) for group in pi))
    return math.fsum(terms), math.fsum(map(abs, terms))


class TestSumDistinct:
    @pytest.mark.parametrize("alpha", [0.7, 1.2, 1.5])
    @pytest.mark.parametrize("eps", [RAD, TWO_POINT, SKEWED], ids=["rademacher", "two_point", "skewed"])
    def test_matches_brute_force_over_distinct_tuples(self, eps, alpha):
        for n in (1, 4, 8):
            for tau in enumerate_partitions():
                want = brute_force_distinct_sum(tau, alpha, eps, n)
                assert abs(partition_sum(tau, alpha, eps, n) - want) <= 1e-13 * want, (n, tau)

    @pytest.mark.parametrize("alpha", [0.7, 1.2, 1.5])
    @pytest.mark.parametrize("eps", [RAD, TWO_POINT, SKEWED], ids=["rademacher", "two_point", "skewed"])
    def test_matches_inclusion_exclusion_at_large_n(self, eps, alpha):
        for n in (61, 100, 9000):
            for tau in enumerate_partitions():
                want, scale = inclusion_exclusion_sum(tau, alpha, eps, n)
                assert abs(partition_sum(tau, alpha, eps, n) - want) <= 1e-12 * scale, (n, tau)

    def test_sum_without_nonzero_term_is_exact_zero(self):
        # two indices carry a nonzero truncated mean, so four distinct ones never do;
        # inclusion-exclusion returns -5.55e-16 here
        for n in (61, 64, 100, 128):
            assert partition_sum(((1,), (2,), (3,), (4,)), 0.7, SKEWED, n) == 0.0

    @pytest.mark.parametrize("alpha", [0.7, 1.2])
    @pytest.mark.parametrize("eps", [TWO_POINT, SKEWED], ids=["two_point", "skewed"])
    def test_nondecreasing_in_n_without_tolerance(self, eps, alpha):
        for tau in enumerate_partitions():
            vals = [partition_sum(tau, alpha, eps, n) for n in range(1, 131)]
            assert all(a <= b for a, b in zip(vals, vals[1:])), tau


class TestPartitionReport:
    def test_report_shape_and_note(self):
        rep = partition_report(1.5, RAD, n_grid=(1, 4, 16), constant_n_max=1000)
        assert len(rep.partitions) == 15
        assert rep.s_values.shape == (15, 3)
        assert "15" in rep.cardinality_note and "13" in rep.cardinality_note
        assert rep.cardinality_note == PARTITION_CARDINALITY_NOTE

    @pytest.mark.parametrize("eps", [RAD, TWO_POINT, SKEWED], ids=["rademacher", "two_point", "skewed"])
    def test_equals_a_partition_sum_per_depth(self, eps):
        # one DP per partition, read at every depth, in any order, gives each depth's own DP
        grid = (0, 1, 7, 64, 2000, 61, 2000)
        rep = partition_report(0.7, eps, n_grid=grid, constant_n_max=100)
        want = np.array([[partition_sum(tau, 0.7, eps, n) for n in grid] for tau in enumerate_partitions()])
        assert rep.s_values.tobytes() == want.tobytes()
        assert partition_report(0.7, eps, n_grid=(), constant_n_max=100).s_values.shape == (15, 0)

    def test_alt_bounds_for_three_one_blocks(self):
        rep = partition_report(1.5, TWO_POINT, n_grid=(4,), constant_n_max=1000)
        labels = [partition_label(t) for t in enumerate_partitions()
                  if sorted(len(b) for b in t) == [1, 3]]
        assert len(labels) == 4
        assert set(rep.bound_products_alt) == set(labels)

    def test_envelope_exponents(self):
        from lepage.diagnostics import partition_envelope_exponents
        # full block: G2^2; all singletons: G1^2; pairs within each
        # interval: G1^2; the {3,1} patterns: G1 * G2
        assert partition_envelope_exponents(((1, 2, 3, 4),)) == (0.0, 2.0)
        assert partition_envelope_exponents(((1,), (2,), (3,), (4,))) == (2.0, 0.0)
        assert partition_envelope_exponents(((1, 2), (3, 4))) == (2.0, 0.0)
        assert partition_envelope_exponents(((1, 2, 3), (4,))) == (1.0, 1.0)
        rep = partition_report(1.5, RAD, n_grid=(2,), constant_n_max=100)
        assert len(rep.envelope_exponents) == 15


# -- tightness -------------------------------------------------------------------


class TestTightnessFunctional:
    def spec(self, **kw):
        base = dict(alpha=1.5, truncation_n=100, epsilon=RAD, y_gen=poisson_counts(1.0),
                    seed=5, weight_mode="deterministic", epsilon_mode="truncated")
        base.update(kw)
        return SeriesSpec(**base)

    def test_mode_requirements(self):
        with pytest.raises(ConfigurationError):
            tightness_functional(self.spec(weight_mode="gamma"), 10, [(0.1, 0.2, 0.3)], 100)
        with pytest.raises(ConfigurationError):
            tightness_functional(self.spec(epsilon_mode="raw"), 10, [(0.1, 0.2, 0.3)], 100)

    def test_degenerate_triple_exact_zero(self):
        res = tightness_functional(self.spec(), 50, [(0.3, 0.3, 0.8)], 500)[0]
        assert res.estimate == 0.0 and res.se == 0.0

    def test_single_unit_jump_term_exact_zero(self):
        # one indicator jump cannot hit both intervals
        spec = self.spec(y_gen=unit_jump(), truncation_n=1)
        res = tightness_functional(spec, 1, [(0.2, 0.5, 0.8)], 2000)[0]
        assert res.estimate == 0.0

    def test_estimate_below_assembled_bound(self):
        res = tightness_functional(self.spec(), 100, [(0.2, 0.5, 0.8)], 4000)[0]
        assert res.estimate <= res.bound + 4.0 * res.se
        assert res.verdict == "satisfied"

    def test_ordering_validated(self):
        with pytest.raises(DomainError):
            tightness_functional(self.spec(), 10, [(0.5, 0.2, 0.8)], 100)


# -- tightness over a grid of triples: one series run for all ----------------------


def reference_tightness(spec, n, triple, replicates):
    """The per-triple computation: its own sampler call over [(t1, t), (t, t2)]."""
    t1, t_mid, t2 = triple
    run_spec = SeriesSpec(spec.alpha, n, spec.epsilon, spec.y_gen, seed=spec.seed,
                          weight_mode="deterministic", epsilon_mode="truncated")
    inc = sample_weighted_increments(run_spec, [(t1, t_mid), (t_mid, t2)], replicates)
    sq = np.sum(inc * inc, axis=2)
    stat = sq[:, 1] * sq[:, 0]
    estimate = float(np.mean(stat))
    se = float(np.std(stat, ddof=1) / math.sqrt(replicates)) if replicates > 1 else 0.0
    env1, env2 = default_envelopes(spec.y_gen)
    g1, g2 = env1.pair_bound(t1, t2), env2.triple_bound(t1, t2) ** 0.5
    bound = 0.0
    for tau in enumerate_partitions():
        p, q = partition_envelope_exponents(tau)
        bound += partition_sum(tau, spec.alpha, spec.epsilon, n) * g1**p * g2**q
    bound *= spec.dimension**2
    return TightnessResult(t1, t_mid, t2, n, estimate, se, float(bound), _verdict(estimate, se, bound))


WEIGHTED_2D_P3 = weighted_jumps(
    [CdfGrid.uniform(), CdfGrid(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.9, 1.0])), CdfGrid.uniform()],
    JumpHeightDist(np.array([[1.1, -0.5], [-0.7, 0.25], [0.3, 2.0]]), np.array([0.4, 0.35, 0.25])),
)
# overlapping triples, a repeated one, t1 == t and t == t2
GRID = [(0.1, 0.35, 0.6), (0.2, 0.45, 0.7), (0.1, 0.35, 0.6), (0.3, 0.3, 0.8), (0.2, 0.6, 0.6)]


def _no_draw(*args, **kwargs):
    raise AssertionError("sampled before every triple was checked")


class TestTightnessGrid:
    def spec(self, y_gen, seed=11):
        return SeriesSpec(1.5, 100, RAD, y_gen, seed=seed, weight_mode="deterministic", epsilon_mode="truncated")

    # n 60 runs many tiles in two chunks; n 9000 puts more than 8192 terms in a row,
    # where einsum buffers its sum differently
    @pytest.mark.parametrize("n,replicates", [(60, chunk_size(60) + 404), (9000, 5)])
    @pytest.mark.parametrize("y_gen", [poisson_counts(1.0), unit_jump(), WEIGHTED_2D_P3],
                             ids=["poisson", "unit_jump", "weighted_2d_p3"])
    def test_matches_one_run_per_triple(self, y_gen, n, replicates):
        spec = self.spec(y_gen)
        got = tightness_functional(spec, n, GRID, replicates)
        assert len(got) == len(GRID)
        for triple, res in zip(GRID, got):
            assert res == reference_tightness(spec, n, triple, replicates), triple
        assert got[0] == got[2]
        assert got[3].estimate == 0.0 and got[4].estimate == 0.0

    def test_one_sampler_call_for_all_triples(self, monkeypatch):
        calls = []

        def counting(run_spec, intervals, replicates, threads=1):
            calls.append(list(intervals))
            return sample_weighted_increments(run_spec, intervals, replicates, threads)

        monkeypatch.setattr(diagnostics, "sample_weighted_increments", counting)
        got = tightness_functional(self.spec(poisson_counts(1.0)), 50, GRID, 300)
        assert len(got) == len(GRID)
        assert calls == [[iv for a, b, c in GRID for iv in ((a, b), (b, c))]]

    def test_bad_triple_raises_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "sample_weighted_increments", _no_draw)
        spec = self.spec(poisson_counts(1.0))
        with pytest.raises(DomainError, match=r"\(0\.5, 0\.2, 0\.8\)"):
            tightness_functional(spec, 50, GRID + [(0.5, 0.2, 0.8)], 300)
        with pytest.raises(DomainError, match=r"\(0\.1, 0\.2, 1\.5\)"):
            tightness_functional(spec, 50, [(0.1, 0.2, 1.5)] + GRID, 300)

    def test_two_time_entry_raises_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "sample_weighted_increments", _no_draw)
        with pytest.raises(DomainError, match=r"triple must satisfy 0 <= t1 <= t <= t2 <= 1, got \(0\.1, 0\.2\)"):
            tightness_functional(self.spec(poisson_counts(1.0)), 50, GRID + [(0.1, 0.2)], 300)

    def test_mode_checked_before_triples_and_draws(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "sample_weighted_increments", _no_draw)
        spec = SeriesSpec(1.5, 100, RAD, unit_jump(), seed=1, weight_mode="gamma", epsilon_mode="truncated")
        with pytest.raises(ConfigurationError):
            tightness_functional(spec, 50, [(0.5, 0.2, 0.8)], 300)

    def test_no_triples_draw_nothing(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "sample_weighted_increments", _no_draw)
        assert tightness_functional(self.spec(poisson_counts(1.0)), 50, [], 300) == []

"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Statistical criteria run at fixed seeds with their stated tolerances and
runtime limits; nothing here is tuned at run time.
"""

import functools
import itertools
import json
import math
import time

import numpy as np
import pytest

from lepage import (
    EpsilonSpec,
    RngStream,
    SeriesSpec,
    coupled_partial_sums,
    partial_sum,
    unit_jump,
    poisson_counts,
    weighted_jumps,
    CdfGrid,
    JumpHeightDist,
)
import lepage.diagnostics as diag
import lepage.stable_checks as sc
from lepage.cli import main as cli_main
from lepage.paths import StepPath, path_to_csv
from lepage.random_inputs import _positive_exponentials
from lepage.series import sample_marginals, sample_path_stats
import stable_oracles as oracles
from test_paths import difference_on_union_grid

RAD = EpsilonSpec.rademacher()
TWO_POINT = EpsilonSpec.two_point(0.8, -1.0, 4.0)

PAIR_GRID = [(i / 20.0, i / 20.0 + 0.5) for i in range(10)]
TRIPLE_GRID = [(i / 20.0, i / 20.0 + 0.25, i / 20.0 + 0.5) for i in range(10)]


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number:02d} {name}: PASS")

        return run

    return wrap


@criterion(1, "unit-jump increment second moment")
def test_c01_unit_jump_moment_identity():
    started = time.perf_counter()
    env = diag.MomentEnvelope(beta=1.0)
    report = diag.estimate_c1(unit_jump(), PAIR_GRID, 100_000, env, RngStream(101))
    for entry in report.entries:
        assert abs(entry.estimate - (entry.t2 - entry.t1)) <= 4.0 * entry.se
    assert time.perf_counter() - started < 10.0


@criterion(2, "unit-jump cross moment exactly zero")
def test_c02_unit_jump_cross_moment_zero():
    env = diag.MomentEnvelope(beta=1.0)
    report = diag.estimate_c2(unit_jump(), TRIPLE_GRID, 100_000, env, RngStream(102))
    for entry in report.entries:
        assert entry.estimate == 0.0
        assert entry.se == 0.0


@criterion(3, "poisson moment identities")
def test_c03_poisson_moment_identities():
    started = time.perf_counter()
    for lam in (0.5, 2.0):
        y = poisson_counts(lam)
        env1, env2 = diag.default_envelopes(y)
        r1 = diag.estimate_c1(y, PAIR_GRID, 100_000, env1, RngStream(103))
        for entry in r1.entries:
            dt = entry.t2 - entry.t1
            target = lam * dt + lam * lam * dt * dt
            assert abs(entry.estimate - target) <= 4.0 * entry.se
        r2 = diag.estimate_c2(y, TRIPLE_GRID, 100_000, env2, RngStream(104))
        for entry in r2.entries:
            a = entry.t_mid - entry.t1
            b = entry.t2 - entry.t_mid
            target = (lam * a + lam * lam * a * a) * (lam * b + lam * lam * b * b)
            assert abs(entry.estimate - target) <= 4.0 * entry.se
    assert time.perf_counter() - started < 30.0


@criterion(4, "arrival-time law and monotonicity")
def test_c04_gamma_sequence_law():
    reps = 10_000
    for k in (10, 1_000):
        last = np.empty(reps)
        for r in range(reps):
            seq = np.cumsum(_positive_exponentials(RngStream(105, r).generator(), k))
            assert np.all(np.diff(seq) > 0.0)
            last[r] = seq[-1]
        assert abs(last.mean() - k) <= 4.0 * math.sqrt(k / reps)


@criterion(5, "moment constants vs independent partial sums")
def test_c05_moment_constants():
    for alpha, m in ((1.5, 2.0), (1.5, 4.0), (1.2, 3.0)):
        got = diag.moment_constant(alpha, m, RAD, 10**6).value
        oracle = math.fsum(i ** (-m / alpha) for i in range(10**6, 0, -1))
        assert abs(got - oracle) <= 1e-12 * oracle
    for alpha, m in ((1.5, 1.5), (1.5, 1.0), (1.2, 0.5)):
        with pytest.raises(Exception, match="divergent"):
            diag.moment_constant(alpha, m, RAD, 100)


@criterion(6, "partition machinery")
def test_c06_partition_machinery():
    partitions = diag.enumerate_partitions()
    assert len(partitions) == 15

    def factor(eps, b, i, alpha):
        arr = np.array([float(i)])
        if b == 1:
            return abs(float(eps.truncated_mean(arr, alpha)[0]))
        return float(eps.truncated_abs_moment(float(b), arr, alpha)[0])

    for eps in (RAD, TWO_POINT):
        total = math.fsum(diag.partition_sum(tau, 1.5, eps, 8) for tau in partitions)
        brute_terms = []
        for t in itertools.product(range(1, 9), repeat=4):
            counts = {}
            for i in t:
                counts[i] = counts.get(i, 0) + 1
            prod = (t[0] * t[1] * t[2] * t[3]) ** (-1.0 / 1.5)
            for i, b in counts.items():
                prod *= factor(eps, b, i, 1.5)
            brute_terms.append(prod)
        brute = math.fsum(brute_terms)
        assert abs(total - brute) <= 1e-12 * brute

        for tau in partitions:
            vals = [diag.partition_sum(tau, 1.5, eps, n) for n in (1, 2, 4, 8, 16)]
            assert vals == sorted(vals)

    report = diag.partition_report(1.5, RAD, n_grid=(1, 4), constant_n_max=1000)
    assert "13" in report.cardinality_note and "15" in report.cardinality_note


@criterion(7, "tightness inequality chain")
def test_c07_tightness_chain():
    started = time.perf_counter()
    spec = SeriesSpec(1.5, 100, RAD, poisson_counts(1.0), seed=107,
                      weight_mode="deterministic", epsilon_mode="truncated")
    entries = diag.tightness_functional(spec, TRIPLE_GRID, 10_000).entries
    assert len(entries) == len(TRIPLE_GRID)
    for res in entries:
        assert res.estimate <= res.envelope + 4.0 * res.se
    assert time.perf_counter() - started < 120.0


@criterion(8, "tail-index recovery")
def test_c08_tail_index_recovery():
    started = time.perf_counter()
    spec = SeriesSpec(1.5, 5000, RAD, unit_jump(), seed=108)
    est = oracles.estimate_alpha(sample_marginals(spec, 1.0, 5000)[:, 0])
    assert 1.35 <= est.alpha <= 1.65
    spec08 = SeriesSpec(0.8, 5000, RAD, unit_jump(), seed=109)
    est08 = oracles.estimate_alpha(sample_marginals(spec08, 1.0, 5000)[:, 0])
    assert 0.68 <= est08.alpha <= 0.92
    assert time.perf_counter() - started < 300.0


@criterion(9, "sum stability of the limit marginal")
def test_c09_sum_stability():
    passes = 0
    for seed in range(5):
        spec = SeriesSpec(1.5, 2000, RAD, unit_jump(), seed=seed)
        marginals = sample_marginals(spec, 1.0, 30_000)[:, 0]
        passes += sc.sum_stability_test(marginals, 1.5, RngStream(seed)).passed
    assert passes >= 4

    fails = 0
    for seed in range(5):
        u = np.random.Generator(np.random.Philox(key=900 + seed)).uniform(-1, 1, 30_000)
        fails += not sc.sum_stability_test(u, 1.5, RngStream(seed)).passed
    assert fails >= 4


@criterion(10, "family membership against the oracle")
def test_c10_family_membership():
    spec = SeriesSpec(1.5, 2000, RAD, unit_jump(), seed=110)
    marginals = sample_marginals(spec, 1.0, 30_000)[:, 0]
    fd = oracles.oracle_family_distance(marginals, 1.5, RngStream(111))
    assert fd.ks <= 2.0 * fd.baseline_median


@criterion(11, "spectral masses")
def test_c11_spectral_masses():
    est = sc.spectral_estimate(RAD, unit_jump(), 1.5,
                               [sc.full_sphere(), sc.nonnegative_path()],
                               100_000, RngStream(112))
    assert est.mass("full_sphere") == 1.0
    mass, se = est.event_masses["nonnegative_path"]
    assert abs(mass - 0.5) <= 4.0 * se

    y = weighted_jumps([CdfGrid.uniform()],
                       JumpHeightDist(np.array([[1.0], [2.0]]), np.array([0.5, 0.5])))
    est2 = sc.spectral_estimate(RAD, y, 1.5, [sc.full_sphere(), sc.norm_equals(2.0)],
                                100_000, RngStream(113))
    assert est2.mass("full_sphere") == 1.0
    # brute force over the two-atom height law
    num = 0.5 * 2.0**1.5
    den = 0.5 * 1.0 + 0.5 * 2.0**1.5
    mass2, se2 = est2.event_masses["norm_equals_2"]
    assert abs(mass2 - num / den) <= 4.0 * se2


@criterion(12, "regular-variation tail ratio")
def test_c12_regvar_tail_ratio():
    spec = SeriesSpec(1.5, 500, RAD, unit_jump(), seed=114)
    stats = sample_path_stats(spec, 100_000)
    table = sc.regular_variation_table(stats, [sc.full_sphere()], [1.0, 2.0], 100, 1.5)
    counts = {row.r: row.exceed_count for row in table.rows}
    ratio = counts[2.0] / counts[1.0]
    target = 2.0**-1.5
    se = math.sqrt(target * (1.0 - target) / counts[1.0])
    assert abs(ratio - target) <= 4.0 * se


@criterion(13, "coupled partial sums decay")
def test_c13_cauchy_diagnostic():
    checkpoints = [500, 1000, 2000, 4000]
    for alpha in (0.8, 1.5):
        spec = SeriesSpec(alpha, 4000, RAD, unit_jump(), seed=115)
        inc = np.empty((200, 3))
        for r in range(200):
            sums = coupled_partial_sums(spec, checkpoints, RngStream(115, r))
            for k in range(3):
                inc[r, k] = np.max(np.abs(difference_on_union_grid(sums[k + 1].path, sums[k].path)))
        medians = np.median(inc, axis=0)
        assert np.all(np.diff(medians) < 0.0)


WEIGHTED_Y = ("{variant: example2, p: 3, heights: {values: [[1.1, -0.5], [-0.7, 0.25], [0.3, 2.0]], "
              "probabilities: [0.4, 0.35, 0.25]}}")


@criterion(14, "byte-identical outputs across thread counts")
def test_c14_thread_determinism(tmp_path):
    configs = {
        "spectral": """
command: spectral
alpha: 1.5
epsilon: rademacher
y: example1
replicates: 20000
seed: 7
""",
        "check": """
command: check-conditions
y: example1
replicates: 5000
seed: 7
""",
        "simulate": """
command: simulate
alpha: 1.5
epsilon: rademacher
y: example1
truncation_n: 200
replicates: 3
seed: 7
""",
        # Poisson paths and the per-term norms file
        "simulate_norms": """
command: simulate
alpha: 0.8
epsilon: rademacher
y: {variant: example3, lambda: 2.0}
truncation_n: 300
replicates: 2
per_term_norms: true
seed: 7
""",
        "stability": """
command: stability
alpha: 1.5
epsilon: rademacher
y: example1
truncation_n: 200
samples: 5000
seed: 7
""",
        "regvar": """
command: regvar
alpha: 1.5
epsilon: rademacher
y: example1
truncation_n: 100
samples: 5000
sigma_replicates: 5000
n: 50
seed: 7
""",
        # uneven replicate rows: Poisson event counts and small-alpha weights
        "regvar_uneven": """
command: regvar
alpha: 0.3
epsilon: rademacher
y: {variant: example3, lambda: 2.0}
truncation_n: 100
samples: 5000
sigma_replicates: 5000
n: 50
seed: 7
""",
        # Poisson(1) paths at the default t = 1: the counts, with no jump locations drawn
        "stability_poisson": """
command: stability
alpha: 1.5
epsilon: rademacher
y: {variant: example3, lambda: 1.0}
truncation_n: 200
samples: 5000
seed: 7
""",
        # weighted jumps: fixed-width blocks of p = 3 events per term, in 2-d
        "stability_weighted": f"""
command: stability
alpha: 1.5
epsilon: rademacher
y: {WEIGHTED_Y}
truncation_n: 200
samples: 5000
seed: 7
""",
        "regvar_weighted": f"""
command: regvar
alpha: 1.5
epsilon: rademacher
y: {WEIGHTED_Y}
truncation_n: 100
samples: 5000
sigma_replicates: 5000
n: 50
seed: 7
""",
        "simulate_weighted_norms": f"""
command: simulate
alpha: 1.5
epsilon: rademacher
y: {WEIGHTED_Y}
truncation_n: 300
replicates: 2
per_term_norms: true
seed: 7
""",
        # Poisson paths in tiles of 54 replicates: four chunks of 1024 and one of 904, each
        # ending in an uneven tile
        "stability_poisson_tiles": """
command: stability
alpha: 1.2
epsilon: rademacher
y: {variant: example3, lambda: 2.0}
truncation_n: 300
samples: 5000
seed: 7
""",
        # more terms than a tile holds events: tiles of 2 replicates in chunks of 209
        "regvar_long": """
command: regvar
alpha: 1.5
epsilon: rademacher
y: example1
truncation_n: 20000
samples: 500
sigma_replicates: 2000
n: 20
seed: 7
""",
        # deterministic weights and truncated uniform multipliers: |eps|^1.5 > i cuts
        # large multipliers of the first five terms
        "stability_deterministic_truncated": """
command: stability
alpha: 1.5
weight_mode: deterministic
epsilon_mode: truncated
epsilon: {family: uniform_symmetric, a: 3.0}
y: example1
truncation_n: 200
samples: 5000
seed: 23
""",
        "tightness": """
command: tightness
alpha: 1.5
epsilon: rademacher
y: {variant: example3, lambda: 1.0}
n: 50
replicates: 5000
triples: [[0.1, 0.35, 0.6]]
seed: 7
""",
        # one series run reduced for several triples, one of them degenerate (t1 == t)
        "tightness_triples": """
command: tightness
alpha: 1.5
epsilon: rademacher
y: {variant: example3, lambda: 1.0}
n: 50
replicates: 5000
triples: [[0.1, 0.35, 0.6], [0.3, 0.3, 0.8], [0.2, 0.55, 0.9]]
seed: 7
""",
    }
    # user paths: each replicate must pick its file from its own stream
    user_dir = tmp_path / "user_paths"
    user_dir.mkdir()
    heights = 0.1 * np.random.default_rng(7).normal(size=7)
    for k, h in enumerate(heights):
        (user_dir / f"p{k}.csv").write_text(path_to_csv(StepPath(1, [0.0], [0.5], [[h]])))
    configs["check_user"] = f"""
command: check-conditions
y: {{variant: user, paths_dir: "{user_dir}"}}
replicates: 10000
envelope: {{kind: identity, beta: 1.0}}
seed: 7
"""
    # a 2-d pool: a path with no jump and paths of 1 to 5 jumps on the grid of sixteenths, so rows tie
    pool_dir = tmp_path / "user_paths_2d"
    pool_dir.mkdir()
    rng = np.random.default_rng(16)
    for k in range(8):
        times = np.sort(rng.choice(16, k % 6, replace=False) + 1) / 16.0
        path = StepPath(2, rng.normal(size=2), times, rng.normal(size=(times.size, 2)))
        (pool_dir / f"p{k}.csv").write_text(path_to_csv(path))
    user_2d = f'''
alpha: 1.5
epsilon: rademacher
y: {{variant: user, paths_dir: "{pool_dir}"}}
seed: 7
'''
    configs["stability_user_2d"] = user_2d + "command: stability\nt: 0.6\ntruncation_n: 200\nsamples: 5000\n"
    configs["regvar_user_2d"] = user_2d + ("command: regvar\ntruncation_n: 100\nsamples: 5000\n"
                                           "sigma_replicates: 5000\nn: 50\n")
    configs["spectral_user_2d"] = user_2d + "command: spectral\nreplicates: 20000\n"
    for name, config in configs.items():
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(config)
        out1 = tmp_path / f"{name}_t1"
        out3 = tmp_path / f"{name}_t3"
        assert cli_main(["--config", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
        assert cli_main(["--config", str(cfg), "--out", str(out3), "--threads", "3"]) == 0
        for p in sorted(out1.iterdir()):
            if p.name == "manifest.json":
                m1 = json.loads(p.read_text())
                m3 = json.loads((out3 / p.name).read_text())
                assert m1["manifest_hash"] == m3["manifest_hash"]
                continue
            assert p.read_bytes() == (out3 / p.name).read_bytes(), p.name

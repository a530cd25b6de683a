"""Canary of the stream layout: what a seed draws, pinned by digest.

Every result file is a pure function of the config, the seed and
``rng.STREAM_LAYOUT``, the version of the generator and the chunk plan.  A
change to either moves every result file, so it must bump the layout; these
digests fail first and say so.  Alpha 1 makes each weight ``1 / Gamma_i``, a
correctly rounded reciprocal, so the digests depend on the draws and the
summation order, not on a platform's ``pow``.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from lepage import CdfGrid, EpsilonSpec, JumpHeightDist, SeriesSpec, poisson_counts, rng, unit_jump, weighted_jumps
from lepage.cli import _COMMANDS, main, parse_config
from lepage.parallel import chunk_size
from lepage.series import partial_sum, sample_marginals, sample_path_stats, sample_weighted_increments

# 8 terms and 2100 samples are three chunks, 1024, 1024 and 52, run on 2 threads
N, SAMPLES, THREADS = 8, 2100, 2


def spec(y):
    return SeriesSpec(1.0, N, EpsilonSpec.rademacher(), y, seed=20)


def digest(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


WEIGHTED_2D = weighted_jumps(
    [CdfGrid.uniform(), CdfGrid([0.0, 0.5, 1.0], [0.0, 0.9, 1.0]), CdfGrid.uniform()],
    JumpHeightDist(np.array([[1.0, -0.5], [-0.75, 0.25], [0.5, 2.0]]), np.array([0.5, 0.25, 0.25])))


def path_stats(y) -> str:
    return digest(*vars(sample_path_stats(spec(y), SAMPLES, THREADS)).values())


def partial_sum_paths(y) -> str:
    """The bytes of three 200-term partial-sum paths, replicates 0 to 2."""
    paths = [partial_sum(replace(spec(y), truncation_n=200), rng.RngStream(20, r)).path for r in range(3)]
    return digest(*(a for p in paths for a in (p.initial_value, p.jump_times, p.post_jump_values)))


OUTPUTS = {
    "marginals_at_1": lambda: digest(sample_marginals(spec(unit_jump()), 1.0, SAMPLES, THREADS)),
    "marginals_at_0.6": lambda: digest(sample_marginals(spec(unit_jump()), 0.6, SAMPLES, THREADS)),
    "path_stats": lambda: path_stats(unit_jump()),
    "poisson_increments": lambda: digest(sample_weighted_increments(
        spec(poisson_counts(1.0)), [(0.1, 0.4), (0.4, 0.9)], SAMPLES, THREADS)),
    "poisson_path_stats": lambda: path_stats(poisson_counts(1.0)),
    "weighted2d_path_stats": lambda: path_stats(WEIGHTED_2D),
    "weighted2d_increments": lambda: digest(sample_weighted_increments(
        spec(WEIGHTED_2D), [(0.1, 0.4), (0.4, 0.9)], SAMPLES, THREADS)),
    "partial_sum_paths": lambda: partial_sum_paths(unit_jump()),
    "weighted2d_partial_sum_paths": lambda: partial_sum_paths(WEIGHTED_2D),
}

# layout 3: SFC64 generators keyed by SeedSequence, chunks of max(1, min(1024, 2**22 // n)),
# Poisson counts from a guide table and Rademacher signs from raw bits
LAYOUT = 3
DIGESTS = {
    "marginals_at_1": "b83eeefafed092696e560263c01ecc9ed99722282b5bfbcc83bd59f40c2e905c",
    "marginals_at_0.6": "e2499e5148f723352514b3c7b327fac0b4cbde76ad7f655b2073e5cfa19643e7",
    "path_stats": "267aab97e5246fc7dd1f3b4fcb4dfccab85716e78245091b82ce82396fe3d404",
    "poisson_increments": "43655702269edab8fa3f7e0771f3343104d90effe250306e7e9ffcbb9314595b",
    "poisson_path_stats": "e8cf0e406fc3053bf6aa995cf26a3bcbfbeb7665398ce2c1936da285fc89d27c",
    "weighted2d_path_stats": "a545857ab1963253c56898437d75682b0323cead3c6d65467e56fd7cc6f6dc68",
    "weighted2d_increments": "0deb040a861b75ac77d19233ee558d1cc8bc5bccbd5ccbde7b5b3d808caadb70",
    "partial_sum_paths": "2f5d26aa6e16afcc934551a1003b93d000d6115080ede36fa96a217b432aeaeb",
    "weighted2d_partial_sum_paths": "9d2621ace2dd22d3d15f6af3d91fb92130732445435864aefecd2b477a4b04a9",
}


def test_chunk_plan():
    assert rng.STREAM_LAYOUT == LAYOUT, "the layout moved: re-derive the plan and the digests below"
    assert [chunk_size(n) for n in (1, N, 4096, 4097, 2**22, 2**23)] == [1024, 1024, 1024, 1023, 1, 1], (
        f"the chunk plan changed under stream layout {LAYOUT}: bump rng.STREAM_LAYOUT")
    assert -(-SAMPLES // chunk_size(N)) == 3


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_draws_are_pinned(name):
    assert rng.STREAM_LAYOUT == LAYOUT, "the layout moved: re-pin the digests below"
    assert OUTPUTS[name]() == DIGESTS[name], (
        f"{name}: the draws changed under stream layout {LAYOUT} (numpy {np.__version__}); a change to "
        "what a seed draws moves every result file and must bump rng.STREAM_LAYOUT")


SERIES = "alpha: 1.5\nepsilon: rademacher\ny: example1\n"
# a small config of each command
SMALL_BY_COMMAND = {
    "simulate": SERIES + "truncation_n: 20\n",
    "check-conditions": "y: example1\nreplicates: 200\n",
    "constants": "alpha: 1.5\nepsilon: rademacher\nn_max: 1000\n",
    "partitions": "alpha: 1.5\nepsilon: rademacher\nn_grid: [1, 2]\nconstant_n_max: 1000\n",
    "tightness": SERIES + "n: 20\nreplicates: 200\ntriples: [[0.1, 0.35, 0.6]]\n",
    "stability": SERIES + "truncation_n: 20\nsamples: 300\n",
    "spectral": SERIES + "replicates: 1000\n",
    "regvar": SERIES + "truncation_n: 20\nsamples: 200\nsigma_replicates: 1000\nn: 10\n",
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_manifest_records_the_layout(tmp_path, command):
    config = tmp_path / "config.yaml"
    config.write_text(f"command: {command}\n{SMALL_BY_COMMAND[command]}")
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) in (0, 2)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["versions"]["stream_layout"] == rng.STREAM_LAYOUT


# result files of check commands on 3 chunks at 2 threads (the moment reports and tightness), and
# of the analytic sums, which run no threads
WEIGHTED_2D_Y = ("{variant: example2, p: 3, cdfs: [uniform, {xs: [0.0, 0.5, 1.0], ys: [0.0, 0.9, 1.0]}, uniform],\n"
                 "    heights: {values: [[1.0, -0.5], [-0.75, 0.25], [0.5, 2.0]], probabilities: [0.5, 0.25, 0.25]}}")
REPORT_RUNS = {
    "tightness_poisson": (
        "command: tightness\nalpha: 1.0\nepsilon: rademacher\ny: example3\nn: 8\nreplicates: 2100\n"
        "triples: [[0.1, 0.35, 0.6], [0.2, 0.5, 0.9], [0.3, 0.3, 0.8]]\n",
        {"tightness.csv": "965a559f1201a86f3d39f88f61c05d3233af202251c1581b1de1d85f39c5f5b1",
         "tightness.json": "e3597a0a645199ffa59e9d754b44a4dafa7941adc0b8724d8bf5fb3c61577170"}),
    "tightness_weighted2d": (
        f"command: tightness\nalpha: 1.0\nepsilon: rademacher\ny: {WEIGHTED_2D_Y}\n"
        "envelope: {kind: poly, beta: 1.0, coeffs: [2.0, 1.0]}\n"
        "n: 8\nreplicates: 2100\ntriples: [[0.1, 0.35, 0.6], [0.2, 0.5, 0.9]]\n",
        {"tightness.csv": "d499bf9cf4d2a540a1755794d9d3231d05145bdbef2e0149cd0b37804cf877d3",
         "tightness.json": "3b942e80523e09e0e1041297105cf9b65e357e09c97fb7e454668cd45c75bc33"}),
    "check-conditions": (
        "command: check-conditions\ny: example1\nreplicates: 2100\n",
        {"c1_report.csv": "c0fe85d8b2d24fefd1e33aa76ae9d01b36411044160cb314bbc1459fd9d19c87",
         "c1_report.json": "e7c2de4f34244a47f019099b6ff110ca6f7ca8fe133f0e57403f249e5b9a7696",
         "c2_report.csv": "120bf9e1d63cc557883fe85e103263120097b4a3b695d3211634d5a55e644c17",
         "c2_report.json": "707d378f9e951a6bd0128d62d85ca627b1b9700f3889e17c740982dcf6940793"}),
    "check-conditions_poisson": (
        "command: check-conditions\ny: {variant: example3, lambda: 1.0}\nreplicates: 2100\n",
        {"c1_report.csv": "5ab18a51dd2ea015a95525b1e9d47e42bf3cf3e87cfa05fcd55b89c28c343232",
         "c1_report.json": "4c0832b891a613afdbe105685ae62de831357e48ce5a1e3f5cef71542076a54f",
         "c2_report.csv": "db4276dbd53c5ae156ed494a5b011562053803b8856a391d86dbefaf0c9da0b3",
         "c2_report.json": "dab87bf37720ea2fb4bea556ac09f2625ef3f974c6a204c02fb21f4dcd698bb5"}),
    "check-conditions_weighted2d": (
        f"command: check-conditions\ny: {WEIGHTED_2D_Y}\nreplicates: 2100\n",
        {"c1_report.csv": "7459ce3352d147d376947e42972765039f473b5eb2ed9c32b0dc14cd383ac155",
         "c1_report.json": "2cb32932976a4ae594dbf55937f0e443ea58eb0b69b40369f84524e7c8679941",
         "c2_report.csv": "22d91476413e7898388716bec170e6cd36d06f883c47fa29216bdc5ec63ceead",
         "c2_report.json": "f8b71b104ae9e1138127d9e26b4528dbec7c13fc45319e2353870c35a7e1f599"}),
    # nested numbers as given: beta 1 and coeffs [8, 4] echo as integers in the report's meta
    "check-conditions_integer_nested": (
        "command: check-conditions\ny: {variant: example3, lambda: 2}\nreplicates: 2100\n"
        "envelope: {kind: poly, beta: 1, coeffs: [8, 4]}\npairs: [[0, 1], [0.25, 0.75]]\n",
        {"c1_report.csv": "89598cfef0f2f2abeb7567f2b67556137df54b43ecfa82d1b3871661d04719bd",
         "c1_report.json": "88f923fecc9071a569c5366efd6e7ae55a05f7e09b1f5d01a509eae507c670d5",
         "c2_report.csv": "a6b4a566bbc98c8d03e9dcc01ee5f0edc81f03cbe3b02caebba79c2b5ebc73f2",
         "c2_report.json": "ef617a039242bad921ab7b8d7bfc327245aa619113d9f7d64af3c36e4c9727bc"}),
    # m = 1.0 is the moment series of E|eps~_i|, which differs from the centered sum of |E eps~_i|
    "constants_table": (
        "command: constants\nalpha: 0.8\n"
        "epsilon: {family: table, values: [-2.0, 1.0], probabilities: [0.3333333333333333, 0.6666666666666666]}\n"
        "m_values: [1.0, 2.0]\nn_max: 1000\n",
        {"constants.csv": "319b03a8030e7f301eccdee3377f7e0e4017fddb166262b3840e03e24daa63b4",
         "constants.json": "0db2e27057af472047dde4e1f51dd3281e667f19f531f24c29178e0a8c6447d6"}),
    "partitions": (
        "command: partitions\nalpha: 1.5\nepsilon: rademacher\nn_grid: [1, 2, 5]\nconstant_n_max: 1000\n",
        {"partitions.csv": "043c0e09d7606f0e042c01868d60bf5287b768bf87ab5eb5d27b38ad51a3633b",
         "partitions.json": "7b1ddbd7586c4e3f384ae4585de14abdf6ac225823f9531448f84502d2f0b94d"}),
}


@pytest.mark.parametrize("run", sorted(REPORT_RUNS))
def test_report_files_are_pinned(tmp_path, run):
    text, digests = REPORT_RUNS[run]
    config = tmp_path / "config.yaml"
    config.write_text(text)
    threads = ["--threads", str(THREADS)] if hasattr(parse_config(text), "threads") else []
    assert main(["--config", str(config), "--out", str(tmp_path / "out"), *threads]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in (tmp_path / "out").iterdir() if p.name != "manifest.json"}
    assert got == digests, (
        f"{run}: the result files changed under stream layout {LAYOUT} (numpy {np.__version__}); a change to "
        "how a report is assembled or written must keep their bytes")

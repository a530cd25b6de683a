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

import numpy as np
import pytest

from lepage import EpsilonSpec, SeriesSpec, poisson_counts, rng, unit_jump
from lepage.cli import _COMMANDS, main
from lepage.parallel import chunk_size
from lepage.series import sample_marginals, sample_path_stats, sample_weighted_increments

# 8 terms and 2100 samples are three chunks, 1024, 1024 and 52, run on 2 threads
N, SAMPLES, THREADS = 8, 2100, 2


def spec(y):
    return SeriesSpec(1.0, N, EpsilonSpec.rademacher(), y, seed=20)


def digest(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


OUTPUTS = {
    "marginals_at_1": lambda: digest(sample_marginals(spec(unit_jump()), 1.0, SAMPLES, THREADS)),
    "marginals_at_0.6": lambda: digest(sample_marginals(spec(unit_jump()), 0.6, SAMPLES, THREADS)),
    "path_stats": lambda: digest(*vars(sample_path_stats(spec(unit_jump()), SAMPLES, THREADS)).values()),
    "poisson_increments": lambda: digest(sample_weighted_increments(
        spec(poisson_counts(1.0)), [(0.1, 0.4), (0.4, 0.9)], SAMPLES, THREADS)),
}

# layout 2: SFC64 generators keyed by SeedSequence, chunks of max(1, min(1024, 2**22 // n))
LAYOUT = 2
DIGESTS = {
    "marginals_at_1": "4931b32b9d98fee6d6c079386ba0890e9e4102a07e5e8e635d2e03f4b1fe1962",
    "marginals_at_0.6": "d587e08c4aec264adff8556b2fef21fad245abbb15e41e3ef9708867bb4e668b",
    "path_stats": "302dc89c4bf6674f4f5890d3ccb32530c9f46b085c1574befea4dc6c8eb4dc74",
    "poisson_increments": "bb88b5f07fd17d334973916598a382bd7a48061978d2c0d16d4d92fbfc868523",
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

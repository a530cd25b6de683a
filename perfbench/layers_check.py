"""Checks of the benchmark's tracer on small versions of every workload.

Run with ``python3 -m pytest perfbench/layers_check.py`` from the repository
root.  The file name keeps it out of the package's own test run.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import lepage.cli as cli  # noqa: E402
import lepage.random_inputs as random_inputs  # noqa: E402
import lepage.series as series  # noqa: E402

import tracer as tracer_mod  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the same commands at a size that runs in about a second
SMALL = {
    "marginal": {"truncation_n": 200, "samples": 600},
    "pathstats": {"truncation_n": 100, "samples": 600, "sigma_replicates": 1000},
    "tightness": {"n": 20, "replicates": 300},
    "simulate": {"truncation_n": 1000},
}

# layer -> workloads on which it has a share of the time (or a count)
CALLED_ON = {
    "random_inputs.gamma_s": ("marginal", "pathstats", "tightness", "simulate"),
    "random_inputs.epsilon_s": ("marginal", "pathstats", "tightness", "simulate"),
    "random_inputs.y_s": ("marginal", "pathstats", "tightness", "simulate"),
    "series.assemble_s": ("marginal", "pathstats", "tightness", "simulate"),
    "series.reduce_s": ("marginal", "pathstats", "tightness"),
    "random_inputs.reduce_s": ("marginal", "pathstats", "tightness"),
    "diagnostics.s": ("tightness",),
    "stable_checks.s": ("marginal", "pathstats"),
    "cli.output_s": ("marginal", "pathstats", "tightness", "simulate"),
    "paths.serialize_s": ("simulate",),
}
CHUNKED = ("marginal", "pathstats", "tightness")


def traced_run(name: str, threads: int, out_dir: Path) -> tuple[int, tracer_mod.Tracer]:
    config = {**WORKLOADS[name].config_for(WORKLOADS[name].default_seed), **SMALL[name]}
    cfg = cli.parse_config(json.dumps(config))
    cfg.threads, cfg.out_dir = threads, str(out_dir)
    tracer = tracer_mod.Tracer(threads).install()
    try:
        code = cli.run(cfg)
    finally:
        tracer.remove()
    return code, tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_layer_records_calls(name, tmp_path):
    code, tracer = traced_run(name, 1, tmp_path)
    assert code in (0, 2)
    assert tracer.missing == []
    for metric, workloads in CALLED_ON.items():
        if name in workloads:
            assert tracer.calls[metric] > 0, metric
            assert tracer.self_s[metric] > 0.0, metric
    layers = tracer.metrics()
    assert layers["random_inputs.draw_events"] > 0
    assert layers["rng.generators"] > 0
    assert layers["parallel.chunks"] == 0  # a single thread maps no chunks


@pytest.mark.parametrize("name", CHUNKED)
def test_chunks_are_timed_on_pool_threads(name, tmp_path):
    code, tracer = traced_run(name, 2, tmp_path)
    assert code in (0, 2)
    layers = tracer.metrics()
    assert layers["parallel.chunks"] > 0
    assert layers["parallel.busy_s"] > 0.0
    assert 0.0 < layers["parallel.efficiency"] <= 1.0
    assert layers["parallel.chunk_max_over_mean"] >= 1.0
    # spans inside chunks still land in their layers from the pool threads
    assert layers["random_inputs.draw_s"] > 0.0


def test_names_imported_elsewhere_are_patched_and_restored():
    original = random_inputs.values_at
    tracer = tracer_mod.Tracer().install()
    try:
        assert series.values_at is random_inputs.values_at
        assert series.values_at is not original
    finally:
        tracer.remove()
    assert series.values_at is original and random_inputs.values_at is original


def test_missing_boundary_is_named_not_zero(monkeypatch, tmp_path):
    spans = dict(tracer_mod.SPANS)
    spans["series.assemble_s"] = ["lepage.series:_renamed_chunk_coeffs",
                                  "lepage.series:_combine_term_events"]
    monkeypatch.setattr(tracer_mod, "SPANS", spans)
    code, tracer = traced_run("marginal", 1, tmp_path)
    assert code in (0, 2)
    assert tracer.missing == ["lepage.series:_renamed_chunk_coeffs"]
    layers = tracer.metrics()
    assert layers["series.assemble_s"] == -1
    assert layers["random_inputs.draw_s"] > 0.0


def test_benchmark_json_lists_the_reported_metrics():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)

import hashlib
import json
import math
import os
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lepage import ConfigurationError, RngStream, SeriesSpec, EpsilonSpec, poisson_counts, unit_jump, partial_sum
from lepage import diagnostics as diag, parallel, series
from lepage.cli import ConfigParseError, _json_text, main, parse_config
from lepage.paths import StepPath, path_from_csv
from test_paths import BLOCK_BOUNDARY_JUMPS, boundary_path, path_from_json, reference_path_csv


def run_cli(tmp_path: Path, config: str, *args) -> tuple[int, Path]:
    cfg = tmp_path / "config.yaml"
    cfg.write_text(config)
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), *args])
    return code, out


MINIMAL = """
command: simulate
alpha: 1.5
epsilon: rademacher
y: example1
"""


# the smallest valid config of each command
MINIMAL_BY_COMMAND = {
    "simulate": "command: simulate\nalpha: 1.5\nepsilon: rademacher\ny: example1\n",
    "check-conditions": "command: check-conditions\ny: example1\n",
    "constants": "command: constants\nalpha: 1.5\nepsilon: rademacher\n",
    "partitions": "command: partitions\nalpha: 1.5\nepsilon: rademacher\n",
    "tightness": "command: tightness\nalpha: 1.5\nepsilon: rademacher\ny: example1\n",
    "stability": "command: stability\nalpha: 1.5\nepsilon: rademacher\ny: example1\n",
    "spectral": "command: spectral\nalpha: 1.5\nepsilon: rademacher\ny: example1\n",
    "regvar": "command: regvar\nalpha: 1.5\nepsilon: rademacher\ny: example1\n",
}

DEFAULT_PAIRS = [(i / 20.0, i / 20.0 + 0.5) for i in range(10)]
DEFAULT_TRIPLES = [(i / 20.0, i / 20.0 + 0.25, i / 20.0 + 0.5) for i in range(10)]
DEFAULT_EVENTS = ["full_sphere", "nonnegative_path"]
RUN_DEFAULTS = {"seed": 0, "out_dir": "out", "formats": ("csv", "json")}
MODE_DEFAULTS = {"truncation_n": 10_000, "weight_mode": "gamma", "epsilon_mode": "raw"}
# every key a command reads beside the run keys and the keys of its minimal config; constants
# and partitions draw no paths, so they take no threads
COMMAND_DEFAULTS = {
    "simulate": {**MODE_DEFAULTS, "threads": 1, "replicates": 1, "per_term_norms": False},
    "check-conditions": {"threads": 1, "replicates": 100_000, "pairs": DEFAULT_PAIRS,
                         "triples": DEFAULT_TRIPLES, "envelope": None},
    "constants": {"m_values": [2.0, 3.0, 4.0], "n_max": 10**6},
    "partitions": {"n_grid": [1, 2, 4, 8, 16, 32, 64], "constant_n_max": 10**5},
    "tightness": {"threads": 1, "replicates": 10_000, "triples": DEFAULT_TRIPLES, "envelope": None, "n": 100},
    "stability": {**MODE_DEFAULTS, "threads": 1, "samples": 30_000, "t": 1.0},
    "spectral": {"threads": 1, "replicates": 100_000, "events": DEFAULT_EVENTS},
    "regvar": {**MODE_DEFAULTS, "threads": 1, "samples": 30_000, "sigma_replicates": 100_000,
               "events": DEFAULT_EVENTS, "r_grid": [1.0, 2.0], "n": 100},
}


def _with_value(command: str, key: str, value: str) -> tuple[str, int]:
    """The command's minimal config with ``key: value`` as its last line, and that line's number."""
    lines = [ln for ln in MINIMAL_BY_COMMAND[command].splitlines() if not ln.startswith(f"{key}:")]
    lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n", len(lines)


class TestCommandTables:
    @pytest.mark.parametrize("command", sorted(COMMAND_DEFAULTS))
    def test_defaults(self, command):
        cfg = parse_config(MINIMAL_BY_COMMAND[command])
        defaults = {**RUN_DEFAULTS, **COMMAND_DEFAULTS[command]}
        for key, want in defaults.items():
            got = getattr(cfg, key)
            if key == "events":
                got = [event.name for event in got]
            assert got == want, key
        # the keys of the minimal config and the defaults are all the command reads
        assert set(vars(cfg)) == {"raw", *cfg.raw, *defaults}

    @pytest.mark.parametrize("command,key,value", [
        ("simulate", "samples", "10"),
        ("check-conditions", "events", "[full_sphere]"),
        ("constants", "pairs", "[[0.1, 0.6]]"),  # accepted and ignored before
        ("partitions", "m_values", "[2.0]"),
        ("tightness", "pairs", "[[0.1, 0.6]]"),
        ("stability", "per_term_norms", "true"),
        ("spectral", "samples", "100"),
        ("regvar", "triples", "[[0.1, 0.2, 0.3]]"),
        # run settings the command would ignore: the criterion reads Y alone, constants and
        # partitions read no paths, and tightness fixes its depth and modes
        *[("check-conditions", key, value) for key, value in (
            ("alpha", "1.5"), ("epsilon", "rademacher"), ("truncation_n", "7"),
            ("weight_mode", "gamma"), ("epsilon_mode", "raw"))],
        *[(command, key, value) for command in ("constants", "partitions") for key, value in (
            ("y", "example1"), ("replicates", "10"), ("truncation_n", "7"),
            ("weight_mode", "gamma"), ("epsilon_mode", "raw"), ("threads", "4"))],
        *[(command, key, value) for command in ("tightness", "spectral") for key, value in (
            ("truncation_n", "7"), ("weight_mode", "gamma"), ("epsilon_mode", "raw"))],
        ("stability", "replicates", "10"),
        ("regvar", "replicates", "10"),
    ])
    def test_key_the_command_does_not_read_is_rejected(self, tmp_path, capsys, command, key, value):
        text, line = _with_value(command, key, value)
        with pytest.raises(ConfigParseError, match=rf"line {line}: key '{key}'"):
            parse_config(text)
        code, _ = run_cli(tmp_path, text)
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command,key,value", [
        ("simulate", "threads", "0"),
        ("simulate", "replicates", "abc"),
        ("simulate", "alpha", "[1]"),
        ("partitions", "n_grid", "5"),
        ("stability", "samples", "-5"),
        ("check-conditions", "pairs", "[[0.1]]"),
        # times out of order, refused only after the draws of c1 and with no line before
        ("check-conditions", "pairs", "[[0.8, 0.2]]"),
        ("check-conditions", "triples", "[[0.5, 0.2, 0.8]]"),
        ("tightness", "triples", "[[0.5, 0.2, 0.8]]"),
        ("simulate", "per_term_norms", '"false"'),  # a string, not a boolean
        ("simulate", "per_term_norms", "1"),
        ("check-conditions", "envelope", "{kind: sum_of_cdfs, beta: 2.0}"),
        # the offset b of an affine envelope was parsed, checked and dropped; poly [a] is that envelope
        ("check-conditions", "envelope", "{kind: affine, coeffs: [2.0, 1.0]}"),
        # a declared fourth-moment bound below E R^4 = 1 would build the default envelope from a false bound
        ("check-conditions", "y", "{variant: example2, p: 3, fourth_moment_bound: 0.01}"),
        # a nested key that the chosen variant, family or kind does not read
        ("simulate", "y", "{variant: example1, lambda: 3.0}"),
        ("simulate", "epsilon", "{family: rademacher, a: 5.0}"),
        ("simulate", "epsilon", "{family: uniform_symmetric, a: 2.0, alpha_moment_hint: 1.5}"),  # removed key
        ("check-conditions", "envelope", "{kind: grid, beta: 1.0, xs: [0, 1], ys: [0, 1], coeffs: [3]}"),
        ("simulate", "y", "{variant: example2, heights: {constant: [1.0], probabilities: [1.0]}}"),
        ("simulate", "y", "{variant: example2, cdfs: [{xs: [0, 1], ys: [0, 1], beta: 2}]}"),
        ("simulate", "y", "{variant: user, paths_dir: paths, dimension: 1}"),  # removed key: the files decide
        # non-finite or empty envelope parameters and moment orders, refused before any draw
        ("check-conditions", "envelope", "{kind: poly, coeffs: [.nan]}"),
        ("check-conditions", "envelope", "{kind: poly, coeffs: [.inf]}"),
        ("check-conditions", "envelope", "{kind: grid, xs: [0.0, .nan, 1.0], ys: [0.0, 0.5, 1.0]}"),
        ("check-conditions", "envelope", "{kind: grid, xs: [], ys: []}"),
        ("constants", "m_values", "[.nan]"),
        ("constants", "m_values", "[.inf]"),
        # numbers coerced in silence before: a fraction truncated, a boolean read as 0 or 1
        ("stability", "samples", "2.7"),
        ("stability", "samples", "true"),
        ("simulate", "seed", "3.9"),
        ("simulate", "threads", "2.5"),
        ("simulate", "threads", "true"),
        ("simulate", "y", "{variant: example2, p: 2.9}"),
        ("simulate", "alpha", "true"),
        ("stability", "t", "true"),
        # nested numbers read a boolean as 0 or 1 before
        ("simulate", "y", "{variant: example3, lambda: true}"),
        ("check-conditions", "pairs", "[[false, true]]"),
        ("check-conditions", "envelope", "{kind: identity, beta: true}"),
        ("check-conditions", "envelope", "{kind: poly, coeffs: [true]}"),
        ("simulate", "epsilon", "{family: uniform_symmetric, a: true}"),
        ("simulate", "y", "{variant: example2, heights: {constant: [true]}}"),
        ("spectral", "events", "[{kind: norm_equals, value: true}]"),
        # a seed no stream can take: written to the manifest, or refused only after the output
        # directory was made, before
        ("constants", "seed", "-1"),
        ("simulate", "seed", "-1"),
        ("simulate", "seed", "18446744073709551616"),
    ])
    def test_malformed_value_is_a_line_numbered_error(self, tmp_path, capsys, command, key, value):
        text, line = _with_value(command, key, value)
        with pytest.raises(ConfigParseError, match=rf"line {line}: key '{key}'"):
            parse_config(text)
        code, _ = run_cli(tmp_path, text)
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command,key,value,want", [
        ("simulate", "y", "{variant: example3, lambda: null}", lambda cfg: cfg.y == poisson_counts(1.0)),
        ("simulate", "epsilon", "{family: uniform_symmetric, a: null}", lambda cfg: cfg.epsilon.a == 1.0),
        ("check-conditions", "envelope", "{kind: null, beta: null}",
         lambda cfg: cfg.envelope == diag.MomentEnvelope(1.0)),
        ("simulate", "output", "{directory: null, formats: null}",
         lambda cfg: (cfg.out_dir, cfg.formats) == ("out", ("csv", "json"))),
    ], ids=["lambda", "a", "kind_and_beta", "output"])
    def test_nested_null_takes_its_default(self, command, key, value, want):
        assert want(parse_config(_with_value(command, key, value)[0]))

    @pytest.mark.parametrize("command,key,bare,mapping", [
        ("spectral", "events", "[full_sphere, nonnegative_path]", "[{kind: full_sphere}, {kind: nonnegative_path}]"),
        ("check-conditions", "envelope", "identity", "{kind: identity}"),
    ])
    def test_a_bare_string_names_the_variant_family_or_kind(self, command, key, bare, mapping):
        # as for y and epsilon; before, an events entry took full_sphere only bare, an envelope only as a mapping
        def parsed(value):
            return repr(getattr(parse_config(_with_value(command, key, value)[0]), key))

        assert parsed(bare) == parsed(mapping)

    @pytest.mark.parametrize("seed", ["-5", "18446744073709551616"])
    def test_seed_flag_outside_the_seed_range_writes_nothing(self, tmp_path, capsys, seed):
        code, out = run_cli(tmp_path, MINIMAL + "truncation_n: 30\n", "--seed", seed)
        assert code == 1
        assert capsys.readouterr().err == f"error: seed must lie in [0, 2^64), got {seed}\n"
        assert not out.exists()

    def test_seed_flag_that_is_no_number_exits_1(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, MINIMAL + "truncation_n: 30\n", "--seed", "abc")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    # argparse's own usage errors exit 1 too: exit 2 is the "violated" verdict of a check command
    @pytest.mark.parametrize("argv,code", [([], 1), (["--config"], 1), (["--config", "x.yaml", "--bogus"], 1),
                                           (["--help"], 0)])
    def test_usage_errors_exit_1_and_help_0(self, capsys, argv, code):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        err = capsys.readouterr().err
        assert err.startswith("usage: lepage") if code else not err

    @pytest.mark.parametrize("value,written", [("false", False), ("true", True)])
    def test_per_term_norms_takes_a_boolean(self, tmp_path, value, written):
        text, _ = _with_value("simulate", "per_term_norms", value)
        code, out = run_cli(tmp_path, text.replace("alpha: 1.5", "alpha: 1.5\ntruncation_n: 50"))
        assert code == 0
        assert (out / "path_0000_term_norms.json").exists() is written

    @pytest.mark.parametrize("kind,params,f", [
        ("identity", "", lambda t: t),
        ("poly", ", coeffs: [2.0]", lambda t: 2 * t),  # a t: an offset would cancel in every difference
        ("poly", ", coeffs: [1.0, 0.5]", lambda t: t + 0.5 * t**2),
        ("grid", ", xs: [0.0, 1.0], ys: [0.0, 1.0]", lambda t: t),
    ])
    def test_envelope_kinds_a_config_can_build(self, kind, params, f):
        text, _ = _with_value("check-conditions", "envelope", f"{{kind: {kind}{params}}}")
        envelope = parse_config(text).envelope
        t = np.array([0.0, 0.3, 1.0])
        assert np.array_equal(envelope.f(t), f(t))
        assert envelope.beta == 1.0  # the default of every kind

    def test_other_envelope_kinds_name_the_buildable_ones(self):
        text, line = _with_value("check-conditions", "envelope", "{kind: sum_of_cdfs, beta: 2.0}")
        with pytest.raises(ConfigParseError, match=rf"line {line}: key 'envelope': must be "
                           r"'identity' or 'poly' or 'grid', got 'sum_of_cdfs'"):
            parse_config(text)

    def test_user_paths_of_mixed_dimension_are_a_config_error(self, tmp_path):
        paths_dir = tmp_path / "mixed"
        paths_dir.mkdir()
        (paths_dir / "a.csv").write_text("t,value_1\n0,0\n0.5,1\n")
        (paths_dir / "b.csv").write_text("t,value_1,value_2\n0,0,0\n0.5,1,1\n")
        text, line = _with_value("stability", "y", f"{{variant: user, paths_dir: {paths_dir}}}")
        with pytest.raises(ConfigParseError, match=rf"line {line}: key 'y': user paths must share one dimension"):
            parse_config(text)

    def test_user_paths_whose_heights_overflow_are_a_config_error(self, tmp_path):
        paths_dir = tmp_path / "overflow"
        paths_dir.mkdir()
        (paths_dir / "a.csv").write_text("t,value_1\n0,0\n0.5,1\n")
        (paths_dir / "b.csv").write_text("t,value_1\n0,0\n0.25,1e308\n0.75,-1e308\n")
        text, line = _with_value("stability", "y", f"{{variant: user, paths_dir: {paths_dir}}}")
        with pytest.raises(ConfigParseError, match=rf"line {line}: key 'y': user path 1 \(counted from 0\) "
                           r"jumps from \[1e\+308\] to \[-1e\+308\], a height of \[-inf\]"):
            parse_config(text)

    @pytest.mark.parametrize("alpha,key,value,message", [
        # every marginal at t 0.5 read exactly 0.0, so the KS distance was 0 and the run "satisfied"
        (1.5, "y", "{variant: example2, cdfs: [{xs: [0.0, .nan, 1.0], ys: [0.0, 0.5, 1.0]}]}",
         r"cdf grid needs finite matching xs/ys"),
        # drew the first atom every time
        (0.8, "epsilon", "{family: table, values: [-1.0, 1.0], probabilities: [.nan, 1.0]}",
         r"multiplier probabilities must be finite, lie in \[0, 1\] and sum to 1, got \[nan, 1\.0\]"),
        (1.5, "y", "{variant: example2, heights: {values: [[1.0], [2.0]], probabilities: [.nan, 1.0]}}",
         r"height probabilities must be finite, lie in \[0, 1\] and sum to 1, got \[nan, 1\.0\]"),
        # drew, then blamed small alpha for the overflow
        (1.5, "y", "{variant: example2, heights: {values: [[1.0], [.inf]], probabilities: [0.5, 0.5]}}",
         r"height atoms must be finite, got \[\[1\.0\], \[inf\]\]"),
        # passed, and the echo wrote the bound as the non-JSON token NaN
        (1.5, "y", "{variant: example2, fourth_moment_bound: .nan}", r"declared fourth-moment bound nan is exceeded"),
    ], ids=["cdf_knot", "table_probability", "height_probability", "height", "fourth_moment_bound"])
    def test_non_finite_distribution_parameters_are_config_errors(self, alpha, key, value, message):
        text = f"command: stability\nalpha: {alpha}\nepsilon: rademacher\ny: example1\nt: 0.5\n"
        text = text.replace(f"{key}: {'rademacher' if key == 'epsilon' else 'example1'}", f"{key}: {value}")
        line = 3 if key == "epsilon" else 4
        with pytest.raises(ConfigParseError, match=rf"line {line}: key '{key}': {message}"):
            parse_config(text)

    @pytest.mark.parametrize("n,message", [
        (10000, "regvar needs 1 <= n <= samples, got n 10000 and samples 8000"),
        (0, "must be >= 1, got 0"),  # the parser of n, shared with tightness
    ], ids=["10000", "0"])
    def test_regvar_rejects_n_outside_one_to_samples_before_drawing(self, tmp_path, capsys, monkeypatch, n,
                                                                    message):
        text = MINIMAL_BY_COMMAND["regvar"] + f"samples: 8000\nn: {n}\n"
        with pytest.raises(ConfigParseError, match=rf"line 6: key 'n': {message}"):
            parse_config(text)

        def no_draw(*args, **kwargs):
            raise AssertionError("paths were drawn")

        monkeypatch.setattr(series, "sample_path_stats", no_draw)
        code, _ = run_cli(tmp_path, text)
        assert code == 1
        assert message in capsys.readouterr().err
        assert parse_config(text.replace(f"n: {n}", "n: 8000")).n == 8000  # as many samples as n is enough

    @pytest.mark.parametrize("r_grid,message", [
        ("[.nan, .inf]", "must be finite, got nan"),  # wrote nan rows and exited 0
        ("[0.0, 1.0]", "must be positive, got 0.0"),  # drew everything, then divided by zero
        ("[-1.0]", "must be positive, got -1.0"),  # wrote a complex tail value, then failed in JSON
    ], ids=["non_finite", "zero", "negative"])
    def test_regvar_rejects_a_radius_before_drawing(self, tmp_path, capsys, monkeypatch, r_grid, message):
        text = MINIMAL_BY_COMMAND["regvar"] + f"truncation_n: 50\nsamples: 1000\nn: 10\nr_grid: {r_grid}\n"
        with pytest.raises(ConfigParseError, match=rf"line 8: key 'r_grid': {message}"):
            parse_config(text)

        def no_draw(*args, **kwargs):
            raise AssertionError("paths were drawn")

        monkeypatch.setattr(series, "sample_path_stats", no_draw)
        code, _ = run_cli(tmp_path, text)
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("extra,message", [
        ("sigma_replicates: 10\n", "need at least 1000 replicates, got 10"),
        ("sigma_replicates: 1000\nevents: [{kind: norm_equals, value: 1.0, name: a}, "
         "{kind: norm_equals, value: 2.0, name: a}]\n", "event names must be distinct"),
    ], ids=["replicate_floor", "duplicate_names"])
    def test_regvar_runs_the_spectral_checks_before_drawing_paths(self, tmp_path, capsys, monkeypatch, extra,
                                                                   message):
        # both were refused only after every series path was drawn
        def no_draw(*args, **kwargs):
            raise AssertionError("paths were drawn")

        monkeypatch.setattr(series, "sample_path_stats", no_draw)
        code, _ = run_cli(tmp_path, MINIMAL_BY_COMMAND["regvar"] + "truncation_n: 50\nsamples: 1000\n" + extra)
        assert code == 1
        assert message in capsys.readouterr().err

    def test_tightness_rejects_n_zero_before_drawing(self, tmp_path, capsys, monkeypatch):
        # a series of no terms would report estimate 0 and envelope 0 as "satisfied"
        text = MINIMAL_BY_COMMAND["tightness"] + "n: 0\nreplicates: 2000\n"
        with pytest.raises(ConfigParseError, match=r"line 5: key 'n': must be >= 1, got 0"):
            parse_config(text)

        def not_called(*args, **kwargs):
            raise AssertionError("the tightness functional ran")

        monkeypatch.setattr(diag, "tightness_functional", not_called)
        code, _ = run_cli(tmp_path, text)
        assert code == 1
        assert "line 5: key 'n': must be >= 1, got 0" in capsys.readouterr().err
        assert parse_config(text.replace("n: 0", "n: 1")).n == 1

    @pytest.mark.parametrize("replicates", [0, 1])
    def test_tightness_rejects_fewer_than_two_replicates_before_drawing(self, tmp_path, capsys, monkeypatch,
                                                                        replicates):
        # one replicate has no standard error, and none has no mean
        def not_called(*args, **kwargs):
            raise AssertionError("the tightness functional drew paths")

        monkeypatch.setattr(diag, "sample_weighted_increments", not_called)
        code, out = run_cli(tmp_path, MINIMAL_BY_COMMAND["tightness"] + f"replicates: {replicates}\n")
        assert code == 1
        assert capsys.readouterr().err == f"error: need at least 2 replicates, got {replicates}\n"
        assert not (out / "tightness.csv").exists()

    def test_json_config_errors_carry_line_numbers(self):
        text = json.dumps({"command": "simulate", "alpha": 1.5, "epsilon": "rademacher",
                           "y": "example1", "samples": 10}, indent=1)
        with pytest.raises(ConfigParseError, match=r"line 6: key 'samples'"):
            parse_config(text)

    def test_error_names_the_top_level_line_of_a_key(self):
        text = MINIMAL_BY_COMMAND["constants"].replace(
            "epsilon: rademacher", "epsilon:\n  family: two_point\n  p: 0.8\n  x_neg: -1\n  x_pos: 4"
        ) + "p: 3\n"
        with pytest.raises(ConfigParseError, match=r"line 8: key 'p'"):
            parse_config(text)

    def test_manifest_records_resolved_config(self, tmp_path):
        code, out = run_cli(tmp_path, MINIMAL_BY_COMMAND["check-conditions"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        resolved = manifest["resolved_config"]
        assert resolved["replicates"] == 100_000
        assert resolved["pairs"] == [list(p) for p in DEFAULT_PAIRS]
        assert resolved["y"] == "example1"
        # the hash every result file carries covers the config as written, not the defaults
        raw = {"command": "check-conditions", "y": "example1"}
        echo = json.dumps({"command": "check-conditions", "seed": 0, "config": raw}, sort_keys=True)
        assert manifest["manifest_hash"] == hashlib.sha256(echo.encode()).hexdigest()[:16]

    @pytest.mark.parametrize("command", ["constants", "partitions"])
    def test_commands_without_paths_take_no_threads(self, tmp_path, capsys, command):
        text = MINIMAL_BY_COMMAND[command] + ("n_max: 100\n" if command == "constants" else "n_grid: [1, 2]\n")
        code, _ = run_cli(tmp_path, text, "--threads", "4")
        assert code == 1
        assert f"command '{command}' takes no --threads" in capsys.readouterr().err
        code, out = run_cli(tmp_path, text)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "threads" not in manifest and "threads" not in manifest["resolved_config"]

    def test_tightness_reports_the_series_it_runs(self, tmp_path):
        code, out = run_cli(tmp_path, MINIMAL_BY_COMMAND["tightness"]
                            + "n: 20\nreplicates: 200\ntriples: [[0.1, 0.35, 0.6]]\n")
        assert code == 0
        spec = json.loads((out / "tightness.json").read_text())["spec"]
        assert (spec["truncation_n"], spec["weight_mode"], spec["epsilon_mode"]) == (20, "deterministic",
                                                                                     "truncated")
        resolved = json.loads((out / "manifest.json").read_text())["resolved_config"]
        assert resolved["n"] == 20
        assert not {"truncation_n", "weight_mode", "epsilon_mode"} & set(resolved)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.truncation_n == 10_000
        assert cfg.replicates == 1
        assert cfg.seed == 0
        assert cfg.weight_mode == "gamma"
        assert cfg.formats == ("csv", "json")

    def test_alpha_boundary_rejected_with_interval_message(self):
        with pytest.raises(ConfigParseError, match=r"\(0, 2\)"):
            parse_config(MINIMAL.replace("alpha: 1.5", "alpha: 2.0"))

    def test_nonzero_mean_epsilon_rejected_at_alpha_geq_one(self):
        bad = MINIMAL.replace(
            "epsilon: rademacher",
            "epsilon: {family: table, values: [1.0, 3.0], probabilities: [0.5, 0.5]}",
        )
        with pytest.raises(ConfigParseError, match="mean-zero"):
            parse_config(bad)

    def test_unknown_key_with_line_reference(self):
        with pytest.raises(ConfigParseError, match=r"line 3: key 'alfa'"):
            parse_config("\ncommand: simulate\nalfa: 1.5\nepsilon: rademacher\ny: example1\n")

    def test_unknown_nested_key(self):
        bad = MINIMAL + "output: {directory: out, fmt: [csv]}\n"
        with pytest.raises(ConfigParseError, match="fmt"):
            parse_config(bad)

    def test_unknown_command(self):
        with pytest.raises(ConfigParseError, match="command"):
            parse_config(MINIMAL.replace("simulate", "simulatee"))

    def test_json_config_accepted(self):
        cfg = parse_config(json.dumps(
            {"command": "simulate", "alpha": 1.5, "epsilon": "rademacher", "y": "example1"}
        ))
        assert cfg.alpha == 1.5

    # a key given twice is refused, naming the line of its second mention, not run at its last value
    @pytest.mark.parametrize("text,line,key", [
        (MINIMAL + "alpha: 0.8\n", 6, "alpha"),
        ('{"command": "simulate", "alpha": 1.5, "epsilon": "rademacher", "y": "example1",\n"alpha": 0.8}', 2, "alpha"),
        (MINIMAL.replace("y: example1", "y: {variant: example3, lambda: 2.0, lambda: 5.0}"), 5, "lambda"),
        ('{"command": "simulate", "alpha": 1.5, "epsilon": "rademacher",\n'
         ' "y": {"variant": "example3",\n "lambda": 2.0, "lambda": 5.0}}', 3, "lambda"),
    ], ids=["yaml", "json", "yaml_nested", "json_nested"])
    def test_repeated_key_refused(self, tmp_path, capsys, text, line, key):
        with pytest.raises(ConfigParseError, match=rf"^line {line}: key '{key}': given twice$"):
            parse_config(text)
        code, out = run_cli(tmp_path, text)
        assert code == 1
        assert capsys.readouterr().err.endswith(f"line {line}: key '{key}': given twice\n")
        assert not out.exists()


class TestSimulateCommand:
    def test_writes_paths_and_manifest(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            MINIMAL + "truncation_n: 50\nreplicates: 2\nseed: 3\n",
        )
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert {"manifest.json", "path_0000.csv", "path_0000.json",
                "path_0001.csv", "path_0001.json", "samples.csv", "samples.json"} <= names

    def test_paths_round_trip_to_library_result(self, tmp_path):
        code, out = run_cli(tmp_path, MINIMAL + "truncation_n: 40\nreplicates: 1\nseed: 9\n")
        assert code == 0
        spec = SeriesSpec(1.5, 40, EpsilonSpec.rademacher(), unit_jump(), seed=9)
        want = partial_sum(spec, RngStream(9, 0)).path
        got_csv = path_from_csv((out / "path_0000.csv").read_text())
        got_json = path_from_json((out / "path_0000.json").read_text())
        assert got_csv == want
        assert got_json == want

    def test_replicates_run_on_the_threads_set(self, tmp_path, monkeypatch):
        # each replicate waits at a barrier for the other, which only two threads running at once pass
        barrier, draw = threading.Barrier(2, timeout=10.0), series.partial_sum

        def waiting_partial_sum(*args, **kwargs):
            barrier.wait()
            return draw(*args, **kwargs)

        monkeypatch.setattr(series, "partial_sum", waiting_partial_sum)
        code, _ = run_cli(tmp_path, MINIMAL + "truncation_n: 50\nreplicates: 2\n", "--threads", "2")
        assert code == 0  # c14 checks the bytes against one thread

    def test_one_replicate_runs_on_the_calling_thread(self, tmp_path, monkeypatch):
        # a pool for one task moves no byte and costs its thread, so none is started
        caller, draw, seen = threading.get_ident(), series.partial_sum, []

        def noting_partial_sum(*args, **kwargs):
            seen.append(threading.get_ident())
            return draw(*args, **kwargs)

        monkeypatch.setattr(series, "partial_sum", noting_partial_sum)
        code, _ = run_cli(tmp_path, MINIMAL + "truncation_n: 50\n", "--threads", "4")
        assert code == 0 and seen == [caller]

    def test_auto_threads_are_the_cpus_this_process_may_run_on(self, monkeypatch):
        # under an affinity mask of one CPU, more threads would only contend for the GIL
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert parallel.resolve_threads("auto") == parallel.resolve_threads(None) == 1
        monkeypatch.delattr(os, "sched_getaffinity")  # a platform without affinity masks
        assert parallel.resolve_threads("auto") == 64

    def test_zero_replicates(self, tmp_path):
        code, out = run_cli(tmp_path, MINIMAL + "replicates: 0\n")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        samples = json.loads((out / "samples.json").read_text())
        assert samples["samples"] == []
        assert "samples.json" in manifest["files"]

    def test_seed_flag_overrides_config(self, tmp_path):
        code, out = run_cli(tmp_path, MINIMAL + "truncation_n: 30\nseed: 1\n", "--seed", "2")
        assert code == 0
        spec = SeriesSpec(1.5, 30, EpsilonSpec.rademacher(), unit_jump(), seed=2)
        assert path_from_csv((out / "path_0000.csv").read_text()) == partial_sum(
            spec, RngStream(2, 0)
        ).path

    # unit jumps, and 2-d weighted jumps
    YS = ["example1",
          "{variant: example2, p: 2, heights: {values: [[1.0, -0.5], [0.25, 2.0]], "
          "probabilities: [0.5, 0.5]}}"]

    @pytest.mark.parametrize("y", YS)
    def test_zero_terms_with_per_term_norms(self, tmp_path, y):
        config = MINIMAL.replace("y: example1", f"y: {y}")
        code, out = run_cli(tmp_path, config + "truncation_n: 0\nper_term_norms: true\n")
        assert code == 0
        norms = json.loads((out / "path_0000_term_norms.json").read_text())
        assert norms["per_term_norms"] == []
        dimension = parse_config(config).series_spec().dimension
        assert path_from_csv((out / "path_0000.csv").read_text()) == StepPath(dimension, np.zeros(dimension))

    @pytest.mark.parametrize("y", YS)
    def test_path_files_equal_reference_writers(self, tmp_path, y):
        config = MINIMAL.replace("y: example1", f"y: {y}")
        code, out = run_cli(tmp_path, config + "truncation_n: 300\nper_term_norms: true\nseed: 5\n")
        assert code == 0
        spec = parse_config(config + "truncation_n: 300\nseed: 5\n").series_spec()
        result = partial_sum(spec, RngStream(5, 0), with_term_norms=True)
        path = result.path
        stamp = {"manifest_hash": json.loads((out / "manifest.json").read_text())["manifest_hash"],
                 "seed": 5}

        def reference_json(payload: dict) -> str:
            return json.dumps({**payload, **stamp}, indent=2, sort_keys=True) + "\n"

        assert (out / "path_0000.csv").read_text() == reference_path_csv(path)
        assert (out / "path_0000.json").read_text() == reference_json(
            {"dimension": path.dimension, "initial_value": path.initial_value.tolist(),
             "jump_times": path.jump_times.tolist(),
             "post_jump_values": path.post_jump_values.tolist()})
        assert (out / "path_0000_term_norms.json").read_text() == reference_json(
            {"replicate": 0, "per_term_norms": result.per_term_norms.tolist()})


class TestCheckCommands:
    def test_clean_generator_exits_zero(self, tmp_path):
        code, out = run_cli(tmp_path, """
command: check-conditions
y: example1
replicates: 5000
seed: 1
""")
        assert code == 0
        report = json.loads((out / "c1_report.json").read_text())
        assert all(e["verdict"] != "violated" for e in report["entries"])

    def test_engineered_violation_exits_two(self, tmp_path):
        paths_dir = tmp_path / "userpaths"
        paths_dir.mkdir()
        (paths_dir / "big.csv").write_text("t,value_1\n0,0\n0.5,10\n")
        code, out = run_cli(tmp_path, f"""
command: check-conditions
y: {{variant: user, paths_dir: {paths_dir}}}
envelope: {{kind: identity, beta: 1.0}}
replicates: 500
pairs: [[0.4, 0.6]]
triples: [[0.3, 0.5, 0.7]]
""")
        assert code == 2
        report = json.loads((out / "c1_report.json").read_text())
        assert report["entries"][0]["estimate"] == 100.0
        assert report["entries"][0]["verdict"] == "violated"

    def test_degenerate_generator_exits_one(self, tmp_path, capsys):
        # a pool of zero paths gives every replicate zero weight: the spectral normalizer is 0
        paths_dir = tmp_path / "zeropaths"
        paths_dir.mkdir()
        (paths_dir / "flat.csv").write_text("t,value_1\n0,0\n")
        (paths_dir / "still.csv").write_text("t,value_1\n0,0\n0.5,0\n")
        code, _ = run_cli(tmp_path, f"""
command: spectral
alpha: 1.5
epsilon: rademacher
y: {{variant: user, paths_dir: {paths_dir}}}
replicates: 1000
""")
        assert code == 1
        assert "all replicates have zero weight; the generator is degenerate" in capsys.readouterr().err

    def test_operational_error_exits_one(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(MINIMAL.replace("alpha: 1.5", "alpha: 3.0"))
        assert main(["--config", str(cfg)]) == 1
        assert main(["--config", str(tmp_path / "missing.yaml")]) == 1

    @pytest.mark.parametrize("config,sample", [
        ("command: stability\ntruncation_n: 200\nsamples: 2000\nseed: 1\n",
         lambda spec: series.sample_marginals(spec, 1.0, 2000)),
        ("command: regvar\ntruncation_n: 500\nsamples: 1500\nseed: 3\n",
         lambda spec: series.sample_path_stats(spec, 1500)),
    ], ids=["marginal", "path_stats"])
    def test_non_finite_sample_exits_one(self, tmp_path, capsys, config, sample):
        # at alpha 0.001 the weights Gamma_i^(-1000) of about 2 replicates in 5 overflow; the
        # run exits 1 with the sampler's error, which names alpha, a replicate and its chunk
        config += "alpha: 0.001\nepsilon: rademacher\ny: example1\n"
        with pytest.raises(ConfigurationError) as err:
            sample(parse_config(config).series_spec())
        expected = str(err.value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run_cli(tmp_path, config)
        assert code == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert expected.startswith("alpha 0.001: replicate ") and " (chunk " in expected

    def test_non_finite_partial_sum_exits_one(self, tmp_path, capsys):
        # at alpha 0.001 the weights of about 2 replicates in 5 overflow; at the first seed
        # whose replicate 0 overflows, the run names it, with no numpy warning on the way
        config = "command: simulate\nalpha: 0.001\nepsilon: rademacher\ny: example1\ntruncation_n: 200\n"
        for seed in range(20):
            try:
                partial_sum(parse_config(config).series_spec(seed=seed), RngStream(seed, 0))
            except ConfigurationError as exc:
                expected = str(exc)
                break
        else:
            pytest.fail("no seed below 20 overflows replicate 0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run_cli(tmp_path, config + f"seed: {seed}\n")
        assert code == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert expected.startswith("alpha 0.001: replicate 0 has coefficient ")

    @staticmethod
    def huge_pool(tmp_path: Path) -> Path:
        # a pool whose second path jumps to 1e200: squares and 1.9th powers of it overflow
        paths_dir = tmp_path / "huge"
        paths_dir.mkdir()
        (paths_dir / "a.csv").write_text("t,value_1\n0,0\n0.5,1\n")
        (paths_dir / "b.csv").write_text("t,value_1\n0,0\n0.5,1e200\n")
        return paths_dir

    def test_overflowing_moment_exits_one_naming_its_entry(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, f"""
command: check-conditions
y: {{variant: user, paths_dir: {self.huge_pool(tmp_path)}}}
envelope: {{kind: identity, beta: 1.0}}
replicates: 500
pairs: [[0.1, 0.3], [0.4, 0.6]]
""")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: increment_second_moment entry (0.4, 0.6): estimate inf")
        assert "overflow" in err[0]
        assert not (out / "c1_report.json").exists()

    def test_overflowing_tightness_exits_one_naming_its_triple(self, tmp_path, capsys):
        # the second path is 1e100 on (0.2, 0.5]: both intervals of the triple hold a jump of
        # size 1e100, so their squared increments are finite and their product overflows
        paths_dir = tmp_path / "up_and_down"
        paths_dir.mkdir()
        (paths_dir / "a.csv").write_text("t,value_1\n0,0\n0.5,1\n")
        (paths_dir / "b.csv").write_text("t,value_1\n0,0\n0.2,1e100\n0.5,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, f"""
command: tightness
alpha: 1.5
epsilon: rademacher
y: {{variant: user, paths_dir: {paths_dir}}}
envelope: {{kind: identity, beta: 1.0}}
n: 20
replicates: 2000
triples: [[0.6, 0.7, 0.8], [0.1, 0.4, 0.7]]
""")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: tightness entry (0.1, 0.4, 0.7): estimate inf")
        assert "overflow" in err[0]
        assert not (out / "tightness.csv").exists()

    def test_overflowing_spectral_weights_exit_one(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, f"""
command: spectral
alpha: 1.9
epsilon: rademacher
y: {{variant: user, paths_dir: {self.huge_pool(tmp_path)}}}
replicates: 2000
""")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: alpha 1.9: event '__normalizer__' sums |eps|^alpha * norm^alpha to inf")
        assert "overflow" in err[0]
        assert not (out / "spectral.json").exists()


class TestOutputs:
    def test_csv_files_carry_manifest_hash(self, tmp_path):
        code, out = run_cli(tmp_path, """
command: constants
alpha: 1.5
epsilon: rademacher
n_max: 1000
""")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        header, first = (out / "constants.csv").read_text().splitlines()[:2]
        assert header.endswith("manifest_hash")
        assert first.endswith(manifest["manifest_hash"])
        payload = json.loads((out / "constants.json").read_text())
        assert payload["manifest_hash"] == manifest["manifest_hash"]

    def test_format_subset(self, tmp_path):
        code, out = run_cli(tmp_path, """
command: constants
alpha: 1.5
epsilon: rademacher
n_max: 100
""", "--format", "json")
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert "constants.json" in names
        assert "constants.csv" not in names

    def test_partitions_report_surfaces_cardinality_note(self, tmp_path):
        code, out = run_cli(tmp_path, """
command: partitions
alpha: 1.5
epsilon: rademacher
n_grid: [1, 4]
constant_n_max: 500
""")
        assert code == 0
        payload = json.loads((out / "partitions.json").read_text())
        assert "13" in payload["cardinality_note"]
        assert len(payload["entries"]) == 15

    def test_partitions_write_an_exact_zero_for_a_sum_without_nonzero_term(self, tmp_path):
        # at alpha 0.7 only indices 1 and 2 keep a nonzero truncated mean, so no four distinct ones do
        code, out = run_cli(tmp_path, """
command: partitions
alpha: 0.7
epsilon: {family: two_point, p: 0.2, x_neg: -4, x_pos: 1}
n_grid: [60, 64, 128]
constant_n_max: 500
""")
        assert code == 0
        (row,) = [r for r in json.loads((out / "partitions.json").read_text())["entries"]
                  if r["partition"] == "{1}{2}{3}{4}"]
        assert (row["s_n60"], row["s_n64"], row["s_n128"]) == (0.0, 0.0, 0.0)
        line = next(x for x in (out / "partitions.csv").read_text().splitlines() if x.startswith("{1}{2}{3}{4},"))
        assert line.split(",")[1:4] == ["0", "0", "0"]

    def test_regvar_reports_convention_note(self, tmp_path):
        code, out = run_cli(tmp_path, """
command: regvar
alpha: 1.5
epsilon: rademacher
y: example1
truncation_n: 100
samples: 3000
sigma_replicates: 2000
n: 20
seed: 4
""")
        assert code == 0
        payload = json.loads((out / "regvar.json").read_text())
        assert "upper-tail" in payload["convention_note"]


# JSON payloads: nested lists and dicts over every leaf the result files can hold
_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e308, 1.0 / 3.0,
                                         math.nan, math.inf, -math.inf])
_LEAVES = (_FLOATS | st.integers() | st.booleans() | st.none()
           | st.text() | st.sampled_from(['say "hi"', "back\\slash", "Lévy ✓ α"]))
# lists of equally long float lists, as nested lists and as 2-d arrays
_ROWS = st.integers(1, 3).flatmap(lambda w: st.lists(st.lists(_FLOATS, min_size=w, max_size=w),
                                                     max_size=5))
# float64 arrays, 1-d and 2-d, empty and zero-column ones too, finite or with nan and inf
_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
                     elements=st.floats(allow_nan=False, allow_infinity=False) | _FLOATS)
_PAYLOADS = st.recursive(
    _LEAVES | st.lists(_FLOATS) | _ROWS | _ROWS.map(np.array) | _ARRAYS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text() | st.integers(), children, max_size=4),
    max_leaves=30,
)


def _jsonable(obj):
    """The reference conversion of a payload to what ``json`` writes: numpy arrays and scalars to
    lists and Python scalars, tuples to lists, every key to its ``str``."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


class TestJsonWriter:
    @staticmethod
    def reference(obj) -> str:
        return json.dumps(_jsonable(obj), indent=2, sort_keys=True)

    @given(_PAYLOADS)
    @settings(max_examples=300)
    def test_equals_json_dumps(self, obj):
        assert _json_text(obj) == self.reference(obj)

    @pytest.mark.parametrize("obj", [
        [-0.0, 5e-324, 1e308, 1.0 / 3.0],
        [1.0, math.nan, -math.inf, math.inf],
        [1, 2.5, True, None, "x"],
        [[1.0, 2.0], [3.0]],
        [[1.0, 2.0], [3.0, math.nan]],
        [[0.5, -0.0], [1e-300, 2.0]],
        [[], []],
        [{}, [], {"a": []}],
        {2: "b", 10: {"k": [0.1]}, "a": None},
        {"quote\"": "Lévy", "nested": [[[1.0]], [[2.0]]]},
        np.arange(6.0).reshape(3, 2),
        np.array([[1.5], [np.inf]]),
        np.zeros((0, 2)),
        # float64 arrays: finite ones are written in row blocks, the rest keep json's spelling
        np.array([0.1, -0.0, 5e-324]),
        np.zeros(0),
        np.zeros((3, 0)),
        np.array([1.0, np.nan]),
        np.array([[1.0, -np.inf], [0.5, 2.0]]),
        {"a": np.array([2.5]), "b": [np.array([[1.0]]), np.float32(0.5)]},
        # numpy scalars and tuples, which the writer converts itself
        {"a": np.float64(0.5), "b": (np.int64(3), np.bool_(True)), "c": np.float64(np.nan)},
        [np.float64(1.5), np.float64(-2.0)],
        [(1.0, 2.0), (3.0, 4.0)],
        (0.25, [np.arange(3)]),
    ])
    def test_equals_json_dumps_on_edge_cases(self, obj):
        assert _json_text(obj) == self.reference(obj)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("jumps", BLOCK_BOUNDARY_JUMPS)
    def test_equals_json_dumps_at_block_boundaries(self, jumps, d):
        # a path file's payload, as simulate writes it, around the writer's row blocks
        p = boundary_path(jumps, d)
        obj = {"dimension": d, "initial_value": p.initial_value, "jump_times": p.jump_times,
               "post_jump_values": p.post_jump_values}
        assert _json_text(obj) == self.reference(obj)


class TestDeterminism:
    def test_thread_count_does_not_change_bytes(self, tmp_path):
        config = """
command: spectral
alpha: 1.5
epsilon: rademacher
y: example1
replicates: 20000
seed: 5
"""
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config)
        out1, out4 = tmp_path / "t1", tmp_path / "t4"
        assert main(["--config", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
        assert main(["--config", str(cfg), "--out", str(out4), "--threads", "4"]) == 0
        for name in ("spectral.csv", "spectral.json"):
            assert (out1 / name).read_bytes() == (out4 / name).read_bytes()

    def test_rerun_reproduces_bytes(self, tmp_path):
        config = MINIMAL + "truncation_n: 60\nreplicates: 2\nseed: 8\n"
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["--config", str(cfg), "--out", str(out2)]) == 0
        for p in out1.iterdir():
            if p.name == "manifest.json":
                continue  # manifest records wall time
            assert p.read_bytes() == (out2 / p.name).read_bytes()

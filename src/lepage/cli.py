"""Command-line front end.

Experiments are described by a strict YAML (or JSON) config document and
dispatched by the ``command`` key; the CLI writes plot-ready CSV and/or
JSON artifacts plus a ``manifest.json`` that suffices to reproduce the run.
Unknown config keys are errors: silent typos corrupt experiment claims.

Exit codes: 0 success, 1 operational error, 2 statistical "violated"
verdict from a check command (a refutation, not a breakage).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import platform
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from . import diagnostics as diag
from . import paths as paths_mod
from . import series as series_mod
from . import stable_checks as checks
from .parallel import resolve_threads
from .random_inputs import CdfGrid, ConfigurationError, EpsilonSpec, JumpHeightDist
from .random_inputs import poisson_counts, unit_jump, user_paths, weighted_jumps
from .rng import RngStream
from .series import SeriesSpec

COMMANDS = (
    "simulate",
    "check-conditions",
    "constants",
    "partitions",
    "tightness",
    "stability",
    "spectral",
    "regvar",
)

_DEFAULT_PAIRS = [(i / 20.0, i / 20.0 + 0.5) for i in range(10)]
_DEFAULT_TRIPLES = [(i / 20.0, i / 20.0 + 0.25, i / 20.0 + 0.5) for i in range(10)]

_DEFAULT_REPLICATES = {
    "simulate": 1,
    "check-conditions": 100_000,
    "tightness": 10_000,
    "spectral": 100_000,
}


class ConfigParseError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    command: str
    raw: dict
    seed: int = 0
    threads: object = 1
    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")
    alpha: float | None = None
    truncation_n: int = 10_000
    weight_mode: str = "gamma"
    epsilon_mode: str = "raw"
    epsilon: EpsilonSpec | None = None
    y_gen: object = None
    replicates: int = 1
    extras: dict = field(default_factory=dict)

    def series_spec(self, **overrides) -> SeriesSpec:
        kw = {
            "alpha": self.alpha,
            "truncation_n": self.truncation_n,
            "epsilon": self.epsilon,
            "y_gen": self.y_gen,
            "seed": self.seed,
            "weight_mode": self.weight_mode,
            "epsilon_mode": self.epsilon_mode,
        }
        kw.update(overrides)
        return SeriesSpec(**kw)


def _line_of(text: str, key: str) -> str:
    for i, line in enumerate(text.splitlines(), start=1):
        if re.match(rf"\s*{re.escape(key)}\s*:", line):
            return f"line {i}"
    return "line ?"


def _fail(text: str, key: str, message: str) -> None:
    raise ConfigParseError(f"{_line_of(text, key)}: key '{key}': {message}")


def _take(raw: dict, key: str, default=None):
    return raw.get(key, default)


def _epsilon_from(obj, text: str) -> EpsilonSpec:
    if isinstance(obj, str):
        obj = {"family": obj}
    if not isinstance(obj, dict):
        _fail(text, "epsilon", f"expected a family name or mapping, got {obj!r}")
    known = {"family", "a", "p", "x_neg", "x_pos", "values", "probabilities", "alpha_moment_hint"}
    for k in obj:
        if k not in known:
            _fail(text, k, f"unknown epsilon key (known: {sorted(known)})")
    family = obj.get("family")
    spec = None
    try:
        if family == "rademacher":
            spec = EpsilonSpec.rademacher()
        elif family == "uniform_symmetric":
            spec = EpsilonSpec.uniform_symmetric(obj.get("a", 1.0))
        elif family == "two_point":
            spec = EpsilonSpec.two_point(obj["p"], obj["x_neg"], obj["x_pos"])
        elif family == "table":
            spec = EpsilonSpec.table(obj["values"], obj["probabilities"])
        if spec is not None:
            hint = obj.get("alpha_moment_hint")
            if hint is not None:
                spec = dataclasses.replace(spec, alpha_moment_hint=float(hint))
            return spec
    except KeyError as exc:
        _fail(text, "epsilon", f"{family} family is missing parameter {exc}")
    except ConfigurationError as exc:
        _fail(text, "epsilon", str(exc))
    _fail(text, "epsilon", f"unknown family {family!r}")


def _cdf_from(obj) -> CdfGrid:
    if obj == "uniform":
        return CdfGrid.uniform()
    return CdfGrid(np.asarray(obj["xs"], float), np.asarray(obj["ys"], float))


def _y_from(obj, text: str):
    if isinstance(obj, str):
        obj = {"variant": obj}
    if not isinstance(obj, dict):
        _fail(text, "y", f"expected a variant name or mapping, got {obj!r}")
    known = {"variant", "lambda", "p", "cdfs", "heights", "fourth_moment_bound", "paths_dir", "dimension"}
    for k in obj:
        if k not in known:
            _fail(text, k, f"unknown y key (known: {sorted(known)})")
    variant = obj.get("variant")
    try:
        if variant == "example1":
            return unit_jump()
        if variant == "example3":
            return poisson_counts(obj.get("lambda", 1.0))
        if variant == "example2":
            p = int(obj.get("p", 1))
            cdfs_cfg = obj.get("cdfs", "uniform")
            if cdfs_cfg == "uniform":
                cdfs = [CdfGrid.uniform() for _ in range(p)]
            else:
                cdfs = [_cdf_from(c) for c in cdfs_cfg]
                if len(cdfs) != p:
                    _fail(text, "cdfs", f"expected {p} cdfs, got {len(cdfs)}")
            h = obj.get("heights", {"constant": [1.0]})
            if "constant" in h:
                dist = JumpHeightDist.constant(h["constant"])
            else:
                dist = JumpHeightDist(np.atleast_2d(np.asarray(h["values"], float)),
                                      np.asarray(h["probabilities"], float))
            return weighted_jumps(cdfs, dist, obj.get("fourth_moment_bound", np.inf))
        if variant == "user":
            return _user_from_dir(obj["paths_dir"], int(obj.get("dimension", 1)), text)
    except KeyError as exc:
        _fail(text, "y", f"{variant} variant is missing parameter {exc}")
    except ConfigurationError as exc:
        _fail(text, "y", str(exc))
    _fail(text, "y", f"unknown variant {variant!r}")


def _user_from_dir(directory: str, dimension: int, text: str):
    files = sorted(Path(directory).glob("*.csv"))
    if not files:
        _fail(text, "paths_dir", f"no step-path CSV files in {directory!r}")
    cached = [paths_mod.path_from_csv(f.read_text()) for f in files]
    # a pure function of the sampler's stream, so results never depend on
    # which replicates, chunks or threads drew before
    return user_paths(lambda gen: cached[gen.integers(len(cached))], dimension)


def _envelope_from(obj, text: str) -> diag.MomentEnvelope:
    known = {"kind", "beta", "coeffs", "xs", "ys", "scale"}
    for k in obj:
        if k not in known:
            _fail(text, k, f"unknown envelope key (known: {sorted(known)})")
    try:
        kind = obj.get("kind", "identity")
        if kind == "grid":
            return diag.MomentEnvelope(beta=obj["beta"], kind="grid",
                                       grid_xs=np.asarray(obj["xs"], float),
                                       grid_ys=np.asarray(obj["ys"], float))
        return diag.MomentEnvelope(beta=obj.get("beta", 1.0), kind=kind,
                                   coeffs=tuple(obj.get("coeffs", ())))
    except ConfigurationError as exc:
        _fail(text, "envelope", str(exc))


def _events_from(obj, text: str) -> list[checks.SphereEvent]:
    out = []
    for item in obj:
        if item == "full_sphere":
            out.append(checks.full_sphere())
        elif item == "nonnegative_path":
            out.append(checks.nonnegative_path())
        elif isinstance(item, dict):
            known = {"kind", "value", "name"}
            for k in item:
                if k not in known:
                    _fail(text, k, f"unknown event key (known: {sorted(known)})")
            if item.get("kind") != "norm_equals":
                _fail(text, "events", f"unknown event kind {item.get('kind')!r}")
            out.append(checks.norm_equals(item["value"], item.get("name")))
        else:
            _fail(text, "events", f"unknown event {item!r}")
    return out


_TOP_KEYS = {
    "command", "alpha", "truncation_n", "weight_mode", "epsilon_mode", "epsilon", "y",
    "replicates", "seed", "threads", "output",
    # command-specific
    "per_term_norms", "pairs", "triples", "envelope", "m_values", "n_max", "n_grid",
    "constant_n_max", "n", "t", "samples", "events", "r_grid", "sigma_replicates",
}

_NEED_SERIES = {"simulate", "tightness", "stability", "regvar"}
_NEED_EPSILON = _NEED_SERIES | {"constants", "partitions", "spectral"}
_NEED_Y = _NEED_SERIES | {"check-conditions", "spectral"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document (strict: unknown keys fail)."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigParseError(f"config is not valid YAML/JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigParseError(f"config must be a mapping, got {type(raw).__name__}")
    for key in raw:
        if key not in _TOP_KEYS:
            _fail(text, str(key), f"unknown key (known: {sorted(_TOP_KEYS)})")

    command = _take(raw, "command")
    if command not in COMMANDS:
        _fail(text, "command", f"must be one of {list(COMMANDS)}, got {command!r}")

    cfg = ExperimentConfig(command=command, raw=raw)
    cfg.seed = int(_take(raw, "seed", 0))
    cfg.threads = _take(raw, "threads", 1)
    resolve_threads(cfg.threads)

    out = _take(raw, "output", {}) or {}
    for k in out:
        if k not in ("directory", "formats"):
            _fail(text, k, "unknown output key (known: ['directory', 'formats'])")
    cfg.out_dir = out.get("directory", "out")
    formats = tuple(out.get("formats", ("csv", "json")))
    if not formats or any(f not in ("csv", "json") for f in formats):
        _fail(text, "formats", f"formats must be a nonempty subset of ['csv', 'json'], got {formats}")
    cfg.formats = formats

    alpha = _take(raw, "alpha")
    if alpha is None:
        _fail(text, "command", f"command {command!r} requires the key 'alpha'")
    alpha = float(alpha)
    if not 0.0 < alpha < 2.0:
        _fail(text, "alpha", f"alpha must lie in the open interval (0, 2), got {alpha}")
    cfg.alpha = alpha

    cfg.truncation_n = int(_take(raw, "truncation_n", 10_000))
    if cfg.truncation_n < 0:
        _fail(text, "truncation_n", f"must be nonnegative, got {cfg.truncation_n}")
    cfg.weight_mode = _take(raw, "weight_mode", "gamma")
    if cfg.weight_mode not in ("gamma", "deterministic"):
        _fail(text, "weight_mode", f"must be 'gamma' or 'deterministic', got {cfg.weight_mode!r}")
    cfg.epsilon_mode = _take(raw, "epsilon_mode", "raw")
    if cfg.epsilon_mode not in ("raw", "truncated"):
        _fail(text, "epsilon_mode", f"must be 'raw' or 'truncated', got {cfg.epsilon_mode!r}")

    if "epsilon" in raw or command in _NEED_EPSILON:
        if "epsilon" not in raw:
            _fail(text, "command", f"command {command!r} requires the key 'epsilon'")
        cfg.epsilon = _epsilon_from(_take(raw, "epsilon"), text)
        if cfg.alpha >= 1.0 and not cfg.epsilon.is_mean_zero:
            _fail(text, "epsilon",
                  f"family has mean {cfg.epsilon.mean()!r}; alpha = {cfg.alpha} >= 1 "
                  "requires mean-zero multipliers")
    if "y" in raw or command in _NEED_Y:
        if "y" not in raw:
            _fail(text, "command", f"command {command!r} requires the key 'y'")
        cfg.y_gen = _y_from(_take(raw, "y"), text)

    cfg.replicates = int(_take(raw, "replicates", _DEFAULT_REPLICATES.get(command, 1)))
    if cfg.replicates < 0:
        _fail(text, "replicates", f"must be nonnegative, got {cfg.replicates}")

    extras = {}
    extras["per_term_norms"] = bool(_take(raw, "per_term_norms", False))
    extras["pairs"] = [tuple(map(float, p)) for p in _take(raw, "pairs", _DEFAULT_PAIRS)]
    extras["triples"] = [tuple(map(float, t)) for t in _take(raw, "triples", _DEFAULT_TRIPLES)]
    env = _take(raw, "envelope")
    extras["envelope"] = None if env is None else _envelope_from(env, text)
    extras["m_values"] = [float(m) for m in _take(raw, "m_values", [2.0, 3.0, 4.0])]
    extras["n_max"] = int(_take(raw, "n_max", 10**6))
    extras["n_grid"] = [int(n) for n in _take(raw, "n_grid", [1, 2, 4, 8, 16, 32, 64])]
    extras["constant_n_max"] = int(_take(raw, "constant_n_max", 10**5))
    extras["n"] = int(_take(raw, "n", 100))
    extras["t"] = float(_take(raw, "t", 1.0))
    extras["samples"] = int(_take(raw, "samples", 30_000))
    extras["events"] = _events_from(
        _take(raw, "events", ["full_sphere", "nonnegative_path"]), text
    )
    extras["r_grid"] = [float(r) for r in _take(raw, "r_grid", [1.0, 2.0])]
    extras["sigma_replicates"] = int(_take(raw, "sigma_replicates", 100_000))
    cfg.extras = extras
    return cfg


# ---------------------------------------------------------------------------
# output writing
# ---------------------------------------------------------------------------


def _fmt_cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _csv_quote(s: str) -> str:
    if any(ch in s for ch in (',', '"', '\n', '\r')):
        return '"' + s.replace('"', '""') + '"'
    return s


def _write_csv(path: Path, rows: list[dict], columns: list[str], manifest_hash: str) -> None:
    lines = [",".join(columns + ["manifest_hash"])]
    for row in rows:
        cells = [_csv_quote(_fmt_cell(row.get(c, ""))) for c in columns]
        lines.append(",".join(cells + [manifest_hash]))
    path.write_text("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(path: Path, payload: dict, manifest_hash: str, seed: int) -> None:
    body = dict(payload)
    body["manifest_hash"] = manifest_hash
    body.setdefault("seed", seed)
    path.write_text(json.dumps(_jsonable(body), indent=2, sort_keys=True) + "\n")


class _Writer:
    def __init__(self, cfg: ExperimentConfig, out_dir: Path):
        self.cfg = cfg
        self.out_dir = out_dir
        self.files: list[str] = []
        echo = {"command": cfg.command, "seed": cfg.seed, "config": _jsonable(cfg.raw)}
        self.manifest_hash = hashlib.sha256(
            json.dumps(echo, sort_keys=True).encode()
        ).hexdigest()[:16]

    def emit(self, name: str, rows: list[dict], columns: list[str], payload: dict) -> None:
        if "csv" in self.cfg.formats:
            p = self.out_dir / f"{name}.csv"
            _write_csv(p, rows, columns, self.manifest_hash)
            self.files.append(p.name)
        if "json" in self.cfg.formats:
            p = self.out_dir / f"{name}.json"
            _write_json(p, payload, self.manifest_hash, self.cfg.seed)
            self.files.append(p.name)

    def emit_text(self, name: str, text: str) -> None:
        p = self.out_dir / name
        p.write_text(text)
        self.files.append(p.name)

    def emit_json(self, name: str, payload: dict) -> None:
        p = self.out_dir / f"{name}.json"
        _write_json(p, payload, self.manifest_hash, self.cfg.seed)
        self.files.append(p.name)

    def manifest(self, wall_time: float, extra: dict | None = None) -> None:
        payload = {
            "command": self.cfg.command,
            "seed": self.cfg.seed,
            "threads": self.cfg.threads,
            "config": _jsonable(self.cfg.raw),
            "manifest_hash": self.manifest_hash,
            "versions": {
                "lepage": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
            "wall_time_s": wall_time,
            "files": sorted(self.files),
        }
        (self.out_dir / "manifest.json").write_text(
            json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
        )


# ---------------------------------------------------------------------------
# command dispatch
# ---------------------------------------------------------------------------


def run(cfg: ExperimentConfig) -> int:
    """Execute a parsed config; writes artifacts, returns the exit code."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    writer = _Writer(cfg, out_dir)
    started = time.perf_counter()
    code = _DISPATCH[cfg.command](cfg, writer)
    writer.manifest(time.perf_counter() - started)
    return code


def _cmd_simulate(cfg, writer) -> int:
    per_term = cfg.extras["per_term_norms"]
    spec = cfg.series_spec()
    index_rows = []
    for r in range(cfg.replicates):
        result = series_mod.partial_sum(spec, RngStream(cfg.seed, r), with_term_norms=per_term)
        name = f"path_{r:04d}"
        if "csv" in cfg.formats:
            # the step-path CSV schema is fixed (bit-exact round trip), so the
            # manifest hash for these files lives in the samples index instead
            writer.emit_text(f"{name}.csv", paths_mod.path_to_csv(result.path))
        if "json" in cfg.formats:
            writer.emit_json(name, json.loads(paths_mod.path_to_json(result.path)))
        row = {"replicate": r, "terms_used": result.terms_used,
               "sup_norm": paths_mod.sup_norm(result.path), "file": name}
        index_rows.append(row)
        if per_term:
            writer.emit_json(f"{name}_term_norms",
                             {"replicate": r, "per_term_norms": result.per_term_norms.tolist()})
    payload = {"spec": spec.echo(), "replicates": cfg.replicates, "samples": index_rows}
    writer.emit("samples", index_rows, ["replicate", "terms_used", "sup_norm", "file"], payload)
    return 0


def _cmd_check_conditions(cfg, writer) -> int:
    env = cfg.extras["envelope"]
    env1, env2 = (env, env) if env is not None else diag.default_envelopes(cfg.y_gen)
    stream = RngStream(cfg.seed)
    rep1 = diag.estimate_c1(cfg.y_gen, cfg.extras["pairs"], cfg.replicates, env1, stream, cfg.threads)
    rep2 = diag.estimate_c2(cfg.y_gen, cfg.extras["triples"], cfg.replicates, env2, stream, cfg.threads)
    cols = ["t1", "t", "t2", "estimate", "se", "envelope", "verdict"]
    writer.emit("c1_report", rep1.rows(), cols,
                {"kind": rep1.kind, "replicates": rep1.replicates, "meta": rep1.meta,
                 "entries": rep1.rows()})
    writer.emit("c2_report", rep2.rows(), cols,
                {"kind": rep2.kind, "replicates": rep2.replicates, "meta": rep2.meta,
                 "entries": rep2.rows()})
    return 2 if (rep1.violated or rep2.violated) else 0


def _cmd_constants(cfg, writer) -> int:
    rows = []
    for m in cfg.extras["m_values"]:
        mc = diag.moment_constant(cfg.alpha, m, cfg.epsilon, cfg.extras["n_max"])
        rows.append({"quantity": f"C(alpha,{m:g})", "value": mc.value,
                     "converged": mc.converged, "n_max": mc.n_max})
    if cfg.epsilon.is_mean_zero:
        c1 = diag.centered_first_moment_sum(cfg.alpha, cfg.epsilon, cfg.extras["n_max"])
        rows.append({"quantity": "C(alpha,1)", "value": c1, "converged": True,
                     "n_max": cfg.extras["n_max"]})
    bc = diag.borel_cantelli_sum(cfg.alpha, cfg.epsilon, cfg.extras["n_max"])
    rows.append({"quantity": "borel_cantelli_sum", "value": bc.value, "converged": True,
                 "n_max": cfg.extras["n_max"]})
    rows.append({"quantity": "abs_moment_alpha", "value": bc.alpha_moment, "converged": True,
                 "n_max": cfg.extras["n_max"]})
    writer.emit("constants", rows, ["quantity", "value", "converged", "n_max"],
                {"alpha": cfg.alpha, "epsilon": cfg.epsilon.echo(), "entries": rows})
    return 0


def _cmd_partitions(cfg, writer) -> int:
    report = diag.partition_report(cfg.alpha, cfg.epsilon, cfg.extras["n_grid"],
                                   cfg.extras["constant_n_max"])
    rows = report.rows()
    cols = list(rows[0].keys())
    payload = {
        "alpha": report.alpha,
        "epsilon": report.epsilon,
        "n_grid": list(report.n_grid),
        "cardinality_note": report.cardinality_note,
        "entries": rows,
    }
    writer.emit("partitions", rows, cols, payload)
    return 0


def _cmd_tightness(cfg, writer) -> int:
    env = cfg.extras["envelope"]
    envelopes = (env, env) if env is not None else None
    spec = cfg.series_spec(weight_mode="deterministic", epsilon_mode="truncated")
    rows = []
    violated = False
    for triple in cfg.extras["triples"]:
        res = diag.tightness_functional(spec, cfg.extras["n"], triple, cfg.replicates,
                                        envelopes, cfg.threads)
        rows.append(res.row())
        violated = violated or res.verdict == "violated"
    writer.emit("tightness", rows, ["t1", "t", "t2", "n", "estimate", "se", "envelope", "verdict"],
                {"spec": spec.echo(), "n": cfg.extras["n"], "replicates": cfg.replicates,
                 "entries": rows})
    return 2 if violated else 0


def _cmd_stability(cfg, writer) -> int:
    spec = cfg.series_spec()
    marginals = series_mod.sample_marginals(spec, cfg.extras["t"], cfg.extras["samples"], cfg.threads)
    result = checks.sum_stability_test(marginals[:, 0], cfg.alpha, RngStream(cfg.seed))
    row = result.row()
    writer.emit("stability", [row], list(row.keys()),
                {"spec": spec.echo(), "t": cfg.extras["t"], "samples": cfg.extras["samples"],
                 **row})
    return 0 if result.passed else 2


def _cmd_spectral(cfg, writer) -> int:
    est = checks.spectral_estimate(cfg.epsilon, cfg.y_gen, cfg.alpha, cfg.extras["events"],
                                   cfg.replicates, RngStream(cfg.seed), cfg.threads)
    rows = est.rows()
    writer.emit("spectral", rows, ["event", "mass", "se"],
                {"alpha": est.alpha, "replicates": est.replicates, "meta": est.meta,
                 "entries": rows})
    return 0


def _cmd_regvar(cfg, writer) -> int:
    spec = cfg.series_spec()
    stats = series_mod.sample_path_stats(spec, cfg.extras["samples"], cfg.threads)
    sigma = checks.spectral_estimate(cfg.epsilon, cfg.y_gen, cfg.alpha, cfg.extras["events"],
                                     cfg.extras["sigma_replicates"], RngStream(cfg.seed), cfg.threads)
    table = checks.regular_variation_table(stats, cfg.extras["events"], cfg.extras["r_grid"],
                                           cfg.extras["n"], cfg.alpha, sigma)
    rows = [r.row() for r in table.rows]
    cols = list(rows[0].keys()) if rows else []
    payload = {
        "spec": spec.echo(),
        "b_n": table.b_n,
        "n": table.n,
        "n_paths": table.n_paths,
        "convention_note": table.convention_note,
        "entries": rows,
    }
    writer.emit("regvar", rows, cols, payload)
    return 0


_DISPATCH = {
    "simulate": _cmd_simulate,
    "check-conditions": _cmd_check_conditions,
    "constants": _cmd_constants,
    "partitions": _cmd_partitions,
    "tightness": _cmd_tightness,
    "stability": _cmd_stability,
    "spectral": _cmd_spectral,
    "regvar": _cmd_regvar,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lepage",
        description="Simulate truncated weighted-jump series on step paths and "
        "verify their moment conditions and limit distribution.",
    )
    parser.add_argument("--config", required=True, help="YAML/JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", default=None, help="worker threads (integer or 'auto')")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--format", default=None, help="comma-separated subset of csv,json")
    args = parser.parse_args(argv)

    config_path = Path(args.config)
    try:
        cfg = parse_config(config_path.read_text())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except ConfigParseError as exc:
        print(f"error: {config_path}: {exc}", file=sys.stderr)
        return 1

    if args.seed is not None:
        cfg.seed = args.seed
        cfg.raw["seed"] = args.seed
    if args.threads is not None:
        cfg.threads = args.threads if args.threads == "auto" else int(args.threads)
    if args.out is not None:
        cfg.out_dir = args.out
    if args.format is not None:
        formats = tuple(f for f in args.format.split(",") if f)
        if any(f not in ("csv", "json") for f in formats) or not formats:
            print(f"error: --format must be a subset of csv,json, got {args.format!r}",
                  file=sys.stderr)
            return 1
        cfg.formats = formats

    try:
        return run(cfg)
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

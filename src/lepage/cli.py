"""Command-line front end.

Experiments are described by a strict YAML (or JSON) config document and
dispatched by the ``command`` key; the CLI writes plot-ready CSV and/or
JSON artifacts plus a ``manifest.json`` that suffices to reproduce the run.

Every key is declared once, as ``key: (default, parser)``, and one reader,
:func:`_read_keys`, reads every mapping of a config against such a table.
``_COMMANDS`` gives each command its handler and exactly the keys it reads,
from shared groups (the series keys ``_SERIES``, the truncation and modes
``_MODES``, the ``_THREADS`` of each command that draws paths) and its own,
beside the run keys ``_RUN`` (``command``, ``seed``, ``output``).  Each epsilon
family, y variant, envelope kind and events kind is a ``(constructor, keys)``
entry, named by a bare string or by the mapping's ``family``, ``variant`` or
``kind``.  Counts, the seed (in ``[0, 2^64)``) and ``threads`` take whole
numbers only; no number key, nested or not, takes a boolean; a key left out
or null takes its default at every level.  An unread key, or a value its
parser rejects, is a :class:`ConfigParseError` naming the top-level key and
its line: silent typos and ignored settings corrupt experiment claims.

A key given twice in one mapping is refused too, naming its line.

Exit codes: 0 success, 1 operational or usage error, 2 statistical
"violated" verdict from a check command (a refutation, not a breakage).
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import math
import platform
import re
import sys
import time
import types
from pathlib import Path

import numpy as np

from . import __version__
from . import paths as paths_mod
from . import series as series_mod
from .parallel import chunk_runner, resolve_threads
from .random_inputs import CdfGrid, ConfigurationError, EpsilonSpec, JumpHeightDist
from .random_inputs import poisson_counts, unit_jump, user_paths, weighted_jumps
from .rng import STREAM_LAYOUT, RngStream
from .series import SeriesSpec


class ConfigParseError(ValueError):
    pass


class _Deferred(types.SimpleNamespace):
    """A module of this package that only some commands use; parse_config imports it for those (``_COMMANDS``)."""

    def __getattr__(self, attr: str):
        return getattr(importlib.import_module(self.name), attr)


diag, checks = _Deferred(name="lepage.diagnostics"), _Deferred(name="lepage.stable_checks")


class ExperimentConfig(types.SimpleNamespace):
    """A parsed config: ``raw`` (the document as given), ``out_dir`` and
    ``formats`` (from ``output``), and one attribute per other key of the
    command's table, parsed, in config spelling."""

    def series_spec(self, **overrides) -> SeriesSpec:
        """The series of the config's keys; ``overrides`` give what the command has no key for."""
        kw = {"alpha": self.alpha, "epsilon": self.epsilon, "y_gen": self.y, "seed": self.seed,
              **{k: getattr(self, k) for k in _MODES if hasattr(self, k)}}
        return SeriesSpec(**{**kw, **overrides})


def _line_of(text: str, key: str) -> str:
    # the least indented mention: config errors name top-level keys
    hits = [(len(line) - len(line.lstrip()), i) for i, line in enumerate(text.splitlines(), start=1)
            if re.match(rf"\s*[\"']?{re.escape(key)}[\"']?\s*:", line)]
    return f"line {min(hits)[1]}" if hits else "line ?"


_REQUIRED = object()  # the default of a key the config must give


def _read_keys(obj, keys: dict, what: str, fail=lambda key, message: ValueError(message)) -> dict:
    """The values of the mapping ``obj`` under ``keys``, ``{key: (default, parser)}``, parsed, in table
    order; a key left out or null takes its default, which is parsed too unless ``None``.  An unknown
    key, a missing required one or a value its parser refuses raises ``fail(key, message)``."""
    if not isinstance(obj, dict):
        raise fail(what, f"{what} must be a mapping, got {obj!r}")
    for k in obj:
        if k not in keys:
            raise fail(k, f"unknown key {k!r} for {what} (known: {sorted(keys)})")
    values = {}
    for key, (default, parse) in keys.items():
        value = default if obj.get(key) is None else obj[key]
        if value is _REQUIRED:
            raise fail(key, f"{what} requires the key {key!r}")
        try:
            values[key] = None if value is None else parse(value)
        except (ValueError, TypeError) as exc:
            raise fail(key, str(exc)) from exc
    return values


# value parsers: config value -> parsed value, or ValueError/TypeError
def _number(v):
    """``v`` as given, a number or nested lists of them, once it holds no boolean (``true`` is no 1)."""
    if isinstance(v, list):
        return [_number(x) for x in v]
    if isinstance(v, bool):
        raise ValueError(f"must be a number, got {v!r}")
    return v


def _finite(v) -> float:
    x = float(_number(v))
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {x}")
    return x


def _integer(v) -> int:
    """``v`` as an int; a boolean or a number with a fractional part is refused, not rounded."""
    if isinstance(v, bool) or isinstance(v, float) and not v.is_integer():
        raise ValueError(f"must be a whole number, got {v!r}")
    return int(v)


def _count(v) -> int:
    n = _integer(v)
    if n < 0:
        raise ValueError(f"must be nonnegative, got {n}")
    return n


def _positive(v) -> int:
    n = _count(v)
    if n < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return n


def _seed(v) -> int:
    seed = _integer(v)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return seed


def _alpha(v) -> float:
    alpha = _finite(v)
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in the open interval (0, 2), got {alpha}")
    return alpha


def _radius(v) -> float:
    r = _finite(v)
    if r <= 0.0:
        raise ValueError(f"must be positive, got {r}")
    return r


def _threads(v):
    v = v if v == "auto" else _integer(v)
    resolve_threads(v)
    return v


def _bool(v) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"must be true or false, got {v!r}")
    return v


def _choice(*options):
    def parse(v):
        if v not in options:
            raise ValueError(f"must be {' or '.join(map(repr, options))}, got {v!r}")
        return v
    return parse


def _list_of(item):
    def parse(v) -> list:
        if not isinstance(v, list):
            raise ValueError(f"expected a list, got {v!r}")
        return [item(x) for x in v]
    return parse


def _times(kind: str):
    """The parser of a list of ``kind`` entries, each in time order, as :func:`diag._checked_times` checks."""
    return lambda v: diag._checked_times(kind, _list_of(_list_of(_finite))(v))


def _formats(v) -> tuple[str, ...]:
    formats = tuple(v)
    if not formats or any(f not in ("csv", "json") for f in formats):
        raise ValueError(f"formats must be a nonempty subset of ['csv', 'json'], got {formats}")
    return formats


def _one_of(what: str, key: str, choices: dict, default=None):
    """The parser of a mapping naming one of ``choices``, ``{name: (constructor, keys)}``, under ``key``
    (``default`` if left out or null), or of the bare name: the constructor called on its keys' values."""
    def parse(obj):
        obj = obj if isinstance(obj, dict) else {key: obj}
        name = _choice(*choices)(default if obj.get(key) is None else obj[key])
        build, keys = choices[name]
        return build(*_read_keys({k: v for k, v in obj.items() if k != key}, keys, f"{name} {what}").values())
    return parse


def _cdf(v) -> CdfGrid:
    return CdfGrid.uniform() if v == "uniform" else CdfGrid(*_read_keys(v, _GRID, "cdf").values())


def _heights(v) -> JumpHeightDist:
    build, keys = ((JumpHeightDist.constant, {"constant": _ARRAY}) if isinstance(v, dict) and "constant" in v
                   else (JumpHeightDist, {"values": _ARRAY, "probabilities": _ARRAY}))
    return build(*_read_keys(v, keys, "heights").values())


def _weighted_jumps(p: int, cdfs, heights: JumpHeightDist, fourth_moment_bound):
    cdfs = [CdfGrid.uniform() for _ in range(p)] if cdfs == "uniform" else cdfs
    if len(cdfs) != p:
        raise ValueError(f"expected {p} cdfs, got {len(cdfs)}")
    return weighted_jumps(cdfs, heights, fourth_moment_bound)


def _user_paths(paths_dir: str):
    files = sorted(Path(paths_dir).glob("*.csv"))
    if not files:
        raise ValueError(f"no step-path CSV files in {paths_dir!r}")
    return user_paths(paths_mod.path_from_csv(f.read_text()) for f in files)


# each epsilon family, y variant, envelope kind and event kind: (constructor, the keys it reads)
_ARRAY = (_REQUIRED, _number)
_GRID = {"xs": _ARRAY, "ys": _ARRAY}
_BETA = {"beta": (1.0, _number)}
_EPSILONS = {
    "rademacher": (EpsilonSpec.rademacher, {}),
    "uniform_symmetric": (EpsilonSpec.uniform_symmetric, {"a": (1.0, _number)}),
    "two_point": (EpsilonSpec.two_point, {"p": _ARRAY, "x_neg": _ARRAY, "x_pos": _ARRAY}),
    "table": (EpsilonSpec.table, {"values": _ARRAY, "probabilities": _ARRAY}),
}
_YS = {
    "example1": (unit_jump, {}),
    "example2": (_weighted_jumps, {"p": (1, _positive),
                                   "cdfs": ("uniform", lambda v: v if v == "uniform" else _list_of(_cdf)(v)),
                                   "heights": ({"constant": [1.0]}, _heights),
                                   "fourth_moment_bound": (math.inf, _number)}),
    "example3": (poisson_counts, {"lambda": (1.0, _number)}),
    "user": (_user_paths, {"paths_dir": (_REQUIRED, str)}),
}
_ENVELOPES = {
    "identity": (lambda beta: diag.MomentEnvelope(beta), _BETA),
    "poly": (lambda beta, coeffs: diag.MomentEnvelope(beta, tuple(coeffs)), {**_BETA, "coeffs": _ARRAY}),
    "grid": (lambda beta, xs, ys: diag.MomentEnvelope(beta, grid_xs=xs, grid_ys=ys), {**_BETA, **_GRID}),
}
_EVENT_KINDS = {
    "full_sphere": (lambda: checks.full_sphere(), {}),
    "nonnegative_path": (lambda: checks.nonnegative_path(), {}),
    "norm_equals": (lambda *args: checks.norm_equals(*args), {"value": _ARRAY, "name": (None, lambda name: name)}),
}
_OUTPUT = {"directory": ("out", str), "formats": (["csv", "json"], _formats)}

# key groups, {key: (default, parser)}; _COMMANDS gives each command its keys
_RUN = {
    "command": (_REQUIRED, str),
    "seed": (0, _seed),
    "output": ({}, lambda v: tuple(_read_keys(v, _OUTPUT, "output").values())),
}
_THREADS = {"threads": (1, _threads)}
_SERIES = {"alpha": (_REQUIRED, _alpha), "epsilon": (_REQUIRED, _one_of("epsilon", "family", _EPSILONS)),
           "y": (_REQUIRED, _one_of("y", "variant", _YS))}
_MODES = {
    "truncation_n": (10_000, _count),
    "weight_mode": ("gamma", _choice("gamma", "deterministic")),
    "epsilon_mode": ("raw", _choice("raw", "truncated")),
}


def _yaml_float(token: str) -> float:
    """JSON's float ``token``, if YAML 1.1 reads one from it: from ``1.5`` or ``-1.5e+3``, not ``1e5`` or ``NaN``."""
    if not re.fullmatch(r"-?[0-9]+\.[0-9]+(?:[eE][-+][0-9]+)?", token):
        raise ValueError(f"YAML 1.1 reads {token} as a string")
    return float(token)


def _simple_keys(text: str) -> bool:
    """Whether each key of the JSON ``text`` has its colon on its line, at most 1024 characters after its quote."""
    parts = text.split('"')  # with no backslash escape, the odd parts are the contents of the strings
    colons = ((key, re.match(r"( *)(\s*):", after)) for key, after in zip(parts[1::2], parts[2::2]))
    return not any(m and (m[2] or len(key) + len(m[1]) > 1022) for key, m in colons)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict; a key given twice raises ValueError, so YAML reads the document."""
    if len(obj := dict(pairs)) < len(pairs):
        raise ValueError("a key given twice")
    return obj


def _read(text: str):
    """The document ``text`` as ``yaml.safe_load`` reads it, save that a key given twice in one mapping is a
    :class:`ConfigParseError` naming its line.  A JSON document of printable ASCII with no backslash or tab,
    with simple keys and YAML floats, reads the same through ``json``, with no ``yaml``."""
    if re.fullmatch(r"[\n\r\x20-\x5b\x5d-\x7e]*", text) and _simple_keys(text):
        try:
            return json.loads(text, parse_float=_yaml_float, parse_constant=_yaml_float, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError):  # not JSON, outside the gate or a key given twice: YAML reads it
            pass
    import yaml

    class Loader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            seen = set()
            for key_node, _ in node.value:  # a scalar key constructs to a hashable value; merge keys (<<) may repeat
                if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                    if (key := self.construct_object(key_node)) in seen:
                        raise ConfigParseError(f"line {key_node.start_mark.line + 1}: key '{key}': given twice")
                    seen.add(key)
            return super().construct_mapping(node, deep)

    try:
        return yaml.load(text, Loader)
    except yaml.YAMLError as exc:
        raise ConfigParseError(f"config is not valid YAML/JSON: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document against its command's table of keys."""
    raw = _read(text)
    if not isinstance(raw, dict):
        raise ConfigParseError(f"config must be a mapping, got {type(raw).__name__}")

    def fail(key, message: str) -> ConfigParseError:  # a key left out is named at the command requiring it
        key = str(key) if key in raw else "command"
        return ConfigParseError(f"{_line_of(text, key)}: key '{key}': {message}")

    command = raw.get("command")
    if not (isinstance(command, str) and command in _COMMANDS):
        raise fail("command", f"must be one of {list(_COMMANDS)}, got {command!r}")
    if _COMMANDS[command][2] is not None:
        importlib.import_module(_COMMANDS[command][2].name)
    values = _read_keys(raw, _KEYS[command], f"command {command!r}", fail)
    if "alpha" in values and "epsilon" in values:
        try:
            values["epsilon"].require_mean_zero(values["alpha"])
        except ConfigurationError as exc:
            raise fail("epsilon", str(exc)) from exc
    if command == "regvar" and values["n"] > values["samples"]:  # as tail_quantile_bn needs
        raise fail("n", f"regvar needs 1 <= n <= samples, got n {values['n']} and samples {values['samples']}")
    values["out_dir"], values["formats"] = values.pop("output")
    return ExperimentConfig(raw=raw, **values)


def _resolved_config(cfg: ExperimentConfig) -> dict:
    """The config as run, in config spelling: the command's defaults under the given values."""
    resolved = {k: d for k, (d, _) in _KEYS[cfg.command].items() if d is not _REQUIRED}
    resolved.update((k, v) for k, v in cfg.raw.items() if v is not None)
    if "threads" in resolved:
        resolved["threads"] = cfg.threads
    resolved["output"] = {"directory": str(cfg.out_dir), "formats": list(cfg.formats)}
    return resolved


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


def _csv_text(rows: list[dict], columns: list[str], manifest_hash: str) -> str:
    lines = [",".join(columns + ["manifest_hash"])]
    for row in rows:
        cells = [_csv_quote(_fmt_cell(row.get(c, ""))) for c in columns]
        lines.append(",".join(cells + [manifest_hash]))
    return "\n".join(lines) + "\n"


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, with numpy arrays and scalars written as
    their ``tolist()``, tuples as lists and every key as its ``str``: the pieces of :func:`_json_chunks`
    joined (``indent`` is the newline and indentation of ``obj``'s own line)."""
    return "".join(_json_chunks(obj, indent))


def _json_chunks(obj, indent: str = "\n"):
    """The text of :func:`_json_text` in pieces, so that a writer can stream it.

    With ``indent`` set, ``json`` falls back to its pure-Python encoder.  This
    lays out containers the same way, one dict member at a time, but writes a
    nonempty finite float64 array, 1-d or 2-d, through one ``%r`` template
    (``repr`` is the spelling ``json`` uses for a finite float), in blocks of
    ``paths._BLOCK_ROWS`` rows from each block's ``tolist()``.  Every other
    leaf goes through ``json.dumps`` itself.
    """
    inner = indent + "  "
    if (isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim in (1, 2) and obj.size
            and np.isfinite(obj).all()):
        item = "%r" if obj.ndim == 1 else "[" + ",".join([inner + "  %r"] * obj.shape[1]) + inner + "]"
        b = paths_mod._BLOCK_ROWS
        for a in range(0, len(obj), b):
            block = obj[a:a + b]
            yield ("," if a else "[") + inner + ("," + inner).join([item] * len(block)) % tuple(block.ravel().tolist())
        yield indent + "]"
        return
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict) and obj:
        obj = {str(k): v for k, v in obj.items()}
        for i, k in enumerate(sorted(obj)):
            yield ("," if i else "{") + inner + json.dumps(k) + ": "
            yield from _json_chunks(obj[k], inner)
        yield indent + "}"
        return
    if not (isinstance(obj, (list, tuple)) and obj):
        yield json.dumps(obj)
        return
    for i, v in enumerate(obj):
        yield ("," if i else "[") + inner
        yield from _json_chunks(v, inner)
    yield indent + "]"


class _Writer:
    def __init__(self, cfg: ExperimentConfig, out_dir: Path):
        self.cfg = cfg
        self.out_dir = out_dir
        self.files: list[str] = []
        echo = {"command": cfg.command, "seed": cfg.seed, "config": cfg.raw}
        self.manifest_hash = hashlib.sha256(json.dumps(echo, sort_keys=True).encode()).hexdigest()[:16]

    def emit(self, name: str, rows: list[dict], columns: list[str], payload: dict) -> None:
        if "csv" in self.cfg.formats:
            self.emit_text(f"{name}.csv", [_csv_text(rows, columns, self.manifest_hash)])
        if "json" in self.cfg.formats:
            self.emit_json(name, payload)

    def emit_text(self, name: str, pieces) -> None:
        """Writes the text ``pieces`` to ``name`` one at a time, so no file is held whole."""
        p = self.out_dir / name
        with p.open("w") as fh:
            fh.writelines(pieces)
        self.files.append(p.name)

    def emit_json(self, name: str, payload: dict) -> None:
        """Writes ``payload``, with the manifest hash and (unless it has one) the seed, as JSON."""
        body = {"seed": self.cfg.seed, **payload, "manifest_hash": self.manifest_hash}
        self.emit_text(f"{name}.json", itertools.chain(_json_chunks(body), ["\n"]))

    def manifest(self, wall_time: float, extra: dict | None = None) -> None:
        payload = {
            "command": self.cfg.command,
            "seed": self.cfg.seed,
            **({"threads": self.cfg.threads} if hasattr(self.cfg, "threads") else {}),
            "config": self.cfg.raw,
            "resolved_config": _resolved_config(self.cfg),
            "manifest_hash": self.manifest_hash,
            "versions": {
                "lepage": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
                "stream_layout": STREAM_LAYOUT,
            },
            "wall_time_s": wall_time,
            "files": sorted(self.files),
        }
        (self.out_dir / "manifest.json").write_text(_json_text(payload) + "\n")


# ---------------------------------------------------------------------------
# command dispatch
# ---------------------------------------------------------------------------


def run(cfg: ExperimentConfig) -> int:
    """Execute a parsed config; writes artifacts, returns the exit code."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    writer = _Writer(cfg, out_dir)
    started = time.perf_counter()
    code = _COMMANDS[cfg.command][0](cfg, writer)
    writer.manifest(time.perf_counter() - started)
    return code


def _cmd_simulate(cfg, writer) -> int:
    spec = cfg.series_spec()

    def one_replicate(r, _):
        result = series_mod.partial_sum(spec, RngStream(cfg.seed, r), with_term_norms=cfg.per_term_norms)
        name, path = f"path_{r:04d}", result.path
        if "csv" in cfg.formats:
            # the step-path CSV schema is fixed (bit-exact round trip), so the
            # manifest hash for these files lives in the samples index instead
            writer.emit_text(f"{name}.csv", paths_mod._csv_blocks(path))
        if "json" in cfg.formats:
            # the fields of paths.path_to_json, as arrays
            writer.emit_json(name, {"dimension": path.dimension, "initial_value": path.initial_value,
                                    "jump_times": path.jump_times,
                                    "post_jump_values": path.post_jump_values})
        if cfg.per_term_norms:
            writer.emit_json(f"{name}_term_norms", {"replicate": r, "per_term_norms": result.per_term_norms})
        return {"replicate": r, "terms_used": result.terms_used,
                "sup_norm": paths_mod.sup_norm(path), "file": name}

    index_rows = chunk_runner(cfg.threads)(one_replicate, [(r, 1) for r in range(cfg.replicates)])
    payload = {"spec": spec.echo(), "replicates": cfg.replicates, "samples": index_rows}
    writer.emit("samples", index_rows, ["replicate", "terms_used", "sup_norm", "file"], payload)
    return 0


def _cmd_check_conditions(cfg, writer) -> int:
    env1, env2 = (cfg.envelope,) * 2 if cfg.envelope is not None else diag.default_envelopes(cfg.y)
    stream = RngStream(cfg.seed)
    rep1 = diag.estimate_c1(cfg.y, cfg.pairs, cfg.replicates, env1, stream, cfg.threads)
    rep2 = diag.estimate_c2(cfg.y, cfg.triples, cfg.replicates, env2, stream, cfg.threads)
    for name, rep in (("c1_report", rep1), ("c2_report", rep2)):
        writer.emit(name, rep.rows(), ["t1", "t", "t2", "estimate", "se", "envelope", "verdict"],
                    {"kind": rep.kind, "replicates": rep.replicates, "meta": rep.meta, "entries": rep.rows()})
    return 2 if (rep1.violated or rep2.violated) else 0


def _cmd_constants(cfg, writer) -> int:
    rows = []
    for m in cfg.m_values:
        mc = diag.moment_constant(cfg.alpha, m, cfg.epsilon, cfg.n_max)
        rows.append({"quantity": f"C(alpha,{m:g})", "value": mc.value,
                     "converged": mc.converged, "n_max": mc.n_max})
    if cfg.epsilon.is_mean_zero:
        c1 = diag.centered_first_moment_sum(cfg.alpha, cfg.epsilon, cfg.n_max)
        rows.append({"quantity": "C(alpha,1)", "value": c1, "converged": True,
                     "n_max": cfg.n_max})
    bc = diag.borel_cantelli_sum(cfg.alpha, cfg.epsilon, cfg.n_max)
    rows.append({"quantity": "borel_cantelli_sum", "value": bc.value, "converged": True,
                 "n_max": cfg.n_max})
    rows.append({"quantity": "abs_moment_alpha", "value": bc.alpha_moment, "converged": True,
                 "n_max": cfg.n_max})
    writer.emit("constants", rows, ["quantity", "value", "converged", "n_max"],
                {"alpha": cfg.alpha, "epsilon": cfg.epsilon.echo(), "entries": rows})
    return 0


def _cmd_partitions(cfg, writer) -> int:
    report = diag.partition_report(cfg.alpha, cfg.epsilon, cfg.n_grid, cfg.constant_n_max)
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
    envelopes = (cfg.envelope,) * 2 if cfg.envelope is not None else None
    spec = cfg.series_spec(truncation_n=cfg.n, weight_mode="deterministic", epsilon_mode="truncated")
    report = diag.tightness_functional(spec, cfg.triples, cfg.replicates, envelopes, cfg.threads)
    rows = [{**row, "n": cfg.n} for row in report.rows()]
    writer.emit("tightness", rows, ["t1", "t", "t2", "n", "estimate", "se", "envelope", "verdict"],
                {"spec": spec.echo(), "n": cfg.n, "replicates": cfg.replicates, "entries": rows})
    return 2 if report.violated else 0


def _cmd_stability(cfg, writer) -> int:
    spec = cfg.series_spec()
    marginals = series_mod.sample_marginals(spec, cfg.t, cfg.samples, cfg.threads)
    result = checks.sum_stability_test(marginals[:, 0], cfg.alpha, RngStream(cfg.seed))
    row = result.row()
    writer.emit("stability", [row], list(row.keys()),
                {"spec": spec.echo(), "t": cfg.t, "samples": cfg.samples, **row})
    return 0 if result.passed else 2


def _cmd_spectral(cfg, writer) -> int:
    est = checks.spectral_estimate(cfg.epsilon, cfg.y, cfg.alpha, cfg.events,
                                   cfg.replicates, RngStream(cfg.seed), cfg.threads)
    rows = est.rows()
    writer.emit("spectral", rows, ["event", "mass", "se"],
                {"alpha": est.alpha, "replicates": est.replicates, "meta": est.meta,
                 "entries": rows})
    return 0


def _cmd_regvar(cfg, writer) -> int:
    spec = cfg.series_spec()
    # spectral_estimate first, so its checks refuse a config before any series path is drawn
    sigma = checks.spectral_estimate(cfg.epsilon, cfg.y, cfg.alpha, cfg.events,
                                     cfg.sigma_replicates, RngStream(cfg.seed), cfg.threads)
    stats = series_mod.sample_path_stats(spec, cfg.samples, cfg.threads)
    table = checks.regular_variation_table(stats, cfg.events, cfg.r_grid, cfg.n, cfg.alpha, sigma)
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


_PAIRS = ([[i / 20.0, i / 20.0 + 0.5] for i in range(10)], _times("increment_second_moment"))
_TRIPLES = ([[i / 20.0, i / 20.0 + 0.25, i / 20.0 + 0.5] for i in range(10)], _times("cross_moment"))
_ENVELOPE = (None, _one_of("envelope", "kind", _ENVELOPES, "identity"))
_EVENTS = (["full_sphere", "nonnegative_path"], _list_of(_one_of("event", "kind", _EVENT_KINDS)))
_SAMPLES = (30_000, _count)
_N = (100, _positive)
_MOMENTS = {k: _SERIES[k] for k in ("alpha", "epsilon")}

# command -> (handler, the keys it reads beside the run keys as {key: (default, parser)}, its _Deferred or None)
_COMMANDS = {
    "simulate": (_cmd_simulate, {**_SERIES, **_MODES, **_THREADS, "replicates": (1, _count),
                                 "per_term_norms": (False, _bool)}, None),
    "check-conditions": (_cmd_check_conditions, {"y": _SERIES["y"], **_THREADS, "replicates": (100_000, _count),
                                                 "pairs": _PAIRS, "triples": _TRIPLES, "envelope": _ENVELOPE}, diag),
    "constants": (_cmd_constants, {**_MOMENTS, "m_values": ([2.0, 3.0, 4.0], _list_of(_finite)),
                                   "n_max": (10**6, _count)}, diag),
    "partitions": (_cmd_partitions, {**_MOMENTS, "n_grid": ([1, 2, 4, 8, 16, 32, 64], _list_of(_count)),
                                     "constant_n_max": (10**5, _count)}, diag),
    "tightness": (_cmd_tightness, {**_SERIES, **_THREADS, "replicates": (10_000, _count), "triples": _TRIPLES,
                                   "envelope": _ENVELOPE, "n": _N}, diag),
    "stability": (_cmd_stability, {**_SERIES, **_MODES, **_THREADS, "t": (1.0, _finite), "samples": _SAMPLES}, checks),
    "spectral": (_cmd_spectral, {**_SERIES, **_THREADS, "replicates": (100_000, _count), "events": _EVENTS}, checks),
    "regvar": (_cmd_regvar, {**_SERIES, **_MODES, **_THREADS, "samples": _SAMPLES,
                             "sigma_replicates": (100_000, _count), "events": _EVENTS,
                             "r_grid": ([1.0, 2.0], _list_of(_radius)), "n": _N}, checks),
}
_KEYS = {name: {**_RUN, **own} for name, (_, own, _) in _COMMANDS.items()}


def main(argv=None) -> int:
    import argparse  # here, not at the top: parse_config and run need none of it
    parser = argparse.ArgumentParser(
        prog="lepage",
        description="Simulate truncated weighted-jump series on step paths and "
        "verify their moment conditions and limit distribution.",
    )
    # a usage error exits 1, as an operational error: 2 is the "violated" verdict
    parser.error = lambda message: parser.exit(1, f"{parser.format_usage()}{parser.prog}: error: {message}\n")
    parser.add_argument("--config", required=True, help="YAML/JSON experiment config")
    parser.add_argument("--seed", default=None, help="override the config seed")
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

    if args.out is not None:
        cfg.out_dir = args.out
    try:
        if args.seed is not None:
            cfg.seed = cfg.raw["seed"] = _seed(args.seed)
        if args.threads is not None:
            if not hasattr(cfg, "threads"):
                raise ValueError(f"command {cfg.command!r} takes no --threads: it runs no worker threads")
            cfg.threads = _threads(args.threads)
        if args.format is not None:
            cfg.formats = _formats(f for f in args.format.split(",") if f)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        return run(cfg)
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

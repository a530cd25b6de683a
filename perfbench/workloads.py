"""The benchmark's workloads: one ``lepage`` CLI config each, built from a seed.

Each workload keeps the layer split of an acceptance gate at a smaller
size, so that one timed run lasts about a second and a run of the benchmark
holds enough repetitions for a steady median.  The chunk shape depends on
``truncation_n`` only (2097x2000 events for ``marginal``, 4096x500 for
``pathstats`` and ``tightness``), so fewer samples means fewer chunks of
the same shape, not different work.

* ``marginal`` (c09 scale, 2 chunks): mostly draws and coefficient
  assembly; the reduction is masked sums and nothing is sorted.  The
  workload for stream-draw and coefficient changes, and the no-change
  control for sorting changes.
* ``pathstats`` (c12 scale, 2 chunks): dominated by the chunk-wide sort and
  running values in ``series.sample_path_stats``.
* ``tightness`` (c07 scale, 2 of the 10 default triples): Poisson paths with
  a variable number of events per term; dominated by the two sorts in the
  Poisson sampler.  10 000 replicates keep the gate's uneven 4096/4096/1808
  chunk split.
* ``simulate`` (``truncation_n`` 20 000 instead of 10^6): the only workload
  that writes much output; runs the unchunked per-replicate path and is
  dominated by serialization.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int  # the seed of the acceptance gate at this scale
    config: dict

    def config_for(self, seed: int) -> dict:
        # threads and the output directory are set as command-line overrides,
        # which keep them out of the manifest hash that every result file carries
        return {**self.config, "seed": seed}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("marginal", 0, {
            "command": "stability", "alpha": 1.5, "truncation_n": 2000,
            "epsilon": "rademacher", "y": "example1", "samples": 2 * 2097,
        }),
        Workload("pathstats", 114, {
            "command": "regvar", "alpha": 1.5, "truncation_n": 500,
            "epsilon": "rademacher", "y": "example1",
            "samples": 2 * 4096, "sigma_replicates": 4 * 4096,
        }),
        Workload("tightness", 107, {
            "command": "tightness", "alpha": 1.5, "n": 100,
            "epsilon": "rademacher", "y": {"variant": "example3", "lambda": 1.0},
            "replicates": 10_000,
            "triples": [[i / 20.0, i / 20.0 + 0.25, i / 20.0 + 0.5] for i in range(2)],
        }),
        Workload("simulate", 7, {
            "command": "simulate", "alpha": 1.5, "truncation_n": 20_000,
            "epsilon": "rademacher", "y": "example1", "replicates": 1,
        }),
    )
}


def result_files(out_dir: Path) -> list[Path]:
    """Every file the run wrote except the manifest, which records timings."""
    return sorted(p for p in out_dir.iterdir() if p.is_file() and p.name != "manifest.json")


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


# how the CLI writes a non-finite float; a hex hash such as "9e99999" parses
# as inf, so cells are matched by their text, not by float()
NONFINITE = {"nan", "inf", "infinity"}


def nonfinite_cells(out_dir: Path) -> list[str]:
    """``file:row:column`` of every numeric CSV cell that is not finite."""
    bad = []
    for path in result_files(out_dir):
        if path.suffix != ".csv":
            continue
        with path.open(newline="") as fh:
            for i, row in enumerate(csv.reader(fh)):
                for j, cell in enumerate(row):
                    if cell.strip().lstrip("+-").lower() in NONFINITE:
                        bad.append(f"{path.name}:{i}:{j}")
    return bad


def content_errors(name: str, out_dir: Path, config: dict) -> list[str]:
    """Checks of the result files against what the workload must produce."""
    errors = []

    def need(ok: bool, message: str) -> None:
        if not ok:
            errors.append(message)

    files = {p.name for p in result_files(out_dir)}
    if name == "marginal":
        need(files == {"stability.csv", "stability.json"}, f"files {sorted(files)}")
        (row,) = _rows(out_dir / "stability.csv")
        m = config["samples"] // 3
        need(int(row["n_sums"]) == m and int(row["n_heldout"]) == config["samples"] - 2 * m,
             "sample split")
        need(0.0 < float(row["ks"]) < 1.0, "KS distance outside (0, 1)")
        need((row["verdict"] == "satisfied") == (float(row["ks"]) < float(row["threshold_1pct"])),
             "verdict disagrees with the KS distance")
    elif name == "pathstats":
        need(files == {"regvar.csv", "regvar.json"}, f"files {sorted(files)}")
        rows = _rows(out_dir / "regvar.csv")
        need(len(rows) == 4, "one row per (r, event)")
        for row in rows:
            if row["event"] == "full_sphere":
                need(float(row["prediction"]) == 1.0, "full-sphere spectral mass is not 1")
                need(row["cond_prob"] in ("no data", "1.0", "1"),
                     "full-sphere conditional probability is not 1")
            elif row["cond_prob"] != "no data":
                need(0.0 <= float(row["cond_prob"]) <= 1.0, "probability outside [0, 1]")
    elif name == "tightness":
        need(files == {"tightness.csv", "tightness.json"}, f"files {sorted(files)}")
        rows = _rows(out_dir / "tightness.csv")
        need(len(rows) == len(config["triples"]), "one row per triple")
        for row in rows:
            need(float(row["estimate"]) >= 0.0 and float(row["se"]) >= 0.0,
                 "negative fourth moment or standard error")
            need(float(row["envelope"]) > 0.0, "bound is not positive")
    elif name == "simulate":
        need(files == {"path_0000.csv", "path_0000.json", "samples.csv", "samples.json"},
             f"files {sorted(files)}")
        (row,) = _rows(out_dir / "samples.csv")
        need(int(row["terms_used"]) == config["truncation_n"], "terms_used")
        with (out_dir / "path_0000.csv").open() as fh:
            next(fh)
            sup = max(abs(float(line.rsplit(",", 1)[1])) for line in fh)
        need(sup == float(row["sup_norm"]), "sup_norm disagrees with the path file")
    return errors

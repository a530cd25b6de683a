"""End-to-end and per-layer benchmark of the ``lepage`` CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload marginal [--seed N] [--seconds 30] [--trace 0|1]

Every measurement runs the workload's config in a fresh interpreter
(``perfbench/child.py``), so ``setup_s`` and peak RSS belong to that run
alone.  The first run of each invocation only warms the bytecode and page
caches; its result files are the reference that every later run, at any
thread count and traced or not, must reproduce byte for byte.  Then rounds
of runs repeat until ``--seconds`` is spent (at least three rounds), and
each metric is the median over the rounds.

``--trace 0`` reports the end-to-end metrics: a round is one run at
``--threads 1`` and one at ``--threads auto``.  ``--trace 1`` reports the
per-layer metrics: a round is an untraced and a traced run at
``--threads 1`` plus a traced run at ``--threads auto`` for ``parallel.*``;
``trace.overhead_s`` is the traced minus the untraced median wall time.

A run fails when the CLI exits 1, when a result file (any file but
``manifest.json``) differs from the reference, or when the reference has a
non-finite numeric CSV cell or fails the workload's content check.  Exit 2
is a statistical verdict and is only recorded.  The line before the result
records provenance: core count, numpy and Python versions, commit, seed and
the SHA-256 of each result file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS, content_errors, nonfinite_cells, result_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "wall_s_auto": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "peak_rss_mb_auto": "MB"}
# peak RSS is the worst run's: with several chunks in flight it depends on how
# their allocations happen to overlap, and a memory budget must cover the worst
AGGREGATE = {"peak_rss_mb": max, "peak_rss_mb_auto": max}
PER_LAYER = {
    "random_inputs.draw_s": "s", "random_inputs.gamma_s": "s",
    "random_inputs.epsilon_s": "s", "random_inputs.y_s": "s",
    "random_inputs.draw_events": "count", "rng.generators": "count",
    "series.assemble_s": "s", "series.reduce_s": "s", "random_inputs.reduce_s": "s",
    "diagnostics.s": "s", "stable_checks.s": "s",
    "cli.output_s": "s", "paths.serialize_s": "s", "cli.output_bytes": "bytes",
    "parallel.chunks": "count", "parallel.busy_s": "s", "parallel.efficiency": "ratio",
    "parallel.chunk_max_over_mean": "ratio",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.missing_boundaries": "count",
}


class ChildError(RuntimeError):
    """A run that produced no report: the package is missing or broken."""


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Bench:
    """Runs one workload at one seed and checks every run's result files."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.work = work
        self.config = self.workload.config_for(seed)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.attempted = 0
        self.failed = 0
        self.exit_codes: Counter = Counter()
        self.reference: dict[str, str] | None = None
        self.mismatches: list[str] = []
        self.errors: list[str] = []
        self.versions: dict = {}

    def run(self, threads, trace: bool) -> dict:
        k = self.attempted
        self.attempted += 1
        out = self.work / f"run{k}"
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(self.config_path), str(threads),
                 str(out), str(int(trace))],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise ChildError(f"run {k} exceeded {CHILD_TIMEOUT_S} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildError(f"run {k} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        report = json.loads(lines[-1])
        self.exit_codes[report["exit"]] += 1
        self.versions = {"numpy": report["numpy"], "python": report["python"]}

        files = result_files(out) if out.is_dir() else []
        hashes = {p.name: _sha256(p) for p in files}
        if trace:
            report["layers"].update({
                "cli.output_bytes": sum(p.stat().st_size for p in files),
                "trace.wall_s": report["wall_s"],
                "trace.missing_boundaries": len(report["missing"]),
            })
        failed = report["exit"] not in (0, 2)
        if failed:
            sys.stderr.write(f"run {k} (threads={threads}) exited {report['exit']}\n")
        elif self.reference is None:
            self.reference = hashes
            bad = nonfinite_cells(out)
            if bad:
                self.errors.append(f"non-finite CSV cells: {bad[:10]}")
            try:
                self.errors += content_errors(self.name, out, self.config)
            except (KeyError, ValueError, OSError, StopIteration) as exc:
                self.errors.append(f"unreadable result files: {exc!r}")
        elif hashes != self.reference:
            failed = True
            self.mismatches.append(f"run {k} (threads={threads}, trace={int(trace)})")
        self.failed += failed
        shutil.rmtree(out, ignore_errors=True)
        return report

    def measure(self, seconds: float, trace: bool) -> list[tuple[dict, ...]]:
        deadline = time.monotonic() + seconds
        self.run(1, False)  # warm-up; its files are the reference
        rounds = []
        round_s = 0.0
        while len(rounds) < MIN_ROUNDS or time.monotonic() + round_s < deadline:
            start = time.monotonic()
            if trace:
                rounds.append((self.run(1, False), self.run(1, True), self.run("auto", True)))
            else:
                rounds.append((self.run(1, False), self.run("auto", False)))
            round_s = time.monotonic() - start
        return rounds

    @property
    def total_failed(self) -> int:
        # a bad reference is shared by every run that reproduced it
        return self.attempted if self.errors else self.failed


def end_to_end(rounds) -> dict[str, list[float]]:
    return {
        "wall_s": [r[0]["wall_s"] for r in rounds],
        "wall_s_auto": [r[1]["wall_s"] for r in rounds],
        "setup_s": [run["setup_s"] for r in rounds for run in r],
        "peak_rss_mb": [r[0]["peak_rss_mb"] for r in rounds],
        "peak_rss_mb_auto": [r[1]["peak_rss_mb"] for r in rounds],
    }


def per_layer(rounds) -> dict[str, list[float]]:
    # parallel.* come from the traced run at --threads auto, the rest at --threads 1
    return {m: [r[2 if m.startswith("parallel.") else 1]["layers"][m] for r in rounds]
            for m in PER_LAYER if m != "trace.overhead_s"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the seed of the matching gate)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and the output removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "lepage" / "cli.py").is_file():
        print(f"error: no lepage package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    work = ROOT / ".perfbench_out" / f"{args.workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(args.workload, seed, work)
    try:
        rounds = bench.measure(args.seconds, bool(args.trace))
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    samples = per_layer(rounds) if args.trace else end_to_end(rounds)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {m: {"value": AGGREGATE.get(m, statistics.median)(v), "unit": units[m]}
               for m, v in samples.items()}
    if args.trace:
        untraced = statistics.median(r[0]["wall_s"] for r in rounds)
        metrics["trace.overhead_s"] = {"value": metrics["trace.wall_s"]["value"] - untraced,
                                       "unit": "s"}
        metrics = {m: metrics[m] for m in PER_LAYER}
    missing = sorted({b for r in rounds for run in r for b in run.get("missing", ())})
    provenance = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), **bench.versions, "git_commit": _git_commit(),
        "config": workload.config, "rounds": len(rounds),
        "failed_frac": bench.total_failed / bench.attempted,
        "exit_codes": {str(k): v for k, v in sorted(bench.exit_codes.items())},
        "result_sha256": bench.reference, "mismatches": bench.mismatches,
        "errors": bench.errors, "missing_boundaries": missing, "samples": samples,
    }
    print(json.dumps({"provenance": provenance}))
    for boundary in missing:
        print(f"warning: trace boundary not found: {boundary}", file=sys.stderr)
    print(json.dumps({
        "correct": bench.total_failed == 0 and bench.reference is not None,
        "attempted": bench.attempted,
        "failed": bench.total_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one ``lepage`` config in a fresh interpreter and report what it cost.

Usage: ``python3 perfbench/child.py CONFIG THREADS OUT_DIR TRACE`` with
``src`` on ``PYTHONPATH``; ``THREADS`` and ``OUT_DIR`` override the config
the way ``lepage --threads --out`` does.  Prints one JSON object: the CLI
exit code, ``setup_s`` (``import lepage.cli`` plus ``parse_config``),
``wall_s`` (``cli.run``), the process's own peak RSS, and with ``TRACE`` = 1
the per-layer figures of :mod:`tracer`.  An error in import or parsing
propagates, so a tree without the package fails instead of reporting.
"""

import json
import os
import platform
import resource
import sys
import time
import traceback


def main(config_path: str, threads: str, out_dir: str, trace: bool) -> dict:
    with open(config_path) as fh:
        text = fh.read()
    start = time.perf_counter()
    import lepage.cli as cli

    cfg = cli.parse_config(text)
    cfg.threads = threads if threads == "auto" else int(threads)
    cfg.out_dir = out_dir
    setup_s = time.perf_counter() - start

    tracer = None
    if trace:
        from tracer import Tracer

        threads = (os.cpu_count() or 1) if cfg.threads == "auto" else int(cfg.threads)
        tracer = Tracer(threads).install()
    start = time.perf_counter()
    try:
        code = cli.run(cfg)
    except Exception:  # the CLI reports any error as exit 1; keep the traceback
        traceback.print_exc()
        code = 1
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.remove()

    import numpy

    out = {
        "exit": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["missing"] = tracer.missing
    return out


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:4], trace=sys.argv[4] == "1")))

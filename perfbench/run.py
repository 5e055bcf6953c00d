"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload paper-grid --seed 1 \
        --seconds 20 --trace 0

Runs from the root of a source checkout (the package is imported from
``src/``).  Human-readable lines -- the environment fingerprint, every
metric by name with its unit, and any correctness failure -- go to
standard output; the last line is the JSON result: with ``--trace 0``
the end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` the
per-layer metrics of a separate traced run.  See README.md.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def fingerprint() -> dict:
    import numpy
    import scipy
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    with open("/proc/meminfo") as fh:
        mem_kb = int(fh.readline().split()[1])
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "mem_total_mb": mem_kb // 1024,
            "numba": has_numba}


def end_to_end(outcome) -> dict:
    """The ``end_to_end`` metrics of BENCHMARK.json."""
    wall = statistics.median(outcome.walls)
    return {
        "setup_s": (outcome.setup_s, "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
        "ok_frac": (outcome.ok / outcome.attempted, "ratio"),
        "work_per_s": (outcome.work / wall, "1/s"),
        "p50_ms": (statistics.median(outcome.latencies_ms), "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A termination request unwinds normally, so every child process
    # (pool, server, memory watch) is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one "
              f"of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    outcome = workloads.run(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    print(f"env: {json.dumps(fingerprint(), sort_keys=True)}")
    print(f"workload: {args.workload} seed={args.seed} "
          f"passes={len(outcome.walls)} {outcome.work_unit}/pass="
          f"{outcome.work:g}")
    if args.trace:
        shown = dict(sorted(outcome.layers.items()))
    else:
        shown = dict(end_to_end(outcome))
        shown["failed_frac"] = (outcome.failed / outcome.attempted,
                                "ratio")
        shown.update(outcome.named)
    for name, (value, unit) in shown.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for note in outcome.notes:
        print(f"FAILED {note}")
    metrics = outcome.layers if args.trace else end_to_end(outcome)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

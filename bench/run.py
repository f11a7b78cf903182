"""Run one twirlkit benchmark workload and print its metrics.

    python3 bench/run.py --workload trotter-analytic --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  The run sets up the workload from the seed, repeats whole rounds
of its work until ``--seconds`` have passed, checks every round's outputs,
and prints one JSON object as the last line of standard output:

* ``--trace 0`` — end-to-end metrics: ``setup_s`` (process start to the
  first timed call), ``run_s`` (median wall time of one round) and
  ``peak_rss_mib`` (peak resident set size at the end of the rounds);
* ``--trace 1`` — per-layer metrics: the first third of the time runs
  untraced rounds, the rest traced ones (see ``tracing.py``); the figures are
  per traced round, and ``trace.overhead_s`` is the difference of the two
  median round times.  The full trace is written to
  ``bench/out/trace_<workload>_<seed>.jsonl``.

The exit code is 0 when every check passed, 1 when one failed, and 2 when
the run could not start (no ``src/twirlkit`` next to ``bench/``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

_LOADED = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
UNTRACED_SHARE = 1 / 3


def process_age() -> float:
    """Seconds since this process started, interpreter start-up included.

    Reads the start time from /proc (10 ms resolution); elsewhere falls back
    to the time since this file was loaded.
    """
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        age = -1.0
    loaded_for = time.perf_counter() - _LOADED
    return age if age >= loaded_for else loaded_for


def run_rounds(workload, clearers, seconds: float) -> tuple[list[float], list]:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    times, outputs = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        for clear in clearers:
            clear()
        began = time.perf_counter()
        result = workload.round()
        times.append(time.perf_counter() - began)
        outputs.append(workload.collect(result))
    return times, outputs


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    if not (SRC / "twirlkit" / "__init__.py").is_file():
        print(f"error: no twirlkit package under {SRC}", file=sys.stderr)
        return 2
    # One thread of numeric work, set before numpy loads: the figures stay
    # comparable on a shared machine.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    import workloads
    import twirlkit
    from tracing import Tracer, per_layer_metrics, per_layer_values

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT / args.workload)
    clearers = workloads.program_cache_clearers()
    setup_s = process_age()

    if not args.trace:
        times, outputs = run_rounds(workload, clearers, args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": min(times), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    else:
        plain, outputs = run_rounds(workload, clearers, args.seconds * UNTRACED_SHARE)
        tracer = Tracer(twirlkit)
        tracer.install()
        try:
            traced, more = run_rounds(workload, clearers, args.seconds * (1 - UNTRACED_SHARE))
        finally:
            tracer.uninstall()
        outputs += more
        overhead_s = min(traced) - min(plain)
        values = per_layer_values(tracer, len(traced), SRC / "twirlkit", overhead_s)
        units = {m["name"]: m["unit"] for m in per_layer_metrics()}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
        tracer.write(
            OUT / f"trace_{args.workload}_{args.seed}.jsonl",
            {"workload": args.workload, "seed": args.seed, "untraced_rounds_s": plain, "traced_rounds_s": traced},
        )

    problems, attempted, failed = workload.check(outputs)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one MiniDB host-time benchmark workload and print its metrics.

Usage, from the repository root::

    python3 hostbench/run.py --workload tpch-analytic --seed 1 \\
        --seconds 20 --trace 0

Prints a human-readable report, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``correct`` covers every measured statement;
``attempted`` and ``failed`` count the statements of the window's
leading passes, which are the same on every run with one seed.  Exits 2 when the MiniDB sources are not beside this
directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("tpch-analytic", "tpch-loop", "point-lookups")
#: Thread-pool sizes pinned before NumPy loads: one single-threaded
#: process, whatever the host's core count.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def report(run, metrics) -> str:
    """Human-readable lines: configuration, samples, metrics, failures."""
    from hostbench import bench
    from hostbench import metrics as m

    workload, verdicts = run.workload, run.verdicts
    lines = [
        f"workload {workload.name}  seed {run.seed}  sf {workload.sf}",
        "config " + " ".join(f"{k}={v}" for k, v in run.config.items()),
        f"window {run.wall_s:.2f} s  passes {run.passes}  "
        f"statements {len(run.latencies)}  set-ups {len(run.setup_times)}",
    ]
    raw = {} if run.traced else bench.end_to_end(run, raw=True)
    if raw:
        lines.append(
            f"host slowdown {run.window_speed.slowdown():.4f} (median) in"
            " the window,"
            f" {run.setup_speed.slowdown():.4f} in set-up; metrics at unit"
            " host speed, raw as measured")
    for name, (value, unit) in metrics.items():
        measured = f"  raw {raw[name][0]:.6g}" if name in raw else ""
        lines.append(f"  {name:<40} {value:>14.6g} {unit}{measured}")
    if not run.traced:
        ms = bench.statement_latencies_ms(run)
        raw_ms = bench.statement_latencies_ms(run, raw=True)
        for pct in workload.extra_tails:
            name = f"latency_p{pct:g}_ms"
            try:
                value = m.tail_percentile(ms, pct)
            except ValueError as exc:
                lines.append(f"  {name} not reported: {exc}")
            else:
                lines.append(f"  {name:<40} {value:>14.6g} ms"
                             f"  raw {m.tail_percentile(raw_ms, pct):.6g}")
    frac = verdicts.failed / verdicts.attempted if verdicts.attempted else 0
    lines.append(f"  {'failed_frac':<40} {frac:>14.6g} ratio "
                 f"({verdicts.failed} of {verdicts.attempted}; "
                 f"{verdicts.known} from the known sort defect)")
    for kind, count in sorted(verdicts.kinds.items()):
        lines.append(f"    x{count} {kind}")
    lines.append(f"  result line: {run.counted.failed} failed of the "
                 f"{run.counted.attempted} statements of the window's "
                 "leading passes (the same statements on every run)")
    lines.append("correct" if verdicts.correct
                 else "INCORRECT: failures outside the known defect")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "db" / "engine.py").is_file():
        print(f"error: MiniDB sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from hostbench import bench
    from hostbench import metrics as m
    from hostbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    spans_path = (ROOT / ".hostbench_out"
                  / f"spans-{workload.name}-seed{args.seed}.jsonl")
    run = bench.execute(workload, args.seed, args.seconds, bool(args.trace),
                        spans_path if args.trace else None)
    if args.trace:
        metrics = {**bench.setup_layers(run), **run.layers}
    else:
        metrics = bench.end_to_end(run)
    print(report(run, metrics))
    if args.trace:
        print(f"spans -> {spans_path.relative_to(ROOT)}")
    print(m.result_line(run.verdicts.correct, run.counted.attempted,
                        run.counted.failed, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

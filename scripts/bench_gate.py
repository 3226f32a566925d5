#!/usr/bin/env python
"""Benchmark-regression gate: same-runner A/B against a base commit.

Checks out ``--base`` (default ``HEAD^1``: the base branch tip on a PR
merge commit, the previous commit on a push) in a temporary detached
``git worktree`` and runs the smoke subset under ``pytest-benchmark``
in alternating processes, base and candidate (this working tree) each
from its own checkout, in ABBA order.  Both sides therefore share the
runner, the data, the interpreter and the time window — the tutorial's
"compare like with like".

The unit of comparison is the process run (Kalibera & Jones,
"Rigorous Benchmarking in Reasonable Time", ISMM 2013): each side's
sample for a benchmark is its per-process medians, judged by
:func:`repro.measurement.speedup.significant_regression` — a two-sided
Mann-Whitney U test plus a :data:`MIN_EFFECT` floor on the median
(Touati's Speedup-Test, arXiv 0902.1035) — so the test and its
bootstrap CI see between-run noise, not just within-run noise.  Each
benchmark is tested at :data:`ALPHA` divided by the number gated, so
the whole run's false-red rate is at most :data:`ALPHA`; :data:`N_PAIRS`
is the smallest number of A/B pairs at which the exact test can reject
at that level.

Each run appends one record (the candidate's median per benchmark, and
its backend tag) to ``BENCH_HISTORY.jsonl`` and prints an ASCII trend
per benchmark, so a slow drift is visible before it trips the gate.

Usage::

    python scripts/bench_gate.py                   # vs HEAD^1
    python scripts/bench_gate.py --base main       # vs another revision
    python scripts/bench_gate.py --json ab.json    # keep both sides'
                                                   # per-process medians

Exit codes: 0 gate passed, 1 regression detected, 2 infrastructure
error (base checkout or a bench run failed, or too few samples to
reject at the per-benchmark level).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

# The verdict reuses the library's speedup analysis; the script must
# work from a raw checkout, so put src/ on the path.
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.errors import MeasurementError  # noqa: E402
from repro.measurement.speedup import (  # noqa: E402
    protocol_estimate,
    significant_regression,
)

DEFAULT_HISTORY = REPO_ROOT / "BENCH_HISTORY.jsonl"

#: ``{fullname: [per-process median seconds, ...]}`` for one side.
Samples = Dict[str, List[float]]

#: Family-wise significance level: each of the m benchmarks gated is
#: tested at ALPHA / m (Bonferroni), so a run on unchanged code fails
#: with probability at most ALPHA however many benchmarks it gates.
ALPHA = 0.05
#: Practical-significance floor: the candidate's median must be more
#: than this fraction slower before a significant shift fails the gate.
MIN_EFFECT = 0.10
#: A/B process pairs.  The exact two-sided test's best p-value, at
#: complete separation, is 2 / C(2n, n): 0.00058 at n = 7, below
#: ALPHA / 29 for the 29 benchmarks of the subset (n = 6 gives 0.0022,
#: too large) and usable up to 85.  Past that, significant_regression
#: refuses the sample and the gate exits 2.
N_PAIRS = 7
#: Process order, ABBA-balanced so a linear drift of the runner over
#: the session favours neither side.
RUN_ORDER: Tuple[str, ...] = tuple(itertools.chain.from_iterable(
    ("base", "candidate") if pair % 2 == 0 else ("candidate", "base")
    for pair in range(N_PAIRS)))

#: The smoke subset: 29 fast benchmarks spanning the design, analysis,
#: guideline, metrics, vectorized, serving, optimizer, cross-system and
#: cache layers.  Keep entries fast and low-variance — the gate runs
#: every one of them 2 * N_PAIRS times on every PR.
SMOKE_BENCHMARKS = (
    "benchmarks/bench_e07_design_sizes.py",
    "benchmarks/bench_e09_twotwo_design.py",
    "benchmarks/bench_e10_allocation.py",
    "benchmarks/bench_e13_guidelines.py",
    "benchmarks/bench_e19_metrics.py",
    "benchmarks/bench_e23_vectorized.py",
    "benchmarks/bench_e24_serving.py",
    "benchmarks/bench_e25_optimizer.py",
    "benchmarks/bench_e27_systems.py",
    "benchmarks/bench_e28_cache.py",
)


@contextmanager
def base_checkout(revision: str) -> Iterator[Path]:
    """A detached worktree of *revision* in a temp dir, removed on exit."""
    root = Path(tempfile.mkdtemp(prefix="bench-gate-base-"))
    added = False
    try:
        result = subprocess.run(
            ["git", "worktree", "add", "--detach", "--quiet", str(root),
             revision], cwd=REPO_ROOT, capture_output=True, text=True)
        if result.returncode != 0:
            raise RuntimeError(f"cannot check out base {revision!r}: "
                               f"{result.stderr.strip()}")
        added = True
        yield root
    finally:
        if added:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(root)], cwd=REPO_ROOT,
                           capture_output=True)
        shutil.rmtree(root, ignore_errors=True)


def run_benchmarks(checkout: Path, json_path: Path) -> None:
    """Run *checkout*'s smoke subset in one process, exporting
    pytest-benchmark JSON; its console output is shown only on failure.
    Smoke files the checkout lacks are left out, so their benches show
    up as present on one side only."""
    env = dict(os.environ)
    src = str(checkout / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    files = [f for f in SMOKE_BENCHMARKS if (checkout / f).exists()]
    command = [sys.executable, "-m", "pytest", *files,
               "--benchmark-only", "--benchmark-json", str(json_path),
               "-q", "-p", "no:cacheprovider"]
    result = subprocess.run(command, cwd=checkout, env=env,
                            capture_output=True, text=True)
    if result.returncode != 0:
        print(result.stdout[-4000:] + result.stderr[-4000:],
              file=sys.stderr)
        raise RuntimeError(f"benchmark run in {checkout} failed "
                           f"(pytest exit {result.returncode})")


def load_process_medians(json_path: Path) -> Dict[str, float]:
    """``{fullname: median_seconds}`` of one pytest-benchmark process."""
    payload = json.loads(json_path.read_text())
    medians = {bench["fullname"]: float(bench["stats"]["median"])
               for bench in payload.get("benchmarks", [])}
    if not medians:
        raise RuntimeError(f"no benchmarks recorded in {json_path}")
    return medians


def load_backends(json_path: Path) -> Dict[str, str]:
    """``{fullname: backend}`` for benchmarks tagged via
    ``benchmark.extra_info["backend"]`` (the cross-system cases).

    Untagged benchmarks are simply absent — single-engine history
    records stay exactly as before.
    """
    payload = json.loads(json_path.read_text())
    backends: Dict[str, str] = {}
    for bench in payload.get("benchmarks", []):
        backend = bench.get("extra_info", {}).get("backend")
        if backend:
            backends[bench["fullname"]] = str(backend)
    return backends


def run_ab(checkouts: Dict[str, Path], scratch: Path
           ) -> Tuple[Dict[str, Samples], Dict[str, str]]:
    """Run :data:`RUN_ORDER`'s processes; return each side's
    ``{fullname: [per-process median, ...]}`` and the candidate's
    backend tags."""
    samples: Dict[str, Samples] = {side: {} for side in checkouts}
    backends: Dict[str, str] = {}
    for i, side in enumerate(RUN_ORDER):
        print(f"bench gate: process {i + 1}/{len(RUN_ORDER)} ({side})",
              flush=True)
        json_path = scratch / f"run{i}-{side}.json"
        run_benchmarks(checkouts[side], json_path)
        for name, median in load_process_medians(json_path).items():
            samples[side].setdefault(name, []).append(median)
        if side == "candidate":
            backends.update(load_backends(json_path))
    return samples, backends


def ab_compare(base: Samples, candidate: Samples) -> int:
    """Print the per-benchmark A/B verdicts; return the exit code.

    A benchmark present on one side only is reported, not gated.
    """
    regressions = []
    names = sorted(set(base) | set(candidate))
    width = max(map(len, names), default=9)
    n_gated = len(set(base) & set(candidate))
    alpha = ALPHA / max(1, n_gated)
    print(f"benchmark gate: same-runner A/B over per-process medians, "
          f"Mann-Whitney alpha={ALPHA} over {n_gated} benchmark(s) "
          f"({alpha:.5f} each), min effect +{100 * MIN_EFFECT:.0f}% on "
          "the median")
    print(f"{'benchmark':<{width}} {'base':>10} {'candidate':>10} "
          f"{'speedup [95% CI]':>24} {'p':>7}")
    for name in names:
        if name not in base or name not in candidate:
            side = "candidate" if name in candidate else "base"
            print(f"{name:<{width}} (only in {side}; not gated)")
            continue
        try:
            verdict = significant_regression(
                base[name], candidate[name], alpha=alpha,
                min_effect=MIN_EFFECT)
        except MeasurementError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        ci = verdict.ci
        flag = "  << REGRESSION" if verdict.regression else ""
        print(f"{name:<{width}} "
              f"{1000 * protocol_estimate(base[name]):>8.3f}ms "
              f"{1000 * protocol_estimate(candidate[name]):>8.3f}ms "
              f"{verdict.speedup:>7.3f}x [{ci.low:.3f}, {ci.high:.3f}] "
              f"{verdict.p_value:>7.4f}{flag}")
        if verdict.regression:
            regressions.append((name, verdict))
    if regressions:
        print(f"\ngate FAILED: {len(regressions)} benchmark(s) with a "
              "statistically significant regression:", file=sys.stderr)
        for name, verdict in regressions:
            print(f"  {name} — {verdict.format()}", file=sys.stderr)
        return 1
    print("\ngate passed: no statistically significant regression "
          f"(family-wise alpha={ALPHA}, min effect "
          f"+{100 * MIN_EFFECT:.0f}%)")
    return 0


# ---------------------------------------------------------------------------
# History and trends
# ---------------------------------------------------------------------------

def append_history(history_path: Path, medians: Dict[str, float],
                   backends: Optional[Dict[str, str]] = None) -> dict:
    """Append one run's median per benchmark to the JSONL history.

    Returns the record written.  The run index continues from the last
    recorded entry, so the history orders runs without wall-clock
    timestamps.  *backends* tags cross-system benchmarks with the
    database system they ran on, so trend lines stay per-system.
    """
    entries = read_history(history_path)
    backends = backends or {}

    def stats(name: str, median: float) -> dict:
        entry = {"median_s": median}
        if name in backends:
            entry["backend"] = backends[name]
        return entry

    record = {
        "run": (entries[-1]["run"] + 1) if entries else 1,
        "machine": {"python": platform.python_version(),
                    "platform": platform.platform()},
        "benchmarks": {name: stats(name, median)
                       for name, median in sorted(medians.items())},
    }
    history_path.parent.mkdir(parents=True, exist_ok=True)
    with history_path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def read_history(history_path: Path) -> List[dict]:
    """Every parseable record of the JSONL history, oldest first."""
    if not history_path.exists():
        return []
    entries = []
    for line in history_path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # a torn write must not kill the gate
    return entries


#: Trend glyphs, slowest (top bucket) to fastest; pure ASCII so the
#: report renders identically in CI logs and terminals.
TREND_LEVELS = " .:-=+*#"


def trend_report(entries: List[dict], width: int = 30) -> str:
    """ASCII per-benchmark trend of medians across history entries.

    Each column is one run (most recent *width* runs), scaled per
    benchmark between its min and max median; a flat line means a flat
    trajectory no matter the absolute noise level.
    """
    if not entries:
        return "bench history: (empty)"
    by_bench: Dict[str, List[float]] = {}
    for entry in entries[-width:]:
        for name, stats in entry.get("benchmarks", {}).items():
            # Cross-system benchmarks carry the backend they ran on;
            # keying the trend by it keeps one line per system.  Old
            # records without the tag keep their bare name.
            backend = stats.get("backend")
            label = f"{name} [{backend}]" if backend else name
            by_bench.setdefault(label, []).append(float(stats["median_s"]))
    lines = [f"bench history: {len(entries)} run(s), showing last "
             f"{min(width, len(entries))}"]
    for name in sorted(by_bench):
        medians = by_bench[name]
        lo, hi = min(medians), max(medians)
        span = hi - lo
        if span <= 0.0:
            bar = TREND_LEVELS[0] * len(medians)
        else:
            top = len(TREND_LEVELS) - 1
            bar = "".join(
                TREND_LEVELS[round((m - lo) / span * top)]
                for m in medians)
        drift = (medians[-1] / medians[0] - 1.0) * 100.0 \
            if medians[0] > 0 else 0.0
        lines.append(f"{name:<58} [{bar:<{min(width, len(medians))}}] "
                     f"{1000 * medians[-1]:>8.3f}ms ({drift:+.1f}% "
                     f"over {len(medians)} run(s))")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark-regression gate (see module docstring).")
    parser.add_argument("--base", default="HEAD^1",
                        help="git revision to compare against "
                             "(default: HEAD^1)")
    parser.add_argument("--json", type=Path, default=None,
                        help="write both sides' per-process medians "
                             "here")
    args = parser.parse_args(argv)

    try:
        with base_checkout(args.base) as base_root, \
                tempfile.TemporaryDirectory(prefix="bench-gate-") as tmp:
            samples, backends = run_ab(
                {"base": base_root, "candidate": REPO_ROOT}, Path(tmp))
    except (RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(
            {"base_revision": args.base, "run_order": list(RUN_ORDER),
             "per_process_median_s": samples},
            indent=2, sort_keys=True) + "\n")
    append_history(DEFAULT_HISTORY,
                   {name: protocol_estimate(values) for name, values
                    in samples["candidate"].items()},
                   backends=backends)
    print(trend_report(read_history(DEFAULT_HISTORY)))
    print()
    return ab_compare(samples["base"], samples["candidate"])


if __name__ == "__main__":
    sys.exit(main())

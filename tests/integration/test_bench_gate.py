"""Pinned behaviour of scripts/bench_gate.py's same-runner A/B gate.

Each side's sample for a benchmark is its per-process medians, one per
pytest-benchmark process; the acceptance scenarios:

- a seeded 1.3x slowdown fails (exit 1);
- identical sides, and a flat-but-noisy pair whose single medians sit
  more than 25% apart, pass (exit 0);
- a bench present on one side only is reported, not gated;
- too few processes per side to reject at the per-benchmark level
  (ALPHA over the number gated) is an infrastructure error (exit 2),
  never a silent pass.
"""

import json
import sys
from contextlib import contextmanager
from math import comb
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import bench_gate  # noqa: E402


@pytest.fixture
def noisy_pair():
    """Seeded flat-but-noisy baseline/candidate: same distribution,
    single medians more than 25% apart."""
    from repro.experiments.e26_observatory import flat_noisy_samples
    return flat_noisy_samples()


def _process_medians(seed, n=bench_gate.N_PAIRS, scale=1.0):
    rng = np.random.default_rng(seed)
    return (scale * 0.010 * (1 + rng.normal(0, 0.02, n))).tolist()


class TestDesign:
    def test_pairs_is_smallest_count_that_can_reject(self):
        """At ALPHA / 29, the subset's Bonferroni level per benchmark."""
        n, level = bench_gate.N_PAIRS, bench_gate.ALPHA / 29
        assert 2 / comb(2 * n, n) < level
        assert 2 / comb(2 * (n - 1), n - 1) >= level

    def test_run_order_is_abba(self):
        order = bench_gate.RUN_ORDER
        assert len(order) == 2 * bench_gate.N_PAIRS
        assert order[:4] == ("base", "candidate", "candidate", "base")
        assert order[4:] == order[:-4]


class TestGateScenarios:
    def test_flat_noisy_fails_raw_but_passes_stat(self, noisy_pair,
                                                  capsys):
        base, cand = noisy_pair
        # The premise: the single medians sit more than 25% apart, the
        # false red of a raw threshold on one number per side.
        assert (sorted(cand)[len(cand) // 2]
                / sorted(base)[len(base) // 2]) > 1.25
        assert bench_gate.ab_compare({"bench_x": base},
                                     {"bench_x": cand}) == 0
        assert "gate passed" in capsys.readouterr().out

    def test_true_30pct_regression_fails_stat(self, capsys):
        base = {"bench_x": _process_medians(1),
                "bench_y": _process_medians(2)}
        cand = {"bench_x": _process_medians(3, scale=1.3),
                "bench_y": _process_medians(4)}
        assert bench_gate.ab_compare(base, cand) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "bench_x" in captured.err and "bench_y" not in captured.err

    def test_identical_samples_pass_stat(self, capsys):
        samples = {"bench_x": _process_medians(5)}
        assert bench_gate.ab_compare(dict(samples), dict(samples)) == 0
        assert "1.000x" in capsys.readouterr().out

    def test_missing_bench_is_reported_not_gated(self, capsys):
        both = _process_medians(6)
        assert bench_gate.ab_compare(
            {"bench_x": both, "old": _process_medians(7)},
            {"bench_x": both, "new": _process_medians(8, scale=9.0)}) == 0
        out = capsys.readouterr().out
        assert "old" in out and "(only in base; not gated)" in out
        assert "new" in out and "(only in candidate; not gated)" in out

    def test_three_processes_per_side_is_an_infrastructure_error(
            self, capsys):
        base = {"bench_x": _process_medians(9, n=3)}
        slow = {"bench_x": _process_medians(10, n=3, scale=40.0)}
        assert bench_gate.ab_compare(base, slow) == 2
        assert "cannot reject" in capsys.readouterr().err

    def test_alpha_is_split_across_gated_benches(self, capsys):
        """4 vs 4 reaches p = 2/70 = 0.029: enough for one benchmark at
        0.05, not for two at 0.025 each."""
        base = {"a": _process_medians(11, n=4),
                "b": _process_medians(12, n=4)}
        slow = {"a": _process_medians(13, n=4, scale=1.3),
                "b": _process_medians(14, n=4)}
        assert bench_gate.ab_compare({"a": base["a"]},
                                     {"a": slow["a"]}) == 1
        assert bench_gate.ab_compare(base, slow) == 2
        assert "cannot reject at alpha=0.025" in capsys.readouterr().err

    def test_missing_baseline_is_an_infrastructure_error(self, capsys):
        assert bench_gate.main(
            ["--base", "no-such-revision-for-the-gate"]) == 2
        assert "cannot check out base" in capsys.readouterr().err


class TestMain:
    def test_abba_processes_feed_per_process_medians(self, tmp_path,
                                                     monkeypatch,
                                                     capsys):
        """main() with the git checkout and pytest stubbed out: one
        JSON export per process, a 1.3x slower candidate fails."""
        order = []

        @contextmanager
        def fake_checkout(revision):
            assert revision == "HEAD^1"
            yield tmp_path / "base"

        def fake_run(checkout, json_path):
            side = "base" if checkout == tmp_path / "base" else "candidate"
            order.append(side)
            median = 0.010 * (1.3 if side == "candidate" else 1.0) \
                * (1 + 0.001 * len(order))
            json_path.write_text(json.dumps({"benchmarks": [
                {"fullname": "b.py::test_x", "stats": {"median": median},
                 "extra_info": {"backend": "sqlite"}}]}))

        history = tmp_path / "h.jsonl"
        monkeypatch.setattr(bench_gate, "base_checkout", fake_checkout)
        monkeypatch.setattr(bench_gate, "run_benchmarks", fake_run)
        monkeypatch.setattr(bench_gate, "DEFAULT_HISTORY", history)
        out_json = tmp_path / "ab.json"
        assert bench_gate.main(["--json", str(out_json)]) == 1
        assert tuple(order) == bench_gate.RUN_ORDER
        payload = json.loads(out_json.read_text())
        medians = payload["per_process_median_s"]
        assert len(medians["base"]["b.py::test_x"]) == bench_gate.N_PAIRS
        assert len(medians["candidate"]["b.py::test_x"]) \
            == bench_gate.N_PAIRS
        [record] = bench_gate.read_history(history)
        assert record["benchmarks"]["b.py::test_x"]["backend"] == "sqlite"
        assert "b.py::test_x" in capsys.readouterr().err


class TestHistory:
    def test_append_and_read_roundtrip(self, tmp_path):
        history = tmp_path / "h.jsonl"
        first = bench_gate.append_history(history, {"a": 1.5})
        second = bench_gate.append_history(history, {"a": 2.5})
        assert first["run"] == 1 and second["run"] == 2
        entries = bench_gate.read_history(history)
        assert [e["run"] for e in entries] == [1, 2]
        assert entries[0]["benchmarks"]["a"] == {"median_s": 1.5}

    def test_records_hold_no_samples(self, tmp_path):
        history = tmp_path / "h.jsonl"
        bench_gate.append_history(history, {"a": 1.0, "b": 2.0},
                                  backends={"b": "sqlite"})
        for entry in bench_gate.read_history(history):
            for stats in entry["benchmarks"].values():
                assert "samples" not in stats

    def test_committed_history_holds_no_samples(self):
        history = REPO_ROOT / "BENCH_HISTORY.jsonl"
        entries = bench_gate.read_history(history)
        assert entries
        for entry in entries:
            for stats in entry["benchmarks"].values():
                assert set(stats) <= {"median_s", "backend"}

    def test_torn_line_is_skipped(self, tmp_path):
        history = tmp_path / "h.jsonl"
        bench_gate.append_history(history, {"a": 1.0})
        with history.open("a") as handle:
            handle.write('{"run": 2, "benchm')  # torn write
        assert len(bench_gate.read_history(history)) == 1

    def test_trend_report_shows_every_bench(self, tmp_path):
        history = tmp_path / "h.jsonl"
        for median in (1.0, 2.0, 3.0):
            bench_gate.append_history(history, {"a": median, "b": 5.0})
        report = bench_gate.trend_report(
            bench_gate.read_history(history))
        assert "3 run(s)" in report
        assert "a" in report and "b" in report
        assert "+200.0%" in report  # a drifted 1.0 -> 3.0

    def test_empty_history(self):
        assert "empty" in bench_gate.trend_report([])


class TestBackendTagging:
    def test_history_records_backend(self, tmp_path):
        history = tmp_path / "h.jsonl"
        record = bench_gate.append_history(
            history, {"bench_exec[sqlite]": 1.0, "bench_plain": 2.0},
            backends={"bench_exec[sqlite]": "sqlite"})
        assert record["benchmarks"]["bench_exec[sqlite]"]["backend"] \
            == "sqlite"
        assert "backend" not in record["benchmarks"]["bench_plain"]

    def test_trend_lines_are_per_system(self, tmp_path):
        history = tmp_path / "h.jsonl"
        for median in (1.0, 1.5):
            bench_gate.append_history(
                history, {"bench_exec": median, "bench_plain": 5.0},
                backends={"bench_exec": "minidb-loop"})
        report = bench_gate.trend_report(bench_gate.read_history(history))
        assert "bench_exec [minidb-loop]" in report
        assert "bench_plain" in report

    def test_old_untagged_records_still_render(self, tmp_path):
        history = tmp_path / "h.jsonl"
        bench_gate.append_history(history, {"a": 1.0})  # pre-tag era
        bench_gate.append_history(history, {"a": 1.2},
                                  backends={"a": "sqlite"})
        report = bench_gate.trend_report(bench_gate.read_history(history))
        assert "a " in report and "a [sqlite]" in report

    def test_load_backends_reads_extra_info(self, tmp_path):
        payload = {"benchmarks": [
            {"fullname": "f[sqlite]", "extra_info": {"backend": "sqlite"},
             "stats": {"median": 0.001, "data": [0.001]}},
            {"fullname": "g", "extra_info": {},
             "stats": {"median": 0.002, "data": [0.002]}},
        ]}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        assert bench_gate.load_backends(path) == {"f[sqlite]": "sqlite"}
        assert bench_gate.load_process_medians(path) == {
            "f[sqlite]": 0.001, "g": 0.002}

"""Tests for the one-command report regeneration (slide 234)."""

import hashlib

import pytest

from repro.experiments.report import main, regenerate


class TestRegenerate:
    @pytest.fixture(scope="class")
    def outcome(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("report")
        sections = regenerate(out, sf=0.003)
        return out, sections

    def test_all_experiments_present(self, outcome):
        __, sections = outcome
        assert [s.experiment for s in sections] == \
            [f"E{i:02d}" for i in range(1, 24)]

    def test_report_file_written(self, outcome):
        out, sections = outcome
        text = (out / "REPORT.md").read_text()
        assert text.startswith("# Measured reproduction report")
        for section in sections:
            assert f"## {section.experiment}" in text

    def test_gnuplot_artifacts_dropped(self, outcome):
        out, __ = outcome
        assert (out / "graphs" / "graphs" / "scaling.gnu").exists() or \
            list((out / "graphs").rglob("scaling.gnu"))

    def test_bodies_nonempty(self, outcome):
        __, sections = outcome
        assert all(len(s.body) > 40 for s in sections)


    def test_bodies_pinned(self, outcome):
        """Every deterministic section is byte-identical to the recorded
        report.  E15 prints a temporary path and E18 host wall-clock
        medians, so both are left out."""
        __, sections = outcome
        body = "\n".join(s.body for s in sections
                         if s.experiment not in {"E15", "E18"})
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "e10eb81d62b3dbbe4b0b1c729c4db7ffe0c22fb6a24fc46fbde1f5da249251be")


class TestMain:
    def test_cli(self, tmp_path, capsys):
        assert main([str(tmp_path / "r"), "-Dsf=0.003"]) == 0
        out = capsys.readouterr().out
        assert "E20" in out and "REPORT.md" in out

    def test_usage_error(self, capsys):
        assert main(["a", "b"]) == 2
        assert "usage" in capsys.readouterr().err

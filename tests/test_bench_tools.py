"""Tests for the bench tools in ``benchmarks/perf`` on synthetic reports.

No model runs here: ``compare_bench`` (the trend gate) and the ``--check``
gate evaluator of ``run_bench`` are pure functions of report dicts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "perf"))

import compare_bench  # noqa: E402
import run_bench  # noqa: E402


def full(**sections) -> dict:
    return {"scale": "full", **{name: {"speedup": s} for name, s in sections.items()}}


class TestCompareBench:
    def test_fails_a_median_more_than_15_percent_below_committed(self):
        _, failures = compare_bench.compare(full(a=2.0, b=2.0), full(a=1.69, b=1.71), 0.15)
        assert len(failures) == 1 and failures[0].startswith("a:")

    def test_retired_and_new_sections_are_not_gated(self):
        lines, failures = compare_bench.compare(full(old=5.0), full(new=0.1), 0.15)
        assert failures == []
        assert any("retired (not gated)" in line for line in lines)
        assert any("new (not gated)" in line for line in lines)

    def test_prints_the_fresh_spread(self):
        fresh = full(a=2.0)
        fresh["a"]["speedup_iqr"] = [1.9, 2.1]
        lines, _ = compare_bench.compare(full(a=2.0), fresh, 0.15)
        assert "1.90-2.10" in lines[-1]

    def test_scale_mismatch_exits_2(self, tmp_path):
        committed, fresh = tmp_path / "committed.json", tmp_path / "fresh.json"
        committed.write_text(json.dumps(full(a=2.0)))
        fresh.write_text(json.dumps({**full(a=2.0), "scale": "smoke"}))
        assert compare_bench.main([str(committed), str(fresh)]) == 2
        assert compare_bench.main([str(committed), str(committed)]) == 0


def section(name: str, *gates) -> run_bench.Section:
    return run_bench.Section(name, run=lambda ctx: {}, gates=gates)


class TestGateEvaluator:
    SECTIONS = (
        section("fast", ("speedup", ">=", 1.5, "lost its win")),
        section(
            "paged",
            ("tokens_match", "==", True, "changed the tokens"),
            ("peak.paged", "<", "peak.dense", "holds more bytes"),
        ),
    )

    def test_failing_row_prints_check_failed_and_returns_1(self, capsys):
        results = {
            "fast": {"speedup": 1.4},
            "paged": {"tokens_match": True, "peak": {"paged": 3, "dense": 2}},
        }
        assert run_bench.check(results, self.SECTIONS) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("CHECK FAILED: ") for line in err)
        assert "fast: lost its win" in err[0]
        assert "paged: holds more bytes" in err[1]

    def test_passing_rows_return_0(self, capsys):
        results = {
            "fast": {"speedup": 1.5},
            "paged": {"tokens_match": True, "peak": {"paged": 1, "dense": 2}},
        }
        assert run_bench.check(results, self.SECTIONS) == 0
        assert capsys.readouterr().err == ""

    def test_sections_that_did_not_run_are_skipped(self):
        assert run_bench.check({"fast": {"speedup": 2.0}}, self.SECTIONS) == 0
        assert run_bench.check({}, self.SECTIONS) == 0


class TestSummaries:
    def test_speedup_is_a_ratio_of_medians(self):
        samples = run_bench.measure(
            {"slow": iter([4.0, 100.0, 6.0]).__next__, "fast": iter([2.0, 2.0, 1.0]).__next__},
            repeats=3,
        )
        out = run_bench.report(samples, "slow", "fast")
        assert out["speedup"] == pytest.approx(6.0 / 2.0)
        assert out["arms"]["slow"]["seconds"] == {"median": 6.0, "iqr": 48.0}
        assert out["repeats"] == 3
        # Per-repeat ratios are 2, 50 and 6.
        assert out["speedup_iqr"] == pytest.approx([4.0, 28.0])

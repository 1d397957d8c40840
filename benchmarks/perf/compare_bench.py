"""Bench-trend regression gate: diff a fresh report against the committed one.

The static floors in ``run_bench.py --check`` only catch a path falling
below its absolute target; a change that erodes a 4.5x speedup to 3.8x
sails straight through them.  This tool compares the freshly measured
``BENCH_inference.json`` against the report committed at the repository
root and fails when any section's ``speedup`` drops more than
``--max-drop`` (default 15%) below the committed value — so the perf
trajectory is gated *relative to where it was*, not just above a floor.
``run_bench.py`` reports each ``speedup`` as a ratio of the arms' medians,
so this gates medians; the table also prints each section's spread
(``speedup_iqr``, the quartiles of the per-repeat ratios).

Usage::

    python benchmarks/perf/run_bench.py --output fresh.json
    python benchmarks/perf/compare_bench.py BENCH_inference.json fresh.json

Sections are matched by name; any dict section carrying a numeric
``speedup`` in *both* reports participates.  Sections present in only one
report (a freshly added or retired benchmark) are reported but never fail
the gate.  Reports taken at different scales (``smoke`` vs ``full``) are
not comparable — speedups grow with sequence length — so a scale mismatch
is an error unless ``--allow-scale-mismatch`` downgrades it to a warning
that skips the comparison.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_speedups(report: dict) -> dict[str, float]:
    """Map of section name -> speedup for every section that has one."""
    return {
        name: float(section["speedup"])
        for name, section in report.items()
        if isinstance(section, dict)
        and isinstance(section.get("speedup"), (int, float))
    }


def spread(report: dict, name: str) -> str:
    """A section's ``speedup_iqr`` as ``q1-q3``, or ``-`` when not reported."""
    iqr = report.get(name, {}).get("speedup_iqr")
    return f"{iqr[0]:.2f}-{iqr[1]:.2f}" if iqr else "-"


def compare(baseline: dict, fresh: dict, max_drop: float) -> tuple[list[str], list[str]]:
    """Returns ``(lines, failures)``: a report table and the failed sections."""
    base_speedups = load_speedups(baseline)
    fresh_speedups = load_speedups(fresh)
    lines: list[str] = []
    failures: list[str] = []
    header = (
        f"{'section':<24} {'committed':>10} {'fresh':>10} {'fresh IQR':>11} "
        f"{'ratio':>8}  status"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name in sorted(set(base_speedups) | set(fresh_speedups)):
        if name not in fresh_speedups:
            lines.append(
                f"{name:<24} {base_speedups[name]:>10.2f} {'-':>10} {'-':>11} {'-':>8}  "
                "retired (not gated)"
            )
            continue
        if name not in base_speedups:
            lines.append(
                f"{name:<24} {'-':>10} {fresh_speedups[name]:>10.2f} "
                f"{spread(fresh, name):>11} {'-':>8}  new (not gated)"
            )
            continue
        committed = base_speedups[name]
        measured = fresh_speedups[name]
        ratio = measured / committed if committed else float("inf")
        ok = measured >= committed * (1.0 - max_drop)
        status = "ok" if ok else f"REGRESSED >{max_drop:.0%}"
        lines.append(
            f"{name:<24} {committed:>10.2f} {measured:>10.2f} {spread(fresh, name):>11} "
            f"{ratio:>7.2f}x  {status}"
        )
        if not ok:
            failures.append(
                f"{name}: speedup {measured:.2f} is more than {max_drop:.0%} below "
                f"the committed {committed:.2f}"
            )
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path, help="committed BENCH_inference.json")
    parser.add_argument("fresh", type=Path, help="freshly measured report")
    parser.add_argument(
        "--max-drop",
        type=float,
        default=0.15,
        help="fail when a section's speedup drops more than this fraction "
        "below the committed value (default 0.15)",
    )
    parser.add_argument(
        "--allow-scale-mismatch",
        action="store_true",
        help="warn and skip (exit 0) instead of failing when the reports "
        "were taken at different scales",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())

    base_scale = baseline.get("scale", "unknown")
    fresh_scale = fresh.get("scale", "unknown")
    if base_scale != fresh_scale:
        message = (
            f"scale mismatch: committed report is '{base_scale}', fresh is "
            f"'{fresh_scale}' — speedups at different scales are not comparable"
        )
        if args.allow_scale_mismatch:
            print(f"WARNING: {message}; skipping trend comparison")
            return 0
        print(f"ERROR: {message} (use --allow-scale-mismatch to skip)", file=sys.stderr)
        return 2

    lines, failures = compare(baseline, fresh, args.max_drop)
    print("\n".join(lines))
    for failure in failures:
        print(f"TREND CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

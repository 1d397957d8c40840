"""Tests for :mod:`repro.analysis` — lint rules, CLI/baseline workflow,
and the runtime sanitizers.

The lint half runs the real rules over the seeded-violation fixtures in
``tests/analysis_fixtures/`` (each ``*_bad.py`` must trip exactly its
rule, each ``*_clean.py`` twin must pass) and self-checks the repo's own
``src/`` tree against the committed baseline.  The sanitizer half builds
private watchers/allocators, so it runs identically with or without
``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.baseline import Baseline
from repro.analysis.cli import main
from repro.analysis.lint import SourceFile, run_paths
from repro.analysis.rules import all_rules
from repro.analysis.sanitize import (
    BlockAuditError,
    LockOrderWatcher,
    block_sanitizer_class,
    enabled,
    live_sanitizers,
    maybe_watch_lock,
)

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).parents[1]
RULE_IDS = ["RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006"]


# ---------------------------------------------------------------------- #
# rules over fixtures
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_trips_exactly_its_rule(rule_id):
    path = FIXTURES / f"{rule_id.lower()}_bad.py"
    findings, errors = run_paths([path], all_rules())
    assert not errors
    assert findings, f"{path} should trip {rule_id}"
    assert {f.rule for f in findings} == {rule_id}


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_clean_twin_passes(rule_id):
    path = FIXTURES / f"{rule_id.lower()}_clean.py"
    findings, errors = run_paths([path], all_rules())
    assert not errors
    assert findings == [], [f.message for f in findings]


def test_config_routing_flags_kwargs_catch_all():
    findings, _ = run_paths([FIXTURES / "rpr004_bad.py"], all_rules())
    messages = [f.message for f in findings]
    assert any("'shiny_new_knob'" in m for m in messages)
    assert any("**options catch-all" in m for m in messages)


def run_rule(src: SourceFile, rule_id: str) -> list:
    return [f for rule in all_rules() if rule.id == rule_id for f in rule.check(src)]


def test_blocking_under_lock_flags_each_call():
    findings, _ = run_paths([FIXTURES / "rpr006_bad.py"], all_rules())
    calls = sorted(f.key.split(":", 1)[1].split("(")[0] for f in findings)
    assert calls == [
        "future.result",
        "self._done.wait",
        "self.loop.call_soon_threadsafe",
        "self.sock.sendall",
        "time.sleep",
        "worker.join",
    ]
    # Each method names the lock it holds, including the Condition alias
    # and the caller-holds-lock helper.
    assert all("while holding self._lock" in f.message for f in findings)


_MODULE_LOCK_SOURCE = """
import threading
import time
from time import sleep

_LOCK = threading.Lock()
# guarded-by: _LOCK
_REGISTRY = {{}}


def touch(loop, cb, fut, conn, sock, buf, worker, event, parts, sep, key):
    with _LOCK:
        _REGISTRY[key] = {call}
    return {call}
"""


@pytest.mark.parametrize(
    "call, flagged",
    [
        ("loop.call_soon_threadsafe(cb)", True),
        ("time.sleep(0.1)", True),
        ("sleep(0.1)", True),
        ("fut.result(timeout=1)", True),
        ("conn.send(key)", True),
        ("conn.recv()", True),
        ("sock.recv_into(buf)", True),
        ("worker.join()", True),
        ("worker.join(1.0)", True),
        ("worker.join(timeout=2)", True),
        ("event.wait()", True),
        ("', '.join(parts)", False),
        ("sep.join(parts)", False),
        ("_REGISTRY.get(key)", False),
        ("len(parts)", False),
    ],
)
def test_blocking_under_module_lock(call, flagged):
    """Under a module-global guard lock each blocking call is flagged once
    (the same call after the with-block is not); str.join never is."""
    src = SourceFile("guarded.py", _MODULE_LOCK_SOURCE.format(call=call))
    findings = run_rule(src, "RPR006")
    assert len(findings) == (1 if flagged else 0), [f.message for f in findings]
    if flagged:
        assert findings[0].line == 13 and "while holding _LOCK" in findings[0].message


def test_blocking_under_unguarding_lock_is_not_flagged():
    """A lock that guards no annotated state is outside RPR006's scope."""
    src = SourceFile(
        "pace.py",
        "import threading, time\n_PACE = threading.Lock()\n\n"
        "def pace():\n    with _PACE:\n        time.sleep(0.01)\n",
    )
    assert run_rule(src, "RPR006") == []


def test_fingerprint_is_line_number_free():
    text = (FIXTURES / "rpr001_bad.py").read_text(encoding="utf-8")
    original, _ = run_paths([FIXTURES / "rpr001_bad.py"], all_rules())
    shifted = SourceFile("tests/analysis_fixtures/rpr001_bad.py", "\n\n\n" + text)
    moved = [
        f
        for rule in all_rules()
        for f in rule.check(shifted)
        if f.rule == "RPR001"
    ]
    assert {f.fingerprint for f in original} == {f.fingerprint for f in moved}
    assert {f.line for f in original} != {f.line for f in moved}


def test_rule_catalogue_complete():
    assert [rule.id for rule in all_rules()] == RULE_IDS


# ---------------------------------------------------------------------- #
# CLI and baseline workflow
# ---------------------------------------------------------------------- #
def test_cli_exit_codes(capsys):
    assert main([str(FIXTURES / "rpr001_bad.py"), "--no-baseline"]) == 1
    assert main([str(FIXTURES / "rpr001_clean.py"), "--no-baseline"]) == 0
    capsys.readouterr()


def test_cli_json_report(capsys):
    code = main([str(FIXTURES / "rpr002_bad.py"), "--no-baseline", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["ok"] is False
    assert payload["findings"][0]["rule"] == "RPR002"
    assert payload["findings"][0]["fingerprint"]


def test_cli_rule_selection(capsys):
    code = main(
        [str(FIXTURES / "rpr001_bad.py"), "--no-baseline", "--rules", "RPR002"]
    )
    assert code == 0  # RPR001 violation invisible when only RPR002 runs
    capsys.readouterr()


def test_cli_check_refuses_write_baseline():
    with pytest.raises(SystemExit) as excinfo:
        main(["--check", "--write-baseline"])
    assert excinfo.value.code == 2


def test_baseline_roundtrip(tmp_path, capsys):
    bad = str(FIXTURES / "rpr003_bad.py")
    baseline = tmp_path / "baseline.json"
    assert main([bad, "--write-baseline", "--baseline", str(baseline)]) == 0
    assert main([bad, "--baseline", str(baseline)]) == 0
    # Justifications survive a re-absorb.
    loaded = Baseline.load(baseline)
    entry = next(iter(loaded.entries.values()))
    entry["justification"] = "kept on purpose"
    loaded.save(baseline)
    assert main([bad, "--write-baseline", "--baseline", str(baseline)]) == 0
    reloaded = Baseline.load(baseline)
    assert [e["justification"] for e in reloaded.entries.values()] == [
        "kept on purpose"
    ]
    capsys.readouterr()


def test_stale_baseline_warns_without_failing(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {
                        "fingerprint": "feedfeedfeed",
                        "rule": "RPR001",
                        "path": "gone.py",
                        "justification": "the violation was fixed",
                    }
                ],
            }
        ),
        encoding="utf-8",
    )
    code = main(
        [str(FIXTURES / "rpr001_clean.py"), "--baseline", str(baseline)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "stale baseline entry feedfeedfeed" in out


def test_src_tree_clean_under_committed_baseline(capsys):
    code = main(
        [
            str(REPO_ROOT / "src"),
            "--check",
            "--baseline",
            str(REPO_ROOT / "analysis-baseline.json"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out


def test_syntax_error_reported_as_error(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def nope(:\n", encoding="utf-8")
    assert main([str(broken), "--no-baseline"]) == 1
    assert "error:" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
# LockOrderWatcher
# ---------------------------------------------------------------------- #
def test_lock_order_cycle_detected():
    watcher = LockOrderWatcher()
    a = watcher.wrap("A", threading.Lock())
    b = watcher.wrap("B", threading.Lock())
    with a:
        with b:
            pass
    with b:
        with a:
            pass
    cycle = watcher.find_cycle()
    assert cycle is not None and set(cycle) >= {"A", "B"}
    with pytest.raises(AssertionError, match="lock-order cycle"):
        watcher.assert_acyclic()
    watcher.reset()
    watcher.assert_acyclic()


def test_consistent_lock_order_is_acyclic():
    watcher = LockOrderWatcher()
    a = watcher.wrap("A", threading.Lock())
    b = watcher.wrap("B", threading.Lock())
    c = watcher.wrap("C", threading.Lock())
    for _ in range(3):
        with a, b, c:
            pass
    watcher.assert_acyclic()
    assert set(watcher.edges) == {("A", "B"), ("A", "C"), ("B", "C")}


def test_reentrant_and_same_role_locks_make_no_edges():
    watcher = LockOrderWatcher()
    r = watcher.wrap("R", threading.RLock())
    sibling = watcher.wrap("R", threading.Lock())
    with r:
        with r:
            with sibling:
                pass
    assert watcher.edges == {}
    watcher.assert_acyclic()


def test_condition_on_watched_lock_wait_notify():
    watcher = LockOrderWatcher()
    cond = threading.Condition(watcher.wrap("cv", threading.Lock()))
    ready: list[int] = []

    def waiter() -> None:
        with cond:
            while not ready:
                cond.wait(timeout=5.0)

    thread = threading.Thread(target=waiter)
    thread.start()
    with cond:
        ready.append(1)
        cond.notify_all()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    # The main thread's held-lock stack unwound cleanly through wait().
    assert watcher._stack() == []


def test_maybe_watch_lock_gating(monkeypatch):
    lock = threading.Lock()
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not enabled()
    assert maybe_watch_lock("x", lock) is lock
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert enabled()
    wrapped = maybe_watch_lock("x", lock)
    assert wrapped is not lock and wrapped.role == "x"
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not enabled()


# ---------------------------------------------------------------------- #
# BlockSanitizer
# ---------------------------------------------------------------------- #
@pytest.fixture
def sanitizer():
    cls = block_sanitizer_class()
    return cls(num_heads=1, head_dim=2, block_size=4, initial_blocks=2)


def test_sanitizer_clean_lifecycle(sanitizer):
    block = sanitizer.alloc()
    sanitizer.incref([block])
    sanitizer.decref([block])
    sanitizer.decref([block])
    assert sanitizer.blocks_in_use == 0
    assert sanitizer.leak_report() is None
    assert any(s is sanitizer for s in live_sanitizers())


def test_sanitizer_catches_double_free(sanitizer):
    block = sanitizer.alloc()
    sanitizer.decref([block])
    with pytest.raises(BlockAuditError, match="double-free"):
        sanitizer.decref([block])
    assert sanitizer.blocks_in_use == 0


def test_sanitizer_catches_use_after_free(sanitizer):
    block = sanitizer.alloc()
    k = np.zeros((1, 2, 2), dtype=np.float32)
    sanitizer.write(block, 0, k, k)
    sanitizer.decref([block])
    with pytest.raises(BlockAuditError, match="use-after-free"):
        sanitizer.write(block, 0, k, k)
    assert sanitizer.blocks_in_use == 0


def test_sanitizer_leak_report_names_call_site(sanitizer):
    block = sanitizer.alloc()
    report = sanitizer.leak_report()
    assert report is not None
    assert "1 leaked block" in report
    assert "alloc at" in report and "test_analysis.py" in report
    assert sanitizer.leak_report(expected_in_use=1) is None
    sanitizer.decref([block])
    assert sanitizer.leak_report() is None


def test_sanitizer_import_export_roundtrip(sanitizer):
    k = np.arange(12, dtype=np.float32).reshape(1, 6, 2)
    v = k + 100.0
    table = sanitizer.import_table(k, v)
    out_k, out_v, _, _ = sanitizer.export_table(table, 6)
    np.testing.assert_array_equal(out_k, k)
    np.testing.assert_array_equal(out_v, v)
    sanitizer.decref(table)
    assert sanitizer.blocks_in_use == 0
    assert sanitizer.leak_report() is None


def test_sanitizer_is_a_block_allocator(sanitizer):
    from repro.nn.paged import BlockAllocator

    assert isinstance(sanitizer, BlockAllocator)

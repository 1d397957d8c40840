"""Project-specific static analysis and runtime sanitizers.

Two halves, one goal — turning the serving stack's hard-won invariants
into machine-checked contracts:

* :mod:`repro.analysis.lint` / :mod:`repro.analysis.rules` — stdlib-``ast``
  lints (RPR001–RPR006) run via ``python -m repro.analysis``; see
  ``docs/analysis.md`` for the rule catalogue and annotation conventions.
* :mod:`repro.analysis.sanitize` — opt-in runtime watchers
  (``REPRO_SANITIZE=1``): lock-order cycle detection and block-allocator
  ref-count auditing.

This package deliberately avoids importing the numpy-backed model stack
at module level so the CLI runs in a bare interpreter.
"""

from repro.analysis.baseline import Baseline
from repro.analysis.lint import Finding, run_paths
from repro.analysis.rules import all_rules
from repro.analysis.sanitize import (
    BlockAuditError,
    LockOrderWatcher,
    block_allocator_class,
    block_sanitizer_class,
    global_watcher,
    live_sanitizers,
    maybe_watch_lock,
)

__all__ = [
    "Baseline",
    "BlockAuditError",
    "Finding",
    "LockOrderWatcher",
    "all_rules",
    "block_allocator_class",
    "block_sanitizer_class",
    "global_watcher",
    "live_sanitizers",
    "maybe_watch_lock",
    "run_paths",
]

"""Runtime concurrency/resource sanitizers (``REPRO_SANITIZE=1``).

Two complementary watchers for the serving stack's concurrency surface:

* :class:`LockOrderWatcher` — wraps the engine/pool/allocator locks and
  records the lock-acquisition *graph* (which lock roles are acquired
  while which others are held).  A cycle in that graph is a latent
  deadlock even if the schedules CI happens to see never interleave badly
  — the watcher turns "it deadlocked once on a loaded machine" into a
  deterministic test failure with both acquisition stacks.
* :class:`BlockSanitizer` (built by :func:`block_sanitizer_class`) — a
  drop-in :class:`~repro.nn.paged.BlockAllocator` subclass that shadows
  every block's ref-count and tags every acquire/release with a call-site
  digest.  Double-frees and use-after-free raise *at the offending call*
  naming both sites; leaks are reported at teardown by the test harness
  (``tests/conftest.py`` diffs ``blocks_in_use`` around every test).

Everything is **off by default**: :func:`enabled` reads the
``REPRO_SANITIZE`` environment variable, and every hook
(:func:`maybe_watch_lock`, :func:`block_allocator_class`) degrades to the
unwrapped object when disabled, so hot paths pay nothing in production or
benchmarks.  This module must stay importable without numpy — the
allocator subclass is built lazily so ``python -m repro.analysis`` works
in a bare environment.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
import weakref

__all__ = [
    "BlockAuditError",
    "LockOrderWatcher",
    "block_allocator_class",
    "block_sanitizer_class",
    "enabled",
    "global_watcher",
    "live_sanitizers",
    "maybe_watch_lock",
]


def enabled() -> bool:
    """Whether runtime sanitizers are switched on (``REPRO_SANITIZE``)."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


def _call_site(skip: int = 2, depth: int = 3) -> str:
    """Compact call-site digest: ``[ab12cd34] file:line in func; ...``.

    Walks ``sys._getframe`` directly (no linecache I/O — this runs on
    every block acquire/release under the sanitizer) and skips frames
    inside this module and the allocator itself so the digest names the
    *caller's* code.
    """
    frames: list[str] = []
    try:
        frame = sys._getframe(skip)
    except ValueError:  # pragma: no cover - interpreter-dependent
        return "[unknown]"
    while frame is not None and len(frames) < depth:
        filename = frame.f_code.co_filename
        base = os.path.basename(filename)
        if base not in ("sanitize.py", "paged.py"):
            frames.append(f"{base}:{frame.f_lineno} in {frame.f_code.co_name}")
        frame = frame.f_back
    site = "; ".join(frames) or "[toplevel]"
    digest = hashlib.sha1(site.encode("utf-8")).hexdigest()[:8]
    return f"[{digest}] {site}"


# ---------------------------------------------------------------------- #
# lock-order watching
# ---------------------------------------------------------------------- #
class _WatchedLock:
    """Transparent lock proxy reporting acquire/release to its watcher.

    Supports everything the stack needs of a lock: ``with``, explicit
    ``acquire``/``release``, and being the backing lock of a
    ``threading.Condition`` (``_is_owned`` is provided; the save/restore
    hooks are deliberately *not* forwarded so the Condition's default
    implementations route through this proxy's bookkeeping).
    """

    __slots__ = ("_watcher", "role", "_inner")

    def __init__(self, watcher: "LockOrderWatcher", role: str, inner) -> None:
        self._watcher = watcher
        self.role = role
        self._inner = inner

    def acquire(self, blocking: bool = True, timeout: float = -1):
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._watcher._note_acquire(self)
        return got

    def release(self) -> None:
        self._watcher._note_release(self)
        self._inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def _is_owned(self) -> bool:
        inner = self._inner
        if hasattr(inner, "_is_owned"):
            return inner._is_owned()
        # Plain-Lock fallback, same heuristic the stdlib Condition uses.
        if inner.acquire(False):
            inner.release()
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WatchedLock role={self.role!r} inner={self._inner!r}>"


class LockOrderWatcher:
    """Records the acquisition graph over lock *roles* and finds cycles.

    Locks are registered under a role name ("pool", "allocator", "aio",
    ...).  When a thread acquires role B while holding role A, the edge
    A→B is recorded with the first acquisition stack seen.  A consistent
    stack can only produce a DAG; a cycle means two code paths take the
    same pair of locks in opposite orders — a deadlock waiting for the
    right interleaving.  Same-role edges are not recorded (re-entrant
    RLocks and sibling instances of one subsystem would self-loop), which
    keeps the graph about cross-subsystem ordering.
    """

    def __init__(self) -> None:
        self._tls = threading.local()
        self._mutex = threading.Lock()
        #: (held_role, acquired_role) -> sample call-site digest.
        self.edges: dict[tuple[str, str], str] = {}

    def wrap(self, role: str, lock) -> _WatchedLock:
        """Proxy ``lock`` so acquisitions are reported under ``role``."""
        return _WatchedLock(self, role, lock)

    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def _note_acquire(self, lock: _WatchedLock) -> None:
        stack = self._stack()
        if not any(entry is lock for entry in stack):
            held_roles = {entry.role for entry in stack} - {lock.role}
            if held_roles:
                site = _call_site(skip=3)
                with self._mutex:
                    for held in held_roles:
                        self.edges.setdefault((held, lock.role), site)
        stack.append(lock)

    def _note_release(self, lock: _WatchedLock) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is lock:
                del stack[index]
                return

    # ------------------------------------------------------------------ #
    def find_cycle(self) -> list[str] | None:
        """A role cycle in the acquisition graph, or ``None`` if acyclic."""
        with self._mutex:
            graph: dict[str, set[str]] = {}
            for a, b in self.edges:
                graph.setdefault(a, set()).add(b)
        WHITE, GREY, BLACK = 0, 1, 2
        color = dict.fromkeys(graph, WHITE)
        path: list[str] = []

        def dfs(node: str) -> list[str] | None:
            color[node] = GREY
            path.append(node)
            for succ in graph.get(node, ()):
                if color.get(succ, WHITE) == GREY:
                    return path[path.index(succ) :] + [succ]
                if color.get(succ, WHITE) == WHITE:
                    color[succ] = WHITE
                    cycle = dfs(succ)
                    if cycle:
                        return cycle
            color[node] = BLACK
            path.pop()
            return None

        for node in list(graph):
            if color.get(node, WHITE) == WHITE:
                cycle = dfs(node)
                if cycle:
                    return cycle
        return None

    def assert_acyclic(self) -> None:
        """Raise ``AssertionError`` describing any lock-order cycle."""
        cycle = self.find_cycle()
        if cycle is None:
            return
        with self._mutex:
            details = [
                f"  {a} -> {b}: first seen at {site}"
                for (a, b), site in sorted(self.edges.items())
                if a in cycle and b in cycle
            ]
        raise AssertionError(
            "lock-order cycle (latent deadlock): "
            + " -> ".join(cycle)
            + "\n"
            + "\n".join(details)
        )

    def reset(self) -> None:
        """Forget every recorded edge (held-lock stacks are per-thread and
        self-correct; tests call this between scenarios)."""
        with self._mutex:
            self.edges.clear()


_GLOBAL_WATCHER = LockOrderWatcher()


def global_watcher() -> LockOrderWatcher:
    """The process-wide watcher every ``maybe_watch_lock`` reports to."""
    return _GLOBAL_WATCHER


def maybe_watch_lock(role: str, lock):
    """Wrap ``lock`` for lock-order watching when sanitizers are enabled.

    The constructor-side hook: ``self._lock = maybe_watch_lock("pool",
    threading.RLock())``.  Disabled (the default), this returns ``lock``
    unchanged — zero overhead on hot paths.
    """
    if not enabled():
        return lock
    return _GLOBAL_WATCHER.wrap(role, lock)


# ---------------------------------------------------------------------- #
# block-allocator auditing
# ---------------------------------------------------------------------- #
class BlockAuditError(RuntimeError):
    """A block lifecycle violation (double-free or use-after-free)."""


_LIVE_SANITIZERS_LOCK = threading.Lock()
_LIVE_SANITIZERS: "weakref.WeakSet" = weakref.WeakSet()  # guarded-by: _LIVE_SANITIZERS_LOCK
_SANITIZER_CLS = None


def live_sanitizers() -> list:
    """Every :class:`BlockSanitizer` instance still alive in the process."""
    with _LIVE_SANITIZERS_LOCK:
        return list(_LIVE_SANITIZERS)


def block_sanitizer_class():
    """The :class:`BlockSanitizer` class (built lazily — needs numpy)."""
    global _SANITIZER_CLS
    if _SANITIZER_CLS is not None:
        return _SANITIZER_CLS

    from repro.nn.paged import BlockAllocator

    class BlockSanitizer(BlockAllocator):
        """Ref-count auditing :class:`BlockAllocator`.

        Shadows the allocator's ref-counts in a ledger keyed by block id
        and tags every acquire (``alloc``/``incref``) and release
        (``decref``) with a call-site digest.  Violations raise
        :class:`BlockAuditError` at the offending call, naming the
        conflicting sites; blocks still in the ledger at teardown are
        leaks, reported through :meth:`leak_report`.
        """

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self._ledger: dict[int, int] = {}
            self._acquire_sites: dict[int, list[str]] = {}
            self._free_sites: dict[int, str] = {}
            with _LIVE_SANITIZERS_LOCK:
                _LIVE_SANITIZERS.add(self)

        # -------------------------------------------------------------- #
        def alloc(self) -> int:
            with self._lock:
                block = super().alloc()
                self._ledger[block] = 1
                self._acquire_sites[block] = [f"alloc at {_call_site()}"]
                self._free_sites.pop(block, None)
                return block

        def incref(self, blocks) -> None:
            blocks = list(blocks)
            with self._lock:
                site = f"incref at {_call_site()}"
                self._check_live(blocks, "incref")
                super().incref(blocks)
                for block in blocks:
                    self._ledger[block] += 1
                    self._acquire_sites[block].append(site)

        def decref(self, blocks) -> None:
            blocks = list(blocks)
            with self._lock:
                site = f"decref at {_call_site()}"
                for block in blocks:
                    count = self._ledger.get(block, 0)
                    if count <= 0:
                        raise BlockAuditError(
                            f"double-free of block {block}: released {site}, "
                            f"but it was already freed "
                            f"{self._free_sites.get(block, '[never acquired]')}"
                            f"; acquire history: "
                            f"{self._acquire_sites.get(block, [])}"
                        )
                super().decref(blocks)
                for block in blocks:
                    self._ledger[block] -= 1
                    if self._ledger[block] == 0:
                        del self._ledger[block]
                        self._acquire_sites.pop(block, None)
                        self._free_sites[block] = site

        # -------------------------------------------------------------- #
        def _check_live(self, blocks, op: str) -> None:
            for block in blocks:
                block = int(block)
                if self._ledger.get(block, 0) <= 0:
                    raise BlockAuditError(
                        f"use-after-free: {op} touched block {block} at "
                        f"{_call_site(skip=3)}, but it was freed "
                        f"{self._free_sites.get(block, '[never acquired]')}"
                    )

        def ensure_exclusive(self, block: int) -> int:
            with self._lock:
                self._check_live([block], "ensure_exclusive")
                fresh = super().ensure_exclusive(block)
                return fresh

        def write(self, block, offset, k, v):
            with self._lock:
                self._check_live([block], "write")
                super().write(block, offset, k, v)

        def write_scatter(self, blocks, offsets, k, v):
            with self._lock:
                self._check_live(set(int(b) for b in blocks), "write_scatter")
                super().write_scatter(blocks, offsets, k, v)

        def gather_row(self, table, width, out_k, out_v, start):
            with self._lock:
                self._check_live(table, "gather_row")
                return super().gather_row(table, width, out_k, out_v, start)

        def gather_batch(self, tables, widths, out_k, out_v, starts):
            with self._lock:
                flat = set()
                for table in tables:
                    flat.update(int(b) for b in table)
                self._check_live(flat, "gather_batch")
                return super().gather_batch(tables, widths, out_k, out_v, starts)

        # -------------------------------------------------------------- #
        def in_use_blocks(self) -> dict[int, list[str]]:
            """Blocks currently referenced, with their acquire history."""
            with self._lock:
                return {b: list(s) for b, s in self._acquire_sites.items()}

        def leak_report(self, expected_in_use: int = 0) -> str | None:
            """Human-readable leak description, or ``None`` when clean.

            ``expected_in_use`` lets a harness tolerate blocks that were
            already legitimately referenced before the scope under test
            (e.g. pooled prefixes owned by a session fixture).
            """
            with self._lock:
                leaked = self.blocks_in_use - expected_in_use
                if leaked <= 0:
                    return None
                lines = [
                    f"{leaked} leaked block(s) "
                    f"({self.blocks_in_use} in use, {expected_in_use} expected):"
                ]
                for block, sites in sorted(self._acquire_sites.items()):
                    lines.append(f"  block {block} (refs {self._ledger[block]}):")
                    lines.extend(f"    {site}" for site in sites[-4:])
                return "\n".join(lines)

    _SANITIZER_CLS = BlockSanitizer
    return BlockSanitizer


def block_allocator_class():
    """The class construction sites should instantiate for block pools:
    the auditing subclass under ``REPRO_SANITIZE=1``, the plain
    :class:`~repro.nn.paged.BlockAllocator` otherwise."""
    if enabled():
        return block_sanitizer_class()
    from repro.nn.paged import BlockAllocator

    return BlockAllocator

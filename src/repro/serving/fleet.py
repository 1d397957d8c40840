"""Data-parallel replica fleet with prefix-affinity routing.

Scales the serving stack *out* instead of up: a :class:`ReplicaFleet` owns N
engine workers, each a separate OS process with a private
:class:`~repro.models.decoder.DecoderLM`, a private
:class:`~repro.serving.pool.PrefixCachePool` and a private
:class:`~repro.serving.engine.ContinuousBatchingEngine`.  The router in the
parent process assigns each request to a replica and relays results back
through a pipe; workers step their engines autonomously whenever they hold
work, so the fleet behaves like one engine with N times the KV-cache
capacity.

Routing is **prefix-affine**: the first ``affinity_tokens`` prompt tokens are
hashed with the same stable digest the prefix pool keys on
(:func:`~repro.serving.pool.stable_prefix_key`), and every prompt family is
pinned to the replica that first served it — exactly the replica whose pool
already holds that family's prefix KV blocks.  A saturated replica spills to
the least-loaded one (load-aware escape hatch), and warm prefixes can follow
via :meth:`ReplicaFleet.migrate_prefix`, which moves a serialized pool entry
between workers over the same byte format the pool's export/import uses.

Determinism: workers rebuild their model from a picklable zero-arg builder
(see :meth:`~repro.models.registry.RegistrySpec.decoder_builder`) whose
per-model seeds are stable digests, so all replicas hold bit-identical
weights and greedy fleet outputs are token-identical to a single in-process
engine built from the same recipe — whichever replica a request lands on.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Callable, Sequence

import numpy as np

from repro.serving.config import EngineConfig
from repro.serving.pool import stable_prefix_key

__all__ = ["FleetRequest", "FleetStats", "ReplicaFleet"]


# ---------------------------------------------------------------------- #
# Worker process
# ---------------------------------------------------------------------- #
def _worker_main(conn, builder, config, pool_kwargs: dict, seed: int) -> None:
    """Engine-worker loop: build the replica, then serve the pipe.

    Wire protocol (parent -> worker):
      ("submit", rid, prompt, max_new, temperature, stop_ids)
      ("export", prompt)         -> ("exported", bytes | None)
      ("install", blob)          -> ("installed", tokens) | ("install-error", msg)
      ("stats",)                 -> ("stats", dict)
      ("shutdown",)              -> worker exits

    Worker -> parent, unsolicited:
      ("ready",) | ("fatal", msg) once at startup;
      ("done", rid, result, meta) / ("error", rid, msg) per request.
    """
    # Imports happen in the child so a spawn-started worker pays them itself.
    from repro.serving.engine import ContinuousBatchingEngine
    from repro.serving.pool import PrefixCachePool

    try:
        model = builder()
        model.eval()
        pool = PrefixCachePool(model, **pool_kwargs)
        engine = ContinuousBatchingEngine(
            model, cache_pool=pool, rng=seed, config=config
        )
    except Exception as exc:  # noqa: BLE001 - startup failure is reported whole
        try:
            conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    conn.send(("ready",))

    pending: dict[int, int] = {}  # engine request_id -> fleet rid
    running = True
    idle_polls = 0
    while running:
        # Drain every queued message before stepping.  When idle, wake fast
        # for a short grace window — closed-loop clients usually submit the
        # next wave right after collecting the last — then back off so an
        # abandoned worker does not spin.
        if engine.has_work:
            timeout = 0.0
        else:
            timeout = 0.001 if idle_polls < 100 else 0.02
        while True:
            try:
                if not conn.poll(timeout):
                    break
                msg = conn.recv()
            except (EOFError, OSError):
                running = False
                break
            timeout = 0.0
            idle_polls = 0
            tag = msg[0]
            if tag == "shutdown":
                running = False
                break
            if tag == "submit":
                _, rid, prompt, max_new, temperature, stop_ids = msg
                try:
                    request = engine.submit(
                        np.asarray(prompt, dtype=np.int64),
                        max_new,
                        temperature=temperature,
                        stop_ids=stop_ids,
                    )
                    pending[request.request_id] = rid
                except Exception as exc:  # noqa: BLE001
                    conn.send(("error", rid, f"{type(exc).__name__}: {exc}"))
            elif tag == "export":
                blob = pool.export_entry(np.asarray(msg[1], dtype=np.int64))
                conn.send(("exported", blob))
            elif tag == "install":
                try:
                    conn.send(("installed", pool.import_entry(msg[1])))
                except Exception as exc:  # noqa: BLE001
                    conn.send(("install-error", f"{type(exc).__name__}: {exc}"))
            elif tag == "stats":
                conn.send(
                    (
                        "stats",
                        {
                            "steps": engine.stats.steps,
                            "finished": engine.stats.finished,
                            "admitted_rows": engine.stats.admitted_rows,
                            "peak_rows": engine.stats.peak_rows,
                            "pool": pool.stats.as_dict(),
                            "pool_entries": len(pool),
                            "inflight": len(pending),
                        },
                    )
                )
        if not running:
            break
        if not engine.has_work:
            idle_polls += 1
            continue
        idle_polls = 0
        try:
            finished = engine.step()
        except Exception as exc:  # noqa: BLE001 - fail the batch, keep serving
            message = f"{type(exc).__name__}: {exc}"
            for rid in pending.values():
                conn.send(("error", rid, message))
            pending.clear()
            engine.reset()
            continue
        for request in finished:
            rid = pending.pop(request.request_id, None)
            if rid is None:
                continue
            meta = {
                "finish_reason": request.finish_reason,
                "reused_tokens": request.reused_tokens,
                "decode_steps": request.decode_steps,
            }
            if request.error is not None:
                conn.send(("error", rid, request.error))
            else:
                conn.send(("done", rid, request.result, meta))
    conn.close()


# ---------------------------------------------------------------------- #
# Parent-side handles and counters
# ---------------------------------------------------------------------- #
@dataclass
class FleetRequest:
    """Parent-side handle for one request routed into the fleet."""

    request_id: int
    worker: int
    prompt_ids: np.ndarray
    done: bool = False
    result: np.ndarray | None = None
    finish_reason: str | None = None
    reused_tokens: int = 0
    decode_steps: int = 0
    error: str | None = None


@dataclass
class FleetStats:
    """Router-level counters (per-replica engine/pool counters live in the
    workers; aggregate them with :meth:`ReplicaFleet.worker_stats`).

    Thread contract: single-writer — only the thread calling the fleet's
    ``submit``/result-draining methods increments these.  Other threads
    (``/metrics``) read GIL-atomic integer loads, so values are always
    well-formed but a multi-field snapshot is not one consistent cut.
    """

    submitted: int = 0
    finished: int = 0
    #: Requests routed to the replica their prompt family is pinned to.
    affinity_pinned: int = 0
    #: First sighting of a prompt family (pin created, least-loaded replica).
    affinity_new: int = 0
    #: Pinned replica was saturated; request spilled to the least-loaded one.
    affinity_spills: int = 0
    #: Requests routed under ``routing="round_robin"``.
    round_robin: int = 0

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "finished": self.finished,
            "affinity_pinned": self.affinity_pinned,
            "affinity_new": self.affinity_new,
            "affinity_spills": self.affinity_spills,
            "round_robin": self.round_robin,
        }


# ---------------------------------------------------------------------- #
# Router
# ---------------------------------------------------------------------- #
class ReplicaFleet:
    """Route requests across N engine-worker processes by prompt-prefix
    affinity.

    ``builder`` is a zero-argument callable returning the replica's
    :class:`~repro.models.decoder.DecoderLM`.  It runs *inside* each worker
    process: under the ``fork`` start method any callable works (closures
    included), under ``spawn`` it must be picklable —
    :meth:`RegistrySpec.decoder_builder` is the canonical picklable choice,
    and its stable per-model seeds make every replica's weights
    bit-identical.

    ``routing="affinity"`` (default) pins each prompt family — keyed by the
    stable digest of its first ``affinity_tokens`` tokens — to the replica
    that first served it, so repeat traffic lands where the prefix KV is
    already pooled.  A pinned replica carrying ``spill_threshold`` or more
    in-flight requests spills to the least-loaded replica (the pin itself
    stays put; spills are temporary overflow, not re-homing).
    ``routing="round_robin"`` ignores prefixes entirely — the control most
    benchmarks compare affinity against.
    """

    def __init__(
        self,
        builder: Callable[[], object],
        num_workers: int,
        *,
        routing: str = "affinity",
        affinity_tokens: int = 32,
        spill_threshold: int | None = None,
        config: EngineConfig | None = None,
        pool_kwargs: dict | None = None,
        start_method: str | None = None,
        seed: int = 0,
        startup_timeout: float = 300.0,
    ) -> None:
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        if routing not in ("affinity", "round_robin"):
            raise ValueError(f"routing must be 'affinity' or 'round_robin', got {routing!r}")
        if affinity_tokens <= 0:
            raise ValueError(f"affinity_tokens must be positive, got {affinity_tokens}")
        pool_kwargs = dict(pool_kwargs or {})
        # One EngineConfig for every worker's engine.  It validates on
        # construction, in the parent, so a bad config fails before N
        # processes spawn; it crosses the process boundary by pickle.
        if config is None:
            config = EngineConfig()
        if spill_threshold is None:
            spill_threshold = 2 * config.max_batch_rows
        if spill_threshold <= 0:
            raise ValueError(f"spill_threshold must be positive, got {spill_threshold}")

        self.routing = routing
        self.affinity_tokens = affinity_tokens
        self.spill_threshold = spill_threshold
        self.stats = FleetStats()
        self._families: dict[int, int] = {}  # prefix digest -> pinned worker
        self._load = [0] * num_workers  # in-flight requests per worker
        self._inflight: dict[int, FleetRequest] = {}
        self._fresh_done: list[FleetRequest] = []
        self._responses: list[list[tuple]] = [[] for _ in range(num_workers)]
        self._next_rid = 0
        self._rr_next = 0
        self._closed = False
        self._procs: list = []
        self._conns: list = []

        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(start_method)
        try:
            for i in range(num_workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, builder, config, pool_kwargs, seed + i),
                    name=f"fleet-worker-{i}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
            for i, conn in enumerate(self._conns):
                if not conn.poll(startup_timeout):
                    raise RuntimeError(f"fleet worker {i} did not report ready")
                msg = conn.recv()
                if msg[0] != "ready":
                    raise RuntimeError(f"fleet worker {i} failed to start: {msg[1]}")
        except BaseException:
            self.close(timeout=1.0)
            raise

    # ------------------------------------------------------------------ #
    @property
    def num_workers(self) -> int:
        return len(self._procs)

    @property
    def load(self) -> tuple[int, ...]:
        """In-flight request count per worker, as the router sees it."""
        return tuple(self._load)

    @property
    def pinned_families(self) -> int:
        return len(self._families)

    def pinned_worker(self, prompt_ids: np.ndarray) -> int | None:
        """The replica this prompt's family is pinned to, if any."""
        prompt = np.asarray(prompt_ids, dtype=np.int64).ravel()
        return self._families.get(stable_prefix_key(prompt[: self.affinity_tokens]))

    # ------------------------------------------------------------------ #
    def _least_loaded(self) -> int:
        return min(range(len(self._load)), key=lambda w: (self._load[w], w))

    def _route(self, prompt: np.ndarray) -> int:
        if self.routing == "round_robin":
            worker = self._rr_next % self.num_workers
            self._rr_next += 1
            self.stats.round_robin += 1
            return worker
        digest = stable_prefix_key(prompt[: self.affinity_tokens])
        pinned = self._families.get(digest)
        if pinned is None:
            worker = self._least_loaded()
            self._families[digest] = worker
            self.stats.affinity_new += 1
            return worker
        if self._load[pinned] < self.spill_threshold:
            self.stats.affinity_pinned += 1
            return pinned
        worker = self._least_loaded()
        if worker == pinned:
            self.stats.affinity_pinned += 1
            return pinned
        self.stats.affinity_spills += 1
        return worker

    # ------------------------------------------------------------------ #
    def submit(
        self,
        prompt_ids: np.ndarray,
        max_new_tokens: int = 16,
        *,
        temperature: float = 0.0,
        stop_ids: set[int] | None = None,
    ) -> FleetRequest:
        """Route one request to a replica; returns a handle completed by
        :meth:`poll` / :meth:`drain`."""
        self._check_open()
        prompt = np.asarray(prompt_ids, dtype=np.int64).ravel()
        worker = self._route(prompt)
        rid = self._next_rid
        self._next_rid += 1
        request = FleetRequest(request_id=rid, worker=worker, prompt_ids=prompt)
        self._inflight[rid] = request
        self._load[worker] += 1
        self.stats.submitted += 1
        self._conns[worker].send(
            ("submit", rid, prompt, int(max_new_tokens), float(temperature), stop_ids)
        )
        return request

    def poll(self) -> list[FleetRequest]:
        """Collect results that have arrived; never blocks.

        Returns every request newly completed since the previous call
        (including any that completed while a control round-trip was
        waiting on the same pipes).
        """
        self._check_open()
        for worker, conn in enumerate(self._conns):
            while conn.poll(0):
                self._dispatch(worker, conn.recv())
        done, self._fresh_done = self._fresh_done, []
        return done

    def drain(self, timeout: float | None = None) -> list[FleetRequest]:
        """Block until every in-flight request completes; returns them all
        in submit order (plus any completions pending from before)."""
        self._check_open()
        deadline = None if timeout is None else time.monotonic() + timeout
        finished = self.poll()
        while self._inflight:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"fleet drain timed out with {len(self._inflight)} requests in flight"
                )
            mp_connection.wait(self._conns, timeout=0.05)
            finished.extend(self.poll())
        return sorted(finished, key=lambda r: r.request_id)

    def generate(
        self,
        prompts: Sequence[np.ndarray],
        max_new_tokens: int = 16,
        *,
        temperature: float = 0.0,
        stop_ids: set[int] | None = None,
    ) -> list[np.ndarray]:
        """Submit a batch of prompts and block for all results, in order."""
        requests = [
            self.submit(p, max_new_tokens, temperature=temperature, stop_ids=stop_ids)
            for p in prompts
        ]
        self.drain()
        for request in requests:
            if request.error is not None:
                raise RuntimeError(
                    f"fleet request {request.request_id} failed on worker "
                    f"{request.worker}: {request.error}"
                )
        return [request.result for request in requests]

    # ------------------------------------------------------------------ #
    def _dispatch(self, worker: int, msg: tuple) -> None:
        tag = msg[0]
        if tag == "done":
            _, rid, result, meta = msg
            request = self._inflight.pop(rid)
            request.result = np.asarray(result, dtype=np.int64)
            request.finish_reason = meta["finish_reason"]
            request.reused_tokens = meta["reused_tokens"]
            request.decode_steps = meta["decode_steps"]
            request.done = True
            self._load[worker] -= 1
            self.stats.finished += 1
            self._fresh_done.append(request)
        elif tag == "error":
            _, rid, message = msg
            request = self._inflight.pop(rid)
            request.error = message
            request.done = True
            self._load[worker] -= 1
            self.stats.finished += 1
            self._fresh_done.append(request)
        else:
            # Control-channel response (exported / installed / stats) —
            # stashed for the round-trip that is waiting on it.
            self._responses[worker].append(msg)

    def _request(self, worker: int, msg: tuple, want: tuple[str, ...], timeout: float) -> tuple:
        """Send a control message and wait for its tagged response,
        dispatching any request completions that arrive in between."""
        conn = self._conns[worker]
        conn.send(msg)
        deadline = time.monotonic() + timeout
        while True:
            stash = self._responses[worker]
            for i, resp in enumerate(stash):
                if resp[0] in want:
                    return stash.pop(i)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"fleet worker {worker} did not answer {msg[0]!r}")
            if conn.poll(min(remaining, 0.05)):
                self._dispatch(worker, conn.recv())

    # ------------------------------------------------------------------ #
    def export_prefix(self, prompt_ids: np.ndarray, worker: int, *, timeout: float = 60.0):
        """Serialize ``worker``'s best pooled prefix for this prompt
        (``None`` when it holds nothing usable)."""
        self._check_open()
        prompt = np.asarray(prompt_ids, dtype=np.int64).ravel()
        return self._request(worker, ("export", prompt), ("exported",), timeout)[1]

    def install_prefix(self, blob: bytes, worker: int, *, timeout: float = 60.0) -> int:
        """Restore a serialized pool entry into ``worker``'s pool; returns
        its token count."""
        self._check_open()
        resp = self._request(worker, ("install", blob), ("installed", "install-error"), timeout)
        if resp[0] == "install-error":
            raise ValueError(resp[1])
        return resp[1]

    def migrate_prefix(
        self,
        prompt_ids: np.ndarray,
        src: int,
        dst: int,
        *,
        repin: bool = True,
        timeout: float = 60.0,
    ) -> int:
        """Move this prompt family's warm prefix from ``src`` to ``dst``.

        The donor entry is exported as bytes (int8 block content travels
        verbatim) and imported into ``dst``'s pool; with ``repin`` the
        family's affinity pin follows, so subsequent traffic lands on the
        replica now holding the blocks.  Returns the migrated token count
        (0 when ``src`` held nothing usable — the pin is left untouched).
        """
        self._check_open()
        if src == dst:
            return 0
        blob = self.export_prefix(prompt_ids, src, timeout=timeout)
        if blob is None:
            return 0
        tokens = self.install_prefix(blob, dst, timeout=timeout)
        if repin and self.routing == "affinity":
            prompt = np.asarray(prompt_ids, dtype=np.int64).ravel()
            self._families[stable_prefix_key(prompt[: self.affinity_tokens])] = dst
        return tokens

    def worker_stats(self, *, timeout: float = 60.0) -> list[dict]:
        """Per-replica engine/pool counters, in worker order."""
        self._check_open()
        return [
            self._request(worker, ("stats",), ("stats",), timeout)[1]
            for worker in range(self.num_workers)
        ]

    # ------------------------------------------------------------------ #
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("fleet is closed")

    def close(self, timeout: float = 10.0) -> None:
        """Shut every worker down; in-flight work is dropped (drain first
        for a graceful stop).  Idempotent, and stragglers that ignore the
        shutdown message are terminated so no child outlives the fleet."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - terminate() refused
                proc.kill()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for request in self._inflight.values():
            request.error = "fleet closed"
            request.done = True
        self._inflight.clear()

    def __enter__(self) -> "ReplicaFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close(timeout=1.0)
        except Exception:
            pass

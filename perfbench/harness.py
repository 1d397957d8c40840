"""Measurement helpers shared by the benchmark's workloads.

Stdlib only, so the unit tests beside this file run without the program
under test: a percentile that refuses to extrapolate, a seeded Poisson
arrival schedule, the open-loop driver that times each request from the
moment it was due, and the closed-loop driver.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import random
import time
from typing import Awaitable, Callable, Sequence

#: Samples a reported percentile must have strictly beyond it.
MIN_TAIL_SAMPLES = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile, refused without ten samples beyond it.

    With ``n`` samples the nearest rank is ``ceil(q/100 * n)``; the samples
    ranked above it are the evidence for the tail, and fewer than
    :data:`MIN_TAIL_SAMPLES` of them would make the figure one or two
    outliers rather than a percentile.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL_SAMPLES:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples has {max(n - rank, 0)} beyond it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    return sorted(samples)[rank - 1]


def poisson_offsets(rate: float, duration: float, seed: int) -> list[float]:
    """Arrival times in ``[0, duration)`` of a Poisson process at ``rate``/s,
    conditioned on exactly ``round(rate * duration)`` arrivals.

    Given its count, a Poisson process places its arrivals as sorted
    independent uniform draws.  Fixing the count keeps the burstiness but
    removes the run-to-run spread of the offered load itself, which would
    otherwise show up as throughput "changes" of several percent.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = random.Random(seed)
    return sorted(rng.uniform(0.0, duration) for _ in range(round(rate * duration)))


async def open_loop(
    offsets: Sequence[float],
    send: Callable[[int, float], Awaitable],
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[float, list[float], list]:
    """Start ``send(i, due)`` at each due time, whatever earlier requests do.

    ``send`` receives the absolute ``clock`` time its request was due and
    must measure latency from it, so a stall that delays later sends is
    charged to them.  Returns ``(start, lags, outcomes)``: ``lags[i]`` is
    how late the generator itself dispatched request ``i`` (seconds), and
    ``outcomes[i]`` is what ``send`` returned or the exception it raised.
    """
    start = clock()
    lags: list[float] = []
    tasks: list[asyncio.Task] = []
    for i, offset in enumerate(offsets):
        due = start + offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(max(clock() - due, 0.0))
        tasks.append(asyncio.ensure_future(send(i, due)))
    outcomes = await asyncio.gather(*tasks, return_exceptions=True)
    return start, lags, list(outcomes)


async def closed_loop(
    callers: int,
    seconds: float,
    send: Callable[[int, float], Awaitable],
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[float, list]:
    """Each caller sends its next request once its last one completed.

    Callers stop starting requests after ``seconds``.  ``send(i, sent_at)``
    gets the ``clock`` time it was started.  Returns ``(start, outcomes)``,
    the outcomes in completion order, a raised exception standing for its
    failed request.
    """
    start = clock()
    deadline = start + seconds
    ids = itertools.count()
    outcomes: list = []

    async def caller() -> None:
        while clock() < deadline:
            try:
                outcomes.append(await send(next(ids), clock()))
            except Exception as exc:  # a failed request is an outcome, not a crash
                outcomes.append(exc)

    await asyncio.gather(*(caller() for _ in range(callers)))
    return start, outcomes

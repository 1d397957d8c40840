"""The repository benchmark: ICL scoring throughput and serving latency.

    python3 perfbench/run.py --workload {icl_fewshot,serve_decode,http_icl} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  ``--trace 0`` starts three fresh worker
processes in turn, each measuring a third of ``--seconds`` untraced, pools
their samples and prints every end-to-end metric.  ``--trace 1`` starts one
untraced and one traced worker, each measuring ``--seconds``, and prints
every per-layer metric; the traced worker's spans go to
``.perfbench_out/``.  The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any output that
differs from its reference fails the run (exit code 1).  NOTES.md explains
the workloads, limits and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import percentile  # noqa: E402

WORKLOADS = ("icl_fewshot", "serve_decode", "http_icl")
#: Untraced worker processes per ``--trace 0`` run (set-up is timed in each).
UNTRACED_WORKERS = 3
#: Every run, with all its workers, must end within this many seconds.
RUN_BUDGET_SECONDS = 170.0
#: Worker threads for numpy's BLAS: the thread budget is the asyncio thread
#: plus the engine's stepping thread, nothing more.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "icl_queries_per_s": "1/s",
    "ttft_p50_ms": "ms",
    "ttft_p90_ms": "ms",
    "itl_p50_ms": "ms",
    "itl_p99_ms": "ms",
    "slo_attainment": "fraction",
    "success_frac": "fraction",
}
PER_LAYER_UNITS = {
    "tokenization.encode_ms": "ms/query",
    "icl.build_ms": "ms/query",
    "icl.fallback_queries": "count",
    "decoder.forward_incremental_ms": "ms/query",
    "decoder.forward_incremental_calls": "calls/query",
    "decoder.tokens_forwarded": "tokens/query",
    "nn.attention_ms": "ms/query",
    "decoder.step_ms_p50": "ms",
    "nn.paged_gather_ms": "ms/query",
    "nn.kv_peak_bytes": "bytes",
    "engine.step_ms_p50": "ms",
    "engine.step_ms_p99": "ms",
    "engine.step_self_ms": "ms",
    "engine.rows_per_step": "rows",
    "engine.queue_wait_ms_p50": "ms",
    "engine.queue_wait_ms_p90": "ms",
    "pool.hit_rate": "fraction",
    "pool.tokens_reused": "tokens/query",
    "pool.tokens_prefilled": "tokens/query",
    "pool.evictions": "count/query",
    "pool.checkout_ms": "ms/query",
    "pool.checkin_ms": "ms/query",
    "aio.publish_lag_ms_p50": "ms",
    "http.parse_admit_ms": "ms",
    "http.response_ms": "ms",
    "http.shed": "count",
    "harness.gen_lag_ms_p90": "ms",
    "harness.trace_overhead_frac": "fraction",
}


def spawn(
    workload: str, seed: int, part: int, seconds: float, traced: bool, deadline: float
) -> dict:
    """Run one worker process to completion and return its parsed result."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(int(traced)),
        "--part", str(part),
    ]
    if traced:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")]
    env = dict(os.environ, **THREAD_ENV)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("run budget exhausted before the next worker")
    cmd += ["--spawned-at", repr(time.monotonic())]
    # subprocess.run kills and reaps the worker if it overruns the budget.
    done = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def pooled(results: list[dict], key: str) -> list[float]:
    return [x for r in results for x in r[key]]


def end_to_end(results: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in results)
    ttft, itl = pooled(results, "ttft_ms"), pooled(results, "itl_ms")
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "icl_queries_per_s": sum(r["completed"] for r in results)
        / sum(r["window_s"] for r in results),
        "ttft_p50_ms": percentile(ttft, 50),
        "ttft_p90_ms": percentile(ttft, 90),
        "itl_p50_ms": percentile(itl, 50),
        "itl_p99_ms": percentile(itl, 99),
        "slo_attainment": sum(r["slo_met"] for r in results) / attempted,
        "success_frac": 1.0 - sum(r["failed"] for r in results) / attempted,
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    metrics = dict(traced["layers"])
    lags = untraced["gen_lag_ms"] + traced["gen_lag_ms"]
    metrics["harness.gen_lag_ms_p90"] = percentile(lags, 90) if lags else 0.0
    # Median latency, not throughput: on the open loop throughput is the
    # offered rate whatever the tracing costs.
    metrics["harness.trace_overhead_frac"] = (
        percentile(traced["ttft_ms"], 50) / percentile(untraced["ttft_ms"], 50) - 1.0
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_SECONDS
    if args.trace:
        # Both workers play the same traffic, so their gap is the tracing.
        plan = [(0, False, args.seconds), (0, True, args.seconds)]
    else:
        share = args.seconds / UNTRACED_WORKERS
        plan = [(part, False, share) for part in range(UNTRACED_WORKERS)]
    try:
        results = [
            spawn(args.workload, args.seed, part, seconds, traced, deadline)
            for part, traced, seconds in plan
        ]
        if args.trace:
            values = per_layer(results[0], results[1])
            units = PER_LAYER_UNITS
        else:
            values = end_to_end(results)
            units = END_TO_END_UNITS
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    errors = [e for r in results for e in r["errors"]]
    for i, r in enumerate(results):
        print(
            f"worker {i}: sent {r['attempted']}, succeeded "
            f"{r['attempted'] - r['failed']}, failed {r['failed']}, "
            f"set-up {r['setup_s']:.3f}s",
            file=sys.stderr,
        )
    for error in errors[:20]:
        print(f"MISMATCH {error}", file=sys.stderr)
    summary = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

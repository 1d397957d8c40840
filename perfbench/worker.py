"""One measurement process of the benchmark (started by ``run.py``).

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --spawned-at MONOTONIC [--part K] [--trace-out PATH]

Builds the workload from the seed in this fresh process, so no pool or
allocator state survives from another run, measures for ``--seconds`` and
prints one JSON object of raw samples as its last stdout line.  ``--part``
picks which stretch of the seed's arrival schedule this worker plays.
``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process: set-up time runs from there to the end of warm-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [here, os.path.join(os.path.dirname(here), "src")]
    import workloads

    # Run on one CPU, as a GIL-bound Python server is deployed one process
    # per core.  Spread over two cores, the asyncio and stepping threads
    # convoy on the GIL and inter-token gaps turn bimodal from run to run.
    # Threads started later inherit the mask.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    setup: dict[str, float] = {}
    probes = []

    def ready():
        setup["seconds"] = time.monotonic() - args.spawned_at
        if not args.trace:
            return None
        probe = workloads.Probe()
        probe.install()
        probes.append(probe)
        return probe

    result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, ready, args.part)
    result["setup_s"] = setup["seconds"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if probes and args.trace_out:
        probes[0].tracer.write_chrome(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

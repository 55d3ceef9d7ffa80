"""Child process: one repeat of one workload, then one JSON line on stdout.

A fresh interpreter per repeat makes import cost, lazy set-up and peak RSS
per-repeat quantities. ``perf_counter`` is system-wide monotonic on Linux,
so the parent's launch stamp (``--t0``) and the stamps taken here share a
time base.

Everything runs under the ``__main__`` guard: the fabric's spawn-context
shard workers re-import the main module, and must not re-execute it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter


def stamp_first_run(stamps: dict) -> None:
    """One-shot wrapper on ``Simulator.run``: stamps the first entry into
    the event loop (and its return), and removes itself on that first
    call, so it costs nothing per event."""
    from repro.sim.engine import Simulator

    original = Simulator.run

    def run(self, *args, **kwargs):
        Simulator.run = original
        stamps["loop_entry"] = perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            stamps["loop_exit"] = perf_counter()

    Simulator.run = run


def main(argv) -> int:
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True, help="scratch directory owned by the parent")
    parser.add_argument("--t0", type=float, required=True, help="parent's launch stamp")
    parser.add_argument("--variant", default=None)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", default=None, help="trace the run; dump spans to this file")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    import repro.harness.fabric  # noqa: F401  (timed: the import cost a CLI user pays)
    import repro.harness.scenarios  # noqa: F401
    import workloads

    stamps = {"launch": args.t0, "start": start, "imported": perf_counter()}
    if tracer is not None:
        tracer.install()
    if workloads.WORKLOADS[args.workload].kind == "dumbbell":
        stamp_first_run(stamps)
    outputs = workloads.run(
        args.workload, args.variant, args.seed, args.scale, args.out_dir, stamps
    )
    stamps["done"] = perf_counter()

    if tracer is not None:
        tracer.finish()
        report = tracer.report()
        tracer.dump(args.trace, report)
        outputs["trace"] = {key: report[key] for key in ("layers", "functions", "counts")}
    outputs["stamps"] = stamps
    outputs["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0
    print(json.dumps(outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

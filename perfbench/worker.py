"""One cold pass of one workload, in a fresh process.

Reads the workload's input texts as JSON on stdin, imports korbits from
the checkout's `src/`, parses the inputs (set-up), runs the operations
(only their korbits calls are timed), checks the outputs, and prints
one JSON result line.  A traced pass reports its layer counters for
the timed phase only, except the parse layers, which count set-up.
With --setup-only it stops once the inputs are ready.

    python3 perfbench/worker.py --workload fks --seed 3 --spawned T [--trace]

--spawned is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is system-wide, so set-up time counts from
process start, interpreter start-up included.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_korbits():
    """Import korbits from this checkout's source tree, not from any
    installed copy."""
    sys.path.insert(0, SRC)
    import korbits

    where = os.path.realpath(korbits.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"korbits imported from {where}, not from {SRC}")
    return korbits


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced spans here (.npz)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    texts = json.load(sys.stdin)

    kb = import_korbits()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = workloads.parse_inputs(kb, args.workload, texts)
    setup_s = time.monotonic() - args.spawned
    if tracer:
        at_setup = tracer.layers()

    import numpy as np

    out = {"workload": args.workload, "seed": args.seed,
           "setup_s": setup_s, "backend": kb._backend.BACKEND,
           "nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__,
           "hashseed": os.environ.get("PYTHONHASHSEED")}
    if not args.setup_only:
        result, out["timed_s"] = workloads.run(kb, args.workload, inputs,
                                               tracer)
        # everything below is outside the timed phase; cache counters
        # are read before the checks touch the caches
        if tracer:
            tracer.uninstall()
            out["layers"] = layers.timed_phase(tracer.layers(), at_setup)
            if args.spans:
                tracer.dump(args.spans)
        expected = workloads.load_expected()[args.workload]
        problems = workloads.CHECK[args.workload](kb, inputs, result,
                                                  expected)
        out["digest"] = workloads.sha256(result["render"])
        if args.seed == 0 and out["digest"] != expected["digest"]:
            problems.append(f"seed-0 digest {out['digest']} differs from "
                            f"the recorded {expected['digest']}")
        ops = result["ops"]
        out["units"] = workloads.units(args.workload, ops)
        out["attempted"] = len(ops)
        out["failed"] = sum(1 for op in ops if not op["ok"])
        out["errors"] = {op["op"]: op["error"] for op in ops if not op["ok"]}
        out["problems"] = problems
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

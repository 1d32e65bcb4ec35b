#!/usr/bin/env python3
"""Run every workload once, untraced, and print one table of the
end-to-end metrics with failed ops and the output-check verdict.

    python3 perfbench/summary.py [--seed N] [--seconds S]
"""

import argparse
import sys

import run
import workloads


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args(argv)
    print(f"{'workload':9} {'setup_s':>9} {'work_per_s':>12} {'unit':>5} "
          f"{'peak_rss_mb':>12} {'failed_ratio':>14}  output check")
    ok = True
    for workload in workloads.WORKLOADS:
        res, lines = run.measure(workload, args.seed, args.seconds, 0)
        m = res["metrics"]
        ratio = f"{res['failed']}/{res['attempted']}"
        print(f"{workload:9} {m['setup_s']['value']:>9.3f} "
              f"{m['work_per_s']['value']:>12.4g} "
              f"{m['work_per_s']['unit']:>5} "
              f"{m['peak_rss_mb']['value']:>12.1f} {ratio:>14}  "
              f"{'correct' if res['correct'] else 'WRONG'}")
        ok &= res["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

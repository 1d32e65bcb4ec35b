#!/usr/bin/env python3
"""Cold-process benchmark of korbits.

    python3 perfbench/run.py --workload {fks,suite6,orbits} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a korbits checkout; korbits is imported from its
`src/`.  Each pass of a workload runs cold, in a fresh single-threaded
process with its own PYTHONHASHSEED, and gets its inputs only as group
or catalog text generated from the seed.

--trace 0 runs passes back to back while the next one still fits in S
seconds (at least one), adds set-up-only processes until there are
seven set-up samples, and reports medians of

    setup_s      process start until the inputs are parsed and closed
    work_per_s   units completed by successful ops per second spent in
                 their korbits calls
    peak_rss_mb  ru_maxrss of the workload process

--trace 1 runs one untraced and one traced pass and reports the
per-layer metrics of layers.py, with trace.overhead the traced over the
untraced work_per_s.  The traced spans go to .perfbench/ in the
checkout.

Every pass checks its outputs (see workloads.py); digests must agree
across the passes of a run, which run under different hash seeds.  The
last stdout line is the JSON result; earlier lines are for people.
Every worker is asked for the numpy kernel backend (KORBITS_BACKEND);
exit status is 2 without a korbits source tree, 3 when a pass dies or
a worker runs another backend.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

BACKEND = "numpy"           # the only backend this repository ships
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170           # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMBA_NUM_THREADS")
UNITS = {"fks": "groups reduced", "suite6": "check results (not skipped)",
         "orbits": "tuples in classified orbits"}


class RunError(Exception):
    pass


class Runner:
    """Spawns the worker processes of one benchmark run."""

    def __init__(self, workload, seed, backend=BACKEND):
        self.workload = workload
        self.seed = seed
        self.backend = backend
        self.texts = json.dumps(workloads.make_inputs(workload, seed))
        self.started = time.monotonic()
        self.spawned = 0

    def elapsed(self):
        return time.monotonic() - self.started

    def _env(self):
        env = dict(os.environ, KORBITS_BACKEND=self.backend,
                   PYTHONHASHSEED=str(
                       (self.seed * 1000 + self.spawned) % 4294967295 + 1))
        env.update({var: "1" for var in THREAD_VARS})
        return env

    def spawn(self, *flags):
        """Run one worker process to completion; its parsed result."""
        env = self._env()
        self.spawned += 1
        timeout = RUN_LIMIT_S - self.elapsed()
        if timeout <= 0:
            raise RunError("out of time before the pass started")
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--seed", str(self.seed), *flags]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(time.monotonic())],
                                  input=self.texts, capture_output=True,
                                  text=True, env=env, cwd=ROOT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RunError(f"worker {flags} passed the {RUN_LIMIT_S} s limit")
        if proc.returncode != 0:
            raise RunError(f"worker {flags} exited {proc.returncode}:\n"
                           + proc.stderr[-3000:])
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["wall_s"] = time.monotonic() - t0
        if res["backend"] != self.backend:
            raise RunError(f"backend {res['backend']!r} is running, "
                           f"{self.backend!r} was requested")
        return res


def rate(p):
    return p["units"] / p["timed_s"]


def measure(workload, seed, seconds, trace):
    """One benchmark run; (result dict, human-readable lines)."""
    run = Runner(workload, seed)
    passes = []
    traced = None
    if trace:
        passes.append(run.spawn())
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        spans = os.path.join(ROOT, ".perfbench",
                             f"spans-{workload}-seed{seed}.npz")
        traced = run.spawn("--trace", "--spans", spans)
    else:
        while True:
            passes.append(run.spawn())
            if run.elapsed() + passes[-1]["wall_s"] > seconds:
                break
    setups = [p["setup_s"] for p in passes]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(run.spawn("--setup-only")["setup_s"])

    everything = passes + ([traced] if traced else [])
    problems = [f"hash seed {p['hashseed']}: {msg}"
                for p in everything for msg in p["problems"]]
    digests = {p["digest"] for p in everything}
    if len(digests) > 1:
        problems.append(f"output digests differ across processes: "
                        f"{sorted(digests)}")
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)

    if trace:
        metrics = layers.layer_metrics(traced["layers"],
                                       rate(traced) / rate(passes[0]))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "work_per_s": {"value": statistics.median(map(rate, passes)),
                           "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(
                p["peak_rss_mb"] for p in passes), "unit": "MB"},
        }
    first = passes[0]
    lines = [f"# {workload} seed={seed} trace={trace}"
             f" backend={first['backend']} nproc={first['nproc']}"
             f" python={first['python']} numpy={first['numpy']}"
             f" passes={len(passes)}"
             f" hashseeds={[p['hashseed'] for p in everything]}",
             f"# work unit: {UNITS[workload]}; units per pass "
             f"{[p['units'] for p in passes]}; timed_s per pass "
             f"{[round(p['timed_s'], 3) for p in everything]}; setup_s "
             f"samples {[round(t, 3) for t in setups]}",
             f"# failed_ratio {failed}/{attempted} = "
             f"{failed / attempted:.4f}"]
    lines += [f"# failed op {op}: {err}"
              for op, err in first["errors"].items()]
    lines += [f"# output check: {msg}" for msg in problems]
    lines.append(f"# output check verdict: "
                 f"{'correct' if not problems else 'WRONG'}")
    moves = {m["name"]: m["moves"] for m in layers.LAYERS}
    for name, m in metrics.items():
        tag = f"  [moves {moves[name]}]" if name in moves else ""
        lines.append(f"# {name} = {m['value']:.6g} {m['unit']}{tag}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "korbits", "__init__.py")):
        print(f"error: no korbits source tree under {ROOT}/src",
              file=sys.stderr)
        return 2
    try:
        result, lines = measure(args.workload, args.seed, args.seconds,
                                args.trace)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

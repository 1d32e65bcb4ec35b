"""Benchmark inputs, the timed operations and their output checks.

Inputs are plain group and catalog text, as a user would hand them to
the `korbits` command line.  Seed 0 gives them exactly as korbits
generates them; any other seed conjugates every group by a seeded
point permutation (one per group), which leaves every relabelling
invariant (orders, orbit counts, coherence kinds, step kinds) intact.

This module imports no korbits code at module level, so the parent
process can build inputs without paying for the package import.
"""

import contextlib
import functools
import hashlib
import json
import math
import os
import random
import re
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# Degree-7 transitive groups other than S7, as `transitive_catalog(7)`
# renders them (entries t7.1 .. t7.6).
DEG7 = {
    "C7": "(1 2 3 4 5 6 7)",
    "D7": "(2 3)(4 5)(6 7), (1 2)(3 4)(5 6)",
    "F21": "(2 3 4)(5 6 7), (1 2 3 5 4 7 6)",
    "F42": "(2 3)(4 5)(6 7), (2 4 6)(3 5 7), (1 2)(3 4)(5 7)",
    "PSL32": "(4 5)(6 7), (4 6)(5 7), (2 3)(6 7), (2 4)(3 5), (1 2)(5 6)",
    "A7": "(5 6 7), (4 5)(6 7), (3 4)(6 7), (2 3)(6 7), (1 2)(6 7)",
}

# Dihedral groups as `render_group(dihedral_group(n))` renders them.
DIHEDRAL = {
    8: "(1 2 3 4 5 6 7 8), (2 8)(3 7)(4 6)",
    9: "(1 2 3 4 5 6 7 8 9), (2 9)(3 8)(4 7)(5 6)",
}

# `render_catalog(transitive_catalog(6))`.
DEG6_CATALOG = """\
# provenance: generated
degree 6
t6.1 | 6 | transitive:1 | (1 2)(3 4)(5 6), (1 3 5)(2 4 6)
t6.2 | 6 | transitive:1 | (1 2)(3 4)(5 6), (1 3)(2 5)(4 6)
t6.3 | 12 | transitive:1 | (3 4)(5 6), (1 2)(5 6), (1 3 5)(2 4 6)
t6.4 | 12 | transitive:1 | (3 4)(5 6), (1 2)(3 5)(4 6), (1 3)(2 5)
t6.5 | 18 | transitive:1 | (4 5 6), (1 2 3), (1 4)(2 5)(3 6)
t6.6 | 24 | transitive:1 | (5 6), (3 4), (1 2), (1 3 5)(2 4 6)
t6.7 | 24 | transitive:1 | (3 4)(5 6), (3 5)(4 6), (1 2)(5 6), (1 3)(2 4)
t6.8 | 24 | transitive:1 | (3 4)(5 6), (3 5 4 6), (1 2)(5 6), (1 3)(2 4)(5 6)
t6.9 | 36 | transitive:1 | (4 5 6), (2 3)(5 6), (1 2)(5 6), (1 4)(2 5)(3 6)
t6.10 | 36 | transitive:1 | (4 5 6), (2 3)(5 6), (1 2)(5 6), (1 4)(2 5 3 6)
t6.11 | 48 | transitive:1 | (5 6), (3 4), (3 5)(4 6), (1 2), (1 3)(2 4)
t6.12 | 60 | transitive:1 | (3 4)(5 6), (2 3)(4 5), (1 2)(5 6)
t6.13 | 72 | transitive:1 | (5 6), (4 5), (2 3), (1 2), (1 4)(2 5)(3 6)
t6.14 | 120 | transitive:1 | (3 4)(5 6), (3 5 4 6), (2 3)(4 5), (1 2)(5 6)
t6.15 | 360 | transitive:1 | (4 5 6), (3 4)(5 6), (2 3)(5 6), (1 2)(5 6)
t6.16 | 720 | transitive:1 | (5 6), (4 5), (3 4), (2 3), (1 2)
"""

SUITE_K_RANGE = (2, 3, 4)


def wreath(a, b, base="S", top="S"):
    """Generators of the imprimitive wreath product base_a wr top_b on
    a*b points, blocks {j*a+1 .. j*a+a}, as cycle strings."""
    def cycle(points):
        return "(" + " ".join(map(str, points)) + ")"

    gens = []
    if a > 1:
        if base == "S" and a > 2:
            gens.append(cycle([1, 2]))
        gens.append(cycle(range(1, a + 1)))
    block_cycle = "".join(cycle([j * a + i for j in range(b)])
                          for i in range(1, a + 1))
    if top == "S" and b > 2:
        gens.append("".join(cycle([i, a + i]) for i in range(1, a + 1)))
    gens.append(block_cycle)
    return ", ".join(gens)


# name -> (degree, generator text); insertion order is the op order.
FKS_GROUPS = {name: (7, gens) for name, gens in DEG7.items()}
FKS_GROUPS.update({
    "S2wrS4": (8, wreath(2, 4)),
    "S4wrS2": (8, wreath(4, 2)),
    "S3wrS3": (9, wreath(3, 3)),
    "S2wrS5": (10, wreath(2, 5)),
    "S5wrS2": (10, wreath(5, 2)),
})

ORBIT_GROUPS = {
    "D8": (8, DIHEDRAL[8]),
    "C2wrC4": (8, wreath(2, 4, "C", "C")),
    "D9": (9, DIHEDRAL[9]),
    "C3wrC3": (9, wreath(3, 3, "C", "C")),
}

WORKLOADS = ("fks", "suite6", "orbits")


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def relabelling(seed, name, degree):
    """The point permutation (1-based list, index 0 unused) applied to
    group `name` at `seed`; the identity at seed 0."""
    points = list(range(1, degree + 1))
    if seed:
        random.Random(f"korbits-bench/{seed}/{name}").shuffle(points)
    return [0] + points


def relabel_gens(gens, sigma):
    return re.sub(r"\d+", lambda m: str(sigma[int(m.group())]), gens)


def group_text(degree, gens, sigma):
    lines = [f"degree {degree}"]
    lines += [relabel_gens(g.strip(), sigma) for g in gens.split(",")
              if g.strip()]
    return "\n".join(lines) + "\n"


def catalog_text(seed):
    out = []
    degree = None
    for line in DEG6_CATALOG.splitlines():
        if line.startswith("degree "):
            degree = int(line.split()[1])
        if "|" not in line:
            out.append(line)
            continue
        entry_id, order, flag, gens = [f.strip() for f in line.split("|")]
        sigma = relabelling(seed, entry_id, degree)
        out.append(f"{entry_id} | {order} | {flag} | "
                   f"{relabel_gens(gens, sigma)}")
    return "\n".join(out) + "\n"


def make_inputs(workload, seed):
    """{name: text} handed to the workload process."""
    if workload == "suite6":
        return {"deg6": catalog_text(seed)}
    groups = FKS_GROUPS if workload == "fks" else ORBIT_GROUPS
    return {name: group_text(deg, gens, relabelling(seed, name, deg))
            for name, (deg, gens) in groups.items()}


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# workloads: parse (set-up), run (timed), check (after the timed phase)
# ---------------------------------------------------------------------------
#
# Each *_ops yields (op id, korbits call, recorder) per operation.  Only
# the korbits call is timed; the recorder turns its outcome (a raised
# exception is an outcome, not fatal) into op records and render text
# after the clock stops.  Each check_* returns a list of problems found
# and marks the op of each failed check as failed.

def parse_inputs(kb, workload, texts):
    if workload == "suite6":
        return {"deg6": kb.parse_catalog(texts["deg6"])}
    return {name: kb.parse_group(text) for name, text in texts.items()}


def _error_text(exc):
    return f"{type(exc).__name__}: {exc}"


def _failed(op_id, outcome):
    return {"op": op_id, "ok": False, "error": _error_text(outcome)}


def fks_ops(kb, inputs):
    for name, G in inputs.items():
        def call(G=G):
            trace = kb.fks_pipeline(G)
            return trace, kb.render_trace(trace)

        yield f"fks/{name}", call, functools.partial(fks_record, name)


def fks_record(name, op_id, outcome):
    if isinstance(outcome, Exception):
        return [_failed(op_id, outcome)], ""
    trace, text = outcome
    return [{"op": op_id, "ok": True, "group": name,
             "element": trace.result["element"],
             "kinds": [s["kind"] for s in trace.steps]}], text


def suite6_ops(kb, inputs):
    def call():
        # run_suite records cap violations as skipped results and never
        # raises
        report = kb.run_suite(inputs["deg6"], k_range=list(SUITE_K_RANGE))
        return report, kb.render_report(report)

    yield "suite6", call, suite6_record


def suite6_record(op_id, outcome):
    if isinstance(outcome, Exception):
        return [_failed(op_id, outcome)], ""
    report, text = outcome
    ops = []
    for r in report.results:
        op = {"op": f"suite6/{r.context.get('group_id')}/{r.check_id}",
              "ok": r.verdict != "skipped", "verdict": r.verdict,
              "check": r.check_id}
        if r.verdict == "skipped":
            op["error"] = r.reason
        elif r.verdict == "fail":
            op["witness"] = r.witness
        ops.append(op)
    return ops, text


def orbit_call(kb, G, k):
    """k-orbits of G and their coherence verdicts, as `korbits orbits`
    computes them."""
    orbits = kb.k_orbits(G, k)
    return orbits, [kb.classify_coherence(G, X) for X in orbits]


def orbits_ops(kb, inputs):
    for name, G in inputs.items():
        for k in range(1, G.degree + 1):
            yield (f"orbits/{name}/k{k}",
                   functools.partial(orbit_call, kb, G, k),
                   functools.partial(orbit_record, name, G, k))


def orbit_record(name, G, k, op_id, outcome):
    if isinstance(outcome, Exception):
        return [_failed(op_id, outcome)], ""
    orbits, verdicts = outcome
    tally = {}
    records = []
    for X, v in zip(orbits, verdicts):
        tally[v.kind] = tally.get(v.kind, 0) + 1
        records.append({"group": name, "k": k, "rep": list(X.tuples[0]),
                        "size": len(X), "kind": v.kind, "trivial": v.trivial})
    op = {"op": op_id, "ok": True, "group": name, "k": k,
          "orbits": len(orbits), "tally": tally,
          "tuples": sum(len(X) for X in orbits),
          "order": G.order, "degree": G.degree}
    return [op], "".join(json.dumps(r, sort_keys=True) + "\n"
                         for r in records)


def attempt(call, op_id, tracer=None):
    """The outcome of one op's korbits call: its value, or the exception
    it raised."""
    with tracer.op_span(op_id) if tracer else contextlib.nullcontext():
        try:
            return call()
        except Exception as exc:
            return exc


def run(kb, workload, inputs, tracer=None, clock=time.perf_counter):
    """Every op of `workload`: ({"ops": op records, "render": text},
    seconds spent in korbits calls)."""
    timed_s = 0.0
    ops = []
    parts = []
    for op_id, call, record in OPS[workload](kb, inputs):
        t0 = clock()
        outcome = attempt(call, op_id, tracer)
        timed_s += clock() - t0
        op_records, text = record(op_id, outcome)
        ops += op_records
        parts.append(text)
    return {"ops": ops, "render": "".join(parts)}, timed_s


def units(workload, ops):
    """Work completed by the successful ops of one pass."""
    if workload == "orbits":
        return sum(op["tuples"] for op in ops if op["ok"])
    return sum(1 for op in ops if op["ok"])


def _mark_failed(op, problem):
    op["ok"] = False
    op["error"] = f"output check: {problem}"


def _cycle_lengths(images):
    seen = set()
    lengths = []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        n = 0
        v = start
        while v not in seen:
            seen.add(v)
            v = images[v - 1]
            n += 1
        lengths.append(n)
    return lengths


def _is_prime_power(m):
    if m < 2:
        return False
    p = next(d for d in range(2, m + 1) if m % d == 0)
    while m % p == 0:
        m //= p
    return m == 1


def check_fks(kb, inputs, result, expected):
    problems = []
    for op in result["ops"]:
        if not op["ok"]:
            continue
        G = inputs[op["group"]]
        g = kb.parse_permutation(op["element"], G.degree)
        lengths = _cycle_lengths(g.images)
        order = math.lcm(*lengths)
        if g not in G:
            _mark_failed(op, f"{op['element']} is not in the group")
        elif 1 in lengths:
            _mark_failed(op, f"{op['element']} has a fixed point")
        elif not _is_prime_power(order):
            _mark_failed(op, f"{op['element']} has order {order}")
        elif op["kinds"] != expected["kinds"][op["group"]]:
            _mark_failed(op, f"step kinds {op['kinds']}")
        if not op["ok"]:
            problems.append(f"{op['op']}: {op['error']}")
    return problems


def check_suite6(kb, inputs, result, expected):
    problems = []
    for op in result["ops"]:
        if op.get("verdict") != "fail":
            continue
        replay = kb.replay_witness(op["witness"], op["check"])
        if replay.verdict != "fail":
            _mark_failed(op, f"witness replays to {replay.verdict}")
            problems.append(f"{op['op']}: {op['error']}")
    return problems


def check_orbits(kb, inputs, result, expected):
    problems = []
    for op in result["ops"]:
        if not op["ok"]:
            continue
        want = expected["ops"][op["op"]]
        if "orbits" in want:
            if (op["orbits"], op["tally"]) != (want["orbits"], want["tally"]):
                _mark_failed(op, f"{op['orbits']} orbits {op['tally']}, "
                                 f"recorded {want['orbits']} {want['tally']}")
        else:
            # recorded as failing at the seed commit: check what holds for
            # any answer; k >= n - 1 tuples are permutations, on which the
            # group acts freely
            n, k = op["degree"], op["k"]
            if (op["tuples"] != math.perm(n, k)
                    or sum(op["tally"].values()) != op["orbits"]
                    or (k >= n - 1
                        and op["orbits"] * op["order"] != op["tuples"])):
                _mark_failed(op, f"{op['orbits']} orbits of "
                                 f"{op['tuples']} tuples")
        if not op["ok"]:
            problems.append(f"{op['op']}: {op['error']}")
    return problems


OPS = {"fks": fks_ops, "suite6": suite6_ops, "orbits": orbits_ops}
CHECK = {"fks": check_fks, "suite6": check_suite6, "orbits": check_orbits}

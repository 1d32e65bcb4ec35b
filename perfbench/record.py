"""Record the seed-0 output table that the benchmark checks against.

Runs each workload once at seed 0 in this process and writes
`perfbench/expected.json`: the render digests, the fks step kinds per
group, and the orbit count and coherence-kind tally (or the error) of
every orbits op.  Re-run it only when korbits' outputs are meant to
change:

    python3 perfbench/record.py
"""

import json
import sys
import time

import worker
import workloads


def main():
    kb = worker.import_korbits()
    expected = {}
    for workload in workloads.WORKLOADS:
        t0 = time.perf_counter()
        inputs = workloads.parse_inputs(
            kb, workload, workloads.make_inputs(workload, 0))
        result, _ = workloads.run(kb, workload, inputs)
        entry = {"digest": workloads.sha256(result["render"])}
        if workload == "fks":
            entry["kinds"] = {op["group"]: op["kinds"]
                              for op in result["ops"]}
        elif workload == "orbits":
            entry["ops"] = {op["op"]: ({"orbits": op["orbits"],
                                        "tally": op["tally"]} if op["ok"]
                                       else {"error": op["error"]})
                            for op in result["ops"]}
        expected[workload] = entry
        print(f"{workload}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

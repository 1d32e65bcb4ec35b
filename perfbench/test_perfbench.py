"""Tests of the benchmark itself (not part of the korbits test suite).

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import korbits as kb  # noqa: E402
from korbits import catalog, propcheck  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_times_of_nested_calls_sum_to_the_root_span():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.spanned("leaf", lambda: None)
    mid = tracer.spanned("mid", lambda: [leaf() for _ in range(3)])
    top = tracer.spanned("top", lambda: (mid(), leaf(), mid()))
    with tracer.op_span("op/1"):
        top()
    a = tracer.arrays()
    self_s = Tracer.self_times(a)
    root = a["parent"] == -1
    assert root.sum() == 1
    assert self_s.sum() == pytest.approx((a["end"] - a["start"])[root][0])
    assert (self_s > 0).all()
    m = tracer.layers()
    assert (m["top.calls"], m["mid.calls"], m["leaf.calls"]) == (1, 2, 7)


def test_self_times_sum_to_the_root_on_a_real_korbits_op():
    G = kb.parse_group(workloads.group_text(8, workloads.DIHEDRAL[8],
                                            workloads.relabelling(0, "D8", 8)))
    tracer = Tracer()
    tracer.install()
    try:
        outcome = workloads.attempt(lambda: workloads.orbit_call(kb, G, 3),
                                    "orbits/D8/k3", tracer)
    finally:
        tracer.uninstall()
    assert not isinstance(outcome, Exception)
    a = tracer.arrays()
    root = a["parent"] == -1
    assert root.sum() == 1 and a["name"][root][0] == tracer.name_ids["op"]
    dur = a["end"] - a["start"]
    assert Tracer.self_times(a).sum() == pytest.approx(dur[root][0], rel=1e-9)
    m = tracer.layers()
    assert m["backend.tuple_orbits.calls"] == 1
    assert m["backend.tuple_orbits.out"] == 8 * 7 * 6


def test_only_the_korbits_calls_of_an_op_are_timed(monkeypatch):
    clock = FakeClock()

    def record(op_id, outcome):
        clock.t += 100.0        # building records is not timed
        ok = not isinstance(outcome, Exception)
        return [{"op": op_id, "ok": ok}], op_id

    def fake_ops(kb, inputs):
        yield "fake/ok", lambda: None, record
        yield "fake/raises", lambda: 1 / 0, record

    monkeypatch.setitem(workloads.OPS, "fake", fake_ops)
    result, timed_s = workloads.run(None, "fake", {}, clock=clock)
    assert timed_s == 2.0
    assert [op["ok"] for op in result["ops"]] == [True, False]
    assert result["render"] == "fake/okfake/raises"


def test_uninstall_restores_every_binding():
    before = (kb.k_orbits, kb.korbit.k_orbits, kb.group.close_group,
              kb.korbit.KSet.__init__, propcheck._REGISTRY[0].evaluate,
              catalog.CatalogEntry.group)
    tracer = Tracer()
    tracer.install()
    assert kb.korbit.k_orbits is not before[1]
    assert kb.k_orbits is kb.korbit.k_orbits
    tracer.uninstall()
    after = (kb.k_orbits, kb.korbit.k_orbits, kb.group.close_group,
             kb.korbit.KSet.__init__, propcheck._REGISTRY[0].evaluate,
             catalog.CatalogEntry.group)
    assert all(x is y for x, y in zip(before, after))


def test_traced_and_untraced_runs_render_the_same_output():
    texts = {name: text for name, text in
             workloads.make_inputs("orbits", 5).items() if name == "D8"}
    plain, _ = workloads.run(
        kb, "orbits", workloads.parse_inputs(kb, "orbits", texts))
    kb.korbit.k_orbits.cache_clear()
    kb.korbit.classify_coherence.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = workloads.run(
            kb, "orbits", workloads.parse_inputs(kb, "orbits", texts), tracer)
    finally:
        tracer.uninstall()
    assert plain["render"] == traced["render"]
    assert tracer.layers()["korbit.k_orbits.calls"] == 8


def test_layer_counters_leave_out_set_up_except_the_parse_layers():
    tracer = Tracer()
    tracer.install()
    try:
        G = kb.parse_group(workloads.make_inputs("orbits", 2)["D8"])
        at_setup = tracer.layers()
        workloads.attempt(lambda: workloads.orbit_call(kb, G, 2),
                          "orbits/D8/k2", tracer)
        at_end = tracer.layers()
    finally:
        tracer.uninstall()
    assert at_setup["group.parse_group.calls"] == 1
    assert at_setup["group.close_group.calls"] >= 1
    timed = layers.timed_phase(at_end, at_setup)
    assert timed["group.parse_group.calls"] == 0
    assert timed["group.parse_group.self_s"] == \
        at_setup["group.parse_group.self_s"] > 0
    assert timed["group.close_group.calls"] == \
        at_end["group.close_group.calls"] - at_setup["group.close_group.calls"]
    assert timed["korbit.k_orbits.calls"] == 1


def test_degree9_k8_orbits_op_fails_and_keeps_its_error():
    G = kb.parse_group(workloads.make_inputs("orbits", 0)["D9"])
    outcome = workloads.attempt(lambda: workloads.orbit_call(kb, G, 8),
                                "orbits/D9/k8")
    [op], text = workloads.orbit_record("D9", G, 8, "orbits/D9/k8", outcome)
    assert not op["ok"] and text == ""
    assert "ResourceLimitError" in op["error"]
    assert "43046721" in op["error"]
    assert workloads.units("orbits", [op]) == 0


def test_seed_zero_inputs_are_korbits_own():
    assert workloads.DEG6_CATALOG == catalog.render_catalog(
        catalog.transitive_catalog(6))
    for n, gens in workloads.DIHEDRAL.items():
        G = kb.dihedral_group(n)
        assert workloads.group_text(n, gens, workloads.relabelling(0, "", n)) \
            == kb.render_group(G)
    assert workloads.catalog_text(0) == workloads.DEG6_CATALOG


def test_seeded_inputs_are_relabellings():
    orders = {"S2wrS4": 384, "S4wrS2": 1152, "S3wrS3": 1296,
              "S2wrS5": 3840, "S5wrS2": 28800, "C2wrC4": 64, "C3wrC3": 81}
    for workload in ("fks", "orbits"):
        zero = workloads.make_inputs(workload, 0)
        seven = workloads.make_inputs(workload, 7)
        assert seven == workloads.make_inputs(workload, 7)
        for name in zero:
            assert zero[name] != seven[name]
            A, B = kb.parse_group(zero[name]), kb.parse_group(seven[name])
            assert A.order == B.order == orders.get(name, A.order)
    seeded = kb.parse_catalog(workloads.catalog_text(3))
    plain = kb.parse_catalog(workloads.DEG6_CATALOG)
    assert [e.order for e in seeded] == [e.order for e in plain]


def test_fks_check_rejects_an_element_with_a_fixed_point():
    G = kb.parse_group(workloads.make_inputs("fks", 0)["C7"])
    op = {"op": "fks/C7", "ok": True, "group": "C7",
          "element": "(1 2 3 4 5 6 7)", "kinds": ["primitive-terminal"]}
    expected = {"kinds": {"C7": ["primitive-terminal"]}}
    assert workloads.check_fks(kb, {"C7": G}, {"ops": [op]}, expected) == []
    bad = dict(op, element="(1 2 3)")
    problems = workloads.check_fks(kb, {"C7": G}, {"ops": [bad]}, expected)
    assert not bad["ok"] and problems


def test_layer_table_matches_korbits_and_benchmark_json():
    assert list(layers.CHECK_IDS) == propcheck.check_ids()
    caches = set()
    for short in ("_backend", "perm", "partition", "group", "subgroups",
                  "korbit", "catalog", "propcheck", "fks"):
        mod = getattr(kb, short)
        caches |= {a for a, v in vars(mod).items()
                   if hasattr(v, "cache_info")
                   and v.__module__ == mod.__name__}
    assert caches == set(layers.CACHES) and len(layers.CACHES) == 16
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in layers.LAYERS]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_a_backend_other_than_the_requested_one_fails_the_run():
    if kb._backend.BACKEND == "numba":
        pytest.skip("numba is installed here")
    runner = run.Runner("orbits", 0, "numba")
    with pytest.raises(run.RunError, match="backend 'numpy' is running"):
        runner.spawn("--setup-only")


def test_run_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fks", "--seed",
         "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

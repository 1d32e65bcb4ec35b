"""The per-layer metrics of the traced run.

Each entry names the metric, its unit, which direction is better, and
the end-to-end metric and workload it should move (written down before
any measurement, so a later change can be checked against it).  The
`per_layer` list of BENCHMARK.json is this table without the last
column.
"""

CHECK_IDS = ("P_stab_co", "P_LkRk", "P_prim_normal", "C_simple", "P_index",
             "P_giso", "L_alt_norm", "C_no_tr", "P_equal_classes", "L_grAB",
             "P_capcup", "L_H_order", "P_incoherent", "P_triv_norm",
             "T_coherent", "L_elcoh_part", "T_elcoh", "L_block_aut",
             "L_proof_elcoh")

# the 16 functools.lru_cache functions of korbits
CACHES = ("transitive_catalog", "normalizer_in_sym", "orbit_of_tuple",
          "k_orbits", "classify_coherence", "stab_of_ksuborbit",
          "aut_of_kset", "orbits_on_kset", "translates_of_kset",
          "automorphic_analysis", "_deser_group", "_join_groups",
          "_aut_suborbit_partition_failure", "_translate_classes",
          "_translate_partition", "subgroup_classes")

FKS = "work_per_s on fks"
SUITE = "work_per_s on suite6"
ORBITS = "work_per_s on orbits"


def _layer(name, moves, unit=None, better="lower"):
    if unit is None:
        unit = "s" if name.endswith("self_s") else "count"
    return {"name": name, "unit": unit, "better": better, "moves": moves}


LAYERS = [
    _layer("backend.closure_images.calls", FKS),
    _layer("backend.closure_images.self_s", FKS),
    _layer("backend.closure_images.rows_out", FKS),
    _layer("subgroups.subgroup_classes.calls", FKS),
    _layer("subgroups.subgroup_classes.self_s", FKS),
    _layer("subgroups.subgroup_classes.classes_out", FKS, better="higher"),
    _layer("subgroups.closures_per_class", FKS, unit="ratio"),
    _layer("group.reduce_generators.calls", SUITE),
    _layer("group.reduce_generators.self_s", SUITE),
    _layer("group.close_group.calls", SUITE),
    _layer("group.group_from_images.calls", SUITE),
    _layer("korbit.translates_of_kset.calls", SUITE),
    _layer("korbit.translates_of_kset.self_s", SUITE),
    _layer("korbit.stab_of_ksuborbit.calls", SUITE),
    _layer("korbit.stab_of_ksuborbit.self_s", SUITE),
    _layer("korbit.aut_of_kset.calls", SUITE),
    _layer("korbit.aut_of_kset.self_s", SUITE),
    _layer("korbit.KSet.constructions", SUITE),
    _layer("korbit.check_ktuple.calls", SUITE),
    _layer("backend.tuple_orbits.calls", ORBITS),
    _layer("backend.tuple_orbits.self_s", ORBITS),
    _layer("backend.tuple_orbits.tuples_out", ORBITS, better="higher"),
    _layer("korbit.k_orbits.self_s", ORBITS),
    _layer("korbit.classify_coherence.self_s", ORBITS),
    _layer("korbit.orbits_on_kset.self_s", ORBITS),
    _layer("partition.smash.self_s", ORBITS),
    _layer("group.quotient_action.self_s", FKS),
    _layer("fks.lift_fpf.self_s", FKS),
    _layer("fks.find_fpf_prime_power.self_s", FKS),
    _layer("perm.Permutation.constructions", FKS),
    _layer("perm.analyze_element.calls", FKS),
]
for _cid in CHECK_IDS:
    LAYERS.append(_layer(f"propcheck.{_cid}.results", SUITE, better="higher"))
    LAYERS.append(_layer(f"propcheck.{_cid}.self_s", SUITE))
for _fn in CACHES:
    _moves = "peak_rss_mb on all; work_per_s on suite6"
    LAYERS.append(_layer(f"cache.{_fn}.hits", _moves, better="higher"))
    LAYERS.append(_layer(f"cache.{_fn}.misses", _moves))
LAYERS += [
    _layer("catalog.parse_catalog.self_s", "setup_s on suite6"),
    _layer("group.parse_group.self_s", "setup_s on fks and orbits"),
    _layer("trace.overhead", "nothing: traced / untraced work_per_s of "
           "the same run", unit="ratio", better="higher"),
]

# metric name -> key of the worker's raw layer counters, where they differ
_SOURCE = {
    "backend.closure_images.rows_out": "backend.closure_images.out",
    "subgroups.subgroup_classes.classes_out": "subgroups.subgroup_classes.out",
    "backend.tuple_orbits.tuples_out": "backend.tuple_orbits.out",
}
_SOURCE.update({f"propcheck.{c}.results": f"propcheck.{c}.calls"
                for c in CHECK_IDS})


# metrics of the set-up phase; every other metric counts the timed phase
SETUP_LAYERS = ("catalog.parse_catalog.self_s", "group.parse_group.self_s")


def timed_phase(at_end, at_setup):
    """Raw counters of the timed phase: those at the end of the pass
    minus those at the end of set-up, except the set-up layers, which
    keep their set-up value."""
    return {key: (at_setup.get(key, 0) if key in SETUP_LAYERS
                  else value - at_setup.get(key, 0))
            for key, value in at_end.items()}


def layer_metrics(raw, overhead):
    """Declared per-layer metrics from one traced pass's raw counters;
    a layer the workload never reached reads 0."""
    out = {}
    for m in LAYERS:
        name = m["name"]
        if name == "trace.overhead":
            value = overhead
        elif name == "subgroups.closures_per_class":
            classes = raw.get("subgroups.subgroup_classes.out", 0)
            value = (raw.get("subgroups.closures_in_classes", 0) / classes
                     if classes else 0.0)
        else:
            value = raw.get(_SOURCE.get(name, name), 0)
        out[name] = {"value": value, "unit": m["unit"]}
    return out

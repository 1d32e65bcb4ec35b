"""The structural-claim check registry: per-check soundness on pinned
contexts, recorded counterexamples, witness replay, suite determinism."""

import itertools
import json

import pytest

from korbits.catalog import transitive_catalog
from korbits.errors import DomainError, ResourceLimitError
from korbits.group import normalizer_in_sym, symmetric_group
from korbits.perm import Permutation, parse_permutation
from korbits.propcheck import (SuiteCaps, check_ids, render_report,
                               render_summary, replay_witness, run_check,
                               run_suite, _normal_proper_nontrivial)

KLEIN = ["(1 2)(3 4)", "(1 3)(2 4)"]


def klein_ctx(**extra):
    return {"degree": 4, "group": KLEIN, **extra}


ALL_IDS = ["P_stab_co", "P_LkRk", "P_prim_normal", "C_simple", "P_index",
           "P_giso", "L_alt_norm", "C_no_tr", "P_equal_classes", "L_grAB",
           "P_capcup", "L_H_order", "P_incoherent", "P_triv_norm",
           "T_coherent", "L_elcoh_part", "T_elcoh", "L_block_aut",
           "L_proof_elcoh"]


class TestRegistry:
    def test_registry_ids_fixed(self):
        assert list(check_ids()) == ALL_IDS

    def test_unknown_id_rejected(self):
        with pytest.raises(DomainError):
            run_check("P_nonsense", klein_ctx())
        with pytest.raises(DomainError):
            run_suite(transitive_catalog(2), check_ids=["P_nonsense"])


# Pinned contexts on which the named check passes: each exercises the
# check's hypothesis for real (not vacuously).
PASS_CASES = [
    ("P_stab_co", klein_ctx(tuple=[1])),
    ("P_LkRk", klein_ctx(k=1, suborbit=[[1]])),
    ("P_LkRk", {"degree": 4, "group": ["(1 2 3 4)"], "k": 2,
                "suborbit": [[1, 3], [3, 1]]}),
    ("P_index", {"degree": 4, "group": ["(1 2)", "(1 2 3 4)"],
                 "subgroup": ["(1 2 3)", "(1 2)(3 4)"],
                 "subgroup2": ["(1 2 3)"]}),
    ("P_equal_classes", klein_ctx(k=3, orbit_rep=[1, 2, 3])),
    ("L_grAB", klein_ctx(k=3, orbit_rep=[1, 2, 3])),
    ("P_capcup", klein_ctx(k=1, orbit_rep=[1])),
    ("L_H_order", klein_ctx(k=3, orbit_rep=[1, 2, 3])),
    ("P_incoherent", klein_ctx(k=2, orbit_rep=[1, 2])),
    ("P_triv_norm", {"degree": 4, "group": ["(2 3 4)", "(1 2)(3 4)"],
                     "k": 3, "orbit_rep": [1, 2, 3]}),
    ("T_coherent", klein_ctx(k=3, orbit_rep=[1, 2, 3])),
    ("L_elcoh_part", klein_ctx(k=3, orbit_rep=[1, 2, 3])),
    ("T_elcoh", klein_ctx(k=3, orbit_rep=[1, 2, 3])),
    ("L_block_aut", klein_ctx(k=1, orbit_rep=[1])),
]


class TestPassFixtures:
    @pytest.mark.parametrize("check_id,ctx", PASS_CASES,
                             ids=[f"{c}-{i}" for i, (c, _) in
                                  enumerate(PASS_CASES)])
    def test_pinned_pass(self, check_id, ctx):
        res = run_check(check_id, ctx)
        assert res.verdict == "pass", res.reason

    def test_prim_normal_inapplicable_on_prime_cycle(self):
        res = run_check("P_prim_normal",
                        {"degree": 5, "group": ["(1 2 3 4 5)"]})
        assert res.verdict == "inapplicable"

    def test_prim_normal_pass_on_s4(self):
        res = run_check("P_prim_normal",
                        {"degree": 4, "group": ["(1 2)", "(1 2 3 4)"],
                         "subgroup": ["(1 2 3)", "(1 2)(3 4)"]})
        assert res.verdict == "pass"

    def test_capcup_pinned_pair_with_different_unions_raises(self):
        """The translates of {(1,2)} cover the C4-orbit of (1,2), those of
        {(1,3)} the orbit of (1,3): the meet has no common domain."""
        ctx = {"degree": 4, "group": ["(1 2 3 4)"], "k": 2,
               "suborbit": [[1, 2]], "suborbit2": [[1, 3]]}
        with pytest.raises(DomainError, match="domain mismatch in meet"):
            run_check("P_capcup", ctx)


# Recorded counterexamples: real contexts where the claimed statement is
# false. These are findings, and the checks must keep reporting them.
CTX_ORDER36 = {
    "degree": 6,
    "group": ["(4 5 6)", "(2 3)(5 6)", "(1 2)(5 6)", "(1 4)(2 5)(3 6)"],
    "subgroup": ["(4 5 6)", "(2 3)(5 6)", "(1 2)(5 6)"],
    "subgroup2": ["(4 5 6)", "(2 3)(5 6)"],
}

CTX_GRAB = {
    "degree": 4, "group": KLEIN, "tuple": [1],
    "subgroup": KLEIN,
    "subgroup2": ["(1 2)(3 4)", "(1 3 2 4)"],
}

# t7.5, PSL(3,2) on 7 points: it lies in A7 and is its own normalizer in
# S7, because its two A7-classes fuse in S7.
CTX_PSL32 = {
    "degree": 7,
    "group": ["(4 5)(6 7)", "(4 6)(5 7)", "(2 3)(6 7)", "(2 4)(3 5)",
              "(1 2)(5 6)"],
}

RECORDED = [
    ("P_index", CTX_ORDER36),
    ("P_giso", CTX_ORDER36),
    ("L_grAB", CTX_GRAB),
    ("L_alt_norm", CTX_PSL32),
]


class TestCounterexamples:
    @pytest.mark.parametrize("check_id,ctx", RECORDED)
    def test_recorded_failures_still_fail(self, check_id, ctx):
        res = run_check(check_id, ctx)
        assert res.verdict == "fail"
        assert res.witness is not None
        assert "context" in res.witness and "detail" in res.witness

    @pytest.mark.parametrize("check_id,ctx", RECORDED)
    def test_witness_replays_standalone(self, check_id, ctx):
        witness = run_check(check_id, ctx).witness
        replay = replay_witness(witness, check_id)
        assert replay.verdict == "fail"


S4 = ["(1 2)", "(1 2 3 4)"]
A4 = ["(1 2 3)", "(1 2)(3 4)"]
INDEX_GUARDS = [
    ({"subgroup": A4, "subgroup2": ["(1 2)"]},
     "A is not a proper non-trivial subgroup of H"),
    ({"subgroup": ["(1 2)", "(3 4)"], "subgroup2": ["(1 2)"]},
     "H is not a proper normal subgroup of G"),
    ({"subgroup": A4, "subgroup2": KLEIN}, "N_H(A) != A"),
]
# Contexts that break one hypothesis each, with the exact reason
GUARDS = [
    ("P_stab_co", {"degree": 4, "group": ["(1 2 3 4)"], "tuple": [1, 2]},
     "tuple is not automorphic: its coordinate set is no suborbit"),
    ("P_LkRk", klein_ctx(k=2, suborbit=[[1, 2], [1, 3]]),
     "suborbit is not contained in a k-orbit"),
    ("P_LkRk", klein_ctx(k=1, suborbit=[[1], [2], [3]]),
     "stabilizer is not transitive on the k-set: not a suborbit"),
    ("P_prim_normal", {"degree": 4, "group": S4, "subgroup": ["(1 2)"]},
     "subgroup is trivial or not normal"),
    ("P_prim_normal", {"degree": 4, "group": S4, "subgroup": []},
     "subgroup is trivial or not normal"),
    *((check_id, {"degree": 4, "group": S4, **extra}, reason)
      for check_id in ("P_index", "P_giso") for extra, reason in INDEX_GUARDS),
    ("L_grAB", klein_ctx(tuple=[1], subgroup=["(3 4)"], subgroup2=KLEIN),
     "no pair of regular suborbits through a common tuple"),
    ("L_grAB", klein_ctx(tuple=[1], subgroup=KLEIN, subgroup2=["(3 4)"]),
     "no pair of regular suborbits through a common tuple"),
]


C5 = {"degree": 5, "group": ["(1 2 3 4 5)"], "k": 2}
# pinned k-sets with a point beyond the degree, as a hand-edited witness
# replays: refused wherever the point is
OUT_OF_RANGE = [
    ("P_LkRk", {**C5, "suborbit": [[1, 2], [2, 9]]}),
    ("P_LkRk", {**C5, "suborbit": [[7, 8], [8, 9]]}),
    ("P_capcup", {**C5, "suborbit": [[1, 6]], "suborbit2": [[1, 2]]}),
]


class TestHypothesisGuards:
    @pytest.mark.parametrize("check_id,ctx,reason", GUARDS,
                             ids=[f"{c}-{i}" for i, (c, _, _) in
                                  enumerate(GUARDS)])
    def test_broken_hypothesis_gives_its_reason(self, check_id, ctx, reason):
        res = replay_witness({"context": ctx}, check_id)
        assert (res.verdict, res.reason) == ("inapplicable", reason)

    @pytest.mark.parametrize("check_id,ctx", OUT_OF_RANGE,
                             ids=[f"{c}-{i}" for i, (c, _) in
                                  enumerate(OUT_OF_RANGE)])
    def test_point_beyond_the_degree_is_refused(self, check_id, ctx):
        with pytest.raises(DomainError, match="point out of range for this group"):
            replay_witness({"context": ctx}, check_id)


class TestHypothesisOnlyChecks:
    """Checks whose hypothesis is never met at small degree: the
    evaluator must report inapplicable, and the underlying predicates
    must be demonstrably non-vacuous."""

    def test_c_simple_inapplicable_on_s4(self):
        res = run_check("C_simple", {"degree": 4,
                                     "group": ["(1 2)", "(1 2 3 4)"]})
        assert res.verdict == "inapplicable"

    def test_c_no_tr_inapplicable_on_s4(self):
        res = run_check("C_no_tr", {"degree": 4,
                                    "group": ["(1 2)", "(1 2 3 4)"]})
        assert res.verdict == "inapplicable"

    def test_l_proof_elcoh_inapplicable_on_s4(self):
        res = run_check("L_proof_elcoh", {"degree": 4,
                                          "group": ["(1 2)", "(1 2 3 4)"]})
        assert res.verdict == "inapplicable"

    def test_normality_predicate_not_vacuous(self):
        # S4 has proper non-trivial normal subgroups (A4, V4)
        reps = _normal_proper_nontrivial(symmetric_group(4), 10 ** 4)
        assert sorted(H.order for H in reps) == [4, 12]

    def test_self_normalizing_predicate_not_vacuous(self):
        assert normalizer_in_sym(symmetric_group(4)) == symmetric_group(4)

    def test_l_alt_norm_builds_no_alternating_group(self):
        """A5 on the 10 pairs of {1..5} lies in A10, read from the parity
        of its generators: the check gets as far as the n! normalizer
        search, whose element cap stops it, instead of enumerating
        |A10| = 1,814,400 elements."""
        pairs = list(itertools.combinations(range(1, 6), 2))

        def on_pairs(cycle):
            g = parse_permutation(cycle, 5)
            return Permutation(pairs.index(tuple(sorted((g(a), g(b))))) + 1
                               for a, b in pairs).cycle_string()

        ctx = {"degree": 10,
               "group": [on_pairs("(1 2 3 4 5)"), on_pairs("(1 2 3)")]}
        with pytest.raises(ResourceLimitError) as info:
            run_check("L_alt_norm", ctx)
        assert info.value.cap_name == "max-elements"


class TestSuite:
    def test_suite_deterministic(self):
        a = run_suite(transitive_catalog(4))
        b = run_suite(transitive_catalog(4))
        assert render_report(a) == render_report(b)

    def test_suite_failures_replay(self):
        report = run_suite(transitive_catalog(4))
        for r in report.failures():
            assert replay_witness(r.witness, r.check_id).verdict == "fail"

    def test_tallies_match_results(self):
        report = run_suite(transitive_catalog(3))
        counted = {}
        for r in report.results:
            counted.setdefault(r.check_id, {"pass": 0, "fail": 0,
                                            "inapplicable": 0, "skipped": 0})
            counted[r.check_id][r.verdict] += 1
        for cid, t in report.tallies.items():
            assert counted.get(cid, t) == t or sum(t.values()) == 0

    @pytest.mark.parametrize("check_id", ALL_IDS)
    def test_every_result_carries_its_check_id(self, check_id):
        report = run_suite(transitive_catalog(4), check_ids=[check_id])
        assert report.results
        for r in report.results:
            assert r.check_id == check_id
            assert run_check(check_id, r.context).check_id == check_id

    def test_check_filter(self):
        report = run_suite(transitive_catalog(3), check_ids=["P_capcup"])
        assert {r.check_id for r in report.results} == {"P_capcup"}

    def test_k_range_filter_applies(self):
        report = run_suite(transitive_catalog(3), k_range=[2],
                           check_ids=["T_coherent"])
        assert all(r.context.get("k") in (2, None) for r in report.results)

    def test_report_records_are_json(self):
        report = run_suite(transitive_catalog(2))
        for line in render_report(report).splitlines():
            rec = json.loads(line)
            assert rec["check"] in ALL_IDS
            assert rec["verdict"] in ("pass", "fail", "inapplicable",
                                      "skipped")

    def test_summary_lists_every_check(self):
        text = render_summary(run_suite(transitive_catalog(2)))
        for cid in ALL_IDS:
            assert cid in text

    def test_small_caps_produce_skips_not_crashes(self):
        caps = SuiteCaps(max_subgroup_order=2)
        report = run_suite(transitive_catalog(4), caps=caps)
        assert all(r.verdict in ("pass", "fail", "inapplicable", "skipped")
                   for r in report.results)
        assert any(r.verdict == "skipped" for r in report.results)

    def test_subgroup_cap_leaves_coherence_checks_evaluated(self):
        """`P_incoherent` and `T_elcoh` read cyclic classes from element
        powers and no subgroup lattice, so a subgroup cap of 2 skips none
        of their 51 contexts each (23 of each were skipped when coherence
        read the lattice) and changes none of their results."""
        def coherence(caps):
            report = run_suite(transitive_catalog(4), caps=caps)
            return [r for r in report.results
                    if r.check_id in ("P_incoherent", "T_elcoh")]
        small = coherence(SuiteCaps(max_subgroup_order=2))
        assert len(small) == 2 * 51
        assert not any(r.verdict == "skipped" for r in small)
        assert small == coherence(SuiteCaps())

    @pytest.mark.parametrize("cap, reasons", [
        # the closure of S3, and the 3! filter of Sym on the points of C3
        ({"max_elements": 5}, {"max-elements cap exceeded: need > 5, cap is 5",
                               "max-elements cap exceeded: need 6, cap is 5"}),
        ({"max_tuples": 5}, {"max-tuples cap exceeded: need 6, cap is 5"})],
        ids=["max_elements", "max_tuples"])
    def test_element_and_tuple_caps_reach_the_suite(self, cap, reasons):
        report = run_suite(transitive_catalog(3), caps=SuiteCaps(**cap))
        skipped = {r.reason.split(" (raise with")[0]
                   for r in report.results if r.verdict == "skipped"}
        assert skipped == reasons


# C9 and its 8-orbit of (1, ..., 8), whose union has 9 points
C9 = {"degree": 9, "group": ["(1 2 3 4 5 6 7 8 9)"]}
C9_CONTEXTS = [
    ("P_stab_co", {**C9, "tuple": list(range(1, 10))}),
    *((check_id, {**C9, "k": 8, "orbit_rep": list(range(1, 9))})
      for check_id in ("P_equal_classes", "L_grAB", "L_H_order",
                       "P_triv_norm", "T_coherent", "L_elcoh_part",
                       "T_elcoh"))]


class TestAutPointCap:
    """Every check that builds Aut(X) counts the 9! permutations of its
    filter against `SuiteCaps.max_elements`, the cap of `--max-elements`."""

    @pytest.mark.parametrize("check_id, ctx", C9_CONTEXTS,
                             ids=[c for c, _ in C9_CONTEXTS])
    def test_max_elements_reaches_aut(self, check_id, ctx):
        with pytest.raises(ResourceLimitError,
                           match=r"max-elements cap exceeded: need 362880, "
                                 r"cap is 362879 \(raise with --max-elements\)"):
            run_check(check_id, ctx, SuiteCaps(max_elements=362879))
        res = run_check(check_id, ctx, SuiteCaps(max_elements=362880))
        assert res.verdict in ("pass", "fail", "inapplicable")

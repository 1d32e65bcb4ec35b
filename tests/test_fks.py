"""Fixed-point-free prime-power elements: direct search, quotient
lifting, the reduction pipeline, trace persistence, the terminal audit."""

import importlib.util
import itertools
import re
from pathlib import Path

import pytest

from korbits import fks, korbit, propcheck
from korbits import group as group_module
from korbits.catalog import parse_catalog, transitive_catalog
from korbits.errors import DomainError, ParseError, ResourceLimitError
from korbits.fks import (find_fpf_prime_power, fks_pipeline, iso_partitions,
                         lift_fpf, load_trace, not_primitive_reason,
                         parse_trace, preimages_of, proof_audit, render_trace,
                         replay_trace, save_trace, terminal_case,
                         trace_from_dict, trace_to_dict)
from korbits.group import (alternating_group, block_systems, close_group,
                           cyclic_group, dihedral_group, is_transitive,
                           klein_four_group, normalizer_in_sym, parse_group,
                           symmetric_group)
from korbits.partition import Partition
from korbits.perm import Permutation, analyze_element, parse_permutation
from korbits.propcheck import SuiteCaps, run_check, run_suite
from korbits.subgroups import DEFAULT_SUBGROUP_CAP, subgroup_classes

# the checks whose hypothesis is the terminal case
TERMINAL_CHECKS = ("C_simple", "C_no_tr", "L_proof_elcoh")


def on_pairs(*cycles):
    """The group that the given permutations of {1..5} generate on the
    10 pairs of {1..5}."""
    pairs = list(itertools.combinations(range(1, 6), 2))

    def act(cycle):
        g = parse_permutation(cycle, 5)
        return Permutation(pairs.index(tuple(sorted((g(a), g(b))))) + 1
                           for a, b in pairs)

    return close_group([act(c) for c in cycles])


def bench_fks_groups(seeds):
    """The groups of the benchmark's `fks` workload at the given seeds."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [parse_group(text) for seed in seeds
            for text in workloads.make_inputs("fks", seed).values()]


class TestDirectSearch:
    def test_s3(self):
        g = find_fpf_prime_power(symmetric_group(3))
        assert g == parse_permutation("(1 2 3)", 3)

    def test_c2(self):
        assert find_fpf_prime_power(cyclic_group(2)) == \
            parse_permutation("(1 2)", 2)

    def test_intransitive_may_have_none(self):
        G = close_group([parse_permutation("(1 2)", 3)])
        assert find_fpf_prime_power(G) is None

    def test_canonically_least(self):
        G = symmetric_group(4)
        g = find_fpf_prime_power(G)
        cands = [h for h in G.elements
                 if analyze_element(h).is_fpf_prime_power]
        assert g == min(cands, key=lambda h: h.images)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_transitive_group_has_one(self, n):
        for entry in transitive_catalog(n):
            g = find_fpf_prime_power(entry.group())
            assert g is not None
            assert analyze_element(g).is_fpf_prime_power


class TestLift:
    def test_c6_lift(self):
        G = cyclic_group(6)
        Q = Partition([{1, 4}, {2, 5}, {3, 6}])
        g_quot = parse_permutation("(1 2 3)", 3)
        lifted = lift_fpf(G, Q, g_quot)
        assert lifted == parse_permutation("(1 3 5)(2 4 6)", 6)

    def test_every_preimage_lifts(self):
        G = dihedral_group(4)
        Q = Partition([{1, 3}, {2, 4}])
        g_quot = parse_permutation("(1 2)", 2)
        pre = preimages_of(G, Q, g_quot)
        assert len(pre) == 4
        for p in pre:
            lifted = lift_fpf(G, Q, g_quot, preimage=p)
            assert analyze_element(lifted).is_fpf_prime_power

    def test_rejects_non_fpf_quotient_element(self):
        G = dihedral_group(4)
        Q = Partition([{1, 3}, {2, 4}])
        with pytest.raises(DomainError):
            lift_fpf(G, Q, parse_permutation("()", 2))

    def test_rejects_non_prime_power_quotient_element(self):
        G = cyclic_group(12)
        Q = Partition([{1, 7}, {2, 8}, {3, 9}, {4, 10}, {5, 11}, {6, 12}])
        with pytest.raises(DomainError):
            lift_fpf(G, Q, parse_permutation("(1 2 3 4 5 6)", 6))

    def test_rejects_wrong_preimage(self):
        G = cyclic_group(6)
        Q = Partition([{1, 4}, {2, 5}, {3, 6}])
        with pytest.raises(DomainError):
            lift_fpf(G, Q, parse_permutation("(1 2 3)", 3),
                     preimage=parse_permutation("()", 6))

    def test_preimages_match_induced_action(self):
        """Reference: induce each element's action on the classes."""
        for entry in transitive_catalog(6):
            G = entry.group()
            for Q in block_systems(G):
                classes = list(Q.classes)
                induced = {g: Permutation(
                    classes.index(frozenset(g(x) for x in c)) + 1
                    for c in classes) for g in G.elements}
                for g_quot in set(induced.values()):
                    assert preimages_of(G, Q, g_quot) == \
                        [g for g in G.elements if induced[g] == g_quot]

    def test_rejects_element_outside_quotient(self):
        G = cyclic_group(6)
        Q = Partition([{1, 4}, {2, 5}, {3, 6}])
        with pytest.raises(DomainError):
            preimages_of(G, Q, parse_permutation("(1 2)", 3))


class TestPipeline:
    def test_c6_quotients_to_degree_3(self):
        trace = fks_pipeline(cyclic_group(6))
        assert trace.steps[0]["kind"] == "quotient"
        assert trace.steps[0]["quotient_degree"] == 3
        assert trace.result["element"] == "(1 3 5)(2 4 6)"
        assert trace.result["prime"] == 3 and trace.result["power"] == 1

    def test_s3_descends(self):
        trace = fks_pipeline(symmetric_group(3))
        assert trace.steps[0]["kind"] == "descend-to-transitive-subgroup"
        assert trace.result["element"] == "(1 2 3)"

    def test_c5_terminal(self):
        trace = fks_pipeline(cyclic_group(5))
        assert trace.steps[0]["kind"] == "primitive-terminal"
        assert trace.steps[0]["audit"] is None
        assert "Abelian" in trace.steps[0]["audit_error"]
        assert trace.result["agrees"]

    def test_requires_transitive(self):
        with pytest.raises(DomainError):
            fks_pipeline(close_group([parse_permutation("(1 2)", 3)]))

    def test_requires_degree_two(self):
        """The trivial group on one point is transitive, but the theorem
        needs degree at least 2; a replay of such a trace is rejected
        the same way."""
        with pytest.raises(DomainError, match="degree at least 2"):
            fks_pipeline(close_group([], degree=1))
        trace = trace_from_dict({"degree": 1, "generators": [], "steps": [],
                                 "result": {"element": "()"}})
        with pytest.raises(DomainError, match="degree at least 2"):
            replay_trace(trace)

    def test_result_always_verified(self):
        for n in range(2, 7):
            for entry in transitive_catalog(n):
                trace = fks_pipeline(entry.group())
                a = trace.analysis()
                assert a.is_fpf_prime_power
                assert a.order == trace.result["order"]
                assert trace.result["prime"] ** trace.result["power"] == \
                    trace.result["order"]

    def test_search_element_recorded(self):
        trace = fks_pipeline(klein_four_group())
        G = klein_four_group()
        assert trace.result["search_element"] == \
            find_fpf_prime_power(G).cycle_string()

    def test_a_failed_lift_raises(self, monkeypatch):
        """D4 has one block system; a lift that fails there raises
        instead of being recorded in the trace."""
        assert len(block_systems(dihedral_group(4))) == 1

        def broken(G, Q, g_quot):
            raise DomainError("lift postcondition failed")

        monkeypatch.setattr(fks, "lift_fpf", broken)
        with pytest.raises(DomainError, match="lift postcondition failed"):
            fks_pipeline(dihedral_group(4))

    def test_one_quotient_per_level(self):
        """Each imprimitive level of a trace quotients once, by the block
        system with the smallest blocks, and records its lift."""
        def check(trace):
            quotients = [s for s in trace["steps"] if s["kind"] == "quotient"]
            assert len(quotients) <= 1
            for s in quotients:
                assert set(s) == {"kind", "blocks", "quotient_degree",
                                  "quotient_trace", "quotient_element",
                                  "lifted"}
                check(s["quotient_trace"])
            return len(quotients)

        for n in range(2, 7):
            for entry in transitive_catalog(n):
                G = entry.group()
                systems = block_systems(G)
                trace = trace_to_dict(fks_pipeline(G))
                assert check(trace) == (1 if systems else 0)
                if systems:
                    size = min(max(map(len, Q.classes)) for Q in systems)
                    assert len(trace["steps"][0]["blocks"][0]) == size


class TestTracePersistence:
    def test_roundtrip_file(self, tmp_path):
        trace = fks_pipeline(dihedral_group(4))
        path = tmp_path / "d4.trace"
        save_trace(trace, path)
        assert load_trace(path) == trace

    def test_render_parse_roundtrip(self):
        trace = fks_pipeline(cyclic_group(6))
        assert parse_trace(render_trace(trace)) == trace

    def test_dict_roundtrip(self):
        trace = fks_pipeline(symmetric_group(4))
        assert trace_from_dict(trace_to_dict(trace)) == trace

    def test_replay(self):
        trace = fks_pipeline(cyclic_group(6))
        assert replay_trace(trace)

    def test_replay_keeps_max_elements(self):
        """The audit of A5 on the 10 pairs of {1..5} records the element
        cap that stopped its n! normalizer search, so a replay must run
        with the same cap."""
        G = on_pairs("(1 2 3)", "(1 2 3 4 5)")
        trace = fks_pipeline(G, max_elements=3628799)
        assert G.order == 60
        assert "need 3628800, cap is 3628799" in trace.steps[-1]["audit_error"]
        assert replay_trace(trace, max_elements=3628799)
        assert not replay_trace(trace)

    def test_replay_detects_tampering(self):
        trace = fks_pipeline(cyclic_group(6))
        d = trace_to_dict(trace)
        d["result"]["element"] = "(1 4)(2 5)(3 6)"
        assert not replay_trace(trace_from_dict(d))

    @pytest.mark.parametrize("bad", [
        "not json\n",
        '{"record": "mystery"}\n',
        '{"record": "group", "degree": 3, "generators": ["(1 2 3)"]}\n',
        '{"record": "result", "element": "(1 2 3)"}\n',
        "",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_trace(bad)


class TestAudit:
    def test_rejects_intransitive(self):
        with pytest.raises(DomainError, match="intransitive"):
            proof_audit(close_group([parse_permutation("(1 2)", 3)]))

    def test_rejects_abelian_primitive(self):
        with pytest.raises(DomainError, match="not primitive"):
            proof_audit(cyclic_group(5))

    def test_rejects_imprimitive(self):
        with pytest.raises(DomainError, match="not primitive"):
            proof_audit(cyclic_group(4))

    def test_rejects_group_with_proper_transitive_subgroup(self):
        with pytest.raises(DomainError, match="proper transitive subgroup"):
            proof_audit(symmetric_group(4))

    def test_no_terminal_instance_at_small_degree(self):
        """Every paper-primitive group of degree <= 6 has a proper
        transitive subgroup, so the terminal case never fires there."""
        for n in range(2, 7):
            for entry in transitive_catalog(n):
                G = entry.group()
                with pytest.raises(DomainError):
                    proof_audit(G)

    def test_subgroup_cap_reaches_every_lattice(self, monkeypatch):
        """Every subgroup lattice that the audit of A5 on the 10 pairs
        reads, the iso partitions' included, is built at the cap the
        audit is given. The normalizer, S5 on the pairs, is stubbed in:
        the n! search at degree 10 is too large here."""
        calls = []

        def spy(H, max_order=DEFAULT_SUBGROUP_CAP, **bound):
            calls.append(max_order)
            return subgroup_classes(H, max_order=max_order, **bound)

        N = on_pairs("(1 2)", "(1 2 3 4 5)")
        monkeypatch.setattr(fks, "normalizer_in_sym",
                            lambda G, max_elements: N)
        for mod in (fks, korbit):
            monkeypatch.setattr(mod, "subgroup_classes", spy)
        # uncached, so that a cached earlier analysis cannot hide a call
        for name in ("automorphic_analysis", "classify_coherence"):
            monkeypatch.setattr(fks, name, getattr(korbit, name).__wrapped__)
        G = on_pairs("(1 2 3)", "(1 2 3 4 5)")
        record = proof_audit(G, max_subgroup_order=60, max_elements=3628800)
        assert calls and set(calls) == {60}
        assert (N.order, record.normalizer_proper, record.chosen_k) == \
            (120, True, 10)
        assert len(record.partitions) == 1


class TestTerminalCase:
    """One decision of the terminal case, `terminal_case`, read by the
    pipeline, the audit and the three checks of its hypothesis."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_checks_and_audit_give_one_reason(self, n):
        groups = [e.group() for e in transitive_catalog(n)]
        groups.append(close_group([parse_permutation("(1 2)", n + 2)]))
        for G in groups:
            why, _ = terminal_case(G)
            assert why
            ctx = {"degree": G.degree,
                   "group": [g.cycle_string() for g in G.generators]}
            for check_id in TERMINAL_CHECKS:
                res = run_check(check_id, ctx)
                assert (res.verdict, res.reason) == ("inapplicable", why)
            with pytest.raises(DomainError, match="^audit hypothesis violated: "
                                                  f"{re.escape(why)}$"):
                proof_audit(G)
        assert terminal_case(groups[-1])[0] == "group is intransitive"

    @pytest.mark.parametrize("gens,why", [
        (["(1 2)"], "group is intransitive"),
        (["(1 2)(3 4)", "(1 3)(2 4)"],
         "group is not primitive (non-Abelian convention)"),
    ])
    def test_prim_normal_gives_the_same_first_two_reasons(self, gens, why):
        G = close_group([parse_permutation(g, 4) for g in gens])
        assert not_primitive_reason(G) == terminal_case(G)[0] == why
        res = run_check("P_prim_normal", {"degree": 4, "group": gens})
        assert (res.verdict, res.reason) == ("inapplicable", why)
        # the suite's context generator reads the same helper
        cat = parse_catalog(f"degree 4\nt | {G.order} | transitive:"
                            f"{int(why != 'group is intransitive')} | "
                            f"{', '.join(gens)}\n")
        report = run_suite(cat, k_range=[2], check_ids=["P_prim_normal"])
        assert [(r.verdict, r.reason) for r in report.results] == \
            [("inapplicable", why)]

    def test_least_transitive_subgroup_is_the_descent(self):
        for entry in transitive_catalog(5):
            G = entry.group()
            why, A = terminal_case(G)
            steps = fks_pipeline(G).steps
            if A is not None:
                assert why.startswith("proper transitive subgroup of order "
                                      f"{A.order} ")
                assert steps[0]["kind"] == "descend-to-transitive-subgroup"
                assert steps[0]["subgroup_generators"] == \
                    [g.cycle_string() for g in A.generators]

    @pytest.mark.parametrize("proper", [True, False])
    def test_a5_on_pairs_reaches_every_reader(self, monkeypatch, proper):
        """A5 on the 10 pairs of {1..5} is terminal. With the normalizer
        stubbed in (S5 on the pairs, or G itself), the checks give
        verdicts that agree with the audit and the pipeline records the
        same audit."""
        G = on_pairs("(1 2 3)", "(1 2 3 4 5)")
        N = on_pairs("(1 2)", "(1 2 3 4 5)") if proper else G
        for mod in (fks, propcheck):
            monkeypatch.setattr(mod, "normalizer_in_sym",
                                lambda G, max_elements: N)
        assert terminal_case(G) == (None, None)
        record = proof_audit(G, max_elements=3628800)
        assert record.normalizer_proper == proper
        assert fks_pipeline(G, max_elements=3628800).steps[-1]["audit"] == \
            record.as_dict()
        ctx = {"degree": 10, "group": [g.cycle_string() for g in G.generators]}
        simple, no_tr, elcoh = (run_check(c, ctx, SuiteCaps(max_elements=3628800))
                                for c in TERMINAL_CHECKS)
        assert simple.verdict == "pass"      # A5 is simple
        assert (no_tr.verdict == "pass") == record.normalizer_proper
        assert no_tr.verdict in ("pass", "fail")
        bad = [(p["classes"], i) for p in record.partitions
               for i, ok in enumerate(p["projections_elementary_coherent"])
               if not ok]
        assert record.partitions and bad
        assert elcoh.verdict == "fail"
        assert elcoh.witness["detail"]["classes"] == bad[0][0]

    def test_audit_records_only_a_cap_error(self, monkeypatch):
        """The pipeline records a cap error of the terminal audit
        (`test_replay_keeps_max_elements`); any other exception of the
        audit propagates."""
        G = on_pairs("(1 2 3)", "(1 2 3 4 5)")
        monkeypatch.setattr(fks, "normalizer_in_sym", lambda G, max_elements: G)

        def broken(*args):
            raise IndexError("audit bug")
        monkeypatch.setattr(fks, "_audit_terminal", broken)
        with pytest.raises(IndexError, match="audit bug"):
            fks_pipeline(G, max_elements=3628800)

    def test_pipeline_decides_the_terminal_case_once(self, monkeypatch):
        """On a terminal G the pipeline hands its decision to the audit:
        one `terminal_case` per pipeline, and `block_systems` once in
        the pipeline and once in that decision."""
        G = on_pairs("(1 2 3)", "(1 2 3 4 5)")
        monkeypatch.setattr(fks, "normalizer_in_sym", lambda G, max_elements: G)
        calls = {"terminal_case": 0, "block_systems": 0}

        def counted(mod, name):
            real = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(mod, name, wrapper)

        counted(fks, "terminal_case")
        counted(fks, "block_systems")
        counted(group_module, "block_systems")
        steps = fks_pipeline(G, max_elements=3628800).steps
        assert steps[-1]["kind"] == "primitive-terminal"
        assert steps[-1]["audit"] is not None
        assert calls == {"terminal_case": 1, "block_systems": 2}

    def test_subgroup_matches_the_full_lattice(self):
        """The descent subgroup is the first proper transitive class of
        the full lattice, whether `terminal_case` read the lattice
        bounded at the degree (G holds an n-cycle) or the full one."""
        groups = [e.group() for n in range(2, 8) for e in transitive_catalog(n)]
        groups += bench_fks_groups(range(4))
        groups.append(on_pairs("(1 2 3)", "(1 2 3 4 5)"))
        for G in groups:
            why, A = terminal_case(G)
            if not_primitive_reason(G):
                assert (why, A) == (not_primitive_reason(G), None)
                continue
            want = next((c.rep for c in subgroup_classes(G)
                         if c.order < G.order and is_transitive(c.rep)), None)
            assert A == want
            assert why == (None if A is None else
                           f"proper transitive subgroup of order {A.order} exists")

    @pytest.mark.parametrize("n", range(1, 8))
    def test_full_cycle_matches_cycle_decomposition(self, n):
        for entry in transitive_catalog(n):
            G = entry.group()
            want = any(len(c) == n > 1 for g in G.elements for c in g.cycles())
            assert fks._has_full_cycle(G) == want, entry.entry_id

    @pytest.mark.parametrize("G,bounded", [
        (symmetric_group(6), True),
        (alternating_group(7), True),
        (alternating_group(6), False),
        (next(e.group() for e in transitive_catalog(6) if e.order == 60), False),
        (on_pairs("(1 2 3)", "(1 2 3 4 5)"), False),
    ], ids=["S6", "A7", "A6", "PSL25", "A5-pairs"])
    def test_reads_one_lattice(self, monkeypatch, G, bounded):
        """A group with an n-cycle has its lattice built up to order n;
        any other group reads the one cached full lattice that every
        other caller reads, without building a second."""
        subgroup_classes(G, max_order=DEFAULT_SUBGROUP_CAP)
        before = subgroup_classes.cache_info()
        calls = []

        def spy(H, **kwargs):
            calls.append(kwargs)
            return subgroup_classes(H, **kwargs)

        monkeypatch.setattr(fks, "subgroup_classes", spy)
        terminal_case(G)
        after = subgroup_classes.cache_info()
        if bounded:
            assert calls == [{"max_order": DEFAULT_SUBGROUP_CAP,
                              "upto": G.degree}]
        else:
            assert calls == [{"max_order": DEFAULT_SUBGROUP_CAP}]
            assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    @pytest.mark.parametrize("G,cap,need", [
        (symmetric_group(8), DEFAULT_SUBGROUP_CAP, 40320),
        (alternating_group(7), 100, 2520),
    ], ids=["S8", "A7"])
    def test_cap_names_its_flag(self, G, cap, need):
        """A group over the cap raises before any lattice is built,
        bounded or not, with the flag that raises the cap."""
        msg = (f"max-subgroup-order cap exceeded: need {need}, cap is {cap} "
               "(raise with --max-subgroup-order)")
        for run in (terminal_case, fks_pipeline):
            with pytest.raises(ResourceLimitError) as exc:
                run(G, max_subgroup_order=cap)
            assert str(exc.value) == msg


class TestIsoPartitions:
    def test_degree_must_divide(self):
        G = symmetric_group(4)
        assert iso_partitions(G, normalizer_in_sym(G), 3) == []

    def test_klein_pairs(self):
        G = klein_four_group()
        N = normalizer_in_sym(G)
        found = iso_partitions(G, N, 2)
        assert found
        for part, projs in found:
            assert all(len(c) == 2 for c in part.classes)
            assert len(projs) == len(part.classes)

"""Acceptance gate: the end-to-end guarantees the package makes.

Each test here states one externally checkable contract; together they
are the bar the library must clear on every run.
"""

import hashlib
import math
import pathlib
import random

import pytest

from korbits.catalog import parse_catalog, render_catalog, transitive_catalog
from korbits.fks import (find_fpf_prime_power, fks_pipeline, lift_fpf,
                         parse_trace, preimages_of, render_trace)
from korbits.group import (block_systems, close_group, klein_four_group,
                           parse_group, quotient_action, render_group)
from korbits.korbit import (KSet, k_orbits, left_act, orbit_of_tuple,
                            pointwise_tuple_stabilizer, project, right_act,
                            render_norbit)
from korbits.perm import Permutation, analyze_element, parse_permutation
from korbits.propcheck import (render_report, replay_witness, run_suite)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestActionExamples:
    """Criterion 1: the defining left/right action computations."""

    def test_left_action(self):
        g = parse_permutation("(1 2 3)", 3)
        X = KSet([(1, 2, 3), (1, 3, 2)])
        assert left_act(g, X) == KSet([(2, 3, 1), (2, 1, 3)])

    def test_right_action(self):
        g = parse_permutation("(1 2 3)", 3)
        X = KSet([(1, 2, 3), (1, 3, 2)])
        assert right_act(X, g) == KSet([(2, 3, 1), (3, 2, 1)])


class TestMatrixFixture:
    """Criterion 2: the rendered coset matrix matches the committed
    fixture byte for byte."""

    def test_klein_two_cell_matrix(self):
        G = klein_four_group()
        A = close_group([parse_permutation("(1 2)(3 4)", 4)])
        expected = (FIXTURES / "klein_norbit.txt").read_text()
        assert render_norbit(G, [A, G]) == expected


class TestOrbitIdentities:
    """Criterion 3: counting identities over every transitive group of
    degree <= 6 and every arity."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_identities(self, n):
        for entry in transitive_catalog(n):
            G = entry.group()
            for k in range(1, n + 1):
                orbs = k_orbits(G, k)
                # the orbits partition all non-diagonal k-tuples
                assert sum(len(X) for X in orbs) == math.perm(n, k)
                for X in orbs:
                    rep = X.tuples[0]
                    # orbit-stabilizer
                    H = pointwise_tuple_stabilizer(G, rep)
                    assert len(X) * H.order == G.order
                # projection equivariance on the first orbit
                if k >= 2:
                    X = orbs[0]
                    for g in G.generators:
                        assert project(left_act(g, X), (1, k)) == \
                            left_act(g, project(X, (1, k)))


class TestMeetJoinIdentities:
    """Criterion 4: the coset-partition meet/join law holds on every
    instance over degrees 2..5 (zero failures)."""

    @pytest.mark.parametrize("n", range(2, 6))
    def test_no_failures(self, n):
        report = run_suite(transitive_catalog(n), check_ids=["P_capcup"])
        assert not report.failures()
        assert any(r.verdict == "pass" for r in report.results)


class TestFpfExistence:
    """Criterion 5: every transitive group of degree 2..7 contains a
    fixed-point-free prime-power element, found by direct search and by
    the reduction pipeline."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_search_and_pipeline(self, n):
        for entry in transitive_catalog(n):
            G = entry.group()
            g = find_fpf_prime_power(G)
            assert g is not None, entry.entry_id
            assert analyze_element(g).is_fpf_prime_power
            trace = fks_pipeline(G)
            assert trace.analysis().is_fpf_prime_power


class TestLiftTotality:
    """Criterion 6: the quotient lift succeeds from every preimage of
    every fpf prime-power quotient element, over every minimal block
    system of every imprimitive group of degree <= 7 (order <= 10^3)."""

    @pytest.mark.parametrize("n", range(4, 8))
    def test_all_lifts(self, n):
        for entry in transitive_catalog(n):
            G = entry.group()
            if G.order > 10 ** 3:
                continue
            for Q in block_systems(G):
                quot = quotient_action(G, Q)
                for gq in quot.elements:
                    if not analyze_element(gq).is_fpf_prime_power:
                        continue
                    for pre in preimages_of(G, Q, gq):
                        lifted = lift_fpf(G, Q, gq, preimage=pre)
                        assert analyze_element(lifted).is_fpf_prime_power


# SHA-256 of render_report(run_suite(transitive_catalog(6)))
SUITE6_DIGEST = "63c234cf2a78c5434e3c8987c3e66e2c1c1f92da045ac1200a059ef9e08fcaef"


class TestSuiteContract:
    """Criterion 7: the full check suite over degrees 2..6 runs without
    crashing, is byte-identical across runs, and every failure replays
    from its embedded witness context alone. The degree-6 report is
    pinned by its digest."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_deterministic_and_replayable(self, n):
        first = run_suite(transitive_catalog(n))
        second = run_suite(transitive_catalog(n))
        assert render_report(first) == render_report(second)
        if n == 6:
            digest = hashlib.sha256(render_report(first).encode()).hexdigest()
            assert digest == SUITE6_DIGEST
        for r in first.results:
            assert r.verdict in ("pass", "fail", "inapplicable", "skipped")
        for r in first.failures():
            assert replay_witness(r.witness, r.check_id).verdict == "fail"


def _relabelled(G, rng):
    """Conjugate G by a random relabelling of the points."""
    n = G.degree
    images = list(range(1, n + 1))
    rng.shuffle(images)
    s = Permutation(images)
    gens = [s * g * s.inverse() for g in G.generators]
    return close_group(gens, degree=n)


class TestPersistenceRoundtrips:
    """Criterion 8: 100 seeded random instances of each file format
    roundtrip exactly."""

    def _groups(self, count):
        rng = random.Random(20240817)
        pool = [e.group() for n in range(2, 7) for e in transitive_catalog(n)]
        for i in range(count):
            yield _relabelled(pool[i % len(pool)], rng)

    def test_group_files(self):
        for G in self._groups(100):
            assert parse_group(render_group(G)) == G

    def test_trace_files(self):
        for G in self._groups(100):
            trace = fks_pipeline(G)
            assert parse_trace(render_trace(trace)) == trace

    def test_catalog_files(self):
        rng = random.Random(20240818)
        degrees = [rng.randint(1, 6) for _ in range(100)]
        for n in degrees:
            cat = transitive_catalog(n)
            loaded = parse_catalog(render_catalog(cat))
            assert loaded.degree == cat.degree
            assert [e.entry_id for e in loaded] == [e.entry_id for e in cat]
            assert [e.group() for e in loaded] == [e.group() for e in cat]

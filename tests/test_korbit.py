"""k-orbit actions, projections, coherence, stabilizers, automorphism
groups, coset partitions, automorphic numbers, rendering, persistence."""

import copy
import hashlib
import itertools
import json
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from korbits import _backend, korbit
from korbits.catalog import transitive_catalog
from korbits.cli import main
from korbits.errors import DomainError, ParseError, ResourceLimitError
from korbits.group import (PermGroup, cyclic_group, dihedral_group,
                           klein_four_group, parse_group, save_group,
                           symmetric_group)
from korbits.partition import Partition, SetFamily, smash
from korbits.korbit import (CoherenceVerdict, KSet, _coherence_family,
                            _cyclic_classes,
                            acts_transitively_on, aut_of_kset,
                            automorphic_analysis, classify_coherence,
                            co_analysis, coset_k_partitions, initial_tuple,
                            k_blocks, k_orbits, left_act, load_kset,
                            orbit_of_tuple, orbits_on_kset, parse_kset,
                            pointwise_tuple_stabilizer, project,
                            render_kset, render_norbit, right_act, save_kset,
                            setwise_point_stabilizer, stab_of_ksuborbit,
                            translate_keys, translates_of_kset)
from korbits.perm import Permutation, parse_permutation
from korbits.propcheck import run_suite
from korbits.subgroups import subgroup_classes


def kset(*tuples):
    return KSet(tuples)


def n_orbit(G):
    """Oracle: the n-orbit of G, all rows g<1..n> for g in G."""
    return KSet(map(tuple, (G.images + 1).tolist()))


class TestKSet:
    def test_canonical_sorted_dedup(self):
        X = KSet([(2, 1), (1, 2), (2, 1)])
        assert X.tuples == ((1, 2), (2, 1)) and len(X) == 2

    def test_rejects_empty_mixed_diagonal(self):
        with pytest.raises(DomainError):
            KSet([])
        with pytest.raises(DomainError):
            KSet([(1, 2), (1, 2, 3)])
        with pytest.raises(DomainError):
            KSet([(1, 1)])
        with pytest.raises(DomainError):
            KSet([(0, 1)])

    @pytest.mark.parametrize("t", [(1.5, 2), ("1", "2"), (1, np.float64(2)),
                                   ("1", 2.7), "12"])
    def test_points_must_be_integers(self, t):
        """Floats used to be truncated and strings parsed: (1.5, 2) read
        as (1, 2)."""
        with pytest.raises(DomainError, match="points must be integers"):
            KSet([t, (3, 4)])
        with pytest.raises(DomainError, match="points must be integers"):
            orbit_of_tuple(cyclic_group(4), t)

    def test_numpy_integer_points_are_points(self):
        assert KSet([(np.int64(1), np.int32(2))]) == kset((1, 2))
        assert (np.int64(1), 2) in kset((1, 2))
        assert orbit_of_tuple(cyclic_group(4), (np.int64(1), 2)) == \
            orbit_of_tuple(cyclic_group(4), (1, 2))

    def test_union_and_matrix(self):
        X = kset((1, 3), (2, 4))
        assert X.union_of_points() == {1, 2, 3, 4}

    @pytest.mark.parametrize("t", [(True, 2), (1, False), (True, False)])
    def test_bool_points_are_refused(self, t):
        """`operator.index(True)` is 1, so (True, 2) used to be (1, 2)."""
        with pytest.raises(DomainError, match="points must be integers"):
            KSet([t])
        assert t not in kset((1, 2), (2, 1), (1, 3))
        G = cyclic_group(4)
        orbit_of_tuple(G, (1, 2))       # (True, 2) == (1, 2): a cache hit
        with pytest.raises(DomainError, match="points must be integers"):
            orbit_of_tuple(G, t)

    @pytest.mark.parametrize("copier", [
        copy.copy, copy.deepcopy, lambda X: pickle.loads(pickle.dumps(X))])
    def test_copies_and_pickles(self, copier):
        for X in (kset((1, 2), (2, 1)), k_orbits(dihedral_group(5), 3)[1]):
            Y = copier(X)
            assert Y == X and hash(Y) == hash(X) and Y.tuples == X.tuples
            assert not Y.rows.flags.writeable
            with pytest.raises(AttributeError):
                Y.arity = 3


class TestActions:
    def test_left_action_coordinatewise(self):
        g = parse_permutation("(1 2 3)", 3)
        assert left_act(g, (1, 2, 3)) == (2, 3, 1)
        assert left_act(g, kset((1, 2, 3), (1, 3, 2))) == \
            kset((2, 3, 1), (2, 1, 3))

    def test_right_action_permutes_positions(self):
        g = parse_permutation("(1 2 3)", 3)
        assert right_act((1, 2, 3), g) == (2, 3, 1)
        assert right_act(kset((1, 2, 3), (1, 3, 2)), g) == \
            kset((2, 3, 1), (3, 2, 1))

    def test_right_action_needs_full_arity(self):
        with pytest.raises(DomainError):
            right_act((1, 2), parse_permutation("(1 2 3)", 3))

    def test_left_action_range_check(self):
        with pytest.raises(DomainError):
            left_act(parse_permutation("(1 2)", 2), (1, 3))

    def test_left_action_on_a_kset_range_check(self):
        with pytest.raises(DomainError, match="point out of range"):
            left_act(parse_permutation("(1 2)", 2), kset((1, 3), (3, 1)))

    def test_right_action_on_a_kset_needs_full_arity(self):
        with pytest.raises(DomainError, match="arity equal to the degree"):
            right_act(kset((1, 2), (2, 1)), parse_permutation("(1 2 3)", 3))

    @pytest.mark.parametrize("t", [(0, 5), (5, 0), (1, 1), (1.5, 2)])
    def test_right_action_checks_the_tuple(self, t):
        """(0, 5) used to come back as (5, 0) and (1, 1) as itself."""
        with pytest.raises(DomainError):
            right_act(t, parse_permutation("(1 2)", 2))

    @pytest.mark.parametrize("t", [(0, 1), (1, 1), ()])
    def test_left_action_checks_the_tuple(self, t):
        """Tuples take the checks of `KSet` and `orbit_of_tuple`: 1-based
        distinct points; point 0 used to read the last image."""
        with pytest.raises(DomainError):
            left_act(parse_permutation("(1 2 3)", 3), t)

    @given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
    def test_left_action_is_an_action(self, a, b):
        p, q = Permutation(a), Permutation(b)
        t = initial_tuple(5)
        assert left_act(p, left_act(q, t)) == left_act(p * q, t)

    @given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
    def test_right_action_contravariant(self, a, b):
        p, q = Permutation(a), Permutation(b)
        t = (3, 1, 4, 5, 2)
        assert right_act(right_act(t, p), q) == right_act(t, p * q)

    def test_actions_commute(self):
        g = parse_permutation("(1 2)", 3)
        h = parse_permutation("(2 3)", 3)
        t = (2, 3, 1)
        assert right_act(left_act(g, t), h) == left_act(g, right_act(t, h))


class TestOrbits:
    def test_orbit_of_tuple(self):
        G = cyclic_group(4)
        assert orbit_of_tuple(G, (1, 2)) == kset((1, 2), (2, 3), (3, 4), (4, 1))

    def test_orbit_of_tuple_takes_any_sequence(self):
        G = cyclic_group(4)
        want = orbit_of_tuple(G, (1, 2))
        for t in ([1, 2], range(1, 3), np.array([1, 2])):
            assert orbit_of_tuple(G, t) == want
        for bad in [(), [], (0, 1), [1, 1], np.array([2, 2]), (1, 5), [5]]:
            with pytest.raises(DomainError):
                orbit_of_tuple(G, bad)

    def test_n_orbit_size_is_order(self):
        G = dihedral_group(4)
        assert len(n_orbit(G)) == G.order

    def test_k_orbits_partition_all_tuples(self):
        G = klein_four_group()
        orbs = k_orbits(G, 2)
        assert len(orbs) == 3
        seen = [t for X in orbs for t in X.tuples]
        assert sorted(seen) == sorted(itertools.permutations(range(1, 5), 2))

    def test_k_orbits_ordered_by_least_tuple(self):
        reps = [X.tuples[0] for X in k_orbits(symmetric_group(4), 2)]
        assert reps == sorted(reps)

    def test_cached_orbits_cannot_be_mutated(self):
        orbs = k_orbits(cyclic_group(4), 2)
        assert isinstance(orbs, tuple)
        with pytest.raises(AttributeError):
            orbs.append(orbs[0])
        assert k_orbits(cyclic_group(4), 2) is orbs and len(orbs) == 3

    def test_k_range_check(self):
        with pytest.raises(DomainError):
            k_orbits(cyclic_group(3), 4)
        with pytest.raises(DomainError):
            k_orbits(cyclic_group(3), 0)

    def test_bool_k_is_refused(self):
        """The cache used to key True like 1, and the kernel took it for 1."""
        G = cyclic_group(3)
        k_orbits(G, 1)
        for k in (True, False):
            with pytest.raises(DomainError, match="k must be in"):
                k_orbits(G, k)

    def test_tuple_cap(self):
        with pytest.raises(ResourceLimitError):
            k_orbits(symmetric_group(6), 5, max_tuples=100)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_symmetric_group_has_one_orbit_per_k(self, n):
        G = symmetric_group(n)
        for k in range(1, n + 1):
            orbs = k_orbits(G, k)
            assert len(orbs) == 1
            assert len(orbs[0]) == math.perm(n, k)


class TestProjection:
    def test_projection_example(self):
        X = kset((1, 2, 3), (2, 3, 1))
        assert project(X, (1, 3)) == kset((1, 3), (2, 1))
        assert project(X, (3, 1)) == kset((3, 1), (1, 2))

    def test_projection_deduplicates(self):
        X = kset((1, 2, 3), (1, 2, 4))
        assert project(X, (1, 2)) == kset((1, 2))

    def test_position_out_of_range(self):
        with pytest.raises(DomainError):
            project(kset((1, 2)), (1, 3))

    def test_equivariance(self):
        G = dihedral_group(5)
        X = orbit_of_tuple(G, (1, 2, 3))
        for g in G.generators:
            assert project(left_act(g, X), (1, 3)) == \
                left_act(g, project(X, (1, 3)))


class TestCoherence:
    def test_co_analysis_overlap_flag(self):
        fam, part, disjoint = co_analysis(kset((1, 2), (2, 3)))
        assert not disjoint and len(part) == 1
        fam, part, disjoint = co_analysis(kset((1, 2), (3, 4)))
        assert disjoint and len(part) == 2

    def test_klein_two_orbits_all_incoherent(self):
        G = klein_four_group()
        for X in k_orbits(G, 2):
            v = classify_coherence(G, X)
            assert v.kind == "incoherent"
            assert len(v.witness) == 2   # merged coordinate-set partition

    def test_c4_verdicts(self):
        G = cyclic_group(4)
        kinds = [classify_coherence(G, X).kind for X in k_orbits(G, 2)]
        assert kinds == ["elementary-coherent", "incoherent",
                         "elementary-coherent"]

    def test_klein_three_orbit_elementary(self):
        G = klein_four_group()
        X = orbit_of_tuple(G, (1, 2, 3))
        assert classify_coherence(G, X).kind == "elementary-coherent"

    def test_k1_trivially_coherent(self):
        G = cyclic_group(3)
        v = classify_coherence(G, k_orbits(G, 1)[0])
        assert v.kind == "coherent" and v.trivial

    def test_single_co_trivially_coherent(self):
        G = cyclic_group(3)
        v = classify_coherence(G, orbit_of_tuple(G, (1, 2, 3)))
        assert v.kind == "coherent" and v.trivial

    def test_coherent_witness_names_proper_subset(self):
        G = dihedral_group(4)
        X = orbit_of_tuple(G, (1, 2))
        v = classify_coherence(G, X)
        if v.kind == "coherent" and not v.trivial:
            u, sub = v.witness
            assert u < X.union_of_points()
            assert set(sub.tuples) <= set(X.tuples)

    def test_rejects_non_orbit(self):
        G = cyclic_group(4)
        for X in k_orbits(G, 2):        # also once {1, 2}'s family is cached
            classify_coherence(G, X)
        with pytest.raises(DomainError):
            classify_coherence(G, kset((1, 2), (1, 3)))


def _orbit_oracle(G, k):
    """G's orbits on k-tuples of distinct points as Python sets of tuples,
    ordered by least tuple."""
    out, seen = [], set()
    for t in itertools.permutations(range(1, G.degree + 1), k):
        if t not in seen:
            orbit = {tuple(g(v) for v in t) for g in G.elements}
            seen |= orbit
            out.append(orbit)
    return out


def _identity_cases():
    """(KSet, set of its tuples) for every k-orbit of S4 and of the groups
    of the degree-5 catalog, plus copies rebuilt from shuffled and
    duplicated tuples."""
    cases = []
    for G in [symmetric_group(4)] + [e.group() for e in transitive_catalog(5)]:
        for k in range(1, G.degree + 1):
            for X, want in zip(k_orbits(G, k), _orbit_oracle(G, k),
                               strict=True):
                cases.append((X, want))
    rng = random.Random(0)
    for _, want in cases[::3]:
        tuples = sorted(want) * 2
        rng.shuffle(tuples)
        cases.append((KSet(tuples), want))
    return cases


class TestKSetIdentity:
    """A KSet is its sorted rows: ==, hash, len, `in` and `tuples` against
    Python sets of tuples."""

    def test_tuples_len_and_membership_match_sets(self):
        for X, want in _identity_cases():
            n = X.arity + 2
            assert X.tuples == tuple(sorted(want)) and len(X) == len(want)
            for t in itertools.permutations(range(1, n + 1), X.arity):
                assert (t in X) == (t in want)
            member = next(iter(want))
            for t in [(0,) * X.arity, (2 ** 70,) * X.arity, ("a",) * X.arity,
                      member + (1,), member[1:], 12,
                      tuple(v + 0.5 for v in member), tuple(map(str, member))]:
                assert t not in X

    def test_equality_and_hash_match_sets(self):
        cases = _identity_cases()
        for X, a in cases:
            for Y, b in cases:
                assert (X == Y) == (a == b)
                if a == b:
                    assert hash(X) == hash(Y)
        assert len({X for X, _ in cases}) == len({frozenset(a) for _, a in cases})

    def test_rows_are_stored_read_only_and_tuples_are_not(self):
        for X in [KSet([(2, 1), (1, 2)]), k_orbits(cyclic_group(4), 2)[0]]:
            with pytest.raises(ValueError):
                X.rows[0, 0] = 3
            assert X.tuples == X.tuples and X.tuples is not X.tuples
        assert "tuples" not in KSet.__slots__


def _co_reference(X):
    fam = SetFamily(frozenset(t) for t in X.tuples)
    return fam, *smash(fam)


@st.composite
def ksets(draw):
    k = draw(st.integers(1, 4))
    tuples = st.permutations(range(1, 8)).map(lambda p: tuple(p[:k]))
    return KSet(draw(st.lists(tuples, min_size=1, max_size=8)))


class TestCoherenceFromRows:
    def test_co_analysis_matches_smash_on_orbits(self):
        # D8's 3-orbits have coordinate sets with equal least points,
        # which the family lists in order of first tuple
        orbits = k_orbits(dihedral_group(8), 3)
        for X in list(orbits) + [X for X, _ in _identity_cases()]:
            fam, part, disjoint = co_analysis(X)
            ref_fam, ref_part, ref_disjoint = _co_reference(X)
            assert (fam, part, disjoint) == (ref_fam, ref_part, ref_disjoint)
            assert list(fam) == list(ref_fam)

    @given(ksets())
    def test_co_analysis_matches_smash(self, X):
        fam, part, disjoint = co_analysis(X)
        ref_fam, ref_part, ref_disjoint = _co_reference(X)
        assert (fam, part, disjoint) == (ref_fam, ref_part, ref_disjoint)
        assert list(fam) == list(ref_fam)

    @pytest.mark.parametrize("tuples", [
        [(1, 500), (500, 70), (2, 3)],                         # renumbered
        [(i, i + 1) for i in range(1, 140, 2)] + [(2, 3), (138, 139)],
    ])
    def test_co_analysis_matches_smash_past_64_points(self, tuples):
        X = KSet(tuples)
        assert co_analysis(X) == _co_reference(X)

    def test_point_beyond_degree(self):
        G = cyclic_group(4)
        for X in [kset((1, 5)), kset((1, 2), (5, 6)), kset((1, 2, 3, 4, 5))]:
            with pytest.raises(DomainError):
                classify_coherence(G, X)

    def test_reads_no_orbit_of_tuple(self):
        G = cyclic_group(6)
        orbits = [X for k in range(1, 7) for X in k_orbits(G, k)]
        before = orbit_of_tuple.cache_info()
        verdicts = [classify_coherence.__wrapped__(G, X) for X in orbits]
        assert orbit_of_tuple.cache_info() == before
        assert {(v.kind, v.trivial) for v in verdicts} == {
            ("incoherent", False), ("coherent", True), ("coherent", False),
            ("elementary-coherent", False)}


def _reference_coherence(G, X):
    """The verdict of the per-class loop: the smash of the coordinate
    sets by `partition.smash`, then, for every subgroup class rep H in
    class order, H's orbits on X by `_backend.orbit_labels`, and the
    first suborbit of more than one tuple on a proper subset of X's
    points."""
    if X.arity == 1 or len({frozenset(t) for t in X.tuples}) == 1:
        return CoherenceVerdict(kind="coherent", trivial=True)
    part, _ = smash(SetFamily(frozenset(t) for t in X.tuples))
    if len(part) > 1:
        return CoherenceVerdict(kind="incoherent", witness=part)
    rows = X.rows
    union = np.unique(rows).size
    for cls in subgroup_classes(G):
        labels = _backend.orbit_labels(cls.rep.images, rows)
        for c in range(labels.max() + 1):
            sub = rows[labels == c]
            if len(sub) > 1 and np.unique(sub).size < union:
                u = frozenset((np.unique(sub) + 1).tolist())
                return CoherenceVerdict(kind="coherent", witness=(u, KSet(sub + 1)))
    return CoherenceVerdict(kind="elementary-coherent")


WREATH_C2_C4 = parse_group("degree 8\n(1 2)\n(1 3 5 7)(2 4 6 8)\n")
WREATH_C3_C3 = parse_group("degree 9\n(1 2 3)\n(1 4 7)(2 5 8)(3 6 9)\n")


def _oracle_orbits():
    """(G, X) for every k-orbit of the degree 2..6 catalogs, and of D8,
    C2 wr C4, D9 and C3 wr C3 at k <= 4."""
    for n in range(2, 7):
        for e in transitive_catalog(n):
            G = e.group()
            for k in range(1, n + 1):
                for X in k_orbits(G, k):
                    yield G, X
    for G in [dihedral_group(8), WREATH_C2_C4, dihedral_group(9), WREATH_C3_C3]:
        for k in range(1, 5):
            for X in k_orbits(G, k):
                yield G, X


class TestCoherenceOracle:
    """`classify_coherence`, which tests only the cyclic classes on bit
    masks, against the per-class loop over every subgroup class."""

    @staticmethod
    def _compare():
        """Compare on every oracle orbit; return how many of the
        coherent ones had more cyclic classes than fit in one chunk of
        their family's coordinate sets. The family cache is cleared
        first, so that each family is classified under the current
        `KEY_BUDGET`."""
        _coherence_family.cache_clear()
        kinds = set()
        chunked = 0
        for G, X in _oracle_orbits():
            got = classify_coherence.__wrapped__(G, X)
            want = _reference_coherence(G, X)
            assert (got.kind, got.trivial) == (want.kind, want.trivial)
            assert got.witness == want.witness
            kinds.add((got.kind, got.trivial))
            family = {frozenset(t) for t in X.tuples}
            step = max(1, _backend.KEY_BUDGET // (len(family) * X.arity))
            chunked += (got.kind != "incoherent" and not got.trivial
                        and len(_cyclic_classes(G)[1]) > step)
        assert kinds == {("incoherent", False), ("coherent", True),
                         ("coherent", False), ("elementary-coherent", False)}
        return chunked

    def test_matches_per_class_loop(self):
        self._compare()

    def test_matches_per_class_loop_in_small_chunks(self, monkeypatch):
        monkeypatch.setattr(_backend, "KEY_BUDGET", 16)
        assert self._compare() > 0

    def test_witness_when_the_generator_permutes_the_tuples_own_points(self):
        # the reflection fixing 1 swaps 2 and 8: it moves points of the
        # tuple without leaving its point set
        G = dihedral_group(8)
        v = classify_coherence.__wrapped__(G, orbit_of_tuple(G, (1, 2, 8)))
        assert v.kind == "coherent"
        assert v.witness == (frozenset({1, 2, 8}), kset((1, 2, 8), (1, 8, 2)))

    def test_reads_no_orbit_labels(self, monkeypatch):
        G = WREATH_C3_C3
        orbits = k_orbits(G, 3)
        orbit_labels = _backend.orbit_labels
        calls = []

        def counted(*args):
            calls.append(args)
            return orbit_labels(*args)

        monkeypatch.setattr(_backend, "orbit_labels", counted)
        kinds = {classify_coherence.__wrapped__(G, X).kind for X in orbits}
        assert calls == [] and "coherent" in kinds


def _witness_text(w):
    if w is None:
        return "-"
    if isinstance(w, Partition):
        return repr([sorted(c) for c in w.classes])
    u, sub = w
    return repr((sorted(u), (sub.rows + 1).tolist()))


class TestCoherenceFamilies:
    """The k-orbits of one family of coordinate sets share one
    `_coherence_family` record; only the witness is read from X."""

    # SHA-256 of "kind trivial witness" lines over every k-orbit of D8,
    # C2 wr C4, D9 and C3 wr C3 at k = 1..7, recorded with the
    # per-orbit classification (each orbit smashed and tested against
    # the cyclic classes on its own) in fresh processes under
    # PYTHONHASHSEED 0 and 1
    DIGEST = "383172d16852b6aa7df165bc7c8cdb83ce370794600052b3918fc12d5e56abc6"

    def test_verdicts_match_the_per_orbit_digest(self):
        h = hashlib.sha256()
        count = 0
        for G in [dihedral_group(8), WREATH_C2_C4, dihedral_group(9),
                  WREATH_C3_C3]:
            for k in range(1, 8):
                for X in k_orbits(G, k):
                    v = classify_coherence.__wrapped__(G, X)
                    h.update(f"{v.kind} {v.trivial} "
                             f"{_witness_text(v.witness)}\n".encode())
                    count += 1
        assert (count, h.hexdigest()) == (23388, self.DIGEST)

    def test_d9_at_k7_classifies_four_families(self, monkeypatch):
        G = dihedral_group(9)
        orbits = k_orbits(G, 7)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return subgroup_classes(*args, **kwargs)

        monkeypatch.setattr(korbit, "subgroup_classes", counted)
        _coherence_family.cache_clear()
        _cyclic_classes.cache_clear()
        for X in orbits:
            classify_coherence.__wrapped__(G, X)
        info = _coherence_family.cache_info()
        assert len(orbits) == 10080
        assert (info.misses, info.hits) == (4, 10080 - 4)
        assert len(calls) == 1

    # in C3 x <(7 8)>, of order 6, the union of the 2-orbits of (1, 2)
    # and (1, 3) has 6 tuples and either orbit less a tuple has 2, so
    # only the comparison of keys, not |X| dividing |G|, rejects them
    @pytest.mark.parametrize("G, k", [
        (cyclic_group(4), 2), (dihedral_group(9), 3), (WREATH_C3_C3, 4),
        (parse_group("degree 8\n(1 2 3)(4 5 6)\n(7 8)\n"), 2)])
    def test_non_orbits_of_a_known_family_raise(self, G, k):
        orbits = k_orbits(G, k)
        by_family = {}
        for X in orbits:
            by_family.setdefault(frozenset(frozenset(t) for t in X.tuples),
                                 []).append(X)
        X, Y = next(xs for xs in by_family.values() if len(xs) > 1)[:2]
        classify_coherence.__wrapped__(G, X)       # the family is cached
        cases = [KSet(X.tuples + Y.tuples), KSet(X.tuples[1:]),
                 KSet(X.tuples[:-1])]
        for Z in cases:
            with pytest.raises(DomainError, match="not a k-orbit"):
                classify_coherence.__wrapped__(G, Z)


def _unread_witness(*args):
    raise AssertionError("a coherence witness was read")


class TestDeferredWitness:
    """A coherent, non-trivial verdict builds its witness on the first
    read of `witness`, through `korbit._coherent_witness`."""

    @staticmethod
    def _coherent_d9_orbits():
        G = dihedral_group(9)
        orbits = [X for X in k_orbits(G, 5)
                  if (v := classify_coherence(G, X)).kind == "coherent"
                  and not v.trivial]
        assert orbits
        return G, orbits

    def test_classify_builds_no_kset_until_the_witness_is_read(
            self, monkeypatch):
        G, orbits = self._coherent_d9_orbits()
        kset_of = korbit._kset
        made = []

        def counted(*args):
            made.append(args)
            return kset_of(*args)

        monkeypatch.setattr(korbit, "_kset", counted)
        verdicts = [classify_coherence.__wrapped__(G, X) for X in orbits]
        assert made == []
        first = [v.witness for v in verdicts]
        assert len(made) == len(orbits)
        assert all(v.witness is w for v, w in zip(verdicts, first))
        assert len(made) == len(orbits)

    def test_deferred_verdict_equals_the_eager_one(self):
        G, orbits = self._coherent_d9_orbits()
        for X in orbits[:20]:
            deferred = classify_coherence.__wrapped__(G, X)
            eager = CoherenceVerdict(
                kind="coherent",
                witness=classify_coherence.__wrapped__(G, X).witness)
            assert deferred == eager and eager == deferred
            assert hash(deferred) == hash(eager)
            assert repr(deferred) == repr(eager)
            assert repr(eager).startswith(
                "CoherenceVerdict(kind='coherent', trivial=False, "
                "witness=(frozenset(")
            assert copy.copy(deferred) == deferred
        assert CoherenceVerdict(kind="coherent") != eager
        assert CoherenceVerdict(kind="coherent", trivial=True) == \
            CoherenceVerdict("coherent", True, None)

    def test_verdicts_are_immutable(self):
        G, orbits = self._coherent_d9_orbits()
        v = classify_coherence.__wrapped__(G, orbits[0])
        for name in ("kind", "trivial", "witness", "_source"):
            with pytest.raises(AttributeError):
                setattr(v, name, None)
            with pytest.raises(AttributeError):
                delattr(v, name)
        assert v.kind == "coherent" and v.witness is not None

    def test_a_non_orbit_raises_at_classify_time(self, monkeypatch):
        G, orbits = self._coherent_d9_orbits()
        monkeypatch.setattr(korbit, "_coherent_witness", _unread_witness)
        X = orbits[0]
        classify_coherence.__wrapped__(G, X)       # the family is cached
        with pytest.raises(DomainError, match="not a k-orbit"):
            classify_coherence.__wrapped__(G, KSet(X.tuples[1:]))

    def test_no_engine_path_reads_a_witness(self, monkeypatch, tmp_path):
        monkeypatch.setattr(korbit, "_coherent_witness", _unread_witness)
        group = tmp_path / "d8.grp"
        save_group(dihedral_group(8), group)
        report = tmp_path / "d8.orbits.jsonl"
        assert main(["orbits", "--group", str(group),
                     "--out", str(report)]) == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert {r.get("k") for r in records} == {None, *range(1, 9)}
        assert run_suite(transitive_catalog(5)).results


class TestKBlocks:
    def test_blocks_group_by_coordinate_set(self):
        X = kset((1, 2), (2, 1), (3, 4))
        part, blocks = k_blocks(X)
        assert len(blocks) == 2
        assert blocks[0].points == frozenset({1, 2})
        assert blocks[0].kset == kset((1, 2), (2, 1))
        assert blocks[0].aut_transitive

    def test_non_transitive_block_reported(self):
        _, blocks = k_blocks(kset((1, 2)))
        assert blocks[0].aut_transitive is False

    @pytest.mark.parametrize("points, expected",
                             [({3, 4}, True), (set(), True), ({1, 3}, False),
                              ({1, 5}, False), ({5}, False)])
    def test_acts_transitively_on(self, points, expected):
        G = PermGroup(4, [[0, 1, 2, 3], [1, 0, 3, 2]])      # <(1 2)(3 4)>
        assert acts_transitively_on(G, points) is expected


class TestStabilizers:
    def test_pointwise(self):
        G = symmetric_group(4)
        H = pointwise_tuple_stabilizer(G, (1, 2))
        assert H.order == 2 and parse_permutation("(3 4)", 4) in H

    def test_setwise(self):
        G = symmetric_group(4)
        H = setwise_point_stabilizer(G, {1, 2})
        assert H.order == 4

    @pytest.mark.parametrize("stabilizer, points", [
        (setwise_point_stabilizer, {0}), (setwise_point_stabilizer, {5}),
        (setwise_point_stabilizer, {2, 5}), (pointwise_tuple_stabilizer, (5,)),
        (pointwise_tuple_stabilizer, (1, 5))])
    def test_points_out_of_range(self, stabilizer, points):
        with pytest.raises(DomainError, match="point out of range for this group"):
            stabilizer(cyclic_group(4), points)

    def test_suborbit_out_of_range(self):
        with pytest.raises(DomainError, match="point out of range for this group"):
            stab_of_ksuborbit(cyclic_group(4), kset((1, 5)))

    def test_setwise_of_no_points_is_the_group(self):
        G = cyclic_group(4)
        assert setwise_point_stabilizer(G, set()) == G

    def test_suborbit_stabilizer_and_flag(self):
        G = symmetric_group(3)
        Y = orbit_of_tuple(cyclic_group(3), (1, 2))
        stab, transitive = stab_of_ksuborbit(G, Y)
        assert transitive and stab.order == 3

    def test_setwise_but_not_transitive(self):
        from korbits.group import close_group
        G = close_group([parse_permutation("(1 2)", 4)])
        Y = kset((1, 2), (3, 4))
        stab, transitive = stab_of_ksuborbit(G, Y)
        assert not transitive       # only the identity fixes Y setwise
        assert stab.order == 1

    def test_orbit_stabilizer_identity(self):
        G = dihedral_group(5)
        for k in (1, 2, 3):
            X = orbit_of_tuple(G, initial_tuple(5)[:k])
            H = pointwise_tuple_stabilizer(G, initial_tuple(5)[:k])
            assert len(X) * H.order == G.order


class TestAut:
    def test_aut_of_symmetric_pair_set(self):
        A = aut_of_kset(kset((1, 2), (2, 1)))
        assert A.order == 2

    def test_aut_of_klein_cross_orbit(self):
        A = aut_of_kset(kset((1, 3), (3, 1), (2, 4), (4, 2)))
        assert A.order == 8 and A.degree == 4

    def test_ambient_degree_embedding(self):
        A = aut_of_kset(kset((1, 2), (2, 1)), degree=5)
        assert A.degree == 5
        for g in A.elements:
            assert all(g(v) == v for v in (3, 4, 5))

    def test_every_member_fixes_the_set(self):
        X = orbit_of_tuple(cyclic_group(4), (1, 2))
        for g in aut_of_kset(X).elements:
            assert left_act(g, X) == X

    def test_point_cap(self):
        """Sym of 10 points is over the default element cap."""
        X = kset(tuple(range(1, 11)))
        with pytest.raises(ResourceLimitError):
            aut_of_kset(X)

    def test_degree_must_exceed_every_point(self):
        X = KSet([(1, 2), (2, 3)])
        with pytest.raises(DomainError):
            aut_of_kset(X, degree=2)
        assert aut_of_kset(X, degree=3).order == 1


def _catalog_orbits():
    """Every k-orbit of the degree 2..5 catalogs at k 1..3."""
    for n in range(2, 6):
        for e in transitive_catalog(n):
            G = e.group()
            for k in range(1, min(n, 3) + 1):
                for X in k_orbits(G, k):
                    yield G, X


class TestStabilizerKernel:
    """aut_of_kset and the point stabilizers, all read through
    `_backend.fixed_rows`, against Python oracles, at a key budget small
    enough that the filter runs in several chunks."""

    BUDGET = 16

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(_backend, "KEY_BUDGET", self.BUDGET)

    def test_aut_matches_oracle(self):
        chunked = 0
        for G, X in _catalog_orbits():
            u = sorted(X.union_of_points())
            tuples = set(X.tuples)
            want = set()
            for perm in itertools.permutations(u):
                s = dict(zip(u, perm))
                if {tuple(s[v] for v in t) for t in tuples} == tuples:
                    want.add(tuple(s.get(v, v) for v in range(1, G.degree + 1)))
            got = aut_of_kset.__wrapped__(X, degree=G.degree)
            assert got.degree == G.degree
            assert {g.images for g in got.elements} == want
            chunked += math.factorial(len(u)) > max(1, self.BUDGET // len(X))
        assert chunked > 0

    def test_point_stabilizers_match_oracle(self):
        chunked = 0
        for G, X in _catalog_orbits():
            t = X.tuples[0]
            pointwise = {g.images for g in G.elements
                         if all(g(v) == v for v in t)}
            setwise = {g.images for g in G.elements
                       if {g(v) for v in t} == set(t)}
            H = pointwise_tuple_stabilizer(G, t)
            assert {g.images for g in H.elements} == pointwise
            H = setwise_point_stabilizer(G, set(t))
            assert {g.images for g in H.elements} == setwise
            chunked += G.order > max(1, self.BUDGET // len(t))
        assert chunked > 0


class TestTranslatesAndCosets:
    def test_translates_partition_iff_subgroup_orbit_structure(self):
        G = symmetric_group(3)
        Y = orbit_of_tuple(cyclic_group(3), (1, 2))
        classes, is_part = translates_of_kset(G, Y)
        assert is_part and len(classes) == 2
        union = sorted(t for c in classes for t in c.tuples)
        assert union == sorted(itertools.permutations(range(1, 4), 2))

    def test_overlapping_translates_flagged(self):
        G = symmetric_group(3)
        classes, is_part = translates_of_kset(G, kset((1, 2), (2, 1), (1, 3)))
        assert not is_part

    def test_orbits_on_kset_requires_invariance(self):
        with pytest.raises(DomainError):
            orbits_on_kset(cyclic_group(3), kset((1, 2)))

    def test_orbits_on_kset_rejects_point_beyond_degree(self):
        with pytest.raises(DomainError):
            orbits_on_kset(cyclic_group(3), kset((1, 4)))

    def test_orbits_on_kset_matches_expansion(self):
        """Oracle: the A-orbit of a tuple is its image under every
        element of A."""
        G = symmetric_group(4)
        for k in (1, 2, 3):
            for X in k_orbits(G, k):
                for cls in subgroup_classes(G):
                    A = cls.rep
                    want = {frozenset(tuple(int(g[v - 1]) + 1 for v in t)
                                      for g in A.images) for t in X}
                    assert set(orbits_on_kset(A, X).classes) == want

    def test_translate_keys_match_expansion(self):
        """Oracle: gY is every element g applied to every tuple of Y; the
        translates partition X when the distinct ones are disjoint. Y runs
        over every suborbit of every subgroup-class rep on X, over S4 and
        the degree-5 catalog."""
        covering = 0
        for G in [symmetric_group(4)] + [e.group() for e in transitive_catalog(5)]:
            def code(tuples):
                rows = [[v - 1 for v in t] for t in tuples]
                return _backend.encode_rows(rows, G.degree).tolist()

            for X in (X for k in (1, 2, 3) for X in k_orbits(G, k)):
                for cls in subgroup_classes(G):
                    for Y in map(KSet, orbits_on_kset(cls.rep, X).classes):
                        gY = [frozenset(tuple(int(g[v - 1]) + 1 for v in t)
                                        for t in Y) for g in G.images]
                        union = sorted(set().union(*gY))
                        # first g, then least key: a stable sort keeps
                        # the first-g order among equal least keys
                        distinct = sorted(dict.fromkeys(gY), key=min)
                        keys, fixed, u, labels = translate_keys(G, Y.rows)
                        assert keys.tolist() == [sorted(code(T))
                                                 for T in distinct]
                        assert len(keys) * np.count_nonzero(fixed) == G.order
                        assert fixed.tolist() == [T == set(Y) for T in gY]
                        assert u.tolist() == code(union)
                        if sum(map(len, distinct)) > len(union):
                            covering += 1
                            assert labels is None
                        else:
                            assert labels.tolist() == [
                                next(i for i, T in enumerate(distinct) if t in T)
                                for t in union]
        assert covering > 0

    def test_coset_k_partitions_counts(self):
        G = symmetric_group(3)
        A = cyclic_group(3)
        ck = coset_k_partitions(G, A, (1, 2))
        assert len(ck.x_orbit) == 6 and len(ck.y_orbit) == 3
        assert ck.left_is_partition and len(ck.left_classes) == 2
        assert len(ck.right) == 2
        assert {frozenset(c.tuples) for c in ck.left_classes} == \
            {frozenset(c) for c in ck.right.classes}

    def test_coset_k_partitions_requires_subgroup(self):
        with pytest.raises(DomainError):
            coset_k_partitions(cyclic_group(3), symmetric_group(3), (1, 2))


class TestAutomorphicNumbers:
    def test_s3_report(self):
        rep = automorphic_analysis(symmetric_group(3))
        assert rep.order_divisors == ((1, True), (2, True), (3, True),
                                      (6, False))
        assert rep.degree_divisors == ((1, True), (3, True))
        assert rep.max_automorphic_order_divisor() == 3
        assert rep.max_automorphic_degree_divisor() == 3

    def test_subsets_closed_under_group(self):
        G = cyclic_group(4)
        rep = automorphic_analysis(G)
        subs = set(rep.subsets)
        for s in subs:
            for g in G.generators:
                assert frozenset(g(v) for v in s) in subs


class TestRendering:
    def test_klein_chain_matrix(self):
        from korbits.group import close_group
        G = klein_four_group()
        A = close_group([parse_permutation("(1 2)(3 4)", 4)])
        out = render_norbit(G, [A, G])
        assert out == "12 34\n21 43\n-----\n34 12\n43 21\n"

    def test_chain_must_end_at_group(self):
        G = klein_four_group()
        with pytest.raises(DomainError):
            render_norbit(G, [G, symmetric_group(4)])

    def test_chain_must_be_nested(self):
        from korbits.group import close_group
        G = symmetric_group(3)
        A = close_group([parse_permutation("(1 2)", 3)])
        B = close_group([parse_permutation("(1 2 3)", 3)])
        with pytest.raises(DomainError):
            render_norbit(G, [A, B, G])

    def test_single_level(self):
        out = render_norbit(cyclic_group(3), [cyclic_group(3)])
        assert out == "123\n231\n312\n"


class TestKSetFiles:
    def test_render(self):
        assert render_kset(kset((2, 1), (1, 2))) == "arity 2\n1 2\n2 1\n"

    def test_roundtrip(self, tmp_path):
        X = orbit_of_tuple(dihedral_group(4), (1, 2, 3))
        path = tmp_path / "x.kset"
        save_kset(X, path)
        assert load_kset(path) == X

    def test_comments_ignored(self):
        assert parse_kset("# note\narity 2\n1 2  # rep\n") == kset((1, 2))

    @pytest.mark.parametrize("bad", [
        "", "1 2\n", "arity x\n", "arity 0\n", "arity 2\n",
        "arity 2\n1\n", "arity 2\n1 a\n", "arity 2\n1 1\n",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises((ParseError, DomainError)):
            parse_kset(bad)

"""Subgroup enumeration: class counts, Lagrange, conjugacy structure."""

import numpy as np
import pytest

from korbits import _backend
from korbits._backend import decode_keys
from korbits.catalog import transitive_catalog
from korbits.errors import ResourceLimitError
from korbits.group import (PermGroup, alternating_group, cyclic_group,
                           is_subgroup, klein_four_group, symmetric_group)
from korbits.perm import analyze_element
from korbits.subgroups import (_element_orders, _element_primes,
                               all_subgroups, subgroup_classes)


# (group, classes, total subgroups) with the classical counts
CASES = [
    (symmetric_group(3), 4, 6),
    (klein_four_group(), 5, 5),
    (alternating_group(4), 5, 10),
    (symmetric_group(4), 11, 30),
    (symmetric_group(5), 19, 156),
    (alternating_group(6), 22, 501),
    (alternating_group(7), 40, 3786),
    (symmetric_group(7), 96, 11300),
]


class TestCounts:
    @pytest.mark.parametrize("G,n_classes,n_subs", CASES,
                             ids=["S3", "V4", "A4", "S4", "S5", "A6", "A7", "S7"])
    def test_known_counts(self, G, n_classes, n_subs):
        classes = subgroup_classes(G)
        assert len(classes) == n_classes
        assert sum(len(c.conjugates) for c in classes) == n_subs

    def test_s6_counts(self):
        classes = subgroup_classes(symmetric_group(6))
        assert len(classes) == 56
        assert sum(len(c.conjugates) for c in classes) == 1455

    def test_cyclic_group_classes_match_divisors(self):
        classes = subgroup_classes(cyclic_group(12))
        assert sorted(c.order for c in classes) == [1, 2, 3, 4, 6, 12]


class TestStructure:
    def test_lagrange(self):
        G = symmetric_group(5)
        for cls in subgroup_classes(G):
            assert G.order % cls.order == 0

    def test_reps_are_subgroups(self):
        G = symmetric_group(4)
        for cls in subgroup_classes(G):
            assert is_subgroup(cls.rep, G)
            assert cls.rep.order == cls.order

    def test_class_size_divides_index(self):
        G = symmetric_group(4)
        for cls in subgroup_classes(G):
            assert (G.order // cls.order) % len(cls.conjugates) == 0

    def test_extremes_present(self):
        G = symmetric_group(4)
        classes = subgroup_classes(G)
        assert classes[0].order == 1 and classes[-1].order == G.order
        assert len(classes[0].conjugates) == 1
        assert len(classes[-1].conjugates) == 1

    def test_ids_stable_and_ordered(self):
        G = symmetric_group(4)
        a = subgroup_classes(G)
        b = subgroup_classes.__wrapped__(G)     # a fresh run, not the cache
        assert a is not b
        assert [c.class_id for c in a] == list(range(len(a)))
        assert [(c.order, c.conjugates, c.rep) for c in a] == \
            [(c.order, c.conjugates, c.rep) for c in b]

    @pytest.mark.parametrize("G", [symmetric_group(4)]
                             + [e.group() for e in transitive_catalog(5)],
                             ids=["S4"] + [f"t5.{i}" for i in range(1, 6)])
    def test_conjugates_match_brute_force(self, G):
        """Each class lists {x rep x^-1 : x in G}, each member as its
        sorted elements, in lexicographic order of those sequences."""
        for cls in subgroup_classes(G):
            rep = cls.rep.elements
            want = sorted({tuple(sorted((x * h * x.inverse()).images
                                        for h in rep))
                           for x in G.elements})
            got = [tuple(map(tuple, (decode_keys(np.frombuffer(b, dtype=np.int64),
                                                 G.degree, G.degree) + 1).tolist()))
                   for b in cls.conjugates]
            assert got == want
            assert cls.rep.keys.tobytes() == cls.conjugates[0]


class TestAllSubgroups:
    def test_expansion_matches_class_counts(self):
        G = symmetric_group(4)
        subs = all_subgroups(G)
        assert len(subs) == 30
        assert all(is_subgroup(H, G) for H in subs)
        assert len(set(subs)) == 30

    def test_canonical_order(self):
        subs = all_subgroups(symmetric_group(3))
        key = [(H.order, tuple(int(k) for k in H.keys)) for H in subs]
        assert key == sorted(key)


def test_lattice_closes_in_index_space(monkeypatch):
    """No closure from scratch, also for a group given by its elements
    alone, whose generators would be found by closures."""
    G = PermGroup(5, symmetric_group(5).images)

    def closure_images(*args):
        raise AssertionError("closure_images called")

    monkeypatch.setattr(_backend, "closure_images", closure_images)
    classes = subgroup_classes.__wrapped__(G)
    assert len(classes) == 19
    assert sum(len(c.conjugates) for c in classes) == 156


def test_order_cap():
    with pytest.raises(ResourceLimitError):
        subgroup_classes(symmetric_group(7), max_order=100)


class TestElementPrimes:
    def test_match_analyze_element(self):
        groups = [symmetric_group(7)] + [e.group() for n in range(1, 7)
                                         for e in transitive_catalog(n)]
        for G in groups:
            want = [a.prime_power_split[0][0] if a.is_prime_power else 1
                    for a in map(analyze_element, G.elements)]
            assert _element_primes(G.images).tolist() == want

    def test_orders_match_analyze_element(self):
        for G in [symmetric_group(7)] + [e.group() for e in transitive_catalog(6)]:
            want = [a.order for a in map(analyze_element, G.elements)]
            assert _element_orders(G.images).tolist() == want

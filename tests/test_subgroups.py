"""Subgroup enumeration: class counts, Lagrange, conjugacy structure."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from korbits import _backend
from korbits._backend import decode_keys
from korbits.catalog import transitive_catalog
from korbits.errors import ResourceLimitError
from korbits.group import (PermGroup, alternating_group, cyclic_group,
                           is_subgroup, klein_four_group, parse_group,
                           symmetric_group)
from korbits.perm import analyze_element
from korbits.subgroups import (_element_orders, _element_primes,
                               all_subgroups, subgroup_classes)


# (group, classes, total subgroups) with the classical counts
CASES = [
    (symmetric_group(3), 4, 6),
    (klein_four_group(), 5, 5),
    (alternating_group(4), 5, 10),
    (symmetric_group(4), 11, 30),
    (alternating_group(5), 9, 59),
    (symmetric_group(5), 19, 156),
    (alternating_group(6), 22, 501),
    (alternating_group(7), 40, 3786),
    (symmetric_group(7), 96, 11300),
]


class TestCounts:
    @pytest.mark.parametrize("G,n_classes,n_subs", CASES,
                             ids=["S3", "V4", "A4", "S4", "A5", "S5", "A6", "A7", "S7"])
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

    def test_cached_classes_cannot_be_mutated(self):
        classes = subgroup_classes(symmetric_group(3))
        assert isinstance(classes, tuple)
        with pytest.raises(AttributeError):
            classes.pop()
        assert subgroup_classes(symmetric_group(3)) is classes
        assert len(classes) == 4

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


def _digest(classes):
    """SHA-256 of the (order, conjugates) of every class, in class order."""
    h = hashlib.sha256()
    for c in classes:
        h.update(f"{c.order}:{len(c.conjugates)};".encode())
        for b in c.conjugates:
            h.update(b)
    return h.hexdigest()


# Lattice digests, recorded with the one-closure-per-candidate search.
DIGESTS = [
    (alternating_group(7),
     "931549b90bdf7b40f6e128c773c7cb8b10842e31c395bc0502bdfba337f92f2f"),
    (symmetric_group(6),
     "e59b3b378f8550f3f66cc198e71f55c627a006ae3ac5e809fea2e1f5271e9c17"),
    (symmetric_group(5),
     "528a2b55afb0126ae9acb1241b1b977ec637c27ff73786e617e3821ab1346595"),
    (next(e.group() for e in transitive_catalog(7) if e.order == 168),
     "0eb2cae75903bcb0019f8e13fad9178bd23a211ec4525d470649f3ad90a49054"),
    (parse_group("degree 8\n(1 2)\n(1 3)(2 4)\n(1 3 5 7)(2 4 6 8)\n"),
     "8c385aeb5222b3b9baee869afe07295f0786ec51caa3c9dcf464056f36e2c025"),
]


class TestPinned:
    @pytest.mark.parametrize("G,digest", DIGESTS,
                             ids=["A7", "S6", "S5", "PSL32", "S2wrS4"])
    def test_lattice_bytes(self, G, digest):
        assert _digest(subgroup_classes(G)) == digest

    def test_batch_boundaries_do_not_matter(self, monkeypatch):
        """One candidate per batched closure gives the same lattice."""
        monkeypatch.setattr(_backend, "_BATCH_KEYS", 1)
        G, digest = DIGESTS[0]
        assert _digest(subgroup_classes.__wrapped__(G)) == digest

    @pytest.mark.parametrize("G", [symmetric_group(5), alternating_group(6)],
                             ids=["S5", "A6"])
    def test_batch_masks_fit_one_key_chunk(self, monkeypatch, G):
        """A batch of candidate masks takes at most 8 * KEY_BUDGET bytes,
        or one mask, and the lattice does not depend on that bound."""
        want = _class_records(subgroup_classes.__wrapped__(G))
        monkeypatch.setattr(_backend, "KEY_BUDGET", 64)
        rows = []
        close_index = _backend.close_index

        def spy(images, index, masks, *args):
            rows.append(masks.shape[0])
            return close_index(images, index, masks, *args)

        monkeypatch.setattr(_backend, "close_index", spy)
        assert _class_records(subgroup_classes.__wrapped__(G)) == want
        assert max(rows) == max(1, 8 * 64 // G.order)

    @pytest.mark.parametrize("n", [5, 6])
    def test_alternating_subgroup_of_symmetric(self, n):
        """Closures that stop early inside S_n (Dixon and Mortimer, Thm
        5.2B) still find A_n, as one class with one member."""
        G = symmetric_group(n)
        half = [c for c in subgroup_classes(G) if c.order == G.order // 2]
        assert len(half) == 1 and len(half[0].conjugates) == 1
        assert half[0].rep == alternating_group(n)

    def test_traced_peak_of_a7(self):
        """The batched closures stay within twice the traced peak of one
        closure per candidate (1.73 MB)."""
        G = alternating_group(7)
        tracemalloc.start()
        try:
            subgroup_classes.__wrapped__(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5e6


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


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def _class_records(classes):
    return [(c.class_id, c.order, c.conjugates, c.rep.keys.tobytes())
            for c in classes]


def _bounded_cases():
    """S3-S6, A4-A6 and the catalog groups of degree <= 7 and order
    <= 720, each once."""
    cases = {f"S{n}": symmetric_group(n) for n in range(3, 7)}
    cases.update({f"A{n}": alternating_group(n) for n in range(4, 7)})
    for n in range(1, 8):
        for e in transitive_catalog(n):
            G = e.group()
            if e.order <= 720 and G not in cases.values():
                cases[e.entry_id] = G
    return cases


BOUNDED = _bounded_cases()


class TestBounded:
    """`subgroup_classes(G, upto=d)` is the order-<= d prefix of the full
    lattice: the same ids, orders, conjugates and representatives."""

    def assert_prefix(self, G, bounds):
        full = subgroup_classes(G)
        for d in bounds:
            bounded = subgroup_classes.__wrapped__(G, upto=d)
            assert _class_records(bounded) == \
                _class_records([c for c in full if c.order <= d]), d

    @pytest.mark.parametrize("G", BOUNDED.values(), ids=BOUNDED.keys())
    def test_every_divisor_bound(self, G):
        """Every divisor of |G|; for S5 and S6 that includes bounds
        below |G|/n and |G|/2, which keeps A_n."""
        self.assert_prefix(G, _divisors(G.order))

    @pytest.mark.parametrize("G", [alternating_group(7), symmetric_group(7)],
                             ids=["A7", "S7"])
    def test_degree_seven(self, G):
        """The divisors up to 2n, a bound below |G|/n (past which a
        closure in S_n is S_n or A_n), and |G|/2, which keeps A_7 in S_7."""
        n = G.degree
        bounds = [d for d in _divisors(G.order) if d <= 2 * n]
        self.assert_prefix(G, bounds + [G.order // n - 1, G.order // 2])


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

"""Partition lattice operations and overlapping set families."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from korbits import _backend
from korbits.errors import DomainError
from korbits.partition import Partition, SetFamily, join, meet, smash


def partitions(max_n=8):
    def build(assign):
        classes = {}
        for x, c in enumerate(assign, start=1):
            classes.setdefault(c, set()).add(x)
        return Partition(classes.values())

    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
        .map(build))


def paired_partitions(max_n=8):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))


def meet_labels(a, b):
    """Labels of the meet of the partitions given by the label arrays a
    and b, numbered in order of their (a, b) pairs: the oracle for the
    batched meets of the check engine."""
    return np.unique(a * (b.max() + 1) + b, return_inverse=True)[1]


def _from_assign(assign):
    classes = {}
    for x, c in enumerate(assign, start=1):
        classes.setdefault(c, set()).add(x)
    return Partition(classes.values())


class TestPartition:
    def test_render_canonical(self):
        assert Partition([{3, 4}, {1, 2}]).render() == "1 2 | 3 4"

    def test_class_of(self):
        p = Partition([{1, 2}, {3}])
        assert p.class_of(2) == frozenset({1, 2})

    def test_trivial_flags(self):
        assert Partition.discrete(range(1, 4)).is_discrete
        assert Partition.single(range(1, 4)).is_single
        assert not Partition([{1, 2}, {3}]).is_trivial

    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            Partition([{1, 2}, {2, 3}])

    def test_empty_class_rejected(self):
        with pytest.raises(DomainError):
            Partition([{1}, set()])

    def test_refines(self):
        fine = Partition([{1}, {2}, {3, 4}])
        coarse = Partition([{1, 2}, {3, 4}])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)

    def test_refines_domain_mismatch(self):
        with pytest.raises(DomainError):
            Partition([{1}]).refines(Partition([{1, 2}]))


class TestLattice:
    def test_meet_example(self):
        p = Partition([{1, 2}, {3, 4}])
        r = Partition([{1, 3}, {2, 4}])
        assert meet(p, r) == Partition.discrete(range(1, 5))

    def test_join_example(self):
        p = Partition([{1, 2}, {3}, {4}])
        r = Partition([{2, 3}, {1}, {4}])
        assert join(p, r) == Partition([{1, 2, 3}, {4}])

    @given(paired_partitions())
    def test_meet_refines_both(self, pair):
        p, r = map(_from_assign, pair)
        m = meet(p, r)
        assert m.refines(p) and m.refines(r)

    @given(paired_partitions())
    def test_both_refine_join(self, pair):
        p, r = map(_from_assign, pair)
        j = join(p, r)
        assert p.refines(j) and r.refines(j)

    @given(paired_partitions())
    def test_commutativity(self, pair):
        p, r = map(_from_assign, pair)
        assert meet(p, r) == meet(r, p)
        assert join(p, r) == join(r, p)

    @given(partitions())
    def test_idempotence_and_absorption(self, p):
        assert meet(p, p) == p and join(p, p) == p
        assert meet(p, join(p, p)) == p

    @given(paired_partitions())
    def test_absorption(self, pair):
        p, r = map(_from_assign, pair)
        assert meet(p, join(p, r)) == p
        assert join(p, meet(p, r)) == p

    @given(paired_partitions())
    def test_label_meet_and_join(self, pair):
        """The label-array meet oracle and join kernel against the
        tuple-level operators."""
        p, r = map(_from_assign, pair)
        a, b = (np.array(x) for x in pair)
        m = meet_labels(a, b)
        j = _backend.join_labels(a, b)
        assert _from_assign(m.tolist()) == meet(p, r)
        assert _from_assign(j.tolist()) == join(p, r)
        # join classes are numbered by least index
        assert np.all(np.diff(np.unique(j, return_index=True)[1]) > 0)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=8))
def test_partition_from_labels(assign):
    assert Partition.from_labels(range(1, len(assign) + 1), assign) == \
        _from_assign(assign)


class TestSmash:
    def test_disjoint_family(self):
        part, disjoint = smash([{1, 2}, {3, 4}])
        assert disjoint and part == Partition([{1, 2}, {3, 4}])

    def test_overlapping_family_merges(self):
        part, disjoint = smash([{1, 2}, {2, 3}, {4, 5}])
        assert not disjoint
        assert part == Partition([{1, 2, 3}, {4, 5}])

    def test_duplicate_members_do_not_overlap(self):
        part, disjoint = smash([{1, 2}, {1, 2}, {3}])
        assert disjoint and part == Partition([{1, 2}, {3}])

    def test_empty(self):
        part, disjoint = smash([])
        assert disjoint and len(part) == 0

    def test_set_family_validation(self):
        with pytest.raises(DomainError):
            SetFamily([{1}, set()])
        fam = SetFamily([{2, 3}, {1, 2}])
        assert fam.union() == {1, 2, 3}
        assert list(fam) == [frozenset({1, 2}), frozenset({2, 3})]

    def test_set_family_iteration_ignores_insertion_order(self):
        """Members with the same least point come out by their sorted
        points, whatever order the family was built in."""
        members = [frozenset(c) for c in itertools.combinations(range(1, 9), 3)]
        fam, rev = SetFamily(members), SetFamily(reversed(members))
        assert fam == rev
        assert list(fam) == list(rev) == members

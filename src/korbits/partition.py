"""Partitions of finite index sets with the join, meet and smash
(overlap-merging) operators, plus set families that may overlap.

Index elements only need to be hashable and mutually comparable; both
plain points (ints) and k-tuples are used as domains.
"""

from .errors import DomainError


def _canonical(classes):
    classes = [frozenset(c) for c in classes]
    if any(not c for c in classes):
        raise DomainError("empty class in partition")
    return tuple(sorted(classes, key=lambda c: min(c)))


class Partition:
    """Disjoint non-empty classes covering a finite domain.

    Canonical form: classes ordered by least element; rendering sorts
    elements within classes.
    """

    __slots__ = ("domain", "classes", "_index")

    def __init__(self, classes):
        classes = _canonical(classes)
        seen = set()
        for c in classes:
            if seen & c:
                raise DomainError(f"overlapping classes: {sorted(seen & c)}")
            seen |= c
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "domain", frozenset(seen))
        idx = {}
        for i, c in enumerate(classes):
            for x in c:
                idx[x] = i
        object.__setattr__(self, "_index", idx)

    def __setattr__(self, *a):
        raise AttributeError("Partition is immutable")

    @classmethod
    def discrete(cls, domain):
        return cls([{x} for x in domain])

    @classmethod
    def single(cls, domain):
        return cls([set(domain)])

    @classmethod
    def from_labels(cls, items, labels):
        """The partition of `items` into classes of equal label."""
        classes = {}
        for x, label in zip(items, labels):
            classes.setdefault(label, set()).add(x)
        return cls(classes.values())

    def class_of(self, x):
        return self.classes[self._index[x]]

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.classes == other.classes

    def __hash__(self):
        return hash(self.classes)

    @property
    def is_discrete(self):
        return len(self.classes) == len(self.domain)

    @property
    def is_single(self):
        return len(self.classes) == 1

    @property
    def is_trivial(self):
        return self.is_discrete or self.is_single

    def refines(self, other):
        """True when every class of self lies inside a class of other."""
        if self.domain != other.domain:
            raise DomainError("domain mismatch")
        return all(c <= other.class_of(min(c)) for c in self.classes)

    def render(self):
        return " | ".join(" ".join(str(x) for x in sorted(c)) for c in self.classes)

    def __repr__(self):
        return f"Partition({self.render()!r})"


def meet(p, r):
    """Coarsest common refinement: non-empty pairwise class intersections."""
    if p.domain != r.domain:
        raise DomainError("domain mismatch in meet")
    out = []
    for a in p.classes:
        for b in r.classes:
            c = a & b
            if c:
                out.append(c)
    return Partition(out)


def join(p, r):
    """Finest partition coarser than both: transitive closure of overlap."""
    if p.domain != r.domain:
        raise DomainError("domain mismatch in join")
    return _merge_overlapping(list(p.classes) + list(r.classes))[0]


def _merge_overlapping(sets):
    """Union-find merge of overlapping sets; returns (partition, was_disjoint)."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    distinct = {frozenset(s) for s in sets}
    for s in distinct:
        first = next(iter(s))
        for x in s:
            parent.setdefault(x, x)
            parent[find(x)] = find(first)
    points = list(parent)
    return (Partition.from_labels(points, map(find, points)),
            sum(map(len, distinct)) == len(points))


class SetFamily:
    """A set of non-empty sets; members may overlap.
    Iteration lists the members in order of their sorted points."""

    __slots__ = ("members",)

    def __init__(self, members):
        members = frozenset(frozenset(m) for m in members)
        if any(not m for m in members):
            raise DomainError("empty member in set family")
        object.__setattr__(self, "members", members)

    def __setattr__(self, *a):
        raise AttributeError("SetFamily is immutable")

    def union(self):
        return frozenset().union(*self.members)

    def __eq__(self, other):
        return isinstance(other, SetFamily) and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(sorted(self.members, key=sorted))


def smash(family):
    """Merge overlapping members until disjoint.

    Returns (partition of the union, was_disjoint): was_disjoint is True
    when the distinct members were already pairwise disjoint (the family
    was a partition of its union rather than a proper covering).
    """
    if isinstance(family, SetFamily):
        family = family.members
    return _merge_overlapping(family)

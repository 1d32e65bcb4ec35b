"""Subgroup enumeration by the cyclic extension method.

Every subgroup is generated by its prime-power-order elements, so
breadth-first extension of known class representatives by one
prime-power element at a time (reduced modulo conjugation by the
representative's normalizer) reaches every conjugacy class. A subgroup
is identified by the bytes of its sorted int64 element keys; a global
table of *all* conjugate subgroups by those bytes makes class
membership a hash lookup, and class registration walks the conjugation
orbit once.
"""

import functools

import numpy as np

from . import _backend
from .errors import ResourceLimitError
from .group import (PermGroup, conjugate_elementwise, conjugate_rows_by,
                    perm_to_row, row_to_perm)
from .perm import analyze_element

DEFAULT_SUBGROUP_CAP = 10 ** 4


class SubgroupClass:
    """One conjugacy class of subgroups of an ambient group.

    rep is the canonical representative (least element-key signature in
    the class); conjugates lists every member as the bytes of its sorted
    int64 element keys, in lexicographic order of the key sequences.
    """

    __slots__ = ("class_id", "rep", "order", "conjugates")

    def __init__(self, class_id, rep, conjugates):
        self.class_id = class_id
        self.rep = rep
        self.order = rep.order
        self.conjugates = conjugates

    def __repr__(self):
        return (f"SubgroupClass(id={self.class_id}, order={self.order}, "
                f"size={len(self.conjugates)})")


def _key_array(b):
    return np.frombuffer(b, dtype=np.int64)


def _rows_of(G, b):
    """G's element rows for the sorted-key bytes b of a subgroup."""
    return G.images[np.searchsorted(G.keys, _key_array(b))]


@functools.lru_cache(maxsize=64)
def subgroup_classes(G, max_order=DEFAULT_SUBGROUP_CAP):
    """All subgroups of G up to G-conjugacy.

    Returns SubgroupClass records ordered by (order, canonical key
    signature); ids follow that order and are stable across runs.
    """
    if G.order > max_order:
        raise ResourceLimitError("max-subgroup-order", max_order, G.order,
                                 flag="--max-subgroup-order")
    n = G.degree
    gen_rows = [perm_to_row(g) for g in G.generators]
    prime_power = np.fromiter(
        (analyze_element(row_to_perm(r)).is_prime_power for r in G.images),
        dtype=bool, count=G.order)

    seen = set()       # key bytes of every subgroup found so far
    raw = []           # per class: (generator rows, keys, conjugates)

    def register(rows, gens):
        """Walk the conjugation orbit of a new subgroup and record its class."""
        keys = _backend.encode_rows(rows, n)
        orbit = {keys.tobytes()}
        queue = [rows]
        while queue:
            r = queue.pop()
            for g in gen_rows:
                cr = conjugate_rows_by(r, g)
                ck = np.sort(_backend.encode_rows(cr, n)).tobytes()
                if ck not in orbit:
                    orbit.add(ck)
                    queue.append(cr)
        members = list(orbit)
        mat = _key_array(b"".join(members)).reshape(len(members), -1)
        conjugates = tuple(members[i] for i in np.lexsort(mat.T[::-1]))
        seen.update(conjugates)
        raw.append((gens, keys, conjugates))

    register(np.arange(n, dtype=np.int64)[None, :], [])
    head = 0
    while head < len(raw):
        gens, h_keys, _ = raw[head]
        head += 1
        # normalizer of this representative in G
        mask = np.ones(G.order, dtype=bool)
        for hg in gens:
            mask &= _backend.in_sorted(h_keys, conjugate_elementwise(G, hg))
        norm = PermGroup(n, G.images[mask])
        # extension candidates: prime-power elements outside H,
        # one per conjugation orbit of the normalizer
        todo = prime_power.copy()
        todo[np.searchsorted(G.keys, h_keys)] = False
        for i in np.flatnonzero(todo):
            if not todo[i]:
                continue
            cand = G.images[i]
            todo[np.searchsorted(G.keys, conjugate_elementwise(norm, cand))] = False
            new_gens = gens + [cand]
            rows = _backend.closure_images(np.stack(new_gens), n, G.order)
            if _backend.encode_rows(rows, n).tobytes() not in seen:
                register(rows, new_gens)

    signature = lambda e: (e[1].size, _key_array(e[2][0]).tolist())
    out = []
    for new_id, (_, _, conjugates) in enumerate(sorted(raw, key=signature)):
        rep = PermGroup(n, _rows_of(G, conjugates[0]))
        out.append(SubgroupClass(new_id, rep, conjugates))
    return out


def all_subgroups(G, max_order=DEFAULT_SUBGROUP_CAP):
    """Every subgroup of G (all conjugates expanded), as PermGroups,
    canonically ordered."""
    out = [PermGroup(G.degree, _rows_of(G, b))
           for cls in subgroup_classes(G, max_order=max_order)
           for b in cls.conjugates]
    out.sort(key=lambda H: (H.order, H.keys.tolist()))
    return out

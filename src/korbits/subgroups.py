"""Subgroup enumeration by the cyclic extension method.

Every subgroup is generated by its prime-power-order elements, so
breadth-first extension of known class representatives by one
prime-power element at a time (reduced modulo conjugation by the
representative's normalizer) reaches every conjugacy class. A global
table of *all* conjugate subgroups (as element-key sets) makes class
membership a hash lookup; class registration walks the conjugation
orbit once.
"""

import functools

import numpy as np

from . import _backend
from .errors import ResourceLimitError
from .group import (PermGroup, conjugate_elementwise, conjugate_rows_by,
                    perm_to_row, row_to_perm)

DEFAULT_SUBGROUP_CAP = 10 ** 4


class SubgroupClass:
    """One conjugacy class of subgroups of an ambient group.

    rep is the canonical representative (least element-key signature in
    the class); conjugates lists every member as a frozenset of element
    keys, canonically sorted.
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


def _prime_power_order(p):
    o = p.order()
    if o == 1:
        return False
    d = 2
    primes = 0
    while d * d <= o:
        if o % d == 0:
            primes += 1
            while o % d == 0:
                o //= d
        d += 1
    if o > 1:
        primes += 1
    return primes == 1


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
    gen_pairs = [(g, g.inverse()) for g in G.generators]
    elems = G.elements
    pp_keys = sorted(int(G.keys[i]) for i in range(G.order)
                     if _prime_power_order(elems[i]))

    seen = {}          # frozenset of keys -> class index in `raw`
    raw = []           # dicts: rep_rows, gens, keys, conjugates

    def register(rows, gens):
        """Walk the conjugation orbit of a new subgroup; returns class idx."""
        keys0 = frozenset(int(k) for k in _backend.encode_rows(rows, n))
        idx = len(raw)
        orbit = {keys0: rows}
        queue = [keys0]
        while queue:
            ks = queue.pop()
            r = orbit[ks]
            for g, ginv in gen_pairs:
                cr = conjugate_rows_by(r, g, ginv)
                ck = frozenset(int(k) for k in _backend.encode_rows(cr, n))
                if ck not in orbit:
                    orbit[ck] = cr
                    queue.append(ck)
        conjugates = sorted(orbit, key=lambda s: tuple(sorted(s)))
        best = conjugates[0]
        best_keys = np.sort(np.fromiter(best, dtype=np.int64, count=len(best)))
        rep_rows = G.images[np.searchsorted(G.keys, best_keys)]
        raw.append({"rep_rows": rep_rows, "gens": gens,
                    "keys": keys0, "rows": rows, "conjugates": conjugates})
        for ck in conjugates:
            seen[ck] = idx
        return idx

    ident_rows = np.arange(n, dtype=np.int64)[None, :]
    register(ident_rows, [])
    head = 0
    while head < len(raw):
        entry = raw[head]
        head += 1
        h_keys = entry["keys"]
        gens = entry["gens"]
        # normalizer of this representative in G
        mask = np.ones(G.order, dtype=bool)
        h_keys_arr = np.sort(np.fromiter(h_keys, dtype=np.int64, count=len(h_keys)))
        for hg in gens:
            ck = conjugate_elementwise(G, hg)
            mask &= np.isin(ck, h_keys_arr)
        norm = PermGroup(n, G.images[mask])
        # extension candidates: prime-power elements outside H,
        # one per conjugation orbit of the normalizer
        visited = set()
        for key in pp_keys:
            if key in h_keys or key in visited:
                continue
            cand = row_to_perm(G.images[np.searchsorted(G.keys, key)])
            orbit_keys = conjugate_elementwise(norm, cand)
            visited.update(int(k) for k in orbit_keys)
            new_gens = gens + [cand]
            gen_rows = np.stack([perm_to_row(p) for p in new_gens])
            rows = _backend.closure_images(gen_rows, n, G.order)
            ks = frozenset(int(k) for k in _backend.encode_rows(rows, n))
            if ks not in seen:
                register(rows, new_gens)

    order_of = lambda e: e["rep_rows"].shape[0]
    sig = lambda e: tuple(sorted(e["conjugates"][0]))
    indexed = sorted(range(len(raw)), key=lambda i: (order_of(raw[i]), sig(raw[i])))
    out = []
    for new_id, i in enumerate(indexed):
        e = raw[i]
        rep = PermGroup(n, e["rep_rows"])
        out.append(SubgroupClass(new_id, rep, tuple(e["conjugates"])))
    return out


def all_subgroups(G, max_order=DEFAULT_SUBGROUP_CAP):
    """Every subgroup of G (all conjugates expanded), as PermGroups,
    canonically ordered."""
    out = []
    for cls in subgroup_classes(G, max_order=max_order):
        for ks in cls.conjugates:
            keys = np.sort(np.fromiter(ks, dtype=np.int64, count=len(ks)))
            rows = G.images[np.searchsorted(G.keys, keys)]
            out.append(PermGroup(G.degree, rows))
    out.sort(key=lambda H: (H.order, tuple(int(k) for k in H.keys)))
    return out

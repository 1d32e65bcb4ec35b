"""Subgroup enumeration by the cyclic extension method (Neubuser 1960;
Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005).

Inside `subgroup_classes(G)` every subgroup is a boolean mask over G's
element index: the rows of `G.images`, which are sorted by `G.keys`.
Multiplying every element on the right by g, and conjugating every
element by g, are index maps, found for all elements at once by
`_backend.row_index`.

Every subgroup is generated by prime-power elements, so extending the
representatives by one element c of order p^a with c^p in H at a time,
one per orbit of H's normalizer N, reaches every conjugacy class. The
N-conjugation orbits of all elements are labelled in one pass, each by
its least index (`_backend.least_in_orbits`), and the candidates are
the orbit minima. All candidates of a representative H are then closed
by one batched breadth-first search over (candidate, element) pairs
(`_backend.close_index`): every row starts from H's mask, follows the
right-multiplication maps of H's generators, computed once per
representative, and multiplies only its own frontier by its c. Batches
hold about `_backend._BATCH_KEYS` marks, in at most 8 *
`_backend.KEY_BUDGET` bytes of |G|-byte masks. A row stops once it
passes the largest order that Lagrange's theorem leaves below G; for
G = S_n or A_n with n >= 5 it stops past |G|/n elements, since no
proper subgroup of A_n, and none of S_n but A_n, has index below n
(Dixon and Mortimer, Permutation Groups, 1996, Thm 5.2B). Such a row
is G, or A_n inside S_n when H and c are even.

`subgroup_classes(G, upto=d)` keeps only the classes of order at most
d: a row also stops past d elements and is then dropped, and a
representative of order above d/2 is not extended. The method reaches
each subgroup K through subgroups of K alone, and every class is still
walked over its whole conjugation orbit, so the bounded lattice is the
order-<= d prefix of the full one, with the same ids, representatives
and conjugates.

A subgroup's identity is the bytes of its sorted int64 element keys,
`G.keys[mask]`; a global table of *all* conjugate subgroups by those
bytes makes class membership a hash lookup. A new class's conjugation
orbit is walked one layer at a time with the conjugation maps of
generators of G. The generators of G and of each normalizer are the
greedy ones of `generator_rows`, read by
`_backend.greedy_generators`.
"""

import functools
import math

import numpy as np

from . import _backend
from .errors import ResourceLimitError
from .group import PermGroup, conjugate_rows_by, normalizer_mask
from .perm import _factorize

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


def _cycle_lengths(images):
    """The cycle length of each point in each element row, the least m
    with g^m fixing it; the powers g, ..., g^n of all rows at once."""
    n = images.shape[1]
    length = np.zeros_like(images)
    power = images
    for m in range(1, n + 1):
        length[(power == np.arange(n)) & (length == 0)] = m
        power = np.take_along_axis(images, power, axis=1)
    return length


def _element_orders(images):
    """The order of each element row: the lcm of its cycle lengths."""
    return np.lcm.reduce(_cycle_lengths(images), axis=1)


def _element_primes(images):
    """The prime p of each element row of order p^a > 1, else 1."""
    orders, at = np.unique(_element_orders(images), return_inverse=True)
    primes = np.ones(orders.size, dtype=np.int64)
    for i, order in enumerate(orders.tolist()):
        fac = _factorize(order)
        if len(fac) == 1:
            primes[i] = next(iter(fac))
    return primes[at]


def _odd(images):
    """Whether each element row is an odd permutation: the parity of
    its number of inversions."""
    i, j = np.triu_indices(images.shape[1], 1)
    return np.count_nonzero(images[:, i] > images[:, j], axis=1) % 2 == 1


@functools.lru_cache(maxsize=64)
def subgroup_classes(G, max_order=DEFAULT_SUBGROUP_CAP, upto=None):
    """All subgroups of G up to G-conjugacy, or, when `upto` is given,
    those of order at most `upto`.

    Returns a tuple, since the cache hands the same value to every
    caller, of SubgroupClass records ordered by (order, canonical key
    signature); ids follow that order and are stable across runs, and
    a bounded call returns the prefix of the full tuple. `max_order`
    caps |G| whatever the bound.
    """
    if G.order > max_order:
        raise ResourceLimitError("max-subgroup-order", max_order, G.order,
                                 flag="--max-subgroup-order")
    index = _backend.row_index(G.images)
    # the index of x^p for each element x of order p^a > 1
    prime = _element_primes(G.images)
    root = np.arange(G.order)
    for p in set(prime.tolist()) - {1}:
        sel = np.flatnonzero(prime == p)
        rows = base = G.images[sel]
        for _ in range(p - 1):
            rows = np.take_along_axis(base, rows, axis=1)
        root[sel] = index(rows)

    def right_map(i):
        """Index of x*g for every element x, g the element at index i."""
        return index(G.images[:, G.images[i]])

    def conj_map(i):
        """Index of g x g^-1 for every element x, g the element at index i."""
        return index(conjugate_rows_by(G.images, G.images[i]))

    # Dixon and Mortimer, Permutation Groups, Thm 5.2B: for n >= 5 no
    # proper subgroup of A_n, and none of S_n but A_n, has index below n
    n = G.degree
    top = G.order if upto is None else upto
    sym = n >= 5 and G.order == math.factorial(n)
    big = sym or (n >= 5 and G.order == math.factorial(n) // 2)
    alt = ~_odd(G.images) if sym else None      # A_n, when G is S_n
    everything = np.ones(G.order, dtype=bool)
    identity = np.arange(G.order) == 0                  # the identity is row 0
    g_conj = [conj_map(i) for i in _backend.greedy_generators(
        G.images, index, everything, identity)]

    seen = set()       # key bytes of every subgroup found so far
    raw = []           # per class: (generator indices, element indices, conjugates)

    def register(idx, gens):
        """Walk the conjugation orbit of a new subgroup, one layer of
        conjugates at a time, and record its class."""
        width = idx.size * 8
        orbit = {G.keys[idx].tobytes()}
        layer = idx[None]
        while g_conj and layer.size:
            conj = np.sort(np.concatenate([c[layer] for c in g_conj]), axis=1)
            buf = G.keys[conj].tobytes()
            fresh = []
            for j in range(conj.shape[0]):
                b = buf[j * width:(j + 1) * width]
                if b not in orbit:
                    orbit.add(b)
                    fresh.append(j)
            layer = conj[fresh]
        members = list(orbit)
        mat = _key_array(b"".join(members)).reshape(len(members), -1)
        conjugates = tuple(members[i] for i in np.lexsort(mat.T[::-1]))
        seen.update(conjugates)
        raw.append((gens, idx, conjugates))

    register(np.zeros(1, dtype=np.int64), [])
    head = 0
    while head < len(raw):
        gens, h_idx, _ = raw[head]
        head += 1
        if 2 * h_idx.size > top:
            continue                    # every extension is over the bound
        h_mask = np.zeros(G.order, dtype=bool)
        h_mask[h_idx] = True
        maps = [right_map(g) for g in gens]
        # Lagrange: a subgroup containing H with more elements than this
        # is G; for S_n and A_n, more than |G|/n elements suffice
        limit = max((d for d in range(h_idx.size, G.order, h_idx.size)
                     if G.order % d == 0), default=G.order)
        if big:
            limit = min(limit, G.order // n)
        limit = min(limit, top)
        # the normalizer N of H
        norm = normalizer_mask(G.images, G.images[gens], G.keys[h_idx])
        n_conj = [conj_map(g) for g in _backend.greedy_generators(
            G.images, index, norm, h_mask.copy(), gens, maps)]
        # Extension candidates: the elements c of order p^a outside H
        # with c^p in H. Every subgroup is reached this way, through the
        # powers c^(p^(a-1)), ..., c^p, c of its prime-power generators.
        # One candidate per N-conjugation orbit, its least index: the
        # other elements and H are unions of such orbits.
        done = h_mask | (prime == 1) | ~h_mask[root]
        least = _backend.least_in_orbits(n_conj, G.order)
        cands = np.flatnonzero(~done & (least == np.arange(G.order)))
        # past `limit`, a closure is G, or A_n in S_n when H and c are
        # even; or it is over the bound, and so is what stands in for it
        h_even = sym and alt[h_idx].all()
        step = max(1, min(_backend._BATCH_KEYS // limit,
                          8 * _backend.KEY_BUDGET // G.order))
        for start in range(0, cands.size, step):
            batch = cands[start:start + step]
            masks = np.tile(h_mask, (batch.size, 1))
            over = _backend.close_index(G.images, index, masks, maps, batch, limit)
            for i, mask, full in zip(batch.tolist(), masks, over.tolist()):
                if full:
                    mask = alt if h_even and alt[i] else everything
                k_idx = np.flatnonzero(mask)
                if k_idx.size <= top and G.keys[k_idx].tobytes() not in seen:
                    register(k_idx, gens + [i])

    signature = lambda e: (e[1].size, _key_array(e[2][0]).tolist())
    out = []
    for new_id, (_, _, conjugates) in enumerate(sorted(raw, key=signature)):
        rep = PermGroup(G.degree, _rows_of(G, conjugates[0]))
        out.append(SubgroupClass(new_id, rep, conjugates))
    return tuple(out)


def all_subgroups(G, max_order=DEFAULT_SUBGROUP_CAP):
    """Every subgroup of G (all conjugates expanded), as PermGroups,
    canonically ordered."""
    out = [PermGroup(G.degree, _rows_of(G, b))
           for cls in subgroup_classes(G, max_order=max_order)
           for b in cls.conjugates]
    out.sort(key=lambda H: (H.order, H.keys.tolist()))
    return out

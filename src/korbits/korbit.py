"""The k-orbit engine: left/right actions on tuples and tuple sets,
orbit computation on ordered k-tuples of distinct points, projections,
coordinate-set analysis, k-blocks, coherence classification,
stabilizers, tuple-set automorphism groups, coset partitions and
automorphic numbers.

k-tuples are plain Python tuples of 1-based points; a KSet is the
sorted int64 matrix of their 0-based points, one row per tuple."""

import functools
import operator
from dataclasses import dataclass

import numpy as np

from . import _backend
from .errors import DomainError, ParseError
from .group import (DEFAULT_ELEMENT_CAP, PermGroup, conjugate_rows_by,
                    generator_rows, is_subgroup, orbits_on_points, perm_to_row)
from .partition import Partition, SetFamily
from .perm import content_lines, parse_header
from .subgroups import _element_orders

DEFAULT_TUPLE_CAP = 10 ** 7


def check_ktuple(t):
    t = tuple(t)
    try:
        if bool in map(type, t):    # operator.index(True) is 1
            raise TypeError
        t = tuple(map(operator.index, t))
    except TypeError:
        raise DomainError(f"points must be integers: {t}") from None
    if not t:
        raise DomainError("empty tuple")
    if any(v < 1 for v in t):
        raise DomainError(f"points must be 1-based: {t}")
    if len(set(t)) != len(t):
        raise DomainError(f"coordinates must be distinct: {t}")
    return t


class KSet:
    """A finite set of k-tuples of distinct points.

    `rows` holds them as a read-only int64 matrix of 0-based points, one
    row per tuple, sorted and without repeats: the k-set's identity.
    Equality, hashing, length and membership read the rows; `tuples`
    is computed from them on every read.
    """

    __slots__ = ("arity", "rows", "_hash")

    def __init__(self, tuples):
        tuples = sorted({check_ktuple(t) for t in tuples})
        if not tuples:
            raise DomainError("empty k-set")
        if len({len(t) for t in tuples}) > 1:
            raise DomainError("mixed arities in k-set")
        _kset(np.array(tuples, dtype=np.int64) - 1, self)

    def __setattr__(self, *a):
        raise AttributeError("KSet is immutable")

    def __reduce__(self):
        return _kset, (self.rows,)

    @property
    def tuples(self):
        return tuple(map(tuple, (self.rows + 1).tolist()))

    def __len__(self):
        return self.rows.shape[0]

    def __iter__(self):
        return iter(self.tuples)

    def __contains__(self, t):
        try:
            if bool in map(type, t):
                return False
            row = np.array([operator.index(v) for v in t], dtype=np.int64) - 1
        except (TypeError, ValueError, OverflowError):
            return False
        return (row.shape == (self.arity,)
                and bool((self.rows == row).all(axis=1).any()))

    def __eq__(self, other):
        return (isinstance(other, KSet) and self._hash == other._hash
                and self.arity == other.arity
                and np.array_equal(self.rows, other.rows))

    def __hash__(self):
        return self._hash

    def union_of_points(self):
        return frozenset((np.unique(self.rows) + 1).tolist())

    def __repr__(self):
        inner = ", ".join("".join(map(str, t)) if max(t) <= 9
                          else str(t) for t in self.tuples[:6])
        if len(self) > 6:
            inner += ", ..."
        return f"KSet(k={self.arity}, {{{inner}}})"


def _kset(rows, X=None):
    """The KSet of sorted, distinct 0-based point rows, not validated
    again; `KSet.__init__` passes itself as X."""
    X = object.__new__(KSet) if X is None else X
    rows = rows.view()      # read-only without touching the caller's array
    rows.flags.writeable = False
    object.__setattr__(X, "arity", int(rows.shape[1]))
    object.__setattr__(X, "rows", rows)
    object.__setattr__(X, "_hash", hash((X.arity, rows.tobytes())))
    return X


def initial_tuple(n):
    return tuple(range(1, n + 1))


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

def left_act(g, s):
    """Coordinate-wise application g<v1..vk> = <g(v1)..g(vk)>."""
    if isinstance(s, KSet):
        if s.rows.max() >= g.degree:
            raise DomainError("point out of range for this permutation")
        return _kset(np.unique(perm_to_row(g)[s.rows], axis=0))
    t = check_ktuple(s)
    if max(t) > g.degree:
        raise DomainError("point out of range for this permutation")
    return tuple(g(v) for v in t)


def right_act(t, g):
    """Coordinate permutation <v_{g1}..v_{gn}>; defined only at full
    arity (arity equal to the permutation's degree)."""
    if isinstance(t, KSet):
        if t.arity != g.degree:
            raise DomainError("right action needs arity equal to the degree")
        return _kset(np.unique(t.rows[:, perm_to_row(g)], axis=0))
    t = check_ktuple(t)
    if len(t) != g.degree:
        raise DomainError("right action needs arity equal to the degree")
    return tuple(t[g(i) - 1] for i in range(1, g.degree + 1))


def orbit_of_tuple(G, t):
    """The G-orbit of one k-tuple, given as any sequence of points."""
    t = tuple(t)
    if bool in map(type, t):    # (True, 2) == (1, 2) would read its cache entry
        check_ktuple(t)
    return _orbit_of_tuple(G, t)


@functools.lru_cache(maxsize=65536)
def _orbit_of_tuple(G, t):
    t = check_ktuple(t)
    if max(t) > G.degree:
        raise DomainError("point out of range for this group")
    rows = G.images[:, np.array(t, dtype=np.int64) - 1]
    first = np.unique(_backend.encode_rows(rows, G.degree), return_index=True)[1]
    return _kset(rows[first])


orbit_of_tuple.cache_info = _orbit_of_tuple.cache_info


@functools.lru_cache(maxsize=4096, typed=True)     # k = True is not k = 1
def k_orbits(G, k, max_tuples=DEFAULT_TUPLE_CAP):
    """All G-orbits on non-diagonal k-tuples, ordered by least tuple, as
    a tuple, since the cache hands the same value to every caller."""
    n = G.degree
    if isinstance(k, bool) or not 1 <= k <= n:
        raise DomainError(f"k must be in 1..{n}, got {k}")
    tuples, orbit_ids = _backend.tuple_orbits(G.images, k, max_tuples)
    ends = np.cumsum(np.bincount(orbit_ids)).tolist()
    return tuple(_kset(tuples[a:b]) for a, b in zip([0] + ends, ends))


def project(X, I):
    """Project each tuple of X onto the coordinate positions named by I
    (positions via the initial tuple), in I's order; deduplicated."""
    I = check_ktuple(I)
    if max(I) > X.arity:
        raise DomainError(f"position {max(I)} out of range for arity {X.arity}")
    return _kset(np.unique(X.rows[:, [i - 1 for i in I]], axis=0))


# ---------------------------------------------------------------------------
# coordinate sets, blocks, coherence
# ---------------------------------------------------------------------------

def _smash(rows):
    """The smash of point rows, a partition of their points: one
    `_backend.join_labels` pass joins the (row, point) cells of each row
    with those of each point, points renumbered by rank."""
    points = np.unique(rows, return_inverse=True)[1].reshape(-1)
    labels = _backend.join_labels(np.arange(points.size) // rows.shape[1], points)
    return Partition.from_labels((rows.ravel() + 1).tolist(), labels.tolist())


def co_analysis(X):
    """The family of coordinate sets of X and its smash: the merged
    partition of the union plus whether the family was already disjoint
    (a partition) or overlapping (a covering)."""
    sets = np.unique(np.sort(X.rows, axis=1), axis=0)
    part = _smash(sets)
    fam = SetFamily(frozenset(s) for s in (sets + 1).tolist())
    return fam, part, sets.size == len(part.domain)


@dataclass(frozen=True)
class KBlock:
    """One k-block: the tuples sharing a coordinate set, with the
    automorphism group of the block and its transitivity on the k
    points (reported, not assumed)."""

    kset: "KSet"
    points: frozenset
    aut: "PermGroup"
    aut_transitive: bool


def k_blocks(X, max_elements=DEFAULT_ELEMENT_CAP):
    """Group X's tuples by identical coordinate set.

    Returns (partition of X's tuples, list of KBlock in canonical
    order); max_elements bounds the k! filter of each block's Aut."""
    sets, label = np.unique(np.sort(X.rows, axis=1), axis=0,
                            return_inverse=True)
    blocks = []
    for i, co in enumerate((sets + 1).tolist()):
        ks = _kset(X.rows[label == i])
        aut = aut_of_kset(ks, max_elements=max_elements)
        blocks.append(KBlock(kset=ks, points=frozenset(co), aut=aut,
                             aut_transitive=acts_transitively_on(aut, co)))
    return Partition.from_labels(X.tuples, label.tolist()), blocks


def acts_transitively_on(G, points):
    """Whether G acts transitively on the given point subset."""
    points = frozenset(points)
    return not points or any(points <= c for c in orbits_on_points(G).classes)


class CoherenceVerdict:
    """Classification of a k-orbit.

    kind: "incoherent", "coherent" or "elementary-coherent".
    trivial: boundary cases (k = 1, or a single coordinate set).
    witness: incoherent -> the merged coordinate-set partition;
    coherent-but-not-elementary -> (U, suborbit) with U a proper point
    subset supporting the offending k-suborbit.

    A coherent, non-trivial verdict of `classify_coherence` builds its
    witness, and with it the suborbit's KSet, on the first read of
    `witness` and keeps it; `classify_coherence` itself builds no KSet.
    Equality, hashing and repr read (kind, trivial, witness).
    """

    __slots__ = ("kind", "trivial", "_witness", "_source")

    def __init__(self, kind, trivial=False, witness=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "trivial", trivial)
        object.__setattr__(self, "_witness", witness)
        object.__setattr__(self, "_source", None)

    def __setattr__(self, *a):
        raise AttributeError("CoherenceVerdict is immutable")

    __delattr__ = __setattr__

    @property
    def witness(self):
        if self._source is not None:
            object.__setattr__(self, "_witness",
                               _coherent_witness(*self._source))
            object.__setattr__(self, "_source", None)
        return self._witness

    @property
    def is_coherent(self):
        return self.kind in ("coherent", "elementary-coherent")

    def _fields(self):
        return self.kind, self.trivial, self.witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return CoherenceVerdict, self._fields()

    def __repr__(self):
        kind, trivial, witness = self._fields()
        return (f"CoherenceVerdict(kind={kind!r}, trivial={trivial!r}, "
                f"witness={witness!r})")


@functools.lru_cache(maxsize=64)
def _cyclic_classes(G):
    """G's non-trivial cyclic subgroup classes in class order, as (cyc,
    reps): cyc[c, p] is the bit mask of the orbit of point p under class
    c's rep, the cycle through p of its generator, and reps[c] the
    rep's element rows, the powers of that generator. <g> is read as the
    sorted row numbers of g, ..., g^ord(g); rows are in key order, so
    these lists order each order's subgroups, and pick each class's rep,
    as `subgroup_classes` does. The classes of order m are the orbits of
    the distinct <g>, g of order m, under <g> -> <x g x^-1>, x in G's
    generators."""
    index = _backend.row_index(G.images)
    orders = _element_orders(G.images)
    conj = [index(conjugate_rows_by(G.images, x)) for x in generator_rows(G)]
    cyclic = np.empty(G.order, dtype=np.int64)     # <g>'s number among its order
    reps = []
    for m in np.unique(orders)[1:].tolist():
        sel = np.flatnonzero(orders == m)
        powers = [G.images[sel]]
        for _ in range(m - 1):
            powers.append(np.take_along_axis(powers[0], powers[-1], axis=1))
        rows = index(np.concatenate(powers)).reshape(m, -1).T
        subs, first, at = np.unique(np.sort(rows, axis=1), axis=0,
                                    return_index=True, return_inverse=True)
        cyclic[sel] = at.ravel()
        least = _backend.least_in_orbits(
            [cyclic[c[sel[first]]] for c in conj], len(subs))
        reps += [G.images[s] for s in subs[least == np.arange(len(subs))]]
    cyc = np.array([np.bitwise_or.reduce(1 << H, axis=0) for H in reps],
                   dtype=np.int64).reshape(-1, G.degree)
    return cyc, reps


@functools.lru_cache(maxsize=2048)
def classify_coherence(G, X):
    """Coherence classification of a k-orbit X = G t0 of G.

    One sort checks X: the keys of G t0 hold each tuple of t0's orbit
    |G|/|X| times, so X is that orbit iff, sorted and reshaped to |X|
    rows, they equal X's keys row by row. All but the witness depends
    only on the family F of X's coordinate sets, the G-orbit of t0's
    point set, so `_coherence_family` classifies each F once: X's smash
    is F's, X is trivial iff k = 1 or |F| = 1, and whether a tuple hits
    a class (below) depends on its point set alone. A coherent X's
    witness is the suborbit, under the first class rep that hits, of
    X's first row whose point set it hits; `_coherent_witness` builds it
    on the verdict's first read of `witness`.

    A coherent X is elementary unless some subgroup class rep H has a
    suborbit Ht of more than one tuple on a proper subset of X's points.
    The first such class is cyclic: some h in H moves t, so <h>t, inside
    Ht, is such a suborbit too, and so is its conjugate under the rep of
    <h>'s class, whose order |<h>| puts it before H's class unless H =
    <h>. For cyclic H the support of Ht is the union of the cycles
    through t's points, and Ht has more than one tuple iff H moves some
    point of t."""
    rows = X.rows
    if rows.max() >= G.degree:
        raise DomainError("point out of range for this group")
    pw = _backend.powers_for(G.degree, X.arity)
    keys = np.sort(G.images[:, rows[0]] @ pw)
    if keys.size % len(rows) or (keys.reshape(len(rows), -1)
                                 != (rows @ pw)[:, None]).any():
        raise DomainError("X is not a k-orbit of G")
    masks = np.bitwise_or.reduce(1 << rows, axis=1)
    family = _coherence_family(G, int(masks.min()))
    if isinstance(family, CoherenceVerdict):
        return family
    verdict = CoherenceVerdict(kind="coherent")
    object.__setattr__(verdict, "_source", (G, rows, family))
    return verdict


def _coherent_witness(G, rows, family):
    """The witness of a coherent k-orbit with these rows, whose family
    record (rep, hits, supports) is `family`: see `classify_coherence`."""
    pw = _backend.powers_for(G.degree, rows.shape[1])
    masks = np.bitwise_or.reduce(1 << rows, axis=1)
    rep, hits, supports = family
    r = int(np.argmax(_backend.in_sorted(hits, masks)))
    u = supports[np.searchsorted(hits, masks[r])] >> np.arange(G.degree) & 1
    sub = rep[:, rows[r]]
    sub = sub[np.unique(sub @ pw, return_index=True)[1]]
    return frozenset((np.flatnonzero(u) + 1).tolist()), _kset(sub)


@functools.lru_cache(maxsize=2048)
def _coherence_family(G, least):
    """The verdict shared by the k-orbits whose coordinate sets form the
    G-orbit F of the point set with bit mask `least`: trivial, incoherent
    (witness: F's smash) or elementary-coherent, or for a coherent F
    (rep, hits, supports): the element rows of the first cyclic class rep
    that hits a set of F, the sorted masks of the sets it hits and of
    their supports. Classes are tested in chunks of about
    `_backend.KEY_BUDGET` point masks of F."""
    points = np.flatnonzero(least >> np.arange(G.degree) & 1)
    sets = np.unique(np.sort(G.images[:, points], axis=1), axis=0)
    if sets.shape[1] == 1 or len(sets) == 1:
        return CoherenceVerdict(kind="coherent", trivial=True)
    part = _smash(sets)
    if len(part) > 1:
        return CoherenceVerdict(kind="incoherent", witness=part)
    cyc, reps = _cyclic_classes(G)
    own = 1 << sets
    full = np.bitwise_or.reduce(own, axis=None)       # F's points
    step = max(1, _backend.KEY_BUDGET // sets.size)
    for start in range(0, len(reps), step):
        cycles = cyc[start:start + step, sets]          # (classes, |F|, k)
        supp = np.bitwise_or.reduce(cycles, axis=2)
        hit = (cycles != own).any(axis=2) & (supp != full)
        if hit.any():
            c = int(np.argmax(hit.any(axis=1)))
            hits = np.bitwise_or.reduce(own[hit[c]], axis=1)
            order = np.argsort(hits)
            return reps[start + c], hits[order], supp[c, hit[c]][order]
    return CoherenceVerdict(kind="elementary-coherent")


# ---------------------------------------------------------------------------
# stabilizers and automorphism groups
# ---------------------------------------------------------------------------

def translate_keys(G, rows):
    """The distinct translates gY, g in G, of the k-set Y with these sorted
    0-based rows, as (keys, fixed, union, labels): the sorted keys of each
    gY, one row each, by least key and then by first g in G's element
    order; the mask of g with gY = Y; the sorted union keys; and for each
    union key the row of its translate, or None when the translates overlap."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if rows.min() < 0 or rows.max() >= G.degree:
        raise DomainError("point out of range for this group")
    return _translates(G, rows.shape[1], rows.tobytes())


@functools.lru_cache(maxsize=8192)
def _translates(G, k, data):
    rows = np.frombuffer(data, dtype=np.int64).reshape(-1, k)
    pw = _backend.powers_for(G.degree, k)
    keys = np.sort(G.images[:, rows] @ pw, axis=1)
    fixed = np.all(keys == rows @ pw, axis=1)
    # one void item per row: a 1-D unique is 5x faster than unique(axis=0)
    rowid = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))
    first = np.sort(np.unique(rowid.ravel(), return_index=True)[1])
    keys = keys[first[np.argsort(keys[first, 0], kind="stable")]]
    union = np.unique(keys)
    if keys.size != union.size:
        return keys, fixed, union, None
    labels = np.empty_like(union)
    labels[np.searchsorted(union, keys)] = np.arange(len(keys))[:, None]
    return keys, fixed, union, labels


@functools.lru_cache(maxsize=32768)
def stab_of_ksuborbit(G, Y):
    """Setwise stabilizer {g in G : gY = Y} and whether it acts
    transitively on Y's tuples."""
    stab = PermGroup(G.degree, G.images[translate_keys(G, Y.rows)[1]])
    images = _backend.encode_rows(stab.images[:, Y.rows[0]], G.degree)
    return stab, np.unique(images).size == len(Y)


def pointwise_tuple_stabilizer(G, t):
    """{g in G : g fixes every coordinate of t}, the setwise stabilizer of {t}."""
    return _fixing(G, np.array([check_ktuple(t)], dtype=np.int64) - 1)


def setwise_point_stabilizer(G, points):
    """{g in G : g maps the point set onto itself}."""
    return _fixing(G, np.array(sorted(points), dtype=np.int64)[:, None] - 1)


def _fixing(G, rows):
    """The g in G that map the set of 0-based point rows onto itself."""
    if rows.size and (rows.min() < 0 or rows.max() >= G.degree):
        raise DomainError("point out of range for this group")
    return PermGroup(G.degree, G.images[_backend.fixed_rows(G.images, rows)])


@functools.lru_cache(maxsize=4096)
def aut_of_kset(X, degree=None, max_elements=DEFAULT_ELEMENT_CAP):
    """{s in Sym(u) : sX = X} for the points u of X, embedded at the
    ambient degree (default: the largest point of X) fixing the rest,
    filtered from Sym(u) one `_backend.sym_chunks` chunk at a time;
    |u|! counts against max_elements."""
    u = np.unique(X.rows)
    if degree is None:
        degree = int(u[-1]) + 1
    elif degree <= u[-1]:
        raise DomainError(f"point {u[-1] + 1} out of range for degree {degree}")
    rows = np.searchsorted(u, X.rows)
    sym = np.concatenate([c[_backend.fixed_rows(c, rows)]
                          for c in _backend.sym_chunks(u.size, max_elements)])
    aut = np.tile(np.arange(degree, dtype=np.int64), (len(sym), 1))
    aut[:, u] = u[sym]
    return PermGroup(degree, aut)


# ---------------------------------------------------------------------------
# suborbits and coset partitions
# ---------------------------------------------------------------------------

def orbits_on_kset(A, X):
    """Partition of X's tuples into A-orbits (X must be A-invariant)."""
    if X.rows.max() >= A.degree:
        raise DomainError("point out of range for this group")
    labels = _backend.orbit_labels(A.images, X.rows)
    if labels is None:
        raise DomainError("k-set is not invariant under the subgroup")
    return Partition.from_labels(X.tuples, labels.tolist())


def translates_of_kset(G, Y):
    """The distinct left translates {gY : g in G}, ordered by least tuple
    (then by first g), plus whether they form a partition of their union."""
    keys, _, _, labels = translate_keys(G, Y.rows)
    rows = _backend.decode_keys(keys, G.degree, Y.arity)
    return [_kset(r) for r in rows], labels is not None


@dataclass(frozen=True)
class CosetKPartitions:
    """Left translates L_k = GY_k (partition or covering of X_k) and
    the partition R_k of X_k into A-orbits."""

    x_orbit: "KSet"
    y_orbit: "KSet"
    left_classes: tuple
    left_is_partition: bool
    right: "Partition"


def coset_k_partitions(G, A, I):
    if not is_subgroup(A, G):
        raise DomainError("A is not a subgroup of G")
    I = check_ktuple(I)
    X = orbit_of_tuple(G, I)
    Y = orbit_of_tuple(A, I)
    left, is_part = translates_of_kset(G, Y)
    right = orbits_on_kset(A, X)
    return CosetKPartitions(x_orbit=X, y_orbit=Y, left_classes=tuple(left),
                            left_is_partition=is_part, right=right)


# ---------------------------------------------------------------------------
# automorphic numbers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AutomorphicReport:
    """Which k admit a k-element point suborbit, for k ranging over the
    divisors of |G| and, separately, of the degree."""

    order_divisors: tuple     # (k, bool) pairs, k | |G|
    degree_divisors: tuple    # (k, bool) pairs, k | n
    subsets: tuple            # all automorphic subsets, sorted

    def max_automorphic_degree_divisor(self):
        hits = [k for k, ok in self.degree_divisors if ok]
        return max(hits) if hits else None

    def max_automorphic_order_divisor(self):
        hits = [k for k, ok in self.order_divisors if ok]
        return max(hits) if hits else None


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


@functools.lru_cache(maxsize=128)
def automorphic_analysis(G):
    """The automorphic subsets of G, the point orbits of its subgroups,
    read from setwise stabilizers: a point set S is an orbit of some
    subgroup exactly when its setwise stabilizer G_S is transitive on S
    (an H-orbit S has H <= G_S), and then so is every gS. Point sets are
    bit masks, and each G-orbit of masks is tested once, at its least
    mask, found by `_backend.least_in_orbits` over the generators'
    action on all 2**n masks."""
    masks = np.arange(1 << G.degree)
    bits = (masks[:, None] >> np.arange(G.degree)) & 1
    least = _backend.least_in_orbits([bits @ (1 << g) for g in generator_rows(G)],
                                     masks.size)
    subsets = []
    for m in np.flatnonzero(least == masks)[1:]:    # mask 0 is the empty set
        points = (np.flatnonzero(bits[m]) + 1).tolist()
        if acts_transitively_on(setwise_point_stabilizer(G, points), points):
            subsets += [frozenset((np.flatnonzero(r) + 1).tolist())
                        for r in bits[least == m]]
    sizes = {len(s) for s in subsets}
    order_div = tuple((k, k in sizes) for k in _divisors(G.order))
    degree_div = tuple((k, k in sizes) for k in _divisors(G.degree))
    return AutomorphicReport(order_divisors=order_div,
                             degree_divisors=degree_div,
                             subsets=tuple(sorted(subsets, key=sorted)))


# ---------------------------------------------------------------------------
# k-set files
# ---------------------------------------------------------------------------

def render_kset(X):
    """Exchange form: "arity k" header, one space-separated tuple per
    line, canonical order."""
    lines = [f"arity {X.arity}"]
    lines += [" ".join(map(str, t)) for t in (X.rows + 1).tolist()]
    return "\n".join(lines) + "\n"


def parse_kset(text):
    arity = None
    tuples = []
    for lineno, line, raw in content_lines(text):
        if arity is None:
            arity = parse_header(line, raw, lineno, "arity k")
            continue
        try:
            t = tuple(int(p) for p in line.split())
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer point in {raw!r}") from None
        if len(t) != arity:
            raise ParseError(f"line {lineno}: expected {arity} points, got {len(t)}")
        tuples.append(t)
    if arity is None:
        raise ParseError("missing 'arity k' header")
    if not tuples:
        raise ParseError("k-set file lists no tuples")
    return KSet(tuples)


def save_kset(X, path):
    with open(path, "w") as fh:
        fh.write(render_kset(X))


def load_kset(path):
    with open(path) as fh:
        return parse_kset(fh.read())


# ---------------------------------------------------------------------------
# matrix rendering
# ---------------------------------------------------------------------------

def render_norbit(G, chain):
    """Plain-text bordered matrix of the n-orbit of G, rows grouped into
    cells by the left-coset partitions of the nested chain subgroups,
    columns grouped by the finest chain subgroup's point orbits."""
    if not chain or chain[-1] != G:
        raise DomainError("chain must end at the group itself")
    for a, b in zip(chain, chain[1:]):
        if not is_subgroup(a, b):
            raise DomainError("chain is not nested by inclusion")
    n = G.degree
    ident = initial_tuple(n)
    if len(chain) == 1:
        col_groups = [tuple(range(1, n + 1))]
    else:
        col_groups = [tuple(sorted(c)) for c in orbits_on_points(chain[0]).classes]

    def fmt_row(t):
        sep = "" if n <= 9 else ","
        return " ".join(sep.join(str(t[p - 1]) for p in grp) for grp in col_groups)

    rows_all = sorted(orbit_of_tuple(G, ident).tuples)
    width = len(fmt_row(rows_all[0]))
    sep_chars = "-=~*"

    def render_level(level, tuples):
        if level < 0:
            return [fmt_row(t) for t in tuples]
        sub = chain[level]
        y = orbit_of_tuple(sub, tuples[0])
        classes, _ = translates_of_kset(G, y)
        wanted = set(tuples)
        cells = sorted((sorted(set(c.tuples) & wanted)
                        for c in classes if set(c.tuples) & wanted),
                       key=lambda c: c[0])
        sep = sep_chars[min(level, len(sep_chars) - 1)] * width
        lines = []
        for i, c in enumerate(cells):
            if i:
                lines.append(sep)
            lines.extend(render_level(level - 1, c))
        return lines

    return "\n".join(render_level(len(chain) - 2, rows_all)) + "\n"

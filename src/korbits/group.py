"""Permutation groups by full element enumeration: closure, orbits,
block systems, quotient actions, primitivity, and normalizers in the
symmetric group.

Desk scale by design: groups are closed into explicit element arrays
(cap configurable, default 10^6) so cosets and set-level operations have
exact, simple semantics.
"""

import functools

import numpy as np

from . import _backend
from .errors import DomainError, ParseError, ResourceLimitError
from .partition import Partition
from .perm import (Permutation, content_lines, parse_header, parse_permutation,
                   parse_permutation_at)

# every enumeration of group elements: closures and Sym(m) (`--max-elements`)
DEFAULT_ELEMENT_CAP = 10 ** 6


def perm_to_row(p):
    return np.array([v - 1 for v in p.images], dtype=np.int64)


def row_to_perm(row):
    return Permutation(int(v) + 1 for v in row)


def generator_rows(G):
    """G's generators as a read-only (m, degree) array of 0-based image
    rows: the given ones, or else the greedy set of `reduce_generators`,
    computed on first read."""
    if G._gen_rows is None:
        object.__setattr__(G, "_gen_rows", reduce_generators(G.images))
        G._gen_rows.flags.writeable = False
    return G._gen_rows


class PermGroup:
    """A fully enumerated permutation group of some degree.

    `images` holds every element as a 0-based image row, sorted
    lexicographically (the canonical element order); `keys` the matching
    encoded keys, the group's identity: equality and hashing are by
    degree and `keys`, membership by `searchsorted` into `keys`.
    The generators are 0-based image rows, read by `generator_rows`;
    `generators` builds `Permutation`s from them on every read.

    The group takes ownership of the `images` and `gen_rows` arrays it
    is given: it makes them and `keys` read-only in place, since
    equality, hashing, membership and the caches that share groups read
    them. Rows that are not `degree` wide, a point outside 0..degree-1
    or a repeated row raise `DomainError`; rows in range that are not
    bijections pass unchecked, since a check per row would run on every
    group built internally.
    """

    __slots__ = ("degree", "images", "keys", "order", "_hash",
                 "_gen_rows", "_elements")

    def __init__(self, degree, images, gen_rows=None):
        object.__setattr__(self, "degree", int(degree))
        images = np.asarray(images, dtype=np.int64)
        if images.ndim != 2 or images.shape[1] != self.degree:
            raise DomainError(f"element rows must form an (m, {self.degree}) array")
        if images.size and (images.min() < 0 or images.max() >= degree):
            raise DomainError("point out of range for this group")
        keys = _backend.encode_rows(images, degree)
        if not np.all(np.diff(keys) > 0):
            order = np.argsort(keys)
            images = images[order]
            keys = keys[order]
            if not np.all(np.diff(keys) > 0):
                raise DomainError("repeated element row")
        images.flags.writeable = False
        keys.flags.writeable = False
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "order", int(images.shape[0]))
        object.__setattr__(self, "_hash", hash((self.degree, keys.tobytes())))
        if gen_rows is not None:
            gen_rows = np.asarray(gen_rows, dtype=np.int64).reshape(-1, degree)
            gen_rows.flags.writeable = False
        object.__setattr__(self, "_gen_rows", gen_rows)
        object.__setattr__(self, "_elements", None)

    def __setattr__(self, *a):
        raise AttributeError("PermGroup is immutable")

    @property
    def generators(self):
        return tuple(row_to_perm(r) for r in generator_rows(self))

    @property
    def elements(self):
        if self._elements is None:
            elems = tuple(row_to_perm(r) for r in self.images)
            object.__setattr__(self, "_elements", elems)
        return self._elements

    def __contains__(self, p):
        if isinstance(p, Permutation):
            if p.degree != self.degree:
                return False
            p = _backend.encode_rows(perm_to_row(p)[None, :], self.degree)[0]
        return bool(_backend.in_sorted(self.keys, int(p)))

    def __len__(self):
        return self.order

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        return (isinstance(other, PermGroup) and self._hash == other._hash
                and self.degree == other.degree
                and self.keys.tobytes() == other.keys.tobytes())

    def __hash__(self):
        return self._hash

    def __repr__(self):
        gens = ", ".join(g.cycle_string() for g in self.generators) or "()"
        return f"PermGroup(degree={self.degree}, order={self.order}, <{gens}>)"


def close_group(generators, degree=None, max_elements=DEFAULT_ELEMENT_CAP):
    """Breadth-first closure of a generator list under composition."""
    generators = list(generators)
    if degree is None:
        if not generators:
            raise DomainError("empty generator list needs an explicit degree")
        degree = generators[0].degree
    if degree < 1:
        raise DomainError("degree must be positive")
    if degree > _backend.MAX_KEY_DEGREE:
        raise ResourceLimitError("key-degree", _backend.MAX_KEY_DEGREE, degree)
    for g in generators:
        if g.degree != degree:
            raise DomainError(f"generator degree {g.degree} != {degree}")
    rows = np.array([perm_to_row(g) for g in generators], dtype=np.int64).reshape(-1, degree)
    images = _backend.closure_images(rows, degree, max_elements)
    return PermGroup(degree, images, rows)


def reduce_generators(images):
    """Greedy small generating set of the group whose element rows, in
    key order, are `images` (`PermGroup.images`): each generator is the
    least element outside the subgroup generated so far."""
    index = _backend.row_index(images)
    have = np.arange(images.shape[0]) == 0              # the identity is row 0
    gens = _backend.greedy_generators(images, index,
                                      np.ones_like(have), have)
    return images[gens]


def is_subgroup(A, G):
    return A.degree == G.degree and bool(_backend.in_sorted(G.keys, A.keys).all())


def normalizer_mask(rows, gens, keys):
    """The mask of the permutation rows x of `rows` that normalize the
    group with sorted element keys `keys` and generator rows `gens`:
    x*h*x^-1, which maps x(i) to x(h(i)), is in it for every h in gens."""
    mask = np.ones(rows.shape[0], dtype=bool)
    conj = np.empty_like(rows)
    for h in gens:
        np.put_along_axis(conj, rows, rows[:, h], axis=1)
        mask &= _backend.in_sorted(keys, _backend.encode_rows(conj, rows.shape[1]))
    return mask


def conjugate_rows_by(rows, g_row):
    """Rows of g*h*g^-1 for every row h in rows (0-based image rows)."""
    return g_row[rows[:, np.argsort(g_row)]]


# ---------------------------------------------------------------------------
# standard groups
# ---------------------------------------------------------------------------

def symmetric_group(n, max_elements=DEFAULT_ELEMENT_CAP):
    if n <= 1:
        return close_group([], degree=n)
    gens = [parse_permutation("(1 2)", n)]
    if n > 2:
        gens.append(Permutation(list(range(2, n + 1)) + [1]))
    return close_group(gens, degree=n, max_elements=max_elements)


def alternating_group(n, max_elements=DEFAULT_ELEMENT_CAP):
    if n <= 2:
        return close_group([], degree=n)
    gens = [parse_permutation(f"(1 2 {k})", n) for k in range(3, n + 1)]
    return close_group(gens, degree=n, max_elements=max_elements)


def cyclic_group(n):
    return close_group([Permutation(list(range(2, n + 1)) + [1])], degree=n)


def dihedral_group(n):
    rot = Permutation(list(range(2, n + 1)) + [1])
    refl = Permutation([1 + (n + 1 - i) % n for i in range(1, n + 1)])
    return close_group([rot, refl], degree=n)


def klein_four_group():
    return close_group([parse_permutation("(1 2)(3 4)", 4),
                        parse_permutation("(1 3)(2 4)", 4)])


# ---------------------------------------------------------------------------
# orbits, blocks, quotients
# ---------------------------------------------------------------------------

def orbits_on_points(G):
    """Partition of 1..n into G-orbits."""
    # the least image of point v is the least point of v's orbit
    return Partition.from_labels(range(1, G.degree + 1),
                                 G.images.min(axis=0).tolist())


def is_transitive(G):
    """Whether the images of point 1 cover every point."""
    return bool(np.bincount(G.images[:, 0], minlength=G.degree).all())


def is_abelian(G):
    """Whether every two generator rows a, b commute: a[b] equals b[a]."""
    gens = generator_rows(G)
    prods = gens[:, gens]
    return bool((prods == prods.transpose(1, 0, 2)).all())


def _pair_closures(G):
    """For each beta in 2..n, the finest G-invariant partition of the
    points of a transitive G with 1 and beta together: the components of
    the orbital graph whose edges are the distinct pairs {g(1), g(beta)},
    g in G. One join over all the graphs, with the points of the graph
    of beta offset by n * (beta - 2) so that no two graphs meet."""
    n = G.degree
    if n == 1:
        return []
    # the distinct pairs g(1) * n + g(beta) of each beta, offset by
    # n * n * (beta - 2)
    edges = np.concatenate([
        np.flatnonzero(np.bincount(G.images[:, 0] * n + G.images[:, b],
                                   minlength=n * n)) + (b - 1) * n * n
        for b in range(1, n)])
    ends = np.stack([edges // (n * n) * n + edges // n % n,
                     edges // (n * n) * n + edges % n], axis=1).ravel()
    label = np.empty((n - 1) * n, dtype=np.int64)
    label[ends] = _backend.join_labels(np.arange(ends.size) // 2, ends)
    return [Partition.from_labels(range(1, n + 1), row.tolist())
            for row in label.reshape(n - 1, n)]


def block_systems(G):
    """All minimal non-trivial G-invariant partitions of the point set.

    Empty list iff G is primitive in the classical sense.
    """
    if not is_transitive(G):
        raise DomainError("block_systems requires a transitive group")
    found = []
    for p in _pair_closures(G):
        if not p.is_trivial and p not in found:
            found.append(p)
    minimal = [p for p in found
               if not any(q != p and q.refines(p) for q in found)]
    minimal.sort(key=lambda p: tuple(tuple(sorted(c)) for c in p.classes))
    return minimal


def block_images(G, Q):
    """0-based images of the classes of a G-invariant partition Q under
    every element of G, aligned with G.images rows.

    Class i is the i-th class of Q.classes (canonical order). Q is
    G-invariant iff each generator maps every point into the class of
    the image of its class's first point: a bijection that maps each
    class into a class permutes the classes.
    """
    if Q.domain != frozenset(range(1, G.degree + 1)):
        raise DomainError("partition domain must be the full point set")
    class_of = np.empty(G.degree, dtype=np.int64)
    for i, c in enumerate(Q.classes):
        class_of[[x - 1 for x in c]] = i
    firsts = [min(c) - 1 for c in Q.classes]
    gens = generator_rows(G)
    if (class_of[gens] != class_of[gens[:, firsts]][:, class_of]).any():
        raise DomainError("partition is not G-invariant")
    return class_of[G.images[:, firsts]]


def quotient_action(G, Q):
    """Induced group on the classes of a G-invariant partition Q,
    generated by the images of G's generators.

    Classes are numbered 1..|Q| in canonical order.
    """
    rows = block_images(G, Q)
    gen_at = np.searchsorted(G.keys, _backend.encode_rows(generator_rows(G),
                                                          G.degree))
    m = len(Q.classes)
    _, first = np.unique(_backend.encode_rows(rows, m), return_index=True)
    return PermGroup(m, rows[first], rows[gen_at])


def is_primitive(G, convention="paper"):
    """Classical: transitive with no non-trivial block system.
    Paper convention: classical and non-Abelian."""
    if convention not in ("classical", "paper"):
        raise DomainError(f"unknown primitivity convention {convention!r}")
    if not is_transitive(G):
        raise DomainError("primitivity requires a transitive group")
    classical = not block_systems(G)
    if convention == "classical":
        return classical
    return classical and not is_abelian(G)


# ---------------------------------------------------------------------------
# normalizers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def normalizer_in_sym(G, max_elements=DEFAULT_ELEMENT_CAP):
    """N_{S_n}(G) by filtering all n! permutations, one chunk of
    `_backend.sym_chunks` at a time; n! counts against max_elements."""
    gens = generator_rows(G)
    rows = [c[normalizer_mask(c, gens, G.keys)]
            for c in _backend.sym_chunks(G.degree, max_elements)]
    return PermGroup(G.degree, np.concatenate(rows))


def normalizer_in(W, G):
    """N_W(G) = {x in W : x G x^-1 = G}."""
    if G.degree != W.degree:
        raise DomainError("degree mismatch")
    mask = normalizer_mask(W.images, generator_rows(G), G.keys)
    return PermGroup(W.degree, W.images[mask])


# ---------------------------------------------------------------------------
# group files
# ---------------------------------------------------------------------------

def render_group(G):
    """Canonical text form: "degree n" then one generator per line in
    cycle notation with 1-based points."""
    lines = [f"degree {G.degree}"]
    lines += [g.cycle_string() for g in G.generators]
    return "\n".join(lines) + "\n"


def parse_group(text, max_elements=DEFAULT_ELEMENT_CAP):
    degree = None
    gens = []
    for lineno, line, raw in content_lines(text):
        if degree is None:
            degree = parse_header(line, raw, lineno, "degree n")
            continue
        gens.append(parse_permutation_at(line, degree, lineno))
    if degree is None:
        raise ParseError("missing 'degree n' header")
    return close_group(gens, degree=degree, max_elements=max_elements)


def save_group(G, path):
    with open(path, "w") as fh:
        fh.write(render_group(G))


def load_group(path, max_elements=DEFAULT_ELEMENT_CAP):
    with open(path) as fh:
        return parse_group(fh.read(), max_elements=max_elements)

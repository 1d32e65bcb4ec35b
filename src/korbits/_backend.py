"""Hot kernels: closure, tuple orbits, orbit labels, label join,
sorted-key membership, and the element index of a group with closure
inside it, in numpy.

Permutations are 0-based image arrays of shape (n,). A permutation p is
encoded as the integer key sum(p[i] * n**(n-1-i)), so numeric key order
equals lexicographic order on image sequences; a row of k points is
keyed the same way with k digits. Keys fit int64 for degree <=
MAX_KEY_DEGREE. The closure keeps the keys it has found as a sorted
array. `tuple_orbits` finds the orbits on k-tuples level by level from
their least tuples and lists each orbit's rows as the sorted images of
its least tuple; `orbit_labels` labels given rows, matching image keys
against the rows' sorted keys by `searchsorted`. Neither allocates
anything indexed by the key space.
`row_index`, `close_index`, `greedy_generators` and `least_in_orbits`
work on row numbers of a group's sorted element array instead of keys;
`close_index` closes many index sets at once. `fixed_rows`, the
one setwise-stabilizer filter, reads a group's rows or `sym_chunks`.
"""

import functools
import itertools
import math

import numpy as np

from .errors import ResourceLimitError

BACKEND = "numpy"

MAX_KEY_DEGREE = 12

# Hard limit on n**k in tuple_orbits. It bounds no allocation: the
# kernel holds about KEY_BUDGET image keys at a time beside its output,
# one row per tuple, which max_tuples bounds. It stays because lifting
# it turns the 4 degree-9 ops of the `orbits` benchmark workload that
# fail on it into about 1.45 M more classified tuples, which changes
# that workload's work, memory and seed-0 digest; it goes together with
# a benchmark update. It also keeps every tuple key below 2**31, so
# tuple_orbits holds image keys as int32: raising it past 2**31, or
# removing it, means widening that dtype to int64.
_DENSE_SPACE_LIMIT = 40_000_000

# Image keys gathered per batch of orbit_labels: a batch takes
# max(1, _BATCH_KEYS // |G|) rows, so its temporaries hold about
# max(_BATCH_KEYS, |G|) keys, while the batches, one Python iteration
# each, stay few. subgroups.subgroup_classes closes
# max(1, _BATCH_KEYS // limit) candidates per `close_index` call, so a
# batch marks about _BATCH_KEYS elements.
_BATCH_KEYS = 4096

# Image keys per chunk of `fixed_rows`, of `tuple_orbits`, of the
# translate test of propcheck._eval_P_giso and of the position matrix
# of propcheck._aut_suborbit_partition_failure: a chunk of elements
# that map w point rows each holds about max(KEY_BUDGET, w) keys. A
# chunk of `sym_chunks` holds about KEY_BUDGET points.
KEY_BUDGET = 1 << 18


@functools.lru_cache(maxsize=1024)
def powers_for(n, width):
    """Key weights: position 0 is most significant. The array is shared
    between calls, so it is read-only."""
    pw = np.array([n ** (width - 1 - i) for i in range(width)], dtype=np.int64)
    pw.flags.writeable = False
    return pw


def encode_rows(rows, n):
    """int64 keys for an (m, width) array of 0-based point rows."""
    rows = np.asarray(rows, dtype=np.int64)
    return rows @ powers_for(n, rows.shape[1])


def decode_keys(keys, n, width):
    """The inverse of encode_rows: int64 0-based point rows of integer
    keys. The remainder is taken in place, so no second array of the
    rows' size is held."""
    rows = np.asarray(keys, dtype=np.int64)[..., None] // powers_for(n, width)
    rows %= n
    return rows


def in_sorted(sorted_keys, keys):
    """Whether each of `keys` occurs in the non-empty ascending int64
    array `sorted_keys`."""
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[pos] == keys


def _arrangements(n, k, rows):
    """All k-tuples of distinct points of range(n), in key order, in
    chunks of at most `rows` tuples; read by `sym_chunks`."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(n), k))
    left = math.perm(n, k)
    while left:
        count = min(rows, left)
        left -= count
        yield np.fromiter(flat, dtype=np.int64, count=count * k).reshape(count, k)


def sym_chunks(n, max_elements):
    """Every permutation of degree n as an image row, in key order, in
    chunks of at most max(1, KEY_BUDGET // n) rows. Raises
    ResourceLimitError, before it enumerates any, when n! > max_elements."""
    total = math.factorial(n)
    if total > max_elements:
        raise ResourceLimitError("max-elements", max_elements, total, flag="--max-elements")
    return _arrangements(n, n, max(1, KEY_BUDGET // n))


def fixed_rows(images, rows):
    """The mask of the element rows g of `images` that map the sorted,
    distinct 0-based point rows `rows` onto themselves: g passes when
    the sorted keys of g(rows) equal the keys of `rows`. Runs in chunks
    of about KEY_BUDGET image keys."""
    pw = powers_for(images.shape[1], rows.shape[1])
    keys = rows @ pw
    step = max(1, KEY_BUDGET // max(1, keys.size))
    mask = np.empty(images.shape[0], dtype=bool)
    for start in range(0, mask.size, step):
        img = np.sort(images[start:start + step, rows] @ pw, axis=1)
        mask[start:start + step] = (img == keys).all(axis=1)
    return mask


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

def _closure(gens, cap):
    """Breadth-first closure; None when it passes `cap` elements."""
    n = gens.shape[1]
    pw = powers_for(n, n)
    frontier = np.arange(n, dtype=np.int64)[None, :]
    found = [frontier]
    seen = frontier @ pw            # sorted keys of every element found
    while True:
        prods = frontier[:, gens].reshape(-1, n)
        keys, idx = np.unique(prods @ pw, return_index=True)
        pos = np.searchsorted(seen, keys)
        fresh = seen[np.minimum(pos, seen.size - 1)] != keys
        if not fresh.any():
            break
        frontier = prods[idx[fresh]]
        found.append(frontier)
        seen = np.insert(seen, pos[fresh], keys[fresh])
        if seen.size > cap:
            return None
    return np.concatenate(found)


def closure_images(gen_images, degree, max_elements):
    """Close a generator list; return the (order, n) element array sorted
    lexicographically by image sequence.

    Raises ResourceLimitError when the closure exceeds max_elements.
    """
    n = degree
    gens = np.asarray(gen_images, dtype=np.int64).reshape(-1, n)
    elems = _closure(gens, max_elements)
    if elems is None:
        raise ResourceLimitError("max-elements", max_elements, f"> {max_elements}",
                                 flag="--max-elements")
    keys = encode_rows(elems, n)
    return elems[np.argsort(keys)]


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def orbit_labels(images, rows):
    """Orbit ids of point rows under the group whose full element array
    is `images`.

    `rows` is an (R, k) array of 0-based points in lexicographic order,
    so their keys ascend. Ids are numbered in order of each orbit's least
    row. Returns None when some image of a row is not a row.
    """
    pw = powers_for(images.shape[1], rows.shape[1])
    keys = rows @ pw
    least = np.full(keys.size, -1, dtype=np.int64)
    batch = max(1, _BATCH_KEYS // images.shape[0])
    start = 0
    while True:
        todo = start + np.flatnonzero(least[start:] < 0)[:batch]
        if not todo.size:
            break
        img = images[:, rows[todo]] @ pw            # (|G|, batch) image keys
        pos = np.minimum(np.searchsorted(keys, img), keys.size - 1)
        if not np.array_equal(keys[pos], img):
            return None
        least[pos] = img.min(axis=0)                # each column is one orbit
        start = todo[-1] + 1
    return np.unique(least, return_inverse=True)[1]


def row_index(images):
    """The index function of the distinct, lexicographically sorted
    element rows `images`: it maps an (m, n) array of rows of `images`
    to their row numbers.

    It reads a trie of image prefixes: level l maps (node, point) to the
    node of the prefix one point longer, nodes numbered in row order.
    The levels stop where the prefixes tell the rows apart, so the last
    node is the row number; a lookup is one gather per level instead of
    a binary search over keys.
    """
    order, n = images.shape
    levels = []
    node = np.zeros(order, dtype=np.int64)
    while int(node[-1]) + 1 < order:
        code = node * n + images[:, len(levels)]
        child = np.full(int(code[-1]) + 1, -1, dtype=np.int64)
        node = np.cumsum(np.concatenate(([0], code[1:] != code[:-1])))
        child[code] = node
        levels.append(child)

    def index(rows):
        at = np.zeros(rows.shape[0], dtype=np.int64)
        for lvl, child in enumerate(levels):
            at = child[at * n + rows[:, lvl]]
        return at

    return index


def close_index(images, index, masks, maps, extra, limit):
    """Close every row of the boolean (B, |G|) array `masks` in place and
    return the mask of the rows that passed `limit`.

    `images` are the sorted element rows of a group G and `index` is
    their `row_index`. Each row marks elements of G and is closed under
    the index maps `maps`, each the index of x*g for every element x.
    Row b is closed under those maps and under right multiplication by
    the element at index `extra[b]`, which is applied to that row's
    frontier alone, as the index of x*extra[b] for each frontier x.

    One breadth-first search runs over (row, element) pairs, kept as
    flat indices into `masks`. Round 1 applies only the extra elements,
    since the rows are closed under `maps`; later rounds apply every map.
    A map is one-to-one on each row and marks are set before the next
    map reads them, so a frontier never repeats a pair. A row that marks
    more than `limit` elements stops there, partly marked: for a
    subgroup, `limit` is an order above which the closure is known.
    """
    rows, order = masks.shape
    flat = masks.reshape(-1)
    count = np.count_nonzero(masks, axis=1)
    cols = images[extra]
    frontier = np.flatnonzero(flat)
    row = frontier // order
    applied = []
    while frontier.size:
        base = row * order
        x = frontier - base
        imgs = [index(images[x[:, None], cols[row]])] + [m[x] for m in applied]
        for i, img in enumerate(imgs):
            img += base
            imgs[i] = img = img[~flat[img]]
            flat[img] = True
        frontier = np.concatenate(imgs)
        row = frontier // order
        count += np.bincount(row, minlength=rows)
        over = count > limit
        if over.any():
            keep = ~over[row]
            frontier, row = frontier[keep], row[keep]
        applied = maps
    return count > limit


def greedy_generators(images, index, sub, have, gens=(), maps=()):
    """Generators of the subgroup with index mask `sub` of the group
    whose sorted element rows are `images`, with `row_index` `index`:
    `gens`, which generate the mask `have` and have the right
    multiplication maps `maps`, then greedily the least index of `sub`
    outside the closure so far. Marks that closure in `have`."""
    gens, maps = list(gens), list(maps)
    while True:
        rest = np.flatnonzero(sub & ~have)
        if not rest.size:
            return gens
        if len(maps) < len(gens):       # the map of the last generator
            maps.append(index(images[:, images[gens[-1]]]))
        gens.append(int(rest[0]))
        close_index(images, index, have[None], maps, gens[-1:], have.size)


def least_in_orbits(maps, size):
    """The least index in the orbit of each of range(size) under the
    group generated by the index permutations `maps`: every index takes
    the least label of its images, and then the label of its label,
    until nothing changes."""
    lab = np.arange(size)
    while True:
        prev = lab
        for m in maps:
            lab = np.minimum(lab, lab[m])
        lab = lab[lab]
        if np.array_equal(lab, prev):
            return lab


def join_labels(a, b):
    """Labels of the join of the label arrays a and b, numbered by least
    index: each index takes the least index of its a-class, then of its
    b-class, until nothing changes."""
    lab = np.arange(a.size)
    while True:
        prev = lab
        for cls in (a, b):
            least = np.full(cls.max() + 1, a.size)
            np.minimum.at(least, cls, lab)
            lab = least[cls]
        if np.array_equal(lab, prev):
            return np.unique(lab, return_inverse=True)[1]


def _least_extensions(images, least):
    """The extensions by one point of the rows of `least`, the least
    tuples of every orbit on shorter tuples in ascending order, that are
    least in their own orbits: in ascending order, chunk by chunk, as
    (row numbers in `least`, added points, (|G|, c) image keys).

    A k-orbit's least tuple extends the least tuple of the orbit of its
    (k-1)-prefix by one unused point, since any element that lowers the
    prefix lowers the whole tuple. So the candidates are the rows of
    `least` extended by each point they miss, and a candidate is kept
    when no image of it under G is lower. Image keys are built a prefix
    at a time, in chunks of about KEY_BUDGET keys.
    """
    order, n = images.shape
    m, w = least.shape
    free = np.ones((m, n), dtype=bool)
    free[np.arange(m)[:, None], least] = False
    parent, point = np.nonzero(free)
    pw = powers_for(n, w).astype(images.dtype)
    step = max(1, KEY_BUDGET // (order * (n - w)))      # parents per chunk
    for start in range(0, m, step):
        lo, hi = np.searchsorted(parent, [start, start + step])
        par, pt = parent[lo:hi], point[lo:hi]
        prefix = images[:, least[start:start + step]] @ pw  # (|G|, parents)
        img = prefix[:, par - start] * n + images[:, pt]    # (|G|, candidates)
        own = (least[par] @ pw) * n + pt
        is_least = img.min(axis=0) == own
        yield par[is_least], pt[is_least], img[:, is_least]


def tuple_orbits(images, k, max_tuples):
    """Partition all non-diagonal k-tuples over 0-based points into orbits
    of the group whose full element array is `images`.

    The orbits are found level by level from their least tuples (see
    `_least_extensions`), and each orbit's rows are the sorted distinct
    images of its least tuple, so nothing is indexed by the n**k key
    space. Returns (tuples, orbit_ids), one row per tuple, grouped by
    orbit: orbits in order of least tuple, rows ascending within each
    orbit, ids 0, 1, ... non-decreasing.
    """
    n = images.shape[1]
    total = math.perm(n, k)
    if total > max_tuples:
        raise ResourceLimitError("max-tuples", max_tuples, total, flag="--max-tuples")
    if n ** k > _DENSE_SPACE_LIMIT:
        raise ResourceLimitError("tuple-key-space", _DENSE_SPACE_LIMIT, n ** k)
    # int32 keys sort and divide faster than int64; see _DENSE_SPACE_LIMIT
    images = np.asarray(images, dtype=np.int32)
    least = np.empty((1, 0), dtype=np.int64)
    for _ in range(k - 1):
        least = np.concatenate([np.concatenate((least[par], pt[:, None]), axis=1)
                                for par, pt, _ in _least_extensions(images, least)])
    keys, sizes = [], []
    for _, _, img in _least_extensions(images, least):
        col = np.sort(img, axis=0).T                        # one orbit a row
        new = np.ones(col.shape, dtype=bool)
        new[:, 1:] = col[:, 1:] != col[:, :-1]
        keys.append(col[new])
        sizes.append(np.count_nonzero(new, axis=1))
    sizes = np.concatenate(sizes)
    return (decode_keys(np.concatenate(keys), n, k),
            np.repeat(np.arange(sizes.size), sizes))

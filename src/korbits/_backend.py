"""Hot kernels: group closure and k-tuple orbit partitioning, in numpy.

Permutations are 0-based image arrays of shape (n,). A permutation p is
encoded as the integer key sum(p[i] * n**(n-1-i)), so numeric key order
equals lexicographic order on image sequences. Keys fit int64 for
degree <= MAX_KEY_DEGREE. The closure keeps the keys it has found as a
sorted array, so it serves every such degree; the tuple-orbit kernel
indexes a dense array by tuple key, so n**k is bounded by
_DENSE_SPACE_LIMIT.
"""

import itertools

import numpy as np

from .errors import ResourceLimitError

BACKEND = "numpy"

MAX_KEY_DEGREE = 12

# the tuple-orbit kernel allocates n**k orbit labels
_DENSE_SPACE_LIMIT = 40_000_000


def powers_for(n, width):
    """Key weights: position 0 is most significant."""
    return np.array([n ** (width - 1 - i) for i in range(width)], dtype=np.int64)


def encode_rows(rows, n):
    """int64 keys for an (m, width) array of 0-based point rows."""
    rows = np.asarray(rows, dtype=np.int64)
    return rows @ powers_for(n, rows.shape[1])


def decode_key(key, n, width):
    out = np.empty(width, dtype=np.int64)
    for i in range(width - 1, -1, -1):
        out[i] = key % n
        key //= n
    return out


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
# k-tuple orbit partitioning
# ---------------------------------------------------------------------------

def _tuple_orbits(images, k, total):
    m, n = images.shape
    pw = powers_for(n, k)
    orbit_of = np.full(n ** k, -1, dtype=np.int32)
    out_tuples = np.empty((total, k), dtype=np.int64)
    out_orbit = np.empty(total, dtype=np.int32)
    pos = 0
    n_orbits = 0
    for t in itertools.permutations(range(n), k):
        ta = np.array(t, dtype=np.int64)
        key = int(ta @ pw)
        if orbit_of[key] < 0:
            members = images[:, ta]
            mkeys = members @ pw
            orbit_of[mkeys] = n_orbits
            n_orbits += 1
        out_tuples[pos] = ta
        out_orbit[pos] = orbit_of[key]
        pos += 1
    return out_tuples, out_orbit


def tuple_orbits(images, k, max_tuples):
    """Partition all non-diagonal k-tuples over 0-based points into orbits
    of the group whose full element array is `images`.

    Returns (tuples, orbit_ids): tuples in lexicographic order, orbit ids
    assigned in order of least tuple.
    """
    images = np.asarray(images, dtype=np.int64)
    m, n = images.shape
    total = 1
    for i in range(k):
        total *= n - i
    if total > max_tuples:
        raise ResourceLimitError("max-tuples", max_tuples, total, flag="--max-tuples")
    if n ** k > _DENSE_SPACE_LIMIT:
        raise ResourceLimitError("tuple-key-space", _DENSE_SPACE_LIMIT, n ** k)
    return _tuple_orbits(images, k, total)

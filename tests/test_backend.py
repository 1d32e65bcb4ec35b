"""Closure and tuple-orbit kernels against brute-force oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from korbits import _backend, group, korbit
from korbits.errors import ResourceLimitError


def _brute_closure(gen_rows, n):
    """Set-based closure oracle over 0-based image tuples."""
    gens = [tuple(g) for g in gen_rows]
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                p = tuple(e[g[v]] for v in range(n))
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return sorted(seen)


def gen_lists(max_degree=6, max_gens=3):
    def one(n):
        return st.lists(
            st.permutations(list(range(n))).map(tuple),
            min_size=1, max_size=max_gens)

    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda n: st.tuples(st.just(n), one(n)))


def _cycle(n):
    return tuple((i + 1) % n for i in range(n))


def _dihedral(n):
    return [_cycle(n), tuple(-i % n for i in range(n))]


def _wreath(base, top):
    """(degree, generator rows) of base wr top: the base generators act
    on the first block {0..a-1}, the top ones permute the b blocks."""
    a, b = len(base[0]), len(top[0])
    gens = [tuple(g) + tuple(range(a, a * b)) for g in base]
    gens += [tuple(h[p // a] * a + p % a for p in range(a * b)) for h in top]
    return a * b, gens


C3 = [_cycle(3)]
S2, S3, S5 = [(1, 0)], [(1, 0, 2), _cycle(3)], [(1, 0, 2, 3, 4), _cycle(5)]
S7_FIXING_8 = [(1, 0, 2, 3, 4, 5, 6, 7), _cycle(7) + (7,)]


class TestClosure:
    def test_trivial(self):
        out = _backend.closure_images(np.empty((0, 3), dtype=np.int64), 3, 10)
        assert out.tolist() == [[0, 1, 2]]

    def test_symmetric_from_transposition_and_cycle(self):
        gens = [[1, 0, 2, 3], [1, 2, 3, 0]]
        out = _backend.closure_images(gens, 4, 100)
        assert out.shape == (24, 4)
        assert out.tolist() == sorted(map(list, itertools.permutations(range(4))))

    def test_cap_enforced(self):
        gens = [[1, 0, 2, 3], [1, 2, 3, 0]]
        with pytest.raises(ResourceLimitError):
            _backend.closure_images(gens, 4, 23)
        n, gens = _wreath(S2, S5)           # order 2**5 * 120 = 3840
        with pytest.raises(ResourceLimitError):
            _backend.closure_images(gens, n, 3839)
        assert _backend.closure_images(gens, n, 3840).shape == (3840, n)

    @pytest.mark.parametrize("base, top, order",
                             [(S3, S3, 1296), (S5, S2, 28800)],
                             ids=["S3wrS3", "S5wrS2"])
    def test_wreath_products_sorted(self, base, top, order):
        n, gens = _wreath(base, top)
        out = _backend.closure_images(gens, n, order)
        assert out.shape == (order, n)
        assert np.all(np.diff(_backend.encode_rows(out, n)) > 0)

    @given(gen_lists())
    @example((9, [_cycle(9)]))
    @example((9, _dihedral(9)))
    @example(_wreath(C3, C3))
    @example((11, [_cycle(11)]))
    @example((12, _dihedral(12)))
    def test_matches_brute_force(self, data):
        n, gens = data
        out = _backend.closure_images(np.array(gens, dtype=np.int64), n, 10 ** 4)
        assert [tuple(r) for r in out.tolist()] == _brute_closure(gens, n)

    @given(gen_lists())
    def test_sorted_and_closed(self, data):
        n, gens = data
        out = _backend.closure_images(np.array(gens, dtype=np.int64), n, 10 ** 4)
        keys = _backend.encode_rows(out, n)
        assert np.all(np.diff(keys) > 0)
        elems = {tuple(r) for r in out.tolist()}
        for e in list(elems)[:20]:
            for g in gens:
                assert tuple(e[g[v]] for v in range(n)) in elems


class TestIndexSpace:
    """row_index and close_index inside S7, against closure_images."""

    N = 5040
    IMAGES = _backend.closure_images([(1, 0, 2, 3, 4, 5, 6), _cycle(7)], 7, N)

    def test_row_index_finds_every_row(self):
        index = _backend.row_index(self.IMAGES)
        assert np.array_equal(index(self.IMAGES), np.arange(self.N))
        perm = np.random.default_rng(0).permutation(self.N)
        assert np.array_equal(index(self.IMAGES[perm]), perm)

    @pytest.mark.parametrize("lagrange", [False, True])
    def test_matches_closure_images(self, lagrange):
        """Random 2-generator subgroups, each generator a random
        permutation of a random subset of the points, so that orders
        range from 1 to 5040; with `lagrange` the search may stop above
        2520 elements, half of S7."""
        keys = _backend.encode_rows(self.IMAGES, 7)
        index = _backend.row_index(self.IMAGES)
        rng = np.random.default_rng(2005)
        orders = set()
        for _ in range(50):
            gens = np.tile(np.arange(7), (2, 1))
            for g in gens:
                support = rng.choice(7, size=rng.integers(2, 8), replace=False)
                g[support] = rng.permutation(support)
            want = _backend.encode_rows(_backend.closure_images(gens, 7, self.N), 7)
            mask = np.zeros((1, self.N), dtype=bool)
            mask[0, 0] = True                           # the identity
            g0, g1 = index(gens)
            limit = self.N // 2 if lagrange else self.N
            # <g0>, then <g0, g1> from it, each closed under the maps so far
            over = _backend.close_index(self.IMAGES, index, mask, [], [g0], limit)
            if not over[0]:
                over = _backend.close_index(self.IMAGES, index, mask,
                                            [index(self.IMAGES[:, gens[0]])],
                                            [g1], limit)
            if over[0]:
                assert lagrange and np.count_nonzero(mask) > limit
                mask[:] = True
            assert np.array_equal(keys[mask[0]], want)
            orders.add(want.size)
        assert len(orders) > 10 and {1, 2, 5040} <= orders

    def test_batch_rows_match_single_rows(self):
        """Closing many rows at once, each from the same subgroup with its
        own extra element, gives the closures of one row at a time."""
        index = _backend.row_index(self.IMAGES)
        h = index(np.array([[1, 0, 2, 3, 4, 5, 6]]))[0]     # <(1 2)>
        base = np.zeros(self.N, dtype=bool)
        base[[0, h]] = True
        maps = [index(self.IMAGES[:, self.IMAGES[h]])]
        # rows 1..6 move only the last points, so some closures stay small
        extra = np.concatenate([np.arange(1, 7), np.random.default_rng(7).choice(
            np.arange(7, self.N), size=6, replace=False)])
        masks = np.tile(base, (extra.size, 1))
        over = _backend.close_index(self.IMAGES, index, masks, maps, extra, 100)
        for row, c, full in zip(masks, extra, over):
            one = base[None].copy()
            assert _backend.close_index(self.IMAGES, index, one, maps,
                                        [c], 100)[0] == full
            assert full == (np.count_nonzero(one) > 100)
            if not full:
                assert np.array_equal(row, one[0])
        assert 0 < np.count_nonzero(over) < extra.size


def _brute_tuple_orbits(images, k, n):
    """Oracle: expand each orbit fully, label by least tuple."""
    elems = [tuple(r) for r in images.tolist()]
    labels = {}
    for t in itertools.permutations(range(n), k):
        if t in labels:
            continue
        members = {tuple(e[v] for v in t) for e in elems}
        rep = min(members)
        for m in members:
            labels[m] = rep
    return labels


class TestTupleOrbits:
    @given(gen_lists(max_degree=5), st.integers(min_value=1, max_value=3))
    @example((9, [_cycle(9)]), 5)             # rows need several batches
    @example((8, S7_FIXING_8), 2)             # |G| alone exceeds the batch budget
    def test_matches_brute_force(self, data, k):
        n, gens = data
        if k > n:
            return
        images = _backend.closure_images(np.array(gens, dtype=np.int64), n, 10 ** 4)
        tuples, ids = _backend.tuple_orbits(images, k, 10 ** 5)
        oracle = _brute_tuple_orbits(images, k, n)
        got = {}
        for row, oid in zip(tuples.tolist(), ids.tolist()):
            got.setdefault(oid, []).append(tuple(row))
        by_rep = {min(v): sorted(v) for v in got.values()}
        want = {}
        for t, rep in oracle.items():
            want.setdefault(rep, []).append(t)
        assert by_rep == {rep: sorted(v) for rep, v in want.items()}

    def test_tuples_lexicographic_and_ids_by_least_tuple(self):
        images = _backend.closure_images(
            np.array([[1, 0, 2], [1, 2, 0]], dtype=np.int64), 3, 10)
        tuples, ids = _backend.tuple_orbits(images, 2, 100)
        assert tuples.tolist() == sorted(map(list, itertools.permutations(range(3), 2)))
        assert ids[0] == 0

    def test_cap_enforced(self):
        images = np.arange(5, dtype=np.int64)[None, :]
        with pytest.raises(ResourceLimitError):
            _backend.tuple_orbits(images, 3, 10)


class TestSetwiseFilter:
    def test_sym_chunks_are_every_permutation_in_key_order(self, monkeypatch):
        for budget in (1, 7, 100, 1 << 18):
            monkeypatch.setattr(_backend, "KEY_BUDGET", budget)
            for n in range(1, 8):
                chunks = list(_backend.sym_chunks(n, math.factorial(n)))
                assert all(len(c) <= max(1, budget // n) for c in chunks)
                rows = np.concatenate(chunks)
                assert rows.tolist() == list(map(list, itertools.permutations(range(n))))
                assert np.all(np.diff(_backend.encode_rows(rows, n)) > 0)

    def test_sym_filters_read_one_chunk_at_a_time(self, monkeypatch):
        """At degree 8, with chunks of 1,000 rows, Aut(X) and N_Sym(G)
        filter one chunk per call, and agree with the one-chunk filters."""
        G = group.cyclic_group(8)
        X = korbit.k_orbits(G, 2)[0]
        aut_of_kset = korbit.aut_of_kset.__wrapped__
        normalizer_in_sym = group.normalizer_in_sym.__wrapped__
        want = aut_of_kset(X), normalizer_in_sym(G)
        monkeypatch.setattr(_backend, "KEY_BUDGET", 8 * 1000)
        filtered = []
        for mod, name in ((_backend, "fixed_rows"), (group, "normalizer_mask")):
            def spy(rows, *args, real=getattr(mod, name)):
                filtered.append(len(rows))
                return real(rows, *args)
            monkeypatch.setattr(mod, name, spy)
        assert (aut_of_kset(X), normalizer_in_sym(G)) == want
        assert max(filtered) == 1000
        assert sum(filtered) == 2 * math.factorial(8)

    @given(st.integers(min_value=1, max_value=3), st.data())
    def test_fixed_rows_matches_set_images(self, k, data):
        images = np.concatenate(list(_backend.sym_chunks(5, 120)))
        picked = data.draw(st.sets(st.tuples(*[st.integers(0, 4)] * k)
                                   .filter(lambda t: len(set(t)) == k),
                                   min_size=1, max_size=8))
        rows = np.array(sorted(picked), dtype=np.int64)
        budget = data.draw(st.sampled_from([1, 7, 1 << 18]))
        want = [{tuple(g[v] for v in t) for t in picked} == picked
                for g in images.tolist()]
        old = _backend.KEY_BUDGET
        try:
            _backend.KEY_BUDGET = budget
            got = _backend.fixed_rows(images, rows)
        finally:
            _backend.KEY_BUDGET = old
        assert got.tolist() == want


def test_backend_is_numpy():
    assert _backend.BACKEND == "numpy"


class TestEncoding:
    @given(st.integers(min_value=2, max_value=8), st.data())
    def test_key_roundtrip(self, n, data):
        width = data.draw(st.integers(min_value=1, max_value=min(n, 4)))
        row = data.draw(st.lists(st.integers(0, n - 1),
                                 min_size=width, max_size=width))
        keys = _backend.encode_rows(np.array([row, row[::-1]]), n)
        assert _backend.decode_keys(keys, n, width).tolist() == [row, row[::-1]]
        assert _backend.decode_keys(keys[0], n, width).tolist() == row

    def test_key_order_is_lex_order(self):
        rows = np.array(list(itertools.permutations(range(4))), dtype=np.int64)
        keys = _backend.encode_rows(rows, 4)
        assert np.all(np.diff(keys) > 0)

    def test_powers_are_cached_and_read_only(self):
        pw = _backend.powers_for(5, 3)
        assert pw.tolist() == [25, 5, 1]
        assert _backend.powers_for(5, 3) is pw
        with pytest.raises(ValueError):
            pw[0] = 0

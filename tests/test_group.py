"""Group closure, orbits, block systems, quotients, primitivity,
normalizers, and the group file format."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from korbits.catalog import transitive_catalog
from korbits.errors import DomainError, ParseError, ResourceLimitError
from korbits.group import (PermGroup, alternating_group, block_images,
                           block_systems, close_group,
                           cyclic_group, dihedral_group, is_abelian,
                           is_primitive, is_subgroup, is_transitive,
                           klein_four_group, normalizer_in, normalizer_in_sym,
                           orbits_on_points, parse_group, quotient_action,
                           reduce_generators, render_group, row_to_perm,
                           save_group, load_group, symmetric_group)
from korbits.partition import Partition
from korbits.perm import Permutation, parse_permutation


def _is_invariant(G, part):
    """Oracle: every generator maps every class onto a class."""
    for g in G.generators:
        for c in part.classes:
            img = frozenset(g(x) for x in c)
            if img not in part.classes:
                return False
    return True


def invariant_partitions_bruteforce(G):
    """Oracle: all non-trivial G-invariant partitions, by exhaustive
    search; exponential in the degree."""
    n = G.degree
    out = []
    for p in _all_partitions(list(range(1, n + 1))):
        if len(p) in (1, n):
            continue
        part = Partition(p)
        if _is_invariant(G, part):
            out.append(part)
    return out


def _all_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in _all_partitions(rest):
        for i in range(len(p)):
            yield p[:i] + [p[i] | {first}] + p[i + 1:]
        yield p + [{first}]


class TestStandardGroups:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetric_order(self, n):
        assert symmetric_group(n).order == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_alternating_order(self, n):
        assert alternating_group(n).order == max(1, math.factorial(n) // 2)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cyclic_order(self, n):
        G = cyclic_group(n)
        assert G.order == n and is_abelian(G)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_dihedral_order(self, n):
        assert dihedral_group(n).order == 2 * n

    def test_klein(self):
        G = klein_four_group()
        assert G.order == 4 and is_abelian(G) and is_transitive(G)

    @pytest.mark.parametrize("make", [symmetric_group, alternating_group,
                                      cyclic_group, dihedral_group],
                             ids=lambda f: f.__name__)
    def test_degree_zero_rejected(self, make):
        with pytest.raises(DomainError, match="degree must be positive"):
            make(0)


class TestClosure:
    def test_membership(self):
        G = close_group([parse_permutation("(1 2 3)", 3)])
        assert parse_permutation("(1 3 2)", 3) in G
        assert parse_permutation("(1 2)", 3) not in G

    def test_elements_canonical_order(self):
        G = symmetric_group(3)
        imgs = [p.images for p in G.elements]
        assert imgs == sorted(imgs)

    def test_empty_generators_need_degree(self):
        with pytest.raises(DomainError):
            close_group([])
        assert close_group([], degree=4).order == 1

    def test_degree_mismatch(self):
        with pytest.raises(DomainError):
            close_group([parse_permutation("(1 2)", 2),
                         parse_permutation("(1 2 3)", 3)])

    def test_element_cap(self):
        with pytest.raises(ResourceLimitError):
            symmetric_group(6, max_elements=100)

    def test_degree_cap(self):
        with pytest.raises(ResourceLimitError):
            close_group([], degree=13)


class TestOrbitsAndBlocks:
    def test_point_orbits(self):
        G = close_group([parse_permutation("(1 2)", 4)])
        assert orbits_on_points(G) == Partition([{1, 2}, {3}, {4}])
        assert not is_transitive(G)

    def test_block_systems_require_transitive(self):
        with pytest.raises(DomainError):
            block_systems(close_group([parse_permutation("(1 2)", 3)]))

    def test_c4_blocks(self):
        assert block_systems(cyclic_group(4)) == [Partition([{1, 3}, {2, 4}])]

    def test_s4_blocks(self):
        assert block_systems(symmetric_group(4)) == []

    def test_d4_blocks_are_minimal(self):
        systems = block_systems(dihedral_group(4))
        assert Partition([{1, 3}, {2, 4}]) in systems
        for p in systems:
            for q in systems:
                assert p == q or not q.refines(p)

    @pytest.mark.parametrize("make", [
        lambda n: [cyclic_group(n)], lambda n: [dihedral_group(n)],
        lambda n: [symmetric_group(n)],
        lambda n: [e.group() for e in transitive_catalog(n)],
    ], ids=["cyclic", "dihedral", "symmetric", "catalog"])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_blocks_match_bruteforce_minimal(self, make, n):
        for G in make(n):
            all_inv = invariant_partitions_bruteforce(G)
            minimal = [p for p in all_inv
                       if not any(q != p and q.refines(p) for q in all_inv)]
            assert sorted(block_systems(G), key=lambda p: p.render()) == \
                sorted(minimal, key=lambda p: p.render())

    def test_transitive_iff_one_point_orbit(self):
        for H in _identity_cases():
            assert is_transitive(H) is (len(orbits_on_points(H)) == 1)


class TestQuotient:
    def test_c6_quotient_to_blocks_of_two(self):
        G = cyclic_group(6)
        Q = Partition([{1, 4}, {2, 5}, {3, 6}])
        quot = quotient_action(G, Q)
        assert quot.order == 3 and quot.degree == 3
        assert quot.generators == (parse_permutation("(1 2 3)", 3),)

    def test_reduction_is_homomorphism(self):
        G = dihedral_group(4)
        Q = block_systems(G)[0]
        quot = quotient_action(G, Q)
        reduce = {g: row_to_perm(r)
                  for g, r in zip(G.elements, block_images(G, Q))}
        assert set(reduce.values()) == set(quot.elements)
        for a in G.elements:
            for b in G.elements:
                assert reduce[a * b] == reduce[a] * reduce[b]

    def test_rejects_non_invariant_partition(self):
        with pytest.raises(DomainError):
            quotient_action(symmetric_group(4), Partition([{1, 2}, {3, 4}]))

    def test_rejects_partial_domain(self):
        with pytest.raises(DomainError):
            quotient_action(symmetric_group(4), Partition([{1, 2}, {3}]))

    def test_invariance_matches_the_oracle(self):
        """Over every partition of the points, `block_images` raises on
        exactly those that the oracle finds not G-invariant."""
        groups = _identity_cases() + [e.group() for e in transitive_catalog(6)]
        for G in groups:
            for p in _all_partitions(list(range(1, G.degree + 1))):
                part = Partition(p)
                if _is_invariant(G, part):
                    assert block_images(G, part).shape == (G.order, len(part))
                else:
                    with pytest.raises(DomainError, match="not G-invariant"):
                        block_images(G, part)


class TestPrimitivity:
    def test_abelian_matches_element_products(self):
        for G in _identity_cases() + [close_group([], degree=1)]:
            assert is_abelian(G) == all(a * b == b * a for a in G.elements
                                        for b in G.elements)

    def test_conventions_diverge_on_prime_cycle(self):
        G = cyclic_group(5)
        assert is_primitive(G, "classical")
        assert not is_primitive(G, "paper")

    def test_s4_primitive_both(self):
        G = symmetric_group(4)
        assert is_primitive(G, "classical") and is_primitive(G, "paper")

    def test_c4_imprimitive(self):
        assert not is_primitive(cyclic_group(4), "classical")

    def test_requires_transitive(self):
        with pytest.raises(DomainError):
            is_primitive(close_group([parse_permutation("(1 2)", 3)]))

    def test_unknown_convention(self):
        with pytest.raises(DomainError):
            is_primitive(symmetric_group(3), "modern")


class TestNormalizer:
    def test_sym_normalizes_itself(self):
        G = symmetric_group(4)
        assert normalizer_in_sym(G) == G

    def test_klein_normal_in_s4(self):
        assert normalizer_in_sym(klein_four_group()) == symmetric_group(4)

    def test_c3_in_s3(self):
        assert normalizer_in_sym(cyclic_group(3)) == symmetric_group(3)

    def test_matches_definition(self):
        W = symmetric_group(4)
        G = close_group([parse_permutation("(1 2)", 4)])
        N = normalizer_in(W, G)
        for x in W.elements:
            conj_ok = all(x * h * x.inverse() in G for h in G.elements)
            assert (x in N) == conj_ok

    def test_degree_mismatch(self):
        with pytest.raises(DomainError, match="degree mismatch"):
            normalizer_in(symmetric_group(4), symmetric_group(3))

    def test_degree_cap(self):
        """10! permutations are over the default element cap, 9! are not."""
        with pytest.raises(ResourceLimitError):
            normalizer_in_sym(cyclic_group(10))


class TestGroupFiles:
    def test_render(self):
        text = render_group(klein_four_group())
        assert text == "degree 4\n(1 2)(3 4)\n(1 3)(2 4)\n"

    def test_roundtrip(self, tmp_path):
        G = dihedral_group(5)
        path = tmp_path / "d5.grp"
        save_group(G, path)
        assert load_group(path) == G

    def test_comments_and_blank_lines(self):
        G = parse_group("# a comment\n\ndegree 3\n(1 2 3)  # rotation\n")
        assert G.order == 3

    @pytest.mark.parametrize("bad", [
        "", "(1 2)\n", "degree x\n", "degree 0\n", "degree 3\n(1 4)\n",
        "degree 3\ndegree 3\n",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_group(bad)

    def test_bad_generator_names_its_line(self):
        with pytest.raises(ParseError, match=r"^line 3: malformed cycle"):
            parse_group("degree 3\n(1 2 3)\n(1 2  # unclosed\n")


class TestSubgroupPredicate:
    def test_is_subgroup(self):
        assert is_subgroup(alternating_group(4), symmetric_group(4))
        assert not is_subgroup(symmetric_group(4), alternating_group(4))
        assert not is_subgroup(symmetric_group(3), symmetric_group(4))


def _identity_cases():
    from korbits.subgroups import all_subgroups
    return (all_subgroups(symmetric_group(4))
            + [e.group() for e in transitive_catalog(5)])


class TestIdentity:
    """==, hash, `in` and is_subgroup against Python sets of image tuples."""

    @pytest.mark.parametrize("rows,message", [
        ([[0, 1, 2], [0, 1, 2]], "repeated element row"),
        ([[0, 1, 2], [1, 0, 2], [0, 1, 2]], "repeated element row"),
        ([[0, 1, 5]], "point out of range"),
        ([[0, 2, 2], [0, 1, 3]], "point out of range"),
        ([[-1, 1, 2]], "point out of range"),
    ])
    def test_rows_must_be_distinct_points_in_range(self, rows, message):
        # [0, 1, 5] and [0, 2, 2] would share one key at degree 3
        with pytest.raises(DomainError, match=message):
            PermGroup(3, rows)

    @pytest.mark.parametrize("rows", [
        [[0, 1]],                   # narrower than the degree
        [[0, 1, 2, 0]],             # wider than the degree
        [0, 1, 2],                  # one row, not a matrix of rows
        [[[0, 1, 2]]],
    ])
    def test_rows_must_be_degree_wide(self, rows):
        with pytest.raises(DomainError, match=r"\(m, 3\) array"):
            PermGroup(3, rows)

    def test_equality_hash_and_subgroup_match_sets(self):
        groups = _identity_cases()
        # a copy built from the rows in reverse order, to be re-sorted
        groups += [PermGroup(H.degree, H.images[::-1]) for H in groups[::7]]
        sets = [(H.degree, {p.images for p in H.elements}) for H in groups]
        for A, (da, ea) in zip(groups, sets):
            for B, (db, eb) in zip(groups, sets):
                assert (A == B) == (da == db and ea == eb)
                if A == B:
                    assert hash(A) == hash(B)
                assert is_subgroup(A, B) == (da == db and ea <= eb)
        assert len(set(groups)) == len({(d, frozenset(e)) for d, e in sets})

    def test_arrays_are_read_only_and_owned(self):
        rows = symmetric_group(3).images.copy()
        G = PermGroup(3, rows)
        assert G.images is rows
        for arr in (G.images, G.keys, rows):
            with pytest.raises(ValueError):
                arr[0] = 0
        assert G == symmetric_group(3)

    def test_membership_matches_sets(self):
        for H in _identity_cases():
            n = H.degree
            elems = {p.images for p in H.elements}
            for p in symmetric_group(n).elements:
                key = sum((v - 1) * n ** (n - 1 - i)
                          for i, v in enumerate(p.images))
                assert (p in H) == (key in H) == (p.images in elems)
            assert Permutation.identity(n + 1) not in H
            assert Permutation.identity(n - 1) not in H
            for key in (-1, n ** n, 2 ** 70):
                assert key not in H


@given(st.permutations(list(range(1, 6))))
def test_singly_generated_order(images):
    p = Permutation(images)
    assert close_group([p], degree=5).order == p.order()

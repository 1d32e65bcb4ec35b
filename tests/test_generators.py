"""The generator contract of groups built from their elements.

Every group generates itself: closing `H.generators` gives `H` back.
A group built from images alone gets the greedy generator rows of
`reduce_generators`, computed on first read of `generator_rows`, and
orbits never read them. The greedy rule is checked against a
brute-force reference that closes from scratch after every generator
it takes.
"""

import pytest

from korbits.group import (PermGroup, block_systems, close_group,
                           cyclic_group, dihedral_group, generator_rows,
                           is_transitive, normalizer_in, normalizer_in_sym,
                           orbits_on_points, perm_to_row, quotient_action,
                           row_to_perm, symmetric_group)
from korbits.korbit import (acts_transitively_on, aut_of_kset, k_orbits,
                            orbit_of_tuple, orbits_on_kset, stab_of_ksuborbit)
from korbits.propcheck import _is_normal
from korbits.catalog import transitive_catalog
from korbits.subgroups import all_subgroups, subgroup_classes

AMBIENT = {"S4": lambda: symmetric_group(4), "D6": lambda: dihedral_group(6),
           "C6": lambda: cyclic_group(6)}


def assert_generates(H):
    assert close_group(H.generators, degree=H.degree) == H


def greedy_reference(H):
    """The greedy rule by brute force: walk H's elements in key order
    and take each one outside the subgroup generated so far, closing
    that subgroup anew after every generator."""
    gens = []
    have = close_group([], degree=H.degree)
    for g in H.elements:
        if have.order == H.order:
            break
        if g not in have:
            gens.append(g)
            have = close_group(gens, degree=H.degree)
    return tuple(gens)


def assert_images_only(H):
    assert_generates(H)
    assert H.generators == greedy_reference(H)


@pytest.fixture(params=sorted(AMBIENT))
def G(request):
    return AMBIENT[request.param]()


def test_generators_computed_on_first_read(G):
    H = PermGroup(G.degree, G.images)
    assert H._gen_rows is None
    assert_images_only(H)
    rows = generator_rows(H)
    assert rows is H._gen_rows is generator_rows(H)
    assert not rows.flags.writeable
    assert H.generators == tuple(row_to_perm(r) for r in rows)


def test_orbits_read_no_generators(G):
    H = PermGroup(G.degree, G.images)
    subs = [PermGroup(c.rep.degree, c.rep.images) for c in subgroup_classes(G)]
    orbits_on_points(H)
    is_transitive(H)
    acts_transitively_on(H, {1, 2})
    # bypass the caches, which may hold results for an equal group
    for X in k_orbits.__wrapped__(H, 2):
        for A in [H] + subs:
            orbits_on_kset(A, X)
    assert all(A._gen_rows is None for A in [H] + subs)


def test_given_generators_kept():
    S3 = symmetric_group(3)
    gens = tuple(reversed(S3.elements[1:]))
    H = PermGroup(3, S3.images, [perm_to_row(g) for g in gens])
    assert H.generators == gens
    assert not generator_rows(H).flags.writeable


def test_subgroup_class_reps_and_normalizers(G):
    for cls in subgroup_classes(G):
        assert_images_only(cls.rep)
        assert_images_only(normalizer_in(G, cls.rep))
        assert_images_only(normalizer_in_sym(cls.rep))


def test_stabilizers_and_automorphism_groups(G):
    reps = [cls.rep for cls in subgroup_classes(G)]
    for X in k_orbits(G, 2):
        assert_images_only(aut_of_kset(X, degree=G.degree))
        for H in reps:
            stab, _ = stab_of_ksuborbit(G, orbit_of_tuple(H, X.tuples[0]))
            assert_images_only(stab)


def test_normality_reads_no_generators(G):
    """`_is_normal` looks conjugates up among H's element keys; oracle:
    every element of G conjugates every element of H into H."""
    for cls in subgroup_classes(G):
        H = PermGroup(cls.rep.degree, cls.rep.images)
        want = all(h.conjugate(g) in H for g in G.elements for h in H.elements)
        assert _is_normal(H, G) == want == (len(cls.conjugates) == 1)
        assert H._gen_rows is None


def test_quotients(G):
    for Q in block_systems(G):
        quot = quotient_action(G, Q)
        assert_generates(quot)
        assert len(quot.generators) == len(G.generators)


@pytest.mark.parametrize("entry", transitive_catalog(5).entries,
                         ids=lambda e: e.entry_id)
def test_every_subgroup_of_degree_5(entry):
    for H in all_subgroups(entry.group()):
        assert_images_only(H)

"""The per-orbit batched translate-partition tests of the check engine
against per-pair and per-suborbit references: `P_capcup`'s meets and
joins, and the Aut-suborbit partition test behind `L_H_order`,
`P_triv_norm`, `T_coherent` and `L_elcoh_part`. Also the subgroup facts
the checks read instead of recomputing them: `L_grAB` against its
per-ordered-pair reference, and the class-size test of self-normalizing
classes against `normalizer_in`."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from korbits import _backend, propcheck
from korbits.catalog import transitive_catalog
from korbits.errors import DomainError
from korbits.group import PermGroup, normalizer_in, symmetric_group
from korbits.korbit import (KSet, _kset, aut_of_kset, k_orbits,
                            orbit_of_tuple, stab_of_ksuborbit, translate_keys)
from korbits.propcheck import (SuiteCaps, _aut_suborbit_partition_failure,
                               _ctx_group, _ctx_index_like, _ctx_per_orbit,
                               _fail, _na, _normal_proper_nontrivial,
                               _orbit_from_ctx, _pair_partitions, _pass,
                               _result, _ser_group, _ser_kset, _suborbit_pool,
                               run_check)
from korbits.subgroups import DEFAULT_SUBGROUP_CAP, subgroup_classes
from test_partition import meet_labels

CAPS = SuiteCaps()


# ---------------------------------------------------------------------------
# references: one pair, one suborbit at a time
# ---------------------------------------------------------------------------

def _translates_match(G, keys, k, union, labels):
    _, _, u, lab = translate_keys(G, _backend.decode_keys(keys, G.degree, k))
    # two partitions agree when they have as many classes as their meet
    return (lab is not None and np.array_equal(u, union)
            and lab.max() == labels.max()
            == meet_labels(lab, labels).max())


def reference_capcup(ctx, caps=CAPS):
    """`P_capcup` evaluated pair by pair, with the meet and join of each
    pair derived on its own. `_join_groups` is read from the module on
    every call, so a test can replace it in both evaluators."""
    G = _ctx_group(ctx, caps)
    if "suborbit" in ctx:
        pairs = [(KSet(tuple(t) for t in ctx["suborbit"]),
                  KSet(tuple(t) for t in ctx["suborbit2"]))]
    else:
        X = _orbit_from_ctx(G, ctx)
        pool = [Y for Y in _suborbit_pool(G, X, caps.max_subgroup_order)
                if translate_keys(G, Y.rows)[3] is not None]
        pairs = [(pool[i], pool[j])
                 for i in range(len(pool)) for j in range(i + 1, len(pool))]
        pairs = pairs[:propcheck.MAX_PAIRS]
    if not pairs:
        return _result("P_capcup", ctx, _na("no pair of distinct suborbits "
                                            "with partition translate sets"))
    checked = 0
    for Y, Z in pairs:
        wctx = {"degree": ctx["degree"], "group": ctx["group"],
                "k": Y.arity, "suborbit": _ser_kset(Y),
                "suborbit2": _ser_kset(Z)}

        def fail(reason):
            return _result("P_capcup", ctx, _fail({"reason": reason}, wctx))

        _, fy, union, ly = translate_keys(G, Y.rows)
        _, fz, z_union, lz = translate_keys(G, Z.rows)
        SY, ty = stab_of_ksuborbit(G, Y)
        SZ, tz = stab_of_ksuborbit(G, Z)
        if Y == Z or ly is None or lz is None or not (ty and tz):
            continue
        if not np.array_equal(union, z_union):
            raise DomainError("domain mismatch in meet")
        checked += 1
        m = meet_labels(ly, lz)
        j = _backend.join_labels(ly, lz)
        y_keys = _backend.encode_rows(Y.rows, G.degree)
        at = np.searchsorted(union, y_keys[0])
        CJ = union[j == j[at]]
        if not _translates_match(G, union[m == m[at]], Y.arity, union, m):
            return fail("meet is not a G-translate partition")
        if not _translates_match(G, CJ, Y.arity, union, j):
            return fail("join is not a G-translate partition")
        T = np.intersect1d(y_keys, _backend.encode_rows(Z.rows, G.degree))
        if T.size:
            if not _translates_match(G, T, Y.arity, union, m):
                return fail("meet != G(Y ∩ Z)")
            T_rows = _backend.decode_keys(T, G.degree, Y.arity)
            if not np.array_equal(translate_keys(G, T_rows)[1], fy & fz):
                return fail("Stab(T) != Stab(Y) ∩ Stab(Z)")
            U_rows = _backend.decode_keys(CJ, G.degree, Y.arity)
            SU = PermGroup(G.degree, G.images[translate_keys(G, U_rows)[1]])
            if SU != propcheck._join_groups(SY, SZ, G.degree,
                                             caps.max_elements):
                return fail("Stab(U) != gr(Stab(Y), Stab(Z))")
    if not checked:
        return _result("P_capcup", ctx, _na("no pair of distinct suborbits "
                                            "with partition translate sets"))
    return _result("P_capcup", ctx, _pass({"pairs_checked": checked}))


def reference_aut_failure(Gaut, X, max_order=DEFAULT_SUBGROUP_CAP):
    """The first suborbit whose Aut-translates overlap, by the union
    count of `translate_keys` per suborbit."""
    rows = X.rows
    for cls in subgroup_classes(Gaut, max_order=max_order):
        labels = _backend.orbit_labels(cls.rep.images, rows)
        for c in range(labels.max() + 1):
            if translate_keys(Gaut, rows[labels == c])[3] is None:
                return _kset(rows[labels == c])
    return None


def _outcome(evaluate, ctx):
    try:
        return evaluate(dict(ctx)).to_record()
    except DomainError as exc:
        return f"DomainError: {exc}"


def _contexts(degrees, ks=None):
    for n in degrees:
        for e in transitive_catalog(n):
            G = e.group()
            base = {"degree": n, "group": propcheck._ser_group(G),
                    "group_id": e.entry_id}
            yield from _ctx_per_orbit(G, base, ks or range(1, n + 1), CAPS)


# ---------------------------------------------------------------------------
# P_capcup
# ---------------------------------------------------------------------------

def _least_index(labels):
    """Labels renumbered in order of each class's least index."""
    _, first, inv = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inv]


@st.composite
def label_rows(draw):
    P = draw(st.integers(min_value=1, max_value=5))
    N = draw(st.integers(min_value=1, max_value=12))
    row = st.lists(st.integers(min_value=0, max_value=N - 1),
                   min_size=N, max_size=N)
    ly = np.array(draw(st.lists(row, min_size=P, max_size=P)), dtype=np.int64)
    lz = np.array(draw(st.lists(row, min_size=P, max_size=P)), dtype=np.int64)
    return ly, lz


# Pinned pairs: (degree, group, k, Y, Z, verdict)
A4 = ["(2 3 4)", "(1 2)(3 4)"]
C4_D4 = ["(1 2)(3 4)", "(1 3 2 4)"]
PINNED = [
    # Y's least tuple is not in Z, so T = Y ∩ Z is not the meet class
    # of that tuple
    (4, A4, 2, [[1, 4], [2, 3]], [[2, 3]], "pass"),
    (3, ["(1 2 3)"], 1, [[1], [2], [3]], [[2]], "pass"),
    # disjoint: T is empty
    (4, A4, 2, [[3, 1]], [[3, 4]], "pass"),
    # both through Y's least tuple
    (4, C4_D4, 2, [[2, 1]], [[1, 2], [2, 1]], "pass"),
    # the translates of Y overlap
    (4, ["(3 4)", "(1 2)", "(1 3)(2 4)"], 2, [[2, 1], [4, 3]], [[4, 3]],
     "inapplicable"),
    (3, ["(2 3)", "(1 2)"], 1, [[2], [3]], [[3]], "inapplicable"),
    # Y = Z
    (4, C4_D4, 2, [[2, 1]], [[2, 1]], "inapplicable"),
]


class TestCapcupBatch:
    @given(label_rows())
    def test_batched_meet_and_join_equal_per_pair(self, rows):
        ly, lz = rows
        meet, join = _pair_partitions(ly, lz)
        for p in range(len(ly)):
            want_meet = _least_index(meet_labels(ly[p], lz[p]))
            want_join = _least_index(_backend.join_labels(ly[p], lz[p]))
            assert meet[p].tolist() == want_meet.tolist()
            assert join[p].tolist() == want_join.tolist()

    def test_every_catalog_context_matches_reference(self):
        count = 0
        for ctx in _contexts(range(2, 6)):
            got = _outcome(lambda c: run_check("P_capcup", c), ctx)
            assert got == _outcome(reference_capcup, ctx), ctx
            count += 1
        assert count > 100

    @pytest.mark.parametrize("degree,gens,k,Y,Z,verdict", PINNED)
    def test_pinned_pairs_match_reference(self, degree, gens, k, Y, Z,
                                          verdict):
        ctx = {"degree": degree, "group": gens, "k": k,
               "suborbit": Y, "suborbit2": Z}
        got = run_check("P_capcup", ctx)
        assert got.verdict == verdict
        assert got.to_record() == reference_capcup(dict(ctx)).to_record()

    def test_overlap_pinned_pair_is_overlapping(self):
        G = _ctx_group({"degree": 4, "group": ["(3 4)", "(1 2)", "(1 3)(2 4)"]},
                       CAPS)
        Y = KSet([(2, 1), (4, 3)])
        assert translate_keys(G, Y.rows)[3] is None

    def test_pairs_from_two_orbits_raise_at_the_same_pair(self):
        ctx = {"degree": 4, "group": ["(1 2 3 4)"], "k": 2,
               "suborbit": [[1, 2]], "suborbit2": [[1, 3]]}
        want = _outcome(reference_capcup, ctx)
        assert want.startswith("DomainError")
        assert _outcome(lambda c: run_check("P_capcup", c), ctx) == want

    def test_first_failing_pair_matches_reference(self, monkeypatch):
        # a wrong join of the stabilizers makes later pairs fail; both
        # evaluators must name the same first pair and reason
        monkeypatch.setattr(propcheck, "_join_groups",
                            lambda A, B, degree, max_elements: A)
        fails = 0
        for ctx in _contexts([4, 5], ks=[1, 2, 3]):
            got = _outcome(lambda c: run_check("P_capcup", c), ctx)
            assert got == _outcome(reference_capcup, ctx), ctx
            if got["verdict"] == "fail":
                fails += 1
                pinned = got["witness"]["context"]
                assert (_outcome(lambda c: run_check("P_capcup", c), pinned)
                        == _outcome(reference_capcup, pinned))
        assert fails > 0


# ---------------------------------------------------------------------------
# the Aut-suborbit partition test
# ---------------------------------------------------------------------------

def _aut_cases(degrees, ks):
    for n in degrees:
        for e in transitive_catalog(n):
            G = e.group()
            for k in ks:
                if k <= n:
                    for X in k_orbits(G, k):
                        yield G, X, aut_of_kset(X, degree=n)


class TestAutSuborbitPartition:
    def test_matches_union_count_reference(self):
        for G, X, aut in _aut_cases(range(2, 6), (2, 3)):
            assert (_aut_suborbit_partition_failure(aut, X, CAPS.max_subgroup_order)
                    == reference_aut_failure(aut, X))

    def test_degree6_failures_and_elcoh_witnesses(self):
        found = 0
        for G, X, aut in _aut_cases([6], (2, 3, 4)):
            got = _aut_suborbit_partition_failure(aut, X, CAPS.max_subgroup_order)
            assert got == reference_aut_failure(aut, X)
            found += got is not None
            ctx = {"degree": 6, "group": propcheck._ser_group(G),
                   "k": X.arity, "orbit_rep": list(X.tuples[0])}
            res = run_check("L_elcoh_part", ctx)
            if res.verdict != "inapplicable":
                assert (res.verdict == "fail") == (got is not None)
            if res.verdict == "fail":
                assert res.witness["detail"]["suborbit"] == _ser_kset(got)
        assert found == 113

    def test_small_key_budget_forces_chunks(self, monkeypatch):
        monkeypatch.setattr(_backend, "KEY_BUDGET", 2048)
        uncached = _aut_suborbit_partition_failure.__wrapped__
        chunked = found = 0
        for G, X, aut in _aut_cases([5, 6], (2, 3)):
            chunked += aut.order > 2048 // len(X)
            got = uncached(aut, X, CAPS.max_subgroup_order)
            assert got == reference_aut_failure(aut, X)
            found += got is not None
        assert chunked > 0 and found > 0


# ---------------------------------------------------------------------------
# L_grAB
# ---------------------------------------------------------------------------

def _grab_regs(ctx, caps=CAPS):
    """The tuple and the candidate subgroups of an `L_grAB` context: the
    pinned pair, or the subgroup class representatives of Aut(X) whose
    orbit of X's least tuple is regular."""
    G = _ctx_group(ctx, caps)
    if "subgroup" in ctx:
        return (tuple(ctx["tuple"]), [_ctx_group(ctx, caps, "subgroup"),
                                      _ctx_group(ctx, caps, "subgroup2")])
    X = _orbit_from_ctx(G, ctx)
    aut = aut_of_kset(X, degree=G.degree, max_elements=caps.max_elements)
    t0 = tuple((X.rows[0] + 1).tolist())
    return t0, [cls.rep for cls in subgroup_classes(aut, max_order=caps.max_subgroup_order)
                if len(orbit_of_tuple(cls.rep, t0)) == cls.order]


def reference_grab(ctx, caps=CAPS):
    """`L_grAB` over every ordered pair of its list, truncated at
    MAX_PAIRS, with the regularity of both suborbits tested again at each
    pair and each pair joined. `_join_groups` is read from the module on
    every call, so a test can replace it in both evaluators."""
    alpha, regs = _grab_regs(ctx, caps)
    if "subgroup" in ctx:
        pairs = [tuple(regs)]
    else:
        pairs = [(A, B) for A in regs for B in regs][:propcheck.MAX_PAIRS]
    checked = 0
    for A, B in pairs:
        if (len(orbit_of_tuple(A, alpha)) != A.order
                or len(orbit_of_tuple(B, alpha)) != B.order):
            continue
        checked += 1
        J = propcheck._join_groups(A, B, A.degree, caps.max_elements)
        T = orbit_of_tuple(J, alpha)
        if len(T) != J.order:
            return _result("L_grAB", ctx, _fail(
                {"reason": "|T_k| != |gr(A, B)|", "t_size": len(T),
                 "join_order": J.order},
                {"degree": ctx["degree"], "group": ctx["group"],
                 "subgroup": _ser_group(A), "subgroup2": _ser_group(B),
                 "tuple": list(alpha)}))
    if not checked:
        return _result("L_grAB", ctx, _na("no pair of regular suborbits "
                                          "through a common tuple"))
    return _result("L_grAB", ctx, _pass({"pairs_checked": checked}))


def _count_joins(monkeypatch, join):
    """Replace `_join_groups` by `join`, recording the (A, B) of each call."""
    calls = []

    def counted(A, B, degree, max_elements):
        calls.append((A, B))
        return join(A, B, degree, max_elements)
    monkeypatch.setattr(propcheck, "_join_groups", counted)
    return calls


class TestGrabPairs:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_joins_each_unordered_pair_once(self, monkeypatch, n):
        """Every orbit context, at every k, joins the pairs (i, j) with
        i < j of its truncated ordered list, in order, up to the first
        failing one, and its result is the reference's."""
        calls = _count_joins(monkeypatch, propcheck._join_groups)
        contexts = joined = 0
        for ctx in _contexts([n]):
            del calls[:]
            got = run_check("L_grAB", ctx).to_record()
            seen = list(calls)
            assert got == reference_grab(ctx).to_record(), ctx
            _, regs = _grab_regs(ctx)
            ordered = [(i, j) for i in range(len(regs))
                       for j in range(len(regs))][:propcheck.MAX_PAIRS]
            want = [(regs[i], regs[j]) for i, j in ordered if i < j]
            if got["verdict"] == "fail":
                assert seen and [_ser_group(A) for A in seen[-1]] == [
                    got["witness"]["context"][key]
                    for key in ("subgroup", "subgroup2")]
                want = want[:len(seen)]
            assert seen == want, ctx
            contexts += 1
            joined += len(seen)
        assert contexts > 0
        if n >= 4:
            assert joined > 0

    def test_first_failing_pair_matches_reference(self, monkeypatch):
        """With a join that is S_n for some pairs, later pairs fail; both
        evaluators name the same first pair, and the witness replays."""
        real = propcheck._join_groups

        def join(A, B, degree, max_elements):
            if (A.order + B.order) % 3:
                return real(A, B, degree, max_elements)
            return symmetric_group(degree)
        monkeypatch.setattr(propcheck, "_join_groups", join)
        fails = 0
        for ctx in _contexts([4, 5], ks=[1, 2, 3]):
            got = run_check("L_grAB", ctx).to_record()
            assert got == reference_grab(ctx).to_record(), ctx
            if got["verdict"] == "fail":
                fails += 1
                pinned = got["witness"]["context"]
                assert (run_check("L_grAB", pinned).to_record()
                        == reference_grab(pinned).to_record())
        assert fails > 0

    @pytest.mark.parametrize("subgroup,subgroup2,verdict", [
        (["(1 2)(3 4)", "(1 3)(2 4)"], ["(1 2)(3 4)", "(1 3 2 4)"], "fail"),
        (["(1 2)(3 4)"], ["(1 3)(2 4)"], "pass"),
        (["(1 2)(3 4)"], ["(1 2)(3 4)"], "pass"),
        (["(3 4)"], ["(1 2)(3 4)"], "inapplicable"),
        (["(1 2)(3 4)"], ["(3 4)"], "inapplicable"),
    ])
    def test_pinned_pair_matches_reference(self, subgroup, subgroup2, verdict):
        ctx = {"degree": 4, "group": ["(1 2)(3 4)", "(1 3)(2 4)"],
               "tuple": [1], "subgroup": subgroup, "subgroup2": subgroup2}
        got = run_check("L_grAB", ctx).to_record()
        assert got["verdict"] == verdict
        assert got == reference_grab(ctx).to_record()


# ---------------------------------------------------------------------------
# self-normalizing classes
# ---------------------------------------------------------------------------

def _lattices_read(degrees):
    """The distinct groups whose subgroup lattices `P_triv_norm` and
    `_ctx_index_like` read: Aut(X) of every orbit context, and every
    proper non-trivial normal subgroup of every catalog group."""
    groups = set()
    for n in degrees:
        for e in transitive_catalog(n):
            G = e.group()
            groups.update(_normal_proper_nontrivial(G, DEFAULT_SUBGROUP_CAP))
            for k in range(1, n + 1):
                groups.update(aut_of_kset(X, degree=n) for X in k_orbits(G, k))
    return groups


class TestSelfNormalizingClasses:
    def test_class_size_matches_normalizer(self):
        """N_H(A) = A exactly when the class of A has |H|/|A| members."""
        found = total = 0
        for H in _lattices_read(range(2, 7)):
            for cls in subgroup_classes(H, max_order=DEFAULT_SUBGROUP_CAP):
                by_size = cls.order * len(cls.conjugates) == H.order
                assert by_size == (normalizer_in(H, cls.rep) == cls.rep)
                found += by_size and 1 < cls.order < H.order
                total += 1
        assert found > 0 and total > found

    def test_sites_filter_no_normalizer(self, monkeypatch):
        """`P_triv_norm` and the contexts of `P_index` and `P_giso` read
        self-normalizing classes from class sizes, not from `normalizer_in`."""
        calls = []
        monkeypatch.setattr(propcheck, "normalizer_in",
                            lambda *args: calls.append(args))
        reached = 0
        for ctx in _contexts(range(2, 6)):
            res = run_check("P_triv_norm", ctx)
            reached += res.reason != ("some suborbit's Aut-translate set is "
                                      "not a partition")
        pinned = 0
        for n in range(2, 7):
            for e in transitive_catalog(n):
                base = {"degree": n, "group": _ser_group(e.group())}
                pinned += sum("subgroup2" in ctx for ctx in _ctx_index_like(
                    e.group(), base, range(1, n + 1), CAPS))
        assert calls == []
        assert reached > 0 and pinned > 0

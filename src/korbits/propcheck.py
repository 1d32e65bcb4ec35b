"""A registry of machine checks for the structural claims relating
k-orbits, suborbits, stabilizers, automorphism groups and normal
subgroups, runnable one at a time or as a suite over a group catalog.

Each check evaluates a hypothesis on a concrete context (a group plus,
as needed, subgroups, an arity k, a tuple or explicit suborbits) and
returns pass, fail-with-witness, or inapplicable when the hypothesis
does not hold.  A failing check is a finding about the claim, not an
error; its witness is self-contained and replayable.  Contexts are
plain JSON dictionaries so reports and witnesses serialize directly.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import _backend
from .errors import DomainError, ResourceLimitError
from .fks import not_primitive_reason, terminal_case, terminal_partitions
from .group import (DEFAULT_ELEMENT_CAP, PermGroup, close_group,
                    conjugate_rows_by, generator_rows, is_subgroup,
                    is_transitive, normalizer_in, normalizer_in_sym)
from .korbit import (DEFAULT_TUPLE_CAP, KSet, _kset, aut_of_kset,
                     automorphic_analysis, classify_coherence, k_blocks,
                     k_orbits, orbit_of_tuple, pointwise_tuple_stabilizer,
                     setwise_point_stabilizer, stab_of_ksuborbit,
                     translate_keys)
from .perm import parse_permutation
from .subgroups import DEFAULT_SUBGROUP_CAP, _odd, subgroup_classes

# subgroup pairs per orbit checked by L_grAB and P_capcup, and P_LkRk
# contexts per group
MAX_PAIRS = 200
MAX_CONTEXTS = 200


# ---------------------------------------------------------------------------
# results and context plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check on one context.

    verdict is "pass", "fail", "inapplicable" or (suite only) "skipped";
    a fail always carries a witness dict whose "context" key replays to
    fail through run_check alone; an inapplicable result records the
    hypothesis failure in reason; notes hold auxiliary recorded facts
    that are not part of the verdict."""

    check_id: str
    context: dict
    verdict: str
    reason: str = None
    witness: dict = None
    notes: dict = None

    def to_record(self):
        return {"check": self.check_id, "context": self.context,
                "verdict": self.verdict, "reason": self.reason,
                "witness": self.witness, "notes": self.notes}


# An evaluator returns an outcome (verdict, payload, notes), which
# `_result` stamps with the check id and context. A fail's payload is
# (detail, witness context, None for the checked one); any other
# verdict's payload is its reason.

def _pass(notes=None):
    return "pass", None, notes


def _fail(detail, witness_ctx=None, notes=None):
    return "fail", (detail, witness_ctx), notes


def _na(reason):
    return "inapplicable", reason, None


def _result(check_id, ctx, outcome):
    """The one constructor of a CheckResult."""
    verdict, payload, notes = outcome
    if verdict != "fail":
        return CheckResult(check_id, ctx, verdict, reason=payload, notes=notes)
    detail, witness_ctx = payload
    return CheckResult(check_id, ctx, verdict, notes=notes,
                       witness={"context": witness_ctx or ctx, "detail": detail})


def _ser_group(G):
    return [g.cycle_string() for g in G.generators]


@functools.lru_cache(maxsize=4096)
def _deser_group(degree, gen_strings, max_elements):
    gens = [parse_permutation(s, degree) for s in gen_strings]
    return close_group(gens, degree=degree, max_elements=max_elements)


def _ctx_group(ctx, caps, key="group"):
    return _deser_group(int(ctx["degree"]), tuple(ctx[key]), caps.max_elements)


def _ser_kset(Y):
    return (Y.rows + 1).tolist()


def _rep(X):
    """X's least tuple, 1-based."""
    return tuple((X.rows[0] + 1).tolist())


# ---------------------------------------------------------------------------
# shared group predicates
# ---------------------------------------------------------------------------

def _is_normal(H, G):
    """Whether g H g^-1 = H for each generator g of G, by H's element keys."""
    for g in generator_rows(G):
        conj = conjugate_rows_by(H.images, g)
        if not _backend.in_sorted(H.keys, _backend.encode_rows(conj, H.degree)).all():
            return False
    return True


@functools.lru_cache(maxsize=16384)
def _join_groups(A, B, degree, max_elements):
    rows = np.concatenate([generator_rows(A), generator_rows(B)])
    return PermGroup(degree, _backend.closure_images(rows, degree, max_elements),
                     rows)


def _normal_proper_nontrivial(G, max_order):
    out = []
    for cls in subgroup_classes(G, max_order=max_order):
        if len(cls.conjugates) == 1 and 1 < cls.order < G.order:
            out.append(cls.rep)
    return out


def _terminal(ctx, caps):
    """The group of ctx, and why it is not the terminal case (None when it
    is): the hypothesis of C_simple, C_no_tr and L_proof_elcoh."""
    G = _ctx_group(ctx, caps)
    return G, terminal_case(G, caps.max_subgroup_order)[0]


def _normalizer_exceeds(G, caps):
    """The conclusion of L_alt_norm and C_no_tr: N_Sym(G) is larger than G."""
    N = normalizer_in_sym(G, max_elements=caps.max_elements)
    if N == G:
        return _fail({"reason": "group is self-normalizing in the symmetric "
                                "group", "normalizer_order": N.order})
    return _pass()


def _is_automorphic(G, points, caps):
    """Whether `points` is the coordinate set of an automorphic tuple of G:
    the hypothesis of P_stab_co and L_block_aut."""
    report = automorphic_analysis(G, max_subgroup_order=caps.max_subgroup_order)
    return frozenset(points) in report.subsets


def _aut_partition_gate(G, X, caps):
    """(Aut(X), why): why the hypothesis of L_H_order, P_triv_norm and
    T_coherent, that every suborbit's Aut-translate set is a partition,
    fails on X; None when it holds."""
    aut = aut_of_kset(X, degree=G.degree, max_elements=caps.max_elements)
    if _aut_suborbit_partition_failure(aut, X, caps.max_subgroup_order) is None:
        return aut, None
    return aut, "some suborbit's Aut-translate set is not a partition"


def _suborbit_pool(G, X, max_order):
    """Canonical suborbits of X: the orbit of X's least tuple under each
    subgroup conjugacy-class representative, deduplicated."""
    t0 = _rep(X)
    pool = {orbit_of_tuple(cls.rep, t0)
            for cls in subgroup_classes(G, max_order=max_order)}
    # same-size suborbits in lexicographic order of their tuples
    return sorted(pool, key=lambda Y: (len(Y), Y.rows.ravel().tolist()))


@functools.lru_cache(maxsize=4096)
def _aut_suborbit_partition_failure(Gaut, X, max_order):
    """First suborbit Y of X (orbit of a subgroup of Aut) whose Aut
    translate set is not a partition; None when all are partitions.

    Suborbits come in class order of the subgroups, then in order of
    least tuple. Aut maps X onto itself, so pos[g, x], the row of g x in
    X, is a position matrix; the translates of Y form a partition iff
    |gY ∩ Y| is 0 or |Y| for every g. For one class representative, one
    `bincount` over (g, suborbit of x) of the x whose image stays in its
    suborbit gives |gY ∩ Y| for every suborbit Y and every g at once.
    The matrix is built in chunks of _backend.KEY_BUDGET entries (one
    chunk for every Aut at degree 6), and the first chunk is kept.
    """
    rows = X.rows
    pw = _backend.powers_for(Gaut.degree, X.arity)
    keys = rows @ pw
    step = max(1, _backend.KEY_BUDGET // len(rows))

    def positions(start):
        return np.searchsorted(keys, Gaut.images[start:start + step, rows] @ pw)

    first = positions(0)
    for cls in subgroup_classes(Gaut, max_order=max_order):
        labels = _backend.orbit_labels(cls.rep.images, rows)
        count = int(labels.max()) + 1
        sizes = np.bincount(labels)
        bad = np.zeros(count, dtype=bool)
        for start in range(0, Gaut.order, step):
            pos = first if start == 0 else positions(start)
            cells = np.arange(len(pos))[:, None] * count + labels
            meets = np.bincount(cells[labels[pos] == labels],
                                minlength=len(pos) * count).reshape(-1, count)
            bad |= ((meets > 0) & (meets < sizes)).any(axis=0)
        if bad.any():
            return _kset(rows[labels == np.argmax(bad)])
    return None


def _orbit_from_ctx(G, ctx):
    t0 = tuple(int(v) for v in ctx["orbit_rep"])
    return orbit_of_tuple(G, t0)


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

def _eval_P_stab_co(ctx, caps):
    W = _ctx_group(ctx, caps)
    alpha = tuple(int(v) for v in ctx["tuple"])
    if not _is_automorphic(W, alpha, caps):
        return _na("tuple is not automorphic: its coordinate set is no suborbit")
    G = setwise_point_stabilizer(W, frozenset(alpha))
    H = pointwise_tuple_stabilizer(G, alpha)
    X = orbit_of_tuple(G, alpha)
    aut = aut_of_kset(X, degree=W.degree, max_elements=caps.max_elements)
    if not _is_normal(H, G):
        return _fail({"reason": "tuple stabilizer not normal in the "
                                "coordinate-set stabilizer",
                      "stab_order": G.order, "tuple_stab_order": H.order})
    if aut.order * H.order != G.order:
        return _fail({"reason": "|Aut(X)| != |G|/|H|",
                      "aut_order": aut.order, "stab_order": G.order,
                      "tuple_stab_order": H.order})
    if orbit_of_tuple(aut, alpha) != X:
        return _fail({"reason": "Aut(X) not transitive on X",
                      "aut_order": aut.order, "orbit_size": len(X)})
    return _pass()


def _eval_P_LkRk(ctx, caps):
    G = _ctx_group(ctx, caps)
    Y = KSet(tuple(t) for t in ctx["suborbit"])
    X = orbit_of_tuple(G, _rep(Y))
    n = G.degree
    if Y.rows.max() >= n or not _backend.in_sorted(
            _backend.encode_rows(X.rows, n), _backend.encode_rows(Y.rows, n)).all():
        return _na("suborbit is not contained in a k-orbit")
    H, h_trans = stab_of_ksuborbit(G, Y)
    if not h_trans:
        return _na("stabilizer is not transitive on the k-set: not a suborbit")
    left = translate_keys(G, Y.rows)[3]
    if left is None or not np.array_equal(
            left, _backend.orbit_labels(H.images, X.rows)):
        return _na("L_k != R_k")
    if not _is_normal(H, G):
        return _fail({"reason": "L_k = R_k but Stab(Y_k) is not normal",
                      "stab_generators": _ser_group(H)})
    return _pass()


def _eval_P_prim_normal(ctx, caps):
    G = _ctx_group(ctx, caps)
    why = not_primitive_reason(G)
    if why:
        return _na(why)
    if "subgroup" not in ctx:
        return _na("no proper non-trivial normal subgroup")
    H = _ctx_group(ctx, caps, "subgroup")
    if H.order <= 1 or not _is_normal(H, G):
        return _na("subgroup is trivial or not normal")
    if not is_transitive(H):
        return _fail({"reason": "normal subgroup of a primitive group is "
                                "intransitive",
                      "subgroup_order": H.order})
    return _pass()


def _eval_C_simple(ctx, caps):
    G, why = _terminal(ctx, caps)
    if why:
        return _na(why)
    for H in _normal_proper_nontrivial(G, caps.max_subgroup_order):
        return _fail({"reason": "proper non-trivial normal subgroup found",
                      "subgroup_generators": _ser_group(H),
                      "subgroup_order": H.order})
    return _pass()


def _index_hypothesis(ctx, caps):
    G = _ctx_group(ctx, caps)
    if "subgroup" not in ctx or "subgroup2" not in ctx:
        return G, None, None, "no (A < H normal-in G, N_H(A) = A) instance"
    H = _ctx_group(ctx, caps, "subgroup")
    A = _ctx_group(ctx, caps, "subgroup2")
    if not (1 < A.order < H.order and is_subgroup(A, H)):
        return G, H, A, "A is not a proper non-trivial subgroup of H"
    if not (_is_normal(H, G) and H.order < G.order):
        return G, H, A, "H is not a proper normal subgroup of G"
    if normalizer_in(H, A) != A:
        return G, H, A, "N_H(A) != A"
    return G, H, A, None


def _eval_P_index(ctx, caps):
    G, H, A, why = _index_hypothesis(ctx, caps)
    if why:
        return _na(why)
    NG = normalizer_in(G, A)
    if NG == A:
        return _fail({"reason": "N_G(A) = A", "normalizer_order": NG.order})
    if G.order * A.order != NG.order * H.order:
        return _fail({"reason": "|G|/|H| != |N_G(A)|/|A|",
                      "group_order": G.order, "normal_order": H.order,
                      "normalizer_order": NG.order, "a_order": A.order})
    return _pass()


def _left_coset_reps(G, A):
    """The row numbers in G of the least element of each left coset gA of
    its subgroup A: the least index of each orbit of G's elements under
    right multiplication by A's generators."""
    index = _backend.row_index(G.images)
    maps = [index(G.images[:, a]) for a in generator_rows(A)]
    return np.unique(_backend.least_in_orbits(maps, G.order))


def _isomorphic_orbits(reps, tuples, sizes, keys, key_ids):
    """The mask of the A-orbits Z with some gZ another A-orbit for a g
    among the element rows `reps`: every image of Z lies in one A-orbit,
    of Z's size, other than Z. The orbits are the consecutive segments
    of `tuples` of lengths `sizes`; `keys` are the sorted tuple keys and
    `key_ids` their orbit ids. Runs over `reps` in chunks of about
    KEY_BUDGET image keys."""
    starts = np.cumsum(sizes) - sizes
    pw = _backend.powers_for(reps.shape[1], tuples.shape[1])
    own = np.arange(sizes.size)
    hits = np.zeros(sizes.size, dtype=bool)
    step = max(1, _backend.KEY_BUDGET // len(tuples))
    for start in range(0, len(reps), step):
        at = key_ids[np.searchsorted(keys, reps[start:start + step, tuples] @ pw)]
        lo = np.minimum.reduceat(at, starts, axis=1)
        hi = np.maximum.reduceat(at, starts, axis=1)
        hits |= ((lo == hi) & (sizes[lo] == sizes) & (lo != own)).any(axis=0)
    return hits


def _eval_P_giso(ctx, caps):
    G, H, A, why = _index_hypothesis(ctx, caps)
    if why:
        return _na(why)
    # gZ depends only on the left coset gA, since A fixes its own orbit Z
    reps = G.images[_left_coset_reps(G, A)]
    for k in range(1, G.degree + 1):
        tuples, ids = _backend.tuple_orbits(A.images, k, caps.max_tuples)
        keys = _backend.encode_rows(tuples, G.degree)
        by_key = np.argsort(keys)
        keys, key_ids = keys[by_key], ids[by_key]
        sizes = np.bincount(ids)
        hits = _isomorphic_orbits(reps, tuples, sizes, keys, key_ids)
        if not hits.any():
            continue
        # the first hit in the order of the translates of the first orbit
        z = int(np.argmax(hits))
        Z = tuples[ids == z]
        T = translate_keys(G, Z)[0]
        at = key_ids[np.searchsorted(keys, T)]
        hit = ((at == at[:, :1]).all(axis=1) & (sizes[at[:, 0]] == len(Z))
               & (at[:, 0] != z))
        T = _backend.decode_keys(T[np.argmax(hit)], G.degree, k)
        return _pass({"k": k, "orbit": (Z + 1).tolist(),
                      "translate": (T + 1).tolist()})
    return _fail({"reason": "no pair of distinct G-isomorphic k-orbits of A "
                            "for any k"})


def _eval_L_alt_norm(ctx, caps):
    G = _ctx_group(ctx, caps)
    n = G.degree
    if n < 3:
        return _na("alternating group is trivial below degree 3")
    # G < A_n: even generators and |G| < n!/2
    if not (2 * G.order < math.factorial(n)
            and not _odd(generator_rows(G)).any()):
        return _na("group is not a proper subgroup of the alternating group")
    return _normalizer_exceeds(G, caps)


def _eval_C_no_tr(ctx, caps):
    G, why = _terminal(ctx, caps)
    return _na(why) if why else _normalizer_exceeds(G, caps)


def _eval_P_equal_classes(ctx, caps):
    G = _ctx_group(ctx, caps)
    X = _orbit_from_ctx(G, ctx)
    aut = aut_of_kset(X, degree=G.degree, max_elements=caps.max_elements)
    rows = X.rows
    for cls in subgroup_classes(aut, max_order=caps.max_subgroup_order):
        sizes = np.bincount(_backend.orbit_labels(cls.rep.images, rows))
        if sizes.min() != sizes.max():
            return _na("a subgroup of Aut(X) has unequal class sizes on X")
    if aut.order != len(X):
        return _fail({"reason": "|Aut(X)| != |X| although every subgroup "
                                "partitions X into equal classes",
                      "aut_order": aut.order, "orbit_size": len(X)})
    return _pass()


def _eval_L_grAB(ctx, caps):
    G = _ctx_group(ctx, caps)
    if "subgroup" in ctx:    # pinned witness form
        regs = [_ctx_group(ctx, caps, key) for key in ("subgroup", "subgroup2")]
        alpha = tuple(int(v) for v in ctx["tuple"])
        pairs = [(0, 1)] if all(len(orbit_of_tuple(A, alpha)) == A.order
                                for A in regs) else []
    else:
        X = _orbit_from_ctx(G, ctx)
        aut = aut_of_kset(X, degree=G.degree, max_elements=caps.max_elements)
        alpha = _rep(X)
        # subgroup class reps of Aut whose orbit of alpha is regular
        regs = [cls.rep for cls in subgroup_classes(
                    aut, max_order=caps.max_subgroup_order)
                if len(orbit_of_tuple(cls.rep, alpha)) == cls.order]
        pairs = [(i, j) for i in range(len(regs))
                 for j in range(len(regs))][:MAX_PAIRS]
    if not pairs:
        return _na("no pair of regular suborbits through a common tuple")
    # gr(A, A) = A is regular, and gr(B, A) = gr(A, B) with (j, i) listed
    # before (i, j): only the pairs i < j are joined
    for i, j in [(i, j) for i, j in pairs if i < j]:
        J = _join_groups(regs[i], regs[j], G.degree, caps.max_elements)
        T = orbit_of_tuple(J, alpha)
        if len(T) != J.order:
            return _fail({"reason": "|T_k| != |gr(A, B)|",
                          "t_size": len(T), "join_order": J.order},
                         {"degree": ctx["degree"], "group": ctx["group"],
                          "subgroup": _ser_group(regs[i]),
                          "subgroup2": _ser_group(regs[j]),
                          "tuple": list(alpha)})
    return _pass({"pairs_checked": len(pairs)})


def _pair_partitions(ly, lz):
    """Meet and join of the label rows ly[p] and lz[p] of every pair p,
    in one kernel call each.

    ly and lz are (P, N) label arrays with labels below N. Row p is
    offset by p * N, so the pairs stay disjoint: the meet is the code of
    each (ly, lz) label pair, the join one `_backend.join_labels` call.
    Each row is numbered by least index, so equal partitions have equal
    bytes.
    """
    P, N = ly.shape
    a = ly + np.arange(P)[:, None] * N
    b = lz + np.arange(P)[:, None] * N
    _, first, code = np.unique((a * N + lz).ravel(), return_index=True,
                               return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    meet = rank[code].reshape(P, N)
    join = _backend.join_labels(a.ravel(), b.ravel()).reshape(P, N)
    # classes never span rows, so each row's first index has its least label
    return meet - meet[:, :1], join - join[:, :1]


def _first_capcup_failure(G, sets, trans, stabs, todo, max_elements):
    """(index in `todo`, reason) of the first failing pair of `todo`,
    or None when all pass.

    `todo` lists pairs (i, j) of the k-sets `sets` whose translates
    partition one common union; trans[i] and stabs[i] are
    `translate_keys` and `stab_of_ksuborbit` of sets[i], and each set is
    found in the union by its own least key. The meets and joins of all
    pairs are built in one batch; the translate match and the stabilizer
    mask of a class are computed once per distinct class and partition.
    """
    n, k = G.degree, sets[0].arity
    union = trans[todo[0][0]][2]
    ly = np.stack([trans[i][3] for i, _ in todo])
    lz = np.stack([trans[j][3] for _, j in todo])
    meet, join = _pair_partitions(ly, lz)
    at = np.searchsorted(union, _backend.encode_rows([Y.rows[0] for Y in sets], n))
    matched = {}

    def matches(cls, part):
        """Whether the translates of the class with sorted keys `cls`
        partition the union as the label row `part` does."""
        key = (cls.tobytes(), part.tobytes())
        if key not in matched:
            _, _, u, lab = translate_keys(G, _backend.decode_keys(cls, n, k))
            matched[key] = (lab is not None and np.array_equal(u, union)
                            and np.array_equal(lab, part))
        return matched[key]

    def stabilizer(cls):
        """The mask of the g in G with gC = C, C the class with keys `cls`."""
        return translate_keys(G, _backend.decode_keys(cls, n, k))[1]

    for p, (i, j) in enumerate(todo):
        m, jn, a = meet[p], join[p], at[i]
        U = union[jn == jn[a]]
        if not matches(union[m == m[a]], m):
            return p, "meet is not a G-translate partition"
        if not matches(U, jn):
            return p, "join is not a G-translate partition"
        inside = (ly[p] == ly[p, a]) & (lz[p] == lz[p, at[j]])
        if inside.any():
            T = union[inside]
            # U's translates were matched with the join above
            if not matches(T, m):
                return p, "meet != G(Y ∩ Z)"
            if not np.array_equal(stabilizer(T), trans[i][1] & trans[j][1]):
                return p, "Stab(T) != Stab(Y) ∩ Stab(Z)"
            J = _join_groups(stabs[i][0], stabs[j][0], n, max_elements)
            if not np.array_equal(G.keys[stabilizer(U)], J.keys):
                return p, "Stab(U) != gr(Stab(Y), Stab(Z))"
    return None


def _eval_P_capcup(ctx, caps):
    """Meet and join of the translate partitions of each pair of
    suborbits of the orbit, or of the pinned pair.

    The pairs to check are collected first, with the skip rules; a pair
    whose unions differ raises where it is found. `_first_capcup_failure`
    then checks the pairs in one batch, in order, so the first failing
    pair is the one reported.
    """
    G = _ctx_group(ctx, caps)
    if "suborbit" in ctx:    # pinned witness form
        sets = [KSet(tuple(t) for t in ctx["suborbit"]),
                KSet(tuple(t) for t in ctx["suborbit2"])]
        pairs = [(0, 1)]
    else:
        X = _orbit_from_ctx(G, ctx)
        sets = [Y for Y in _suborbit_pool(G, X, caps.max_subgroup_order)
                if translate_keys(G, Y.rows)[3] is not None]
        pairs = [(i, j) for i in range(len(sets))
                 for j in range(i + 1, len(sets))][:MAX_PAIRS]
    if not pairs:
        return _na("no pair of distinct suborbits with partition translate sets")
    # the pairs cover every set up to their largest index
    sets = sets[:max(j for _, j in pairs) + 1]
    trans = [translate_keys(G, Y.rows) for Y in sets]
    stabs = [stab_of_ksuborbit(G, Y) for Y in sets]
    # every pool suborbit contains X's least tuple, so in the pool all
    # unions are X; only the pinned pair can differ
    todo = []
    for i, j in pairs:
        if (sets[i] == sets[j] or trans[i][3] is None or trans[j][3] is None
                or not (stabs[i][1] and stabs[j][1])):
            continue
        if not np.array_equal(trans[i][2], trans[j][2]):
            raise DomainError("domain mismatch in meet")
        todo.append((i, j))
    failure = (_first_capcup_failure(G, sets, trans, stabs, todo,
                                     caps.max_elements) if todo else None)
    if failure:
        p, reason = failure
        i, j = todo[p]
        wctx = {"degree": ctx["degree"], "group": ctx["group"],
                "k": sets[i].arity, "suborbit": _ser_kset(sets[i]),
                "suborbit2": _ser_kset(sets[j])}
        return _fail({"reason": reason}, wctx)
    if not todo:
        return _na("no pair of distinct suborbits with partition translate sets")
    return _pass({"pairs_checked": len(todo)})


def _eval_L_H_order(ctx, caps):
    G = _ctx_group(ctx, caps)
    X = _orbit_from_ctx(G, ctx)
    aut, why = _aut_partition_gate(G, X, caps)
    if why:
        return _na(why)
    for cls in subgroup_classes(aut, max_order=caps.max_subgroup_order):
        if (len(cls.conjugates) == 1 and cls.order == len(X)
                and orbit_of_tuple(cls.rep, _rep(X)) == X):
            return _pass()
    return _fail({"reason": "no transitive normal subgroup of Aut(X) of "
                            "order |X|",
                  "aut_order": aut.order, "orbit_size": len(X)})


def _eval_P_incoherent(ctx, caps):
    G = _ctx_group(ctx, caps)
    X = _orbit_from_ctx(G, ctx)
    verdict = classify_coherence(G, X,
                                 max_subgroup_order=caps.max_subgroup_order)
    if verdict.kind != "incoherent":
        return _na(f"k-orbit is {verdict.kind}"
                   + (" (trivial)" if verdict.trivial else ""))
    aut = aut_of_kset(X, degree=G.degree, max_elements=caps.max_elements)
    notes = None
    _, blocks = k_blocks(X, max_elements=caps.max_elements)
    if len(blocks) == 2:
        Y = blocks[0].kset
        SY, _ = stab_of_ksuborbit(aut, Y)
        notes = {"two_block_stab_identity": SY.order == len(Y) ** 2,
                 "block_size": len(Y), "block_stab_order": SY.order}
    if aut.order == len(X):
        return _fail({"reason": "incoherent k-orbit with |Aut(X)| = |X|",
                      "aut_order": aut.order}, notes=notes)
    return _pass(notes)


def _eval_P_triv_norm(ctx, caps):
    G = _ctx_group(ctx, caps)
    X = _orbit_from_ctx(G, ctx)
    aut, why = _aut_partition_gate(G, X, caps)
    if why:
        return _na(why)
    self_norm = None
    # N_Aut(A) = A iff the class of A, of size |Aut : N_Aut(A)|, has |Aut|/|A| members
    for cls in subgroup_classes(aut, max_order=caps.max_subgroup_order):
        if 1 < cls.order < aut.order and cls.order * len(cls.conjugates) == aut.order:
            self_norm = cls.rep
            break
    if self_norm is None:
        return _na("Aut(X) has no proper subgroup with trivial normalizer")
    if aut.order != len(X):
        return _fail({"reason": "|Aut(X)| != |X| despite a self-normalizing "
                                "subgroup",
                      "aut_order": aut.order, "orbit_size": len(X),
                      "subgroup_generators": _ser_group(self_norm)})
    return _pass()


def _eval_T_coherent(ctx, caps):
    G = _ctx_group(ctx, caps)
    X = _orbit_from_ctx(G, ctx)
    verdict = classify_coherence(G, X,
                                 max_subgroup_order=caps.max_subgroup_order)
    if not verdict.is_coherent or verdict.trivial:
        return _na("k-orbit is not (non-trivially) coherent")
    aut, why = _aut_partition_gate(G, X, caps)
    if why:
        return _na(why)
    if aut.order != len(X):
        return _fail({"reason": "coherent k-orbit under the partition "
                                "hypothesis with |Aut(X)| != |X|",
                      "aut_order": aut.order, "orbit_size": len(X)})
    return _pass()


def _eval_L_elcoh_part(ctx, caps):
    G = _ctx_group(ctx, caps)
    X = _orbit_from_ctx(G, ctx)
    verdict = classify_coherence(G, X,
                                 max_subgroup_order=caps.max_subgroup_order)
    if verdict.kind != "elementary-coherent":
        return _na("k-orbit is not elementary coherent")
    aut = aut_of_kset(X, degree=G.degree, max_elements=caps.max_elements)
    bad = _aut_suborbit_partition_failure(aut, X, caps.max_subgroup_order)
    if bad is not None:
        return _fail({"reason": "Aut(X)-translates of a suborbit are not a "
                                "partition",
                      "suborbit": _ser_kset(bad)})
    return _pass()


def _eval_T_elcoh(ctx, caps):
    G = _ctx_group(ctx, caps)
    X = _orbit_from_ctx(G, ctx)
    verdict = classify_coherence(G, X,
                                 max_subgroup_order=caps.max_subgroup_order)
    if verdict.kind != "elementary-coherent":
        return _na("k-orbit is not elementary coherent")
    aut = aut_of_kset(X, degree=G.degree, max_elements=caps.max_elements)
    if aut.order != len(X):
        return _fail({"reason": "elementary coherent k-orbit with "
                                "|Aut(X)| != |X|",
                      "aut_order": aut.order, "orbit_size": len(X)})
    return _pass()


def _eval_L_block_aut(ctx, caps):
    G = _ctx_group(ctx, caps)
    X = _orbit_from_ctx(G, ctx)
    if not _is_automorphic(G, _rep(X), caps):
        return _na("not a right-automorphic k-orbit: no automorphic tuple")
    _, blocks = k_blocks(X, max_elements=caps.max_elements)
    for b in blocks:
        if not b.aut_transitive:
            return _fail({"reason": "k-block automorphism group is not "
                                    "transitive on the coordinate set",
                          "block": _ser_kset(b.kset),
                          "aut_order": b.aut.order})
    return _pass({"blocks": len(blocks)})


def _eval_L_proof_elcoh(ctx, caps):
    G, why = _terminal(ctx, caps)
    if why:
        return _na(why)
    _, k, found = terminal_partitions(G, caps.max_subgroup_order, caps.max_elements)
    if not found:
        return _na(f"no qualifying partition into {k}-element isomorphic "
                   f"suborbits exists")
    for part, projs, kinds in found:
        for X, kind in zip(projs, kinds):
            if kind != "elementary-coherent":
                return _fail({"reason": "projection is not elementary coherent",
                              "classes": [sorted(c) for c in part.classes],
                              "orbit_rep": list(_rep(X)), "kind": kind})
    return _pass({"partitions": len(found)})


# ---------------------------------------------------------------------------
# context generators
# ---------------------------------------------------------------------------

def _ctx_P_stab_co(G, base, ks, caps):
    report = automorphic_analysis(G, max_subgroup_order=caps.max_subgroup_order)
    for k in ks:
        for s in report.subsets:
            if len(s) == k:
                yield {**base, "tuple": sorted(s)}


def _ctx_P_LkRk(G, base, ks, caps):
    count = 0
    for k in ks:
        for X in k_orbits(G, k, max_tuples=caps.max_tuples):
            for Y in _suborbit_pool(G, X, caps.max_subgroup_order):
                if count >= MAX_CONTEXTS:
                    return
                count += 1
                yield {**base, "k": k, "suborbit": _ser_kset(Y)}


def _ctx_P_prim_normal(G, base, ks, caps):
    if not_primitive_reason(G):
        yield dict(base)
        return
    normals = _normal_proper_nontrivial(G, caps.max_subgroup_order)
    if not normals:
        yield dict(base)
        return
    for H in normals:
        yield {**base, "subgroup": _ser_group(H)}


def _ctx_bare(G, base, ks, caps):
    yield dict(base)


def _ctx_index_like(G, base, ks, caps):
    found = False
    for H in _normal_proper_nontrivial(G, caps.max_subgroup_order):
        for cls in subgroup_classes(H, max_order=caps.max_subgroup_order):
            A = cls.rep
            # N_H(A) = A iff the class of A, of size |H : N_H(A)|, has |H|/|A| members
            if not 1 < A.order < H.order or A.order * len(cls.conjugates) != H.order:
                continue
            found = True
            yield {**base, "subgroup": _ser_group(H),
                   "subgroup2": _ser_group(A)}
    if not found:
        yield dict(base)


def _ctx_per_orbit(G, base, ks, caps):
    for k in ks:
        for X in k_orbits(G, k, max_tuples=caps.max_tuples):
            yield {**base, "k": k, "orbit_rep": list(_rep(X))}


@dataclass(frozen=True)
class _Check:
    check_id: str
    evaluate: object
    contexts: object
    summary: str


_REGISTRY = [
    _Check("P_stab_co", _eval_P_stab_co, _ctx_P_stab_co,
           "coordinate-set stabilizer modulo tuple stabilizer is Aut(X_k)"),
    _Check("P_LkRk", _eval_P_LkRk, _ctx_P_LkRk,
           "L_k = R_k forces a normal suborbit stabilizer"),
    _Check("P_prim_normal", _eval_P_prim_normal, _ctx_P_prim_normal,
           "normal subgroups of primitive groups are transitive"),
    _Check("C_simple", _eval_C_simple, _ctx_bare,
           "primitive with no transitive subgroup implies simple"),
    _Check("P_index", _eval_P_index, _ctx_index_like,
           "self-normalizing A in normal H: |G|/|H| = |N_G(A)|/|A|"),
    _Check("P_giso", _eval_P_giso, _ctx_index_like,
           "self-normalizing A in normal H has G-isomorphic k-orbits"),
    _Check("L_alt_norm", _eval_L_alt_norm, _ctx_bare,
           "proper subgroups of the alternating group are not "
           "self-normalizing in the symmetric group"),
    _Check("C_no_tr", _eval_C_no_tr, _ctx_bare,
           "primitive, no transitive subgroup: normalizer exceeds G"),
    _Check("P_equal_classes", _eval_P_equal_classes, _ctx_per_orbit,
           "equal class sizes for all Aut subgroups force |Aut(X_k)| = |X_k|"),
    _Check("L_grAB", _eval_L_grAB, _ctx_per_orbit,
           "regular overlapping suborbits generate a regular orbit"),
    _Check("P_capcup", _eval_P_capcup, _ctx_per_orbit,
           "meet and join of coset partitions are coset partitions"),
    _Check("L_H_order", _eval_L_H_order, _ctx_per_orbit,
           "all-partition hypothesis yields a transitive normal subgroup "
           "of order |X_k|"),
    _Check("P_incoherent", _eval_P_incoherent, _ctx_per_orbit,
           "incoherent k-orbits have |Aut(X_k)| != |X_k|"),
    _Check("P_triv_norm", _eval_P_triv_norm, _ctx_per_orbit,
           "a self-normalizing subgroup forces |Aut(X_k)| = |X_k|"),
    _Check("T_coherent", _eval_T_coherent, _ctx_per_orbit,
           "coherent under the all-partition hypothesis: |Aut(X_k)| = |X_k|"),
    _Check("L_elcoh_part", _eval_L_elcoh_part, _ctx_per_orbit,
           "elementary coherent: every Aut-translate set is a partition"),
    _Check("T_elcoh", _eval_T_elcoh, _ctx_per_orbit,
           "elementary coherent implies |Aut(X_k)| = |X_k|"),
    _Check("L_block_aut", _eval_L_block_aut, _ctx_per_orbit,
           "k-block automorphism groups are transitive of degree k"),
    _Check("L_proof_elcoh", _eval_L_proof_elcoh, _ctx_bare,
           "terminal-case projections are elementary coherent"),
]

_BY_ID = {c.check_id: c for c in _REGISTRY}


def check_ids():
    return [c.check_id for c in _REGISTRY]


@dataclass(frozen=True)
class SuiteCaps:
    """The caps of `korbits check`, one per flag, each reaching every call
    that can exceed it: `max_subgroup_order` bounds every subgroup
    lattice, `max_elements` every enumeration of group elements (each
    closure, the n! normalizer search and the m! filter of Aut(X)) and
    `max_tuples` every k-tuple enumeration."""
    max_subgroup_order: int = DEFAULT_SUBGROUP_CAP
    max_elements: int = DEFAULT_ELEMENT_CAP
    max_tuples: int = DEFAULT_TUPLE_CAP


def run_check(check_id, context, caps=None):
    """Evaluate one check on one context dict; deterministic."""
    if check_id not in _BY_ID:
        raise DomainError(f"unknown check id {check_id!r}")
    return _run(_BY_ID[check_id], dict(context), caps or SuiteCaps())


def _run(check, ctx, caps):
    return _result(check.check_id, ctx, check.evaluate(ctx, caps))


def replay_witness(witness, check_id, caps=None):
    """Re-run a check on a fail witness's embedded context alone."""
    return run_check(check_id, witness["context"], caps=caps)


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteReport:
    results: tuple          # CheckResult, canonical order
    tallies: dict           # check_id -> {verdict: count}

    def failures(self):
        return [r for r in self.results if r.verdict == "fail"]


def run_suite(catalog, k_range=None, check_ids=None, caps=None):
    """Evaluate checks over every catalog entry; deterministic order.

    k_range is an iterable of arities (default 1..degree);
    check_ids filters the registry; cap violations are recorded as
    skipped results, never raised."""
    caps = caps or SuiteCaps()
    selected = [c for c in _REGISTRY
                if check_ids is None or c.check_id in set(check_ids)]
    unknown = set(check_ids or []) - {c.check_id for c in _REGISTRY}
    if unknown:
        raise DomainError(f"unknown check ids: {sorted(unknown)}")
    results = []
    tallies = {c.check_id: {"pass": 0, "fail": 0, "inapplicable": 0,
                            "skipped": 0} for c in selected}
    n = catalog.degree
    ks = list(k_range) if k_range is not None else list(range(1, n + 1))
    ks = [k for k in ks if 1 <= k <= n]
    for entry in catalog:
        # one context per entry, shared by every check; the group closed
        # from it is the one the checks' `_ctx_group` returns
        base = {"degree": n, "group": _ser_group(entry),
                "group_id": entry.entry_id}
        for check in selected:
            try:
                G = _ctx_group(base, caps)
                contexts = list(check.contexts(G, base, ks, caps))
            except ResourceLimitError as exc:
                results.append(_result(check.check_id, dict(base),
                                       ("skipped", str(exc), None)))
                continue
            for ctx in contexts:
                try:
                    results.append(_run(check, dict(ctx), caps))
                except ResourceLimitError as exc:
                    results.append(_result(check.check_id, ctx,
                                           ("skipped", str(exc), None)))
    for res in results:
        tallies[res.check_id][res.verdict] += 1
    return SuiteReport(results=tuple(results), tallies=tallies)


def render_report(report):
    """Machine-readable form: one JSON record per result."""
    lines = [json.dumps(r.to_record(), sort_keys=True)
             for r in report.results]
    return "\n".join(lines) + "\n" if lines else ""


def render_summary(report):
    """Human-readable tally table."""
    header = f"{'check':16} {'pass':>6} {'fail':>6} {'n/a':>6} {'skip':>6}"
    lines = [header, "-" * len(header)]
    for cid, t in report.tallies.items():
        lines.append(f"{cid:16} {t['pass']:>6} {t['fail']:>6} "
                     f"{t['inapplicable']:>6} {t['skipped']:>6}")
    total = {v: sum(t[v] for t in report.tallies.values())
             for v in ("pass", "fail", "inapplicable", "skipped")}
    lines.append("-" * len(header))
    lines.append(f"{'total':16} {total['pass']:>6} {total['fail']:>6} "
                 f"{total['inapplicable']:>6} {total['skipped']:>6}")
    return "\n".join(lines) + "\n"

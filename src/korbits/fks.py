"""Fixed-point-free prime-power elements in transitive groups.

Every finite transitive permutation group contains a non-trivial
fixed-point-free element of prime-power order.  This module makes that
statement executable: direct element search, the quotient-lift lemma
(an fpf prime-power element of a quotient action lifts to one of the
full group via a coprime power of any preimage), a reduction pipeline
that runs the argument as far as it goes (imprimitive -> quotient and
lift; primitive with a proper transitive subgroup -> descend; terminal
primitive case -> audit), and the audit record for the terminal case.

Traces are line-delimited JSON with embedded generators, replayable and
roundtrip-stable.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import _backend
from .errors import DomainError, ParseError, ResourceLimitError
from .group import (DEFAULT_ELEMENT_CAP, block_images, block_systems,
                    close_group, is_primitive, is_transitive, normalizer_in_sym,
                    perm_to_row, quotient_action, row_to_perm)
from .korbit import (automorphic_analysis, classify_coherence, orbit_of_tuple,
                     setwise_point_stabilizer, translate_keys)
from .partition import Partition
from .perm import analyze_element, parse_permutation
from .subgroups import (DEFAULT_SUBGROUP_CAP, _cycle_lengths, _element_orders,
                        subgroup_classes)


def find_fpf_prime_power(G):
    """Canonically least element of G that moves every point and has
    prime-power order; None when no such element exists."""
    moves_all = (G.images != np.arange(G.degree)).all(axis=1)
    for row in G.images[moves_all]:     # canonical (lexicographic) order
        g = row_to_perm(row)
        if analyze_element(g).is_fpf_prime_power:
            return g
    return None


# ---------------------------------------------------------------------------
# quotient lift
# ---------------------------------------------------------------------------

def _preimage_rows(G, Q, g_quot):
    """Image rows of the g in G whose induced action on the classes of Q
    is g_quot, in canonical element order."""
    rows = block_images(G, Q)
    if g_quot.degree == rows.shape[1]:
        match = np.all(rows == perm_to_row(g_quot), axis=1)
        if match.any():
            return G.images[match]
    raise DomainError("element is not in the quotient image")


def preimages_of(G, Q, g_quot):
    """All g in G whose induced action on the classes of Q is g_quot,
    in canonical element order."""
    return [row_to_perm(r) for r in _preimage_rows(G, Q, g_quot)]


def lift_fpf(G, Q, g_quot, preimage=None):
    """Lift an fpf prime-power element of the quotient action on Q to
    an fpf prime-power element of G.

    With |preimage| = p^m * d (gcd(d, p) = 1), the lift is preimage^d.
    The preimage defaults to the canonically least one; any preimage
    works and the postcondition is verified either way.
    """
    a_quot = analyze_element(g_quot)
    if not a_quot.is_fpf:
        raise DomainError("quotient element fixes a class (or is trivial)")
    if not a_quot.is_prime_power:
        raise DomainError(
            f"quotient element order {a_quot.order} is not a prime power")
    pre = _preimage_rows(G, Q, g_quot)
    row = pre[0] if preimage is None else perm_to_row(preimage)
    if not (row.size == G.degree and (pre == row).all(axis=1).any()):
        raise DomainError("given preimage does not reduce to the quotient element")
    p = a_quot.prime_power_split[0][0]
    d = int(_element_orders(row[None])[0])
    while d % p == 0:
        d //= p
    power = row
    for _ in range(d - 1):
        power = row[power]
    lifted = row_to_perm(power)
    a = analyze_element(lifted)
    if not a.is_fpf_prime_power:
        raise DomainError(
            f"lift postcondition failed: {lifted.cycle_string()} "
            f"has order {a.order} and fixes {sorted(a.fixed_points)}")
    return lifted


# ---------------------------------------------------------------------------
# terminal-case audit
# ---------------------------------------------------------------------------

def iso_partitions(G, N, k, max_subgroup_order=DEFAULT_SUBGROUP_CAP):
    """Partitions of the point set into k-element automorphic subsets of
    G that are pairwise N-isomorphic and whose n-orbit projections are
    pairwise N-isomorphic k-orbits.  Deterministic order."""
    n = G.degree
    if k < 1 or n % k != 0:
        return []
    report = automorphic_analysis(G, max_subgroup_order=max_subgroup_order)
    cands = sorted((s for s in report.subsets if len(s) == k), key=sorted)
    out = []

    def extend(chosen, covered):
        if len(covered) == n:
            out.append(tuple(chosen))
            return
        least = min(p for p in range(1, n + 1) if p not in covered)
        for s in cands:
            if least in s and not (s & covered):
                extend(chosen + [s], covered | s)

    extend([], frozenset())
    qualified = []
    for classes in out:
        class_orbit = {frozenset(r) for r in _restriction(N, classes[0]).tolist()}
        if not all(c in class_orbit for c in classes[1:]):
            continue
        projs = [orbit_of_tuple(G, tuple(sorted(c))) for c in classes]
        # the key rows of the N-translates of the first projection
        keys = translate_keys(N, projs[0].rows)[0]
        if not all((keys == _backend.encode_rows(p.rows, n)).all(axis=1).any()
                   for p in projs[1:]):
            continue
        qualified.append((Partition(set(c) for c in classes), tuple(projs)))
    return qualified


def not_primitive_reason(G):
    """Why G is not primitive in the non-Abelian sense, None when it is:
    the first two reasons of `terminal_case`, without its subgroup loop."""
    if not is_transitive(G):
        return "group is intransitive"
    if not is_primitive(G, "paper"):
        return "group is not primitive (non-Abelian convention)"
    return None


def _has_full_cycle(G):
    """Whether G holds an n-cycle, n > 1: a row whose cycle at point 0 is n long."""
    return G.degree > 1 and bool((_cycle_lengths(G.images)[:, 0] == G.degree).any())


def terminal_case(G, max_subgroup_order=DEFAULT_SUBGROUP_CAP):
    """(reason, subgroup): why G is not the terminal case of the reduction
    (primitive in the non-Abelian sense, with no proper transitive
    subgroup), None when it is; and the least proper transitive subgroup
    in class order when G is primitive and has one, None otherwise.

    A transitive subgroup has order at least n, so when G holds an
    n-cycle that subgroup has order n, and only the classes of order at
    most n are built (`subgroup_classes(..., upto=n)`, a prefix of the
    full lattice); other groups read the full lattice."""
    why = not_primitive_reason(G)
    if why:
        return why, None
    # the unbounded call shares its cache entry with every other caller
    classes = (subgroup_classes(G, max_order=max_subgroup_order, upto=G.degree)
               if _has_full_cycle(G)
               else subgroup_classes(G, max_order=max_subgroup_order))
    for cls in classes:
        if cls.order < G.order and is_transitive(cls.rep):
            return f"proper transitive subgroup of order {cls.order} exists", cls.rep
    return None, None


def terminal_partitions(G, max_subgroup_order=DEFAULT_SUBGROUP_CAP,
                        max_elements=DEFAULT_ELEMENT_CAP):
    """(N, k, found) for a terminal G: N its normalizer in Sym, k the
    largest automorphic divisor of the degree (1 when none), and found
    the (partition, projections, coherence kind of each projection) of
    every iso partition of G into k-element sets."""
    N = normalizer_in_sym(G, max_elements=max_elements)
    report = automorphic_analysis(G, max_subgroup_order=max_subgroup_order)
    k = report.max_automorphic_degree_divisor() or 1
    found = []
    for part, projs in iso_partitions(G, N, k, max_subgroup_order):
        kinds = [classify_coherence(G, X, max_subgroup_order=max_subgroup_order).kind
                 for X in projs]
        found.append((part, projs, kinds))
    return N, k, found


def _restriction(A, points):
    """Images of the sorted points under every element of A, 1-based."""
    return A.images[:, sorted(p - 1 for p in points)] + 1


@dataclass(frozen=True)
class AuditRecord:
    """Findings for the terminal case: a primitive (non-Abelian) group
    with no proper transitive subgroup.

    Each boolean is recomputable from the embedded objects; `closed`
    states whether every object the reduction argument requires was
    actually found.
    """

    degree: int
    group_order: int
    normalizer_proper: bool
    normalizer_order: int
    chosen_k: int            # maximal automorphic divisor of the degree
    chosen_k_variant: int    # maximal automorphic divisor of the order
    partitions: tuple        # per-partition finding dicts
    closed: bool

    def as_dict(self):
        return {
            "degree": self.degree,
            "group_order": self.group_order,
            "normalizer_proper": self.normalizer_proper,
            "normalizer_order": self.normalizer_order,
            "chosen_k": self.chosen_k,
            "chosen_k_variant": self.chosen_k_variant,
            "partitions": [dict(p) for p in self.partitions],
            "closed": self.closed,
        }


def proof_audit(G, max_subgroup_order=DEFAULT_SUBGROUP_CAP,
                max_elements=DEFAULT_ELEMENT_CAP):
    """Audit the reduction argument for the terminal case on G.

    Preconditions are checked and violations named: G must be
    transitive, primitive in the non-Abelian sense, and have no proper
    transitive subgroup.  Findings are reported even when they
    contradict the claims the audit is probing (e.g. no qualifying
    partition exists).  max_subgroup_order caps every subgroup lattice
    and max_elements the n! permutations of the normalizer search."""
    why, _ = terminal_case(G, max_subgroup_order)
    if why:
        raise DomainError(f"audit hypothesis violated: {why}")
    return _audit_terminal(G, max_subgroup_order, max_elements)


def _audit_terminal(G, max_subgroup_order, max_elements):
    """`proof_audit` on a G that `terminal_case` has found terminal."""
    N, k, found = terminal_partitions(G, max_subgroup_order, max_elements)
    report = automorphic_analysis(G, max_subgroup_order=max_subgroup_order)
    k_var = report.max_automorphic_order_divisor() or 1
    findings = []
    any_closed = False
    for part, projs, kinds in found:
        el_coh = [kind == "elementary-coherent" for kind in kinds]
        sizes_ok = [len(X) == G.order for X in projs]
        A = setwise_point_stabilizer(G, min(part.classes, key=min))
        inv = [c for c in part.classes if setwise_point_stabilizer(A, c) == A]
        iso = bool(inv) and all(len(np.unique(_restriction(A, c), axis=0)) == A.order
                                for c in inv)
        finding = {
            "classes": [sorted(c) for c in part.classes],
            "projections_elementary_coherent": el_coh,
            "orbit_size_equals_group_order": sizes_ok,
            "stabilizer_projection_isomorphic": iso,
        }
        findings.append(finding)
        any_closed = any_closed or (all(el_coh) and all(sizes_ok) and iso)
    return AuditRecord(
        degree=G.degree,
        group_order=G.order,
        normalizer_proper=N.order > G.order,
        normalizer_order=N.order,
        chosen_k=k,
        chosen_k_variant=k_var,
        partitions=tuple(findings),
        closed=(N.order > G.order) and any_closed,
    )


# ---------------------------------------------------------------------------
# reduction pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionTrace:
    """Ordered record of one pipeline run.

    steps are JSON-ready dicts of kind "quotient",
    "descend-to-transitive-subgroup" or "primitive-terminal"; result
    holds the reduction element, the independent direct-search element
    and whether they agree.  The result element always satisfies the
    fpf prime-power predicate.
    """

    degree: int
    generators: tuple      # cycle strings
    steps: tuple           # JSON-ready dicts
    result: dict

    def element(self):
        return parse_permutation(self.result["element"], self.degree)

    def analysis(self):
        return analyze_element(self.element())


def trace_to_dict(trace):
    return {"degree": trace.degree,
            "generators": list(trace.generators),
            "steps": [dict(s) for s in trace.steps],
            "result": dict(trace.result)}


def trace_from_dict(d):
    return ReductionTrace(degree=int(d["degree"]),
                          generators=tuple(d["generators"]),
                          steps=tuple(d["steps"]),
                          result=dict(d["result"]))


def fks_pipeline(G, max_subgroup_order=DEFAULT_SUBGROUP_CAP,
                 max_elements=DEFAULT_ELEMENT_CAP):
    """Run the reduction argument on a transitive group G of degree at
    least 2 and return a ReductionTrace ending in a verified fpf
    prime-power element.

    Imprimitive groups quotient by the minimal block system with the
    smallest blocks and lift (a lift that fails raises DomainError);
    primitive non-Abelian groups descend to the canonically least
    proper transitive subgroup when one exists, and otherwise run
    proof_audit; Abelian groups with no block system (prime degree) go
    straight to direct search.  A direct search always runs last and
    disagreements with the reduction are recorded.  An audit over one
    of proof_audit's caps records the error as its audit_error."""
    if G.degree < 2:
        raise DomainError("the theorem requires degree at least 2, "
                          f"got degree {G.degree}")
    if not is_transitive(G):
        raise DomainError("the pipeline requires a transitive group")
    steps = []
    reduced = None
    # smallest imprimitivity blocks (deepest quotient), canonically
    Q = min(block_systems(G), default=None,
            key=lambda p: (max(len(c) for c in p.classes),
                           tuple(tuple(sorted(c)) for c in p.classes)))
    if Q is not None:
        quot = quotient_action(G, Q)
        sub = fks_pipeline(quot, max_subgroup_order=max_subgroup_order,
                           max_elements=max_elements)
        g_quot = sub.element()
        reduced = lift_fpf(G, Q, g_quot)
        steps.append({"kind": "quotient",
                      "blocks": [sorted(c) for c in Q.classes],
                      "quotient_degree": quot.degree,
                      "quotient_trace": trace_to_dict(sub),
                      "quotient_element": g_quot.cycle_string(),
                      "lifted": reduced.cycle_string()})
    else:
        why, A = terminal_case(G, max_subgroup_order)
        if A is not None:
            sub = fks_pipeline(A, max_subgroup_order=max_subgroup_order,
                               max_elements=max_elements)
            reduced = sub.element()
            steps.append({"kind": "descend-to-transitive-subgroup",
                          "subgroup_generators": [g.cycle_string()
                                                  for g in A.generators],
                          "subgroup_order": A.order,
                          "subgroup_trace": trace_to_dict(sub),
                          "element": reduced.cycle_string()})
        else:
            # without a block system only an Abelian G is not terminal
            audit, audit_error = None, ("Abelian group with no block system; "
                                        "direct search only")
            if not why:
                try:
                    audit, audit_error = _audit_terminal(
                        G, max_subgroup_order, max_elements).as_dict(), None
                except ResourceLimitError as exc:   # recorded, never fatal
                    audit_error = str(exc)
            steps.append({"kind": "primitive-terminal",
                          "audit": audit, "audit_error": audit_error})
    search = find_fpf_prime_power(G)
    if search is None:
        raise DomainError("no fixed-point-free prime-power element exists "
                          "(contradicts the theorem for a transitive group)")
    element = reduced if reduced is not None else search
    a = analyze_element(element)
    if not a.is_fpf_prime_power:
        raise DomainError(f"pipeline produced an invalid element "
                          f"{element.cycle_string()}")
    p, m, _ = a.prime_power_split[0]
    return ReductionTrace(
        degree=G.degree,
        generators=tuple(g.cycle_string() for g in G.generators),
        steps=tuple(steps),
        result={"element": element.cycle_string(), "order": a.order,
                "prime": p, "power": m,
                "search_element": search.cycle_string(),
                "agrees": element == search})


def replay_trace(trace, max_subgroup_order=DEFAULT_SUBGROUP_CAP,
                 max_elements=DEFAULT_ELEMENT_CAP):
    """Re-run the pipeline on the trace's group, closed under the caps it
    was made with; True when the rerun reproduces the trace exactly."""
    gens = [parse_permutation(s, trace.degree) for s in trace.generators]
    G = close_group(gens, degree=trace.degree, max_elements=max_elements)
    return fks_pipeline(G, max_subgroup_order=max_subgroup_order,
                        max_elements=max_elements) == trace


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------

def render_trace(trace):
    lines = [json.dumps({"record": "group", "degree": trace.degree,
                         "generators": list(trace.generators)},
                        sort_keys=True)]
    for s in trace.steps:
        lines.append(json.dumps({"record": "step", **s}, sort_keys=True))
    lines.append(json.dumps({"record": "result", **trace.result},
                            sort_keys=True))
    return "\n".join(lines) + "\n"


def parse_trace(text):
    degree = None
    generators = ()
    steps = []
    result = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: bad JSON ({exc})") from None
        kind = rec.pop("record", None)
        if kind == "group":
            degree = int(rec["degree"])
            generators = tuple(rec["generators"])
        elif kind == "step":
            steps.append(rec)
        elif kind == "result":
            result = rec
        else:
            raise ParseError(f"line {lineno}: unknown record type {kind!r}")
    if degree is None or result is None:
        raise ParseError("trace file must contain group and result records")
    return ReductionTrace(degree=degree, generators=generators,
                          steps=tuple(steps), result=result)


def save_trace(trace, path):
    with open(path, "w") as fh:
        fh.write(render_trace(trace))


def load_trace(path):
    with open(path) as fh:
        return parse_trace(fh.read())

"""Command-line front end: orbit listings, block and coherence reports,
n-orbit matrix rendering, catalog generation, the check suite, the
fixed-point-free reduction pipeline and the terminal-case audit.

All reports are deterministic; the machine-readable line-delimited JSON
form is the contract, the summary printed alongside is for humans.
Exit codes: 0 success, 1 check-suite failures, 2 usage or input error.
"""

import argparse
import json
import sys

from . import catalog as cat
from . import fks, propcheck
from .errors import KorbitsError
from .group import DEFAULT_ELEMENT_CAP, is_primitive, is_transitive, load_group
from .korbit import (DEFAULT_TUPLE_CAP, classify_coherence, co_analysis,
                     k_blocks, k_orbits, render_norbit)
from .subgroups import DEFAULT_SUBGROUP_CAP


def _parse_k_range(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("expected A..B")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("expected integers in A..B") from None
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError("need 1 <= A <= B")
    return range(lo, hi + 1)


def _positive(text):
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return v


_OPTIONS = {
    "--max-elements": {"type": _positive, "default": DEFAULT_ELEMENT_CAP},
    "--max-tuples": {"type": _positive, "default": DEFAULT_TUPLE_CAP},
    "--max-subgroup-order": {"type": _positive, "default": DEFAULT_SUBGROUP_CAP},
    "--convention": {"choices": ("classical", "paper"), "default": "paper"},
}

# the cap and convention flags of each subcommand: those its code reads
_FLAGS = {
    "orbits": ("--max-elements", "--max-tuples", "--convention"),
    "blocks": ("--max-elements", "--max-tuples", "--convention"),
    "render": ("--max-elements",),
    "catalog": ("--max-subgroup-order",),
    "check": ("--max-elements", "--max-tuples", "--max-subgroup-order"),
    "fks": ("--max-elements", "--max-subgroup-order"),
    "audit": ("--max-elements", "--max-subgroup-order"),
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="korbits",
        description="k-orbit analysis of finite permutation groups")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, text, group=True, ks=False):
        sp = sub.add_parser(name, help=text)
        if group:
            sp.add_argument("--group", required=True, help="group file path")
        if ks:
            sp.add_argument("--k", type=_positive, help="single arity")
            sp.add_argument("--k-range", type=_parse_k_range,
                            help="arity range A..B")
        for flag in _FLAGS[name]:
            sp.add_argument(flag, **_OPTIONS[flag])
        sp.add_argument("--out", help="write machine-readable report here")
        return sp

    add("orbits", "k-orbits with coherence verdicts", ks=True)
    add("blocks", "k-blocks and coordinate-set analysis", ks=True)
    sp = add("render", "bordered n-orbit matrix")
    sp.add_argument("--subgroup", action="append", default=[],
                    help="chain subgroup file (repeatable, innermost first)")
    sp = add("catalog", "generate a transitive catalog", group=False)
    sp.add_argument("--degree", type=_positive, required=True)
    sp = add("check", "run proposition checks over a catalog", group=False,
             ks=True)
    sp.add_argument("--catalog", help="catalog file path")
    sp.add_argument("--check", dest="checks",
                    help="comma-separated check ids")
    sp.add_argument("--all", action="store_true",
                    help="run every registered check")
    add("fks", "fixed-point-free reduction pipeline")
    add("audit", "terminal-case proof audit")
    return p


def _emit(args, text, summary=""):
    """Machine text to --out (or stdout), then the summary to stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    sys.stdout.write(summary)


def _jsonl(records):
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def _ks(args, degree):
    if args.k is not None and args.k_range is not None:
        raise KorbitsError("give --k or --k-range, not both")
    if args.k is not None:
        return [args.k]
    if args.k_range is not None:
        return [k for k in args.k_range if k <= degree]
    return list(range(1, degree + 1))


def _group_header(G, args):
    transitive = is_transitive(G)
    return {"record": "group", "degree": G.degree, "order": G.order,
            "generators": [g.cycle_string() for g in G.generators],
            "transitive": transitive,
            "primitive": transitive and is_primitive(G, args.convention),
            "convention": args.convention}


def cmd_orbits(args):
    G = load_group(args.group, max_elements=args.max_elements)
    records = [_group_header(G, args)]
    lines = []
    for k in _ks(args, G.degree):
        for X in k_orbits(G, k, max_tuples=args.max_tuples):
            v = classify_coherence(G, X)
            rep = (X.rows[0] + 1).tolist()
            records.append({"record": "orbit", "k": k,
                            "rep": rep, "size": len(X),
                            "kind": v.kind, "trivial": v.trivial})
            lines.append(f"k={k} rep={','.join(map(str, rep))} "
                         f"size={len(X)} {v.kind}"
                         + (" (trivial)" if v.trivial else ""))
    _emit(args, _jsonl(records), "\n".join(lines) + "\n")
    return 0


def cmd_blocks(args):
    G = load_group(args.group, max_elements=args.max_elements)
    records = [_group_header(G, args)]
    lines = []
    for k in _ks(args, G.degree):
        for X in k_orbits(G, k, max_tuples=args.max_tuples):
            fam, part, disjoint = co_analysis(X)
            _, blocks = k_blocks(X, max_elements=args.max_elements)
            rep = (X.rows[0] + 1).tolist()
            records.append({
                "record": "blocks", "k": k, "rep": rep,
                "size": len(X),
                "coordinate_sets": [sorted(m) for m in fam],
                "smash": [sorted(c) for c in part.classes],
                "family_disjoint": disjoint,
                "blocks": [{"points": sorted(b.points), "size": len(b.kset),
                            "aut_order": b.aut.order,
                            "aut_transitive": b.aut_transitive}
                           for b in blocks]})
            lines.append(f"k={k} rep={','.join(map(str, rep))} "
                         f"blocks={len(blocks)} smash={part.render()} "
                         f"{'partition' if disjoint else 'covering'}")
    _emit(args, _jsonl(records), "\n".join(lines) + "\n")
    return 0


def cmd_render(args):
    G = load_group(args.group, max_elements=args.max_elements)
    chain = [load_group(p, max_elements=args.max_elements)
             for p in args.subgroup] + [G]
    _emit(args, render_norbit(G, chain))
    return 0


def cmd_catalog(args):
    c = cat.transitive_catalog(args.degree,
                               max_subgroup_order=args.max_subgroup_order)
    _emit(args, cat.render_catalog(c),
          f"{len(c)} transitive groups of degree {c.degree} written to "
          f"{args.out}\n" if args.out else "")
    return 0


def cmd_check(args):
    if not args.catalog:
        raise KorbitsError("check needs --catalog")
    c = cat.load_catalog(args.catalog, max_elements=args.max_elements)
    if args.checks and args.all:
        raise KorbitsError("give --check or --all, not both")
    ids = None
    if args.checks:
        ids = [s.strip() for s in args.checks.split(",") if s.strip()]
    elif not args.all:
        raise KorbitsError("check needs --check ID[,ID...] or --all")
    caps = propcheck.SuiteCaps(max_subgroup_order=args.max_subgroup_order,
                               max_elements=args.max_elements,
                               max_tuples=args.max_tuples)
    report = propcheck.run_suite(c, k_range=_ks(args, c.degree), check_ids=ids,
                                 caps=caps)
    _emit(args, propcheck.render_report(report),
          propcheck.render_summary(report))
    return 1 if report.failures() else 0


def cmd_fks(args):
    G = load_group(args.group, max_elements=args.max_elements)
    trace = fks.fks_pipeline(G, max_subgroup_order=args.max_subgroup_order,
                             max_elements=args.max_elements)
    _emit(args, fks.render_trace(trace),
          f"fixed-point-free prime-power element: "
          f"{trace.result['element']} of order {trace.result['order']}\n")
    return 0


def cmd_audit(args):
    G = load_group(args.group, max_elements=args.max_elements)
    record = fks.proof_audit(G, max_subgroup_order=args.max_subgroup_order,
                             max_elements=args.max_elements)
    _emit(args, _jsonl([record.as_dict()]),
          f"closed: {record.closed}, normalizer proper: "
          f"{record.normalizer_proper}, k = {record.chosen_k}\n")
    return 0


_COMMANDS = {"orbits": cmd_orbits, "blocks": cmd_blocks,
             "render": cmd_render, "catalog": cmd_catalog,
             "check": cmd_check, "fks": cmd_fks, "audit": cmd_audit}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize others
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (KorbitsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

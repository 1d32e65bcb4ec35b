"""Catalogs of transitive groups of small degree, generated by
exhaustive subgroup enumeration of S_n, plus line-oriented persistence.

Generation is supported for degree <= 7 (|S_7| = 5040); larger degrees
enter via imported generator files and are flagged as such."""

import functools
import re
from dataclasses import dataclass

from .errors import DomainError, ParseError
from .group import (DEFAULT_ELEMENT_CAP, close_group, is_transitive,
                    symmetric_group)
from .perm import content_lines, parse_header, parse_permutation_at
from .subgroups import DEFAULT_SUBGROUP_CAP, subgroup_classes

MAX_GENERATED_DEGREE = 7

# a comma of the generator field that lies outside "(...)" and "[...]"
_TOP_LEVEL_COMMA = re.compile(r",(?![^()\[\]]*[)\]])")


@dataclass(frozen=True)
class CatalogEntry:
    entry_id: str
    degree: int
    generators: tuple
    order: int
    transitive: bool

    def group(self):
        return close_group(self.generators, degree=self.degree)


@dataclass(frozen=True)
class GroupCatalog:
    degree: int
    entries: tuple
    provenance: str   # "generated" or "imported"

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def _entry_from_group(entry_id, G):
    return CatalogEntry(
        entry_id=entry_id,
        degree=G.degree,
        generators=tuple(G.generators),
        order=G.order,
        transitive=is_transitive(G),
    )


@functools.lru_cache(maxsize=None)
def transitive_catalog(n, max_subgroup_order=DEFAULT_SUBGROUP_CAP):
    """All transitive subgroups of S_n up to conjugacy, degree <= 7."""
    if n < 1:
        raise DomainError("degree must be positive")
    if n > MAX_GENERATED_DEGREE:
        raise DomainError(
            f"catalog generation capped at degree {MAX_GENERATED_DEGREE}; "
            f"import a generator file for degree {n}")
    if n == 1:
        groups = [close_group([], degree=1)]
    else:
        classes = subgroup_classes(symmetric_group(n), max_order=max_subgroup_order)
        groups = [cls.rep for cls in classes if is_transitive(cls.rep)]
    entries = tuple(_entry_from_group(f"t{n}.{i + 1}", g)
                    for i, g in enumerate(groups))
    return GroupCatalog(degree=n, entries=entries, provenance="generated")


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def render_catalog(cat):
    lines = [f"# provenance: {cat.provenance}", f"degree {cat.degree}"]
    for e in cat.entries:
        gens = ", ".join(g.cycle_string() for g in e.generators)
        lines.append(f"{e.entry_id} | {e.order} | transitive:{int(e.transitive)} | {gens}")
    return "\n".join(lines) + "\n"


def parse_catalog(text, max_elements=DEFAULT_ELEMENT_CAP):
    degree = None
    provenance = "imported"
    for raw in text.splitlines():   # the last "# provenance: ..." line wins
        head, _, value = raw.strip().partition(":")
        if head[:1] == "#" and head[1:].lstrip() == "provenance":
            provenance = value.strip()
    entries = []
    ids = set()
    for lineno, line, raw in content_lines(text):
        if degree is None:
            degree = parse_header(line, raw, lineno, "degree n")
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 4:
            raise ParseError(f"line {lineno}: expected 4 '|'-separated fields")
        entry_id, order_s, trans_s, gens_s = fields
        if entry_id in ids:
            raise ParseError(f"line {lineno}: duplicate id {entry_id!r}")
        ids.add(entry_id)
        try:
            order = int(order_s)
        except ValueError:
            raise ParseError(f"line {lineno}: bad order {order_s!r}") from None
        if not trans_s.startswith("transitive:") or trans_s[11:] not in ("0", "1"):
            raise ParseError(f"line {lineno}: bad transitive flag {trans_s!r}")
        gens = tuple(parse_permutation_at(s, degree, lineno)
                     for s in _TOP_LEVEL_COMMA.split(gens_s) if s.strip())
        G = close_group(gens, degree=degree, max_elements=max_elements)
        if G.order != order:
            raise ParseError(
                f"line {lineno}: stated order {order_s} but closure has {G.order}")
        if is_transitive(G) != (trans_s[11:] == "1"):
            raise ParseError(f"line {lineno}: transitive flag does not match group")
        entries.append(_entry_from_group(entry_id, G))
    if degree is None:
        raise ParseError("missing 'degree n' header")
    return GroupCatalog(degree=degree, entries=tuple(entries), provenance=provenance)


def save_catalog(cat, path):
    with open(path, "w") as fh:
        fh.write(render_catalog(cat))


def load_catalog(path, max_elements=DEFAULT_ELEMENT_CAP):
    with open(path) as fh:
        return parse_catalog(fh.read(), max_elements=max_elements)

"""Transitive-group catalogs: counts, flags, persistence."""

import hashlib
import re

import pytest

from korbits.catalog import (load_catalog, parse_catalog, render_catalog,
                             save_catalog, transitive_catalog)
from korbits.errors import DomainError, ParseError
from korbits.group import close_group, is_transitive, symmetric_group
from korbits.perm import parse_permutation
from korbits.subgroups import subgroup_classes

# number of transitive groups of degree n up to conjugacy
EXPECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 5, 6: 16, 7: 7}

# SHA-256 of render_catalog(transitive_catalog(n)), recorded before
# subgroups were identified by their key bytes instead of frozensets
RENDER_SHA256 = {
    1: "cf45b0dc6b8d365b327acdf04a605a31b6164fe7504793899abfb2ecb02d76c1",
    2: "8e73fd8f09cd82531bf875e61a6378b44d8dfcc027009fce860f44eafb8edcec",
    3: "13f5db32da98a96177cc9ba12c748793328a7c9addf096fbd8f49e98e9988e8c",
    4: "042bbb12577ea46e2c7de8861c67212ac83477ceaecbb478d613cbcd9c5dcfdc",
    5: "4d73d8b4012db8c845d5159383b6f107153f9db4436347fc3d2946de9988db3c",
    6: "e0c082d7adbfe18a05291a563c996a5ed27fa80a724b0041079ac3a5b2e766dc",
    7: "bae04e5fb2a54bd8e90b9189a5db3558cb9d90753f5e25f28a4893c88e4323af",
}


class TestGeneration:
    @pytest.mark.parametrize("n,count", sorted(EXPECTED_COUNTS.items()))
    def test_counts(self, n, count):
        assert len(transitive_catalog(n)) == count

    def test_entries_are_transitive_with_correct_flags(self):
        for e in transitive_catalog(6):
            G = e.group()
            assert e.transitive and is_transitive(G)
            assert e.order == G.order

    @pytest.mark.parametrize("n", sorted(RENDER_SHA256))
    def test_render_digest(self, n):
        text = render_catalog(transitive_catalog(n))
        assert hashlib.sha256(text.encode()).hexdigest() == RENDER_SHA256[n]

    def test_ids_sequential(self):
        ids = [e.entry_id for e in transitive_catalog(5)]
        assert ids == [f"t5.{i}" for i in range(1, 6)]

    def test_degree_cap(self):
        with pytest.raises(DomainError):
            transitive_catalog(8)
        with pytest.raises(DomainError):
            transitive_catalog(0)

    def test_largest_entry_is_symmetric(self):
        cat = transitive_catalog(5)
        assert max(e.order for e in cat) == 120

    def test_enumerate_subgroups_complete(self):
        reps = [cls.rep for cls in subgroup_classes(symmetric_group(4))]
        assert len(reps) == 11


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        cat = transitive_catalog(5)
        path = tmp_path / "deg5.cat"
        save_catalog(cat, path)
        loaded = load_catalog(path)
        assert loaded.degree == 5 and len(loaded) == len(cat)
        for a, b in zip(cat, loaded):
            assert a.entry_id == b.entry_id and a.order == b.order
            assert a.group() == b.group()

    def test_render_deterministic(self):
        cat = transitive_catalog(4)
        assert render_catalog(cat) == render_catalog(transitive_catalog(4))

    def test_provenance_preserved(self):
        text = render_catalog(transitive_catalog(3))
        assert parse_catalog(text).provenance == "generated"
        assert parse_catalog("degree 2\na | 2 | transitive:1 | (1 2)\n"
                             ).provenance == "imported"

    @pytest.mark.parametrize("bad", [
        "",                                              # no header
        "t2.1 | 2 | transitive:1 | (1 2)\n",             # entry before header
        "degree 2\nt2.1 | 2 | transitive:1\n",           # missing field
        "degree 2\nt2.1 | 3 | transitive:1 | (1 2)\n",   # wrong order
        "degree 2\nt2.1 | 2 | transitive:0 | (1 2)\n",   # wrong flag
        "degree 2\nt2.1 | 2 | trans:1 | (1 2)\n",        # bad flag field
        "degree 2\nt2.1 | 2 | transitive:1 | (1 2)\n"
        "t2.1 | 2 | transitive:1 | (1 2)\n",             # duplicate id
        "degree 2\nt2.1 | 2 | transitive:1 | (1 3)\n",   # point out of range
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_catalog(bad)

    @pytest.mark.parametrize("bad,message", [
        ("degree x\n", "line 1: bad degree 'x'"),
        ("# provenance: imported\ndegree 0\n", "line 2: degree must be positive"),
        ("degree -2\n", "line 1: degree must be positive"),
        ("degree 2\nt2.1 | two | transitive:1 | (1 2)\n", "line 2: bad order 'two'"),
        ("degree 2\nt2.1 | 2.0 | transitive:1 | (1 2)\n", "line 2: bad order '2.0'"),
    ])
    def test_bad_numbers_name_their_line(self, bad, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_catalog(bad)

    @pytest.mark.parametrize("text", [
        "# provenance: generated\ndegree 3 # c\nt3.1 | 2 | transitive:0 | (1 2)\n",
        "# provenance: generated\ndegree 3\nt3.1 | 2 | transitive:0 | (1 2) # swap\n",
    ])
    def test_trailing_comment_is_cut(self, text):
        cat = parse_catalog(text)
        assert (cat.degree, cat.provenance) == (3, "generated")
        assert [(e.entry_id, e.order) for e in cat] == [("t3.1", 2)]

    @pytest.mark.parametrize("bad,message", [
        ("degree 3\nt3.1 | 3 | transitive:1 | (1 2 4)\n",
         "line 2: point 4 out of range 1..3"),
        ("# provenance: x\ndegree 3\n\nt3.1 | 3 | transitive:1 | (1 2 3), (1 2\n",
         "line 4: malformed cycle notation: '(1 2'"),
    ])
    def test_bad_generator_names_its_line(self, bad, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_catalog(bad)

    @pytest.mark.parametrize("gens,want", [
        ("[2,1]", ["(1 2)"]),
        ("[2, 3, 1], (1 2)", ["(1 2 3)", "(1 2)"]),
        ("(1, 2, 3)", ["(1 2 3)"]),
        ("(1,2)(3, 4), [1,2,4,3]", ["(1 2)(3 4)", "(3 4)"]),
    ])
    def test_commas_inside_a_generator_do_not_split_it(self, gens, want):
        degree = max(map(int, re.findall(r"\d+", gens)))
        G = close_group([parse_permutation(g, degree) for g in want])
        text = (f"degree {degree}\n"
                f"t | {G.order} | transitive:{int(is_transitive(G))} | {gens}\n")
        (e,) = parse_catalog(text).entries
        assert [g.cycle_string() for g in e.generators] == want

    @pytest.mark.parametrize("n", sorted(RENDER_SHA256))
    def test_render_roundtrips(self, n):
        text = render_catalog(transitive_catalog(n))
        assert render_catalog(parse_catalog(text)) == text

    def test_entry_group_keeps_the_catalog_degree(self):
        cat = parse_catalog("degree 3\nt3.x | 1 | transitive:0 | \n")
        (e,) = cat.entries
        assert e.degree == 3 and e.group().degree == 3
        assert e.group() == close_group([], degree=3)

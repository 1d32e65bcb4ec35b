"""The command-line front end: subcommands, exit codes, deterministic
machine-readable output."""

import hashlib
import itertools
import json

import pytest

from korbits.catalog import save_catalog, transitive_catalog
from korbits.cli import main
from korbits.group import (alternating_group, close_group, klein_four_group,
                           save_group, symmetric_group)
from korbits.perm import Permutation, parse_permutation


@pytest.fixture
def klein_file(tmp_path):
    path = tmp_path / "klein.grp"
    save_group(klein_four_group(), path)
    return str(path)


@pytest.fixture
def a5_on_pairs_file(tmp_path):
    """A5 acting on the 10 pairs of {1..5}: primitive, order 60, no
    proper transitive subgroup."""
    pairs = list(itertools.combinations(range(1, 6), 2))

    def on_pairs(cycle):
        p = parse_permutation(cycle, 5)
        return Permutation(pairs.index(tuple(sorted((p(a), p(b))))) + 1
                           for a, b in pairs)

    path = tmp_path / "a5_10.grp"
    save_group(close_group([on_pairs("(1 2 3 4 5)"), on_pairs("(1 2 3)")]),
               path)
    return str(path)


@pytest.fixture
def catalog_file(tmp_path):
    path = tmp_path / "deg4.cat"
    save_catalog(transitive_catalog(4), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOrbits:
    def test_klein_k2(self, capsys, klein_file):
        code, out, err = run(capsys, "orbits", "--group", klein_file,
                             "--k", "2")
        assert code == 0
        records = [json.loads(l) for l in out.splitlines()
                   if l.startswith("{")]
        header = records[0]
        assert header["record"] == "group" and header["order"] == 4
        orbits = [r for r in records if r["record"] == "orbit"]
        assert len(orbits) == 3
        assert all(r["kind"] == "incoherent" for r in orbits)

    def test_out_file_gets_machine_form(self, capsys, klein_file, tmp_path):
        out_path = tmp_path / "orbits.jsonl"
        code, out, err = run(capsys, "orbits", "--group", klein_file,
                             "--k", "1", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert all(json.loads(l) for l in lines)
        assert "{" not in out       # stdout carries only the summary

    def test_k_and_k_range_conflict(self, capsys, klein_file):
        code, out, err = run(capsys, "orbits", "--group", klein_file,
                             "--k", "1", "--k-range", "1..2")
        assert code == 2 and "error:" in err

    def test_missing_group_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "orbits", "--group",
                             str(tmp_path / "nope.grp"))
        assert code == 2 and "error:" in err

    # SHA-256 of the S8 report at k 1..4, recorded with the classification
    # that read the cyclic classes off S8's subgroup lattice, run with
    # --max-subgroup-order 50000
    S8_REPORT = "dee040e8188ef09603f4b9cae4b0fa333eed7bb4852df3b9516a9882d9bbc839"

    @pytest.mark.parametrize("make", [symmetric_group, alternating_group],
                             ids=["S8", "A8"])
    def test_degree_8_classifies_at_default_caps(self, capsys, tmp_path, make):
        """Coherence builds no subgroup lattice, so |G| past the subgroup
        cap of `catalog`, `check`, `fks` and `audit` needs no flag."""
        group, out_path = tmp_path / "g.grp", tmp_path / "orbits.jsonl"
        save_group(make(8), group)
        code, out, err = run(capsys, "orbits", "--group", str(group),
                             "--k-range", "1..4", "--out", str(out_path))
        assert (code, err) == (0, "")
        kinds = [line.split()[-1] for line in out.splitlines()]
        assert kinds == ["(trivial)", "coherent", "coherent", "coherent"]
        if make is symmetric_group:
            digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
            assert digest == self.S8_REPORT


class TestBlocks:
    def test_reports_smash(self, capsys, klein_file):
        code, out, err = run(capsys, "blocks", "--group", klein_file,
                             "--k", "2")
        assert code == 0
        records = [json.loads(l) for l in out.splitlines()
                   if l.startswith("{")]
        blocks = [r for r in records if r["record"] == "blocks"]
        assert blocks and all(r["family_disjoint"] for r in blocks)


class TestRender:
    def test_klein_chain(self, capsys, klein_file, tmp_path):
        sub = tmp_path / "sub.grp"
        save_group(close_group([parse_permutation("(1 2)(3 4)", 4)]), sub)
        code, out, err = run(capsys, "render", "--group", klein_file,
                             "--subgroup", str(sub))
        assert code == 0
        assert out == "12 34\n21 43\n-----\n34 12\n43 21\n"

    def test_bad_chain(self, capsys, klein_file, tmp_path):
        sub = tmp_path / "sub.grp"
        save_group(symmetric_group(4), sub)
        code, out, err = run(capsys, "render", "--group", klein_file,
                             "--subgroup", str(sub))
        assert code == 2 and "error:" in err


class TestCatalog:
    def test_degree_4(self, capsys):
        code, out, err = run(capsys, "catalog", "--degree", "4")
        assert code == 0
        assert out.splitlines()[1] == "degree 4"
        assert sum(1 for l in out.splitlines() if "|" in l) == 5

    def test_degree_too_big(self, capsys):
        code, out, err = run(capsys, "catalog", "--degree", "9")
        assert code == 2 and "error:" in err


class TestCheck:
    def test_passing_check_exits_zero(self, capsys, catalog_file):
        code, out, err = run(capsys, "check", "--catalog", catalog_file,
                             "--check", "P_capcup")
        assert code == 0
        assert "P_capcup" in out

    def test_failing_check_exits_one(self, capsys, catalog_file):
        code, out, err = run(capsys, "check", "--catalog", catalog_file,
                             "--check", "L_grAB")
        assert code == 1

    def test_all_and_check_conflict(self, capsys, catalog_file):
        code, out, err = run(capsys, "check", "--catalog", catalog_file,
                             "--all", "--check", "P_capcup")
        assert code == 2

    def test_needs_selection(self, capsys, catalog_file):
        code, out, err = run(capsys, "check", "--catalog", catalog_file)
        assert code == 2

    def test_needs_catalog(self, capsys):
        code, out, err = run(capsys, "check", "--all")
        assert code == 2

    @pytest.mark.parametrize("text,message", [
        ("degree x\n", "line 1: bad degree 'x'"),
        ("degree 0\n", "line 1: degree must be positive"),
        ("degree 2\nt2.1 | 2x | transitive:1 | (1 2)\n", "line 2: bad order '2x'"),
    ])
    def test_bad_catalog_numbers_exit_two(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.cat"
        path.write_text(text)
        code, out, err = run(capsys, "check", "--catalog", str(path), "--all")
        assert code == 2 and "error:" in err and message in err
        assert "Traceback" not in err

    def test_unknown_check_id(self, capsys, catalog_file):
        code, out, err = run(capsys, "check", "--catalog", catalog_file,
                             "--check", "P_bogus")
        assert code == 2

    def test_report_byte_identical_across_runs(self, capsys, catalog_file,
                                               tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(capsys, "check", "--catalog", catalog_file, "--check",
            "T_coherent", "--out", str(a))
        run(capsys, "check", "--catalog", catalog_file, "--check",
            "T_coherent", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestFks:
    def test_klein_trace(self, capsys, klein_file):
        code, out, err = run(capsys, "fks", "--group", klein_file)
        assert code == 0
        records = [json.loads(l) for l in out.splitlines()
                   if l.startswith("{")]
        result = [r for r in records if r["record"] == "result"][0]
        assert result["order"] in (2, 4)
        assert "fixed-point-free" in out

    def test_intransitive_rejected(self, capsys, tmp_path):
        path = tmp_path / "g.grp"
        save_group(close_group([parse_permutation("(1 2)", 3)]), path)
        code, out, err = run(capsys, "fks", "--group", str(path))
        assert code == 2 and "error:" in err

    def test_degree_one_rejected(self, capsys, tmp_path):
        path = tmp_path / "g.grp"
        path.write_text("degree 1\n")
        code, out, err = run(capsys, "fks", "--group", str(path))
        assert code == 2 and out == ""
        assert "error:" in err and "degree at least 2" in err
        assert "contradicts" not in err

    def test_max_elements_reaches_audit(self, capsys, a5_on_pairs_file):
        """The n! normalizer search of the audit counts against
        --max-elements."""
        code, out, err = run(capsys, "fks", "--group", a5_on_pairs_file,
                             "--max-elements", "3628799")
        assert code == 0
        records = [json.loads(l) for l in out.splitlines()
                   if l.startswith("{")]
        [step] = [r for r in records if r["record"] == "step"]
        assert step["kind"] == "primitive-terminal"
        assert "need 3628800, cap is 3628799" in step["audit_error"]


class TestAudit:
    def test_hypothesis_violation_named(self, capsys, klein_file):
        code, out, err = run(capsys, "audit", "--group", klein_file)
        assert code == 2
        assert "error:" in err and "hypothesis violated" in err

    def test_max_elements_reaches_normalizer(self, capsys, a5_on_pairs_file):
        """The n! normalizer search counts against --max-elements."""
        code, out, err = run(capsys, "audit", "--group", a5_on_pairs_file,
                             "--max-elements", "3628799")
        assert code == 2
        assert ("max-elements cap exceeded: need 3628800, cap is 3628799 "
                "(raise with --max-elements)") in err


class TestCheckCaps:
    """`korbits check` on the degree-3 catalog, whose S3 has 6 elements
    and whose arity 2 has 6 tuples."""

    @pytest.fixture
    def deg3_file(self, tmp_path):
        path = tmp_path / "deg3.cat"
        save_catalog(transitive_catalog(3), path)
        return str(path)

    def test_max_elements_reaches_the_catalog(self, capsys, deg3_file):
        code, out, err = run(capsys, "check", "--catalog", deg3_file, "--all",
                             "--max-elements", "5")
        assert code == 2
        assert "max-elements cap exceeded: need > 5, cap is 5 " \
               "(raise with --max-elements)" in err

    def test_max_tuples_reaches_the_checks(self, capsys, deg3_file):
        code, out, err = run(capsys, "check", "--catalog", deg3_file, "--all",
                             "--max-tuples", "5")
        records = [json.loads(l) for l in out.splitlines()
                   if l.startswith("{")]
        skipped = [r["reason"] for r in records if r["verdict"] == "skipped"]
        assert skipped
        assert all(r == "max-tuples cap exceeded: need 6, cap is 5 "
                        "(raise with --max-tuples)" for r in skipped)


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_bad_k_range(self, capsys, klein_file):
        assert main(["orbits", "--group", klein_file,
                     "--k-range", "3..1"]) == 2

"""Every ResourceLimitError raise site: the cap it names, and the flag
that raises it.  A user cap names its flag, and one more unit of that
cap lets the computation through; a hard limit names no flag.  Each
subcommand takes exactly the cap flags that its code reads."""

import argparse

import pytest

from korbits.cli import build_parser, main

from korbits.errors import ResourceLimitError
from korbits.group import (close_group, cyclic_group, normalizer_in_sym,
                           symmetric_group)
from korbits.korbit import aut_of_kset, k_orbits, orbit_of_tuple
from korbits.subgroups import subgroup_classes

# test id: (cap name, flag, call taking the cap value or None, cap that
# fails); the two Sym(m) filters count m! against --max-elements
SITES = {
    "max-elements": ("max-elements", "--max-elements",
                     lambda cap: symmetric_group(5, max_elements=cap), 119),
    "max-tuples": ("max-tuples", "--max-tuples",
                   lambda cap: k_orbits(cyclic_group(4), 2, max_tuples=cap), 11),
    "max-subgroup-order": (
        "max-subgroup-order", "--max-subgroup-order",
        lambda cap: subgroup_classes(symmetric_group(4), max_order=cap), 23),
    "max-elements-normalizer_in_sym": (
        "max-elements", "--max-elements",
        lambda cap: normalizer_in_sym(cyclic_group(5), max_elements=cap), 119),
    "max-elements-aut_of_kset": (
        "max-elements", "--max-elements",
        lambda cap: aut_of_kset(orbit_of_tuple(cyclic_group(3), (1, 2)),
                                max_elements=cap), 5),
    "tuple-key-space": (
        "tuple-key-space", None,
        lambda cap: k_orbits(cyclic_group(9), 8, max_tuples=10 ** 8), None),
    "key-degree": ("key-degree", None,
                   lambda cap: close_group([], degree=13), None),
}


@pytest.mark.parametrize("name, flag, call, cap", SITES.values(), ids=SITES)
def test_raise_site(name, flag, call, cap):
    with pytest.raises(ResourceLimitError) as info:
        call(cap)
    exc = info.value
    assert (exc.cap_name, exc.flag) == (name, flag)
    assert str(exc).startswith(f"{name} cap exceeded")
    if flag is None:
        assert "raise with" not in str(exc)
    else:
        assert exc.cap_value == cap
        assert str(exc).endswith(f"(raise with {flag})")
        call(cap + 1)


# the cap and convention flags of each subcommand
ALL_FLAGS = {"--max-elements", "--max-tuples", "--max-subgroup-order",
             "--convention"}
FLAGS = {
    "orbits": {"--max-elements", "--max-tuples", "--convention"},
    "blocks": {"--max-elements", "--max-tuples", "--convention"},
    "render": {"--max-elements"},
    "catalog": {"--max-subgroup-order"},
    "check": {"--max-elements", "--max-tuples", "--max-subgroup-order"},
    "fks": {"--max-elements", "--max-subgroup-order"},
    "audit": {"--max-elements", "--max-subgroup-order"},
}
# flags no subcommand takes any more: --max-degree, folded into --max-elements
GONE = {"--max-degree"}
# the flags each subcommand needs to get past argparse
REQUIRED = {"catalog": ["--degree", "3"], "check": []}
DELETED = [(command, flag) for command in FLAGS
           for flag in sorted((ALL_FLAGS | GONE) - FLAGS[command])]


def _subcommands():
    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_flag_table_covers_every_subcommand():
    assert set(_subcommands()) == set(FLAGS)
    assert sum(len(flags) for flags in FLAGS.values()) == 15
    assert len(DELETED) == 20


@pytest.mark.parametrize("command", list(FLAGS))
def test_registered_flags(command):
    sp = _subcommands()[command]
    registered = {s for a in sp._actions for s in a.option_strings
                  if s.startswith("--max-") or s == "--convention"}
    assert registered == FLAGS[command]


@pytest.mark.parametrize("command, flag", DELETED,
                         ids=[f"{c}{f}" for c, f in DELETED])
def test_deleted_flag_exits_2(capsys, command, flag):
    value = "paper" if flag == "--convention" else "5"
    argv = [command, *REQUIRED.get(command, ["--group", "g.grp"]), flag, value]
    assert main(argv) == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

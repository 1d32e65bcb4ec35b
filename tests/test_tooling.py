"""Source hygiene of the package, checked with the standard library's
`ast`: no module of src/korbits/ imports a name it never reads, every
module-level private function is read somewhere in the package, every
public function of `_backend` is read by another module, every
`ResourceLimitError` names a cap that `test_caps` raises and a flag
that the CLI registers, only the report, file and trace boundary reads
`.generators` and only `PermGroup.generators` turns generator rows into
`Permutation`s, only the checks that read their groups from a context
read `normalizer_in`, only the walk over Aut(X)'s subgroup classes and
`P_LkRk` label rows in the checks, the k-orbit engine reads nothing of
the subgroup lattice, no `except` clause names `DomainError`, every
parameter of every function is read, and the `functools.lru_cache`
functions are the pinned ones."""

import ast
import pathlib

import pytest
from test_caps import SITES

from korbits.cli import _OPTIONS

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "korbits"
# __init__.py imports names to re-export them
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module-level imports of `source` that no
    expression of it reads."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(set(bound) - read)


def _functions(tree):
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def _read(trees):
    """The names that expressions of the `trees` read, by name or as an
    attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def unread_private_functions(sources):
    """Module-level private functions of the `sources` (module texts) that
    no expression of any of them reads, by name or as an attribute."""
    trees = [ast.parse(source) for source in sources]
    defined = {name for tree in trees for name in _functions(tree)
               if name.startswith("_")}
    return sorted(defined - _read(trees))


def unread_public_functions(source, others):
    """Module-level public functions of the module text `source` that no
    expression of the `others` (the other module texts) reads."""
    defined = {name for name in _functions(ast.parse(source))
               if not name.startswith("_")}
    return sorted(defined - _read([ast.parse(other) for other in others]))


def test_checker_flags_an_unread_import():
    source = ("import itertools\nimport numpy as np\nimport os.path\n"
              "from . import _backend as kb\n"
              "def f():\n    return np.zeros(os.path.sep.count('/'))\n")
    assert unused_imports(source) == ["itertools", "kb"]


def test_modules_found():
    assert {"_backend.py", "korbit.py", "group.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_checker_flags_an_unread_private_function():
    sources = ["from . import b\ndef _left(): pass\ndef _called(): pass\n"
               "def f():\n    return _called() + b._by_attribute()\n",
               "def _by_attribute(): pass\ndef _cached(): pass\n"
               "cache = {'x': _cached}\n"]
    assert unread_private_functions(sources) == ["_left"]
    package = [(SRC / m).read_text() for m in MODULES]
    leftover = "\n\ndef _not_terminal(G, caps):\n    return None\n"
    assert unread_private_functions(package[:-1] + [package[-1] + leftover]) \
        == ["_not_terminal"]


def test_every_private_function_is_read():
    sources = [(SRC / m).read_text() for m in sorted(p.name for p in SRC.glob("*.py"))]
    assert unread_private_functions(sources) == []


def test_checker_flags_an_unread_public_function():
    source = "def used(): pass\ndef only_here(): pass\ndef _private(): pass\n"
    others = ["from . import _backend\nx = _backend.used()\n"]
    assert unread_public_functions(source, others) == ["only_here"]
    assert unread_public_functions(source + "y = only_here()\n", others) \
        == ["only_here"]


def test_every_backend_function_is_read_elsewhere():
    others = [(SRC / m).read_text()
              for m in sorted(p.name for p in SRC.glob("*.py"))
              if m != "_backend.py"]
    assert unread_public_functions((SRC / "_backend.py").read_text(),
                                   others) == []


def raise_sites(source):
    """(cap name, flag or None) of every `ResourceLimitError(...)` call
    of the module text `source`, read from its literal arguments."""
    return [(node.args[0].value,
             next((k.value.value for k in node.keywords if k.arg == "flag"), None))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "ResourceLimitError"]


def test_checker_reads_raise_sites():
    source = ('def f(cap):\n    raise ResourceLimitError("a", cap, 2, flag="--a")\n'
              'def g():\n    raise ResourceLimitError("b", 1, 2)\n')
    assert raise_sites(source) == [("a", "--a"), ("b", None)]


def test_every_cap_is_tested_and_every_flag_registered():
    """The cap names raised in src/korbits/ are the names that
    `test_caps.SITES` raises, and each flag they name is a CLI option."""
    sites = [s for m in MODULES for s in raise_sites((SRC / m).read_text())]
    assert {name for name, _ in sites} == {site[0] for site in SITES.values()}
    assert {flag for _, flag in sites} - {None} <= set(_OPTIONS)


def domain_error_handlers(source):
    """Line numbers of the `except` clauses of the module text `source`
    that name `DomainError`, alone or in a tuple."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and "DomainError" in _read([node.type])]


def test_checker_flags_a_domain_error_handler():
    source = ("try:\n    f()\nexcept DomainError:\n    pass\n"
              "try:\n    f()\nexcept (ValueError, DomainError) as exc:\n"
              "    pass\n"
              "try:\n    f()\nexcept (ValueError, KorbitsError):\n    pass\n"
              "try:\n    f()\nexcept errors.DomainError:\n    pass\n"
              "try:\n    f()\nexcept:\n    raise\n")
    assert domain_error_handlers(source) == [3, 7, 15]


def test_no_domain_error_is_caught():
    """A domain error is a refusal or a theorem violation, never a
    recorded outcome: no module catches it. The CLI's `KorbitsError`
    handler is the report boundary."""
    assert {m: domain_error_handlers((SRC / m).read_text())
            for m in MODULES} == {m: [] for m in MODULES}


def _qualified_functions(source):
    """(name, node) of every module-level function and method of the
    module text `source`, a method named Class.method; nested functions
    belong to the function that holds them."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef))


def generators_readers(source):
    """Functions of the module text `source` that read an attribute
    `.generators`."""
    return sorted(name for name, fn in _qualified_functions(source)
                  if any(isinstance(n, ast.Attribute) and n.attr == "generators"
                         for n in ast.walk(fn)))


def generator_row_converters(source):
    """Functions of the module text `source` that read `row_to_perm` and
    also a group's generator rows, `generator_rows` or `_gen_rows`."""
    return sorted(name for name, fn in _qualified_functions(source)
                  if "row_to_perm" in _read([fn])
                  and {"generator_rows", "_gen_rows"} & _read([fn]))


# the report, file and trace boundary: the only functions that read
# `.generators`, of a PermGroup, a CatalogEntry or a ReductionTrace
BOUNDARY = {
    ("group.py", "PermGroup.__repr__"), ("group.py", "render_group"),
    ("propcheck.py", "_ser_group"), ("cli.py", "_group_header"),
    ("fks.py", "fks_pipeline"), ("fks.py", "trace_to_dict"),
    ("fks.py", "replay_trace"), ("fks.py", "render_trace"),
    ("catalog.py", "_entry_from_group"), ("catalog.py", "CatalogEntry.group"),
    ("catalog.py", "render_catalog"),
}


def test_checker_flags_a_generators_read():
    source = ("class G:\n    def gens(self):\n        return self.generators\n"
              "    def rows(self):\n        return generator_rows(self)\n"
              "def outer(H):\n    def inner():\n        return H.generators\n"
              "    return inner\n"
              "def perms(H):\n    return [row_to_perm(r) for r in H._gen_rows]\n"
              "def elements(H):\n    return [row_to_perm(r) for r in H.images]\n")
    assert generators_readers(source) == ["G.gens", "outer"]
    assert generator_row_converters(source) == ["perms"]
    package = (SRC / "propcheck.py").read_text()
    rows = "    rows = np.concatenate([generator_rows(A), generator_rows(B)])\n"
    perms = "    rows = [perm_to_row(g) for g in A.generators + B.generators]\n"
    assert rows in package
    assert set(generators_readers(package.replace(rows, perms))) \
        - set(generators_readers(package)) == {"_join_groups"}


def test_generators_read_only_at_the_boundary():
    readers = {(m, name) for m in MODULES
               for name in generators_readers((SRC / m).read_text())}
    converters = {(m, name) for m in MODULES
                  for name in generator_row_converters((SRC / m).read_text())}
    assert readers == BOUNDARY
    assert converters == {("group.py", "PermGroup.generators")}


def readers_of(source, name):
    """Functions of the module text `source` that read `name`, by name
    or as an attribute."""
    return sorted(f for f, fn in _qualified_functions(source)
                  if name in _read([fn]))


def test_checker_flags_a_normalizer_filter():
    source = ("from .group import normalizer_in\n"
              "def by_name(H, A):\n    return normalizer_in(H, A)\n"
              "def by_attribute(H, A):\n    return group.normalizer_in(H, A)\n"
              "def by_size(H, cls):\n    return len(cls.conjugates)\n")
    assert readers_of(source, "normalizer_in") == ["by_attribute", "by_name"]
    package = (SRC / "propcheck.py").read_text()
    size = "cls.order * len(cls.conjugates) == aut.order"
    assert size in package
    put_back = package.replace(size, "normalizer_in(aut, cls.rep) == cls.rep")
    assert set(readers_of(put_back, "normalizer_in")) \
        - set(readers_of(package, "normalizer_in")) == {"_eval_P_triv_norm"}


def test_normalizer_in_read_only_from_a_context():
    """Self-normalizing class representatives are read from class sizes;
    `normalizer_in` serves only the checks whose groups come from a
    context, which has no class record."""
    assert readers_of((SRC / "propcheck.py").read_text(), "normalizer_in") \
        == ["_eval_P_index", "_index_hypothesis"]


def test_checker_flags_a_class_walk_put_back():
    package = (SRC / "propcheck.py").read_text()
    walk = ("    if not _aut_suborbits(aut, X, caps.max_subgroup_order)[1]:\n"
            "        return _na(")
    assert walk in package
    loop = ("    for cls in subgroup_classes(aut, max_order=caps.max_subgroup_order):\n"
            "        sizes = np.bincount(_backend.orbit_labels(cls.rep.images, X.rows))\n"
            "        if sizes.min() != sizes.max():\n"
            "            return _na(")
    put_back = package.replace(walk, loop)
    assert set(readers_of(put_back, "orbit_labels")) \
        - set(readers_of(package, "orbit_labels")) == {"_eval_P_equal_classes"}


def test_orbit_labels_read_only_by_the_walk_and_P_LkRk():
    """The checks label a k-orbit's rows under Aut(X)'s class reps in one
    cached walk, `_aut_suborbits`; `P_LkRk` labels it under a suborbit's
    stabilizer in G."""
    assert readers_of((SRC / "propcheck.py").read_text(), "orbit_labels") \
        == ["_aut_suborbits", "_eval_P_LkRk"]


def subgroups_imports(source):
    """The names that the module text `source` imports from `.subgroups`,
    sorted; `subgroups` itself when it imports the module."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [alias.name for alias in node.names]
            out += (names if node.module == "subgroups"
                    else ["subgroups"] if "subgroups" in names else [])
    return sorted(out)


def test_checker_flags_a_lattice_import_put_back():
    assert subgroups_imports("from . import _backend, subgroups\n"
                             "from .subgroups import a, b\n"
                             "from .group import subgroup_classes\n") \
        == ["a", "b", "subgroups"]
    package = (SRC / "korbit.py").read_text()
    line = "from .subgroups import _element_orders\n"
    assert line in package
    put_back = package.replace(
        line, "from .subgroups import _element_orders, subgroup_classes\n")
    assert subgroups_imports(put_back) == ["_element_orders", "subgroup_classes"]


def test_korbit_reads_no_lattice():
    """Coherence reads cyclic classes from element powers and automorphy
    from setwise stabilizers: the k-orbit engine takes only element
    orders from `subgroups`."""
    assert subgroups_imports((SRC / "korbit.py").read_text()) \
        == ["_element_orders"]


def _signature(fn):
    """The parameter names of the function or lambda `fn`, starred as
    written."""
    a = fn.args
    return ([p.arg for p in a.posonlyargs + a.args]
            + [f"*{p.arg}" for p in [a.vararg] if p]
            + [p.arg for p in a.kwonlyargs]
            + [f"**{p.arg}" for p in [a.kwarg] if p])


# signatures whose parameters may go unread: the context generators of
# the check registry, which all take (G, base, ks, caps), and the
# immutable classes' `__setattr__`, which refuses every assignment
UNREAD_ALLOWED = {"(G, base, ks, caps)", "__setattr__(self, *a)"}


def unread_parameters(source):
    """(function, parameter), sorted, for every parameter of every
    function and lambda of the module text `source`, nested ones
    included, that its body never reads by name; the signatures of
    UNREAD_ALLOWED, with or without the function's name, are exempt."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        name = getattr(fn, "name", "<lambda>")
        params = _signature(fn)
        sig = f"({', '.join(params)})"
        if {sig, name + sig} & UNREAD_ALLOWED:
            continue
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out += [(name, p) for p in params if p.lstrip("*") not in read]
    return sorted(out)


def test_checker_flags_an_unread_parameter():
    source = ("def f(a, b=1, *c, d, **e):\n    return a + d\n"
              "def g(x):\n    def inner(y):\n        return x\n"
              "    return inner, lambda z, w: z\n"
              "def _ctx(G, base, ks, caps):\n    yield base\n"
              "class C:\n    def __setattr__(self, *a):\n        raise TypeError\n"
              "    def set(self, *a):\n        return self\n")
    assert unread_parameters(source) == [
        ("<lambda>", "w"), ("f", "**e"), ("f", "*c"), ("f", "b"),
        ("inner", "y"), ("set", "*a")]
    package = (SRC / "korbit.py").read_text()
    head = "def automorphic_analysis(G):"
    assert head in package
    capped = package.replace(
        head, "def automorphic_analysis(G, max_subgroup_order=DEFAULT_SUBGROUP_CAP):")
    assert unread_parameters(capped) == [("automorphic_analysis",
                                          "max_subgroup_order")]


def test_every_parameter_is_read():
    assert {m: unread_parameters((SRC / m).read_text()) for m in MODULES} \
        == {m: [] for m in MODULES}


def cached_functions(source):
    """The functions of the module text `source` that `functools.lru_cache`
    decorates, with or without arguments."""
    return sorted(fn.name for fn in ast.walk(ast.parse(source))
                  if isinstance(fn, ast.FunctionDef)
                  and any(ast.unparse(getattr(d, "func", d)) == "functools.lru_cache"
                          for d in fn.decorator_list))


# every cache of the package, as module.function: the cache counters
# that a benchmark of korbits can read
CACHED = {
    "_backend.powers_for", "catalog.transitive_catalog",
    "group.normalizer_in_sym", "korbit._orbit_of_tuple", "korbit.k_orbits",
    "korbit._cyclic_classes", "korbit.classify_coherence",
    "korbit._coherence_family", "korbit._translates",
    "korbit.stab_of_ksuborbit", "korbit.aut_of_kset",
    "korbit.automorphic_analysis", "propcheck._deser_group",
    "propcheck._join_groups", "propcheck._aut_suborbits",
    "subgroups.subgroup_classes",
}


def test_checker_reads_cached_functions():
    source = ("import functools\n@functools.lru_cache(maxsize=4)\ndef a(): pass\n"
              "@functools.lru_cache\ndef b(): pass\n"
              "@staticmethod\ndef c(): pass\ndef d(): pass\n")
    assert cached_functions(source) == ["a", "b"]


def test_cached_functions_are_pinned():
    found = {f"{m[:-3]}.{name}" for m in MODULES
             for name in cached_functions((SRC / m).read_text())}
    assert len(CACHED) == 16
    assert found == CACHED

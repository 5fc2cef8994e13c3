"""Module-level checks: what each entry point loads, and what the source may use.

The start-up checks count modules, never time.  A single command loads only
its family's modules and never ``dataclasses``, ``inspect``, ``argparse``
or ``gettext``, and a text report loads no ``json``.  Neither the CLI
itself nor a ``--json`` sweep of ``cable``, ``iterated``, ``stab`` or
``boundary-kernel`` loads ``fractions`` (nor the ``decimal`` and
``numbers`` it pulls in): norms are integers, and theta, the one rational,
is built only where a report reads it.  No sweep loads
``concurrent.futures`` or ``multiprocessing`` (``--jobs N`` forks, and only
a sweep that forks loads ``pickle``), and ``import lensgenus`` loads no
submodule.  The source checks keep floating point out of the library,
``DomainError`` in the constructors of the input types and the one route
that owns its domain, the torus-knot norm in ``complement``, a cable's
pieces in ``cables.iterated_summands``, norm pieces as plain triples with no
wrapper type, no Smith normal form (the tests' oracle, not a library route),
and every file write and every JSON text in ``cli``.
"""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import lensgenus

SRC = Path(lensgenus.__file__).resolve().parent.parent
LIBRARY = sorted(SRC.joinpath("lensgenus").glob("*.py"))


def loaded_after(code: str) -> set[str]:
    """The modules in ``sys.modules`` after a fresh interpreter runs ``code``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def package_modules(modules: set[str]) -> set[str]:
    return {m.removeprefix("lensgenus.") for m in modules if m.startswith("lensgenus.")}


def test_package_import_loads_no_submodule():
    assert package_modules(loaded_after("import lensgenus")) == set()


#: Stdlib modules no command needs: ``dataclasses`` loads ``inspect``,
#: ``ast``, ``dis`` and ``tokenize`` before the first line of arithmetic, and
#: ``argparse`` loads ``gettext``; the command table is the parser.
NEVER_LOADED = {"dataclasses", "inspect", "argparse", "gettext"}


def test_cli_import_loads_no_pool_and_no_family():
    modules = loaded_after("import lensgenus.cli")
    assert "concurrent.futures.process" not in modules
    assert "multiprocessing" not in modules
    assert modules & NEVER_LOADED == set()
    assert package_modules(modules) == {"cli", "errors", "lens"}


@pytest.mark.parametrize("argv, family", [
    (["simple-knot", "--p", "8", "--q", "1", "--class", "4"], set()),
    (["theta", "--p", "8", "--q", "1", "--class", "4"], {"complement", "norm"}),
    (["cable", "--p", "8", "--q", "1", "--m", "2", "--n", "2"],
     {"cables", "complement", "norm"}),
    (["twist", "--a", "1", "--b", "1", "--n", "1"], {"twistfamily", "exactarith"}),
    (["sweep", "stab", "--p", "10:12", "--q", "1:1", "--k", "1:1"],
     {"stabilization", "complement", "norm"}),
    (["boundary-kernel", "--p", "8", "--q", "1", "--w", "4"], {"complement", "exactarith", "norm"}),
])
def test_command_loads_only_its_family(argv, family):
    modules = loaded_after(f"from lensgenus.cli import main\nmain({argv!r})")
    assert "concurrent.futures.process" not in modules
    assert "pickle" not in modules
    assert modules & NEVER_LOADED == set()
    assert package_modules(modules) == {"cli", "errors", "lens"} | family


@pytest.mark.parametrize("argv", [["cable", "--p", "8", "--q", "1", "--m", "2", "--n", "2"],
                                  ["sweep", "stab", "--p", "10:12", "--q", "1:1", "--k", "1:1"],
                                  ["twist", "--a", "1", "--b", "1", "--n", "1"]])
def test_text_report_loads_no_json(argv):
    assert "json" not in loaded_after(f"from lensgenus.cli import main\nmain({argv!r})")


#: What ``fractions`` loads: the CLI writes a rational without it, so only a
#: command that prints one pays for it.
RATIONALS = {"fractions", "decimal", "_decimal", "numbers"}


@pytest.mark.parametrize("code", [
    "import lensgenus.cli",
    *(f"from lensgenus.cli import main\nmain({argv!r})" for argv in [
        ["simple-knot", "--p", "8", "--q", "1", "--class", "4", "--json"],
        # A norm sweep's norms are ints, and its summary reads no theta.
        ["sweep", "cable", "--p", "8:40", "--q", "1:3", "--m", "2:3", "--n", "2:3", "--json"],
        ["sweep", "iterated", "--p", "9:60", "--q", "1:3", "--ms", "2,2,2", "--json"],
        ["sweep", "stab", "--p", "10:40", "--q", "1:3", "--k", "1:3", "--json"],
        ["sweep", "boundary-kernel", "--p", "2:12", "--q", "1:5", "--w", "0:3", "--json"],
    ]),
], ids=["import", "simple-knot-json", "sweep-cable-json", "sweep-iterated-json",
        "sweep-stab-json", "sweep-boundary-kernel-json"])
def test_cli_loads_no_rationals_of_its_own(code):
    assert loaded_after(code) & RATIONALS == set()


def test_parallel_sweep_loads_no_pool():
    # Two usable CPUs whatever the host, so the sweep forks one child.
    argv = ["sweep", "stab", "--p", "10:40", "--q", "1:3", "--k", "1:3", "--jobs", "2"]
    modules = loaded_after("import os\nos.sched_getaffinity = lambda pid: {0, 1}\n"
                           f"from lensgenus.cli import main\nmain({argv!r})")
    assert "pickle" in modules  # the runner forked
    assert modules & {"concurrent", "concurrent.futures", "multiprocessing"} == set()
    assert modules & NEVER_LOADED == set()


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from lensgenus import *", namespace)
    for name in lensgenus.__all__:
        module = import_module(f"lensgenus.{lensgenus._MODULE_OF[name]}")
        assert namespace[name] is getattr(module, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'cable_verdit'"):
        lensgenus.cable_verdit
    assert not hasattr(lensgenus, "cable_verdit")


@pytest.mark.parametrize("path", LIBRARY, ids=lambda path: path.name)
def test_no_floating_point_in_the_library(path):
    # True division, a float literal or the float type is the only way a float
    # enters exact code; Fraction(a, b) and // are the exact spellings.
    hits = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        or isinstance(node, ast.Constant) and isinstance(node.value, float)
        or isinstance(node, ast.Name) and node.id == "float"
    ]
    assert hits == [], f"{path.name}: floating point at lines {hits}"


def raises_domain_error(node: ast.Raise) -> bool:
    """``raise DomainError(...)``, ``raise errors.DomainError`` and the like."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", getattr(exc, "attr", None)) == "DomainError"


#: Functions that refuse input outside a constructor, by module.  The
#: torus-knot route owns its domain p - qk >= 1: the ``theta`` command
#: reaches it with a bare class, and every family's constructor already
#: keeps its own points inside it.
ROUTE_DOMAINS = {"complement.py": {"torus_knot_theta"}}


@pytest.mark.parametrize("path", [p for p in LIBRARY if p.name != "cli.py"],
                         ids=lambda path: path.name)
def test_domain_error_only_in_constructors(path):
    # A family's hypotheses are checked once, where its input type is built,
    # so a sweep skips exactly the points a constructor refuses.  Only the
    # CLI and the routes in ROUTE_DOMAINS also refuse arguments that no type
    # takes in.
    tree = ast.parse(path.read_text(), str(path))
    scopes = [fn for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__new__"]
    scopes += [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
               and fn.name in ROUTE_DOMAINS.get(path.name, ())]
    allowed = {id(node) for fn in scopes for node in ast.walk(fn)}
    hits = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and raises_domain_error(node) and id(node) not in allowed]
    assert hits == [], f"{path.name}: DomainError raised outside __new__ at lines {hits}"


def names_used(tree: ast.AST) -> set[str]:
    """Every name a module reads, imports, defines or looks up as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
    return names


@pytest.mark.parametrize("path", [p for p in LIBRARY if p.name != "complement.py"],
                         ids=lambda path: path.name)
def test_one_torus_knot_route(path):
    # complement.torus_knot_theta is the one function that turns the torus
    # knot's summand into a norm; a module that names the summand is
    # computing that norm a second time.
    assert "torus_fiber_summand" not in names_used(ast.parse(path.read_text(), str(path)))


def calls_to(tree: ast.AST, name: str) -> list[ast.Call]:
    """Every call of ``name(...)`` or ``module.name(...)`` in ``tree``."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


#: A second cable route's names: its own pieces, verdict or input type.
GONE_CABLE_NAMES = {"cable_side_summands", "cable_verdict", "CableVerdict", "CableParams"}


def test_one_cable_route():
    # cables.iterated_summands is the one function that builds a cable's
    # pieces, at every depth: a cable is the two-level case, so a norm of
    # other pieces, or a verdict or input type of its own, would compute the
    # same norm twice.
    path = SRC / "lensgenus" / "cables.py"
    tree = ast.parse(path.read_text(), str(path))
    norms = calls_to(tree, "graph_norm")
    assert norms
    for call in norms:
        assert len(call.args) == 1 and not call.keywords, call.lineno
        assert calls_to(call.args[0], "iterated_summands") == [call.args[0]], call.lineno
    for library in LIBRARY:
        names = names_used(ast.parse(library.read_text(), str(library)))
        assert names & GONE_CABLE_NAMES == set(), library
    assert not GONE_CABLE_NAMES & set(lensgenus.__all__)


def test_norm_pieces_are_plain_triples():
    # graph_norm reads (base_euler, cone_orders, pairing) triples, the shape
    # its test oracle reads, and orbifold_euler_parts checks the cone orders:
    # a wrapper type for a piece would only be unpacked again.
    for library in LIBRARY:
        names = names_used(ast.parse(library.read_text(), str(library)))
        assert names & {"SeifertPiece", "NormSummand"} == set(), library.name
    assert not {"SeifertPiece", "NormSummand"} & set(lensgenus.__all__)


def test_no_smith_form_in_the_library():
    # fold_columns is the one homology reduction: the twist family folds its
    # relations with it and the kernel oracle cuts its lattice with it.  The
    # Smith form is their oracle in tests/_oracles.py; a module that defines
    # or imports one would be a second route checked against itself.
    smith = {"smith_normal_form", "SNFResult"}
    for library in LIBRARY:
        names = names_used(ast.parse(library.read_text(), str(library)))
        found = {name for name in names if name in smith or name.startswith("cokernel_")}
        assert found == set(), library.name
    moved = smith | {"cokernel_invariants", "filling_homology", "h1_of_complement"}
    assert not moved & set(lensgenus.__all__)


def writes_a_file(node: ast.Call) -> bool:
    """``open(...)``, ``os.open``, ``os.replace`` or ``os.remove``; not ``list.remove``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    return (isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
            and func.attr in ("open", "replace", "remove"))


@pytest.mark.parametrize("path", [p for p in LIBRARY if p.name != "cli.py"],
                         ids=lambda path: path.name)
def test_no_io_outside_the_cli(path):
    # The library computes; main renders the report and then writes any
    # file, so a module that opens, replaces or removes a file, or encodes
    # JSON, is doing the CLI's work inside an evaluator.
    tree = ast.parse(path.read_text(), str(path))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and writes_a_file(node)]
    imports = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "json"
                                                       for a in node.names)
               or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json"]
    assert calls == [], f"{path.name}: file write at lines {calls}"
    assert imports == [], f"{path.name}: json imported at lines {imports}"

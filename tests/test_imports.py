"""Module-level checks: what each entry point loads, and what the source may use.

The start-up checks count modules, never time: a single command loads only
its family's modules, the process pool only loads for ``--jobs N > 1``, and
``import lensgenus`` loads no submodule.  The source check keeps floating
point out of the library.
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


def test_cli_import_loads_no_pool_and_no_family():
    modules = loaded_after("import lensgenus.cli")
    assert "concurrent.futures.process" not in modules
    assert "multiprocessing" not in modules
    assert package_modules(modules) == {"cli", "errors", "lens"}


@pytest.mark.parametrize("argv, family", [
    (["simple-knot", "--p", "8", "--q", "1", "--class", "4"], set()),
    (["theta", "--p", "8", "--q", "1", "--class", "4"], {"complement", "exactarith", "norm"}),
    (["cable", "--p", "8", "--q", "1", "--m", "2", "--n", "2"],
     {"cables", "complement", "exactarith", "norm"}),
    (["twist", "--a", "1", "--b", "1", "--n", "1"], {"twistfamily", "exactarith"}),
    (["sweep", "stab", "--p", "10:12", "--q", "1:1", "--k", "1:1"],
     {"stabilization", "complement", "exactarith", "norm"}),
])
def test_command_loads_only_its_family(argv, family):
    modules = loaded_after(f"from lensgenus.cli import main\nmain({argv!r})")
    assert "concurrent.futures.process" not in modules
    assert package_modules(modules) == {"cli", "errors", "lens"} | family


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


@pytest.mark.parametrize("path", sorted(SRC.joinpath("lensgenus").glob("*.py")),
                         ids=lambda path: path.name)
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

"""Import rules of the package, read from its source with ``ast``.

The oracles stay independent references: no library module imports
``spectral_sdp.oracles``. And no module imports ``scipy``, which the
package does not declare and which costs a noticeable share of start-up
time to import.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = "spectral_sdp"
SOURCE = Path(__file__).resolve().parents[1] / "src" / PACKAGE


def _imported(tree: ast.AST) -> set[str]:
    """Absolute dotted names that the import statements of a package module
    name, at any depth, each ``from`` import also as ``module.name``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # The package is flat, so every relative import resolves inside it.
            base = node.module or ""
            if node.level:
                base = f"{PACKAGE}.{base}" if base else PACKAGE
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _within(name: str, module: str) -> bool:
    return name == module or name.startswith(module + ".")


def _violations(module: str, tree: ast.AST) -> list[str]:
    """The imports of package module ``module`` that break the rules."""
    return [
        f"{module} imports {name}"
        for name in sorted(_imported(tree))
        if _within(name, "scipy")
        or (module != "oracles" and _within(name, f"{PACKAGE}.oracles"))
    ]


def test_no_module_imports_scipy_or_the_oracles():
    modules = {path.stem: path for path in SOURCE.glob("*.py")}
    assert {"__init__", "oracles", "solver"} <= set(modules)
    bad = []
    for module, path in sorted(modules.items()):
        bad += _violations(module, ast.parse(path.read_text(encoding="utf-8")))
    assert not bad, bad


@pytest.mark.parametrize(
    "source",
    [
        "import scipy",
        "import scipy.linalg as sl",
        "from scipy import linalg",
        "from scipy.linalg import eigh",
        "def f():\n    from scipy.linalg import eigh",
        "from .oracles import blocks",
        "from . import oracles",
        "from spectral_sdp.oracles import blocks",
        "import spectral_sdp.oracles",
    ],
)
def test_the_check_catches_each_import_form(source):
    assert _violations("solver", ast.parse(source))


def test_the_oracles_may_import_the_library_but_not_scipy():
    assert not _violations("oracles", ast.parse("from .sampling import SelectionPattern"))
    assert _violations("oracles", ast.parse("import scipy.linalg"))

"""Structure rules of the package, read from its source with ``ast``.

The oracles stay independent references: no library module imports
``spectral_sdp.oracles``. No module imports ``scipy``, which the package
does not declare and which costs a noticeable share of start-up time to
import. And only ``errors`` tells a bool from a number: every other
module reads outside numbers through its ``as_integer``, ``as_real`` and
``as_fraction``, so no other module passes ``bool`` or ``np.bool_`` to
``isinstance``. The interval ``within`` that a module gives ``as_real``
is a string literal written as the message prints it, like ``"[0, 1)"``.
Every module-level UPPER_CASE constant is read somewhere in the package
besides its assignment.
"""

import ast
import re
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


def _bool_checks(module: str, tree: ast.AST) -> list[str]:
    """The ``isinstance`` calls of package module ``module`` whose class
    argument names ``bool`` or a numpy bool, alone or in a tuple; none
    are allowed outside ``errors``."""
    if module == "errors":
        return []
    return [
        f"{module}:{node.lineno} passes a bool class to isinstance"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and len(node.args) == 2
        and any(
            getattr(sub, "id", None) == "bool" or getattr(sub, "attr", None) in ("bool", "bool_")
            for sub in ast.walk(node.args[1])
        )
    ]


_INTERVAL = re.compile(r"^[\[(]-?(\d+(\.\d+)?|inf), -?(\d+(\.\d+)?|inf)[\])]$")


def _intervals(tree: ast.AST) -> list[ast.expr]:
    """The ``within`` arguments, third or by keyword, of the ``as_real``
    calls in ``tree``."""
    return [
        arg
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "as_real" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for arg in node.args[2:3] + [kw.value for kw in node.keywords if kw.arg == "within"]
    ]


def _bad_intervals(module: str, tree: ast.AST) -> list[str]:
    """The intervals given to ``as_real`` in package module ``module`` that
    are not a string literal of the form the messages print."""
    return [
        f"{module}:{arg.lineno} passes as_real the interval {ast.unparse(arg)}"
        for arg in _intervals(tree)
        if not (isinstance(arg, ast.Constant) and _INTERVAL.match(str(arg.value)))
    ]


def test_no_module_imports_scipy_or_the_oracles():
    modules = {path.stem: path for path in SOURCE.glob("*.py")}
    assert {"__init__", "oracles", "solver"} <= set(modules)
    bad = []
    for module, path in sorted(modules.items()):
        bad += _violations(module, ast.parse(path.read_text(encoding="utf-8")))
    assert not bad, bad


def test_only_errors_tells_a_bool_from_a_number():
    modules = {path.stem: path for path in SOURCE.glob("*.py")}
    assert {"cli", "errors", "multirate", "solver"} <= set(modules)
    bad = []
    for module, path in sorted(modules.items()):
        bad += _bool_checks(module, ast.parse(path.read_text(encoding="utf-8")))
    assert not bad, bad


@pytest.mark.parametrize(
    "source",
    [
        "isinstance(x, bool)",
        "isinstance(x, (int, bool))",
        "isinstance(x, np.bool_)",
        "isinstance(x, (bool, numpy.bool_))",
        "def f(x):\n    return isinstance(x, np.bool)",
    ],
)
def test_the_bool_check_catches_each_form(source):
    assert _bool_checks("cli", ast.parse(source))
    assert not _bool_checks("errors", ast.parse(source))
    assert not _bool_checks("cli", ast.parse(source.replace("bool", "float")))


def test_every_range_is_a_literal_interval():
    modules = {path.stem: path for path in SOURCE.glob("*.py")}
    given, bad = 0, []
    for module, path in sorted(modules.items()):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        given += len(_intervals(tree))
        bad += _bad_intervals(module, tree)
    assert given >= 12, given  # the rule sees the ranged reads at all
    assert not bad, bad


@pytest.mark.parametrize(
    "source",
    [
        'as_real(x, "x", "(0, inf")',
        'as_real(x, "x", "0, 1)")',
        'as_real(x, "x", "[0,1)")',
        'as_real(x, "x", "(0, 1}")',
        'errors.as_real(x, "x", within="[a, 1)")',
        'as_real(x, "x", within)',
        'def f(x):\n    return as_real(x, "x", within="(0 , 1]")',
    ],
)
def test_the_interval_check_catches_each_form(source):
    assert _bad_intervals("cli", ast.parse(source))
    assert not _bad_intervals("cli", ast.parse('as_real(x, "x", "(0, 1]")'))
    assert not _bad_intervals("cli", ast.parse('as_real(x, "x")'))


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


_CONSTANT = re.compile(r"^_?[A-Z][A-Z0-9_]*$")


def _constants(tree: ast.Module) -> dict[str, int]:
    """The UPPER_CASE names that a module assigns at its top level, each
    with the line of its assignment."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and _CONSTANT.match(sub.id):
                    names[sub.id] = node.lineno
    return names


def _dead_constants(trees: dict[str, ast.Module]) -> list[str]:
    """The constants of ``trees`` (module name -> tree) that no module reads,
    as a name or as an attribute."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{module}:{line} assigns {name}, which no module reads"
        for module, tree in sorted(trees.items())
        for name, line in sorted(_constants(tree).items())
        if name not in read
    ]


def test_every_constant_is_read():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCE.glob("*.py")
    }
    assert sum(len(_constants(tree)) for tree in trees.values()) >= 20  # the rule sees them
    bad = _dead_constants(trees)
    assert not bad, bad


def test_the_constant_check_catches_a_dead_constant():
    trees = {
        "a": ast.parse("LIVE, _DEAD = 1, 2\nOTHER: int = 3\nlower = 4\ndef f():\n    return LIVE"),
        "b": ast.parse("from . import a\nprint(a.OTHER, lower)"),
    }
    assert _dead_constants(trees) == ["a:1 assigns _DEAD, which no module reads"]
    del trees["b"]
    assert len(_dead_constants(trees)) == 2

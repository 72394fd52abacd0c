"""The package's modules import one another only downward, and only public names.

Each module sits at one place in ``ORDER``; it may import, at module level,
the public names of the modules below it.  A routine then has one home, and
no module reaches a helper that another keeps to itself: neither by import
nor by reading a private attribute that another module defines.
"""

import ast
from pathlib import Path

import optbench

ORDER = ("model", "instances", "formulations", "solvers", "qaoa", "metrics", "harness", "cli")
PACKAGE = Path(optbench.__file__).parent


def layering_violations(package: Path = PACKAGE) -> list[str]:
    """One line per ``from .`` import that goes up or sideways in ``ORDER``,
    sits inside a function or class, or names an ``_``-prefixed name."""
    rank = {name: place for place, name in enumerate(ORDER)}
    found = []
    for module in ORDER:
        tree = ast.parse((package / f"{module}.py").read_text())
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            for alias in node.names:
                # ``from . import x`` imports the module x; ``from .x import y`` names y of x.
                target, name = node.module or alias.name, alias.name
                where = f"{module}:{node.lineno} from .{node.module or ''} import {name}"
                if rank.get(target, len(ORDER)) >= rank[module]:
                    found.append(f"{where}: {target} is not below {module}")
                if id(node) not in top:
                    found.append(f"{where}: inside a function or class")
                if name.startswith("_"):
                    found.append(f"{where}: a private name")
    return found


def _defined_names(tree: ast.Module) -> set[str]:
    """Names a module defines: its functions and classes, the names assigned at
    module or class level, its ``self.x`` and ``cls.x`` targets and ``__slots__``."""
    names = set()
    scopes = [tree]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                scopes.append(node)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
            names.add(node.attr)
    for scope in scopes:
        for statement in scope.body:
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign):
                targets = [statement.target]
            else:
                continue
            for target in targets:
                names.update(leaf.id for leaf in ast.walk(target) if isinstance(leaf, ast.Name))
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    names.update(leaf.value for leaf in ast.walk(statement.value)
                                 if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str))
    return names


def private_attribute_reads(package: Path = PACKAGE) -> list[str]:
    """One line per read of an ``_``-prefixed, non-dunder attribute on anything
    but ``self`` or ``cls`` whose name another module defines and its own does not."""
    trees = {module: ast.parse((package / f"{module}.py").read_text()) for module in ORDER}
    defined = {module: _defined_names(tree) for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        elsewhere = set().union(*(names for other, names in defined.items() if other != module))
        reads = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
        for node in sorted(reads, key=lambda node: (node.lineno, node.col_offset)):
            if (not node.attr.startswith("_") or node.attr.endswith("__")
                    or isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                continue
            if node.attr in elsewhere and node.attr not in defined[module]:
                found.append(f"{module}:{node.lineno} {ast.unparse(node)}")
    return found


def test_every_module_has_a_place_in_the_order():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


def test_imports_run_downward_at_module_level_and_name_public_names():
    assert layering_violations() == []


def test_a_bad_import_of_each_kind_is_reported(tmp_path):
    for module in ORDER:
        (tmp_path / f"{module}.py").write_text("")
    (tmp_path / "instances.py").write_text(
        "from .model import as_bits\n"
        "from . import solvers\n"
        "def f():\n    from .model import BinaryPolynomial\n")
    (tmp_path / "metrics.py").write_text("from .qaoa import _hidden\n")
    assert layering_violations(tmp_path) == [
        "instances:2 from . import solvers: solvers is not below instances",
        "instances:4 from .model import BinaryPolynomial: inside a function or class",
        "metrics:1 from .qaoa import _hidden: a private name",
    ]


def test_no_module_reads_a_private_attribute_that_another_defines():
    assert private_attribute_reads() == []


def test_a_private_attribute_read_of_each_kind_is_reported(tmp_path):
    for module in ORDER:
        (tmp_path / f"{module}.py").write_text("")
    (tmp_path / "model.py").write_text(
        "_TABLE = {}\n"
        "class Poly:\n"
        "    __slots__ = ('_derived',)\n"
        "    _cache: dict = {}\n"
        "    def __init__(self):\n"
        "        self._terms = {}\n"
        "    def _fill(self):\n"
        "        return self._terms\n")
    (tmp_path / "qaoa.py").write_text(
        "import model\n"
        "_levels = None\n"
        "class Compiled:\n"
        "    def run(self, poly):\n"
        "        self._own = poly._fill\n"
        "        return (poly._derived, poly._cache, poly._terms, model._TABLE,\n"
        "                poly._own, poly._levels, poly._unknown, poly.__dict__, self._terms)\n")
    # not reported: qaoa's own _own and _levels, _unknown that no module defines,
    # a dunder and a read on self
    assert private_attribute_reads(tmp_path) == [
        "qaoa:5 poly._fill",
        "qaoa:6 poly._derived",
        "qaoa:6 poly._cache",
        "qaoa:6 poly._terms",
        "qaoa:6 model._TABLE",
    ]

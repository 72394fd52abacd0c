"""The package's modules import one another only downward, and only public names.

Each module sits at one place in ``ORDER``; it may import, at module level,
the public names of the modules below it.  A routine then has one home, and
no module reaches a helper that another keeps to itself.
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

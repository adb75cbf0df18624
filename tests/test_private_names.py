import ast
from pathlib import Path

import splinellt

SRC = Path(splinellt.__file__).resolve().parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _cross_module_private_uses(path):
    """Lines of ``path`` that import or read a _private name of another
    splinellt module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, found = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = node.module is None if node.level else node.module == "splinellt"
        ours = node.level or (node.module or "").startswith("splinellt.")
        for alias in node.names:
            if package:
                modules.add(alias.asname or alias.name)
            elif ours and _private(alias.name):
                found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import splines\n"
        "from .splines import _int_table, wprime\n"
        "splines._to_double(1, 0)\n"
        "splines.wprime\n"
    )
    assert _cross_module_private_uses(probe) == [
        "probe.py:2 imports _int_table",
        "probe.py:3 reads splines._to_double",
    ]
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    assert [line for path in paths for line in _cross_module_private_uses(path)] == []


def test_demos_use_only_public_names(tmp_path):
    # a demo is user-facing: it reaches the library through public names only
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from splinellt import knots, specfun\n"
        "from splinellt.splines import _int_table, bspline_stable\n"
        "specfun._SERIES_MAX_BITS\n"
        "knots.family\n"
    )
    assert _cross_module_private_uses(probe) == [
        "probe.py:2 imports _int_table",
        "probe.py:3 reads specfun._SERIES_MAX_BITS",
    ]
    paths = sorted(DEMOS.glob("*.py"))
    assert len(paths) >= 3
    assert [line for path in paths for line in _cross_module_private_uses(path)] == []

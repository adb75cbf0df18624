"""Every public top-level name of the package has a use outside the tests.

A use is a name read, an attribute read or an import in ``src/``,
``demos/`` or ``bench/`` (its own tests aside), or a string of
``bench/tracing.py``'s ``TRACED``, which wraps library functions by name.
A public name that only its own tests use is API kept alive for them.
"""

import ast
from pathlib import Path

import splinellt

SRC = Path(splinellt.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _defined(path):
    """Public names bound by a def, class or assignment at the top of ``path``."""
    names = set()
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _used(path):
    """Names that ``path`` reads, reads as an attribute or imports."""
    used = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _traced(path):
    """The strings of the top-level ``TRACED`` assignment in ``path``."""
    for node in _tree(path).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return {
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return set()


def _unused(sources, users, traced):
    """``path:name`` for each public name of ``sources`` that no file of
    ``users`` uses and ``traced`` does not hold."""
    used = set().union(traced, *map(_used, users))
    return sorted(f"{p.name}:{name}" for p in sources for name in _defined(p) - used)


def test_unused_public_names_are_found(tmp_path):
    lib, user, tracing = tmp_path / "lib.py", tmp_path / "user.py", tmp_path / "tracing.py"
    lib.write_text(
        "A = 1\n_B = 2\nC: int = 3\n"
        "def f(): pass\ndef g(): f()\nclass K: pass\ndef wrapped(): pass\n"
    )
    user.write_text("from lib import A\nimport lib\nlib.K\n")
    tracing.write_text('TRACED = (("lib", "wrapped", "lib", None),)\nOTHER = "C"\n')
    assert _traced(tracing) == {"lib", "wrapped"}
    assert _unused([lib], [lib, user], _traced(tracing)) == ["lib.py:C", "lib.py:g"]


def test_every_public_name_has_a_use_outside_the_tests():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 10
    bench = [p for p in (ROOT / "bench").rglob("*.py") if "tests" not in p.relative_to(ROOT).parts]
    users = sources + sorted((ROOT / "demos").glob("*.py")) + bench
    assert _unused(sources, users, _traced(ROOT / "bench" / "tracing.py")) == []

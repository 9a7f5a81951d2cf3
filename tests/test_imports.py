"""Every name the package and the test suite import is used.

No linter is needed: the check reads each module's syntax tree.  The
package's `__init__.py` is left out, since its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for p in [*(ROOT / "src" / "zwtick").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _annotations(tree: ast.AST) -> list[ast.expr]:
    out = []
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = n.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            out += [p.annotation for p in params if p is not None] + [n.returns]
        elif isinstance(n, ast.AnnAssign):
            out.append(n.annotation)
    return [a for a in out if a is not None]


def unused_imports(source: str) -> list[str]:
    """Imported names never read, as "name (line k)"."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _names(tree)
    # A quoted annotation names its types inside a string.
    for ann in _annotations(tree):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= _names(ast.parse(c.value, mode="eval"))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scanner_flags_unused_names():
    source = "from a import b, c\nimport d.e\nfrom f import g as h\ndef k(x: 'c') -> 'list[h]': pass\n"
    assert unused_imports(source) == ["b (line 1)", "d (line 2)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

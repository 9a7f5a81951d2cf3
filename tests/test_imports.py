"""Every name the package and the test suite import is used.

No linter is needed: the check reads each module's syntax tree.  The
package's `__init__.py` is left out, since its imports are re-exports.
Importing the package also leaves numpy unloaded.

The same parse counts code lines (`code_lines`), the size by which changes
to the package are measured: `python tests/test_imports.py` prints the
count of each module of `src/zwtick` and their total.
"""

import ast
import io
import os
import subprocess
import sys
import tokenize
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


def code_lines(source: str) -> int:
    """Physical lines holding a token other than a comment, a module, class or function docstring, or whitespace."""
    docstrings = set()  # where each docstring's string starts
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.add((first.lineno, first.col_offset))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout and not (tok.type == tokenize.STRING and tok.start in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def test_code_lines_skip_comments_docstrings_and_blank_lines():
    source = '''"""Module
docstring."""

# a comment
class A:
    'Class docstring.'

    def f(self, x):  # code before a comment
        """Function
        docstring."""
        y = """a string
        that is not a docstring"""
        return (x,
                y)
'''
    assert code_lines(source) == 6


def test_scanner_flags_unused_names():
    source = "from a import b, c\nimport d.e\nfrom f import g as h\ndef k(x: 'c') -> 'list[h]': pass\n"
    assert unused_imports(source) == ["b (line 1)", "d (line 2)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_numpy_not_loaded_on_import():
    # Only the float displays import numpy, inside the functions that use it.
    code = "import sys, zwtick; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


if __name__ == "__main__":
    total = 0
    for path in sorted((ROOT / "src" / "zwtick").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:16}{count:6,}")
    print(f"{'total':16}{total:6,}")

"""Every module under ``src/repro`` uses each name its top-level imports bind.

A top-level import is one in the module body, or in an ``if`` block
there (``if TYPE_CHECKING:``).  A name counts as used when the module
reads it anywhere, lists it in ``__all__`` (a re-export), or names it in
a string annotation.  An unused import still costs its module's load at
every import and misleads a reader about what the module depends on.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _top_level(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from _top_level(node.body)
            yield from _top_level(node.orelse)


def _imported(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` for every name a top-level import binds."""
    for node in _top_level(tree.body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _names_in(node: ast.AST) -> Set[str]:
    """Names read in ``node``, including inside string annotations."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _names_in(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _used(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) \
                and node.annotation is not None:
            used |= _names_in(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used |= _names_in(node.returns)
    for node in tree.body:
        if isinstance(node, ast.Assign) \
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets) \
                and isinstance(node.value, (ast.List, ast.Tuple)):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return used


def unused_imports(source: str) -> List[Tuple[str, int]]:
    """``(name, line)`` of each top-level import ``source`` never uses."""
    tree = ast.parse(source)
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree)
            if name not in used]


def test_no_module_has_an_unused_import():
    found = [f"{path.relative_to(SRC.parent)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             for name, line in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


class TestChecker:
    def test_flags_a_name_never_read(self):
        assert unused_imports("import os\nfrom typing import List\n") == [
            ("os", 1), ("List", 2)]

    def test_reads_attributes_and_dotted_imports(self):
        assert unused_imports(
            "import os.path\nprint(os.path.join('a'))\n") == []

    def test_all_string_annotation_and_type_checking_block(self):
        source = (
            "from typing import TYPE_CHECKING\n"
            "from .a import Exported\n"
            "if TYPE_CHECKING:\n"
            "    from .b import Hinted\n"
            "    from .c import Unread\n"
            "def f(x: 'Hinted') -> None: ...\n"
            "__all__ = ['Exported']\n")
        assert unused_imports(source) == [("Unread", 5)]

    def test_future_import_is_not_a_name(self):
        assert unused_imports("from __future__ import annotations\n") == []

"""DESIGN.md §3's module map names exactly the modules under ``src/repro``.

The map is a fenced tree: a package at two spaces of indent (``sim/``),
its modules at four (``session.py``), top-level modules at two.  Wrapped
descriptions are indented further and name no path.  Package
``__init__.py`` files are implied by their package's line.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: One tree entry: its indent and the name of a package or module.
ENTRY = re.compile(r"^( {2}| {4})([a-z0-9_]+(?:/|\.py))(?:\s|$)")


def mapped_paths():
    """Paths relative to ``src/repro`` that §3's tree names."""
    text = (ROOT / "DESIGN.md").read_text()
    section = re.search(r"^## 3\..*?(?=^## 4\.)", text, re.M | re.S).group(0)
    paths, package = [], ""
    for block in re.findall(r"^```\n(.*?)^```", section, re.M | re.S):
        for line in block.splitlines():
            match = ENTRY.match(line)
            if not match:
                continue
            indent, name = match.groups()
            if len(indent) == 2:
                package = name if name.endswith("/") else ""
                paths.append(name)
            else:
                assert package, f"module {name!r} outside a package"
                paths.append(package + name)
    return paths


def source_modules():
    return sorted(
        str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*.py")
        if path.name != "__init__.py")


def test_map_parses():
    paths = mapped_paths()
    assert "sim/" in paths and "sim/session.py" in paths
    assert len(paths) == len(set(paths)), "a path is listed twice"


def test_every_mapped_path_exists():
    missing = [path for path in mapped_paths()
               if not (PACKAGE / path).exists()]
    assert not missing, f"DESIGN.md §3 names paths that do not exist: {missing}"


def test_every_module_is_mapped():
    mapped = set(mapped_paths())
    unmapped = [module for module in source_modules() if module not in mapped]
    assert not unmapped, f"DESIGN.md §3 omits these modules: {unmapped}"

"""Every ``src/repro`` module is imported by some code that is not a test.

The walk reads imports with ``ast`` and never imports anything. Its roots
are the other ``src/repro`` modules and ``examples/**/*.py``; tests and
``benchmarks/`` are not roots, so a module that only its tests (or a bench
script) import counts as dead. A package ``__init__`` re-export is not a
use by itself: ``from repro.pkg import name`` reaches the module that
``repro/pkg/__init__.py`` took ``name`` from.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Entry points run by the interpreter, never imported.
NEVER_IMPORTED = {"repro.__main__"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path) -> list[tuple[str, list[str]]]:
    """``(module, names)`` per import statement; ``names`` is empty for ``import m``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, []) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            found.append((node.module, [alias.name for alias in node.names]))
    return found


def unreached_modules() -> list[str]:
    paths = {_module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))}
    packages = {name for name, p in paths.items() if p.name == "__init__.py"}
    # What each package __init__ re-exports: (package, name) -> source module.
    reexports = {}
    for pkg in packages:
        for module, names in _imports(paths[pkg]):
            for name in names:
                reexports[(pkg, name)] = module

    def targets(module: str, names: list[str]) -> set[str]:
        hit = {module}
        for name in names:
            sub = f"{module}.{name}"
            hit.add(sub if sub in paths else reexports.get((module, name), module))
        return hit

    reached = set()
    sources = [(name, p) for name, p in paths.items() if name not in packages]
    sources += [(None, p) for p in sorted((ROOT / "examples").rglob("*.py"))]
    for importer, path in sources:
        for module, names in _imports(path):
            reached |= targets(module, names) - {importer}
    # ``import a.b.c`` and ``from a.b.c import x`` also run ``a`` and ``a.b``.
    for name in list(reached):
        parts = name.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts)))
    return sorted(set(paths) - reached - NEVER_IMPORTED)


def test_every_module_is_imported_outside_tests():
    dead = unreached_modules()
    assert not dead, "modules nothing outside tests and benchmarks imports: " + ", ".join(dead)

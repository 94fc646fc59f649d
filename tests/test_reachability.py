"""Every module under ``src/repro`` is reachable from an entry point.

A module that no CLI, example, benchmark or registry reaches is dead
code: it can only rot, and its tests guard nothing a user runs.  This
guard walks the package with :mod:`ast` (nothing is imported), collects
each file's import edges — function-level imports included — plus
``"repro.x[:attr]"`` string targets such as the experiment registry and
the benchmark's wrap targets, and checks that every module is reachable
from the roots:

* ``repro`` itself and every ``__main__`` module in the package;
* every module a script in ``examples/``, ``benchmarks/`` or
  ``perfbench/`` references.

Tests do not count as importers, so a module only its own tests use
fails here.  Frozen reference code that exists to check production code
belongs under ``tests/``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Directories whose scripts count as entry points.
ENTRY_DIRS = ("examples", "benchmarks", "perfbench")

#: A string naming a module, optionally with an attribute path.
_TARGET = re.compile(r"repro(?:\.\w+)*(?::[\w.]+)?")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _package_modules() -> dict[str, Path]:
    return {_module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))}


def _is_test_file(path: Path) -> bool:
    return path.name.startswith("test_") or path.name == "conftest.py"


def _references(path: Path, package: str, modules: dict[str, Path]) -> set[str]:
    """Package modules the file imports or names in a string target.

    ``package`` is the package relative imports resolve against.
    Importing ``a.b.c`` also imports the packages ``a`` and ``a.b``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _TARGET.fullmatch(node.value)
        ):
            names.add(node.value.partition(":")[0])
    found = set()
    for name in names:
        parts = name.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in modules:
                found.add(prefix)
    return found


def unreached_modules() -> tuple[list[str], dict[str, Path]]:
    """``(unreached module names, every package module)``."""
    modules = _package_modules()
    edges = {
        name: _references(
            path,
            name if path.name == "__init__.py" else name.rpartition(".")[0],
            modules,
        )
        for name, path in modules.items()
    }
    roots = {"repro"} | {m for m in modules if m.endswith(".__main__")}
    for directory in ENTRY_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if not _is_test_file(path):
                roots |= _references(path, "", modules)
    seen: set[str] = set()
    stack = sorted(roots)
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(edges[name] - seen)
    return sorted(set(modules) - seen), modules


def test_every_package_module_is_reachable():
    unreached, modules = unreached_modules()
    # Guard against a scan that finds nothing (and so reaches everything).
    assert "repro.campaign.__main__" in modules
    assert "repro.campaign.runner" in modules
    assert unreached == [], (
        f"{len(unreached)} of {len(modules)} src/repro modules are reached "
        "from no __main__, examples/, benchmarks/ or perfbench/ script: "
        + ", ".join(unreached)
    )


def test_scan_follows_string_targets_and_function_level_imports():
    """The experiment registry names its drivers only as strings, and
    the campaign imports its parallel layer inside a method."""
    modules = _package_modules()
    experiments = _references(
        modules["repro.experiments"], "repro.experiments", modules
    )
    assert "repro.experiments.fig09_relevance" in experiments
    assert "repro.experiments.extras" in experiments
    runner = _references(
        modules["repro.campaign.runner"], "repro.campaign", modules
    )
    assert "repro.campaign.parallel" in runner

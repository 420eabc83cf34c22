"""The ``repro.*`` import graph, read from source with ``ast``.

Tests use :func:`closure` to assert that the modules the study pipeline
imports, directly or transitively, are exactly those folded into the
cache's code fingerprint (``repro.cache.fingerprint.STAGE_MODULES``) apart
from a commented exclusion set.  No module is imported to walk the graph.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Set, Tuple

import repro

_SRC = Path(repro.__file__).resolve().parent


def _module_path(name: str) -> Path:
    relative = Path(*name.split(".")[1:])
    package = _SRC / relative / "__init__.py"
    return package if package.exists() else _SRC / relative.with_suffix(".py")


def _is_module(name: str) -> bool:
    relative = Path(*name.split(".")[1:])
    return (_SRC / relative.with_suffix(".py")).exists() or (
        _SRC / relative / "__init__.py"
    ).exists()


def _repro_imports(name: str) -> Set[str]:
    """``repro.*`` modules a module imports by name (parent packages'
    ``__init__`` re-exports are not followed)."""
    path = _module_path(name)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(
                alias.name for alias in node.names
                if alias.name.startswith("repro.")
            )
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            if not base.startswith("repro."):
                continue
            for alias in node.names:
                child = f"{base}.{alias.name}"
                found.add(child if _is_module(child) else base)
    return found


def closure(root: str) -> Set[str]:
    """``root`` and every ``repro.*`` module it reaches by imports,
    function-level imports included."""
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_repro_imports(name) - seen)
    return seen


def fingerprint_after_edit(monkeypatch, filename: str) -> Tuple[str, str]:
    """``code_fingerprint()`` before and after the source digest of every
    file named ``filename`` changes; the digest cache is cleared around
    both and the edit is undone."""
    from repro.cache import fingerprint

    real_digest = fingerprint.digest_file

    def edited(path, **kwargs):
        digest = real_digest(path, **kwargs)
        if Path(path).name == filename:
            return "edited-" + digest
        return digest

    fingerprint._fingerprint.cache_clear()
    try:
        before = fingerprint.code_fingerprint()
        monkeypatch.setattr(fingerprint, "digest_file", edited)
        fingerprint._fingerprint.cache_clear()
        after = fingerprint.code_fingerprint()
    finally:
        monkeypatch.undo()
        fingerprint._fingerprint.cache_clear()
    assert fingerprint.code_fingerprint() == before
    return before, after

"""Static module-level import edges of one linted file.

Only imports executed *at module import time* create edges: statements in
the module body, including inside top-level ``try``/``if`` blocks (import
fallbacks run), but **excluding** ``if TYPE_CHECKING:`` guards (never
executed at runtime) and imports nested in function or class-method
bodies (the lazy-loading idiom this repo uses to keep
:mod:`repro.verify` engine-free is precisely a function-level import).

Importing a dotted module also executes every ancestor package's
``__init__``, so ``import a.b.c`` contributes edges to ``a``, ``a.b``,
and ``a.b.c``; ``from a.b import c`` additionally targets ``a.b.c`` when
that resolves to a project module (attribute vs. submodule imports are
indistinguishable statically, and the conservative reading is the sound
one for a purity check).

Split for the incremental cache: :func:`extract_import_edges` derives a
file's raw import targets from its AST alone (cacheable per content
hash), while the whole-program engine (:mod:`repro.analysis.dataflow`)
keeps only the candidates that name project modules when it builds its
reach graph — so a cached file never needs to know which other files
exist.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.core import FileContext


def _is_type_checking_guard(node: ast.stmt) -> bool:
    if not isinstance(node, ast.If):
        return False
    test_names = {
        child.id for child in ast.walk(node.test) if isinstance(child, ast.Name)
    }
    test_attrs = {
        child.attr for child in ast.walk(node.test) if isinstance(child, ast.Attribute)
    }
    return "TYPE_CHECKING" in test_names | test_attrs


def _module_level_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.Try):
            for block in (node.body, node.handlers, node.orelse, node.finalbody):
                for child in block:
                    stack.extend(
                        child.body if isinstance(child, ast.ExceptHandler) else [child]
                    )
        elif isinstance(node, ast.If) and not _is_type_checking_guard(node):
            stack.extend(node.body)
            stack.extend(node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            stack.extend(node.body)


def _with_ancestors(module: str) -> Iterator[str]:
    parts = module.split(".")
    for end in range(1, len(parts) + 1):
        yield ".".join(parts[:end])


def _resolve_from(node: ast.ImportFrom, importer: str) -> Optional[str]:
    """The base module a ``from ... import`` statement targets."""
    if node.level == 0:
        return node.module
    # Relative import: strip `level` trailing segments from the importer's
    # package (the importer module itself counts as one for level >= 1).
    base_parts = importer.split(".")
    if len(base_parts) < node.level:
        return node.module  # broken relative import; best effort
    base_parts = base_parts[: len(base_parts) - node.level]
    if node.module:
        base_parts.append(node.module)
    return ".".join(base_parts) or None


def extract_import_edges(ctx: FileContext) -> List[Tuple[str, int]]:
    """Raw ``(target, line)`` import candidates for one file,
    *unfiltered* — every dotted name (with ancestors) the module-level
    imports could execute.  The engine later keeps only candidates that
    name project modules.  Context-free by design so the result caches
    per file."""
    importer = ctx.module
    edges: List[Tuple[str, int]] = []
    seen: Set[Tuple[str, int]] = set()

    def add(target: str, line: int) -> None:
        key = (target, line)
        if key not in seen:
            seen.add(key)
            edges.append(key)

    for node in _module_level_imports(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                for candidate in _with_ancestors(alias.name):
                    add(candidate, node.lineno)
        else:
            base = _resolve_from(node, importer)
            if base is None:
                continue
            for candidate in _with_ancestors(base):
                add(candidate, node.lineno)
            for alias in node.names:
                if alias.name != "*":
                    add(f"{base}.{alias.name}", node.lineno)
    return edges


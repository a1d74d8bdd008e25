"""backend-shared-state: a static race detector for off-driver execution.

The execution engine's contract (PR 1) is that code dispatched off the
driver — thread-pool tasks, worker processes, shard worker threads —
only ever *reads* shared state; results travel back through return values,
queues or per-slot writes into caller-owned structures.  A worker function
that assigns ``self.something`` or a ``global``/``nonlocal`` name mutates
driver-visible state from a concurrent context: a data race on the thread
backend, silently-lost writes in a worker process, and either way a
threat to the bit-identity guarantee.

The checker finds *dispatch points* (``executor.submit(f, ...)``,
``pool.map(f, ...)``, ``Thread(target=f)``, ``Process(target=f)``,
``apply_async(f)``), resolves the dispatched callable within the module —
including lambdas and transitive calls through ``self`` methods and
module-level helpers — and flags writes to ``self`` attributes and
``global``/``nonlocal`` names inside that dispatched call graph.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.base import Checker, Project, SourceFile
from repro.lint.checkers._ast_utils import (
    FunctionIndex,
    assignment_targets,
    build_import_map,
    canonical_name,
    store_root,
)
from repro.lint.findings import Finding
from repro.registry import CHECKERS

#: Attribute-call names that take a work item as their first argument.
_POOL_METHODS = frozenset(
    {"submit", "map", "imap", "imap_unordered", "starmap", "apply_async"}
)

#: Canonical constructors that take a ``target=`` callable.
_TARGET_CTORS = frozenset(
    {"threading.Thread", "multiprocessing.Process", "multiprocessing.context.Process"}
)


@CHECKERS.register("backend-shared-state")
class BackendSharedStateChecker(Checker):
    """Flag driver-state mutation inside worker-dispatched functions."""

    name = "backend-shared-state"
    description = (
        "functions dispatched off-driver (submit/map/Thread targets) must "
        "not write self attributes or global/nonlocal names"
    )
    rules = {
        "SHARE001": "worker-dispatched code writes a self attribute",
        "SHARE002": "worker-dispatched code writes a module-global name",
        "SHARE003": "worker-dispatched code writes an enclosing-scope (nonlocal) name",
    }

    def run(self, project: Project) -> Iterator[Finding]:
        for source, tree in self.iter_trees(project):
            imports = build_import_map(tree)
            index = FunctionIndex(tree)
            for callable_node in self._dispatched_callables(tree, imports):
                yield from self._check_dispatched(source, callable_node, index)

    # -- dispatch-point discovery -----------------------------------------

    def _dispatched_callables(
        self, tree: ast.Module, imports: dict[str, str]
    ) -> Iterator[ast.AST]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _POOL_METHODS
                and node.args
            ):
                yield node.args[0]
                continue
            canon = canonical_name(node.func, imports)
            if canon in _TARGET_CTORS:
                for keyword in node.keywords:
                    if keyword.arg == "target":
                        yield keyword.value

    # -- dispatched-call-graph analysis ------------------------------------

    def _check_dispatched(
        self, source: SourceFile, callable_node: ast.AST, index: FunctionIndex
    ) -> Iterator[Finding]:
        worklist: list[tuple[ast.AST, dict | None]] = []
        seen: set[int] = set()

        def push(node: ast.AST | None, methods: dict | None) -> None:
            if node is None or id(node) in seen:
                return
            seen.add(id(node))
            worklist.append((node, methods))

        push(*self._resolve(callable_node, index, None))
        while worklist:
            func, methods = worklist.pop()
            body = func.body if isinstance(func.body, list) else [func.body]
            declared_global: set[str] = set()
            declared_nonlocal: set[str] = set()
            for node in body:
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Global):
                        declared_global.update(sub.names)
                    elif isinstance(sub, ast.Nonlocal):
                        declared_nonlocal.update(sub.names)
            for node in body:
                for sub in ast.walk(node):
                    yield from self._check_stores(
                        source, sub, declared_global, declared_nonlocal
                    )
                    if isinstance(sub, ast.Call):
                        push(*self._resolve(sub.func, index, methods))

    def _resolve(
        self, node: ast.AST, index: FunctionIndex, methods: dict | None
    ) -> tuple[ast.AST | None, dict | None]:
        """Resolve a callable expression to a function body within the module."""
        if isinstance(node, ast.Lambda):
            # A lambda dispatched from a method body closes over that
            # method's class; resolving its ``self.x`` calls needs the
            # caller's method table, which ``methods`` carries through.
            return node, methods
        if isinstance(node, ast.Name):
            # Top-level helpers first; nested defs (a Thread target defined
            # inside the dispatching function) via the whole-module index.
            func = index.functions.get(node.id) or index.all_functions.get(node.id)
            return func, index.method_table_containing(func) if func else None
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            # ``self._method``: look in the method table of the dispatching
            # class when known, else in every class of the module.
            tables = [methods] if methods is not None else list(index.methods.values())
            for table in tables:
                func = table.get(node.attr)
                if func is not None:
                    return func, table
        return None, None

    def _check_stores(
        self,
        source: SourceFile,
        node: ast.AST,
        declared_global: set[str],
        declared_nonlocal: set[str],
    ) -> Iterator[Finding]:
        for target in assignment_targets(node):
            root = store_root(target)
            if (
                isinstance(target, (ast.Attribute, ast.Subscript))
                and isinstance(root, ast.Name)
                and root.id == "self"
            ):
                yield self.finding(
                    source,
                    node,
                    "SHARE001",
                    "worker-dispatched code writes a self attribute; "
                    "off-driver tasks must return results, not mutate the "
                    "backend (thread races / lost process writes)",
                )
            elif isinstance(target, ast.Name) and target.id in declared_global:
                yield self.finding(
                    source,
                    node,
                    "SHARE002",
                    f"worker-dispatched code writes module-global "
                    f"{target.id!r}; driver-visible module state must not "
                    "be mutated from backend-executed code",
                )
            elif isinstance(target, ast.Name) and target.id in declared_nonlocal:
                yield self.finding(
                    source,
                    node,
                    "SHARE003",
                    f"worker-dispatched code writes enclosing-scope "
                    f"{target.id!r}; captured driver state must not be "
                    "mutated from backend-executed code",
                )

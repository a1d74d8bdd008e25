"""fold-determinism: aggregator folds must stay elementwise.

The aggregation fold contract fixes the *fold order*: every
aggregator folds client updates one at a time in slot order, so serial,
batched and distributed execution produce bit-identical sums.  That only
holds if the per-update work is elementwise — the moment an ``_fold`` or
``accumulate`` body reaches for a flattened reduction (``np.sum`` over the
whole array, 1-D BLAS ``np.linalg.norm``, ``np.dot``), the result depends
on numpy's internal pairwise/BLAS reduction tree, which varies with array
layout and build — and the bit-identity promise silently breaks.  This is
exactly why ``clip_scale`` computes norms with ``axis=1`` (a fixed-shape
row reduction) instead of ``np.linalg.norm`` on a flattened view.

The checker walks the bodies of ``accumulate``/``_fold`` methods —
transitively through helpers, including cross-module ones such as
:func:`repro.defenses.base.fold_scaled_sum` — and flags axis-free numpy
reductions, BLAS-backed products and Python-level ``sum`` accumulation.
Axis-pinned reductions (``axis=...``) stay allowed: their reduction shape
is fixed by the array layout, not chosen by the backend.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.base import Checker, Project, SourceFile
from repro.lint.checkers._ast_utils import (
    build_import_map,
    canonical_name,
    module_name_for,
)
from repro.lint.findings import Finding
from repro.registry import CHECKERS

#: Method names whose bodies form the deterministic fold path.
_FOLD_METHODS = frozenset({"accumulate", "_fold"})

#: numpy reductions that flatten by default; allowed only with ``axis=``.
_AXIS_REDUCTIONS = frozenset(
    {
        "numpy.sum",
        "numpy.mean",
        "numpy.prod",
        "numpy.std",
        "numpy.var",
        "numpy.median",
        "numpy.linalg.norm",
    }
)

#: BLAS-backed products whose accumulation order is build/layout dependent.
_BLAS_CALLS = frozenset(
    {"numpy.dot", "numpy.vdot", "numpy.inner", "numpy.matmul", "numpy.einsum"}
)

#: ndarray method names treated like their numpy.* counterparts.
_METHOD_REDUCTIONS = frozenset({"sum", "mean", "prod", "std", "var", "dot"})


def _has_axis(node: ast.Call) -> bool:
    return any(keyword.arg == "axis" for keyword in node.keywords)


class _ProjectIndex:
    """Qualified-name lookup of every function/method in the linted project."""

    def __init__(self, checker: Checker, project: Project) -> None:
        # qualname -> (function node, defining module's imports, source file)
        self.functions: dict[str, tuple[ast.AST, dict[str, str], SourceFile]] = {}
        # (source id, class name) -> {method name: node}
        self.fold_classes: list[tuple[SourceFile, dict[str, str], ast.ClassDef]] = []
        for source, tree in checker.iter_trees(project):
            imports = build_import_map(tree)
            module = module_name_for(source.rel)
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if module:
                        self.functions[f"{module}.{node.name}"] = (
                            node,
                            imports,
                            source,
                        )
                elif isinstance(node, ast.ClassDef):
                    methods = {
                        item.name
                        for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    }
                    if methods & _FOLD_METHODS:
                        self.fold_classes.append((source, imports, node))


@CHECKERS.register("fold-determinism")
class FoldDeterminismChecker(Checker):
    """Flag order-sensitive reductions inside aggregator fold paths."""

    name = "fold-determinism"
    description = (
        "_fold/accumulate bodies (and their helpers) must be "
        "elementwise; no flattened numpy reductions, BLAS products or "
        "Python sum() in the fold path"
    )
    rules = {
        "FOLD001": "flattened numpy reduction (no axis=) in the fold path",
        "FOLD002": "BLAS-backed product/norm in the fold path",
        "FOLD003": "Python-level sum() accumulation in the fold path",
    }

    def run(self, project: Project) -> Iterator[Finding]:
        index = _ProjectIndex(self, project)
        for source, imports, class_node in index.fold_classes:
            methods = {
                item.name: item
                for item in class_node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            seen: set[int] = set()
            for name in sorted(methods.keys() & _FOLD_METHODS):
                yield from self._check_function(
                    methods[name], source, imports, methods, index, seen
                )

    def _check_function(
        self,
        func: ast.AST,
        source: SourceFile,
        imports: dict[str, str],
        methods: dict[str, ast.AST],
        index: _ProjectIndex,
        seen: set[int],
    ) -> Iterator[Finding]:
        if id(func) in seen:
            return
        seen.add(id(func))
        for stmt in func.body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                finding = self._classify(source, node, imports)
                if finding is not None:
                    yield finding
                    continue
                yield from self._follow(node, source, imports, methods, index, seen)

    def _follow(
        self,
        node: ast.Call,
        source: SourceFile,
        imports: dict[str, str],
        methods: dict[str, ast.AST],
        index: _ProjectIndex,
        seen: set[int],
    ) -> Iterator[Finding]:
        """Recurse into helpers the fold path calls, within the project."""
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and func.attr in methods
        ):
            yield from self._check_function(
                methods[func.attr], source, imports, methods, index, seen
            )
            return
        canon = canonical_name(func, imports)
        if canon is None and isinstance(func, ast.Name):
            # Same-module helper called by bare name.
            module = module_name_for(source.rel)
            canon = f"{module}.{func.id}" if module else None
        if canon is not None and canon in index.functions:
            helper, helper_imports, helper_source = index.functions[canon]
            yield from self._check_function(
                helper, helper_source, helper_imports, {}, index, seen
            )

    def _classify(
        self, source: SourceFile, node: ast.Call, imports: dict[str, str]
    ) -> Finding | None:
        canon = canonical_name(node.func, imports)
        if canon in _AXIS_REDUCTIONS and not _has_axis(node):
            return self.finding(
                source,
                node,
                "FOLD001",
                f"{canon} without axis= flattens the slice; the reduction "
                "tree then depends on layout/build, breaking bit-identical "
                "folds — reduce along a pinned axis instead",
            )
        if canon in _BLAS_CALLS:
            return self.finding(
                source,
                node,
                "FOLD002",
                f"{canon} accumulates in BLAS order, which is not "
                "bit-stable across builds; keep fold arithmetic elementwise",
            )
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _METHOD_REDUCTIONS
            and canon is None
            and not _has_axis(node)
        ):
            return self.finding(
                source,
                node,
                "FOLD001" if func.attr != "dot" else "FOLD002",
                f".{func.attr}() without axis= in the fold path flattens "
                "the slice; reduce along a pinned axis or keep the fold "
                "elementwise",
            )
        if (
            isinstance(func, ast.Name)
            and func.id == "sum"
            and func.id not in imports
        ):
            return self.finding(
                source,
                node,
                "FOLD003",
                "built-in sum() folds left-to-right over Python objects; "
                "fold paths must use elementwise ndarray arithmetic with a "
                "fixed slot order",
            )
        return None

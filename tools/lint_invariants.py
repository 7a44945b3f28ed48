#!/usr/bin/env python3
"""Project-specific AST lint: invariants ruff cannot express.

Five checks, all pure ``ast`` (stdlib only, no third-party dependency):

1. **Versioned capacitance writes** — ``Net.routing_cap_ff`` and
   ``Net.dummy_cap_ff`` feed the netlist's ``cap_version`` cache keys; a
   direct write that never bumps the version serves stale capacitances to
   every downstream consumer (extraction caches, incremental criterion,
   DRC).  Outside ``circuits/netlist.py`` (which *implements* the
   versioned API), any function assigning those attributes must also call
   ``touch_caps()`` in the same function — the accepted bulk-write idiom
   of ``pnr/extraction.py`` and ``electrical/capacitance.py`` — or go
   through ``set_routing_cap`` / ``add_dummy_load``.

2. **Gated telemetry spans in hot loops** — inside the hot modules (the
   annealer, the compiled engine, the event simulator), a ``.span(...)``
   call lexically inside a ``for``/``while`` loop must be guarded by a
   ``.enabled`` check (``span(...) if telemetry.enabled else _NO_SPAN``
   or an enclosing ``if telemetry.enabled:``): at thousands of iterations
   even a no-op span's bookkeeping is measurable on the placer gate.

3. **One fan-out and one resume path** — campaigns, sweeps and the service
   share the fork fan-out and the store spill/resume protocol of
   ``store/grid.py``.  Outside that module and the ``serve/`` package (the
   persistent worker pool), no module may import ``multiprocessing`` or
   call ``CampaignStore.open``: a second pool or resume path is how the
   duplicated copies this rule retired came about.

4. **Oracles live in tests** — the slow literal formulations that the
   vectorized engines are checked against live under ``tests/oracles/``,
   not in the shipped package.  Under a ``src`` tree, no top-level
   ``def``/``class`` may be named ``*_reference`` or ``Reference*``.

5. **The package runs on numpy alone** — under a ``src`` tree, every
   absolute import names the standard library (``sys.stdlib_module_names``),
   ``numpy`` or the package itself (``repro``); relative imports are always
   fine.  Test-only dependencies (networkx for the graph oracle, pytest,
   hypothesis) stay under ``tests/``.

Usage: ``python tools/lint_invariants.py [roots...]`` (default:
``src``).  Prints one ``path:line: message`` per violation and exits
nonzero when any fired.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List

#: Attributes whose writes must stay behind the versioned netlist API.
CAP_ATTRIBUTES = frozenset({"routing_cap_ff", "dummy_cap_ff"})

#: Files allowed to write the attributes directly: the API implementation.
CAP_ALLOWLIST = ("circuits/netlist.py",)

#: Modules whose inner loops are performance gates: span calls inside
#: their loops must be gated on the collector's ``enabled`` flag.
HOT_MODULES = (
    "pnr/anneal.py",
    "circuits/engine.py",
    "circuits/simulator.py",
)


#: The one module owning the fork fan-out and the store resume protocol,
#: and the package running the persistent worker pool.
GRID_OWNERS = ("store/grid.py",)
GRID_OWNER_PACKAGES = ("/serve/",)

#: The package root whose top-level names rule 4 and imports rule 5 check.
PACKAGE_ROOT = "src"

#: Non-stdlib top-level packages a ``src`` module may import (rule 5).
ALLOWED_IMPORTS = frozenset({"numpy", "repro"})


def _matches(path: Path, suffixes) -> bool:
    text = path.as_posix()
    return any(text.endswith(suffix) for suffix in suffixes)


def _assigned_attributes(node: ast.stmt):
    """Attribute targets of an Assign/AugAssign statement."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    else:
        return
    for target in targets:
        if isinstance(target, ast.Attribute):
            yield target
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Attribute):
                    yield element


def _scope_nodes(scope: ast.AST):
    """Every node of ``scope``, not descending into nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _check_cap_writes(tree: ast.Module, path: str) -> List[str]:
    problems: List[str] = []
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))]
    for scope in scopes:
        writes = []
        touches = False
        for node in _scope_nodes(scope):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                for attribute in _assigned_attributes(node):
                    if attribute.attr in CAP_ATTRIBUTES:
                        writes.append((node.lineno, attribute.attr))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "touch_caps"):
                touches = True
        if writes and not touches:
            for lineno, attr in sorted(writes):
                problems.append(
                    f"{path}:{lineno}: direct write to .{attr} without a "
                    "touch_caps() call in the same function; use "
                    "set_routing_cap/add_dummy_load or bump the version "
                    "after the bulk write")
    return problems


class _SpanGateVisitor(ast.NodeVisitor):
    """Flags ``.span(...)`` calls inside loops with no ``.enabled`` gate."""

    def __init__(self, path: str):
        self.path = path
        self.problems: List[str] = []
        self._stack: List[ast.AST] = []

    def visit(self, node: ast.AST) -> None:
        self._stack.append(node)
        try:
            super().visit(node)
        finally:
            self._stack.pop()

    @staticmethod
    def _mentions_enabled(test: ast.AST) -> bool:
        return any(isinstance(sub, ast.Attribute) and sub.attr == "enabled"
                   for sub in ast.walk(test))

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and node.func.attr == "span":
            in_loop = False
            gated = False
            # Walk enclosing nodes innermost-first; the gate only counts
            # when it sits inside the loop (a check outside the loop was
            # evaluated once, before the iterations being guarded).
            for ancestor in reversed(self._stack[:-1]):
                if isinstance(ancestor, (ast.If, ast.IfExp)):
                    if self._mentions_enabled(ancestor.test):
                        gated = True
                elif isinstance(ancestor, (ast.For, ast.While)):
                    in_loop = True
                    break
                elif isinstance(ancestor, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    break
            if in_loop and not gated:
                self.problems.append(
                    f"{self.path}:{node.lineno}: telemetry span created "
                    "inside a hot loop without an .enabled gate; use "
                    "'span(...) if telemetry.enabled else _NO_SPAN'")
        self.generic_visit(node)


def _imported_packages(node: ast.AST) -> List[str]:
    """Top-level packages an absolute import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def _check_grid_ownership(tree: ast.Module, path: str) -> List[str]:
    problems: List[str] = []
    for node in ast.walk(tree):
        if "multiprocessing" in _imported_packages(node):
            problems.append(
                f"{path}:{node.lineno}: multiprocessing imported outside "
                "store/grid.py and serve/; fan units out with "
                "repro.store.grid.fan_out")
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "open"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "CampaignStore"):
            problems.append(
                f"{path}:{node.lineno}: CampaignStore.open called outside "
                "store/grid.py and serve/; spill and resume through "
                "repro.store.grid.GridRun")
    return problems


def _check_oracle_names(tree: ast.Module, path: str) -> List[str]:
    problems: List[str] = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if node.name.endswith("_reference") or node.name.startswith(
                "Reference"):
            problems.append(
                f"{path}:{node.lineno}: reference oracle {node.name!r} "
                "defined in the package; move it to tests/oracles/")
    return problems


def _check_imports(tree: ast.Module, path: str) -> List[str]:
    problems: List[str] = []
    for node in ast.walk(tree):
        for package in _imported_packages(node):
            if (package not in sys.stdlib_module_names
                    and package not in ALLOWED_IMPORTS):
                problems.append(
                    f"{path}:{node.lineno}: {package!r} imported in the "
                    "package; src imports only the standard library and "
                    "numpy (test-only dependencies belong under tests/)")
    return problems


def check_source(source: str, path: str) -> List[str]:
    """All invariant violations of one source file (testable entry)."""
    tree = ast.parse(source, filename=path)
    problems: List[str] = []
    posix = Path(path).as_posix()
    if not any(posix.endswith(allowed) for allowed in CAP_ALLOWLIST):
        problems.extend(_check_cap_writes(tree, path))
    if not (any(posix.endswith(owner) for owner in GRID_OWNERS)
            or any(package in f"/{posix}" for package in GRID_OWNER_PACKAGES)):
        problems.extend(_check_grid_ownership(tree, path))
    if PACKAGE_ROOT in Path(path).parts:
        problems.extend(_check_oracle_names(tree, path))
        problems.extend(_check_imports(tree, path))
    if any(posix.endswith(hot) for hot in HOT_MODULES):
        visitor = _SpanGateVisitor(path)
        visitor.visit(tree)
        problems.extend(visitor.problems)
    return sorted(problems)


def check_file(path: Path) -> List[str]:
    return check_source(path.read_text(), str(path))


def main(argv: List[str] = None) -> int:
    roots = [Path(arg) for arg in (argv if argv is not None
                                   else sys.argv[1:])] or [Path("src")]
    problems: List[str] = []
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            problems.extend(check_file(path))
    for problem in problems:
        print(problem)
    if problems:
        print(f"lint_invariants: {len(problems)} violation(s)")
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Import structure of the package: no cycles, no deferred intra-package imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nediff"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _intra_imports(tree: ast.AST):
    """(node, imported module) for every import of a nediff module in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                base = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "nediff":
                base = node.module.partition(".")[2] or None
            else:
                continue
            if base is None:  # "from . import x" imports the modules named
                for alias in node.names:
                    yield node, alias.name
            else:
                yield node, base.split(".")[0]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "nediff" and len(parts) > 1:
                    yield node, parts[1]


def _parse(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def _graph() -> dict[str, set[str]]:
    return {name: {dep for _, dep in _intra_imports(_parse(name)) if dep in MODULES}
            for name in MODULES}


def test_graph_covers_the_package():
    graph = _graph()
    assert "core" in graph and "scenario" in graph
    assert "core" in graph["scenario"]


def test_intra_package_imports_are_acyclic():
    graph = _graph()
    state: dict[str, int] = {}  # 1 = on the DFS stack, 2 = finished

    def visit(node, path):
        state[node] = 1
        for dep in sorted(graph[node]):
            if state.get(dep) == 1:
                cycle = path[path.index(dep):] + [dep]
                pytest.fail("import cycle: " + " -> ".join(cycle))
            if dep not in state:
                visit(dep, path + [dep])
        state[node] = 2

    for name in MODULES:
        if name not in state:
            visit(name, [name])


@pytest.mark.parametrize("name", MODULES)
def test_no_function_level_package_imports(name):
    tree = _parse(name)
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node, dep in _intra_imports(func):
            pytest.fail(f"{name}.py:{node.lineno} imports {dep!r} inside "
                        f"function {func.name!r}")

"""Import structure of the package: no cycles, no deferred intra-package
imports, no public name that nothing reaches."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nediff"
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


def test_only_the_artifact_writers_import_gridio():
    # gridio.write_csv owns the CSV layout; the physics modules compute.
    writers = {"render", "scenario", "cli"}
    importers = {name for name, deps in _graph().items() if "gridio" in deps}
    assert importers <= writers, ("gridio imported outside render, scenario and "
                                  "cli: " + ", ".join(sorted(importers - writers)))


def _defined_names(tree: ast.Module):
    """Public names bound at module level (functions, classes, constants) and
    the public methods and properties of public classes, as Class.member."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, ast.ClassDef):
            names = [node.name] + [
                f"{node.name}.{member.name}" for member in node.body
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names
                    if not any(part.startswith("_") for part in n.split(".")))


def _referenced_names(tree: ast.AST) -> set[str]:
    """Names read anywhere in the tree, bare or as an attribute."""
    return ({n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_every_public_name_is_used_outside_unit_tests():
    # The package root only re-exports, so its imports reach nothing.
    used = set()
    for name in MODULES:
        if name != "__init__":
            used |= _referenced_names(_parse(name))
    acceptance = Path(__file__).with_name("test_acceptance.py")
    used |= _referenced_names(ast.parse(acceptance.read_text(encoding="utf-8")))
    # The benchmark tracer, which patches package functions by name.
    tracer = ROOT / "perfbench" / "tracing.py"
    used |= _referenced_names(ast.parse(tracer.read_text(encoding="utf-8")))
    # Entry points, such as nediff = "nediff.cli:main".
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    used |= set(re.findall(r'"nediff\.\w+:(\w+)"', project))
    unused = [f"{name}.{defined}" for name in MODULES
              for defined in _defined_names(_parse(name))
              if defined.rpartition(".")[2] not in used]
    assert not unused, ("public names that only unit tests reach: "
                        + ", ".join(unused))


def test_one_block_runner():
    # Row blocks run on core's block pool; the sweep pool is the only other.
    users = {name for name in MODULES
             if "ThreadPoolExecutor" in (PACKAGE / f"{name}.py").read_text(encoding="utf-8")}
    assert users == {"core", "scenario"}

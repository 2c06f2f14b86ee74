"""The package's modules import one another without a cycle, so each layer
can be read, and loaded, after the layers it uses."""

import ast
from pathlib import Path
from types import ModuleType

import yolite

PACKAGE = Path(yolite.__file__).parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def internal_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports (relative imports only)."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
            found.update(n for n in names if n in MODULES)
    return found


def find_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One import cycle as a path that ends where it starts, or []."""
    state = {}  # module -> "open" while on the DFS path, "done" after

    def visit(module, path):
        state[module] = "open"
        for dep in sorted(graph[module]):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep, path + [dep])
                if cycle:
                    return cycle
        state[module] = "done"
        return []

    for module in sorted(graph):
        if module not in state:
            cycle = visit(module, [module])
            if cycle:
                return cycle
    return []


def test_package_imports_form_no_cycle():
    graph = {m: internal_imports(m) for m in MODULES}
    assert find_cycle(graph) == []
    # the edge that `detect.detect_image` needs, and the one it replaced
    assert "imageio" in graph["detect"] and "detect" not in graph["imageio"]


def test_a_cycle_is_found():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) == []


def test_all_lists_exactly_the_public_names():
    names = yolite.__all__
    assert all(hasattr(yolite, n) for n in names)
    assert names == sorted(set(names))
    public = {n for n, v in vars(yolite).items()
              if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert public == set(names)


def test_only_network_reads_the_op_table():
    """One module interprets graphs: no other package module names
    ``network.OPS``, by attribute, by name or by import."""
    readers = set()
    for module in MODULES - {"network"}:
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "OPS"
                    or isinstance(node, ast.Name) and node.id == "OPS"
                    or isinstance(node, ast.alias) and node.name == "OPS"):
                readers.add(module)
    assert readers == set()

"""The package's modules import one another without a cycle, so each layer
can be read, and loaded, after the layers it uses."""

import ast
import os
import subprocess
import sys
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


def modules_naming(names: set[str], owner: str) -> set[str]:
    """The package modules but ``owner`` that name any of ``names``, by
    attribute, by name or by import."""
    readers = set()
    for module in MODULES - {owner}:
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    or isinstance(node, ast.Name) and node.id in names
                    or isinstance(node, ast.alias) and node.name in names):
                readers.add(module)
    return readers


def test_only_network_reads_the_op_table():
    """One module interprets graphs: no other package module names
    ``network.OPS``, by attribute, by name or by import."""
    assert modules_naming({"OPS"}, "network") == set()


def test_only_tensor_reads_the_conv_schedule():
    """``tensor`` alone picks and runs conv fills: no other package module
    names ``_schedule``, ``_split`` or a fill."""
    fills = {"_fill_blocked", "_fill_channel_last", "_fold_terms", "_fill_einsum"}
    assert modules_naming({"_schedule", "_split"} | fills, "tensor") == set()
    assert modules_naming({"_schedule"}, "") == {"tensor"}  # the check can see a reader


def test_import_loads_neither_numpy_random_nor_concurrent_futures():
    """A fresh ``import yolite`` leaves both out of ``sys.modules``: the
    einsum probe hashes its terms, and ``set_parallel`` imports the thread
    pool when it first makes one."""
    code = ("import sys, yolite; "
            "print(sorted(m for m in ('numpy.random', 'concurrent.futures') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def bool_tests(module: str) -> int:
    """How many ``isinstance`` calls in ``module`` test for ``bool``, alone
    or in a tuple of types."""
    found = 0
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            types = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            found += any(isinstance(t, ast.Name) and t.id == "bool" for t in types)
    return found


def test_only_errors_states_the_integer_rule():
    """``errors.integer`` is the package's one integer check: no other
    module tests ``isinstance(..., bool)``."""
    assert {m for m in MODULES if bool_tests(m)} == {"errors"}


def functions_calling(module: str, attr: str) -> list[str]:
    """The name of the innermost function around each ``np.<attr>`` in
    ``module``, in source order ("<module>" outside any function)."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.value, ast.Name) and node.value.id == "np"):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), "<module>")
    return found


def test_tensor_states_the_finite_rule_once():
    """Inside ``tensor``, only ``_check_finite`` calls ``np.isfinite``: every
    other finiteness check there goes through it."""
    assert functions_calling("tensor", "isfinite") == ["_check_finite"]
    assert "decode_head" in functions_calling("detect", "isfinite")  # the check sees a caller

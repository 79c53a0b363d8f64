"""The package's intra-package import graph has no cycles, and every import
sits at module level."""
import ast
from pathlib import Path

import defectchain

PACKAGE_DIR = Path(defectchain.__file__).parent


def _parse_all():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE_DIR.glob("*.py"))}


def _targets(tree, modules):
    """Package modules imported anywhere in the tree, function bodies included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").startswith("defectchain."):
                out.add(node.module.split(".")[1])
            elif node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("defectchain."))
    return out & modules


def import_graph() -> dict[str, set[str]]:
    trees = _parse_all()
    modules = set(trees)
    return {name: _targets(tree, modules) for name, tree in trees.items()}


def find_cycle(graph):
    """One cycle as a list of modules, or None."""
    state = {}

    def visit(node, path):
        state[node] = "active"
        for nxt in sorted(graph[node]):
            if state.get(nxt) == "active":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt, path + [nxt])
                if found:
                    return found
        state[node] = "done"
        return None

    for start in sorted(graph):
        if start not in state:
            found = visit(start, [start])
            if found:
                return found
    return None


def test_find_cycle_detects_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


def test_import_graph_is_acyclic():
    graph = import_graph()
    assert "lax_defect" in graph["transmission_amplitudes"]
    assert find_cycle(graph) is None


def test_no_function_level_imports():
    nested = []
    for name, tree in _parse_all().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{name}.{node.name}" for inner in ast.walk(node)
                           if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert nested == []

"""The package's intra-package import graph has no cycles, every import but
the amplitude layer's deferred ones sits at module level, every public name
has a caller inside the package (through an import at module level or inside
a function), every defaulted parameter of a public function is passed inside
the package, every __slots__ field of a package class is read inside the
package, and no module imports a random generator or dataclasses."""
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


# the only function-level imports: the amplitude layer (special_functions
# and transmission_amplitudes) is imported by the functions that read it, so
# that spectrum and bae never compile it
DEFERRED_IMPORTS = {
    "cli.run_verify: .transmission_amplitudes",
    "cli.cmd_amplitude: .transmission_amplitudes",
    "transmission_matrices.t_prefactor: .transmission_amplitudes",
    "transmission_matrices._critical_crossing_scalar: .special_functions",
}


def function_level_imports(trees) -> list[str]:
    """module.function: source for every import inside a function body, the
    source as written (.module for a relative import)."""
    nested = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.ImportFrom):
                        nested.append(f"{name}.{node.name}: "
                                      f"{'.' * inner.level}{inner.module or ''}")
                    elif isinstance(inner, ast.Import):
                        nested += [f"{name}.{node.name}: {a.name}" for a in inner.names]
    return nested


def test_function_level_imports_finds_each_form():
    tree = ast.parse("import json\ndef f():\n    import os\n"
                     "    def g():\n        from .b import x, y\n    return g\n")
    assert sorted(function_level_imports({"m": tree})) == ["m.f: .b", "m.f: os", "m.g: .b"]


def test_only_the_amplitude_layer_is_imported_inside_functions():
    # any other import inside a function hides a dependency from the module
    # header; an allow-list entry the package no longer has is stale
    assert sorted(function_level_imports(_parse_all())) == sorted(DEFERRED_IMPORTS)


def _public_names(tree):
    """The names a module lists in __all__ and defines itself."""
    listed = [e.value for node in tree.body if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)
              for e in node.value.elts]
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    return [name for name in listed if name in defined]


def _bindings(tree, module, name):
    """The local name `module.name` is imported as in the tree, and the
    alias the module itself is imported as (None where it is not), by an
    import at module level or inside a function."""
    local = alias = None
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module == module and a.name == name:
                    local = a.asname or a.name
                elif node.module is None and a.name == module:
                    alias = a.asname or a.name
    return local, alias


def _binds(scope, name):
    """Whether a function binds `name` itself, so that its body means the local."""
    args = scope.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return (any(a is not None and a.arg == name for a in params)
            or any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and n.id == name
                   for n in ast.walk(scope)))


def _loads(node, local, alias, name):
    """Whether the node loads `name` as the bare name `local` or as the
    attribute `alias.name`."""
    if isinstance(node, ast.Name):
        return isinstance(node.ctx, ast.Load) and node.id == local
    if (alias and isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr == name and getattr(node.value, "id", None) == alias):
        return True
    if isinstance(node, (ast.FunctionDef, ast.Lambda)) and local and _binds(node, local):
        local = None
    return any(_loads(child, local, alias, name) for child in ast.iter_child_nodes(node))


def uncalled_public_names(trees) -> list[str]:
    """module.name for every public name no package code loads, its own
    definition (recursion) and its __all__ entry aside."""
    out = []
    for module, tree in trees.items():
        for name in _public_names(tree):
            own = [node for node in tree.body if getattr(node, "name", None) != name]
            used = any(_loads(node, name, None, name) for node in own)
            for other, other_tree in trees.items():
                local, alias = _bindings(other_tree, module, name)
                if other != module and (local or alias):
                    used = used or any(_loads(node, local, alias, name)
                                       for node in other_tree.body)
            if not used:
                out.append(f"{module}.{name}")
    return out


def test_uncalled_public_names_finds_test_only_api():
    trees = {
        "a": ast.parse("__all__ = ['f', 'g', 'h', 'k']\n"
                       "def f(): return f()\ndef g(): pass\ndef h(): pass\n"
                       "def k(): pass\ndef use(h): return h, use().f\n"),
        "b": ast.parse("from .a import g as gg\nfrom . import a as mod\n"
                       "def run(): return gg(), mod.k()\n"),
    }
    assert uncalled_public_names(trees) == ["a.f", "a.h"]
    # a name imported inside the function that calls it has a caller
    trees["c"] = ast.parse("def run():\n    from .a import h\n    return h()\n")
    assert uncalled_public_names(trees) == ["a.f"]


def test_every_public_name_has_a_caller_in_the_package():
    assert uncalled_public_names(_parse_all()) == []


# defaulted parameters that no package call passes, each with its reason
UNPASSED_DEFAULTS = {
    # clibench's tracer counts amplitude calls per route, reading `route`
    # by name from the signature of every function in its ROUTED list
    "transmission_amplitudes.amplitude(route)",
}


def _calls(nodes, local, alias, name):
    """The calls among the nodes whose callee is `name`, as the bare name
    `local` or the attribute `alias.name`."""
    def callee(func):
        if isinstance(func, ast.Name):
            return func.id == local
        return (alias is not None and isinstance(func, ast.Attribute) and func.attr == name
                and getattr(func.value, "id", None) == alias)
    return [node for top in nodes for node in ast.walk(top)
            if isinstance(node, ast.Call) and callee(node.func)]


def _passes(call, position, param):
    """Whether the call passes the parameter at `position` (None for a
    keyword-only one) named `param`, by position, by name or by unpacking."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def unpassed_defaults(trees) -> list[str]:
    """module.function(param) for every defaulted parameter of a public
    module-level function that no call in the package passes."""
    out = []
    for module, tree in trees.items():
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name in _public_names(tree):
            if name not in functions:
                continue
            calls = _calls(tree.body, name, None, name)
            for other, other_tree in trees.items():
                local, alias = _bindings(other_tree, module, name)
                if other != module and (local or alias):
                    calls += _calls(other_tree.body, local, alias, name)
            args = functions[name].args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            out += [f"{module}.{name}({param})" for position, param in defaulted
                    if not any(_passes(call, position, param) for call in calls)]
    return out


def test_unpassed_defaults_finds_test_only_options():
    trees = {
        "a": ast.parse("__all__ = ['f', 'g', 'h']\n"
                       "def f(x, y=1, z=2, *, w=3): pass\n"
                       "def g(x, y=1): pass\ndef h(x=0): pass\n"
                       "def _private(x=0): pass\ndef use(): return f(0, w=1), h(*[])\n"),
        "b": ast.parse("from . import a as mod\nfrom .a import f as ff\n"
                       "def run(): return mod.f(0, 1), ff(0, **{}), mod.g(0, y=2)\n"),
    }
    assert unpassed_defaults({"a": trees["a"]}) == ["a.f(y)", "a.f(z)", "a.g(y)"]
    assert unpassed_defaults(trees) == []


def test_every_defaulted_parameter_is_passed_in_the_package():
    # an option that only tests set is test-only API: it goes, or the
    # setting becomes a module constant that tests monkeypatch; an
    # allow-list entry that a package call now passes is stale
    found = set(unpassed_defaults(_parse_all()))
    assert sorted(found - UNPASSED_DEFAULTS) == []
    assert sorted(UNPASSED_DEFAULTS - found) == []


# __slots__ fields that no package code reads, each with its reason
UNREAD_FIELDS = {
    # the route that produced an amplitude: the label the route-agreement
    # tests compare, one result per route
    "special_functions.AmplitudeResult.route",
    # the measured bound on an amplitude's error, which the tests hold
    # against the gap between the routes and against exact values
    "special_functions.AmplitudeResult.error_estimate",
}


def unread_fields(trees) -> list[str]:
    """module.Class.field for every __slots__ field of a module-level class
    that no package code loads as an attribute `x.field` (by name: a field
    of one class counts as read where an attribute of that name is read)."""
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    out = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.Assign)
                        and any(getattr(t, "id", None) == "__slots__" for t in node.targets)):
                    out += [f"{module}.{cls.name}.{e.value}" for e in node.value.elts
                            if e.value not in read]
    return out


def test_unread_fields_finds_write_only_slots():
    trees = {
        "a": ast.parse("class A:\n    __slots__ = ('x', 'y', 'z')\n"
                       "    def __init__(self, x, y, z):\n"
                       "        self.x, self.y, self.z = x, y, z\n"
                       "    def get(self):\n        return self.x\n"
                       "class B:\n    pass\n"),
        "b": ast.parse("def use(a):\n    return a.y\ny = 1\n"),
    }
    assert unread_fields({"a": trees["a"]}) == ["a.A.y", "a.A.z"]
    assert unread_fields(trees) == ["a.A.z"]


def test_every_slots_field_is_read_in_the_package():
    # a field that only tests read is test-only API; an allow-list entry
    # that package code now reads is stale
    found = set(unread_fields(_parse_all()))
    assert sorted(found - UNREAD_FIELDS) == []
    assert sorted(UNREAD_FIELDS - found) == []


def random_imports(trees) -> list[str]:
    """module: name for every import of the stdlib random or numpy.random
    and every np.random / numpy.random attribute."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute) and node.attr == "random":
                names = [f"{getattr(node.value, 'id', '')}.random"]
            else:
                continue
            found += [f"{module}: {n}" for n in names
                      if n == "random" or n.split(".")[:2] in (["numpy", "random"],
                                                               ["np", "random"])]
    return found


def test_random_imports_finds_each_form():
    tree = ast.parse("import random\nimport numpy.random\nfrom numpy import random\n"
                     "import numpy as np\nx = np.random.default_rng(0)\n"
                     "from numpy.random import default_rng\nimport randomness\n")
    assert sorted(random_imports({"m": tree})) == [
        "m: np.random", "m: numpy.random", "m: numpy.random", "m: numpy.random",
        "m: numpy.random.default_rng", "m: random"]


def test_no_module_imports_a_random_generator():
    # verify draws its points from cli's own PCG64: numpy.random would load
    # hashlib and OpenSSL in every cold process
    assert random_imports(_parse_all()) == []


def dataclasses_imports(trees) -> list[str]:
    """module: name for every import of dataclasses or a name from it."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{module}: {n}" for n in names if n.split(".")[0] == "dataclasses"]
    return found


def test_dataclasses_imports_finds_each_form():
    tree = ast.parse("import dataclasses\nimport dataclasses as dc\n"
                     "from dataclasses import dataclass, field\nimport dataclasses_json\n"
                     "from .dataclasses import x\n")
    assert sorted(dataclasses_imports({"m": tree})) == [
        "m: dataclasses", "m: dataclasses", "m: dataclasses.dataclass", "m: dataclasses.field"]


def test_no_module_imports_dataclasses():
    # dataclasses builds each class's methods by exec of generated source in
    # every fresh process; the value classes are plain __slots__ classes
    assert dataclasses_imports(_parse_all()) == []

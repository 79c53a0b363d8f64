"""The package's intra-package import graph has no cycles, every import but
the amplitude layer's deferred ones sits at module level, every public name
has a caller inside the package (through an import at module level or inside
a function), every defaulted parameter of a public function is passed inside
the package, every __slots__ field of a package class is read inside the
package, no module imports numpy.random or dataclasses, only the
entry point imports gc, only tensor_core names its operator classes
or calls frexp, only transmission_amplitudes names the second route, no
module reads an underscore name of another package module, and the float's
exponent reach is a literal in one module only."""
import ast
import subprocess
import sys
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
UNPASSED_DEFAULTS: set[str] = set()


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


# __slots__ fields that no package code reads, each with its reason (none:
# amplitude_pair reads AmplitudeResult.error_estimate to reflect T+'s into T-'s)
UNREAD_FIELDS: set[str] = set()


def _class_names(annotation, classes) -> set[str]:
    """The package classes an annotation names (`X`, `"X"` or `X | None`)."""
    if annotation is None:
        return set()
    text = annotation.value if isinstance(annotation, ast.Constant) else ast.unparse(annotation)
    return {part.strip().strip("'\"") for part in str(text).split("|")} & set(classes)


def typed_reads(trees) -> set[tuple[str, str]]:
    """(class, attribute) for every attribute load `x.attr` whose receiver x
    is known to be an instance of a package class: `self` in a method, a
    parameter annotated with the class, a name assigned from a call to the
    class or to a function annotated to return it, a name an isinstance
    check names it for, or an attribute of a known receiver typed by the
    class's __init__ parameter or property annotation.  A receiver of
    unknown type reads no class's field."""
    classes = {node.name: node for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    returns, attrs = {}, {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                returns.setdefault(node.name, set()).update(_class_names(node.returns, classes))
    for name, cls in classes.items():
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                for a in node.args.args[1:] + node.args.kwonlyargs:
                    attrs[name, a.arg] = _class_names(a.annotation, classes)
            elif isinstance(node, ast.FunctionDef) and any(
                    getattr(d, "id", None) == "property" for d in node.decorator_list):
                attrs[name, node.name] = _class_names(node.returns, classes)

    def typeof(expr, env) -> set[str]:
        if isinstance(expr, ast.Name):
            return env.get(expr.id, set())
        if isinstance(expr, ast.Attribute):
            owners = typeof(expr.value, env)
            return set().union(*(attrs.get((c, expr.attr), set()) for c in owners))
        if isinstance(expr, ast.Call):
            name = getattr(expr.func, "id", getattr(expr.func, "attr", None))
            return {name} if name in classes else set(returns.get(name, ()))
        return set()

    read = set()

    def visit(fn, env, owner):
        env = dict(env)
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        for i, a in enumerate(args):
            env[a.arg] = _class_names(a.annotation, classes) or (
                {owner} if owner and i == 0 else set())
        nodes = [n for stmt in (fn.body if isinstance(fn.body, list) else [fn.body])
                 for n in ast.walk(stmt)]
        for node in nodes:
            pairs = []
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                if isinstance(target, ast.Name):
                    pairs = [(target, value)]
                elif (isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                      and len(target.elts) == len(value.elts)):
                    pairs = zip(target.elts, value.elts)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                  and isinstance(node.args[0], ast.Name)):
                kinds = getattr(node.args[1], "elts", [node.args[1]])
                env[node.args[0].id] = env.get(node.args[0].id, set()) | {
                    k.id for k in kinds if getattr(k, "id", None) in classes}
            for target, value in pairs:
                if isinstance(target, ast.Name):
                    env[target.id] = env.get(target.id, set()) | typeof(value, env)
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.update((c, node.attr) for c in typeof(node.value, env))
            elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
                visit(node, env, None)

    for tree in trees.values():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                visit(top, {}, None)
            elif isinstance(top, ast.ClassDef):
                for node in top.body:
                    if isinstance(node, ast.FunctionDef):
                        visit(node, {}, top.name)
    return read


def unread_fields(trees) -> list[str]:
    """module.Class.field for every __slots__ field of a module-level class
    that no package code loads as an attribute of an instance of that class
    (`typed_reads`): a field of one name in another class, or of an object
    of unknown type, does not count."""
    read = typed_reads(trees)
    out = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.Assign)
                        and any(getattr(t, "id", None) == "__slots__" for t in node.targets)):
                    out += [f"{module}.{cls.name}.{e.value}" for e in node.value.elts
                            if (cls.name, e.value) not in read]
    return out


def test_unread_fields_finds_write_only_slots():
    trees = {
        "a": ast.parse("class A:\n    __slots__ = ('x', 'y', 'z', 'w')\n"
                       "    def __init__(self, x, y, z, w):\n"
                       "        self.x, self.y, self.z, self.w = x, y, z, w\n"
                       "    def get(self):\n        return self.x\n"
                       "class B:\n    __slots__ = ('z',)\n"
                       "    def __init__(self, z):\n        self.z = z\n"
                       "def make() -> A:\n    return A(1, 2, 3, 4)\n"),
        "b": ast.parse("from .a import A, B, make\n"
                       "def use(a: A, b: B, other):\n"
                       "    return a.y, b.z, other.w, make().w if isinstance(other, B) else 0\n"
                       "y = 1\n"),
    }
    assert unread_fields({"a": trees["a"]}) == ["a.A.y", "a.A.z", "a.A.w", "a.B.z"]
    # A.z is read only as B's field, and other.w on an object of unknown type
    assert unread_fields(trees) == ["a.A.z"]
    trees["b"] = ast.parse("def use(args, a):\n    return args.y, a.z\n")
    assert unread_fields(trees) == ["a.A.y", "a.A.z", "a.A.w", "a.B.z"]


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
    # verify draws its points from the stdlib random, which numpy loads
    # itself; numpy.random would load hashlib and OpenSSL in every cold process
    assert [found for found in random_imports(_parse_all())
            if not found.endswith(": random")] == []


def test_numpy_alone_loads_random_but_not_hashlib():
    # so verify's seeded generator costs a cold process no import
    code = "import sys, numpy; print('random' in sys.modules, 'hashlib' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert run.stdout.split() == ["True", "False"]


def imports_of(top: str, trees) -> list[str]:
    """module: name for every import of the module `top` or a name from it."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{module}: {n}" for n in names if n.split(".")[0] == top]
    return found


def test_dataclasses_imports_finds_each_form():
    tree = ast.parse("import dataclasses\nimport dataclasses as dc\n"
                     "from dataclasses import dataclass, field\nimport dataclasses_json\n"
                     "from .dataclasses import x\n")
    assert sorted(imports_of("dataclasses", {"m": tree})) == [
        "m: dataclasses", "m: dataclasses", "m: dataclasses.dataclass", "m: dataclasses.field"]


def test_no_module_imports_dataclasses():
    # dataclasses builds each class's methods by exec of generated source in
    # every fresh process; the value classes are plain __slots__ classes
    assert imports_of("dataclasses", _parse_all()) == []


def test_only_the_entry_point_imports_gc():
    # python -m defectchain freezes the heap once main has returned; no
    # module touches the collector at import or inside cli.main
    assert imports_of("gc", _parse_all()) == ["__main__: gc"]


TENSOR_CLASSES = ("TensorOperator", "TensorSpace")


def tensor_core_names_used(trees, names) -> list[str]:
    """module: name for every name, attribute or import of one of `names`
    outside tensor_core."""
    found = []
    for module, tree in trees.items():
        if module == "tensor_core":
            continue
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in names:
                found.append(f"{module}: {name}")
    return found


def test_tensor_core_names_used_finds_each_form():
    trees = {"m": ast.parse("from .tensor_core import TensorSpace as S\n"
                            "from . import tensor_core\n"
                            "x = tensor_core.TensorOperator(S((2,)), m)\n"
                            "def f(op: TensorOperator): return op\n"
                            "from math import frexp\n"
                            "y = np.frexp(x)[1] + math.frexp(2.0)[1]\n"),
             "tensor_core": ast.parse("class TensorSpace: pass\ne = math.frexp(1.0)\n")}
    assert sorted(tensor_core_names_used(trees, TENSOR_CLASSES)) == [
        "m: TensorOperator", "m: TensorOperator", "m: TensorSpace"]
    assert tensor_core_names_used(trees, ("frexp",)) == ["m: frexp"] * 3


def test_only_tensor_core_names_the_tensor_classes():
    # every operator builder returns a plain array; the classes stay only
    # for tensor_core's commutator product, which clibench's tracer counts
    assert tensor_core_names_used(_parse_all(), TENSOR_CLASSES) == []


def test_only_tensor_core_calls_frexp():
    # every residual norm takes its power-of-two scaling from
    # tensor_core.pow2_scaled, the one place that reads an exponent
    assert tensor_core_names_used(_parse_all(), ("frexp",)) == []


def second_route_choices(trees) -> list[str]:
    """module: line of every conditional expression that picks between the
    route names "sum" and "integral", either way round."""
    return [f"{module}: {node.lineno}" for module, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.IfExp)
            and {getattr(node.body, "value", None),
                 getattr(node.orelse, "value", None)} == {"sum", "integral"}]


def test_second_route_choices_finds_each_form():
    tree = ast.parse('a = "sum" if x else "integral"\n'
                     'f("integral" if y == NONCRITICAL else "sum")\n'
                     'b = "sum" if x else "closed"\n'
                     'c = {"sum": 1, "integral": 2}\n')
    assert second_route_choices({"m": tree}) == ["m: 1", "m: 2"]


def test_only_transmission_amplitudes_names_the_second_route():
    # transmission_amplitudes.second_route decides, once, which route the
    # closed forms are checked against; verify, amplitude and S_s ask it
    assert [entry.split(":")[0] for entry in second_route_choices(_parse_all())] == [
        "transmission_amplitudes"]


def private_reads(trees, module) -> list[str]:
    """source: name for every underscore name, dunders aside, that `module`
    reads from another package module: imported from it by name, or loaded
    as an attribute of the alias the module imports it as."""
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    found, aliases = [], {}
    for node in ast.walk(trees[module]):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            found += [f"{node.module}: {a.name}" for a in node.names if private(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            aliases.update({a.asname or a.name: a.name for a in node.names if a.name in trees})
        elif isinstance(node, ast.Import):
            aliases.update({a.asname: a.name.split(".")[1] for a in node.names
                            if a.asname and a.name.startswith("defectchain.")})
    for node in ast.walk(trees[module]):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and getattr(node.value, "id", None) in aliases):
            found.append(f"{aliases[node.value.id]}: {node.attr}")
    return found


def test_private_reads_finds_each_form():
    trees = {"m": ast.parse("from . import a as alias, b, __version__\n"
                            "from .a import _x, y, __all__\nimport defectchain.b as bb\n"
                            "def f(): return alias._z, b._w, bb._v, alias.y, _own, other._u\n"
                            "_own = alias.__name__\n"),
             "a": ast.parse(""), "b": ast.parse("")}
    assert sorted(private_reads(trees, "m")) == ["a: _x", "a: _z", "b: _v", "b: _w"]


def test_no_module_reads_a_private_name_of_another():
    # what a module needs of another layer is that layer's public API
    trees = _parse_all()
    assert [found for module in trees for found in private_reads(trees, module)] == []


def literal_modules(trees, value) -> list[str]:
    """The modules whose code holds the number `value` as a literal (a
    bool is not a number here)."""
    return sorted(module for module, tree in trees.items()
                  if any(isinstance(node, ast.Constant) and type(node.value) in (int, float)
                         and node.value == value for node in ast.walk(tree)))


def test_literal_modules_finds_ints_and_floats():
    trees = {"a": ast.parse("x = 700.0\n"), "b": ast.parse("def f(y=700): return True\n"),
             "c": ast.parse("s = '700'  # 700\nz = 7000\n")}
    assert literal_modules(trees, 700) == ["a", "b"]
    assert literal_modules(trees, 1) == []


def test_the_exponent_reach_is_one_literal():
    # lax_defect, special_functions, monodromy and transmission_amplitudes
    # derive their bounds from the package's EXP_REACH, LN_MAX and LN_TINY
    assert literal_modules(_parse_all(), 700) == ["__init__"]

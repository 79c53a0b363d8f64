"""Per-module self time and work counts for `defectchain`, measured from
outside the package.

`Tracer.install` wraps the public functions of each module (and the
operator methods of `tensor_core`) and rebinds each wrapper in every
package namespace that holds the original, so calls made through names
imported with ``from .module import name`` are seen too.  A module's self
time is the time its spans cover minus the time their child spans cover,
so the self times of one pass add up to the time spent inside
`cli.main`.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "defectchain"
MODULES = ("cli", "special_functions", "transmission_amplitudes", "lax_defect",
           "oscillator_reps", "transmission_matrices", "monodromy", "tensor_core")

# tensor_core classes whose methods carry the operator work
TENSOR_METHODS = {
    "TensorSpace": ("__post_init__", "check_factor", "__mul__"),
    "TensorOperator": ("__post_init__", "identity", "__matmul__", "__add__", "__sub__",
                       "__mul__", "__rmul__", "__neg__", "frobenius", "reshaped"),
}

# public amplitude functions whose `route` argument is counted
ROUTED = ("amplitude", "breather_amplitude", "type2_amplitude", "soliton_s_amplitude")


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def useful_states(dims: tuple[int, ...], defect_dim: int) -> int:
    """States with conserved charge Q <= D - 2, the default sector ceiling,
    grading each spin site 0/1 and the defect by its occupation number as
    `monodromy.charge_vector` does."""
    counts = {0: 1}
    for d in dims:
        nxt: dict[int, int] = {}
        for q, n in counts.items():
            for k in range(d):
                nxt[q + k] = nxt.get(q + k, 0) + n
        counts = nxt
    return sum(n for q, n in counts.items() if q <= defect_dim - 2)


class Tracer:
    """Collects spans and counters while installed; `snapshot` summarises."""

    def __init__(self):
        self._bindings: list[tuple[object, str, object]] = []
        self.self_s = dict.fromkeys(MODULES, 0.0)
        self.inclusive_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.chains: list[tuple[tuple[int, ...], int]] = []
        self._stack: list[float] = []
        self._depth: Counter = Counter()

    def reset(self):
        """Zero every total in place (installed wrappers hold references)."""
        self.self_s.update(dict.fromkeys(MODULES, 0.0))
        for store in (self.inclusive_s, self.calls, self.counts, self.chains,
                      self._stack, self._depth):
            store.clear()

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def _wrap(self, module: str, qualname: str, fn, before=None, after=None):
        stack, depth = self._stack, self._depth
        self_s, inclusive_s, calls = self.self_s, self.inclusive_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack.append(0.0)
            level = depth[qualname]
            depth[qualname] = level + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[module] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                depth[qualname] = level
                if level == 0:
                    inclusive_s[qualname] += dt
                calls[qualname] += 1
            if after is not None:
                after(result)
            return result

        return traced

    def _hooks(self, module: str, name: str, fn):
        counts = self.counts
        before = after = None
        if name == "log_gamma":
            def before(args, kwargs):
                counts["log_gamma.points"] += int(np.size(args[0]))
        elif name in ROUTED:
            params = list(inspect.signature(fn).parameters.values())
            index = [p.name for p in params].index("route")
            default = params[index].default

            def before(args, kwargs):
                route = kwargs.get("route", args[index] if len(args) > index else default)
                counts[f"route.{route}"] += 1
        elif name == "build_monodromy":
            def before(args, kwargs):
                self.chains.append((args[0].dims, args[0].rep.dim))
        elif module == "tensor_core":
            def after(result):
                entries = getattr(result, "entries", result)
                if isinstance(entries, np.ndarray):
                    counts["bytes_allocated"] += entries.nbytes
            if name == "TensorOperator.__matmul__":
                def before(args, kwargs):
                    n = args[0].entries.shape[0]
                    counts["matmul_flops"] += 8 * n ** 3
        return before, after

    def install(self):
        """Wrap every traced function and rebind it package-wide."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for module in MODULES:
            mod = sys.modules[f"{PACKAGE}.{module}"]
            for name, fn in _public_functions(mod):
                before, after = self._hooks(module, name, fn)
                wrappers[id(fn)] = self._wrap(module, f"{module}.{name}", fn, before, after)
        tc = sys.modules[f"{PACKAGE}.tensor_core"]
        for cls_name, methods in TENSOR_METHODS.items():
            cls = getattr(tc, cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                qual = f"{cls_name}.{meth}"
                before, after = self._hooks("tensor_core", qual, fn)
                wrapped = self._wrap("tensor_core", f"tensor_core.{qual}", fn, before, after)
                self._bind(cls, meth, classmethod(wrapped) if raw is not fn else wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._bind(mod, attr, wrappers[id(value)])

    def _bind(self, owner, attr, value):
        self._bindings.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        useful = sum(useful_states(dims, d) for dims, d in self.chains)
        total = sum(int(np.prod(dims)) for dims, _ in self.chains)
        routed = [f"transmission_amplitudes.{name}" for name in ROUTED]
        return {
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "sector_fraction": useful / total if total else 0.0,
            "amplitude_calls": sum(self.calls[q] for q in routed),
            "amplitude_s": sum(self.inclusive_s[q] for q in routed),
        }

"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps every public function and method of the eight
``orliczpde`` modules (the layers) and rebinds each wrapper in every
``orliczpde.*`` namespace and module-level dict that holds the
original, so calls through names imported elsewhere (``cli`` and
``catalog`` import ``phi_circ``, ``sobolev_conjugate`` and friends by
name; ``cli.HANDLERS`` holds the command handlers) are seen too.  Each
call records one span: name, start, end, parent span and operation id.
Spans stay in memory and are written out once, by ``save``.  Calls into
private helpers are not spans; their time lands in the caller's self
time.  A few wrappers also count work (see ``_hooks``).
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("young", "anisotropic", "embedding", "rearrangement", "radial",
          "grid", "catalog", "cli")
PUBLIC_DUNDERS = ("__init__", "__call__")
COUNTERS = ("young.derivative_calls", "young.inverse_points",
            "young.legendre_points", "anisotropic.levels",
            "anisotropic.phi_points", "embedding.varrho_points",
            "rearrangement.integrand_points", "grid.solves",
            "grid.newton_iters", "grid.hess_applies", "grid.energy_evals",
            "grid.maxiter_hits")


def _is_public(name):
    return not name.startswith("_") or name in PUBLIC_DUNDERS


class Tracer:
    def __init__(self):
        self.span_names = []          # name id -> "layer.qualname"
        self._name_layer = []         # name id -> layer index
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.op_id = -1               # set by the runner before each op
        self.counts = Counter()
        self._stack = [-1]
        self._undo = []               # (owner, key, original, is_dict)

    # -- wrapping -----------------------------------------------------

    def _wrap(self, fn, layer, qualname):
        name_id = len(self.span_names)
        self.span_names.append(f"{layer}.{qualname}")
        self._name_layer.append(LAYERS.index(layer))
        hook = _hooks(self, layer, qualname)
        start, end, parent, name, op = (self.start, self.end, self.parent,
                                        self.name, self.op)
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = len(start)
            start.append(0.0)
            end.append(0.0)
            parent.append(stack[-1])
            name.append(name_id)
            op.append(self.op_id)
            finish = None
            if hook is not None:
                args, kwargs, finish = hook(args, kwargs)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                stack.pop()
                start[sid], end[sid] = t0, t1
                if finish is not None:
                    finish(None, exc)
                raise
            t1 = perf_counter()
            stack.pop()
            start[sid], end[sid] = t0, t1
            if finish is not None:
                finish(result, None)
            return result

        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__qualname__ = getattr(fn, "__qualname__", qualname)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key], False))
            setattr(owner, key, value)

    def install(self):
        """Wrap the layers' public callables."""
        mods = [sys.modules[f"orliczpde.{layer}"] for layer in LAYERS]
        public_classes = tuple(
            obj for mod in mods for key, obj in vars(mod).items()
            if inspect.isclass(obj) and obj.__module__ == mod.__name__
            and not key.startswith("_")
            and not issubclass(obj, BaseException))
        wrapped = {}  # id(original function) -> wrapper
        for layer, mod in zip(LAYERS, mods):
            for key, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not key.startswith("_"):
                    wrapped[id(obj)] = self._wrap(obj, layer, key)
                elif (inspect.isclass(obj)
                      and issubclass(obj, public_classes)
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(obj, layer)
        for modname, mod in list(sys.modules.items()):
            if modname != "orliczpde" and not modname.startswith(
                    "orliczpde."):
                continue
            for key, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, key, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if inspect.isfunction(v) and id(v) in wrapped:
                            self._set(obj, k, wrapped[id(v)])

    def _wrap_class(self, cls, layer):
        for key, attr in list(vars(cls).items()):
            if not _is_public(key):
                continue
            qual = f"{cls.__name__}.{key}"
            if inspect.isfunction(attr):
                new = self._wrap(attr, layer, qual)
            elif isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(attr.__func__, layer, qual))
            elif isinstance(attr, classmethod):
                new = classmethod(self._wrap(attr.__func__, layer, qual))
            elif isinstance(attr, property) and attr.fget is not None:
                new = property(self._wrap(attr.fget, layer, qual),
                               attr.fset, attr.fdel, attr.__doc__)
            else:
                continue
            self._set(cls, key, new)

    def uninstall(self):
        for owner, key, original, is_dict in reversed(self._undo):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- results ------------------------------------------------------

    def arrays(self):
        """Copies of the span columns: start, end, parent, name id."""
        return (np.array(self.start, dtype=float),
                np.array(self.end, dtype=float),
                np.array(self.parent, dtype=np.int64),
                np.array(self.name, dtype=np.int64))

    def self_times(self):
        """Each span's duration minus the part its child spans cover."""
        start, end, parent, _ = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def layer_metrics(self):
        """Self time and call count per layer, plus the work counters."""
        _, _, _, name = self.arrays()
        layer = np.asarray(self._name_layer, dtype=np.int64)[name]
        self_s = np.bincount(layer, weights=self.self_times(),
                             minlength=len(LAYERS))
        calls = np.bincount(layer, minlength=len(LAYERS))
        out = {}
        for i, lay in enumerate(LAYERS):
            out[f"{lay}.self_s"] = float(self_s[i])
            out[f"{lay}.calls"] = int(calls[i])
        out.update((key, self.counts[key]) for key in COUNTERS)
        trials = self.counts["grid.energy_evals"] - self.counts["grid.solves"]
        out["grid.linesearch_accept_ratio"] = (
            self.counts["grid.newton_iters"] / trials if trials > 0 else 0.0)
        return out

    def children_of(self, span_name):
        """Names of spans whose parent is a span called ``span_name``."""
        _, _, parent, name = self.arrays()
        ids = {i for i, n in enumerate(self.span_names) if n == span_name}
        is_parent = np.isin(name, list(ids))
        kids = name[(parent >= 0) & is_parent[np.maximum(parent, 0)]]
        return {self.span_names[k] for k in np.unique(kids)}

    def save(self, path, op_names):
        start, end, parent, name = self.arrays()
        np.savez_compressed(
            path, start=start, end=end, parent=parent, name=name,
            op=np.array(self.op, dtype=np.int64),
            span_names=np.asarray(self.span_names),
            op_names=np.asarray(op_names))


# ---------------------------------------------------------------------
# work counters, attached to the wrappers of the functions that do the
# counted work


def _size(args, kwargs, pos, key):
    x = args[pos] if len(args) > pos else kwargs.get(key)
    return int(np.size(x))


def _hooks(tr, layer, qualname):
    """Return ``hook(args, kwargs) -> (args, kwargs, finish)`` or None."""
    c = tr.counts
    method = qualname.rpartition(".")[2]
    cls = qualname.rpartition(".")[0]

    def count(key, pos=None, argname=None):
        def hook(args, kwargs):
            c[key] += 1 if pos is None else _size(args, kwargs, pos, argname)
            return args, kwargs, None
        return hook

    if layer == "young" and cls:
        if method == "derivative":
            if cls == "LegendreConjugate":
                inner = count("young.legendre_points", 1, "s")

                def both(args, kwargs):
                    c["young.derivative_calls"] += 1
                    return inner(args, kwargs)
                return both
            return count("young.derivative_calls")
        if method == "inverse":
            return count("young.inverse_points", 1, "y")
        if qualname == "LegendreConjugate.value":
            return count("young.legendre_points", 1, "s")
    if layer == "anisotropic":
        if qualname == "sublevel_measure":
            return count("anisotropic.levels")
        if cls and method == "value":
            def rows(args, kwargs):
                self_, xi = args[0], (args[1] if len(args) > 1
                                      else kwargs["xi"])
                c["anisotropic.phi_points"] += int(np.size(xi)) // self_.n
                return args, kwargs, None
            return rows
    if layer == "embedding" and qualname == "sobolev_conjugate":
        def varrho(args, kwargs):
            def finish(prof, exc):
                if prof is None:
                    return
                bound = prof.varrho_n.log_value

                def counted(log_t, *a, **k):
                    c["embedding.varrho_points"] += int(np.size(log_t))
                    return bound(log_t, *a, **k)
                prof.varrho_n.log_value = counted
            return args, kwargs, finish
        return varrho
    if layer == "rearrangement" and qualname == "improper_integral":
        def integrand(args, kwargs):
            fn = args[0] if args else kwargs["fn"]

            def counted(s, *a, **k):
                c["rearrangement.integrand_points"] += int(np.size(s))
                return fn(s, *a, **k)
            if args:
                args = (counted, *args[1:])
            else:
                kwargs = {**kwargs, "fn": counted}
            return args, kwargs, None
        return integrand
    if layer == "grid":
        if qualname == "OperatorSpec.flux":
            return count("grid.flux_calls")
        if qualname == "OperatorSpec.hess_apply":
            return count("grid.hess_applies")
        if qualname == "OperatorSpec.energy_density":
            return count("grid.energy_evals")
        if qualname == "solve":
            return _solve_hook(c)
    return None


def _solve_hook(c):
    from orliczpde import grid

    max_iter_default = inspect.signature(grid.solve).parameters[
        "max_iter"].default
    positions = list(inspect.signature(grid.solve).parameters)

    def hook(args, kwargs):
        if "max_iter" in kwargs:
            max_iter = kwargs["max_iter"]
        elif len(args) > positions.index("max_iter"):
            max_iter = args[positions.index("max_iter")]
        else:
            max_iter = max_iter_default
        flux_before = c["grid.flux_calls"]

        def finish(result, exc):
            # one flux call at the start, then one per accepted step
            steps = c["grid.flux_calls"] - flux_before - 1
            c["grid.solves"] += 1
            c["grid.newton_iters"] += max(steps, 0)
            if isinstance(exc, grid.SolveError) or steps >= max_iter:
                c["grid.maxiter_hits"] += 1
        return args, kwargs, finish
    return hook

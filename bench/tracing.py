"""Span tracing installed from outside the program.

``install`` replaces the public functions of the layer modules with thin
wrappers.  Each call records one span: the function's name, its start and
end time, the span that was open when it started (its parent) and the id
of the benchmark operation in progress.  Spans live in flat arrays in
memory and are written out once, at the end of a pass.

A layer's self time is the duration of its spans minus the durations of
their direct child spans, so time in a wrapped callee is charged to the
callee only.  Unwrapped helpers (``bitsets``, private functions) are
charged to their wrapped caller.

The code binds functions both through ``from .x import f`` at module level
and through imports inside function bodies, so every attribute of every
``turan_matroids`` module that refers to an original function is rebound
to its wrapper, and ``assert_complete`` checks that no module still holds
an unwrapped original.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

PACKAGE = "turan_matroids"

# Modules whose public functions are wrapped.  ``bitsets`` is left out on
# purpose: its helpers run tens of millions of times per pass and would
# swamp the trace; their time counts toward the caller's self time.
LAYERS = (
    "hypergraphs",
    "matroid",
    "minors",
    "geometry",
    "lagrangian",
    "canonical",
    "formats",
    "rank3",
    "extremal",
    "cli",
)

# ``cli.main`` is the command line's only entry point; the ``cmd_*``
# handlers and build_parser are its internals, so their argument
# parsing and formatting time stays in ``cli.main``'s self time.
WRAP_ONLY = {"cli": ("main",)}


def _family_pairs(args, kwargs, result):
    family = args[1] if len(args) > 1 else kwargs["family"]
    return len(family) ** 2


def _bases_scanned(args, kwargs, result):
    M = args[0] if args else kwargs["M"]
    return len(M.bases)


def _truthy(args, kwargs, result):
    return bool(result)


def _first_truthy(args, kwargs, result):
    return bool(result[0])


# Counts computed at a layer boundary from a call's arguments or result:
# wrapped function -> (counter name, count of one call).
PROBES = {
    "matroid.exchange_violation": ("matroid.exchange_violation.pairs", _family_pairs),
    "matroid.rank_of": ("matroid.rank_of.bases_scanned", _bases_scanned),
    "hypergraphs.daisy_completed_by_edge": ("hypergraphs.daisy_completed_by_edge.hits", _truthy),
    "minors.has_uniform_restriction": ("minors.has_uniform_restriction.found", _first_truthy),
}


class Tracer:
    """In-memory span store plus the operation id that new spans carry."""

    def __init__(self):
        self.names = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.op = 0
        self.extra = {}
        self.originals = {}

    def reset(self):
        """Drop recorded spans; arrays are cleared in place because the
        wrappers hold references to them."""
        for arr in (self.name_ids, self.parents, self.ops, self.starts, self.ends):
            del arr[:]
        del self.stack[1:]
        for key in self.extra:
            self.extra[key] = 0

    def wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        key, count = PROBES.get(qualname, (None, None))
        clock = time.perf_counter
        name_ids, parents, ops = self.name_ids, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self.stack
        extra = self.extra
        tracer = self
        if key is not None:
            extra[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if key is not None and tracer.op:
                extra[key] += count(args, kwargs, result)
            return result

        self.originals[fn] = wrapper
        return wrapper

    def summary(self):
        """Per wrapped function: (calls, self seconds) over spans recorded
        inside benchmark operations (op id > 0)."""
        import numpy as np

        n = len(self.starts)
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        if n == 0:
            return calls, self_s
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        name_ids = np.frombuffer(self.name_ids, dtype=np.int32)
        ops = np.frombuffer(self.ops, dtype=np.int32)
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        inside = ops > 0
        k = len(self.names)
        call_counts = np.bincount(name_ids[inside], minlength=k)
        own_sums = np.bincount(name_ids[inside], weights=own[inside], minlength=k)
        for i, name in enumerate(self.names):
            calls[name] = int(call_counts[i])
            self_s[name] = float(own_sums[i])
        return calls, self_s

    def write(self, path):
        """Write every recorded span to ``path`` (numpy .npz)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            op=np.frombuffer(self.ops, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )


def package_modules():
    """Every importable ``turan_matroids`` module, imported.  ``__main__``
    is skipped: importing it runs the command line."""
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name == "__main__":
            continue
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


def _layer_functions(layer: str):
    mod = importlib.import_module(f"{PACKAGE}.{layer}")
    only = WRAP_ONLY.get(layer)
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != mod.__name__:
            continue
        if only is not None and name not in only:
            continue
        yield name, obj


def install() -> Tracer:
    """Wrap the layer functions and rebind every module attribute that
    refers to one of them."""
    tracer = Tracer()
    for layer in LAYERS:
        for name, fn in _layer_functions(layer):
            tracer.wrap(f"{layer}.{name}", fn)
    originals = tracer.originals
    for mod in package_modules():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in originals:
                setattr(mod, attr, originals[obj])
    assert_complete(tracer)
    return tracer


def unwrapped_references(tracer: Tracer):
    """(module, attribute) pairs that still hold an original function,
    directly or inside a module-level dict, list or tuple."""
    originals = tracer.originals
    found = []
    for mod in package_modules():
        for attr, obj in vars(mod).items():
            values = [obj]
            if isinstance(obj, dict):
                values = list(obj.values())
            elif isinstance(obj, (list, tuple)):
                values = list(obj)
            if any(inspect.isfunction(v) and v in originals for v in values):
                found.append((mod.__name__, attr))
    return found


def assert_complete(tracer: Tracer):
    leftover = unwrapped_references(tracer)
    if leftover:
        raise RuntimeError(f"trace incomplete, unwrapped references: {leftover}")

"""Span tracing of localglmnet's public functions, installed from outside the package.

``install`` wraps every public function defined in the layer modules and
rebinds every module-level alias of it inside the package (``from .train
import fit`` copies ``fit`` into ``cli`` and ``__init__``; ``train`` calls
``forward`` through its own globals), so each call records one span:
name, start, end, parent span and the work counts named below. Spans stay
in memory; the caller writes them out when the command ends.

``summarize`` turns a list of spans into per-name inclusive times, self
times, call counts and summed work counts.
"""

import functools
import importlib
import inspect
import os
import sys
import time

LAYERS = ("data", "linalg", "families", "model", "train", "interpret", "svg", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows_counter(fn):
    """Count the rows of a function's ``X`` argument."""
    pos = list(inspect.signature(fn).parameters).index("X")
    return lambda args, kwargs, result: {"rows": len(_arg(args, kwargs, pos, "X"))}


def _grad_counter(fn):
    """Rows plus matmul FLOPs computed from the layer shapes of the spec.

    Per row: forward 2*S, weight gradients 2*S, back-propagated deltas
    2*(S - d0*d1), where S is the sum of d_in*d_out over the tower layers.
    """
    rows = _rows_counter(fn)

    def count(args, kwargs, result):
        out = rows(args, kwargs, result)
        dims = _arg(args, kwargs, 1, "spec").layer_dims
        s = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
        out["flop"] = out["rows"] * (6 * s - 2 * dims[0] * dims[1])
        return out
    return count


def _counter(layer, name, fn):
    if (layer, name) == ("data", "load_csv"):
        return lambda a, k, r: {"rows": r.n, "bytes": os.path.getsize(_arg(a, k, 0, "path"))}
    if (layer, name) == ("data", "write_csv"):
        return lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))}
    if (layer, name) == ("families", "fit_glm"):
        return lambda a, k, r: {"iters": r.n_iter}
    if (layer, name) == ("train", "fit"):
        return lambda a, k, r: {"epoch_s": list(r[1].epoch_seconds)}
    if (layer, name) == ("model", "loss_and_param_grads"):
        return _grad_counter(fn)
    if layer == "svg":
        return lambda a, k, r: {"bytes": len(r.encode("utf-8"))}
    if "X" in inspect.signature(fn).parameters:
        return _rows_counter(fn)
    return None


class Tracer:
    """Records spans as ``[name, start, end, parent_index, counts]`` lists."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result
        return traced


def install(tracer):
    """Wrap the public functions of every layer module; return the alias count.

    Must run after ``localglmnet.cli`` is imported and before it is called.
    """
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"localglmnet.{layer}")
        for name, obj in list(vars(mod).items()):
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = tracer.wrap(f"{layer}.{name}", obj, _counter(layer, name, obj))
    aliases = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "localglmnet" and not modname.startswith("localglmnet."):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
                aliases += 1
    return aliases


def _ancestors(spans, span):
    parent = span[3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def summarize(spans):
    """Per span name: inclusive seconds, self seconds, calls and summed counts.

    Inclusive time counts only spans with no ancestor of the same name, so
    a function that calls itself through another is not counted twice.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out = {}
    for i, span in enumerate(spans):
        name, start, end, _, counts = span
        rec = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": {}})
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child_s[i]
        if name not in _ancestors(spans, span):
            rec["s"] += end - start
        for key, value in (counts or {}).items():
            if isinstance(value, list):
                rec["counts"].setdefault(key, []).extend(value)
            else:
                rec["counts"][key] = rec["counts"].get(key, 0) + value
    return out


def under(spans, name, ancestor, exclude=None):
    """Spans called ``name`` that run inside ``ancestor`` but not inside ``exclude``."""
    found = []
    for span in spans:
        if span[0] == name:
            above = set(_ancestors(spans, span))
            if ancestor in above and exclude not in above:
                found.append(span)
    return found

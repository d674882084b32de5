"""Spans around calls into freeprob, installed from outside the package.

``Tracer.install()`` rebinds every public function of every freeprob
module at each module binding that refers to it, so a call from one layer
into another is traced as well as a call from the benchmark.  A few
public methods are wrapped on their classes.  Each span keeps its name,
start, end, parent and job id; spans stay in memory until the run ends,
when ``layer_metrics`` folds them into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

LAYERS = (
    "partitions",
    "functionals",
    "freeness",
    "models",
    "limits",
    "infdiv",
    "fock",
    "dsl",
    "jsonio",
    "cli",
)

# Per-element helpers: called once per partition, word or entry, so a span
# would cost more than the work inside it.  Generator functions are skipped
# as well, since the call returns before the work is done.
SKIP = {
    "as_scalar",
    "leq",
    "catalan_number",
    "block_moment_product",
    "block_cumulant_product",
    "kind_of",
}

METHODS = {
    "fock": {
        "FockModel": ("levy_increment", "creation", "annihilation", "gauge", "moment_table"),
        "PolySpace": ("__init__",),
    },
    "dsl": {"Session": ("execute",)},
}

TRANSFORMS = ("functionals.moments_to_cumulants", "functionals.cumulants_to_moments")
OPERATOR_BUILDERS = ("levy_increment", "creation", "annihilation", "gauge")


def _counts(name, args, out, counters):
    """Work counts read at the boundary of a finished call."""
    short = name.rsplit(".", 1)[-1]
    if name in TRANSFORMS:
        counters["functionals.words"] += len(args[0]._table)
    elif name == "freeness.free_product":
        counters["freeness.words"] += len(out._table)
    elif name == "freeness.check_freeness":
        counters["freeness.words"] += out.checked_words
    elif name.startswith("limits.") and name.endswith("_limit_check"):
        counters["limits.rows"] += len(out.rows)
    elif name == "infdiv.psd_certificate":
        counters["infdiv.pass" if out.psd else "infdiv.fail"] += 1
        counters["infdiv.gram_dim"] = max(counters["infdiv.gram_dim"], out.dimension)
    elif name == "partitions.enumerate_nc":
        counters["partitions.nc_listed"] += len(out)
    elif name == "partitions.mobius":
        counters["partitions.mobius_calls"] += 1
    elif name.startswith("fock.FockModel.") and short in OPERATOR_BUILDERS:
        counters["fock.operators"] += 1
        counters["fock.dense_mb"] += out.matrix.nbytes / 1e6
        counters["fock.dim_max"] = max(counters["fock.dim_max"], out.matrix.shape[0])
    elif name == "dsl.Session.execute":
        counters["dsl.statements"] += 1
    elif name == "jsonio.read_functional":
        counters["jsonio.bytes_read"] += os.path.getsize(args[0])
    elif name == "jsonio.write_functional":
        counters["jsonio.bytes_written"] += os.path.getsize(args[0])
    elif name == "cli.main":
        counters["cli.commands"] += 1


COUNTERS = (
    "functionals.words",
    "freeness.words",
    "limits.rows",
    "infdiv.gram_dim",
    "infdiv.pass",
    "infdiv.fail",
    "partitions.nc_listed",
    "partitions.mobius_calls",
    "fock.operators",
    "fock.dim_max",
    "fock.dense_mb",
    "dsl.statements",
    "jsonio.bytes_read",
    "jsonio.bytes_written",
    "cli.commands",
)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, job id)
        self.stack = []
        self.job = -1
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            _counts(name, args, out, counters)
            return out

        return traced

    def install(self):
        """Wrap every public freeprob function at every module binding."""
        modules = [importlib.import_module("freeprob")]
        modules += [importlib.import_module("freeprob." + m) for m in LAYERS]
        wrapped = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in SKIP
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrapped[obj] = self._wrap("%s.%s" % (layer, attr), obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        for layer, classes in METHODS.items():
            mod = importlib.import_module("freeprob." + layer)
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap("%s.%s.%s" % (layer, cls_name, meth), fn))

    def export(self):
        """Plain data for a parent process: spans and counters."""
        return {"spans": self.spans, "counters": self.counters}


def self_times(spans):
    """Self seconds per layer: each span's duration minus the time its
    direct children cover (children of one span never overlap)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict.fromkeys(LAYERS, 0.0)
    transform_s = 0.0
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name.split(".", 1)[0]] += end - start - child[i]
        if name in TRANSFORMS:
            transform_s += end - start
    return out, transform_s


def layer_metrics(exports, import_s=0.0):
    """Per-layer metrics from one or more exported traces (one per
    process)."""
    selfs = dict.fromkeys(LAYERS, 0.0)
    counters = dict.fromkeys(COUNTERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    transform_s = 0.0
    for ex in exports:
        s, t = self_times(ex["spans"])
        transform_s += t
        for layer in LAYERS:
            selfs[layer] += s[layer]
        for span in ex["spans"]:
            calls[span[0].split(".", 1)[0]] += 1
        for key, value in ex["counters"].items():
            if key in ("infdiv.gram_dim", "fock.dim_max"):
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
    out = {"%s.self_s" % layer: selfs[layer] for layer in LAYERS}
    out["functionals.calls"] = calls["functionals"]
    out["partitions.calls"] = calls["partitions"]
    out.update(counters)
    out["functionals.words_per_s"] = (
        counters["functionals.words"] / transform_s if transform_s else 0.0
    )
    out["cli.import_s"] = import_s
    return out

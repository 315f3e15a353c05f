"""Span tracer for the traced benchmark run.

The tracer wraps bvkit's public functions from the outside: it replaces
each target at every place it is bound inside ``bvkit.*`` (a function
imported into another module is a separate binding, e.g.
``bvkit.density.image_measure`` next to ``bvkit.measure.image_measure``),
plus the ``FunctionModel`` methods, ``IntervalSet.__init__`` and
``bvkit.model.bisect_solve``.  No source file is edited, and ``uninstall``
restores every binding.

Each span records its name, start, end, parent span and request id.
Spans stay in memory, in flat arrays, until the run writes them out.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter

# (module, attribute) of every wrapped target; the span name is the layer
# (the module name) plus the function name
TARGETS = (
    ("bvkit.model", "FunctionModel.__init__"),
    ("bvkit.model", "FunctionModel.evaluate"),
    ("bvkit.model", "FunctionModel.preimage"),
    ("bvkit.model", "FunctionModel.level_points"),
    ("bvkit.model", "FunctionModel.shift_add_identity"),
    ("bvkit.model", "FunctionModel.verification_grid"),
    ("bvkit.intervals", "IntervalSet.__init__"),
    ("bvkit.variation", "jordan_decomposition"),
    ("bvkit.variation", "variation_function"),
    ("bvkit.variation", "total_variation"),
    ("bvkit.variation", "partition_sum"),
    ("bvkit.variation", "uniform_approx"),
    ("bvkit.measure", "image_set"),
    ("bvkit.measure", "image_measure"),
    ("bvkit.measure", "inflate"),
    ("bvkit.measure", "split_cover_at"),
    ("bvkit.measure", "lusin_probe"),
    ("bvkit.density", "density_grid"),
    ("bvkit.density", "monotone_density"),
    ("bvkit.density", "shifted_monotone_density"),
    ("bvkit.density", "bv_density"),
    ("bvkit.density", "reconstruction_error"),
    ("bvkit.density", "integrate"),
    ("bvkit.density", "ac_modulus"),
    ("bvkit.certificate", "shift_certificate"),
    ("bvkit.certificate", "variation_certificate"),
    ("bvkit.certificate", "lusin_propagation_check"),
    ("bvkit.corpus", "default_corpus"),
    ("bvkit.corpus", "run_entry"),
    ("bvkit.corpus", "run_corpus"),
    ("bvkit.plots", "emit_plots"),
    ("bvkit.plots", "write_report"),
    ("bvkit.specio", "model_from_dict"),
    ("bvkit.specio", "load_intervals"),
    ("bvkit.specio", "jsonable"),
    ("bvkit.specio", "dump_json"),
    ("bvkit.cli", "main"),
)

LAYERS = ("model", "variation", "intervals", "measure", "density",
          "certificate", "corpus", "plots", "specio", "cli")


def span_name(module: str, attr: str) -> str:
    layer = module.split(".")[1]
    return f"{layer}.{attr.replace('.__init__', '').split('.')[-1]}"


class Tracer:
    """Records spans while ``enabled``; wrappers pass straight through
    otherwise, so oracle work between requests is never traced."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.labels: dict[int, str] = {}
        self.counts: dict[str, int] = {}
        self.enabled = False
        self.request_id = -1
        self._stack = [-1]
        self._open: list[int] = []
        self._restore: list = []
        # request id -> whether its first cache lookup was a miss
        self.first_lookup_cold: dict[int, bool] = {}

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _span(self, fn, name: str, post=None):
        """Wrapper recording one span per outermost call of ``fn``; calls
        nested inside an open span of the same name (recursion) are not
        recorded separately."""
        nid = self._id(name)
        tr = self
        names, starts, ends = self.name, self.start, self.end
        parents, requests, stack, opened = self.parent, self.request, self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.enabled or opened[nid]:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(tr.request_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            opened[nid] = 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                opened[nid] = 0
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if post is not None:
                post(idx, args, out)
            return out

        return wrapper

    # -- targets with extra counts ---------------------------------------

    def _wrap_cached(self, fn):
        """FunctionModel.cached: count lookups; a miss becomes a span named
        after the structure it builds (segments, variation_function,
        jordan)."""
        tr = self
        builders = {}

        @functools.wraps(fn)
        def cached(model, key, build):
            if not tr.enabled:
                return fn(model, key, build)
            tr.count("model.cache_lookups")
            hit = key in model._cache
            tr.first_lookup_cold.setdefault(tr.request_id, not hit)
            if hit:
                return fn(model, key, build)
            tr.count("model.cache_builds")
            kind = key if isinstance(key, str) else key[0]
            if kind not in builders:
                builders[kind] = tr._span(fn, f"model.build_{kind}")
            return builders[kind](model, key, build)

        return cached

    def _wrap_bisect(self, fn):
        tr = self
        traced = self._span(fn, "model.bisect_solve")
        default_max_iter = fn.__defaults__[-1]

        @functools.wraps(fn)
        def bisect_solve(f, target, lo, hi, *args, **kwargs):
            if not tr.enabled:
                return fn(f, target, lo, hi, *args, **kwargs)
            evals = [0, None]

            def counted(x):
                evals[0] += 1
                evals[1] = v = f(x)
                return v

            out = traced(counted, target, lo, hi, *args, **kwargs)
            max_iter = kwargs.get("max_iter", args[1] if len(args) > 1 else default_max_iter)
            tr.count("model.bisect_evals", evals[0])
            # the loop ran out only when every iteration evaluated and the
            # last value missed the target (an exact hit also returns there)
            if evals[0] == max_iter + 2 and evals[1] != target:
                tr.count("model.bisect_maxiter_exits")
            return out

        return bisect_solve

    def _post_hooks(self):
        tr = self

        def grid(idx, args, out):
            tr.count("density.grid_points", len(out.grid))

        def certificate(idx, args, out):
            tr.count("certificate.cells", len(out.cells))
            tr.count("certificate.cover_pieces", sum(len(c.cover) for c in out.cells))
            tr.count("certificate.ledger_entries", sum(len(c.ledger) for c in out.cells))

        def shift(idx, args, out):
            tr.count("certificate.ledger_entries", len(out.ledger))

        def entry(idx, args, out):
            tr.labels[idx] = out.name

        def report(idx, args, out):
            tr.count("plots.bytes_written", sum(os.path.getsize(f) for f in out))

        return {"bv_density": grid, "variation_certificate": certificate,
                "shift_certificate": shift, "run_entry": entry,
                "write_report": report}

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "bvkit" or name.startswith("bvkit.")}
        hooks = self._post_hooks()
        model_mod = mods["bvkit.model"]
        FunctionModel = model_mod.FunctionModel
        self._set(FunctionModel, "cached", self._wrap_cached(FunctionModel.cached))
        bisect = model_mod.bisect_solve
        self._rebind(mods, bisect, self._wrap_bisect(bisect))
        for module, attr in TARGETS:
            owner = mods[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
            name = span_name(module, attr)
            wrapper = self._span(fn, name, hooks.get(leaf))
            if path:
                self._set(owner, leaf, wrapper)
            else:
                self._rebind(mods, fn, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, mods, fn, wrapper) -> None:
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis --------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts, inclusive and self seconds, per-layer self
        seconds and per-label (corpus entry) inclusive seconds."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            incl[k] += dur[i]
            self_s[k] += dur[i] - child[i]
        by_name = {name: {"calls": calls[k], "s": incl[k], "self_s": self_s[k]}
                   for k, name in enumerate(self.names)}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, row in by_name.items():
            layer_self[name.split(".")[0]] += row["self_s"]
        labels = {}
        for idx, label in self.labels.items():
            labels[label] = labels.get(label, 0.0) + dur[idx]
        return {"names": by_name, "layer_self_s": layer_self, "labels": labels,
                "spans": n}

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with an open ``ancestor`` span above them."""
        target, anc = self._ids.get(name), self._ids.get(ancestor)
        if target is None or anc is None:
            return 0
        total = 0
        for i in range(len(self.name)):
            if self.name[i] != target:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != anc:
                p = self.parent[p]
            total += p >= 0
        return total

    def write(self, path: str) -> None:
        """Spans as CSV: id, name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,request\n")
            names, t0 = self.names, (self.start[0] if len(self.start) else 0.0)
            for i in range(len(self.name)):
                fh.write(f"{i},{names[self.name[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},{self.request[i]}\n")

"""In-memory spans around the public functions of magpolaron's modules.

The tracer lives entirely in the benchmark: ``install`` replaces every public
function of each layer module with a timing wrapper, in every module of the
package that holds a reference to it (so names brought in with
``from ... import`` are reached too), and ``uninstall`` puts the originals
back.  Spans are kept in a list and summarised after each pass.

A span is ``[name, parent index, start ns, end ns]``.  A function's self time
is its span's duration minus the durations of its direct child spans.  Calls
into ``scipy.integrate.quad`` and warnings are counted against every span open
at the time, so ``pekar.coherent_infimum.quad_calls`` includes the quadratures
its helpers run.
"""
from __future__ import annotations

import hashlib
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "magpolaron"
LAYERS = ("grids", "oned", "landau", "decomposition", "pekar", "certificate",
          "cli")


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (inspect.isfunction(obj) and not attr.startswith("_")
                and obj.__module__ == module.__name__):
            yield attr, obj


class Tracer:
    """Timing wrappers over the public functions of magpolaron's layers."""

    def __init__(self, observers=None):
        self.observers = {
            "grids.density_fourier_at": _observe_transform,
            "decomposition.d_product_real": _keep_return_on_parent,
            "decomposition.d_product_fourier": _keep_return_on_parent,
            "decomposition.coulomb_D_product": _observe_coulomb,
            "pekar.pekar_minimize": _observe_iterations,
            "oned.solve_weighted": _observe_iterations,
        }
        self.observers.update(observers or {})
        self._patched = []
        self.spans = []
        self.stack = []
        self.reset()

    # -- pass bookkeeping ---------------------------------------------------

    def reset(self):
        """Forget the spans and counters of the previous pass."""
        self.spans.clear()
        self.stack.clear()
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self.distinct = defaultdict(set)
        self.child_returns = {}
        self.observer_errors = []

    def open_names(self):
        return {self.spans[i][0] for i in self.stack}

    def summary(self) -> dict:
        """Per-function calls, total and self seconds, plus every counter."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, total, own = Counter(), Counter(), Counter()
        top_ns = 0
        for i, (name, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_ns[i]
            if parent < 0:
                top_ns += end - start
        return {
            "calls": dict(calls),
            "total_s": {k: v * 1e-9 for k, v in total.items()},
            "self_s": {k: v * 1e-9 for k, v in own.items()},
            "top_level_s": top_ns * 1e-9,
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "observer_errors": list(self.observer_errors),
        }

    # -- installation -------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        holders = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in holders:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        integrate = sys.modules.get("scipy.integrate")
        if integrate is not None:
            self._patched.append((integrate, "quad", integrate.quad))
            integrate.quad = self._count_quad(integrate.quad)
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def on_warning(self):
        """Count a warning against every open span."""
        for name in self.open_names():
            self.counts[name + ".warnings"] += 1

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        observer = self.observers.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            if observer is not None:
                try:
                    observer(tracer, index, fn, args, kwargs, result)
                except Exception as exc:  # a counter must never break a run
                    tracer.observer_errors.append(f"{name}: {exc!r}")
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _count_quad(self, quad):
        def counted_quad(*args, **kwargs):
            for name in self.open_names():
                self.counts[name + ".quad_calls"] += 1
            return quad(*args, **kwargs)
        counted_quad.__wrapped__ = quad
        return counted_quad


# -- observers: (tracer, span index, function, args, kwargs, result) ---------


def _argument(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _observe_transform(tracer, index, fn, args, kwargs, result):
    nodes = len(result)
    n = _argument(fn, args, kwargs, "grid").n
    tracer.counts["grids.density_fourier_at.nodes"] += nodes
    tracer.counts["grids.density_fourier_at.ops_computed"] += nodes * n


def _keep_return_on_parent(tracer, index, fn, args, kwargs, result):
    parent = tracer.spans[index][1]
    if parent >= 0:
        tracer.child_returns.setdefault(parent, {})[tracer.spans[index][0]] = result


def _observe_coulomb(tracer, index, fn, args, kwargs, result):
    f = _argument(fn, args, kwargs, "f")
    B = _argument(fn, args, kwargs, "B")
    digest = hashlib.blake2b(f.values.tobytes(), digest_size=16).hexdigest()
    tracer.distinct["decomposition.coulomb_D_product"].add(
        (f.grid.n, f.grid.half_width, digest, float(B)))
    paths = tracer.child_returns.pop(index, {})
    real = paths.get("decomposition.d_product_real")
    fourier = paths.get("decomposition.d_product_fourier")
    if real is not None and fourier is not None:
        rel = abs(real - fourier) / abs(0.5 * (real + fourier))
        key = "decomposition.dual_path_rel_max"
        tracer.maxima[key] = max(tracer.maxima[key], rel)


def _observe_iterations(tracer, index, fn, args, kwargs, result):
    solution = result[0] if isinstance(result, tuple) else result
    tracer.counts[tracer.spans[index][0] + ".iters"] += solution.iterations

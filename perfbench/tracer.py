"""Spans and counters recorded from outside the library.

Tracer.install wraps every public function of each layer module and
rebinds the wrapper under every name in every wcurves module that holds
the original, because the package imports with ``from .x import y``.
Spans are kept in memory and written out when the run ends.  Functions
called once per object (check_discriminant, is_square, the
``__post_init__`` validators) only increment counters.  Operator
arithmetic on QuadNum and Fraction cannot be wrapped, so its time counts
in the calling layer's self time; ``exact.quadnum_new`` stands for it.

Bookkeeping that looks at a call's result (lengths, distinct keys) runs
after the span closes and so is charged to the caller's self time;
``trace.overhead_ratio`` reports the size of all tracing cost together.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("exact", "prototypes", "reference", "euler", "siegelveech", "boundary", "verify")
ROOT = "bench"
COUNT_ONLY = ("check_discriminant", "is_square")
# Repeat ratio name -> the function whose calls per distinct argument it is.
REPEATS = {
    "siegelveech.v_repeat": "v_of_prototype",
    "prototypes.enumerate_repeat": "enumerate_prototypes",
    "exact.sigma_repeat": "sigma",
    "euler.h2_repeat": "h2",
}
COUNTERS = ("prototypes.enumerated", "prototypes.constructed", "exact.quadnum_new",
            "exact.check_discriminant", "exact.is_square", "reference.tuples",
            "boundary.junctions", "verify.checks")


class Tracer:
    def __init__(self):
        # One entry per span: [layer, function, parent index, start, end].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)

    # -- recording -----------------------------------------------------

    @contextlib.contextmanager
    def root(self, label: str):
        """Record one per-D operation as the root span of its calls."""
        entry = [ROOT, label, -1, 0.0, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(entry)
        entry[3] = time.perf_counter()
        try:
            yield
        finally:
            entry[4] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, layer: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(spans)
            entry = [layer, name, stack[-1], 0.0, 0.0]
            spans.append(entry)
            stack.append(index)
            entry[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[4] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _counter(self, key: str, fn):
        stack, counts = self.stack, self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _after_hooks(self):
        counts, distinct = self.counts, self.distinct

        def v_term(args, kwargs, result):
            p = args[0]
            distinct["v_of_prototype"].add((p.D, p.abcq))

        def enumerated(args, kwargs, result):
            D = args[0] if args else kwargs["D"]
            kind = (args[1] if len(args) > 1 else kwargs.get("kind", "W")).upper()
            counts["prototypes.enumerated"] += len(result)
            distinct["enumerate_prototypes"].add((D, kind))

        def sigma(args, kwargs, result):
            distinct["sigma"].add(args)

        def h2(args, kwargs, result):
            distinct["h2"].add(args)

        def tuples(args, kwargs, result):
            counts["reference.tuples"] += len(result)

        def junctions(args, kwargs, result):
            counts["boundary.junctions"] += len(result.junctions)

        def checks(args, kwargs, result):
            counts["verify.checks"] += result.passed

        return {
            ("siegelveech", "v_of_prototype"): v_term,
            ("prototypes", "enumerate_prototypes"): enumerated,
            ("exact", "sigma"): sigma,
            ("euler", "h2"): h2,
            ("reference", "reference_tuples"): tuples,
            ("boundary", "build_complex"): junctions,
            ("verify", "verify_discriminant"): checks,
        }

    def install(self) -> None:
        """Wrap the public functions of every layer of the imported package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "wcurves" or n.startswith("wcurves."))]
        hooks = self._after_hooks()
        for layer in LAYERS:
            mod = sys.modules[f"wcurves.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if isinstance(fn, type) or not callable(fn) or fn.__module__ != mod.__name__:
                    continue
                if name in COUNT_ONLY:
                    wrapper = self._counter(f"{layer}.{name}", fn)
                else:
                    wrapper = self._wrap(layer, fn, hooks.get((layer, name)))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
        from wcurves.exact import QuadNum
        from wcurves.prototypes import Prototype

        QuadNum.__post_init__ = self._counter("exact.quadnum_new", QuadNum.__post_init__)
        Prototype.__post_init__ = self._counter("prototypes.constructed", Prototype.__post_init__)

    # -- results -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer self times, call counts, counters and repeat ratios."""
        out: dict[str, float] = {}
        layer_self = Counter()
        coefficient = 0.0
        for span, own in zip(self.spans, self_times(self.spans)):
            layer_self[span[0]] += own
            if span[1] == "billiards_coefficient":
                coefficient += own
        layer_calls = Counter(span[0] for span in self.spans)
        calls = Counter(span[1] for span in self.spans)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.calls"] = layer_calls[layer]
        out[f"{ROOT}.self_s"] = layer_self[ROOT]
        out["trace.root_s"] = sum(s[4] - s[3] for s in self.spans if s[0] == ROOT)
        out["siegelveech.coefficient_s"] = coefficient
        out["siegelveech.v_terms"] = calls["v_of_prototype"]
        for key in COUNTERS:
            out[key] = self.counts[key]
        for key, fn in REPEATS.items():
            distinct = len(self.distinct[fn])
            out[key] = calls[fn] / distinct if distinct else 0.0
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: index, parent, layer, function, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.writelines(f'[{i},{parent},"{layer}","{name}",{start!r},{end!r}]\n'
                          for i, (layer, name, parent, start, end) in enumerate(self.spans))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    ``spans`` holds (layer, function, parent index, start, end) entries; a
    parent index of -1 marks a root.  Overlapping children are merged, and
    children are clipped to their parent's interval.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[2] >= 0:
            children[span[2]].append(index)
    out = []
    for index, (_, _, _, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(children.get(index, ()), key=lambda i: spans[i][3]):
            lo = max(spans[child][3], reach)
            hi = min(spans[child][4], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out

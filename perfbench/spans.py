"""Spans around ratwp's public functions, recorded from outside the package.

`Tracer.attach()` replaces every public function of the traced modules, and
the constructor of every public dataclass they define, by a wrapper that
records a span: name, start, end, parent and the flow label the benchmark
set. A function imported by name into another module (cli.py imports
nearly everything, oracle.py and analysis.py import enumerate_accepted) is
replaced there too, so calls made inside the package land in their span.
`detach()` puts the originals back, so untraced rounds run the unwrapped
code.

Spans stay in memory until the run ends; `summary()` turns them into per
name totals: calls, inclusive time of the outermost call of each nest, and
self time (duration minus the time covered by direct children).
"""

import dataclasses
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("automata", "relations", "presentations", "constructions",
          "oracle", "analysis", "fileio", "cli")

# What a call's result says about the work done, by span name.
_RESULT_SIZE = {
    "oracle.build_oracle": ("words", lambda o: len(o.class_of)),
    "oracle.table_oracle": ("words", lambda o: len(o.class_of)),
    "fileio.dumps_fsa": ("bytes", len),
}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, label]
        self.sizes = {}        # (span name, size name) -> total
        self._stack = []
        self._label = None
        self._patches = []     # (owner, attribute, original)

    def attach(self):
        """Wrap the public functions of the (already imported) layers."""
        originals = {}
        classes = []
        for layer in LAYERS:
            module = sys.modules[f"ratwp.{layer}"]
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = (obj, f"{layer}.{name}")
                elif inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                    classes.append((obj, f"{layer}.{name}"))
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in originals.items()}
        owners = [m for n, m in list(sys.modules.items())
                  if n == "ratwp" or n.startswith("ratwp.")]
        for module in owners:
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        for cls, name in classes:
            init = cls.__init__
            self._patches.append((cls, "__init__", init))
            cls.__init__ = self._wrap(init, name)

    def detach(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def flow(self, label):
        """Tag the spans recorded inside the block with a flow label."""
        previous, self._label = self._label, label
        try:
            yield
        finally:
            self._label = previous

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, perf_counter
        size = _RESULT_SIZE.get(name)
        tracer = self

        def span(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer._label)
            if size is not None:
                key = (name, size[0])
                tracer.sizes[key] = tracer.sizes.get(key, 0) + size[1](result)
            return result

        span.__wrapped__ = fn
        return span

    def mark(self):
        """Position in the span list, to summarise one phase of the run."""
        return len(self.spans), dict(self.sizes)

    def summary(self, since=(0, {})):
        """Totals of the spans recorded after `since` (see mark())."""
        start, sizes_before = since
        spans = self.spans
        child_time = {}
        for i in range(start, len(spans)):
            name, s, e, parent, _ = spans[i]
            if parent >= start:
                child_time[parent] = child_time.get(parent, 0.0) + (e - s)
        calls, inclusive, self_time, labelled = {}, {}, {}, {}
        for i in range(start, len(spans)):
            name, s, e, parent, label = spans[i]
            d = e - s
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + d - child_time.get(i, 0.0)
            if not self._inside_same(i, name, start):
                inclusive[name] = inclusive.get(name, 0.0) + d
            if label is not None and self._outermost_construction(i, start):
                labelled[label] = labelled.get(label, 0.0) + d
        sizes = {k: v - sizes_before.get(k, 0) for k, v in self.sizes.items()}
        return {"spans": len(spans) - start, "calls": calls,
                "inclusive": inclusive, "self": self_time,
                "construction_s": labelled, "sizes": sizes}

    def _inside_same(self, i, name, start):
        parent = self.spans[i][3]
        while parent >= start:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def _outermost_construction(self, i, start):
        """Is span i a constructions/relations call not made by another?"""
        if not self.spans[i][0].startswith(("constructions.", "relations.")):
            return False
        parent = self.spans[i][3]
        while parent >= start:
            if self.spans[parent][0].startswith(("constructions.", "relations.")):
                return False
            parent = self.spans[parent][3]
        return True

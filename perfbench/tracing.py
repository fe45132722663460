"""Spans around the engine's public functions, installed from outside.

``Tracer.install()`` wraps each wrap point in place: a function is rebound
at every attribute of a ``beliefmerge`` module, and every entry of a
module-level dict, that holds it (``merging.to_dnf``,
``postulates.entails``, the values of ``merging.OPERATORS`` and so on); a
method is replaced on its class.  ``restore()`` puts every original back.
A wrap point that no longer exists is skipped, and its layer reports zero
calls.

A span records its layer, start, end, parent span and request id.  Self
time is a span's duration minus the time its child spans cover, so the
layer times of one request and ``cli.self`` add up to its latency.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# layer -> (module, function name)
FUNCTIONS = {
    "profile_io.parse": ("beliefmerge.profile_io", "parse_profile"),
    "semantics.truth_vector": ("beliefmerge.semantics", "truth_vector"),
    "formula.variables": ("beliefmerge.formula", "variables"),
    "semantics.entails": ("beliefmerge.semantics", "entails"),
    "semantics.equivalent": ("beliefmerge.semantics", "equivalent"),
    "semantics.to_dnf": ("beliefmerge.semantics", "to_dnf"),
    "formula.format": ("beliefmerge.formula", "format_formula"),
    "forgetting.dilate": ("beliefmerge.forgetting", "dilate"),
    "postulates.instance": ("beliefmerge.postulates", "instance_for"),
}

# layer -> (module, class, method)
METHODS = {
    "merging.profile": ("beliefmerge.merging", "Profile", "__init__"),
    "semantics.modelset": ("beliefmerge.semantics", "ModelSet", "__init__"),
    "semantics.bitstrings": ("beliefmerge.semantics", "ModelSet", "bitstrings"),
}

# every value of this dict is wrapped as one layer: the merge operators
OPERATOR_TABLE = ("merging.search", "beliefmerge.merging", "OPERATORS")

# The printer recurses through its own module global; wrapping it there
# would open a span per formula node, so only outside callers are wrapped.
SKIP = {("formula.format", "beliefmerge.formula")}

LAYERS = (OPERATOR_TABLE[0], *METHODS, *FUNCTIONS)


class Tracer:
    def __init__(self):
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.covered = 0.0        # time under top-level spans of the request
        self.spans = []           # (layer, start, end, parent, request)
        self.recording = False
        self.request = None
        self._stack = []
        self._undo = []

    # -- spans ---------------------------------------------------------

    def _wrap(self, layer: str, fn):
        stack, spans = self._stack, self.spans
        self_time, calls = self.self_time, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans) if self.recording else -1
            if span_id >= 0:
                spans.append(None)
            frame = [0.0, span_id]
            start = perf_counter()
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                    parent = stack[-1][1]
                else:
                    self.covered += duration
                    parent = -1
                self_time[layer] += duration - frame[0]
                calls[layer] += 1
                if span_id >= 0:
                    spans[span_id] = (layer, start, end, parent, self.request)
        return traced

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "beliefmerge"
                                         or name.startswith("beliefmerge."))]
        layer, module_name, table_name = OPERATOR_TABLE
        table = getattr(sys.modules.get(module_name), table_name, None)
        for fn in dict.fromkeys((table or {}).values()):
            self._rebind(layer, fn, modules)
        for layer, (module_name, attr) in FUNCTIONS.items():
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is not None:
                self._rebind(layer, fn, modules)
        for layer, (module_name, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            if cls is not None and attr in vars(cls):
                self._undo.append((setattr, cls, attr, vars(cls)[attr]))
                setattr(cls, attr, self._wrap(layer, vars(cls)[attr]))

    def _rebind(self, layer, fn, modules) -> None:
        wrapper = self._wrap(layer, fn)
        for module in modules:
            if (layer, module.__name__) in SKIP:
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((setattr, module, key, fn))
                    setattr(module, key, wrapper)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for entry, item in list(value.items()):
                        if item is fn:
                            self._undo.append((dict.__setitem__, value, entry, fn))
                            value[entry] = wrapper

    def restore(self) -> None:
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

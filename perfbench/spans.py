"""In-memory span recorder for the traced benchmark run.

Tracing wraps the public functions of the ``f1bench`` modules at every
module binding through which they can be called, so that a call from
``simulate`` into ``normal.std_normal_quantile`` and the call from
inside ``normal`` into ``std_normal_cdf`` are both recorded.  The
program itself is never edited: wrappers are installed from here for
the traced sections only and removed afterwards.

A span is ``(id, name, start, end, parent, thread, elems, tag)``.  The
parent is the innermost open span of the same thread, so spans that a
worker thread records have no parent there, and a span's self time
(its duration minus the time its children cover) is computed per
thread.  Spans are kept in memory and written out when the run ends.
"""

import itertools
import json
import sys
import threading
import time
from collections import namedtuple

import numpy as np

Span = namedtuple("Span", "id name start end parent thread elems tag")

_WRAPPED_FLAG = "__perfbench_wrapped__"


class SpanRecorder:
    """Collects spans from any number of threads."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._bindings = []

    def wrap(self, name, fn, elems=None, tag=None):
        """Return ``fn`` wrapped so that each call records one span."""
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span_id = next(recorder._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(Span(
                    span_id, name, start, end, parent, threading.get_ident(),
                    elems(args) if elems else 0, tag(args) if tag else None,
                ))

        setattr(wrapper, _WRAPPED_FLAG, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self, targets, package="f1bench"):
        """Wrap every binding of each target in the package's modules.

        ``targets`` maps a span name ``"module.function"`` to a dict of
        ``wrap`` keyword arguments.  A binding is any module attribute
        that is the target function object itself, so re-exports and
        ``from .x import f`` copies are all covered.
        """
        modules = package_modules(package)
        for span_name, options in targets.items():
            module_name, func_name = span_name.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{module_name}"], func_name)
            wrapper = self.wrap(span_name, original, **options)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self):
        """Put back every binding that ``install`` replaced."""
        while self._bindings:
            module, attr, original = self._bindings.pop()
            setattr(module, attr, original)

    def write(self, path):
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def package_modules(package):
    """The imported modules of a package, the package itself included."""
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))]


def leftover_wrappers(package="f1bench"):
    """Names of module bindings in the package that are still wrapped."""
    return [f"{module.__name__}.{attr}" for module in package_modules(package)
            for attr, value in vars(module).items() if getattr(value, _WRAPPED_FLAG, False)]


def self_times(spans):
    """Map span id to self time: duration minus the children's durations.

    Children are recorded on their parent's thread and run one after
    another inside it, so their durations add up to the part of the
    parent's interval they cover.  Spans of other threads never count
    against a parent, however they overlap it in time.
    """
    covered = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + (span.end - span.start)
    return {span.id: (span.end - span.start) - covered.get(span.id, 0.0) for span in spans}


def summarize_spans(spans):
    """Per-name totals: calls, elems, self and inclusive seconds, by tag."""
    selfs = self_times(spans)
    totals = {}
    for span in spans:
        entry = totals.setdefault(span.name, {
            "calls": 0, "elems": 0, "self_s": 0.0, "total_s": 0.0, "by_tag": {},
        })
        duration = span.end - span.start
        entry["calls"] += 1
        entry["elems"] += span.elems
        entry["self_s"] += selfs[span.id]
        entry["total_s"] += duration
        if span.tag is not None:
            entry["by_tag"][span.tag] = entry["by_tag"].get(span.tag, 0.0) + duration
    return totals


def array_size(args):
    """Element count of a call's first argument."""
    return int(np.size(args[0]))


def first_arg(args):
    return args[0]

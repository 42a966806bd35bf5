"""An in-memory span recorder and the wrappers that feed it.

A span is ``(name, start_ns, end_ns, parent)``; the parent is the span open
on the same thread when it started (threads do not inherit a parent, so a
dispatcher thread's job span is a root).  A span's self time is its
duration minus its children's; because children nest strictly inside their
parent on one thread, that is the part of its interval no child covers.
Spans stay in memory and are summarised when the run ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_now = time.perf_counter_ns


class Recorder:
    def __init__(self) -> None:
        self.enabled = False
        #: [name, start, end, parent index] per span, in start order.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(self.spans[index][0] == name for index in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += amount

    def call(self, name: str, fn: Callable, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        span = [name, _now(), 0, stack[-1] if stack else -1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            span[2] = _now()

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name, in seconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start - child_ns[index]) / 1e9
        return dict(totals)


def wrap(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)

    wrapper.__wrapped_by_perfbench__ = True  # type: ignore[attr-defined]
    return wrapper


def patch_function(module, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``module.attr`` with ``make(original)`` everywhere it is bound.

    ``from x import f`` copies the function into the importer's namespace,
    so every loaded ``repro`` module holding the same object is patched too
    — the wrapper sits where each caller looks the function up.
    """
    original = getattr(module, attr)
    replacement = make(original)
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = getattr(loaded, "__dict__", {})
        for key, value in list(namespace.items()):
            if value is original:
                setattr(loaded, key, replacement)


def patch_method(cls, attr: str, make: Callable[[Callable], Callable]) -> None:
    setattr(cls, attr, make(cls.__dict__[attr]))


def spanned(recorder: Recorder, name: str) -> Callable[[Callable], Callable]:
    return lambda fn: wrap(recorder, name, fn)


def counted(recorder: Recorder, name: str, inside: Optional[str] = None):
    """A wrapper factory that only counts calls (optionally only those made
    while a span called ``inside`` is open on the calling thread)."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inside is None or recorder.inside(inside):
                recorder.count(name)
            return fn(*args, **kwargs)

        return wrapper

    return make

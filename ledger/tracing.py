"""Spans recorded from outside the program, by wrapping its public functions.

The tracer never edits the program's sources.  :meth:`Tracer.install`
replaces a function or method with a recording wrapper *everywhere it
is bound*: on its class, in its defining module, and in every loaded
``repro`` module that bound the same object with ``from x import y``
(such a name is looked up in the importing module, so patching only
the defining module would miss those callers).  :meth:`Tracer.uninstall`
puts every original back.

Each span records its name (``<layer>.<function>``), start, end, the
span that was open on the same thread when it started (its parent),
and the benchmark operation it belongs to.  Spans stay in memory and
are written out when the run ends.  Pool worker processes are not
traced: a process forked while functions are wrapped puts the originals
back at once, and the workers' time shows up as waiting inside the
parent's ``engine`` spans.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

from stats import covered


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op")

    def __init__(self, sid, name, start, parent, op):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
        }


# How a wrapped callable is observed.
SPAN = "span"            # one span per call
FIRST_ITEM = "first"     # generator: one span from the call to its first item
COUNT_ITEMS = "items"    # generator: no span, count the items it yields


class Tracer:
    """In-memory span and counter store plus the patching machinery."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        """In a process forked while functions are wrapped (a pool
        worker): put every original back, and take a fresh lock, since a
        thread of the parent may have held this one at the fork."""
        self._lock = threading.Lock()
        self.uninstall()

    # -- operations and spans ------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def operation(self, label: str):
        """Tag every span this thread opens inside the block with one
        fresh operation id."""
        previous = getattr(self._local, "op", None)
        self._local.op = f"{label}#{next(self._ids)}"
        try:
            yield self._local.op
        finally:
            self._local.op = previous

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids),
            name,
            self.clock(),
            stack[-1].sid if stack else None,
            getattr(self._local, "op", None),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- wrappers --------------------------------------------------------

    def wrap(self, fn, name: str, kind: str = SPAN, observe=None):
        tracer = self
        if kind == SPAN:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                if observe is not None:
                    observe(tracer, result, args, span)
                return result
        elif kind == FIRST_ITEM:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = tracer.open(name)
                pending = True
                try:
                    with contextlib.closing(fn(*args, **kwargs)) as inner:
                        for item in inner:
                            if pending:
                                tracer.close(span)
                                pending = False
                            if observe is not None:
                                observe(tracer, item, args, span)
                            yield item
                finally:
                    if pending:
                        tracer.close(span)
        elif kind == COUNT_ITEMS:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                produced = 0
                try:
                    with contextlib.closing(fn(*args, **kwargs)) as inner:
                        for item in inner:
                            produced += 1
                            yield item
                finally:
                    tracer.count(name, produced)
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        traced.__ledger_original__ = fn
        return traced

    def install(self, owner, attribute: str, name: str, kind: str = SPAN, observe=None) -> int:
        """Wrap ``owner.attribute`` wherever the same object is bound.

        ``owner`` is a class or a module.  Returns how many bindings were
        replaced.
        """
        original = owner.__dict__[attribute]
        wrapper = self.wrap(original, name, kind, observe)
        replaced = 0
        targets = [owner]
        if not isinstance(owner, type):
            targets = [
                module
                for module_name, module in list(sys.modules.items())
                if module is not None
                and (module_name == "repro" or module_name.startswith("repro."))
            ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    self._patches.append((target, key, original))
                    replaced += 1
        return replaced

    def uninstall(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [span.as_dict() for span in self.spans],
                    "counters": dict(self.counters),
                },
                handle,
            )


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part of its interval covered by
    its child spans (children may nest or overlap each other)."""
    children: Dict[int, list] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: span.duration - covered(span.start, span.end, children.get(span.sid, ()))
        for span in spans
    }


def by_name(spans: Sequence[Span]) -> Dict[str, List[Span]]:
    grouped: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        grouped[span.name].append(span)
    return grouped


def totals_under(spans: Sequence[Span], name: str, ancestor: str) -> Dict[int, float]:
    """Span id of each ``ancestor`` span -> total duration of the ``name``
    spans nearest below it on its thread."""
    by_id = {span.sid: span for span in spans}
    totals: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != ancestor:
            parent = by_id.get(parent.parent)
        if parent is not None:
            totals[parent.sid] += span.duration
    return dict(totals)


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time of the spans of each name."""
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.sid]
    return dict(totals)


def overhead(traced: Optional[float], untraced: Optional[float]) -> Optional[float]:
    """Tracing overhead in percent of the untraced figure."""
    if traced is None or not untraced:
        return None
    return (traced / untraced - 1.0) * 100.0

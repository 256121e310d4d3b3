"""Span tracing from outside the program: wrap each layer's public functions.

A `Tracer` used as a context manager replaces every public function of the
given modules with a timing wrapper, in every module that binds it. That
includes names imported with `from .numkit import check_finite`, which a
patch of `numkit.check_finite` alone would miss. Extra methods can be
wrapped under a chosen span name. On exit every original is put back, so
code run outside the `with` block calls the unwrapped functions.

Spans are kept in memory as `Span(name, start, end, parent)`, parent being
the index of the enclosing span or -1.
"""
from __future__ import annotations

import functools
import time
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Records spans for calls into `modules` while entered."""

    def __init__(self, modules, methods=None):
        """modules: module objects whose public functions are layers.
        methods: {(class, method name): span name} wrapped in addition."""
        self.modules = list(modules)
        self.methods = dict(methods or {})
        self.spans: list[Span] = []
        self._open: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, span_name: str, fn):
        records, stack = self._open, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(records)
            records.append([span_name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec = records[idx]
                rec[1] = start
                rec[2] = end

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        layer_names = {m.__name__ for m in self.modules}
        wrappers = {}
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) not in layer_names):
                    continue
                key = id(obj)
                if key not in wrappers:
                    wrappers[key] = self._wrap(f"{_short(obj.__module__)}.{obj.__name__}", obj)
                self._patch(mod, name, wrappers[key])
        for (cls, attr), span_name in self.methods.items():
            self._patch(cls, attr, self._wrap(span_name, vars(cls)[attr]))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self.spans.extend(Span(*rec) for rec in self._open)
        self._open.clear()
        self._stack.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover.

    Children that overlap each other are counted once (interval union), and
    child time outside the parent's interval is clipped away.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


def within(spans: list[Span], ancestor: str) -> list[bool]:
    """Per span: does some enclosing span carry the name `ancestor`?"""
    flags: list[bool] = []
    for s in spans:
        p = s.parent
        flags.append(p >= 0 and (spans[p].name == ancestor or flags[p]))
    return flags

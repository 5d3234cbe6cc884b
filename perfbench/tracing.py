"""Span tracing from outside the package: class-level method wrappers.

:class:`Tracer` replaces selected methods of the package's classes with
wrappers that record one span per call — name, start, end, parent span,
thread — and restores the originals on :meth:`Tracer.uninstall`.  Nothing
under ``src/`` changes.

Parents come from a :class:`contextvars.ContextVar`, so they are known on
the same thread and inside one asyncio task (tasks copy the context they
were created in).  Work handed to another thread starts a new root span;
such cross-thread layers are reported as busy time per op plus counts.

Spans stay in memory and are written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_current: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=0
)


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    t0: float
    t1: float
    thread: int
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1000.0


@dataclass(frozen=True)
class Target:
    """One method to wrap: ``owner.attr`` recorded as span ``name``.

    ``annotate(*args, **kwargs)`` may return numbers stored on the span
    (e.g. the nnz a kernel call processed).  ``future=True`` ends the span
    when the returned :class:`concurrent.futures.Future` completes.
    """

    owner: type
    attr: str
    name: str
    annotate: Optional[Callable[..., Dict[str, float]]] = None
    future: bool = False


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._patched: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------ #
    def _open(self, name: str, attrs: Dict[str, float]) -> Span:
        span = Span(
            next(self._ids),
            _current.get(),
            name,
            time.perf_counter(),
            0.0,
            threading.get_ident(),
            attrs,
        )
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self.spans.append(span)  # list.append is atomic under the GIL

    def _wrap(self, target: Target, fn):
        tracer = self

        def attrs_of(args, kwargs):
            return target.annotate(*args, **kwargs) if target.annotate else {}

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span = tracer._open(target.name, attrs_of(args, kwargs))
                token = _current.set(span.sid)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    _current.reset(token)
                    tracer._close(span)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(target.name, attrs_of(args, kwargs))
            token = _current.set(span.sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(span)
                raise
            finally:
                _current.reset(token)
            if target.future:
                result.add_done_callback(lambda _f: tracer._close(span))
            else:
                tracer._close(span)
            return result

        return wrapper

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target; targets the package no longer has are listed
        in :attr:`missing` instead of failing the run."""
        for target in targets:
            fn = target.owner.__dict__.get(target.attr)
            if fn is None or not callable(fn):
                self.missing.append(f"{target.owner.__name__}.{target.attr}")
                continue
            self._patched.append((target.owner, target.attr, fn))
            setattr(target.owner, target.attr, self._wrap(target, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self, targets: Iterable[Target]):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------ #
    def named(self, name: str, t0: float = 0.0) -> List[Span]:
        return [s for s in self.spans if s.name == name and s.t0 >= t0]

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "parent": s.parent,
                            "name": s.name,
                            "t0": s.t0,
                            "t1": s.t1,
                            "thread": s.thread,
                            **({"attrs": s.attrs} if s.attrs else {}),
                        }
                    )
                    + "\n"
                )


def ancestor(span: Span, by_id: Dict[int, Span], name: str) -> Optional[Span]:
    """The nearest enclosing span called ``name`` (or ``None``)."""
    pid = span.parent
    while pid:
        parent = by_id.get(pid)
        if parent is None:
            return None
        if parent.name == name:
            return parent
        pid = parent.parent
    return None


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out: Dict[int, float] = {}
    for s in spans:
        covered, end = 0.0, s.t0
        for c in sorted(children.get(s.sid, []), key=lambda c: c.t0):
            lo, hi = max(c.t0, end), min(c.t1, s.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[s.sid] = (s.t1 - s.t0) - covered
    return out

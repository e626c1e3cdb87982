"""Outside-in layer tracing: spans recorded around calls into the program.

The benchmark never edits the program to trace it.  Instead a
:class:`Tracer` swaps selected program functions for thin wrappers while a
traced run is in progress, records one span per call (layer name, start,
end, parent span) and puts every original back afterwards.  A wrapper is
installed wherever the original object is bound — in its defining module
and in every ``repro`` module that imported it by name — so both
``module.f()`` and ``from module import f`` call sites are covered.

Parents come from a :class:`contextvars.ContextVar`, which follows asyncio
tasks; :meth:`Tracer.propagate` carries it into a thread pool, and the
``adopt_from`` hook of :meth:`Tracer.wrap` links a span to one opened
elsewhere (the admission client tags each request with its span id, the
server side adopts it), so the spans of one operation form a single tree.

A layer's *self time* is its spans' total duration minus the part covered
by their child spans.  Self times of all layers add up to the total
duration of the root spans, which is what :meth:`Tracer.layer_table`
reports shares against.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import sys
from time import perf_counter_ns

__all__ = ["Tracer"]


class _Span:
    __slots__ = ("span_id", "layer", "start", "end", "parent")

    def __init__(self, span_id: int, layer: str, parent: "_Span | None"):
        self.span_id = span_id
        self.layer = layer
        self.parent = parent
        self.end = 0
        self.start = perf_counter_ns()


class Tracer:
    """Span recorder plus the function patching that feeds it."""

    def __init__(self) -> None:
        self.spans: list[_Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._open: dict[int, _Span] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _enter(self, layer: str, parent: "_Span | None" = None):
        if parent is None:
            parent = self._current.get()
        span = _Span(next(self._ids), layer, parent)
        self._open[span.span_id] = span
        return span, self._current.set(span)

    def _exit(self, span: _Span, token) -> None:
        span.end = perf_counter_ns()
        self._current.reset(token)
        self._open.pop(span.span_id, None)
        self.spans.append(span)

    def current_id(self) -> int | None:
        """Id of the innermost open span in this context (``None`` at top)."""
        span = self._current.get()
        return None if span is None else span.span_id

    def wrap(self, layer: str, fn, adopt_from=None):
        """A traced stand-in for ``fn`` recording ``layer`` spans.

        ``adopt_from(args, kwargs)`` may return a span id opened elsewhere
        (another thread or event loop) to use as the parent.
        """

        def parent_of(args, kwargs):
            if adopt_from is None:
                return None
            return self._open.get(adopt_from(args, kwargs))

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                span, token = self._enter(layer, parent_of(args, kwargs))
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._exit(span, token)

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span, token = self._enter(layer, parent_of(args, kwargs))
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit(span, token)

        return traced

    # -- patching ---------------------------------------------------------
    def patch_function(self, module_name: str, attr: str, layer: str, **wrap_kw):
        """Trace ``module_name.attr`` at every ``repro`` binding of it."""
        original = getattr(sys.modules[module_name], attr)
        traced = self.wrap(layer, original, **wrap_kw)
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            namespace = getattr(module, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    self.replace(module, key, traced)

    def patch_method(self, cls, attr: str, layer: str, **wrap_kw):
        """Trace ``cls.attr`` (a plain function attribute of the class)."""
        self.replace(cls, attr, self.wrap(layer, cls.__dict__[attr], **wrap_kw))

    def propagate(self, executor) -> None:
        """Run ``executor`` jobs in the submitting context (span parents)."""
        submit = executor.submit

        def submit_in_context(fn, *args, **kwargs):
            return submit(contextvars.copy_context().run, fn, *args, **kwargs)

        self.replace(executor, "submit", submit_in_context)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` until :meth:`restore` (owner: module/class/object)."""
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- aggregation --------------------------------------------------------
    def layer_table(self, layers) -> tuple[dict, int, int]:
        """Per-layer ``{"self_ns", "calls"}`` plus root count and root time.

        Every layer in ``layers`` appears, touched or not.  Only closed
        spans count; a child of a span that never closed is not subtracted
        from it.
        """
        table = {layer: {"self_ns": 0, "calls": 0} for layer in layers}
        roots = root_ns = 0
        for span in self.spans:
            duration = span.end - span.start
            row = table.setdefault(span.layer, {"self_ns": 0, "calls": 0})
            row["self_ns"] += duration
            row["calls"] += 1
            if span.parent is None:
                roots += 1
                root_ns += duration
            elif span.parent.end:
                parent = table.setdefault(
                    span.parent.layer, {"self_ns": 0, "calls": 0}
                )
                parent["self_ns"] -= duration
        return table, roots, root_ns

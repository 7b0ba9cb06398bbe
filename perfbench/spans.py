"""Span recorder for the traced benchmark run.

The recorder keeps every span in memory -- name, start, end, parent,
op id, thread and a few counters -- and writes them out when the run
ends.  It never edits the program: :func:`install` rebinds the public
functions each layer exposes at the names their callers look up (a
module attribute such as ``repro.core.dse.emulate_batch`` or a class
attribute such as ``SweepResult.pareto_front``) to thin wrappers that
open a span around the original call.  While ``Recorder.enabled`` is
false a wrapper costs one attribute test, so the traced run can switch
tracing on and off between ops and measure its own overhead.

Times come from :func:`time.perf_counter`, which on Linux reads the
system-wide monotonic clock, so spans recorded by the server process
line up with the client's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

# span record layout (a list, so ``end`` can be filled in place)
NAME, START, END, PARENT, OP, TID, ATTRS = range(7)


class Recorder:
    """In-memory spans; one instance per process."""

    def __init__(self):
        self.spans: List[list] = []
        self.enabled = False
        #: id of the op the caller is running (None between ops)
        self.op: Optional[int] = None
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, nested: bool = True) -> list:
        """Open a span; ``nested=False`` keeps it off the thread's stack.

        Coroutine spans pass ``nested=False``: coroutines interleave on
        one thread, so a thread-local stack would give them each
        other's children.
        """
        parent = None
        if nested:
            stack = self._stack()
            parent = stack[-1] if stack else None
        span = [name, time.perf_counter(), None, parent, self.op,
                threading.get_ident(), None]
        self.spans.append(span)
        if nested:
            self._stack().append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        stack = self._stack()
        # by identity, from the top: a generator may close out of order
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is span:
                del stack[i]
                break

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(to_json(self.spans), handle)


def to_json(spans: List[list]) -> List[Dict]:
    """Closed spans as dicts; ``parent`` is an index into the list."""
    closed = [s for s in spans if s[END] is not None]
    index = {id(s): i for i, s in enumerate(closed)}
    return [
        {
            "name": s[NAME], "start": s[START], "end": s[END],
            "parent": (index.get(id(s[PARENT]))
                       if s[PARENT] is not None else None),
            "op": s[OP], "tid": s[TID], "attrs": s[ATTRS],
        }
        for s in closed
    ]


def load_spans(path: str) -> List[list]:
    """Spans written by :meth:`Recorder.dump`, as span records."""
    with open(path) as handle:
        rows = json.load(handle)
    spans = [
        [r["name"], r["start"], r["end"], None, r["op"], r["tid"], r["attrs"]]
        for r in rows
    ]
    for span, row in zip(spans, rows):
        if row["parent"] is not None:
            span[PARENT] = spans[row["parent"]]
    return spans


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _wrap(rec: Recorder, name: str, fn, attrs=None):
    """A wrapper of ``fn`` (sync, coroutine or generator) timing a span.

    ``attrs(result, args)`` may return counters to store on the span.
    """
    if inspect.isasyncgenfunction(fn):
        @functools.wraps(fn)
        async def agen_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not rec.enabled:
                try:
                    async for item in inner:
                        yield item
                finally:
                    await inner.aclose()
                return
            span = rec.begin(name, nested=False)
            try:
                async for item in inner:
                    yield item
            finally:
                await inner.aclose()
                rec.end(span)
        return agen_wrapper

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def coro_wrapper(*args, **kwargs):
            if not rec.enabled:
                return await fn(*args, **kwargs)
            span = rec.begin(name, nested=False)
            try:
                return await fn(*args, **kwargs)
            finally:
                rec.end(span)
        return coro_wrapper

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            if not rec.enabled:
                return (yield from fn(*args, **kwargs))
            span = rec.begin(name)
            try:
                count = 0
                for item in fn(*args, **kwargs):
                    count += 1
                    yield item
                span[ATTRS] = {"items": count}
            finally:
                rec.end(span)
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        span = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if attrs is not None:
            span[ATTRS] = attrs(result, args)
        return result
    return wrapper


def _emulate_batch_attrs(result, args) -> Dict:
    arrays = [v for v in result.values() if hasattr(v, "nbytes")]
    return {
        "points": int(result["accelerated_ms"].size),
        "bytes": int(sum(a.nbytes for a in arrays)),
    }


def _finalize_attrs(result, args) -> Dict:
    return {"engine": str(args[1])}


#: (module, function, span name, counter hook): module-level functions,
#: rebound in every loaded ``repro`` module that imported them
FUNCTIONS: Tuple = (
    ("repro.core.dse", "sweep_grid", "core.dse.sweep_grid", None),
    ("repro.core.dse", "finalize_sweep_result", "core.dse.finalize",
     _finalize_attrs),
    ("repro.core.emulator", "emulate_batch", "core.emulator.emulate_batch",
     _emulate_batch_attrs),
    ("repro.core.encoding_engine", "encoding_engine_time_ms_batch",
     "core.encoding_engine", None),
    ("repro.core.mlp_engine", "mlp_engine_time_ms_batch",
     "core.mlp_engine", None),
    ("repro.core.ngpc", "pipeline_total_ms_batch", "core.ngpc.pipeline", None),
    ("repro.core.ngpc", "dma_overhead_ms_batch", "core.ngpc.dma", None),
    ("repro.core.area_power", "ngpc_area_power_batch", "core.area_power",
     None),
    ("repro.core.cache", "clear_model_caches", "core.cache.clear_model_caches",
     None),
)

#: (module, class, attribute, span name): methods, classmethods and
#: properties, replaced on the class itself
METHODS: Tuple = (
    ("repro.api.session", "Session", "sweep", "api.session.sweep"),
    ("repro.api.session", "Session", "point", "api.session.point"),
    ("repro.api.session", "Session", "close", "api.session.close"),
    ("repro.api.session", "Session", "local", "api.session.open"),
    ("repro.api.session", "Sweep", "pareto", "api.sweep.pareto"),
    ("repro.api.session", "Sweep", "cheapest", "api.sweep.cheapest"),
    ("repro.api.session", "Sweep", "result", "api.sweep.result"),
    ("repro.api.session", "Sweep", "watch", "api.sweep.watch"),
    ("repro.core.dse", "SweepResult", "pareto_front", "core.dse.pareto_front"),
    ("repro.core.dse", "SweepResult", "cheapest_point_meeting_fps",
     "core.dse.cheapest"),
    ("repro.core.dse", "SweepResult", "to_payload", "core.dse.to_payload"),
    ("repro.core.dse", "SweepResult", "from_payload", "core.dse.from_payload"),
    ("repro.explore.engine", "AdaptiveExplorer", "pareto", "explore.pareto"),
    ("repro.explore.engine", "AdaptiveExplorer", "cheapest",
     "explore.cheapest"),
    ("repro.explore.engine", "LocalBlockRunner", "evaluate", "explore.runner"),
    ("repro.store.result_store", "ResultStore", "save_block",
     "store.save_block"),
    ("repro.store.result_store", "ResultStore", "save_sweep",
     "store.save_sweep"),
    ("repro.store.result_store", "ResultStore", "load_block",
     "store.load_block"),
    ("repro.store.result_store", "ResultStore", "load_sweep",
     "store.load_sweep"),
    ("repro.service.client", "SyncServiceClient", "request",
     "service.client.request"),
    ("repro.service.client", "SyncServiceClient", "stream_pareto",
     "service.client.request.sweep_stream"),
    ("repro.service.sweep_service", "SweepService", "sweep",
     "service.sweep_service.sweep"),
    ("repro.service.sweep_service", "SweepService", "sweep_stream",
     "service.sweep_service.sweep_stream"),
)


def _wrap_request(rec: Recorder, fn):
    """``SyncServiceClient.request``, with the route in the span name."""
    @functools.wraps(fn)
    def wrapper(self, method, path, payload=None):
        if not rec.enabled:
            return fn(self, method, path, payload)
        route = path.split("?", 1)[0].strip("/").replace("/", "_") or "root"
        span = rec.begin(f"service.client.request.{route}")
        try:
            return fn(self, method, path, payload)
        finally:
            rec.end(span)
    return wrapper


class _CountingJson:
    """The ``json`` module as the service client sees it, counting input.

    Bound as ``repro.service.client.json``, it adds every byte the
    client decodes (responses and stream lines) to ``bytes_in``.
    """

    def __init__(self, rec: Recorder):
        self._rec = rec
        self.bytes_in = 0

    def loads(self, data, *args, **kwargs):
        if self._rec.enabled:
            self.bytes_in += len(data)
        return json.loads(data, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


def _rebind_everywhere(original, wrapper) -> None:
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(rec: Recorder) -> _CountingJson:
    """Rebind every traced public function; returns the byte counter.

    Call before the program builds its sessions or services: a
    service captures ``sweep_grid`` when it is constructed.
    """
    for module_name, *_ in FUNCTIONS + METHODS:
        importlib.import_module(module_name)
    for module_name, func, name, attrs in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), func)
        _rebind_everywhere(original, _wrap(rec, name, original, attrs))
    for module_name, cls_name, attr, name in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(rec, name, raw.__func__))
        elif isinstance(raw, property):
            wrapped = property(_wrap(rec, name, raw.fget))
        elif name == "service.client.request":
            wrapped = _wrap_request(rec, raw)
        else:
            wrapped = _wrap(rec, name, raw)
        setattr(cls, attr, wrapped)
    client = importlib.import_module("repro.service.client")
    counter = _CountingJson(rec)
    client.json = counter
    return counter


# ---------------------------------------------------------------------------
# busy and self time
# ---------------------------------------------------------------------------

def union_length(intervals, lo: float = float("-inf"),
                 hi: float = float("inf")) -> float:
    """Length of the union of ``(start, end)`` intervals clipped to [lo, hi]."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _has_ancestor_named(span: list) -> bool:
    parent = span[PARENT]
    while parent is not None:
        if parent[NAME] == span[NAME]:
            return True
        parent = parent[PARENT]
    return False


def layer_times(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``busy`` (outermost spans' time), ``self`` and count.

    ``self`` is a span's duration minus the part of it its child spans
    cover, summed over the outermost spans of that name.
    """
    children: Dict[int, List[list]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(id(span[PARENT]), []).append(span)
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        if span[END] is None or _has_ancestor_named(span):
            continue
        duration = span[END] - span[START]
        covered = union_length(
            ((c[START], c[END]) for c in children.get(id(span), ())
             if c[END] is not None),
            span[START], span[END],
        )
        entry = out.setdefault(span[NAME], {"busy": 0.0, "self": 0.0, "n": 0})
        entry["busy"] += duration
        entry["self"] += duration - covered
        entry["n"] += 1
    return out

"""Asyncio query service over the batched DSE engine.

:class:`SweepService` is the in-process async API the HTTP layer
(:mod:`repro.service.http`) and any embedding application share.  Three
properties make it safe to put in front of many concurrent users:

- **LRU result cache.**  Completed :class:`~repro.core.dse.SweepResult`s
  live in a :class:`~repro.core.cache.ModelCache` (``lru=True``) keyed
  on :func:`~repro.core.dse.sweep_fingerprint` — the canonical
  grid + config + calibration key — so any request naming the same
  design space (in any axis order) is a cache hit.  The cache is
  instance-owned (``register=False``): it lives and dies with its
  service rather than being pinned by the global cache registry.
- **Single-flight coalescing.**  Concurrent requests for the same
  fingerprint attach to one in-flight :class:`asyncio.Future`; exactly
  one underlying :func:`~repro.core.dse.sweep_grid` evaluation runs no
  matter how many clients ask (``tests/test_service.py`` asserts 32
  concurrent requests -> 1 evaluation on a 10k-point grid).
- **Off-loop evaluation.**  The evaluation runs in an executor thread,
  so the event loop keeps serving cached queries (< 50 ms, gated by
  ``benchmarks/bench_service.py``) while a 50k-point sweep is cold.
- **Persistent disk tier (optional).**  Pass ``store=`` (a
  :class:`~repro.store.ResultStore` or a directory path) to slot the
  content-addressed persistent store *under* the RAM LRU: a RAM miss
  first probes the store (memory-mapped load, milliseconds) before
  evaluating, evaluations reuse persisted blocks and only compute the
  missing hypercube slices, and completed sweeps are persisted — so a
  restarted replica serves its predecessor's sweeps warm, and N
  replicas sharing one directory evaluate each sweep once.
  ``stats()["cache"]`` reports the tiers truthfully (``ram_hits`` /
  ``disk_hits`` / ``evaluations``), so ``/stats`` can never report a
  "miss" that was actually served from disk.

Queries resolve their selectors through :mod:`repro.core.query`: a
scalar query against a swept axis without an explicit selector raises
:class:`~repro.errors.AmbiguousAxisError` and a value off the grid
:class:`~repro.errors.NotOnGridError`, which the error layer maps to a
structured 400 / 404 naming the axis.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import inspect
import threading
from typing import AsyncIterator, Dict, Hashable, List, Optional, Set, Union

from repro.core import query
from repro.core.cache import ModelCache
from repro.core.dse import (
    _ENGINES,
    PAYLOAD_SCHEMA_VERSION,
    DesignPoint,
    EmulationResult,
    SweepGrid,
    SweepResult,
    _resolve_engine,
    evaluate_plan,
    finalize_sweep_result,
    stream_plan,
    sweep_fingerprint,
    sweep_grid,
)
from repro.core.config import NGPCConfig
from repro.errors import InfeasibleQueryError
from repro.explore import (
    AdaptiveExplorer,
    ExplorationStats,
    LocalBlockRunner,
    StoreBlockRunner,
)
from repro.service.errors import as_service_error
from repro.service.progress import SweepProgress
from repro.store import (
    ResultStore,
    evaluate_with_block_cache,
    new_tier_counters,
)

GridLike = Union[SweepGrid, Dict, None]

#: finished SweepProgress entries retained for late /stats // long-poll reads
_PROGRESS_RETAIN = 8


class _Inflight:
    """One in-flight evaluation: its future plus live-awaiter accounting.

    ``waiters`` counts coroutines currently awaiting the (shielded)
    future.  When an evaluation fails after every awaiter has been
    cancelled, nobody ever retrieves the exception — asyncio would log
    an "exception was never retrieved" warning at GC time for a failure
    that was handled by design.  Whichever side observes the
    no-awaiters-and-failed state last (the evaluator setting the
    exception, or the final awaiter leaving) marks the exception
    retrieved.
    """

    __slots__ = ("future", "waiters")

    def __init__(self, future: asyncio.Future):
        self.future = future
        self.waiters = 0

    def mark_retrieved_if_abandoned(self) -> None:
        if (
            self.waiters == 0
            and self.future.done()
            and not self.future.cancelled()
        ):
            self.future.exception()  # mark retrieved; returns None on success


def _as_grid(grid: GridLike) -> SweepGrid:
    if grid is None:
        return SweepGrid()
    if isinstance(grid, SweepGrid):
        return grid
    return SweepGrid.from_dict(grid)


class SweepService:
    """Async, coalescing, LRU-cached front end of the DSE engine.

    All public query methods are coroutines; each first ensures the
    named grid is evaluated (``await self.sweep(grid)``) and then
    answers from the dense result.  Counters:

    - ``evaluations``: underlying ``sweep_fn`` executions (the number
      that must stay 1 under request coalescing; a disk-tier hit is
      *not* an evaluation),
    - ``coalesced``: requests that attached to an in-flight evaluation,
    - cache ``hits``/``misses``: requests served from / admitted to the
      completed-result LRU (coalesced requests count as neither),
    - tier counters (``ram_hits``/``disk_hits``/``evaluations`` plus the
      ``blocks_*`` triple) in ``stats()["cache"]`` and
      ``stats()["store"]`` whenever a ``store`` is attached.

    ``sweep_fn`` is injectable for tests (a counting or artificially
    slow wrapper around :func:`~repro.core.dse.sweep_grid`).  With a
    ``store``, a sweep that misses both cache tiers still evaluates
    through ``sweep_fn`` when one is injected (so counting wrappers and
    the shard cluster keep their contract); only the built-in path uses
    block-level reuse.
    """

    def __init__(
        self,
        engine: str = "auto",
        ngpc: Optional[NGPCConfig] = None,
        max_cached_sweeps: int = 32,
        sweep_fn=None,
        store: Union[ResultStore, str, None] = None,
        explore: str = "exhaustive",
    ):
        # an injected sweep_fn may carry its own engine label (the shard
        # cluster registers as "cluster"); the built-in path must name a
        # real local engine
        if sweep_fn is None and engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {_ENGINES}")
        if explore not in ("exhaustive", "adaptive"):
            raise ValueError(
                f"explore must be 'exhaustive' or 'adaptive', got {explore!r}"
            )
        if explore == "adaptive" and sweep_fn is not None:
            raise ValueError(
                "explore='adaptive' evaluates blocks in-process and cannot "
                "route through an injected sweep_fn (e.g. a shard cluster); "
                "run the cluster exhaustive or drop sweep_fn"
            )
        #: ``"adaptive"`` answers /pareto, /cheapest and /point by partial
        #: exploration (``/sweep`` itself stays dense — its payload is the
        #: whole hypercube by definition)
        self.explore = explore
        self.engine = engine
        self.ngpc = ngpc
        self._sweep_fn = sweep_fn or sweep_grid
        if isinstance(store, str):
            store = ResultStore(store)
        self.store: Optional[ResultStore] = store
        self.tier = new_tier_counters()
        # register=False: the cache's lifetime is this service's, not the
        # process's (the global registry would pin every instance forever)
        self._cache = ModelCache(
            "sweep_service", maxsize=max_cached_sweeps, lru=True, register=False
        )
        self._inflight: Dict[Hashable, _Inflight] = {}
        # streaming progress per grid fingerprint: one live entry per
        # in-flight sweep plus a short tail of finished ones (late
        # long-poll 202 bodies and /stats still see them); the lock
        # guards the dict, each entry synchronizes itself
        self._progress: Dict[Hashable, SweepProgress] = {}
        self._progress_lock = threading.Lock()
        # adaptive explorers per grid fingerprint (same key space as the
        # result LRU); the lock guards creation from executor threads
        self._explorers: Dict[Hashable, AdaptiveExplorer] = {}
        self._explorers_lock = threading.Lock()
        self._tasks: Set[asyncio.Task] = set()
        self.evaluations = 0
        self.coalesced = 0
        # filled in by the HTTP layer: keep-alive connection accounting
        # ("reused" counts requests served on an already-open connection)
        self.http = {"connections": 0, "requests": 0, "reused": 0}
        #: extra stats sections merged into :meth:`stats` by name — the
        #: HTTP layer mounts the shard coordinator's counters here
        self.stats_extra: Dict[str, object] = {}
        #: optional admission controller (mounted by the ops layer): caps
        #: how many *cold* evaluations run concurrently.  Cached reads and
        #: coalesced joins never consult it — only a sweep about to burn
        #: an executor slot does, which is what keeps cached-query latency
        #: flat while one tenant floods the grid.
        self.admission = None

    # -- sweeps --------------------------------------------------------------
    async def sweep(self, grid: GridLike = None) -> SweepResult:
        """Evaluate ``grid`` (cached, coalesced); return the dense result.

        The grid is resolved against the service's base config and
        normalized (axis values sorted and de-duplicated) before
        fingerprinting, so every spelling of the same design space maps
        to one cache entry and one in-flight evaluation.
        """
        resolved = _as_grid(grid).resolve(self.ngpc).normalized()
        key = sweep_fingerprint(resolved, self.ngpc)
        inflight = self._inflight.get(key)
        if inflight is not None:
            self.coalesced += 1
            return await self._await_inflight(inflight)
        cached = self._cache.get(key)
        if cached is not None:
            self.tier["ram_hits"] += 1
            return cached
        release = await self._admit_cold()
        if release is not None and getattr(release, "queued", False):
            # the slot wait yielded to the loop: an identical sweep may
            # have started (or finished) meanwhile — re-check both tiers
            # so a queued duplicate never burns a second slot
            inflight = self._inflight.get(key)
            if inflight is not None:
                release()
                self.coalesced += 1
                return await self._await_inflight(inflight)
            cached = self._cache.get(key)
            if cached is not None:
                release()
                self.tier["ram_hits"] += 1
                return cached
        return await self._await_inflight(
            self._start_evaluation(key, resolved, release=release)
        )

    async def _admit_cold(self):
        """One cold-evaluation slot from the mounted admission controller.

        Returns the controller's release callable (``None`` when no
        controller is mounted); raises its structured 429 when the
        global cold cap and its queue are both full.  The fast
        (uncontended) acquire never yields to the event loop, so the
        caller's earlier inflight/cache checks are still authoritative
        unless ``release.queued`` says the acquire waited.
        """
        if self.admission is None:
            return None
        return await self.admission.acquire_cold()

    def _start_evaluation(
        self, key: Hashable, grid: SweepGrid, release=None
    ) -> _Inflight:
        """Launch one evaluation task with its streaming progress entry.

        Must run on the service loop with no in-flight entry under
        ``key``.  The :class:`SweepProgress` is registered *before* the
        task starts, so a streamer subscribing right after coalescing
        onto the returned in-flight future can never miss the entry.
        """
        loop = asyncio.get_running_loop()
        inflight = _Inflight(loop.create_future())
        self._inflight[key] = inflight
        progress = SweepProgress(grid, self.ngpc, loop=loop)
        with self._progress_lock:
            self._progress[key] = progress
            finished = [
                k for k, p in self._progress.items()
                if p.state() != (None, None)
            ]
            for stale in finished[: max(0, len(finished) - _PROGRESS_RETAIN)]:
                del self._progress[stale]
        task = loop.create_task(
            self._evaluate(key, grid, inflight, progress, release)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return inflight

    async def _await_inflight(self, inflight: _Inflight) -> SweepResult:
        inflight.waiters += 1
        try:
            # shield: one awaiter's cancellation must not kill the shared
            # evaluation the other awaiters are attached to
            return await asyncio.shield(inflight.future)
        finally:
            inflight.waiters -= 1
            inflight.mark_retrieved_if_abandoned()

    async def _evaluate(
        self,
        key: Hashable,
        grid: SweepGrid,
        inflight: _Inflight,
        progress: SweepProgress,
        release=None,
    ) -> None:
        loop = asyncio.get_running_loop()
        future = inflight.future
        try:
            result = await loop.run_in_executor(
                None,
                functools.partial(self._evaluate_sync, key, grid, progress),
            )
        except Exception as exc:  # served to every coalesced awaiter
            progress.fail(exc)
            if not future.cancelled():
                future.set_exception(exc)
                # every awaiter may already have been cancelled — then the
                # exception is handled by design, not lost; keep asyncio
                # from warning "exception was never retrieved" at GC time
                inflight.mark_retrieved_if_abandoned()
        else:
            progress.finish(result)
            self._cache.put(key, result)
            if not future.cancelled():
                future.set_result(result)
        finally:
            self._inflight.pop(key, None)
            if release is not None:
                release()  # give the cold slot back (success or failure)

    def _evaluate_sync(
        self, key: Hashable, grid: SweepGrid, progress: SweepProgress
    ) -> SweepResult:
        """The executor-side tiered evaluation: disk, then compute.

        Runs in a worker thread.  With a store attached, a persisted
        sweep is served memory-mapped without touching ``sweep_fn``; a
        true miss evaluates — block-by-block against the store when the
        service runs the built-in :func:`~repro.core.dse.sweep_grid`,
        through the injected ``sweep_fn`` otherwise (its result is then
        persisted whole, so even cluster-evaluated sweeps restart warm).

        Every compute path feeds ``progress`` per completed block
        (``progress.record`` is thread-safe): the store tier through
        :func:`evaluate_with_block_cache`'s hooks, the built-in local
        path through :meth:`_sweep_blockwise`, and an injected
        ``sweep_fn`` whenever it accepts an ``on_block`` keyword (the
        shard coordinator's does); a sweep_fn without the keyword still
        works — its sweep just reports no partial progress.
        """
        if self.store is not None:
            persisted = self.store.load_sweep(key)
            if persisted is not None:
                self.tier["disk_hits"] += 1
                return persisted
        self.evaluations += 1
        self.tier["evaluations"] += 1
        if self._sweep_fn is sweep_grid:
            if self.store is not None:
                return evaluate_with_block_cache(
                    self.store, grid, ngpc=self.ngpc, counters=self.tier,
                    on_block=progress.record, on_plan=progress.set_plan,
                )
            return self._sweep_blockwise(grid, progress)
        kwargs = {}
        if "on_block" in inspect.signature(self._sweep_fn).parameters:
            kwargs["on_block"] = progress.record
        result = self._sweep_fn(
            grid, engine=self.engine, ngpc=self.ngpc, **kwargs
        )
        if self.store is not None:
            self.store.save_sweep(key, result)
        return result

    def _sweep_blockwise(
        self, grid: SweepGrid, progress: SweepProgress
    ) -> SweepResult:
        """Built-in local evaluation with per-block streaming progress.

        Evaluates the grid's window-major
        :func:`~repro.core.dse.stream_plan` through
        :func:`~repro.core.dse.evaluate_plan` — each configuration
        window across every (app, scheme) pair before the next window —
        so the first fully covered windows, and hence the first exact
        partial Pareto points, land after ``apps x schemes`` blocks
        rather than at the very end.  Blocks write in place into the dense arrays and
        finalization is ``sweep_grid``'s, so the result is bit-identical
        to the unstreamed path; the ``"scalar"`` reference engine (a
        debugging tool, not a serving engine) falls through to plain
        ``sweep_grid`` and simply reports no partial progress.
        """
        engine = _resolve_engine(self.engine, grid)
        if engine == "scalar" or grid.size == 0:
            return sweep_grid(grid, engine=self.engine, ngpc=self.ngpc)
        plan = stream_plan(grid)
        progress.set_plan(len(plan))
        arrays = evaluate_plan(grid, plan, self.ngpc, on_block=progress.record)
        return finalize_sweep_result(grid, engine, self.ngpc, arrays)

    # -- streaming -----------------------------------------------------------
    async def _cached_stream_events(
        self, cached, resolved, scheme, n_pixels, app, loop, encoding=None
    ) -> list:
        """The terminal event triple a stream over a finished sweep emits."""
        points = await loop.run_in_executor(
            None,
            functools.partial(
                cached.pareto_front, scheme, n_pixels=n_pixels, app=app,
                **(encoding or {}),
            ),
        )
        return [
            {
                "event": "progress",
                "points_done": resolved.size,
                "points_total": resolved.size,
                "blocks_done": None, "blocks_total": None,
                "done": True, "failed": False,
                "subscribers": 0, "elapsed_s": 0.0,
            },
            {
                "event": "front", "final": True,
                "points": [p.to_dict() for p in points],
            },
            {"event": "complete", "engine": cached.engine, "cached": True},
        ]

    async def sweep_stream(
        self,
        grid: GridLike = None,
        scheme: Optional[str] = None,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        gridtype: Optional[str] = None,
        log2_hashmap_size: Optional[int] = None,
        per_level_scale: Optional[float] = None,
    ) -> AsyncIterator[Dict]:
        """Evaluate ``grid`` and stream progress + refining Pareto fronts.

        An async generator of JSON-safe event dicts (the bodies of the
        ``/sweep/stream`` ndjson chunks):

        - ``{"event": "progress", ...}`` — counter snapshot (points /
          blocks done and total, elapsed seconds),
        - ``{"event": "front", "final": false, "points": [...]}`` — an
          *exact* partial Pareto front over the evaluated subset,
          emitted whenever it changed since the last one,
        - ``{"event": "front", "final": true, ...}`` then
          ``{"event": "complete", ...}`` — the dense result's front
          (bit-identical to ``/pareto`` on the same selectors),
        - ``{"event": "error", "error": {...}}`` — the structured error
          a plain request would have gotten as its JSON body.

        Selectors follow the usual ambiguity rule and are validated
        *before* any evaluation starts.  Streams attach to the same
        single-flight machinery as :meth:`sweep`: a stream over an
        already in-flight sweep coalesces onto it, and abandoning the
        generator (client disconnect) only unsubscribes — the
        evaluation keeps running for every other subscriber and still
        lands in the cache.
        """
        resolved = _as_grid(grid).resolve(self.ngpc).normalized()
        encoding = dict(
            gridtype=gridtype, log2_hashmap_size=log2_hashmap_size,
            per_level_scale=per_level_scale,
        )
        try:  # the structured error a plain /pareto would have answered
            query.front_selectors(resolved, scheme, n_pixels, app, **encoding)
        except KeyError as exc:
            raise as_service_error(exc) from exc
        key = sweep_fingerprint(resolved, self.ngpc)
        loop = asyncio.get_running_loop()
        if key not in self._inflight:
            cached = self._cache.get(key)
            if cached is not None:  # finished sweep: emit the terminal events
                self.tier["ram_hits"] += 1
                for event in await self._cached_stream_events(
                    cached, resolved, scheme, n_pixels, app, loop,
                    encoding=encoding,
                ):
                    yield event
                return
            release = await self._admit_cold()
            if key in self._inflight:
                # the slot wait let an identical sweep start: coalesce
                if release is not None:
                    release()
                self.coalesced += 1
            else:
                recheck = None
                if release is not None and getattr(release, "queued", False):
                    recheck = self._cache.get(key)
                if recheck is not None:  # finished while we queued
                    release()
                    self.tier["ram_hits"] += 1
                    for event in await self._cached_stream_events(
                        recheck, resolved, scheme, n_pixels, app, loop,
                        encoding=encoding,
                    ):
                        yield event
                    return
                self._start_evaluation(key, resolved, release=release)
        else:
            self.coalesced += 1
        with self._progress_lock:
            progress = self._progress.get(key)
        if progress is None:  # pragma: no cover - start registers first
            result = await self.sweep(resolved)
            progress = SweepProgress(resolved, self.ngpc, loop=loop)
            progress.finish(result)
        queue = progress.subscribe()
        try:
            last_front = None
            while True:
                result, error = progress.state()
                if error is not None:
                    payload = as_service_error(error).to_payload()
                    yield {"event": "error", "error": payload["error"]}
                    return
                snapshot = progress.snapshot()
                yield {"event": "progress", **snapshot}
                if result is not None:
                    points = await loop.run_in_executor(
                        None,
                        functools.partial(
                            result.pareto_front, scheme,
                            n_pixels=n_pixels, app=app, **encoding,
                        ),
                    )
                    yield {
                        "event": "front", "final": True,
                        "points": [p.to_dict() for p in points],
                    }
                    yield {
                        "event": "complete", "engine": result.engine,
                        "cached": False, "elapsed_s": snapshot["elapsed_s"],
                    }
                    return
                if snapshot["points_done"]:
                    points = await loop.run_in_executor(
                        None,
                        functools.partial(
                            progress.partial.pareto_front, scheme,
                            n_pixels=n_pixels, app=app, **encoding,
                        ),
                    )
                    front = [p.to_dict() for p in points]
                    if front and front != last_front:
                        last_front = front
                        yield {"event": "front", "final": False,
                               "points": front}
                # block for the next tick, then drain the burst — a slow
                # consumer coalesces ticks instead of falling behind
                await queue.get()
                while not queue.empty():
                    queue.get_nowait()
        finally:
            progress.unsubscribe(queue)

    def progress_snapshot(self, grid: GridLike = None) -> Optional[Dict]:
        """Counters for ``grid``'s sweep, or None if never started.

        The body of a ``/result?wait=`` 202 and the per-sweep section
        of ``/stats``; purely observational (never starts a sweep).
        """
        resolved = _as_grid(grid).resolve(self.ngpc).normalized()
        key = sweep_fingerprint(resolved, self.ngpc)
        with self._progress_lock:
            progress = self._progress.get(key)
        return None if progress is None else progress.snapshot()

    # -- adaptive exploration ------------------------------------------------
    def _explorer_for(self, grid: GridLike) -> AdaptiveExplorer:
        """One shared explorer per grid fingerprint.

        Blocks evaluate through the persistent store when one is
        attached (hits are free and flagged cached), and the explorer's
        own dedup guarantees no block ever evaluates twice across the
        queries and requests that share it.
        """
        resolved = _as_grid(grid).resolve(self.ngpc).normalized()
        key = sweep_fingerprint(resolved, self.ngpc)
        with self._explorers_lock:
            explorer = self._explorers.get(key)
            if explorer is None:
                runner = LocalBlockRunner(self.ngpc)
                if self.store is not None:
                    runner = StoreBlockRunner(runner, self.store, self.ngpc)
                explorer = AdaptiveExplorer(
                    resolved, runner=runner, ngpc=self.ngpc
                )
                self._explorers[key] = explorer
            return explorer

    async def _explore(self, fn, *args, **kwargs):
        """Run an explorer query off-loop (it may emulate blocks)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, functools.partial(fn, *args, **kwargs)
        )

    # -- queries -------------------------------------------------------------
    # Each query asks the grid's source — the adaptive explorer off-loop,
    # or the dense result — which resolves the selectors itself.
    async def pareto_front(
        self,
        grid: GridLike = None,
        scheme: Optional[str] = None,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        **encoding,
    ) -> List[DesignPoint]:
        """Non-dominated (area, speedup) configurations of the grid."""
        if self.explore == "adaptive":
            return await self._explore(
                self._explorer_for(grid).pareto, scheme, n_pixels, app,
                **encoding,
            )
        result = await self.sweep(grid)
        return result.pareto_front(scheme, n_pixels, app, **encoding)

    async def cheapest(
        self,
        grid: GridLike,
        app: Optional[str] = None,
        fps: Optional[float] = None,
        n_pixels: Optional[int] = None,
        scheme: Optional[str] = None,
        **selectors,
    ) -> Optional[DesignPoint]:
        """Cheapest-area configuration meeting a target, or None.

        The target is ``fps`` or ``train_steps_per_s``, as for
        :meth:`repro.core.dse.SweepResult.cheapest`; an infeasible one
        answers None (the ``/cheapest`` wire's ``result: null``).
        """
        try:
            if self.explore == "adaptive":
                return await self._explore(
                    self._explorer_for(grid).cheapest,
                    app, fps, n_pixels, scheme, **selectors,
                )
            result = await self.sweep(grid)
            return result.cheapest(app, fps, n_pixels, scheme, **selectors)
        except InfeasibleQueryError:
            return None

    async def cheapest_point_meeting_fps(
        self, grid: GridLike, app: str, fps: float, **selectors
    ) -> Optional[DesignPoint]:
        """:meth:`cheapest` at ``fps``."""
        return await self.cheapest(grid, app, fps, **selectors)

    async def point(self, grid: GridLike, **selectors) -> EmulationResult:
        """One grid point's :class:`EmulationResult`.

        Every selector follows the ambiguity rule: optional when its
        axis is a singleton, a structured 400 naming the axis otherwise.
        """
        if self.explore == "adaptive":
            return await self._explore(
                self._explorer_for(grid).point, **selectors
            )
        result = await self.sweep(grid)
        return result.point(**selectors)

    # -- introspection -------------------------------------------------------
    def stats(self) -> Dict:
        """Cache/coalescing counters (the ``/stats`` endpoint body).

        ``cache`` describes the *tiered* cache, not just the in-RAM
        LRU: ``size``/``hits``/``misses`` are the LRU's own view, and
        ``ram_hits``/``disk_hits``/``evaluations`` split every resolved
        sweep by the tier that actually served it (without a store,
        ``disk_hits`` is simply always 0).  With a store attached,
        ``store`` carries its catalogue and block-reuse counters.
        """
        stats = {
            "engine": self.engine,
            "schema_version": PAYLOAD_SCHEMA_VERSION,
            "evaluations": self.evaluations,
            "coalesced": self.coalesced,
            "inflight": len(self._inflight),
            "cache": {
                **self._cache.info(),
                "ram_hits": self.tier["ram_hits"],
                "disk_hits": self.tier["disk_hits"],
                "evaluations": self.tier["evaluations"],
            },
            "http": dict(self.http),
            "explore": self._explore_stats(),
            "progress": self._progress_stats(),
        }
        if self.store is not None:
            stats["store"] = {
                **self.store.stats(),
                "blocks_total": self.tier["blocks_total"],
                "blocks_cached": self.tier["blocks_cached"],
                "blocks_evaluated": self.tier["blocks_evaluated"],
            }
        for name, provider in self.stats_extra.items():
            stats[name] = provider() if callable(provider) else provider
        return stats

    def _progress_stats(self) -> Dict[str, Dict]:
        """Per-sweep progress counters, keyed by a short fingerprint digest.

        The digest is stable for the lifetime of the process (it hashes
        the sweep fingerprint), so a dashboard polling ``/stats`` can
        follow one sweep's ``points_done`` across requests.
        """
        with self._progress_lock:
            entries = list(self._progress.items())
        return {
            hashlib.sha256(repr(key).encode()).hexdigest()[:12]: p.snapshot()
            for key, p in entries
        }

    def _explore_stats(self) -> Dict:
        """The ``explore`` section of :meth:`stats`.

        In adaptive mode, the exploration counters summed over every
        grid explored so far — ``points_evaluated / points_total`` is
        the service-wide evaluated fraction of all queried hypercubes.
        """
        out: Dict = {"mode": self.explore}
        if self.explore != "adaptive":
            return out
        totals = ExplorationStats()
        with self._explorers_lock:
            out["grids"] = len(self._explorers)
            for explorer in self._explorers.values():
                s = explorer.stats
                for name in (
                    "rounds", "blocks_total", "blocks_evaluated",
                    "blocks_cached", "blocks_pruned", "points_total",
                    "points_evaluated", "bound_violations",
                ):
                    setattr(totals, name, getattr(totals, name) + getattr(s, name))
        out.update(totals.to_dict())
        return out

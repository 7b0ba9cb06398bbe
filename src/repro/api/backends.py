"""Pluggable execution backends behind :class:`repro.api.Session`.

A backend answers exactly two evaluation primitives — a dense grid
sweep returning a :class:`~repro.core.dse.SweepResult`, and a memoized
scalar point returning an :class:`~repro.core.dse.EmulationResult` —
plus introspection (``stats``/``health``) and lifecycle (``close``).
Everything richer (Pareto fronts, FPS constraints, records) is computed
on the returned :class:`SweepResult` by the
:class:`~repro.api.session.Sweep` handle, which is what makes the
backends bit-identical by construction: the remote backend ships the
*same dense arrays* over HTTP (``POST /result``, exact float
round-trip via JSON shortest-repr) that the local backend computes
in-process.

- :class:`LocalBackend` — wraps :func:`~repro.core.dse.sweep_grid`
  (the ``"auto"`` engine is the in-place vectorized one) and the
  memoized scalar
  :func:`~repro.core.emulator.emulate` path.  Pass ``store=`` (a
  :class:`~repro.store.ResultStore` or directory path) to evaluate
  through the persistent tier instead: sweeps load memory-mapped from
  disk when previously persisted — by this process, an earlier run, or
  a service replica sharing the directory — and cold grids reuse every
  persisted block, evaluating only the missing slices.
- :class:`RemoteBackend` — wraps
  :class:`~repro.service.client.SyncServiceClient`, one keep-alive
  connection reused across every call; an unreachable service raises
  :class:`~repro.errors.BackendUnavailableError`.
- :class:`DistributedBackend` — the roadmap's "distribute block shards
  across machines" item: embeds a
  :class:`~repro.service.cluster.ShardCoordinator` (plus optionally
  spawned local worker processes) and evaluates sweeps by leasing the
  grid's contiguous vectorized blocks to every worker that joins —
  local subprocesses and remote ``repro worker`` hosts alike — behind
  the same four methods.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import replace
from typing import Dict, Optional, Union

from repro.core import query
from repro.core.config import NGPCConfig
from repro.core.dse import (
    _ENGINES,
    _SWEEP_CACHE,
    _SWEEP_CACHE_MAX_POINTS,
    EmulationResult,
    SweepGrid,
    SweepResult,
    _resolve_engine,
    assemble_shard_blocks,
    finalize_sweep_result,
    store_block_plan,
    stream_plan,
    sweep_fingerprint,
    sweep_grid,
    window_major,
)
from repro.core.emulator import emulate, emulate_with_config
from repro.errors import BackendUnavailableError
from repro.explore import (
    ClusterBlockRunner,
    LocalBlockRunner,
    StoreBlockRunner,
)
from repro.service.client import SyncServiceClient
from repro.service.errors import ServiceError
from repro.service.progress import PartialSweep
from repro.store import (
    STORE_ENGINE,
    ResultStore,
    fetch_blocks,
    new_tier_counters,
    sweep_with_store,
)


class Backend:
    """The backend contract (duck-typed; subclassing is optional)."""

    name: str = "abstract"

    def sweep(self, grid: SweepGrid) -> SweepResult:
        raise NotImplementedError

    def point(
        self, app: str, scheme: str, scale_factor: int, n_pixels: int
    ) -> EmulationResult:
        raise NotImplementedError

    def stats(self) -> Dict:
        raise NotImplementedError

    def block_runner(self):
        """A block runner for adaptive exploration, or None.

        Backends that can evaluate value-keyed block tasks on demand
        (local engines, the shard cluster) return a runner with an
        ``evaluate(tasks)`` method; backends that only ship whole dense
        results (the remote HTTP backend) return None, and
        :meth:`Session.sweep` falls back to exhaustive evaluation.
        """
        return None

    def stream_events(
        self,
        grid: SweepGrid,
        scheme: Optional[str] = None,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        gridtype: Optional[str] = None,
        log2_hashmap_size: Optional[int] = None,
        per_level_scale: Optional[float] = None,
    ):
        """Progress + refining-Pareto-front events for one sweep, or None.

        Backends that can stream return a plain (sync) generator of the
        service's stream event dicts (``progress`` / ``front`` /
        ``complete`` / ``error`` — see
        :meth:`repro.service.SweepService.sweep_stream`); in-process
        backends additionally put the dense :class:`SweepResult` under
        ``"result_obj"`` in the ``complete`` event so
        :meth:`~repro.api.session.Sweep.watch` materializes it without a
        second evaluation.  ``None`` means streaming is unsupported and
        the caller should fall back to one dense sweep.
        """
        return None

    def health(self) -> Dict:
        return {"ok": True, "backend": self.name}

    def close(self) -> None:
        pass


class LocalBackend(Backend):
    """In-process evaluation: the batched engines + the scalar memo."""

    name = "local"

    def __init__(
        self,
        engine: str = "auto",
        ngpc: Optional[NGPCConfig] = None,
        use_cache: bool = True,
        store: Union[ResultStore, str, None] = None,
    ):
        if engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {_ENGINES}")
        self.engine = engine
        self.ngpc = ngpc
        self.use_cache = use_cache
        if isinstance(store, str):
            store = ResultStore(store)
        self.store: Optional[ResultStore] = store
        self.tier = new_tier_counters()

    def sweep(self, grid: SweepGrid) -> SweepResult:
        if self.store is not None:
            # the tiered ladder: RAM memo -> persisted sweep -> persisted
            # blocks -> evaluate the delta (vectorized, block by block)
            return sweep_with_store(
                self.store,
                grid.resolve(self.ngpc),
                ngpc=self.ngpc,
                counters=self.tier,
                use_cache=self.use_cache,
            )
        return sweep_grid(
            grid, engine=self.engine, ngpc=self.ngpc, use_cache=self.use_cache
        )

    def point(
        self, app: str, scheme: str, scale_factor: int, n_pixels: int
    ) -> EmulationResult:
        """One fully specified point via the memoized scalar path."""
        if self.ngpc is None:
            return emulate(app, scheme, scale_factor, n_pixels)
        config = replace(self.ngpc, scale_factor=scale_factor)
        return emulate_with_config(app, scheme, config, n_pixels)

    def block_runner(self):
        """In-process block evaluation; store-tiered when one is attached."""
        runner = LocalBlockRunner(self.ngpc)
        if self.store is not None:
            runner = StoreBlockRunner(runner, self.store, self.ngpc)
        return runner

    def stream_events(
        self,
        grid: SweepGrid,
        scheme: Optional[str] = None,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        gridtype: Optional[str] = None,
        log2_hashmap_size: Optional[int] = None,
        per_level_scale: Optional[float] = None,
    ):
        """Blockwise in-process evaluation, yielding events per block.

        Without a store, the grid is cut by
        :func:`~repro.core.dse.stream_plan`; with one, by
        :func:`~repro.core.dse.store_block_plan` so every block rides
        the persistent tier (hits are streamed too — a warm store
        streams its fronts in milliseconds).  Both cuts are walked
        window-major, so the earliest blocks complete whole
        configuration windows across every (app, scheme) pair and the
        first exact partial front appears after a small fraction of the
        sweep.  The assembled result is bit-identical to
        :meth:`sweep`'s and rides the same RAM memo.
        """
        resolved = grid.resolve(self.ngpc)
        encoding = dict(
            gridtype=gridtype, log2_hashmap_size=log2_hashmap_size,
            per_level_scale=per_level_scale,
        )
        # a bad selector fails before any block evaluates
        query.front_selectors(resolved, scheme, n_pixels, app, **encoding)
        partial = PartialSweep(resolved, self.ngpc)
        engine = (
            STORE_ENGINE if self.store is not None
            else _resolve_engine(self.engine, resolved)
        )
        fingerprint = sweep_fingerprint(resolved, self.ngpc)
        ram_key = (resolved, engine, fingerprint)
        cacheable = self.use_cache and resolved.size <= _SWEEP_CACHE_MAX_POINTS

        def terminal_events(result, cached):
            points = result.pareto_front(
                scheme, n_pixels=n_pixels, app=app, **encoding
            )
            yield {
                "event": "progress",
                "points_done": resolved.size,
                "points_total": resolved.size,
                "blocks_done": None, "blocks_total": None,
                "done": True, "failed": False, "elapsed_s": 0.0,
            }
            yield {"event": "front", "final": True,
                   "points": [p.to_dict() for p in points]}
            yield {"event": "complete", "engine": result.engine,
                   "cached": cached, "result_obj": result}

        if cacheable:
            cached = _SWEEP_CACHE.get(ram_key)
            if cached is not None:
                self.tier["ram_hits"] += 1
                yield from terminal_events(cached, True)
                return
        if self.store is not None:
            persisted = self.store.load_sweep(fingerprint)
            if persisted is not None:
                self.tier["disk_hits"] += 1
                if cacheable:
                    _SWEEP_CACHE.put(ram_key, persisted)
                yield from terminal_events(persisted, True)
                return
            plan = window_major(store_block_plan(resolved))
        else:
            plan = stream_plan(resolved)
        self.tier["evaluations"] += 1
        if self.store is not None:
            self.tier["blocks_total"] += len(plan)
        started = time.monotonic()
        placed = []
        points_done = 0
        last_front = None
        for placement, block in fetch_blocks(
            self.store, plan, self.ngpc, self.tier
        ):
            points_done += partial.record(placement, block)
            placed.append((placement, block))
            yield {
                "event": "progress",
                "points_done": points_done,
                "points_total": resolved.size,
                "blocks_done": len(placed), "blocks_total": len(plan),
                "done": False, "failed": False,
                "elapsed_s": round(time.monotonic() - started, 6),
            }
            front = [
                p.to_dict()
                for p in partial.pareto_front(
                    scheme, n_pixels=n_pixels, app=app, **encoding
                )
            ]
            if front and front != last_front:
                last_front = front
                yield {"event": "front", "final": False, "points": front}
        result = finalize_sweep_result(
            resolved, engine, self.ngpc, assemble_shard_blocks(resolved, placed)
        )
        if self.store is not None:
            self.store.save_sweep(fingerprint, result)
        if cacheable:
            _SWEEP_CACHE.put(ram_key, result)
        yield {
            "event": "progress",
            "points_done": resolved.size, "points_total": resolved.size,
            "blocks_done": len(plan), "blocks_total": len(plan),
            "done": True, "failed": False,
            "elapsed_s": round(time.monotonic() - started, 6),
        }
        final = result.pareto_front(
            scheme, n_pixels=n_pixels, app=app, **encoding
        )
        yield {"event": "front", "final": True,
               "points": [p.to_dict() for p in final]}
        yield {"event": "complete", "engine": result.engine,
               "cached": False, "result_obj": result}

    def stats(self) -> Dict:
        stats = {
            "backend": self.name,
            "engine": self.engine,
            "cache": _SWEEP_CACHE.info(),
        }
        if self.store is not None:
            stats["cache"] = {**stats["cache"], **dict(self.tier)}
            stats["store"] = self.store.stats()
        return stats


class RemoteBackend(Backend):
    """Evaluation delegated to a running ``python -m repro serve``.

    The service evaluates (and caches, and coalesces) the sweep; the
    full dense result ships back over one keep-alive connection and is
    rebuilt with :meth:`SweepResult.from_payload`, so every downstream
    query runs on numbers identical to the local backend's.
    """

    name = "remote"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        timeout: float = 120.0,
        client: Optional[SyncServiceClient] = None,
        api_key: Optional[str] = None,
    ):
        self.host = host
        self.port = port
        self._client = client or SyncServiceClient(
            host, port, timeout=timeout, api_key=api_key
        )

    def sweep(self, grid: SweepGrid) -> SweepResult:
        payload = self._client.result_payload(grid.to_dict())
        return SweepResult.from_payload(payload)

    def point(
        self, app: str, scheme: str, scale_factor: int, n_pixels: int
    ) -> EmulationResult:
        grid = SweepGrid(
            apps=(app,),
            schemes=(scheme,),
            scale_factors=(scale_factor,),
            pixel_counts=(n_pixels,),
        )
        record = self._client.point(grid.to_dict())
        # a schema-drifted server may serve a record missing fields this
        # build expects; fail structured (naming them) instead of with a
        # raw KeyError from deep inside the dict comprehension
        field_names = [f.name for f in dataclasses.fields(EmulationResult)]
        missing = [name for name in field_names if name not in record]
        if missing:
            raise ServiceError(
                502, "bad-response",
                f"served point record is missing field(s) "
                f"{', '.join(missing)} (schema-drifted server?)",
                missing=missing,
            )
        return EmulationResult(**{name: record[name] for name in field_names})

    def stream_events(
        self,
        grid: SweepGrid,
        scheme: Optional[str] = None,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        gridtype: Optional[str] = None,
        log2_hashmap_size: Optional[int] = None,
        per_level_scale: Optional[float] = None,
    ):
        """The server's ``/sweep/stream`` ndjson events, as received.

        The final front is computed server-side from the same dense
        arrays ``sweep`` would ship, so it is bit-identical to the
        local backends' — only ``result_obj`` is absent (the stream
        carries fronts, not the hypercube).
        """
        return self._client.stream_pareto(
            grid.to_dict(), scheme=scheme, n_pixels=n_pixels, app=app,
            gridtype=gridtype, log2_hashmap_size=log2_hashmap_size,
            per_level_scale=per_level_scale,
        )

    def stats(self) -> Dict:
        stats = self._client.stats()
        stats["backend"] = self.name
        stats["client"] = {
            "connections_opened": self._client.connections_opened,
            "reuses": self._client.reuses,
        }
        return stats

    def health(self) -> Dict:
        health = self._client.healthz()
        health["backend"] = self.name
        return health

    def admin(self, op: str) -> Dict:
        """Operator actions against the live server (``repro admin``).

        ``"drain"`` retires the cluster's current worker generation
        (admin tenants only); ``"ops"`` fetches the ops section of
        ``/stats`` — tenants, admission counters, readiness — without
        needing a metrics stack.  Raises the server's structured
        :class:`~repro.service.errors.ServiceError` on refusal (401/
        403/404) and :class:`~repro.errors.BackendUnavailableError`
        when nothing is listening.
        """
        if op == "drain":
            return self._client.request("POST", "/cluster/drain")["result"]
        if op == "ops":
            return self._client.stats().get("ops", {})
        raise ValueError(f"unknown admin op {op!r} (want 'drain' or 'ops')")

    def close(self) -> None:
        self._client.close()


class DistributedBackend(Backend):
    """Multi-host evaluation: block shards leased to a worker cluster.

    Embeds a :class:`~repro.service.cluster.ShardCoordinator` behind a
    :class:`~repro.service.SweepService` (so identical concurrent
    sweeps single-flight-coalesce and completed results LRU-cache,
    exactly as on the remote backend) on a private event-loop thread,
    and serves the worker protocol on ``http://host:port`` — spawning
    ``workers`` local ``repro worker`` subprocesses and accepting any
    remote host that runs ``repro worker --host <host> --port <port>``.

    Evaluation is :func:`~repro.core.dse.shard_plan`'s block sharding
    lifted over HTTP: the grid's contiguous vectorized block tasks are
    leased to workers (re-leased on worker death or lease timeout),
    evaluated with calibration installed once per worker generation,
    and the dense float64 arrays stream back for assembly into one
    :class:`SweepResult` — so results are bit-identical to a local
    evaluation.  Persistent workers amortize interpreter/NumPy startup
    and calibration pre-warm across sweeps.

    ``lease_timeout_s`` bounds how long a dead worker can strand a
    block; ``block_delay_s`` is the fault-injection knob forwarded to
    spawned workers (tests/chaos only).
    """

    name = "distributed"

    def __init__(
        self,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        ngpc: Optional[NGPCConfig] = None,
        lease_timeout_s: float = 10.0,
        sweep_timeout_s: Optional[float] = 600.0,
        max_cached_sweeps: int = 32,
        ready_timeout_s: float = 60.0,
        block_delay_s: float = 0.0,
    ):
        import asyncio

        from repro.service import SweepService, start_http_server
        from repro.service.cluster import (
            ShardCoordinator,
            spawn_local_workers,
            terminate_workers,
        )

        self._terminate_workers = terminate_workers
        self.ngpc = ngpc
        self.coordinator = ShardCoordinator(
            ngpc=ngpc, lease_timeout_s=lease_timeout_s
        )
        self._sweep_timeout_s = sweep_timeout_s

        def cluster_sweep_fn(grid, engine="cluster", ngpc=None, on_block=None):
            return self.coordinator.sweep_blocking(
                grid, ngpc=ngpc, timeout_s=self._sweep_timeout_s,
                on_block=on_block,
            )

        self.service = SweepService(
            engine="cluster", ngpc=ngpc, sweep_fn=cluster_sweep_fn,
            max_cached_sweeps=max_cached_sweeps,
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server = None
        self._workers = []
        self._closed = False
        started = threading.Event()
        startup_error = []

        def serve():
            async def main():
                try:
                    self._server = await start_http_server(
                        self.service, host, port, cluster=self.coordinator
                    )
                except Exception as exc:
                    startup_error.append(exc)
                    started.set()
                    return
                self._loop = asyncio.get_running_loop()
                self._stop = asyncio.Event()
                started.set()
                await self._stop.wait()
                await self._server.close()

            asyncio.run(main())

        self._thread = threading.Thread(
            target=serve, name="repro-distributed", daemon=True
        )
        self._thread.start()
        ready = started.wait(timeout=ready_timeout_s)
        if startup_error:
            raise BackendUnavailableError(
                f"could not start the shard coordinator on {host}:{port} "
                f"({startup_error[0]})", host=host, port=port,
            ) from startup_error[0]
        if not ready or self._server is None:
            self._closed = True
            raise BackendUnavailableError(
                f"shard coordinator on {host}:{port} did not come up "
                f"within {ready_timeout_s:g}s", host=host, port=port,
            )
        self.host = host
        #: the coordinator's bound port — remote workers join here
        self.port = self._server.port
        if workers:
            self._workers = spawn_local_workers(
                self.host, self.port, workers, block_delay_s=block_delay_s
            )
            self._wait_for_workers(workers, ready_timeout_s)

    def _alive_workers(self) -> int:
        # counted on the event loop: registrations mutate the worker
        # dict there, racing a direct off-thread iteration
        async def collect():
            return self.coordinator.n_alive_workers

        return self._run(collect)

    def _wait_for_workers(self, n_workers: int, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self._alive_workers() >= n_workers:
                return
            if any(p.poll() is not None for p in self._workers):
                break  # a spawned worker already died: fail fast
            time.sleep(0.05)
        alive = self._alive_workers()
        self.close()
        raise BackendUnavailableError(
            f"only {alive} of {n_workers} local "
            f"workers registered within {timeout_s:g}s",
            host=self.host, port=self.port,
        )

    def _run(self, coro_factory):
        import asyncio

        # checked before the coroutine is created, so a closed backend
        # raises without leaving a never-awaited coroutine behind
        if self._closed or self._loop is None:
            raise BackendUnavailableError(
                "distributed backend is closed", host=self.host, port=self.port
            )
        return asyncio.run_coroutine_threadsafe(
            coro_factory(), self._loop
        ).result()

    def sweep(self, grid: SweepGrid) -> SweepResult:
        return self._run(lambda: self.service.sweep(grid))

    def block_runner(self):
        """Adaptive refinement rounds leased to the worker cluster.

        Each round's block tasks go through the coordinator's raw-block
        path (:meth:`~repro.service.cluster.ShardCoordinator.
        blocks_blocking`), riding the same lease/expiry machinery as
        full sweeps — worker deaths re-queue blocks, throughput EWMAs
        size them.
        """
        def submit(tasks):
            return self.coordinator.blocks_blocking(tasks, ngpc=self.ngpc)

        return ClusterBlockRunner(submit)

    def stream_events(
        self,
        grid: SweepGrid,
        scheme: Optional[str] = None,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        gridtype: Optional[str] = None,
        log2_hashmap_size: Optional[int] = None,
        per_level_scale: Optional[float] = None,
    ):
        """The embedded service's stream, bridged off its loop thread.

        Workers complete blocks on the coordinator loop; the service's
        ``sweep_stream`` turns them into events there, and a pump
        coroutine relays each event into a thread-safe queue this sync
        generator drains.  Abandoning the generator cancels the pump —
        which unsubscribes — while the sweep itself keeps running to
        completion (it lands in the service LRU for the next call).
        """
        import asyncio
        import queue as queue_module

        if self._closed or self._loop is None:
            raise BackendUnavailableError(
                "distributed backend is closed", host=self.host, port=self.port
            )
        events: queue_module.Queue = queue_module.Queue()
        sentinel = object()

        async def pump():
            try:
                async for event in self.service.sweep_stream(
                    grid, scheme=scheme, n_pixels=n_pixels, app=app,
                    gridtype=gridtype,
                    log2_hashmap_size=log2_hashmap_size,
                    per_level_scale=per_level_scale,
                ):
                    events.put(event)
            except BaseException as exc:
                events.put(exc)
                raise
            finally:
                events.put(sentinel)

        future = asyncio.run_coroutine_threadsafe(pump(), self._loop)
        try:
            while True:
                item = events.get()
                if item is sentinel:
                    break
                if isinstance(item, BaseException):
                    raise item
                yield item
        finally:
            future.cancel()

    def point(
        self, app: str, scheme: str, scale_factor: int, n_pixels: int
    ) -> EmulationResult:
        """One fully specified point, evaluated as a singleton sweep.

        Distributed sessions keep *all* evaluation on the workers (the
        client process never needs the calibration warm), so the scalar
        path is a one-point grid through the same lease machinery; the
        service's LRU makes repeats cheap.
        """
        grid = SweepGrid(
            apps=(app,),
            schemes=(scheme,),
            scale_factors=(scale_factor,),
            pixel_counts=(n_pixels,),
        )
        return self.sweep(grid).point(app, scheme, scale_factor, n_pixels)

    def stats(self) -> Dict:
        # collected on the event loop: the coordinator's worker/lease
        # dicts mutate there, and iterating them from this thread could
        # race a registration or reaper eviction mid-snapshot
        async def collect():
            return self.service.stats()

        stats = self._run(collect)
        stats["backend"] = self.name
        stats["endpoint"] = {"host": self.host, "port": self.port}
        return stats

    def health(self) -> Dict:
        if self._closed or self._loop is None:
            return {"ok": False, "backend": self.name, "workers_alive": 0}

        async def collect():
            return self.coordinator.n_alive_workers

        alive = self._run(collect)
        return {
            "ok": alive > 0,
            "backend": self.name,
            "workers_alive": alive,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._workers:
            self._terminate_workers(self._workers)
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)

"""Per-sweep streaming progress: partial arrays, fronts, subscribers.

One :class:`SweepProgress` exists per in-flight (or recently finished)
sweep in a :class:`~repro.service.sweep_service.SweepService`.  The
evaluation side — the local blockwise path, the store's block loop, or
the shard coordinator's ``on_block`` hook — calls :meth:`record` from
whatever thread completes a block; the serving side subscribes from the
event loop and turns ticks into ``/sweep/stream`` events.

:class:`PartialSweep` holds dense speedup arrays that blocks scatter
into (gated by a validity mask — unevaluated entries are never read),
and computes **exact partial Pareto fronts**: only grid points whose
every app slice is evaluated are candidates, and the front is built by
the same :func:`repro.core.query.front_points` as
:meth:`repro.core.dse.SweepResult.pareto_front`, so the moment the last
block lands the partial front is bit-identical to the dense result's
front.  Fronts only ever refine —
each is exact over the evaluated subset, never an estimate.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import query
from repro.core.config import NGPCConfig
from repro.core.dse import DesignPoint, SweepGrid
from repro.core.area_power import ngpc_area_power_batch

__all__ = ["PartialSweep", "SweepProgress"]


class PartialSweep:
    """Dense partial speedup arrays a sweep's blocks scatter into."""

    def __init__(self, grid: SweepGrid, ngpc: Optional[NGPCConfig]):
        self.grid = grid
        self._lock = threading.Lock()
        # zero-initialized, not NaN: every read is masked by _valid, and
        # np.zeros gets lazily mapped pages where a NaN fill would write
        # the whole array up front (milliseconds on multi-million-point
        # grids — paid before the first block, i.e. on the latency path)
        self._speedup = np.zeros(grid.shape)
        self._valid = np.zeros(grid.shape, dtype=bool)
        # the exact cost arrays are free: they depend only on the grid
        # axes, identically to finalize_sweep_result's attach
        cost = ngpc_area_power_batch(
            np.asarray(grid.scale_factors),
            ngpc.nfp if ngpc else None,
            clocks_ghz=grid.clocks_ghz,
            grid_sram_kb=grid.grid_sram_kb,
            n_engines=grid.n_engines,
        )
        self.area_overhead_pct = cost["area_overhead_pct"]
        self.power_overhead_pct = cost["power_overhead_pct"]

    def record(self, placement: Tuple, block: Dict[str, np.ndarray]) -> int:
        """Scatter one evaluated block; returns the newly covered points."""
        i, j, windows = placement
        dest = (i, j) + tuple(slice(lo, hi) for lo, hi in windows)
        with self._lock:
            fresh = int(np.count_nonzero(~self._valid[dest]))
            # element-wise division is what SweepResult.speedup computes
            # over the dense arrays, so the values land bit-identical
            self._speedup[dest] = (
                np.asarray(block["baseline_ms"])
                / np.asarray(block["accelerated_ms"])
            )
            self._valid[dest] = True
        return fresh

    def pareto_front(
        self,
        scheme: Optional[str] = None,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        gridtype=None,
        log2_hashmap_size=None,
        per_level_scale=None,
    ) -> List[DesignPoint]:
        """Exact Pareto front over the fully evaluated grid points.

        A point is a candidate once *every* app's slice at its
        configuration is evaluated (the returned ``speedups`` dict must
        be complete).  Selectors and front assembly are
        :mod:`repro.core.query`'s, so with every block recorded the
        output is bit-identical to the dense front.
        """
        j, l, i, enc = query.front_selectors(
            self.grid, scheme, n_pixels, app,
            gridtype, log2_hashmap_size, per_level_scale,
        )
        plane = (slice(None), j, slice(None), l, Ellipsis) + enc
        with self._lock:
            valid = self._valid[plane].all(axis=0)  # (K, C, G, E, B)
            if not valid.any():
                return []
            return query.front_points(
                self.grid, self._speedup[plane],
                self.area_overhead_pct, self.power_overhead_pct, i, enc,
                None if valid.all() else valid,
            )


class SweepProgress:
    """Progress counters + pub/sub hub for one in-flight sweep.

    Thread-safe on the producer side (:meth:`record` / :meth:`finish` /
    :meth:`fail` run on executor threads or the coordinator loop);
    subscribers are :class:`asyncio.Queue` objects living on the
    service's event loop, woken via ``call_soon_threadsafe``.  Ticks
    are cheap notifications — subscribers read counters through
    :meth:`snapshot` and compute fronts from :attr:`partial` at their
    own pace, so a slow consumer coalesces ticks instead of queueing
    work.
    """

    def __init__(self, grid: SweepGrid, ngpc: Optional[NGPCConfig],
                 loop=None):
        self.partial = PartialSweep(grid, ngpc)
        self._lock = threading.Lock()
        self._loop = loop
        self._queues: set = set()
        self.points_total = grid.size
        self.points_done = 0
        self.blocks_total: Optional[int] = None
        self.blocks_done = 0
        self.started_at = time.monotonic()
        self.result = None
        self.error: Optional[BaseException] = None

    # -- producer side -------------------------------------------------------
    def set_plan(self, n_blocks: int) -> None:
        with self._lock:
            self.blocks_total = int(n_blocks)
        self._publish()

    def record(self, placement: Tuple, block: Dict[str, np.ndarray]) -> None:
        fresh = self.partial.record(placement, block)
        with self._lock:
            self.blocks_done += 1
            self.points_done += fresh
        self._publish()

    def finish(self, result) -> None:
        with self._lock:
            self.result = result
            self.points_done = self.points_total
            if self.blocks_total is not None:
                self.blocks_done = self.blocks_total
        self._publish()

    def fail(self, error: BaseException) -> None:
        with self._lock:
            self.error = error
        self._publish()

    def _publish(self) -> None:
        with self._lock:
            loop, queues = self._loop, list(self._queues)
        if loop is None:
            return
        for queue in queues:
            try:
                loop.call_soon_threadsafe(queue.put_nowait, True)
            except RuntimeError:
                pass  # loop already closed mid-shutdown

    # -- consumer side -------------------------------------------------------
    def subscribe(self):
        """Register one wake-up queue (call from the service loop)."""
        import asyncio

        queue = asyncio.Queue()
        with self._lock:
            self._queues.add(queue)
        return queue

    def unsubscribe(self, queue) -> None:
        with self._lock:
            self._queues.discard(queue)

    @property
    def n_subscribers(self) -> int:
        with self._lock:
            return len(self._queues)

    def state(self) -> Tuple:
        """Atomic (result, error) pair."""
        with self._lock:
            return self.result, self.error

    def snapshot(self) -> Dict:
        """JSON-safe progress counters (for ``/stats`` and 202 bodies)."""
        with self._lock:
            return {
                "points_done": self.points_done,
                "points_total": self.points_total,
                "blocks_done": self.blocks_done,
                "blocks_total": self.blocks_total,
                "done": self.result is not None,
                "failed": self.error is not None,
                "subscribers": len(self._queues),
                "elapsed_s": round(time.monotonic() - self.started_at, 6),
            }

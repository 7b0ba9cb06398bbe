"""Shard coordinator: leases sweep blocks to workers across hosts.

:class:`ShardCoordinator` is the server half of the distributed sweep
engine.  A sweep submitted via :meth:`ShardCoordinator.submit` is cut
into contiguous vectorized block tasks (:func:`repro.core.dse.shard_plan`
— plain tuples, so a task crosses host boundaries unchanged), queued, and
handed out to workers over the coordinator's HTTP endpoints:

====================== ====================================================
endpoint               body / result (binary frames, :mod:`repro.transport`)
====================== ====================================================
``POST /cluster/register``  ``{host?, pid?}`` -> ``{worker_id,
                            calibration, ngpc, lease_timeout_s}``
``POST /cluster/lease``     ``{worker_id}`` -> long-poll; one of
                            ``{job_id, task_id, task, ngpc,
                            calibration}``, ``{empty: true}`` (poll
                            timeout, re-poll) or ``{stop: true}``
``POST /cluster/complete``  ``{worker_id, job_id, task_id, arrays}``
                            -> ``{ok: true, accepted: bool}``
``GET  /cluster/stats``     lease/worker/job counters
====================== ====================================================

(The one JSON ``/cluster`` endpoint, ``POST /cluster/drain``, is served
by the HTTP layer, not this adapter: it is an admin-authenticated
operator verb calling :meth:`ShardCoordinator.drain` for rolling
worker-generation restarts, not part of the worker wire protocol.)

Lease semantics (the failure model):

- Work is **pull-based**: nothing is ever assigned to a worker that did
  not ask, so a dead worker can only strand blocks it already leased.
- Every lease carries a deadline (``lease_timeout_s``).  A reaper task
  re-queues expired leases and marks the worker dead; any live worker's
  next poll picks the block up, so killing a worker mid-sweep delays
  its blocks by at most one lease timeout — the sweep still completes.
- A late completion from a presumed-dead worker is accepted only while
  no *other* worker holds the block (first result wins).  Once the
  block was re-leased — or already finished — the late result (or a
  late error report) is a counted no-op (``late_completions`` /
  ``stale_completions``), so re-leasing never double-counts a block in
  the stats or clobbers the new holder's lease.

Workers evaluate with the coordinator's calibration constants: every
lease carries the calibration fingerprint and base config the job was
submitted under, and workers reinstall them only when they change — the
multi-host equivalent of the process-pool initializer, keeping blocks
bit-identical to a local evaluation.

Bodies and responses are versioned binary frames
(:mod:`repro.transport`): dense float64 blocks round-trip exactly and
decode zero-copy on the receiving side via ``np.frombuffer``, and —
unlike the pickle wire this replaced — a frame can never execute code
on decode, so a stray byte reaching the port yields a structured 400
instead of arbitrary code execution.  Task tuples, configs and
calibration fingerprints travel as typed tags in the frame's JSON meta
section and compare equal after a round trip.
"""

from __future__ import annotations

import asyncio
import itertools
import uuid
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.cache import calibration_fingerprint
from repro.core.config import NGPCConfig
from repro.core.dse import (
    _TIMING_FIELDS,
    SweepGrid,
    SweepResult,
    assemble_shard_blocks,
    finalize_sweep_result,
    shard_plan,
    shard_task_shape,
)
from repro.errors import BackendUnavailableError
from repro.service.errors import ServiceError, as_service_error
from repro.transport import FRAME_CONTENT_TYPE, decode_message, encode_message

#: blocks handed to each worker per sweep (bigger blocks than the
#: in-process pool's 4: HTTP round trips cost more than queue pops)
BLOCKS_PER_WORKER = 2

#: per-block payload ceiling; the shard plan is refined until a block's
#: timing arrays fit (6 float64 arrays), keeping completions well under
#: the HTTP layer's request-size limit
MAX_BLOCK_BYTES = 4 * 1024 * 1024

#: adaptive block-sizing target: once per-worker throughput has been
#: observed from completed leases, sweeps are cut so one block costs a
#: worker about this long — long enough to amortize an HTTP round trip,
#: short enough that an uneven tail (or an adaptive-refinement round
#: arriving mid-sweep) never idles the other workers for long
TARGET_BLOCK_SECONDS = 0.25

_PENDING, _LEASED, _DONE = 0, 1, 2

#: sentinel distinguishing "no timeout named" from an explicit None
_UNSET_TIMEOUT = object()


class _Job:
    """One submitted work unit: its shard plan and completion state.

    Two kinds share the lease/complete machinery unchanged: a full sweep
    (``grid`` set — blocks scatter into a dense :class:`SweepResult`)
    and a raw block list (``grid`` None — the adaptive-refinement path,
    which resolves to the evaluated blocks in task order and does its
    own scattering).
    """

    def __init__(self, job_id: int, grid: Optional[SweepGrid],
                 ngpc: Optional[NGPCConfig], calibration: Tuple,
                 plan: List[Tuple[Tuple, Tuple]],
                 future: asyncio.Future,
                 on_block: Optional[Callable] = None):
        self.job_id = job_id
        self.grid = grid
        self.ngpc = ngpc
        self.calibration = calibration
        self.plan = plan
        self.future = future
        self.on_block = on_block
        self.states = [_PENDING] * len(plan)
        self.blocks: Dict[int, Dict[str, np.ndarray]] = {}
        self.remaining = len(plan)

    def assemble(self):
        if self.grid is None:  # raw block job: blocks in task order
            return [self.blocks[task_id] for task_id in range(len(self.plan))]
        placed = (
            (self.plan[task_id][0], block)
            for task_id, block in self.blocks.items()
        )
        arrays = assemble_shard_blocks(self.grid, placed)
        return finalize_sweep_result(self.grid, "cluster", self.ngpc, arrays)


def _block_placement(task: Tuple) -> Tuple:
    """Synthesized whole-task placement for a raw block job.

    The windows span each task axis fully, so
    :func:`~repro.core.dse.shard_task_shape` — and with it
    :meth:`ShardCoordinator._validate_block` — works on raw blocks
    exactly as on :func:`~repro.core.dse.shard_plan` entries.
    """
    return (0, 0, tuple((0, len(axis)) for axis in task[2:]))


class _Worker:
    """Registration record of one worker process (possibly remote)."""

    def __init__(self, worker_id: str, host: str, pid: Optional[int],
                 last_seen: float, generation: int = 1):
        self.worker_id = worker_id
        self.host = host
        self.pid = pid
        #: the coordinator generation this worker registered under; a
        #: drain bumps the coordinator's and this worker's next lease
        #: poll returns ``{stop: true, reason: "drained"}``
        self.generation = generation
        self.alive = True
        self.last_seen = last_seen
        self.blocks_completed = 0
        #: EWMA of observed evaluation throughput (grid points per
        #: second, lease-to-completion) — drives adaptive block sizing
        self.points_per_s: Optional[float] = None

    def observe(self, n_points: int, elapsed_s: float) -> None:
        if elapsed_s <= 0.0 or n_points <= 0:
            return
        rate = n_points / elapsed_s
        if self.points_per_s is None:
            self.points_per_s = rate
        else:  # EWMA: responsive to host load changes, stable per block
            self.points_per_s = 0.5 * self.points_per_s + 0.5 * rate


class ShardCoordinator:
    """Async shard coordinator; all state lives on one event loop.

    Create it, call :meth:`start` on a running loop (done by
    :func:`repro.service.http.start_http_server` when the coordinator is
    mounted), submit sweeps with :meth:`submit` (from the loop) or
    :meth:`sweep_blocking` (from any other thread — the
    ``Session``/``SweepService`` executor path), and :meth:`close` to
    fail pending jobs and tell polling workers to stop.
    """

    #: content type of every handled body (read by the HTTP layer)
    content_type = FRAME_CONTENT_TYPE

    def __init__(
        self,
        ngpc: Optional[NGPCConfig] = None,
        lease_timeout_s: float = 10.0,
        poll_timeout_s: float = 30.0,
        blocks_per_worker: int = BLOCKS_PER_WORKER,
        sweep_timeout_s: Optional[float] = 600.0,
    ):
        self.ngpc = ngpc
        self.lease_timeout_s = float(lease_timeout_s)
        self.poll_timeout_s = float(poll_timeout_s)
        self.blocks_per_worker = int(blocks_per_worker)
        #: default bound on one submit (sweep_fn/sweep_blocking callers
        #: that name no timeout); None waits forever
        self.sweep_timeout_s = sweep_timeout_s
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._jobs: Dict[int, _Job] = {}
        self._job_ids = itertools.count(1)
        self._queue: List[Tuple[int, int]] = []  # FIFO of (job_id, task_id)
        # (job_id, task_id) -> (worker_id, deadline, lease_start)
        self._leases: Dict[Tuple[int, int], Tuple[str, float, float]] = {}
        self._workers: Dict[str, _Worker] = {}
        self._work_cond: Optional[asyncio.Condition] = None
        self._reaper: Optional[asyncio.Task] = None
        self._assembly_tasks: set = set()
        # dedicated single thread for result assembly: the loop's default
        # executor can be fully occupied by sweep_fn calls blocked in
        # sweep_blocking (the SweepService dispatch path), and assembly
        # queued behind them would deadlock the very futures they await
        self._assembly_executor = None
        self._closing = False
        #: the live worker generation.  ``drain()`` bumps it: workers
        #: registered under an older generation get ``{stop: true}`` on
        #: their next lease poll (their in-flight blocks finish normally
        #: or re-queue via lease expiry), while re-registering workers
        #: join the new generation — a rolling restart with no lost and
        #: no double-counted blocks.
        self.generation = 1
        self.drains = 0
        # counters served at /cluster/stats
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.blocks_dispatched = 0
        self.blocks_completed = 0
        self.blocks_releases = 0  # expired leases re-queued
        self.blocks_failed = 0  # worker-reported evaluation failures
        self.stale_completions = 0  # late duplicates ignored
        self.late_completions = 0  # completions whose lease moved on

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Bind to the running loop and start the lease reaper."""
        if self._loop is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._work_cond = asyncio.Condition()
        self._reaper = self._loop.create_task(self._reap_expired_leases())

    async def close(self) -> None:
        """Fail pending jobs, stop the reaper, release polling workers."""
        self._closing = True
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        for job in list(self._jobs.values()):
            if not job.future.done():
                job.future.set_exception(BackendUnavailableError(
                    "shard coordinator shut down with the sweep unfinished"
                ))
        self._jobs.clear()
        self._queue.clear()
        self._leases.clear()
        if self._work_cond is not None:
            async with self._work_cond:
                self._work_cond.notify_all()
        if self._assembly_executor is not None:
            self._assembly_executor.shutdown(wait=False)
            self._assembly_executor = None

    # -- submission ----------------------------------------------------------
    @property
    def observed_points_per_s(self) -> Optional[float]:
        """Mean per-worker throughput over live workers, or None (cold)."""
        rates = [
            w.points_per_s for w in self._workers.values()
            if w.alive and w.points_per_s
        ]
        if not rates:
            return None
        return sum(rates) / len(rates)

    def _plan(self, grid: SweepGrid) -> List[Tuple[Tuple, Tuple]]:
        """Cut a sweep into blocks, sized from observed throughput.

        Cold (no completed leases yet) the cut is the static
        ``blocks_per_worker × alive workers``.  Once workers have
        reported blocks, the plan targets
        :data:`TARGET_BLOCK_SECONDS`-sized blocks instead — fast workers
        get more, smaller blocks keep every worker busy through uneven
        tails and interleaved adaptive-refinement rounds — while never
        dropping below the static floor or above the
        :data:`MAX_BLOCK_BYTES` transport ceiling.
        """
        n_workers = max(1, sum(w.alive for w in self._workers.values()))
        n_blocks = self.blocks_per_worker * n_workers
        rate = self.observed_points_per_s
        if rate is not None:
            block_points = max(1, int(rate * TARGET_BLOCK_SECONDS))
            n_blocks = max(n_blocks, -(-grid.size // block_points))
        point_bytes = 8 * len(_TIMING_FIELDS)
        min_blocks = -(-grid.size * point_bytes // MAX_BLOCK_BYTES)
        return shard_plan(grid, max(n_blocks, int(min_blocks)))

    async def submit(
        self,
        grid: SweepGrid,
        ngpc: Optional[NGPCConfig] = None,
        timeout_s: Optional[float] = None,
        on_block: Optional[Callable] = None,
    ) -> SweepResult:
        """Distribute one sweep across the registered workers.

        The grid is resolved against the job's base config exactly as
        :func:`~repro.core.dse.sweep_grid` resolves it; the returned
        result is assembled from worker blocks and finalized through
        the same code path as a local evaluation.  ``on_block`` (if
        given) is called as ``on_block(placement, block)`` on the
        coordinator loop for every accepted block — the streaming
        progress hook; listener exceptions never fail the sweep.
        """
        if self._closing:
            raise BackendUnavailableError("shard coordinator is shut down")
        if self._loop is None:
            await self.start()
        ngpc = ngpc if ngpc is not None else self.ngpc
        resolved = grid.resolve(ngpc)
        job = _Job(
            job_id=next(self._job_ids),
            grid=resolved,
            ngpc=ngpc,
            calibration=calibration_fingerprint(),
            plan=self._plan(resolved),
            future=self._loop.create_future(),
            on_block=on_block,
        )
        self._jobs[job.job_id] = job
        self.jobs_submitted += 1
        self._queue.extend((job.job_id, t) for t in range(len(job.plan)))
        async with self._work_cond:
            self._work_cond.notify_all()
        try:
            if timeout_s is None:
                return await job.future
            return await asyncio.wait_for(job.future, timeout_s)
        except asyncio.TimeoutError:
            raise BackendUnavailableError(
                f"distributed sweep did not complete within {timeout_s:g}s "
                f"({job.remaining} of {len(job.plan)} blocks outstanding; "
                f"are any workers alive?)"
            )
        finally:
            self._evict(job)

    async def submit_blocks(
        self,
        tasks: List[Tuple],
        ngpc: Optional[NGPCConfig] = None,
        timeout_s: Optional[float] = None,
    ) -> List[Dict[str, np.ndarray]]:
        """Lease a raw list of block tasks; blocks return in task order.

        ``tasks`` are :func:`~repro.core.dse.evaluate_shard_task` work
        units (e.g. from :func:`~repro.core.dse.selection_task`) — the
        adaptive-exploration entry: refinement rounds ride the same
        lease/expiry/validation machinery as full sweeps, so every
        registered worker pulls refinement blocks too, and a worker
        death mid-round re-queues its blocks instead of stalling the
        round.  Lease timings feed the same throughput EWMAs that size
        full-sweep blocks.
        """
        if self._closing:
            raise BackendUnavailableError("shard coordinator is shut down")
        if self._loop is None:
            await self.start()
        if not tasks:
            return []
        ngpc = ngpc if ngpc is not None else self.ngpc
        job = _Job(
            job_id=next(self._job_ids),
            grid=None,
            ngpc=ngpc,
            calibration=calibration_fingerprint(),
            plan=[(_block_placement(task), task) for task in tasks],
            future=self._loop.create_future(),
        )
        self._jobs[job.job_id] = job
        self.jobs_submitted += 1
        self._queue.extend((job.job_id, t) for t in range(len(job.plan)))
        async with self._work_cond:
            self._work_cond.notify_all()
        try:
            if timeout_s is None:
                return await job.future
            return await asyncio.wait_for(job.future, timeout_s)
        except asyncio.TimeoutError:
            raise BackendUnavailableError(
                f"distributed block round did not complete within "
                f"{timeout_s:g}s ({job.remaining} of {len(job.plan)} blocks "
                f"outstanding; are any workers alive?)"
            )
        finally:
            self._evict(job)

    def blocks_blocking(
        self,
        tasks: List[Tuple],
        ngpc: Optional[NGPCConfig] = None,
        timeout_s=_UNSET_TIMEOUT,
    ) -> List[Dict[str, np.ndarray]]:
        """Thread-safe blocking :meth:`submit_blocks` (executor-path entry)."""
        if self._loop is None:
            raise BackendUnavailableError(
                "shard coordinator is not started (no event loop)"
            )
        if timeout_s is _UNSET_TIMEOUT:
            timeout_s = self.sweep_timeout_s
        return asyncio.run_coroutine_threadsafe(
            self.submit_blocks(tasks, ngpc=ngpc, timeout_s=timeout_s),
            self._loop,
        ).result()

    def _evict(self, job: _Job) -> None:
        if self._jobs.pop(job.job_id, None) is None:
            return
        self._queue = [(j, t) for j, t in self._queue if j != job.job_id]
        for key in [k for k in self._leases if k[0] == job.job_id]:
            del self._leases[key]

    def sweep_blocking(
        self,
        grid: SweepGrid,
        ngpc: Optional[NGPCConfig] = None,
        timeout_s=_UNSET_TIMEOUT,
        on_block: Optional[Callable] = None,
    ) -> SweepResult:
        """Thread-safe blocking :meth:`submit` (the executor-path entry).

        This is the ``sweep_fn`` shape :class:`~repro.service.SweepService`
        dispatches to from its executor thread, putting the service's
        single-flight coalescing and LRU in front of the cluster — so
        identical sweeps issued by many clients (or many hosts, through
        one ``repro serve``) share one distributed evaluation.  An
        unspecified ``timeout_s`` falls back to the coordinator's
        ``sweep_timeout_s``, so a served sweep with no live workers
        fails structured instead of parking an executor thread forever;
        pass ``None`` explicitly to wait without bound.
        """
        if self._loop is None:
            raise BackendUnavailableError(
                "shard coordinator is not started (no event loop)"
            )
        if timeout_s is _UNSET_TIMEOUT:
            timeout_s = self.sweep_timeout_s
        return asyncio.run_coroutine_threadsafe(
            self.submit(grid, ngpc=ngpc, timeout_s=timeout_s,
                        on_block=on_block),
            self._loop,
        ).result()

    def sweep_fn(self, grid, engine: str = "cluster",
                 ngpc: Optional[NGPCConfig] = None,
                 on_block: Optional[Callable] = None) -> SweepResult:
        """Drop-in ``sweep_fn`` for :class:`SweepService` (engine ignored)."""
        return self.sweep_blocking(grid, ngpc=ngpc, on_block=on_block)

    # -- worker protocol -----------------------------------------------------
    def _register(self, payload: Dict) -> Dict:
        worker = _Worker(
            worker_id=uuid.uuid4().hex,
            host=str(payload.get("host", "?")),
            pid=payload.get("pid"),
            last_seen=self._loop.time() if self._loop else 0.0,
            generation=self.generation,
        )
        self._workers[worker.worker_id] = worker
        return {
            "worker_id": worker.worker_id,
            "calibration": calibration_fingerprint(),
            "ngpc": self.ngpc,
            "lease_timeout_s": self.lease_timeout_s,
            "generation": self.generation,
        }

    def _next_pending(self) -> Optional[Tuple[int, int]]:
        while self._queue:
            job_id, task_id = self._queue.pop(0)
            job = self._jobs.get(job_id)
            if job is not None and job.states[task_id] == _PENDING:
                return job_id, task_id
        return None

    async def _lease(self, payload: Dict) -> Dict:
        worker = self._workers.get(payload.get("worker_id"))
        if worker is None:
            raise ServiceError(
                404, "unknown-worker",
                "worker is not registered (coordinator restarted?); re-register",
            )
        worker.alive = True  # polling again == alive, even if reaped earlier
        worker.last_seen = self._loop.time()
        deadline = self._loop.time() + self.poll_timeout_s
        # the pending-queue check happens under the condition lock, so a
        # submit()/reaper notify cannot slip between check and wait
        async with self._work_cond:
            while True:
                if self._closing:
                    return {"stop": True}
                if worker.generation != self.generation:
                    # drained: this check sits inside the wait loop so a
                    # long-polling worker stops on the drain's notify,
                    # not after its (up to 30 s) poll window — and never
                    # receives another lease from the old generation
                    return {"stop": True, "reason": "drained"}
                ref = self._next_pending()
                if ref is not None:
                    job_id, task_id = ref
                    job = self._jobs[job_id]
                    job.states[task_id] = _LEASED
                    now = self._loop.time()
                    self._leases[ref] = (
                        worker.worker_id, now + self.lease_timeout_s, now,
                    )
                    self.blocks_dispatched += 1
                    return {
                        "job_id": job_id,
                        "task_id": task_id,
                        "task": job.plan[task_id][1],
                        "ngpc": job.ngpc,
                        "calibration": job.calibration,
                    }
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    return {"empty": True}
                try:
                    await asyncio.wait_for(self._work_cond.wait(), remaining)
                except asyncio.TimeoutError:
                    return {"empty": True}

    async def _complete(self, payload: Dict) -> Dict:
        worker = self._workers.get(payload.get("worker_id"))
        if worker is None:
            raise ServiceError(404, "unknown-worker", "worker is not registered")
        worker.last_seen = self._loop.time()
        job_id, task_id = payload.get("job_id"), payload.get("task_id")
        job = self._jobs.get(job_id)
        if job is None or job.states[task_id] == _DONE:
            # evicted job or a re-leased block that finished elsewhere
            self.stale_completions += 1
            return {"ok": True, "accepted": False}
        lease = self._leases.get((job_id, task_id))
        if lease is not None and lease[0] != worker.worker_id:
            # this worker's lease expired and the block was re-leased to
            # another worker: the late result (or error report) must
            # neither double-count the block nor clobber the current
            # holder's lease — counted no-op; the holder's result wins
            self.late_completions += 1
            return {"ok": True, "accepted": False}
        error = payload.get("error")
        if error is not None:
            # the worker could not evaluate the block (version skew, bad
            # task): fail the whole job structured — matching the local
            # engines, where an evaluation exception propagates — instead
            # of re-leasing a poison block around the cluster forever
            self.blocks_failed += 1
            if not job.future.done():
                job.future.set_exception(ServiceError(
                    500, "block-failed",
                    f"worker {worker.worker_id[:8]} failed block {task_id} "
                    f"of job {job_id}: {error}",
                ))
            self._evict(job)
            return {"ok": True, "accepted": True}
        block = payload.get("arrays")
        try:
            self._validate_block(job, task_id, block)
        except ServiceError:
            # the block went back on the queue: wake idle pollers now
            # rather than after their (up to 30 s) poll timeout
            async with self._work_cond:
                self._work_cond.notify_all()
            raise
        self._leases.pop((job_id, task_id), None)
        if lease is not None:  # the gate above ensured it is ours
            n_points = int(np.prod(shard_task_shape(job.plan[task_id][0])))
            worker.observe(n_points, self._loop.time() - lease[2])
        job.states[task_id] = _DONE
        job.blocks[task_id] = block
        job.remaining -= 1
        worker.blocks_completed += 1
        self.blocks_completed += 1
        if job.on_block is not None:
            try:
                job.on_block(job.plan[task_id][0], block)
            except Exception:
                pass  # a progress listener must never fail the sweep
        if job.remaining == 0:
            self.jobs_completed += 1
            # assemble off the loop: scattering + the cost-array batch on
            # a 50k+-point grid would otherwise stall every lease poll and
            # JSON query sharing this event loop
            task = self._loop.create_task(self._finish_job(job))
            self._assembly_tasks.add(task)
            task.add_done_callback(self._assembly_tasks.discard)
        return {"ok": True, "accepted": True}

    async def _finish_job(self, job: _Job) -> None:
        import concurrent.futures

        if self._assembly_executor is None:
            self._assembly_executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-cluster-assemble"
            )
        try:
            result = await self._loop.run_in_executor(
                self._assembly_executor, job.assemble
            )
        except Exception as exc:  # assembly bug: fail loudly
            if not job.future.done():
                job.future.set_exception(exc)
        else:
            if not job.future.done():
                job.future.set_result(result)

    def _validate_block(self, job: _Job, task_id: int, block) -> None:
        """Reject (and re-queue) a malformed block before it poisons a job."""
        expected = shard_task_shape(job.plan[task_id][0])
        try:
            if not isinstance(block, dict):
                raise ValueError(f"block must be a dict, got {type(block).__name__}")
            for name in _TIMING_FIELDS:
                array = np.asarray(block[name])
                if array.shape != expected:
                    raise ValueError(
                        f"block array {name!r} has shape {array.shape}, "
                        f"expected {expected}"
                    )
            float(np.asarray(block["amdahl_bound"]))
        except (KeyError, TypeError, ValueError) as exc:
            job.states[task_id] = _PENDING
            self._leases.pop((job.job_id, task_id), None)
            self._queue.append((job.job_id, task_id))
            raise ServiceError(
                400, "bad-block",
                f"rejected block {task_id} of job {job.job_id}: {exc}",
            )

    async def _reap_expired_leases(self) -> None:
        """Re-queue expired leases; mark — then evict — dead workers.

        A worker whose lease expired is marked dead immediately; one
        that has not polled for several poll timeouts (idle workers
        re-poll every ``poll_timeout_s``) is evicted entirely, so a
        long-lived coordinator under worker churn does not accumulate
        registration records.  An evicted worker that was merely slow
        gets an ``unknown-worker`` response on its next call and
        re-registers transparently.
        """
        interval = max(0.05, self.lease_timeout_s / 4.0)
        stale_after = max(3.0 * self.poll_timeout_s, 3.0 * self.lease_timeout_s)
        while True:
            await asyncio.sleep(interval)
            now = self._loop.time()
            for worker_id in [
                w_id for w_id, worker in self._workers.items()
                if now - worker.last_seen > stale_after
            ]:
                del self._workers[worker_id]
            expired = [
                (ref, worker_id)
                for ref, (worker_id, deadline, _start) in self._leases.items()
                if deadline <= now
            ]
            if not expired:
                continue
            for (job_id, task_id), worker_id in expired:
                del self._leases[(job_id, task_id)]
                worker = self._workers.get(worker_id)
                if worker is not None:
                    worker.alive = False
                job = self._jobs.get(job_id)
                if job is not None and job.states[task_id] == _LEASED:
                    job.states[task_id] = _PENDING
                    self._queue.append((job_id, task_id))
                    self.blocks_releases += 1
            async with self._work_cond:
                self._work_cond.notify_all()

    # -- rolling restarts ----------------------------------------------------
    async def drain(self) -> Dict:
        """Start a rolling worker restart: retire the current generation.

        Bumps the coordinator's generation and wakes every long-polling
        worker: workers of the old generation get ``{stop: true,
        reason: "drained"}`` on their next lease poll and exit cleanly.
        Blocks they already hold are unaffected — a completion is
        accepted as long as the lease is still theirs, and a worker that
        dies instead of completing re-queues its blocks through the
        ordinary lease-expiry path — so an in-flight sweep finishes
        exactly, with no lost and no double-counted blocks.  Restarted
        ``repro worker`` processes re-register under the new generation
        and immediately start pulling the remaining work.
        """
        previous = self.generation
        self.generation += 1
        self.drains += 1
        draining = sum(
            1 for w in self._workers.values()
            if w.alive and w.generation == previous
        )
        if self._work_cond is not None:
            async with self._work_cond:
                self._work_cond.notify_all()
        return {
            "generation": self.generation,
            "previous_generation": previous,
            "draining_workers": draining,
            "leases_outstanding": len(self._leases),
            "jobs_inflight": len(self._jobs),
        }

    # -- HTTP adapter --------------------------------------------------------
    async def handle_http(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes]:
        """Serve one ``/cluster/*`` request; returns (status, frame body).

        Mounted by :mod:`repro.service.http` next to the JSON endpoints;
        every response body is a binary frame (``FRAME_CONTENT_TYPE``).
        """
        try:
            if method == "GET" and path == "/cluster/stats":
                return 200, encode_message({"ok": True, "result": self.stats()})
            if method != "POST":
                raise ServiceError(
                    405, "method-not-allowed", f"{method} {path} not allowed"
                )
            payload = decode_message(body)
            if path == "/cluster/register":
                return 200, encode_message(self._register(payload))
            if path == "/cluster/lease":
                return 200, encode_message(await self._lease(payload))
            if path == "/cluster/complete":
                return 200, encode_message(await self._complete(payload))
            raise ServiceError(404, "unknown-endpoint", f"no endpoint {path!r}")
        except Exception as exc:  # every failure ships as a structured frame
            error = as_service_error(exc)
            return error.status, encode_message(error.to_payload())

    # -- introspection -------------------------------------------------------
    @property
    def n_alive_workers(self) -> int:
        return sum(w.alive for w in self._workers.values())

    @property
    def is_ready(self) -> bool:
        """Started and not shutting down (the /healthz readiness input)."""
        return self._loop is not None and not self._closing

    def stats(self) -> Dict:
        """Worker/lease/job counters (merged into ``/stats`` when mounted)."""
        return {
            "generation": self.generation,
            "drains": self.drains,
            "workers": {
                "registered": len(self._workers),
                "alive": self.n_alive_workers,
                "current_generation": sum(
                    w.alive and w.generation == self.generation
                    for w in self._workers.values()
                ),
                "blocks_completed": {
                    w.worker_id[:8]: w.blocks_completed
                    for w in self._workers.values()
                },
                "points_per_s": {
                    w.worker_id[:8]: w.points_per_s
                    for w in self._workers.values()
                    if w.points_per_s is not None
                },
                "mean_points_per_s": self.observed_points_per_s,
            },
            "jobs": {
                "submitted": self.jobs_submitted,
                "completed": self.jobs_completed,
                "inflight": len(self._jobs),
            },
            "blocks": {
                "dispatched": self.blocks_dispatched,
                "completed": self.blocks_completed,
                "releases": self.blocks_releases,
                "failed": self.blocks_failed,
                "stale_completions": self.stale_completions,
                "late_completions": self.late_completions,
                "queued": len(self._queue),
                "leased": len(self._leases),
            },
            "lease_timeout_s": self.lease_timeout_s,
        }

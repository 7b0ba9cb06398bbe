"""Tiered sweep evaluation over a :class:`~repro.store.ResultStore`.

The evaluation ladder, cheapest rung first:

1. **RAM** — the process-wide sweep memo
   (:data:`~repro.core.dse._SWEEP_CACHE`), microseconds.
2. **Disk, whole sweep** — a persisted :class:`SweepResult` under the
   sweep fingerprint, memory-mapped in milliseconds.
3. **Disk, blocks** — the grid is cut by
   :func:`~repro.core.dse.store_block_plan` into value-keyed blocks;
   every block already persisted (by *any* previous sweep whose
   hypercube covers it) is loaded, and only the missing blocks
   evaluate, vectorized, before
   :func:`~repro.core.dse.finalize_sweep_result` assembles the dense
   result — bit-identical to a from-scratch evaluation, because block
   arithmetic is the same elementwise NumPy broadcasting on the same
   values.
4. **Evaluate** — a fully cold grid evaluates block by block (so the
   *next* overlapping sweep starts at rung 3) and the assembled sweep
   is persisted whole (so an identical sweep restarts at rung 2).

``counters`` is a caller-owned dict accumulating
``ram_hits``/``disk_hits``/``evaluations`` (sweep granularity) and
``blocks_total``/``blocks_cached``/``blocks_evaluated`` (block
granularity) — the numbers behind the service's tiered ``/stats``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import NGPCConfig
from repro.core.dse import (
    _SWEEP_CACHE,
    _SWEEP_CACHE_MAX_POINTS,
    _TIMING_FIELDS,
    SweepGrid,
    SweepResult,
    assemble_shard_blocks,
    block_fingerprint,
    finalize_sweep_result,
    shard_task_shape,
    store_block_plan,
    sweep_fingerprint,
    task_batch_kwargs,
    window_major,
)
from repro.core.emulator import emulate_batch
from repro.store.result_store import ResultStore

#: engine label stamped on results assembled through the store tier
STORE_ENGINE = "store"

#: every counter the tiered path maintains, in reporting order
TIER_COUNTERS = (
    "ram_hits",
    "disk_hits",
    "evaluations",
    "blocks_total",
    "blocks_cached",
    "blocks_evaluated",
)


def new_tier_counters() -> Dict[str, int]:
    """A zeroed counter dict in the shape ``/stats`` reports."""
    return {name: 0 for name in TIER_COUNTERS}


def _bump(counters: Optional[Dict[str, int]], name: str, n: int = 1) -> None:
    if counters is not None:
        counters[name] = counters.get(name, 0) + n


def evaluate_with_block_cache(
    store: ResultStore,
    grid: SweepGrid,
    ngpc: Optional[NGPCConfig] = None,
    counters: Optional[Dict[str, int]] = None,
    on_block=None,
    on_plan=None,
) -> SweepResult:
    """Evaluate ``grid`` reusing persisted blocks; persist the delta.

    ``grid`` must be resolved.  Cached blocks are loaded memory-mapped;
    missing blocks evaluate vectorized in-process (one
    :func:`~repro.core.emulator.emulate_batch` call each) and are
    persisted before assembly, so a crash mid-sweep still banks the
    blocks already evaluated.  The assembled sweep is persisted whole
    under its sweep fingerprint.

    ``on_plan(n_blocks)`` / ``on_block(placement, block)`` are optional
    streaming hooks: the plan size is announced up front, then every
    block — cached or freshly evaluated — is reported as it lands, which
    is what feeds a service's partial-front stream.  With ``on_block``
    set, blocks are processed window-major (each configuration window
    across all (app, scheme) pairs before the next window), so the first
    fully covered windows — and hence the first exact partial Pareto
    points — arrive as early as possible; the value-keyed store makes
    the order otherwise irrelevant.
    """
    plan = store_block_plan(grid)
    if on_block is not None:
        plan = window_major(plan)
    if on_plan is not None:
        on_plan(len(plan))
    _bump(counters, "blocks_total", len(plan))
    placed = []
    for placement, task in plan:
        key = block_fingerprint(task, ngpc)
        block = store.load_block(key, shard_task_shape(placement))
        if block is not None:
            _bump(counters, "blocks_cached")
        else:
            app, scheme, scales, pixels = task[:4]
            evaluated = emulate_batch(
                app, scheme, scales, pixels, ngpc,
                **task_batch_kwargs(task),
            )
            block = {name: evaluated[name] for name in _TIMING_FIELDS}
            block["amdahl_bound"] = evaluated["amdahl_bound"]
            store.save_block(key, block)
            _bump(counters, "blocks_evaluated")
        placed.append((placement, block))
        if on_block is not None:
            on_block(placement, block)
    result = finalize_sweep_result(
        grid, STORE_ENGINE, ngpc, assemble_shard_blocks(grid, placed)
    )
    store.save_sweep(sweep_fingerprint(grid, ngpc), result)
    return result


def sweep_with_store(
    store: ResultStore,
    grid: Optional[SweepGrid] = None,
    ngpc: Optional[NGPCConfig] = None,
    counters: Optional[Dict[str, int]] = None,
    use_cache: bool = True,
) -> SweepResult:
    """Tiered :func:`~repro.core.dse.sweep_grid`: RAM, disk, blocks, eval.

    The drop-in evaluation path of a store-backed
    :class:`~repro.api.backends.LocalBackend`.  The RAM rung reuses the
    process-wide sweep memo (same size policy as ``sweep_grid``); pass
    ``use_cache=False`` to skip it (the disk tiers still apply — the
    store *is* the cache being exercised).
    """
    resolved = (grid or SweepGrid()).resolve(ngpc)
    fingerprint = sweep_fingerprint(resolved, ngpc)
    ram_key = (resolved, STORE_ENGINE, fingerprint)
    cacheable = use_cache and resolved.size <= _SWEEP_CACHE_MAX_POINTS
    if cacheable:
        cached = _SWEEP_CACHE.get(ram_key)
        if cached is not None:
            _bump(counters, "ram_hits")
            return cached
    result = store.load_sweep(fingerprint)
    if result is not None:
        _bump(counters, "disk_hits")
    else:
        _bump(counters, "evaluations")
        result = evaluate_with_block_cache(
            store, resolved, ngpc=ngpc, counters=counters
        )
    if cacheable:
        _SWEEP_CACHE.put(ram_key, result)
    return result

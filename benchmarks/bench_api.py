#!/usr/bin/env python
"""Overhead gate of the ``repro.api`` Session facade.

The facade must stay free: a typed entry point that costs measurable
wall-clock over calling :func:`~repro.core.dse.sweep_grid` directly
would push hot-path consumers back to the raw engines and re-fragment
the API surface.  Two measurements on a >= 10k-point grid:

1. **Cold sweep overhead** (the gate): median wall time of
   ``Session.sweep`` vs a direct ``sweep_grid`` call on the identical
   normalized grid, caches off, after one warm-up call per arm, over
   interleaved pairs whose order alternates (so neither arm always runs
   second) with the garbage collector paused inside each sample, as
   :mod:`timeit` does.  Must stay **< 5 %**.
2. **Warm (memoized) path**: the same comparison with the sweep memo
   hot, plus the per-query cost of ``Sweep.pareto()`` vs
   ``SweepResult.pareto_front()`` — reported for the record (absolute
   microseconds; no gate, the numbers sit at timer noise).

Results are written to ``BENCH_api.json`` and uploaded as a CI artifact
so the facade-cost trajectory stays machine-readable across PRs.

Run as a script:

    PYTHONPATH=src python benchmarks/bench_api.py          # full gate
    PYTHONPATH=src python benchmarks/bench_api.py --quick  # CI smoke

Exits non-zero when the gate is missed.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time

from repro.api import Session, SweepGrid
from repro.core.dse import sweep_grid
from repro.gpu.baseline import FHD_PIXELS

#: the acceptance ceiling on facade overhead over the direct engine call
OVERHEAD_CEILING = 0.05


def build_grid(quick: bool) -> SweepGrid:
    """>= 10k points full (10240), ~1k in --quick CI smoke."""
    return SweepGrid(
        scale_factors=(8, 16, 32, 64),
        pixel_counts=(FHD_PIXELS, 3840 * 2160),
        clocks_ghz=(0.8, 1.0, 1.2, 1.695) if quick else (0.8, 1.0, 1.2, 1.4, 1.695),
        grid_sram_kb=(512, 1024) if quick else (256, 512, 1024, 2048),
        n_engines=(8, 16) if quick else (4, 8, 16, 32),
        n_batches=(8, 16) if quick else (4, 8, 16, 32),
    )


def timed(fn, repeats: int) -> list:
    samples = []
    for _ in range(repeats):
        gc.disable()
        try:
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        finally:
            gc.enable()
    return samples


def probe(quick: bool) -> dict:
    grid = build_grid(quick).normalized()  # the facade's canonical grid
    # a 1k-point sweep takes ~2.5 ms and samples spread by ~15%: the
    # median of the overhead needs ~200 pairs to resolve 1% here
    pairs = 201 if quick else 101

    # -- cold sweeps: interleaved pairs, alternating which arm runs first,
    # so drift and cache warmth hit both paths equally ---------------------
    direct_cold, facade_cold = [], []
    session_cold = Session.local(engine="vectorized", use_cache=False)
    arms = [
        (direct_cold,
         lambda: sweep_grid(grid, engine="vectorized", use_cache=False)),
        (facade_cold, lambda: session_cold.sweep(grid)),
    ]
    for _, fn in arms:
        fn()  # warm-up: first-call caches land outside the samples
    for pair in range(pairs):
        for samples, fn in arms if pair % 2 == 0 else arms[::-1]:
            samples += timed(fn, 1)
    direct_cold_s = statistics.median(direct_cold)
    facade_cold_s = statistics.median(facade_cold)
    cold_overhead = facade_cold_s / direct_cold_s - 1.0

    # -- warm (memoized) path ----------------------------------------------
    session_warm = Session.local(engine="vectorized")
    sweep_grid(grid, engine="vectorized")  # prime the memo
    session_warm.sweep(grid)
    warm_repeats = 100 if quick else 300
    direct_warm_s = statistics.median(
        timed(lambda: sweep_grid(grid, engine="vectorized"), warm_repeats)
    )
    facade_warm_s = statistics.median(
        timed(lambda: session_warm.sweep(grid), warm_repeats)
    )

    # -- per-query cost through the handle ----------------------------------
    handle = session_warm.sweep(grid)
    result = handle.result
    scheme = grid.schemes[0]
    query_repeats = 20 if quick else 50
    direct_pareto_s = statistics.median(
        timed(lambda: result.pareto_front(scheme, FHD_PIXELS), query_repeats)
    )
    facade_pareto_s = statistics.median(
        timed(lambda: handle.pareto(n_pixels=FHD_PIXELS), query_repeats)
    )

    return {
        "grid_points": grid.size,
        "cold_direct_s": direct_cold_s,
        "cold_facade_s": facade_cold_s,
        "cold_overhead_pct": cold_overhead * 100.0,
        "warm_direct_s": direct_warm_s,
        "warm_facade_s": facade_warm_s,
        "warm_facade_extra_us": (facade_warm_s - direct_warm_s) * 1e6,
        "pareto_direct_s": direct_pareto_s,
        "pareto_facade_s": facade_pareto_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument("--output", default="BENCH_api.json")
    args = parser.parse_args()

    results = probe(args.quick)
    results["quick"] = args.quick
    results["overhead_ceiling_pct"] = OVERHEAD_CEILING * 100.0

    print(f"grid: {results['grid_points']:,} points")
    print(f"cold sweep:   direct {results['cold_direct_s'] * 1000:8.1f} ms, "
          f"Session {results['cold_facade_s'] * 1000:8.1f} ms "
          f"({results['cold_overhead_pct']:+.2f}% overhead)")
    print(f"warm sweep:   direct {results['warm_direct_s'] * 1e6:8.1f} us, "
          f"Session {results['warm_facade_s'] * 1e6:8.1f} us "
          f"({results['warm_facade_extra_us']:+.1f} us facade cost)")
    print(f"pareto query: direct {results['pareto_direct_s'] * 1e6:8.1f} us, "
          f"handle {results['pareto_facade_s'] * 1e6:8.1f} us")

    failures = []
    if results["grid_points"] < (1_000 if args.quick else 10_000):
        failures.append("grid too small for the gate")
    if results["cold_overhead_pct"] >= OVERHEAD_CEILING * 100.0:
        failures.append(
            f"overhead gate: Session.sweep costs "
            f"{results['cold_overhead_pct']:+.2f}% over direct sweep_grid "
            f"(ceiling {OVERHEAD_CEILING * 100:.0f}%)"
        )
    results["failures"] = failures

    with open(args.output, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
    print(f"wrote {args.output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("facade overhead gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

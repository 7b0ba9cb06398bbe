"""Correctness check of the benchmark's answers, run outside the timed region.

Every sampled answer is compared with an independent in-process
reference: ``sweep_grid(engine="vectorized", use_cache=False)`` over the
same canonical grid.  Fronts, cheapest points and single points must be
equal field for field; dense results must be bit-identical (compared by
a hash of every array).  :func:`self_check` perturbs one recorded
answer and confirms the check rejects it.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, List

import numpy as np

from repro.analysis.experiments import get_experiment
from repro.core.dse import SweepGrid, sweep_grid
from repro.gpu.baseline import FHD_PIXELS

from workloads import FPS, SCHEME, digest, front_dicts

#: mean absolute relative error of Fig. 12 against the paper, in percent;
#: the model is deterministic, so any change shows at 1e-9
FIG12_ERR_PCT = 2.575588103276539


class Checker:
    """Reference answers for sampled ops, with a small reference cache."""

    def __init__(self, max_refs: int):
        self.max_refs = max_refs
        self._refs: "OrderedDict[SweepGrid, object]" = OrderedDict()
        self.checked = 0

    def reference(self, grid: SweepGrid):
        ref = self._refs.pop(grid, None)
        if ref is None:
            ref = sweep_grid(grid, engine="vectorized", use_cache=False)
            while len(self._refs) >= self.max_refs:
                self._refs.popitem(last=False)
        self._refs[grid] = ref
        return ref

    def expected(self, kind: str, key):
        if kind == "pareto":
            return front_dicts(self.reference(key).pareto_front(SCHEME))
        if kind == "cheapest":
            grid, app = key
            hit = self.reference(grid).cheapest_point_meeting_fps(app, FPS)
            return None if hit is None else hit.to_dict()
        if kind == "result":
            return digest(self.reference(key))
        if kind == "point":
            app, scale = key
            single = SweepGrid(apps=(app,), schemes=(SCHEME,),
                               scale_factors=(scale,),
                               pixel_counts=(FHD_PIXELS,))
            ref = sweep_grid(single, engine="vectorized", use_cache=False)
            return dataclasses.astuple(
                ref.point(app, SCHEME, scale, FHD_PIXELS)
            )
        raise ValueError(f"unknown answer kind {kind!r}")

    def mismatches(self, answers, count: bool = True) -> List[str]:
        """One message per answer that differs from its reference."""
        bad = []
        for kind, key, got in answers:
            self.checked += count
            if got != self.expected(kind, key):
                bad.append(f"{kind} mismatch on {_describe(key)}")
        return bad


def _describe(key) -> str:
    grid = key[0] if isinstance(key, tuple) and key and isinstance(
        key[0], SweepGrid) else key
    if isinstance(grid, SweepGrid):
        return (f"{grid.size}-point grid from clock "
                f"{grid.clocks_ghz[0]:.9f} GHz")
    return repr(key)


def _nudge(value: float) -> float:
    return float(np.nextafter(value, np.inf))


def perturb(answers) -> List:
    """A copy of ``answers`` with its first answer changed by one ulp/char."""
    kind, key, got = answers[0]
    if kind == "result":
        bad = ("0" if got[0] != "0" else "1") + got[1:]
    elif kind == "pareto":
        bad = [dict(p) for p in got]
        bad[0]["area_overhead_pct"] = _nudge(bad[0]["area_overhead_pct"])
    elif kind == "cheapest":
        bad = dict(got)
        bad["area_overhead_pct"] = _nudge(bad["area_overhead_pct"])
    else:  # point tuple: nudge its first float
        bad = list(got)
        i = next(i for i, v in enumerate(bad) if isinstance(v, float))
        bad[i] = _nudge(bad[i])
        bad = tuple(bad)
    return [(kind, key, bad)] + list(answers[1:])


def self_check(checker: Checker, answers) -> bool:
    """True when the check flags a perturbed copy of ``answers``."""
    if not answers:
        return False
    return bool(checker.mismatches(perturb(answers)[:1], count=False))


def fig12_error_pct() -> float:
    rows = get_experiment("fig12").run()
    errors = [abs(r.relative_error) for r in rows
              if r.relative_error is not None]
    return 100.0 * sum(errors) / len(errors)


def fig12_ok(value: float) -> bool:
    return abs(value - FIG12_ERR_PCT) <= 1e-9 * FIG12_ERR_PCT


def service_counter_errors(before: Dict, after: Dict, cycles: int,
                           per_cycle: Dict[str, int]) -> List[str]:
    """Exact expected deltas of the service's ``/stats`` counters."""
    errors = []
    for name, per in per_cycle.items():
        got = after[name] - before[name]
        if got != per * cycles:
            errors.append(
                f"service {name}: {got} over {cycles} cycles, "
                f"expected {per * cycles}"
            )
    return errors

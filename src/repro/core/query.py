"""The one definition of a design-space query.

Every data source — the dense :class:`~repro.core.dse.SweepResult`, the
streaming :class:`~repro.service.progress.PartialSweep` and the
adaptive :class:`~repro.explore.AdaptiveExplorer` — and both front
doors (:class:`repro.api.Sweep`, :class:`repro.service.SweepService`)
answer ``pareto``/``cheapest``/``point`` through this module, so a
query means the same slice, builds the same payload and fails with the
same error whichever path evaluates it:

- **selectors** — :func:`axis_index` is the singleton/ambiguity rule
  (an unset selector resolves only on a one-value axis; a value off
  the grid is a :class:`~repro.errors.NotOnGridError` naming the axis
  and its values); :func:`encoding_slice`, :func:`front_selectors`,
  :func:`cheapest_selectors` and :func:`point_index` apply it to the
  encoding axes, a front, a ``cheapest`` query and a single point;
- **assembly** — :func:`config_axes`, :func:`design_point` and
  :func:`front_points` (over the :func:`design_front` /
  :func:`pareto_front` kernels) build every
  :class:`DesignPoint`, :func:`point_result` every single-point
  :class:`~repro.core.emulator.EmulationResult`;
- **metrics** — :data:`METRICS` holds one entry per ``cheapest`` target
  (``fps`` and ``train_steps_per_s``): its feasibility predicate over
  ``accelerated_ms``, its value (the best achievable one is the value at
  the fastest point) and its :class:`~repro.errors.InfeasibleQueryError`
  builder.  :func:`train_rate` is the one spelling of the derived
  training throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.axes import AXES
from repro.core.emulator import EmulationResult
from repro.errors import (
    AmbiguousAxisError,
    NotOnGridError,
    infeasible_query,
    infeasible_train_query,
)


@dataclass(frozen=True)
class DesignPoint:
    """One NGPC configuration with its cost and per-app benefit.

    ``config_axes`` records the architecture-axis values of the point
    beyond its scale factor — (name, value) pairs for every swept
    non-scale axis (clock, grid SRAM, engine count, pipeline batches).
    It is empty for the classic scale-only sweeps.
    """

    scale_factor: int
    area_overhead_pct: float
    power_overhead_pct: float
    speedups: Dict[str, float]
    config_axes: Tuple[Tuple[str, float], ...] = ()

    @property
    def average_speedup(self) -> float:
        return sum(self.speedups.values()) / len(self.speedups)

    @property
    def speedup_per_area_pct(self) -> float:
        """Average speedup bought per percent of die area."""
        return self.average_speedup / self.area_overhead_pct

    @property
    def speedup_per_power_pct(self) -> float:
        return self.average_speedup / self.power_overhead_pct

    def describe(self) -> str:
        """Short human-readable configuration label."""
        label = f"NGPC-{self.scale_factor}"
        if self.config_axes:
            label += " (" + ", ".join(
                f"{name}={value:g}" if isinstance(value, (int, float))
                else f"{name}={value}"
                for name, value in self.config_axes
            ) + ")"
        return label

    def to_dict(self) -> Dict:
        """JSON-safe view (the query service's response record)."""
        return {
            "config": self.describe(),
            "scale_factor": self.scale_factor,
            "area_overhead_pct": self.area_overhead_pct,
            "power_overhead_pct": self.power_overhead_pct,
            "speedups": dict(self.speedups),
            "average_speedup": self.average_speedup,
            "config_axes": [[name, value] for name, value in self.config_axes],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "DesignPoint":
        """Rebuild a point from :meth:`to_dict` output (served JSON)."""
        return cls(
            scale_factor=int(data["scale_factor"]),
            area_overhead_pct=float(data["area_overhead_pct"]),
            power_overhead_pct=float(data["power_overhead_pct"]),
            speedups={app: float(s) for app, s in data["speedups"].items()},
            config_axes=tuple(
                (str(name), value) for name, value in data.get("config_axes", ())
            ),
        )


# ---------------------------------------------------------------------------
# selectors
# ---------------------------------------------------------------------------

#: grid field of every query selector (``n_pixels`` -> ``pixel_counts``)
_FIELDS = {spec.query_name: spec.name for spec in AXES}
#: selector names of the seed axes and of the encoding axes, array order
_SEED_AXES = tuple(spec.query_name for spec in AXES if spec.legacy)
_ENCODING_AXES = tuple(spec.query_name for spec in AXES if not spec.legacy)


def axis_index(grid, axis: str, value) -> int:
    """Index of selector ``value`` on ``grid``'s ``axis`` (a query name).

    ``None`` resolves only when the axis holds one value; otherwise the
    query is ambiguous.  A value absent from the axis is not on the grid.
    """
    values = getattr(grid, _FIELDS[axis]) or ()
    if value is None:
        if len(values) == 1:
            return 0
        raise AmbiguousAxisError(axis, values)
    try:
        return values.index(value)
    except ValueError:
        raise NotOnGridError(
            f"{axis}={value!r} not on the grid", axis=axis, values=values
        ) from None


def encoding_slice(
    grid, gridtype=None, log2_hashmap_size=None, per_level_scale=None
) -> Tuple[int, ...]:
    """Trailing array indices named by the encoding-axis selectors.

    A ``(t, h, r)`` triple on extended grids; ``()`` otherwise, after
    checking that any named selector is on the grid's resolved sentinel
    axis.
    """
    selectors = zip(
        _ENCODING_AXES, (gridtype, log2_hashmap_size, per_level_scale)
    )
    if grid.is_extended:
        return tuple(axis_index(grid, a, value) for a, value in selectors)
    for axis, value in selectors:
        if value is not None:
            axis_index(grid, axis, value)
    return ()


def front_selectors(
    grid, scheme=None, n_pixels=None, app=None,
    gridtype=None, log2_hashmap_size=None, per_level_scale=None,
) -> Tuple[int, int, Optional[int], Tuple[int, ...]]:
    """``(scheme index, pixel index, app index or None, enc)`` of a front.

    ``app=None`` is not ambiguous here: it ranks by the all-apps mean.
    """
    j = axis_index(grid, "scheme", scheme)
    l = axis_index(grid, "n_pixels", n_pixels)
    i = None if app is None else axis_index(grid, "app", app)
    return j, l, i, encoding_slice(
        grid, gridtype, log2_hashmap_size, per_level_scale
    )


def cheapest_selectors(
    grid, app=None, scheme=None, n_pixels=None,
    gridtype=None, log2_hashmap_size=None, per_level_scale=None,
) -> Tuple[int, int, int, Tuple[int, ...]]:
    """``(app index, scheme index, pixel index, enc)`` of a ``cheapest``
    query, whose ``app`` follows the singleton rule."""
    i = axis_index(grid, "app", app)
    j, l, _, enc = front_selectors(
        grid, scheme, n_pixels, None,
        gridtype, log2_hashmap_size, per_level_scale,
    )
    return i, j, l, enc


def point_index(
    grid, app=None, scheme=None, scale_factor=None, n_pixels=None,
    clock_ghz=None, grid_sram_kb=None, n_engines=None, n_batches=None,
    gridtype=None, log2_hashmap_size=None, per_level_scale=None,
) -> Tuple[int, ...]:
    """Array index of one grid point; every selector follows the rule."""
    seed = (app, scheme, scale_factor, n_pixels,
            clock_ghz, grid_sram_kb, n_engines, n_batches)
    return tuple(
        axis_index(grid, axis, value) for axis, value in zip(_SEED_AXES, seed)
    ) + encoding_slice(grid, gridtype, log2_hashmap_size, per_level_scale)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


#: the config axes a point's provenance records, in array order
_CONFIG_SPECS = AXES[4:]


def config_axes(grid, c: int, g: int, e: int, b: int, enc: Tuple = ()) -> Tuple:
    """(name, value) pairs of the swept (non-singleton) config axes.

    ``enc`` is the queried slice's encoding-axis index triple (empty on
    non-extended grids); its values are recorded so a point's
    provenance survives serialization even though the encoding axes
    were sliced away before the front was computed.
    """
    out = []
    for spec, pos in zip(_CONFIG_SPECS, (c, g, e, b, *enc)):
        values = getattr(grid, spec.name)
        if len(values) > 1:
            out.append((spec.query_name, values[pos]))
    return tuple(out)


def design_point(grid, cell, enc, area, power, speedups) -> DesignPoint:
    """The :class:`DesignPoint` of slice cell ``(k, c, g, e, b)``.

    ``area``/``power`` are the (K, C, G, E) overhead arrays,
    ``speedups`` the point's (A,) per-app speedup array in
    ``grid.apps`` order.
    """
    k, c, g, e, b = cell
    return DesignPoint(
        scale_factor=grid.scale_factors[k],
        area_overhead_pct=float(area[k, c, g, e]),
        power_overhead_pct=float(power[k, c, g, e]),
        speedups=dict(zip(grid.apps, speedups.tolist())),
        config_axes=config_axes(grid, c, g, e, b, enc),
    )


def front_points(
    grid, speedup, area, power, app: Optional[int] = None,
    enc: Tuple = (), valid=None,
) -> List[DesignPoint]:
    """The Pareto front of an (A, K, C, G, E, B) speedup plane.

    Benefit is app ``app``'s speedup, or the all-apps mean when None;
    ``valid`` optionally restricts the candidates (a partial sweep's
    fully evaluated points).  Sorted by ascending area.
    """
    benefit = speedup.mean(axis=0) if app is None else speedup[app]
    return [
        design_point(
            grid, cell, enc, area, power, speedup[(slice(None),) + cell]
        )
        for cell in design_front(benefit, area, valid)
    ]


def point_result(grid, idx: Tuple[int, ...], timings: Dict) -> EmulationResult:
    """The :class:`EmulationResult` of the grid point at array index ``idx``.

    ``timings`` maps every timing field plus ``amdahl_bound`` to its value.
    """
    return EmulationResult(
        app=grid.apps[idx[0]],
        scheme=grid.schemes[idx[1]],
        scale_factor=grid.scale_factors[idx[2]],
        n_pixels=grid.pixel_counts[idx[3]],
        **timings,
    )


def design_front(
    benefit: np.ndarray,
    area_overhead_pct: np.ndarray,
    valid: Optional[np.ndarray] = None,
) -> List[Tuple[int, ...]]:
    """``(k, c, g, e, b)`` of the non-dominated points of a design plane.

    ``benefit`` is a (K, C, G, E, B) speedup plane, the cost of each
    point its (K, C, G, E) area overhead; ``valid`` optionally marks the
    candidate points (a partial sweep's evaluated ones).  Area does not
    depend on the batch axis, so within one cost cell every point but
    the cell's best is dominated: the plane is reduced over B with a
    first-index argmax before :func:`pareto_front` runs on the cells.
    The first index keeps :func:`pareto_front`'s lowest-flat-index
    tie-break (flat index = cell * B + b), so the answer equals
    :func:`pareto_front` over every candidate point unreduced.
    """
    if valid is not None:
        benefit = np.where(valid, benefit, -np.inf)
    best_b = benefit.argmax(axis=-1)
    best = np.take_along_axis(benefit, best_b[..., None], axis=-1).reshape(-1)
    cost = area_overhead_pct.reshape(-1)
    if valid is None:
        keep = pareto_front(cost, best)
    else:  # cells holding at least one candidate
        cells = np.flatnonzero(best > -np.inf)
        keep = cells[pareto_front(cost[cells], best[cells])]
    return [
        tuple(int(i) for i in np.unravel_index(cell, best_b.shape))
        + (int(best_b.flat[cell]),)
        for cell in keep
    ]


def pareto_front(costs, values) -> List[int]:
    """Indices of the non-dominated (min cost, max value) points.

    A point is dominated when another has cost <= and value >= with at
    least one strict inequality.  Exactly-duplicated (cost, value)
    pairs resolve deterministically to the **lowest input index** — one
    representative per frontier point, so fronts computed over
    different supersets of the same points never flap on ties
    (adaptive refinement compares fronts across rounds).  Returned
    indices are sorted by ascending cost (ties: by descending value).
    Fully vectorized — a 100k-point front resolves in milliseconds
    (``benchmarks/bench_sweep_scaling.py`` gates the sub-second floor).
    """
    costs = np.asarray(costs, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if costs.shape != values.shape or costs.ndim != 1:
        raise ValueError("costs and values must be 1-D arrays of equal length")
    if costs.size == 0:
        return []
    order = np.lexsort((-values, costs))  # cost ascending, value descending
    sorted_values = values[order]
    # a point opens the frontier when its value beats every earlier
    # value; within a run of exact (cost, value) duplicates only the run
    # leader opens, and lexsort stability makes that leader the
    # lowest-index duplicate — the deterministic tie-break
    prev_max = np.empty_like(sorted_values)
    prev_max[0] = -np.inf
    np.maximum.accumulate(sorted_values[:-1], out=prev_max[1:])
    opens = sorted_values > prev_max
    return [int(i) for i in order[opens]]


# ---------------------------------------------------------------------------
# the metric table of ``cheapest``
# ---------------------------------------------------------------------------

#: arithmetic of one optimizer step relative to pure inference over the
#: same samples: forward pass + ~2x for the backward pass (the standard
#: fwd:bwd FLOP ratio the training benchmark assumes)
TRAIN_STEP_FLOP_FACTOR = 3.0


def train_rate(
    app: str, scheme: str, n_pixels: int, batch_size: Optional[int] = None
) -> Callable:
    """Training throughput (steps/s) as a function of ``accelerated_ms``.

    Training a neural-graphics model is dominated by the same
    encoding + MLP pipeline the NGPC accelerates, so an optimizer step
    over ``batch_size`` samples costs ~``batch_size / samples_per_frame``
    of a frame's inference work times :data:`TRAIN_STEP_FLOP_FACTOR`
    (forward + backward).  The model matches
    ``benchmarks/bench_training_throughput.py``'s accounting with the
    accelerated frame time substituted for the baseline's: steps/s =
    (samples/frame / accelerated_ms) * 1000 / (batch * factor).
    ``batch_size`` defaults to the trainer's
    (:class:`repro.apps.trainer.TrainerConfig`).
    """
    from repro.apps.params import get_config
    from repro.apps.trainer import TrainerConfig
    from repro.gpu.kernels import samples_per_frame

    batch = int(batch_size) if batch_size is not None else TrainerConfig().batch_size
    if batch <= 0:
        raise ValueError("batch_size must be positive")
    samples = samples_per_frame(get_config(app, scheme), n_pixels)
    per_step = batch * TRAIN_STEP_FLOP_FACTOR
    return lambda ms: (samples / ms) * 1000.0 / per_step


def _fps_feasible(app, scheme, n_pixels, fps):
    budget_ms = 1000.0 / fps
    return lambda ms: ms <= budget_ms


def _train_feasible(app, scheme, n_pixels, steps_per_s):
    rate = train_rate(app, scheme, n_pixels)
    return lambda ms: rate(ms) >= steps_per_s


@dataclass(frozen=True)
class Metric:
    """One ``cheapest`` target, defined over ``accelerated_ms``.

    ``feasible(app, scheme, n_pixels, target)`` and ``rate(app, scheme,
    n_pixels)`` return functions of an ``accelerated_ms`` array: the
    feasibility mask and the metric's value.  Both metrics fall as
    ``accelerated_ms`` grows and IEEE division is monotone, so the best
    achievable value is the value at the fastest point — bit-identical
    to the maximum over the metric's full array.
    """

    label: str
    feasible: Callable
    rate: Callable
    infeasible: Callable

    def check(self, target) -> None:
        if target <= 0:
            raise ValueError(f"{self.label} must be positive")

    def error(self, app, scheme, n_pixels, target, accelerated_ms):
        """The structured error of a target nothing on the slice meets."""
        best = self.rate(app, scheme, n_pixels)(np.nanmin(accelerated_ms))
        return self.infeasible(app, target, n_pixels, scheme, float(best))


METRICS = {
    "fps": Metric(
        "fps", _fps_feasible,
        lambda app, scheme, n_pixels: lambda ms: 1000.0 / ms,
        infeasible_query,
    ),
    "train_steps_per_s": Metric(
        "steps_per_s", _train_feasible, train_rate, infeasible_train_query
    ),
}


def cheapest_target(fps=None, train_steps_per_s=None) -> Tuple[Metric, float]:
    """``(metric, target)`` of a ``cheapest`` query: 60 fps unless named."""
    if fps is not None and train_steps_per_s is not None:
        raise ValueError(
            "name one target: fps= or train_steps_per_s=, not both"
        )
    if train_steps_per_s is not None:
        metric, target = METRICS["train_steps_per_s"], train_steps_per_s
    else:
        metric, target = METRICS["fps"], 60.0 if fps is None else fps
    metric.check(target)
    return metric, target


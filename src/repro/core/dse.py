"""Batched design-space exploration of the NGPC evaluation space.

The paper hand-sweeps four scaling factors (Figs. 12/15); this module
turns the sweep into a production DSE engine that answers any architect's
query over the full N-dimensional cartesian space of

    (app x scheme x scale x pixels x clock x grid-SRAM x engines x batches)

- :class:`SweepGrid` names a cartesian design space over the four
  workload axes *and* four architecture axes — NFP clock (GHz),
  per-engine grid-SRAM size (KB), encoding engines per NFP, and pipeline
  batch count — and :func:`sweep_grid` evaluates *all* of it in one
  call, returning a :class:`SweepResult` of NumPy arrays shaped
  ``grid.shape`` (one dense array, the rest broadcast views of small
  factors).
- Two engines: ``"vectorized"`` (NumPy broadcasting through the
  ``*_batch`` fast paths of the core models, each (app, scheme) block
  computed straight into the one preallocated dense array — the
  default) and ``"scalar"`` (the original one-
  :func:`~repro.core.emulator.emulate`-per-point loop, memoized), plus
  ``"auto"``, an accepted alias of ``"vectorized"``.  Both engines
  produce identical results; the equivalence harness in
  ``tests/test_sweep_engine.py`` enforces bit-for-bit agreement, and
  ``tests/test_golden_values.py`` pins the absolute values.
- Whole-grid memoization keyed on (grid, engine, NGPCConfig, calibration
  fingerprint), so repeated queries — Pareto fronts, FPS constraints,
  report generation — reuse one evaluation.
- Constraint queries on the result: :meth:`SweepResult.pareto_front`
  (non-dominated cost/benefit points, fully vectorized so 100k+-point
  fronts resolve in milliseconds) and :meth:`SweepResult.cheapest` (the
  smallest configuration hitting a frame-rate or training-rate target),
  both defined once in :mod:`repro.core.query` and exposed through the
  CLI (``python -m repro dse``) and :mod:`repro.analysis.report`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.apps.params import APP_NAMES, ENCODING_SCHEMES
from repro.errors import AmbiguousAxisError, InfeasibleQueryError
from repro.core.area_power import ngpc_area_power_batch
from repro.core.axes import (
    AXES,
    AXIS_FIELDS,
    CONFIG_AXIS_FIELDS,
    EXTENSION_AXES,
    EXTENSION_AXIS_FIELDS,
    GRIDTYPE_AUTO,
    LEGACY_AXIS_FIELDS,
    LOG2_HASHMAP_INHERIT,
    PER_LEVEL_SCALE_INHERIT,
    REFINE_AXIS_FIELDS,
    TASK_BATCH_KWARGS,
    EncodingVariant,
    axis as axis_spec,
)
from repro.core.cache import (
    ModelCache,
    calibration_fingerprint,
    config_fingerprint,
)
from repro.core.config import NFPConfig, NGPCConfig, SCALE_FACTORS
from repro.core.emulator import (
    TIMING_FIELDS as _TIMING_FIELDS,
    EmulationResult,
    emulate_batch,
    emulate_with_config,
    factor_index,
    factor_shape,
)
from repro.core import query
from repro.core.query import (  # re-exported for existing importers
    DesignPoint,
    design_front,
    pareto_front,
)
from repro.gpu.baseline import FHD_PIXELS


# ---------------------------------------------------------------------------
# the batched sweep engine
# ---------------------------------------------------------------------------
# The grid axes are declared once, in :mod:`repro.core.axes`; this module
# re-exports AXIS_FIELDS (all registered axes, array order) and
# LEGACY_AXIS_FIELDS (the seed eight) from the registry for its
# consumers.  A grid that does not actively sweep an extension axis
# keeps the seed 8-dimensional arrays, task tuples and fingerprints.


@dataclass(frozen=True)
class SweepGrid:
    """A cartesian design space over workload and architecture axes.

    Axis order (= array axis order of :class:`SweepResult`) follows the
    registry (:data:`repro.core.axes.AXES`):

    0. ``apps``                application names
    1. ``schemes``             encoding schemes
    2. ``scale_factors``       NFPs per NGPC (power of two)
    3. ``pixel_counts``        frame resolutions
    4. ``clocks_ghz``          NFP clock frequencies (GHz)
    5. ``grid_sram_kb``        per-engine grid-SRAM sizes (KB, power of two)
    6. ``n_engines``           encoding engines per NFP
    7. ``n_batches``           pipeline batch counts
    8. ``gridtypes``           grid storage policy (auto | hash | tiled)
    9. ``log2_hashmap_sizes``  log2 hash-table entries (0 = Table I)
    10. ``per_level_scales``   per-level growth factor (0 = Table I)

    The architecture axes default to ``None`` — "inherit the single
    value of the base :class:`NGPCConfig` at sweep time" — and the
    encoding (extension) axes default to ``None`` — "inherit the app's
    Table I parameters".  Call :meth:`resolve` (done automatically by
    :func:`sweep_grid`) to pin them to concrete one-value tuples.  A
    grid that does not actively sweep an extension axis
    (:attr:`is_extended` False) keeps the seed 8-dimensional arrays.
    """

    apps: Tuple[str, ...] = APP_NAMES
    schemes: Tuple[str, ...] = ("multi_res_hashgrid",)
    scale_factors: Tuple[int, ...] = SCALE_FACTORS
    pixel_counts: Tuple[int, ...] = (FHD_PIXELS,)
    clocks_ghz: Optional[Tuple[float, ...]] = None
    grid_sram_kb: Optional[Tuple[int, ...]] = None
    n_engines: Optional[Tuple[int, ...]] = None
    n_batches: Optional[Tuple[int, ...]] = None
    gridtypes: Optional[Tuple[str, ...]] = None
    log2_hashmap_sizes: Optional[Tuple[int, ...]] = None
    per_level_scales: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        for spec in AXES:
            values = getattr(self, spec.name)
            if values is None:
                continue
            object.__setattr__(
                self, spec.name, tuple(spec.canon(v) for v in values)
            )
        for spec in AXES:
            values = getattr(self, spec.name)
            if values is None:
                continue
            if not values:
                raise ValueError("every grid axis needs at least one value")
            for value in values:
                spec.validate(value)

    @property
    def is_resolved(self) -> bool:
        """True once every default-None axis holds concrete values."""
        return not any(
            getattr(self, spec.name) is None
            for spec in AXES
            if spec.default is None
        )

    @property
    def is_extended(self) -> bool:
        """True when some extension axis sweeps beyond its sentinel.

        Extended grids carry the extra trailing array dimensions and the
        versioned (``v2``) fingerprints; everything else keeps the seed
        8-dimensional layout bit for bit.
        """
        return any(
            spec.is_active(getattr(self, spec.name)) for spec in EXTENSION_AXES
        )

    @property
    def axis_fields(self) -> Tuple[str, ...]:
        """This grid's array-axis field names, in array order.

        The seed eight, or all registered axes when an extension axis is
        actively swept (:attr:`is_extended`).
        """
        return AXIS_FIELDS if self.is_extended else LEGACY_AXIS_FIELDS

    def resolve(self, ngpc: Optional[NGPCConfig] = None) -> "SweepGrid":
        """Pin unset inheriting axes to the base config's values."""
        if self.is_resolved:
            return self
        base = ngpc or NGPCConfig()
        kwargs = {}
        for spec in AXES:
            values = getattr(self, spec.name)
            if values is None and spec.inherit is not None:
                values = (spec.inherit(base),)
            kwargs[spec.name] = values
        return SweepGrid(**kwargs)

    def normalized(self) -> "SweepGrid":
        """Canonical axis ordering: sorted, de-duplicated values per axis.

        Two grids naming the same design space with reordered (or
        repeated) axis values normalize to the same grid — the basis of
        :func:`sweep_fingerprint` and therefore of every service-level
        cache key.  Unset inheriting axes stay unset.
        """

        def canon(values):
            return None if values is None else tuple(sorted(set(values)))

        axes = {name: canon(getattr(self, name)) for name in AXIS_FIELDS}
        if all(axes[name] == getattr(self, name) for name in AXIS_FIELDS):
            return self  # already canonical: skip the re-validation
        return SweepGrid(**axes)

    def to_dict(self) -> Dict[str, list]:
        """JSON-safe axis mapping.

        Unset axes are omitted; so are extension axes pinned to their
        inherit sentinels, keeping the payloads (and the store metadata
        derived from them) of non-extended grids byte-identical to the
        pre-registry schema.
        """
        out = {}
        extended = self.is_extended
        for spec in AXES:
            values = getattr(self, spec.name)
            if values is None:
                continue
            if spec.sentinel is not None and not extended:
                continue
            out[spec.name] = list(values)
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "SweepGrid":
        """Build a grid from a JSON axis mapping (:meth:`to_dict` inverse).

        Unknown keys fail loudly (a misspelled axis must not silently
        sweep the default space); scalar values are promoted to
        one-value axes for ergonomic hand-written payloads.
        """
        if not isinstance(data, dict):
            raise ValueError(f"grid must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(AXIS_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown grid axes {sorted(unknown)}; valid axes are "
                f"{list(AXIS_FIELDS)}"
            )
        kwargs = {}
        for name in AXIS_FIELDS:
            if name in data and data[name] is not None:
                values = data[name]
                if isinstance(values, (str, int, float)):
                    values = (values,)
                kwargs[name] = tuple(values)
        return cls(**kwargs)

    @property
    def shape(self) -> Tuple[int, ...]:
        """One extent per active axis field, in array order.

        8-dimensional for seed grids, 11-dimensional when an extension
        axis is actively swept; unset axes count as extent 1.
        """
        return tuple(
            len(getattr(self, name)) if getattr(self, name) is not None else 1
            for name in self.axis_fields
        )

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def points(self) -> Iterator[Tuple]:
        """All grid points in array order, one value tuple per point.

        8-tuples (app, scheme, scale, n_pixels, clock_ghz, sram_kb,
        engines, batches) for seed grids; extended grids append the
        (gridtype, log2_hashmap_size, per_level_scale) values.  Unset
        axes resolve against the default :class:`NGPCConfig`.
        """
        grid = self.resolve()
        axes = [getattr(grid, name) for name in grid.axis_fields]
        yield from itertools.product(*axes)


@dataclass(frozen=True, eq=False)  # eq=False: ndarray fields break ==/hash
class SweepResult:
    """Dense evaluation of a (resolved) :class:`SweepGrid`.

    Timing arrays are shaped ``grid.shape`` = (apps, schemes, scales,
    pixel_counts, clocks, srams, engines, batches); ``amdahl_bound`` is
    (apps, schemes); the area/power arrays are (scales, clocks, srams,
    engines) — cost depends only on the hardware configuration, not on
    the workload or the pipeline batching.

    Only ``accelerated_ms`` is held dense: every other timing field is
    held at its :meth:`factor` shape
    (:data:`~repro.core.axes.TIMING_FIELD_AXES`) and read through a
    read-only stride-0 :func:`numpy.broadcast_to` view.  The constructor
    takes each field dense, broadcast or factor-shaped.
    """

    grid: SweepGrid
    engine: str
    baseline_ms: np.ndarray
    accelerated_ms: np.ndarray
    encoding_engine_ms: np.ndarray
    mlp_engine_ms: np.ndarray
    dma_ms: np.ndarray
    fused_rest_ms: np.ndarray
    amdahl_bound: np.ndarray
    area_mm2_7nm: np.ndarray
    power_w_7nm: np.ndarray
    area_overhead_pct: np.ndarray
    power_overhead_pct: np.ndarray

    def __post_init__(self):
        fields, shape = self.grid.axis_fields, self.grid.shape
        for name in _TIMING_FIELDS:
            factor = np.asarray(getattr(self, name))[
                factor_index(name, fields)
            ]
            if not factor.flags.c_contiguous:  # dense: keep the factor only
                factor = np.ascontiguousarray(factor)
            object.__setattr__(self, name, np.broadcast_to(factor, shape))

    def factor(self, name: str) -> np.ndarray:
        """Timing field ``name`` at its factor shape (a view, no copy)."""
        return getattr(self, name)[factor_index(name, self.grid.axis_fields)]

    @property
    def speedup(self) -> np.ndarray:
        return self.baseline_ms / self.accelerated_ms

    @property
    def fps(self) -> np.ndarray:
        return 1000.0 / self.accelerated_ms

    @property
    def train_steps_per_s(self) -> np.ndarray:
        """Derived training throughput (steps/s), shaped ``grid.shape``.

        Computed on demand from ``accelerated_ms`` — never persisted, so
        the metric can evolve without invalidating stores.  See
        :func:`train_steps_per_s_batch` for the model.
        """
        return train_steps_per_s_batch(self.grid, self.accelerated_ms)

    # -- indexing -----------------------------------------------------------
    def index(
        self,
        app: Optional[str] = None,
        scheme: Optional[str] = None,
        scale_factor: Optional[int] = None,
        n_pixels: Optional[int] = None,
        clock_ghz: Optional[float] = None,
        grid_sram_kb: Optional[int] = None,
        n_engines: Optional[int] = None,
        n_batches: Optional[int] = None,
        gridtype: Optional[str] = None,
        log2_hashmap_size: Optional[int] = None,
        per_level_scale: Optional[float] = None,
    ) -> Tuple[int, ...]:
        """Array index of one grid point (see :func:`query.point_index`)."""
        return query.point_index(
            self.grid, app, scheme, scale_factor, n_pixels,
            clock_ghz, grid_sram_kb, n_engines, n_batches,
            gridtype, log2_hashmap_size, per_level_scale,
        )

    def point(
        self,
        app: Optional[str] = None,
        scheme: Optional[str] = None,
        scale_factor: Optional[int] = None,
        n_pixels: Optional[int] = None,
        clock_ghz: Optional[float] = None,
        grid_sram_kb: Optional[int] = None,
        n_engines: Optional[int] = None,
        n_batches: Optional[int] = None,
        gridtype: Optional[str] = None,
        log2_hashmap_size: Optional[int] = None,
        per_level_scale: Optional[float] = None,
    ) -> EmulationResult:
        """The :class:`EmulationResult` of one grid point."""
        idx = self.index(
            app, scheme, scale_factor, n_pixels,
            clock_ghz, grid_sram_kb, n_engines, n_batches,
            gridtype, log2_hashmap_size, per_level_scale,
        )
        timings = {
            name: float(getattr(self, name)[idx]) for name in _TIMING_FIELDS
        }
        timings["amdahl_bound"] = float(self.amdahl_bound[idx[:2]])
        return query.point_result(self.grid, idx, timings)

    def to_records(self, limit: Optional[int] = None) -> List[Dict[str, float]]:
        """One flat dict per grid point (JSON/table friendly).

        ``limit`` stops after that many records — on a 100k-point grid
        materializing everything to serve a preview is seconds of work.
        """
        if limit is not None:
            limit = int(limit)
            if limit < 0:
                raise ValueError("limit must be non-negative")
        records = []
        speedup = self.speedup
        fps = self.fps
        grid = self.grid
        fields = grid.axis_fields
        for idx in np.ndindex(*grid.shape):
            if limit is not None and len(records) >= limit:
                break
            record = {
                axis_spec(name).query_name: getattr(grid, name)[pos]
                for name, pos in zip(fields, idx)
            }
            k, c, g, e = idx[2], idx[4], idx[5], idx[6]
            record.update(
                {
                    "baseline_ms": float(self.baseline_ms[idx]),
                    "accelerated_ms": float(self.accelerated_ms[idx]),
                    "speedup": float(speedup[idx]),
                    "fps": float(fps[idx]),
                    "area_overhead_pct": float(self.area_overhead_pct[k, c, g, e]),
                    "power_overhead_pct": float(
                        self.power_overhead_pct[k, c, g, e]
                    ),
                }
            )
            records.append(record)
        return records

    # -- serialization ------------------------------------------------------
    def to_payload(self) -> Dict:
        """Full JSON-safe serialization: grid axes + every result array.

        The inverse of :meth:`from_payload`; the pair lets the query
        service ship whole :class:`SweepResult`s over its HTTP JSON API
        and lets :mod:`repro.analysis.report` render from a served
        result without re-evaluating the grid.  The payload is stamped
        with :data:`PAYLOAD_SCHEMA_VERSION` so service and library can
        evolve the array schema independently.
        """
        payload = {
            "schema_version": PAYLOAD_SCHEMA_VERSION,
            "grid": self.grid.to_dict(),
            "engine": self.engine,
        }
        for name in RESULT_ARRAY_FIELDS:
            payload[name] = getattr(self, name).tolist()
        return payload

    @classmethod
    def from_payload(cls, payload: Dict) -> "SweepResult":
        """Rebuild a result from :meth:`to_payload` output.

        Array shapes are validated against the payload's grid so a
        truncated or hand-edited payload fails here rather than with an
        off-by-one deep inside a query.  Timing arrays arrive dense, as
        :meth:`to_payload` writes them; the result keeps only their
        factors.  A payload without a
        ``schema_version`` is read as version 1 (the pre-versioning
        wire format, which is identical); an unsupported version fails
        loudly instead of misinterpreting arrays.
        """
        check_schema_version(payload.get("schema_version"))
        grid = SweepGrid.from_dict(payload["grid"]).resolve()
        expected = result_array_shapes(grid)
        expected.update((name, grid.shape) for name in _TIMING_FIELDS)
        arrays = {}
        for name in RESULT_ARRAY_FIELDS:
            if name not in payload:
                raise ValueError(f"payload is missing array {name!r}")
            array = np.asarray(payload[name], dtype=np.float64)
            if array.shape != expected[name]:
                raise ValueError(
                    f"payload array {name!r} has shape {array.shape}, "
                    f"expected {expected[name]}"
                )
            array.setflags(write=False)
            arrays[name] = array
        return cls(grid=grid, engine=str(payload.get("engine", "served")), **arrays)

    # -- queries ------------------------------------------------------------
    def pareto_front(
        self,
        scheme: Optional[str] = None,
        n_pixels: Optional[int] = None,
        app: Optional[str] = None,
        gridtype: Optional[str] = None,
        log2_hashmap_size: Optional[int] = None,
        per_level_scale: Optional[float] = None,
    ) -> List[DesignPoint]:
        """Non-dominated (area cost, speedup benefit) configurations.

        Every (scale, clock, SRAM, engines, batches) combination on the
        grid is a candidate; the front is sorted by ascending area.
        Benefit is the speedup of ``app``, or the all-apps average when
        ``app`` is None (the Fig. 12 "average" bars).  Selectors follow
        :func:`repro.core.query.front_selectors`.
        """
        j, l, i, enc = query.front_selectors(
            self.grid, scheme, n_pixels, app,
            gridtype, log2_hashmap_size, per_level_scale,
        )
        plane = (slice(None), j, slice(None), l, Ellipsis) + enc
        # (A, K, C, G, E, B): the queried plane only, never the full grid
        return query.front_points(
            self.grid, self.baseline_ms[plane] / self.accelerated_ms[plane],
            self.area_overhead_pct, self.power_overhead_pct, i, enc,
        )

    def cheapest(
        self,
        app: Optional[str] = None,
        fps: Optional[float] = None,
        n_pixels: Optional[int] = None,
        scheme: Optional[str] = None,
        gridtype: Optional[str] = None,
        log2_hashmap_size: Optional[int] = None,
        per_level_scale: Optional[float] = None,
        *,
        train_steps_per_s: Optional[float] = None,
    ) -> DesignPoint:
        """Cheapest-area configuration meeting a throughput target.

        The target is ``fps`` (60 when neither is named) or
        ``train_steps_per_s`` (:data:`repro.core.query.METRICS`).
        Candidates span every (scale, clock, SRAM, engines, batches)
        combination; the returned :class:`DesignPoint` carries the
        winning architecture-axis values in ``config_axes``.  Raises
        :class:`~repro.errors.InfeasibleQueryError` when nothing on the
        queried slice meets the target.
        """
        metric, target = query.cheapest_target(fps, train_steps_per_s)
        grid = self.grid
        i, j, l, enc = query.cheapest_selectors(
            grid, app, scheme, n_pixels,
            gridtype, log2_hashmap_size, per_level_scale,
        )
        names = (grid.apps[i], grid.schemes[j], grid.pixel_counts[l])
        acc = self.accelerated_ms[i, j, :, l]  # (K, C, G, E, B[, T, H, R])
        if enc:
            acc = acc[..., enc[0], enc[1], enc[2]]
        feasible = metric.feasible(*names, target)(acc)
        if not feasible.any():
            raise metric.error(*names, target, acc)
        cost = np.broadcast_to(self.area_overhead_pct[..., None], acc.shape)
        flat = int(np.argmin(np.where(feasible, cost, np.inf)))
        k, c, g, e, b = np.unravel_index(flat, acc.shape)
        at = (slice(None), j, k, l, c, g, e, b) + enc
        return query.design_point(
            grid, (k, c, g, e, b), enc,
            self.area_overhead_pct, self.power_overhead_pct,
            # each app's one-point division, bit-identical to self.speedup
            self.baseline_ms[at] / self.accelerated_ms[at],
        )

    def cheapest_point_meeting_fps(
        self,
        app: str,
        fps: float,
        n_pixels: Optional[int] = None,
        scheme: Optional[str] = None,
        gridtype: Optional[str] = None,
        log2_hashmap_size: Optional[int] = None,
        per_level_scale: Optional[float] = None,
    ) -> Optional[DesignPoint]:
        """:meth:`cheapest` at ``fps``, or None when nothing reaches it."""
        try:
            return self.cheapest(
                app, fps, n_pixels, scheme,
                gridtype, log2_hashmap_size, per_level_scale,
            )
        except InfeasibleQueryError:
            return None


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

# bounded: each entry holds one dense float64 array for a whole grid
_SWEEP_CACHE = ModelCache("sweep_grid", maxsize=128)
#: grids larger than this are never memoized (a 65k-point result is
#: ~0.6 MB; the cache is for the report/CLI-sized grids, not for the
#: 100k+-point exploration sweeps)
_SWEEP_CACHE_MAX_POINTS = 1 << 16

_ENGINES = ("vectorized", "scalar", "auto")

#: every array field of :class:`SweepResult`, in dataclass order — the
#: payload schema of :meth:`SweepResult.to_payload`
RESULT_ARRAY_FIELDS = _TIMING_FIELDS + (
    "amdahl_bound",
    "area_mm2_7nm",
    "power_w_7nm",
    "area_overhead_pct",
    "power_overhead_pct",
)
#: the arrays of one evaluated block (the shard-task evaluation output)
BLOCK_ARRAY_FIELDS = _TIMING_FIELDS + ("amdahl_bound",)

#: version stamped into every :meth:`SweepResult.to_payload` payload and
#: every HTTP response envelope; bump when the array schema changes.
#: Version 2 added the registry's extension axes (``gridtypes``,
#: ``log2_hashmap_sizes``, ``per_level_scales``) to the grid mapping —
#: a superset of version 1, which this build still reads and serves.
PAYLOAD_SCHEMA_VERSION = 2

#: payload versions this build can read/serve (version 1 is also the
#: implicit version of pre-versioning payloads with no stamp)
SUPPORTED_SCHEMA_VERSIONS = (1, 2)


def check_schema_version(version) -> int:
    """Validate a negotiated/stamped payload schema version.

    ``None`` (no stamp) reads as version 1; anything not in
    :data:`SUPPORTED_SCHEMA_VERSIONS` raises :class:`ValueError` — the
    service maps it to a structured 400 naming the supported versions.
    """
    if version is None:
        return 1  # the pre-versioning wire format
    try:
        version = int(version)
    except (TypeError, ValueError):
        raise ValueError(f"schema_version must be an integer, got {version!r}")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise ValueError(
            f"unsupported payload schema_version {version}; this build "
            f"supports {list(SUPPORTED_SCHEMA_VERSIONS)}"
        )
    return version


def sweep_fingerprint(
    grid: Optional[SweepGrid] = None, ngpc: Optional[NGPCConfig] = None
):
    """Canonical, stable cache key of a sweep evaluation.

    The one key both cache layers agree on — extracted from the ad-hoc
    tuple :func:`sweep_grid` used to build inline so the asyncio
    :class:`repro.service.SweepService` can share it.  It hashes
    together everything a :class:`SweepResult`'s numbers depend on:

    - the **normalized resolved grid** — axes are resolved against
      ``ngpc`` (unset architecture axes inherit the base config) and
      then sorted/de-duplicated, so two grids naming the same design
      space with reordered axis values produce the *same* key, while
      any single-axis perturbation produces a distinct one;
    - the **base config** via
      :func:`repro.core.cache.config_fingerprint`;
    - the **calibration constants** via
      :func:`repro.core.cache.calibration_fingerprint`, so a perturbed
      calibration context never reads a stale nominal sweep.

    The engine is deliberately *not* part of the key: every engine is
    numerically identical (tests/test_sweep_engine.py enforces 1e-9
    agreement), so a result computed by one engine can serve queries
    issued under another.

    The key hashes one ``(salt, values)`` pair per *active* axis
    (:attr:`SweepGrid.axis_fields`), under the ``sweep/v1`` tag for the
    seed hypercube and ``sweep/v2`` when an extension axis is actively
    swept — so grids that predate the registry (or merely register the
    new axes without sweeping them) keep their exact pre-registry keys
    and every warm store stays valid.
    """
    resolved = (grid or SweepGrid()).resolve(ngpc).normalized()
    fields = resolved.axis_fields
    axes = tuple(
        (axis_spec(name).fingerprint_salt, getattr(resolved, name))
        for name in fields
    )
    tag = "sweep/v2" if resolved.is_extended else "sweep/v1"
    return (
        tag,
        axes,
        config_fingerprint(ngpc),
        calibration_fingerprint(),
    )


def result_array_shapes(grid: SweepGrid) -> Dict[str, Tuple[int, ...]]:
    """Stored shape of every :class:`SweepResult` array for ``grid``.

    The one schema both deserializers validate against —
    :meth:`SweepResult.from_payload` (served JSON) and the persistent
    result store (npz columns) — so a truncated or hand-edited artifact
    fails at the boundary instead of with an off-by-one deep inside a
    query.  Timing fields are at their factor shapes (dense on the JSON
    wire and in unstamped store entries).  ``grid`` must be resolved.
    """
    fields, shape = grid.axis_fields, grid.shape
    expected = {
        name: factor_shape(name, fields, shape) for name in _TIMING_FIELDS
    }
    expected["amdahl_bound"] = shape[:2]
    cost_shape = (
        len(grid.scale_factors), len(grid.clocks_ghz),
        len(grid.grid_sram_kb), len(grid.n_engines),
    )
    for name in ("area_mm2_7nm", "power_w_7nm",
                 "area_overhead_pct", "power_overhead_pct"):
        expected[name] = cost_shape
    return expected


def block_fingerprint(task: Tuple, ngpc: Optional[NGPCConfig] = None):
    """Canonical cache key of one vectorized block evaluation.

    ``task`` is a :func:`shard_plan`/:func:`store_block_plan` work unit:
    ``(app, scheme, scales, pixels, clocks, srams, engines, batches)``,
    optionally extended with ``(gridtypes, log2_hashmap_sizes,
    per_level_scales)`` windows on extended grids.  The key hashes the
    block's exact axes slice (the literal values the block spans, not
    grid indices — two grids sharing a hypercube slice share the key),
    the base config via :func:`config_fingerprint`, and the calibration
    constants via :func:`calibration_fingerprint`, so a perturbed
    calibration context can never read a stale persisted block.  This is
    the key the persistent result store files blocks under
    (:mod:`repro.store`).  8-field (seed) tasks keep the exact
    ``block/v1`` keys they had before the registry; 11-field tasks hash
    under ``block/v2``.
    """
    app, scheme = task[0], task[1]
    tag = "block/v1" if len(task) == 8 else "block/v2"
    return (
        (tag, app, scheme)
        + tuple(tuple(axis) for axis in task[2:])
        + (config_fingerprint(ngpc), calibration_fingerprint())
    )


def store_block_plan(grid: SweepGrid) -> List[Tuple[Tuple, Tuple]]:
    """Deterministic, value-keyed block partition for the result store.

    Same ``(placement, task)`` contract as :func:`shard_plan` — blocks
    evaluate through :func:`evaluate_shard_task`/
    :func:`~repro.core.emulator.emulate_batch` and reassemble through
    :func:`assemble_shard_blocks` — but the cut is chosen for *reuse*
    rather than load balancing: one block per (app, scheme, scale,
    pixel count) carrying the full architecture sub-grid
    (clock x SRAM x engines x batches).  Because the cut depends only
    on axis *values* (never on the grid's extent), any later grid that
    extends the workload axes or adds scale/pixel values re-derives the
    identical blocks for the overlap and hits their persisted entries;
    only the genuinely new hypercube slices evaluate.  ``grid`` must be
    resolved.  On extended grids each task also carries the full
    encoding sub-grid as three extra value windows.
    """
    arch_axes = tuple(
        getattr(grid, name) for name in grid.axis_fields[4:]
    )
    full_windows = tuple((0, len(axis)) for axis in arch_axes)
    tasks = []
    for i, app in enumerate(grid.apps):
        for j, scheme in enumerate(grid.schemes):
            for k, scale in enumerate(grid.scale_factors):
                for l, n_pixels in enumerate(grid.pixel_counts):
                    placement = (
                        i, j,
                        ((k, k + 1), (l, l + 1)) + full_windows,
                    )
                    task = (app, scheme, (scale,), (n_pixels,)) + arch_axes
                    tasks.append((placement, task))
    return tasks


def _resolve_engine(engine: str, grid: SweepGrid) -> str:
    """Map "auto" onto a concrete engine: "vectorized" at every size
    (no other engine is faster on one host at any grid size)."""
    return "vectorized" if engine == "auto" else engine


def _scalar_result(
    app: str,
    scheme: str,
    scale: int,
    n_pixels: int,
    ngpc: Optional[NGPCConfig],
    clock_ghz: float,
    grid_sram_kb: int,
    n_engines: int,
    n_batches: int,
    encoding: EncodingVariant = EncodingVariant(),
) -> EmulationResult:
    """One scalar emulation of a fully specified grid point, memoized."""
    base = ngpc or NGPCConfig()
    nfp = replace(
        base.nfp,
        clock_ghz=clock_ghz,
        grid_sram_kb_per_engine=grid_sram_kb,
        n_encoding_engines=n_engines,
    )
    config = NGPCConfig(
        scale_factor=scale,
        nfp=nfp,
        n_pipeline_batches=n_batches,
        l2_spill_penalty=base.l2_spill_penalty,
    )
    return emulate_with_config(app, scheme, config, n_pixels, encoding)


def _arrays_scalar(grid: SweepGrid, ngpc: Optional[NGPCConfig]) -> Dict[str, np.ndarray]:
    shape = grid.shape
    out = {name: np.empty(shape) for name in _TIMING_FIELDS}
    out["amdahl_bound"] = np.empty(shape[:2])
    config_fields = grid.axis_fields[2:]
    config_axes = [getattr(grid, name) for name in config_fields]
    for i, app in enumerate(grid.apps):
        for j, scheme in enumerate(grid.schemes):
            for idx in np.ndindex(*shape[2:]):
                named = {
                    name: axis[pos]
                    for name, axis, pos in zip(config_fields, config_axes, idx)
                }
                encoding = EncodingVariant(
                    gridtype=named.get("gridtypes", GRIDTYPE_AUTO),
                    log2_hashmap_size=named.get(
                        "log2_hashmap_sizes", LOG2_HASHMAP_INHERIT
                    ),
                    per_level_scale=named.get(
                        "per_level_scales", PER_LEVEL_SCALE_INHERIT
                    ),
                )
                r = _scalar_result(
                    app, scheme, named["scale_factors"],
                    named["pixel_counts"], ngpc, named["clocks_ghz"],
                    named["grid_sram_kb"], named["n_engines"],
                    named["n_batches"], encoding,
                )
                full = (i, j) + idx
                for name in _TIMING_FIELDS:
                    out[name][full] = getattr(r, name)
                out["amdahl_bound"][i, j] = r.amdahl_bound
    return out


# -- block tasks -------------------------------------------------------------

#: the base NGPC config installed by :func:`install_worker_state`; the
#: calibration constants are installed directly into
#: :mod:`repro.calibration.fitted`
_WORKER_STATE: Dict[str, Optional[NGPCConfig]] = {"ngpc": None}


def task_batch_kwargs(task: Tuple) -> Dict[str, Tuple]:
    """Map a task tuple's trailing axes onto ``emulate_batch`` keywords.

    The shared task-unpacking helper of every evaluation site (plan
    evaluator, store, cluster workers, explorer): ``task[4:]`` pairs up with
    :data:`repro.core.axes.TASK_BATCH_KWARGS` in order, so 8-field
    (seed) and 11-field (extended) tasks route through one code path.
    """
    return dict(zip(TASK_BATCH_KWARGS, task[4:]))


def shard_plan(grid: SweepGrid, n_blocks: int) -> List[Tuple[Tuple, Tuple]]:
    """Shard the grid into ~``n_blocks`` contiguous vectorized blocks.

    Every (app, scheme) pair's configuration hypercube is cut into
    contiguous windows — the longest axis first, further axes only when
    one axis cannot yield enough chunks — auto-tuned so blocks hold
    ~``grid.size / n_blocks`` points: small enough to load-balance a
    worker pool, large enough to amortize NumPy dispatch and transport.
    Each entry is ``(placement, task)``: the placement is
    (app index, scheme index, windows) with one (lo, hi) window per
    configuration axis, the task the arguments consumed by
    :func:`evaluate_shard_task` — plain tuples of strings and numbers,
    picklable and JSON-safe, so a task can cross process *and* host
    boundaries unchanged.  This is the shared work-unit contract of the
    in-process plan evaluator (:func:`evaluate_plan`) and the multi-host
    shard cluster (:mod:`repro.service.cluster`);
    :func:`assemble_shard_blocks` is its inverse, scattering evaluated
    blocks back into dense grid arrays.
    """
    axes = tuple(getattr(grid, name) for name in grid.axis_fields[2:])
    lengths = [len(axis) for axis in axes]
    per_pair = int(np.prod(lengths))
    block_points = max(1, grid.size // max(1, n_blocks))
    n_chunks = max(1, -(-per_pair // block_points))  # ceil division
    # greedy split, longest axes first, until the windows multiply out
    # to >= n_chunks (or every axis is fully split)
    parts = [1] * len(axes)
    for axis in sorted(range(len(axes)), key=lambda a: -lengths[a]):
        if n_chunks <= 1:
            break
        parts[axis] = min(n_chunks, lengths[axis])
        n_chunks = -(-n_chunks // parts[axis])
    windows_per_axis = [
        [
            (int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if lo != hi
        ]
        for bounds in (
            np.linspace(0, length, n + 1).astype(int)
            for length, n in zip(lengths, parts)
        )
    ]
    tasks = []
    for i, app in enumerate(grid.apps):
        for j, scheme in enumerate(grid.schemes):
            for windows in itertools.product(*windows_per_axis):
                sub = tuple(
                    axis[lo:hi] for axis, (lo, hi) in zip(axes, windows)
                )
                tasks.append(((i, j, windows), (app, scheme) + sub))
    return tasks


#: streamed sweeps cut up to this many windows per (app, scheme) pair,
#: but never blocks smaller than this many points (tiny grids would
#: otherwise drown in per-block dispatch overhead)
_STREAM_WINDOWS = 32
_STREAM_MIN_BLOCK = 256


def window_major(plan: List[Tuple[Tuple, Tuple]]) -> List[Tuple[Tuple, Tuple]]:
    """``plan`` reordered window-major: each configuration window across
    every (app, scheme) pair before the next window, so the first fully
    covered windows — and the first exact partial Pareto points — land
    as early as possible."""
    return sorted(
        plan, key=lambda entry: (entry[0][2], entry[0][0], entry[0][1])
    )


def stream_plan(grid: SweepGrid) -> List[Tuple[Tuple, Tuple]]:
    """The window-major :func:`shard_plan` of a streamed local sweep."""
    n_pairs = max(1, len(grid.apps) * len(grid.schemes))
    windows = max(
        1, min(_STREAM_WINDOWS, grid.size // (_STREAM_MIN_BLOCK * n_pairs))
    )
    return window_major(shard_plan(grid, windows * n_pairs))


def shard_task_shape(placement: Tuple) -> Tuple[int, ...]:
    """The timing-array shape a shard task's evaluated block must have."""
    _, _, windows = placement
    return tuple(int(hi) - int(lo) for lo, hi in windows)


def evaluate_shard_task(task: Tuple) -> Dict[str, np.ndarray]:
    """Evaluate one :func:`shard_plan` task with the installed worker state.

    Shard-cluster workers evaluate leased blocks through this after
    installing calibration via :func:`install_worker_state`.
    """
    app, scheme, scales, pixels = task[:4]
    block = emulate_batch(
        app, scheme, scales, pixels, _WORKER_STATE["ngpc"],
        **task_batch_kwargs(task),
    )
    out = {name: block[name] for name in _TIMING_FIELDS}
    out["amdahl_bound"] = block["amdahl_bound"]
    return out


def install_worker_state(
    calibration: Tuple, ngpc: Optional[NGPCConfig],
    schemes: Tuple[str, ...] = (),
) -> None:
    """Install calibration constants + base config into this process.

    Shard-cluster workers call it once per calibration generation so
    their blocks agree bit-for-bit with the coordinator's.
    ``calibration`` is a :func:`calibration_fingerprint` tuple, so a
    worker agrees with a perturbed coordinator even under the spawn
    start method; the calibration caches of ``schemes`` are pre-warmed
    so the first block does not pay the lane/parallelism solve.
    """
    from repro.calibration import fitted
    from repro.core.encoding_engine import _calibrated_lanes
    from repro.core.mlp_engine import _calibrated_parallelism

    overheads, fractions, samples, exponent = calibration
    fitted.BATCH_OVERHEAD_MS_FHD_AT64.clear()
    fitted.BATCH_OVERHEAD_MS_FHD_AT64.update(dict(overheads))
    fitted.KERNEL_FRACTIONS.clear()
    fitted.KERNEL_FRACTIONS.update(dict(fractions))
    fitted.SAMPLES_PER_PIXEL.clear()
    fitted.SAMPLES_PER_PIXEL.update(dict(samples))
    fitted.BATCH_OVERHEAD_SCALE_EXPONENT = exponent
    _WORKER_STATE["ngpc"] = ngpc
    for scheme in schemes:
        _calibrated_lanes(scheme)
        _calibrated_parallelism(scheme)


def _empty_result_arrays(grid: SweepGrid) -> Dict[str, np.ndarray]:
    """One uninitialized set of timing factors + Amdahl array for ``grid``."""
    shapes = result_array_shapes(grid)
    return {name: np.empty(shapes[name]) for name in BLOCK_ARRAY_FIELDS}


def _expanded(grid: SweepGrid, arrays: Dict) -> Dict[str, np.ndarray]:
    """``arrays`` with every timing factor as a grid-shaped broadcast view."""
    shape = grid.shape
    return dict(arrays, **{
        name: np.broadcast_to(arrays[name], shape) for name in _TIMING_FIELDS
    })


def _scatter_block(grid, arrays, placement, block, names) -> None:
    """Write fields ``names`` of one placed block into the grid's factors:
    the block's window on the axes a field varies along, cell 0 elsewhere
    (where a dense block collapses onto the factor)."""
    i, j, windows = placement
    fields = grid.axis_fields[2:]
    for name in names:
        cuts = factor_index(name, fields)
        dest = (i, j) + tuple(
            slice(lo, hi) if cut.stop is None else cut
            for cut, (lo, hi) in zip(cuts, windows)
        )
        arrays[name][dest] = block[name][cuts]
    arrays["amdahl_bound"][i, j] = block["amdahl_bound"]


#: the timing fields held as small factors
_FACTORED_FIELDS = tuple(n for n in _TIMING_FIELDS if n != "accelerated_ms")


def evaluate_plan(
    grid: SweepGrid,
    plan,
    ngpc: Optional[NGPCConfig] = None,
    on_block=None,
) -> Dict[str, np.ndarray]:
    """Evaluate every ``(placement, task)`` of ``plan`` in place.

    The one in-process block evaluator: the grid's one dense array,
    ``accelerated_ms``, is allocated once and each task's
    :func:`~repro.core.emulator.emulate_batch` call computes straight
    into the window its placement covers; each block writes the small
    windows of the other fields' factors.  Those fields are returned as
    grid-shaped broadcast views.  ``on_block(placement, views)``, when
    given, is called after each block with its views (the timing fields
    plus the scalar ``amdahl_bound``).  ``plan`` must tile ``grid``
    exactly, as every :func:`shard_plan` does.
    """
    arrays = _empty_result_arrays(grid)
    for placement, task in plan:
        app, scheme, scales, pixels = task[:4]
        i, j, windows = placement
        dest = (i, j) + tuple(slice(lo, hi) for lo, hi in windows)
        views = emulate_batch(
            app, scheme, scales, pixels, ngpc,
            out=arrays["accelerated_ms"][dest], **task_batch_kwargs(task),
        )
        _scatter_block(grid, arrays, placement, views, _FACTORED_FIELDS)
        if on_block is not None:
            on_block(placement, views)
    return _expanded(grid, arrays)


def assemble_shard_blocks(
    grid: SweepGrid, placed_blocks
) -> Dict[str, np.ndarray]:
    """Scatter evaluated shard blocks back into the grid's arrays.

    ``placed_blocks`` yields ``(placement, block)`` pairs — the
    placement from :func:`shard_plan`, the block from
    :func:`evaluate_shard_task`, dense or factored.  Every grid point
    must be covered by exactly one block (guaranteed when the placements
    come from one plan over the same grid).  Returns
    :func:`evaluate_plan`'s layout.  For blocks that arrive whole (over
    the wire, or from the store); in-process evaluation writes in place
    through :func:`evaluate_plan` instead.
    """
    arrays = _empty_result_arrays(grid)
    for placement, block in placed_blocks:
        _scatter_block(grid, arrays, placement, block, _TIMING_FIELDS)
    return _expanded(grid, arrays)


def finalize_sweep_result(
    grid: SweepGrid,
    engine: str,
    ngpc: Optional[NGPCConfig],
    arrays: Dict[str, np.ndarray],
) -> SweepResult:
    """Attach the cost arrays and freeze a complete :class:`SweepResult`.

    The one place the area/power arrays are computed and the result
    arrays are made read-only — shared by :func:`sweep_grid` and the
    shard-cluster coordinator so a distributed evaluation finishes
    through the identical code path as a local one.
    """
    cost = ngpc_area_power_batch(
        np.asarray(grid.scale_factors),
        ngpc.nfp if ngpc else None,
        clocks_ghz=grid.clocks_ghz,
        grid_sram_kb=grid.grid_sram_kb,
        n_engines=grid.n_engines,
    )
    arrays = dict(arrays)
    arrays.update(
        area_mm2_7nm=cost["area_mm2_7nm"],
        power_w_7nm=cost["power_w_7nm"],
        area_overhead_pct=cost["area_overhead_pct"],
        power_overhead_pct=cost["power_overhead_pct"],
    )
    for array in arrays.values():
        # the result object is shared on cache hits: freeze the arrays so
        # one consumer's mutation cannot poison every later cached query
        array.setflags(write=False)
    return SweepResult(grid=grid, engine=engine, **arrays)


def sweep_grid(
    grid: Optional[SweepGrid] = None,
    engine: str = "vectorized",
    ngpc: Optional[NGPCConfig] = None,
    use_cache: bool = True,
) -> SweepResult:
    """Evaluate the full cartesian ``grid`` in one call.

    ``engine`` selects "vectorized" (NumPy broadcasting, default: one
    :func:`~repro.core.emulator.emulate_batch` block per (app, scheme)
    pair, written in place into the result arrays by
    :func:`evaluate_plan`), "scalar" (memoized per-point loop) or "auto"
    (an alias of "vectorized").  Results are memoized on (grid, engine,
    ngpc, calibration fingerprint) for grids up to
    :data:`_SWEEP_CACHE_MAX_POINTS` points; pass ``use_cache=False`` to
    force a fresh evaluation.
    """
    grid = (grid or SweepGrid()).resolve(ngpc)
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {_ENGINES}")
    engine = _resolve_engine(engine, grid)
    cacheable = use_cache and grid.size <= _SWEEP_CACHE_MAX_POINTS
    # the literal grid keeps the memo axis-order-sensitive (callers index
    # the returned arrays in *their* axis order); the shared fingerprint
    # carries the config + calibration invalidation
    key = (grid, engine, sweep_fingerprint(grid, ngpc))
    if cacheable:
        cached = _SWEEP_CACHE.get(key)
        if cached is not None:
            return cached
    if engine == "vectorized":
        # shard_plan(grid, 1): one whole-hypercube block per (app, scheme)
        arrays = evaluate_plan(grid, shard_plan(grid, 1), ngpc)
    else:
        arrays = _arrays_scalar(grid, ngpc)
    result = finalize_sweep_result(grid, engine, ngpc, arrays)
    if cacheable:
        _SWEEP_CACHE.put(key, result)
    return result


# ---------------------------------------------------------------------------
# adaptive refinement planner (consumed by repro.explore)
# ---------------------------------------------------------------------------

# REFINE_AXIS_FIELDS — the candidate axes of a Pareto/cheapest query, in
# array order: the axes adaptive refinement windows and splits (the
# batch axis is always carried whole: cost is batch-independent, so a
# batch column is one value-keyed unit of work; encoding axes are
# sliced, never refined) — is declared in the registry and re-exported
# here for the explorer.


def refinement_lattice(length: int, segments: int) -> Tuple[int, ...]:
    """~``segments + 1`` evenly spaced boundary indices over one axis.

    Always includes both endpoints (0 and ``length - 1``), so every
    :func:`refinement_plan` block has all its corners on the lattice.
    """
    if length <= 0:
        raise ValueError("axis length must be positive")
    if segments < 1:
        raise ValueError("segments must be >= 1")
    bounds = np.linspace(0, length - 1, min(segments, length - 1) + 1)
    return tuple(sorted({int(round(b)) for b in bounds}))


def refinement_plan(
    grid: SweepGrid, segments: int = 3
) -> Tuple[Tuple[Tuple[int, ...], ...], List[Tuple[Tuple[int, int], ...]]]:
    """The coarse subsample + initial block partition of adaptive search.

    Returns ``(lattice, blocks)`` over the four refinement axes
    (:data:`REFINE_AXIS_FIELDS`, in array order):

    - ``lattice`` — per-axis boundary index tuples; their cross product
      is the coarse subsample a first round evaluates (one
      :func:`selection_task` per app).
    - ``blocks`` — per-axis ``(lo, hi)`` half-open index windows between
      consecutive boundaries, *inclusive of both* (adjacent blocks share
      their boundary cells), so every block's corner cells — the cells
      its dominance bounds read — are already evaluated by the lattice.

    ``grid`` must be resolved.  Singleton axes yield the trivial lattice
    ``(0,)`` and window ``(0, 1)``.
    """
    lattice = []
    per_axis_windows = []
    for name in REFINE_AXIS_FIELDS:
        length = len(getattr(grid, name))
        bounds = refinement_lattice(length, segments)
        lattice.append(bounds)
        if length == 1:
            per_axis_windows.append([(0, 1)])
        else:
            per_axis_windows.append(
                [(lo, hi + 1) for lo, hi in zip(bounds[:-1], bounds[1:])]
            )
    blocks = [tuple(w) for w in itertools.product(*per_axis_windows)]
    return tuple(lattice), blocks


def selection_task(
    grid: SweepGrid,
    app: str,
    scheme: str,
    n_pixels: int,
    selection: Tuple[Tuple[int, ...], ...],
    encoding: Optional[Tuple[int, int, int]] = None,
) -> Tuple:
    """Build an :func:`evaluate_shard_task` work unit from axis indices.

    ``selection`` holds one sorted index tuple per refinement axis
    (scale, clock, SRAM, engines), plus an optional fifth tuple of batch
    indices (the full batch axis when omitted); the task spans their
    cross product — value-keyed exactly like :func:`shard_plan` tasks,
    so :func:`block_fingerprint` / the persistent store dedup it across
    rounds, sessions and processes.  On extended grids, ``encoding``
    names the (gridtype, log2_hashmap_size, per_level_scale) index
    triple the task is pinned to — the explorer treats the encoding
    axes as slices, one task per encoding point.  ``grid`` must be
    resolved.
    """
    ks, cs, gs, es = selection[:4]
    if len(selection) > 4:
        batches = tuple(grid.n_batches[b] for b in selection[4])
    else:
        batches = grid.n_batches
    task = (
        app,
        scheme,
        tuple(grid.scale_factors[k] for k in ks),
        (n_pixels,),
        tuple(grid.clocks_ghz[c] for c in cs),
        tuple(grid.grid_sram_kb[g] for g in gs),
        tuple(grid.n_engines[e] for e in es),
        batches,
    )
    if grid.is_extended:
        t, h, r = encoding if encoding is not None else (0, 0, 0)
        task += (
            (grid.gridtypes[t],),
            (grid.log2_hashmap_sizes[h],),
            (grid.per_level_scales[r],),
        )
    return task


def dominance_prune(
    point_costs, point_values, block_min_costs, block_value_ubs
) -> np.ndarray:
    """Which blocks may still hold a frontier point (True = keep).

    ``point_costs``/``point_values`` are the evaluated points so far;
    each block contributes its exact minimum cost and an upper bound on
    the value of any cell inside it.  A block is pruned only when some
    already-evaluated point has cost <= the block's minimum cost and
    value **strictly** above the block's bound: every cell of such a
    block is strictly dominated, so it can appear on no exhaustive
    front — and, because the inequality is strict, it can also not be an
    exact (cost, value) duplicate of a frontier point, keeping the
    lowest-flat-index tie-break of :func:`pareto_front` intact.
    """
    point_costs = np.asarray(point_costs, dtype=np.float64)
    point_values = np.asarray(point_values, dtype=np.float64)
    block_min_costs = np.asarray(block_min_costs, dtype=np.float64)
    block_value_ubs = np.asarray(block_value_ubs, dtype=np.float64)
    if point_costs.size == 0:
        return np.ones(block_min_costs.shape, dtype=bool)
    order = np.argsort(point_costs, kind="stable")
    sorted_costs = point_costs[order]
    best_below = np.maximum.accumulate(point_values[order])
    pos = np.searchsorted(sorted_costs, block_min_costs, side="right")
    best_at = np.where(pos > 0, best_below[np.maximum(pos - 1, 0)], -np.inf)
    return best_at <= block_value_ubs


def train_steps_per_s_batch(
    grid: SweepGrid,
    accelerated_ms: np.ndarray,
    batch_size: Optional[int] = None,
) -> np.ndarray:
    """Derived training-throughput metric over a sweep's timing array.

    :func:`repro.core.query.train_rate` applied per (app, scheme, pixel
    count) slice.  Computed on demand (never persisted): the derived
    metric can evolve without invalidating any store or payload, and
    costs one broadcast over an array the sweep already holds.
    """
    accelerated_ms = np.asarray(accelerated_ms, dtype=np.float64)
    out = np.empty(accelerated_ms.shape)
    for i, app in enumerate(grid.apps):
        for j, scheme in enumerate(grid.schemes):
            for l, n_pixels in enumerate(grid.pixel_counts):
                rate = query.train_rate(app, scheme, n_pixels, batch_size)
                out[i, j, :, l] = rate(accelerated_ms[i, j, :, l])
    return out


def efficiency_sweet_spot(points: List[DesignPoint]) -> DesignPoint:
    """The configuration with the best speedup-per-area ratio."""
    if not points:
        raise ValueError("no design points given")
    return max(points, key=lambda p: p.speedup_per_area_pct)

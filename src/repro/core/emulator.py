"""The evaluation emulator (Fig. 11).

Inputs: the application parameters (Table I), the architecture parameters
(:class:`NGPCConfig`), the GPU kernel-level baseline, and the frame
resolution.  Outputs: the end-to-end accelerated frame time, the speedup
over the GPU baseline, and the per-stage decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro.apps.params import APP_NAMES, ENCODING_SCHEMES, get_config
from repro.core.amdahl import amdahl_bound
from repro.core.axes import (
    DEFAULT_ENCODING,
    GRIDTYPE_AUTO,
    LOG2_HASHMAP_INHERIT,
    PER_LEVEL_SCALE_INHERIT,
    EncodingVariant,
    axis as axis_spec,
)
from repro.core.cache import ModelCache, calibration_fingerprint
from repro.core.config import NGPCConfig
from repro.core.encoding_engine import (
    encoding_engine_time_ms,
    encoding_engine_time_ms_batch,
)
from repro.core.fusion import fused_rest_time_ms
from repro.core.mlp_engine import mlp_engine_time_ms, mlp_engine_time_ms_batch
from repro.core.ngpc import (
    NGPC,
    PipelineSchedule,
    dma_overhead_ms_batch,
    pipeline_total_ms_batch,
)
from repro.gpu.baseline import FHD_PIXELS, baseline_kernel_times_ms


#: the per-point timing fields of :func:`emulate_batch` (and of every
#: dense sweep array), in result order
TIMING_FIELDS = (
    "baseline_ms",
    "accelerated_ms",
    "encoding_engine_ms",
    "mlp_engine_ms",
    "dma_ms",
    "fused_rest_ms",
)


@dataclass(frozen=True)
class EmulationResult:
    """One emulator run: baseline vs NGPC-accelerated frame."""

    app: str
    scheme: str
    scale_factor: int
    n_pixels: int
    baseline_ms: float
    accelerated_ms: float
    encoding_engine_ms: float
    mlp_engine_ms: float
    dma_ms: float
    fused_rest_ms: float
    amdahl_bound: float

    @property
    def speedup(self) -> float:
        return self.baseline_ms / self.accelerated_ms

    @property
    def fps(self) -> float:
        return 1000.0 / self.accelerated_ms

    def respects_amdahl(self) -> bool:
        """The Section VI sanity check: speedup under the Amdahl line."""
        return self.speedup <= self.amdahl_bound * (1.0 + 1e-9)


class Emulator:
    """End-to-end emulator over all apps, schemes and scaling factors."""

    def __init__(self, ngpc_config: Optional[NGPCConfig] = None):
        self.ngpc = NGPC(ngpc_config)

    def run(
        self,
        app: str,
        scheme: str,
        n_pixels: int = FHD_PIXELS,
        fuse_engines: bool = True,
        fuse_rest: bool = True,
        overlap: bool = True,
        encoding: EncodingVariant = DEFAULT_ENCODING,
    ) -> EmulationResult:
        if app not in APP_NAMES:
            raise ValueError(f"unknown app {app!r}")
        if scheme not in ENCODING_SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        config = get_config(app, scheme)
        baseline = baseline_kernel_times_ms(app, scheme, n_pixels)
        schedule: PipelineSchedule = self.ngpc.schedule(
            config,
            n_pixels,
            fuse_engines=fuse_engines,
            fuse_rest=fuse_rest,
            overlap=overlap,
            encoding=encoding,
        )
        enc = encoding_engine_time_ms(config, n_pixels, self.ngpc.config, encoding)
        mlp = mlp_engine_time_ms(config, n_pixels, self.ngpc.config)
        dma = self.ngpc.dma_overhead_ms(app, n_pixels)
        return EmulationResult(
            app=app,
            scheme=scheme,
            scale_factor=self.ngpc.scale_factor,
            n_pixels=n_pixels,
            baseline_ms=baseline["total"],
            accelerated_ms=schedule.total_ms,
            encoding_engine_ms=enc,
            mlp_engine_ms=mlp,
            dma_ms=dma,
            fused_rest_ms=schedule.rest_time_ms,
            amdahl_bound=amdahl_bound(app, scheme),
        )


#: memoization layer of the DSE engine: dense sweeps revisit the same
#: (app, scheme, config, pixels) points thousands of times.  Bounded so
#: long-lived sessions sweeping perturbed calibrations (each a distinct
#: fingerprint) cannot grow the cache without limit.
_EMULATE_CACHE = ModelCache("emulate", maxsize=65536)


def emulate_with_config(
    app: str,
    scheme: str,
    config: NGPCConfig,
    n_pixels: int = FHD_PIXELS,
    encoding: EncodingVariant = DEFAULT_ENCODING,
) -> EmulationResult:
    """One emulator run for an arbitrary :class:`NGPCConfig`, memoized.

    The cache key is the full architecture configuration — scale factor,
    NFP geometry (clock, SRAM sizes, engine count), pipeline batch
    count and encoding-axis variant — plus a fingerprint of the mutable
    calibration constants, so architecture-axis sweeps and the
    perturbation contexts of :mod:`repro.analysis.sensitivity` each see
    exactly their own results.  Cache hits return the identical (frozen)
    result object.
    """
    key = (app, scheme, config, n_pixels, encoding, calibration_fingerprint())
    cached = _EMULATE_CACHE.get(key)
    if cached is not None:
        return cached
    result = Emulator(config).run(app, scheme, n_pixels, encoding=encoding)
    _EMULATE_CACHE.put(key, result)
    return result


def emulate(
    app: str,
    scheme: str,
    scale_factor: int = 8,
    n_pixels: int = FHD_PIXELS,
) -> EmulationResult:
    """Convenience wrapper: one emulator run, memoized.

    Results are cached on ``(app, scheme, NGPCConfig, n_pixels)`` plus a
    fingerprint of the mutable calibration constants, so the perturbation
    contexts of :mod:`repro.analysis.sensitivity` always see fresh
    values.  Cache hits return the identical (frozen) result object.
    """
    return emulate_with_config(
        app, scheme, NGPCConfig(scale_factor=scale_factor), n_pixels
    )


def emulate_uncached(
    app: str,
    scheme: str,
    scale_factor: int = 8,
    n_pixels: int = FHD_PIXELS,
) -> EmulationResult:
    """One emulator run bypassing the memoization layer (benchmarks)."""
    return Emulator(NGPCConfig(scale_factor=scale_factor)).run(app, scheme, n_pixels)


def emulate_batch(
    app: str,
    scheme: str,
    scale_factors=(8, 16, 32, 64),
    n_pixels=FHD_PIXELS,
    ngpc: Optional[NGPCConfig] = None,
    fuse_rest: bool = True,
    overlap: bool = True,
    clocks_ghz=None,
    grid_sram_kb=None,
    n_engines=None,
    n_batches=None,
    gridtypes=None,
    log2_hashmap_sizes=None,
    per_level_scales=None,
    out: Optional[Dict[str, np.ndarray]] = None,
) -> Dict[str, np.ndarray]:
    """Vectorized emulator: every :class:`EmulationResult` field as an array.

    Evaluates one (app, scheme) pair over the full cartesian product of
    the design axes in one shot via the NumPy fast paths of the engine
    models, instead of one scalar :func:`emulate` call per point.  With
    only ``scale_factors`` (length S) and ``n_pixels`` (length P) given,
    each returned array has shape (S, P).  Passing any of the
    architecture axes — ``clocks_ghz`` (C, NFP clock), ``grid_sram_kb``
    (G, per-engine grid SRAM in KB), ``n_engines`` (E, encoding engines
    per NFP) or ``n_batches`` (B, pipeline batches) — switches to the
    N-dimensional fast path and every array has the full hypercube shape
    (S, P, C, G, E, B), with axes not supplied taken (length 1) from
    ``ngpc``.  Passing any of the registry's encoding axes —
    ``gridtypes`` (T), ``log2_hashmap_sizes`` (H), ``per_level_scales``
    (R) — appends their dimensions for the extended hypercube
    (S, P, C, G, E, B, T, H, R); axes not supplied hold the one-value
    inherit sentinels ("use the app's Table I parameters").
    ``amdahl_bound`` is a scalar in every mode.  The batched arithmetic
    mirrors the scalar path operation for operation, so the two agree
    bit for bit (the equivalence harness in
    ``tests/test_sweep_engine.py`` enforces this).

    ``ngpc`` supplies the remaining architecture parameters (MAC
    geometry, spill penalty, defaults for unswept axes); its own
    ``scale_factor`` is ignored in favour of the ``scale_factors`` axis.

    ``out`` maps every timing field (``baseline_ms``, ``accelerated_ms``,
    ``encoding_engine_ms``, ``mlp_engine_ms``, ``dma_ms``,
    ``fused_rest_ms``) to a caller-owned destination array of the
    result shape — typically a slice of a whole grid's preallocated
    result arrays.  Each field is then written straight into its view
    (the pipeline total computed into its slot), no block-sized copy is
    made, and the returned dict holds the ``out`` views plus the scalar
    ``amdahl_bound``; ``speedup`` is only built without ``out``.
    """
    if app not in APP_NAMES:
        raise ValueError(f"unknown app {app!r}")
    if scheme not in ENCODING_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    base = ngpc or NGPCConfig()
    scales = tuple(int(s) for s in np.asarray(scale_factors).reshape(-1))
    for scale in scales:
        # reuse the scalar path's validation (power of two, >= 1)
        NGPCConfig(
            scale_factor=scale,
            nfp=base.nfp,
            n_pipeline_batches=base.n_pipeline_batches,
            l2_spill_penalty=base.l2_spill_penalty,
        )
    pixels = np.asarray(n_pixels).reshape(-1)
    config = get_config(app, scheme)
    extension = not (
        gridtypes is None
        and log2_hashmap_sizes is None
        and per_level_scales is None
    )
    architectural = extension or not (
        clocks_ghz is None
        and grid_sram_kb is None
        and n_engines is None
        and n_batches is None
    )

    baseline = baseline_kernel_times_ms(app, scheme, pixels)  # (P,) arrays
    # -- N-dimensional architecture hypercube ------------------------------
    # (the classic (S, P) call is the same computation with singleton
    # architecture axes, squeezed at the end)
    clocks = tuple(
        float(c)
        for c in np.asarray(
            clocks_ghz if clocks_ghz is not None else (base.nfp.clock_ghz,)
        ).reshape(-1)
    )
    srams = tuple(
        int(g)
        for g in np.asarray(
            grid_sram_kb
            if grid_sram_kb is not None
            else (base.nfp.grid_sram_kb_per_engine,)
        ).reshape(-1)
    )
    engines = tuple(
        int(e)
        for e in np.asarray(
            n_engines if n_engines is not None else (base.nfp.n_encoding_engines,)
        ).reshape(-1)
    )
    if not overlap:
        if n_batches is not None:
            raise ValueError(
                "overlap=False (one batch, no pipelining) conflicts with "
                "an explicit n_batches axis"
            )
        batches = (1,)
    else:
        batches = tuple(
            int(b)
            for b in np.asarray(
                n_batches if n_batches is not None else (base.n_pipeline_batches,)
            ).reshape(-1)
        )
    # reuse the scalar path's validation, one axis value at a time
    for clock in clocks:
        replace(base.nfp, clock_ghz=clock)
    for kb in srams:
        replace(base.nfp, grid_sram_kb_per_engine=kb)
    for n_eng in engines:
        replace(base.nfp, n_encoding_engines=n_eng)
    for n_b in batches:
        replace(base, n_pipeline_batches=n_b)
    # the encoding axes, validated through their registry specs
    gts = tuple(
        str(t)
        for t in np.asarray(
            gridtypes if gridtypes is not None else (GRIDTYPE_AUTO,)
        ).reshape(-1)
    )
    log2_ts = tuple(
        int(h)
        for h in np.asarray(
            log2_hashmap_sizes
            if log2_hashmap_sizes is not None
            else (LOG2_HASHMAP_INHERIT,)
        ).reshape(-1)
    )
    plscales = tuple(
        float(r)
        for r in np.asarray(
            per_level_scales
            if per_level_scales is not None
            else (PER_LEVEL_SCALE_INHERIT,)
        ).reshape(-1)
    )
    for name, values in (
        ("gridtypes", gts),
        ("log2_hashmap_sizes", log2_ts),
        ("per_level_scales", plscales),
    ):
        for value in values:
            axis_spec(name).validate(value)

    enc = encoding_engine_time_ms_batch(
        config, pixels, scales, base,
        clocks_ghz=clocks, grid_sram_kb=srams, n_engines=engines,
        gridtypes=gts if extension else None,
        log2_hashmap_sizes=log2_ts if extension else None,
        per_level_scales=plscales if extension else None,
    )  # (S, P, C, G, E) or (S, P, C, G, E, T, H, R)
    mlp = mlp_engine_time_ms_batch(
        config, pixels, scales, base, clocks_ghz=clocks
    )  # (S, P, C, 1, 1)
    dma = dma_overhead_ms_batch(app, pixels, scales)  # (S, P)
    nd = 8 if extension else 5  # hypercube rank before the batch axis
    mlp = mlp.reshape(mlp.shape + (1,) * (nd - mlp.ndim))
    dma = dma.reshape(dma.shape + (1,) * (nd - dma.ndim))
    ngpc_time = enc + mlp + dma
    if fuse_rest:
        rest = np.asarray(fused_rest_time_ms(app, scheme, pixels))
    else:
        rest = np.asarray(baseline["rest"])
    # the batch axis broadcasts in at position 5 (after the arch axes,
    # before any encoding axes) — elementwise, so its position cannot
    # perturb the arithmetic
    rest_nd = np.expand_dims(rest.reshape((1, -1) + (1,) * (nd - 2)), 5)
    batches_nd = np.asarray(batches, dtype=np.int64).reshape(
        (1, 1, 1, 1, 1, -1) + (1,) * (nd - 5)
    )
    shape = (
        len(scales), len(pixels), len(clocks), len(srams), len(engines),
        len(batches),
    )
    if extension:
        shape = shape + (len(gts), len(log2_ts), len(plscales))
    # every field but the pipeline total is a broadcast of a smaller array
    sources = {
        "baseline_ms": np.asarray(baseline["total"]).reshape(
            (1, -1) + (1,) * (len(shape) - 2)
        ),
        "encoding_engine_ms": np.expand_dims(enc, 5),
        "mlp_engine_ms": np.expand_dims(mlp, 5),
        "dma_ms": np.expand_dims(dma, 5),
        "fused_rest_ms": rest_nd,
    }
    # the classic call returns the (S, P) plane
    target = shape if architectural else shape[:2]
    fresh = out is None
    if fresh:
        out = {name: np.empty(target) for name in TIMING_FIELDS}
    else:
        for name in TIMING_FIELDS:
            if name not in out or out[name].shape != target:
                raise ValueError(
                    f"out[{name!r}] must be an array of shape {target}"
                )

    def hypercube(view):  # (S, P) -> (S, P, 1, 1, 1, 1), always a view
        return view[(Ellipsis,) + (None,) * (len(shape) - view.ndim)]

    pipeline_total_ms_batch(
        np.expand_dims(ngpc_time, 5), rest_nd, batches_nd,
        out=hypercube(out["accelerated_ms"]),
    )  # (S, P, C, G, E, B[, T, H, R])
    for name, source in sources.items():
        np.copyto(hypercube(out[name]), source)
    result = {name: out[name] for name in TIMING_FIELDS}
    if fresh:
        result["speedup"] = result["baseline_ms"] / result["accelerated_ms"]
    result["amdahl_bound"] = amdahl_bound(app, scheme)
    return result


def speedup_table(scheme: str, n_pixels: int = FHD_PIXELS) -> Dict[int, Dict[str, float]]:
    """Fig. 12 data: speedup per scaling factor per app, plus the average."""
    table: Dict[int, Dict[str, float]] = {}
    for scale in (8, 16, 32, 64):
        row = {}
        for app in APP_NAMES:
            row[app] = emulate(app, scheme, scale, n_pixels).speedup
        row["average"] = sum(row.values()) / len(APP_NAMES)
        table[scale] = row
    return table


def max_pixels_within_budget(
    app: str,
    scheme: str,
    scale_factor: int,
    fps: float,
    use_ngpc: bool = True,
) -> int:
    """Largest pixel count renderable within a 1000/fps ms budget (Fig. 14).

    Frame time is linear in pixel count for both baseline and NGPC, so the
    answer follows from one FHD evaluation.
    """
    if fps <= 0:
        raise ValueError("fps must be positive")
    budget_ms = 1000.0 / fps
    if use_ngpc:
        per_frame = emulate(app, scheme, scale_factor).accelerated_ms
    else:
        per_frame = baseline_kernel_times_ms(app, scheme)["total"]
    return int(budget_ms / per_frame * FHD_PIXELS)

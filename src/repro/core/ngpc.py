"""The NGPC cluster: pipeline schedule and IO bandwidth model (Fig. 10).

Execution follows the Fig. 10-b programming model: the frame's inputs are
split into batches; while the GPU's streaming multiprocessors run the
(fused) rest kernels of batch *i*, the NGPC runs the encoding + MLP
kernels of batch *i+1*.  End-to-end frame time is therefore the classic
two-stage pipeline makespan, plus the per-batch data movement the NGPC
pays to read inputs from and write outputs to GPU memory (Table III).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.apps.params import APP_NAMES, AppConfig, get_config
from repro.calibration import fitted, paper
from repro.core.axes import DEFAULT_ENCODING, EncodingVariant
from repro.core.config import NGPCConfig
from repro.core.encoding_engine import encoding_engine_time_ms
from repro.core.fusion import DEFAULT_FUSION, FusionModel, fused_rest_time_ms
from repro.core.mlp_engine import mlp_engine_time_ms
from repro.gpu.baseline import FHD_PIXELS
from repro.gpu.device import RTX3090

# ---------------------------------------------------------------------------
# IO model (Table III).  Bytes per sample crossing the NGPC boundary:
# 12 B of fp32 coordinates per MLP stage in (NeRF's two-network pipeline
# transfers positions and directions separately), 16 B out for NeRF's
# (RGB, sigma), 12 B out otherwise.  The sample rate is the Table III
# operating point: ~5.83 samples per pixel of a 4K frame at 60 FPS.
# ---------------------------------------------------------------------------
IO_SAMPLES_PER_PIXEL = 5.826


@dataclass(frozen=True)
class BandwidthReport:
    """IO bandwidth requirement of the NGPC for one application."""

    app: str
    input_gbps: float
    output_gbps: float
    access_time_ms: float

    n_stages: int = 1

    @property
    def total_gbps(self) -> float:
        """Boundary traffic: (in + out) per network stage.

        NeRF's two-network pipeline (density then color) crosses the
        boundary twice per sample, which is why Table III's NeRF total is
        twice its in+out sum while the single-stage apps' totals equal it.
        """
        return self.n_stages * (self.input_gbps + self.output_gbps)

    @property
    def fraction_of_gpu_bandwidth(self) -> float:
        return self.total_gbps / paper.RTX3090_MEM_BW_GBPS


def bandwidth_model(
    app: str,
    n_pixels: int = paper.RESOLUTIONS["4k"],
    fps: float = 60.0,
) -> BandwidthReport:
    """NGPC IO bandwidth at an operating point (defaults: 4K @ 60 FPS)."""
    if app not in APP_NAMES:
        raise ValueError(f"unknown app {app!r}")
    if n_pixels <= 0 or fps <= 0:
        raise ValueError("n_pixels and fps must be positive")
    n_stages = 2 if app == "nerf" else 1
    in_bytes_per_sample = 12.0 * n_stages
    out_bytes_per_sample = 16.0 if app == "nerf" else 12.0
    samples_per_s = n_pixels * IO_SAMPLES_PER_PIXEL * fps
    input_gbps = samples_per_s * in_bytes_per_sample / 1e9
    output_gbps = samples_per_s * out_bytes_per_sample / 1e9
    total_bytes_per_frame = n_stages * (input_gbps + output_gbps) * 1e9 / fps
    access_time_ms = total_bytes_per_frame / RTX3090.bytes_per_second * 1e3
    return BandwidthReport(
        app=app,
        input_gbps=input_gbps,
        output_gbps=output_gbps,
        access_time_ms=access_time_ms,
        n_stages=n_stages,
    )


def bandwidth_model_batch(app: str, n_pixels, fps) -> Dict[str, np.ndarray]:
    """Vectorized :func:`bandwidth_model` over pixel counts and FPS targets.

    ``n_pixels`` and ``fps`` broadcast elementwise (reshape them yourself
    for an outer product).  Returns arrays for ``input_gbps``,
    ``output_gbps``, ``total_gbps`` and ``access_time_ms`` with the same
    arithmetic as the scalar path.
    """
    if app not in APP_NAMES:
        raise ValueError(f"unknown app {app!r}")
    pixels = np.asarray(n_pixels, dtype=np.float64)
    fps_arr = np.asarray(fps, dtype=np.float64)
    if np.any(pixels <= 0) or np.any(fps_arr <= 0):
        raise ValueError("n_pixels and fps must be positive")
    n_stages = 2 if app == "nerf" else 1
    in_bytes_per_sample = 12.0 * n_stages
    out_bytes_per_sample = 16.0 if app == "nerf" else 12.0
    samples_per_s = pixels * IO_SAMPLES_PER_PIXEL * fps_arr
    input_gbps = samples_per_s * in_bytes_per_sample / 1e9
    output_gbps = samples_per_s * out_bytes_per_sample / 1e9
    total_bytes_per_frame = n_stages * (input_gbps + output_gbps) * 1e9 / fps_arr
    access_time_ms = total_bytes_per_frame / RTX3090.bytes_per_second * 1e3
    return {
        "input_gbps": input_gbps,
        "output_gbps": output_gbps,
        "total_gbps": n_stages * (input_gbps + output_gbps),
        "access_time_ms": access_time_ms,
    }


# ---------------------------------------------------------------------------
# pipeline schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineSchedule:
    """Makespan decomposition of one frame on GPU + NGPC."""

    ngpc_time_ms: float  # total NGPC stage time (encoding + MLP + DMA)
    rest_time_ms: float  # total fused rest-kernel time on the SMs
    n_batches: int

    def __post_init__(self):
        if self.ngpc_time_ms < 0 or self.rest_time_ms < 0:
            raise ValueError("stage times must be non-negative")
        if self.n_batches < 1:
            raise ValueError("need at least one batch")

    @property
    def ngpc_batch_ms(self) -> float:
        return self.ngpc_time_ms / self.n_batches

    @property
    def rest_batch_ms(self) -> float:
        return self.rest_time_ms / self.n_batches

    @property
    def total_ms(self) -> float:
        """Two-stage pipeline makespan: fill + (B-1) bottleneck + drain."""
        bottleneck = max(self.ngpc_batch_ms, self.rest_batch_ms)
        return (
            self.ngpc_batch_ms
            + (self.n_batches - 1) * bottleneck
            + self.rest_batch_ms
        )

    @property
    def bottleneck(self) -> str:
        return "ngpc" if self.ngpc_batch_ms >= self.rest_batch_ms else "rest"


def dma_overhead_ms_batch(app: str, n_pixels, scale_factors) -> np.ndarray:
    """Vectorized :meth:`NGPC.dma_overhead_ms` over scales x pixels.

    Returns an (S, P) array.  The per-scale growth factor is computed
    with scalar Python ``**`` (one call per scale) so the result matches
    the scalar path bit for bit.
    """
    if app not in APP_NAMES:
        raise ValueError(f"unknown app {app!r}")
    pixels = np.asarray(n_pixels, dtype=np.float64).reshape(1, -1)
    if np.any(pixels <= 0):
        raise ValueError("n_pixels must be positive")
    base = fitted.BATCH_OVERHEAD_MS_FHD_AT64[app]
    growth = np.array(
        [
            (64.0 / float(scale)) ** fitted.BATCH_OVERHEAD_SCALE_EXPONENT
            for scale in np.asarray(scale_factors).reshape(-1)
        ],
        dtype=np.float64,
    ).reshape(-1, 1)
    return (base * growth) * (pixels / FHD_PIXELS)


def pipeline_total_ms_batch(ngpc_time_ms, rest_time_ms, n_batches, out=None):
    """Vectorized :attr:`PipelineSchedule.total_ms` (elementwise makespan).

    ``n_batches`` may be a scalar or an integer array (a swept pipeline
    axis); it broadcasts elementwise against the stage times with the
    same arithmetic as the scalar makespan.  ``out``, when given, is the
    destination array (the operands broadcast to its shape).  The
    full-shape steps run in place in ``out`` plus one scratch array, in
    the scalar makespan's operation order, so the values are unchanged.
    """
    n_batches = np.asarray(n_batches)
    if np.any(n_batches < 1):
        raise ValueError("need at least one batch")
    if out is None:
        out = np.empty(
            np.broadcast(ngpc_time_ms, rest_time_ms, n_batches).shape
        )
    ngpc_batch = np.divide(ngpc_time_ms, n_batches, out=np.empty(out.shape))
    rest_batch = rest_time_ms / n_batches
    np.maximum(ngpc_batch, rest_batch, out=out)  # the bottleneck stage
    np.multiply(n_batches - 1, out, out=out)
    np.add(ngpc_batch, out, out=out)
    return np.add(out, rest_batch, out=out)


class NGPC:
    """A configured NGPC attached to the baseline GPU."""

    def __init__(self, config: Optional[NGPCConfig] = None):
        self.config = config or NGPCConfig()

    @property
    def scale_factor(self) -> int:
        return self.config.scale_factor

    def dma_overhead_ms(self, app: str, n_pixels: int) -> float:
        """Per-frame data-movement overhead of the NGPC stage.

        Anchored at scaling factor 64 / FHD by the fitted per-app constants
        (consistent with Table III access times); scales linearly with
        pixels and inversely with the scaling factor, since more NFPs keep
        more batches in flight over the same L2 interface.
        """
        base = fitted.BATCH_OVERHEAD_MS_FHD_AT64[app]
        growth = (64.0 / self.scale_factor) ** fitted.BATCH_OVERHEAD_SCALE_EXPONENT
        return base * growth * (n_pixels / FHD_PIXELS)

    def engine_fusion_penalty_ms(self, app_config: AppConfig, n_pixels: int) -> float:
        """Extra time paid if the encoding and MLP engines were NOT fused.

        Without fusion the encoded features round-trip through device
        memory (Fig. 7): written by the encoding stage and re-read by the
        MLP stage, at 2 bytes per feature each way.
        """
        from repro.gpu.kernels import samples_per_frame

        samples = samples_per_frame(app_config, n_pixels)
        bytes_roundtrip = app_config.grid.encoded_dim * 2 * 2 * samples
        return bytes_roundtrip / RTX3090.bytes_per_second * 1e3

    def schedule(
        self,
        app_config: AppConfig,
        n_pixels: int = FHD_PIXELS,
        fusion: FusionModel = DEFAULT_FUSION,
        fuse_engines: bool = True,
        fuse_rest: bool = True,
        overlap: bool = True,
        encoding: EncodingVariant = DEFAULT_ENCODING,
    ) -> PipelineSchedule:
        """Build the Fig. 10-b schedule for one frame of ``app_config``.

        The three flags support the ablations of DESIGN.md: ``fuse_engines``
        removes the encoding->MLP DRAM round-trip, ``fuse_rest`` applies the
        9.94x rest-kernel fusion, and ``overlap`` enables the batch pipeline
        (disabled, the stages run back to back).  ``encoding`` selects a
        point of the registry's encoding-axis subspace (grid storage
        policy, hash-table size, per-level scale); the default inherits
        the app's Table I parameters.
        """
        app, scheme = app_config.app, app_config.grid.scheme
        enc = encoding_engine_time_ms(app_config, n_pixels, self.config, encoding)
        mlp = mlp_engine_time_ms(app_config, n_pixels, self.config)
        dma = self.dma_overhead_ms(app, n_pixels)
        ngpc_time = enc + mlp + dma
        if not fuse_engines:
            ngpc_time += self.engine_fusion_penalty_ms(app_config, n_pixels)
        if fuse_rest:
            rest = fused_rest_time_ms(app, scheme, n_pixels, fusion)
        else:
            from repro.gpu.baseline import baseline_kernel_times_ms

            rest = baseline_kernel_times_ms(app, scheme, n_pixels)["rest"]
        n_batches = self.config.n_pipeline_batches if overlap else 1
        return PipelineSchedule(
            ngpc_time_ms=ngpc_time,
            rest_time_ms=rest,
            n_batches=n_batches,
        )

    def frame_time_ms(self, app: str, scheme: str, n_pixels: int = FHD_PIXELS) -> float:
        """End-to-end accelerated frame time (ms)."""
        return self.schedule(get_config(app, scheme), n_pixels).total_ms

"""The Neural Graphics Processing Cluster (NGPC) — the paper's contribution.

A Neural Fields Processor (NFP, Fig. 9) couples an input-encoding engine
(16 per-level lookup engines with dedicated grid SRAMs) to a 64x64 MAC MLP
engine, fused so encoded features never round-trip through DRAM.  An NGPC
is a cluster of NFPs attached to the GPU's L2 (Fig. 10); batches are
software-pipelined against the GPU's fused "rest" kernels (Fig. 10b).

Modules:

- :mod:`repro.core.config` — architecture configuration dataclasses;
- :mod:`repro.core.encoding_engine` — functional fixed-point datapath model
  plus the cycle/throughput model of the encoding engine;
- :mod:`repro.core.mlp_engine` — cycle model of the MAC array;
- :mod:`repro.core.fusion` — fused "rest"-kernel model (the 9.94x path);
- :mod:`repro.core.ngpc` — cluster assembly, pipeline schedule, bandwidth;
- :mod:`repro.core.area_power` — 45 nm component estimates with
  Stillmaker-Baas scaling to 7 nm (Fig. 15);
- :mod:`repro.core.timeloop` — independent Timeloop/Accelergy-style
  analytical model of the MLP engine (the paper's ~7 % cross-check);
- :mod:`repro.core.amdahl` — Amdahl bounds for the sanity check of Fig. 12;
- :mod:`repro.core.emulator` — the top-level evaluation emulator (Fig. 11).
"""

from repro.core.config import NFPConfig, NGPCConfig, SCALE_FACTORS
from repro.core.encoding_engine import (
    EncodingEngineFunctional,
    encoding_engine_time_ms,
    encoding_engine_time_ms_batch,
    encoding_kernel_speedup,
    shift_modulo,
)
from repro.core.mlp_engine import (
    mlp_engine_cycles,
    mlp_engine_time_ms,
    mlp_engine_time_ms_batch,
    mlp_kernel_speedup,
)
from repro.core.fusion import fused_rest_time_ms, FusionModel
from repro.core.ngpc import (
    NGPC,
    BandwidthReport,
    PipelineSchedule,
    bandwidth_model_batch,
    dma_overhead_ms_batch,
    pipeline_total_ms_batch,
)
from repro.core.area_power import (
    AreaPowerReport,
    nfp_area_mm2_45nm,
    nfp_power_w_45nm,
    ngpc_area_power,
    ngpc_area_power_batch,
    scale_45_to_7nm,
)
from repro.core.timeloop import TimeloopMLPModel
from repro.core.pipeline_sim import (
    EncodingPipelineSimulator,
    PipelineConfig,
    SimResult,
    validate_throughput_assumption,
)
from repro.core.amdahl import amdahl_bound, amdahl_bound_unfused
from repro.core.cache import ModelCache, cache_stats, clear_model_caches
from repro.core.emulator import (
    EmulationResult,
    Emulator,
    emulate,
    emulate_batch,
    emulate_uncached,
)
from repro.core.energy import (
    EnergyReport,
    arvr_gap_oom,
    energy_per_frame,
    energy_per_frame_batch,
)
from repro.core.dse import (
    DesignPoint,
    SweepGrid,
    SweepResult,
    efficiency_sweet_spot,
    pareto_front,
    sweep_grid,
)

__all__ = [
    "NFPConfig",
    "NGPCConfig",
    "SCALE_FACTORS",
    "EncodingEngineFunctional",
    "encoding_engine_time_ms",
    "encoding_engine_time_ms_batch",
    "encoding_kernel_speedup",
    "shift_modulo",
    "mlp_engine_cycles",
    "mlp_engine_time_ms",
    "mlp_engine_time_ms_batch",
    "mlp_kernel_speedup",
    "fused_rest_time_ms",
    "FusionModel",
    "NGPC",
    "BandwidthReport",
    "PipelineSchedule",
    "bandwidth_model_batch",
    "dma_overhead_ms_batch",
    "pipeline_total_ms_batch",
    "AreaPowerReport",
    "nfp_area_mm2_45nm",
    "nfp_power_w_45nm",
    "ngpc_area_power",
    "ngpc_area_power_batch",
    "scale_45_to_7nm",
    "TimeloopMLPModel",
    "EncodingPipelineSimulator",
    "PipelineConfig",
    "SimResult",
    "validate_throughput_assumption",
    "amdahl_bound",
    "amdahl_bound_unfused",
    "EmulationResult",
    "Emulator",
    "emulate",
    "EnergyReport",
    "arvr_gap_oom",
    "energy_per_frame",
    "DesignPoint",
    "ModelCache",
    "SweepGrid",
    "SweepResult",
    "cache_stats",
    "clear_model_caches",
    "efficiency_sweet_spot",
    "emulate_batch",
    "emulate_uncached",
    "energy_per_frame_batch",
    "pareto_front",
    "sweep_grid",
]

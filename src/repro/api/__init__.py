"""``repro.api`` — the one typed entry point over every execution path.

The reproduction grew three ways to ask the same design-space question:
the scalar :func:`~repro.core.emulator.emulate` loop, the batched
:func:`~repro.core.dse.sweep_grid` engine, and the HTTP sweep service.
This package is the stable facade over all of them:

- :class:`Session` — binds a backend and exposes ``sweep`` / ``point``
  / ``stats`` / ``health``; :meth:`Session.remote` swaps in-process
  evaluation for a running ``python -m repro serve``, and
  :meth:`Session.distributed` for a multi-host shard cluster
  (:class:`DistributedBackend`), with no other code change.
- :class:`Grid` — fluent, eagerly validating grid builder
  (``Grid().app("nerf").clock(0.8, 1.2, n=5)``) canonicalizing to the
  shared :class:`~repro.core.dse.SweepGrid`.
- :class:`Sweep` — the query handle every backend returns, backed by a
  dense :class:`~repro.core.dse.SweepResult` so queries are
  bit-identical across backends.
- One exception hierarchy rooted at :class:`~repro.errors.ReproError`:
  :class:`AmbiguousAxisError` (underspecified scalar query),
  :class:`NotOnGridError` (selector value absent from the grid),
  :class:`InfeasibleQueryError` (no grid point satisfies a constraint
  query), :class:`ServiceError` (structured service failure),
  :class:`BackendUnavailableError` (nothing listening).

Consumers — the CLI, the report generator, the workload sweeps, the
examples — import from here and never choose an execution path by hand.
"""

from repro.api.backends import (
    Backend,
    DistributedBackend,
    LocalBackend,
    RemoteBackend,
)
from repro.api.grid import Grid, as_sweep_grid
from repro.api.session import Session, Sweep
from repro.core.dse import (
    PAYLOAD_SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    DesignPoint,
    EmulationResult,
    SweepGrid,
    SweepResult,
    sweep_fingerprint,
)
from repro.errors import (
    AmbiguousAxisError,
    BackendUnavailableError,
    InfeasibleQueryError,
    NotOnGridError,
    ReproError,
)
from repro.service.errors import ServiceError
from repro.service.errors import as_service_error as as_structured_error
from repro.store import ResultStore, StoreCorruptionWarning, StoreWriteWarning

__all__ = [
    "AmbiguousAxisError",
    "Backend",
    "BackendUnavailableError",
    "DesignPoint",
    "DistributedBackend",
    "EmulationResult",
    "Grid",
    "InfeasibleQueryError",
    "LocalBackend",
    "NotOnGridError",
    "PAYLOAD_SCHEMA_VERSION",
    "RemoteBackend",
    "ReproError",
    "ResultStore",
    "SUPPORTED_SCHEMA_VERSIONS",
    "ServiceError",
    "Session",
    "StoreCorruptionWarning",
    "StoreWriteWarning",
    "Sweep",
    "SweepGrid",
    "SweepResult",
    "as_structured_error",
    "as_sweep_grid",
    "sweep_fingerprint",
]

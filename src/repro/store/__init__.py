"""Persistent, shared, content-addressed result store (the disk tier).

The service's in-RAM LRU dies with its process; this package is the
tier under it — persisted :class:`~repro.core.dse.SweepResult`s and
vectorized blocks keyed on content fingerprints, shareable by every
replica mounting one directory:

- :class:`ResultStore` — sqlite catalogue + npz columnar arrays,
  memory-mapped on load, atomic ``os.replace`` writes, corrupt entries
  quarantined with a :class:`StoreCorruptionWarning` and re-evaluated,
  failed writes degraded to a :class:`StoreWriteWarning`.
- :func:`sweep_with_store` / :func:`evaluate_with_block_cache` — the
  tiered evaluation ladder (RAM -> whole-sweep disk -> block-level disk
  -> evaluate the delta), slotted under
  :class:`~repro.service.SweepService` via ``SweepService(store=...)``
  and under the local backend via ``Session(store=...)`` /
  ``repro serve --store DIR``.

Wire format and keys are shared with the rest of the stack:
:func:`~repro.core.dse.sweep_fingerprint` and
:func:`~repro.core.dse.block_fingerprint` carry grid axes, base config
and calibration constants, so invalidation is content addressing —
perturbed calibration simply addresses different entries.
"""

from repro.store.npz_io import (
    StoreIntegrityError,
    read_arrays,
    write_arrays_atomic,
)
from repro.store.result_store import (
    BLOCK_ARRAY_FIELDS,
    ResultStore,
    StoreCorruptionWarning,
    StoreWriteWarning,
    fingerprint_digest,
)
from repro.store.tiered import (
    STORE_ENGINE,
    TIER_COUNTERS,
    evaluate_with_block_cache,
    fetch_blocks,
    new_tier_counters,
    sweep_with_store,
)

__all__ = [
    "BLOCK_ARRAY_FIELDS",
    "ResultStore",
    "STORE_ENGINE",
    "StoreCorruptionWarning",
    "StoreIntegrityError",
    "StoreWriteWarning",
    "TIER_COUNTERS",
    "evaluate_with_block_cache",
    "fetch_blocks",
    "fingerprint_digest",
    "new_tier_counters",
    "read_arrays",
    "sweep_with_store",
    "write_arrays_atomic",
]

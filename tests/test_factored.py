"""The factored sweep-result layout.

Only ``accelerated_ms`` is held at the full hypercube shape; the other
five timing fields live at their factor shapes
(:data:`repro.core.axes.TIMING_FIELD_AXES`) and are read through
read-only broadcast views.  Pinned here:

- **Same values on every path.**  On small grids every timing attribute
  of ``sweep_grid``, the streamed ``evaluate_plan``, the store tier, a
  store reload and ``from_payload`` is read-only and, as a contiguous
  copy, bit-equal to a dense array filled point by point from the
  scalar emulator (the dense layout results had before factoring) and
  to the scalar engine.
- **Memory.**  The distinct bytes behind the six timing fields of a
  1M-point sweep are at most 1.25x those of ``accelerated_ms``.
- **Store.**  A 1M-point sweep entry is at most a quarter of the
  50.6 MB the dense layout wrote; dense entries (no layout stamp) still
  load bit-identically; a member of any other shape is quarantined.
"""

import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.params import APP_NAMES, ENCODING_SCHEMES
from repro.core.dse import (
    RESULT_ARRAY_FIELDS,
    SweepGrid,
    SweepResult,
    _scalar_result,
    block_fingerprint,
    evaluate_plan,
    finalize_sweep_result,
    shard_task_shape,
    store_block_plan,
    stream_plan,
    sweep_fingerprint,
    sweep_grid,
)
from repro.core.emulator import TIMING_FIELDS, factor_shape
from repro.store import (
    ResultStore,
    StoreCorruptionWarning,
    new_tier_counters,
    sweep_with_store,
    write_arrays_atomic,
)
from repro.store.result_store import _META_MEMBER, _meta_array

#: the dense entry size of a 1M-point sweep before factoring
DENSE_ENTRY_BYTES_1M = 50.6e6


def _subset(values, max_size):
    return st.lists(
        st.sampled_from(values), min_size=1, max_size=max_size, unique=True
    ).map(tuple)


small_grids = st.builds(
    SweepGrid,
    apps=_subset(APP_NAMES, 2),
    schemes=_subset(ENCODING_SCHEMES, 2),
    scale_factors=_subset((8, 16, 64), 2),
    pixel_counts=_subset((518_400, 2_073_600), 2),
    clocks_ghz=_subset((0.8, 1.2, 1.695), 2),
    grid_sram_kb=_subset((256, 1024), 2),
    n_engines=_subset((8, 16), 2),
    n_batches=_subset((1, 4, 16), 3),
)


def dense_reference(grid):
    """Every timing field dense, filled point by point from the scalar
    emulator: the layout results had before factoring."""
    arrays = {name: np.empty(grid.shape) for name in TIMING_FIELDS}
    for idx in np.ndindex(*grid.shape):
        values = [getattr(grid, name)[i] for name, i in zip(grid.axis_fields, idx)]
        point = _scalar_result(*values[:4], None, *values[4:])
        for name in TIMING_FIELDS:
            arrays[name][idx] = getattr(point, name)
    return arrays


def assert_factored_and_equal(result, reference, label):
    grid = result.grid
    for name in TIMING_FIELDS:
        view = getattr(result, name)
        assert view.shape == grid.shape, (label, name)
        assert not view.flags.writeable, (label, name)
        assert result.factor(name).shape == factor_shape(
            name, grid.axis_fields, grid.shape
        ), (label, name)
        assert np.array_equal(
            np.ascontiguousarray(view), reference[name]
        ), (label, name)


def owner_bytes(arrays):
    """Distinct bytes of the arrays that own the memory behind ``arrays``."""
    owners = {}
    for array in arrays:
        while isinstance(array.base, np.ndarray):
            array = array.base
        owners[id(array)] = array.nbytes
    return sum(owners.values())


class TestEveryPathAgrees:
    @given(small_grids)
    @settings(max_examples=12, deadline=None)
    def test_paths_bit_equal_to_dense_scalar_reference(self, grid):
        grid = grid.resolve().normalized()
        reference = dense_reference(grid)
        scalar = sweep_grid(grid, engine="scalar", use_cache=False)
        assert_factored_and_equal(scalar, reference, "scalar")

        dense = sweep_grid(grid, use_cache=False)
        assert_factored_and_equal(dense, reference, "sweep_grid")

        streamed = finalize_sweep_result(
            grid, "vectorized", None, evaluate_plan(grid, stream_plan(grid))
        )
        assert_factored_and_equal(streamed, reference, "evaluate_plan")

        with tempfile.TemporaryDirectory() as root:
            tiered = sweep_with_store(ResultStore(root), grid, use_cache=False)
            assert_factored_and_equal(tiered, reference, "store tier")
            # a fresh store instance over the same directory: a restart
            reloaded = ResultStore(root).load_sweep(sweep_fingerprint(grid))
            assert_factored_and_equal(reloaded, reference, "store reload")
            # blocks come back as their persisted factors
            store = ResultStore(root)
            for placement, task in store_block_plan(grid):
                block = store.load_block(
                    block_fingerprint(task), shard_task_shape(placement)
                )
                i, j, windows = placement
                at = (i, j) + tuple(slice(lo, hi) for lo, hi in windows)
                for name in TIMING_FIELDS:
                    assert np.array_equal(
                        np.broadcast_to(block[name], reference[name][at].shape),
                        reference[name][at],
                    )

        served = SweepResult.from_payload(dense.to_payload())
        assert_factored_and_equal(served, reference, "from_payload")
        for name in RESULT_ARRAY_FIELDS:
            if name not in TIMING_FIELDS:
                assert np.array_equal(
                    getattr(served, name), getattr(dense, name)
                ), name


# ---------------------------------------------------------------------------
# the 1M-point pins: memory and store entry size
# ---------------------------------------------------------------------------

#: 4 apps x 8 scales x 32 clocks x 8 SRAM sizes x 8 engines x 16 batches
GRID_1M = SweepGrid(
    apps=APP_NAMES,
    scale_factors=tuple(2 ** i for i in range(8)),
    clocks_ghz=tuple(round(0.5 + 0.025 * i, 6) for i in range(32)),
    grid_sram_kb=tuple(2 ** (6 + i) for i in range(8)),
    n_engines=tuple(range(1, 9)),
    n_batches=tuple(range(1, 17)),
)


@pytest.fixture(scope="module")
def sweep_1m():
    grid = GRID_1M.resolve().normalized()
    assert grid.size == 1 << 20
    return sweep_grid(grid, use_cache=False)


class TestOneMillionPoints:
    def test_timing_fields_hold_little_more_than_accelerated_ms(self, sweep_1m):
        held = owner_bytes(getattr(sweep_1m, name) for name in TIMING_FIELDS)
        assert held <= 1.25 * sweep_1m.accelerated_ms.nbytes

    def test_store_entry_is_under_a_quarter_of_the_dense_entry(
        self, sweep_1m, tmp_path
    ):
        store = ResultStore(str(tmp_path / "store"))
        key = sweep_fingerprint(sweep_1m.grid)
        path = store.save_sweep(key, sweep_1m)
        assert os.path.getsize(path) <= DENSE_ENTRY_BYTES_1M / 4
        loaded = ResultStore(str(tmp_path / "store")).load_sweep(key)
        for name in RESULT_ARRAY_FIELDS:
            assert np.array_equal(
                getattr(loaded, name), getattr(sweep_1m, name)
            ), name


# ---------------------------------------------------------------------------
# store layouts: dense entries load, malformed factors are quarantined
# ---------------------------------------------------------------------------

GRID = SweepGrid(
    apps=("nerf", "gia"),
    scale_factors=(8, 32),
    clocks_ghz=(1.2, 1.695),
    grid_sram_kb=(512, 1024),
    n_batches=(8, 16),
).resolve().normalized()


def _sweep_meta(grid, layout=None):
    meta = {"schema_version": 2, "grid": grid.to_dict(), "engine": "store"}
    if layout is not None:
        meta["layout"] = layout
    return _meta_array(meta)


class TestStoreLayouts:
    def test_dense_sweep_and_block_entries_load_bit_identically(self, tmp_path):
        reference = sweep_grid(GRID, use_cache=False)
        store = ResultStore(str(tmp_path / "store"))
        key = sweep_fingerprint(GRID)
        arrays = {
            name: np.ascontiguousarray(getattr(reference, name))
            for name in RESULT_ARRAY_FIELDS
        }
        arrays[_META_MEMBER] = _sweep_meta(GRID)  # no layout stamp: dense
        write_arrays_atomic(store.sweep_path(key), arrays)
        loaded = store.load_sweep(key)
        assert loaded is not None
        assert_factored_and_equal(
            loaded,
            {name: np.ascontiguousarray(getattr(reference, name))
             for name in TIMING_FIELDS},
            "dense sweep entry",
        )

        placement, task = store_block_plan(GRID)[0]
        shape = shard_task_shape(placement)
        i, j, windows = placement
        at = (i, j) + tuple(slice(lo, hi) for lo, hi in windows)
        dense_block = {
            name: np.ascontiguousarray(getattr(reference, name)[at])
            for name in TIMING_FIELDS
        }
        dense_block["amdahl_bound"] = reference.amdahl_bound[i, j]
        block_path = os.path.join(
            store.root, "blocks",
            os.path.basename(store.sweep_path(block_fingerprint(task))),
        )
        write_arrays_atomic(block_path, dense_block)  # no meta at all
        block = store.load_block(block_fingerprint(task), shape)
        assert block is not None
        for name in TIMING_FIELDS:
            assert np.array_equal(block[name], dense_block[name]), name

    @pytest.mark.parametrize("layout,bad_shape", [
        ("factored", "dense"),     # stamped factored, member dense
        (None, "factor"),          # unstamped (dense), member factored
        ("factored", "short"),     # neither shape
        ("sparse", "factor"),      # unknown layout
    ])
    def test_wrong_member_shape_is_quarantined(
        self, tmp_path, layout, bad_shape
    ):
        reference = sweep_grid(GRID, use_cache=False)
        store = ResultStore(str(tmp_path / "store"))
        key = sweep_fingerprint(GRID)
        arrays = {
            name: reference.factor(name) if name in TIMING_FIELDS
            else getattr(reference, name)
            for name in RESULT_ARRAY_FIELDS
        }
        wrong = {
            "dense": np.ascontiguousarray(reference.dma_ms),
            "factor": reference.factor("dma_ms"),
            "short": reference.factor("dma_ms")[..., :0],
        }[bad_shape]
        if layout is None:
            arrays = {
                name: np.ascontiguousarray(getattr(reference, name))
                for name in RESULT_ARRAY_FIELDS
            }
        arrays["dma_ms"] = wrong
        arrays[_META_MEMBER] = _sweep_meta(GRID, layout)
        path = store.sweep_path(key)
        write_arrays_atomic(path, arrays)
        with pytest.warns(StoreCorruptionWarning, match="corrupt"):
            assert store.load_sweep(key) is None
        assert os.path.exists(path + ".corrupt")
        assert store.counters["corrupt_dropped"] == 1

    def test_wrong_block_factor_shape_is_quarantined(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        counters = new_tier_counters()
        sweep_with_store(store, GRID, counters=counters, use_cache=False)
        placement, task = store_block_plan(GRID)[0]
        key = block_fingerprint(task)
        shape = shard_task_shape(placement)
        block = store.load_block(key, shape)
        payload = {name: block[name] for name in TIMING_FIELDS}
        # dense under the factored stamp
        payload["mlp_engine_ms"] = np.ascontiguousarray(
            np.broadcast_to(block["mlp_engine_ms"], shape)
        )
        payload["amdahl_bound"] = np.asarray(block["amdahl_bound"])
        payload[_META_MEMBER] = _meta_array({"layout": "factored"})
        path = os.path.join(
            store.root, "blocks",
            os.path.basename(store.sweep_path(key)),
        )
        os.unlink(path)
        write_arrays_atomic(path, payload)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert store.load_block(key, shape) is None
        assert any(
            issubclass(w.category, StoreCorruptionWarning) for w in caught
        )
        assert os.path.exists(path + ".corrupt")

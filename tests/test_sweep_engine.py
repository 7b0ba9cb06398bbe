"""Equivalence + property harness for the batched DSE engine.

The batched NumPy paths must be numerically identical to the scalar
emulator over the whole (app, scheme, scale, pixels) space; hypothesis
draws the sample.  Also covered here: the hardware ``shift_modulo``
against true ``%``, Pareto-front invariants, the memoization layer, the
process-pool engine, and the new power-of-two configuration validation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sensitivity import perturbed_overheads
from repro.apps.params import APP_NAMES, ENCODING_SCHEMES
from repro.core.axes import AXES, CONFIG_AXIS_FIELDS
from repro.core.cache import cache_stats, clear_model_caches
from repro.core.config import NFPConfig, NGPCConfig, SCALE_FACTORS
from repro.core.dse import (
    SweepGrid,
    pareto_front,
    sweep_grid,
)
from repro.core.emulator import (
    emulate,
    emulate_batch,
    emulate_uncached,
    factor_shape,
)
from repro.core.encoding_engine import shift_modulo
from repro.core.query import config_axes
from repro.core.energy import energy_per_frame, energy_per_frame_batch
from repro.workloads.sweep import full_sweep, full_sweep_batched

RTOL = 1e-9

apps = st.sampled_from(APP_NAMES)
schemes = st.sampled_from(ENCODING_SCHEMES)
scales = st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128])
pixels = st.integers(min_value=1, max_value=3840 * 2160 * 4)

_FIELDS = (
    "baseline_ms",
    "accelerated_ms",
    "encoding_engine_ms",
    "mlp_engine_ms",
    "dma_ms",
    "fused_rest_ms",
)


class TestBatchedEqualsScalar:
    @given(apps, schemes, scales, pixels)
    @settings(max_examples=60, deadline=None)
    def test_single_point(self, app, scheme, scale, n_pixels):
        scalar = emulate_uncached(app, scheme, scale, n_pixels)
        block = emulate_batch(app, scheme, (scale,), (n_pixels,))
        for name in _FIELDS:
            assert float(block[name][0, 0]) == pytest.approx(
                getattr(scalar, name), rel=RTOL
            ), name
        assert float(block["speedup"][0, 0]) == pytest.approx(
            scalar.speedup, rel=RTOL
        )
        assert float(block["amdahl_bound"]) == pytest.approx(
            scalar.amdahl_bound, rel=RTOL
        )

    @given(
        st.lists(scales, min_size=1, max_size=4, unique=True),
        st.lists(pixels, min_size=1, max_size=4, unique=True),
    )
    @settings(max_examples=20, deadline=None)
    def test_plane(self, scale_list, pixel_list):
        """A whole (S, P) plane agrees with the per-point scalar loop."""
        block = emulate_batch(
            "nerf", "multi_res_hashgrid", scale_list, pixel_list
        )
        for k, scale in enumerate(scale_list):
            for l, n_pixels in enumerate(pixel_list):
                scalar = emulate_uncached(
                    "nerf", "multi_res_hashgrid", scale, n_pixels
                )
                assert float(block["accelerated_ms"][k, l]) == pytest.approx(
                    scalar.accelerated_ms, rel=RTOL
                )

    def test_engines_agree_bit_for_bit(self):
        grid = SweepGrid(
            apps=APP_NAMES,
            schemes=ENCODING_SCHEMES,
            scale_factors=SCALE_FACTORS,
            pixel_counts=(518_400, 2_073_600),
        )
        vec = sweep_grid(grid, engine="vectorized", use_cache=False)
        scal = sweep_grid(grid, engine="scalar", use_cache=False)
        for name in _FIELDS + ("amdahl_bound",):
            np.testing.assert_allclose(
                getattr(vec, name), getattr(scal, name), rtol=RTOL, atol=0.0
            )

    def test_engines_honor_ngpc_override(self):
        """A non-default NGPCConfig reaches every engine, not just vectorized."""
        grid = SweepGrid(
            apps=("nerf",),
            schemes=("multi_res_hashgrid",),
            scale_factors=(8,),
            pixel_counts=(2_073_600,),
        )
        override = NGPCConfig(n_pipeline_batches=4)
        vec = sweep_grid(grid, engine="vectorized", ngpc=override, use_cache=False)
        scal = sweep_grid(grid, engine="scalar", ngpc=override, use_cache=False)
        default = sweep_grid(grid, engine="scalar", use_cache=False)
        np.testing.assert_allclose(
            vec.accelerated_ms, scal.accelerated_ms, rtol=RTOL, atol=0.0
        )
        assert float(scal.accelerated_ms.flat[0]) != pytest.approx(
            float(default.accelerated_ms.flat[0]), rel=1e-3
        )

    def test_cached_result_arrays_are_frozen(self):
        result = sweep_grid()
        with pytest.raises(ValueError):
            result.accelerated_ms[0, 0, 0, 0] = 0.0

    def test_full_sweep_batched_matches_generator(self):
        batched = list(full_sweep_batched(schemes=["multi_res_hashgrid"]))
        scalar = list(full_sweep(schemes=["multi_res_hashgrid"]))
        assert len(batched) == len(scalar)
        for b, s in zip(batched, scalar):
            assert (b.app, b.scheme, b.scale_factor) == (
                s.app,
                s.scheme,
                s.scale_factor,
            )
            assert b.result.accelerated_ms == pytest.approx(
                s.result.accelerated_ms, rel=RTOL
            )

    @given(apps, scales, pixels)
    @settings(max_examples=20, deadline=None)
    def test_energy_batch_equals_scalar(self, app, scale, n_pixels):
        scalar = energy_per_frame(app, "multi_res_hashgrid", scale, n_pixels)
        block = energy_per_frame_batch(
            app, "multi_res_hashgrid", (scale,), (n_pixels,)
        )
        for name in (
            "baseline_mj",
            "accelerated_mj",
            "baseline_fps_per_watt",
            "accelerated_fps_per_watt",
        ):
            assert float(block[name][0, 0]) == pytest.approx(
                getattr(scalar, name), rel=RTOL
            ), name


clocks = st.floats(min_value=0.2, max_value=4.0, allow_nan=False)
srams = st.sampled_from([128, 256, 512, 1024, 2048, 4096])
engine_counts = st.sampled_from([1, 2, 4, 8, 16, 32])
batch_counts = st.integers(min_value=1, max_value=64)


class TestEmulateBatchInPlace:
    """``emulate_batch(out=...)`` computes ``accelerated_ms`` in place.

    ``out`` is the one dense destination; every other timing field comes
    back as its small factor (a read-only broadcast view without
    ``out``).
    """

    CALLS = {
        "classic": (
            ("nerf", "multi_res_hashgrid", (8, 16, 32, 64), (518_400, 2_073_600)),
            {},
        ),
        "hypercube": (
            ("gia", "multi_res_densegrid", (8, 64), (2_073_600,)),
            dict(clocks_ghz=(0.9, 1.695), grid_sram_kb=(256, 1024),
                 n_engines=(8, 16), n_batches=(1, 4, 16)),
        ),
        "extended": (
            ("nsdf", "multi_res_hashgrid", (8, 32), (2_073_600,)),
            dict(clocks_ghz=(1.2,), gridtypes=("hash", "tiled"),
                 log2_hashmap_sizes=(14, 19), per_level_scales=(1.5, 2.0)),
        ),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_out_views_bit_identical_to_returned_dict(self, call):
        args, kwargs = self.CALLS[call]
        fresh = emulate_batch(*args, **kwargs)
        shape = fresh["accelerated_ms"].shape
        # a strided destination: every other element of a larger array
        parent = np.full(shape + (2,), np.nan)
        out = parent[..., 1]
        written = emulate_batch(*args, out=out, **kwargs)
        assert "speedup" not in written
        assert written["amdahl_bound"] == fresh["amdahl_bound"]
        assert written["accelerated_ms"] is out
        np.testing.assert_array_equal(out, fresh["accelerated_ms"])
        assert np.isnan(parent[..., 0]).all()  # no spill
        for name in _FIELDS:
            assert fresh[name].shape == shape, name
            np.testing.assert_array_equal(
                np.broadcast_to(written[name], shape), fresh[name],
                err_msg=name,
            )
            if name != "accelerated_ms":
                assert not fresh[name].flags.writeable, name
                # the factor, never a block-sized array
                assert written[name].shape == factor_shape(
                    name, CONFIG_AXIS_FIELDS[:len(shape)], shape
                ), name

    def test_out_shape_mismatch_raises(self):
        args, kwargs = self.CALLS["hypercube"]
        shape = emulate_batch(*args, **kwargs)["accelerated_ms"].shape
        with pytest.raises(ValueError, match="out must be"):
            emulate_batch(*args, out=np.empty(shape[:-1]), **kwargs)


class TestEvaluatePlan:
    """One in-place plan evaluator behind every local blockwise sweep."""

    GRID = SweepGrid(
        apps=("nerf", "gia"),
        schemes=("multi_res_hashgrid",),
        scale_factors=(8, 16, 64),
        clocks_ghz=(0.9, 1.2, 1.695),
        grid_sram_kb=(256, 1024),
        n_batches=(4, 8, 16),
    )

    @pytest.mark.parametrize("n_blocks", (1, 7, 64))
    def test_any_plan_is_bit_identical_to_sweep_grid(self, n_blocks):
        from repro.core.dse import evaluate_plan, shard_plan, window_major

        grid = self.GRID.resolve()
        dense = sweep_grid(grid, use_cache=False)
        plan = window_major(shard_plan(grid, n_blocks))
        seen = []
        arrays = evaluate_plan(
            grid, plan, on_block=lambda placement, views: seen.append(
                (placement, views["accelerated_ms"].shape)
            ),
        )
        assert [p for p, _ in seen] == [p for p, _ in plan]
        for (_, _, windows), shape in seen:
            assert shape == tuple(hi - lo for lo, hi in windows)
        for name in _FIELDS + ("amdahl_bound",):
            np.testing.assert_array_equal(
                arrays[name], getattr(dense, name), err_msg=name
            )


class TestArchitectureAxes:
    """N-D batched == scalar over the architecture axes."""

    @given(apps, schemes, scales, pixels, clocks, srams, engine_counts, batch_counts)
    @settings(max_examples=60, deadline=None)
    def test_single_point(
        self, app, scheme, scale, n_pixels, clock, sram, n_eng, n_b
    ):
        from repro.core.emulator import Emulator

        nfp = NFPConfig(
            clock_ghz=clock,
            grid_sram_kb_per_engine=sram,
            n_encoding_engines=n_eng,
        )
        config = NGPCConfig(
            scale_factor=scale, nfp=nfp, n_pipeline_batches=n_b
        )
        scalar = Emulator(config).run(app, scheme, n_pixels)
        block = emulate_batch(
            app, scheme, (scale,), (n_pixels,),
            clocks_ghz=(clock,), grid_sram_kb=(sram,),
            n_engines=(n_eng,), n_batches=(n_b,),
        )
        assert block["accelerated_ms"].shape == (1, 1, 1, 1, 1, 1)
        for name in _FIELDS:
            assert float(block[name].flat[0]) == pytest.approx(
                getattr(scalar, name), rel=RTOL
            ), name
        assert float(block["speedup"].flat[0]) == pytest.approx(
            scalar.speedup, rel=RTOL
        )

    def test_hypercube_engines_agree_bit_for_bit(self):
        grid = SweepGrid(
            apps=("nerf", "gia"),
            schemes=("multi_res_hashgrid",),
            scale_factors=(8, 64),
            pixel_counts=(518_400, 2_073_600),
            clocks_ghz=(0.9, 1.695),
            grid_sram_kb=(256, 1024),
            n_engines=(8, 16),
            n_batches=(4, 16),
        )
        vec = sweep_grid(grid, engine="vectorized", use_cache=False)
        scal = sweep_grid(grid, engine="scalar", use_cache=False)
        assert vec.accelerated_ms.shape == grid.shape
        for name in _FIELDS + ("amdahl_bound",):
            np.testing.assert_array_equal(
                getattr(vec, name), getattr(scal, name), err_msg=name
            )

    def test_cost_arrays_span_architecture_axes(self):
        grid = SweepGrid(
            apps=("nvr",),
            scale_factors=(8, 32),
            clocks_ghz=(0.9, 1.695),
            grid_sram_kb=(512, 1024),
            n_engines=(8, 16),
        )
        result = sweep_grid(grid, use_cache=False)
        assert result.area_overhead_pct.shape == (2, 2, 2, 2)
        # SRAM halving shrinks area; clock does not change area but
        # does change power
        assert float(result.area_mm2_7nm[0, 0, 0, 0]) < float(
            result.area_mm2_7nm[0, 0, 1, 0]
        )
        assert float(result.area_mm2_7nm[0, 0, 0, 0]) == float(
            result.area_mm2_7nm[0, 1, 0, 0]
        )
        assert float(result.power_w_7nm[0, 0, 0, 0]) < float(
            result.power_w_7nm[0, 1, 0, 0]
        )

    def test_point_lookup_with_architecture_axes(self):
        grid = SweepGrid(
            apps=("nerf",),
            scale_factors=(8,),
            clocks_ghz=(0.9, 1.695),
            n_batches=(4, 16),
        )
        result = sweep_grid(grid, use_cache=False)
        from repro.core.emulator import Emulator

        config = NGPCConfig(
            scale_factor=8,
            nfp=NFPConfig(clock_ghz=0.9),
            n_pipeline_batches=4,
        )
        ref = Emulator(config).run("nerf", "multi_res_hashgrid", 2_073_600)
        got = result.point(
            "nerf", "multi_res_hashgrid", 8, 2_073_600,
            clock_ghz=0.9, n_batches=4,
        )
        assert got.accelerated_ms == pytest.approx(ref.accelerated_ms, rel=RTOL)
        # ambiguous axis without an explicit value
        with pytest.raises(KeyError):
            result.point("nerf", "multi_res_hashgrid", 8, 2_073_600)
        # off-grid axis value
        with pytest.raises(KeyError):
            result.point(
                "nerf", "multi_res_hashgrid", 8, 2_073_600,
                clock_ghz=1.0, n_batches=4,
            )

    def test_auto_engine_matches_vectorized(self):
        from repro.core.dse import _resolve_engine

        grid = SweepGrid(apps=("gia",), scale_factors=(8, 64))
        auto = sweep_grid(grid, engine="auto", use_cache=False)
        vec = sweep_grid(grid, engine="vectorized", use_cache=False)
        assert auto.engine == "vectorized"
        np.testing.assert_array_equal(auto.accelerated_ms, vec.accelerated_ms)
        assert _resolve_engine("auto", grid.resolve()) == "vectorized"

    def test_auto_engine_is_vectorized_on_million_point_grids(self):
        from repro.core.dse import _resolve_engine

        grid = SweepGrid(
            apps=("nerf", "gia"),
            scale_factors=tuple(2 ** i for i in range(8)),
            clocks_ghz=tuple(0.5 + 0.0125 * i for i in range(32)),
            grid_sram_kb=tuple(2 ** (4 + i) for i in range(16)),
            n_engines=tuple(2 ** i for i in range(8)),
            n_batches=tuple(2 ** i for i in range(16)),
        ).resolve()
        assert grid.size >= 1_000_000
        assert _resolve_engine("auto", grid) == "vectorized"

    def test_process_engine_is_gone(self):
        grid = SweepGrid(apps=("gia",), scale_factors=(8,))
        with pytest.raises(ValueError) as info:
            sweep_grid(grid, engine="process", use_cache=False)
        message = str(info.value)
        assert "'process'" in message
        for engine in ("vectorized", "scalar", "auto"):
            assert engine in message

    def test_block_tasks_tile_the_grid_exactly(self):
        from repro.core.dse import shard_plan

        grid = SweepGrid(
            apps=("nerf", "gia"),
            schemes=("multi_res_hashgrid",),
            scale_factors=(8, 16, 32, 64),
            pixel_counts=(1000, 2000),
            clocks_ghz=(0.9, 1.2, 1.695),
            n_batches=(4, 16),
        ).resolve()
        for n_workers in (1, 2, 7):
            tasks = shard_plan(grid, 4 * n_workers)
            covered = np.zeros(grid.shape, dtype=int)
            for (i, j, windows), task in tasks:
                covered[(i, j) + tuple(slice(lo, hi) for lo, hi in windows)] += 1
                # the task's axis subsets match the placement windows
                for axis_values, (lo, hi) in zip(task[2:], windows):
                    assert len(axis_values) == hi - lo
            assert covered.min() == covered.max() == 1, n_workers

    def test_block_tasks_split_multiple_axes_for_many_workers(self):
        from repro.core.dse import shard_plan

        # one (app, scheme) pair: chunks must come from the config axes
        # alone, spilling past the longest axis when workers demand it
        grid = SweepGrid(
            apps=("nerf",),
            schemes=("multi_res_hashgrid",),
            scale_factors=(8, 16, 32, 64),
            pixel_counts=tuple(range(1000, 6000, 1000)),
            clocks_ghz=(0.9, 1.2, 1.695),
            n_batches=(4, 16),
        ).resolve()
        tasks = shard_plan(grid, 4 * 16)
        # 4*16 target blocks on a 120-point grid: more chunks than the
        # longest single axis (5) can provide
        assert len(tasks) > 5
        covered = np.zeros(grid.shape, dtype=int)
        for (i, j, windows), _ in tasks:
            covered[(i, j) + tuple(slice(lo, hi) for lo, hi in windows)] += 1
        assert covered.min() == covered.max() == 1

    def test_ambiguous_query_axes_raise(self):
        grid = SweepGrid(
            apps=("gia",),
            schemes=("multi_res_hashgrid", "low_res_densegrid"),
            scale_factors=(8,),
            pixel_counts=(518_400, 2_073_600),
        )
        result = sweep_grid(grid, use_cache=False)
        with pytest.raises(KeyError):
            result.pareto_front("multi_res_hashgrid")  # which resolution?
        with pytest.raises(KeyError):
            result.cheapest_point_meeting_fps("gia", 60.0, n_pixels=518_400)
        assert result.pareto_front("multi_res_hashgrid", 518_400)
        assert result.cheapest_point_meeting_fps(
            "gia", 60.0, n_pixels=518_400, scheme="multi_res_hashgrid"
        ).scale_factor == 8

    def test_cheapest_point_carries_architecture_config(self):
        grid = SweepGrid(
            apps=("nerf",),
            scale_factors=(8, 16, 32, 64),
            pixel_counts=(3840 * 2160,),
            clocks_ghz=(0.9, 1.695),
            grid_sram_kb=(512, 1024),
        )
        result = sweep_grid(grid, use_cache=False)
        hit = result.cheapest_point_meeting_fps("nerf", 30.0)
        assert hit is not None
        axes = dict(hit.config_axes)
        assert set(axes) == {"clock_ghz", "grid_sram_kb"}
        # the named configuration really is feasible on the grid
        point = result.point(
            "nerf", "multi_res_hashgrid", hit.scale_factor, 3840 * 2160,
            clock_ghz=axes["clock_ghz"], grid_sram_kb=axes["grid_sram_kb"],
        )
        assert point.fps >= 30.0

    def test_no_overlap_conflicts_with_batches_axis(self):
        with pytest.raises(ValueError, match="overlap"):
            emulate_batch(
                "nerf", "multi_res_hashgrid", (8,),
                n_batches=(4, 16), overlap=False,
            )
        # without an explicit batches axis the N-D path honours overlap=False
        block = emulate_batch(
            "nerf", "multi_res_hashgrid", (8,),
            clocks_ghz=(1.695,), overlap=False,
        )
        assert block["accelerated_ms"].shape == (1, 1, 1, 1, 1, 1)

    def test_energy_batch_architecture_axes(self):
        from repro.core.energy import energy_per_frame, energy_per_frame_batch

        block = energy_per_frame_batch(
            "nvr", "multi_res_hashgrid", (8,), (2_073_600,),
            clocks_ghz=(0.9,), grid_sram_kb=(512,),
            n_engines=(8,), n_batches=(4,),
        )
        config = NGPCConfig(
            scale_factor=8,
            nfp=NFPConfig(
                clock_ghz=0.9, grid_sram_kb_per_engine=512, n_encoding_engines=8
            ),
            n_pipeline_batches=4,
        )
        scalar = energy_per_frame(
            "nvr", "multi_res_hashgrid", 8, 2_073_600, ngpc_config=config
        )
        for name in (
            "baseline_mj",
            "accelerated_mj",
            "baseline_fps_per_watt",
            "accelerated_fps_per_watt",
        ):
            assert float(block[name].flat[0]) == pytest.approx(
                getattr(scalar, name), rel=RTOL
            ), name


class TestShiftModulo:
    @given(
        st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=64),
        st.integers(0, 32),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_true_modulo_for_all_power_of_two_sizes(self, values, log2_t):
        table_size = 1 << log2_t
        arr = np.asarray(values, dtype=np.uint64)
        expected = arr % np.uint64(table_size) if table_size > 1 else arr * 0
        np.testing.assert_array_equal(shift_modulo(arr, table_size), expected)

    @given(st.integers(2, 2**24).filter(lambda v: v & (v - 1) != 0))
    @settings(max_examples=30, deadline=None)
    def test_rejects_non_power_of_two(self, table_size):
        with pytest.raises(ValueError):
            shift_modulo(np.asarray([1, 2, 3]), table_size)


class TestParetoFront:
    @given(
        st.lists(
            st.tuples(
                st.floats(0.1, 100.0, allow_nan=False),
                st.floats(0.1, 100.0, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_front_is_nondominated_and_sorted(self, points):
        costs = [c for c, _ in points]
        values = [v for _, v in points]
        front = pareto_front(costs, values)
        assert front, "the front is never empty"
        # sorted by ascending cost
        front_costs = [costs[i] for i in front]
        assert front_costs == sorted(front_costs)
        # no member dominated by any other point
        for i in front:
            for j in range(len(points)):
                if j == i:
                    continue
                dominates = (
                    costs[j] <= costs[i]
                    and values[j] >= values[i]
                    and (costs[j] < costs[i] or values[j] > values[i])
                )
                assert not dominates
        # every excluded point is strictly dominated by a front member,
        # or is an exact duplicate of one with a lower index (the
        # deterministic tie-break: one representative per (cost, value))
        excluded = set(range(len(points))) - set(front)
        for i in excluded:
            assert any(
                (
                    costs[j] <= costs[i]
                    and values[j] >= values[i]
                    and (costs[j] < costs[i] or values[j] > values[i])
                )
                or (costs[j] == costs[i] and values[j] == values[i] and j < i)
                for j in front
            )

    @given(
        st.lists(
            st.tuples(st.floats(0.1, 100.0, allow_nan=False),
                      st.floats(0.1, 100.0, allow_nan=False)),
            min_size=1,
            max_size=20,
        ),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_duplicate_ties_resolve_to_lowest_index(self, points, data):
        # inject exact (cost, value) duplicates at random positions: the
        # front must keep exactly one representative per distinct pair —
        # the lowest flat index — no matter where the copies sit
        n_copies = data.draw(st.integers(1, 8))
        for _ in range(n_copies):
            src = data.draw(st.integers(0, len(points) - 1))
            dst = data.draw(st.integers(0, len(points)))
            points.insert(dst, points[src])
        costs = [c for c, _ in points]
        values = [v for _, v in points]
        front = pareto_front(costs, values)
        pairs = [(costs[i], values[i]) for i in front]
        assert len(pairs) == len(set(pairs)), "one representative per pair"
        for i in front:
            first = min(
                j for j in range(len(points))
                if costs[j] == costs[i] and values[j] == values[i]
            )
            assert i == first, "ties keep the lowest flat index"

    def test_duplicates_keep_lowest_index(self):
        front = pareto_front([1.0, 1.0, 2.0], [5.0, 5.0, 4.0])
        assert front == [0]

    def test_validation(self):
        with pytest.raises(ValueError):
            pareto_front([[1.0]], [[2.0]])

    def test_sweep_result_front(self):
        result = sweep_grid()
        front = result.pareto_front("multi_res_hashgrid")
        areas = [p.area_overhead_pct for p in front]
        assert areas == sorted(areas)
        speeds = [p.average_speedup for p in front]
        assert speeds == sorted(speeds)  # on this grid: bigger buys more


def _unreduced_front(result, scheme, app=None):
    """The reference front: pareto_front over every batch point unreduced."""
    from repro.core.dse import DesignPoint

    j = result.grid.schemes.index(scheme)
    speedup = result.speedup[:, j, :, 0]  # (A, K, C, G, E, B)
    if app is None:
        benefit = speedup.mean(axis=0)
    else:
        benefit = speedup[result.grid.apps.index(app)]
    cost = np.broadcast_to(result.area_overhead_pct[..., None], benefit.shape)
    points = []
    for flat in pareto_front(cost.reshape(-1), benefit.reshape(-1)):
        k, c, g, e, b = np.unravel_index(flat, benefit.shape)
        points.append(DesignPoint(
            scale_factor=result.grid.scale_factors[k],
            area_overhead_pct=float(result.area_overhead_pct[k, c, g, e]),
            power_overhead_pct=float(result.power_overhead_pct[k, c, g, e]),
            speedups={
                a: float(speedup[i, k, c, g, e, b])
                for i, a in enumerate(result.grid.apps)
            },
            config_axes=config_axes(result.grid, c, g, e, b),
        ))
    return points


class TestBatchReducedFront:
    """SweepResult.pareto_front reduces over the batch axis before the
    front kernel; it must equal the unreduced call exactly."""

    GRID = SweepGrid(
        apps=("nerf", "gia"),
        schemes=("multi_res_hashgrid",),
        scale_factors=(8, 16, 32),
        clocks_ghz=(0.9, 1.2),
        grid_sram_kb=(512, 1024),
        n_batches=(2, 4, 8, 16),
    )

    def test_real_sweep_matches_unreduced(self):
        result = sweep_grid(self.GRID, use_cache=False)
        for app in (None,) + result.grid.apps:
            assert result.pareto_front("multi_res_hashgrid", app=app) == (
                _unreduced_front(result, "multi_res_hashgrid", app)
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_ties_across_batches_and_cells(self, seed):
        import dataclasses

        rng = np.random.default_rng(seed)
        result = sweep_grid(self.GRID, use_cache=False)
        # few distinct values: speedups tie exactly across batches of one
        # cost cell and across cells, and area costs tie across cells
        baseline = rng.integers(1, 4, result.baseline_ms.shape).astype(float)
        area = rng.integers(1, 3, result.area_overhead_pct.shape).astype(float)
        tied = dataclasses.replace(
            result,
            baseline_ms=baseline,
            accelerated_ms=np.ones_like(baseline),
            area_overhead_pct=area,
        )
        for app in (None,) + tied.grid.apps:
            assert tied.pareto_front("multi_res_hashgrid", app=app) == (
                _unreduced_front(tied, "multi_res_hashgrid", app)
            )


    @pytest.mark.parametrize("seed", range(8))
    def test_masked_plane_matches_unreduced_candidates(self, seed):
        from repro.core.dse import design_front

        rng = np.random.default_rng(seed)
        benefit = rng.integers(1, 4, (3, 2, 2, 1, 4)).astype(float)
        area = rng.integers(1, 3, benefit.shape[:-1]).astype(float)
        valid = rng.random(benefit.shape) < 0.6
        candidates = np.flatnonzero(valid.reshape(-1))
        cost = np.broadcast_to(area[..., None], benefit.shape).reshape(-1)
        expected = [
            tuple(int(i) for i in np.unravel_index(
                candidates[pos], benefit.shape
            ))
            for pos in pareto_front(
                cost[candidates], benefit.reshape(-1)[candidates]
            )
        ]
        assert design_front(benefit, area, valid) == expected


class TestConstraintQueries:
    def test_unreachable_returns_none(self):
        result = sweep_grid(SweepGrid(apps=("nerf",)))
        assert result.cheapest_point_meeting_fps("nerf", 10_000.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep_grid(SweepGrid(apps=("nerf",))).cheapest_point_meeting_fps(
                "nerf", 0.0
            )

    def test_grid_query_api(self):
        result = sweep_grid()
        hit = result.cheapest_point_meeting_fps(
            "gia", 60.0, scheme="multi_res_hashgrid"
        )
        assert hit.scale_factor == 8
        with pytest.raises(KeyError):
            result.point("gia", "multi_res_hashgrid", 8, 12345)


class TestMemoization:
    def test_cache_hit_returns_identical_object(self):
        cold = emulate("nerf", "multi_res_hashgrid", 8)
        warm = emulate("nerf", "multi_res_hashgrid", 8)
        assert warm is cold
        stats = cache_stats()["emulate"]
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_clear_breaks_identity_but_not_equality(self):
        cold = emulate("nerf", "multi_res_hashgrid", 8)
        clear_model_caches()
        fresh = emulate("nerf", "multi_res_hashgrid", 8)
        assert fresh is not cold
        assert fresh == cold  # frozen dataclass: same values

    def test_sweep_cache_returns_identical_result(self):
        first = sweep_grid()
        second = sweep_grid()
        assert second is first
        assert sweep_grid(use_cache=False) is not first

    def test_perturbed_calibration_bypasses_cache(self):
        """The fingerprint keeps sensitivity contexts cache-safe."""
        nominal = emulate("nerf", "multi_res_hashgrid", 8)
        with perturbed_overheads(2.0):
            perturbed = emulate("nerf", "multi_res_hashgrid", 8)
            assert perturbed.dma_ms == pytest.approx(2 * nominal.dma_ms, rel=RTOL)
        restored = emulate("nerf", "multi_res_hashgrid", 8)
        assert restored.accelerated_ms == pytest.approx(
            nominal.accelerated_ms, rel=RTOL
        )


class TestConfigValidation:
    @pytest.mark.parametrize("scale", (3, 6, 12, 24, 48, 96))
    def test_non_power_of_two_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="power of two"):
            NGPCConfig(scale_factor=scale)

    @pytest.mark.parametrize("scale", (1, 2, 4, 8, 16, 32, 64, 128))
    def test_power_of_two_scale_accepted(self, scale):
        assert NGPCConfig(scale_factor=scale).n_nfps == scale

    def test_non_positive_scale_still_rejected(self):
        with pytest.raises(ValueError):
            NGPCConfig(scale_factor=0)

    @pytest.mark.parametrize("kb", (3, 100, 1000, 1536))
    def test_non_power_of_two_grid_sram_rejected(self, kb):
        with pytest.raises(ValueError, match="power of two"):
            NFPConfig(grid_sram_kb_per_engine=kb)

    def test_non_power_of_two_activation_sram_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            NFPConfig(activation_sram_kb=96)

    def test_batch_path_applies_same_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            emulate_batch("nerf", "multi_res_hashgrid", (8, 12))
        with pytest.raises(ValueError, match="power of two"):
            SweepGrid(scale_factors=(24,))

    def test_batch_validation_memo_never_caches_a_failure(self):
        # the memo caches successful checks only: an invalid value must
        # raise on every call, not just the first
        for _ in range(2):
            with pytest.raises(ValueError, match="power of two"):
                emulate_batch("nerf", "multi_res_hashgrid", (8,),
                              grid_sram_kb=(3,))

    def test_batch_validation_memo_is_keyed_by_config(self):
        from repro.core.emulator import _validated

        first = NGPCConfig()
        second = NGPCConfig(nfp=NFPConfig(mac_rows=32))
        emulate_batch("nerf", "multi_res_hashgrid", (8,), ngpc=first,
                      grid_sram_kb=(256,))
        misses = _validated.cache_info().misses
        emulate_batch("nerf", "multi_res_hashgrid", (8,), ngpc=first,
                      grid_sram_kb=(256,))
        assert _validated.cache_info().misses == misses
        # the same value under a different config is checked again
        emulate_batch("nerf", "multi_res_hashgrid", (8,), ngpc=second,
                      grid_sram_kb=(256,))
        assert _validated.cache_info().misses > misses


class TestSweepGrid:
    def test_shape_size_points(self):
        grid = SweepGrid(
            apps=("nerf",),
            schemes=("multi_res_hashgrid", "low_res_densegrid"),
            scale_factors=(8, 64),
            pixel_counts=(1000, 2000, 3000),
        )
        assert grid.shape == (1, 2, 2, 3, 1, 1, 1, 1)
        assert grid.size == 12
        assert len(list(grid.points())) == 12

    def test_architecture_axes_shape_and_points(self):
        grid = SweepGrid(
            apps=("nerf",),
            schemes=("multi_res_hashgrid",),
            scale_factors=(8,),
            pixel_counts=(1000,),
            clocks_ghz=(0.9, 1.695),
            grid_sram_kb=(512, 1024),
            n_engines=(8, 16),
            n_batches=(4, 8, 16),
        )
        assert grid.shape == (1, 1, 1, 1, 2, 2, 2, 3)
        assert grid.size == 24
        points = list(grid.points())
        assert len(points) == 24
        # 8-tuple points in array order; last axis varies fastest
        assert points[0] == ("nerf", "multi_res_hashgrid", 8, 1000, 0.9, 512, 8, 4)
        assert points[1][-1] == 8

    def test_resolve_pins_architecture_axes(self):
        grid = SweepGrid()
        assert not grid.is_resolved
        resolved = grid.resolve()
        assert resolved.is_resolved
        assert resolved.clocks_ghz == (NFPConfig().clock_ghz,)
        assert resolved.grid_sram_kb == (NFPConfig().grid_sram_kb_per_engine,)
        assert resolved.n_engines == (NFPConfig().n_encoding_engines,)
        assert resolved.n_batches == (NGPCConfig().n_pipeline_batches,)
        # a non-default base config flows into the resolved axes
        custom = NGPCConfig(
            nfp=NFPConfig(clock_ghz=1.2), n_pipeline_batches=4
        )
        assert grid.resolve(custom).clocks_ghz == (1.2,)
        assert grid.resolve(custom).n_batches == (4,)

    def test_architecture_axis_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            SweepGrid(grid_sram_kb=(768,))
        with pytest.raises(ValueError):
            SweepGrid(clocks_ghz=(0.0,))
        with pytest.raises(ValueError):
            SweepGrid(n_engines=(0,))
        with pytest.raises(ValueError):
            SweepGrid(n_batches=(0,))
        with pytest.raises(ValueError):
            SweepGrid(clocks_ghz=())

    def test_rejects_unknown_axes(self):
        with pytest.raises(ValueError):
            SweepGrid(apps=("dlss",))
        with pytest.raises(ValueError):
            SweepGrid(schemes=("octree",))
        with pytest.raises(ValueError):
            SweepGrid(pixel_counts=(0,))
        with pytest.raises(ValueError):
            SweepGrid(apps=())

    def test_point_reconstruction_matches_scalar(self):
        result = sweep_grid()
        for app in APP_NAMES:
            rebuilt = result.point(app, "multi_res_hashgrid", 32, 1920 * 1080)
            scalar = emulate_uncached(app, "multi_res_hashgrid", 32)
            assert rebuilt.speedup == pytest.approx(scalar.speedup, rel=RTOL)
            assert rebuilt.amdahl_bound == pytest.approx(
                scalar.amdahl_bound, rel=RTOL
            )

    def test_to_records_flat_view(self):
        result = sweep_grid(
            SweepGrid(apps=("gia",), pixel_counts=(100, 200))
        )
        records = result.to_records()
        assert len(records) == result.grid.size
        assert {r["n_pixels"] for r in records} == {100, 200}


# ---------------------------------------------------------------------------
# registry-driven axis harness
# ---------------------------------------------------------------------------
# Value pools per registered axis.  The harness below iterates the axis
# REGISTRY, not a private list, so registering a new axis without adding
# a pool here fails loudly instead of silently skipping coverage.
_AXIS_VALUE_POOLS = {
    "apps": APP_NAMES,
    "schemes": ("multi_res_hashgrid", "low_res_densegrid"),
    "scale_factors": (8, 32, 64),
    "pixel_counts": (518_400, 2_073_600),
    "clocks_ghz": (0.9, 1.2, 1.695),
    "grid_sram_kb": (256, 512, 1024),
    "n_engines": (8, 16, 32),
    "n_batches": (4, 8, 16),
    "gridtypes": ("hash", "tiled"),
    "log2_hashmap_sizes": (14, 19, 22),
    "per_level_scales": (1.26, 1.5, 2.0),
}


@st.composite
def registry_grids(draw):
    """A random SweepGrid drawn generically from the axis registry.

    At most three axes sweep two values (8-point ceiling keeps the
    scalar reference engine cheap); every other axis pins one value.
    Extension axes may also stay unset, exercising the inherit path.
    """
    names = [spec.name for spec in AXES]
    multi = draw(
        st.lists(st.sampled_from(names), min_size=0, max_size=3, unique=True)
    )
    kwargs = {}
    for spec in AXES:
        pool = _AXIS_VALUE_POOLS[spec.name]
        if spec.name in multi:
            kwargs[spec.name] = tuple(
                draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2,
                              unique=True))
            )
        elif spec.legacy or draw(st.booleans()):
            kwargs[spec.name] = (draw(st.sampled_from(pool)),)
    return SweepGrid(**kwargs)


class TestRegistryAxes:
    """Generic engine-parity coverage over every registered axis."""

    def test_every_registered_axis_has_a_value_pool(self):
        assert set(_AXIS_VALUE_POOLS) == {spec.name for spec in AXES}

    def test_registry_extension_axes_present(self):
        from repro.core.axes import EXTENSION_AXIS_FIELDS

        assert EXTENSION_AXIS_FIELDS == (
            "gridtypes", "log2_hashmap_sizes", "per_level_scales"
        )

    @given(registry_grids())
    @settings(max_examples=25, deadline=None)
    def test_engines_agree_on_registry_grids(self, grid):
        """vectorized == scalar bit for bit, whatever axes are swept."""
        vec = sweep_grid(grid, engine="vectorized", use_cache=False)
        scal = sweep_grid(grid, engine="scalar", use_cache=False)
        resolved = grid.resolve()
        assert vec.accelerated_ms.shape == resolved.shape
        assert len(resolved.shape) == (11 if resolved.is_extended else 8)
        for name in _FIELDS:
            np.testing.assert_array_equal(
                getattr(vec, name), getattr(scal, name), err_msg=name
            )

    @given(
        st.sampled_from(_AXIS_VALUE_POOLS["gridtypes"]),
        st.sampled_from(_AXIS_VALUE_POOLS["log2_hashmap_sizes"]),
        st.sampled_from(_AXIS_VALUE_POOLS["per_level_scales"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_encoding_axes_reach_the_batched_fast_path(self, gt, log2_t, b):
        """The three new axes flow through emulate_batch end to end."""
        block = emulate_batch(
            "nerf", "multi_res_hashgrid", (8,), (2_073_600,),
            gridtypes=(gt,), log2_hashmap_sizes=(log2_t,),
            per_level_scales=(b,),
        )
        assert block["accelerated_ms"].shape == (1,) * 9
        assert np.all(np.isfinite(block["accelerated_ms"]))

    def test_inactive_extension_axes_keep_seed_shape(self):
        """Registered-but-unswept axes stay invisible: 8-dim arrays."""
        from repro.core.axes import (
            GRIDTYPE_AUTO, LOG2_HASHMAP_INHERIT, PER_LEVEL_SCALE_INHERIT,
        )

        grid = SweepGrid(
            apps=("nerf",), scale_factors=(8,),
            gridtypes=(GRIDTYPE_AUTO,),
            log2_hashmap_sizes=(LOG2_HASHMAP_INHERIT,),
            per_level_scales=(PER_LEVEL_SCALE_INHERIT,),
        )
        assert not grid.is_extended
        result = sweep_grid(grid, use_cache=False)
        assert result.accelerated_ms.ndim == 8
        plain = sweep_grid(
            SweepGrid(apps=("nerf",), scale_factors=(8,)), use_cache=False
        )
        np.testing.assert_array_equal(
            result.accelerated_ms, plain.accelerated_ms
        )

"""Tests for the design-space exploration utilities (Figs. 12 + 15)."""

import pytest

from repro.api import InfeasibleQueryError, Session
from repro.calibration import paper
from repro.core.config import SCALE_FACTORS
from repro.core.dse import (
    DesignPoint,
    SweepGrid,
    efficiency_sweet_spot,
    pareto_front,
)

HASHGRID = ("multi_res_hashgrid",)


@pytest.fixture(scope="module")
def points():
    """One design point per scale factor, each from its own sweep."""
    session = Session()
    return [
        session.sweep(
            SweepGrid(schemes=HASHGRID, scale_factors=(scale,))
        ).pareto()[0]
        for scale in SCALE_FACTORS
    ]


def smallest_scale(app, fps, n_pixels, scales=SCALE_FACTORS):
    """The cheapest scale reaching ``fps``, or None."""
    sweep = Session().sweep(SweepGrid(
        apps=(app,), schemes=HASHGRID, scale_factors=tuple(scales),
        pixel_counts=(n_pixels,),
    ))
    try:
        return sweep.cheapest(fps=fps).scale_factor
    except InfeasibleQueryError:
        return None


class TestDesignSpace:
    def test_four_points(self, points):
        assert [p.scale_factor for p in points] == [8, 16, 32, 64]

    def test_costs_and_benefits_grow(self, points):
        areas = [p.area_overhead_pct for p in points]
        speeds = [p.average_speedup for p in points]
        assert areas == sorted(areas)
        assert speeds == sorted(speeds)

    def test_per_app_speedups_present(self, points):
        for p in points:
            assert set(p.speedups) == {"nerf", "nsdf", "gia", "nvr"}

    def test_efficiency_declines_with_scale(self, points):
        """Speedup-per-area falls as the rest kernels start dominating."""
        ratios = [p.speedup_per_area_pct for p in points]
        assert ratios[0] == max(ratios)

    def test_sweet_spot_is_smallest_scale(self, points):
        assert efficiency_sweet_spot(points).scale_factor == 8

    def test_sweet_spot_validation(self):
        with pytest.raises(ValueError):
            efficiency_sweet_spot([])


class TestParetoFrontier:
    def test_all_scales_on_frontier(self, points):
        """Bigger always costs more AND helps more here, so none dominate."""
        front = Session().sweep(SweepGrid(schemes=HASHGRID)).pareto()
        assert [p.to_dict() for p in front] == [p.to_dict() for p in points]

    def test_dominated_point_removed(self):
        a = DesignPoint(8, 5.0, 3.0, {"nerf": 10.0})
        b = DesignPoint(16, 10.0, 6.0, {"nerf": 8.0})  # dominated by a
        keep = pareto_front(
            [p.area_overhead_pct for p in (a, b)],
            [p.average_speedup for p in (a, b)],
        )
        assert keep == [0]


class TestSmallestScale:
    def test_nerf_4k30_needs_more_than_minimum(self):
        """NGPC-8 cannot hit NeRF 4K@30; a mid-size cluster can."""
        scale = smallest_scale("nerf", 30, paper.RESOLUTIONS["4k"])
        assert scale in (16, 32, 64)
        assert smallest_scale(
            "nerf", 30, paper.RESOLUTIONS["4k"], scales=(8,)
        ) is None

    def test_gia_fhd_needs_smallest(self):
        assert smallest_scale("gia", 60, paper.RESOLUTIONS["fhd"]) == 8

    def test_unreachable_target_returns_none(self):
        assert smallest_scale("nerf", 240, paper.RESOLUTIONS["8k"]) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            smallest_scale("nerf", 0, 10**6)

"""Design-space exploration: the architect's read of Figs. 12 + 15."""

from repro.analysis import format_table
from repro.api import InfeasibleQueryError, Session, SweepGrid
from repro.calibration import paper
from repro.core.config import SCALE_FACTORS
from repro.core.dse import efficiency_sweet_spot

HASHGRID = ("multi_res_hashgrid",)


def design_points():
    """One design point per scale factor, each from its own sweep."""
    session = Session()
    return [
        session.sweep(
            SweepGrid(schemes=HASHGRID, scale_factors=(scale,))
        ).pareto()[0]
        for scale in SCALE_FACTORS
    ]


def bench_design_space_pareto(benchmark):
    points = benchmark(design_points)
    rows = [
        [f"NGPC-{p.scale_factor}", f"{p.area_overhead_pct:.2f}%",
         f"{p.average_speedup:.1f}x", f"{p.speedup_per_area_pct:.2f}"]
        for p in points
    ]
    print("\n" + format_table(
        ["config", "area", "avg speedup", "speedup / area %"],
        rows,
        title="NGPC design space (hashgrid)",
    ))
    # every scale trades more area for more speed: all Pareto-optimal
    assert len(Session().sweep(SweepGrid(schemes=HASHGRID)).pareto()) == 4
    # the marginal return shrinks: NGPC-8 is the efficiency sweet spot
    assert efficiency_sweet_spot(points).scale_factor == 8
    speeds = [p.average_speedup for p in points]
    assert speeds == sorted(speeds)


def bench_smallest_scale_targets(benchmark):
    """What does each Fig. 14 capability actually cost?"""

    def smallest_scale(sweep, app, fps, res):
        try:
            return sweep.cheapest(
                app=app, fps=fps, n_pixels=paper.RESOLUTIONS[res]
            ).scale_factor
        except InfeasibleQueryError:
            return None

    def sweep():
        handle = Session().sweep(SweepGrid(
            schemes=HASHGRID,
            pixel_counts=(paper.RESOLUTIONS["4k"], paper.RESOLUTIONS["8k"]),
        ))
        return {
            (app, res, fps): smallest_scale(handle, app, fps, res)
            for app, res, fps in (
                ("nerf", "4k", 30), ("gia", "8k", 120),
                ("nvr", "8k", 120), ("nerf", "8k", 120),
            )
        }

    results = benchmark(sweep)
    print()
    for (app, res, fps), scale in results.items():
        label = f"NGPC-{scale}" if scale else "not achievable"
        print(f"  {app} {res}@{fps}: {label}")
    assert results[("nerf", "4k", 30)] is not None
    assert results[("gia", "8k", 120)] == 8  # GIA is cheap
    assert results[("nerf", "8k", 120)] is None  # matches Fig. 14

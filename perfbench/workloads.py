"""The benchmark workloads: seeded grids, set-up and one op each.

Every workload is a closed loop with one caller in one process: the
next op starts only after the previous one returned.  Grids come from
the workload seed; each op draws its own clock offset, so no op hits a
memo by accident.  An op times its phases with ``perf_counter`` and
returns an :class:`Op`; answers the correctness check needs are kept
only for the ops it samples.

Phases (the end-to-end metrics' per-workload meaning):

========  ===============  ================  ======================
phase     dense-local      adaptive-local    remote-mixed
========  ===============  ================  ======================
cold      sweep(g)         sweep(g).pareto   cold sweep(g).result
                                             (65,536 points)
pareto    sweep(g).pareto  sweep(g).pareto   3 warm sweep(g).pareto
cheapest  .cheapest(app, fps=60) for every app on the op's sweep handle
========  ===============  ================  ======================
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import Session
from repro.core.dse import RESULT_ARRAY_FIELDS, SweepGrid
from repro.gpu.baseline import FHD_PIXELS

HERE = os.path.dirname(os.path.abspath(__file__))
SCHEME = "multi_res_hashgrid"
FPS = 60.0
#: an op slower than this counts as failed (timed out)
OP_TIMEOUT_S = 60.0


def pow2(lo: int, n: int) -> Tuple[int, ...]:
    return tuple(2 ** (lo + i) for i in range(n))


def make_grid(rng: random.Random, apps, n_clocks, sram, engines,
              batches) -> SweepGrid:
    """A canonical grid whose clock axis starts at a fresh random offset."""
    offset = rng.uniform(0.0, 0.0125)
    clocks = tuple(round(0.5 + 0.0125 * i + offset, 9) for i in range(n_clocks))
    return SweepGrid(
        apps=tuple(apps), scale_factors=pow2(0, 8),
        pixel_counts=(FHD_PIXELS,), clocks_ghz=clocks,
        grid_sram_kb=sram, n_engines=engines, n_batches=batches,
    ).resolve().normalized()


def digest(result) -> str:
    """Hash of every result array (shape and bytes), for bit identity."""
    h = hashlib.blake2b(digest_size=20)
    for name in RESULT_ARRAY_FIELDS:
        array = np.ascontiguousarray(getattr(result, name))
        h.update(f"{name}{array.shape}{array.dtype}".encode())
        h.update(memoryview(array).cast("B"))
    return h.hexdigest()


def front_dicts(points) -> List[Dict]:
    return [p.to_dict() for p in points]


def cheapest_all(sweep, grid, out: "Op", sample: bool) -> None:
    """``cheapest(app, fps=60)`` for every app, timed as one phase sample.

    The apps' queries differ in cost on the adaptive path, so a sample
    per app would make the phase median jump between two modes.
    """
    t0 = time.perf_counter()
    hits = [(app, sweep.cheapest(app=app, fps=FPS)) for app in grid.apps]
    out.phase("cheapest", time.perf_counter() - t0)
    if sample:
        out.answers += [("cheapest", (grid, app), hit.to_dict())
                        for app, hit in hits]


@dataclass
class Op:
    """One closed-loop op: its wall, phase times and sampled answers."""

    wall: float = 0.0
    points: int = 0
    phases: Dict[str, List[float]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    #: (kind, grid, answer) triples, filled only when the op is sampled
    answers: List[Tuple] = field(default_factory=list)
    error: Optional[str] = None

    def phase(self, name: str, seconds: float) -> None:
        self.phases.setdefault(name, []).append(seconds)


class Probe:
    """Marks an op's timed region; the traced run hooks it to open spans."""

    def __init__(self):
        self.t0 = 0.0

    def start(self) -> float:
        self.t0 = time.perf_counter()
        return self.t0

    def stop(self) -> float:
        return time.perf_counter() - self.t0


class Workload:
    name = ""
    #: share of ops (after the first) the correctness check samples,
    #: and the most it samples in one run
    check_share = 1.0
    check_cap = 1 << 30
    #: reference results the check keeps; ops of a local workload never
    #: share a grid, so one bounds the check's memory
    check_refs = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        # the warm-up draws from its own stream: timed grids never repeat it
        self.warm_rng = random.Random(seed + 10_000_019)
        self.session: Optional[Session] = None

    def setup(self) -> None:
        self.session = Session.local()

    def warmup(self) -> None:
        self.op(Probe(), sample=False, rng=self.warm_rng)

    def op(self, probe: Probe, sample: bool, rng=None) -> Op:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def service_stats(self) -> Optional[Dict]:
        return None

    def signal_server(self, on: bool) -> None:
        pass  # only remote-mixed has a server to switch

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


class DenseLocal(Workload):
    """Exhaustive 1,048,576-point sweeps through ``Session.local()``."""

    name = "dense-local"
    check_share, check_cap = 0.1, 6

    def grid(self, rng) -> SweepGrid:
        return make_grid(rng, ("gia", "nerf", "nsdf", "nvr"), 64,
                         pow2(4, 8), pow2(0, 8), pow2(0, 8))

    def op(self, probe, sample, rng=None):
        rng = rng or self.rng
        grid = self.grid(rng)
        out = Op(points=grid.size)
        t0 = probe.start()
        sweep = self.session.sweep(grid, explore="exhaustive")
        t1 = time.perf_counter()
        front = sweep.pareto()
        t2 = time.perf_counter()
        cheapest_all(sweep, grid, out, sample)
        out.wall = probe.stop()
        out.phase("cold", t1 - t0)
        out.phase("pareto", t2 - t0)
        if sample:
            out.answers.append(("pareto", grid, front_dicts(front)))
        return out


class AdaptiveLocal(Workload):
    """4,194,304-point grids answered by the adaptive explorer."""

    name = "adaptive-local"
    check_share, check_cap = 0.05, 2

    def grid(self, rng) -> SweepGrid:
        return make_grid(rng, ("gia", "nerf"), 128,
                         pow2(4, 16), pow2(0, 8), pow2(0, 16))

    def op(self, probe, sample, rng=None):
        rng = rng or self.rng
        grid = self.grid(rng)
        session = Session.local()  # a fresh explorer per op
        out = Op(points=grid.size)
        try:
            t0 = probe.start()
            sweep = session.sweep(grid)
            front = sweep.pareto()
            t1 = time.perf_counter()
            cheapest_all(sweep, grid, out, sample)
            out.wall = probe.stop()
        finally:
            session.close()
        if sweep.explore != "adaptive":
            raise RuntimeError(f"expected an adaptive sweep, got {sweep!r}")
        out.phase("cold", t1 - t0)
        out.phase("pareto", t1 - t0)
        stats = sweep.explore_stats
        out.counters = {
            "explore.evaluated_fraction":
                stats["points_evaluated"] / stats["points_total"],
            "explore.blocks_evaluated": stats["blocks_evaluated"],
            "explore.blocks_pruned": stats["blocks_pruned"],
            "explore.bound_violations": stats["bound_violations"],
        }
        if sample:
            out.answers.append(("pareto", grid, front_dicts(front)))
        return out


class RemoteMixed(Workload):
    """One ``Session.remote`` client against a ``repro serve`` process.

    The server runs with ``--store``, so every cold sweep also writes its
    blocks and the whole sweep to the persistent store: this is where
    the benchmark measures the store's write path.
    """

    name = "remote-mixed"
    n_points = 20
    n_warm = 3
    #: warm grids are drawn from this many most recent cold grids
    recent_window = 4
    check_refs = recent_window + 2

    def __init__(self, seed, workdir, launcher_spans: Optional[str] = None):
        super().__init__(seed, workdir)
        self.launcher_spans = launcher_spans
        self.server: Optional[subprocess.Popen] = None
        self.recent: List[SweepGrid] = []
        pool_rng = random.Random(seed + 7)
        apps = ("gia", "nerf", "nsdf", "nvr")
        self.point_pool = [
            (pool_rng.choice(apps), pool_rng.choice(pow2(0, 8)))
            for _ in range(8)
        ]

    # Half the sizes the remote path is usually quoted at (131,072 and
    # 524,288 points): a cycle then takes about 3.5 s, so a 20 s run
    # holds five or six and its medians are steadier.
    def cold_grid(self, rng) -> SweepGrid:  # 65,536 points
        return make_grid(rng, ("gia", "nerf"), 16,
                         pow2(4, 8), pow2(0, 4), pow2(0, 8))

    def stream_grid(self, rng) -> SweepGrid:  # 262,144 points
        return make_grid(rng, ("gia", "nerf"), 64,
                         pow2(4, 8), pow2(0, 8), pow2(0, 4))

    # -- server lifecycle ---------------------------------------------------
    def setup(self) -> None:
        src = os.path.join(os.path.dirname(HERE), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        flags = ["--port", "0", "--store", os.path.join(self.workdir, "store")]
        if self.launcher_spans:
            cmd = [sys.executable, os.path.join(HERE, "serve.py"),
                   self.launcher_spans] + flags
        else:
            cmd = [sys.executable, "-m", "repro", "serve"] + flags
        log_path = os.path.join(self.workdir, "serve.log")
        with open(log_path, "wb") as log:
            self.server = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
            )
        port = self._wait_for_port(log_path)
        self.session = Session.remote(port=port, timeout=OP_TIMEOUT_S)
        deadline = time.monotonic() + 60
        while not self.session.health().get("ok"):
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)

    def _wait_for_port(self, log_path: str) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with open(log_path, "rb") as log:
                match = re.search(
                    rb"listening on http://[^:]+:(\d+)", log.read()
                )
            if match:
                return int(match.group(1))
            if self.server.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"repro serve did not start (log: {log_path})")

    def warmup(self) -> None:
        """Small grids through every route, and the point pool once."""
        rng = self.warm_rng
        small = make_grid(rng, ("gia", "nerf"), 8, pow2(4, 4), pow2(0, 2),
                          pow2(0, 2))
        self.session.sweep(small).result
        self.session.sweep(small).pareto()
        for _ in self.session.sweep(
            make_grid(rng, ("gia", "nerf"), 8, pow2(4, 4), pow2(0, 2),
                      pow2(0, 2)), lazy=True,
        ).watch():
            pass
        for app, scale in self.point_pool:
            self.session.point(app, SCHEME, scale, FHD_PIXELS)

    def signal_server(self, on: bool) -> None:
        """Switch the traced server's recorder on or off."""
        if self.server is not None and self.launcher_spans:
            os.kill(self.server.pid,
                    signal.SIGUSR1 if on else signal.SIGUSR2)

    def service_stats(self) -> Dict:
        stats = self.session.stats()
        store = stats["store"]
        return {
            "evaluations": stats["evaluations"],
            "cache_hits": stats["cache"]["ram_hits"],
            "coalesced": stats["coalesced"],
            "rejects": stats["ops"]["http_metrics"]["rejects"],
            "disk_hits": stats["cache"]["disk_hits"],
            "blocks_total": store["blocks_total"],
            "blocks_cached": store["blocks_cached"],
            "blocks_evaluated": store["blocks_evaluated"],
            "bytes_written": store["sweeps"]["bytes"] + store["blocks"]["bytes"],
        }

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.server.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def teardown(self) -> None:
        super().teardown()
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server = None

    # -- the op -------------------------------------------------------------
    def op(self, probe, sample, rng=None):
        rng = rng or self.rng
        session = self.session
        grid = self.cold_grid(rng)
        stream = self.stream_grid(rng)
        recent = (self.recent + [grid])[-self.recent_window:]
        warm = [rng.choice(recent) for _ in range(self.n_warm)]
        picks = [rng.choice(self.point_pool) for _ in range(self.n_points)]
        out = Op(points=(1 + self.n_warm) * grid.size + stream.size
                 + self.n_points)
        fronts = []
        points = []
        t0 = probe.start()
        cold = session.sweep(grid).result
        t1 = time.perf_counter()
        out.phase("cold", t1 - t0)
        handles = []
        for warm_grid in warm:
            ta = time.perf_counter()
            handle = session.sweep(warm_grid)
            front = handle.pareto()
            out.phase("pareto", time.perf_counter() - ta)
            handles.append((warm_grid, handle, front))
        for warm_grid, handle, _ in handles:  # answered client-side
            cheapest_all(handle, warm_grid, out, sample)
        ta = time.perf_counter()
        first = None
        for front in session.sweep(stream, lazy=True).watch():
            if first is None:
                first = time.perf_counter() - ta
            fronts.append(front)
        out.phase("first_front", first)
        out.phase("stream_done", time.perf_counter() - ta)
        for pick_app, scale in picks:
            ta = time.perf_counter()
            points.append(session.point(pick_app, SCHEME, scale, FHD_PIXELS))
            out.phase("point", time.perf_counter() - ta)
        out.wall = probe.stop()
        self.recent = recent
        out.counters = {"service.progress.fronts": len(fronts)}
        if sample:
            out.answers.append(("result", grid, digest(cold)))
            out.answers += [("pareto", g, front_dicts(f))
                            for g, _, f in handles]
            out.answers.append(("pareto", stream, front_dicts(fronts[-1])))
            out.answers += [
                ("point", pick, dataclasses.astuple(point))
                for pick, point in zip(picks, points)
            ]
        return out


WORKLOADS = {
    cls.name: cls for cls in (DenseLocal, AdaptiveLocal, RemoteMixed)
}

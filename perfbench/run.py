"""The repository benchmark: three closed-loop workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dense-local --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics named in
``BENCHMARK.json`` with tracing off.  ``--trace 1`` is the separate
traced run: ops alternate between untraced and traced, the traced ones
record spans through :mod:`spans` (the server too, on
``remote-mixed``), and the per-layer metrics come from those spans and
from the program's public counters.  Either way the answers are checked
against an independent reference outside the timed region, and the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it are a run header and a human-readable report.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

# Transparent huge pages are granted only while the kernel has
# unfragmented memory, so with NumPy's default madvise the same op ran
# either fast with a high RSS or slow with a low one, run by run.  The
# benchmark keeps every process it starts on 4 KiB pages.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import OP_TIMEOUT_S, WORKLOADS, Op, Probe  # noqa: E402

#: extra set-up samples run in fresh interpreters (plus this run's own)
SETUP_SAMPLES = 3
#: peak RSS is read after this many ops: the remote server keeps recent
#: results in its LRU, so a later reading would grow with the op count
RSS_AFTER_OPS = 3
#: ``remote-mixed`` service counters: exact change per cycle (two cold
#: sweeps of 16 store blocks each; 3 warm sweeps and 20 points hit the LRU)
REMOTE_PER_CYCLE = {"evaluations": 2, "cache_hits": 23, "coalesced": 0,
                    "rejects": 0, "disk_hits": 0, "blocks_evaluated": 32}
#: per-layer metric -> ``service_stats()`` counter, as a change per op
STATS_METRICS = {
    "service.sweep_service.evaluations": "evaluations",
    "service.sweep_service.cache_hits": "cache_hits",
    "service.sweep_service.coalesced": "coalesced",
    "service.ops.rejects": "rejects",
    "store.disk_hits": "disk_hits",
    "store.ram_hits": "cache_hits",
    "store.blocks_evaluated": "blocks_evaluated",
    "store.bytes_written": "bytes_written",
}
#: metric name -> workloads whose ops run through that layer
LAYERS_PATH = os.path.join(HERE, "LAYERS.json")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def percentile_report(values):
    """``p50`` plus the highest percentile with ten samples beyond it."""
    n = len(values)
    if n == 0:
        return "no samples"
    text = f"p50={statistics.median(values):.6g} (n={n})"
    pct = int(100 * (1 - 10 / n))
    if pct > 50:
        text += f", p{pct}={float(np.percentile(values, pct)):.6g}"
    return text


class TracedProbe(Probe):
    """Opens the op's root span and switches the recorders on."""

    def __init__(self, recorder: spans.Recorder, op_id: int, workload):
        super().__init__()
        self.recorder = recorder
        self.op_id = op_id
        self.workload = workload
        self.root = None
        self.interval = None

    def start(self):
        self.workload.signal_server(True)
        self.recorder.op = self.op_id
        self.recorder.enabled = True
        self.root = self.recorder.begin("bench.op")
        return super().start()

    def stop(self):
        wall = super().stop()
        if self.root is not None:
            self.recorder.end(self.root)
            self.interval = (self.root[spans.START], self.root[spans.END])
            self.root = None
            self.recorder.enabled = False
            self.recorder.op = None
            self.workload.signal_server(False)
        return wall


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_workload(name, seed, workdir, traced, server_spans):
    cls = WORKLOADS[name]
    if name == "remote-mixed":
        workload = cls(seed, workdir,
                       launcher_spans=server_spans if traced else None)
    else:
        workload = cls(seed, workdir)
    workload.setup()
    workload.warmup()
    return workload


def setup_sample(name, seed) -> float:
    """One set-up in a fresh interpreter (imports, server, warm-up op)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

def run_loop(workload, seconds, traced, recorder):
    """Closed loop: the next op starts only when the previous returned.

    A new op starts while at least half of a median op still fits in
    ``seconds``.  In the traced run even ops (the first included) are
    traced.
    """
    check_rng = random.Random(workload.seed * 7919 + 17)
    ops, probes, stats_deltas = [], [], []
    peak_rss_mb = None
    sampled = 0
    start = time.perf_counter()
    while True:
        walls = [op.wall for op in ops if op.error is None]
        elapsed = time.perf_counter() - start
        if ops and elapsed + 0.5 * (statistics.median(walls) if walls
                                    else 0.0) > seconds:
            break
        i = len(ops)
        sample = i == 0 or (sampled < workload.check_cap
                            and check_rng.random() < workload.check_share)
        sampled += sample
        trace_this = traced and i % 2 == 0
        probe = TracedProbe(recorder, i, workload) if trace_this else Probe()
        before = workload.service_stats() if trace_this else None
        try:
            op = workload.op(probe, sample)
        except Exception:  # a failed op is counted, the loop goes on
            op = Op(error=traceback.format_exc(limit=3))
            op.wall = probe.stop()
        if op.error is None and op.wall > OP_TIMEOUT_S:
            op.error = f"timed out ({op.wall:.1f} s > {OP_TIMEOUT_S} s)"
        if before is not None:
            after = workload.service_stats()
            stats_deltas.append({k: after[k] - before[k] for k in after})
        ops.append(op)
        probes.append(probe if trace_this else None)
        if len(ops) == RSS_AFTER_OPS:
            peak_rss_mb = workload.peak_rss_mb()
    if peak_rss_mb is None:
        peak_rss_mb = workload.peak_rss_mb()
    return ops, probes, stats_deltas, peak_rss_mb


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def phase_samples(ops, phase):
    return [v for op in ops if op.error is None
            for v in op.phases.get(phase, ())]


def end_to_end(ops, setup_values, peak_rss_mb):
    good = [op for op in ops if op.error is None]
    return {
        "setup_s": statistics.median(setup_values),
        "op_p50_s": statistics.median(op.wall for op in good),
        "cold_p50_s": statistics.median(phase_samples(ops, "cold")),
        "pareto_p50_s": statistics.median(phase_samples(ops, "pareto")),
        "cheapest_p50_s": statistics.median(phase_samples(ops, "cheapest")),
        "points_per_s": statistics.median(op.points / op.wall
                                          for op in good),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(ops, probes, stats_deltas, client_spans, server_spans,
              bytes_in, names):
    """Per-layer metrics per traced op, from spans and public counters."""
    traced = [(op, p) for op, p in zip(ops, probes)
              if p is not None and p.interval is not None
              and op.error is None]
    n = max(1, len(traced))
    intervals = [p.interval for _, p in traced]

    def in_traced_op(span):
        return any(lo <= span[spans.START] <= hi for lo, hi in intervals)

    server = [s for s in server_spans if in_traced_op(s)]
    everything = [s for s in client_spans if s[spans.END] is not None]
    everything += server
    times = spans.layer_times(everything)

    # op coverage: the root span's direct children (the API layer)
    coverage, unattributed = [], 0.0
    for span in everything:
        if span[spans.NAME] != "bench.op":
            continue
        wall = span[spans.END] - span[spans.START]
        covered = spans.union_length(
            ((c[spans.START], c[spans.END]) for c in everything
             if c[spans.PARENT] is span),
            span[spans.START], span[spans.END],
        )
        coverage.append(covered / wall)
        unattributed += wall - covered

    # HTTP round trips minus the server's own spans
    server_intervals = [(s[spans.START], s[spans.END]) for s in server]
    http_gap = 0.0
    for span in everything:
        if span[spans.NAME].startswith("service.client.request."):
            rtt = span[spans.END] - span[spans.START]
            http_gap += rtt - spans.union_length(
                server_intervals, span[spans.START], span[spans.END]
            )

    counts = {}
    for span in everything:
        attrs = span[spans.ATTRS] or {}
        if span[spans.NAME] == "core.dse.finalize":
            key = f"core.dse.engine.{attrs['engine']}.count"
            counts[key] = counts.get(key, 0) + 1
        elif span[spans.NAME] == "core.emulator.emulate_batch":
            counts["core.emulator.emulate_batch.points"] = (
                counts.get("core.emulator.emulate_batch.points", 0)
                + attrs["points"])
            counts["core.emulator.bytes_out"] = (
                counts.get("core.emulator.bytes_out", 0) + attrs["bytes"])
    untraced_walls = [op.wall for op, p in zip(ops, probes)
                      if p is None and op.error is None]
    traced_walls = [op.wall for op, _ in traced]
    overhead = (100.0 * (statistics.median(traced_walls)
                         / statistics.median(untraced_walls) - 1.0)
                if traced_walls and untraced_walls else 0.0)

    out = {}
    for name in names:
        if name.endswith(".busy_s") or name.endswith(".self_s"):
            layer, kind = name.rsplit(".", 1)
            entry = times.get(layer)
            out[name] = entry[kind[:-2]] / n if entry else 0.0
        elif name in counts:
            out[name] = counts[name] / n
        elif name in STATS_METRICS:
            key = STATS_METRICS[name]
            out[name] = sum(d[key] for d in stats_deltas) / n
        elif name == "store.block_reuse_ratio":
            total = sum(d["blocks_total"] for d in stats_deltas)
            cached = sum(d["blocks_cached"] for d in stats_deltas)
            out[name] = cached / total if total else 0.0
        elif name == "service.client.bytes_in":
            out[name] = bytes_in / n
        elif name == "service.http.unattributed_s":
            out[name] = http_gap / n
        elif name == "trace.coverage_min":
            out[name] = min(coverage) if coverage else 0.0
        elif name == "trace.unattributed_s":
            out[name] = unattributed / n
        elif name == "trace.overhead_pct":
            out[name] = overhead
        else:  # op counters (explore, progress), mean per op
            values = [op.counters[name] for op, _ in traced
                      if name in op.counters]
            out[name] = sum(values) / n if values else 0.0
    return out, coverage


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def run_header(args):
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "git_sha": sha,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    traced = bool(args.trace)
    workdir = os.path.join(os.getcwd(), ".perfbench_tmp",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    recorder = spans.Recorder()
    bytes_counter = spans.install(recorder) if traced else None
    server_spans_path = os.path.join(workdir, "server-spans.json")
    workload = None
    try:
        workload = setup_workload(args.workload, args.seed, workdir, traced,
                                  server_spans_path)
        setup_s = time.perf_counter() - _T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(json.dumps({"header": run_header(args)}), flush=True)
        setup_values = [setup_s]
        if not traced:
            setup_values += [setup_sample(args.workload, args.seed)
                             for _ in range(SETUP_SAMPLES)]

        stats_before = workload.service_stats()
        ops, probes, stats_deltas, peak_rss_mb = run_loop(
            workload, args.seconds, traced, recorder)
        stats_after = workload.service_stats()
        errors = []
        if stats_before is not None:
            errors += checks.service_counter_errors(
                stats_before, stats_after, len(ops), REMOTE_PER_CYCLE)
    finally:
        if workload is not None:
            workload.teardown()
        if args.setup_only:
            remove_workdir(workdir)

    # -- correctness, outside the timed region ------------------------------
    checker = checks.Checker(max_refs=workload.check_refs)
    failed = 0
    first_answers = None
    for i, op in enumerate(ops):
        if op.error is None and op.answers:
            first_answers = first_answers or op.answers
            bad = checker.mismatches(op.answers)
            if bad:
                op.error = "; ".join(bad)
        if op.error is not None:
            failed += 1
            print(f"op {i} failed: {op.error}", file=sys.stderr)
    self_ok = checks.self_check(checker, first_answers)
    if not self_ok:
        errors.append("the check accepted a perturbed answer")
    fig12 = checks.fig12_error_pct()
    if not checks.fig12_ok(fig12):
        errors.append(f"fig12 error {fig12!r}% != {checks.FIG12_ERR_PCT}%")

    # -- report -------------------------------------------------------------
    good = [op for op in ops if op.error is None]
    print(f"ops: attempted={len(ops)} failed={failed} "
          f"fail_ratio={failed / len(ops):.4f} "
          f"answers checked={checker.checked} self_check={self_ok}")
    print(f"fig12_speedup_err_pct={fig12:.6f} %")
    for phase in ("cold", "pareto", "cheapest", "restart", "overlap",
                  "first_front", "stream_done", "point"):
        values = phase_samples(ops, phase)
        if values:
            print(f"  {phase}: {percentile_report(values)} s")
    print(f"  op: {percentile_report([op.wall for op in good])} s")

    if traced:
        server_spans = (spans.load_spans(server_spans_path)
                        if os.path.exists(server_spans_path) else [])
        names = [m["name"] for m in spec["per_layer"]]
        metrics, coverage = per_layer(
            ops, probes, stats_deltas, recorder.spans, server_spans,
            bytes_counter.bytes_in, names)
        if not coverage:
            errors.append("no traced op succeeded")
        elif min(coverage) < 0.95:
            errors.append(f"span coverage {min(coverage):.3f} < 0.95")
        write_trace(args, recorder, server_spans)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        absent = layers_off_path(args.workload)
        for name in names:
            note = "  (not on this workload's path)" if name in absent else ""
            print(f"  {name} = {metrics[name]:.6g} {units[name]}{note}")
    else:
        if not good:
            errors.append("no op succeeded")
            metrics = {}
        else:
            metrics = end_to_end(ops, setup_values, peak_rss_mb)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            for name, value in metrics.items():
                print(f"  {name} = {value:.6g} {units[name]}")
    remove_workdir(workdir)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)

    unit_of = {m["name"]: m["unit"]
               for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def remove_workdir(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))  # only once no run uses it
    except OSError:
        pass


def layers_off_path(workload: str):
    """Per-layer metrics whose layer this workload's ops never call."""
    with open(LAYERS_PATH) as handle:
        layers = json.load(handle)["per_layer"]
    return {name for name, entry in layers.items()
            if workload not in entry["workloads"]}


def write_trace(args, recorder, server_spans):
    """Spans of both processes, written once the run has ended."""
    out_dir = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir,
                        f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump({"client": spans.to_json(recorder.spans),
                   "server": spans.to_json(server_spans)}, handle)


if __name__ == "__main__":
    sys.exit(main())

"""reidkit benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload rerank-n2k --seed 1 --seconds 30 --trace 0

Run from the root of a reidkit checkout; the program is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics,
from spans the benchmark records around its own calls into reidkit.  Every
op is checked against the frozen reference in ``seedref.py``.  The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its unit, the run environment, and the first problems found.
The exit code is 0 only when every op passed the gate.

BLAS threads are capped at the number of usable cores before numpy loads.
Spans and the full result are written to ``.bench_out/`` when the run ends;
inputs live in ``.bench_work/`` and are removed.
"""

from __future__ import annotations

import os

_CORES = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(_CORES)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import NullTracer, Tracer, median_over, per_op, self_times

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5  # at least this many set-ups, and at least SETUP_SECONDS of them
SETUP_SECONDS = 1.0
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# Span names that belong to a reidkit layer; cli/pipeline spans are boundaries.
LAYER_SPANS = (
    "tensorio.load", "tensorio.save", "geometry.l2_normalize",
    "geometry.euclidean_distances", "geometry.fuse_flip_features", "geometry.gem_pool",
    "evaluation.rank_gallery", "evaluation.evaluate", "evaluation.save",
    "rerank.aqe_expand", "rerank.k_reciprocal_rerank", "rerank.ensemble_distances",
    "losses.combined_loss", "losses.loss_gradient", "augment",
)

_COPY_PROBE = """
import sys, time
import numpy as np
a = np.ones(int(sys.argv[1]) // 8)
half = a.size // 2
best = float("inf")
for _ in range(3):
    t = time.perf_counter()
    np.copyto(a[half:2 * half], a[:half])
    best = min(best, time.perf_counter() - t)
print(2 * half * 8 / best / 1e9)
"""


def _llc_bytes() -> int | None:
    """Last-level (L3) cache size as the C library reports it, or None."""
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10)
        return int(out.stdout) or None
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    llc = _llc_bytes()
    array = 4 * (llc or 32 * 2**20)  # assume 32 MiB when the size is unknown
    probe = subprocess.run(
        [sys.executable, "-c", _COPY_PROBE, str(array)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return {
        "nproc": os.cpu_count(),
        "usable_cores": _CORES,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "llc_mib": llc / 2**20 if llc else None,
        "copy_array_mib": array / 2**20,
        "copy_gb_per_s": float(probe.stdout),
        "copy_method": "numpy copy of the array's first half onto its second half, "
                       "best of 3, bytes read plus bytes written",
    }


class Gate:
    """Counts attempted and failed ops and keeps the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: " + "; ".join(problems))


def _timed_op(wl, gate, ref, label, k, tracer, traced):
    inp = wl.inputs(k)
    tracer.op = f"{label}-{k}"
    start = time.perf_counter()
    try:
        out = wl.op(inp, tracer, traced)
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        gate.record(tracer.op, [f"raised {exc!r}"])
        return time.perf_counter() - start, None
    elapsed = time.perf_counter() - start
    gate.record(tracer.op, wl.check(out, inp, ref))
    return elapsed, out


def _keep_going(times, minimum, started, seconds) -> bool:
    if len(times) < minimum:
        return True
    return time.perf_counter() - started + statistics.median(times) <= seconds


def measure(wl, seed, seconds, trace, workdir):
    tracer = Tracer() if trace else NullTracer()
    gate = Gate()
    setup_s = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        i = len(setup_s)
        if i:
            shutil.rmtree(workdir / f"setup-{i - 1}")
        tracer.op = f"setup-{i}"
        start = time.perf_counter()
        wl.setup(seed, workdir / f"setup-{i}", tracer)
        setup_s.append(time.perf_counter() - start)
    ref = wl.reference()
    # the peak before any op, to tell whether the ops or the set-up set peak_rss_mb
    setup_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _timed_op(wl, gate, ref, "warmup", 0, NullTracer(), False)

    run = {"setup_s": setup_s, "setup_rss_mib": setup_rss, "gate": gate, "spans": tracer, "walls": {}}
    started = time.perf_counter()
    if not trace:
        times, k = [], 0
        while _keep_going(times, wl.min_ops, started, seconds):
            elapsed, last = _timed_op(wl, gate, ref, "op", k, tracer, False)
            times.append(elapsed)
            k += 1
    else:
        times, k = [], 0
        while _keep_going(times, 2, started, seconds):
            real_s, real = _timed_op(wl, gate, ref, "real", k, tracer, False)
            traced_s, last = _timed_op(wl, gate, ref, "traced", k, tracer, True)
            run["walls"][f"real-{k}"] = real_s
            run["walls"][f"traced-{k}"] = traced_s
            times.append(real_s + traced_s)
            if real is not None and last is not None:
                gate.record(f"replay-{k}", wl.same_result(real, last))
            k += 1
        run["pairs"] = k
    run["op_s"] = times

    tracer.op = "finish"
    start = time.perf_counter()
    finished = wl.finish(tracer)
    run["finish_s"] = time.perf_counter() - start
    if finished is not None:
        gate.record("mining", wl.check_finish(finished, ref))
        run["noise"] = wl.noise_scores(finished["partition"])
    run["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        run["peak_mb"] = wl.peak_passes()
    run["last"] = last
    return run


def end_to_end(wl, run) -> dict:
    times = run["op_s"]
    return {
        "setup_s": statistics.median(run["setup_s"]),
        "op_s_p50": statistics.median(times),
        "op_s_p90": statistics.quantiles(times, n=10, method="inclusive")[8],
        "items_per_s": wl.items_per_op * len(times) / (sum(times) + run["finish_s"]),
        "peak_rss_mb": run["peak_rss_mib"],
    }


def per_layer(wl, run) -> dict:
    spans = run["spans"].spans
    pairs = range(run["pairs"])
    traced = [f"traced-{k}" for k in pairs]
    real = [f"real-{k}" for k in pairs]
    walls = run["walls"]
    own = self_times(spans)

    def busy(name, ops=traced):
        return median_over(ops, per_op(spans, name))

    def rate(name, count, scale=1.0, ops=traced):
        """Median over ops of a span count per second busy."""
        counts, secs = per_op(spans, name, count), per_op(spans, name)
        return median_over(ops, {op: counts[op] / secs[op] / scale for op in secs if secs[op] > 0})

    def share(name):
        secs = per_op(spans, name)
        return median_over(traced, {op: secs[op] / walls[op] for op in secs if op in walls})

    layer_time: dict = {}
    for s in spans:
        if s.name in LAYER_SPANS:
            layer_time[s.op] = layer_time.get(s.op, 0.0) + own[s.span_id]
    replay = per_op(spans, "pipeline.replay", "duration")
    replay_children = {op: replay[op] - v for op, v in per_op(spans, "pipeline.replay").items()}
    augment_images = sum(per_op(spans, "augment", "images").values())
    recall, precision = run.get("noise", (0.0, 0.0))
    last = run["last"] or {}
    op_p50 = statistics.median(walls[op] for op in real)
    traced_p50 = statistics.median(walls[op] for op in traced)
    return {
        "rerank.k_reciprocal_rerank.calls": median_over(traced, per_op(spans, "rerank.k_reciprocal_rerank", "calls")),
        "rerank.k_reciprocal_rerank.busy_s": busy("rerank.k_reciprocal_rerank"),
        "rerank.k_reciprocal_rerank.share": share("rerank.k_reciprocal_rerank"),
        "rerank.k_reciprocal_rerank.peak_mb": run["peak_mb"].get("rerank.k_reciprocal_rerank.peak_mb", 0.0),
        "rerank.aqe_expand.busy_s": busy("rerank.aqe_expand"),
        "rerank.ensemble_distances.busy_s": busy("rerank.ensemble_distances"),
        "geometry.euclidean_distances.calls": median_over(traced, per_op(spans, "geometry.euclidean_distances", "calls")),
        "geometry.euclidean_distances.busy_s": busy("geometry.euclidean_distances"),
        "geometry.euclidean_distances.gflop_per_s": rate("geometry.euclidean_distances", "flop", 1e9),
        "geometry.l2_normalize.busy_s": busy("geometry.l2_normalize"),
        "geometry.fuse_flip_features.busy_s": busy("geometry.fuse_flip_features"),
        "geometry.gem_pool.busy_s": busy("geometry.gem_pool"),
        "evaluation.rank_gallery.busy_s": busy("evaluation.rank_gallery"),
        "evaluation.evaluate.busy_s": busy("evaluation.evaluate"),
        "evaluation.evaluate.queries_per_s": rate("evaluation.evaluate", "queries"),
        "evaluation.map": last["rows"][-1][1] if "rows" in last else 0.0,
        "tensorio.load.busy_s": busy("tensorio.load"),
        "tensorio.load.mb_per_s": rate("tensorio.load", "bytes", 1e6),
        "tensorio.save.busy_s": busy("tensorio.save"),
        "pipeline.self_s": median_over(real, per_op(spans, "pipeline.run_pipeline", "duration"))
        - median_over(traced, replay_children),
        "cli.self_s": busy("cli.main", real),
        "losses.combined_loss.busy_s": busy("losses.combined_loss"),
        "losses.combined_loss.peak_mb": run["peak_mb"].get("losses.combined_loss.peak_mb", 0.0),
        "losses.loss_gradient.busy_s": busy("losses.loss_gradient"),
        "losses.loss_gradient.peak_mb": run["peak_mb"].get("losses.loss_gradient.peak_mb", 0.0),
        "mining.per_sample_losses.busy_s": busy("mining.per_sample_losses", ["finish"]),
        "mining.per_sample_losses.anchors_per_s": rate("mining.per_sample_losses", "anchors", ops=["finish"]),
        "mining.per_sample_losses.peak_mb": run["peak_mb"].get("mining.per_sample_losses.peak_mb", 0.0),
        "mining.partition.busy_s": busy("mining.partition", ["finish"]),
        "mining.noise_precision": precision,
        "mining.noise_recall": recall,
        "augment.busy_s": busy("augment"),
        "augment.images_per_s": rate("augment", "images"),
        "augment.erase_applied_ratio": sum(per_op(spans, "augment", "erased").values()) / augment_images
        if augment_images else 0.0,
        "synthetic.generate_synthetic.busy_s": busy(
            "synthetic.generate_synthetic", [f"setup-{i}" for i in range(len(run["setup_s"]))]),
        "trace.overhead_s": traced_p50 - op_p50,
        "trace.coverage": median_over(traced, {op: layer_time.get(op, 0.0) / walls[op] for op in traced}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for re-checks)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "reidkit").is_dir() or not spec_path.is_file():
        print(f"error: {ROOT} is not a reidkit checkout (need src/reidkit and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    env = environment()
    try:
        run = measure(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    gate = run["gate"]
    values = per_layer(wl, run) if args.trace else end_to_end(wl, run)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }

    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {len(run['op_s'])}")
    for m in wanted:
        print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']:<16} {m['better']} is better")
    if not args.trace:
        print(f"  {'peak_rss_mb before the first op':<44} {run['setup_rss_mib']:>14.6g} {'MiB':<16}")
        print(f"  {'failed_ratio':<44} {gate.failed / gate.attempted:>14.6g} {'ratio':<16} lower is better")
        if "noise" in run:
            print(f"  {'noise_recall':<44} {run['noise'][0]:>14.6g} {'ratio':<16} higher is better")
        if run["last"] and "rows" in run["last"]:
            print(f"  {'map':<44} {run['last']['rows'][-1][1]:>14.6g} {'ratio':<16} higher is better")
    for problem in gate.problems:
        print(f"  FAILED {problem}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    samples = {"setup_s": run["setup_s"], "op_s": run["op_s"], "finish_s": run["finish_s"],
               "setup_rss_mib": run["setup_rss_mib"]}
    (out / f"{stem}.json").write_text(json.dumps({"env": env, **result, "samples": samples}), encoding="utf-8")
    if args.trace:
        run["spans"].dump(out / f"{stem}.spans.json")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

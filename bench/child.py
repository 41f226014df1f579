"""One workload in a fresh interpreter: set-up, timed repetitions, trace.

Started by ``run.py``; prints one JSON object as its last stdout line.
Modes:

* ``setup``: import the package, build config and problem, report the
  moment it is ready to simulate, and exit.
* ``measure``: set up, run one untimed warm-up repetition, then repeat the
  experiment until ``--seconds`` (warm-up included) are spent, at least
  twice, timing wall and CPU of each repetition; no wrappers.
* ``trace``: untraced and traced repetitions in turn, then the probes that
  only the traced run takes (implicit-step cost split, worker invariance and
  pool speed-up on pool workloads); spans are written once at the end.

Worker processes of a ``workers > 1`` pool import this file as their main
module, so nothing runs at import time; the work starts under ``__main__``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

MIN_REPS = 2
MAX_REPS = 200
FIT_WIDTHS = (64, 256, 1024, 4096)
TRACE_PAIRS = 3


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _dir_stats(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


class Session:
    """One workload at one seed inside this interpreter."""

    def __init__(self, args):
        self.prepared = workloads.Prepared(
            workloads.WORKLOADS[args.workload], args.seed, args.tiny, Path(args.out) / "runs"
        )
        self.ready = time.perf_counter()
        self.check = workloads.OutputCheck(self.prepared)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def rep(self):
        """One checked repetition: (wall seconds, cpu seconds, result or None)."""
        self.attempted += 1
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            result = self.prepared.run()
        except Exception:  # a run that raises (StepFailureError included) is a failure
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            return time.perf_counter() - t0, _cpu_s() - cpu0, None
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        bad = self.check.problems(result)
        if bad:
            self.failed += 1
            self.problems.extend(bad)
        return wall, cpu, result

    def base(self) -> dict:
        import numpy
        import scipy

        return {
            "ready": self.ready,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
            "work": self.prepared.work_counts(),
        }


def measure(session: Session, seconds: float) -> dict:
    walls, cpus = [], []
    start = time.perf_counter()
    # One checked but untimed repetition first: lazy imports and first-touch
    # allocations belong to neither set-up nor the steady per-run cost.
    _, _, result = session.rep()
    if result is not None:
        session.prepared.discard(result)
    while len(walls) < MAX_REPS:
        wall, cpu, result = session.rep()
        walls.append(wall)
        cpus.append(cpu)
        if result is not None:
            session.prepared.discard(result)
        spent = time.perf_counter() - start
        if len(walls) >= MIN_REPS and spent + statistics.median(walls) > seconds:
            break
    out = session.base()
    out.update({"run_s": walls, "cpu_s": cpus, "peak_rss_mb": _peak_rss_mb()})
    return out


def implicit_cost_split(seed: int, tiny: bool) -> dict:
    """Fit per-call time of solve_implicit_steps against batch width.

    paper-5.4 inputs at dt = 0.01: the fixed part is the per-call overhead,
    the slope the marginal cost of one more path.
    """
    import numpy as np

    import levyem
    from levyem.implicit import solve_implicit_steps

    problem = levyem.builtin_problem("paper-5.4")
    rng = np.random.default_rng(seed)
    reps = 5 if tiny else 150
    medians = []
    for width in FIT_WIDTHS:
        c = 1.0 + 2.0 * rng.standard_normal(width)
        for _ in range(3):
            solve_implicit_steps(problem, 1.0, c, 0.01)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            solve_implicit_steps(problem, 1.0, c, 0.01)
            times.append(time.perf_counter() - t0)
        medians.append(statistics.median(times))
    slope, intercept = statistics.linear_regression(FIT_WIDTHS, medians)
    return {"implicit.fixed_us": 1e6 * intercept, "implicit.marginal_ns": 1e9 * slope}


def trace(session: Session, out_dir: Path) -> dict:
    import numpy as np

    prepared = session.prepared
    workload = prepared.workload
    metrics: dict[str, float] = {}

    # Untraced and traced repetitions alternate so that drift of the machine
    # hits both sides of trace.overhead alike; the last traced tree is kept.
    untraced, traced = [], []
    for _ in range(TRACE_PAIRS):
        wall, _, result = session.rep()
        untraced.append(wall)
        if result is not None:
            prepared.discard(result)
        rep_tracer = tracing.Tracer()
        with tracing.interpose(rep_tracer, prepared.problem):
            with rep_tracer.span("bench.rep", tracing.BENCH_LAYER):
                traced_s, _, result = session.rep()
        traced.append(traced_s)
        files, nbytes = (0, 0)
        if result is not None and getattr(result, "out_dir", None) is not None:
            files, nbytes = _dir_stats(result.out_dir)
            prepared.discard(result)
    trees = {"rep": rep_tracer}
    metrics.update(tracing.experiment_metrics(rep_tracer, traced_s))
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["experiments.files_written"] = files
    metrics["experiments.bytes_written"] = nbytes

    kernel_tracer = rep_tracer
    metrics["engine.pool_speedup"] = 0.0
    if workload.workers > 1:
        # In-process workers=1 reference: must reproduce the pool's checkpoints
        # exactly, and carries the kernel-layer numbers the pool hides.
        import levyem.engine as engine

        cfg = prepared.config
        kernel_tracer = tracing.Tracer()
        with tracing.interpose(kernel_tracer, prepared.problem):
            with kernel_tracer.span("bench.pool_reference", tracing.BENCH_LAYER):
                single = engine.simulate_ensemble(
                    prepared.problem, cfg["dt"], cfg["n_paths"], prepared.seed,
                    checkpoints=cfg["checkpoints"], workers=1,
                )
        trees["pool_reference"] = kernel_tracer
        pooled = rep_tracer.captured.get("ensemble")
        session.attempted += 1
        same = pooled is not None and np.array_equal(pooled.terminal, single.terminal) and all(
            np.array_equal(pooled.checkpoints[t], single.checkpoints[t]) for t in single.checkpoints
        )
        if not same:
            session.failed += 1
            session.problems.append("workers=1 checkpoints differ from the workers=2 run")
        w1 = kernel_tracer.total("engine.simulate_ensemble")
        w2 = rep_tracer.total("engine.simulate_ensemble")
        metrics["engine.pool_speedup"] = w1 / w2 if w2 > 0 else 0.0
    metrics.update(tracing.kernel_metrics(kernel_tracer))
    metrics.update(implicit_cost_split(prepared.seed, prepared.tiny))

    predicted = workload.predicted_dominant
    metrics["dominant.share"] = sum(metrics[f"share.{layer}"] for layer in predicted)
    measured = max(tracing.LAYERS, key=lambda layer: metrics[f"share.{layer}"])

    for name, tree in trees.items():
        if not tree.nesting_ok():
            session.problems.append(f"spans of the {name} tree do not nest under one root")
    spans_path = out_dir / f"spans-{workload.name}-{prepared.seed}.json"
    tracing.write_spans(spans_path, trees)

    out = session.base()
    out.update({
        "metrics": metrics,
        "run_s": untraced,
        "traced_run_s": traced,
        "dominant": {"predicted": list(predicted), "measured": measured},
        "spans_file": str(spans_path),
        "span_count": sum(len(t.spans) for t in trees.values()),
    })
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    session = Session(args)
    if args.mode == "setup":
        out = {"ready": session.ready}
    elif args.mode == "measure":
        out = measure(session, args.seconds)
    else:
        out = trace(session, Path(args.out))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

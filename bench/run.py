"""levyem benchmark: catalog workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload strong-51a --seed 20240817 --seconds 56 --trace 0

``--trace 0`` prints the end-to-end metrics of the workload, ``--trace 1``
the per-layer metrics of a separate traced run.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; run metadata
(versions, nproc, seeds, work and sample counts) goes to stderr and to
``bench/out/``.  Workloads and their output check are in ``workloads.py``,
the layer wrappers in ``tracing.py``.

End-to-end metrics (``--trace 0``):

* ``run_s``: wall time of one experiment, config dict to written run
  directory; median over the repetitions that fit in ``--seconds``.
* ``cpu_s``: user + system CPU of the process and its pool workers over one
  experiment; median over the same repetitions.
* ``setup_s``: interpreter start to ready-to-simulate (``import levyem``,
  config and problem built); median over five fresh interpreters, two
  started before the measured one and two after it.
* ``peak_rss_mb``: highest resident set of the process and its children.

Failed runs (an exception, ``StepFailureError`` included, or a failed output
check) are counted in ``failed`` out of ``attempted``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SOURCE_DIR = Path("src") / "levyem"
SETUP_PROBES = 4          # extra fresh interpreters timed for setup_s
CHILD_DEADLINE_S = 170.0  # whole run, every child included

END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "implicit.calls": "count",
    "implicit.batch_width": "paths",
    "implicit.us_per_call_p50": "us",
    "implicit.us_per_call_p99": "us",
    "implicit.ns_per_path_step": "ns",
    "implicit.newton_iters_per_call": "count",
    "implicit.dampings": "count",
    "implicit.bracketed": "count",
    "implicit.worst_residual": "1",
    "implicit.fixed_us": "us",
    "implicit.marginal_ns": "ns",
    "problems.drift_evals_per_call": "count",
    "problems.drift_s": "s",
    "noise.tape_s": "s",
    "noise.ns_per_increment.brownian": "ns",
    "noise.ns_per_increment.levy": "ns",
    "noise.rng_us_per_path": "us",
    "tilted_stable.accept_ratio": "1",
    "engine.chunks": "count",
    "engine.chunk_width": "paths",
    "engine.tape_bytes": "B_computed",
    "engine.self_s": "s",
    "engine.pool_speedup": "x",
    "measures.report_s": "s",
    "measures.bootstrap_s": "s",
    "measures.ks_calls": "count",
    "measures.ks_s": "s",
    "measures.reference_s": "s",
    "measures.wasserstein_s": "s",
    "measures.kde_s": "s",
    "experiments.write_s": "s",
    "experiments.files_written": "count",
    "experiments.bytes_written": "B",
    "share.engine": "fraction",
    "share.noise": "fraction",
    "share.implicit": "fraction",
    "share.problems": "fraction",
    "share.measures": "fraction",
    "share.convergence": "fraction",
    "share.experiments": "fraction",
    "share.bench": "fraction",
    "dominant.share": "fraction",
    "trace.overhead": "fraction",
}


class ChildFailed(RuntimeError):
    pass


def _run_child(args, mode: str, deadline: float, seconds: float = 1.0) -> tuple[dict, float]:
    """Start child.py in a fresh interpreter; returns (its JSON, its start time)."""
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", repr(seconds), "--out", str(OUT_DIR),
    ]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path.cwd() / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    started = time.perf_counter()
    # Own session, so a timeout can stop the pool workers along with the child.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} child exceeded the run deadline") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{mode} child printed nothing")
    return json.loads(lines[-1]), started


def _git_sha() -> str | None:
    if not Path(".git").exists():  # an exported checkout has no history
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE_DIR.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="self-test scale")
    args = ap.parse_args()

    if not (SOURCE_DIR / "__init__.py").is_file():
        print(f"no levyem sources under {SOURCE_DIR} in {Path.cwd()}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + CHILD_DEADLINE_S
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result, _ = _run_child(args, "trace", deadline)
            metrics = {k: _metric(result["metrics"][k], unit) for k, unit in PER_LAYER.items()}
            setup = []
        else:
            setup = []

            def probe_setup():
                probe, started = _run_child(args, "setup", deadline)
                setup.append(probe["ready"] - started)

            # Probes before and after the measured child, so that set-up is
            # sampled across the run rather than in one moment of the host.
            probes = 1 if args.tiny else SETUP_PROBES
            for _ in range(probes // 2):
                probe_setup()
            result, started = _run_child(args, "measure", deadline, args.seconds)
            setup.append(result["ready"] - started)
            for _ in range(probes - probes // 2):
                probe_setup()
            values = {
                "run_s": statistics.median(result["run_s"]),
                "cpu_s": statistics.median(result["cpu_s"]),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": result["peak_rss_mb"],
            }
            metrics = {k: _metric(values[k], unit) for k, unit in END_TO_END.items()}
    except ChildFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "versions": result["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "work_per_experiment": result["work"],
        "samples": {"run_s": result["run_s"], "cpu_s": result.get("cpu_s", []), "setup_s": setup},
        "problems": result["problems"],
    }
    for key in ("dominant", "traced_run_s", "spans_file", "span_count"):
        if key in result:
            meta[key] = result[key]
    meta_path = OUT_DIR / f"meta-{args.workload}-{args.seed}-trace{args.trace}.json"
    meta_path.write_text(json.dumps(meta, indent=2) + "\n")
    print("meta " + json.dumps(meta), file=sys.stderr)

    correct = not result["problems"] and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

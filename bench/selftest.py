"""Self-test of the benchmark at tiny scale (about a minute).

Run from the root of a source checkout:

    python3 bench/selftest.py

For every workload, in both modes, it runs ``run.py --tiny`` and checks that
the last stdout line is the result object, that it names every metric of
``BENCHMARK.json`` with its unit, that the output check passed, and that the
written spans nest under their workload span.  It also checks that the
output check rejects a wrong headline, and that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 11

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _spans_nest(tree: dict) -> list[str]:
    parents, starts, ends = tree["parent"], tree["start"], tree["end"]
    roots = [i for i, p in enumerate(parents) if p < 0]
    if len(roots) != 1:
        return [f"{len(roots)} root spans"]
    root_name = tree["names"][tree["name"][roots[0]]]
    if not root_name.startswith("bench."):
        return [f"root span is {root_name!r}, not a workload span"]
    bad = []
    for i, p in enumerate(parents):
        if p >= 0 and not (starts[p] <= starts[i] <= ends[i] <= ends[p]):
            bad.append(f"span {i} ({tree['names'][tree['name'][i]]}) escapes its parent {p}")
    return bad[:3]


def check_workload(name: str, spec: dict) -> list[str]:
    errors = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(name, trace)
        tag = f"{name} --trace {trace}"
        if proc.returncode != 0:
            errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"{tag}: result keys {sorted(result)}")
            continue
        if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
            errors.append(f"{tag}: output check failed: {proc.stderr[-800:]}")
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != wanted:
            errors.append(f"{tag}: metrics {sorted(set(got) ^ set(wanted))} differ from BENCHMARK.json")
        for key, metric in result["metrics"].items():
            if not isinstance(metric["value"], (int, float)) or not math.isfinite(metric["value"]):
                errors.append(f"{tag}: {key} = {metric['value']!r}")
        if trace:
            meta = json.loads([ln for ln in proc.stderr.splitlines() if ln.startswith("meta ")][-1][5:])
            trees = json.loads(Path(meta["spans_file"]).read_text())
            if "rep" not in trees:
                errors.append(f"{tag}: no spans of the traced repetition")
            for tree_name, tree in trees.items():
                errors.extend(f"{tag} [{tree_name}]: {e}" for e in _spans_nest(tree))
    return errors


def check_output_check() -> list[str]:
    """The default-seed comparison must reject a shifted headline."""
    errors = []
    reference = workloads.load_reference()
    shifts = {
        "strong-51a": ("order", 1.0),
        "law-53": ("w1", 0.5),
        "law-54": ("ks", 0.1),
        "coupling-54": ("mean_sq_gap", 5.0),
    }
    for name, (key, delta) in shifts.items():
        workload = workloads.WORKLOADS[name]
        ref = reference[name]
        if workloads.reference_problems(workload, ref, ref):
            errors.append(f"{name}: the recorded headline does not match itself")
        wrong = copy.deepcopy(ref)
        if isinstance(wrong[key], list):
            wrong[key] = [v + delta for v in wrong[key]]
        else:
            wrong[key] += delta
        if not workloads.reference_problems(workload, wrong, ref):
            errors.append(f"{name}: a headline with {key} shifted by {delta} passed the check")
    return errors


def check_refuses_without_sources() -> list[str]:
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run("strong-51a", 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["run.py succeeded or printed a result without the package sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    errors = check_output_check() + check_refuses_without_sources()
    for name in workloads.WORKLOADS:
        errors.extend(check_workload(name, spec))
        print(f"selftest: {name} done", flush=True)
    for error in errors:
        print("FAIL", error)
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

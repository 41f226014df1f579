"""Hash the outputs of small fixed protocols, and compare two result files.

Usage, from the root of a source checkout:

    PYTHONPATH=src python tools/compare_outputs.py OUT.npz [--against BASE.npz]

Runs every protocol below with the ``levyem`` that is importable, saves each
output array to ``OUT.npz`` and prints one line per array with its shape and
SHA-256.  With ``--against`` (a file written earlier by this tool, e.g. from
another checkout: ``PYTHONPATH=../other/src python tools/compare_outputs.py
BASE.npz``), each line also gives the largest distance in units in the last
place and the largest relative difference between the two files' arrays.

The protocols are fixed (sizes and seeds never change), so two checkouts with
the same arithmetic print the same hashes:

* ``strong-51a``: paper-5.1a terminal strong errors, 256 paths, dts
  2^-5..2^-8 against a 2^-10 reference (the benchmark's workload);
* ``max-52``: paper-5.2 ``max_on_grid`` errors, 64 paths, dts 2^-4..2^-6
  against 2^-8;
* ``ensemble-54``: paper-5.4 at dt = 0.01, 600 paths in three chunks,
  terminal values and the t = 1 and t = 5 checkpoints;
* ``coupling-54``: the paper-5.4 coupling from x0 = +10 and -10 over 300 steps
  of 0.01 on 257 paths;
* ``solve-<problem>``: one implicit solve of 4096 explicit parts per built-in
  problem, with a few huge ones that reach the bracketed stage;
* ``law-53``: the invariant-law report of paper-5.3 at dt = 0.01, 1000 paths
  at t = 0.5, 1 and 2 against the analytic stable reference (1e6 draws);
* ``law-54``: the invariant-law report of paper-5.4 at dt = 0.01, 600 paths
  at t = 1, 2 and 5 against the final snapshot, where both KS sizes are
  equal and at most 10,000;
* ``tape-<problem>``: the ``make_tape`` rows of 300 paths over 128 steps of
  2^-6 per built-in problem, drawn as one chunk and as chunks of 64 paths;
* ``sampler-<problem>``: for paper-5.3 and paper-5.4, the jump increments
  ``run_sampler_validation`` draws (n = 20,000 at t = 0.25, 0.5, 1 and 2;
  the tempered sampler splits t = 2 into two pieces) and the z-scores it
  reports.

An invariant-law report is saved as its KS distances, p-values and bootstrap
standard errors, and its W1 distances and their standard errors, one entry
per checkpoint.

Each run's merged ``StepDiagnostics`` is saved as one more array
(solves, Newton iterations, damping halvings, bracketed elements, worst
residual).
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

import levyem
from levyem import (
    StepDiagnostics,
    builtin_problem,
    builtin_problem_names,
    coupling_curve,
    make_tape,
    ou_stationary_scale,
    simulate_ensemble,
    solve_implicit_steps,
    strong_error_run,
)
from levyem.experiments import run_invariant_measure, run_sampler_validation
from levyem.noise import SeedPolicy, sample_levy_increments

SEED = 20240817


def _diag(d: StepDiagnostics) -> np.ndarray:
    return np.array(
        [d.solves, d.newton_iterations, d.damping_halvings, d.bracketed_elements, d.worst_residual]
    )


def _strong(name, dts, reference_dt, n_paths, error_mode):
    run = strong_error_run(
        builtin_problem(name), dts, reference_dt, n_paths, SEED, error_mode=error_mode
    )
    out = {f"dt={d:g}": run.errors[d] for d in sorted(run.errors)}
    out["diagnostics"] = _diag(run.diagnostics)
    return out


def _ensemble():
    problem = builtin_problem("paper-5.4")
    # 1000 steps x 2 streams x 8 B = 16 kB of tape per path: 200 paths a chunk
    run = simulate_ensemble(
        problem, 0.01, 600, SEED, checkpoints=[1.0, 5.0], chunk_budget_bytes=200 * 16_000
    )
    return {
        "terminal": run.terminal,
        "t=1": run.checkpoints[1.0],
        "t=5": run.checkpoints[5.0],
        "diagnostics": _diag(run.diagnostics),
    }


def _coupling():
    curve = coupling_curve(builtin_problem("paper-5.4"), (10.0, -10.0), 0.01, 300, 257, SEED)
    return {"mean": curve.mean, "stderr": curve.stderr}


def _solve(name):
    problem = builtin_problem(name)
    rng = np.random.default_rng(SEED)
    c = rng.normal(0.0, 5.0, 4096)
    c[[7, 2000, 4095]] = (1e30, -1e60, 1e100)
    t = 0.5 * problem.horizon
    diag = StepDiagnostics()
    with np.errstate(over="ignore", invalid="ignore"):
        y = solve_implicit_steps(problem, t, c, 2.0 ** -6, diagnostics=diag)
    return {"roots": y, "diagnostics": _diag(diag)}


def _law(name, checkpoints, n_paths, reference):
    run = run_invariant_measure(
        builtin_problem(name), 0.01, checkpoints, n_paths, SEED, reference=reference
    )
    rows = run.report.rows
    return {
        "ks": [r.ks for r in rows],
        "p": [r.p_value for r in rows],
        "ks_stderr": [r.ks_stderr for r in rows],
        "w1": [r.wasserstein for r in rows],
        "w_stderr": [r.w_stderr for r in rows],
    }


def _tape(name):
    problem, dt, n_steps = builtin_problem(name), 2.0 ** -6, 128
    whole = make_tape(problem, dt, n_steps, np.arange(300), SEED)
    chunks = [make_tape(problem, dt, n_steps, np.arange(lo, min(lo + 64, 300)), SEED)
              for lo in range(0, 300, 64)]
    out = {}
    for field in ("brownian", "levy"):
        if getattr(whole, field) is not None:
            out[field] = getattr(whole, field)
            out[f"{field}/chunks-of-64"] = np.concatenate([getattr(c, field) for c in chunks])
    return out


def _sampler(name):
    noise, n, times = builtin_problem(name).noise, 20_000, (0.25, 0.5, 1.0, 2.0)
    # the stream of each time, as run_sampler_validation addresses it
    out = {f"t={t:g}": sample_levy_increments(noise, t, n, SeedPolicy(SEED, j, "levy"))
           for j, t in enumerate(times)}
    result = run_sampler_validation(noise, n=n, master_seed=SEED, times=times)
    out["z"] = [row["z"] for row in result.rows]
    return out


def run_protocols() -> dict[str, np.ndarray]:
    protocols = {
        "strong-51a": lambda: _strong("paper-5.1a", [2.0 ** -k for k in (5, 6, 7, 8)], 2.0 ** -10,
                                      256, "terminal"),
        "max-52": lambda: _strong("paper-5.2", [2.0 ** -k for k in (4, 5, 6)], 2.0 ** -8, 64,
                                  "max_on_grid"),
        "ensemble-54": _ensemble,
        "coupling-54": _coupling,
    }
    for name in builtin_problem_names():
        protocols[f"solve-{name}"] = lambda name=name: _solve(name)
    analytic = {"kind": "analytic-stable", "alpha": 1.5, "scale": ou_stationary_scale(1.5)}
    protocols["law-53"] = lambda: _law("paper-5.3", [0.5, 1.0, 2.0], 1000, analytic)
    protocols["law-54"] = lambda: _law("paper-5.4", [1.0, 2.0, 5.0], 600, {"kind": "final-snapshot"})
    for name in builtin_problem_names():
        protocols[f"tape-{name}"] = lambda name=name: _tape(name)
    for name in ("paper-5.3", "paper-5.4"):
        protocols[f"sampler-{name}"] = lambda name=name: _sampler(name)
    arrays = {}
    for label, protocol in protocols.items():
        for key, value in protocol().items():
            arrays[f"{label}/{key}"] = np.ascontiguousarray(value, dtype=float)
    return arrays


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def _ordered(a: np.ndarray) -> np.ndarray:
    """float64 bit patterns as integers that order like the floats (as Python ints)."""
    bits = a.view(np.int64).astype(object)
    return np.where(bits < 0, -(bits & 0x7FFFFFFFFFFFFFFF), bits)


def max_ulp(a: np.ndarray, b: np.ndarray) -> int:
    both_nan = np.isnan(a) & np.isnan(b)
    gaps = np.abs(_ordered(a[~both_nan]) - _ordered(b[~both_nan]))
    return int(gaps.max()) if gaps.size else 0


def max_rel(a: np.ndarray, b: np.ndarray) -> float:
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.where(a == b, 0.0, np.abs(a - b) / scale)
    rel = np.where(np.isnan(a) & np.isnan(b), 0.0, rel)
    return float(np.nan_to_num(rel, nan=np.inf).max()) if rel.size else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="file (.npz) to save this checkout's arrays to")
    parser.add_argument("--against", help="result file of another checkout to compare with")
    args = parser.parse_args(argv)
    print(f"levyem from {levyem.__file__}", file=sys.stderr)
    arrays = run_protocols()
    np.savez(args.out, **arrays)
    base = dict(np.load(args.against)) if args.against else None
    moved = 0
    for key, a in arrays.items():
        line = f"{key:32s} {str(a.shape):9s} {sha256(a)}"
        if base is not None:
            b = base.get(key)
            if b is None or b.shape != a.shape:
                line += "  missing or reshaped in the base file"
                moved += 1
            elif sha256(a) == sha256(b):
                line += "  identical"
            else:
                line += f"  max_ulp={max_ulp(a, b)} max_rel={max_rel(a, b):.3e}"
                moved += 1
        print(line)
    if base is not None:
        print(f"{moved} of {len(arrays)} arrays differ from {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

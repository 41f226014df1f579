"""Hash the outputs of small fixed protocols, and compare two result files.

Usage, from the root of a source checkout:

    PYTHONPATH=src python tools/compare_outputs.py OUT.npz [--against BASE.npz]

Runs every protocol below with the ``levyem`` that is importable, saves each
output array to ``OUT.npz`` and prints one line per array with its shape and
SHA-256.  With ``--against`` (a file written earlier by this tool, e.g. from
another checkout: ``PYTHONPATH=../other/src python tools/compare_outputs.py
BASE.npz``), each line also gives the largest distance in units in the last
place and the largest relative difference between the two files' arrays; an
array only one of the files holds is listed, and the count of differing arrays
is over the arrays both hold.

The protocols are fixed (sizes and seeds never change), so two checkouts with
the same arithmetic print the same hashes:

* ``strong-51a``: paper-5.1a terminal strong errors, 256 paths, dts
  2^-5..2^-8 against a 2^-10 reference (the benchmark's workload);
* ``strong-52``: paper-5.2 terminal strong errors, 64 paths, dts 2^-4..2^-6
  against 2^-8;
* ``strong-51a-blocks``: paper-5.1a terminal strong errors, 64 paths, dts
  2^-6..2^-8 against a 2^-11 reference, whose 2,048 fine steps are drawn in
  two tape blocks, so every level's prepared step serves both;
* ``ensemble-54``: paper-5.4 at dt = 0.01, 600 paths in three chunks,
  terminal values and the t = 1 and t = 5 checkpoints;
* ``ensemble-54-pool``: the same run on ``workers=2``;
* ``coupling-54``: the paper-5.4 coupling from x0 = +10 and -10 over 300 steps
  of 0.01 on 257 paths;
* ``coupling-54-two-blocks``: the same coupling over 2,000 steps of 0.005 on
  64 paths, whose two starts cross from one tape block to the next;
* ``solve-<problem>``: one implicit solve of 4096 explicit parts per built-in
  problem, with a few huge ones that reach the bracketed stage;
* ``solve-<problem>-dt-array``: two solves of 4096 explicit parts per
  built-in problem with per-element dts cycling over 2^-10, 2^-6 and
  min(1/4, half the solvability limit): a moderate batch (N(0, 1)), whose
  residual test takes the batch bound, and the same batch with three huge
  parts, which makes it compute the floor per element;
* ``law-53``: the invariant-law report of paper-5.3 at dt = 0.01, 1000 paths
  at t = 0.5, 1 and 2 against the analytic stable reference (1e6 draws);
* ``law-54``: the invariant-law report of paper-5.4 at dt = 0.01, 600 paths
  at t = 1, 2 and 5 against the final snapshot, where both KS sizes are
  equal and at most 10,000; each law also saves the ``density_curve``
  centres, density and tail mass of every snapshot, when the checkout has
  ``density_curve``;
* ``tape-<problem>``: the ``make_tape`` rows of 300 paths over 128 steps of
  2^-6 per built-in problem, drawn as one chunk and as chunks of 64 paths;
* ``tape-tempered-64-pieces``: the same for paper-5.4 with tempering 34.5,
  over 8 steps of 1, where each jump increment takes 64 sampler pieces, the
  most a draw may take;
* ``tape-54-one-block``: the same for paper-5.4 over 4 steps of 0.01, where
  an 8,192-cell sampler block would hold all 300 jump rows, but a block
  stops at 64 rows, one generator each;
* ``ensemble-54-two-blocks``: paper-5.4 at dt = 0.005, 300 paths in one
  chunk, whose 2,000 steps are drawn in two tape blocks with every row's
  streams kept open in between; terminal values and the t = 5 checkpoint;
* ``sampler-<problem>``: for paper-5.3 and paper-5.4, the jump increments
  ``run_sampler_validation`` draws (n = 20,000 at t = 0.25, 0.5, 1 and 2;
  the tempered sampler splits t = 2 into two pieces) and the z-scores it
  reports;
* ``probes-<problem>``: ``run_declared_probes`` per built-in problem at its
  defaults (10,000 pairs, radius 5) and seed 20240817: the worst ratio and
  the violation count of each of the four probes, and ``zero_state_bounds``.

An invariant-law report is saved as its KS distances, p-values and bootstrap
standard errors, and its W1 distances and their standard errors, one entry
per checkpoint.

Each run's merged ``StepDiagnostics`` is saved as one more array
(solves, Newton iterations, damping halvings, bracketed elements, worst
residual).
"""

from __future__ import annotations

import argparse
import dataclasses
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
    run_declared_probes,
    simulate_ensemble,
    solvability_limit,
    solve_implicit_steps,
    strong_error_run,
)
from levyem.experiments import run_invariant_measure, run_sampler_validation
try:
    from levyem.measures import density_curve
except ImportError:  # a checkout from before the histogram density
    density_curve = None
from levyem.model import zero_state_bounds
from levyem.noise import PathStreams, sample_levy_increments

SEED = 20240817


def _diag(d: StepDiagnostics) -> np.ndarray:
    return np.array(
        [d.solves, d.newton_iterations, d.damping_halvings, d.bracketed_elements, d.worst_residual]
    )


def _strong(name, dts, reference_dt, n_paths):
    run = strong_error_run(builtin_problem(name), dts, reference_dt, n_paths, SEED)
    out = {f"dt={d:g}": run.errors[d] for d in sorted(run.errors)}
    out["diagnostics"] = _diag(run.diagnostics)
    return out


def _ensemble(workers=1):
    problem = builtin_problem("paper-5.4")
    # 1000 steps x 2 streams x 8 B = 16 kB of tape per path: 200 paths a chunk
    run = simulate_ensemble(
        problem, 0.01, 600, SEED, checkpoints=[1.0, 5.0], workers=workers,
        chunk_budget_bytes=200 * 16_000,
    )
    return {
        "terminal": run.terminal,
        "t=1": run.checkpoints[1.0],
        "t=5": run.checkpoints[5.0],
        "diagnostics": _diag(run.diagnostics),
    }


def _two_blocks():
    run = simulate_ensemble(builtin_problem("paper-5.4"), 0.005, 300, SEED, checkpoints=[5.0])
    return {"terminal": run.terminal, "t=5": run.checkpoints[5.0],
            "diagnostics": _diag(run.diagnostics)}


def _coupling(dt=0.01, n_steps=300, n_paths=257):
    curve = coupling_curve(builtin_problem("paper-5.4"), (10.0, -10.0), dt, n_steps, n_paths, SEED)
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


def _solve_dt_array(name):
    problem = builtin_problem(name)
    rng = np.random.default_rng(SEED)
    dts = np.array([2.0 ** -10, 2.0 ** -6, min(0.25, 0.5 * solvability_limit(problem))])
    dt = dts[np.arange(4096) % 3]
    moderate = rng.normal(0.0, 1.0, 4096)
    huge = moderate.copy()
    huge[[7, 2000, 4095]] = (1e30, -1e60, 1e100)
    t = 0.5 * problem.horizon
    out = {}
    for label, c in (("moderate", moderate), ("huge", huge)):
        diag = StepDiagnostics()
        with np.errstate(over="ignore", invalid="ignore"):
            out[f"{label}/roots"] = solve_implicit_steps(problem, t, c, dt, diagnostics=diag)
        out[f"{label}/diagnostics"] = _diag(diag)
    return out


def _law(name, checkpoints, n_paths, reference):
    run = run_invariant_measure(
        builtin_problem(name), 0.01, checkpoints, n_paths, SEED, reference=reference
    )
    rows = run.report.rows
    out = {
        "ks": [r.ks for r in rows],
        "p": [r.p_value for r in rows],
        "ks_stderr": [r.ks_stderr for r in rows],
        "w1": [r.wasserstein for r in rows],
        "w_stderr": [r.w_stderr for r in rows],
    }
    if density_curve is not None:
        for snap in run.snapshots:
            centres, density, tail_mass = density_curve(snap)
            out[f"density-t={snap.t:g}"] = [centres, density]
            out[f"density-tail-t={snap.t:g}"] = tail_mass
    return out


def _tape(problem, dt=2.0 ** -6, n_steps=128):
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
    out = {f"t={t:g}": sample_levy_increments(noise, t, n, PathStreams(SEED, [j], "levy"))[0]
           for j, t in enumerate(times)}
    result = run_sampler_validation(noise, n=n, master_seed=SEED, times=times)
    out["z"] = [row["z"] for row in result.rows]
    return out


def _probes(name):
    problem = builtin_problem(name)
    reports = run_declared_probes(problem, seed=SEED)
    return {
        "max_ratio": [r.max_ratio for r in reports],
        "violations": [r.violations for r in reports],
        "zero_state_bounds": zero_state_bounds(problem),
    }


def run_protocols() -> dict[str, np.ndarray]:
    protocols = {
        "strong-51a": lambda: _strong("paper-5.1a", [2.0 ** -k for k in (5, 6, 7, 8)], 2.0 ** -10,
                                      256),
        "strong-52": lambda: _strong("paper-5.2", [2.0 ** -k for k in (4, 5, 6)], 2.0 ** -8, 64),
        "strong-51a-blocks": lambda: _strong("paper-5.1a", [2.0 ** -k for k in (6, 7, 8)],
                                             2.0 ** -11, 64),
        "ensemble-54": _ensemble,
        "ensemble-54-pool": lambda: _ensemble(workers=2),
        "coupling-54": _coupling,
        "coupling-54-two-blocks": lambda: _coupling(0.005, 2000, 64),
    }
    for name in builtin_problem_names():
        protocols[f"solve-{name}"] = lambda name=name: _solve(name)
        protocols[f"solve-{name}-dt-array"] = lambda name=name: _solve_dt_array(name)
    analytic = {"kind": "analytic-stable", "alpha": 1.5, "scale": ou_stationary_scale(1.5)}
    protocols["law-53"] = lambda: _law("paper-5.3", [0.5, 1.0, 2.0], 1000, analytic)
    protocols["law-54"] = lambda: _law("paper-5.4", [1.0, 2.0, 5.0], 600, {"kind": "final-snapshot"})
    for name in builtin_problem_names():
        protocols[f"tape-{name}"] = lambda name=name: _tape(builtin_problem(name))
    paper54 = builtin_problem("paper-5.4")
    steep = dataclasses.replace(paper54, noise=dataclasses.replace(paper54.noise, tempering=34.5))
    protocols["tape-tempered-64-pieces"] = lambda: _tape(steep, 1.0, 8)
    protocols["tape-54-one-block"] = lambda: _tape(paper54, 0.01, 4)
    protocols["ensemble-54-two-blocks"] = _two_blocks
    for name in ("paper-5.3", "paper-5.4"):
        protocols[f"sampler-{name}"] = lambda name=name: _sampler(name)
    for name in builtin_problem_names():
        protocols[f"probes-{name}"] = lambda name=name: _probes(name)
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
    moved = shared = 0
    for key, a in arrays.items():
        line = f"{key:32s} {str(a.shape):9s} {sha256(a)}"
        if base is not None:
            b = base.get(key)
            if b is None:
                line += "  not in the base file"
            else:
                shared += 1
                if b.shape != a.shape:
                    line += f"  reshaped from {b.shape} in the base file"
                    moved += 1
                elif sha256(a) == sha256(b):
                    line += "  identical"
                else:
                    line += f"  max_ulp={max_ulp(a, b)} max_rel={max_rel(a, b):.3e}"
                    moved += 1
        print(line)
    if base is not None:
        for key in sorted(set(base) - set(arrays)):
            print(f"{key:32s} only in the base file")
        print(f"{moved} of {shared} shared arrays differ from {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

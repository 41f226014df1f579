"""Spans at the package's layer boundaries, interposed from outside.

The traced run replaces module attributes through which one layer calls the
next (``levyem.engine.solve_implicit_steps``, ``levyem.engine.make_tape``,
``levyem.experiments.kde_curve``, ...) with timing wrappers, and restores
them afterwards.  Nothing under ``src/`` changes; the untraced runs that give
the end-to-end metrics never install a wrapper.

Each span records a name, its layer, start, end and the id of the span that
was open when it began.  Spans stay in memory and are written once at the
end.  A layer's self time is the time its spans cover minus the time their
child spans cover.

Work inside ``workers > 1`` pool processes is not traced: those processes
import the package afresh and see no wrappers.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from pathlib import Path

LAYERS = ("engine", "noise", "implicit", "problems", "measures", "convergence", "experiments")
BENCH_LAYER = "bench"


class Tracer:
    """Spans and counters of one traced call tree."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: [id, parent, name id, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.captured: dict[str, object] = {}

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def open(self, nid: int) -> list:
        row = [len(self.spans), self._stack[-1] if self._stack else -1, nid, time.perf_counter(), 0.0]
        self.spans.append(row)
        self._stack.append(row[0])
        return row

    def close(self, row: list) -> None:
        row[4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        row = self.open(self._name_id(name, layer))
        try:
            yield row[0]
        finally:
            self.close(row)

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    # -- derived numbers ---------------------------------------------------

    def durations(self, name: str) -> list[float]:
        nid = self._name_ids.get(name)
        return [r[4] - r[3] for r in self.spans if r[2] == nid]

    def total(self, *names: str) -> float:
        return sum(sum(self.durations(n)) for n in names)

    def count(self, name: str) -> int:
        return len(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Self time per layer over every span of the tree."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for sid, _, nid, start, end in self.spans:
            layer = self.layers[nid]
            out[layer] = out.get(layer, 0.0) + (end - start) - child[sid]
        return out

    def nesting_ok(self) -> bool:
        """Every span lies inside its parent and has exactly one root."""
        roots = [r for r in self.spans if r[1] < 0]
        if len(roots) != 1:
            return False
        for sid, parent, _, start, end in self.spans:
            if end < start:
                return False
            if parent >= 0:
                p = self.spans[parent]
                if not (parent < sid and p[3] <= start and end <= p[4]):
                    return False
        return True

    def to_json(self) -> dict:
        cols = list(zip(*self.spans)) if self.spans else [[]] * 5
        return {
            "names": self.names,
            "layers": self.layers,
            "id": list(cols[0]),
            "parent": list(cols[1]),
            "name": list(cols[2]),
            "start": list(cols[3]),
            "end": list(cols[4]),
            "counters": self.counters,
        }


def write_spans(path: Path, trees: dict[str, Tracer]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({k: t.to_json() for k, t in trees.items()}))


# ---------------------------------------------------------------------------
# interposition


def _timed(tracer: Tracer, name: str, layer: str, fn, before=None, after=None):
    nid = tracer._name_id(name, layer)

    def wrapper(*args, **kwargs):
        ctx = before(args, kwargs) if before else None
        row = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(row)
        if after:
            after(ctx, args, kwargs, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


class _StatsProxy:
    """Stands in for ``levyem.measures.stats`` so ks_2samp calls are timed."""

    def __init__(self, real, ks_2samp):
        self._real = real
        self.ks_2samp = ks_2samp

    def __getattr__(self, name):
        return getattr(self._real, name)


def _solve_hooks(tracer: Tracer):
    def before(args, kwargs):
        diag = kwargs.get("diagnostics")
        if diag is None:
            return None
        return diag, diag.newton_iterations, diag.damping_halvings, diag.bracketed_elements

    def after(ctx, args, kwargs, out):
        tracer.add("implicit.path_steps", len(args[2]))
        if ctx is None:
            return
        diag, newton, damp, bracket = ctx
        tracer.add("implicit.newton_iterations", diag.newton_iterations - newton)
        tracer.add("implicit.dampings", diag.damping_halvings - damp)
        tracer.add("implicit.bracketed", diag.bracketed_elements - bracket)
        tracer.peak("implicit.worst_residual", diag.worst_residual)

    return before, after


def _tape_after(tracer: Tracer):
    def after(ctx, args, kwargs, tape):
        nbytes = 0
        for arr, key in ((tape.brownian, "noise.brownian_increments"), (tape.levy, "noise.levy_increments")):
            if arr is not None:
                tracer.add(key, arr.size)
                nbytes += arr.nbytes
        tracer.peak("engine.tape_bytes", nbytes)

    return after


def _levy_with_stats(tracer: Tracer, fn):
    """sample_levy_increments, asking for the acceptance stats it can return."""

    def call(*args, **kwargs):
        kwargs["with_stats"] = True
        values, stats = fn(*args, **kwargs)
        tracer.add("tilted.proposed", stats.proposed)
        tracer.add("tilted.accepted", stats.accepted)
        return values

    return call


def _chunks_after(tracer: Tracer):
    def after(ctx, args, kwargs, ranges):
        tracer.add("engine.chunks", len(ranges))
        tracer.peak("engine.chunk_width", max((hi - lo for lo, hi in ranges), default=0))

    return after


def _capture(tracer: Tracer, key: str):
    def after(ctx, args, kwargs, out):
        tracer.captured[key] = out

    return after


def _wrap_problem(tracer: Tracer, problem):
    """Time the compiled drift, drift-Jacobian and diffusion callables."""
    for attr in ("drift", "drift_jacobian", "diffusion"):
        fn = getattr(problem, attr)
        if fn is not None and not hasattr(fn, "__wrapped__"):
            setattr(problem, attr, _timed(tracer, f"problems.{attr}", "problems", fn))
    return problem


def _unwrap_problem(problem) -> None:
    for attr in ("drift", "drift_jacobian", "diffusion"):
        fn = getattr(problem, attr)
        if fn is not None and hasattr(fn, "__wrapped__"):
            setattr(problem, attr, fn.__wrapped__)


@contextlib.contextmanager
def interpose(tracer: Tracer, problem=None):
    """Install the layer wrappers for the duration of the block, then undo them."""
    import levyem.convergence as convergence
    import levyem.engine as engine
    import levyem.experiments as experiments
    import levyem.measures as measures
    import levyem.noise as noise

    solve_before, solve_after = _solve_hooks(tracer)
    problem_after = lambda ctx, args, kwargs, out: _wrap_problem(tracer, out)  # noqa: E731
    # (owner, attribute, span name, layer, before, after)
    table = [
        (experiments, "execute_config", "experiments.execute_config", "experiments", None, None),
        (experiments, "run_convergence", "experiments.run_convergence", "experiments", None, None),
        (experiments, "run_invariant_measure", "experiments.run_invariant_measure", "experiments", None, None),
        (experiments, "write_run", "experiments.write_run", "experiments", None, None),
        (experiments, "problem_from_config", "problems.problem_from_config", "problems", None, problem_after),
        (experiments, "strong_error_table", "convergence.strong_error_table", "convergence", None, None),
        (experiments, "fit_order", "convergence.fit_order", "convergence", None, None),
        (experiments, "evolve_empirical_law", "measures.evolve_empirical_law", "measures", None, None),
        (experiments, "invariant_convergence_report", "measures.report", "measures", None, None),
        (experiments, "kde_curve", "measures.kde_curve", "measures", None, None),
        (measures, "two_initial_value_coupling", "measures.two_initial_value_coupling", "measures", None, None),
        (measures, "ks_statistic", "measures.ks_statistic", "measures", None, None),
        (measures, "_bootstrap_stderr", "measures.bootstrap", "measures", None, None),
        (measures, "wasserstein_k", "measures.wasserstein_k", "measures", None, None),
        (measures.StationaryReference, "sample", "measures.reference_sample", "measures", None, None),
        (convergence, "strong_error_run", "engine.strong_error_run", "engine", None, None),
        (measures, "simulate_ensemble", "engine.simulate_ensemble", "engine", None, _capture(tracer, "ensemble")),
        (engine, "simulate_ensemble", "engine.simulate_ensemble", "engine", None, _capture(tracer, "ensemble")),
        (engine, "coupling_curve", "engine.coupling_curve", "engine", None, None),
        (engine, "_chunk_ranges", "engine.chunk_ranges", "engine", None, _chunks_after(tracer)),
        (engine, "_evolve", "engine.evolve", "engine", None, None),
        (engine, "make_tape", "noise.make_tape", "noise", None, _tape_after(tracer)),
        (engine, "make_rng", "noise.make_rng", "noise", None, None),
        (noise, "make_rng", "noise.make_rng", "noise", None, None),
        (engine, "solve_implicit_steps", "implicit.solve", "implicit", solve_before, solve_after),
    ]
    saved = []
    try:
        for owner, attr, name, layer, before, after in table:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _timed(tracer, name, layer, original, before, after))
        original = engine.sample_levy_increments
        saved.append((engine, "sample_levy_increments", original))
        engine.sample_levy_increments = _timed(
            tracer, "noise.levy_increments", "noise", _levy_with_stats(tracer, original)
        )
        saved.append((measures, "stats", measures.stats))
        measures.stats = _StatsProxy(
            measures.stats, _timed(tracer, "measures.ks_2samp", "measures", measures.stats.ks_2samp)
        )
        if problem is not None:
            _wrap_problem(tracer, problem)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        if problem is not None:
            _unwrap_problem(problem)


# ---------------------------------------------------------------------------
# per-layer metrics


def kernel_metrics(t: Tracer) -> dict[str, float]:
    """Layers that run inside the chunk kernel: implicit, problems, noise."""
    c = t.counters
    solve = t.durations("implicit.solve")
    calls = len(solve)
    path_steps = c.get("implicit.path_steps", 0.0)
    drift_names = ("problems.drift", "problems.drift_jacobian", "problems.diffusion")
    levy_n = c.get("noise.levy_increments", 0.0)
    brownian_n = c.get("noise.brownian_increments", 0.0)
    # Generator set-up is reported on its own (rng_us_per_path), so both
    # per-increment costs leave it out.  Brownian rows are drawn inline in
    # make_tape: its time minus the jump draws.
    levy_total = t.total("noise.levy_increments")
    levy_s = levy_total - _rng_inside(t, "noise.levy_increments")
    brownian_s = t.total("noise.make_tape") - levy_total - _rng_inside(t, "noise.make_tape")
    rng = t.durations("noise.make_rng")
    proposed = c.get("tilted.proposed", 0.0)
    return {
        "implicit.calls": calls,
        "implicit.batch_width": path_steps / calls if calls else 0.0,
        "implicit.us_per_call_p50": 1e6 * statistics.median(solve) if calls else 0.0,
        "implicit.us_per_call_p99": 1e6 * statistics.quantiles(solve, n=100)[98] if calls > 1 else 0.0,
        "implicit.ns_per_path_step": 1e9 * sum(solve) / path_steps if path_steps else 0.0,
        "implicit.newton_iters_per_call": c.get("implicit.newton_iterations", 0.0) / calls if calls else 0.0,
        "implicit.dampings": c.get("implicit.dampings", 0.0),
        "implicit.bracketed": c.get("implicit.bracketed", 0.0),
        "implicit.worst_residual": c.get("implicit.worst_residual", 0.0),
        "problems.drift_evals_per_call": (t.count("problems.drift") + t.count("problems.drift_jacobian")) / calls
        if calls else 0.0,
        "problems.drift_s": t.total(*drift_names),
        "noise.tape_s": t.total("noise.make_tape"),
        "noise.ns_per_increment.brownian": 1e9 * brownian_s / brownian_n if brownian_n else 0.0,
        "noise.ns_per_increment.levy": 1e9 * levy_s / levy_n if levy_n else 0.0,
        "noise.rng_us_per_path": 1e6 * sum(rng) / len(rng) if rng else 0.0,
        "tilted_stable.accept_ratio": c.get("tilted.accepted", 0.0) / proposed if proposed else 1.0,
        "engine.tape_bytes": c.get("engine.tape_bytes", 0.0),
    }


def _rng_inside(t: Tracer, parent_name: str) -> float:
    """Time of make_rng spans whose direct parent is a ``parent_name`` span."""
    pid = t._name_ids.get(parent_name)
    rid = t._name_ids.get("noise.make_rng")
    if pid is None or rid is None:
        return 0.0
    return sum(r[4] - r[3] for r in t.spans if r[2] == rid and r[1] >= 0 and t.spans[r[1]][2] == pid)


def experiment_metrics(t: Tracer, run_s: float) -> dict[str, float]:
    """Layers above the kernel, and each layer's share of the traced run_s."""
    c = t.counters
    selfs = t.self_times()
    out = {
        "engine.chunks": c.get("engine.chunks", 0.0),
        "engine.chunk_width": c.get("engine.chunk_width", 0.0),
        "engine.self_s": selfs.get("engine", 0.0),
        "measures.report_s": t.total("measures.report"),
        "measures.bootstrap_s": t.total("measures.bootstrap"),
        "measures.ks_calls": t.count("measures.ks_2samp"),
        "measures.ks_s": t.total("measures.ks_2samp"),
        "measures.reference_s": t.total("measures.reference_sample"),
        "measures.wasserstein_s": t.total("measures.wasserstein_k"),
        "measures.kde_s": t.total("measures.kde_curve"),
        "experiments.write_s": t.total("experiments.write_run"),
    }
    for layer in LAYERS + (BENCH_LAYER,):
        out[f"share.{layer}"] = selfs.get(layer, 0.0) / run_s if run_s > 0 else 0.0
    return out

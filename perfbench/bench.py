"""One benchmark run of one workload, in a process of its own.

Usage (run.py starts it; it is not meant to be typed):

    python3 perfbench/bench.py SPEC_JSON SEED SECONDS TRACE ROOT

A timed run fits each planted dataset `fits_per_dataset` times, each op
with a fit seed of its own; a traced run draws a dataset per op. Datasets
and fit seeds are drawn from SEED and their index. Ops run back to back
(a closed loop with one client) until SECONDS have passed; at least one op
always runs. Every op is checked; a failed op is counted, reported on
stderr and left out of the medians. The last line of stdout is the result
as JSON; run.py adds the peak RSS of this process and the environment.
"""

import dataclasses
import json
import os
import pickle
import shutil
import statistics
import struct
import sys
import tempfile
import traceback
from time import perf_counter

import numpy as np

PLANTED = (5, 3)
ELBO_FLOOR = -1e-8  # the acceptance-1 floor on a single bound step

# (name, unit, better). run.py adds peak_rss_mb, measured from outside.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("solve_s_tail", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ari_z", "1", "higher"),
    ("ari_w", "1", "higher"),
    ("select_hit", "1", "higher"),
    ("ok_frac", "1", "higher"),
]

# Per-layer metrics: "<label>.calls|.s|.self_s" are read off the spans of
# that label; the rest are derived below. Values are per op: medians over
# the traced ops of the run.
PER_LAYER = [
    ("generator.generate_dataset.s", "s", "lower"),
    ("generator.edges", "count", "higher"),
    ("io.write_mlg.s", "s", "lower"),
    ("io.read_mlg.s", "s", "lower"),
    ("io.mlg_bytes", "B", "lower"),
    ("core.graph_bytes", "B", "lower"),
    ("core.VariationalState.calls", "count", "lower"),
    ("core.VariationalState.s", "s", "lower"),
    ("mathfn.digamma.calls", "count", "lower"),
    ("mathfn.digamma.s", "s", "lower"),
    ("mathfn.log_gamma.calls", "count", "lower"),
    ("mathfn.log_gamma.s", "s", "lower"),
    ("inference.compute_elbo.s", "s", "lower"),
    ("inference.init_variational.calls", "count", "lower"),
    ("inference.init_variational.self_s", "s", "lower"),
    ("inference.eigh.calls", "count", "lower"),
    ("inference.eigh.s", "s", "lower"),
    ("inference.vbe_update_tau.calls", "count", "lower"),
    ("inference.vbe_update_tau.s", "s", "lower"),
    ("inference.vbe_update_nu.s", "s", "lower"),
    ("inference.m_step.calls", "count", "lower"),
    ("inference.m_step.s", "s", "lower"),
    ("inference.s_per_iter", "s", "lower"),
    ("inference.fit.calls", "count", "lower"),
    ("inference.fit.self_s", "s", "lower"),
    ("inference.iterations", "count", "lower"),
    ("inference.converged_frac", "1", "higher"),
    ("inference.wasted_iter_frac", "1", "lower"),
    ("selection.grid_search.s", "s", "lower"),
    ("selection.grid_search.self_s", "s", "lower"),
    ("selection.cells", "count", "higher"),
    ("selection.cells_failed", "count", "lower"),
    ("selection.icl_exact.s", "s", "lower"),
    ("selection.task_bytes", "B", "lower"),
    ("selection.parallel_eff", "1", "higher"),
    ("trace.overhead_frac", "1", "lower"),
]

# Labels a derived metric reads; when one is missing from the code under
# test the metric is reported absent rather than zero.
DERIVED_NEEDS = {
    "generator.edges": ("io.write_mlg",),
    "io.mlg_bytes": ("io.write_mlg",),
    "core.graph_bytes": ("io.read_mlg",),
    "inference.s_per_iter": ("inference.fit", "inference.init_variational", "inference.compute_elbo"),
    "inference.iterations": ("inference.fit", "inference.compute_elbo"),
    "inference.converged_frac": ("inference.fit",),
    "inference.wasted_iter_frac": ("inference.fit", "inference.init_variational", "inference.compute_elbo"),
    "selection.cells": ("selection.grid_search",),
    "selection.cells_failed": ("selection.grid_search",),
    "selection.task_bytes": ("selection.grid_search",),
    "selection.parallel_eff": ("selection.grid_search",),
    "trace.overhead_frac": (),
}

_STATS = ("calls", "self_s", "s")


def needs(metric):
    if metric in DERIVED_NEEDS:
        return DERIVED_NEEDS[metric]
    label, _, _ = metric.rpartition(".")
    return (label,)


# ---------------------------------------------------------------------------
# comparisons and checks


def same(a, b):
    """Bit-for-bit equality of results built from dataclasses, arrays,
    containers and scalars."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[key], b[key]) for key in a)
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def check_fit(report, truth, failures, what):
    """Bound finite and never stepping down past the floor; ARIs in range.
    Returns (ari_z, ari_w) from the MAP partitions."""
    from mimisbm import ari

    trace = np.asarray(report.elbo_trace, dtype=float)
    if trace.size == 0 or not np.isfinite(trace).all():
        failures.append(f"{what}: bound trace empty or not finite")
    elif trace.size > 1 and np.diff(trace).min() < ELBO_FLOOR:
        failures.append(f"{what}: bound stepped down by {-np.diff(trace).min():.3e}")
    az = ari(report.z_map, truth.z)
    aw = ari(report.w_map, truth.w)
    for name, value in (("ari_z", az), ("ari_w", aw)):
        if not -1.0 <= value <= 1.0:
            failures.append(f"{what}: {name}={value} outside [-1, 1]")
    return az, aw


def check_grid(result, failures):
    from mimisbm import CRITERIA

    for cell in result.cells:
        if cell.error is not None:
            failures.append(f"grid cell ({cell.k}, {cell.q}) failed: {cell.error}")
            continue
        for crit in CRITERIA:
            if not np.isfinite(getattr(cell, crit)):
                failures.append(f"grid cell ({cell.k}, {cell.q}): {crit} not finite")
    if result.best is None:
        failures.append("grid chose no cell")


# ---------------------------------------------------------------------------
# one op


class Workload:
    def __init__(self, spec, seed, workdir):
        self.spec = spec
        self.seed = seed
        self.path = os.path.join(workdir, "graph.mlg")

    def setup(self, d):
        """Seed -> planted dataset d -> .mlg file -> loaded graph.
        Returns (graph, truth, seconds)."""
        import mimisbm
        import mimisbm.io

        sim = dict(self.spec["sim"])
        if sim.get("component_k") is not None:
            sim["component_k"] = tuple(sim["component_k"])
        t0 = perf_counter()
        g0, truth = mimisbm.generate_dataset(
            mimisbm.SimulationConfig(**sim), mimisbm.rng_stream(self.seed, self.spec["tag"], 0, d)
        )
        mimisbm.io.write_mlg(self.path, g0)
        g = mimisbm.io.read_mlg(self.path)
        return g, truth, perf_counter() - t0

    def config(self, op):
        import mimisbm

        fit_seed = int(mimisbm.rng_stream(self.seed, self.spec["tag"], 1, op).integers(2**31))
        return mimisbm.FitConfig(
            seed=fit_seed, n_restarts=self.spec["restarts"], init_strategy=self.spec["init"]
        )

    def solve(self, g, cfg, jobs=1):
        """The user-facing call. Returns (result, seconds)."""
        import mimisbm

        spec = self.spec
        t0 = perf_counter()
        if spec["kind"] == "fit":
            result = mimisbm.fit(g, spec["k"], spec["q"], cfg)
        else:
            (k0, k1), (q0, q1) = spec["k_range"], spec["q_range"]
            result = mimisbm.grid_search(g, range(k0, k1 + 1), range(q0, q1 + 1), cfg, "ilvb", jobs)
        return result, perf_counter() - t0

    def score(self, g, truth, cfg, result, failures):
        """Output checks plus (ari_z, ari_w, hit). A fit's hit is the share
        of the planted K + Q clusters its MAP partitions occupy; a grid's
        hit is 1 when its ilvb winner is the planted (K, Q), else 0. A grid
        is scored by refitting its winner, which must reproduce the winning
        bound bit for bit."""
        import mimisbm

        if self.spec["kind"] == "fit":
            az, aw = check_fit(result, truth, failures, "fit")
            used = np.unique(result.z_map.labels).size + np.unique(result.w_map.labels).size
            return az, aw, used / sum(PLANTED)
        check_grid(result, failures)
        best = result.chosen.get("ilvb")
        if best is None:
            return None, None, 0.0
        report = mimisbm.fit(g, best[0], best[1], cfg)
        az, aw = check_fit(report, truth, failures, f"refit of {best}")
        cell = next(c for c in result.cells if (c.k, c.q) == best)
        if not same(report.elbo_trace[-1], cell.ilvb):
            failures.append(f"refit of {best} bound {report.elbo_trace[-1]!r} != grid ilvb {cell.ilvb!r}")
        return az, aw, float(tuple(best) == PLANTED)


def run_ops(seconds, op_fn, failures_out):
    """Closed loop, one client: ops back to back until `seconds` have
    passed, at least one. Returns (attempted, failed)."""
    attempted = failed = 0
    start = perf_counter()
    while attempted == 0 or perf_counter() - start < seconds:
        op = attempted
        attempted += 1
        failures = []
        try:
            op_fn(op, failures)
        except Exception:  # a failed op is counted, not fatal to the run
            failures.append(traceback.format_exc())
        if failures:
            failed += 1
            failures_out.extend(f"op {op}: {f}" for f in failures)
    return attempted, failed


# ---------------------------------------------------------------------------
# metrics


def tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count); the maximum below 11 samples."""
    s = sorted(samples)
    n = len(s)
    if n >= 11:
        return s[n - 11], 100.0 * (n - 10) / n, n
    return s[-1], 100.0, n


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def fit_stats(spans, indices):
    """Iterations, winner-only iterations, converged fits, fit count and the
    seconds fits spent outside init, read off the spans of `fit` calls.
    A restart begins at each init_variational child of a fit; one bound
    evaluation is one outer iteration."""
    children = {}
    for i in indices:
        children.setdefault(spans[i][3], []).append(i)
    iters = won = converged = fits = 0
    outside_init = 0.0
    for i in indices:
        if spans[i][0] != "inference.fit":
            continue
        fits += 1
        best, conv = spans[i][5] or (None, None)
        converged += bool(conv)
        per_restart = []
        outside_init += spans[i][2] - spans[i][1]
        for c in children.get(i, ()):
            if spans[c][0] == "inference.init_variational":
                per_restart.append(0)
                outside_init -= spans[c][2] - spans[c][1]
            elif spans[c][0] == "inference.compute_elbo" and per_restart:
                per_restart[-1] += 1
        iters += sum(per_restart)
        if best is not None and best < len(per_restart):
            won += per_restart[best]
    return iters, won, converged, fits, outside_init


def span_values(spans, indices):
    """The per-layer metrics read off the spans at `indices`."""
    from tracing import aggregate

    agg = aggregate(spans, indices)
    iters, won, converged, fits, outside_init = fit_stats(spans, indices)
    out = {
        "inference.s_per_iter": outside_init / iters if iters else 0.0,
        "inference.iterations": iters,
        "inference.converged_frac": converged / fits if fits else 0.0,
        "inference.wasted_iter_frac": (iters - won) / iters if iters else 0.0,
    }
    for name, _, _ in PER_LAYER:
        label, _, stat = name.rpartition(".")
        if stat in _STATS:
            calls, total, self_s = agg.get(label, (0, 0.0, 0.0))
            out[name] = {"calls": calls, "s": total, "self_s": self_s}[stat]
    return out


def graph_bytes(g):
    return sum(a.nbytes for a in vars(g).values() if isinstance(a, np.ndarray))


def task_bytes(spec, g, cfg):
    """Pickled bytes of one grid cell's task, (graph, k, q, config), as the
    process pool would send it; mean over the grid's cells."""
    (k0, k1), (q0, q1) = spec["k_range"], spec["q_range"]
    sizes = [len(pickle.dumps((g, k, q, cfg))) for k in range(k0, k1 + 1) for q in range(q0, q1 + 1)]
    return statistics.mean(sizes)


def nproc():
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# runs


def timed_run(work, seconds, failures_out):
    setups, solves, azs, aws, hits = [], [], [], [], []
    per = work.spec["fits_per_dataset"]
    dataset = (None, None, None)  # (index, graph, truth)

    def op_fn(op, failures):
        nonlocal dataset
        if dataset[0] != op // per:
            g, truth, setup_s = work.setup(op // per)
            setups.append(setup_s)
            dataset = (op // per, g, truth)
        _, g, truth = dataset
        cfg = work.config(op)
        result, solve_s = work.solve(g, cfg)
        az, aw, hit = work.score(g, truth, cfg, result, failures)
        if not failures:
            solves.append(solve_s)
            azs.append(az)
            aws.append(aw)
            hits.append(hit)

    attempted, failed = run_ops(seconds, op_fn, failures_out)
    tail_value, pct, n = tail(solves) if solves else (0.0, 100.0, 0)
    print(f"solve_s_tail is p{pct:.1f} of {n} solve samples"
          + ("" if n >= 11 else " (fewer than 11: the maximum)"))
    values = {
        "setup_s": median_or_zero(setups),
        "solve_s": median_or_zero(solves),
        "solve_s_tail": tail_value,
        "ari_z": statistics.mean(azs) if azs else 0.0,
        "ari_w": statistics.mean(aws) if aws else 0.0,
        "select_hit": statistics.mean(hits) if hits else 0.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    return attempted, failed, {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def traced_run(work, seconds, failures_out, spans_path):
    """Each op: a traced set-up, an untraced solve, then a traced solve of
    the same inputs, which must equal the untraced result bit for bit. A
    grid workload's first op also times the same grid on a process pool
    with jobs = nproc, untraced because spans in workers are lost."""
    from tracing import Tracer

    tracer = Tracer()
    spans = tracer.spans
    op_vals, untraced_s, traced_s, par_eff = [], [], [], []

    def op_fn(op, failures):
        tracer.op = op
        first = len(spans)
        with tracer:
            g, truth, _ = work.setup(op)
        cfg = work.config(op)
        plain, plain_s = work.solve(g, cfg)
        with tracer:
            traced, traced_solve_s = work.solve(g, cfg)
        if not same(plain, traced):
            failures.append("traced result differs from the untraced one")
        work.score(g, truth, cfg, plain, failures)
        with open(work.path, "rb") as handle:
            edges = sum(1 for _ in handle) - 1
        vals = span_values(spans, range(first, len(spans)))
        grid = work.spec["kind"] == "grid"
        vals.update({
            "generator.edges": edges,
            "io.mlg_bytes": os.path.getsize(work.path),
            "core.graph_bytes": graph_bytes(g),
            "selection.cells": len(plain.cells) if grid else 0,
            "selection.cells_failed": sum(c.error is not None for c in plain.cells) if grid else 0,
            "selection.task_bytes": task_bytes(work.spec, g, cfg) if grid else 0,
        })
        if grid and op == 0:
            jobs = nproc()
            pooled, pooled_s = work.solve(g, cfg, jobs=jobs)
            if not same(plain, pooled):
                failures.append(f"jobs={jobs} result differs from jobs=1")
            par_eff.append(plain_s / (jobs * pooled_s))
        if not failures:
            op_vals.append(vals)
            untraced_s.append(plain_s)
            traced_s.append(traced_solve_s)

    attempted, failed = run_ops(seconds, op_fn, failures_out)
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    print(f"{len(spans)} spans written to {os.path.relpath(spans_path)}")

    metrics, absent = {}, []
    for name, unit, _ in PER_LAYER:
        if any(label not in tracer.labels for label in needs(name)):
            absent.append(name)
            continue
        if name == "selection.parallel_eff":
            value = par_eff[0] if par_eff else 0.0
        elif name == "trace.overhead_frac":
            value = median_or_zero(traced_s) / median_or_zero(untraced_s) - 1.0 if traced_s else 0.0
        else:
            value = median_or_zero([v[name] for v in op_vals])
        metrics[name] = {"value": value, "unit": unit}
    if absent:
        print("absent from the code under test: " + ", ".join(absent))
    return attempted, failed, metrics


def main(argv):
    spec_json, seed, seconds, trace, root = argv
    spec, seed, seconds, trace = json.loads(spec_json), int(seed), int(seconds), int(trace)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import mimisbm

    if not os.path.abspath(mimisbm.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported mimisbm from {mimisbm.__file__}, not from {src}")

    out_dir = os.path.join(root, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=out_dir)
    failures = []
    try:
        work = Workload(spec, seed, workdir)
        if trace:
            spans_path = os.path.join(out_dir, f"spans-{spec['name']}-{seed}.jsonl")
            attempted, failed, metrics = traced_run(work, seconds, failures, spans_path)
        else:
            attempted, failed, metrics = timed_run(work, seconds, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"{attempted} ops, {failed} failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main(sys.argv[1:])

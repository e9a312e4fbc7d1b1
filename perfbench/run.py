"""Phase-field benchmark: time to solution, step times, set-up and memory.

    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src/``.  Each repetition of a workload
runs in its own child process (``worker.py``), one at a time, with BLAS
limited to one thread: parse_config -> build_mesh -> run_simulation into
a fresh output directory with ``strict=False``.  Repetitions continue
while the next one is expected to end within half a repetition of
``--seconds``; every metric is a median over the repetitions.

End-to-end metrics (``--trace 0``):

* ``run_s``: wall time of run_simulation, including CSV, snapshot and
  manifest writes;
* ``setup_s``: parse_config up to the state-0 callback (imports excluded),
  median over the full run and five extra set-up passes per repetition;
* ``step_s_p50`` and ``step_s_tail``: median, and highest percentile with
  at least ten steps beyond it, of the step times (``RunResult.step_seconds``,
  which exclude snapshot I/O), each step's time being its median over the
  repetitions; both are Harrell-Davis estimates (see ``quantile``);
* ``peak_rss_mb``: peak resident memory of the repetition's process.

Steps failing a check (not converged, solver residual above tol,
stability residual above 10 tol, max|U| > 1, mass drift for the
conserved workload) and steps left unrun after a truncation count as
``failed``; ``fail_frac = failed / attempted`` is printed with the rest.

``--trace 1`` alternates untraced repetitions with traced ones, which run
with timing wrappers around the package's layer functions (``tracer.py``),
and reports the per-layer metrics of the traced repetition with the
median traced run time, plus ``trace.overhead_s``: the median traced
minus the median untraced run time.
Spans go to ``.perfbench/traces/``, full results to ``.perfbench/results/``.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import itertools
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE_DIR = os.path.join(ROOT, ".perfbench")

END_TO_END = {"run_s": "s", "setup_s": "s", "step_s_p50": "s",
              "step_s_tail": "s", "peak_rss_mb": "MiB"}
# Per-layer metrics of the traced run (see tracer.py): name -> unit.
LAYER_UNITS = {
    "config.parse_s": "s",
    "mesh.build_s": "s",
    "mesh.element_gradients_calls": "count",
    "mesh.element_gradients_s": "s",
    "anisotropy.b_matrix_s": "s",
    "anisotropy.gamma_s": "s",
    "fem.assemble_aniso_s": "s",
    "fem.assemble_aniso_calls": "count",
    "fem.stiffness_nnz": "count",
    "fem.assemble_mobility_s": "s",
    "fem.isotropic_stiffness_calls": "count",
    "fem.lumped_mass_calls": "count",
    "obstacle.coloring_s": "s",
    "obstacle.colors": "count",
    "obstacle.solve_obstacle_s": "s",
    "obstacle.sweeps": "count",
    "obstacle.solve_coupled_s": "s",
    "obstacle.active_set_rounds": "count",
    "obstacle.factorizations": "count",
    "obstacle.factor_s": "s",
    "obstacle.factor_dim_mean": "count",
    "obstacle.factor_fill_mean": "count",
    "obstacle.factorizations_per_step": "ratio",
    "obstacle.inactive_nodes_mean": "count",
    "obstacle.kkt_residual_max": "1",
    "diagnostics.energy_s": "s",
    "diagnostics.energy_calls": "count",
    "schemes.step_s": "s",
    "schemes.step_self_s": "s",
    "output.vtk_s": "s",
    "output.vtk_bytes": "bytes",
    "output.vtk_files": "count",
    "output.csv_s": "s",
    "output.manifest_s": "s",
    "mesh.self_s": "s",
    "anisotropy.self_s": "s",
    "fem.self_s": "s",
    "obstacle.self_s": "s",
    "diagnostics.self_s": "s",
    "output.self_s": "s",
    "bench.self_s": "s",
    "trace.unattributed_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}

SETUP_PASSES = 5
BLAS_THREADS = "1"
# A run must end within 180 s; repetitions are stopped past this.
RUN_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    pass


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of
    the order statistics.  Step times cluster by the number of active-set
    rounds a step needs; a single order statistic near the edge of a
    cluster jumps to the next cluster when one step changes rounds, while
    this estimate moves in proportion."""
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1),
                    [i / n for i in range(n + 1)])
    return float(sum(x * (hi - lo) for x, lo, hi in zip(xs, edges, edges[1:])))


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer
    no such percentile exists and the maximum is returned as p100.
    """
    n = len(values)
    if n <= 10:
        return max(values), 100.0, n
    p = (n - 10) / n
    return quantile(values, p), 100.0 * p, n


def environment():
    """Commit, versions, cores, BLAS threads and the size of ``src/``."""
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "src_lines": src_lines}


def run_child(job, work_dir, timeout):
    """Run one repetition in a fresh process and return its result."""
    os.makedirs(work_dir)
    job = dict(job, work_dir=work_dir)
    job_path = os.path.join(work_dir, "job.json")
    result_path = os.path.join(work_dir, "result.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), job_path,
             result_path], env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{job['workload']}: run exceeded "
                             f"{RUN_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{job['workload']}: worker exited with "
                             f"{proc.returncode}\n{proc.stderr[-3000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["wall_s"] = time.perf_counter() - start
    shutil.rmtree(work_dir)
    return result


def repeat(jobs, seconds, work_dir):
    """Run the jobs in turn, at least once each, while the next repetition
    is expected to end no later than half a repetition after ``seconds``.
    Returns the results of each job."""
    results = [[] for _ in jobs]
    start = time.perf_counter()
    for k in itertools.count():
        results[k % len(jobs)].append(
            run_child(jobs[k % len(jobs)], os.path.join(work_dir, f"rep{k}"),
                      RUN_TIMEOUT_S - (time.perf_counter() - start)))
        elapsed = time.perf_counter() - start
        longest = max(r["wall_s"] for rs in results for r in rs)
        if k + 1 >= len(jobs) and elapsed + 0.5 * longest > seconds:
            return results


def measure(workload, seed, seconds, trace, shrink=None):
    """Run one workload and return its report (see ``format_report``)."""
    if workload not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {workload!r}")
    work_dir = os.path.join(STATE_DIR, "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    job = {"root": ROOT, "workload": workload, "seed": seed, "trace": False,
           "setup_passes": SETUP_PASSES, "shrink": shrink}
    jobs = [job]
    if trace:
        jobs.append(dict(job, trace=True, setup_passes=0))
    try:
        results = repeat(jobs, seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    reps, traced = results[0], results[1] if trace else []

    attempted = sum(r["steps_planned"] for r in reps + traced)
    failed = sum(r["failed_steps"] for r in reps + traced)
    problems = [p for r in reps + traced for p in r["problems"]]
    # Every repetition runs the same inputs, so step k does the same work
    # in each: its median over the repetitions filters transient noise
    # while the sample count, and so the tail percentile, stays fixed.
    steps = [statistics.median(ts) for ts in zip(*(r["step_seconds"] for r in reps))]
    tail_value, tail_percentile, tail_samples = tail(steps)
    e2e = {
        "run_s": statistics.median(r["run_s"] for r in reps),
        "setup_s": statistics.median(s for r in reps for s in r["setup_s"]),
        "step_s_p50": quantile(steps, 0.5),
        "step_s_tail": tail_value,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": bool(trace), "shrink": shrink,
        "repetitions": len(reps), "steps_per_repetition": reps[0]["steps_planned"],
        "tail_percentile": tail_percentile, "tail_samples": tail_samples,
        "end_to_end": e2e, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "correct": not problems,
        "problems": problems[:20], "variation": reps[0]["variation"],
        "environment": dict(environment(), **reps[0]["versions"]),
        "samples": {name: [r[name] for r in reps]
                    for name in ("run_s", "setup_s", "peak_rss_mb", "wall_s")},
    }
    if trace:
        chosen = sorted(traced, key=lambda r: r["run_s"])[(len(traced) - 1) // 2]
        layers = dict(chosen["layers"])
        layers["trace.overhead_s"] = (
            statistics.median(r["run_s"] for r in traced) - e2e["run_s"])
        spans_dir = os.path.join(STATE_DIR, "traces")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, f"{workload}-seed{seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(chosen["spans"], fh)
        report.update(layers=layers, traced_repetitions=len(traced),
                      missing_wrap_points=chosen["missing_wrap_points"],
                      spans_path=spans_path)
    return report


def result_line(report):
    """The JSON object the last line of output holds."""
    if report["trace"]:
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": report["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def format_report(report):
    e = report["end_to_end"]
    lines = [
        f"workload {report['workload']}  seed {report['seed']}  "
        f"{report['repetitions']} repetitions x "
        f"{report['steps_per_repetition']} steps  "
        f"(variation {report['variation']})",
        f"  run_s        {e['run_s']:.4f} s",
        f"  setup_s      {e['setup_s']:.4f} s",
        f"  step_s_p50   {e['step_s_p50']:.4f} s",
        f"  step_s_tail  {e['step_s_tail']:.4f} s  "
        f"(p{report['tail_percentile']:.0f} of {report['tail_samples']} steps)",
        f"  peak_rss_mb  {e['peak_rss_mb']:.1f} MiB",
        f"  fail_frac    {report['fail_frac']:.4g} ratio  "
        f"({report['failed']} of {report['attempted']} steps)",
        f"  correct      {report['correct']}",
    ]
    lines += [f"    problem: {p}" for p in report["problems"]]
    if report["trace"]:
        lines.append(f"  traced ({report['traced_repetitions']} repetitions), "
                     f"spans in {report['spans_path']}")
        lines += [f"    {name:34s} {value:.6g}"
                  for name, value in report["layers"].items()]
        if report["missing_wrap_points"]:
            lines.append(f"    missing wrap points: {report['missing_wrap_points']}")
    lines.append(f"  environment  {json.dumps(report['environment'])}")
    return "\n".join(lines)


def check_checkout():
    missing = [path for path in ["src/anisofield/__init__.py",
                                 *(w.config for w in WORKLOADS.values())]
               if not os.path.isfile(os.path.join(ROOT, path))]
    if missing:
        raise BenchmarkError(f"not a checkout of the package: missing {missing}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
        reports = [measure(name, args.seed, args.seconds, args.trace)
                   for name in names]
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    results_dir = os.path.join(STATE_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    for report in reports:
        print(format_report(report))
        path = os.path.join(results_dir, f"{report['workload']}-seed"
                            f"{report['seed']}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    lines = [result_line(r) for r in reports]
    if len(lines) > 1:
        summary = {"correct": all(l["correct"] for l in lines),
                   "attempted": sum(l["attempted"] for l in lines),
                   "failed": sum(l["failed"] for l in lines),
                   "metrics": {f"{r['workload']}.{name}": m
                               for r, l in zip(reports, lines)
                               for name, m in l["metrics"].items()}}
        lines.append(summary)
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

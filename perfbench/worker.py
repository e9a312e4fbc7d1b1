"""One repetition of one workload, run in a fresh process by ``run.py``.

Usage: ``python3 worker.py JOB_JSON RESULT_JSON``.  The job names the
checkout root, the workload, the seed, whether to trace, how many extra
set-up passes to time and the work directory.  The worker imports
anisofield from ``<root>/src``, times ``setup_passes`` set-ups that stop
at the state-0 callback, then one full run, checks every step and the
energy CSV, and writes its measurements to RESULT_JSON.
"""

import json
import os
import resource
import sys
import time


class _SetupDone(Exception):
    pass


class StepGate:
    """Per-step correctness checks, fed by the ``on_step`` callback."""

    MASS_DRIFT_STEP = 1e-8
    MASS_DRIFT_TOTAL = 5e-7

    def __init__(self, tol, conserves_mass):
        self.tol = tol
        self.conserves_mass = conserves_mass
        self.states = 0
        self.failed = 0
        self.reasons = []
        self.final = None

    def __call__(self, state):
        self.states += 1
        self.final = state
        rep = state.report
        if state.n == 0:
            self.mass0 = self.mass_prev = rep.mass
            return
        bad = []
        if not state.stats.converged:
            bad.append("not converged")
        if not state.stats.residual <= self.tol:
            bad.append(f"solver_residual {state.stats.residual:.3e}")
        if not rep.stability_residual <= 10.0 * self.tol:
            bad.append(f"stab_residual {rep.stability_residual:.3e}")
        if not float(abs(state.u).max()) <= 1.0:
            bad.append("max|U| > 1")
        if self.conserves_mass:
            if not abs(rep.mass - self.mass_prev) <= self.MASS_DRIFT_STEP:
                bad.append(f"mass drift {rep.mass - self.mass_prev:.3e}")
            if not abs(rep.mass - self.mass0) <= self.MASS_DRIFT_TOTAL:
                bad.append(f"total mass drift {rep.mass - self.mass0:.3e}")
        self.mass_prev = rep.mass
        if bad:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"step {state.n}: " + ", ".join(bad))


def _setup_pass(text, out_dir):
    """Time from parse_config to the state-0 callback, then stop the run."""
    from anisofield import parse_config, run_simulation

    def stop(state):
        raise _SetupDone(time.perf_counter())

    start = time.perf_counter()
    setup = parse_config(text)
    mesh = setup.build_mesh()
    try:
        run_simulation(setup.scheme, mesh, setup.anisotropy, setup.geometry,
                       out_dir=out_dir, strict=False, on_step=stop,
                       config_text=text)
    except _SetupDone as done:
        return done.args[0] - start
    raise RuntimeError("run_simulation never called on_step for state 0")


def _check_csv(path, rows):
    from anisofield.output import CSV_HEADER

    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    problems = []
    if not lines or lines[0] != CSV_HEADER:
        problems.append("energy.csv header differs from CSV_HEADER")
    if len(lines) - 1 != rows:
        problems.append(f"energy.csv has {len(lines) - 1} rows, expected {rows}")
    return problems


def _full_run(text, out_dir, workload, steps, tol, tracer):
    from anisofield import parse_config, run_simulation

    gate = StepGate(tol, workload.conserves_mass)
    setup_end = []

    def on_step(state):
        if state.n == 0:
            setup_end.append(time.perf_counter())
        gate(state)
        if tracer is not None:
            tracer.step = state.n + 1

    def call(name, fn, *args, **kwargs):
        if tracer is None:
            return fn(*args, **kwargs)
        return tracer.span(name, fn, *args, **kwargs)

    callback = on_step if tracer is None else (
        lambda state: tracer.span("bench.on_step", on_step, state))
    start = time.perf_counter()
    setup = call("config.parse", parse_config, text)
    mesh = call("mesh.build", setup.build_mesh)
    run_start = time.perf_counter()
    result = call("run", run_simulation, setup.scheme, mesh, setup.anisotropy,
                  setup.geometry, out_dir=out_dir, strict=False,
                  on_step=callback, config_text=text)
    run_s = time.perf_counter() - run_start

    steps_run = len(result.step_seconds)
    problems = list(gate.reasons)
    problems += _check_csv(result.csv_path, gate.states)
    if gate.states != steps_run + 1:
        problems.append(f"on_step saw {gate.states} states for {steps_run} steps")
    return {
        "run_s": run_s,
        "setup_s": setup_end[0] - start,
        "step_seconds": list(result.step_seconds),
        "steps_planned": steps,
        "steps_run": steps_run,
        # Steps left unrun after a truncation count as failed.
        "failed_steps": gate.failed + steps - steps_run,
        "problems": problems,
        "final": [gate.final.report.e_gamma_h, gate.final.report.mass],
    }


def main(job_path, result_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    root = job["root"]
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy
    import scipy

    import anisofield
    import workloads

    package_dir = os.path.realpath(os.path.join(root, "src", "anisofield"))
    if os.path.dirname(os.path.realpath(anisofield.__file__)) != package_dir:
        raise RuntimeError(f"anisofield imported from {anisofield.__file__}, "
                           f"not from {package_dir}")

    workload = workloads.WORKLOADS[job["workload"]]
    shrink = job.get("shrink") or {}
    steps = shrink.get("steps") or workload.steps
    text, variation = workloads.config_text(workload, job["seed"], root, **shrink)
    tol = anisofield.parse_config(text).scheme.tol
    work = job["work_dir"]

    setups = [_setup_pass(text, os.path.join(work, f"setup{k}"))
              for k in range(job["setup_passes"])]
    tracer = None
    if job["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer().install()
    try:
        run = _full_run(text, os.path.join(work, "run"), workload, steps, tol,
                        tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    run["setup_s"] = setups + [run["setup_s"]]

    if job["seed"] == 0 and not shrink:
        for label, got, want in zip(("E_gamma_h", "mass"), run["final"],
                                    workload.reference):
            if not abs(got - want) <= workloads.REFERENCE_RTOL * abs(want):
                run["problems"].append(
                    f"final {label} {got!r} differs from reference {want!r} "
                    f"by more than {workloads.REFERENCE_RTOL:g} relative")
    if tracer is not None:
        run["layers"] = tracer.metrics("run", run["steps_run"])
        run["missing_wrap_points"] = tracer.missing
        run["spans"] = {"fields": ["name", "start", "end", "parent", "step"],
                        "spans": tracer.spans}
    run.update(
        variation=variation,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "anisofield": getattr(anisofield, "__version__", "unknown")},
    )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(run, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])

"""Command line interface.

Subcommands:

* ``run CONFIG``: run a configured simulation, emitting the energy CSV,
  optional VTK snapshots and a manifest.
* ``verify-anisotropy SPEC``: check the structural inequalities of a
  density on seeded random samples.
* ``stability-sweep CONFIG --tau-factors ...``: rerun a configuration at
  multiples of the implicit-variant step-size bound, for the standard
  scheme and the implicit diagnostic variant; failures of the latter are
  reported as data.
* ``benchmark-circle CONFIG``: compare the measured interface radius of
  an isotropic shrinking circle against the closed-form law, sampled on
  the scheme's flow clock (see ``SchemeConfig.flow_tau``).
"""

import argparse
import dataclasses
import math
import sys

import numpy as np

from .anisotropy import verify_inequalities
from .config import emit_config, parse_anisotropy_spec, parse_config
from .diagnostics import zero_level_set
from .schemes import (Circle, SolverFailure, implicit_tau_bound,
                      run_simulation)


def _load_setup(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _cmd_run(args):
    setup = _load_setup(args.config)
    out_dir = args.out or setup.out_dir or f"runs/{setup.run_id}"
    mesh = setup.build_mesh()
    result = run_simulation(setup.scheme, mesh, setup.anisotropy,
                            setup.geometry, out_dir=out_dir,
                            config_text=emit_config(setup))
    final = result.final_state
    flow_tau = setup.scheme.flow_tau
    flow = (f" (flow time n*tau/(1 + tau/eps^2) = {final.n * flow_tau:.6g})"
            if flow_tau != setup.scheme.tau else "")
    print(f"run {setup.run_id}: {final.n} steps to t = n*tau = "
          f"{final.t:.6g}{flow}")
    print(f"  E_gamma_h = {final.report.e_gamma_h:.12g}"
          + (f", F_gamma_h = {final.report.f_gamma_h:.12g}"
             if final.report.f_gamma_h is not None else ""))
    print(f"  mass = {final.report.mass:.12g}, "
          f"energy-increase flags = {result.monotonicity_violations}")
    print(f"  artifacts: {result.csv_path}")
    return 0


def _cmd_verify_anisotropy(args):
    aniso = parse_anisotropy_spec(args.spec, args.dim)
    worst = verify_inequalities(aniso, n_samples=args.samples, seed=args.seed)
    failed = False
    for name, value in worst.items():
        ok = value <= 1e-10
        failed |= not ok
        print(f"{name:13s} max scaled violation {value: .3e}  "
              f"{'ok' if ok else 'VIOLATED'}")
    return 1 if failed else 0


def _cmd_stability_sweep(args):
    setup = _load_setup(args.config)
    mesh = setup.build_mesh()
    base = setup.scheme
    b0 = base.b0 if base.scheme != "allen_cahn" else 1.0
    bound = implicit_tau_bound(base.eps, base.theta, base.alpha, b0)
    print(f"implicit-variant step bound: tau < {bound:.6g}")
    print("factor      tau        variant    converged  max_resid   monotone")
    for factor in args.tau_factors:
        tau = factor * bound
        for implicit in (False, True):
            cfg = dataclasses.replace(base, tau=tau, t_end=args.steps * tau,
                                      implicit=implicit)
            label = "implicit" if implicit else "standard"
            try:
                result = run_simulation(cfg, mesh, setup.anisotropy,
                                        setup.geometry, strict=False)
            except ValueError as exc:
                print(f"{factor:<10.3g} {tau:<10.3g} {label:<10s} "
                      f"rejected ({exc})")
                continue
            resid = max((r.stab_residual for r in result.records[1:]),
                        default=0.0)
            energies = [r.f_gamma_h if r.f_gamma_h is not None else r.e_gamma_h
                        for r in result.records]
            monotone = all(b <= a + 10.0 * cfg.tol
                           for a, b in zip(energies, energies[1:]))
            print(f"{factor:<10.3g} {tau:<10.3g} {label:<10s} "
                  f"{str(not result.failed):<10s} {resid:<11.3e} {monotone}")
    return 0


def _cmd_benchmark_circle(args):
    setup = _load_setup(args.config)
    if (setup.scheme.scheme != "allen_cahn" or setup.dim != 2
            or not isinstance(setup.geometry, Circle)):
        print("benchmark-circle needs a 2d allen_cahn scheme with circle "
              "initial data", file=sys.stderr)
        return 2
    aniso = setup.anisotropy
    if aniso.n_terms != 1 or not np.array_equal(aniso.matrices[0], np.eye(2)):
        print("benchmark-circle compares against the isotropic law and needs "
              "the Euclidean density gamma(p) = |p| (spec = iso), not "
              f"{setup.anisotropy_spec!r}", file=sys.stderr)
        return 2
    tau, flow_tau = setup.scheme.tau, setup.scheme.flow_tau
    times = sorted(args.times)
    steps = [int(round(t / flow_tau)) for t in times]
    cfg = dataclasses.replace(setup.scheme, t_end=max(steps) * tau)
    mesh = setup.build_mesh()
    r0 = setup.geometry.radius
    center = np.asarray(setup.geometry.center)
    measured = {}

    def on_step(state):
        if state.n in steps:
            contour = zero_level_set(mesh, state.u)
            measured[state.n] = (float(contour.distances(center).mean())
                                 if len(contour) else float("nan"))

    run_simulation(cfg, mesh, aniso, setup.geometry, on_step=on_step)
    h = mesh.mesh_size
    tol = max(2.0 * h, cfg.eps)
    print(f"flow time n*tau' with tau' = {flow_tau:.6g} (tau = {tau:.6g})")
    print("t           step     measured    predicted   error")
    worst = 0.0
    for t, n in zip(times, steps):
        pred = math.sqrt(max(r0 * r0 - 2.0 * n * flow_tau, 0.0))
        got = measured.get(n, float("nan"))
        err = abs(got - pred)
        worst = max(worst, err)
        print(f"{t:<11.6g} {n:<8d} {got:<11.6g} {pred:<11.6g} {err:.3e}")
    print(f"max error {worst:.3e} (tolerance max(2h, eps) = {tol:.3e})")
    return 0 if worst <= tol else 1


def _positive_numbers(text):
    """argparse type: comma-separated positive finite numbers."""
    values = [float(v) for v in text.split(",")]
    if not all(0.0 < v < math.inf for v in values):
        raise argparse.ArgumentTypeError(f"not all positive and finite: {text}")
    return values


def _count(text):
    """argparse type: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text}")
    return int(text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="anisofield",
        description="Anisotropic phase-field solver with the obstacle potential")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured simulation")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify-anisotropy",
                           help="check density inequalities on random samples")
    p_ver.add_argument("spec")
    p_ver.add_argument("--dim", type=int, default=2, choices=(2, 3))
    p_ver.add_argument("--samples", type=_count, default=100_000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=_cmd_verify_anisotropy)

    p_sweep = sub.add_parser("stability-sweep",
                             help="stress the schemes at large time steps")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--tau-factors", type=_positive_numbers,
                         default="1,100,10000")
    p_sweep.add_argument("--steps", type=_count, default=10)
    p_sweep.set_defaults(func=_cmd_stability_sweep)

    p_bench = sub.add_parser("benchmark-circle",
                             help="isotropic shrinking-circle benchmark")
    p_bench.add_argument("config")
    p_bench.add_argument("--times", type=_positive_numbers,
                         default="0.01,0.02,0.03")
    p_bench.set_defaults(func=_cmd_benchmark_circle)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, SolverFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Numbers behind the flow clock of the semi-implicit Allen-Cahn scheme.

The standard scheme treats the concave part of the obstacle potential
explicitly, -M U^old / eps = -M U / eps + M (U - U^old) / eps, so one step
at tau is the implicit-potential step at tau' = tau / (1 + tau/eps^2) and
step n approximates the flow at time n tau', not n tau.  Each subcommand
prints the numbers that DECISIONS.md records:

    PYTHONPATH=src python scripts/flow_clock.py identity
    PYTHONPATH=src python scripts/flow_clock.py circle --tau 1e-4
    PYTHONPATH=src python scripts/flow_clock.py wulff --tau 1e-4

The circle and wulff runs use the pinned setting of acceptance criteria 7
and 8: N = 128 on (-0.5, 0.5)^2, eps = 1/(16 pi) and a circle of radius
0.3 at the origin.  The identity run uses N = 32.
"""

import argparse
import math

import numpy as np

from anisofield import (Circle, SchemeConfig, Workspace, allen_cahn_step,
                        build_uniform_mesh, initial_profile, initial_state,
                        isotropic, make_regularized_l1)
from anisofield.diagnostics import wulff_shape_distance, zero_level_set

EPS_INV = 16.0 * math.pi
EPS = 1.0 / EPS_INV
R0 = 0.3
CENTER = (0.0, 0.0)


def flow_tau(tau):
    return SchemeConfig("allen_cahn", eps_inv=EPS_INV, tau=tau,
                        t_end=tau).flow_tau


def _march(mesh, aniso, tau, n_steps, on_step, tol=1e-9, implicit=False):
    cfg = SchemeConfig("allen_cahn", eps_inv=EPS_INV, tau=tau,
                       t_end=n_steps * tau, tol=tol, implicit=implicit)
    ws = Workspace(mesh, aniso, cfg)
    state = initial_state(ws, initial_profile(mesh, EPS, Circle(CENTER, R0)))
    for _ in range(n_steps):
        state = allen_cahn_step(state, ws)
        if not state.stats.converged:
            raise RuntimeError(f"step {state.n} did not converge")
        if on_step(state) is False:
            break


def cmd_identity(args):
    mesh = build_uniform_mesh(2, 0.5, 32)
    tau = 1e-4
    for name, aniso in (("iso", isotropic(2)),
                        ("l1reg:0.01", make_regularized_l1(2, 0.01))):
        runs = []
        for step_tau, implicit in ((tau, False), (flow_tau(tau), True)):
            fields = []
            _march(mesh, aniso, step_tau, 10, lambda s: fields.append(s.u),
                   tol=1e-12, implicit=implicit)
            runs.append(np.array(fields))
        print(f"{name:11s} max |U_standard(tau) - U_implicit(tau')| over 10 "
              f"steps: {np.abs(runs[0] - runs[1]).max():.1e}")


def _radius(mesh, u):
    return float(zero_level_set(mesh, u).distances(CENTER).mean())


def cmd_circle(args):
    tau = args.tau
    tau_f = flow_tau(tau)
    mesh = build_uniform_mesh(2, 0.5, 128)
    times = (0.01, 0.02, 0.03)
    old = {int(round(t / tau)): t for t in times}
    new = {int(round(t / tau_f)): t for t in times}
    n_fit = max(old)
    radii = {}

    def on_step(state):
        if state.n <= n_fit or state.n in new:
            radii[state.n] = _radius(mesh, state.u)

    _march(mesh, isotropic(2), tau, max(max(old), max(new)), on_step)
    print(f"tau = {tau:g}, 1 + tau/eps^2 = {1.0 + tau / EPS**2:.4f}, "
          f"tau' = {tau_f:.6g}, tolerance max(2h, eps) = "
          f"{max(2.0 * mesh.mesh_size, EPS):.4f}")
    for label, samples, step in (("n tau ", old, tau), ("n tau'", new, tau_f)):
        errs = ", ".join(
            f"t={t:g} (n={n}): {abs(radii[n] - math.sqrt(R0**2 - 2*n*step)):.4f}"
            for n, t in sorted(samples.items()))
        print(f"error sampled on {label}: {errs}")
    # r^2 = r0^2 - 2 s n tau; least-squares speed s over steps 1..n_fit
    n = np.arange(1, n_fit + 1)
    r2 = np.array([radii[k] ** 2 for k in n])
    slope = np.polyfit(n * tau, r2, 1)[0]
    print(f"fitted speed -slope/2 on n tau over steps 1..{n_fit}: "
          f"{-0.5 * slope:.3f}; 1/(1 + tau/eps^2) = "
          f"{1.0 / (1.0 + tau / EPS**2):.3f}; ratio "
          f"{-0.5 * slope * (1.0 + tau / EPS**2):.3f}")


def _wulff_area(aniso, n_dirs=100_000):
    pts = aniso.wulff_boundary_sample(n_dirs)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(float(x @ np.roll(y, -1) - y @ np.roll(x, -1)))


def cmd_wulff(args):
    tau = args.tau
    tau_f = flow_tau(tau)
    aniso = make_regularized_l1(2, 0.01)
    mesh = build_uniform_mesh(2, 0.5, 128)
    d0 = wulff_shape_distance(
        zero_level_set(mesh, initial_profile(mesh, EPS, Circle(CENTER, R0))).points,
        aniso, CENTER)
    n_old = int(round(5e-3 / tau))
    n_new = int(round(5e-3 / tau_f))
    found = {"ratio2": None, "extinct": None}
    ratios = {}

    def on_step(state):
        if state.report.e_gamma_h == 0.0:
            found["extinct"] = state.n
            return False
        if found["ratio2"] is None or state.n in (n_old, n_new):
            d = wulff_shape_distance(zero_level_set(mesh, state.u).points,
                                     aniso, CENTER)
            ratios[state.n] = d0 / d
            if found["ratio2"] is None and d0 / d >= 2.0:
                found["ratio2"] = state.n
        return None

    _march(mesh, aniso, tau, int(round(0.05 / tau_f)), on_step)
    print(f"tau = {tau:g}, tau' = {tau_f:.6g}, d0 = {d0:.4f}")
    print(f"ratio d0/d at step {n_old} (n tau = 5e-3): {ratios[n_old]:.2f}")
    print(f"ratio d0/d at step {n_new} (n tau' = 5e-3): {ratios[n_new]:.2f}")
    n2 = found["ratio2"]
    if n2 is not None:
        print(f"ratio first >= 2 at step {n2}: n tau = {n2 * tau:.4g}, "
              f"n tau' = {n2 * tau_f:.4g}")
    ne = found["extinct"]
    if ne is not None:
        print(f"extinction at step {ne}: n tau = {ne * tau:.4g}, "
              f"n tau' = {ne * tau_f:.4g}")
    # the sharp-interface limit of eps u_t = eps div A'(grad u) - psi'(u)/eps
    # is V = -gamma(nu) kappa_gamma, so a convex curve loses area at the
    # rate integral of gamma (gamma + gamma'') dtheta = 2 |W_1|, whatever
    # its shape
    area0 = math.pi * R0**2
    rate = 2.0 * _wulff_area(aniso)
    print(f"area law: A0 = {area0:.4f}, 2|W_1| = {rate:.4f}, "
          f"extinction A0/(2|W_1|) = {area0 / rate:.4f}")
    # d is a length, so shrinking alone divides it by the linear size factor
    print(f"ratio d0/d from shrinkage alone by flow time 5e-3: "
          f"{math.sqrt(area0 / (area0 - 5e-3 * rate)):.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("identity").set_defaults(func=cmd_identity)
    for name, func in (("circle", cmd_circle), ("wulff", cmd_wulff)):
        p = sub.add_parser(name)
        p.add_argument("--tau", type=float, default=1e-4)
        p.set_defaults(func=func)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()

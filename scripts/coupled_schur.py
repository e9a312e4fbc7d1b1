"""Numbers behind the Schur-complement subsolve of the conserved step.

With constant mobility ``solve_coupled_ch`` eliminates W and solves the
inactive-set Schur complement by preconditioned CG, with one solver of
K_b per run (a fast transform on a Kuhn grid where it is exact, else an
LU); with degenerate mobility it factors the saddle system of every
active-set round.  Each subcommand prints the numbers that DECISIONS.md
records, comparing the Schur path with the saddle path on the same inputs,
or, for ``transform``, the K_b LU with the transform solve; ``rounds``
runs the Schur path alone and splits each step's active-set rounds into
loose and exact ones:

    PYTHONPATH=src python scripts/coupled_schur.py fig4 --steps 8
    PYTHONPATH=src python scripts/coupled_schur.py rounds --steps 20
    PYTHONPATH=src python scripts/coupled_schur.py neumann --steps 30
    PYTHONPATH=src python scripts/coupled_schur.py degenerate --steps 10
    PYTHONPATH=src python scripts/coupled_schur.py update --steps 3
    PYTHONPATH=src python scripts/coupled_schur.py ordering --count 8
    PYTHONPATH=src python scripts/coupled_schur.py transform --n2 128 --n3 24

``fig4`` and ``rounds`` run configs/fig4.cfg (Dirichlet, N = 128);
``neumann`` the setting of acceptance criterion 9 (natural boundary
conditions, constant mobility, N = 64); ``degenerate`` and ``ordering``
configs/surface_diffusion.cfg (degenerate mobility, N = 64);
``transform`` b0 K (b0 = 2) on 2d and 3d Kuhn grids under both boundary
conditions.  BLAS runs on one thread, as in the benchmark.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import math
import time
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

import anisofield.obstacle as obstacle
from anisofield import (Circle, MultiCircle, SchemeConfig, Workspace,
                        assemble_anisotropic_stiffness, build_uniform_mesh,
                        cahn_hilliard_step, initial_profile, initial_state,
                        isotropic_stiffness, lumped_mass, make_regularized_l1,
                        parse_config)
from anisofield.schemes import MOBILITY_FLOOR, assemble_mobility_stiffness

ROOT = Path(__file__).resolve().parents[1]
EPS_INV = 16.0 * math.pi


def _default_lu(mat):
    """SuperLU's default (COLAMD) LU of the zero-free pattern that
    ``obstacle._splu_symmetric`` factors, so the two differ in the
    ordering only."""
    return spla.splu(obstacle._zero_free_csc(mat))


class PcgCounter:
    """Counts the CG iterations of every Schur solve, and its failures,
    and records its tolerance."""

    def __init__(self, drop_residual_update=False):
        self.iterations, self.tols, self.failures = [], [], 0
        self.drop_residual_update = drop_residual_update

    def __enter__(self):
        original = self.original = obstacle._projected_cg

        def counted(apply, b, x, precond, tol, max_iter=500):
            calls = [0]

            def counting_apply(v):
                calls[0] += 1
                return apply(v)

            self.tols.append(tol)
            pre = precond
            if self.drop_residual_update:
                pre = lambda r: (precond(r)[0], r)  # noqa: E731
            try:
                return original(counting_apply, b, x, pre, tol, max_iter)
            except RuntimeError:
                self.failures += 1
                raise
            finally:
                # the first apply is the initial residual
                self.iterations.append(calls[0] - 1)

        obstacle._projected_cg = counted
        return self

    def __exit__(self, *exc):
        obstacle._projected_cg = self.original


def _march(case, steps, schur, counter=None):
    """Per-step (U, W, rounds, residual, seconds, report) on one path."""
    mesh, aniso, cfg, u0 = case
    ws = Workspace(mesh, aniso, cfg)
    if not schur:
        ws.mobility_factor = None
    state = initial_state(ws, u0)
    out = []
    with counter or PcgCounter():
        for _ in range(steps):
            tic = time.perf_counter()
            state = cahn_hilliard_step(state, ws)
            out.append((state.u, state.w, state.stats.iterations,
                        state.stats.residual, time.perf_counter() - tic,
                        state.report))
    return out


def _fig4_case():
    setup = parse_config((ROOT / "configs" / "fig4.cfg").read_text())
    mesh = setup.build_mesh()
    u0 = initial_profile(mesh, setup.scheme.eps, setup.geometry)
    return mesh, setup.anisotropy, setup.scheme, u0


def _neumann_case():
    mesh = build_uniform_mesh(2, 0.5, 64)
    cfg = SchemeConfig("cahn_hilliard_neumann", eps_inv=EPS_INV, tau=1e-5,
                       t_end=5e-3, theta=1.0, alpha=1.0, b0=2.0)
    geometry = MultiCircle((Circle((-0.215, 0.0), 0.2),
                            Circle((0.2, 0.0), 0.15)))
    u0 = initial_profile(mesh, cfg.eps, geometry)
    return mesh, make_regularized_l1(2, 0.01), cfg, u0


def _compare(case, steps):
    saddle = _march(case, steps, schur=False)
    counter = PcgCounter()
    schur = _march(case, steps, schur=True, counter=counter)
    print("step  rounds (saddle, schur)  seconds (saddle, schur)  "
          "KKT residual (saddle, schur)")
    for k, (a, b) in enumerate(zip(saddle, schur), start=1):
        print(f"{k:4d}  {a[2]:3d} {b[2]:3d}  {a[4]:8.3f} {b[4]:8.3f}  "
              f"{a[3]:.1e} {b[3]:.1e}")
    t_saddle = np.median([a[4] for a in saddle])
    t_schur = np.median([b[4] for b in schur])
    rounds = sum(b[2] for b in schur)
    print(f"median step: saddle {t_saddle:.3f} s, schur {t_schur:.3f} s "
          f"({t_saddle / t_schur:.1f}x)")
    print(f"same rounds on every step: "
          f"{[a[2] for a in saddle] == [b[2] for b in schur]}; "
          f"{rounds} rounds, {len(counter.iterations)} CG solves, "
          f"{np.mean(counter.iterations):.1f} CG iterations per solve "
          f"(max {max(counter.iterations)}), {counter.failures} failed")
    print(f"KKT residual: saddle {min(a[3] for a in saddle):.1e} to "
          f"{max(a[3] for a in saddle):.1e}, schur "
          f"{min(b[3] for b in schur):.1e} to {max(b[3] for b in schur):.1e}")
    du = max(np.abs(a[0] - b[0]).max() for a, b in zip(saddle, schur))
    dw = max(np.abs(a[1] - b[1]).max() for a, b in zip(saddle, schur))
    e_a, e_b = saddle[-1][5].e_gamma_h, schur[-1][5].e_gamma_h
    print(f"max |dU| {du:.1e}, max |dW| {dw:.1e}, final E_gamma_h "
          f"{e_a!r} vs {e_b!r} ({abs(e_a - e_b) / abs(e_a):.1e} relative)")
    return saddle, schur


def _describe(solver):
    """The K_b solver in use: the transform, or the LU."""
    if isinstance(solver, obstacle.GridTransform):
        return repr(solver)
    return "LU (factor_mobility)"


def cmd_fig4(args):
    case = _fig4_case()
    _compare(case, args.steps)
    # the saddle path as before the symmetric ordering
    original = obstacle._splu_symmetric
    obstacle._splu_symmetric = _default_lu
    try:
        default = _march(case, args.steps, schur=False)
    finally:
        obstacle._splu_symmetric = original
    print(f"saddle path with the default LU ordering: median step "
          f"{np.median([a[4] for a in default]):.3f} s, KKT residual "
          f"{min(a[3] for a in default):.1e} to "
          f"{max(a[3] for a in default):.1e}")
    print(f"K_b solver: {_describe(Workspace(*case[:3]).mobility_factor)}")


def cmd_neumann(args):
    _, schur = _compare(_neumann_case(), args.steps)
    masses = [b[5].mass for b in schur]
    print(f"schur mass drift: max per step "
          f"{np.abs(np.diff(masses)).max():.1e}, total "
          f"{abs(masses[-1] - masses[0]):.1e}")


def cmd_rounds(args):
    """Loose and exact active-set rounds of the Schur path, step by step."""
    mesh, aniso, cfg, u0 = _fig4_case()
    ws = Workspace(mesh, aniso, cfg)
    print(f"K_b solver: {_describe(ws.mobility_factor)}")
    # the K_b solver is built, so every LU counted below is a preconditioner
    state = initial_state(ws, u0)
    factored = []
    original = obstacle.spla.splu

    def counting_splu(mat, *a, **kw):
        factored.append(mat.shape[0])
        return original(mat, *a, **kw)

    print("step  rounds (loose, exact)  CG iterations  LUs  KKT residual")
    totals = np.zeros(5, dtype=int)
    obstacle.spla.splu = counting_splu
    try:
        for _ in range(args.steps):
            factored.clear()
            with PcgCounter() as counter:
                state = cahn_hilliard_step(state, ws)
            # a loose round runs its CG above tol/20; the rest are exact
            loose = sum(t > cfg.tol / 20.0 for t in counter.tols)
            row = (state.stats.iterations, loose,
                   state.stats.iterations - loose, state.stats.cg_iterations,
                   len(factored))
            totals += row
            print(f"{state.n:4d}  {row[0]:3d} ({row[1]:2d}, {row[2]:2d})  "
                  f"{row[3]:13d}  {row[4]:3d}  {state.stats.residual:.1e}"
                  f"{'' if state.stats.converged else '  not converged'}")
    finally:
        obstacle.spla.splu = original
    print(f"total {totals[0]} rounds ({totals[1]} loose, {totals[2]} exact), "
          f"{totals[3]} CG iterations, {totals[4]} LUs")
    print(f"final E_gamma_h {state.report.e_gamma_h!r}, mass "
          f"{state.report.mass!r}")


def cmd_update(args):
    """Projected CG without the residual update of Gould, Hribar & Nocedal."""
    case = _neumann_case()
    for drop in (False, True):
        counter = PcgCounter(drop_residual_update=drop)
        out = _march(case, args.steps, schur=True, counter=counter)
        print(f"residual update {'off' if drop else 'on '}: "
              f"{len(counter.iterations)} CG solves, iterations "
              f"{counter.iterations}, {counter.failures} failed; "
              f"KKT residual per step "
              f"{', '.join(f'{o[3]:.1e}' for o in out)}")


def cmd_degenerate(args):
    """The Schur path on degenerate-mobility steps, from the saddle states."""
    setup = parse_config(
        (ROOT / "configs" / "surface_diffusion.cfg").read_text())
    mesh, aniso, cfg = setup.build_mesh(), setup.anisotropy, setup.scheme
    ws = Workspace(mesh, aniso, cfg)
    state = initial_state(ws, initial_profile(mesh, cfg.eps, setup.geometry))
    for _ in range(args.steps):
        k_b = assemble_mobility_stiffness(
            mesh, state.u,
            lambda v: np.maximum(1.0 - v * v, MOBILITY_FLOOR), ws.iso_block)
        k_aniso = assemble_anisotropic_stiffness(mesh, aniso, state.u)
        kwargs = dict(theta=cfg.theta, tau=cfg.tau, eps=cfg.eps,
                      alpha=cfg.alpha, c_psi=cfg.c_psi, tol=cfg.tol)
        counter = PcgCounter()
        with counter:
            # the Schur path with an LU solver f -> W of the floored K_b
            _, _, stats = obstacle.solve_coupled_ch(
                ws.mass, k_b, k_aniso, state.u,
                kb_factor=obstacle.factor_mobility(k_b, ws.mass), **kwargs)
        state = cahn_hilliard_step(state, ws)
        print(f"step {state.n}: schur converged {stats.converged}, KKT "
              f"residual {stats.residual:.1e}, {stats.iterations} rounds, "
              f"CG iterations {counter.iterations}, {counter.failures} "
              f"failed; saddle {state.stats.iterations} rounds, residual "
              f"{state.stats.residual:.1e}")


def cmd_ordering(args):
    """Default LU against the symmetric ordering on captured saddles, both
    factoring the pattern without its explicit zeros."""
    setup = parse_config(
        (ROOT / "configs" / "surface_diffusion.cfg").read_text())
    mesh, aniso, cfg = setup.build_mesh(), setup.anisotropy, setup.scheme
    ws = Workspace(mesh, aniso, cfg)
    state = initial_state(ws, initial_profile(mesh, cfg.eps, setup.geometry))
    saddles = []
    original = spla.splu

    def capture(mat, *a, **kw):
        if mat.shape[0] > mesh.n_vertices and len(saddles) < args.count:
            saddles.append(mat.tocsc())
        return original(mat, *a, **kw)

    spla.splu = capture
    try:
        while len(saddles) < args.count:
            state = cahn_hilliard_step(state, ws)
    finally:
        spla.splu = original
    rng = np.random.default_rng(0)
    rows = []
    for mat in saddles:
        b = rng.standard_normal(mat.shape[0])
        row = []
        for factor in (_default_lu, obstacle._splu_symmetric):
            times = []
            for _ in range(args.repeats):
                tic = time.perf_counter()
                lu = factor(mat)
                times.append(time.perf_counter() - tic)
            x = lu.solve(b)
            row.append((np.median(times), lu.L.nnz + lu.U.nnz,
                        np.linalg.norm(mat @ x - b) / np.linalg.norm(b)))
        rows.append(row)
    for label, k in (("default (COLAMD)", 0), ("symmetric (MMD_AT_PLUS_A)", 1)):
        print(f"{label:26s}: mean LU {1e3 * np.mean([r[k][0] for r in rows]):.1f}"
              f" ms, mean fill {np.mean([r[k][1] for r in rows]) / 1e6:.2f}M, "
              f"worst relative residual {max(r[k][2] for r in rows):.1e}")
    print(f"{len(rows)} saddles of dim {min(m.shape[0] for m in saddles)}-"
          f"{max(m.shape[0] for m in saddles)}, {args.repeats} factorizations "
          f"each")


def _median_seconds(func, repeats):
    times = []
    for _ in range(repeats):
        tic = time.perf_counter()
        func()
        times.append(time.perf_counter() - tic)
    return float(np.median(times))


def cmd_transform(args):
    """The K_b LU against the transform solve, one right side per case."""
    print("case | K_b solver | LU factor | LU solve | transform solve | "
          "max rel. diff")
    for dim, n in ((2, args.n2), (3, args.n3)):
        for dirichlet in (True, False):
            mesh = build_uniform_mesh(dim, 0.5, n)
            k_b = (2.0 * isotropic_stiffness(mesh)).tocsr()
            mass = lumped_mass(mesh)
            mask = mesh.boundary_mask if dirichlet else None
            tic = time.perf_counter()
            lu = obstacle.factor_mobility(k_b, mass, mask)
            t_factor = time.perf_counter() - tic
            f = np.random.default_rng(0).standard_normal(
                mesh.n_vertices if mask is None else np.count_nonzero(~mask))
            ref = lu(f)
            t_lu = _median_seconds(lambda: lu(f), args.repeats)
            solver = obstacle.mobility_solver(k_b, mass, dim, mask)
            case = f"{dim}d N={n} {'Dirichlet' if dirichlet else 'natural'}"
            row = (f"{case} | {_describe(solver)} | {1e3 * t_factor:.1f} ms | "
                   f"{1e3 * t_lu:.2f} ms | ")
            if not isinstance(solver, obstacle.GridTransform):
                print(row + "- | -")
                continue
            t_tr = _median_seconds(lambda: solver(f), args.repeats)
            diff = np.abs(solver(f) - ref).max() / np.abs(ref).max()
            print(row + f"{1e3 * t_tr:.2f} ms | {diff:.1e}")
    print(f"median of {args.repeats} solves; one factorization each")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, steps in (("fig4", cmd_fig4, 8),
                              ("rounds", cmd_rounds, 20),
                              ("neumann", cmd_neumann, 30),
                              ("update", cmd_update, 3),
                              ("degenerate", cmd_degenerate, 10)):
        p = sub.add_parser(name)
        p.add_argument("--steps", type=int, default=steps)
        p.set_defaults(func=func)
    p = sub.add_parser("ordering")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--repeats", type=int, default=5)
    p.set_defaults(func=cmd_ordering)
    p = sub.add_parser("transform")
    p.add_argument("--n2", type=int, default=128)
    p.add_argument("--n3", type=int, default=24)
    p.add_argument("--repeats", type=int, default=20)
    p.set_defaults(func=cmd_transform)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()

"""Numbers behind the LUs of the obstacle solve.

Every LU of ``solve_obstacle`` goes through ``obstacle._splu_symmetric``
(a symmetric minimum-degree ordering in SuperLU's SymmetricMode).  Each
subcommand prints the numbers that DECISIONS.md records:

    PYTHONPATH=src python scripts/obstacle_lu.py ordering --steps 100
    PYTHONPATH=src python scripts/obstacle_lu.py newton --steps 100
    PYTHONPATH=src python scripts/obstacle_lu.py fallback

``ordering`` runs an Allen-Cahn configuration (configs/fig1.cfg unless
``--config`` names another) once with SuperLU's default COLAMD ordering
in place of the helper (both factor the pattern without its explicit
zeros) and once as shipped, and compares the LUs, the active-set rounds
of every step and U.  ``newton`` runs it once with
projected Newton alone (from U^old, at most 100 rounds) as the obstacle
solver and compares with the shipped loop-first solve.  ``fallback``
solves the random dense SPD systems A = R^T R + shift I of DECISIONS.md
at tol = 1e-10.  BLAS runs on one thread, as in the benchmark.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import anisofield.obstacle as obstacle
import anisofield.schemes as schemes
from anisofield import parse_config, run_simulation, solve_obstacle

ROOT = Path(__file__).resolve().parents[1]


def _run(path, steps):
    """U of every state, rounds of every step, and (dim, fill, seconds)
    of every LU of a run of ``steps`` steps of the configuration."""
    setup = parse_config(Path(path).read_text())
    cfg = dataclasses.replace(setup.scheme, t_end=steps * setup.scheme.tau)
    lus, original = [], spla.splu

    def timed(mat, *a, **kw):
        tic = time.perf_counter()
        lu = original(mat, *a, **kw)
        lus.append((mat.shape[0], lu.L.nnz + lu.U.nnz,
                    time.perf_counter() - tic))
        return lu

    states = []
    spla.splu = timed
    try:
        run_simulation(cfg, setup.build_mesh(), setup.anisotropy,
                       setup.geometry, strict=False,
                       on_step=lambda s: states.append(
                           (s.u, s.stats, s.report.e_gamma_h)))
    finally:
        spla.splu = original
    u = np.array([s[0] for s in states])
    rounds = np.array([s[1].iterations for s in states[1:]])
    unconverged = sum(not s[1].converged for s in states[1:])
    return u, rounds, unconverged, np.array(lus), states[-1][2]


def _default_lu(mat):
    """SuperLU's default (COLAMD) LU of the zero-free pattern that
    ``obstacle._splu_symmetric`` factors."""
    mat = mat.tocsc()
    mat.eliminate_zeros()
    return spla.splu(mat)


def cmd_ordering(args):
    original = obstacle._splu_symmetric
    obstacle._splu_symmetric = _default_lu
    try:
        default = _run(args.config, args.steps)
    finally:
        obstacle._splu_symmetric = original
    symmetric = _run(args.config, args.steps)
    for label, (_, rounds, _, lus, energy) in (
            ("default (COLAMD)", default),
            ("symmetric (MMD_AT_PLUS_A)", symmetric)):
        print(f"{label:26s}: {len(lus)} LUs of mean dim {lus[:, 0].mean():.0f},"
              f" mean fill {lus[:, 1].mean():.0f}, mean LU "
              f"{1e3 * lus[:, 2].mean():.2f} ms, {rounds.sum()} rounds, "
              f"final E_gamma_h {energy!r}")
    print(f"same rounds on every step: "
          f"{np.array_equal(default[1], symmetric[1])}, max |dU| "
          f"{np.abs(default[0] - symmetric[0]).max():.1e}")


def cmd_newton(args):
    def newton_alone(a_mat, rhs, x0=None, tol=1e-9):
        a_mat = a_mat.tocsr()
        x, res, rounds, ok = obstacle._projected_newton(
            a_mat, rhs, np.clip(x0, -1.0, 1.0), tol, max_rounds=100)
        return obstacle.ViSolution(x, np.zeros_like(x), rounds, res, ok)

    loop = _run(args.config, args.steps)
    original = schemes.solve_obstacle
    schemes.solve_obstacle = newton_alone
    try:
        newton = _run(args.config, args.steps)
    finally:
        schemes.solve_obstacle = original
    for label, (_, _, unconverged, lus, _) in (("loop first", loop),
                                               ("projected Newton", newton)):
        print(f"{label:16s}: {len(lus)} LUs, {unconverged} of {args.steps} "
              f"solves unconverged")
    print(f"max |dU| over all states {np.abs(loop[0] - newton[0]).max():.1e}")


def cmd_fallback(args):
    for count, n_max, shift in ((300, 30, 0.01), (2000, 30, 0.01),
                                (500, 60, 1e-4), (300, 30, 0.5)):
        tic = time.perf_counter()
        iterations = unconverged = 0
        for seed in range(count):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, n_max + 1))
            r = rng.standard_normal((n, n))
            sol = solve_obstacle(sp.csr_matrix(r.T @ r + shift * np.eye(n)),
                                 3.0 * rng.standard_normal(n), tol=1e-10)
            iterations += sol.iterations
            unconverged += not sol.converged
        print(f"{count} systems at +{shift:g} I, n up to {n_max}: "
              f"{unconverged} unconverged, {iterations} iterations, "
              f"{time.perf_counter() - tic:.1f} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (("ordering", cmd_ordering), ("newton", cmd_newton)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=str(ROOT / "configs" / "fig1.cfg"))
        p.add_argument("--steps", type=int, default=100)
        p.set_defaults(func=func)
    sub.add_parser("fallback").set_defaults(func=cmd_fallback)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()

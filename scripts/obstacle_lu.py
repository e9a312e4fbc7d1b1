"""Numbers behind the factors of the obstacle solve.

Every factor of ``solve_obstacle`` (the inactive blocks of the
active-set loop and the free blocks of its projected-Newton fallback)
goes through ``obstacle._factor_spd``, a banded Cholesky in a reverse
Cuthill-McKee ordering.  Each subcommand prints the numbers that
DECISIONS.md records:

    PYTHONPATH=src python scripts/obstacle_lu.py band --steps 100
    PYTHONPATH=src python scripts/obstacle_lu.py fallback

``band`` runs an Allen-Cahn configuration (configs/fig1.cfg unless
``--config`` names another) once as shipped and once with
``obstacle._splu_symmetric`` (SuperLU with a symmetric minimum-degree
ordering) in its place, and compares the factors (the band's size
against SuperLU's fill), the active-set rounds of every step and U.
``fallback`` solves the random dense SPD systems A = R^T R + shift I of
DECISIONS.md at tol = 1e-10.  BLAS runs on one thread, as in the
benchmark.
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

import anisofield.obstacle as obstacle
from anisofield import parse_config, run_simulation, solve_obstacle

ROOT = Path(__file__).resolve().parents[1]


def _size(factor):
    """The entries a factor stores: the band, or SuperLU's L and U."""
    if isinstance(factor, obstacle._BandFactor):
        return factor.band.size
    return factor.L.nnz + factor.U.nnz


def _run(path, steps, factorize=None):
    """U of every state, rounds of every step, and (dim, size, seconds)
    of every factor of a run of ``steps`` steps of the configuration,
    with ``factorize``, if given, in place of ``obstacle._factor_spd``."""
    setup = parse_config(Path(path).read_text())
    cfg = dataclasses.replace(setup.scheme, t_end=steps * setup.scheme.tau)
    original = obstacle._factor_spd
    factorize = factorize or original
    factors = []

    def timed(mat, **kwargs):
        tic = time.perf_counter()
        factor = factorize(mat, **kwargs)
        factors.append((mat.shape[0], _size(factor),
                        time.perf_counter() - tic))
        return factor

    states = []
    obstacle._factor_spd = timed
    try:
        run_simulation(cfg, setup.build_mesh(), setup.anisotropy,
                       setup.geometry, strict=False,
                       on_step=lambda s: states.append(
                           (s.u, s.stats, s.report.e_gamma_h)))
    finally:
        obstacle._factor_spd = original
    u = np.array([s[0] for s in states])
    rounds = np.array([s[1].iterations for s in states[1:]])
    factors = np.array(factors).reshape(-1, 3)
    return u, rounds, factors, states[-1][2]


def cmd_band(args):
    superlu = _run(args.config, args.steps, obstacle._splu_symmetric)
    band = _run(args.config, args.steps)
    for label, (_, rounds, factors, energy) in (
            ("SuperLU (MMD_AT_PLUS_A)", superlu),
            ("banded Cholesky (RCM)", band)):
        dim, size, seconds = factors.mean(axis=0)
        print(f"{label:23s}: {len(factors)} factors of mean dim {dim:.0f},"
              f" mean size {size:.0f}, mean factor {1e3 * seconds:.2f} ms, "
              f"{rounds.sum()} rounds, final E_gamma_h {energy!r}")
    print(f"same rounds on every step: "
          f"{np.array_equal(superlu[1], band[1])}, max |dU| "
          f"{np.abs(superlu[0] - band[0]).max():.1e}")


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
    p = sub.add_parser("band")
    p.add_argument("--config", default=str(ROOT / "configs" / "fig1.cfg"))
    p.add_argument("--steps", type=int, default=100)
    p.set_defaults(func=cmd_band)
    sub.add_parser("fallback").set_defaults(func=cmd_fallback)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()

"""Numbers behind the interface-band assembly and energy.

``fem.assemble_anisotropic_stiffness`` adds a correction on the band
elements (``fem.interface_band``: vertex values not all equal) to the
run's far-field stiffness L sum_l K_l, and ``diagnostics.discrete_energy``
sums the gradient energy over the band only.  This script runs an
Allen-Cahn or Cahn-Hilliard configuration (configs/fig1.cfg unless
``--config`` names another) and, for the state U^n that each step starts
from, prints the band fraction, the assembly and gradient-energy times
over all elements and over the band (best of ``--repeats``), and the
largest differences of K and of the gradient energy relative to their
largest entry and value:

    PYTHONPATH=src python scripts/band_assembly.py --steps 100
    PYTHONPATH=src python scripts/band_assembly.py \\
        --config perfbench/ac3d_sphere.cfg --steps 40

"All elements" is the element-by-element path the band replaces: B
frozen at the P1 gradient of every element, one weighted ``bincount``
of all blocks.  BLAS runs on one thread, as in the benchmark.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import time
from pathlib import Path

import numpy as np

from anisofield import fem, parse_config, run_simulation
from anisofield.schemes import Workspace

ROOT = Path(__file__).resolve().parents[1]


def _best(fn, repeats):
    """Smallest wall time of ``repeats`` calls and the last result."""
    best = np.inf
    for _ in range(repeats):
        tic = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - tic)
    return best, result


def full_assembly(ws, u):
    """K over all elements: c_l at every element's own gradient."""
    mesh = ws.mesh
    coeffs = ws.aniso.b_coefficients(mesh.element_gradients(u))
    local = np.einsum("le,leij->eij", coeffs,
                      ws.aniso_blocks[:, mesh.element_class])
    return fem._csr(mesh, fem._scatter(mesh, local))


def full_gradient_energy(ws, u):
    mesh = ws.mesh
    gamma = ws.aniso.gamma(mesh.element_gradients(u))
    volume = mesh.class_volume[mesh.element_class]
    return 0.5 * ws.config.eps * float(volume @ gamma ** 2)


def band_assembly(ws, u):
    return fem.assemble_anisotropic_stiffness(ws.mesh, ws.aniso, u,
                                              ws.aniso_blocks, ws.far_field)


def band_gradient_energy(ws, u):
    band, grads = fem.interface_band(ws.mesh, u)
    gamma = ws.aniso.gamma(grads)
    volume = ws.mesh.class_volume[ws.mesh.element_class[band]]
    return 0.5 * ws.config.eps * float(volume @ gamma ** 2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=str(ROOT / "configs" / "fig1.cfg"))
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--subdivisions", type=int,
                        help="mesh cells per axis (default: the config's)")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    setup = parse_config(Path(args.config).read_text())
    if args.subdivisions:
        setup.subdivisions = args.subdivisions
    cfg = dataclasses.replace(setup.scheme, t_end=args.steps * setup.scheme.tau)
    mesh = setup.build_mesh()
    states = []
    run_simulation(cfg, mesh, setup.anisotropy, setup.geometry,
                   strict=False, on_step=lambda s: states.append(s.u))
    ws = Workspace(mesh, setup.anisotropy, cfg)
    ws.far_field  # built once per run, outside the timings

    print(f"{mesh!r}, {setup.anisotropy!r}")
    print(" step   band  assembly ms (all / band)   energy ms (all / band)"
          "   max rel dK   rel dE")
    rows = []
    for n, u in enumerate(states[:-1]):
        t_full, k_full = _best(lambda: full_assembly(ws, u), args.repeats)
        t_band, k_band = _best(lambda: band_assembly(ws, u), args.repeats)
        e_full_t, e_full = _best(lambda: full_gradient_energy(ws, u),
                                 args.repeats)
        e_band_t, e_band = _best(lambda: band_gradient_energy(ws, u),
                                 args.repeats)
        band = fem.interface_band(mesh, u)[0].size / mesh.n_elements
        dk = abs(k_full - k_band).max() / abs(k_full).max()
        de = abs(e_full - e_band) / max(abs(e_full), np.finfo(float).tiny)
        rows.append((band, t_full, t_band, e_full_t, e_band_t, dk, de))
        print(f"{n:5d}  {band:5.3f}  {1e3 * t_full:10.2f} / {1e3 * t_band:6.2f}"
              f"          {1e3 * e_full_t:8.2f} / {1e3 * e_band_t:6.2f}"
              f"      {dk:9.1e}  {de:8.1e}")
    rows = np.array(rows)
    print(f"band fraction {rows[:, 0].min():.3f}-{rows[:, 0].max():.3f}; "
          f"assembly {1e3 * rows[:, 1].sum():.1f} -> "
          f"{1e3 * rows[:, 2].sum():.1f} ms; gradient energy "
          f"{1e3 * rows[:, 3].sum():.1f} -> {1e3 * rows[:, 4].sum():.1f} ms; "
          f"max rel dK {rows[:, 5].max():.1e}, max rel dE "
          f"{rows[:, 6].max():.1e}")


if __name__ == "__main__":
    main()

"""The benchmark's workloads and how a seed varies their inputs.

Each workload is a shipped configuration run for a fixed number of steps
(the full configurations take minutes).  Seed 0 runs the configuration
unchanged apart from ``t_end``; any other seed rotates an ``l1reg``
density by a seeded angle below MAX_ROTATION_DEG and shifts the initial
geometry by less than MAX_SHIFT_CELLS mesh cells per axis.

The perturbations are kept far below what the mesh resolves because the
step times cluster by the number of active-set rounds a step needs (one,
two, three, ...).  Half-cell shifts change how many steps need one round
rather than two, which moves the median and tail step time from one
cluster to the next between seeds; at these sizes every seed gives
different inputs with the same per-step work pattern.
"""

import random
from dataclasses import dataclass, replace

MAX_ROTATION_DEG = 0.01
MAX_SHIFT_CELLS = 1e-3

# Relative tolerance of the seed-0 final energy and mass against the
# values the package gave when the benchmark was written.
REFERENCE_RTOL = 1e-7


@dataclass(frozen=True)
class Workload:
    name: str
    config: str              # path relative to the checkout root
    steps: int               # steps per run; sets t_end = steps * tau
    why: str
    conserves_mass: bool = False
    reference: tuple = ()    # seed-0 final (E_gamma_h, mass)


WORKLOADS = {w.name: w for w in (
    Workload("ac2d_fig1", "configs/fig1.cfg", 100,
             "2d Allen-Cahn N=128: anisotropic assembly and energy dominate; "
             "obstacle solves with small polish LUs, no saddle solves",
             reference=(2.980279529670388, -0.5599828201604883)),
    Workload("ch2d_fig4", "configs/fig4.cfg", 20,
             "2d Dirichlet Cahn-Hilliard N=128: constant K_b, several large "
             "saddle LUs per step, so factorization dominates",
             reference=(4.678283636311427, 0.0935130913005731)),
    Workload("ch2d_surface_diffusion", "configs/surface_diffusion.cfg", 100,
             "2d Cahn-Hilliard N=64, degenerate mobility: K_b reassembled "
             "each step, mean-constraint path, few small saddle LUs",
             conserves_mass=True, reference=(3.8411497069875526, -0.604964408208776)),
    Workload("ac3d_sphere", "perfbench/ac3d_sphere.cfg", 40,
             "3d isotropic Allen-Cahn N=24: tetrahedral assembly, 3d mesh "
             "build and the 3d VTK writer",
             reference=(1.378621851205768, -0.7944920716695058)),
)}


def _shifted(geometry, shift):
    from anisofield.schemes import Circle, MultiCircle

    if isinstance(geometry, MultiCircle):
        return MultiCircle(tuple(_shifted(c, shift) for c in geometry.circles))
    if isinstance(geometry, Circle):  # also Sphere
        center = tuple(c + s for c, s in zip(geometry.center, shift))
        return type(geometry)(center, geometry.radius)
    return geometry


def config_text(workload, seed, root, subdivisions=None, steps=None, tol=None):
    """Resolved configuration text of ``workload`` for ``seed``.

    ``subdivisions``, ``steps`` and ``tol`` shrink or break the workload
    for the benchmark's own tests.  Returns the text and a record of what
    the seed changed.
    """
    from anisofield import emit_config, parse_config
    from anisofield.config import parse_anisotropy_spec

    with open(f"{root}/{workload.config}", encoding="utf-8") as fh:
        setup = parse_config(fh.read())
    if subdivisions is not None:
        setup.subdivisions = subdivisions
    sc = setup.scheme
    setup.scheme = replace(sc, t_end=(steps or workload.steps) * sc.tau,
                           tol=sc.tol if tol is None else tol)
    variation = {"seed": seed, "rotation_deg": 0.0, "shift": [0.0] * setup.dim}
    if seed != 0:
        rng = random.Random(seed)
        spec = setup.anisotropy_spec
        if spec.startswith("l1reg:") and ":rot=" not in spec:
            angle = rng.uniform(0.0, MAX_ROTATION_DEG)
            spec += f":rot={angle!r}" if setup.dim == 2 else f":rot=z,{angle!r}"
            setup.anisotropy = parse_anisotropy_spec(spec, setup.dim)
            setup.anisotropy_spec = spec
            variation["rotation_deg"] = angle
        h = MAX_SHIFT_CELLS * 2.0 * setup.half_width / setup.subdivisions
        shift = [rng.uniform(-h, h) for _ in range(setup.dim)]
        shifted = _shifted(setup.geometry, shift)
        if shifted != setup.geometry:
            setup.geometry = shifted
            variation["shift"] = shift
    return emit_config(setup), variation

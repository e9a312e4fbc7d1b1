"""Semi-implicit time stepping for the anisotropic phase-field schemes.

Three schemes share the same linearized variational inequality for the
order parameter U, with the anisotropic operator frozen at the previous
gradient:

* ``allen_cahn``: the chemical potential is eliminated nodewise, leaving
  one SPD obstacle problem per step.
* ``cahn_hilliard_neumann``: conserved dynamics with natural boundary
  conditions; constant or degenerate mobility.
* ``cahn_hilliard_dirichlet``: conserved dynamics with the potential W
  prescribed on the boundary (supercooling), constant mobility.

Every step is unconditionally energy stable: the discrete interface
energy (boundary-augmented for the Dirichlet scheme) cannot increase, for
any time step size.  The step functions verify this and record the
stability residual; increases beyond solver tolerance are flagged, never
silently accepted.
"""

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from . import output
from .diagnostics import (dirichlet_energy_functional, discrete_energy,
                          stability_residual)
from .fem import (assemble_anisotropic_stiffness, assemble_mobility_stiffness,
                  isotropic_block, isotropic_stiffness, lumped_mass,
                  stiffness_blocks)
# nothing in the package calls pattern_coloring; the benchmark tracer wraps it
from .obstacle import (SolverStats, factor_mobility, pattern_coloring,
                       solve_coupled_ch, solve_obstacle)

__all__ = [
    "C_PSI",
    "MOBILITY_FLOOR",
    "SchemeConfig",
    "SchemeState",
    "Circle",
    "MultiCircle",
    "Sphere",
    "Cuboid",
    "Uniform",
    "initial_profile",
    "initial_state",
    "Workspace",
    "allen_cahn_step",
    "cahn_hilliard_step",
    "cahn_hilliard_dirichlet_step",
    "implicit_tau_bound",
    "run_simulation",
    "RunResult",
    "SolverFailure",
]

C_PSI = math.pi / 2
MOBILITY_FLOOR = 1e-12

SCHEMES = ("allen_cahn", "cahn_hilliard_neumann", "cahn_hilliard_dirichlet")


class SolverFailure(RuntimeError):
    """A per-step solve did not reach its tolerance."""


@dataclass
class SchemeConfig:
    """Resolved parameters of one run.

    The interface parameter is stored as ``eps_inv`` so the canonical
    value 16 pi survives a config round trip exactly; ``eps`` is the
    derived 1/eps_inv.  ``theta`` is the conserved time-scale factor,
    ``alpha`` the surface tension factor and ``c_psi`` is fixed at pi/2
    by the obstacle potential.  ``mobility`` is ``constant`` (value
    ``b0``) or ``degenerate`` (1 - u^2).  ``implicit`` switches to the
    diagnostic variant that treats the potential term implicitly and is
    only conditionally solvable.
    """

    scheme: str
    eps_inv: float
    tau: float
    t_end: float
    theta: float = 1.0
    alpha: float = 1.0
    mobility: str = "constant"
    b0: float = 2.0
    w_bdry: Optional[float] = None
    snapshot_every: int = 0
    implicit: bool = False
    tol: float = 1e-9

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        for name in ("eps_inv", "tau", "t_end", "theta", "alpha"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.mobility not in ("constant", "degenerate"):
            raise ValueError(f"unknown mobility {self.mobility!r}")
        if self.mobility == "constant" and self.b0 <= 0:
            raise ValueError("constant mobility must be positive")
        if self.scheme == "cahn_hilliard_dirichlet":
            if self.w_bdry is None:
                raise ValueError("dirichlet scheme requires w_bdry")
            if self.mobility != "constant":
                raise ValueError("dirichlet scheme uses constant mobility")
            if self.theta != 1.0:
                raise ValueError("dirichlet scheme is stated for theta = 1")
        elif self.w_bdry is not None:
            raise ValueError("w_bdry is only meaningful for the dirichlet scheme")

    @property
    def eps(self):
        return 1.0 / self.eps_inv

    @property
    def c_psi(self):
        return C_PSI


@dataclass
class SchemeState:
    """State after step ``n``: fields, energies and solver statistics.

    ``t`` is n tau.  For the standard ``allen_cahn`` scheme the step
    approximates the flow at n tau / (1 + tau/eps^2) (see
    ``allen_cahn_step``); for the ``implicit`` variant at n tau.
    """

    n: int
    t: float
    u: np.ndarray
    w: np.ndarray
    report: "object"
    dissipation: float
    stats: SolverStats


# -- initial data -----------------------------------------------------


@dataclass(frozen=True)
class Circle:
    center: tuple
    radius: float

    def signed_distance(self, x):
        return self.radius - np.linalg.norm(x - np.asarray(self.center), axis=-1)

    def bounds(self):
        c = np.asarray(self.center, dtype=float)
        return np.abs(c) + self.radius


@dataclass(frozen=True)
class MultiCircle:
    """Union of circles; the signed distance is the max over the parts."""

    circles: tuple

    def signed_distance(self, x):
        return np.max([c.signed_distance(x) for c in self.circles], axis=0)

    def bounds(self):
        return np.max([c.bounds() for c in self.circles], axis=0)


class Sphere(Circle):
    pass


@dataclass(frozen=True)
class Cuboid:
    center: tuple
    half_extents: tuple

    def signed_distance(self, x):
        q = np.abs(x - np.asarray(self.center)) - np.asarray(self.half_extents)
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(q.max(axis=-1), 0.0)
        return -(outside + inside)

    def bounds(self):
        return np.abs(np.asarray(self.center, dtype=float)) + np.asarray(
            self.half_extents, dtype=float)


@dataclass(frozen=True)
class Uniform:
    value: float


def initial_profile(mesh, eps, geometry):
    """Nodal initial data in K^h with a developed interface of width eps*pi.

    The profile follows the stationary one-dimensional shape of the
    obstacle potential: sin(dist/eps) across the band |dist| < eps*pi/2
    around the geometry boundary (signed distance positive inside) and
    exactly +-1 beyond it.  ``Uniform(v)`` gives the constant field v.
    """
    if isinstance(geometry, Uniform):
        if abs(geometry.value) > 1.0:
            raise ValueError("uniform initial value must lie in [-1, 1]")
        return np.full(mesh.n_vertices, float(geometry.value))
    if np.any(geometry.bounds() > mesh.half_width + 1e-12):
        raise ValueError("geometry does not fit inside the domain")
    dist = geometry.signed_distance(mesh.vertices)
    half_band = 0.5 * math.pi * eps
    u = np.sin(np.clip(dist, -half_band, half_band) / eps)
    u[dist >= half_band] = 1.0
    u[dist <= -half_band] = -1.0
    return u


# -- step machinery ----------------------------------------------------


class Workspace:
    """Per-mesh caches shared across steps: the mass vector, built here,
    and the isotropic stiffness, the element blocks of the stiffness
    matrices and the factor of the constant mobility stiffness, built on
    first use."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.mass = lumped_mass(mesh)
        self._aniso_blocks = None
        self._mobility_factor = None

    @functools.cached_property
    def iso_stiffness(self):
        return isotropic_stiffness(self.mesh)

    @functools.cached_property
    def iso_block(self):
        """Isotropic element block, the weight of the mobility stiffness."""
        return isotropic_block(self.mesh)

    def aniso_blocks(self, aniso):
        """Element blocks of ``aniso``'s weight matrices, kept for the last
        density asked for."""
        if self._aniso_blocks is None or self._aniso_blocks[0] is not aniso:
            self._aniso_blocks = (aniso, stiffness_blocks(self.mesh,
                                                          aniso.matrices))
        return self._aniso_blocks[1]

    def mobility_factor(self, b0, dirichlet):
        """LU of the constant mobility stiffness b0 K on the W dofs (see
        ``factor_mobility``), kept for the last (b0, dirichlet) asked for."""
        key = (b0, dirichlet)
        if self._mobility_factor is None or self._mobility_factor[0] != key:
            mask = self.mesh.boundary_mask if dirichlet else None
            self._mobility_factor = (key, factor_mobility(
                b0 * self.iso_stiffness, self.mass, mask))
        return self._mobility_factor[1]


def initial_state(mesh, aniso, config, u0, workspace=None):
    """State at t = 0 for the given admissible initial data."""
    u0 = np.asarray(u0, dtype=float)
    report = discrete_energy(mesh, aniso, config.eps, u0,
                             mass=workspace.mass if workspace else None)
    if config.scheme == "cahn_hilliard_dirichlet":
        report = report.with_dirichlet(dirichlet_energy_functional(
            report, config.alpha, config.c_psi, config.w_bdry))
    return SchemeState(0, 0.0, u0, np.zeros(mesh.n_vertices), report, 0.0,
                       SolverStats(0, 0.0, True))


def allen_cahn_step(state, config, mesh, aniso, workspace=None):
    """Advance the nonconserved scheme by one step.

    Eliminating the potential nodewise through the lumped relation
    c_psi/(2 alpha) W_j = -(eps/tau)(U_j - U_j^old) turns the variational
    inequality into an SPD obstacle problem with matrix
    eps K_B + (eps/tau) M and right side M (eps/tau + 1/eps) U^old.  The
    computed U is independent of alpha, which only scales the recovered W.

    The concave part of the potential is explicit, and
    -M U^old / eps = -M U / eps + M (U - U^old) / eps, so this step at tau
    gives the same U as the ``implicit`` variant at
    tau' = tau / (1 + tau/eps^2): same matrix, same right side.  Step n
    therefore approximates the flow at time n tau', while ``state.t``
    counts n tau.
    """
    ws = workspace or Workspace(mesh)
    u_old = state.u
    eps, tau = config.eps, config.tau
    k_aniso = assemble_anisotropic_stiffness(mesh, aniso, u_old,
                                             ws.aniso_blocks(aniso))
    a_mat = (eps * k_aniso + sp.diags((eps / tau) * ws.mass)).tocsr()
    if config.implicit:
        a_mat = (a_mat - sp.diags(ws.mass / eps)).tocsr()
        rhs = (eps / tau) * ws.mass * u_old
    else:
        rhs = ws.mass * ((eps / tau) + 1.0 / eps) * u_old
    sol = solve_obstacle(a_mat, rhs, x0=u_old, tol=config.tol)
    u = sol.solution
    w = -(2.0 * config.alpha / config.c_psi) * (eps / tau) * (u - u_old)
    delta = u - u_old
    dissipation = (eps / tau) * float(ws.mass @ (delta * delta))
    report = discrete_energy(mesh, aniso, eps, u, mass=ws.mass)
    report.stability_residual = stability_residual(state.report, report,
                                                   dissipation)
    stats = SolverStats(sol.iterations, sol.residual, sol.converged)
    return SchemeState(state.n + 1, (state.n + 1) * tau, u, w, report,
                       dissipation, stats)


def _conserved_step(state, config, mesh, aniso, ws, dirichlet):
    u_old = state.u
    eps, tau = config.eps, config.tau
    theta = 1.0 if dirichlet else config.theta
    regularized = False
    kb_lu = None
    if dirichlet or config.mobility == "constant":
        k_b = (config.b0 * ws.iso_stiffness).tocsr()
        if not config.implicit:
            kb_lu = ws.mobility_factor(config.b0, dirichlet)
    else:
        vals = 1.0 - u_old * u_old
        regularized = bool(np.any(vals < MOBILITY_FLOOR))
        k_b = assemble_mobility_stiffness(
            mesh, u_old, lambda v: np.maximum(1.0 - v * v, MOBILITY_FLOOR),
            ws.iso_block)
    k_aniso = assemble_anisotropic_stiffness(mesh, aniso, u_old,
                                             ws.aniso_blocks(aniso))
    u, w, stats = solve_coupled_ch(
        ws.mass, k_b, k_aniso, u_old,
        theta=theta, tau=tau, eps=eps, alpha=config.alpha, c_psi=config.c_psi,
        w_bdry=config.w_bdry if dirichlet else None,
        boundary_mask=mesh.boundary_mask if dirichlet else None,
        tol=config.tol, implicit=config.implicit, kb_lu=kb_lu)
    if dirichlet:
        dissipation = tau * config.b0 * float(w @ (ws.iso_stiffness @ w))
    else:
        dissipation = (tau * config.c_psi / (2.0 * theta * config.alpha)
                       * float(w @ (k_b @ w)))
    report = discrete_energy(mesh, aniso, eps, u, mass=ws.mass)
    if dirichlet:
        report = report.with_dirichlet(dirichlet_energy_functional(
            report, config.alpha, config.c_psi, config.w_bdry))
    report.stability_residual = stability_residual(state.report, report,
                                                   dissipation)
    stats.mobility_regularized = regularized
    return SchemeState(state.n + 1, (state.n + 1) * tau, u, w, report,
                       dissipation, stats)


def cahn_hilliard_step(state, config, mesh, aniso, workspace=None):
    """Advance the conserved scheme with natural boundary conditions.

    Solvability requires |(U^old, 1)^h| < |Omega|; the nodal mass is then
    conserved to solver tolerance.  With degenerate mobility the potential
    W is not unique where the mobility vanishes; the assembled mobility is
    floored at MOBILITY_FLOOR and the regularization is recorded in the
    step statistics.
    """
    ws = workspace or Workspace(mesh)
    return _conserved_step(state, config, mesh, aniso, ws, dirichlet=False)


def cahn_hilliard_dirichlet_step(state, config, mesh, aniso, workspace=None):
    """Advance the conserved scheme with W prescribed on the boundary."""
    ws = workspace or Workspace(mesh)
    return _conserved_step(state, config, mesh, aniso, ws, dirichlet=True)


_STEP_FUNCTIONS = {
    "allen_cahn": allen_cahn_step,
    "cahn_hilliard_neumann": cahn_hilliard_step,
    "cahn_hilliard_dirichlet": cahn_hilliard_dirichlet_step,
}


def implicit_tau_bound(eps, theta=1.0, alpha=1.0, b0=1.0):
    """Largest step size for which the implicit-potential variant is
    provably uniquely solvable: 2 c_psi eps^3 theta / (alpha b0)."""
    return 2.0 * C_PSI * eps**3 * theta / (alpha * b0)


# -- driver ------------------------------------------------------------


@dataclass
class RunResult:
    """Summary of a completed (or aborted) run."""

    final_state: SchemeState
    records: list
    monotonicity_violations: int
    failed: bool
    step_seconds: list
    csv_path: Optional[str] = None
    snapshot_paths: tuple = ()
    manifest_path: Optional[str] = None


def run_simulation(config, mesh, aniso, geometry, out_dir=None,
                   on_step: Optional[Callable] = None, strict=True,
                   config_text=""):
    """March the configured scheme from t = 0 to t_end with uniform steps.

    Writes the per-step energy CSV, optional field snapshots and a run
    manifest below ``out_dir`` when given; ``on_step`` is called with
    every state (including the initial one).  Per-step energy increases
    beyond 10x the solver tolerance are counted, a solve that misses its
    tolerance ends the run with a state dump: ``strict=True`` raises
    :class:`SolverFailure` (manifest status ``aborted``), otherwise the run
    is truncated with ``failed`` set (status ``failed``).  A step that
    raises also ends the run with status ``aborted``.  The manifest is
    written on every exit.
    """
    step_fn = _STEP_FUNCTIONS[config.scheme]
    ws = Workspace(mesh)
    u0 = (np.asarray(geometry, dtype=float) if isinstance(geometry, np.ndarray)
          else initial_profile(mesh, config.eps, geometry))
    state = initial_state(mesh, aniso, config, u0, ws)

    writer = None
    snapshot_paths = []
    csv_path = manifest_path = None
    if out_dir is not None:
        paths = output.prepare_run_dir(out_dir, output.run_id_for(config_text))
        csv_path = paths["csv"]
        manifest_path = paths["manifest"]
        writer = output.EnergyCsvWriter(csv_path)

    records = [output.CsvRecord.of(state)]
    n_steps = max(int(round(config.t_end / config.tau)), 1)
    violations = 0
    failure = None
    step_seconds = []
    status = "aborted"
    try:
        if writer:
            writer.write(records[-1])
        if on_step:
            on_step(state)
        for n in range(1, n_steps + 1):
            tic = time.perf_counter()
            state = step_fn(state, config, mesh, aniso, ws)
            step_seconds.append(time.perf_counter() - tic)
            records.append(output.CsvRecord.of(state))
            if writer:
                writer.write(records[-1])
            if state.report.stability_residual > 10.0 * config.tol:
                violations += 1
            if out_dir is not None and config.snapshot_every > 0 and (
                    n % config.snapshot_every == 0 or n == n_steps):
                path = output.snapshot_path(out_dir, n)
                output.write_vtk_snapshot(path, mesh,
                                          {"U": state.u, "W": state.w})
                snapshot_paths.append(path)
            if on_step:
                on_step(state)
            if not state.stats.converged:
                if out_dir is not None:
                    dump = output.snapshot_path(out_dir, n, prefix="failure")
                    output.write_vtk_snapshot(dump, mesh,
                                              {"U": state.u, "W": state.w})
                    snapshot_paths.append(dump)
                failure = SolverFailure(
                    f"step {n}: solver stopped at residual "
                    f"{state.stats.residual:.3e} (tol {config.tol:.1e})")
                break
        status = ("completed" if failure is None
                  else "aborted" if strict else "failed")
    finally:
        if writer:
            writer.close()
        if out_dir is not None:
            output.RunManifest.collect(config_text, csv_path, snapshot_paths,
                                       step_seconds, status).write(
                                           manifest_path)
    if failure is not None and strict:
        raise failure
    return RunResult(state, records, violations, failure is not None,
                     step_seconds, csv_path, tuple(snapshot_paths),
                     manifest_path)

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

from . import output
from .diagnostics import (dirichlet_energy_functional, discrete_energy,
                          stability_residual)
from .fem import (assemble_anisotropic_stiffness, assemble_mobility_stiffness,
                  far_field_stiffness, interface_band, isotropic_block,
                  isotropic_stiffness, lumped_mass, stiffness_blocks)
# nothing in the package calls pattern_coloring; the benchmark tracer wraps it
from .obstacle import (SolverStats, mobility_solver, pattern_coloring,
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
        for name in ("eps_inv", "tau", "t_end", "theta", "alpha", "tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not math.isfinite(self.t_end / self.tau):
            raise ValueError("t_end / tau must be finite")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be at least 0")
        if self.mobility not in ("constant", "degenerate"):
            raise ValueError(f"unknown mobility {self.mobility!r}")
        if not math.isfinite(self.b0):
            raise ValueError("b0 must be finite")
        if self.mobility == "constant" and self.b0 <= 0:
            raise ValueError("constant mobility must be positive")
        if self.w_bdry is not None and not math.isfinite(self.w_bdry):
            raise ValueError("w_bdry must be finite")
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

    @property
    def flow_tau(self):
        """Flow time of one step: tau / (1 + tau/eps^2) for the standard
        ``allen_cahn`` scheme (see ``allen_cahn_step``), tau otherwise."""
        if self.scheme == "allen_cahn" and not self.implicit:
            return self.tau / (1.0 + self.tau / self.eps**2)
        return self.tau


@dataclass
class SchemeState:
    """State after step ``n``: fields, energies and solver statistics.

    ``t`` is n tau; the step approximates the flow at n ``flow_tau``.
    ``band`` is ``interface_band`` of ``u``, found once for the energy of
    this state and the assembly of the next step.
    """

    n: int
    t: float
    u: np.ndarray
    w: np.ndarray
    report: "object"
    dissipation: float
    stats: SolverStats
    band: tuple


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
    """One run's fixed inputs and the caches built from them.

    The mesh, the anisotropy density ``aniso`` and the ``config`` do not
    change during a run, so neither does anything built from them alone:
    the mass vector, built here, and, built on first use, the isotropic
    and ``aniso``'s element blocks (one per element class), the
    far-field stiffness L sum_l K_l (the anisotropic stiffness wherever
    U^old is flat, see ``far_field_stiffness``), the constant mobility
    stiffness b0 K and its solver ``f -> W``: fast transforms on a Kuhn
    grid with W prescribed on the boundary or, in 2d, natural boundary
    conditions, and an LU otherwise (see ``mobility_solver``).
    """

    def __init__(self, mesh, aniso, config):
        self.mesh = mesh
        self.aniso = aniso
        self.config = config
        self.mass = lumped_mass(mesh)

    @functools.cached_property
    def iso_block(self):
        """Isotropic element blocks, the weight of the mobility stiffness."""
        return isotropic_block(self.mesh)

    @functools.cached_property
    def aniso_blocks(self):
        """Element blocks of ``aniso``'s weight matrices."""
        return stiffness_blocks(self.mesh, self.aniso.matrices)

    @functools.cached_property
    def far_field(self):
        """CSR data of the B(0) stiffness L sum_l K_l."""
        return far_field_stiffness(self.mesh, self.aniso, self.aniso_blocks)

    @functools.cached_property
    def mobility_stiffness(self):
        """The constant mobility stiffness b0 K."""
        return (self.config.b0 * isotropic_stiffness(self.mesh)).tocsr()

    @functools.cached_property
    def mobility_factor(self):
        """Solver f -> W of b0 K on the W dofs (see ``mobility_solver``)."""
        dirichlet = self.config.w_bdry is not None
        return mobility_solver(self.mobility_stiffness, self.mass,
                               self.mesh.dim,
                               self.mesh.boundary_mask if dirichlet else None)


def _state(ws, n, u, w, dissipation, stats, prev=None):
    """State ``n`` with its energy report, which carries the Dirichlet
    functional when W is prescribed on the boundary and, after a step
    from ``prev``, the stability residual."""
    config = ws.config
    band = interface_band(ws.mesh, u)
    report = discrete_energy(ws.mesh, ws.aniso, config.eps, u, mass=ws.mass,
                             band=band)
    if config.w_bdry is not None:
        report = report.with_dirichlet(dirichlet_energy_functional(
            report, config.alpha, config.c_psi, config.w_bdry))
    if prev is not None:
        report.stability_residual = stability_residual(prev.report, report,
                                                       dissipation)
    return SchemeState(n, n * config.tau, u, w, report, dissipation, stats,
                       band)


def initial_state(ws, u0):
    """State at t = 0 for the given admissible initial data."""
    return _state(ws, 0, np.asarray(u0, dtype=float),
                  np.zeros(ws.mesh.n_vertices), 0.0, SolverStats(0, 0.0, True))


def allen_cahn_step(state, ws):
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
    config = ws.config
    u_old = state.u
    eps, tau = config.eps, config.tau
    a_mat = assemble_anisotropic_stiffness(ws.mesh, ws.aniso, u_old,
                                           ws.aniso_blocks, ws.far_field,
                                           state.band)
    # the implicit variant moves M U / eps from the right side to the matrix
    shift = eps / tau - (1.0 / eps if config.implicit else 0.0)
    a_mat.data *= eps
    a_mat.data[ws.mesh.slot_map.diagonal] += shift * ws.mass
    rhs = ws.mass * (shift + 1.0 / eps) * u_old
    sol = solve_obstacle(a_mat, rhs, x0=u_old, tol=config.tol)
    u = sol.solution
    w = -(2.0 * config.alpha / config.c_psi) * (eps / tau) * (u - u_old)
    delta = u - u_old
    dissipation = (eps / tau) * float(ws.mass @ (delta * delta))
    stats = SolverStats(sol.iterations, sol.residual, sol.converged)
    return _state(ws, state.n + 1, u, w, dissipation, stats, prev=state)


def cahn_hilliard_step(state, ws):
    """Advance the conserved scheme by one step, with W prescribed on the
    boundary when ``ws.config`` gives ``w_bdry`` and natural boundary
    conditions otherwise.

    Under natural boundary conditions solvability requires
    |(U^old, 1)^h| < |Omega|; the nodal mass is then conserved to solver
    tolerance.  With degenerate mobility the potential W is not unique
    where the mobility vanishes; the assembled mobility is floored at
    MOBILITY_FLOOR and the regularization is recorded in the step
    statistics.  Constant mobility solves with the run's solver of b0 K
    (see ``solve_coupled_ch``), except in the ``implicit`` variant.
    """
    config, mesh = ws.config, ws.mesh
    u_old = state.u
    eps, tau = config.eps, config.tau
    dirichlet = config.w_bdry is not None
    regularized = False
    kb_factor = None
    if config.mobility == "constant":
        k_b = ws.mobility_stiffness
        if not config.implicit:
            kb_factor = ws.mobility_factor
    else:
        regularized = bool(np.any(1.0 - u_old * u_old < MOBILITY_FLOOR))
        k_b = assemble_mobility_stiffness(
            mesh, u_old, lambda v: np.maximum(1.0 - v * v, MOBILITY_FLOOR),
            ws.iso_block)
    k_aniso = assemble_anisotropic_stiffness(mesh, ws.aniso, u_old,
                                             ws.aniso_blocks, ws.far_field,
                                             state.band)
    u, w, stats = solve_coupled_ch(
        ws.mass, k_b, k_aniso, u_old,
        theta=config.theta, tau=tau, eps=eps, alpha=config.alpha,
        c_psi=config.c_psi, w_bdry=config.w_bdry,
        boundary_mask=mesh.boundary_mask if dirichlet else None,
        tol=config.tol, implicit=config.implicit, kb_factor=kb_factor)
    if dirichlet:
        dissipation = tau * float(w @ (k_b @ w))
    else:
        dissipation = (tau * config.c_psi / (2.0 * config.theta * config.alpha)
                       * float(w @ (k_b @ w)))
    stats.mobility_regularized = regularized
    return _state(ws, state.n + 1, u, w, dissipation, stats, prev=state)


_STEP_FUNCTIONS = {
    "allen_cahn": allen_cahn_step,
    "cahn_hilliard_neumann": cahn_hilliard_step,
    "cahn_hilliard_dirichlet": cahn_hilliard_step,
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
    manifest below ``out_dir`` when given, which then needs the
    ``config_text`` that the run id and the manifest record; ``on_step``
    is called with every state (including the initial one).  Per-step
    energy increases beyond 10x the solver tolerance are counted (the
    manifest records the count, the largest KKT residual and the total
    CG iterations of the Schur-complement solves), a solve
    that misses its tolerance ends the run with a state dump (written in
    place of that step's snapshot): ``strict=True`` raises
    :class:`SolverFailure` (manifest status ``aborted``), otherwise the run
    is truncated with ``failed`` set (status ``failed``).  A step that
    raises also ends the run with status ``aborted``.  The manifest is
    written on every exit.
    """
    if out_dir is not None and not config_text:
        raise ValueError("a run that writes to out_dir needs its config_text")
    step_fn = _STEP_FUNCTIONS[config.scheme]
    ws = Workspace(mesh, aniso, config)
    state = initial_state(ws, initial_profile(mesh, config.eps, geometry))

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
    violations = cg_iterations = 0
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
            state = step_fn(state, ws)
            step_seconds.append(time.perf_counter() - tic)
            cg_iterations += state.stats.cg_iterations
            records.append(output.CsvRecord.of(state))
            if writer:
                writer.write(records[-1])
            if state.report.stability_residual > 10.0 * config.tol:
                violations += 1
            failed = not state.stats.converged
            periodic = config.snapshot_every > 0 and (
                n % config.snapshot_every == 0 or n == n_steps)
            if out_dir is not None and (failed or periodic):
                path = output.snapshot_path(
                    out_dir, n, prefix="failure" if failed else "snapshot")
                output.write_vtk_snapshot(path, mesh,
                                          {"U": state.u, "W": state.w})
                snapshot_paths.append(path)
            if on_step:
                on_step(state)
            if failed:
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
            kkt_max = max((r.solver_residual for r in records[1:]),
                          default=None)
            manifest = output.RunManifest.collect(
                config_text, csv_path, snapshot_paths, step_seconds, status,
                kkt_max, violations, cg_iterations)
            manifest.flow_time = state.n * config.flow_tau
            manifest.write(manifest_path)
    if failure is not None and strict:
        raise failure
    return RunResult(state, records, violations, failure is not None,
                     step_seconds, csv_path, tuple(snapshot_paths),
                     manifest_path)

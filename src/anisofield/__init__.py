"""Finite element solver for anisotropic Allen-Cahn and Cahn-Hilliard
phase-field equations with the obstacle potential.

The anisotropies are sums of matrix-weighted norms, linearized so that
every time step is a single linear variational inequality and the
discrete interface energy is nonincreasing for any step size.
"""

__version__ = "0.1.0"  # set before the submodules, which record it

from .anisotropy import (AnisotropyDensity, isotropic, make_regularized_l1,
                         rotation_2d, rotation_3d, verify_inequalities)
from .config import ConfigError, RunSetup, emit_config, parse_config
from .diagnostics import (EnergyReport, discrete_energy,
                          dirichlet_energy_functional, stability_residual,
                          wulff_shape_distance, zero_level_set)
from .fem import (assemble_anisotropic_stiffness, assemble_mobility_stiffness,
                  isotropic_stiffness, lumped_mass)
from .mesh import SimplicialMesh, build_uniform_mesh
from .obstacle import ViSolution, solve_coupled_ch, solve_obstacle
from .schemes import (C_PSI, Circle, Cuboid, MultiCircle, RunResult,
                      SchemeConfig, SchemeState, SolverFailure, Sphere,
                      Uniform, Workspace, allen_cahn_step, cahn_hilliard_step,
                      implicit_tau_bound, initial_profile, initial_state,
                      run_simulation)

__all__ = [
    "AnisotropyDensity", "isotropic", "make_regularized_l1", "rotation_2d",
    "rotation_3d", "verify_inequalities", "ConfigError", "RunSetup",
    "emit_config", "parse_config", "EnergyReport", "discrete_energy",
    "dirichlet_energy_functional", "stability_residual",
    "wulff_shape_distance", "zero_level_set", "assemble_anisotropic_stiffness",
    "assemble_mobility_stiffness", "isotropic_stiffness", "lumped_mass",
    "SimplicialMesh", "build_uniform_mesh", "ViSolution", "solve_coupled_ch",
    "solve_obstacle", "C_PSI", "Circle", "Cuboid", "MultiCircle", "RunResult",
    "SchemeConfig", "SchemeState", "SolverFailure", "Sphere", "Uniform",
    "Workspace", "allen_cahn_step", "cahn_hilliard_step",
    "implicit_tau_bound", "initial_profile", "initial_state", "run_simulation",
]

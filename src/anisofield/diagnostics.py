"""Discrete energies, stability monitors and level-set geometry.

The energy of a nodal field U in K^h splits into the gradient part
eps/2 * sum_sigma |sigma| gamma(grad U)^2 and the lumped obstacle
potential eps^(-1) sum_j M_j (1 - U_j^2)/2; the potential is evaluated on
its finite branch only, which is safe because every solver output stays
in K^h.  The level-set utilities extract the zero contour by linear
interpolation on element edges and measure how close it is to the scaled
equilibrium (Wulff) shape of a density.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .fem import interface_band, lumped_mass

__all__ = [
    "EnergyReport",
    "discrete_energy",
    "dirichlet_energy_functional",
    "stability_residual",
    "LevelSet",
    "zero_level_set",
    "wulff_shape_distance",
]

_KH_SLACK = 1e-12


@dataclass
class EnergyReport:
    """Per-state energy diagnostics.

    ``e_gamma_h`` always equals ``gradient_energy + potential_energy``;
    ``f_gamma_h`` is filled for runs with prescribed boundary potential,
    ``stability_residual`` by the time loop.
    """

    e_gamma_h: float
    gradient_energy: float
    potential_energy: float
    mass: float
    f_gamma_h: Optional[float] = None
    stability_residual: float = 0.0

    def with_dirichlet(self, f_value):
        return replace(self, f_gamma_h=f_value)


def discrete_energy(mesh, aniso, eps, u, mass=None, band=None):
    """Discrete interface energy of ``u`` in K^h.

    Gradient term eps/2 * sum_sigma |sigma| gamma(grad u|_sigma)^2, summed
    over the elements of ``interface_band`` (the others add exactly 0), plus
    lumped potential eps^(-1) * sum_j M_j (1 - u_j^2)/2.  Values outside
    [-1, 1] by more than 1e-12, and NaN, are rejected; smaller excursions are
    projected so the potential stays nonnegative.  ``mass`` is the lumped
    mass vector of the mesh and ``band`` is ``interface_band(mesh, u)``,
    each computed here when not given.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_vertices,):
        raise ValueError("field length does not match vertex count")
    if not np.abs(u).max() <= 1.0 + _KH_SLACK:  # also refuses NaN
        raise ValueError("field leaves the admissible set K^h")
    band, grads = interface_band(mesh, u) if band is None else band
    grad_energy = 0.5 * eps * float(
        mesh.class_volume[mesh.element_class[band]]
        @ aniso.gamma(grads) ** 2)
    m = lumped_mass(mesh) if mass is None else mass
    uc = np.clip(u, -1.0, 1.0)
    pot_energy = float(m @ (0.5 * (1.0 - uc * uc))) / eps
    return EnergyReport(
        e_gamma_h=grad_energy + pot_energy,
        gradient_energy=grad_energy,
        potential_energy=pot_energy,
        mass=float(m @ u),
    )


def dirichlet_energy_functional(report, alpha, c_psi, w_bdry):
    """Boundary-augmented energy 2 alpha / c_psi * E - w_bdry * (U, 1).

    The pairing (U, 1) is the lumped mass recorded in ``report``, which is
    exact for P1 fields.
    """
    return 2.0 * alpha / c_psi * report.e_gamma_h - w_bdry * report.mass


def stability_residual(prev_report, curr_report, dissipation):
    """Left minus right side of the per-step stability inequality, for
    ``f_gamma_h`` when the report carries one (prescribed boundary
    potential) and ``e_gamma_h`` otherwise.

    A converged step keeps this at roundoff level (nonpositive up to
    solver tolerance); positive values flag an energy increase beyond the
    dissipation actually paid.
    """
    if curr_report.f_gamma_h is not None:
        return curr_report.f_gamma_h + dissipation - prev_report.f_gamma_h
    return curr_report.e_gamma_h + dissipation - prev_report.e_gamma_h


@dataclass
class LevelSet:
    """Zero contour of a nodal field: crossing points on mesh edges, the
    segments connecting them (2d only) and the number of connected
    segment components."""

    points: np.ndarray
    segments: np.ndarray
    n_components: int

    def __len__(self):
        return self.points.shape[0]

    def distances(self, center):
        """Distances of the crossing points from ``center``."""
        return np.linalg.norm(self.points - np.asarray(center, dtype=float),
                              axis=1)


_EDGE_PAIRS = {2: [(0, 1), (0, 2), (1, 2)],
               3: [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}


def zero_level_set(mesh, u):
    """Extract the zero level set of a nodal field by edge interpolation.

    Edges whose endpoint values straddle zero (vertices with u >= 0 count
    as the plus phase) get one crossing each; in 2d every crossed triangle
    contributes the segment joining its two edge crossings and the
    segments are grouped into connected components.  In 3d only the point
    cloud is returned.  A field without sign change yields an empty set.
    """
    u = np.asarray(u, dtype=float)
    plus = u >= 0.0
    elem_plus = plus[mesh.elements]
    pairs = _EDGE_PAIRS[mesh.dim]

    crossed = []  # per pair: mask of elements crossed on that local edge
    for a, b in pairs:
        crossed.append(elem_plus[:, a] != elem_plus[:, b])
    edge_lists = []
    for (a, b), mask in zip(pairs, crossed):
        va = mesh.elements[mask, a]
        vb = mesh.elements[mask, b]
        edge_lists.append(np.sort(np.column_stack([va, vb]), axis=1))
    if not edge_lists or sum(e.shape[0] for e in edge_lists) == 0:
        return LevelSet(np.zeros((0, mesh.dim)), np.zeros((0, 2), dtype=int), 0)
    all_edges = np.vstack(edge_lists)
    edges, inverse = np.unique(all_edges, axis=0, return_inverse=True)

    ua, ub = u[edges[:, 0]], u[edges[:, 1]]
    t = ua / (ua - ub)
    points = (mesh.vertices[edges[:, 0]]
              + t[:, None] * (mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]))

    if mesh.dim == 3:
        return LevelSet(points, np.zeros((0, 2), dtype=int), 0)

    # in 2d a crossed triangle is crossed on exactly two of its edges
    elem_ids = np.concatenate([np.flatnonzero(m) for m in crossed])
    order = np.argsort(elem_ids, kind="stable")
    segments = inverse[order].reshape(-1, 2)
    graph = coo_matrix((np.ones(len(segments)), (segments[:, 0], segments[:, 1])),
                       shape=(len(points), len(points)))
    n_components, _ = connected_components(graph, directed=False)
    return LevelSet(points, segments, int(n_components))


def wulff_shape_distance(points, aniso, center, n_normals=2048):
    """Hausdorff distance from a point set to its best-scaled Wulff boundary.

    The equilibrium boundary is represented radially: along each data
    direction u the boundary radius is the support construction
    min over unit normals n of gamma(n) / (u . n), evaluated over a dense
    quasi-uniform normal set augmented by u itself (so the isotropic
    boundary is reproduced exactly).  A single scale factor is fitted by
    least squares on the radii and the symmetric Hausdorff distance
    between the centered data and the scaled boundary samples is returned.
    """
    pts = np.asarray(points, dtype=float) - np.asarray(center, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 8:
        raise ValueError("need at least 8 points")
    radii = np.linalg.norm(pts, axis=1)
    if radii.max() == 0.0 or radii.min() <= 1e-12 * radii.max():
        raise ValueError("degenerate point set")
    dirs = pts / radii[:, None]

    from .anisotropy import unit_directions

    normals = unit_directions(pts.shape[1], n_normals)
    support = aniso.gamma(normals)
    dots = dirs @ normals.T
    ratio = np.where(dots > 1e-9, support[None, :] / np.maximum(dots, 1e-9), np.inf)
    rho = np.minimum(ratio.min(axis=1), aniso.gamma(dirs))

    scale = float(radii @ rho) / float(rho @ rho)
    ref = scale * rho[:, None] * dirs
    tree_pts = cKDTree(pts)
    tree_ref = cKDTree(ref)
    d_forward = tree_ref.query(pts)[0].max()
    d_backward = tree_pts.query(ref)[0].max()
    return float(max(d_forward, d_backward))

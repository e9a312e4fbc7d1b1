"""Energies, stability monitor and level-set geometry."""

import math

import numpy as np
import pytest

from anisofield import (Circle, build_uniform_mesh, discrete_energy,
                        dirichlet_energy_functional, initial_profile,
                        isotropic, make_regularized_l1, stability_residual,
                        wulff_shape_distance, zero_level_set)
from anisofield.anisotropy import unit_directions
from conftest import reference_element_data, shuffled_mesh

EPS_INV = 16.0 * math.pi


def test_energy_pure_phase_is_zero(mesh2d_small):
    report = discrete_energy(mesh2d_small, isotropic(2), 1.0 / EPS_INV,
                             np.ones(mesh2d_small.n_vertices))
    assert report.e_gamma_h == 0.0
    assert report.gradient_energy == 0.0
    assert report.potential_energy == 0.0
    assert report.mass == pytest.approx(1.0, rel=1e-13)


def test_energy_zero_state(mesh2d_small):
    # E = eps^{-1} * 1/2 * |Omega| = 8 pi for eps^{-1} = 16 pi, |Omega| = 1
    report = discrete_energy(mesh2d_small, isotropic(2), 1.0 / EPS_INV,
                             np.zeros(mesh2d_small.n_vertices))
    assert report.e_gamma_h == pytest.approx(8.0 * math.pi, rel=1e-13)
    assert report.gradient_energy == 0.0


def test_energy_of_coordinate_interpolant():
    mesh = build_uniform_mesh(2, 0.5, 16)
    u = mesh.vertices[:, 0]
    report = discrete_energy(mesh, isotropic(2), 1.0, u)
    assert report.gradient_energy == pytest.approx(0.5, rel=1e-13)
    # quadrature oracle for the lumped potential: element-by-element
    # vertex quadrature, summed independently of the fem module
    volume = reference_element_data(mesh)[0]
    expected = 0.0
    for e in range(mesh.n_elements):
        for j in mesh.elements[e]:
            x1 = mesh.vertices[j, 0]
            expected += volume[e] / 3.0 * 0.5 * (1.0 - x1 * x1)
    assert report.potential_energy == pytest.approx(expected, rel=1e-12)


def test_energy_rejects_inadmissible_field(mesh2d_small):
    for bad in (1.0 + 1e-9, math.nan):
        u = np.zeros(mesh2d_small.n_vertices)
        u[0] = bad
        with pytest.raises(ValueError):
            discrete_energy(mesh2d_small, isotropic(2), 0.1, u)


def test_energy_nonnegative_random_fields(mesh2d_small):
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = rng.uniform(-1.0, 1.0, mesh2d_small.n_vertices)
        report = discrete_energy(mesh2d_small, make_regularized_l1(2, 0.3),
                                 0.05, u)
        assert report.e_gamma_h >= 0.0
        assert report.e_gamma_h == pytest.approx(
            report.gradient_energy + report.potential_energy, rel=1e-15)


def test_energy_invariant_under_vertex_reordering(mesh2d_small):
    mesh = mesh2d_small
    rng = np.random.default_rng(5)
    u = rng.uniform(-1, 1, mesh.n_vertices)
    perm = rng.permutation(mesh.n_vertices)
    shuffled = shuffled_mesh(mesh, perm)
    aniso = make_regularized_l1(2, 0.1)
    a = discrete_energy(mesh, aniso, 0.05, u)
    b = discrete_energy(shuffled, aniso, 0.05, u[perm])
    assert b.e_gamma_h == pytest.approx(a.e_gamma_h, rel=1e-12)


def test_dirichlet_functional_examples(mesh2d_small):
    c_psi = math.pi / 2
    report = discrete_energy(mesh2d_small, isotropic(2), 1.0 / EPS_INV,
                             np.ones(mesh2d_small.n_vertices))
    assert dirichlet_energy_functional(report, 1.0, c_psi, 0.0) == \
        pytest.approx(2.0 / c_psi * report.e_gamma_h)
    assert dirichlet_energy_functional(report, 1.0, c_psi, -64.0) == \
        pytest.approx(64.0, rel=1e-12)
    report_m = discrete_energy(mesh2d_small, isotropic(2), 1.0 / EPS_INV,
                               -np.ones(mesh2d_small.n_vertices))
    assert dirichlet_energy_functional(report_m, 1.0, c_psi, -64.0) == \
        pytest.approx(-64.0, rel=1e-12)


def test_stability_residual_is_lhs_minus_rhs(mesh2d_small):
    u = np.zeros(mesh2d_small.n_vertices)
    rep = discrete_energy(mesh2d_small, isotropic(2), 0.1, u)
    same = stability_residual(rep, rep, 0.0)
    assert same == 0.0
    up = stability_residual(rep, rep, 0.5)
    assert up == pytest.approx(0.5)


def test_zero_level_set_of_coordinate():
    mesh = build_uniform_mesh(2, 0.5, 8)
    contour = zero_level_set(mesh, mesh.vertices[:, 0])
    assert len(contour) > 0
    assert np.abs(contour.points[:, 0]).max() == 0.0
    assert contour.n_components == 1


def test_zero_level_set_circle_radius():
    mesh = build_uniform_mesh(2, 0.5, 64)
    eps = 1.0 / EPS_INV
    contour = zero_level_set(mesh, initial_profile(mesh, eps, Circle((0.0, 0.0), 0.3)))
    d = contour.distances((0.0, 0.0))
    assert abs(d.mean() - 0.3) <= mesh.mesh_size
    assert contour.n_components == 1


def test_zero_level_set_empty_for_pure_phase(mesh2d_small):
    contour = zero_level_set(mesh2d_small, np.ones(mesh2d_small.n_vertices))
    assert len(contour) == 0
    assert contour.n_components == 0


def test_zero_level_set_counts_components():
    mesh = build_uniform_mesh(2, 0.5, 64)
    eps = 1.0 / EPS_INV
    from anisofield import MultiCircle

    geo = MultiCircle((Circle((-0.22, 0.0), 0.2), Circle((0.25, 0.0), 0.15)))
    contour = zero_level_set(mesh, initial_profile(mesh, eps, geo))
    assert contour.n_components == 2


def test_zero_level_set_3d_point_cloud():
    mesh = build_uniform_mesh(3, 0.5, 6)
    contour = zero_level_set(mesh, mesh.vertices[:, 2])
    assert len(contour) > 0
    assert np.abs(contour.points[:, 2]).max() == 0.0
    assert contour.segments.size == 0


def test_wulff_distance_exact_samples_isotropic():
    iso = isotropic(2)
    pts = iso.wulff_boundary_sample(16)
    assert wulff_shape_distance(pts, iso, (0.0, 0.0)) <= 1e-14
    assert wulff_shape_distance(3.0 * pts, iso, (0.0, 0.0)) <= 1e-13


def test_wulff_distance_rejects_degenerate_sets():
    iso = isotropic(2)
    with pytest.raises(ValueError):
        wulff_shape_distance(np.ones((4, 2)), iso, (0.0, 0.0))
    pts = np.zeros((10, 2))
    with pytest.raises(ValueError):
        wulff_shape_distance(pts, iso, (0.0, 0.0))


def test_wulff_distance_matches_dense_sampling_oracle():
    # level set of a circle measured against the nearly crystalline shape,
    # cross-checked with a brute-force support construction on a far
    # denser normal set
    mesh = build_uniform_mesh(2, 0.5, 64)
    aniso = make_regularized_l1(2, 0.01)
    eps = 1.0 / EPS_INV
    pts = zero_level_set(mesh, initial_profile(mesh, eps, Circle((0.0, 0.0), 0.3))).points
    got = wulff_shape_distance(pts, aniso, (0.0, 0.0))

    centered = pts - 0.0
    radii = np.linalg.norm(centered, axis=1)
    dirs = centered / radii[:, None]
    normals = unit_directions(2, 65536)
    support = aniso.gamma(normals)
    dots = dirs @ normals.T
    with np.errstate(divide="ignore"):
        rho = np.where(dots > 1e-12, support[None, :] / dots, np.inf).min(axis=1)
    scale = float(radii @ rho) / float(rho @ rho)
    oracle = np.abs(radii - scale * rho).max()
    assert got == pytest.approx(oracle, abs=1e-4)

"""Anisotropy density values, derived operators and the inequality suite."""

import math

import numpy as np
import pytest

from anisofield import (AnisotropyDensity, isotropic, make_regularized_l1,
                        rotation_2d, rotation_3d, verify_inequalities)
from conftest import fd_gradient, random_spd_density


def test_gamma_isotropic_is_euclidean_norm():
    assert isotropic(2).gamma(np.array([3.0, 4.0])) == pytest.approx(5.0, abs=0)


def test_gamma_regularized_l1_hand_value():
    # terms for p = e_1: sqrt(d^2 + (1 - d^2)) = 1 and sqrt(d^2) = d
    aniso = make_regularized_l1(2, 0.01)
    assert aniso.gamma(np.array([1.0, 0.0])) == pytest.approx(1.01, rel=1e-15)


def test_gamma_zero_vector_is_zero():
    for aniso in (isotropic(2), make_regularized_l1(3, 0.3), random_spd_density()):
        assert aniso.gamma(np.zeros(aniso.dim)) == 0.0


def test_gamma_batch_shapes():
    aniso = make_regularized_l1(2, 0.3)
    pts = np.random.default_rng(0).standard_normal((7, 5, 2))
    vals = aniso.gamma(pts)
    assert vals.shape == (7, 5)
    assert vals[3, 2] == pytest.approx(aniso.gamma(pts[3, 2]), rel=1e-15)


def test_gamma_absolute_one_homogeneity():
    rng = np.random.default_rng(7)
    for aniso in (isotropic(3), make_regularized_l1(2, 0.01), random_spd_density()):
        p = rng.standard_normal((2000, aniso.dim))
        lam = rng.uniform(-10.0, 10.0, 2000)
        lam[lam == 0.0] = 1.0
        gp = aniso.gamma(p)
        err = np.abs(aniso.gamma(lam[:, None] * p) - np.abs(lam) * gp)
        assert np.all(err <= 1e-12 * np.maximum(gp, 1.0) * np.abs(lam))


def test_gamma_grad_isotropic_is_unit_vector():
    grad = isotropic(2).gamma_grad(np.array([3.0, 4.0]))
    np.testing.assert_allclose(grad, [0.6, 0.8], rtol=1e-15)


def test_gamma_grad_euler_identity():
    rng = np.random.default_rng(11)
    for aniso in (isotropic(2), make_regularized_l1(3, 0.3), random_spd_density()):
        p = rng.standard_normal((500, aniso.dim))
        dots = np.einsum("ni,ni->n", aniso.gamma_grad(p), p)
        np.testing.assert_allclose(dots, aniso.gamma(p), rtol=1e-12)


def test_gamma_grad_matches_finite_differences():
    aniso = make_regularized_l1(2, 0.5)
    p = np.array([1.0, 1.0])
    grad = aniso.gamma_grad(p)
    fd = fd_gradient(aniso.gamma, p, 1e-6)
    assert np.abs(grad - fd).max() <= 1e-6 * np.linalg.norm(grad)


def test_gamma_grad_rejects_origin():
    with pytest.raises(ValueError):
        isotropic(2).gamma_grad(np.zeros(2))


def test_a_value_examples():
    assert isotropic(2).a_value(np.array([3.0, 4.0])) == pytest.approx(12.5)
    assert isotropic(2).a_value(np.zeros(2)) == 0.0
    aniso = make_regularized_l1(2, 0.01)
    assert aniso.a_value(np.array([1.0, 0.0])) == pytest.approx(0.51005, rel=1e-14)


def test_a_grad_isotropic_is_identity():
    np.testing.assert_allclose(isotropic(2).a_grad(np.array([3.0, 4.0])),
                               [3.0, 4.0], rtol=1e-15)


def test_a_grad_one_homogeneous():
    rng = np.random.default_rng(3)
    aniso = random_spd_density()
    p = rng.standard_normal((200, 2))
    lam = rng.uniform(0.1, 10.0, 200)
    a1 = aniso.a_grad(lam[:, None] * p)
    a2 = lam[:, None] * aniso.a_grad(p)
    assert np.abs(a1 - a2).max() <= 1e-12 * np.abs(a2).max()


def test_a_grad_matches_finite_differences():
    rng = np.random.default_rng(42)
    aniso = random_spd_density(seed=42)
    for _ in range(20):
        p = rng.standard_normal(2)
        grad = aniso.a_grad(p)
        fd = fd_gradient(aniso.a_value, p, 1e-6 * np.linalg.norm(p))
        assert np.abs(grad - fd).max() <= 1e-6 * np.linalg.norm(grad)


def test_b_matrix_isotropic_both_branches():
    iso = isotropic(2)
    np.testing.assert_array_equal(iso.b_matrix(np.array([2.0, -1.0])), np.eye(2))
    np.testing.assert_array_equal(iso.b_matrix(np.zeros(2)), np.eye(2))


def test_b_matrix_two_identity_terms():
    # gamma(q) = 2, each term 1, so B = 2 * (I + I); the zero branch gives
    # L * sum G = 4 I as well (continuous here)
    aniso = AnisotropyDensity([np.eye(2), np.eye(2)])
    np.testing.assert_allclose(aniso.b_matrix(np.array([1.0, 0.0])), 4 * np.eye(2))
    np.testing.assert_allclose(aniso.b_matrix(np.zeros(2)), 4 * np.eye(2))


def test_b_matrix_reproduces_a_grad():
    rng = np.random.default_rng(5)
    for aniso in (make_regularized_l1(2, 0.01), make_regularized_l1(3, 0.3),
                  random_spd_density()):
        p = rng.standard_normal((400, aniso.dim))
        bp = np.einsum("nij,nj->ni", aniso.b_matrix(p), p)
        ag = aniso.a_grad(p)
        assert np.abs(bp - ag).max() <= 1e-12 * np.abs(ag).max()


def test_b_matrix_spd_large_battery():
    rng = np.random.default_rng(123)
    for aniso in (make_regularized_l1(2, 0.01), random_spd_density(),
                  make_regularized_l1(3, 0.3)):
        q = rng.standard_normal((100_000, aniso.dim))
        q *= 10.0 ** rng.uniform(-3, 3, (100_000, 1))
        b = aniso.b_matrix(q)
        np.testing.assert_array_equal(b, b.transpose(0, 2, 1))
        np.linalg.cholesky(b)  # raises if any is not positive definite


def test_make_regularized_l1_delta_one_is_scaled_norm():
    aniso = make_regularized_l1(2, 1.0)
    np.testing.assert_array_equal(aniso.matrices, np.array([np.eye(2), np.eye(2)]))
    p = np.array([3.0, 4.0])
    assert aniso.gamma(p) == pytest.approx(10.0, rel=1e-15)


def test_make_regularized_l1_3d_symmetry():
    delta = 0.3
    aniso = make_regularized_l1(3, delta)
    p = np.ones(3)
    expected = 3.0 * math.sqrt(3 * delta**2 + (1 - delta**2))
    assert aniso.gamma(p) == pytest.approx(expected, rel=1e-14)


def test_make_regularized_l1_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        make_regularized_l1(2, 0.0)
    with pytest.raises(ValueError):
        make_regularized_l1(3, -0.5)
    for delta in (math.nan, math.inf):
        with pytest.raises(ValueError):
            make_regularized_l1(2, delta)


def test_rotate_identity_keeps_matrices():
    aniso = make_regularized_l1(2, 0.1)
    rotated = aniso.rotate(np.eye(2))
    np.testing.assert_array_equal(rotated.matrices, aniso.matrices)


def test_rotate_isotropic_invariant():
    iso = isotropic(3)
    rot = rotation_3d(2, 0.7) @ rotation_3d(0, -1.2)
    rotated = iso.rotate(rot)
    p = np.random.default_rng(1).standard_normal((50, 3))
    np.testing.assert_allclose(rotated.gamma(p), iso.gamma(p), rtol=1e-12)


def test_rotate_quarter_turn_change_of_variables():
    aniso = make_regularized_l1(2, 0.01).rotate(rotation_2d(math.pi / 4))
    p = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert aniso.gamma(p) == pytest.approx(1.01, rel=1e-12)


def test_rotate_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        isotropic(2).rotate(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_wulff_boundary_sample_isotropic_axes():
    pts = isotropic(2).wulff_boundary_sample(4)
    np.testing.assert_allclose(
        pts, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15)


def test_wulff_boundary_sample_support_identity():
    # every sample x = gamma'(n) satisfies x . n = gamma(n)
    from anisofield.anisotropy import unit_directions

    for aniso in (make_regularized_l1(2, 0.01), random_spd_density(),
                  make_regularized_l1(3, 0.3)):
        dirs = unit_directions(aniso.dim, 64)
        pts = aniso.wulff_boundary_sample(64)
        np.testing.assert_allclose(np.einsum("ni,ni->n", pts, dirs),
                                   aniso.gamma(dirs), rtol=1e-12)


def test_wulff_boundary_sample_axis_value():
    aniso = make_regularized_l1(2, 0.01)
    pts = aniso.wulff_boundary_sample(4)
    np.testing.assert_allclose(pts[0], aniso.gamma_grad(np.array([1.0, 0.0])),
                               rtol=1e-15)
    np.testing.assert_allclose(pts[0], [1.01, 0.0], atol=1e-15)


def test_inequality_suite_small_battery():
    densities = [isotropic(2), isotropic(3), make_regularized_l1(2, 0.01),
                 make_regularized_l1(2, 0.3),
                 make_regularized_l1(2, 0.01).rotate(rotation_2d(math.pi / 4)),
                 random_spd_density(seed=42)]
    for aniso in densities:
        worst = verify_inequalities(aniso, n_samples=10_000, seed=1)
        for name, value in worst.items():
            assert value <= 1e-10, f"{name} violated for {aniso}: {value}"


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        AnisotropyDensity([])  # no terms
    with pytest.raises(ValueError):
        AnisotropyDensity(np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        AnisotropyDensity(-np.eye(2))  # not positive definite
    with pytest.raises(ValueError):
        AnisotropyDensity(np.eye(4))  # unsupported dimension
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            AnisotropyDensity(np.array([[bad, 0.0], [0.0, 1.0]]))  # not finite


def test_matrices_are_read_only():
    aniso = isotropic(2)
    with pytest.raises(ValueError):
        aniso.matrices[0, 0, 0] = 2.0

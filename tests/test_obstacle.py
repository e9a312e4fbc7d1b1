"""Constrained solvers against hand values and brute-force oracles."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from anisofield import (Circle, SchemeConfig, Uniform, Workspace,
                        assemble_anisotropic_stiffness,
                        assemble_mobility_stiffness, build_uniform_mesh,
                        cahn_hilliard_step, implicit_tau_bound,
                        initial_profile, initial_state, isotropic,
                        isotropic_stiffness, lumped_mass,
                        make_regularized_l1, parse_config, run_simulation,
                        solve_coupled_ch, solve_obstacle)
from anisofield import obstacle
from anisofield.obstacle import (GridTransform, _active_set_polish,
                                 factor_mobility, kkt_violation,
                                 mobility_solver, pattern_coloring)
from anisofield.schemes import MOBILITY_FLOOR, floored_mobility
from conftest import (enumerate_coupled_solution, projected_gradient_box_qp,
                      shuffled_mesh, superlu)


def test_single_variable_clipped_to_bound():
    sol = solve_obstacle(sp.csr_matrix([[2.0]]), np.array([5.0]))
    assert sol.solution[0] == 1.0
    assert sol.multiplier[0] == pytest.approx(3.0)
    assert sol.converged


def test_single_variable_interior():
    sol = solve_obstacle(sp.csr_matrix([[2.0]]), np.array([1.0]))
    assert sol.solution[0] == pytest.approx(0.5)
    assert sol.multiplier[0] == 0.0


def test_matches_projected_gradient_oracle():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        r = rng.standard_normal((n, n))
        a_mat = r.T @ r + 0.5 * np.eye(n)
        rhs = 3.0 * rng.standard_normal(n)
        sol = solve_obstacle(sp.csr_matrix(a_mat), rhs, tol=1e-11)
        oracle = projected_gradient_box_qp(a_mat, rhs)
        assert np.abs(sol.solution - oracle).max() <= 1e-8
        assert sol.converged
    # nearly singular systems on which the active-set loop cycles and the
    # fallback has to finish the solve
    for seed in (0, 33, 85, 163, 198, 235, 244, 278):
        a_mat, rhs = _cycling_system(seed)
        sol = solve_obstacle(sp.csr_matrix(a_mat), rhs, tol=1e-10)
        assert sol.converged
        assert sol.residual <= 1e-10
        oracle = projected_gradient_box_qp(a_mat, rhs)
        assert np.abs(sol.solution - oracle).max() <= 1e-8


def _fresh_multiplier(a_mat, rhs, x):
    """The multiplier of ``x`` from a fresh product A x - rhs."""
    r = a_mat @ x - rhs
    return np.where(x >= 1.0, -r, np.where(x <= -1.0, r, 0.0))


def _cycling_system(seed):
    """Dense SPD system A = R^T R + 0.01 I, n in [2, 30], of the rng seed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 31))
    r = rng.standard_normal((n, n))
    return r.T @ r + 0.01 * np.eye(n), 3.0 * rng.standard_normal(n)


def test_deterministic_bit_identical(mesh2d_small):
    u = initial_profile(mesh2d_small, 0.05, Circle((0.0, 0.0), 0.25))
    k = assemble_anisotropic_stiffness(mesh2d_small, isotropic(2), u)
    a_mat = (0.05 * k + sp.diags(lumped_mass(mesh2d_small) * 500.0)).tocsr()
    rhs = lumped_mass(mesh2d_small) * 525.0 * u
    s1 = solve_obstacle(a_mat, rhs, x0=u)
    s2 = solve_obstacle(a_mat, rhs, x0=u)
    np.testing.assert_array_equal(s1.solution, s2.solution)
    assert s1.iterations == s2.iterations
    # a converged active-set exit: the multiplier is read off the loop's
    # last KKT residual, the same bits as a fresh product
    assert s1.converged and _active_set_polish(a_mat, rhs, u, 1e-9)[3]
    np.testing.assert_array_equal(
        s1.multiplier, _fresh_multiplier(a_mat, rhs, s1.solution))
    # the rng-2 system, on which the loop cycles after 10 rounds, so the
    # projected-Newton fallback runs too
    a_mat, rhs = _cycling_system(2)
    s1 = solve_obstacle(sp.csr_matrix(a_mat), rhs, tol=1e-10)
    s2 = solve_obstacle(sp.csr_matrix(a_mat), rhs, tol=1e-10)
    assert s1.iterations == s2.iterations > 10
    np.testing.assert_array_equal(s1.solution, s2.solution)
    # the projected-Newton exit: the multiplier is its last gradient
    np.testing.assert_array_equal(
        s1.multiplier, _fresh_multiplier(sp.csr_matrix(a_mat), rhs,
                                         s1.solution))


def test_rejects_nonpositive_diagonal():
    with pytest.raises(ValueError):
        solve_obstacle(sp.csr_matrix([[0.0]]), np.array([1.0]))


def test_nonconvergence_is_flagged():
    # the system of test_active_set_stops_on_a_revisited_set, on which the
    # active-set loop cycles, at a tolerance below rounding: the fallback
    # must give up and say so
    a_mat, rhs = _cycling_system(2)
    sol = solve_obstacle(sp.csr_matrix(a_mat), rhs, tol=1e-30)
    assert not sol.converged
    assert sol.residual > 0.0
    assert np.abs(sol.solution).max() <= 1.0  # partial result stays feasible
    # it gives up once the predicted decrease is below rounding: 10 loop
    # rounds and 4 Newton rounds, not the 50-round budget
    assert sol.iterations == 14
    # at a reachable tolerance the same solve converges in the third round
    sol = solve_obstacle(sp.csr_matrix(a_mat), rhs, tol=1e-10)
    assert sol.converged
    assert sol.iterations == 13
    assert sol.residual <= 1e-10


def test_indefinite_free_block_ends_both_solvers_unconverged():
    # a positive diagonal passes the input check, but the free block of
    # the start, the whole matrix, is indefinite: its banded Cholesky
    # raises, which ends the active-set loop and then the projected-Newton
    # fallback, each in its first round, unconverged and without raising
    a_mat = sp.csr_matrix([[1.0, 2.0], [2.0, 1.0]])
    sol = solve_obstacle(a_mat, np.array([1.0, 1.0]))
    assert not sol.converged
    assert sol.iterations == 2
    np.testing.assert_array_equal(sol.solution, [0.0, 0.0])
    assert sol.residual == 1.0
    # no round of the loop finished: the fallback's own product gives it
    assert _active_set_polish(a_mat, np.array([1.0, 1.0]),
                              np.zeros(2), 1e-9)[4] is None
    np.testing.assert_array_equal(
        sol.multiplier, _fresh_multiplier(a_mat, np.array([1.0, 1.0]),
                                          sol.solution))


def test_active_set_stops_on_a_revisited_set():
    # on this system the direct active-set loop cycles from the all-free
    # start; the shared loop must leave at the first revisit, not run on
    # to its round budget, and the fallback must still reach the solution
    a_mat, rhs = _cycling_system(2)
    a_mat, n = sp.csr_matrix(a_mat), rhs.size
    x, residual, rounds, ok, r = _active_set_polish(a_mat, rhs, np.zeros(n),
                                                    1e-10)
    assert not ok
    assert rounds == 10 < 50
    assert residual > 1e-10
    assert np.abs(x).max() <= 1.0
    # the residual handed back is that of the returned best iterate
    np.testing.assert_array_equal(r, a_mat @ x - rhs)
    sol = solve_obstacle(a_mat, rhs, tol=1e-10)
    assert sol.converged
    assert sol.residual <= 1e-10


def test_pattern_coloring_is_valid(mesh2d_small):
    k = isotropic_stiffness(mesh2d_small)
    groups = pattern_coloring(k)
    csr = k.tocsr()
    seen = np.zeros(k.shape[0], dtype=bool)
    for group in groups:
        members = set(group.tolist())
        for i in group:
            nbrs = set(csr.indices[csr.indptr[i]:csr.indptr[i + 1]].tolist())
            assert not (nbrs - {i}) & members
        seen[group] = True
    assert seen.all()


def test_kkt_violation_signs():
    r = np.array([0.5, -0.5, 0.3, -0.3, 0.2])
    x = np.array([1.0, 1.0, -1.0, -1.0, 0.0])
    viol = kkt_violation(r.copy(), x)
    np.testing.assert_allclose(viol, [0.5, 0.0, 0.0, 0.3, 0.2])


# -- coupled solver ----------------------------------------------------


def _coupled_inputs(mesh, u_old, b0=1.0, density=None):
    mass = lumped_mass(mesh)
    k_b = (b0 * isotropic_stiffness(mesh)).tocsr()
    k_aniso = assemble_anisotropic_stiffness(mesh, density or isotropic(2),
                                             u_old)
    return mass, k_b, k_aniso


def test_coupled_zero_data_stays_zero(mesh2d_small):
    u_old = np.zeros(mesh2d_small.n_vertices)
    mass, k_b, k_aniso = _coupled_inputs(mesh2d_small, u_old)
    u, w, stats = solve_coupled_ch(mass, k_b, k_aniso, u_old,
                                   theta=1.0, tau=1e-4, eps=0.1, alpha=1.0)
    assert np.abs(u).max() == 0.0
    assert np.abs(w).max() == 0.0
    assert stats.converged


def test_coupled_dirichlet_steady_state(mesh2d_small):
    # U = 1, W = w_bdry solves the step exactly when w_bdry >= -2/(c_psi eps)
    eps = 1.0 / (16.0 * math.pi)
    u_old = np.ones(mesh2d_small.n_vertices)
    mass, k_b, k_aniso = _coupled_inputs(mesh2d_small, u_old, b0=2.0)
    u, w, stats = solve_coupled_ch(mass, k_b, k_aniso, u_old,
                                   theta=1.0, tau=1e-5, eps=eps, alpha=1.0,
                                   w_bdry=-64.0,
                                   boundary_mask=mesh2d_small.boundary_mask)
    assert stats.converged
    assert np.abs(u - 1.0).max() <= 1e-9
    assert np.abs(w + 64.0).max() <= 1e-8


def test_coupled_matches_dense_enumeration_oracle():
    # tiny mesh: 9 nodes, brute-force over all 3^9 classifications
    mesh = build_uniform_mesh(2, 0.5, 2)
    rng = np.random.default_rng(8)
    u_old = np.clip(rng.uniform(-1.4, 1.4, mesh.n_vertices), -1.0, 1.0)
    theta, tau, eps, alpha = 1.0, 1e-3, 0.1, 1.0
    mass, k_b, k_aniso = _coupled_inputs(mesh, u_old)
    u, w, stats = solve_coupled_ch(mass, k_b, k_aniso, u_old, theta=theta,
                                   tau=tau, eps=eps, alpha=alpha, tol=1e-10)
    assert stats.converged
    u_ref, w_ref = enumerate_coupled_solution(
        mass, k_b, k_aniso, u_old, theta, tau, eps, alpha, math.pi / 2)
    assert np.abs(u - u_ref).max() <= 1e-8
    assert np.abs(w - w_ref).max() <= 1e-8


def test_coupled_conserves_mass(mesh2d_small):
    eps = 1.0 / (16.0 * math.pi)
    u_old = initial_profile(mesh2d_small, eps, Circle((0.0, 0.0), 0.25))
    mass, k_b, k_aniso = _coupled_inputs(mesh2d_small, u_old, b0=2.0)
    u, w, stats = solve_coupled_ch(mass, k_b, k_aniso, u_old,
                                   theta=1.0, tau=1e-5, eps=eps, alpha=1.0)
    assert stats.converged
    assert abs(mass @ u - mass @ u_old) <= 1e-9 * mass.sum()
    assert np.abs(u).max() <= 1.0


def test_coupled_deterministic(mesh2d_small):
    eps = 1.0 / (16.0 * math.pi)
    u_old = initial_profile(mesh2d_small, eps, Circle((0.0, 0.0), 0.25))
    mass, k_b, k_aniso = _coupled_inputs(mesh2d_small, u_old, b0=2.0)
    kwargs = dict(theta=1.0, tau=1e-5, eps=eps, alpha=1.0)
    u1, w1, s1 = solve_coupled_ch(mass, k_b, k_aniso, u_old, **kwargs)
    u2, w2, s2 = solve_coupled_ch(mass, k_b, k_aniso, u_old, **kwargs)
    np.testing.assert_array_equal(u1, u2)
    np.testing.assert_array_equal(w1, w2)
    assert s1.iterations == s2.iterations


def test_coupled_requires_solvability(mesh2d_small):
    u_old = np.ones(mesh2d_small.n_vertices)
    mass, k_b, k_aniso = _coupled_inputs(mesh2d_small, u_old)
    with pytest.raises(ValueError):
        solve_coupled_ch(mass, k_b, k_aniso, u_old,
                         theta=1.0, tau=1e-4, eps=0.1, alpha=1.0)


def test_coupled_kkt_structure(mesh2d_small):
    eps = 1.0 / (16.0 * math.pi)
    u_old = initial_profile(mesh2d_small, eps, Circle((0.1, 0.0), 0.3))
    mass, k_b, k_aniso = _coupled_inputs(mesh2d_small, u_old, b0=2.0)
    tol = 1e-9
    u, w, stats = solve_coupled_ch(mass, k_b, k_aniso, u_old, theta=1.0,
                                   tau=1e-5, eps=eps, alpha=1.0, tol=tol)
    c = 0.25 * math.pi
    r = eps * (k_aniso @ u) - mass * (c * w + u_old / eps)
    interior = np.abs(u) < 1.0
    assert np.abs(r[interior]).max() <= tol
    assert np.all(r[u >= 1.0] <= tol)
    assert np.all(r[u <= -1.0] >= -tol)


def test_coupled_nonconvergence_is_flagged():
    mesh = build_uniform_mesh(2, 0.5, 16)
    eps = 1.0 / (16.0 * math.pi)
    u_old = initial_profile(mesh, eps, Circle((0.1, 0.0), 0.3))
    mass, k_b, k_aniso = _coupled_inputs(mesh, u_old, b0=2.0)
    kwargs = dict(theta=1.0, tau=1e-3, eps=eps, alpha=1.0, tol=1e-9)
    u, w, stats = solve_coupled_ch(mass, k_b, k_aniso, u_old, max_iter=1,
                                   **kwargs)
    assert not stats.converged
    assert stats.residual > 1e-9
    assert np.abs(u).max() <= 1.0  # the returned iterate stays feasible
    assert np.all(np.isfinite(w))
    u, w, stats = solve_coupled_ch(mass, k_b, k_aniso, u_old, **kwargs)
    assert stats.converged
    assert stats.iterations == 3


# -- constant mobility solves: transform and banded Cholesky -----------


def _band_factor(k_b, mass, mesh, mask):
    return factor_mobility(k_b, mass, mask)


def _transform_factor(k_b, mass, mesh, mask):
    solver = mobility_solver(k_b, mass, mesh.dim, mask)
    assert isinstance(solver, GridTransform)
    return solver


# the two solvers of the Schur path with b0 K: each test that runs the
# path on both loops over them
FACTORS = (_band_factor, _transform_factor)


def _mobility_case(dim, n, dirichlet, b0=2.0):
    mesh = build_uniform_mesh(dim, 0.5, n)
    k_b = (b0 * isotropic_stiffness(mesh)).tocsr()
    mask = mesh.boundary_mask if dirichlet else None
    return mesh, k_b, lumped_mass(mesh), mask


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 6)])
def test_transform_matches_lu_dirichlet(dim, n):
    mesh, k_b, mass, mask = _mobility_case(dim, n, True)
    transform = _transform_factor(k_b, mass, mesh, mask)
    f = np.random.default_rng(1).standard_normal(np.count_nonzero(~mask))
    ref = factor_mobility(k_b, mass, mask)(f)
    assert np.abs(transform(f) - ref).max() <= 1e-11 * np.abs(ref).max()


def test_transform_matches_lu_natural_2d():
    # a right side with nonzero sum: both solvers project it onto the
    # range of K_b and return the W of zero mass-weighted mean
    mesh, k_b, mass, _ = _mobility_case(2, 16, False)
    transform = _transform_factor(k_b, mass, mesh, None)
    f = np.random.default_rng(2).standard_normal(mesh.n_vertices) + 0.5
    assert abs(f.sum()) > 0.1 * np.abs(f).sum()
    ref = factor_mobility(k_b, mass)(f)
    w = transform(f)
    assert np.abs(w - ref).max() <= 1e-11 * np.abs(ref).max()
    projected = f - (f.sum() / mass.sum()) * mass
    for sol in (w, ref):
        assert (np.abs(k_b @ sol - projected).max()
                <= 1e-11 * np.abs(projected).max())
        assert abs(mass @ sol) <= 1e-14 * (mass @ np.abs(sol))


@settings(deadline=None, database=None, derandomize=True)
@given(n=st.integers(2, 24), b0=st.floats(1e-3, 1e3),
       dirichlet=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_transform_inverts_the_mobility_stiffness(n, b0, dirichlet, seed):
    mesh, k_b, mass, mask = _mobility_case(2, n, dirichlet, b0)
    transform = _transform_factor(k_b, mass, mesh, mask)
    rng = np.random.default_rng(seed)
    if dirichlet:
        wdofs = np.flatnonzero(~mask)
        x = rng.standard_normal(wdofs.size)
        sol = transform(k_b[wdofs][:, wdofs] @ x)
    else:
        # W is fixed up to its constant: x of zero mass-weighted mean; the
        # lam * mass term, of the size of K_b x, is what the solver must
        # project out of the right side
        lam = b0 * n * n * rng.standard_normal()
        x = rng.standard_normal(mesh.n_vertices)
        x -= (mass @ x) / mass.sum()
        sol = transform(k_b @ x + lam * mass)
    assert np.abs(sol - x).max() <= 1e-11 * np.abs(x).max()


def test_mobility_solver_keeps_the_lu_elsewhere():
    # 3d natural boundary conditions: the boundary rows are not of
    # Kronecker form; a vertex-shuffled Kuhn grid: not lexicographic
    mesh, k_b, mass, _ = _mobility_case(3, 6, False)
    assert not isinstance(mobility_solver(k_b, mass, 3), GridTransform)
    mesh = build_uniform_mesh(2, 0.5, 8)
    shuffled = shuffled_mesh(
        mesh, np.random.default_rng(3).permutation(mesh.n_vertices))
    k_b = (2.0 * isotropic_stiffness(shuffled)).tocsr()
    mass = lumped_mass(shuffled)
    for mask in (None, shuffled.boundary_mask):
        solver = mobility_solver(k_b, mass, 2, mask)
        assert not isinstance(solver, GridTransform)


@pytest.mark.parametrize("dim,n,shuffle,dirichlet", [
    pytest.param(3, 6, False, False, id="3d-natural"),
    pytest.param(2, 16, True, False, id="shuffled-2d-natural"),
    pytest.param(2, 16, True, True, id="shuffled-2d-dirichlet")])
def test_factor_mobility_solves_the_projected_system(dim, n, shuffle,
                                                     dirichlet):
    # meshes the transform probe refuses, and a right side of nonzero
    # sum: with W prescribed on the boundary K_b,II W = f, and under
    # natural boundary conditions, one node grounded, K_b W = f - (sum f /
    # sum m) m with m . W = 0.  Measured: relative residuals 1.2e-15 (3d),
    # 4.6e-15 and 4.3e-15 (shuffled 2d), |m . W| at most 7e-17 m . |W|
    mesh = build_uniform_mesh(dim, 0.5, n)
    if shuffle:
        mesh = shuffled_mesh(
            mesh, np.random.default_rng(3).permutation(mesh.n_vertices))
    k_b = (2.0 * isotropic_stiffness(mesh)).tocsr()
    mass = lumped_mass(mesh)
    mask = mesh.boundary_mask if dirichlet else None
    assert not isinstance(mobility_solver(k_b, mass, dim, mask),
                          GridTransform)
    rng = np.random.default_rng(4)
    if dirichlet:
        wdofs = np.flatnonzero(~mask)
        f = rng.standard_normal(wdofs.size) + 0.5
        rhs, k_w = f, k_b[wdofs][:, wdofs]
    else:
        f = rng.standard_normal(mesh.n_vertices) + 0.5
        rhs, k_w = f - (f.sum() / mass.sum()) * mass, k_b
    assert abs(f.sum()) > 0.1 * np.abs(f).sum()
    w = factor_mobility(k_b, mass, mask)(f)
    assert np.abs(k_w @ w - rhs).max() <= 1e-13 * np.abs(rhs).max()
    if not dirichlet:
        assert abs(mass @ w) <= 1e-15 * (mass @ np.abs(w))


@pytest.mark.parametrize("n", [32, 64])
def test_factor_mobility_on_a_floored_mobility(n):
    # the floored degenerate K_b of a circle: the floor all but cuts the
    # pure phases off from the interface, so the system is ill-posed
    # (|W| ~ 1e13; no workload solves it).  Grounding the node of the
    # largest diagonal entry gives relative residuals of 8.1e-5 (N = 32)
    # and 2.9e-4 (N = 64), against 1.3e-4 and 5.0e-4 for SuperLU's factor
    # of the bordered [[K_b, m], [m^T, 0]]; the bound is the oracle's own
    # residual, a margin of 1.6 and 1.7.  Grounding node 0 gave 4.3e-2
    # and 3.1e-3
    mesh = build_uniform_mesh(2, 0.5, n)
    u = initial_profile(mesh, 1.0 / (16.0 * math.pi), Circle((0.1, 0.0), 0.3))
    k_b = floored_mobility(mesh, u)[0]
    mass = lumped_mass(mesh)
    f = np.random.default_rng(0).standard_normal(mesh.n_vertices)
    rhs = f - (f.sum() / mass.sum()) * mass
    bordered = sp.bmat([[k_b, mass[:, None]], [mass[None, :], None]])
    residuals = []
    for w in (factor_mobility(k_b, mass)(f),
              superlu(bordered).solve(np.append(f, 0.0))[:-1]):
        assert np.abs(w).max() > 1e12
        residuals.append(np.abs(k_b @ w - rhs).max() / np.abs(rhs).max())
    band, oracle = residuals
    assert band <= oracle


# -- coupled solver, Schur-complement path (constant mobility) --------


def _schur_case(mesh, u_old, dirichlet, w_bdry=-1.0,
                make_factor=_band_factor, tau=1e-5, density=None):
    """Inputs of a constant-mobility step (b0 = 2) and the matching factor."""
    eps = 1.0 / (16.0 * math.pi)
    mass, k_b, k_aniso = _coupled_inputs(mesh, u_old, b0=2.0, density=density)
    kwargs = dict(theta=1.0, tau=tau, eps=eps, alpha=1.0, tol=1e-9)
    mask = mesh.boundary_mask if dirichlet else None
    if dirichlet:
        kwargs.update(w_bdry=w_bdry, boundary_mask=mask)
    kwargs["kb_factor"] = make_factor(k_b, mass, mesh, mask)
    return (mass, k_b, k_aniso, u_old), kwargs


def test_coupled_schur_matches_dense_enumeration_oracle():
    mesh = build_uniform_mesh(2, 0.5, 2)
    rng = np.random.default_rng(8)
    u_old = np.clip(rng.uniform(-1.4, 1.4, mesh.n_vertices), -1.0, 1.0)
    theta, tau, eps, alpha = 1.0, 1e-3, 0.1, 1.0
    mass, k_b, k_aniso = _coupled_inputs(mesh, u_old)
    u_ref, w_ref = enumerate_coupled_solution(
        mass, k_b, k_aniso, u_old, theta, tau, eps, alpha, math.pi / 2)
    for make_factor in FACTORS:
        u, w, stats = solve_coupled_ch(
            mass, k_b, k_aniso, u_old, theta=theta, tau=tau, eps=eps,
            alpha=alpha, tol=1e-10,
            kb_factor=make_factor(k_b, mass, mesh, None))
        assert stats.converged
        assert np.abs(u - u_ref).max() <= 1e-8
        assert np.abs(w - w_ref).max() <= 1e-8


@pytest.mark.parametrize("dirichlet,center,tau,u_gap,w_gap", [
    pytest.param(False, (0.0, 0.0), 1e-5, 1e-9, 2e-8, id="center0-natural"),
    pytest.param(True, (0.0, 0.0), 1e-5, 1e-9, 2e-8, id="center0-dirichlet"),
    pytest.param(False, (0.1, 0.0), 1e-5, 1e-9, 2e-8, id="center1-natural"),
    pytest.param(True, (0.1, 0.0), 1e-5, 1e-9, 2e-8, id="center1-dirichlet"),
    pytest.param(False, None, 1e-3, 7e-9, 8e-9, id="free-natural-tau1e-3"),
    pytest.param(False, None, 100.0, 8e-10, 1.2e-10, id="free-natural-tau100"),
])
def test_coupled_schur_matches_saddle_path(dirichlet, center, tau, u_gap,
                                           w_gap):
    # both paths stop at a KKT residual of 1e-9; on the N=16 circles they
    # agree to 9.4e-11 in U and 1.1e-8 in W (|W| up to 37), within the
    # bounds below.  The Schur path reaches the same active set in up
    # to two more rounds: a loose round that meets the tolerance, or leads
    # back to a set solved exactly, has its set solved once more exactly.
    # Without a center, |u_old| < 1/2 on N=32 with l1reg:0.01: every node
    # is free in the first round, so only the preconditioner's shift,
    # which scales with 1/tau, keeps it nonsingular on the constants; at
    # tau = 100 it is nearly singular.  There the paths agree to 6.9e-10
    # in U and 2.1e-9 in W at tau = 1e-3 and to 7.6e-11 and 2.8e-11 at
    # tau = 100, bounded with the margins the circles' bounds were set
    # with (10x in U, 4x in W).
    eps = 1.0 / (16.0 * math.pi)
    if center is None:
        mesh = build_uniform_mesh(2, 0.5, 32)
        u_old = np.random.default_rng(1).uniform(-0.5, 0.5, mesh.n_vertices)
        density = make_regularized_l1(2, 0.01)
    else:
        mesh = build_uniform_mesh(2, 0.5, 16)
        u_old = initial_profile(mesh, eps, Circle(center, 0.3))
        density = None
    args, kwargs = _schur_case(mesh, u_old, dirichlet, tau=tau,
                               density=density)
    kwargs.pop("kb_factor")
    u_ref, w_ref, ref = solve_coupled_ch(*args, **kwargs)
    for make_factor in FACTORS:
        args, kwargs = _schur_case(mesh, u_old, dirichlet,
                                   make_factor=make_factor, tau=tau,
                                   density=density)
        u, w, stats = solve_coupled_ch(*args, **kwargs)
        assert stats.converged and stats.residual <= 1e-9
        np.testing.assert_array_equal(np.abs(u) >= 1.0, np.abs(u_ref) >= 1.0)
        assert stats.iterations <= ref.iterations + 2
        assert np.abs(u - u_ref).max() <= u_gap
        assert np.abs(w - w_ref).max() <= w_gap
        if not dirichlet:
            mass = args[0]
            assert abs(mass @ u - mass @ u_old) <= 1e-14


def _fig4_first_step_case():
    """fig4's first step at N=32: U = 1 under the supercooled boundary
    potential -65, with Dirichlet data for W."""
    mesh = build_uniform_mesh(2, 0.5, 32)
    eps = 1.0 / (16.0 * math.pi)
    u_old = np.ones(mesh.n_vertices)
    mass = lumped_mass(mesh)
    k_b = (2.0 * isotropic_stiffness(mesh)).tocsr()
    k_aniso = assemble_anisotropic_stiffness(
        mesh, make_regularized_l1(2, 0.01), u_old)
    kwargs = dict(theta=1.0, tau=1e-5, eps=eps, alpha=1.0, tol=1e-9,
                  w_bdry=-65.0, boundary_mask=mesh.boundary_mask)
    return mesh, (mass, k_b, k_aniso, u_old), kwargs


def test_coupled_schur_fig4_first_step():
    # fig4's first step at N=32: from U = 1 under the supercooled boundary
    # potential every round after the first raises the KKT residual above
    # the first round's 7.7e-4, so the tolerance must follow the lowest
    # residual so far.  Scaled by the last residual and started cold, the
    # CG rounds cycle to the round budget.  |W| = 65 here, and the paths
    # agree to 2.9e-10 in U and 2.3e-8 in W (3.3e-8 with every round
    # solved to tol/20), so W is bounded relative to its size.
    mesh, args, kwargs = _fig4_first_step_case()
    mass, k_b = args[:2]
    u_ref, w_ref, ref = solve_coupled_ch(*args, **kwargs)
    assert ref.converged
    for make_factor in FACTORS:
        u, w, stats = solve_coupled_ch(
            *args, kb_factor=make_factor(k_b, mass, mesh, mesh.boundary_mask),
            **kwargs)
        assert stats.converged and stats.residual <= 1e-9
        assert stats.cg_iterations > 0
        np.testing.assert_array_equal(np.abs(u) >= 1.0, np.abs(u_ref) >= 1.0)
        assert np.abs(u - u_ref).max() <= 1e-9
        assert np.abs(w - w_ref).max() <= 1e-9 * np.abs(w_ref).max()


@pytest.mark.parametrize("dirichlet,center",
                         [(False, (0.0, 0.0)), (True, (0.1, 0.0))],
                         ids=["natural", "dirichlet"])
def test_coupled_schur_loose_rounds_end_exact(dirichlet, center, monkeypatch):
    # the CG of a round after the first runs to 1e-2 times the lowest KKT
    # residual so far, never below tol/20, and the step ends on a round at
    # tol/20 (in the natural case a loose round meets the tolerance and
    # its set is solved once more); that exact re-solve of a loosely
    # solved set reuses its preconditioner factor, so on these cases, which
    # revisit no set later, there is one banded Cholesky factor per
    # distinct inactive set under either boundary condition, and no LU
    # (the natural boundary's mass border is applied through its Schur
    # complement)
    mesh = build_uniform_mesh(2, 0.5, 16)
    eps = 1.0 / (16.0 * math.pi)
    u_old = initial_profile(mesh, eps, Circle(center, 0.3))
    for make_factor in FACTORS:
        args, kwargs = _schur_case(mesh, u_old, dirichlet,
                                   make_factor=make_factor)
        tols, inactive_sets, lus, choleskys = [], [], [], []
        cg, loop, splu, factor_spd = (obstacle._projected_cg,
                                      obstacle._active_set,
                                      obstacle.spla.splu, obstacle._factor_spd)

        def recording_cg(apply, r, x, v, precond, tol):
            tols.append(tol)
            return cg(apply, r, x, v, precond, tol)

        def recording_loop(x, subsolve, *rest, **kw):
            def recording_subsolve(act, inactive, *more):
                if inactive.size:
                    inactive_sets.append(inactive.tobytes())
                return subsolve(act, inactive, *more)

            return loop(x, recording_subsolve, *rest, **kw)

        def recording_splu(mat, *a, **kw):
            lus.append(mat.shape)
            return splu(mat, *a, **kw)

        def recording_factor_spd(mat):
            choleskys.append(mat.shape)
            return factor_spd(mat)

        with monkeypatch.context() as patch:
            patch.setattr(obstacle, "_projected_cg", recording_cg)
            patch.setattr(obstacle, "_active_set", recording_loop)
            patch.setattr(obstacle.spla, "splu", recording_splu)
            patch.setattr(obstacle, "_factor_spd", recording_factor_spd)
            _, _, stats = solve_coupled_ch(*args, **kwargs)
        assert stats.converged and stats.residual <= 1e-9
        assert len(tols) == len(inactive_sets) == stats.iterations
        assert max(tols) > 1e-9 / 20.0
        assert min(tols) == tols[0] == tols[-1] == 1e-9 / 20.0
        assert lus == []
        assert len(choleskys) == len(set(inactive_sets)) < len(inactive_sets)


class _CountingSolver:
    """A solver ``f -> W`` that counts its solves."""

    def __init__(self, solve):
        self.solve, self.calls = solve, 0

    def __call__(self, f):
        self.calls += 1
        return self.solve(f)


@pytest.mark.parametrize("dirichlet,center",
                         [(False, (0.0, 0.0)), (True, (0.1, 0.0))],
                         ids=["natural", "dirichlet"])
def test_coupled_schur_one_kb_solve_per_cg_iteration(dirichlet, center,
                                                     monkeypatch):
    # a round with inactive nodes solves with K_b once for the CG's start
    # and once per CG iteration, which carries W beside U; a round with
    # none solves once for W
    mesh = build_uniform_mesh(2, 0.5, 16)
    eps = 1.0 / (16.0 * math.pi)
    u_old = initial_profile(mesh, eps, Circle(center, 0.3))
    for make_factor in FACTORS:
        args, kwargs = _schur_case(mesh, u_old, dirichlet,
                                   make_factor=make_factor)
        solver = kwargs["kb_factor"] = _CountingSolver(kwargs["kb_factor"])
        rounds = {"inactive": 0, "empty": 0}
        loop = obstacle._active_set

        def recording_loop(x, subsolve, *rest, **kw):
            def recording_subsolve(act, inactive, *more):
                out = subsolve(act, inactive, *more)
                rounds["inactive" if inactive.size else "empty"] += 1
                return out

            return loop(x, recording_subsolve, *rest, **kw)

        with monkeypatch.context() as patch:
            patch.setattr(obstacle, "_active_set", recording_loop)
            _, _, stats = solve_coupled_ch(*args, **kwargs)
        assert stats.converged and stats.cg_iterations > 0
        assert rounds["inactive"] > 1
        assert solver.calls == (stats.cg_iterations + rounds["inactive"]
                                + rounds["empty"])


@pytest.mark.parametrize("dirichlet", [False, True],
                         ids=["natural-circle", "fig4-first-step"])
def test_coupled_schur_carried_w_solves_the_mass_equation(dirichlet):
    # the W the CG carries against W solved afresh from the returned U by
    # a sparse direct solve of K_b W = (theta/tau) M (u_old - U) on the W
    # dofs, with the boundary data under Dirichlet conditions and the
    # mass-weighted mean of the returned W under natural ones.  The gaps
    # are at most 1.4e-14 |W| on fig4's first step (the transform,
    # |W| = 65) and 1.6e-15 |W| on the natural circle, as with W from a
    # fresh kb_factor solve of the final U (1.5e-14 and 1.2e-15); the
    # bound leaves a margin of about 7
    if dirichlet:
        mesh, args, kwargs = _fig4_first_step_case()
        mask = mesh.boundary_mask
    else:
        mesh = build_uniform_mesh(2, 0.5, 16)
        u_old = initial_profile(mesh, 1.0 / (16.0 * math.pi),
                                Circle((0.1, 0.0), 0.3))
        args, kwargs = _schur_case(mesh, u_old, False)
        kwargs.pop("kb_factor")
        mask = None
    mass, k_b, _, u_old = args
    for make_factor in FACTORS:
        u, w, stats = solve_coupled_ch(
            *args, kb_factor=make_factor(k_b, mass, mesh, mask), **kwargs)
        assert stats.converged and stats.cg_iterations > 0
        f = (kwargs["theta"] / kwargs["tau"]) * mass * (u_old - u)
        if dirichlet:
            inner = np.flatnonzero(~mask)
            fresh = np.full(mass.size, kwargs["w_bdry"])
            fresh[inner] = spla.spsolve(
                k_b[inner][:, inner].tocsc(),
                f[inner] - k_b[inner][:, mask] @ fresh[mask])
        else:
            bordered = sp.bmat([[k_b, mass[:, None]],
                                [mass[None, :], None]]).tocsc()
            fresh = spla.spsolve(bordered, np.append(f, mass @ w))[:-1]
        assert np.abs(fresh - w).max() <= 1e-13 * np.abs(w).max()


@pytest.mark.parametrize("dirichlet", [False, True], ids=["natural", "dirichlet"])
def test_coupled_schur_every_node_inactive(dirichlet, mesh2d_small):
    # from u_old = 0 every node is free in the first round and at the
    # solution, so the preconditioner holds the whole singular K_aniso
    u_old = np.zeros(mesh2d_small.n_vertices)
    args, kwargs = _schur_case(mesh2d_small, u_old, dirichlet)
    u, w, stats = solve_coupled_ch(*args, **kwargs)
    assert stats.converged and stats.residual <= 1e-9
    assert stats.iterations == 1
    assert np.abs(u).max() < 1.0
    if dirichlet:
        assert np.abs(u).max() > 0.1  # the boundary potential drives U
    else:
        assert np.abs(u).max() == 0.0 and np.abs(w).max() == 0.0


def test_coupled_schur_every_node_active(mesh2d_small):
    # U = 1, W = -64 is the exact step at the critical boundary potential:
    # every node stays pinned and W comes from the cached factor alone
    u_old = np.ones(mesh2d_small.n_vertices)
    args, kwargs = _schur_case(mesh2d_small, u_old, True, w_bdry=-64.0)
    u, w, stats = solve_coupled_ch(*args, **kwargs)
    assert stats.converged
    assert stats.iterations == 1
    assert np.abs(u - 1.0).max() == 0.0
    assert np.abs(w + 64.0).max() <= 1e-8


@pytest.mark.parametrize("dirichlet", [False, True], ids=["natural", "dirichlet"])
def test_coupled_schur_deterministic(dirichlet):
    mesh = build_uniform_mesh(2, 0.5, 16)
    eps = 1.0 / (16.0 * math.pi)
    u_old = initial_profile(mesh, eps, Circle((0.1, 0.0), 0.3))
    args, kwargs = _schur_case(mesh, u_old, dirichlet)
    u1, w1, s1 = solve_coupled_ch(*args, **kwargs)
    u2, w2, s2 = solve_coupled_ch(*args, **kwargs)
    np.testing.assert_array_equal(u1, u2)
    np.testing.assert_array_equal(w1, w2)
    assert s1 == s2


# -- banded Cholesky of the Schur preconditioner ----------------------


def _relative_gap(mat, b):
    """Relative max-norm gap of the banded Cholesky and the sparse LU."""
    x_lu = superlu(mat).solve(b)
    x_chol = obstacle._factor_spd(mat).solve(b)
    return np.abs(x_chol - x_lu).max() / np.abs(x_lu).max()


def _symmetric_with_zeros(rng, n):
    """A random symmetric CSR matrix of canonical format whose pattern
    holds explicit zeros, as the Kuhn pattern does."""
    stored = rng.random((n, n)) < 0.4
    stored |= stored.T
    values = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.7)
    values += values.T
    rows, cols = np.nonzero(stored)
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
    return sp.csr_matrix((values[rows, cols], cols, indptr), shape=(n, n))


@settings(deadline=None, database=None, derandomize=True)
@given(n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_saddle_matrix_matches_bmat(n, seed):
    # the saddle built from the CSR arrays of its blocks holds the arrays
    # of the block matrix's CSR, explicit zeros included; blocks that
    # arrive as COO with duplicate entries are summed first
    rng = np.random.default_rng(seed)
    s11, kb = _symmetric_with_zeros(rng, n), _symmetric_with_zeros(rng, n)
    coupling = rng.standard_normal(n)
    ref = sp.bmat([[s11, sp.diags(coupling)], [sp.diags(coupling), kb]],
                  format="csr")
    ref.sort_indices()

    def split(mat):
        """``mat`` as COO with each entry stored as two halves."""
        coo = mat.tocoo()
        return sp.coo_matrix((np.concatenate([coo.data / 2, coo.data / 2]),
                              (np.tile(coo.row, 2), np.tile(coo.col, 2))),
                             shape=mat.shape)

    for blocks in ((s11, kb), (split(s11), split(kb))):
        saddle = obstacle._saddle_matrix(blocks[0], coupling, blocks[1])
        assert saddle.format == "csr" and saddle.shape == (2 * n, 2 * n)
        np.testing.assert_array_equal(saddle.indptr, ref.indptr)
        np.testing.assert_array_equal(saddle.indices, ref.indices)
        np.testing.assert_array_equal(saddle.data, ref.data)


@pytest.mark.parametrize("seed", range(6))
def test_factor_spd_matches_splu_on_random_spd(seed):
    # A = B B^T + I for a random sparse B (the product leaves its column
    # indices unsorted), and the same matrix stored sorted with explicit
    # zeros at random slots: the ordering and band follow the zero-free
    # pattern alone, so the storage changes no bit of the solution
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    b_mat = sp.random(n, n, density=min(1.0, 4.0 / n), random_state=rng)
    mat = (b_mat @ b_mat.T + sp.eye(n)).tocsr()
    rhs = rng.standard_normal(n)
    assert _relative_gap(mat, rhs) <= 1e-12
    rows, cols = rng.integers(0, n, size=(2, 3 * n))
    coo = mat.tocoo()
    padded = sp.csr_matrix((np.concatenate([coo.data, np.zeros(6 * n)]),
                            (np.concatenate([coo.row, rows, cols]),
                             np.concatenate([coo.col, cols, rows]))),
                           shape=(n, n))
    assert np.count_nonzero(padded.data == 0.0) > 0
    np.testing.assert_array_equal(obstacle._factor_spd(padded).solve(rhs),
                                  obstacle._factor_spd(mat).solve(rhs))


def test_factor_spd_matches_splu_on_fig4_preconditioners(monkeypatch):
    # the Dirichlet preconditioners of the first two steps of fig4
    # (N = 128): the whole domain (dim 16,641, RCM bandwidth 129) in the
    # first round, then shrinking sets down to rings along the boundary
    # layer (dim 4,800-9,400, bandwidth 25-41)
    setup = parse_config((Path(__file__).resolve().parents[1] / "configs"
                          / "fig4.cfg").read_text())
    mesh = setup.build_mesh()
    ws = Workspace(mesh, setup.anisotropy, setup.scheme)
    state = initial_state(ws, initial_profile(mesh, setup.scheme.eps,
                                              setup.geometry))
    blocks, factor_spd = [], obstacle._factor_spd

    def capture(mat):
        blocks.append(mat)
        return factor_spd(mat)

    monkeypatch.setattr(obstacle, "_factor_spd", capture)
    for _ in range(2):
        state = cahn_hilliard_step(state, ws)
    monkeypatch.undo()
    assert blocks[0].shape[0] == mesh.n_vertices
    assert blocks[-1].shape[0] < mesh.n_vertices // 2
    rng = np.random.default_rng(0)
    for mat in blocks:
        assert _relative_gap(mat, rng.standard_normal(mat.shape[0])) <= 1e-12


def test_factor_spd_raises_on_an_indefinite_matrix():
    mat = sp.csr_matrix(np.array([[2.0, -1.0, 0.0],
                                  [-1.0, -2.0, 1.0],
                                  [0.0, 1.0, 2.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        obstacle._factor_spd(mat)


def test_dirichlet_run_with_banded_cholesky_matches_superlu(monkeypatch):
    # 5 fig4-like steps at N = 32 (U = 1 under the supercooled boundary
    # potential): the same active-set rounds on every step as with the
    # SuperLU preconditioner.  Both runs stop each step's CG at tol/20 and
    # meet the KKT tolerance 1e-9, so U and W differ at the CG stopping
    # level: measured 8.1e-9 in U and 1.1e-7 in W (|W| up to 65), within
    # the bounds of 5e-8 and 1e-6 below
    cfg = SchemeConfig("cahn_hilliard_dirichlet", eps_inv=16.0 * math.pi,
                       tau=1e-5, t_end=5e-5, alpha=1.0, b0=2.0, w_bdry=-65.0)
    mesh = build_uniform_mesh(2, 0.5, 32)

    def run():
        states = []
        result = run_simulation(cfg, mesh, make_regularized_l1(2, 0.01),
                                Uniform(1.0), on_step=states.append)
        assert not result.failed
        return states

    cholesky = run()
    monkeypatch.setattr(obstacle, "_factor_spd", superlu)
    sparse_lu = run()
    assert len(cholesky) == len(sparse_lu) == 6
    assert sum(s.stats.iterations for s in cholesky) > 5
    for a, b in zip(cholesky, sparse_lu):
        assert a.stats.iterations == b.stats.iterations
        assert a.stats.converged and b.stats.converged
        assert np.abs(a.u - b.u).max() <= 5e-8
        assert np.abs(a.w - b.w).max() <= 1e-6


# -- banded LU of the saddle --------------------------------------------


def _band_lu_gap(mat, b):
    """Relative max-norm gap of the banded LU and the sparse LU, and the
    banded LU's backward error."""
    x_lu = superlu(mat).solve(b)
    x_band = obstacle._factor_band_lu(mat).solve(b)
    backward = (np.abs(mat @ x_band - b).max()
                / (abs(mat).sum(axis=1).max() * np.abs(x_band).max()))
    return np.abs(x_band - x_lu).max() / np.abs(x_lu).max(), backward


@pytest.mark.parametrize("seed", range(6))
def test_band_lu_matches_splu_on_random_quasi_definite(seed):
    # [[A, C], [C^T, -B]] with A, B SPD: symmetric quasi-definite, as the
    # saddle of the explicit potential is, and the same matrix stored with
    # explicit zeros at random slots: the ordering and band follow the
    # zero-free pattern alone, so the storage changes no bit of the
    # solution
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))

    def spd():
        b_mat = sp.random(n, n, density=min(1.0, 4.0 / n), random_state=rng)
        return b_mat @ b_mat.T + sp.eye(n)

    c_mat = sp.random(n, n, density=min(1.0, 2.0 / n), random_state=rng)
    mat = sp.bmat([[spd(), c_mat], [c_mat.T, -spd()]], format="csr")
    rhs = rng.standard_normal(2 * n)
    gap, backward = _band_lu_gap(mat, rhs)
    assert gap <= 1e-12 and backward <= 1e-15
    rows, cols = rng.integers(0, 2 * n, size=(2, 6 * n))
    coo = mat.tocoo()
    padded = sp.csr_matrix((np.concatenate([coo.data, np.zeros(12 * n)]),
                            (np.concatenate([coo.row, rows, cols]),
                             np.concatenate([coo.col, cols, rows]))),
                           shape=mat.shape)
    assert np.count_nonzero(padded.data == 0.0) > 0
    np.testing.assert_array_equal(
        obstacle._factor_band_lu(padded).solve(rhs),
        obstacle._factor_band_lu(mat).solve(rhs))


@pytest.mark.parametrize("dirichlet", [True, False])
def test_band_lu_matches_splu_on_indefinite_implicit_saddles(dirichlet,
                                                             monkeypatch):
    # the whole-domain saddles of the implicit variant far beyond its
    # bound (N = 16, criterion 5's negative control): their U block
    # eps K_II - M_I/eps is indefinite, so only the row interchanges keep
    # the factor stable.  Measured: backward errors 4e-18 to 4e-16, gaps
    # 2e-16 to 3e-15 (Dirichlet, condition up to 8e2) and 5e-12 to 2e-11
    # (natural boundary conditions, condition 1e5 to 4e5): the gap is the
    # condition times the rounding, in both
    saddles = []
    band_lu = obstacle._factor_band_lu

    def capture(mat):
        saddles.append(mat)
        return band_lu(mat)

    monkeypatch.setattr(obstacle, "_factor_band_lu", capture)
    mesh = build_uniform_mesh(2, 0.5, 16)
    # no frozen nodes: every saddle holds W on all the W dofs
    w_dofs = (np.count_nonzero(~mesh.boundary_mask) if dirichlet
              else mesh.n_vertices)
    params = dict(w_bdry=-1.0) if dirichlet else {}
    tau = 1e4 * implicit_tau_bound(1.0 / (16.0 * math.pi), b0=2.0)
    cfg = SchemeConfig("cahn_hilliard_dirichlet" if dirichlet
                       else "cahn_hilliard_neumann", eps_inv=16.0 * math.pi,
                       tau=tau, t_end=tau, b0=2.0, implicit=True, **params)
    run_simulation(cfg, mesh, make_regularized_l1(2, 0.3),
                   Circle((0.0, 0.0), 0.3), strict=False)
    monkeypatch.undo()
    mat = saddles[0]
    ni = mat.shape[0] - w_dofs
    assert np.linalg.eigvalsh(mat[:ni, :ni].toarray()).min() < 0.0
    rng = np.random.default_rng(0)
    for mat in saddles[:4]:
        gap, backward = _band_lu_gap(mat, rng.standard_normal(mat.shape[0]))
        assert backward <= 1e-15
        assert gap <= 1e-14 * np.linalg.cond(mat.toarray())


def test_band_lu_raises_on_a_singular_matrix():
    mat = sp.csr_matrix(np.array([[1.0, 2.0, 0.0],
                                  [2.0, 4.0, 0.0],
                                  [0.0, 0.0, -1.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        obstacle._factor_band_lu(mat)


def test_singular_saddle_ends_a_nonstrict_run_with_a_dump(tmp_path,
                                                          monkeypatch):
    # every saddle that LAPACK sees is exactly singular (its band zeroed):
    # the banded LU raises LinAlgError, the active-set loop ends on it as
    # on any singular subproblem, and the run ends failed, with a failure
    # dump and a manifest, not with a traceback
    dgbtrf = obstacle.dgbtrf
    monkeypatch.setattr(obstacle, "dgbtrf", lambda band, *args, **kwargs:
                        dgbtrf(0.0 * band, *args, **kwargs))
    text = (Path(__file__).resolve().parents[1] / "configs"
            / "surface_diffusion.cfg").read_text().replace(
                "subdivisions = 64", "subdivisions = 16")
    setup = parse_config(text)
    result = run_simulation(setup.scheme, setup.build_mesh(),
                            setup.anisotropy, setup.geometry,
                            out_dir=tmp_path, strict=False, config_text=text)
    assert result.failed and result.final_state.n == 1
    assert not result.final_state.stats.converged
    assert [Path(p).name for p in result.snapshot_paths] == [
        "failure_000001.vtk"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "failed"


# -- degenerate mobility: the saddle on the mobility's support ----------


def _degenerate_case(subdivisions=32):
    """configs/surface_diffusion.cfg at a coarser mesh: the workspace, the
    initial state and the keywords of its coupled solves."""
    text = (Path(__file__).resolve().parents[1] / "configs"
            / "surface_diffusion.cfg").read_text()
    setup = parse_config(text.replace("subdivisions = 64",
                                      f"subdivisions = {subdivisions}"))
    mesh, cfg = setup.build_mesh(), setup.scheme
    ws = Workspace(mesh, setup.anisotropy, cfg)
    state = initial_state(ws, initial_profile(mesh, cfg.eps, setup.geometry))
    kwargs = dict(theta=cfg.theta, tau=cfg.tau, eps=cfg.eps, alpha=cfg.alpha,
                  tol=cfg.tol)
    return ws, state, kwargs


def _degenerate_inputs(ws, state):
    """The inputs of the coupled solve of the step from ``state``, and
    the mask of its frozen nodes."""
    k_b, frozen = floored_mobility(ws.mesh, state.u, ws.iso_block,
                                   ws.floor_stiffness)
    k_aniso = assemble_anisotropic_stiffness(
        ws.mesh, ws.aniso, state.u, ws.aniso_blocks, ws.far_field,
        state.band)
    return (ws.mass, k_b, k_aniso, state.u), frozen


def _degenerate_states(steps, subdivisions=32):
    """Per step of configs/surface_diffusion.cfg at a coarser mesh: the
    workspace, the state before it, and the inputs of its coupled solve."""
    ws, state, kwargs = _degenerate_case(subdivisions)
    for _ in range(steps):
        yield ws, state, *_degenerate_inputs(ws, state), kwargs
        state = cahn_hilliard_step(state, ws)


def test_degenerate_support_matches_the_full_saddle(monkeypatch):
    # three N=32 steps of surface_diffusion, each solved with W on the
    # support and with the floored saddle of the whole domain: the same
    # rounds and final active set, and U and W agree to 8.5e-15 and
    # 1.4e-12 (|W| up to 21), within the bounds below.  The extension
    # block is factored once per step, not once per round.
    extensions = []
    factor_spd = obstacle._factor_spd

    def counting_factor_spd(mat, **kwargs):
        extensions.append(mat.shape[0])
        return factor_spd(mat, **kwargs)

    monkeypatch.setattr(obstacle, "_factor_spd", counting_factor_spd)
    rounds = factors = 0
    for ws, state, args, frozen, kwargs in _degenerate_states(3):
        assert 0 < np.count_nonzero(frozen) < frozen.size
        u_ref, w_ref, ref = solve_coupled_ch(*args, **kwargs)
        before = len(extensions)
        u, w, stats = solve_coupled_ch(*args, frozen=frozen, **kwargs)
        factors += len(extensions) - before
        assert ref.converged and stats.converged
        assert stats.residual <= kwargs["tol"]
        assert stats.iterations == ref.iterations
        rounds += stats.iterations
        np.testing.assert_array_equal(obstacle._bound_pattern(u),
                                      obstacle._bound_pattern(u_ref))
        assert np.abs(u - u_ref).max() <= 1e-12
        assert np.abs(w - w_ref).max() <= 1e-10
        assert abs(ws.mass @ u - ws.mass @ state.u) <= 1e-12 * ws.mass.sum()
        # W off the support solves its floored mass rows: the discrete
        # harmonic extension, as U stays on its bound there
        k_b = args[1]
        off = np.flatnonzero(frozen)
        assert np.all(np.abs(u[off]) == 1.0)
        assert (np.abs(k_b[off] @ w).max()
                <= 1e-12 * np.abs(k_b[off]).sum(axis=1).max()
                * np.abs(w).max())
    assert 3 <= factors < rounds


def test_degenerate_extension_factor_is_kept_across_steps(monkeypatch):
    # 24 N=32 steps of surface_diffusion through cahn_hilliard_step,
    # whose workspace keeps the W-extension factor while O, the frozen
    # nodes outside the inactive set, stays the same: U and W are those
    # of solve_coupled_ch without a slot, bit for bit, and the extension
    # is factored only on the steps whose O differs from the step before
    # (measured: all but steps 21 and 24, each step with one O over its
    # rounds)
    factors, keys = [], []
    factor_spd, get = obstacle._factor_spd, obstacle.FactorSlot.get

    def counting_factor_spd(mat, **kwargs):
        factors.append(mat.shape[0])
        return factor_spd(mat, **kwargs)

    def recording_get(slot, key, make):
        keys.append(key.copy())
        return get(slot, key, make)

    monkeypatch.setattr(obstacle, "_factor_spd", counting_factor_spd)
    monkeypatch.setattr(obstacle.FactorSlot, "get", recording_get)
    ws, state, kwargs = _degenerate_case()
    steps, changed, previous = 24, 0, None
    for _ in range(steps):
        args, frozen = _degenerate_inputs(ws, state)
        before = len(factors)
        u_ref, w_ref, ref = solve_coupled_ch(*args, frozen=frozen, **kwargs)
        # without a slot, one factor per call, as O is the same over its
        # rounds
        assert len(factors) == before + 1
        keys.clear()
        before = len(factors)
        state = cahn_hilliard_step(state, ws)
        assert state.stats.iterations == ref.iterations
        np.testing.assert_array_equal(state.u, u_ref)
        np.testing.assert_array_equal(state.w, w_ref)
        assert keys and all(np.array_equal(k, keys[0]) for k in keys)
        new = previous is None or not np.array_equal(keys[0], previous)
        assert len(factors) - before == int(new)
        changed += new
        previous = keys[0]
    assert 1 <= changed < steps


def test_floored_mobility_keeps_the_frozen_rows_bit_for_bit():
    # the workspace's floored far field plus the elements with an
    # unfloored vertex, against the assembly of every element with the
    # floored mobility, over 12 N=32 steps of surface_diffusion: the rows
    # at frozen nodes, which hold K_b,OO and so the kept extension factor,
    # agree bit for bit, and the rest to rounding
    ws, state, _ = _degenerate_case()
    mesh = ws.mesh
    rows = np.repeat(np.arange(mesh.n_vertices),
                     np.diff(mesh.slot_map.indptr))
    for _ in range(12):
        k_b, frozen = floored_mobility(mesh, state.u, ws.iso_block,
                                       ws.floor_stiffness)
        ref = assemble_mobility_stiffness(
            mesh, state.u, lambda v: np.maximum(1.0 - v * v, MOBILITY_FLOOR),
            ws.iso_block)
        floored = 1.0 - state.u ** 2 < MOBILITY_FLOOR
        support = np.zeros(mesh.n_vertices, dtype=bool)
        support[mesh.elements[~floored[mesh.elements].all(axis=1)]] = True
        np.testing.assert_array_equal(frozen, ~support)
        assert 0 < np.count_nonzero(frozen) < frozen.size
        at_frozen = frozen[rows]
        np.testing.assert_array_equal(k_b.data[at_frozen], ref.data[at_frozen])
        assert (np.abs(k_b.data - ref.data).max()
                <= 1e-15 * np.abs(ref.data).max())
        state = cahn_hilliard_step(state, ws)


def test_degenerate_support_matches_dense_enumeration_oracle():
    # 9 nodes: the quarter x, y <= 0 sits at U = 1, so the corner
    # (-1/2, -1/2), all of whose elements have the floored mobility, is
    # frozen; the dense oracle solves the floored system of the whole
    # domain.  They agree to 5.6e-16 in U and 6.2e-15 in W (|W| up to 5.9)
    mesh = build_uniform_mesh(2, 0.5, 2)
    x, y = mesh.vertices.T
    u_old = np.where((x <= 0.0) & (y <= 0.0), 1.0,
                     np.random.default_rng(3).uniform(-0.9, 0.6, 9))
    k_b, frozen = floored_mobility(mesh, u_old)
    assert np.count_nonzero(frozen) == 1
    theta, tau, eps, alpha = 1.0, 1e-3, 0.1, 1.0
    _, _, k_aniso = _coupled_inputs(mesh, u_old)
    mass = lumped_mass(mesh)
    u, w, stats = solve_coupled_ch(mass, k_b, k_aniso, u_old, theta=theta,
                                   tau=tau, eps=eps, alpha=alpha, tol=1e-10,
                                   frozen=frozen)
    assert stats.converged
    u_ref, w_ref = enumerate_coupled_solution(
        mass, k_b, k_aniso, u_old, theta, tau, eps, alpha, math.pi / 2)
    assert np.abs(u - u_ref).max() <= 1e-12
    assert np.abs(w - w_ref).max() <= 1e-10


def test_degenerate_inactive_frozen_nodes_join_the_saddle(monkeypatch):
    # a pure-phase patch 1e-14 inside its bound: floored (1 - U^2 < 1e-12)
    # and so frozen, but inside the box, so inactive in the first round;
    # those nodes must join the saddle.  Pinned at the bound in the second
    # round, their mass rows ask for a flux of 1e-14 through the floored
    # mobility, so W reaches 81 there; the whole-domain saddle agrees to
    # 8.6e-15 in U and 1.2e-12 in W
    ws, state, args, _, kwargs = next(_degenerate_states(1))
    mesh = ws.mesh
    u_old = state.u.copy()
    patch = ((np.abs(u_old) >= 1.0)
             & (np.abs(mesh.vertices - 0.4).max(axis=1) < 0.08))
    u_old[patch] *= 1.0 - 1e-14
    k_b, frozen = floored_mobility(mesh, u_old, ws.iso_block)
    assert np.all(frozen[patch]) and np.count_nonzero(patch) >= 9
    args = (args[0], k_b, args[2], u_old)
    dims = []
    band_lu = obstacle._factor_band_lu

    def recording_band_lu(mat):
        dims.append(mat.shape[0])
        return band_lu(mat)

    monkeypatch.setattr(obstacle, "_factor_band_lu", recording_band_lu)
    u, w, stats = solve_coupled_ch(*args, frozen=frozen, **kwargs)
    inactive = np.abs(u_old) < 1.0
    assert np.all(inactive[patch])
    # the first saddle: U on I, W on the support and I
    assert dims[0] == (np.count_nonzero(inactive)
                       + np.count_nonzero(~frozen | inactive))
    u_ref, w_ref, ref = solve_coupled_ch(*args, **kwargs)
    assert stats.converged and stats.residual <= kwargs["tol"]
    assert stats.iterations == ref.iterations
    assert np.abs(u - u_ref).max() <= 1e-12
    assert np.abs(w - w_ref).max() <= 1e-10


def test_degenerate_without_frozen_nodes_is_the_full_saddle():
    # U inside the box everywhere: nothing is floored, nothing frozen, and
    # the solve is bit for bit the saddle of the whole domain
    ws, state, args, _, kwargs = next(_degenerate_states(1, subdivisions=16))
    u_old = 0.9 * args[3]
    k_b, frozen = floored_mobility(ws.mesh, u_old, ws.iso_block)
    assert not frozen.any()
    args = (args[0], k_b, args[2], u_old)
    u_ref, w_ref, ref = solve_coupled_ch(*args, **kwargs)
    u, w, stats = solve_coupled_ch(*args, frozen=frozen, **kwargs)
    np.testing.assert_array_equal(u, u_ref)
    np.testing.assert_array_equal(w, w_ref)
    assert stats == ref


def test_frozen_nodes_need_the_natural_saddle_path(mesh2d_small):
    u_old = initial_profile(mesh2d_small, 0.1, Circle((0.0, 0.0), 0.25))
    args, kwargs = _schur_case(mesh2d_small, u_old, False)
    with pytest.raises(ValueError):
        solve_coupled_ch(*args, frozen=np.zeros(u_old.size, dtype=bool),
                         **kwargs)


# -- failure exits of the Schur path ----------------------------------


def _identity_precond(r):
    return r, r


def test_projected_cg_refuses_a_nonpositive_curvature():
    def apply(d):
        return -d, d

    r = np.ones(3)
    with pytest.raises(RuntimeError, match="not positive definite"):
        obstacle._projected_cg(apply, r, np.zeros(3), np.zeros(3),
                               _identity_precond, 1e-12)


def test_projected_cg_stops_at_its_iteration_cap():
    diag = np.array([1.0, 10.0, 100.0])

    def apply(d):
        return diag * d, d

    # three distinct eigenvalues take CG three iterations, and the residual
    # is checked before each iteration: a cap of 3 never sees the third's
    with pytest.raises(RuntimeError, match="did not converge in 3 iterations"):
        obstacle._projected_cg(apply, np.ones(3), np.zeros(3), np.zeros(3),
                               _identity_precond, 1e-12, max_iter=3)
    x, _, iterations = obstacle._projected_cg(
        apply, np.ones(3), np.zeros(3), np.zeros(3), _identity_precond, 1e-12,
        max_iter=4)
    assert iterations == 3
    np.testing.assert_allclose(x, 1.0 / diag, rtol=1e-12)


def test_dirichlet_data_needs_a_boundary_mask(mesh2d_small):
    u_old = initial_profile(mesh2d_small, 0.1, Circle((0.0, 0.0), 0.25))
    args, kwargs = _schur_case(mesh2d_small, u_old, True)
    del kwargs["boundary_mask"]
    with pytest.raises(ValueError, match="requires a boundary mask"):
        solve_coupled_ch(*args, **kwargs)


def test_the_schur_path_needs_the_explicit_potential(mesh2d_small):
    u_old = initial_profile(mesh2d_small, 0.1, Circle((0.0, 0.0), 0.25))
    args, kwargs = _schur_case(mesh2d_small, u_old, False)
    with pytest.raises(ValueError, match="needs the explicit potential"):
        solve_coupled_ch(*args, implicit=True, **kwargs)


def test_coupled_schur_without_a_finished_round_returns_u_old():
    # a solver -K_b^-1 of the wrong sign makes the Schur complement
    # indefinite: the first CG raises, so no round finishes
    mesh = build_uniform_mesh(2, 0.5, 16)
    eps = 1.0 / (16.0 * math.pi)
    u_old = initial_profile(mesh, eps, Circle((0.0, 0.0), 0.3))
    args, kwargs = _schur_case(mesh, u_old, False)
    solve = kwargs["kb_factor"]
    kwargs["kb_factor"] = lambda f: -solve(f)
    u, w, stats = solve_coupled_ch(*args, **kwargs)
    np.testing.assert_array_equal(u, u_old)
    assert np.abs(w).max() == 0.0
    assert stats.residual == np.inf
    assert not stats.converged
    assert stats.iterations == 1 and stats.cg_iterations == 0


# -- one factorization policy ------------------------------------------


def test_every_factor_is_banded(monkeypatch):
    # no SuperLU factor: every block takes a band factor.  The obstacle
    # loop's inactive blocks and its projected-Newton fallback's free
    # blocks, the mobility factor K_b under either boundary condition,
    # the SPD Schur preconditioners and the degenerate path's W block off
    # the mobility's support take the banded Cholesky, every saddle of
    # the degenerate path the banded LU.  Their ordering sees no explicit
    # zero, and each band holds exactly the nonzeros of the lower triangle
    # (Cholesky) or of the whole block (LU), no wider, and is factored in
    # place
    calls, spd_inputs, bands, lu_inputs, lu_bands = [], [], [], [], []
    splu, factor_spd = obstacle.spla.splu, obstacle._factor_spd
    rcm, dpbtrf = obstacle.reverse_cuthill_mckee, obstacle.dpbtrf
    band_lu, dgbtrf = obstacle._factor_band_lu, obstacle.dgbtrf

    def recording_splu(mat, *args, **kwargs):
        calls.append(mat.shape)
        return splu(mat, *args, **kwargs)

    def recording_factor_spd(mat, **kwargs):
        spd_inputs.append(mat.copy())
        return factor_spd(mat, **kwargs)

    def recording_rcm(graph, **kwargs):
        assert np.count_nonzero(graph.data == 0.0) == 0, graph.shape
        return rcm(graph, **kwargs)

    def recording_dpbtrf(band, **kwargs):
        bands.append(band.copy())
        factor, info = dpbtrf(band, **kwargs)
        # the Fortran-ordered band is factored in place, not copied
        assert band.flags.f_contiguous and np.shares_memory(factor, band)
        return factor, info

    def recording_band_lu(mat):
        lu_inputs.append(mat.copy())
        return band_lu(mat)

    def recording_dgbtrf(band, kl, ku, **kwargs):
        lu_bands.append((band.copy(), kl))
        factor, pivots, info = dgbtrf(band, kl, ku, **kwargs)
        assert band.flags.f_contiguous and np.shares_memory(factor, band)
        return factor, pivots, info

    monkeypatch.setattr(obstacle.spla, "splu", recording_splu)
    monkeypatch.setattr(obstacle, "_factor_spd", recording_factor_spd)
    monkeypatch.setattr(obstacle, "reverse_cuthill_mckee", recording_rcm)
    monkeypatch.setattr(obstacle, "dpbtrf", recording_dpbtrf)
    monkeypatch.setattr(obstacle, "_factor_band_lu", recording_band_lu)
    monkeypatch.setattr(obstacle, "dgbtrf", recording_dgbtrf)
    # rng seed 0: the loop cycles, so the fallback runs too
    a_mat, rhs = _cycling_system(0)
    a_mat = sp.csr_matrix(a_mat)
    _, _, rounds, ok, _ = _active_set_polish(a_mat, rhs, np.zeros(rhs.size),
                                             1e-10)
    # the last round meets a set solved before and factors nothing
    assert not ok and len(spd_inputs) == rounds - 1
    sol = solve_obstacle(a_mat, rhs, tol=1e-10)
    assert sol.converged and sol.iterations > rounds
    # the same loop again, then one free block per projected-Newton round
    assert len(spd_inputs) == 2 * (rounds - 1) + sol.iterations - rounds
    cfg = SchemeConfig("allen_cahn", eps_inv=16.0 * math.pi, tau=1e-4,
                       t_end=3e-4)
    mesh = build_uniform_mesh(2, 0.5, 16)
    spd_before = len(spd_inputs)
    result = run_simulation(cfg, mesh, make_regularized_l1(2, 0.01),
                            Circle((0.0, 0.0), 0.3))
    # one inactive block per active-set round, and no SuperLU factor
    assert len(spd_inputs) - spd_before == sum(
        r.solver_iters for r in result.records) > 0
    assert calls == [] and len(spd_inputs) == len(bands)
    u_old = initial_profile(mesh, cfg.eps, Circle((0.1, 0.0), 0.3))
    spd_before = len(spd_inputs)
    # _schur_case factors K_b,II by the banded Cholesky
    args, kwargs = _schur_case(mesh, u_old, True)
    assert len(spd_inputs) == spd_before + 1
    spd_before = len(spd_inputs)
    stats = solve_coupled_ch(*args, **kwargs)[2]
    assert stats.converged
    # every Dirichlet preconditioner goes through the banded Cholesky
    assert calls == []
    assert 0 < len(spd_inputs) - spd_before <= stats.iterations
    assert len(spd_inputs) == len(bands)
    kwargs.pop("kb_factor")
    assert solve_coupled_ch(*args, **kwargs)[2].converged
    # without it, the Dirichlet saddle path makes no SuperLU factor either
    assert calls == [] and lu_inputs
    # under natural boundary conditions K_b, grounded at one node, and
    # every preconditioner take the banded Cholesky too, as the mass
    # border needs no LU
    spd_before = len(spd_inputs)
    args, kwargs = _schur_case(mesh, u_old, False)
    assert len(spd_inputs) == spd_before + 1
    assert spd_inputs[-1].shape[0] == mesh.n_vertices - 1
    spd_before = len(spd_inputs)
    stats = solve_coupled_ch(*args, **kwargs)[2]
    assert stats.converged
    assert calls == []
    assert spd_before < len(spd_inputs) == len(bands)
    assert len(spd_inputs) - spd_before <= stats.iterations
    # the degenerate saddle on the mobility's support takes the banded
    # LU, and the W block off the support the banded Cholesky
    spd_before, lu_before = len(spd_inputs), len(lu_inputs)
    _, _, args, frozen, kwargs = next(_degenerate_states(1, subdivisions=16))
    assert frozen.any()
    stats = solve_coupled_ch(*args, frozen=frozen, **kwargs)[2]
    assert stats.converged
    assert calls == []
    assert spd_before < len(spd_inputs) == len(bands)
    assert len(spd_inputs) - spd_before <= stats.iterations
    assert lu_before < len(lu_inputs) == len(lu_bands)
    assert len(lu_inputs) - lu_before <= stats.iterations
    for mat, band in zip(spd_inputs, bands):
        assert np.count_nonzero(band) == np.count_nonzero(sp.tril(mat).data)
        assert np.count_nonzero(band[-1]) > 0
    for mat, (band, width) in zip(lu_inputs, lu_bands):
        # the top rows of LAPACK's band storage hold the fill of the row
        # interchanges; the block's entries fill the rows below, out to
        # its outermost diagonals
        assert np.count_nonzero(band) == np.count_nonzero(mat.data)
        assert np.count_nonzero(band[:width]) == 0
        assert np.count_nonzero(band[width]) > 0
        assert np.count_nonzero(band[-1]) > 0

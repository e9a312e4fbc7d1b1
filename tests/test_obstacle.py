"""Constrained solvers against hand values and brute-force oracles."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from anisofield import (Circle, SchemeConfig, assemble_anisotropic_stiffness,
                        build_uniform_mesh,
                        initial_profile, isotropic, isotropic_stiffness,
                        lumped_mass, make_regularized_l1, run_simulation,
                        solve_coupled_ch, solve_obstacle)
from anisofield import obstacle
from anisofield.obstacle import (GridTransform, _active_set_polish,
                                 factor_mobility, kkt_violation,
                                 mobility_solver, pattern_coloring)
from conftest import (enumerate_coupled_solution, projected_gradient_box_qp,
                      shuffled_mesh)


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
    # the rng-2 system, on which the loop cycles after 10 rounds, so the
    # projected-Newton fallback runs too
    a_mat, rhs = _cycling_system(2)
    s1 = solve_obstacle(sp.csr_matrix(a_mat), rhs, tol=1e-10)
    s2 = solve_obstacle(sp.csr_matrix(a_mat), rhs, tol=1e-10)
    assert s1.iterations == s2.iterations > 10
    np.testing.assert_array_equal(s1.solution, s2.solution)


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


def test_active_set_stops_on_a_revisited_set():
    # on this system the direct active-set loop cycles from the all-free
    # start; the shared loop must leave at the first revisit, not run on
    # to its round budget, and the fallback must still reach the solution
    a_mat, rhs = _cycling_system(2)
    a_mat, n = sp.csr_matrix(a_mat), rhs.size
    x, residual, rounds, ok = _active_set_polish(a_mat, rhs, np.zeros(n), 1e-10)
    assert not ok
    assert rounds == 10 < 50
    assert residual > 1e-10
    assert np.abs(x).max() <= 1.0
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


def _coupled_inputs(mesh, u_old, b0=1.0):
    mass = lumped_mass(mesh)
    k_b = (b0 * isotropic_stiffness(mesh)).tocsr()
    k_aniso = assemble_anisotropic_stiffness(mesh, isotropic(2), u_old)
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


# -- constant mobility solves: transform and LU ------------------------


def _lu_factor(k_b, mass, mesh, mask):
    return factor_mobility(k_b, mass, mask)


def _transform_factor(k_b, mass, mesh, mask):
    solver = mobility_solver(k_b, mass, mesh.dim, mask)
    assert isinstance(solver, GridTransform)
    return solver


# the two solvers of the Schur path with b0 K: each test that runs the
# path on both loops over them
FACTORS = (_lu_factor, _transform_factor)


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


# -- coupled solver, Schur-complement path (constant mobility) --------


def _schur_case(mesh, u_old, dirichlet, w_bdry=-1.0, make_factor=_lu_factor):
    """Inputs of a constant-mobility step (b0 = 2) and the matching factor."""
    eps = 1.0 / (16.0 * math.pi)
    mass, k_b, k_aniso = _coupled_inputs(mesh, u_old, b0=2.0)
    kwargs = dict(theta=1.0, tau=1e-5, eps=eps, alpha=1.0, tol=1e-9)
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


@pytest.mark.parametrize("dirichlet", [False, True], ids=["natural", "dirichlet"])
@pytest.mark.parametrize("center", [(0.0, 0.0), (0.1, 0.0)])
def test_coupled_schur_matches_saddle_path(dirichlet, center):
    # both paths stop at a KKT residual of 1e-9; on these N=16 circles
    # they agree to 7.4e-12 in U and 1.8e-9 in W (|W| up to 37), so the
    # bounds below leave a factor of 100 in U and 10 in W
    mesh = build_uniform_mesh(2, 0.5, 16)
    eps = 1.0 / (16.0 * math.pi)
    u_old = initial_profile(mesh, eps, Circle(center, 0.3))
    args, kwargs = _schur_case(mesh, u_old, dirichlet)
    kwargs.pop("kb_factor")
    u_ref, w_ref, ref = solve_coupled_ch(*args, **kwargs)
    for make_factor in FACTORS:
        args, kwargs = _schur_case(mesh, u_old, dirichlet,
                                   make_factor=make_factor)
        u, w, stats = solve_coupled_ch(*args, **kwargs)
        assert stats.converged and stats.residual <= 1e-9
        assert stats.iterations == ref.iterations
        assert np.abs(u - u_ref).max() <= 1e-9
        assert np.abs(w - w_ref).max() <= 2e-8
        if not dirichlet:
            mass = args[0]
            assert abs(mass @ u - mass @ u_old) <= 1e-14


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


# -- one factorization policy ------------------------------------------


def test_every_lu_takes_the_symmetric_ordering(monkeypatch):
    # the obstacle loop, its projected-Newton fallback, the mobility factor,
    # the Schur preconditioners and the saddle LU all factor through the
    # symmetric minimum-degree ordering in SymmetricMode, and none of them
    # factors an explicit zero of the Kuhn pattern
    calls = []
    splu = obstacle.spla.splu

    def recording_splu(mat, *args, **kwargs):
        calls.append((args, kwargs))
        assert np.count_nonzero(mat.data == 0.0) == 0, mat.shape
        return splu(mat, *args, **kwargs)

    monkeypatch.setattr(obstacle.spla, "splu", recording_splu)
    counts = []
    # rng seed 0: the loop cycles, so the fallback runs too
    a_mat, rhs = _cycling_system(0)
    a_mat = sp.csr_matrix(a_mat)
    _, _, rounds, ok = _active_set_polish(a_mat, rhs, np.zeros(rhs.size), 1e-10)
    sol = solve_obstacle(a_mat, rhs, tol=1e-10)
    assert not ok and sol.converged and sol.iterations > rounds
    counts.append(len(calls))
    cfg = SchemeConfig("allen_cahn", eps_inv=16.0 * math.pi, tau=1e-4,
                       t_end=3e-4)
    mesh = build_uniform_mesh(2, 0.5, 16)
    run_simulation(cfg, mesh, make_regularized_l1(2, 0.01),
                   Circle((0.0, 0.0), 0.3))
    counts.append(len(calls))
    u_old = initial_profile(mesh, cfg.eps, Circle((0.1, 0.0), 0.3))
    args, kwargs = _schur_case(mesh, u_old, True)
    assert solve_coupled_ch(*args, **kwargs)[2].converged
    kwargs.pop("kb_factor")
    assert solve_coupled_ch(*args, **kwargs)[2].converged
    counts.append(len(calls))
    assert 0 < counts[0] < counts[1] < counts[2]
    for positional, keywords in calls:
        assert positional == ()
        assert keywords.get("permc_spec") == "MMD_AT_PLUS_A"
        assert keywords.get("options", {}).get("SymmetricMode") is True

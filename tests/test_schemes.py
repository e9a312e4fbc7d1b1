"""Time stepping: initial data, per-step contracts and the run driver."""

import json
import math

import numpy as np
import pytest

import anisofield.obstacle
import anisofield.schemes
from anisofield import (C_PSI, Circle, Cuboid, SchemeConfig, SolverFailure,
                        Sphere, Uniform, Workspace, allen_cahn_step,
                        cahn_hilliard_step,
                        build_uniform_mesh, implicit_tau_bound, initial_profile,
                        initial_state, isotropic, make_regularized_l1,
                        rotation_2d, run_simulation)

EPS_INV = 16.0 * math.pi
EPS = 1.0 / EPS_INV


def _ac_config(**kw):
    base = dict(scheme="allen_cahn", eps_inv=EPS_INV, tau=1e-4, t_end=1e-3)
    base.update(kw)
    return SchemeConfig(**base)


def test_initial_profile_values_on_circle():
    # vertex (0.25, 0) lies exactly on the circle; vertices deep inside
    # and outside saturate at +-1
    mesh = build_uniform_mesh(2, 0.5, 8)
    u = initial_profile(mesh, EPS, Circle((0.0, 0.0), 0.25))
    on_circle = np.flatnonzero(
        np.linalg.norm(mesh.vertices - 0.0, axis=1) == 0.25)
    assert on_circle.size > 0
    assert np.abs(u[on_circle]).max() == 0.0
    dist = 0.25 - np.linalg.norm(mesh.vertices, axis=1)
    assert np.all(u[dist >= EPS * math.pi / 2] == 1.0)
    assert np.all(u[dist <= -EPS * math.pi / 2] == -1.0)


def test_initial_profile_sin_value_inside_band():
    mesh = build_uniform_mesh(2, 0.5, 64)
    u = initial_profile(mesh, EPS, Circle((0.0, 0.0), 0.3))
    dist = 0.3 - np.linalg.norm(mesh.vertices, axis=1)
    band = np.abs(dist) < EPS * math.pi / 2
    np.testing.assert_allclose(u[band], np.sin(dist[band] / EPS), rtol=1e-13)


def test_initial_profile_uniform():
    mesh = build_uniform_mesh(2, 0.5, 4)
    np.testing.assert_array_equal(initial_profile(mesh, EPS, Uniform(1.0)),
                                  np.ones(mesh.n_vertices))
    with pytest.raises(ValueError):
        initial_profile(mesh, EPS, Uniform(1.5))


def test_initial_profile_cuboid_signed_distance():
    mesh = build_uniform_mesh(3, 0.5, 8)
    geo = Cuboid((0.0, 0.0, 0.0), (0.25, 0.25, 0.25))
    u = initial_profile(mesh, EPS, geo)
    center = np.flatnonzero(np.linalg.norm(mesh.vertices, axis=1) == 0.0)
    assert np.all(u[center] == 1.0)
    corner = np.flatnonzero(
        np.all(np.abs(np.abs(mesh.vertices) - 0.5) < 1e-12, axis=1))
    assert np.all(u[corner] == -1.0)


def test_initial_profile_rejects_geometry_outside_domain():
    mesh = build_uniform_mesh(2, 0.5, 4)
    with pytest.raises(ValueError):
        initial_profile(mesh, EPS, Circle((0.4, 0.0), 0.3))


def test_allen_cahn_pure_phase_is_stationary(mesh2d_small):
    cfg = _ac_config()
    iso = isotropic(2)
    ws = Workspace(mesh2d_small, iso, cfg)
    state = initial_state(ws, np.ones(mesh2d_small.n_vertices))
    nxt = allen_cahn_step(state, ws)
    np.testing.assert_array_equal(nxt.u, state.u)
    assert nxt.report.e_gamma_h == 0.0
    assert np.abs(nxt.w).max() == 0.0


def test_allen_cahn_zero_fixed_point(mesh2d_small):
    cfg = _ac_config()
    iso = isotropic(2)
    ws = Workspace(mesh2d_small, iso, cfg)
    state = initial_state(ws, np.zeros(mesh2d_small.n_vertices))
    nxt = allen_cahn_step(state, ws)
    assert np.abs(nxt.u).max() == 0.0


def test_allen_cahn_alpha_invariance(mesh2d_medium):
    # alpha cancels out of the eliminated system: bit-identical traces
    iso = isotropic(2)
    u0 = initial_profile(mesh2d_medium, EPS, Circle((0.0, 0.0), 0.3))
    traces = []
    for alpha in (1.0, 7.0):
        cfg = _ac_config(alpha=alpha)
        ws = Workspace(mesh2d_medium, iso, cfg)
        state = initial_state(ws, u0)
        trace = []
        for _ in range(3):
            state = allen_cahn_step(state, ws)
            trace.append(state.u.copy())
        traces.append(trace)
    for a, b in zip(*traces):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("aniso", [isotropic(2), make_regularized_l1(2, 0.01)],
                         ids=["iso", "l1reg0.01"])
def test_allen_cahn_step_is_implicit_step_at_flow_tau(mesh2d_medium, aniso):
    # the explicit concave term -M U^old/eps equals -M U/eps + M (U - U^old)/eps,
    # so a step at tau is the implicit-potential step at tau/(1 + tau/eps^2)
    tau = 1e-4
    flow_tau = tau / (1.0 + tau / EPS**2)
    u0 = initial_profile(mesh2d_medium, EPS, Circle((0.0, 0.0), 0.3))
    traces = []
    for cfg in (_ac_config(tau=tau, tol=1e-12),
                _ac_config(tau=flow_tau, tol=1e-12, implicit=True)):
        ws = Workspace(mesh2d_medium, aniso, cfg)
        state = initial_state(ws, u0)
        trace = []
        for _ in range(10):
            state = allen_cahn_step(state, ws)
            assert state.stats.converged
            trace.append(state.u)
        traces.append(np.array(trace))
    assert np.abs(traces[0] - traces[1]).max() <= 1e-12


def test_allen_cahn_steps_need_no_fallback(mesh2d_medium, monkeypatch):
    # the active-set loop from U^old's bound pattern solves every step
    # alone, so the projected-Newton fallback never runs
    def no_fallback(*args, **kwargs):
        raise AssertionError("the projected-Newton fallback ran")

    monkeypatch.setattr("anisofield.obstacle._projected_newton", no_fallback)
    aniso = make_regularized_l1(2, 0.01).rotate(
        rotation_2d(math.radians(0.005)))
    cfg = _ac_config()
    ws = Workspace(mesh2d_medium, aniso, cfg)
    state = initial_state(ws, initial_profile(
        mesh2d_medium, EPS, Circle((0.0, 0.0), 0.3)))
    for _ in range(10):
        state = allen_cahn_step(state, ws)
        assert state.stats.converged
        assert state.stats.residual <= cfg.tol


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_one_term_obstacle_factor_is_kept_across_steps(monkeypatch, dim, n):
    # 20 isotropic Allen-Cahn steps through allen_cahn_step, whose
    # workspace keeps the factor of the inactive block, against the same
    # steps with the slot withheld from solve_obstacle: U, W, the rounds
    # and the energy reports agree bit for bit, and with the slot a round
    # factors only when its inactive set differs from the kept one's.
    # Measured: 9 factors for 27 rounds in 2d, 6 for the 17 of 23 rounds
    # with an inactive node in 3d (at N=8, only 8 of 21 rounds have one)
    obstacle = anisofield.obstacle
    factors, keys = [], []
    factor_spd, get = obstacle._factor_spd, obstacle.FactorSlot.get
    solve = anisofield.schemes.solve_obstacle

    def counting_factor_spd(mat, **kwargs):
        factors.append(mat.shape[0])
        return factor_spd(mat, **kwargs)

    def recording_get(slot, key, make):
        keys.append(key.copy())
        return get(slot, key, make)

    def without_slot(*args, factor, **kwargs):
        assert factor is not None
        return solve(*args, **kwargs)

    monkeypatch.setattr(obstacle, "_factor_spd", counting_factor_spd)
    monkeypatch.setattr(obstacle.FactorSlot, "get", recording_get)
    mesh = build_uniform_mesh(dim, 0.5, n)
    geometry = (Circle((0.0, 0.0), 0.3) if dim == 2
                else Sphere((0.0, 0.0, 0.0), 0.3))
    runs = []
    for solver in (without_slot, solve):
        monkeypatch.setattr(anisofield.schemes, "solve_obstacle", solver)
        factors.clear()
        keys.clear()
        ws = Workspace(mesh, isotropic(dim), _ac_config(t_end=2e-3))
        state = initial_state(ws, initial_profile(mesh, EPS, geometry))
        states = []
        for _ in range(20):
            state = allen_cahn_step(state, ws)
            assert state.stats.converged
            states.append(state)
        runs.append((states, len(factors), list(keys)))
    (ref, ref_factors, ref_keys), (kept, kept_factors, kept_keys) = runs
    for a, b in zip(ref, kept):
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.w, b.w)
        assert a.stats == b.stats and a.report == b.report
    # without the slot every round with an inactive node factors its
    # block; with it, each such round asks the slot
    assert ref_keys == [] and ref_factors == len(kept_keys)
    new = sum(i == 0 or not np.array_equal(key, kept_keys[i - 1])
              for i, key in enumerate(kept_keys))
    assert kept_factors == new < len(kept_keys)


def test_allen_cahn_energy_decreases(mesh2d_medium):
    ani = make_regularized_l1(2, 0.3)
    cfg = _ac_config(tau=1e-3)
    ws = Workspace(mesh2d_medium, ani, cfg)
    state = initial_state(ws, initial_profile(mesh2d_medium, EPS,
                                              Circle((0.0, 0.0), 0.3)))
    for _ in range(5):
        prev = state.report.e_gamma_h
        state = allen_cahn_step(state, ws)
        assert state.stats.converged
        assert state.report.stability_residual <= 10.0 * cfg.tol
        assert state.report.e_gamma_h <= prev + 10.0 * cfg.tol


def test_cahn_hilliard_zero_data(mesh2d_small):
    cfg = SchemeConfig("cahn_hilliard_neumann", eps_inv=EPS_INV, tau=1e-5,
                       t_end=1e-4, theta=1.0, b0=2.0)
    iso = isotropic(2)
    ws = Workspace(mesh2d_small, iso, cfg)
    state = initial_state(ws, np.zeros(mesh2d_small.n_vertices))
    nxt = cahn_hilliard_step(state, ws)
    assert np.abs(nxt.u).max() == 0.0
    assert np.abs(nxt.w).max() == 0.0


def test_cahn_hilliard_mass_and_energy_monitors(mesh2d_medium):
    cfg = SchemeConfig("cahn_hilliard_neumann", eps_inv=EPS_INV, tau=1e-6,
                       t_end=1e-5, theta=EPS, alpha=2.0 / C_PSI,
                       mobility="degenerate")
    ani = make_regularized_l1(2, 0.3)
    ws = Workspace(mesh2d_medium, ani, cfg)
    state = initial_state(ws, initial_profile(mesh2d_medium, EPS,
                                              Circle((0.0, 0.0), 0.3)))
    mass0 = state.report.mass
    for _ in range(5):
        state = cahn_hilliard_step(state, ws)
        assert state.stats.converged
        assert state.stats.mobility_regularized  # pure phases present
        assert abs(state.report.mass - mass0) <= cfg.tol
        assert state.report.stability_residual <= 10.0 * cfg.tol
        assert np.abs(state.u).max() <= 1.0


def test_dirichlet_threshold_steady_state(mesh2d_medium):
    # U = 1 remains steady exactly at the critical boundary value -64
    cfg = SchemeConfig("cahn_hilliard_dirichlet", eps_inv=EPS_INV, tau=1e-5,
                       t_end=1e-4, alpha=1.0, b0=2.0, w_bdry=-64.0)
    iso = isotropic(2)
    ws = Workspace(mesh2d_medium, iso, cfg)
    state = initial_state(ws, np.ones(mesh2d_medium.n_vertices))
    for _ in range(3):
        state = cahn_hilliard_step(state, ws)
        assert np.abs(state.u - 1.0).max() <= 1e-9
        assert np.abs(state.w + 64.0).max() <= 1e-8
        assert state.report.f_gamma_h == pytest.approx(64.0, rel=1e-9)


def test_dirichlet_zero_boundary_zero_state(mesh2d_small):
    cfg = SchemeConfig("cahn_hilliard_dirichlet", eps_inv=EPS_INV, tau=1e-5,
                       t_end=1e-4, alpha=1.0, b0=2.0, w_bdry=0.0)
    iso = isotropic(2)
    ws = Workspace(mesh2d_small, iso, cfg)
    state = initial_state(ws, np.zeros(mesh2d_small.n_vertices))
    nxt = cahn_hilliard_step(state, ws)
    assert np.abs(nxt.u).max() == 0.0
    assert np.abs(nxt.w).max() == 0.0


def test_dirichlet_below_threshold_forms_layer(mesh2d_medium):
    cfg = SchemeConfig("cahn_hilliard_dirichlet", eps_inv=EPS_INV, tau=1e-5,
                       t_end=1e-4, alpha=1.0, b0=2.0, w_bdry=-65.0)
    iso = isotropic(2)
    ws = Workspace(mesh2d_medium, iso, cfg)
    state = initial_state(ws, np.ones(mesh2d_medium.n_vertices))
    prev_f = state.report.f_gamma_h
    for _ in range(5):
        state = cahn_hilliard_step(state, ws)
        assert state.report.f_gamma_h <= prev_f + 10.0 * cfg.tol
        prev_f = state.report.f_gamma_h
    assert state.u.min() < 1.0 - 1e-6  # boundary layer has started


@pytest.mark.parametrize("w_bdry", [-64.0, -65.0], ids=["steady", "layer"])
def test_mobility_factor_is_built_once_per_run(monkeypatch, w_bdry):
    # on a Kuhn grid with W prescribed on the boundary, the constant K_b
    # is solved by one transform, built in step 1 and reused by every
    # later round and step: K_b is never factored, and W is eliminated,
    # so no LU is larger than the mesh.  The Workspace's other caches
    # (mass, b0 K, element blocks) are also built once per run.
    dims = []
    splu = anisofield.obstacle.spla.splu

    def counting(mat, *args, **kwargs):
        dims.append(mat.shape[0])
        return splu(mat, *args, **kwargs)

    monkeypatch.setattr(anisofield.obstacle.spla, "splu", counting)
    calls = {}

    def count(module, name):
        def counted(*args, _fn=getattr(module, name)):
            calls[name] = calls.get(name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)

    for name in ("stiffness_blocks", "isotropic_stiffness", "lumped_mass"):
        count(anisofield.schemes, name)
    for name in ("GridTransform", "factor_mobility"):
        count(anisofield.obstacle, name)
    mesh = build_uniform_mesh(2, 0.5, 16)
    cfg = SchemeConfig("cahn_hilliard_dirichlet", eps_inv=EPS_INV, tau=1e-5,
                       t_end=5e-5, alpha=1.0, b0=2.0, w_bdry=w_bdry)
    result = run_simulation(cfg, mesh, isotropic(2), Uniform(1.0))
    assert len(result.step_seconds) == 5 and not result.failed
    assert max(dims, default=0) <= mesh.n_vertices
    assert calls == {"stiffness_blocks": 1, "isotropic_stiffness": 1,
                     "lumped_mass": 1, "GridTransform": 1}


@pytest.mark.parametrize("scheme", ["cahn_hilliard_neumann",
                                    "cahn_hilliard_dirichlet"])
def test_conserved_steps_in_3d(scheme):
    mesh = build_uniform_mesh(3, 0.5, 8)
    if scheme == "cahn_hilliard_neumann":
        geometry, extra = Sphere((0.0, 0.0, 0.0), 0.25), {}
    else:
        geometry, extra = Uniform(1.0), {"w_bdry": -65.0}
    cfg = SchemeConfig(scheme, eps_inv=EPS_INV, tau=1e-5, t_end=5e-5,
                       b0=2.0, **extra)
    states = []
    result = run_simulation(cfg, mesh, isotropic(3), geometry,
                            on_step=states.append)
    assert len(states) == 6 and not result.failed
    assert result.monotonicity_violations == 0
    for state in states[1:]:
        assert state.stats.converged
        assert state.stats.residual <= cfg.tol
        assert np.abs(state.u).max() <= 1.0
    if scheme == "cahn_hilliard_neumann":
        masses = [state.report.mass for state in states]
        assert np.abs(np.diff(masses)).max() <= 1e-8
    else:
        assert states[-1].u.min() < 1.0  # the layer has started


@pytest.mark.parametrize("scheme", ["cahn_hilliard_neumann",
                                    "cahn_hilliard_dirichlet"])
def test_conserved_anisotropic_steps_in_3d(scheme):
    # the paper's conserved schemes with a crystalline density on a 3d
    # Kuhn grid, step by step: K_b takes the DST under Dirichlet data and
    # the LU under natural boundary conditions, whose 3d boundary rows are
    # not of Kronecker form.  Measured: 1-5 rounds per step, KKT residual
    # at most 2.6e-11, stability residual negative, mass drift at most
    # 2.2e-16
    mesh = build_uniform_mesh(3, 0.5, 6)
    dirichlet = scheme == "cahn_hilliard_dirichlet"
    cfg = SchemeConfig(scheme, eps_inv=4.0 * math.pi, tau=1e-4, t_end=5e-4,
                       w_bdry=-1.0 if dirichlet else None)
    ws = Workspace(mesh, make_regularized_l1(3, 0.3), cfg)
    state = initial_state(ws, initial_profile(
        mesh, cfg.eps, Sphere((0.0, 0.0, 0.0), 0.3)))
    mass = state.report.mass
    for _ in range(5):
        state = cahn_hilliard_step(state, ws)
        assert state.stats.converged and state.stats.residual <= cfg.tol
        assert state.report.stability_residual <= 10.0 * cfg.tol
        if not dirichlet:
            assert abs(state.report.mass - mass) <= 1e-14
    assert isinstance(ws.mobility_factor,
                      anisofield.obstacle.GridTransform) == dirichlet


def test_implicit_tau_bound_value():
    # 2 c_psi eps^3 theta / (alpha b0) with c_psi = pi/2
    assert implicit_tau_bound(0.1, 2.0, 4.0, 0.5) == pytest.approx(
        math.pi * 1e-3)


def test_run_simulation_stationary_uniform(mesh2d_small):
    cfg = _ac_config(tau=1e-4, t_end=1e-3)
    result = run_simulation(cfg, mesh2d_small, isotropic(2), Uniform(0.0))
    assert len(result.records) == 11
    for r in result.records:
        assert r.e_gamma_h == pytest.approx(8.0 * math.pi, rel=1e-12)
    assert all(r.mass == 0.0 for r in result.records)
    assert result.monotonicity_violations == 0
    assert not result.failed


def test_run_simulation_aborts_on_solver_failure(mesh2d_medium):
    cfg = _ac_config(tol=1e-30)
    with pytest.raises(SolverFailure):
        run_simulation(cfg, mesh2d_medium, make_regularized_l1(2, 0.01),
                       Circle((0.0, 0.0), 0.3))


@pytest.mark.parametrize("case", ["unreachable_tol", "indefinite_implicit"])
def test_run_simulation_nonstrict_truncates(mesh2d_medium, case):
    if case == "unreachable_tol":
        cfg, delta = _ac_config(tol=1e-30), 0.01
    else:
        # far beyond the implicit variant's solvability bound the step
        # matrix is indefinite: the failure must be flagged within the
        # round budgets of the active-set loop and its fallback (50 + 50)
        tau = 700.0 * implicit_tau_bound(EPS)
        cfg, delta = _ac_config(tau=tau, t_end=5.0 * tau, implicit=True), 0.3
    result = run_simulation(cfg, mesh2d_medium, make_regularized_l1(2, delta),
                            Circle((0.0, 0.0), 0.3), strict=False)
    assert result.failed
    assert result.final_state.n < int(round(cfg.t_end / cfg.tau))
    assert all(r.solver_iters <= 100 for r in result.records)


@pytest.mark.parametrize("strict", [True, False])
def test_run_simulation_writes_manifest_on_solver_failure(mesh2d_medium,
                                                          tmp_path, strict):
    cfg = _ac_config(tol=1e-30)
    args = (cfg, mesh2d_medium, make_regularized_l1(2, 0.01),
            Circle((0.0, 0.0), 0.3))
    if strict:
        with pytest.raises(SolverFailure):
            run_simulation(*args, out_dir=tmp_path, config_text="tol = 1e-30")
    else:
        assert run_simulation(*args, out_dir=tmp_path, strict=False,
                              config_text="tol = 1e-30").failed
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == ("aborted" if strict else "failed")
    assert len(manifest["step_seconds"]) == 1
    assert manifest["kkt_residual_max"] > cfg.tol


@pytest.mark.parametrize("flagged", [False, True])
def test_manifest_records_kkt_residual_and_energy_flags(mesh2d_small,
                                                        tmp_path, monkeypatch,
                                                        flagged):
    if flagged:  # every step reports an energy increase
        monkeypatch.setattr(anisofield.schemes, "stability_residual",
                            lambda *args: 1.0)
    cfg = _ac_config(t_end=5e-4)
    result = run_simulation(cfg, mesh2d_small, make_regularized_l1(2, 0.1),
                            Circle((0.0, 0.0), 0.3), out_dir=tmp_path,
                            config_text="counters")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["energy_increase_flags"] == result.monotonicity_violations
    assert result.monotonicity_violations == (5 if flagged else 0)
    residuals = [r.solver_residual for r in result.records[1:]]
    assert manifest["kkt_residual_max"] == max(residuals) <= cfg.tol
    assert manifest["cg_iterations"] == 0  # no Schur-complement solve


def test_manifest_records_the_cg_iterations(tmp_path):
    # a constant-mobility conserved run: the manifest holds the run total
    # of the per-step Schur CG iterations
    cfg = SchemeConfig("cahn_hilliard_dirichlet", eps_inv=EPS_INV, tau=1e-5,
                       t_end=5e-5, alpha=1.0, b0=2.0, w_bdry=-65.0)
    per_step = []
    run_simulation(cfg, build_uniform_mesh(2, 0.5, 16),
                   make_regularized_l1(2, 0.01), Uniform(1.0),
                   out_dir=tmp_path, config_text="schur counters",
                   on_step=lambda state: per_step.append(
                       state.stats.cg_iterations))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert per_step[0] == 0 and len(per_step) == 6
    assert manifest["cg_iterations"] == sum(per_step) > 0


@pytest.mark.parametrize("implicit", [False, True],
                         ids=["standard", "implicit"])
def test_manifest_records_the_flow_time(mesh2d_small, tmp_path, implicit):
    # the standard step at tau is the implicit step at tau/(1 + tau/eps^2)
    tau = 1e-5
    cfg = _ac_config(tau=tau, t_end=5 * tau, implicit=implicit)
    run_simulation(cfg, mesh2d_small, isotropic(2), Circle((0.0, 0.0), 0.3),
                   out_dir=tmp_path, config_text="flow clock")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    flow_tau = tau if implicit else tau / (1.0 + tau / EPS**2)
    assert manifest["flow_time"] == pytest.approx(5 * flow_tau, rel=1e-14)


def test_run_simulation_with_out_dir_needs_config_text(mesh2d_small, tmp_path):
    # the run id and the directory guard come from the config text
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="config_text"):
        run_simulation(_ac_config(), mesh2d_small, isotropic(2),
                       Circle((0.0, 0.0), 0.3), out_dir=out)
    assert not out.exists()


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig("unknown", eps_inv=1.0, tau=1e-4, t_end=1e-3)
    with pytest.raises(ValueError):
        _ac_config(w_bdry=-64.0)  # conflicting key
    with pytest.raises(ValueError):
        SchemeConfig("cahn_hilliard_dirichlet", eps_inv=1.0, tau=1e-4,
                     t_end=1e-3)  # missing w_bdry
    with pytest.raises(ValueError):
        SchemeConfig("cahn_hilliard_dirichlet", eps_inv=1.0, tau=1e-4,
                     t_end=1e-3, w_bdry=-1.0, mobility="degenerate")
    for name in ("eps_inv", "tau", "t_end", "theta", "alpha", "b0", "tol"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                _ac_config(**{name: value})
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            SchemeConfig("cahn_hilliard_dirichlet", eps_inv=1.0, tau=1e-4,
                         t_end=1e-3, w_bdry=value)
    for bad in ({"tol": -1.0}, {"tol": 0.0}, {"snapshot_every": -3},
                {"tau": 1e-300, "t_end": 1e300}):
        with pytest.raises(ValueError):
            _ac_config(**bad)
    assert _ac_config(snapshot_every=0).snapshot_every == 0
    cfg = _ac_config()
    assert cfg.c_psi == math.pi / 2
    assert cfg.eps == pytest.approx(EPS)

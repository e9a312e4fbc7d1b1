"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.  Criteria 7 and 8 compare with the sharp-interface flow on
the scheme's own clock: the explicit concave potential term makes a step
at tau the implicit-potential step at tau' = tau/(1 + tau/eps^2), so step
n approximates the flow at time n tau' (see ``allen_cahn_step`` and
DECISIONS.md).  The factor-2 Wulff-distance decay of criterion 8 is
asserted as stated and fails at the pinned parameters; DECISIONS.md
records why the bound stays.
"""

import math
import time

import numpy as np

import anisofield as af
from anisofield import (C_PSI, Circle, MultiCircle, SchemeConfig, Sphere,
                        Workspace, build_uniform_mesh, initial_profile,
                        initial_state, isotropic, make_regularized_l1,
                        rotation_2d, verify_inequalities)
from anisofield.diagnostics import wulff_shape_distance, zero_level_set
from anisofield.obstacle import solve_obstacle
from conftest import projected_gradient_box_qp, random_spd_density

EPS_INV = 16.0 * math.pi
EPS = 1.0 / EPS_INV
TWO_CIRCLES = MultiCircle((Circle((-0.215, 0.0), 0.2), Circle((0.2, 0.0), 0.15)))

def _report(number, name, ok, detail):
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")

def test_criterion_01_anisotropy_inequality_suite():
    densities = {
        "iso-2d": isotropic(2),
        "iso-3d": isotropic(3),
        "l1reg(0.01)-2d": make_regularized_l1(2, 0.01),
        "l1reg(0.01)-3d": make_regularized_l1(3, 0.01),
        "l1reg(0.3)-2d": make_regularized_l1(2, 0.3),
        "l1reg(0.01)-rot45": make_regularized_l1(2, 0.01).rotate(
            rotation_2d(math.pi / 4)),
        "random-spd-seed42": random_spd_density(seed=42),
    }
    tic = time.perf_counter()
    worst = {}
    for name, aniso in densities.items():
        for ineq, value in verify_inequalities(aniso, n_samples=100_000,
                                               seed=42).items():
            worst[f"{name}/{ineq}"] = value
    elapsed = time.perf_counter() - tic
    peak = max(worst.values())
    ok = peak <= 1e-10 and elapsed < 10.0
    _report(1, "inequality suite", ok,
            f"max scaled violation {peak:.2e}, {elapsed:.1f}s")
    assert peak <= 1e-10, f"worst violations: {worst}"
    assert elapsed < 10.0

def test_criterion_02_gradient_finite_difference_consistency():
    densities = [isotropic(2), isotropic(3), make_regularized_l1(2, 0.01),
                 make_regularized_l1(2, 0.3), random_spd_density(seed=42)]
    rng = np.random.default_rng(2)
    tic = time.perf_counter()
    worst = 0.0
    for aniso in densities:
        p = rng.standard_normal((1000, aniso.dim))
        p *= 10.0 ** rng.uniform(-1, 1, (1000, 1))
        steps = 1e-6 * np.linalg.norm(p, axis=1)
        for func, grad in ((aniso.gamma, aniso.gamma_grad(p)),
                           (aniso.a_value, aniso.a_grad(p))):
            fd = np.empty_like(p)
            for i in range(aniso.dim):
                e = np.zeros(aniso.dim)
                e[i] = 1.0
                fd[:, i] = (func(p + steps[:, None] * e)
                            - func(p - steps[:, None] * e)) / (2.0 * steps)
            rel = (np.linalg.norm(grad - fd, axis=1)
                   / np.linalg.norm(grad, axis=1))
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - tic
    ok = worst < 1e-6 and elapsed < 1.0
    _report(2, "gradient consistency", ok,
            f"max rel error {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-6
    assert elapsed < 1.0

def test_criterion_03_vi_solver_oracle_equivalence():
    import scipy.sparse as sp

    rng = np.random.default_rng(2024)
    tic = time.perf_counter()
    padded = np.tile(np.eye(8), (200, 1, 1))
    rhs_padded = np.zeros((200, 8))
    sizes = []
    solutions = []
    for i in range(200):
        n = int(rng.integers(1, 9))
        r = rng.standard_normal((n, n))
        a_mat = r.T @ r + 0.5 * np.eye(n)
        rhs = 3.0 * rng.standard_normal(n)
        padded[i, :n, :n] = a_mat
        rhs_padded[i, :n] = rhs
        sizes.append(n)
        solutions.append(solve_obstacle(sp.csr_matrix(a_mat), rhs,
                                        tol=1e-11).solution)
    oracle = projected_gradient_box_qp(padded, rhs_padded, n_iter=20_000)
    worst = max(np.abs(sol - oracle[i, :n]).max()
                for i, (sol, n) in enumerate(zip(solutions, sizes)))
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(3, "VI solver vs oracle", ok,
            f"max |diff| {worst:.2e} over 200 systems, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0

def test_criterion_04_mass_conservation():
    mesh = build_uniform_mesh(2, 0.5, 64)
    aniso = make_regularized_l1(2, 0.01)
    cfg = SchemeConfig("cahn_hilliard_neumann", eps_inv=EPS_INV, tau=1e-6,
                       t_end=5e-5, theta=EPS, alpha=2.0 / C_PSI,
                       mobility="degenerate")
    ws = Workspace(mesh, aniso, cfg)
    state = initial_state(ws, initial_profile(mesh, EPS, TWO_CIRCLES))
    mass0 = state.report.mass
    tic = time.perf_counter()
    prev_mass = mass0
    step_drift = 0.0
    for _ in range(50):
        state = af.cahn_hilliard_step(state, ws)
        assert state.stats.converged
        step_drift = max(step_drift, abs(state.report.mass - prev_mass))
        prev_mass = state.report.mass
    total_drift = abs(state.report.mass - mass0)
    elapsed = time.perf_counter() - tic
    ok = step_drift <= 1e-8 and total_drift <= 5e-7 and elapsed < 120.0
    _report(4, "mass conservation", ok,
            f"per-step {step_drift:.2e}, cumulative {total_drift:.2e}, "
            f"{elapsed:.0f}s")
    assert step_drift <= 1e-8
    assert total_drift <= 5e-7
    assert elapsed < 120.0

def test_criterion_05_unconditional_stability():
    mesh = build_uniform_mesh(2, 0.5, 64)
    aniso = make_regularized_l1(2, 0.3)
    geometry = Circle((0.0, 0.0), 0.3)
    runs = {
        "allen_cahn": dict(theta=1.0, alpha=1.0, b0=1.0),
        "cahn_hilliard_neumann": dict(theta=1.0, alpha=1.0, b0=2.0),
        "cahn_hilliard_dirichlet": dict(theta=1.0, alpha=1.0, b0=2.0,
                                        w_bdry=-1.0),
    }
    tic = time.perf_counter()
    details = []
    all_ok = True
    for scheme, params in runs.items():
        tau = 1e4 * af.implicit_tau_bound(EPS, params["theta"], params["alpha"],
                                          params["b0"])
        kwargs = dict(scheme=scheme, eps_inv=EPS_INV, tau=tau, t_end=50 * tau,
                      theta=params["theta"], alpha=params["alpha"],
                      b0=params["b0"])
        if "w_bdry" in params:
            kwargs["w_bdry"] = params["w_bdry"]
        cfg = SchemeConfig(**kwargs)
        result = af.run_simulation(cfg, mesh, aniso, geometry)
        resid = max(r.stab_residual for r in result.records[1:])
        energies = [r.f_gamma_h if r.f_gamma_h is not None else r.e_gamma_h
                    for r in result.records]
        monotone = all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))
        ok = resid <= 1e-7 and monotone and not result.failed
        all_ok &= ok
        details.append(f"{scheme}: resid {resid:.1e} monotone {monotone}")

        # negative control: implicit-potential variant, recorded only
        imp = SchemeConfig(**{**kwargs, "t_end": 5 * tau, "implicit": True})
        try:
            imp_result = af.run_simulation(imp, mesh, aniso, geometry,
                                           strict=False)
            imp_energies = [r.f_gamma_h if r.f_gamma_h is not None
                            else r.e_gamma_h for r in imp_result.records]
            imp_mono = all(b <= a + 1e-9
                           for a, b in zip(imp_energies, imp_energies[1:]))
            collapsed = bool(np.all(np.abs(imp_result.final_state.u) == 1.0))
            if imp_result.failed:
                note = f"failed after {imp_result.final_state.n} steps"
            else:
                note = f"converged, monotone={imp_mono}"
                if collapsed:
                    note += (f", energy {imp_energies[0]:.2f}->"
                             f"{imp_energies[-1]:.2f} (uniqueness lost: "
                             "instant collapse to a pure phase)")
        except ValueError as exc:
            note = f"rejected ({exc})"
        print(f"    negative control [{scheme} implicit, tau={tau:.3g}]: {note}")
    elapsed = time.perf_counter() - tic
    all_ok &= elapsed < 300.0
    _report(5, "unconditional stability", all_ok,
            "; ".join(details) + f", {elapsed:.0f}s")
    assert all_ok

def test_criterion_06_boundary_layer_threshold():
    mesh = build_uniform_mesh(2, 0.5, 128)
    iso = isotropic(2)
    tic = time.perf_counter()

    cfg = SchemeConfig("cahn_hilliard_dirichlet", eps_inv=EPS_INV, tau=1e-5,
                       t_end=1e-4, alpha=1.0, b0=2.0, w_bdry=-64.0)
    ws = Workspace(mesh, iso, cfg)
    state = initial_state(ws, np.ones(mesh.n_vertices))
    for _ in range(10):
        state = af.cahn_hilliard_step(state, ws)
    u_err = float(np.abs(state.u - 1.0).max())
    w_err = float(np.abs(state.w + 64.0).max())

    cfg_low = SchemeConfig("cahn_hilliard_dirichlet", eps_inv=EPS_INV, tau=1e-5,
                           t_end=1e-4, alpha=1.0, b0=2.0, w_bdry=-65.0)
    ws = Workspace(mesh, iso, cfg_low)
    state = initial_state(ws, np.ones(mesh.n_vertices))
    min_u = 1.0
    for _ in range(10):
        state = af.cahn_hilliard_step(state, ws)
        min_u = min(min_u, float(state.u.min()))
    elapsed = time.perf_counter() - tic
    ok = u_err <= 1e-7 and w_err <= 1e-6 and min_u < 0.9 and elapsed < 300.0
    _report(6, "boundary-layer threshold", ok,
            f"steady: |U-1| {u_err:.1e}, |W+64| {w_err:.1e}; "
            f"layer: min U {min_u:.3f}, {elapsed:.0f}s")
    assert u_err <= 1e-7
    assert w_err <= 1e-6
    assert min_u < 0.9
    assert elapsed < 300.0

def test_criterion_07_isotropic_circle_shrinkage():
    mesh = build_uniform_mesh(2, 0.5, 128)
    iso = isotropic(2)
    cfg = SchemeConfig("allen_cahn", eps_inv=EPS_INV, tau=1e-4, t_end=0.03)
    # step n approximates the flow at n tau', not n tau (DECISIONS.md)
    flow_tau = cfg.tau / (1.0 + cfg.tau / EPS**2)
    samples = {int(round(t / flow_tau)): t for t in (0.01, 0.02, 0.03)}
    ws = Workspace(mesh, iso, cfg)
    state = initial_state(ws, initial_profile(mesh, EPS,
                                              Circle((0.0, 0.0), 0.3)))
    tic = time.perf_counter()
    errors = {}
    for _ in range(max(samples)):
        state = af.allen_cahn_step(state, ws)
        assert state.stats.converged
        if state.n in samples:
            contour = zero_level_set(mesh, state.u)
            radius = float(contour.distances((0.0, 0.0)).mean())
            errors[samples[state.n]] = abs(
                radius - math.sqrt(0.09 - 2.0 * state.n * flow_tau))
    elapsed = time.perf_counter() - tic
    tol = max(2.0 * mesh.mesh_size, EPS)
    ok = all(e <= tol for e in errors.values()) and elapsed < 600.0
    detail = ", ".join(f"t={t:g}: err {e:.4f}" for t, e in errors.items())
    _report(7, "circle shrinkage vs sharp-interface law", ok,
            f"{detail} (tol {tol:.4f}), {elapsed:.0f}s")
    assert elapsed < 600.0
    for t, err in errors.items():
        assert err <= tol, (
            f"radius error {err:.4f} > {tol:.4f} at flow time t={t}, "
            f"sampled at step {round(t / flow_tau)} = t/tau' with "
            f"tau' = tau/(1 + tau/eps^2) = {flow_tau:.4g}. "
            "See DECISIONS.md.")

def test_criterion_08_wulff_faceting_and_extinction():
    mesh = build_uniform_mesh(2, 0.5, 128)
    aniso = make_regularized_l1(2, 0.01)
    cfg = SchemeConfig("allen_cahn", eps_inv=EPS_INV, tau=1e-4, t_end=0.05)
    # step n approximates the flow at n tau', not n tau (DECISIONS.md)
    flow_tau = cfg.tau / (1.0 + cfg.tau / EPS**2)
    n_mid = int(round(5e-3 / flow_tau))
    center = (0.0, 0.0)
    u0 = initial_profile(mesh, EPS, Circle(center, 0.3))
    d0 = wulff_shape_distance(zero_level_set(mesh, u0).points, aniso, center)
    ws = Workspace(mesh, aniso, cfg)
    state = initial_state(ws, u0)
    tic = time.perf_counter()
    d_mid = None
    extinction_t = None
    for _ in range(int(round(0.05 / flow_tau))):
        state = af.allen_cahn_step(state, ws)
        if state.n == n_mid:
            d_mid = wulff_shape_distance(
                zero_level_set(mesh, state.u).points, aniso, center)
        if state.report.e_gamma_h == 0.0:
            extinction_t = state.n * flow_tau
            break
    elapsed = time.perf_counter() - tic
    halved = d_mid is not None and d_mid <= 0.5 * d0
    extinct = extinction_t is not None and extinction_t < 0.05
    ok = halved and extinct and elapsed < 600.0
    extinction = "none" if extinction_t is None else f"{extinction_t:.4g}"
    _report(8, "Wulff faceting and extinction", ok,
            f"d0 {d0:.4f} -> d(5e-3) {d_mid:.4f} (ratio {d0 / d_mid:.2f}, "
            f"step {n_mid}), extinction at flow time t={extinction}, "
            f"{elapsed:.0f}s")
    assert extinct, "energy did not reach 0 before flow time t=0.05"
    assert elapsed < 600.0
    assert halved, (
        f"Hausdorff ratio d0/d = {d0 / d_mid:.2f} < 2 at flow time t=5e-3 "
        f"(step {n_mid}, tau' = tau/(1 + tau/eps^2) = {flow_tau:.4g}); "
        "the factor-2 rate is stated in neither PAPER.md nor the README. "
        "See DECISIONS.md.")

def test_criterion_09_mullins_sekerka_coarsening():
    mesh = build_uniform_mesh(2, 0.5, 64)
    aniso = make_regularized_l1(2, 0.01)  # documented substitute for the
    # unavailable hexagonal density of the source experiment
    cfg = SchemeConfig("cahn_hilliard_neumann", eps_inv=EPS_INV, tau=1e-5,
                       t_end=5e-3, theta=1.0, alpha=1.0, b0=2.0)
    ws = Workspace(mesh, aniso, cfg)
    state = initial_state(ws, initial_profile(mesh, EPS, TWO_CIRCLES))
    tic = time.perf_counter()
    energies = [state.report.e_gamma_h]
    comps = {}
    for _ in range(500):
        state = af.cahn_hilliard_step(state, ws)
        assert state.stats.converged
        energies.append(state.report.e_gamma_h)
        if state.n in (10, 500):
            comps[state.n] = zero_level_set(mesh, state.u).n_components
    elapsed = time.perf_counter() - tic
    monotone = all(b <= a + 1e-8 for a, b in zip(energies, energies[1:]))
    ok = (comps.get(10) == 2 and comps.get(500) == 1 and monotone
          and elapsed < 600.0)
    _report(9, "coarsening of the smaller region", ok,
            f"components t=1e-4: {comps.get(10)}, t=5e-3: {comps.get(500)}, "
            f"E monotone {monotone}, {elapsed:.0f}s")
    assert comps.get(10) == 2
    assert comps.get(500) == 1
    assert monotone
    assert elapsed < 600.0

def test_criterion_10_three_dimensional_smoke():
    mesh = build_uniform_mesh(3, 0.5, 24)
    iso = isotropic(3)
    cfg = SchemeConfig("allen_cahn", eps_inv=EPS_INV, tau=1e-4, t_end=2e-3)
    ws = Workspace(mesh, iso, cfg)
    state = initial_state(ws, initial_profile(mesh, EPS,
                                              Sphere((0.0, 0.0, 0.0), 0.3)))
    tic = time.perf_counter()
    energies = [state.report.e_gamma_h]
    for _ in range(20):
        state = af.allen_cahn_step(state, ws)
        assert state.stats.converged
        assert np.abs(state.u).max() <= 1.0
        assert np.isfinite(state.report.mass)
        energies.append(state.report.e_gamma_h)
    elapsed = time.perf_counter() - tic
    monotone = all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))
    ok = monotone and elapsed < 300.0
    _report(10, "3d smoke test", ok,
            f"E {energies[0]:.3f} -> {energies[-1]:.3f}, monotone {monotone}, "
            f"{elapsed:.0f}s")
    assert monotone
    assert elapsed < 300.0

"""Numbers behind the Schur-complement subsolve of the conserved step.

With constant mobility ``solve_coupled_ch`` eliminates W and solves the
inactive-set Schur complement by preconditioned CG, with one solver of
K_b per run (a fast transform on a Kuhn grid where it is exact, else a
banded Cholesky); with degenerate mobility it factors the saddle system
of every active-set round, with W on the mobility's support only.  Each
subcommand prints the numbers that DECISIONS.md records or an open
ROADMAP item needs:

    PYTHONPATH=src python scripts/coupled_schur.py rounds --steps 20
    PYTHONPATH=src python scripts/coupled_schur.py neumann --steps 30
    PYTHONPATH=src python scripts/coupled_schur.py support --steps 100
    PYTHONPATH=src python scripts/coupled_schur.py ordering --count 8
    PYTHONPATH=src python scripts/coupled_schur.py transform --n2 128 --n3 24

``rounds`` runs the Schur path of configs/fig4.cfg (Dirichlet, N = 128),
splits each step's active-set rounds into loose and exact ones and
counts its CG iterations, K_b solves and preconditioner factors;
``neumann`` compares the Schur path with the saddle path on the setting
of acceptance criterion 9 (natural boundary conditions, constant
mobility, N = 64); ``support`` compares the degenerate saddle of
configs/surface_diffusion.cfg on the mobility's support with the saddle
of the whole domain, and counts the W-extension factors and the steps
that reuse the one kept across steps; ``ordering`` compares SuperLU
with the banded LU on the saddles captured from that run; ``transform``
compares SuperLU's factor of b0 K (b0 = 2; bordered by the mass under
natural boundary conditions) with the banded Cholesky of
``factor_mobility`` and with the transform solve, on 2d and 3d Kuhn
grids under both boundary conditions and on a 2d grid whose vertex
order the transform refuses.  SuperLU, which the package
no longer uses, comes from ``_superlu`` here.  BLAS runs on one thread,
as in the benchmark.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import math
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import anisofield.obstacle as obstacle
from anisofield import (Circle, MultiCircle, SchemeConfig, SimplicialMesh,
                        Workspace,
                        assemble_anisotropic_stiffness, build_uniform_mesh,
                        cahn_hilliard_step, initial_profile, initial_state,
                        isotropic_stiffness, lumped_mass, make_regularized_l1,
                        parse_config)
from anisofield.schemes import floored_mobility

ROOT = Path(__file__).resolve().parents[1]
EPS_INV = 16.0 * math.pi


def _superlu(mat):
    """SuperLU factor of ``mat`` with a symmetric minimum-degree ordering
    that prefers diagonal pivots, its explicit zeros dropped."""
    mat = mat.tocsc(copy=True)
    mat.eliminate_zeros()
    return spla.splu(mat, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                     options={"SymmetricMode": True})


def _fill(factor):
    """Entries a factor stores: L and U of a SuperLU factor, the band of a
    banded one."""
    if hasattr(factor, "L"):
        return factor.L.nnz + factor.U.nnz
    return factor.band.size


class PcgCounter:
    """Counts the CG iterations of every Schur solve, and its failures,
    and records its tolerance."""

    def __init__(self):
        self.iterations, self.tols, self.failures = [], [], 0

    def __enter__(self):
        original = self.original = obstacle._projected_cg

        def counted(apply, r, x, v, precond, tol, max_iter=500):
            calls = [0]

            def counting_apply(d):
                calls[0] += 1
                return apply(d)

            self.tols.append(tol)
            try:
                out = original(counting_apply, r, x, v, precond, tol,
                               max_iter)
            except RuntimeError:
                # a failed solve returns no count; it applied S once per
                # iteration it ran
                self.failures += 1
                self.iterations.append(calls[0])
                raise
            self.iterations.append(out[2])
            return out

        obstacle._projected_cg = counted
        return self

    def __exit__(self, *exc):
        obstacle._projected_cg = self.original


def _march(case, steps, schur, counter=None):
    """Per-step (U, W, rounds, residual, seconds, report) on one path."""
    mesh, aniso, cfg, u0 = case
    ws = Workspace(mesh, aniso, cfg)
    if not schur:
        ws.mobility_factor = None
    state = initial_state(ws, u0)
    out = []
    with counter or PcgCounter():
        for _ in range(steps):
            tic = time.perf_counter()
            state = cahn_hilliard_step(state, ws)
            out.append((state.u, state.w, state.stats.iterations,
                        state.stats.residual, time.perf_counter() - tic,
                        state.report))
    return out


def _fig4_case():
    setup = parse_config((ROOT / "configs" / "fig4.cfg").read_text())
    mesh = setup.build_mesh()
    u0 = initial_profile(mesh, setup.scheme.eps, setup.geometry)
    return mesh, setup.anisotropy, setup.scheme, u0


def _neumann_case():
    mesh = build_uniform_mesh(2, 0.5, 64)
    cfg = SchemeConfig("cahn_hilliard_neumann", eps_inv=EPS_INV, tau=1e-5,
                       t_end=5e-3, theta=1.0, alpha=1.0, b0=2.0)
    geometry = MultiCircle((Circle((-0.215, 0.0), 0.2),
                            Circle((0.2, 0.0), 0.15)))
    u0 = initial_profile(mesh, cfg.eps, geometry)
    return mesh, make_regularized_l1(2, 0.01), cfg, u0


def _compare(case, steps):
    saddle = _march(case, steps, schur=False)
    counter = PcgCounter()
    schur = _march(case, steps, schur=True, counter=counter)
    print("step  rounds (saddle, schur)  seconds (saddle, schur)  "
          "KKT residual (saddle, schur)")
    for k, (a, b) in enumerate(zip(saddle, schur), start=1):
        print(f"{k:4d}  {a[2]:3d} {b[2]:3d}  {a[4]:8.3f} {b[4]:8.3f}  "
              f"{a[3]:.1e} {b[3]:.1e}")
    t_saddle = np.median([a[4] for a in saddle])
    t_schur = np.median([b[4] for b in schur])
    rounds = sum(b[2] for b in schur)
    print(f"median step: saddle {t_saddle:.3f} s, schur {t_schur:.3f} s "
          f"({t_saddle / t_schur:.1f}x)")
    print(f"same rounds on every step: "
          f"{[a[2] for a in saddle] == [b[2] for b in schur]}; "
          f"{rounds} rounds, {len(counter.iterations)} CG solves, "
          f"{np.mean(counter.iterations):.1f} CG iterations per solve "
          f"(max {max(counter.iterations)}), {counter.failures} failed")
    print(f"KKT residual: saddle {min(a[3] for a in saddle):.1e} to "
          f"{max(a[3] for a in saddle):.1e}, schur "
          f"{min(b[3] for b in schur):.1e} to {max(b[3] for b in schur):.1e}")
    du = max(np.abs(a[0] - b[0]).max() for a, b in zip(saddle, schur))
    dw = max(np.abs(a[1] - b[1]).max() for a, b in zip(saddle, schur))
    e_a, e_b = saddle[-1][5].e_gamma_h, schur[-1][5].e_gamma_h
    print(f"max |dU| {du:.1e}, max |dW| {dw:.1e}, final E_gamma_h "
          f"{e_a!r} vs {e_b!r} ({abs(e_a - e_b) / abs(e_a):.1e} relative)")
    return saddle, schur


def _describe(solver):
    """The K_b solver in use: the transform, or the banded Cholesky."""
    if isinstance(solver, obstacle.GridTransform):
        return repr(solver)
    return "banded Cholesky (factor_mobility)"


def cmd_neumann(args):
    _, schur = _compare(_neumann_case(), args.steps)
    masses = [b[5].mass for b in schur]
    print(f"schur mass drift: max per step "
          f"{np.abs(np.diff(masses)).max():.1e}, total "
          f"{abs(masses[-1] - masses[0]):.1e}")


def _degenerate_case():
    setup = parse_config(
        (ROOT / "configs" / "surface_diffusion.cfg").read_text())
    mesh, aniso, cfg = setup.build_mesh(), setup.anisotropy, setup.scheme
    ws = Workspace(mesh, aniso, cfg)
    return ws, initial_state(
        ws, initial_profile(mesh, cfg.eps, setup.geometry))


@contextlib.contextmanager
def _wrapped(name, wrapper):
    """Replace ``obstacle.<name>`` by ``wrapper(original)`` for a while."""
    original = getattr(obstacle, name)
    setattr(obstacle, name, wrapper(original))
    try:
        yield
    finally:
        setattr(obstacle, name, original)


def _preconditioners_to(sink):
    """Hand every Schur preconditioner that ``obstacle._factor_spd``
    factors to ``sink``."""
    def capture(original):
        def factor(mat):
            sink(mat)
            return original(mat)
        return factor
    return _wrapped("_factor_spd", capture)


class SolveCounter:
    """A solver ``f -> W`` that counts its solves."""

    def __init__(self, solve):
        self.solve, self.calls = solve, 0

    def __call__(self, f):
        self.calls += 1
        return self.solve(f)


def cmd_rounds(args):
    """Loose and exact active-set rounds of the Schur path, step by step,
    with the CG iterations and the K_b solves of each step."""
    mesh, aniso, cfg, u0 = _fig4_case()
    ws = Workspace(mesh, aniso, cfg)
    print(f"K_b solver: {_describe(ws.mobility_factor)}")
    solves = ws.mobility_factor = SolveCounter(ws.mobility_factor)
    state = initial_state(ws, u0)
    factored = []
    print("step  rounds (loose, exact)  CG iterations  K_b solves  factors  "
          "KKT residual")
    totals = np.zeros(6, dtype=int)
    with _preconditioners_to(factored.append):
        for _ in range(args.steps):
            factored.clear()
            solves.calls = 0
            with PcgCounter() as counter:
                state = cahn_hilliard_step(state, ws)
            # a loose round runs its CG above tol/20; the rest are exact
            loose = sum(t > cfg.tol / 20.0 for t in counter.tols)
            row = (state.stats.iterations, loose,
                   state.stats.iterations - loose, state.stats.cg_iterations,
                   solves.calls, len(factored))
            totals += row
            print(f"{state.n:4d}  {row[0]:3d} ({row[1]:2d}, {row[2]:2d})  "
                  f"{row[3]:13d}  {row[4]:10d}  {row[5]:7d}  "
                  f"{state.stats.residual:.1e}"
                  f"{'' if state.stats.converged else '  not converged'}")
    print(f"total {totals[0]} rounds ({totals[1]} loose, {totals[2]} exact), "
          f"{totals[3]} CG iterations, {totals[4]} K_b solves, "
          f"{totals[5]} preconditioner factors")
    print(f"final E_gamma_h {state.report.e_gamma_h!r}, mass "
          f"{state.report.mass!r}")


def _rcm_bandwidth(mat):
    """Lower bandwidth of the zero-free ``mat`` after reverse Cuthill-McKee,
    in the ordering the band factors use."""
    _, rows, cols, _ = obstacle._rcm_entries(mat)
    return int(np.abs(rows - cols).max())


def cmd_ordering(args):
    """SuperLU with a symmetric ordering against the banded LU after a
    reverse Cuthill-McKee ordering on captured degenerate saddles."""
    ws, state = _degenerate_case()
    saddles = []

    def capture(original):
        def factor(mat):
            if len(saddles) < args.count:
                saddles.append(mat)
            return original(mat)
        return factor

    with _wrapped("_factor_band_lu", capture):
        for _ in range(args.steps):
            if len(saddles) >= args.count:
                break
            state = cahn_hilliard_step(state, ws)
    if not saddles:
        raise SystemExit(f"no saddle factored in {args.steps} step(s)")
    rng = np.random.default_rng(0)
    factors = {"SuperLU (MMD_AT_PLUS_A)": _superlu,
               "RCM + banded LU": obstacle._factor_band_lu}
    rows = {label: [] for label in factors}
    for mat in saddles:
        b = rng.standard_normal(mat.shape[0])
        for label, factor in factors.items():
            t_factor = _median_seconds(lambda: factor(mat), args.repeats)
            lu = factor(mat)
            x = lu.solve(b)
            rows[label].append((t_factor, _fill(lu), np.linalg.norm(
                mat @ x - b) / np.linalg.norm(b)))
    dims = [m.shape[0] for m in saddles]
    widths = [_rcm_bandwidth(m) for m in saddles]
    print(f"{len(saddles)} saddles: dim {min(dims)}-{max(dims)}, RCM "
          f"half-bandwidth median {np.median(widths):.0f} / max "
          f"{max(widths)}; median of {args.repeats} factorizations each")
    for label, timings in rows.items():
        t = np.array(timings)
        print(f"{label:26s}: factor median {1e3 * np.median(t[:, 0]):.2f} ms "
              f"(total {t[:, 0].sum():.3f} s), stored entries median "
              f"{np.median(t[:, 1]) / 1e3:.1f}k, worst relative residual "
              f"{t[:, 2].max():.1e}")


def cmd_support(args):
    """The degenerate saddle on the mobility's support against the saddle
    of the whole domain (``frozen`` not given), on the same inputs, step by
    step from the states of the support path, with the entries of each
    saddle's banded LU and its time.  The support side keeps the
    W-extension factor in the workspace's slot, as ``cahn_hilliard_step``
    does, so a step whose O is that of the step before factors nothing."""
    ws, state = _degenerate_case()
    mesh, cfg = ws.mesh, ws.config
    kwargs = dict(theta=cfg.theta, tau=cfg.tau, eps=cfg.eps, alpha=cfg.alpha,
                  tol=cfg.tol)
    factors, binding, requests, reused = [], [], [], []
    frozen = None

    class CountingSlot(obstacle.FactorSlot):
        def get(self, key, make):
            requests.append(key.size)
            return super().get(key, make)

    ws.extension = CountingSlot()

    def timed(original):
        def factor(mat, **kwargs):
            tic = time.perf_counter()
            out = original(mat, **kwargs)
            factors.append((original.__name__, mat.shape[0],
                            time.perf_counter() - tic, _fill(out)))
            return out
        return factor

    def counted(original):
        # frozen nodes on a bound whose VI multiplier has the wrong sign,
        # so that the round releases them: rows off the support that bind
        def loop(x, subsolve, kkt, *rest, **kw):
            def recording_kkt(x_clip, w):
                r, res = kkt(x_clip, w)
                mult = np.where(x_clip >= 1.0, -r,
                                np.where(x_clip <= -1.0, r, np.inf))
                binding.append(np.count_nonzero(frozen & (mult < 0.0)))
                return r, res
            return original(x, subsolve, recording_kkt, *rest, **kw)
        return loop

    print("step  support  frozen  saddle dim (full, S)  band (full, S)  "
          "LU ms (full, S)  extension ms  rounds (full, S)  max |dU|  "
          "max |dW|  binding rows")
    rows = []
    with contextlib.ExitStack() as stack:
        for name, wrapper in (("_factor_band_lu", timed),
                              ("_factor_spd", timed),
                              ("_active_set", counted)):
            stack.enter_context(_wrapped(name, wrapper))
        for _ in range(args.steps):
            k_b, frozen = floored_mobility(mesh, state.u, ws.iso_block)
            k_aniso = assemble_anisotropic_stiffness(
                mesh, ws.aniso, state.u, ws.aniso_blocks, ws.far_field,
                state.band)
            sides = []
            for mask in (None, frozen):
                factors.clear()
                binding.clear()
                requests.clear()
                u, w, stats = obstacle.solve_coupled_ch(
                    ws.mass, k_b, k_aniso, state.u, frozen=mask,
                    extension=ws.extension, **kwargs)
                lus = [f for f in factors if f[0] == "_factor_band_lu"]
                ext = [f[2] for f in factors if f[0] == "_factor_spd"]
                sides.append((u, w, stats, lus, ext, sum(binding)))
            if requests and not ext:
                reused.append(state.n + 1)
            (u0, w0, s0, lu0, _, _), (u1, w1, s1, lu1, ext, bound) = sides
            row = (np.count_nonzero(~frozen), np.count_nonzero(frozen),
                   np.median([f[1] for f in lu0]),
                   np.median([f[1] for f in lu1]),
                   np.median([f[3] for f in lu0]),
                   np.median([f[3] for f in lu1]),
                   1e3 * np.median([f[2] for f in lu0]),
                   1e3 * np.median([f[2] for f in lu1]),
                   1e3 * np.median(ext) if ext else np.nan, len(ext),
                   s0.iterations, s1.iterations, np.abs(u1 - u0).max(),
                   np.abs(w1 - w0).max(), bound, s1.residual, s0.converged,
                   s1.converged)
            rows.append(row)
            state = cahn_hilliard_step(state, ws)
            print(f"{state.n:4d}  {row[0]:7d}  {row[1]:6d}  {row[2]:6.0f} "
                  f"{row[3]:6.0f}  {row[4]:7.0f} {row[5]:6.0f}  "
                  f"{row[6]:6.2f} {row[7]:6.2f}  {row[8]:6.2f} ({row[9]})  "
                  f"{row[10]:3d} {row[11]:3d}  {row[12]:.1e}  {row[13]:.1e}  "
                  f"{row[14]}")
    t = np.array(rows, dtype=float)
    med = np.median(t, axis=0)
    print(f"medians: support {med[0]:.0f}, frozen {med[1]:.0f}; saddle dim "
          f"{med[2]:.0f} -> {med[3]:.0f}, band {med[4]:.0f} -> {med[5]:.0f}, "
          f"LU {med[6]:.2f} -> {med[7]:.2f} ms; extension factor "
          f"{np.nanmedian(t[:, 8]):.2f} ms")
    print(f"rounds {t[:, 10].sum():.0f} (full) and {t[:, 11].sum():.0f} "
          f"(support), the same on every step: "
          f"{bool(np.all(t[:, 10] == t[:, 11]))}; "
          f"{t[:, 9].sum():.0f} extension factors in {len(rows)} steps, "
          f"{len(reused)} steps reused the kept one; all converged: "
          f"{bool(t[:, 16:].all())}, KKT residual of the support path at "
          f"most {t[:, 15].max():.1e}")
    print(f"max |dU| {t[:, 12].max():.1e}, max |dW| {t[:, 13].max():.1e} "
          f"(|W| up to {np.abs(state.w).max():.1f} at the last step); "
          f"binding rows off the support, over all rounds: "
          f"{t[:, 14].sum():.0f}")
    print(f"steps that reused the kept extension factor: {reused}")


def _median_seconds(func, repeats):
    times = []
    for _ in range(repeats):
        tic = time.perf_counter()
        func()
        times.append(time.perf_counter() - tic)
    return float(np.median(times))


def _superlu_mobility(k_b, mass, mask):
    """SuperLU's solver ``f -> W`` with the contract of
    ``factor_mobility``: the LU of K_b,II, or under natural boundary
    conditions that of [[K_b, m], [m^T, 0]], whose multiplier is dropped.
    Returns the factor and the solver."""
    if mask is not None:
        wdofs = np.flatnonzero(~mask)
        lu = _superlu(k_b[wdofs][:, wdofs])
        return lu, lu.solve
    lu = _superlu(sp.bmat([[k_b, mass[:, None]], [mass[None, :], None]]))
    return lu, lambda f: lu.solve(np.append(f, 0.0))[:-1]


def _pair_swapped(mesh):
    """The mesh with vertices 2k and 2k + 1 swapped: not lexicographic, so
    the transform is refused, and, unlike a random order, with few vertex
    offsets, so its slot map stays small (``mesh._build_slot_map``)."""
    perm = np.minimum(np.arange(mesh.n_vertices) ^ 1, mesh.n_vertices - 1)
    return SimplicialMesh(mesh.dim, mesh.half_width, mesh.subdivisions,
                          mesh.vertices[perm], perm[mesh.elements],
                          mesh.boundary_mask[perm], mesh.element_class)


def cmd_transform(args):
    """SuperLU's factor of K_b against the banded Cholesky of
    ``factor_mobility`` and the transform solve, one right side per case:
    set-up and median solve times, the entries each factor stores (SuperLU's
    fill, the band's size) and the largest gap to SuperLU's W."""
    print("case | K_b solver | factor SuperLU, band | solve SuperLU, band, "
          "transform | stored SuperLU, band | max rel. diff band, transform")
    cases = [(dim, n, dirichlet, False) for dim, n in ((2, args.n2),
                                                       (3, args.n3))
             for dirichlet in (True, False)]
    for dim, n, dirichlet, swap in cases + [(2, args.n2, False, True)]:
        mesh = build_uniform_mesh(dim, 0.5, n)
        if swap:
            mesh = _pair_swapped(mesh)
        k_b = (2.0 * isotropic_stiffness(mesh)).tocsr()
        mass = lumped_mass(mesh)
        mask = mesh.boundary_mask if dirichlet else None
        tic = time.perf_counter()
        lu, lu_solve = _superlu_mobility(k_b, mass, mask)
        t_lu = time.perf_counter() - tic
        factors = []

        def collected(original):
            def factor(mat, **kwargs):
                factors.append(original(mat, **kwargs))
                return factors[-1]
            return factor

        with _wrapped("_factor_spd", collected):
            tic = time.perf_counter()
            band_solve = obstacle.factor_mobility(k_b, mass, mask)
            t_band = time.perf_counter() - tic
        f = np.random.default_rng(0).standard_normal(
            mesh.n_vertices if mask is None else np.count_nonzero(~mask))
        ref = lu_solve(f)
        scale = np.abs(ref).max()
        s_lu = _median_seconds(lambda: lu_solve(f), args.repeats)
        s_band = _median_seconds(lambda: band_solve(f), args.repeats)
        d_band = np.abs(band_solve(f) - ref).max() / scale
        solver = obstacle.mobility_solver(k_b, mass, dim, mask)
        s_tr = d_tr = "-"
        if isinstance(solver, obstacle.GridTransform):
            t_tr = _median_seconds(lambda: solver(f), args.repeats)
            s_tr = f"{1e3 * t_tr:.2f} ms"
            d_tr = f"{np.abs(solver(f) - ref).max() / scale:.1e}"
        case = (f"{dim}d N={n} {'Dirichlet' if dirichlet else 'natural'}"
                f"{', pairs of vertices swapped' if swap else ''}")
        print(f"{case} | {_describe(solver)} | {t_lu:.3f} s, {t_band:.3f} s | "
              f"{1e3 * s_lu:.2f} ms, {1e3 * s_band:.2f} ms, {s_tr} | "
              f"{_fill(lu) / 1e6:.2f}M, {_fill(factors[0]) / 1e6:.2f}M | "
              f"{d_band:.1e}, {d_tr}")
    print(f"median of {args.repeats} solves; one factorization each")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, steps in (("rounds", cmd_rounds, 20),
                              ("neumann", cmd_neumann, 30),
                              ("support", cmd_support, 100)):
        p = sub.add_parser(name)
        p.add_argument("--steps", type=int, default=steps)
        p.set_defaults(func=func)
    p = sub.add_parser("ordering")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--repeats", type=int, default=5)
    p.set_defaults(func=cmd_ordering)
    p = sub.add_parser("transform")
    p.add_argument("--n2", type=int, default=128)
    p.add_argument("--n3", type=int, default=24)
    p.add_argument("--repeats", type=int, default=20)
    p.set_defaults(func=cmd_transform)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()

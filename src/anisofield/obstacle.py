"""Solvers for the box-constrained problems arising in every time step.

Both solvers run one primal active-set loop (:func:`_active_set`) and
differ only in the subsolve of each round:

* :func:`solve_obstacle` handles the symmetric obstacle problem
  (A x - b) . (chi - x) >= 0 for all chi in [-1, 1]^n with A SPD.  The
  loop starts from the bound pattern of the warm start and solves the
  inactive equations by a sparse LU each round, which drives the KKT
  residual to solver precision regardless of the conditioning of A.  If
  it stops short (it can cycle), Bertsekas' projected Newton method,
  which decreases the energy every round, finishes from its best iterate.

* :func:`solve_coupled_ch` handles the coupled saddle-point step of the
  conserved schemes: a lumped mass equation for (U, W) together with the
  box-constrained variational inequality for U.  Each round solves the
  saddle system on the inactive set by a sparse LU.

Both are deterministic: fixed inputs give bit-identical results.
Convergence is measured by the componentwise KKT violation
(stationarity at inactive nodes, multiplier sign at active nodes).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "ViSolution",
    "SolverStats",
    "kkt_violation",
    "pattern_coloring",
    "solve_obstacle",
    "solve_coupled_ch",
]


@dataclass
class ViSolution:
    """Result of a box-constrained solve.

    ``solution`` lies in [-1, 1]^n by construction, ``multiplier`` holds
    the complementarity witness (nonnegative at correctly active nodes),
    ``residual`` is the maximum KKT violation and ``iterations`` counts
    the active-set rounds plus any fallback projected-Newton rounds.
    """

    solution: np.ndarray
    multiplier: np.ndarray
    iterations: int
    residual: float
    converged: bool


@dataclass
class SolverStats:
    """Statistics of one step's constrained solve; ``mobility_regularized``
    is set by a degenerate-mobility step that floored the mobility."""

    iterations: int
    residual: float
    converged: bool
    mobility_regularized: bool = False


def kkt_violation(residual, x):
    """Componentwise KKT violation of the box VI at a feasible point.

    At interior nodes the stationarity residual must vanish; at x_j = +1
    the residual must be <= 0 (multiplier -r_j >= 0), at x_j = -1 it must
    be >= 0.
    """
    viol = np.abs(residual)
    upper = x >= 1.0
    lower = x <= -1.0
    viol[upper] = np.maximum(residual[upper], 0.0)
    viol[lower] = np.maximum(-residual[lower], 0.0)
    return viol


def _bound_pattern(x):
    """+1 / -1 at nodes on the upper / lower bound, 0 elsewhere (int8)."""
    return (x >= 1.0).view(np.int8) - (x <= -1.0).view(np.int8)


def pattern_coloring(matrix):
    """Greedy coloring of the sparsity pattern; groups are mutually
    non-adjacent index sets, so a Gauss-Seidel sweep can update each group
    with one vectorized operation while keeping the sequential semantics."""
    mat = matrix.tocsr()
    n = mat.shape[0]
    indptr, indices = mat.indptr, mat.indices
    colors = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        neighbor_colors = colors[indices[indptr[i]:indptr[i + 1]]]
        used = set(neighbor_colors[neighbor_colors >= 0].tolist())
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    return [np.flatnonzero(colors == c) for c in range(colors.max() + 1)]


def _active_set(x, subsolve, kkt, tol, max_rounds):
    """Primal active-set loop shared by both constrained solvers.

    Starts from the bound pattern of ``x``.  Each round,
    ``subsolve(act, inactive)`` returns the iterate with the nodes pinned
    at ``act`` (+1, -1, or 0 for free) and any extra unknowns, and
    ``kkt(x_clip, extra)`` the VI residual vector and the KKT residual of
    the clipped iterate.  Free nodes leaving the box are pinned; pinned
    nodes stay pinned while their multiplier is positive.  The loop stops
    on a revisited active set, a singular subproblem or after
    ``max_rounds``, with its lowest-residual iterate (``x`` and None if
    no round finished).  Returns ``(x, extra, residual, rounds, converged)``.
    """
    act = _bound_pattern(x)
    seen = set()
    best_x, best_extra, best_res = x, None, np.inf
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        key = act.tobytes()
        if key in seen:
            break
        seen.add(key)
        try:
            x_new, extra = subsolve(act, np.flatnonzero(act == 0))
        except (RuntimeError, np.linalg.LinAlgError):
            break
        x_clip = np.clip(x_new, -1.0, 1.0)
        r, res = kkt(x_clip, extra)
        if res < best_res:
            best_x, best_extra, best_res = x_clip, extra, res
        if res <= tol:
            return x_clip, extra, res, rounds, True
        new_act = np.zeros(x.size, dtype=np.int8)
        new_act[(act == 0) & (x_new > 1.0)] = 1
        new_act[(act == 0) & (x_new < -1.0)] = -1
        new_act[(act == 1) & (-r > 0.0)] = 1
        new_act[(act == -1) & (r > 0.0)] = -1
        act = new_act
    return best_x, best_extra, best_res, rounds, False


def _active_set_polish(a_mat, rhs, x, tol, max_rounds=50):
    """Active-set obstacle solve from the bound pattern of ``x``, one LU
    of the inactive block per round: ``(x, residual, rounds, converged)``."""
    def subsolve(act, inactive):
        x_new = act.astype(float)
        if inactive.size:
            pinned = a_mat @ x_new
            sub = a_mat[inactive][:, inactive].tocsc()
            x_new[inactive] = spla.splu(sub).solve(
                rhs[inactive] - pinned[inactive])
        return x_new, None

    def kkt(x_clip, _):
        r = a_mat @ x_clip - rhs
        return r, float(kkt_violation(r, x_clip).max())

    x, _, residual, rounds, ok = _active_set(x, subsolve, kkt, tol,
                                             max_rounds)
    return x, residual, rounds, ok


def _projected_newton(a_mat, rhs, x, tol, max_rounds=50):
    """Bertsekas' projected Newton method from the feasible ``x``.

    Each round takes the Newton step of the nodes not held on a bound by
    an outward gradient (one LU of their block) and halves it until the
    projected point passes the Armijo test.  A singular block, an ascent
    direction (indefinite A) or a failed search ends it unconverged.
    Returns ``(x, residual, rounds, converged)``.
    """
    g = a_mat @ x - rhs
    residual = float(kkt_violation(g, x).max())
    for rounds in range(1, max_rounds + 1):
        free = np.flatnonzero(~(((x >= 1.0) & (g < 0.0))
                                | ((x <= -1.0) & (g > 0.0))))
        d = np.zeros_like(x)
        try:
            d[free] = -spla.splu(a_mat[free][:, free].tocsc()).solve(g[free])
        except RuntimeError:
            break
        slope = float(g[free] @ d[free])
        if not slope < 0.0:
            break
        for alpha in 0.5 ** np.arange(40):
            s = np.clip(x + alpha * d, -1.0, 1.0) - x
            if g @ s + 0.5 * (s @ (a_mat @ s)) <= 1e-4 * alpha * slope:
                break
        else:
            break
        x = x + s
        g = a_mat @ x - rhs
        residual = float(kkt_violation(g, x).max())
        if residual <= tol:
            return x, residual, rounds, True
    return x, residual, rounds, False


def solve_obstacle(a_mat, rhs, x0=None, tol=1e-9):
    """Solve the obstacle problem (A x - rhs) . (chi - x) >= 0 on [-1, 1]^n.

    Parameters
    ----------
    a_mat : sparse matrix
        Symmetric positive definite system matrix.  Any nonpositive
        diagonal entry is rejected.
    rhs : array
    x0 : array, optional
        Warm start, projected onto the box.
    tol : float
        Absolute bound on the maximum KKT violation.

    The active-set loop runs first, from the bound pattern of ``x0``.
    Only if it stops short does projected Newton continue from its best
    iterate.  Returns a :class:`ViSolution`; non-convergence of both is
    flagged on the result, with the last iterate returned.
    """
    a_mat = a_mat.tocsr()
    n = a_mat.shape[0]
    rhs = np.asarray(rhs, dtype=float)
    if np.any(a_mat.diagonal() <= 0.0):
        raise ValueError("system matrix has a nonpositive diagonal entry")
    x = np.zeros(n) if x0 is None else np.clip(np.asarray(x0, dtype=float), -1.0, 1.0)
    x, residual, iterations, ok = _active_set_polish(a_mat, rhs, x, tol)
    if not ok:
        x, residual, rounds, ok = _projected_newton(a_mat, rhs, x, tol)
        iterations += rounds
    r = a_mat @ x - rhs
    mult = np.where(x >= 1.0, -r, np.where(x <= -1.0, r, 0.0))
    return ViSolution(x, mult, iterations, residual, ok)


def _coupling_block(mass, rows, cols, n):
    """Sparse |rows| x |cols| block of diag(mass) restricted to index sets."""
    col_pos = np.full(n, -1, dtype=np.int64)
    col_pos[cols] = np.arange(cols.size)
    hit = col_pos[rows] >= 0
    return sp.coo_matrix(
        (mass[rows[hit]], (np.flatnonzero(hit), col_pos[rows[hit]])),
        shape=(rows.size, cols.size)).tocsr()


def solve_coupled_ch(mass, k_b, k_aniso, u_old, *, theta, tau, eps, alpha,
                     c_psi=np.pi / 2, w_bdry=None, boundary_mask=None,
                     tol=1e-9, max_iter=100, implicit=False):
    """Solve one coupled conserved step for (U, W) by a primal active-set loop.

    The discrete system is the lumped mass equation
    theta M (U - u_old)/tau + K_b W = 0, tested at every node (natural
    boundary conditions) or at interior nodes with W pinned to ``w_bdry``
    on the boundary, together with the variational inequality

        eps (K_aniso U) . (chi - U) >= sum_j M_j (c W_j + u_old_j / eps)(chi_j - U_j)

    for all chi in [-1, 1]^n, where c = c_psi / (2 alpha).  For each
    active-set guess the reduced equations form a symmetric saddle system
    solved by a sparse LU factorization; the sets are then updated by the
    rule of :func:`_active_set` until the KKT residual (VI violation and
    mass-equation defect) drops below ``tol``.  A solve that stops short
    returns its lowest-residual iterate.

    With natural boundary conditions the nodal mass of U is conserved by
    construction and the solvability condition |(u_old, 1)^h| < |Omega| is
    required.  ``implicit`` switches the potential term to the current
    iterate (a diagnostic variant whose subproblems may be indefinite; its
    failures are reported through the returned stats, not raised).

    Returns ``(U, W, stats)`` with U in [-1, 1]^n and a
    :class:`SolverStats`.
    """
    n = mass.size
    u_old = np.asarray(u_old, dtype=float)
    c = 0.5 * c_psi / alpha
    dirichlet = w_bdry is not None
    if dirichlet:
        if boundary_mask is None:
            raise ValueError("dirichlet data requires a boundary mask")
        wdofs = np.flatnonzero(~boundary_mask)
        w_fixed = np.where(boundary_mask, float(w_bdry), 0.0)
    else:
        total = mass.sum()
        if abs(mass @ u_old) >= total:
            raise ValueError(
                "conserved step unsolvable: nodal mass of u_old fills the domain")
        wdofs = np.arange(n)
        w_fixed = np.zeros(n)

    k_b = k_b.tocsr()
    k_aniso = k_aniso.tocsr()
    scale = c * tau / theta
    kb_ww = -scale * k_b[wdofs][:, wdofs]
    rhs_mass = -c * mass[wdofs] * u_old[wdofs]
    if dirichlet:
        rhs_mass += scale * (k_b[wdofs] @ w_fixed)

    def subsolve(act, inactive):
        u_pin = act.astype(float)
        if inactive.size == 0:
            return u_pin, _solve_w_only(
                kb_ww, rhs_mass + c * mass[wdofs] * u_pin[wdofs], mass,
                wdofs, w_fixed, scale, dirichlet)
        s11 = eps * k_aniso[inactive][:, inactive]
        if implicit:
            s11 = s11 - sp.diags(mass[inactive] / eps)
        s12 = -c * _coupling_block(mass, inactive, wdofs, n)
        saddle = sp.bmat([[s11, s12], [s12.T, kb_ww]], format="csc")
        rhs1 = mass[inactive] * ((0.0 if implicit else u_old[inactive] / eps)
                                 + c * w_fixed[inactive])
        rhs1 -= eps * (k_aniso[inactive] @ u_pin)
        rhs2 = rhs_mass + c * mass[wdofs] * u_pin[wdofs]
        z = spla.splu(saddle).solve(np.concatenate([rhs1, rhs2]))
        u_pin[inactive] = z[:inactive.size]
        w = w_fixed.copy()
        w[wdofs] = z[inactive.size:]
        return u_pin, w

    def kkt(u_clip, w):
        pot = u_clip if implicit else u_old
        r = eps * (k_aniso @ u_clip) - mass * (c * w + pot / eps)
        mass_defect = (theta / tau) * mass * (u_clip - u_old) + k_b @ w
        return r, float(max(kkt_violation(r, u_clip).max(),
                            np.abs(mass_defect[wdofs]).max()))

    u, w, residual, rounds, converged = _active_set(
        u_old.copy(), subsolve, kkt, tol, max_iter)
    if w is None:
        w = w_fixed
    return u, w, SolverStats(rounds, residual, converged)


def _solve_w_only(kb_ww, rhs, mass, wdofs, w_fixed, scale, dirichlet):
    """W from the mass equations when every U node is pinned.

    With natural boundary conditions the mobility stiffness has the
    constants in its kernel, so the mean of W is pinned by a Lagrange
    multiplier; the additive constant is irrelevant here because the
    active-set loop continues until the VI fixes it.
    """
    w = w_fixed.copy()
    if dirichlet:
        w[wdofs] = spla.splu(kb_ww.tocsc()).solve(rhs)
        return w
    weights = -scale * mass[wdofs]
    aug = sp.bmat([[kb_ww, weights[:, None]], [weights[None, :], None]],
                  format="csc")
    sol = spla.splu(aug).solve(np.concatenate([rhs, [0.0]]))
    w[wdofs] = sol[:-1]
    return w

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
  box-constrained variational inequality for U.  With constant mobility
  each round eliminates W and solves the SPD Schur complement on the
  inactive set by preconditioned CG, with one solver ``f -> W`` of the
  mobility stiffness per run (:func:`mobility_solver`: fast sine or cosine
  transforms on a lexicographic Kuhn grid, else the LU of
  :func:`factor_mobility`).  Only the step's last round must be exact, so
  the CG of an earlier round may stop at a tolerance scaled to the KKT
  residual so far (an inexact Newton method); the step always ends on a
  round solved to ``tol``/20.  With degenerate mobility it solves the
  saddle system on the inactive set by a sparse LU.

Both are deterministic: fixed inputs give bit-identical results.
Convergence is measured by the componentwise KKT violation
(stationarity at inactive nodes, multiplier sign at active nodes).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "ViSolution",
    "SolverStats",
    "GridTransform",
    "factor_mobility",
    "kkt_violation",
    "mobility_solver",
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
    is set by a degenerate-mobility step that floored the mobility, and
    ``cg_iterations`` counts the CG iterations of the Schur-complement
    rounds (0 off that path)."""

    iterations: int
    residual: float
    converged: bool
    mobility_regularized: bool = False
    cg_iterations: int = 0


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


def _zero_free_csc(mat):
    """A CSC copy of ``mat`` without its explicit zeros (the Kuhn pattern
    holds the isotropic entries across cell diagonals), which would
    otherwise enter an LU's ordering and fill."""
    mat = mat.tocsc(copy=True)
    mat.eliminate_zeros()
    return mat


def _splu_symmetric(mat):
    """Sparse LU of the zero-free pattern with a symmetric fill-reducing
    ordering that prefers diagonal pivots; every LU of both solvers goes
    through it, as all their systems are symmetric."""
    return spla.splu(_zero_free_csc(mat), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.1, options={"SymmetricMode": True})


# An inexact round's subsolve tolerance, relative to the lowest KKT
# residual so far: the forcing term of Eisenstat & Walker, SIAM J. Sci.
# Comput. 17 (1996), on the active-set loop read as a semismooth Newton
# method (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13, 2003).
_FORCING = 1e-2


def _active_set(x, subsolve, kkt, tol, max_rounds, exact_tol=None):
    """Primal active-set loop shared by both constrained solvers.

    Starts from the bound pattern of ``x``.  Each round,
    ``subsolve(act, inactive, sub_tol, x)`` returns the iterate with the
    nodes pinned at ``act`` (+1, -1, or 0 for free) and any extra
    unknowns, given the last clipped iterate ``x`` (the start in the first
    round), and ``kkt(x_clip, extra)`` the VI residual vector and the KKT
    residual of the clipped iterate.  Free nodes leaving the box are
    pinned; pinned nodes stay pinned while their multiplier is positive.

    Without ``exact_tol`` every round is exact and ``sub_tol`` is None.
    With it (an iterative subsolve) a round is loose, to ``sub_tol`` =
    max(``exact_tol``, _FORCING times the lowest residual so far), except
    the first round, a round after a residual rise and a set already
    solved loosely, which get ``exact_tol``.  A loose round never ends
    the loop: if it meets ``tol`` or leads back to a set solved exactly,
    its own set is solved once more, exactly.

    The loop stops on a set solved exactly before, a singular subproblem
    or after ``max_rounds``, with its lowest-residual iterate (``x`` and
    None if no round finished).  Returns
    ``(x, extra, residual, rounds, converged)``.
    """
    act = _bound_pattern(x)
    solved = {}  # active set -> whether it was solved exactly
    best_x, best_extra, best_res = x, None, np.inf
    rose = True  # the first round has no residual to scale by
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        key = act.tobytes()
        if solved.get(key):
            break
        sub_tol = exact_tol
        if not (exact_tol is None or rose or key in solved):
            sub_tol = max(exact_tol, _FORCING * best_res)
        exact = solved[key] = sub_tol == exact_tol
        try:
            x_new, extra = subsolve(act, np.flatnonzero(act == 0), sub_tol, x)
        except (RuntimeError, np.linalg.LinAlgError):
            break
        x = np.clip(x_new, -1.0, 1.0)
        r, res = kkt(x, extra)
        rose = not res < best_res
        if not rose:
            best_x, best_extra, best_res = x, extra, res
        if res <= tol and exact:
            return x, extra, res, rounds, True
        new_act = np.zeros(x.size, dtype=np.int8)
        new_act[(act == 0) & (x_new > 1.0)] = 1
        new_act[(act == 0) & (x_new < -1.0)] = -1
        new_act[(act == 1) & (-r > 0.0)] = 1
        new_act[(act == -1) & (r > 0.0)] = -1
        if exact or (res > tol and not solved.get(new_act.tobytes())):
            act = new_act
    return best_x, best_extra, best_res, rounds, False


def _active_set_polish(a_mat, rhs, x, tol, max_rounds=50):
    """Active-set obstacle solve from the bound pattern of ``x``, one LU
    of the inactive block per round: ``(x, residual, rounds, converged)``."""
    def subsolve(act, inactive, *_):  # exact: the tolerance is ignored
        x_new = act.astype(float)
        if inactive.size:
            pinned = a_mat @ x_new
            x_new[inactive] = _splu_symmetric(
                a_mat[inactive][:, inactive]).solve(
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
    direction (indefinite A), a predicted decrease -g_F . d_F of at most
    the rounding level eps |g| |x| (a tolerance below rounding) or a
    failed search ends it unconverged.
    Returns ``(x, residual, rounds, converged)``.
    """
    g = a_mat @ x - rhs
    residual = float(kkt_violation(g, x).max())
    for rounds in range(1, max_rounds + 1):
        free = np.flatnonzero(~(((x >= 1.0) & (g < 0.0))
                                | ((x <= -1.0) & (g > 0.0))))
        d = np.zeros_like(x)
        try:
            d[free] = -_splu_symmetric(a_mat[free][:, free]).solve(g[free])
        except RuntimeError:
            break
        slope = float(g[free] @ d[free])
        # an ascent direction, or a predicted decrease below the rounding
        # of the energy, ends the search
        rounding = np.finfo(float).eps * np.linalg.norm(g) * np.linalg.norm(x)
        if not slope < -rounding:
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


def factor_mobility(k_b, mass, boundary_mask=None):
    """Sparse-LU solver ``f -> W`` of a mobility stiffness.

    With W prescribed on the boundary W = K_b,II^-1 f on the interior
    nodes.  With natural boundary conditions the constants span the
    kernel of K_b: W solves K_b W = f - (sum f / sum m) m with m . W = 0,
    m the lumped ``mass``, by the LU of the bordered matrix
    [[K_b, m], [m^T, 0]].  A constant mobility stiffness takes this LU
    only where :func:`mobility_solver` finds no exact transform.
    """
    k_b = k_b.tocsr()
    if boundary_mask is not None:
        wdofs = np.flatnonzero(~boundary_mask)
        return _splu_symmetric(k_b[wdofs][:, wdofs]).solve
    lu = _splu_symmetric(sp.bmat([[k_b, mass[:, None]],
                                  [mass[None, :], None]]))
    # the border row asks m . W = 0; its multiplier, sum f / sum m, is dropped
    return lambda f: lu.solve(np.append(f, 0.0))[:-1]


class GridTransform:
    """Exact solver ``f -> W`` (the contract of :func:`factor_mobility`)
    of a Kronecker sum of 1d second differences by fast transforms.

    Without ``mass`` the matrix is scale (T + ... + T) on the grid
    ``shape``, T = tridiag(-1, 2, -1) along each axis: the interior block
    of the P1 stiffness of a lexicographic Kuhn grid with N cells per axis
    (scale 1 in 2d, h in 3d).  The orthonormal DST-I diagonalizes it, with
    eigenvalues scale sum_axes (2 - 2 cos(k pi / N)), k = 1, ..., N-1
    (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970).

    With ``mass`` the matrix is scale sum_axes D x ... x T_N x ... x D,
    T_N the second difference with corner entries 1 and
    D = diag(1/2, 1, ..., 1, 1/2): the natural-boundary P1 stiffness of a
    2d Kuhn grid.  The DCT-I solves T_N v = mu D v, k = 0, ..., N
    (Strang, SIAM Review 41, 1999), so the symmetric scaling by D^(-1/2)
    makes it diagonal.  With the real lumped ``mass``, f becomes
    f - (sum f / sum mass) mass, the constant mode (the kernel) is dropped
    and W's constant set so that mass . W = 0.
    """

    def __init__(self, shape, scale, mass=None):
        self.shape = shape
        self.mass = mass
        cells = shape[0] + 1 if mass is None else shape[0] - 1
        k = np.arange(1, cells) if mass is None else np.arange(cells + 1)
        mu = 2.0 - 2.0 * np.cos(k * np.pi / cells)
        eig = scale * sum(mu.reshape((-1,) + (1,) * axis)
                          for axis in range(len(shape)))
        if mass is not None:
            eig.flat[0] = np.inf  # the constants, W's kernel: mode dropped
        self._inv_eig = 1.0 / eig
        if mass is not None:
            d_inv_sqrt = np.ones(shape[0])
            d_inv_sqrt[[0, -1]] = math.sqrt(2.0)
            self._weight = math.prod(d_inv_sqrt.reshape((-1,) + (1,) * axis)
                                     for axis in range(len(shape)))
            self._total = mass.sum()

    def __repr__(self):
        kind = "DST-I" if self.mass is None else "DCT-I"
        return f"GridTransform({kind}, grid {'x'.join(map(str, self.shape))})"

    def __call__(self, f):
        if self.mass is None:
            y = scipy.fft.dstn(f.reshape(self.shape), type=1, norm="ortho")
            y *= self._inv_eig
            return scipy.fft.dstn(y, type=1, norm="ortho").ravel()
        lam = f.sum() / self._total
        y = scipy.fft.dctn((f - lam * self.mass).reshape(self.shape)
                           * self._weight, type=1, norm="ortho")
        y *= self._inv_eig
        w = (scipy.fft.dctn(y, type=1, norm="ortho") * self._weight).ravel()
        return w - (self.mass @ w) / self._total


def mobility_solver(k_b, mass, dim, boundary_mask=None):
    """The run's solver ``f -> W`` of a constant mobility stiffness, with
    the contract of :func:`factor_mobility`.

    A :class:`GridTransform` on the grid that the size of ``k_b`` implies,
    with the scale read off its largest diagonal entry (2 dim scale), is
    accepted only if it reproduces ``k_b``: on a fixed-seed probe x (of
    zero mass-weighted mean under natural boundary conditions), solving
    with K_b x must return x to 1e-10 relative.  That holds on a
    lexicographic Kuhn grid with W prescribed on the boundary (2d and 3d)
    or with natural boundary conditions in 2d.  Elsewhere (3d natural
    boundary conditions, whose boundary rows are not of Kronecker form,
    or any other vertex order) this is :func:`factor_mobility`.
    """
    k_b = k_b.tocsr()
    nodes = round(k_b.shape[0] ** (1.0 / dim))
    if boundary_mask is None:
        k, shape, border = k_b, (nodes,) * dim, mass
    else:
        wdofs = np.flatnonzero(~boundary_mask)
        k, shape, border = k_b[wdofs][:, wdofs], (nodes - 2,) * dim, None
    # the scale is read at an interior node, so the grid needs one
    if nodes >= 3 and math.prod(shape) == k.shape[0]:
        solver = GridTransform(shape, k.diagonal().max() / (2 * dim), border)
        probe = np.random.default_rng(0).standard_normal(k.shape[0])
        if border is not None:
            probe -= (border @ probe) / border.sum()
        error = np.abs(solver(k @ probe) - probe).max()
        if error <= 1e-10 * np.abs(probe).max():
            return solver
    return factor_mobility(k_b, mass, boundary_mask)


def _projected_cg(apply, b, x, precond, tol, max_iter=500):
    """Preconditioned CG for ``apply(x) = b`` from ``x``.

    ``precond(r)`` returns the preconditioned residual and the residual
    to carry on.  For a constrained problem it solves the bordered
    preconditioner, whose solution satisfies the constraint, and carries
    on the residual minus the constraint normal times the multiplier
    (Gould, Hribar & Nocedal, SIAM J. Sci. Comput. 23, 2001); the iterates
    then stay on the constraint of ``x``.  Stops when the max-norm of the
    residual is at most ``tol`` and returns the solution and the number of
    iterations; raises ``RuntimeError`` on a nonpositive curvature or
    after ``max_iter`` iterations.
    """
    r = b - apply(x)
    z, r = precond(r)
    d = z
    rz = r @ z
    for iterations in range(max_iter):
        if np.abs(r).max() <= tol:
            return x, iterations
        sd = apply(d)
        curvature = d @ sd
        if not curvature > 0.0:
            raise RuntimeError("Schur complement is not positive definite")
        step = rz / curvature
        x = x + step * d
        z, r = precond(r - step * sd)
        rz, rz_old = r @ z, rz
        d = z + (rz / rz_old) * d
    raise RuntimeError(f"PCG did not converge in {max_iter} iterations")


def solve_coupled_ch(mass, k_b, k_aniso, u_old, *, theta, tau, eps, alpha,
                     c_psi=np.pi / 2, w_bdry=None, boundary_mask=None,
                     tol=1e-9, max_iter=100, implicit=False, kb_factor=None):
    """Solve one coupled conserved step for (U, W) by a primal active-set loop.

    The discrete system is the lumped mass equation
    theta M (U - u_old)/tau + K_b W = 0, tested at every node (natural
    boundary conditions) or at interior nodes with W pinned to ``w_bdry``
    on the boundary, together with the variational inequality

        eps (K_aniso U) . (chi - U) >= sum_j M_j (c W_j + u_old_j / eps)(chi_j - U_j)

    for all chi in [-1, 1]^n, where c = c_psi / (2 alpha).  Each round of
    the active-set loop (:func:`_active_set`) solves the equations of one
    active-set guess; the sets are then updated until the KKT residual (VI
    violation and mass-equation defect) drops below ``tol``.  A solve that
    stops short returns its lowest-residual iterate.

    Each round's equations are solved one of two ways:

    * ``kb_factor`` given (constant mobility; :func:`mobility_solver` of
      ``k_b``, or any solver ``f -> W`` with the contract of
      :func:`factor_mobility`): W is eliminated, and U on the
      inactive set I solves the SPD Schur complement
      eps K_aniso,II + (c^2 tau/theta) M_I [K_b^-1]_II M_I by
      preconditioned CG, one solve with ``kb_factor`` per iteration.  The
      CG runs to a max-norm residual of max(``tol``/20, 1e-2 times the
      lowest KKT residual so far); the first round, a round after a
      residual rise and the round that ends the step run to ``tol``/20
      (see :func:`_active_set`).  It starts from the last round's clipped
      U on I (``u_old`` in the first round), under natural boundary
      conditions projected onto the mass constraint, which the CG then
      keeps.  A round on the inactive set
      of the round before reuses its preconditioner LU; at most one is
      kept.  W is then recovered from the mass equation with
      ``kb_factor``, its constant (natural boundary conditions) from the
      inactive rows.
    * otherwise (degenerate mobility, where a floored K_b is too ill
      conditioned for CG): one sparse LU of the symmetric saddle system in
      (U_I, W).

    With natural boundary conditions the nodal mass of U is conserved by
    construction and the solvability condition |(u_old, 1)^h| < |Omega| is
    required.  ``implicit`` switches the potential term to the current
    iterate (a diagnostic variant whose subproblems may be indefinite, so
    it takes the saddle path; its failures are reported through the
    returned stats, not raised).

    Returns ``(U, W, stats)`` with U in [-1, 1]^n and a
    :class:`SolverStats`, whose ``cg_iterations`` totals the CG
    iterations of the step.
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
    if implicit and kb_factor is not None:
        raise ValueError("the Schur-complement path needs the explicit potential")

    k_b = k_b.tocsr()
    k_aniso = k_aniso.tocsr()
    scale = c * tau / theta
    rhs_mass = -c * mass[wdofs] * u_old[wdofs]
    if dirichlet:
        rhs_mass += scale * (k_b[wdofs] @ w_fixed)
    kb_ww = -scale * k_b[wdofs][:, wdofs] if kb_factor is None else None

    def mass_solve(solve, f):
        """W on the W dofs, zero elsewhere, with -scale K_b W = f by
        ``solve`` (see :func:`factor_mobility`); under natural boundary
        conditions of zero mass-weighted mean, sum(f) projected out."""
        w = np.zeros(n)
        w[wdofs] = solve(-f / scale)
        return w

    # Each round solver fills U at the inactive nodes of ``u`` (pinned
    # elsewhere) and returns W.
    def saddle_round(u, inactive, s11, rhs1, rhs2):
        s12 = -c * sp.diags(mass, format="csr")[inactive][:, wdofs]
        saddle = sp.bmat([[s11, s12], [s12.T, kb_ww]])
        z = _splu_symmetric(saddle).solve(np.concatenate([rhs1, rhs2]))
        u[inactive] = z[:inactive.size]
        w = w_fixed.copy()
        w[wdofs] = z[inactive.size:]
        return w

    cg_iterations = 0
    factor = None  # the last preconditioner: (its inactive set, its LU)

    def schur_round(u, inactive, s11, rhs1, rhs2, sub_tol, x0):
        nonlocal cg_iterations, factor
        m_i = mass[inactive]
        coupled = np.zeros(n)

        def apply(x):
            coupled[inactive] = x
            return s11 @ x - c * m_i * mass_solve(
                kb_factor, c * mass[wdofs] * coupled[wdofs])[inactive]

        b = rhs1 + c * m_i * mass_solve(kb_factor, rhs2)[inactive]
        if factor is None or not np.array_equal(factor[0], inactive):
            factor = None  # released before the next LU is factored
            if dirichlet:
                # s11 plus a lower bound for the diagonal of the coupling
                # term, nonsingular even when every node is inactive
                interior = ~boundary_mask[inactive]
                shift = np.zeros(inactive.size)
                shift[interior] = ((c * c / scale) * m_i[interior] ** 2
                                   / k_b.diagonal()[inactive[interior]])
                precond_mat = s11 + sp.diags(shift)
            else:
                precond_mat = sp.bmat([[s11, m_i[:, None]],
                                       [m_i[None, :], None]])
            factor = inactive, _splu_symmetric(precond_mat)
        lu = factor[1]
        if dirichlet:
            x, iterations = _projected_cg(apply, b, x0,
                                          lambda r: (lu.solve(r), r), sub_tol)
        else:
            def precond(r):
                sol = lu.solve(np.append(r, 0.0))
                return sol[:-1], r - m_i * sol[-1]

            # the nodal mass of U is conserved: M_I . U_I = M . (u_old - u)
            x0 = x0 + m_i * ((mass @ (u_old - u) - m_i @ x0) / (m_i @ m_i))
            x, iterations = _projected_cg(apply, b, x0, precond, sub_tol)
        cg_iterations += iterations
        u[inactive] = x
        w = w_fixed + mass_solve(kb_factor,
                                 rhs_mass + c * mass[wdofs] * u[wdofs])
        if not dirichlet:
            # W's constant: the least-squares fit to the inactive VI rows
            r = s11 @ x - rhs1 - c * m_i * w[inactive]
            w += (m_i @ r) / (c * (m_i @ m_i))
        return w

    def subsolve(act, inactive, sub_tol, x):
        u_pin = act.astype(float)
        rhs2 = rhs_mass + c * mass[wdofs] * u_pin[wdofs]
        if inactive.size == 0:
            solve = kb_factor or factor_mobility(k_b, mass, boundary_mask)
            return u_pin, w_fixed + mass_solve(solve, rhs2)
        s11 = eps * k_aniso[inactive][:, inactive]
        if implicit:
            s11 = s11 - sp.diags(mass[inactive] / eps)
        rhs1 = mass[inactive] * ((0.0 if implicit else u_old[inactive] / eps)
                                 + c * w_fixed[inactive])
        rhs1 -= eps * (k_aniso[inactive] @ u_pin)
        if kb_factor is None:
            return u_pin, saddle_round(u_pin, inactive, s11, rhs1, rhs2)
        return u_pin, schur_round(u_pin, inactive, s11, rhs1, rhs2, sub_tol,
                                  x[inactive])

    def kkt(u_clip, w):
        pot = u_clip if implicit else u_old
        r = eps * (k_aniso @ u_clip) - mass * (c * w + pot / eps)
        mass_defect = (theta / tau) * mass * (u_clip - u_old) + k_b @ w
        return r, float(max(kkt_violation(r, u_clip).max(),
                            np.abs(mass_defect[wdofs]).max()))

    # the Schur rounds may be loose; the saddle LU is always exact
    u, w, residual, rounds, converged = _active_set(
        u_old.copy(), subsolve, kkt, tol, max_iter,
        exact_tol=None if kb_factor is None else tol / 20.0)
    if w is None:
        w = w_fixed
    return u, w, SolverStats(rounds, residual, converged,
                             cg_iterations=cg_iterations)


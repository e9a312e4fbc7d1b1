"""Solvers for the box-constrained problems arising in every time step.

Both solvers run one primal active-set loop (:func:`_active_set`) and
differ only in the subsolve of each round:

* :func:`solve_obstacle` handles the symmetric obstacle problem
  (A x - b) . (chi - x) >= 0 for all chi in [-1, 1]^n with A SPD.  The
  loop starts from the bound pattern of the warm start and solves the
  inactive equations by a banded Cholesky each round, which drives the
  KKT residual to solver precision regardless of the conditioning of A.
  A caller whose A never changes keeps the last factor in a
  :class:`FactorSlot` across calls.
  If it stops short (it can cycle), Bertsekas' projected Newton method,
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
  round solved to ``tol``/20.  A round on the set of the round before
  reuses its preconditioner, a banded Cholesky factor under either
  boundary condition.  With degenerate mobility it solves the saddle
  system in (U on the inactive set, W) by a banded LU of a principal
  block sliced out of one CSR saddle matrix per step, with W only on the
  mobility's support and the inactive set; off them W is the discrete
  harmonic extension, one banded Cholesky solve, whose factor a caller's
  :class:`FactorSlot` keeps across steps while that node set is fixed.

Both are deterministic: fixed inputs give bit-identical results.
Convergence is measured by the componentwise KKT violation
(stationarity at inactive nodes, multiplier sign at active nodes).
"""

import math
import mmap
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

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


def _saddle_matrix(s11, coupling, kb):
    """CSR of the symmetric 2n x 2n saddle [[s11, D], [D, kb]] with
    D = diag(``coupling``), built from the CSR arrays of its blocks."""
    a, k = s11.tocsr(), kb.tocsr()
    n = coupling.size
    nodes = np.arange(n)
    # D's entries close row j and open row n + j
    diagonal = np.concatenate([a.indptr[1:] + nodes,
                               a.nnz + n + k.indptr[:-1] + nodes])
    blocks = np.ones(a.nnz + k.nnz + 2 * n, dtype=bool)
    blocks[diagonal] = False
    indices = np.empty(blocks.size, dtype=np.intp)
    indices[diagonal] = np.concatenate([nodes + n, nodes])
    indices[blocks] = np.concatenate([a.indices, k.indices + n])
    data = np.empty(blocks.size)
    data[diagonal] = np.concatenate([coupling, coupling])
    data[blocks] = np.concatenate([a.data, k.data])
    indptr = np.concatenate([a.indptr[:-1] + nodes,
                             a.nnz + n + k.indptr + np.arange(n + 1)])
    return sp.csr_matrix((data, indices, indptr), shape=(2 * n, 2 * n))


def _splu_symmetric(mat):
    """Sparse LU with a symmetric fill-reducing ordering that prefers
    diagonal pivots: the LU of :func:`factor_mobility`.  The obstacle
    solver's blocks, the Schur preconditioners and the W extension take
    :func:`_factor_spd`, every saddle :func:`_factor_band_lu`.  The Kuhn
    pattern's explicit zeros (isotropic entries across cell diagonals)
    would enter the ordering and fill, so they are dropped; a CSC ``mat``
    loses them in place."""
    mat = mat.tocsc()
    mat.eliminate_zeros()
    return spla.splu(mat, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                     options={"SymmetricMode": True})


class _BandFactor:
    """A factor, held in LAPACK's ``band`` storage, of a symmetrically
    permuted matrix: ``solve(b)`` permutes ``b``, solves with the band and
    permutes back."""

    def __init__(self, perm, band, solve):
        self.perm, self.band, self._solve = perm, band, solve

    def solve(self, b):
        x = np.empty(b.size)
        x[self.perm] = self._solve(b[self.perm])
        return x


def _rcm_entries(mat):
    """The entries of the symmetric ``mat`` renumbered by a reverse
    Cuthill-McKee ordering of its zero-free pattern (Cuthill & McKee,
    1969; George & Liu, 1981): ``(perm, rows, cols, data)``, read straight
    from the CSR arrays through the ordering's inverse.

    The inactive sets of the active-set loop are thin rings around the
    interface, so the ordered bandwidth b is small and a band factor
    costs O(n b^2).
    """
    mat = mat.tocsr(copy=True)
    # sorted, summed and zero-free: the ordering, and so the rounding,
    # depends on the matrix alone, not on how it is stored
    mat.sum_duplicates()
    mat.eliminate_zeros()
    n = mat.shape[0]
    perm = reverse_cuthill_mckee(mat, symmetric_mode=True)
    where = np.empty(n, dtype=np.intp)  # the position of each node in perm
    where[perm] = np.arange(n)
    rows = where[np.repeat(np.arange(n), np.diff(mat.indptr))]
    return perm, rows, where[mat.indices], mat.data


def _factor_spd(mat, kept=False):
    """Banded Cholesky of the symmetric positive definite ``mat`` in the
    ordering of :func:`_rcm_entries`: a :class:`_BandFactor`.

    The lower band is allocated Fortran-ordered and factored in place by
    LAPACK's ``dpbtrf``, so LAPACK makes no copy of it.  A matrix that is
    not positive definite raises ``np.linalg.LinAlgError``, which ends the
    active-set loop, and its projected-Newton fallback, like a singular
    subproblem.

    A factor ``kept`` across steps gets an anonymous mapping of its own
    for its band.  In the heap, where glibc's dynamic mmap threshold puts
    a band of about a MiB, a long-lived one keeps the heap from shrinking
    under it: it raised the peak resident memory of a 100-step N=64
    degenerate-mobility run by 5 MiB.
    """
    perm, rows, cols, data = _rcm_entries(mat)
    lower = rows >= cols
    rows, cols = rows[lower], cols[lower]
    n = perm.size
    shape = (int((rows - cols).max(initial=0)) + 1, n)
    if kept:  # zero-filled, like np.zeros
        band = np.ndarray(shape, order="F",
                          buffer=mmap.mmap(-1, 8 * shape[0] * n))
    else:
        band = np.zeros(shape, order="F")
    band[rows - cols, cols] = data[lower]
    band, info = dpbtrf(band, lower=1, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"banded Cholesky failed (LAPACK info {info})")
    return _BandFactor(perm, band, lambda b: dpbtrs(band, b, lower=1,
                                                    overwrite_b=1)[0])


def _factor_band_lu(mat):
    """Banded LU with partial pivoting of the symmetric ``mat`` in the
    ordering of :func:`_rcm_entries`: a :class:`_BandFactor`.

    Every saddle of the coupled step's saddle path goes through it.  With
    the explicit potential the saddle is symmetric quasi-definite (Vanderbei,
    SIAM J. Optim. 5, 1995), and row interchanges keep the factor stable
    for the indefinite blocks of the ``implicit`` variant too.  LAPACK's
    ``dgbtrf`` factors the band in place; its top b rows hold the fill of
    the interchanges.  An exactly singular factor raises
    ``np.linalg.LinAlgError``, which ends the active-set loop like a
    singular subproblem.
    """
    perm, rows, cols, data = _rcm_entries(mat)
    width = int(np.abs(rows - cols).max(initial=0))
    band = np.zeros((3 * width + 1, perm.size), order="F")
    band[2 * width + rows - cols, cols] = data
    band, pivots, info = dgbtrf(band, width, width, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"banded LU failed (LAPACK info {info})")
    return _BandFactor(perm, band, lambda b: dgbtrs(
        band, width, width, b, pivots, overwrite_b=1)[0])


class FactorSlot:
    """At most one factor, kept with the index set it was made for."""

    def __init__(self):
        self.key = self.factor = None

    def get(self, key, make):
        """The kept factor if it was made for the set ``key``; else the
        kept one is released and ``make()`` made and kept for ``key``."""
        if self.key is None or not np.array_equal(self.key, key):
            self.key = self.factor = None
            self.factor, self.key = make(), key
        return self.factor


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
    ``(x, extra, residual, rounds, converged, r)``, with ``r`` the VI
    residual vector ``kkt`` gave for that iterate (None if no round
    finished).
    """
    act = _bound_pattern(x)
    solved = {}  # active set -> whether it was solved exactly
    best_x, best_extra, best_res, best_r = x, None, np.inf, None
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
            best_x, best_extra, best_res, best_r = x, extra, res, r
        if res <= tol and exact:
            return x, extra, res, rounds, True, r
        new_act = np.zeros(x.size, dtype=np.int8)
        new_act[(act == 0) & (x_new > 1.0)] = 1
        new_act[(act == 0) & (x_new < -1.0)] = -1
        new_act[(act == 1) & (-r > 0.0)] = 1
        new_act[(act == -1) & (r > 0.0)] = -1
        if exact or (res > tol and not solved.get(new_act.tobytes())):
            act = new_act
    return best_x, best_extra, best_res, rounds, False, best_r


def _active_set_polish(a_mat, rhs, x, tol, max_rounds=50, factor=None):
    """Active-set obstacle solve from the bound pattern of ``x``, one
    banded Cholesky factor (:func:`_factor_spd`) of the inactive block per
    round: ``(x, residual, rounds, converged, r)``, ``r`` = A x - rhs of
    the returned ``x`` (None if no round finished).  Each round slices the
    inactive rows of A once, for the product with the pinned values and
    for the block.  With the :class:`FactorSlot` ``factor`` a round on the
    inactive set of the factor kept there reuses it, and any other round
    keeps its own."""
    def subsolve(act, inactive, *_):  # exact: the tolerance is ignored
        x_new = act.astype(float)
        if inactive.size:
            rows = a_mat[inactive]
            pinned = rows @ x_new
            lu = _factor_spd(rows[:, inactive]) if factor is None else (
                factor.get(inactive,
                           lambda: _factor_spd(rows[:, inactive], kept=True)))
            x_new[inactive] = lu.solve(rhs[inactive] - pinned)
        return x_new, None

    def kkt(x_clip, _):
        r = a_mat @ x_clip - rhs
        return r, float(kkt_violation(r, x_clip).max())

    x, _, residual, rounds, ok, r = _active_set(x, subsolve, kkt, tol,
                                                max_rounds)
    return x, residual, rounds, ok, r


def _projected_newton(a_mat, rhs, x, tol, max_rounds=50):
    """Bertsekas' projected Newton method from the feasible ``x``.

    Each round takes the Newton step of the nodes not held on a bound by
    an outward gradient (one banded Cholesky factor of their block) and
    halves it until the projected point passes the Armijo test.  A block
    that is not positive definite, an ascent direction, a predicted
    decrease -g_F . d_F of at most the rounding level eps |g| |x| (a
    tolerance below rounding) or a failed search ends it unconverged.
    Returns ``(x, residual, rounds, converged, g)``, ``g`` = A x - rhs of
    the returned ``x``.
    """
    g = a_mat @ x - rhs
    residual = float(kkt_violation(g, x).max())
    for rounds in range(1, max_rounds + 1):
        free = np.flatnonzero(~(((x >= 1.0) & (g < 0.0))
                                | ((x <= -1.0) & (g > 0.0))))
        d = np.zeros_like(x)
        try:
            d[free] = -_factor_spd(a_mat[free][:, free]).solve(g[free])
        except (RuntimeError, np.linalg.LinAlgError):
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
            return x, residual, rounds, True, g
    return x, residual, rounds, False, g


def solve_obstacle(a_mat, rhs, x0=None, tol=1e-9, factor=None):
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
    factor : FactorSlot, optional
        A cache, not a setting: it keeps the active-set loop's last
        factor, keyed on its inactive set, across calls.  Pass one only
        with the same ``a_mat``, bit for bit, on every call
        (``allen_cahn_step`` keeps one on its ``Workspace`` for a density
        of one term); the results are then those of a call without it.

    The active-set loop runs first, from the bound pattern of ``x0``.
    Only if it stops short does projected Newton continue from its best
    iterate.  Returns a :class:`ViSolution`; non-convergence of both is
    flagged on the result, with the last iterate returned.  Its
    multiplier is read off the residual A x - rhs that the solver which
    returned x computed last, the same bits as a fresh product: the KKT
    check of the loop's round, or projected Newton's last gradient
    (computed by the fallback itself if no round of the loop finished).
    """
    a_mat = a_mat.tocsr()
    n = a_mat.shape[0]
    rhs = np.asarray(rhs, dtype=float)
    if np.any(a_mat.diagonal() <= 0.0):
        raise ValueError("system matrix has a nonpositive diagonal entry")
    x = np.zeros(n) if x0 is None else np.clip(np.asarray(x0, dtype=float), -1.0, 1.0)
    x, residual, iterations, ok, r = _active_set_polish(a_mat, rhs, x, tol,
                                                        factor=factor)
    if not ok:
        x, residual, rounds, ok, r = _projected_newton(a_mat, rhs, x, tol)
        iterations += rounds
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


def _projected_cg(apply, r, x, v, precond, tol, max_iter=500):
    """Preconditioned CG for ``S x = b`` from ``x``, given its residual
    ``r = b - S x``.

    ``apply(d)`` returns ``S d`` and ``L d`` for a linear map L.  The CG
    carries ``v + L (x_k - x)`` beside its iterate x_k, one update per
    iteration, so a linear image of the solution costs no application of
    its own (Saad, *Iterative Methods for Sparse Linear Systems*, 2003,
    sections 6.7 and 9.2).  ``precond(r)`` returns the preconditioned
    residual and the residual to carry on.  For a constrained problem it
    solves the bordered preconditioner, whose solution satisfies the
    constraint, and carries on the residual minus the constraint normal
    times the multiplier (Gould, Hribar & Nocedal, SIAM J. Sci. Comput.
    23, 2001); the iterates then stay on the constraint of ``x``.  Stops
    when the max-norm of the residual is at most ``tol`` and returns
    ``(x, v, iterations)``; raises ``RuntimeError`` on a nonpositive
    curvature or after ``max_iter`` iterations.
    """
    z, r = precond(r)
    d = z
    rz = r @ z
    for iterations in range(max_iter):
        if np.abs(r).max() <= tol:
            return x, v, iterations
        sd, vd = apply(d)
        curvature = d @ sd
        if not curvature > 0.0:
            raise RuntimeError("Schur complement is not positive definite")
        step = rz / curvature
        x = x + step * d
        v = v + step * vd
        z, r = precond(r - step * sd)
        rz, rz_old = r @ z, rz
        d = z + (rz / rz_old) * d
    raise RuntimeError(f"PCG did not converge in {max_iter} iterations")


def solve_coupled_ch(mass, k_b, k_aniso, u_old, *, theta, tau, eps, alpha,
                     w_bdry=None, boundary_mask=None, tol=1e-9, max_iter=100,
                     implicit=False, kb_factor=None, frozen=None,
                     extension=None):
    """Solve one coupled conserved step for (U, W) by a primal active-set loop.

    The discrete system is the lumped mass equation
    theta M (U - u_old)/tau + K_b W = 0, tested at every node (natural
    boundary conditions) or at interior nodes with W pinned to ``w_bdry``
    on the boundary, together with the variational inequality

        eps (K_aniso U) . (chi - U) >= sum_j M_j (c W_j + u_old_j / eps)(chi_j - U_j)

    for all chi in [-1, 1]^n, where c = c_psi / (2 alpha), c_psi = pi/2.
    Each round of the active-set loop (:func:`_active_set`) solves the
    equations of one active-set guess; the sets are then updated until the
    KKT residual (VI violation and mass-equation defect) drops below
    ``tol``.  A solve that stops short returns its lowest-residual iterate.

    Each round's equations are solved one of two ways:

    * ``kb_factor`` given (constant mobility; :func:`mobility_solver` of
      ``k_b``, or any solver ``f -> W`` with the contract of
      :func:`factor_mobility`): W is eliminated, and U on the
      inactive set I solves the SPD Schur complement
      eps K_aniso,II + (c^2 tau/theta) M_I [K_b^-1]_II M_I by
      preconditioned CG.  The CG runs to a max-norm residual of
      max(``tol``/20, 1e-2 times the lowest KKT residual so far); the
      first round, a round after a residual rise and the round that ends
      the step run to ``tol``/20 (see :func:`_active_set`).  It starts
      from the last round's clipped U on I (``u_old`` in the first
      round), under natural boundary conditions projected onto the mass
      constraint, which the CG then keeps.  The preconditioner P,
      eps K_aniso,II plus a diagonal shift at the nodes with a W dof, is
      SPD and factored by banded Cholesky (:func:`_factor_spd`); under
      natural boundary conditions it is bordered by M_I and applied
      through the border's Schur complement, with P^-1 M_I kept beside
      the factor (Benzi, Golub & Liesen, Acta Numer. 14, 2005).  A round
      on the inactive set of the round before reuses its preconditioner;
      at most one is kept.  W, linear in U through the mass equation, is
      carried beside U by the CG (:func:`_projected_cg`): one solve with
      ``kb_factor`` gives W of the start, and the solve of each
      iteration, which applies the Schur complement, gives W's update.
      A round so makes 1 + k solves for k CG iterations (1 with an empty
      inactive set), and a step at most its ``cg_iterations`` plus its
      rounds (a round that ends the loop on a set solved before makes
      none).  Under natural boundary conditions W's constant is then fit
      to the inactive rows.
    * otherwise (degenerate mobility, where a floored K_b is too ill
      conditioned for CG, and the ``implicit`` variant): one banded LU
      (:func:`_factor_band_lu`) of the symmetric saddle system in
      (U_I, W) per round.  ``frozen`` (natural boundary conditions only;
      set by ``cahn_hilliard_step``) marks the nodes all of whose
      elements have the floored mobility.  Their rows
      of K_b are the floor times those of the isotropic stiffness, so they
      only make W there the discrete harmonic extension of W elsewhere,
      whatever the floor (Elliott & Garcke, SIAM J. Math. Anal. 27, 1996;
      Barrett, Blowey & Garcke, SIAM J. Numer. Anal. 37, 1999).  The
      saddle then holds W only on S, the nodes not frozen and I, and
      drops its coupling to W on O, the frozen nodes outside I (a term of
      the floor's size).  Each round slices the principal block on
      (I, S) out of one CSR saddle matrix of every node, built once per
      call; the banded LU drops the block's explicit zeros.
      W_O solves the O rows of the mass equation,
      K_b,OO W_O = (theta/tau) M_O (u_old - U)_O - K_b,OS W_S, by the
      banded Cholesky of K_b,OO (:func:`_factor_spd`), kept in the
      :class:`FactorSlot` ``extension`` while O stays the same: across
      steps if the caller keeps the slot (``cahn_hilliard_step`` keeps
      one on its ``Workspace``), else across the rounds of this call.
      Every element at a node of O has the floored mobility, so each
      entry of K_b,OO sums the same floored element blocks in the same
      order and its bits depend on O alone, for a fixed mesh, floor and
      c tau/theta.  One block Gauss-Seidel sweep, one more solve with each
      factor, puts the dropped coupling back into the right side of the S
      rows.  The KKT residual is that of the full system.

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
    c = 0.25 * np.pi / alpha
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
    if frozen is not None and (dirichlet or kb_factor is not None):
        raise ValueError("frozen nodes need the saddle path and natural "
                         "boundary conditions")

    k_b = k_b.tocsr()
    k_aniso = k_aniso.tocsr()
    scale = c * tau / theta
    c_mass = c * mass[wdofs]  # the coupling of U to the mass equation
    rhs_mass = -c_mass * u_old[wdofs]
    if dirichlet:
        rhs_mass += scale * (k_b[wdofs] @ w_fixed)
    if kb_factor is None:
        # the saddle of every node, whose rounds slice their principal blocks
        kb = -scale * k_b
        s11 = eps * k_aniso
        if implicit:
            s11 = s11 - sp.diags(mass / eps)
        saddle = _saddle_matrix(s11, -c * mass, kb)
        if extension is None:
            extension = FactorSlot()
    else:
        kb_diag = k_b.diagonal()  # for the Schur preconditioner's shift

    def on_every_node(w_dofs):
        """W of every node: ``w_dofs`` on the W dofs, ``w_fixed`` elsewhere."""
        w = np.zeros(n)
        w[wdofs] = w_dofs
        w += w_fixed
        return w

    # Each round solver fills U at the inactive nodes of ``u`` (pinned
    # elsewhere) and returns W.
    def saddle_round(u, inactive, rhs1, rhs2):
        # the saddle keeps the W dofs S; O, the frozen nodes outside the
        # inactive set, get W from their own mass rows afterwards
        on, off = wdofs, None
        if frozen is not None:
            outside = frozen.copy()
            outside[inactive] = False
            if outside.any():
                on, off = np.flatnonzero(~outside), np.flatnonzero(outside)
        ni = inactive.size
        idx = np.concatenate([inactive, n + on])
        lu = _factor_band_lu(saddle[idx][:, idx])
        rhs = np.concatenate([rhs1, rhs2 if off is None else rhs2[on]])
        z = lu.solve(rhs)
        w = w_fixed.copy()
        w[on] = z[ni:]
        if off is not None:
            # products of the whole K_b restricted afterwards: the terms
            # they add are zeros, so the sums keep their bits
            ext = extension.get(
                off, lambda: _factor_spd(-kb[off][:, off], kept=True))
            w_o = np.zeros(n)
            w_o[off] = ext.solve((kb @ w)[off] - rhs2[off])
            # one block Gauss-Seidel sweep: the S rows get back their
            # coupling to W_O, which the saddle dropped
            rhs[ni:] -= (kb.T @ w_o)[on]
            z = lu.solve(rhs)
            w[on] = z[ni:]
            w[off] = ext.solve((kb @ w)[off] - rhs2[off])
        u[inactive] = z[:ni]
        return w

    cg_iterations = 0
    factor = FactorSlot()  # the last round's preconditioner

    def schur_round(u, inactive, s11, rhs1, rhs2, sub_tol, x0):
        nonlocal cg_iterations
        m_i = mass[inactive]
        # the inactive nodes with a W dof, and their positions among the W
        # dofs: W at the others is w_fixed, which the CG does not carry
        has_w = ~boundary_mask[inactive] if dirichlet else slice(None)
        at = np.searchsorted(wdofs, inactive[has_w])
        c_m = c * m_i[has_w]
        coupled = np.zeros(wdofs.size)

        def apply(x, f=0.0):
            """``s11 x - c M_I W_I`` and W on the W dofs, W from the mass
            equation for U_I = ``x`` with the rest of its right side in
            ``f``, by one ``kb_factor`` solve: with ``f`` = 0, S x.  (A
            term c M_j W_j of a node without a W dof is +0.0, so it is
            left out.)"""
            coupled[at] = x[has_w]
            w = kb_factor(-(f + c_mass * coupled) / scale)
            s_x = s11 @ x
            s_x[has_w] -= c_m * w[at]
            return s_x, w

        def precondition():
            # s11 plus a lower bound for the diagonal of the coupling term
            # at the nodes with a W dof: SPD even when every node is free
            shift = np.zeros(inactive.size)
            shift[has_w] = ((c * c / scale) * m_i[has_w] ** 2
                            / kb_diag[inactive[has_w]])
            pre = _factor_spd(s11 + sp.diags(shift))
            return pre, None if dirichlet else pre.solve(m_i)

        pre, pre_m = factor.get(inactive, precondition)

        def precond(r):
            z = pre.solve(r)
            if dirichlet:
                return z, r
            # [[P, M_I], [M_I^T, 0]] by its Schur complement: the multiplier
            lam = (m_i @ z) / (m_i @ pre_m)
            return z - lam * pre_m, r - lam * m_i

        if not dirichlet:
            # the nodal mass of U is conserved: M_I . U_I = M . (u_old - u)
            x0 = x0 + m_i * ((mass @ (u_old - u) - m_i @ x0) / (m_i @ m_i))
        # the start's residual and W, which the CG carries on
        s_x0, w = apply(x0, rhs2)
        x, w, iterations = _projected_cg(apply, rhs1 - s_x0, x0, w, precond,
                                         sub_tol)
        cg_iterations += iterations
        u[inactive] = x
        w = on_every_node(w)
        if not dirichlet:
            # W's constant: the least-squares fit to the inactive VI rows
            r = s11 @ x - rhs1 - c * m_i * w[inactive]
            w += (m_i @ r) / (c * (m_i @ m_i))
        return w

    def subsolve(act, inactive, sub_tol, x):
        u_pin = act.astype(float)
        rhs2 = rhs_mass + c_mass * u_pin[wdofs]
        if inactive.size == 0:
            # -scale K_b W = rhs2 on the W dofs (see factor_mobility)
            solve = kb_factor or factor_mobility(k_b, mass, boundary_mask)
            return u_pin, on_every_node(solve(-rhs2 / scale))
        rhs1 = mass[inactive] * ((0.0 if implicit else u_old[inactive] / eps)
                                 + c * w_fixed[inactive])
        if kb_factor is None:
            # the saddle keeps the whole product: slicing costs more
            rhs1 -= eps * (k_aniso @ u_pin)[inactive]
            return u_pin, saddle_round(u_pin, inactive, rhs1, rhs2)
        rows = k_aniso[inactive]
        rhs1 -= eps * (rows @ u_pin)
        s11 = eps * rows[:, inactive]
        # not held through the CG: on a round with every node free the
        # rows are a copy of k_aniso (2 MiB more peak memory on fig4)
        del rows
        return u_pin, schur_round(u_pin, inactive, s11, rhs1, rhs2, sub_tol,
                                  x[inactive])

    def kkt(u_clip, w):
        pot = u_clip if implicit else u_old
        r = eps * (k_aniso @ u_clip) - mass * (c * w + pot / eps)
        mass_defect = (theta / tau) * mass * (u_clip - u_old) + k_b @ w
        return r, float(max(kkt_violation(r, u_clip).max(),
                            np.abs(mass_defect[wdofs]).max()))

    # the Schur rounds may be loose; the saddle LU is always exact
    u, w, residual, rounds, converged, _ = _active_set(
        u_old.copy(), subsolve, kkt, tol, max_iter,
        exact_tol=None if kb_factor is None else tol / 20.0)
    if w is None:
        w = w_fixed
    return u, w, SolverStats(rounds, residual, converged,
                             cg_iterations=cg_iterations)


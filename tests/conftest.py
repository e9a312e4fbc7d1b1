"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own solution paths:
finite differences for gradients, batched projected gradient descent and
dense active-set enumeration for the constrained solves, and direct
quadrature summation for energies.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from anisofield import AnisotropyDensity


def random_spd_density(dim=2, n_terms=2, seed=42):
    """Seeded random sum-of-matrix-norm density with well-separated spectra."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(n_terms):
        r = rng.standard_normal((dim, dim))
        mats.append(r.T @ r + 0.1 * np.eye(dim))
    return AnisotropyDensity(mats)


def reference_element_data(mesh):
    """Volume and P1 basis gradients of every element, computed element
    by element from its vertices with ``det`` and ``inv``, without the
    mesh's per-class tables: shapes (n_elements,) and
    (n_elements, d+1, d)."""
    points = mesh.vertices[mesh.elements]
    edges = points[:, 1:] - points[:, :1]
    volume = np.abs(np.linalg.det(edges)) / np.prod(range(1, mesh.dim + 1))
    grads = np.linalg.inv(edges).transpose(0, 2, 1)
    return volume, np.concatenate([-grads.sum(axis=1, keepdims=True), grads],
                                  axis=1)


def reference_stiffness(mesh, weights):
    """Element-by-element P1 assembly of sum |sigma| grad_j . W_sigma grad_i.

    ``weights`` holds one d x d matrix per element.  Each element block is
    formed from ``reference_element_data`` by a three-operand einsum,
    symmetrized, and the blocks are scattered as COO triplets and
    converted to sorted CSR.
    """
    volume, g = reference_element_data(mesh)
    local = np.einsum("eid,edc,ejc->eij", g, weights, g)
    local = 0.5 * (local + local.transpose(0, 2, 1))
    local *= volume[:, None, None]
    nloc = mesh.dim + 1
    shape = (mesh.n_elements, nloc, nloc)
    rows = np.broadcast_to(mesh.elements[:, :, None], shape)
    cols = np.broadcast_to(mesh.elements[:, None, :], shape)
    n = mesh.n_vertices
    mat = sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                        shape=(n, n)).tocsr()
    mat.sort_indices()
    return mat


def reference_slot_map(elements, n_vertices):
    """The slot map by sort and search, keyed by row * n_vertices + column.

    The keys of the off-diagonal pairs are sorted and deduplicated, the
    diagonal keys are inserted, and each slot is looked up by
    ``searchsorted``.  Arrays and dtypes as in ``SlotMap``, writeable.
    """
    from anisofield.mesh import SlotMap

    n = n_vertices
    nloc = elements.shape[1]
    pairs = [(a, b) for a in range(nloc) for b in range(nloc)]
    keys = np.concatenate(
        [elements[:, a] * n + elements[:, b] for a, b in pairs if a != b])
    keys.sort()
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    if not np.bincount(elements.ravel(), minlength=n).all():
        raise ValueError("every vertex must lie in some element")
    diag = np.arange(n) * (n + 1)
    keys = np.insert(keys, np.searchsorted(keys, diag), diag)
    rows = keys // n
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indices = (keys - rows * n).astype(np.int32)
    slots = np.empty(elements.shape + (nloc,), dtype=np.intp)
    for a, b in pairs:
        slots[:, a, b] = np.searchsorted(keys, elements[:, a] * n + elements[:, b])
    diagonal = np.searchsorted(keys, diag)
    return SlotMap(indptr, indices, slots, diagonal)


def shuffled_mesh(mesh, perm):
    """The mesh with its vertices renumbered: new vertex k is old vertex
    ``perm[k]``, so a nodal field ``u`` of ``mesh`` is ``u[perm]`` here.
    The element list keeps its order and local vertex order, and so its
    element classes."""
    from anisofield import SimplicialMesh

    inv = np.empty_like(perm)
    inv[perm] = np.arange(mesh.n_vertices)
    return SimplicialMesh(mesh.dim, mesh.half_width, mesh.subdivisions,
                          mesh.vertices[perm].copy(), inv[mesh.elements].copy(),
                          mesh.boundary_mask[perm].copy(), mesh.element_class)


def fd_gradient(func, p, step):
    """Central finite differences of a scalar function of a d-vector."""
    p = np.asarray(p, dtype=float)
    grad = np.zeros_like(p)
    for i in range(p.size):
        e = np.zeros_like(p)
        e[i] = step
        grad[i] = (func(p + e) - func(p - e)) / (2.0 * step)
    return grad


def projected_gradient_box_qp(a_mat, rhs, n_iter=30_000):
    """Projected gradient descent for min 1/2 x.A x - rhs.x on [-1, 1]^n.

    Batched over leading axes: ``a_mat`` of shape (..., n, n) and ``rhs``
    of shape (..., n).  Step 1/lambda_max per system gives a linear rate;
    the iteration count is sized for ~1e-10 accuracy on the test systems.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    lam_max = np.linalg.eigvalsh(a_mat)[..., -1]
    step = 1.0 / lam_max[..., None]
    x = np.zeros_like(rhs)
    for _ in range(n_iter):
        grad = np.einsum("...ij,...j->...i", a_mat, x) - rhs
        x = np.clip(x - step * grad, -1.0, 1.0)
    return x


def enumerate_coupled_solution(mass, k_b, k_aniso, u_old, theta, tau, eps,
                               alpha, c_psi):
    """Dense brute force for the conserved step with natural boundary
    conditions: enumerate all lower/inactive/upper classifications, solve
    the resulting linear system and keep the one satisfying every KKT
    condition.  Exponential in the node count; for tiny meshes only.
    """
    import itertools

    n = mass.size
    c = 0.5 * c_psi / alpha
    k_b = np.asarray(k_b.todense()) if hasattr(k_b, "todense") else k_b
    k_aniso = (np.asarray(k_aniso.todense())
               if hasattr(k_aniso, "todense") else k_aniso)
    best = None
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        act = np.array(pattern, dtype=float)
        inactive = np.flatnonzero(act == 0)
        ni = inactive.size
        size = ni + n
        sys = np.zeros((size, size))
        rhs = np.zeros(size)
        # stationarity rows at inactive nodes: eps K U - c M W = (1/eps) M u_old
        for row, j in enumerate(inactive):
            sys[row, :ni] = eps * k_aniso[j, inactive]
            sys[row, ni + j] = -c * mass[j]
            rhs[row] = mass[j] * u_old[j] / eps - eps * (k_aniso[j] @ act)
        # mass rows at every node: (theta/tau) M U + K_b W = (theta/tau) M u_old
        for j in range(n):
            sys[ni + j, :ni] = 0.0
            if act[j] == 0.0:
                sys[ni + j, np.flatnonzero(inactive == j)] = (theta / tau) * mass[j]
            sys[ni + j, ni:] = k_b[j]
            rhs[ni + j] = (theta / tau) * mass[j] * (u_old[j] - (act[j] if act[j] else 0.0))
        try:
            sol = np.linalg.solve(sys, rhs)
        except np.linalg.LinAlgError:
            continue
        u = act.copy()
        u[inactive] = sol[:ni]
        w = sol[ni:]
        if np.any(np.abs(u) > 1.0 + 1e-9):
            continue
        r = eps * (k_aniso @ u) - mass * (c * w + u_old / eps)
        ok = True
        for j in range(n):
            if act[j] == 1 and -r[j] < -1e-9:
                ok = False
            elif act[j] == -1 and r[j] < -1e-9:
                ok = False
            elif act[j] == 0 and abs(r[j]) > 1e-9:
                ok = False
        if ok:
            if best is not None and np.abs(best[0] - u).max() > 1e-7:
                raise AssertionError("enumeration found two distinct solutions")
            best = (u, w)
    if best is None:
        raise AssertionError("enumeration found no KKT-consistent solution")
    return best


@pytest.fixture(scope="session")
def mesh2d_small():
    from anisofield import build_uniform_mesh

    return build_uniform_mesh(2, 0.5, 8)


@pytest.fixture(scope="session")
def mesh2d_medium():
    from anisofield import build_uniform_mesh

    return build_uniform_mesh(2, 0.5, 32)

"""Lumped mass vectors and P1 stiffness matrices for the phase-field schemes.

The discrete inner product is the vertex-quadrature (lumped) one,
(f, g)^h = sum_j M_j f_j g_j with M_j = integral of the j-th hat function,
which is exactly the inner product the stability results are stated for.

Every stiffness here is a sum over elements of w_sigma T_sigma, with
per-element weights w that change from step to step and exactly
symmetric element blocks T that depend only on the mesh and the weight
matrices.  The blocks are built once (``stiffness_blocks``), and each
assembly is one weighted ``bincount`` into the mesh's fixed CSR pattern
(``SimplicialMesh.slot_map``).  Summation follows the element order for
every entry, so the result is exactly symmetric and deterministic.
"""

import numpy as np
import scipy.sparse as sp

__all__ = [
    "lumped_mass",
    "stiffness_blocks",
    "isotropic_block",
    "isotropic_stiffness",
    "assemble_anisotropic_stiffness",
    "assemble_mobility_stiffness",
]


def lumped_mass(mesh):
    """Lumped mass vector M_j = integral of hat function j = sum |sigma|/(d+1)."""
    share = mesh.element_volume / (mesh.dim + 1)
    return np.bincount(mesh.elements.ravel(),
                       weights=np.repeat(share, mesh.dim + 1),
                       minlength=mesh.n_vertices)


def stiffness_blocks(mesh, matrices):
    """Element blocks T_l = |sigma| grad(phi) G_l grad(phi)^T per weight matrix.

    ``matrices`` has shape (L, d, d); the result has shape
    (L, n_elements, d+1, d+1) and every block is exactly symmetric.
    """
    g = mesh.basis_gradients
    g_t = g.transpose(0, 2, 1)
    vol = mesh.element_volume[:, None, None]
    nloc = mesh.dim + 1
    blocks = np.empty((len(matrices), mesh.n_elements, nloc, nloc))
    for block, mat in zip(blocks, matrices):
        np.matmul(g @ mat, g_t, out=block)
        block += block.transpose(0, 2, 1).copy()
        block *= 0.5 * vol
    return blocks


def isotropic_block(mesh):
    """The element block of the identity weight, shape (n_elements, d+1, d+1)."""
    return stiffness_blocks(mesh, np.eye(mesh.dim)[None])[0]


def _assemble(mesh, local):
    """CSR matrix of the element blocks ``local`` (n_elements, d+1, d+1)."""
    slot_map = mesh.slot_map
    data = np.bincount(slot_map.slots.ravel(), weights=local.ravel(),
                       minlength=slot_map.nnz)
    return sp.csr_matrix(
        (data, slot_map.indices.copy(), slot_map.indptr.copy()),
        shape=(mesh.n_vertices, mesh.n_vertices))


def isotropic_stiffness(mesh):
    """Standard P1 Laplacian stiffness, K_ij = sum |sigma| grad_j . grad_i."""
    return _assemble(mesh, isotropic_block(mesh))


def assemble_anisotropic_stiffness(mesh, aniso, u_prev, blocks=None):
    """Stiffness of the linearized anisotropic form with B frozen at grad(u_prev).

    K_ij = sum_sigma |sigma| grad_j . B(grad u_prev|_sigma) grad_i, with B
    evaluated once per element at the constant P1 gradient of ``u_prev``
    (elements where the gradient vanishes get the B(0) branch).  The result
    is symmetric positive semidefinite with kernel spanned by constants.
    ``blocks`` are ``stiffness_blocks(mesh, aniso.matrices)``, built here
    when not given.
    """
    if blocks is None:
        blocks = stiffness_blocks(mesh, aniso.matrices)
    coeffs = aniso.b_coefficients(mesh.element_gradients(u_prev))
    return _assemble(mesh, np.einsum("le,leij->eij", coeffs, blocks))


def assemble_mobility_stiffness(mesh, u_prev, mobility, block=None):
    """Stiffness weighted by the interpolated mobility of the previous state.

    K_ij = sum_sigma w_sigma |sigma| grad_j . grad_i where w_sigma is the
    vertex mean of mobility(u_prev) over the element, i.e. the exact value
    of (1/|sigma|) * integral of the P1 interpolant of the mobility.
    Mobility values must be nonnegative at every vertex.  ``block`` is
    ``isotropic_block(mesh)``, built here when not given.
    """
    u_prev = np.asarray(u_prev, dtype=float)
    vals = np.asarray(mobility(u_prev), dtype=float)
    if vals.shape != (mesh.n_vertices,):
        raise ValueError("mobility must map nodal values to nodal values")
    if np.any(vals < 0.0):
        raise ValueError("mobility is negative at some vertex")
    if block is None:
        block = isotropic_block(mesh)
    factor = vals[mesh.elements].mean(axis=1)
    return _assemble(mesh, factor[:, None, None] * block)

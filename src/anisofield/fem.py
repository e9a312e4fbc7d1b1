"""Lumped mass vectors and P1 stiffness matrices for the phase-field schemes.

The discrete inner product is the vertex-quadrature (lumped) one,
(f, g)^h = sum_j M_j f_j g_j with M_j = integral of the j-th hat function,
which is exactly the inner product the stability results are stated for.

Every stiffness here is a sum over elements of w_sigma T_sigma, with
per-element weights w that change from step to step and exactly
symmetric element blocks T that depend only on the mesh and the weight
matrices.  The blocks are built once per element class
(``stiffness_blocks``; ``SimplicialMesh.element_class``), and each
assembly gathers them per element, ``_CHUNK`` elements at a time, and
adds them by ``np.add.at`` into the mesh's fixed CSR pattern
(``SimplicialMesh.slot_map``).  Summation follows the element order for
every entry, as one weighted ``bincount`` would, so the result is
exactly symmetric and deterministic.

The anisotropic stiffness is split into a far field and a band.  With the
obstacle potential U is exactly +-1 outside a thin interface band, and on
an element whose vertex values are all equal the linearization takes its
B(0) = L sum_l G_l branch.  So the B(0) stiffness of the whole mesh, L
sum_l K_l, is built once per run (``far_field_stiffness``), and each step
adds only the correction sum_l (c_l - L) T_l of the band elements found
by ``interface_band``, which reads the field's values by local vertex
(``SimplicialMesh.local_vertices``) rather than element by element.  A
density of one term has c_1 = gamma/gamma_1 = 1 = L everywhere, so its
correction is zero and its anisotropic stiffness is the far field on
every step.
"""

import numpy as np
import scipy.sparse as sp

__all__ = [
    "lumped_mass",
    "stiffness_blocks",
    "isotropic_block",
    "isotropic_stiffness",
    "interface_band",
    "far_field_stiffness",
    "assemble_anisotropic_stiffness",
    "assemble_mobility_stiffness",
]


# Elements per chunk of a scatter.  One chunk's gathered blocks take at
# most 4 MiB (3d); at half this size the steps of a 2d N=128 run
# page-faulted, as glibc sizes its mmap and trim thresholds by the largest
# block freed, and these blocks were it (DECISIONS.md, "Scatters that
# copy no slot table").
_CHUNK = 2 ** 15


def _scatter(index, values, size):
    """Sums of ``values`` into ``size`` bins, at the positions ``index``.

    ``index`` has one row per element, and ``values(chunk)`` gives the
    values of the rows ``index[chunk]``, in the same shape, for slices of
    ``_CHUNK`` rows.  Every bin sums its values in row order, as one
    ``np.bincount`` over all rows would, to the same bits; ``np.add.at``
    reads ``index`` in place, where ``bincount`` copies a read-only index
    array, and no values are held beyond one chunk's.
    """
    out = np.zeros(size)
    for start in range(0, len(index), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        np.add.at(out, index[chunk].ravel(), values(chunk).ravel())
    return out


def lumped_mass(mesh):
    """Lumped mass vector M_j = integral of hat function j = sum |sigma|/(d+1)."""
    share = mesh.class_volume / (mesh.dim + 1)
    return _scatter(mesh.elements,
                    lambda chunk: np.repeat(share[mesh.element_class[chunk]],
                                            mesh.dim + 1),
                    mesh.n_vertices)


def stiffness_blocks(mesh, matrices):
    """Element blocks T_l = |sigma| grad(phi) G_l grad(phi)^T per weight matrix.

    ``matrices`` has shape (L, d, d); the result has shape
    (L, n_classes, d+1, d+1), one block per element class, and every
    block is exactly symmetric.
    """
    g = mesh.class_gradients
    g_t = g.transpose(0, 2, 1)
    vol = mesh.class_volume[:, None, None]
    nloc = mesh.dim + 1
    blocks = np.empty((len(matrices), mesh.n_classes, nloc, nloc))
    for block, mat in zip(blocks, matrices):
        np.matmul(g @ mat, g_t, out=block)
        block += block.transpose(0, 2, 1).copy()
        block *= 0.5 * vol
    return blocks


def isotropic_block(mesh):
    """The element block of the identity weight, shape (n_classes, d+1, d+1)."""
    return stiffness_blocks(mesh, np.eye(mesh.dim)[None])[0]


def _scatter_blocks(mesh, local, band=None):
    """CSR data of the element blocks ``local(chunk)`` of every element, or
    of the elements ``band``, by ``_scatter`` (``chunk`` slices them)."""
    slot_map = mesh.slot_map
    slots = slot_map.slots if band is None else slot_map.slots[band]
    return _scatter(slots, local, slot_map.nnz)


def _scatter_class_blocks(mesh, block):
    """CSR data of the class blocks ``block`` of every element."""
    classes = mesh.element_class
    return _scatter_blocks(mesh, lambda chunk: block[classes[chunk]])


def _csr(mesh, data):
    """The P1 matrix with CSR data ``data`` in the mesh's fixed pattern."""
    slot_map = mesh.slot_map
    return sp.csr_matrix(
        (data, slot_map.indices.copy(), slot_map.indptr.copy()),
        shape=(mesh.n_vertices, mesh.n_vertices))


def isotropic_stiffness(mesh):
    """Standard P1 Laplacian stiffness, K_ij = sum |sigma| grad_j . grad_i."""
    return _csr(mesh, _scatter_class_blocks(mesh, isotropic_block(mesh)))


def interface_band(mesh, u):
    """The elements on which ``u`` is not constant, and its gradients there.

    An element is in the band unless its vertex values are all equal,
    which is decided by comparing the values, not the gradient: on some
    meshes a constant field has a P1 gradient of rounding size, which
    would send the linearization down its q != 0 branch.  The values are
    read by local vertex, through the contiguous rows of
    ``mesh.local_vertices``, and the gradients are computed on the band
    alone.  Returns ``(band, grads)`` with the element indices and the
    (n_band, d) gradients.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_vertices,):
        raise ValueError("nodal value array does not match vertex count")
    rows = mesh.local_vertices
    first = u[rows[0]]
    flat = first == u[rows[1]]
    for row in rows[2:]:
        flat &= first == u[row]
    band = np.flatnonzero(~flat)
    return band, mesh.element_gradients(u, band)


def far_field_stiffness(mesh, aniso, blocks):
    """CSR data of the B(0) stiffness L sum_l K_l, the anisotropic
    stiffness of a constant field; ``blocks`` are
    ``stiffness_blocks(mesh, aniso.matrices)``, scattered one at a time."""
    return aniso.n_terms * sum(_scatter_class_blocks(mesh, block)
                               for block in blocks)


def assemble_anisotropic_stiffness(mesh, aniso, u_prev, blocks=None,
                                   far_field=None, band=None):
    """Stiffness of the linearized anisotropic form with B frozen at grad(u_prev).

    K_ij = sum_sigma |sigma| grad_j . B(grad u_prev|_sigma) grad_i, with B
    evaluated once per element at the constant P1 gradient of ``u_prev``.
    Elements whose vertex values are all equal get the B(0) branch: their
    part is the ``far_field`` stiffness L sum_l K_l, and only the band
    elements of ``interface_band`` add sum_l (c_l - L) T_l to it.  With
    one term that correction is zero, and the result is a copy of the far
    field, the same bits on every step.  The result is symmetric positive
    semidefinite with kernel spanned by constants.  ``blocks`` are
    ``stiffness_blocks(mesh, aniso.matrices)``, ``far_field`` is
    ``far_field_stiffness(mesh, aniso, blocks)`` and ``band`` is
    ``interface_band(mesh, u_prev)``, each built here when not given.
    """
    if blocks is None:
        blocks = stiffness_blocks(mesh, aniso.matrices)
    if far_field is None:
        far_field = far_field_stiffness(mesh, aniso, blocks)
    if aniso.n_terms == 1:  # a fresh copy: callers scale it in place
        return _csr(mesh, far_field.copy())
    band, grads = interface_band(mesh, u_prev) if band is None else band
    coeffs = aniso.b_coefficients(grads) - aniso.n_terms
    local = np.einsum("le,leij->eij", coeffs,
                      blocks[:, mesh.element_class[band]])
    data = _scatter_blocks(mesh, lambda chunk: local[chunk], band)
    return _csr(mesh, far_field + data)


def assemble_mobility_stiffness(mesh, u_prev, mobility, block=None,
                                far_field=None, band=None):
    """Stiffness weighted by the interpolated mobility of the previous state.

    K_ij = sum_sigma w_sigma |sigma| grad_j . grad_i where w_sigma is the
    vertex mean of mobility(u_prev) over the element, i.e. the exact value
    of (1/|sigma|) * integral of the P1 interpolant of the mobility.
    Mobility values must be nonnegative at every vertex.  ``block`` is
    ``isotropic_block(mesh)``, built here when not given.  With
    ``far_field``, the CSR data of a stiffness in the mesh's pattern, and
    the element indices ``band``, only the band's elements are scattered,
    and the result is ``far_field`` plus their part.
    """
    u_prev = np.asarray(u_prev, dtype=float)
    vals = np.asarray(mobility(u_prev), dtype=float)
    if vals.shape != (mesh.n_vertices,):
        raise ValueError("mobility must map nodal values to nodal values")
    if np.any(vals < 0.0):
        raise ValueError("mobility is negative at some vertex")
    if block is None:
        block = isotropic_block(mesh)
    classes, elements = mesh.element_class, mesh.elements
    if band is not None:
        classes, elements = classes[band], elements[band]

    def local(chunk):
        blocks = block[classes[chunk]]
        blocks *= vals[elements[chunk]].mean(axis=1)[:, None, None]
        return blocks

    data = _scatter_blocks(mesh, local, band)
    return _csr(mesh, data if far_field is None else far_field + data)

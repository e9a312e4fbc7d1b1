"""Uniform simplicial meshes of the cube (-H, H)^d with P1 element data.

The grid cells are split by the Kuhn (Freudenthal) pattern: 2 triangles per
square in 2d, 6 tetrahedra per cube in 3d, all sharing the main diagonal of
their cell.  The pattern is conforming across cells and every element has
the same volume h^d / d!.  The elements fall into d! classes of translates
(Bey, Numer. Math. 85, 2000), and the mesh computes its element data once
per class.
"""

import functools
import itertools
from typing import NamedTuple

import numpy as np

__all__ = ["SimplicialMesh", "SlotMap", "build_uniform_mesh"]


class SlotMap(NamedTuple):
    """Fixed CSR pattern of the P1 matrices on a mesh.

    ``indptr`` and ``indices`` (int32) describe the sorted pattern of all
    vertex pairs that share an element; ``slots[e, a, b]`` is the position
    in the CSR data of the entry (elements[e, a], elements[e, b]), and
    ``diagonal[j]`` that of the entry (j, j) (both intp, the index type
    ``np.bincount`` and ``np.add.at`` work in, so assembly casts nothing).
    All four arrays are read-only.  The assemblies read ``slots`` in place
    by ``np.add.at``: ``np.bincount`` copies a read-only index array
    whole, and ``slots`` is the largest array of a 3d run (81 MiB at
    N=48).  Every vertex must lie in some element.
    """

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray
    diagonal: np.ndarray

    @property
    def nnz(self):
        return self.indices.size


def _build_slot_map(elements, n_vertices):
    """Slot map of a mesh, read from a table of its vertex-index offsets.

    An entry (v, w) of the pattern is row v at offset w - v, and a row's
    columns sort as its offsets do.  The build sorts and searches nothing:

    1. the offset v_b - v_a of each local pair (a, b) of each element;
    2. the distinct offsets, marked in a table of all 2n - 1 possible ones,
       and the column of each in order;
    3. the (n_vertices x distinct offsets) existence table of the entries,
       and its running count in row order less one, which is each entry's
       position in the CSR data;
    4. ``indptr`` from that count at each row's end, ``indices`` from the
       existence table's true entries;
    5. each slot as the position of (v_a, the column of v_b - v_a), one
       gather.  The array of step 1 becomes the slots in place.

    The existence table and its count take n_vertices x (distinct
    offsets) x 9 bytes.  A lexicographically numbered Kuhn mesh has at
    most 7 distinct offsets in 2d and 15 in 3d, however its elements are
    classed; a mesh with shuffled vertex numbers can have up to 2n - 1,
    so that the tables grow with the square of the vertex count.
    """
    n = n_vertices
    # 1: shifted to 0 .. 2n - 2, to index the table of step 2
    keys = np.subtract((elements + (n - 1))[:, None, :], elements[:, :, None])
    # 2
    seen = np.zeros(2 * n - 1, dtype=bool)
    seen[keys] = True
    offsets = np.flatnonzero(seen) - (n - 1)
    width = offsets.size
    column = np.cumsum(seen, dtype=np.intp) - 1
    # mode="clip" keeps np.take from buffering its output; each gather
    # reads a key before it writes the same place
    np.take(column, keys, out=keys, mode="clip")
    # 3: the keys become flat indices of (v_a, column)
    keys += (elements * width)[:, :, None]
    exists = np.zeros((n, width), dtype=bool)
    exists.ravel()[keys] = True
    zero = column[n - 1]
    # the local pairs (a, a) mark the diagonal of every vertex in an element
    if not exists[:, zero].all():
        raise ValueError("every vertex must lie in some element")
    position = np.cumsum(exists.ravel(), dtype=np.intp)
    position -= 1
    # 4
    indptr = np.zeros(n + 1, dtype=np.int32)
    indptr[1:] = position[width - 1::width] + 1
    indices = (np.arange(n, dtype=np.int32)[:, None]
               + offsets.astype(np.int32))[exists]
    # 5
    slots = np.take(position, keys, out=keys, mode="clip")
    diagonal = position[zero::width].copy()
    for arr in (indptr, indices, slots, diagonal):
        arr.setflags(write=False)
    return SlotMap(indptr, indices, slots, diagonal)


class SimplicialMesh:
    """Conforming simplicial mesh with P1 element data per element class.

    The elements of a class are translates of its first element, with the
    same local vertex order, so the volume and the P1 basis gradients are
    computed once per class; the constructor checks every element's edge
    vectors p_i - p_0 against its class's to 1e-12 h, one coordinate of
    one edge at a time, so that it holds no (n_elements, dim + 1, dim)
    table.  It refuses ``elements`` that are not (n_elements, dim + 1)
    integers indexing the vertices.  A mesh of arbitrary elements passes
    ``np.arange(n_elements)``, one class per element.

    Attributes
    ----------
    dim : int
    half_width : float
        Domain is (-half_width, half_width)^dim.
    subdivisions : int
        Grid cells per axis.
    vertices : (n_vertices, dim) float array
    elements : (n_elements, dim + 1) intp array
    boundary_mask : (n_vertices,) bool array, True on the domain boundary
    element_class : (n_elements,) int array, numbered from 0
    class_volume : (n_classes,) float array
    class_gradients : (n_classes, dim + 1, dim) float array
        Constant gradients of the local P1 basis functions.
    slot_map : SlotMap
        CSR pattern and element-entry slots of the P1 matrices, built on
        first use.
    local_vertices : (dim + 1, n_elements) int array
        A contiguous copy of ``elements.T``, built on first use: row a
        holds every element's a-th vertex, so the values of a nodal
        field on the elements are one gather, ``u[local_vertices]``.
    """

    def __init__(self, dim, half_width, subdivisions, vertices, elements,
                 boundary_mask, element_class):
        self.dim = dim
        self.half_width = float(half_width)
        self.subdivisions = int(subdivisions)
        self.vertices = vertices
        if vertices.ndim != 2 or vertices.shape[1] != dim:
            raise ValueError("vertices must have shape (n_vertices, dim)")
        elements = np.asarray(elements)
        if elements.dtype.kind not in "iu":
            raise ValueError("elements must be an integer array")
        if (elements.ndim != 2 or elements.shape[1] != dim + 1
                or not elements.size):
            raise ValueError("elements must have shape (n_elements, dim + 1), "
                             "n_elements >= 1")
        # intp, so index arithmetic on elements cannot overflow
        self.elements = elements = elements.astype(np.intp, copy=False)
        if elements.min() < 0 or elements.max() >= vertices.shape[0]:
            raise ValueError("elements must index vertices in "
                             "[0, n_vertices)")
        self.boundary_mask = boundary_mask

        self.element_class = element_class = np.asarray(element_class)
        classes, first = np.unique(element_class, return_index=True)
        if (element_class.shape != elements.shape[:1]
                or element_class.dtype.kind not in "iu"
                or classes[0] != 0 or classes[-1] != classes.size - 1):
            raise ValueError("element_class must give each element an "
                             "integer class, numbered from 0 without gaps")
        # coordinate k of each edge p_i - p_0 against its class's
        rep_edges = np.empty((classes.size, dim, dim))
        for k, x in enumerate(vertices.T):
            x0 = x[elements[:, 0]]
            for i in range(1, dim + 1):
                edge = x[elements[:, i]]
                edge -= x0
                rep_edges[:, i - 1, k] = edge[first]
                edge -= rep_edges[element_class, i - 1, k]
                if not np.abs(edge, out=edge).max() <= 1e-12 * self.mesh_size:
                    raise ValueError("element is not a translate of its "
                                     "class's first element")
        det = np.linalg.det(rep_edges)
        if np.any(det == 0.0):
            raise ValueError("degenerate element in mesh")
        self.class_volume = np.abs(det) / np.prod(range(1, dim + 1))
        grads = np.linalg.inv(rep_edges).transpose(0, 2, 1)  # rows of T^(-T)
        self.class_gradients = np.concatenate(
            [-grads.sum(axis=1, keepdims=True), grads], axis=1)

        for arr in (self.vertices, self.elements, self.boundary_mask,
                    self.element_class, self.class_volume,
                    self.class_gradients):
            arr.setflags(write=False)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    @property
    def n_classes(self):
        return self.class_volume.size

    @property
    def mesh_size(self):
        """Grid spacing h = 2 H / N (element diameters are h sqrt(dim))."""
        return 2.0 * self.half_width / self.subdivisions

    def __repr__(self):
        return (f"SimplicialMesh(dim={self.dim}, H={self.half_width}, "
                f"N={self.subdivisions}, {self.n_vertices} vertices, "
                f"{self.n_elements} elements)")

    @functools.cached_property
    def slot_map(self):
        """The mesh's ``SlotMap``, built on first use."""
        return _build_slot_map(self.elements, self.n_vertices)

    @functools.cached_property
    def local_vertices(self):
        """Read-only contiguous copy of ``elements.T``, built on first use."""
        rows = np.ascontiguousarray(self.elements.T)
        rows.setflags(write=False)
        return rows

    def element_gradients(self, nodal_values, subset=None):
        """Gradients of the P1 interpolant, shape (ne, d), on all elements
        or, when given, on the elements indexed by ``subset`` in its order."""
        values = np.asarray(nodal_values, dtype=float)
        if values.shape != (self.n_vertices,):
            raise ValueError("nodal value array does not match vertex count")
        classes, local = self.element_class, self.local_vertices
        if subset is not None:
            classes, local = classes[subset], local[:, subset]
        return np.einsum("eid,ie->ed", self.class_gradients[classes],
                         values[local])


def _grid_vertices(half_width, n, dim):
    coords = np.linspace(-half_width, half_width, n + 1)
    axes = np.meshgrid(*([coords] * dim), indexing="ij")
    # vertex index = i + (n+1) j (+ (n+1)^2 k), x index fastest
    return np.column_stack([a.ravel(order="F") for a in axes])


def build_uniform_mesh(dim, half_width, subdivisions):
    """Kuhn triangulation of (-H, H)^dim with ``subdivisions`` cells per axis.

    Yields (N+1)^d vertices and 2 N^2 triangles (d = 2) or 6 N^3 tetrahedra
    (d = 3); the associated fine mesh size is h = 2 H / N.  The elements
    are stacked by their position in the cell, N^d at a time, and each of
    these d! stacks is one element class.
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if (isinstance(subdivisions, (bool, np.bool_))
            or not float(subdivisions).is_integer()):
        raise ValueError("subdivisions must be a whole number")
    if subdivisions < 1:
        raise ValueError("need at least one subdivision per axis")
    if not 0 < half_width < np.inf:
        raise ValueError("half_width must be positive and finite")
    n = int(subdivisions)
    vertices = _grid_vertices(half_width, n, dim)

    cell = np.arange(n)
    if dim == 2:
        base = np.tile(cell, n) + (n + 1) * np.repeat(cell, n)
        corners = [[0, 1, n + 2], [0, n + 2, n + 1]]
    else:
        base = (np.tile(cell, n * n) + (n + 1) * np.tile(np.repeat(cell, n), n)
                + (n + 1) ** 2 * np.repeat(cell, n * n))
        strides = [1, n + 1, (n + 1) ** 2]
        corners = [np.cumsum([0] + [strides[axis] for axis in perm])
                   for perm in itertools.permutations(range(3))]
    # class by class, each cell's first vertex plus the class's corners
    corners = np.asarray(corners)
    elements = (base[:, None] + corners[:, None, :]).reshape(-1, dim + 1)
    element_class = np.repeat(np.arange(len(corners)), n ** dim)

    on_face = np.abs(np.abs(vertices) - half_width) <= 1e-12 * half_width
    boundary_mask = np.any(on_face, axis=1)
    return SimplicialMesh(dim, half_width, n, vertices, elements,
                          boundary_mask, element_class)

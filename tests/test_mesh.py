"""Kuhn mesh construction, counts, conformity and P1 gradient data."""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from anisofield import SimplicialMesh, build_uniform_mesh
from anisofield.fem import isotropic_stiffness
from conftest import (reference_element_data, reference_slot_map,
                      shuffled_mesh)


def _element_volume(mesh):
    return mesh.class_volume[mesh.element_class]


def test_smallest_2d_mesh_counts():
    mesh = build_uniform_mesh(2, 0.5, 1)
    assert mesh.n_vertices == 4
    assert mesh.n_elements == 2
    assert _element_volume(mesh).sum() == pytest.approx(1.0, rel=1e-15)


def test_3d_mesh_counts():
    mesh = build_uniform_mesh(3, 0.5, 2)
    assert mesh.n_vertices == 27
    assert mesh.n_elements == 48
    assert _element_volume(mesh).sum() == pytest.approx(1.0, rel=1e-12)


def test_default_fine_mesh_size():
    mesh = build_uniform_mesh(2, 0.5, 128)
    assert mesh.mesh_size == pytest.approx(1.0 / 128, rel=1e-15)
    assert mesh.n_vertices == 129**2
    assert mesh.n_elements == 2 * 128**2


@pytest.mark.parametrize("dim,n", [(2, 5), (3, 3)])
def test_mesh_is_conforming(dim, n):
    # every interior facet must be shared by exactly two elements
    mesh = build_uniform_mesh(dim, 0.7, n)
    assert _element_volume(mesh).sum() == pytest.approx(1.4**dim, rel=1e-12)
    facets = Counter()
    for elem in mesh.elements:
        for facet in combinations(sorted(elem), dim):
            facets[facet] += 1
    counts = set(facets.values())
    assert counts <= {1, 2}
    n_boundary = sum(1 for c in facets.values() if c == 1)
    # boundary facet count: 2d -> 4n edges on 4 sides; 3d -> 12 n^2 triangles
    assert n_boundary == (4 * n if dim == 2 else 12 * n * n)


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)])
def test_partition_of_unity_gradients(dim, n):
    mesh = build_uniform_mesh(dim, 0.5, n)
    sums = mesh.class_gradients.sum(axis=1)
    assert np.abs(sums).max() <= 1e-12 * np.abs(mesh.class_gradients).max()


def test_all_element_volumes_positive_and_equal():
    mesh = build_uniform_mesh(3, 0.5, 3)
    h = mesh.mesh_size
    np.testing.assert_allclose(_element_volume(mesh), h**3 / 6, rtol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_boundary_mask(dim):
    mesh = build_uniform_mesh(dim, 0.5, 4)
    expected = np.any(np.abs(np.abs(mesh.vertices) - 0.5) <= 1e-12 * 0.5, axis=1)
    np.testing.assert_array_equal(mesh.boundary_mask, expected)
    assert mesh.boundary_mask.sum() == (16 if dim == 2 else 5**3 - 3**3)


def test_element_gradient_of_coordinate():
    mesh = build_uniform_mesh(2, 0.5, 3)
    grads = mesh.element_gradients(mesh.vertices[:, 0])
    assert grads.shape == (mesh.n_elements, 2)
    np.testing.assert_allclose(grads,
                               np.tile([1.0, 0.0], (mesh.n_elements, 1)),
                               atol=1e-13)


def test_element_gradient_of_constant_is_zero():
    mesh = build_uniform_mesh(3, 0.5, 2)
    grads = mesh.element_gradients(np.full(mesh.n_vertices, 3.7))
    assert np.abs(grads).max() <= 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_element_gradient_reproduces_random_affine(dim):
    rng = np.random.default_rng(dim)
    mesh = build_uniform_mesh(dim, 0.5, 3)
    a = rng.standard_normal(dim)
    b = rng.standard_normal()
    values = mesh.vertices @ a + b
    grads = mesh.element_gradients(values)
    assert grads.shape == (mesh.n_elements, dim)
    np.testing.assert_allclose(grads, np.tile(a, (mesh.n_elements, 1)),
                               rtol=1e-12, atol=1e-12)
    subset = rng.permutation(mesh.n_elements)[:7]
    np.testing.assert_array_equal(mesh.element_gradients(values, subset),
                                  grads[subset])


def test_slot_map_diagonal_and_vertices_in_no_element():
    mesh = build_uniform_mesh(2, 0.5, 3)
    slot_map = mesh.slot_map
    rows = np.repeat(np.arange(mesh.n_vertices), np.diff(slot_map.indptr))
    np.testing.assert_array_equal(rows[slot_map.diagonal],
                                  np.arange(mesh.n_vertices))
    np.testing.assert_array_equal(slot_map.indices[slot_map.diagonal],
                                  np.arange(mesh.n_vertices))
    orphan = SimplicialMesh(2, 0.5, 3, np.vstack([mesh.vertices, [0.1, 0.1]]),
                            mesh.elements.copy(),
                            np.append(mesh.boundary_mask, False),
                            mesh.element_class)
    with pytest.raises(ValueError, match="some element"):
        orphan.slot_map


def _renumbered(mesh, variant):
    """The Kuhn mesh as it is, with one class per element, with its
    vertices shuffled or with each element's local vertex order reversed."""
    if variant == "kuhn":
        return mesh
    if variant == "shuffled":
        perm = np.random.default_rng(mesh.dim).permutation(mesh.n_vertices)
        return shuffled_mesh(mesh, perm)
    elements, element_class = mesh.elements, mesh.element_class
    if variant == "one_class":
        element_class = np.arange(mesh.n_elements)
    else:
        elements = elements[:, ::-1].copy()
    return SimplicialMesh(mesh.dim, 0.5, mesh.subdivisions, mesh.vertices,
                          elements, mesh.boundary_mask, element_class)


@pytest.mark.parametrize("dim,n,variant", [
    (2, 3, "kuhn"), (2, 37, "kuhn"), (2, 128, "kuhn"), (3, 5, "kuhn"),
    (3, 24, "kuhn"), (2, 37, "one_class"), (3, 5, "one_class"),
    (2, 24, "shuffled"), (3, 6, "shuffled"), (2, 9, "reversed"),
    (3, 4, "reversed")])
def test_slot_map_matches_sort_and_search(dim, n, variant):
    mesh = _renumbered(build_uniform_mesh(dim, 0.5, n), variant)
    expected = reference_slot_map(mesh.elements, mesh.n_vertices)
    slot_map = mesh.slot_map
    for name, want in zip(expected._fields, expected):
        got = getattr(slot_map, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
        assert not got.flags.writeable, name


def test_int32_elements_give_the_int64_slot_map():
    # 47,089 vertices: row * n_vertices + column exceeds 2**31 in int32
    mesh = build_uniform_mesh(2, 0.5, 216)
    narrow = SimplicialMesh(2, 0.5, 216, mesh.vertices,
                            mesh.elements.astype(np.int32), mesh.boundary_mask,
                            mesh.element_class)
    assert narrow.elements.dtype == np.intp
    for got, want in zip(narrow.slot_map, mesh.slot_map):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    got, want = isotropic_stiffness(narrow), isotropic_stiffness(mesh)
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    with pytest.raises(ValueError, match="integer"):
        SimplicialMesh(2, 0.5, 216, mesh.vertices,
                       mesh.elements.astype(float), mesh.boundary_mask,
                       mesh.element_class)


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_uniform_mesh(2, 0.5, 0)
    with pytest.raises(ValueError):
        build_uniform_mesh(4, 0.5, 2)
    for half_width in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            build_uniform_mesh(2, half_width, 2)
    # int() would silently build N = 2 and N = 1 from these
    for subdivisions in (2.5, True, np.True_, np.nan, np.inf):
        with pytest.raises(ValueError):
            build_uniform_mesh(2, 1.0, subdivisions)
    assert build_uniform_mesh(2, 1.0, 3.0).subdivisions == 3


@pytest.mark.parametrize("dim,n,exact", [
    (2, 3, False), (2, 37, False), (2, 64, True), (2, 128, True),
    (3, 5, False), (3, 8, True), (3, 17, False), (3, 24, False)])
def test_class_data_matches_per_element_recomputation(dim, n, exact):
    # Within a class the edge vectors agree bit for bit when h is a power
    # of two (every 2d workload mesh); otherwise the linspace vertices
    # leave them, and so the per-element values, a few ulp apart.
    mesh = build_uniform_mesh(dim, 0.5, n)
    assert mesh.n_classes == (2 if dim == 2 else 6)
    volume, grads = reference_element_data(mesh)
    class_volume = mesh.class_volume[mesh.element_class]
    class_grads = mesh.class_gradients[mesh.element_class]
    if exact:
        np.testing.assert_array_equal(class_volume, volume)
        np.testing.assert_array_equal(class_grads, grads)
    assert np.abs(class_volume - volume).max() <= 1e-13 * volume.max()
    assert (np.abs(class_grads - grads).max()
            <= 1e-13 * np.abs(grads).max())


def test_one_class_per_element_is_the_element_by_element_data():
    mesh = build_uniform_mesh(3, 0.5, 3)
    single = SimplicialMesh(3, 0.5, 3, mesh.vertices, mesh.elements,
                            mesh.boundary_mask, np.arange(mesh.n_elements))
    volume, grads = reference_element_data(mesh)
    assert single.n_classes == mesh.n_elements
    np.testing.assert_array_equal(single.class_volume, volume)
    np.testing.assert_array_equal(single.class_gradients, grads)


@pytest.mark.parametrize("dim", [2, 3])
def test_wrong_element_class_is_rejected(dim):
    mesh = build_uniform_mesh(dim, 0.5, 3)

    def build(element_class):
        return SimplicialMesh(dim, 0.5, 3, mesh.vertices, mesh.elements,
                              mesh.boundary_mask, element_class)

    swapped = mesh.element_class.copy()
    swapped[[0, -1]] = swapped[[-1, 0]]
    gap = np.where(mesh.element_class == 0, 0, mesh.element_class + 1)
    for element_class in (swapped, np.zeros(mesh.n_elements, dtype=int),
                          gap, mesh.element_class[1:],
                          mesh.element_class.astype(float)):
        with pytest.raises(ValueError):
            build(element_class)
    # a vertex moved by a fraction of h breaks every element around it
    moved = mesh.vertices.copy()
    moved[5] += 1e-6 * mesh.mesh_size
    with pytest.raises(ValueError, match="translate"):
        SimplicialMesh(dim, 0.5, 3, moved, mesh.elements, mesh.boundary_mask,
                       mesh.element_class)


@pytest.mark.parametrize("dim", [2, 3])
def test_translate_check_sees_every_local_position(dim):
    # one element's vertex at local position a re-pointed to a copy of
    # itself, moved by a fraction of h along one axis: each coordinate of
    # each edge p_i - p_0 is checked, so every position and axis is caught
    mesh = build_uniform_mesh(dim, 0.5, 3)
    element = mesh.n_elements // 2 + 1

    def repointed(a, shift):
        moved = mesh.vertices[mesh.elements[element, a]] + shift
        vertices = np.vstack([mesh.vertices, moved])
        elements = mesh.elements.copy()
        elements[element, a] = mesh.n_vertices
        return SimplicialMesh(dim, 0.5, 3, vertices, elements,
                              np.append(mesh.boundary_mask, False),
                              mesh.element_class)

    for a in range(dim + 1):
        exact = repointed(a, 0.0)
        np.testing.assert_array_equal(exact.class_gradients,
                                      mesh.class_gradients)
        for axis in range(dim):
            shift = np.zeros(dim)
            shift[axis] = 1e-6 * mesh.mesh_size
            with pytest.raises(ValueError, match="translate"):
                repointed(a, shift)


@pytest.mark.parametrize("dim", [2, 3])
def test_elements_of_wrong_shape_or_index_are_rejected(dim):
    mesh = build_uniform_mesh(dim, 0.5, 3)

    def build(vertices, elements):
        return SimplicialMesh(dim, 0.5, 3, vertices, elements,
                              mesh.boundary_mask, mesh.element_class)

    # a negative index used to wrap silently: these are the mesh's own
    # elements, shifted down by n_vertices, so every element passed the
    # translate check and the slot map was built on wrong rows
    wrapped = mesh.elements - mesh.n_vertices
    past_end = mesh.elements.copy()
    past_end[3, 1] = mesh.n_vertices
    for elements in (wrapped, past_end):
        with pytest.raises(ValueError, match="n_vertices"):
            build(mesh.vertices, elements)
    # an element of width d used to raise LinAlgError
    for elements in (mesh.elements[:, :dim], mesh.elements.ravel(),
                     mesh.elements[:0]):
        with pytest.raises(ValueError, match="shape"):
            build(mesh.vertices, elements)
    with pytest.raises(ValueError, match="shape"):
        build(mesh.vertices[:, :dim - 1], mesh.elements)


@pytest.mark.parametrize("dim,n", [(2, 7), (3, 4)])
def test_shuffled_mesh_reproduces_its_parent(dim, n):
    mesh = build_uniform_mesh(dim, 0.5, n)
    rng = np.random.default_rng(dim)
    perm = rng.permutation(mesh.n_vertices)
    shuffled = shuffled_mesh(mesh, perm)
    np.testing.assert_array_equal(shuffled.vertices[shuffled.elements],
                                  mesh.vertices[mesh.elements])
    np.testing.assert_array_equal(shuffled.class_volume, mesh.class_volume)
    np.testing.assert_array_equal(shuffled.class_gradients,
                                  mesh.class_gradients)
    u = rng.uniform(-1.0, 1.0, mesh.n_vertices)
    np.testing.assert_array_equal(shuffled.element_gradients(u[perm]),
                                  mesh.element_gradients(u))

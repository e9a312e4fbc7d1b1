"""Lumped mass and stiffness assembly against hand values and identities."""

import math
import tracemalloc

import numpy as np
import pytest

import anisofield.fem
import anisofield.mesh
from anisofield.fem import (far_field_stiffness, interface_band,
                            isotropic_block, stiffness_blocks)
from anisofield import (AnisotropyDensity, SimplicialMesh,
                        assemble_anisotropic_stiffness,
                        assemble_mobility_stiffness, build_uniform_mesh,
                        discrete_energy, isotropic, isotropic_stiffness,
                        lumped_mass, make_regularized_l1)
from conftest import (random_spd_density, reference_element_data,
                      reference_stiffness, shuffled_mesh)


def test_lumped_mass_interior_vertex_2d():
    # an interior Kuhn vertex touches 6 triangles of area h^2/2
    mesh = build_uniform_mesh(2, 0.5, 4)
    m = lumped_mass(mesh)
    h = mesh.mesh_size
    interior = ~mesh.boundary_mask
    np.testing.assert_allclose(m[interior], h * h, rtol=1e-13)


@pytest.mark.parametrize("dim,n", [(2, 5), (3, 3)])
def test_lumped_mass_total_is_domain_volume(dim, n):
    mesh = build_uniform_mesh(dim, 0.5, n)
    assert lumped_mass(mesh).sum() == pytest.approx(1.0, rel=1e-13)


def test_discrete_inner_product_of_ones():
    mesh = build_uniform_mesh(2, 0.5, 6)
    m = lumped_mass(mesh)
    ones = np.ones(mesh.n_vertices)
    assert (m * ones) @ ones == pytest.approx(1.0, rel=1e-13)


def test_anisotropic_stiffness_isotropic_matches_laplacian(mesh2d_small):
    k_iso = isotropic_stiffness(mesh2d_small)
    u = np.random.default_rng(0).uniform(-1, 1, mesh2d_small.n_vertices)
    k = assemble_anisotropic_stiffness(mesh2d_small, isotropic(2), u)
    assert abs(k - k_iso).max() <= 1e-13


def test_anisotropic_stiffness_constant_state_uses_zero_branch(mesh2d_small):
    # for two identity weights, B(0) = L sum G = 4 I
    aniso = AnisotropyDensity([np.eye(2), np.eye(2)])
    k = assemble_anisotropic_stiffness(mesh2d_small, aniso,
                                       np.full(mesh2d_small.n_vertices, 0.3))
    assert abs(k - 4.0 * isotropic_stiffness(mesh2d_small)).max() <= 1e-12


def test_stiffness_annihilates_constants(mesh2d_small):
    u = np.random.default_rng(1).uniform(-1, 1, mesh2d_small.n_vertices)
    k = assemble_anisotropic_stiffness(mesh2d_small, make_regularized_l1(2, 0.3), u)
    assert np.abs(k @ np.ones(mesh2d_small.n_vertices)).max() <= 1e-12


def test_stiffness_exactly_symmetric(mesh2d_small):
    u = np.random.default_rng(2).uniform(-1, 1, mesh2d_small.n_vertices)
    for aniso in (make_regularized_l1(2, 0.01), random_spd_density()):
        k = assemble_anisotropic_stiffness(mesh2d_small, aniso, u)
        assert abs(k - k.T).max() == 0.0


def test_affine_dirichlet_energy(mesh2d_medium):
    # (K u) . u = integral |grad f|^2 = |a|^2 (2H)^d for affine f = a.x + b
    rng = np.random.default_rng(3)
    a = rng.standard_normal(2)
    u = mesh2d_medium.vertices @ a + 0.2
    k = isotropic_stiffness(mesh2d_medium)
    assert (k @ u) @ u == pytest.approx(a @ a, rel=1e-12)


def test_energy_form_consistency(mesh2d_medium):
    # u.K(u)u = sum_sigma 2 |sigma| A(grad u) = |gamma(grad u)|_0^2
    rng = np.random.default_rng(4)
    u = rng.uniform(-1, 1, mesh2d_medium.n_vertices)
    for aniso in (make_regularized_l1(2, 0.1), random_spd_density()):
        k = assemble_anisotropic_stiffness(mesh2d_medium, aniso, u)
        quad = (k @ u) @ u
        grads = mesh2d_medium.element_gradients(u)
        volume = reference_element_data(mesh2d_medium)[0]
        direct = float(volume @ (2.0 * aniso.a_value(grads)))
        assert quad == pytest.approx(direct, rel=1e-12)


def test_mobility_constant_scales_laplacian(mesh2d_small):
    u = np.random.default_rng(5).uniform(-1, 1, mesh2d_small.n_vertices)
    k_b = assemble_mobility_stiffness(mesh2d_small, u, lambda v: np.full_like(v, 2.0))
    assert abs(k_b - 2.0 * isotropic_stiffness(mesh2d_small)).max() <= 1e-12


def test_mobility_degenerate_pure_phase_gives_zero_matrix(mesh2d_small):
    u = np.ones(mesh2d_small.n_vertices)
    k_b = assemble_mobility_stiffness(mesh2d_small, u, lambda v: 1.0 - v * v)
    assert abs(k_b).max() == 0.0


def test_mobility_vertex_mean_rule():
    # values {0, 1, 1} on every element: mean of b = (1 + 0 + 0)/3
    mesh = build_uniform_mesh(2, 0.5, 1)
    u = np.array([0.0, 1.0, 1.0, 1.0])
    k_b = assemble_mobility_stiffness(mesh, u, lambda v: 1.0 - v * v)
    assert abs(k_b - isotropic_stiffness(mesh) / 3.0).max() <= 1e-15


def test_mobility_rejects_negative_values(mesh2d_small):
    u = np.zeros(mesh2d_small.n_vertices)
    with pytest.raises(ValueError):
        assemble_mobility_stiffness(mesh2d_small, u, lambda v: v - 1.0)


def _plateau_field(mesh, seed):
    """Random field clipped to [-1, 1], so whole elements sit on a plateau
    and get the zero-gradient branch."""
    u = np.random.default_rng(seed).uniform(-3.0, 3.0, mesh.n_vertices)
    return np.clip(u, -1.0, 1.0)


def _assert_matches_reference(k, ref, rtol=1e-13):
    np.testing.assert_array_equal(k.indptr, ref.indptr)
    np.testing.assert_array_equal(k.indices, ref.indices)
    assert abs(k - ref).max() <= rtol * abs(ref).max()
    assert abs(k - k.T).max() == 0.0


@pytest.mark.parametrize("dim,n", [(2, 12), (3, 4)])
@pytest.mark.parametrize("density", ["spd3", "spd1", "l1reg", "iso"])
def test_anisotropic_stiffness_matches_reference_assembly(dim, n, density):
    # "spd1", a single weight matrix that is not the identity, takes the
    # one-term shortcut: the far field, with no band correction
    mesh = build_uniform_mesh(dim, 0.5, n)
    aniso = {"spd3": random_spd_density(dim, n_terms=3),
             "spd1": random_spd_density(dim, n_terms=1),
             "l1reg": make_regularized_l1(dim, 0.01),
             "iso": isotropic(dim)}[density]
    u = _plateau_field(mesh, 6)
    grads = mesh.element_gradients(u)
    zero = np.linalg.norm(grads, axis=1) == 0.0
    assert zero.any() and not zero.all()
    k = assemble_anisotropic_stiffness(mesh, aniso, u)
    _assert_matches_reference(k, reference_stiffness(mesh, aniso.b_matrix(grads)))


@pytest.mark.parametrize("dim,n", [(2, 12), (3, 4)])
def test_mobility_and_isotropic_stiffness_match_reference_assembly(dim, n):
    mesh = build_uniform_mesh(dim, 0.5, n)
    eye = np.broadcast_to(np.eye(dim), (mesh.n_elements, dim, dim))
    _assert_matches_reference(isotropic_stiffness(mesh),
                              reference_stiffness(mesh, eye))
    u = _plateau_field(mesh, 7)
    k_b = assemble_mobility_stiffness(mesh, u, lambda v: 1.0 - v * v)
    factor = (1.0 - u * u)[mesh.elements].mean(axis=1)
    _assert_matches_reference(
        k_b, reference_stiffness(mesh, factor[:, None, None] * eye))


@pytest.mark.parametrize("dim", [2, 3])
def test_element_blocks_are_kept_per_class(dim):
    mesh = build_uniform_mesh(dim, 0.5, 4)
    aniso = make_regularized_l1(dim, 0.1)
    nloc = dim + 1
    assert (stiffness_blocks(mesh, aniso.matrices).shape
            == (aniso.n_terms, mesh.n_classes, nloc, nloc))
    assert isotropic_block(mesh).shape == (mesh.n_classes, nloc, nloc)


def test_slot_map_is_built_once_per_mesh(monkeypatch):
    builds = []
    build = anisofield.mesh._build_slot_map

    def counting(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(anisofield.mesh, "_build_slot_map", counting)
    mesh = build_uniform_mesh(2, 0.5, 6)
    u = _plateau_field(mesh, 8)
    assemble_anisotropic_stiffness(mesh, make_regularized_l1(2, 0.1), u)
    assemble_anisotropic_stiffness(mesh, isotropic(2), -u)
    isotropic_stiffness(mesh)
    assemble_mobility_stiffness(mesh, u, lambda v: 1.0 - v * v)
    assert len(builds) == 1


@pytest.mark.parametrize("dim,n,variant,chunk", [
    (2, 12, "kuhn", 7), (3, 4, "kuhn", 7), (2, 12, "one_class", 7),
    (3, 5, "shuffled", 7), (2, 129, "kuhn", None), (3, 18, "kuhn", None)])
def test_whole_mesh_scatters_are_one_bincount(dim, n, variant, chunk,
                                              monkeypatch):
    # 2d N=129 has 33,282 and 3d N=18 34,992 elements, neither a multiple
    # of the chunk; chunk 7 gives the small meshes many uneven chunks
    if chunk is not None:
        monkeypatch.setattr(anisofield.fem, "_CHUNK", chunk)
    assert anisofield.fem._CHUNK < n ** dim * math.factorial(dim)
    assert n ** dim * math.factorial(dim) % anisofield.fem._CHUNK
    mesh = build_uniform_mesh(dim, 0.5, n)
    if variant == "one_class":
        mesh = SimplicialMesh(dim, 0.5, n, mesh.vertices, mesh.elements,
                              mesh.boundary_mask, np.arange(mesh.n_elements))
    elif variant == "shuffled":
        perm = np.random.default_rng(11).permutation(mesh.n_vertices)
        mesh = shuffled_mesh(mesh, perm)
    slots, classes, nnz = (mesh.slot_map.slots, mesh.element_class,
                           mesh.slot_map.nnz)

    def one_bincount(block, weight=1.0):
        local = block[classes] * np.asarray(weight)[..., None, None]
        return np.bincount(slots.ravel(), weights=local.ravel(),
                           minlength=nnz)

    share = (mesh.class_volume / (dim + 1))[classes]
    np.testing.assert_array_equal(
        lumped_mass(mesh),
        np.bincount(mesh.elements.ravel(), weights=np.repeat(share, dim + 1),
                    minlength=mesh.n_vertices))
    block = isotropic_block(mesh)
    np.testing.assert_array_equal(isotropic_stiffness(mesh).data,
                                  one_bincount(block))
    aniso = make_regularized_l1(dim, 0.01)
    blocks = stiffness_blocks(mesh, aniso.matrices)
    np.testing.assert_array_equal(
        far_field_stiffness(mesh, aniso, blocks),
        aniso.n_terms * sum(one_bincount(b) for b in blocks))
    u = _plateau_field(mesh, 12)
    weight = (1.0 - u * u)[mesh.elements].mean(axis=1)
    np.testing.assert_array_equal(
        assemble_mobility_stiffness(mesh, u, lambda v: 1.0 - v * v).data,
        one_bincount(block, weight))
    assert not any(arr.flags.writeable for arr in mesh.slot_map)


def _traced_peak(func, *args):
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_3d_set_up_builds_no_element_table():
    # bounds from array sizes at 3d N=16 (24,576 elements): the mesh build
    # holds no (n_elements, d+1, d) point table, and the far field neither
    # an (n_elements, (d+1)^2) copy of the slots nor one of the blocks
    dim, n = 3, 16
    n_elements = math.factorial(dim) * n ** dim
    peak = _traced_peak(build_uniform_mesh, dim, 0.5, n)
    assert peak < n_elements * (dim + 1) * dim * 8
    mesh = build_uniform_mesh(dim, 0.5, n)
    nnz = mesh.slot_map.nnz
    aniso = make_regularized_l1(dim, 0.01)
    blocks = stiffness_blocks(mesh, aniso.matrices)
    peak = _traced_peak(far_field_stiffness, mesh, aniso, blocks)
    assert peak < (n_elements * (dim + 1) ** 2 + 3 * nnz) * 8


def test_flat_elements_take_the_zero_branch_despite_rounding():
    # on the Kuhn elements with one class per element, the P1 gradient of
    # this constant is of rounding size (up to 3.6e-15) on 180 of the 2738
    # elements; equal vertex values still mean B(0) and no gradient
    # energy, not c_l up to (1 + delta) / delta
    kuhn = build_uniform_mesh(2, 0.5, 37)
    mesh = SimplicialMesh(2, 0.5, 37, kuhn.vertices, kuhn.elements,
                          kuhn.boundary_mask, np.arange(kuhn.n_elements))
    aniso = make_regularized_l1(2, 0.01)
    u = np.full(mesh.n_vertices, 0.7071)
    assert np.count_nonzero(mesh.element_gradients(u).any(axis=1)) == 180
    k = assemble_anisotropic_stiffness(mesh, aniso, u)
    b0 = aniso.n_terms * aniso.matrices.sum(axis=0)
    _assert_matches_reference(k, reference_stiffness(
        mesh, np.broadcast_to(b0, (mesh.n_elements, 2, 2))))
    assert discrete_energy(mesh, aniso, 0.05, u).gradient_energy == 0.0


def _band_field(mesh, seed):
    """A seeded diffuse sphere: exactly +-1 plateaus and a band of random
    values across a radial profile between them."""
    rng = np.random.default_rng(seed)
    center = rng.uniform(-0.1, 0.1, mesh.dim)
    dist = 0.25 - np.linalg.norm(mesh.vertices - center, axis=1)
    noise = rng.uniform(-0.2, 0.2, mesh.n_vertices)
    return np.clip(dist / 0.08 + noise, -1.0, 1.0)


@pytest.mark.parametrize("shuffle", [False, True], ids=["kuhn", "shuffled"])
@pytest.mark.parametrize("dim,n,density", [(2, 24, "l1reg"), (3, 8, "iso"),
                                           (3, 8, "l1reg")])
def test_band_assembly_and_energy_match_full_element_sums(dim, n, density,
                                                          shuffle):
    mesh = build_uniform_mesh(dim, 0.5, n)
    u = _band_field(mesh, 9)
    if shuffle:
        perm = np.random.default_rng(10).permutation(mesh.n_vertices)
        mesh, u = shuffled_mesh(mesh, perm), u[perm]
    aniso = (make_regularized_l1(dim, 0.01) if density == "l1reg"
             else isotropic(dim))
    values = u[mesh.elements]
    flat = (values == values[:, :1]).all(axis=1)
    assert 0.05 < 1.0 - flat.mean() < 0.5
    grads = mesh.element_gradients(u)
    # so the oracle's B(grad u) takes the B(0) branch on every flat element
    assert not grads[flat].any()
    # the band read by local vertex: the same elements and the same bits
    np.testing.assert_array_equal(mesh.local_vertices, mesh.elements.T)
    assert not mesh.local_vertices.flags.writeable
    band, band_grads = interface_band(mesh, u)
    np.testing.assert_array_equal(band, np.flatnonzero(~flat))
    np.testing.assert_array_equal(band_grads, grads[band])
    k = assemble_anisotropic_stiffness(mesh, aniso, u)
    _assert_matches_reference(
        k, reference_stiffness(mesh, aniso.b_matrix(grads)), rtol=1e-14)
    eps = 0.05
    volume = reference_element_data(mesh)[0]
    full = math.fsum(0.5 * eps * volume * aniso.gamma(grads) ** 2)
    energy = discrete_energy(mesh, aniso, eps, u).gradient_energy
    assert energy == pytest.approx(full, rel=1e-14)

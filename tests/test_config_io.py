"""Config grammar, CSV contract, VTK snapshots and the files of a run."""

import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from anisofield import (Circle, ConfigError, MultiCircle, Uniform,
                        build_uniform_mesh, emit_config, parse_config,
                        run_simulation)
from anisofield.output import (CSV_HEADER, CsvRecord, EnergyCsvWriter,
                               write_vtk_snapshot)

ROOT = Path(__file__).resolve().parents[1]

MINIMAL = """
[scheme]
scheme = allen_cahn
tau = 1e-4
t_end = 0.05
"""


def test_defaults_resolve_to_canonical_experiment():
    setup = parse_config(MINIMAL)
    assert setup.dim == 2
    assert setup.half_width == 0.5
    assert setup.subdivisions == 128
    assert setup.scheme.eps_inv == pytest.approx(16.0 * math.pi, rel=0)
    assert setup.scheme.c_psi == math.pi / 2
    assert setup.anisotropy_spec == "iso"
    assert isinstance(setup.geometry, Circle)
    assert setup.geometry.radius == 0.3


def test_parse_emit_round_trip():
    text = """
[domain]
dim = 2
half_width = 0.5
subdivisions = 32

[anisotropy]
spec = l1reg:0.01:rot=45

[scheme]
scheme = cahn_hilliard_neumann
tau = 1e-6
t_end = 1e-4
theta = eps
alpha = 1.2732395447351628
mobility = degenerate

[geometry]
kind = circles
items = -0.22,0,0.2 ; 0.25,0,0.15

[output]
snapshot_every = 10
"""
    setup = parse_config(text)
    emitted = emit_config(setup)
    again = parse_config(emitted)
    assert emit_config(again) == emitted
    assert again.scheme == setup.scheme
    assert again.geometry == setup.geometry
    np.testing.assert_array_equal(again.anisotropy.matrices,
                                  setup.anisotropy.matrices)
    assert again.run_id == setup.run_id


def test_explicit_matrices_round_trip():
    text = """
[anisotropy]
matrices = 1,0,0,1 ; 0.25,0.1,0.1,2.0
""" + MINIMAL
    setup = parse_config(text)
    assert setup.anisotropy.n_terms == 2
    again = parse_config(emit_config(setup))
    np.testing.assert_array_equal(again.anisotropy.matrices,
                                  setup.anisotropy.matrices)


def test_malformed_matrix_entry_names_its_key():
    with pytest.raises(ConfigError,
                       match=r"^\[anisotropy\] matrices: not a number: 'abc'"):
        parse_config("[anisotropy]\nmatrices = abc,0,0,1\n" + MINIMAL)


def test_theta_eps_token():
    setup = parse_config(MINIMAL.replace("t_end = 0.05",
                                         "t_end = 0.05\ntheta = eps"))
    assert setup.scheme.theta == pytest.approx(1.0 / (16.0 * math.pi))


@pytest.mark.parametrize("eps_inv", ["0", "-1"])
def test_theta_eps_needs_a_positive_eps_inv(eps_inv):
    with pytest.raises(ConfigError, match="eps_inv must be positive"):
        parse_config(MINIMAL + f"eps_inv = {eps_inv}\ntheta = eps\n")


def test_missing_required_keys():
    with pytest.raises(ConfigError):
        parse_config("[scheme]\nscheme = allen_cahn\ntau = 1e-4\n")
    with pytest.raises(ConfigError):
        parse_config("[scheme]\ntau = 1e-4\nt_end = 1.0\n")


def test_w_bdry_conflict_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("t_end = 0.05",
                                     "t_end = 0.05\nw_bdry = -64"))


def test_degenerate_l1_delta_rejected():
    with pytest.raises(ConfigError):
        parse_config("[anisotropy]\nspec = l1reg:0\n" + MINIMAL)


def test_unknown_key_and_section_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\n[scheme2]\nfoo = 1\n")
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("tau = 1e-4", "tau = 1e-4\nbogus = 3"))
    with pytest.raises(ConfigError):
        parse_config("[scheme]\nscheme = allen_cahn\nscheme = allen_cahn\n"
                     "tau = 1e-4\nt_end = 1.0\n")
    with pytest.raises(ConfigError,
                       match=r"unknown key 'preset' in \[scheme\]"):
        parse_config(MINIMAL + "preset = fig1\n")


def test_fig1_config_is_the_faceting_circle():
    setup = parse_config((ROOT / "configs" / "fig1.cfg").read_text())
    assert setup.scheme.scheme == "allen_cahn"
    assert setup.scheme.tau == 1e-4
    assert setup.scheme.t_end == 0.05
    assert setup.anisotropy_spec == "l1reg:0.01"
    assert setup.geometry == Circle((0.0, 0.0), 0.3)


def test_fig4_config_is_the_boundary_layer_onset():
    setup = parse_config((ROOT / "configs" / "fig4.cfg").read_text())
    assert setup.scheme.scheme == "cahn_hilliard_dirichlet"
    assert setup.scheme.tau == 1e-5
    assert setup.scheme.t_end == 1e-3
    assert setup.anisotropy_spec == "l1reg:0.01"
    assert setup.scheme.w_bdry == -65.0
    assert setup.geometry == Uniform(1.0)


def test_3d_rotation_spec_strings():
    text = """
[domain]
dim = 3

[anisotropy]
spec = l1reg:0.3:rot=z,30

[geometry]
kind = sphere
center = 0,0,0
radius = 0.3
""" + MINIMAL
    setup = parse_config(text)
    assert setup.anisotropy.dim == 3
    # rotation about z leaves the z weight axis in place
    p = np.array([0.0, 0.0, 2.0])
    assert setup.anisotropy.gamma(p) == pytest.approx(
        parse_config(text.replace(":rot=z,30", "")).anisotropy.gamma(p),
        rel=1e-12)
    # the spec is named once in the message
    with pytest.raises(ConfigError, match=r"^anisotropy spec '[^']*': axis must"):
        parse_config(text.replace("rot=z,30", "rot=w,30"))


def test_cuboid_geometry_parses():
    text = """
[domain]
dim = 3

[geometry]
kind = cuboid
center = 0,0,0
half_extents = 0.4,0.05,0.05
""" + MINIMAL
    geo = parse_config(text).geometry
    from anisofield import Cuboid

    assert geo == Cuboid((0.0, 0.0, 0.0), (0.4, 0.05, 0.05))
    again = parse_config(emit_config(parse_config(text)))
    assert again.geometry == geo


def test_geometry_kinds_parse():
    text = "[geometry]\nkind = circles\nitems = -0.2,0,0.2 ; 0.25,0,0.15\n" + MINIMAL
    geo = parse_config(text).geometry
    assert isinstance(geo, MultiCircle)
    assert len(geo.circles) == 2
    with pytest.raises(ConfigError):
        parse_config("[geometry]\nkind = sphere\ncenter = 0,0\nradius = 0.3\n"
                     + MINIMAL)  # sphere needs dim 3
    with pytest.raises(ConfigError, match=r"\['radius'\].*'uniform'"):
        parse_config("[geometry]\nkind = uniform\nvalue = 1\nradius = 0.3\n"
                     + MINIMAL)
    with pytest.raises(ConfigError, match="'hexagon'"):
        parse_config("[geometry]\nkind = hexagon\n" + MINIMAL)


# a complete [geometry] section of each kind, in the dim it needs
GEOMETRIES = {
    "circle": (2, {"center": "0,0", "radius": "0.3"}),
    "circles": (2, {"items": "-0.2,0,0.2 ; 0.25,0,0.15"}),
    "sphere": (3, {"center": "0,0,0", "radius": "0.3"}),
    "cuboid": (3, {"center": "0,0,0", "half_extents": "0.4,0.05,0.05"}),
    "uniform": (2, {"value": "1"}),
}


def _geometry_text(kind, keys):
    lines = [f"[domain]\ndim = {GEOMETRIES[kind][0]}\n\n[geometry]",
             f"kind = {kind}"] + [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n" + MINIMAL


@pytest.mark.parametrize("kind,key", [(kind, key) for kind, (_, keys)
                                      in GEOMETRIES.items() for key in keys])
def test_geometry_without_a_required_key_names_kind_and_key(kind, key):
    keys = dict(GEOMETRIES[kind][1])
    setup = parse_config(_geometry_text(kind, keys))
    assert parse_config(emit_config(setup)).geometry == setup.geometry
    del keys[key]
    with pytest.raises(ConfigError, match=rf"'{kind}'.*'{key}'"):
        parse_config(_geometry_text(kind, keys))


DIM3 = "[domain]\ndim = 3\n[geometry]\nkind = sphere\ncenter = 0,0,0\n" \
       "radius = 0.3\n"

# every ConfigError of config text: text, exact message
CONFIG_ERRORS = [
    ("foo\n", "line 1: expected key = value"),
    ("[bogus]\n", "line 1: unknown section [bogus]"),
    ("dim = 2\n", "line 1: key outside any section"),
    (MINIMAL + "bogus = 1\n", "line 6: unknown key 'bogus' in [scheme]"),
    (MINIMAL + "tau = 2\n", "line 6: duplicate key 'tau'"),
    ("[domain]\nhalf_width = abc\n" + MINIMAL,
     "[domain] half_width: not a number: 'abc'"),
    ("[domain]\nhalf_width = inf\n" + MINIMAL,
     "[domain] half_width: not finite: 'inf'"),
    ("[domain]\nsubdivisions = 1.5\n" + MINIMAL,
     "[domain] subdivisions: not an integer: '1.5'"),
    (MINIMAL + "implicit = maybe\n",
     "[scheme] implicit: not a boolean: 'maybe'"),
    ("[geometry]\nkind = circle\ncenter = 0,0,0\nradius = 0.3\n" + MINIMAL,
     "[geometry] center: expected 2 components"),
    ("[anisotropy]\nspec = iso:1\n" + MINIMAL,
     "malformed anisotropy spec 'iso:1'"),
    ("[anisotropy]\nspec = foo\n" + MINIMAL, "malformed anisotropy spec 'foo'"),
    ("[anisotropy]\nspec = l1reg:0.1:spin=30\n" + MINIMAL,
     "malformed anisotropy spec 'l1reg:0.1:spin=30'"),
    ("[anisotropy]\nspec = l1reg:abc\n" + MINIMAL,
     "anisotropy spec 'l1reg:abc': could not convert string to float: 'abc'"),
    ("[anisotropy]\nspec = l1reg:0\n" + MINIMAL,
     "anisotropy spec 'l1reg:0': delta must be positive and finite"),
    ("[anisotropy]\nspec = l1reg:0.1:rot=30,1\n" + MINIMAL,
     "anisotropy spec 'l1reg:0.1:rot=30,1': 2d rotation takes one angle"),
    (DIM3 + "[anisotropy]\nspec = l1reg:0.1:rot=30\n" + MINIMAL,
     "anisotropy spec 'l1reg:0.1:rot=30': 3d rotation takes axis,angle"),
    (DIM3 + "[anisotropy]\nspec = l1reg:0.1:rot=w,30\n" + MINIMAL,
     "anisotropy spec 'l1reg:0.1:rot=w,30': axis must be x, y, z or 0-2"),
    ("[anisotropy]\nmatrices = 1,0,0\n" + MINIMAL,
     "[anisotropy] matrices: each matrix needs 4 row-major entries, got 3"),
    ("[anisotropy]\nmatrices = 1,0,0,-1\n" + MINIMAL,
     "[anisotropy] matrices: weight matrices must be positive definite"),
    ("[anisotropy]\nspec = iso\nmatrices = 1,0,0,1\n" + MINIMAL,
     "[anisotropy] give either spec or matrices, not both"),
    ("[geometry]\nradius = 0.3\n" + MINIMAL, "[geometry] requires a kind"),
    ("[geometry]\nkind = blob\n" + MINIMAL, "[geometry] unknown kind 'blob'"),
    ("[geometry]\nkind = sphere\ncenter = 0,0\nradius = 0.3\n" + MINIMAL,
     "[geometry] sphere requires dim = 3"),
    ("[geometry]\nkind = uniform\nvalue = 1\nradius = 0.3\n" + MINIMAL,
     "[geometry] keys ['radius'] do not apply to kind 'uniform'"),
    ("[geometry]\nkind = circle\ncenter = 0,0\n" + MINIMAL,
     "[geometry] kind 'circle' requires keys ['radius']"),
    ("[scheme]\nscheme = allen_cahn\ntau = 1e-4\n",
     "[scheme] missing required key 't_end'"),
    ("[domain]\ndim = 4\n" + MINIMAL, "[domain] dim must be 2 or 3"),
    ("[domain]\nsubdivisions = 0\n" + MINIMAL,
     "[domain] half_width and subdivisions must be positive"),
    (MINIMAL + "mobility = variable\n", "[scheme] unknown mobility 'variable'"),
    (MINIMAL + "mobility = constant:abc\n",
     "[scheme] mobility: not a number: 'abc'"),
    (MINIMAL + "eps_inv = -1\n", "[scheme] eps_inv must be positive"),
    (MINIMAL.replace("allen_cahn", "heat"), "unknown scheme 'heat'"),
]


@pytest.mark.parametrize("text,message", CONFIG_ERRORS,
                         ids=[re.sub(r"\W+", "-", m).strip("-")
                              for _, m in CONFIG_ERRORS])
def test_every_config_error_names_its_cause(text, message):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert str(excinfo.value) == message


def test_a_foreign_geometry_is_not_emitted():
    setup = parse_config(MINIMAL)
    setup.geometry = object()
    with pytest.raises(ConfigError, match="^cannot emit geometry"):
        emit_config(setup)


@pytest.mark.parametrize("value", ["true", "yes", "1", "True"])
def test_implicit_true_round_trips(value):
    setup = parse_config(MINIMAL + f"implicit = {value}\n")
    assert setup.scheme.implicit is True
    emitted = emit_config(setup)
    assert "implicit = true\n" in emitted
    again = parse_config(emitted)
    assert again.scheme == setup.scheme
    assert again.run_id == setup.run_id
    assert again.run_id != parse_config(MINIMAL).run_id


# run ids of the shipped configurations: a change to parsing or emitting
# that moves one leaves its earlier run directories unrecognised
RUN_IDS = {
    "configs/fig1.cfg": "bd682412314d",
    "configs/fig4.cfg": "9c03820704fa",
    "configs/surface_diffusion.cfg": "792cf4ce43eb",
    "perfbench/ac3d_sphere.cfg": "2ca22238ae08",
}
SHIPPED = [p.relative_to(ROOT).as_posix()
           for p in sorted(ROOT.glob("configs/*.cfg"))]
SHIPPED.append("perfbench/ac3d_sphere.cfg")


@pytest.mark.parametrize("path", SHIPPED)
def test_shipped_configs_keep_their_run_ids(path):
    assert path in RUN_IDS, f"{path} has no pinned run id"
    assert parse_config((ROOT / path).read_text()).run_id == RUN_IDS[path]


# -- CSV contract -------------------------------------------------------


def _record(step, e=1.5, f=None):
    return CsvRecord(step=step, t=step * 1e-4, e_gamma_h=e, f_gamma_h=f,
                     mass=0.25, grad_energy=1.0, pot_energy=0.5,
                     stab_residual=-1e-12, solver_iters=7,
                     solver_residual=1e-13, mobility_regularized=False)


def test_csv_header_is_bit_exact(tmp_path):
    path = tmp_path / "energy.csv"
    with EnergyCsvWriter(path) as writer:
        writer.write(_record(0))
    lines = path.read_text().splitlines()
    assert lines[0] == ("step,t,E_gamma_h,F_gamma_h,mass,grad_energy,"
                        "pot_energy,stab_residual,solver_iters,"
                        "solver_residual,mobility_regularized")
    assert lines[0] == CSV_HEADER


def test_csv_stationary_rows_identical(tmp_path):
    path = tmp_path / "energy.csv"
    with EnergyCsvWriter(path) as writer:
        for step in range(3):
            writer.write(_record(step))
    rows = path.read_text().splitlines()[1:]
    tails = {row.split(",", 2)[2] for row in rows}
    assert len(rows) == 3 and len(tails) == 1


def test_csv_values_round_trip_17_digits(tmp_path):
    path = tmp_path / "energy.csv"
    value = 8.0 * math.pi
    with EnergyCsvWriter(path) as writer:
        writer.write(_record(0, e=value))
    row = path.read_text().splitlines()[1].split(",")
    assert float(row[2]) == value
    assert row[3] == ""  # F empty for non-dirichlet records


def test_csv_reopened_writer_starts_afresh(tmp_path):
    path = tmp_path / "energy.csv"
    with EnergyCsvWriter(path) as writer:
        writer.write(_record(0))
        writer.write(_record(1))
    with EnergyCsvWriter(path) as writer:  # a rerun recomputes from step 0
        for step in range(3):
            writer.write(_record(step, e=2.5))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1:] == [_record(step, e=2.5).to_line() for step in range(3)]


def test_csv_dirichlet_records_fill_f(tmp_path):
    path = tmp_path / "energy.csv"
    with EnergyCsvWriter(path) as writer:
        writer.write(_record(0, f=64.0))
    assert path.read_text().splitlines()[1].split(",")[3] == "64"


def test_csv_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        EnergyCsvWriter(path)


# -- VTK snapshots -------------------------------------------------------


def _read_vtk(path):
    """Parse a binary legacy VTK snapshot: its ASCII lines, then each array
    from the big-endian block that follows its header line."""
    data = Path(path).read_bytes()
    pos = 0
    lines = []

    def line():
        nonlocal pos
        end = data.index(b"\n", pos)
        lines.append(data[pos:end].decode("ascii"))
        pos = end + 1
        return lines[-1].split()

    def block(count, dtype):
        nonlocal pos
        values = np.frombuffer(data, dtype, count, pos)
        pos += values.nbytes
        assert data[pos:pos + 1] == b"\n"
        pos += 1
        return values

    for _ in range(4):
        line()
    _, n_points, _ = line()
    points = block(3 * int(n_points), ">f8").reshape(-1, 3)
    _, n_cells, size = line()
    cells = block(int(size), ">i4").reshape(int(n_cells), -1)
    _, n_types = line()
    cell_types = block(int(n_types), ">i4")
    _, n_data = line()
    fields = {}
    while pos < len(data):
        _, name, _, _ = line()
        assert line() == ["LOOKUP_TABLE", "default"]
        fields[name] = block(int(n_data), ">f8")
    return SimpleNamespace(lines=lines, points=points, cells=cells,
                           cell_types=cell_types, fields=fields)


def _bits(values):
    """The IEEE bit patterns of float64 values, so -0.0 differs from 0.0."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_vtk_smallest_mesh_structure(tmp_path):
    mesh = build_uniform_mesh(2, 0.5, 1)
    path = tmp_path / "snap.vtk"
    write_vtk_snapshot(path, mesh, {"U": np.zeros(4)})
    assert path.read_bytes().startswith(
        b"# vtk DataFile Version 3.0\n"
        b"anisotropic phase field snapshot\n"
        b"BINARY\nDATASET UNSTRUCTURED_GRID\nPOINTS 4 double\n")
    snap = _read_vtk(path)
    assert snap.lines[4:] == ["POINTS 4 double", "CELLS 2 8", "CELL_TYPES 2",
                              "POINT_DATA 4", "SCALARS U double 1",
                              "LOOKUP_TABLE default"]
    assert snap.cell_types.tolist() == [5, 5]
    assert snap.cells[:, 0].tolist() == [3, 3]
    assert snap.fields["U"].tolist() == [0.0] * 4


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_vtk_point_count_round_trip(tmp_path, dim, n):
    mesh = build_uniform_mesh(dim, 0.5, n)
    path = tmp_path / "snap.vtk"
    write_vtk_snapshot(path, mesh, {"U": np.zeros(mesh.n_vertices),
                                    "W": np.ones(mesh.n_vertices)})
    snap = _read_vtk(path)
    assert f"POINTS {(n + 1) ** dim} double" in snap.lines
    assert "SCALARS W double 1" in snap.lines
    assert snap.points.shape == ((n + 1) ** dim, 3)
    assert snap.fields["W"].tolist() == [1.0] * mesh.n_vertices


@pytest.mark.parametrize("dim,n", [(2, 7), (3, 3)])
def test_vtk_read_back_is_bit_exact(tmp_path, dim, n):
    mesh = build_uniform_mesh(dim, 0.5, n)
    rng = np.random.default_rng(dim)
    u = rng.uniform(-1.0, 1.0, mesh.n_vertices)
    u[:3] = [-1.0, 1.0, -0.0]
    w = rng.standard_normal(mesh.n_vertices) * 1e-7
    write_vtk_snapshot(tmp_path / "snap.vtk", mesh, {"U": u, "W": w})
    snap = _read_vtk(tmp_path / "snap.vtk")
    assert list(snap.fields) == ["U", "W"]
    np.testing.assert_array_equal(_bits(snap.fields["U"]), _bits(u))
    np.testing.assert_array_equal(_bits(snap.fields["W"]), _bits(w))
    assert np.signbit(snap.fields["U"][2])
    np.testing.assert_array_equal(_bits(snap.points[:, :dim]),
                                  _bits(mesh.vertices))
    np.testing.assert_array_equal(_bits(snap.points[:, dim:]), 0)
    np.testing.assert_array_equal(snap.cells[:, 0], dim + 1)
    np.testing.assert_array_equal(snap.cells[:, 1:], mesh.elements)
    np.testing.assert_array_equal(snap.cell_types, {2: 5, 3: 10}[dim])


def test_vtk_rejects_mismatched_field(tmp_path):
    mesh = build_uniform_mesh(2, 0.5, 1)
    with pytest.raises(ValueError):
        write_vtk_snapshot(tmp_path / "bad.vtk", mesh, {"U": np.zeros(3)})


# -- run artifacts ---------------------------------------------------------

RUN = """
[domain]
subdivisions = 16

[anisotropy]
spec = l1reg:0.3

[output]
snapshot_every = 2
""" + MINIMAL.replace("t_end = 0.05", "t_end = 5e-4")


def _run(text, out_dir, on_step=None):
    setup = parse_config(text)
    return run_simulation(setup.scheme, setup.build_mesh(), setup.anisotropy,
                          setup.geometry, out_dir=out_dir, on_step=on_step,
                          strict=False, config_text=text)


def test_run_snapshots_read_back_the_run_states(tmp_path):
    states = {}
    result = _run(RUN, tmp_path,
                  on_step=lambda state: states.update({state.n: state}))
    names = [Path(p).name for p in result.snapshot_paths]
    assert names == ["snapshot_000002.vtk", "snapshot_000004.vtk",
                     "snapshot_000005.vtk"]
    for path in result.snapshot_paths:
        snap = _read_vtk(path)
        state = states[int(Path(path).stem.split("_")[1])]
        np.testing.assert_array_equal(_bits(snap.fields["U"]), _bits(state.u))
        np.testing.assert_array_equal(_bits(snap.fields["W"]), _bits(state.w))
    assert states[5] is result.final_state


def test_run_failure_dump_reads_back_the_failing_state(tmp_path):
    result = _run(RUN.replace("t_end = 5e-4", "t_end = 5e-4\ntol = 1e-30"),
                  tmp_path)
    assert result.failed and result.final_state.n == 1
    assert [Path(p).name for p in result.snapshot_paths] == [
        "failure_000001.vtk"]
    snap = _read_vtk(tmp_path / "failure_000001.vtk")
    np.testing.assert_array_equal(_bits(snap.fields["U"]),
                                  _bits(result.final_state.u))
    np.testing.assert_array_equal(_bits(snap.fields["W"]),
                                  _bits(result.final_state.w))


def test_rerun_rewrites_an_edited_energy_csv(tmp_path):
    _run(RUN, tmp_path)
    csv_path = tmp_path / "energy.csv"
    first = csv_path.read_bytes()
    lines = first.decode().splitlines()
    lines[4] = lines[4].replace(",", ",9", 1)  # row of step 3
    csv_path.write_text("\n".join(lines) + "\n")
    assert csv_path.read_bytes() != first
    _run(RUN, tmp_path)
    assert csv_path.read_bytes() == first

"""End-to-end CLI runs on small meshes."""

import json
import os
from pathlib import Path

import pytest

from anisofield.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

TINY_RUN = """
[domain]
subdivisions = 16

[scheme]
scheme = allen_cahn
tau = 1e-4
t_end = 5e-4

[anisotropy]
spec = l1reg:0.3

[geometry]
kind = circle
center = 0,0
radius = 0.3

[output]
snapshot_every = 2
"""


def test_run_emits_artifacts(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "steps to t" in captured
    csv_path = out / "energy.csv"
    assert csv_path.exists()
    assert len(csv_path.read_text().splitlines()) == 7  # header + 6 rows
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["run_id"]
    assert manifest["csv"] == str(csv_path)
    assert manifest["status"] == "completed"
    assert set(manifest["versions"]) == {"anisofield", "python", "numpy",
                                         "scipy"}
    blas = manifest["blas"]
    assert set(blas) == {"numpy", "scipy", "OPENBLAS_NUM_THREADS",
                         "OMP_NUM_THREADS", "MKL_NUM_THREADS", "cpu_count"}
    assert blas["numpy"]["name"] and blas["scipy"]["version"]
    assert blas["OPENBLAS_NUM_THREADS"] == os.environ.get(
        "OPENBLAS_NUM_THREADS")
    assert blas["cpu_count"] == os.cpu_count()
    snapshots = sorted(p for p in os.listdir(out) if p.endswith(".vtk"))
    assert snapshots == ["snapshot_000002.vtk", "snapshot_000004.vtk",
                         "snapshot_000005.vtk"]


# a first run that completes, one that dies on a strict SolverFailure and
# one whose first step raises (the nodal mass of U fills the domain)
FIRST_RUNS = {
    "completed": (TINY_RUN, 0, "completed"),
    "aborted": (TINY_RUN.replace("t_end = 5e-4", "t_end = 5e-4\ntol = 1e-30"),
                2, "aborted"),
    "unsolvable": (TINY_RUN.replace("allen_cahn", "cahn_hilliard_neumann")
                   .replace("kind = circle\ncenter = 0,0\nradius = 0.3",
                            "kind = uniform\nvalue = 1.0"), 2, "aborted"),
}


@pytest.mark.parametrize("first_run", list(FIRST_RUNS))
def test_run_refuses_directory_of_another_run(tmp_path, capsys, first_run):
    text, code, status = FIRST_RUNS[first_run]
    first = tmp_path / "first.cfg"
    first.write_text(text)
    second = tmp_path / "second.cfg"
    second.write_text(TINY_RUN.replace("radius = 0.3", "radius = 0.25"))
    out = tmp_path / "out"
    assert main(["run", str(first), "--out", str(out)]) == code
    csv_bytes = (out / "energy.csv").read_bytes()
    manifest = (out / "manifest.json").read_bytes()
    assert json.loads(manifest)["status"] == status
    capsys.readouterr()
    assert main(["run", str(second), "--out", str(out)]) == 2
    assert "holds run" in capsys.readouterr().err
    assert (out / "energy.csv").read_bytes() == csv_bytes
    assert (out / "manifest.json").read_bytes() == manifest
    # the same configuration runs again from step 0 and, being
    # deterministic, rewrites the same rows
    assert main(["run", str(first), "--out", str(out)]) == code
    assert (out / "energy.csv").read_bytes() == csv_bytes


def test_run_reports_a_manifest_that_is_not_an_object(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text("[]")
    assert main(["run", str(CONFIGS / "fig1.cfg"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out / "manifest.json") in err
    assert not (out / "energy.csv").exists()


def test_run_reports_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[scheme]\nscheme = allen_cahn\n")
    assert main(["run", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_reports_a_missing_geometry_key(tmp_path, capsys):
    cfg = tmp_path / "no_radius.cfg"
    cfg.write_text(TINY_RUN.replace("radius = 0.3\n", ""))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'circle'" in err and "'radius'" in err
    assert "Traceback" not in err


def test_run_rejects_infinite_t_end_before_writing(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(TINY_RUN.replace("t_end = 5e-4", "t_end = inf"))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "energy.csv").exists()


NON_FINITE = {
    "half_width_nan": ("subdivisions = 16",
                       "subdivisions = 16\nhalf_width = nan"),
    "half_width_inf": ("subdivisions = 16",
                       "subdivisions = 16\nhalf_width = inf"),
    "radius_nan": ("radius = 0.3", "radius = nan"),
    "center_nan": ("center = 0,0", "center = nan,0"),
    "uniform_nan": ("kind = circle\ncenter = 0,0\nradius = 0.3",
                    "kind = uniform\nvalue = nan"),
    "l1reg_nan": ("spec = l1reg:0.3", "spec = l1reg:nan"),
    "l1reg_inf": ("spec = l1reg:0.3", "spec = l1reg:inf"),
    "rotation_nan": ("spec = l1reg:0.3", "spec = l1reg:0.3:rot=nan"),
    "matrices_nan": ("spec = l1reg:0.3", "matrices = nan,0,0,1"),
    "matrices_word": ("spec = l1reg:0.3", "matrices = abc,0,0,1"),
}


@pytest.mark.parametrize("case", list(NON_FINITE))
def test_run_rejects_non_finite_values_before_writing(tmp_path, capsys, case):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(TINY_RUN.replace(*NON_FINITE[case]))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "energy.csv").exists()


@pytest.mark.parametrize("argv", [
    ["stability-sweep", "CFG", "--tau-factors", "abc"],
    ["stability-sweep", "CFG", "--tau-factors", "1,-1"],
    ["stability-sweep", "CFG", "--steps", "0"],
    ["benchmark-circle", "CFG", "--times", "x"],
    ["verify-anisotropy", "iso", "--samples", "0"],
], ids=["tau-factors-word", "tau-factors-negative", "steps", "times",
        "samples"])
def test_bad_numeric_option_is_named_by_argparse(tmp_path, capsys, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN)
    with pytest.raises(SystemExit) as exc:
        main([str(cfg) if a == "CFG" else a for a in argv])
    assert exc.value.code == 2
    assert f"error: argument {argv[2]}:" in capsys.readouterr().err


def test_verify_anisotropy_passes(capsys):
    assert main(["verify-anisotropy", "l1reg:0.01:rot=45", "--samples", "20000",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 5


def test_benchmark_circle(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("""
[domain]
subdivisions = 32

[scheme]
scheme = allen_cahn
tau = 5e-4
t_end = 5e-3

[geometry]
kind = circle
center = 0,0
radius = 0.3
""")
    assert main(["benchmark-circle", str(cfg), "--times", "0.005"]) == 0
    assert "max error" in capsys.readouterr().out


SPHERE_RUN = """
[domain]
dim = 3
subdivisions = 8

[scheme]
scheme = allen_cahn
tau = 1e-4
t_end = 1e-3

[geometry]
kind = sphere
center = 0,0,0
radius = 0.3
"""


@pytest.mark.parametrize("which", ["fig1", "sphere"])
def test_benchmark_circle_rejects_other_than_2d_isotropic(tmp_path, capsys,
                                                           which):
    # the law r^2 = r0^2 - 2t holds for gamma(p) = |p| in 2d only
    if which == "fig1":
        cfg = CONFIGS / "fig1.cfg"  # l1reg:0.01
    else:
        cfg = tmp_path / "sphere.cfg"
        cfg.write_text(SPHERE_RUN)
    assert main(["benchmark-circle", str(cfg)]) == 2
    assert "benchmark-circle" in capsys.readouterr().err


def test_stability_sweep_reports_both_variants(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(TINY_RUN)
    assert main(["stability-sweep", str(cfg), "--tau-factors", "1e4",
                 "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert "standard" in out and "implicit" in out

"""The benchmark tracer's wrap points exist in the package.

``perfbench/tracer.py`` times the package by replacing functions at the
names the calling modules look up.  A renamed or removed wrap point shows
up in ``Tracer.missing``, and a call that bypasses a wrapped name goes
uncounted; these tests catch both without a benchmark run.
"""

import importlib.util
import math
from pathlib import Path

from anisofield import (Circle, SchemeConfig, build_uniform_mesh,
                        make_regularized_l1, obstacle, run_simulation)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_finds_every_wrap_point():
    tracer = _tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_tracer_counts_every_obstacle_round(monkeypatch):
    cfg = SchemeConfig("allen_cahn", eps_inv=16.0 * math.pi, tau=1e-4,
                       t_end=5e-4)
    mesh = build_uniform_mesh(2, 0.5, 16)
    tracer = _tracer()
    factors, factor_spd = [], obstacle._factor_spd

    def counting_factor_spd(mat, **kwargs):
        factors.append(mat.shape[0])
        return factor_spd(mat, **kwargs)

    try:
        tracer.install()
        monkeypatch.setattr(obstacle, "_factor_spd", counting_factor_spd)
        result = run_simulation(cfg, mesh, make_regularized_l1(2, 0.01),
                                Circle((0.0, 0.0), 0.3))
    finally:
        monkeypatch.undo()
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("obstacle.solve_obstacle") == 5
    assert "obstacle.coloring" not in names
    assert tracer.counts["obstacle.polish_rounds"] == sum(
        r.solver_iters for r in result.records)
    # every round factors its inactive block by the banded Cholesky
    assert len(factors) == tracer.counts["obstacle.polish_rounds"]
    # the tracer's factor span wraps splu, which the obstacle loop no
    # longer calls; this line flips when the benchmark moves its wrap point
    assert names.count("obstacle.factor") == 0


def test_tracer_sees_every_run_file_write(tmp_path):
    cfg = SchemeConfig("allen_cahn", eps_inv=16.0 * math.pi, tau=1e-4,
                       t_end=5e-4, snapshot_every=2)
    mesh = build_uniform_mesh(2, 0.5, 16)
    tracer = _tracer()
    try:
        tracer.install()
        result = run_simulation(cfg, mesh, make_regularized_l1(2, 0.01),
                                Circle((0.0, 0.0), 0.3), out_dir=tmp_path,
                                config_text="snapshot_every = 2")
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert len(result.snapshot_paths) == 3
    assert names.count("output.vtk") == len(result.snapshot_paths)
    # __init__, one write per row and close
    assert names.count("output.csv") == len(result.records) + 2
    assert names.count("output.manifest") == 1

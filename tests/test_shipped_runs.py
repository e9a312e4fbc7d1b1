"""Every shipped configuration runs to its t_end, and the run is checked
from its own files, ``energy.csv`` and ``manifest.json``, alone."""

import csv
import json
import shutil
from pathlib import Path

import pytest

from anisofield import parse_config
from anisofield.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = sorted(p.stem for p in CONFIGS.glob("*.cfg"))

# Largest drift of the nodal mass allowed for the conserved Neumann scheme,
# which conserves it up to roundoff: surface_diffusion drifts by 2.3e-14
# over its 100 steps.
MASS_DRIFT = 1e-12


def check_run(run_dir):
    """Check the paper's guarantees on a finished run from its files.

    The run completed all t_end / tau steps; the energy (F_gamma_h under
    Dirichlet data, else E_gamma_h) rose by at most 10 ``tol`` per step;
    ``stab_residual`` is at most 10 ``tol`` and ``solver_residual`` at most
    ``tol`` on every step; the conserved Neumann scheme kept its mass to
    MASS_DRIFT; and the manifest's ``kkt_residual_max``,
    ``energy_increase_flags`` and ``flow_time`` agree with the rows.
    Raises AssertionError naming the first failed check.
    """
    manifest = json.loads((run_dir / "manifest.json").read_text())
    with open(run_dir / "energy.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    config = parse_config(manifest["config"]).scheme
    tol = config.tol
    n_steps = round(config.t_end / config.tau)
    assert manifest["status"] == "completed", f"status {manifest['status']}"
    assert [int(r["step"]) for r in rows] == list(range(n_steps + 1)), \
        "rows are not steps 0 to t_end / tau"
    key = "F_gamma_h" if config.w_bdry is not None else "E_gamma_h"
    energy = [float(r[key]) for r in rows]
    rise = max(b - a for a, b in zip(energy, energy[1:]))
    assert rise <= 10.0 * tol, f"{key} rose by {rise:.3e}"
    stab = [float(r["stab_residual"]) for r in rows[1:]]
    assert max(stab) <= 10.0 * tol, f"stab_residual {max(stab):.3e}"
    solver = [float(r["solver_residual"]) for r in rows[1:]]
    assert max(solver) <= tol, f"solver_residual {max(solver):.3e}"
    if config.scheme == "cahn_hilliard_neumann":
        mass = [float(r["mass"]) for r in rows]
        drift = max(abs(m - mass[0]) for m in mass)
        assert drift <= MASS_DRIFT, f"mass drifted by {drift:.3e}"
    assert manifest["kkt_residual_max"] == max(solver), \
        "manifest kkt_residual_max disagrees with the rows"
    assert manifest["energy_increase_flags"] == sum(
        s > 10.0 * tol for s in stab), \
        "manifest energy_increase_flags disagrees with the rows"
    assert manifest["flow_time"] == n_steps * config.flow_tau, \
        "manifest flow_time disagrees with the rows"


@pytest.fixture(scope="module")
def shipped_run(tmp_path_factory):
    """The run directory of a shipped config, run once per module."""
    runs = {}

    def run(name):
        if name not in runs:
            out = tmp_path_factory.mktemp(name)
            assert main(["run", str(CONFIGS / f"{name}.cfg"),
                         "--out", str(out)]) == 0
            runs[name] = out
        return runs[name]

    return run


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_config_runs_to_its_end_and_checks_out(shipped_run, name):
    check_run(shipped_run(name))


def _edit_row(run_dir, step, column, value_of):
    """Set one cell of ``energy.csv`` to ``value_of(rows)``."""
    path = run_dir / "energy.csv"
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rows[step][column] = repr(value_of(rows))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _edit_manifest(run_dir, key, value):
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[key] = value
    path.write_text(json.dumps(manifest))


# one defect in the files of a good run: the edit and the check it fails
DEFECTS = {
    "raised-energy": (lambda d: _edit_row(
        d, 50, "E_gamma_h", lambda rows: float(rows[49]["E_gamma_h"]) + 1e-6),
        "E_gamma_h rose"),
    "residual-above-tol": (lambda d: _edit_row(
        d, 50, "solver_residual", lambda rows: 2e-9), "solver_residual"),
    "failed-status": (lambda d: _edit_manifest(d, "status", "failed"),
                      "status failed"),
    "mass-drift": (lambda d: _edit_row(
        d, 50, "mass", lambda rows: float(rows[50]["mass"]) + 1e-9),
        "mass drifted"),
    "manifest-flow-time": (lambda d: _edit_manifest(d, "flow_time", 0.0),
                           "flow_time disagrees"),
}


@pytest.mark.parametrize("defect", list(DEFECTS))
def test_check_run_rejects_a_defect(shipped_run, tmp_path, defect):
    run_dir = tmp_path / "run"
    shutil.copytree(shipped_run("surface_diffusion"), run_dir)
    check_run(run_dir)  # the copy checks out before the edit
    edit, message = DEFECTS[defect]
    edit(run_dir)
    with pytest.raises(AssertionError, match=message):
        check_run(run_dir)

"""Run artifacts: per-step energy CSV, legacy VTK snapshots, run manifest.

The CSV layout is part of the external contract: a fixed header, one row
per step and 17 significant digits, so energy monotonicity and mass
conservation can be checked from the file alone.  Snapshots use the
legacy ASCII VTK unstructured-grid format readable by any VTK viewer.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "CSV_HEADER",
    "CsvRecord",
    "EnergyCsvWriter",
    "write_energy_csv",
    "write_vtk_snapshot",
    "RunManifest",
    "run_id_for",
    "prepare_run_dir",
    "snapshot_path",
]

CSV_HEADER = ("step,t,E_gamma_h,F_gamma_h,mass,grad_energy,pot_energy,"
              "stab_residual,solver_iters,solver_residual,mobility_regularized")


@dataclass
class CsvRecord:
    step: int
    t: float
    e_gamma_h: float
    f_gamma_h: Optional[float]
    mass: float
    grad_energy: float
    pot_energy: float
    stab_residual: float
    solver_iters: int
    solver_residual: float
    mobility_regularized: bool

    def to_line(self):
        num = lambda x: f"{x:.17g}"
        f_field = "" if self.f_gamma_h is None else num(self.f_gamma_h)
        return ",".join([
            str(self.step), num(self.t), num(self.e_gamma_h), f_field,
            num(self.mass), num(self.grad_energy), num(self.pot_energy),
            num(self.stab_residual), str(self.solver_iters),
            num(self.solver_residual),
            "1" if self.mobility_regularized else "0",
        ])


class EnergyCsvWriter:
    """Append-consistent CSV writer.

    Reopening an existing file resumes after its last step index; rows
    with an already-written step are silently skipped, so interrupting
    and restarting a run never duplicates a step.
    """

    def __init__(self, path):
        self._last = -1
        if os.path.exists(path) and os.path.getsize(path) > 0:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            if not lines or lines[0] != CSV_HEADER:
                raise ValueError(f"{path} is not an energy CSV of this package")
            for line in lines[1:]:
                if line:
                    self._last = max(self._last, int(line.split(",", 1)[0]))
            self._fh = open(path, "a", encoding="utf-8")
        else:
            self._fh = open(path, "w", encoding="utf-8")
            self._fh.write(CSV_HEADER + "\n")

    def write(self, record):
        if record.step <= self._last:
            return
        self._fh.write(record.to_line() + "\n")
        self._fh.flush()
        self._last = record.step

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_energy_csv(path, records):
    """Write (or resume) the energy CSV for a sequence of step records."""
    with EnergyCsvWriter(path) as writer:
        for record in records:
            writer.write(record)


_CELL_TYPES = {2: 5, 3: 10}  # VTK triangle / tetrahedron


def _write_rows(fh, row_format, rows):
    """Write ``row_format % row`` for each row of a 2d array, formatting
    4096 rows at a time so no whole-file string is held in memory."""
    for start in range(0, len(rows), 4096):
        fh.write("".join([row_format % tuple(row)
                          for row in rows[start:start + 4096].tolist()]))


def write_vtk_snapshot(path, mesh, fields):
    """Legacy ASCII VTK snapshot of nodal scalar fields on the mesh.

    ``fields`` maps names (e.g. "U", "W") to per-vertex arrays; 2d points
    are padded with z = 0.
    """
    for name, values in fields.items():
        if np.asarray(values).shape != (mesh.n_vertices,):
            raise ValueError(f"field {name!r} does not match the vertex count")
    points = mesh.vertices
    if mesh.dim == 2:
        points = np.column_stack([points, np.zeros(mesh.n_vertices)])
    nloc = mesh.dim + 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("anisotropic phase field snapshot\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_vertices} double\n")
        _write_rows(fh, "%.17g %.17g %.17g\n", points)
        fh.write(f"CELLS {mesh.n_elements} {mesh.n_elements * (nloc + 1)}\n")
        _write_rows(fh, f"{nloc}" + " %d" * nloc + "\n", mesh.elements)
        fh.write(f"CELL_TYPES {mesh.n_elements}\n")
        fh.write("\n".join([str(_CELL_TYPES[mesh.dim])] * mesh.n_elements) + "\n")
        fh.write(f"POINT_DATA {mesh.n_vertices}\n")
        for name, values in fields.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            _write_rows(fh, "%.17g\n", np.asarray(values).reshape(-1, 1))


def run_id_for(config_text):
    """Stable short id derived from the resolved configuration text."""
    return hashlib.sha256(config_text.encode("utf-8")).hexdigest()[:12]


def prepare_run_dir(out_dir, run_id):
    """Create ``out_dir`` for the run ``run_id`` and return its file paths.

    A directory whose manifest names another run is refused, so two runs
    never share one energy CSV; the same run id resumes.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest = os.path.join(out_dir, "manifest.json")
    if os.path.exists(manifest):
        with open(manifest, "r", encoding="utf-8") as fh:
            previous = json.load(fh).get("run_id")
        if previous != run_id:
            raise ValueError(f"{out_dir} holds run {previous}, not {run_id}; "
                             "choose another output directory")
    return {
        "csv": os.path.join(out_dir, "energy.csv"),
        "manifest": manifest,
    }


def snapshot_path(out_dir, step, prefix="snapshot"):
    return os.path.join(out_dir, f"{prefix}_{step:06d}.vtk")


@dataclass
class RunManifest:
    """Reproducibility record: the resolved config, the emitted files and
    the per-step wall clock.  The manifest plus the package version fully
    determine the run."""

    run_id: str
    config_text: str
    csv_path: Optional[str]
    snapshot_paths: tuple
    step_seconds: list
    created: str

    @classmethod
    def collect(cls, config_text, csv_path, snapshot_paths, step_seconds):
        return cls(run_id=run_id_for(config_text), config_text=config_text,
                   csv_path=csv_path, snapshot_paths=snapshot_paths,
                   step_seconds=list(step_seconds),
                   created=time.strftime("%Y-%m-%dT%H:%M:%S"))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "run_id": self.run_id,
                "config": self.config_text,
                "csv": self.csv_path,
                "snapshots": list(self.snapshot_paths),
                "step_seconds": self.step_seconds,
                "created": self.created,
            }, fh, indent=2)
        return path

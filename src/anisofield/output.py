"""Run artifacts: per-step energy CSV, legacy VTK snapshots, run manifest.

The CSV layout is part of the external contract: a fixed header, one row
per step and 17 significant digits, so energy monotonicity and mass
conservation can be checked from the file alone.  Each run writes its
CSV afresh from step 0.  Snapshots use the legacy binary VTK
unstructured-grid format readable by any VTK viewer; their values read
back bit for bit.
"""

import hashlib
import json
import os
import platform
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
import scipy

from . import __version__

__all__ = [
    "CSV_HEADER",
    "CsvRecord",
    "EnergyCsvWriter",
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

    @classmethod
    def of(cls, state):
        """The row of a scheme state: its energy report and solver stats."""
        rep, stats = state.report, state.stats
        return cls(
            step=state.n, t=state.t, e_gamma_h=rep.e_gamma_h,
            f_gamma_h=rep.f_gamma_h, mass=rep.mass,
            grad_energy=rep.gradient_energy, pot_energy=rep.potential_energy,
            stab_residual=rep.stability_residual,
            solver_iters=stats.iterations, solver_residual=stats.residual,
            mobility_regularized=stats.mobility_regularized)

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
    """Writes a run's energy CSV: the header, then one flushed row per
    ``write``.

    A run recomputes from step 0, so the file always starts afresh.  A
    non-empty file whose first line is not the header is not an energy
    CSV of this package and is refused, never overwritten.
    """

    def __init__(self, path):
        if os.path.exists(path) and os.path.getsize(path) > 0:
            with open(path, "r", encoding="utf-8") as fh:
                if fh.readline().rstrip("\n") != CSV_HEADER:
                    raise ValueError(
                        f"{path} is not an energy CSV of this package")
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write(CSV_HEADER + "\n")

    def write(self, record):
        self._fh.write(record.to_line() + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


_CELL_TYPES = {2: 5, 3: 10}  # VTK triangle / tetrahedron


def write_vtk_snapshot(path, mesh, fields):
    """Legacy binary VTK snapshot of nodal scalar fields on the mesh.

    ``fields`` maps names (e.g. "U", "W") to per-vertex arrays; 2d points
    are padded with z = 0.  Each ASCII header line is followed by its
    array as one big-endian block, doubles for the points and fields and
    32-bit integers for the cells, so the values read back bit for bit.
    """
    for name, values in fields.items():
        if np.asarray(values).shape != (mesh.n_vertices,):
            raise ValueError(f"field {name!r} does not match the vertex count")
    points = mesh.vertices
    if mesh.dim == 2:
        points = np.column_stack([points, np.zeros(mesh.n_vertices)])
    cells = np.column_stack([np.full(mesh.n_elements, mesh.dim + 1),
                             mesh.elements])
    cell_types = np.full(mesh.n_elements, _CELL_TYPES[mesh.dim])
    with open(path, "wb") as fh:

        def block(header, values, dtype):
            fh.write(f"{header}\n".encode("ascii"))
            fh.write(np.asarray(values).astype(dtype).tobytes())
            fh.write(b"\n")

        fh.write(b"# vtk DataFile Version 3.0\n"
                 b"anisotropic phase field snapshot\n"
                 b"BINARY\nDATASET UNSTRUCTURED_GRID\n")
        block(f"POINTS {mesh.n_vertices} double", points, ">f8")
        block(f"CELLS {mesh.n_elements} {cells.size}", cells, ">i4")
        block(f"CELL_TYPES {mesh.n_elements}", cell_types, ">i4")
        fh.write(f"POINT_DATA {mesh.n_vertices}\n".encode("ascii"))
        for name, values in fields.items():
            block(f"SCALARS {name} double 1\nLOOKUP_TABLE default", values,
                  ">f8")


def run_id_for(config_text):
    """Stable short id derived from the resolved configuration text."""
    return hashlib.sha256(config_text.encode("utf-8")).hexdigest()[:12]


def prepare_run_dir(out_dir, run_id):
    """Create ``out_dir`` for the run ``run_id`` and return its file paths.

    A directory whose manifest names another run is refused, so two runs
    never share one energy CSV; the same run id runs again in it.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest = os.path.join(out_dir, "manifest.json")
    if os.path.exists(manifest):
        with open(manifest, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{manifest} is not a JSON object")
        previous = data.get("run_id")
        if previous != run_id:
            raise ValueError(f"{out_dir} holds run {previous}, not {run_id}; "
                             "choose another output directory")
    return {
        "csv": os.path.join(out_dir, "energy.csv"),
        "manifest": manifest,
    }


def snapshot_path(out_dir, step, prefix="snapshot"):
    return os.path.join(out_dir, f"{prefix}_{step:06d}.vtk")


def _blas_of(module):
    """Name and version of the BLAS that ``module`` was built with."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a build without the dict form
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _blas_setting():
    """The BLAS of numpy and of scipy, the BLAS thread variables (None
    when unset) and ``os.cpu_count()``.  Threaded BLAS reductions round
    differently from one thread, so the bits of a run depend on this."""
    return {"numpy": _blas_of(np), "scipy": _blas_of(scipy),
            **{var: os.environ.get(var) for var in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "cpu_count": os.cpu_count()}


@dataclass
class RunManifest:
    """Reproducibility record: the resolved config, how the run ended
    (``completed``; ``failed`` if truncated; ``aborted`` if a solver
    failure was raised), the emitted files, the per-step wall clock, the
    largest KKT residual of the steps taken (None before the first), the
    number of steps flagged for an energy increase, the CG iterations of
    the Schur-complement solves of all steps (0 off that path), the
    versions of the package, Python, numpy and scipy, the BLAS setting
    (see ``_blas_setting``) and the flow time n ``flow_tau`` of the last
    state, which the run sets.  The manifest determines the run; its
    fields are the keys of ``manifest.json``."""

    run_id: str
    status: str
    config: str
    csv: Optional[str]
    snapshots: list
    step_seconds: list
    kkt_residual_max: Optional[float]
    energy_increase_flags: int
    cg_iterations: int
    created: str
    versions: dict
    blas: dict
    flow_time: Optional[float] = None

    @classmethod
    def collect(cls, config_text, csv_path, snapshot_paths, step_seconds,
                status, kkt_residual_max, energy_increase_flags,
                cg_iterations):
        return cls(run_id_for(config_text), status, config_text, csv_path,
                   list(snapshot_paths), list(step_seconds),
                   kkt_residual_max, energy_increase_flags, cg_iterations,
                   time.strftime("%Y-%m-%dT%H:%M:%S"),
                   {"anisofield": __version__,
                    "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__},
                   _blas_setting())

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2)
        return path

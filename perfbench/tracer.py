"""Outside-in tracing of one anisofield run.

The tracer replaces layer functions by timing wrappers at the names the
calling module looks up, e.g. ``anisofield.schemes.assemble_anisotropic_stiffness``
or ``anisofield.obstacle.spla.splu``, so the package itself is not
modified.  Spans (name, start, end, parent, step) are kept in memory and
returned with the run's result, which run.py writes out; counters are
filled at the same boundaries.

A layer is the first dot-separated part of a span name.  Spans nest
strictly (one thread, stack discipline), so a span's self time is its
duration minus the durations of its direct children, and the self times
of all spans under a root add up to the root's duration.
"""

import os
import time
from collections import defaultdict

import numpy as np

import anisofield.diagnostics
import anisofield.obstacle
import anisofield.output
import anisofield.schemes
from anisofield.anisotropy import AnisotropyDensity
from anisofield.mesh import SimplicialMesh
from anisofield.output import EnergyCsvWriter, RunManifest

# Layers whose self times, plus the unattributed rest, make up the traced
# run_s.  ``bench`` is the benchmark's own per-step check and recording.
SELF_LAYERS = ("mesh", "anisotropy", "fem", "obstacle", "diagnostics",
               "schemes", "output", "bench")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, step]
        self.counts = defaultdict(float)
        self.step = 0
        self.missing = []        # wrap points absent from the package
        self._stack = []
        self._undo = []

    # -- spans ---------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.step])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def span(self, name, fn, *args, **kwargs):
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    # -- wrapping ------------------------------------------------------

    def wrap(self, owner, attr, name, record=None):
        """Time every call of ``owner.attr`` (or ``owner[attr]`` for a dict)
        as a span ``name``; ``record(result, args)`` then updates counters
        inside a ``bench.record`` span, so its cost is attributed too."""
        is_dict = isinstance(owner, dict)
        try:
            original = owner[attr] if is_dict else getattr(owner, attr)
        except (KeyError, AttributeError):
            self.missing.append(name)
            return
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.span(name, original, *args, **kwargs)
            if record is not None:
                tracer.span("bench.record", record, result, args)
            return result

        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._undo.append((owner, attr, original, is_dict))

    def install(self):
        sch, obs, out = anisofield.schemes, anisofield.obstacle, anisofield.output
        c = self.counts
        self.wrap(SimplicialMesh, "element_gradients", "mesh.element_gradients")
        self.wrap(AnisotropyDensity, "b_matrix", "anisotropy.b_matrix")
        self.wrap(AnisotropyDensity, "gamma", "anisotropy.gamma")

        def stiffness(result, args):
            c["fem.stiffness_nnz"] = max(c["fem.stiffness_nnz"], result.nnz)

        self.wrap(sch, "assemble_anisotropic_stiffness", "fem.assemble_aniso",
                  stiffness)
        self.wrap(sch, "assemble_mobility_stiffness", "fem.assemble_mobility")
        self.wrap(sch, "isotropic_stiffness", "fem.isotropic_stiffness")
        self.wrap(sch, "lumped_mass", "fem.lumped_mass")
        self.wrap(anisofield.diagnostics, "lumped_mass", "fem.lumped_mass")

        def coloring(result, args):
            c["obstacle.colors"] = max(c["obstacle.colors"], len(result))

        def obstacle_solution(result, args):
            c["obstacle.iterations"] += result.iterations
            c["obstacle.solves"] += 1
            c["obstacle.inactive_nodes"] += np.count_nonzero(
                np.abs(result.solution) < 1.0)
            c["obstacle.kkt_residual_max"] = max(
                c["obstacle.kkt_residual_max"], result.residual)

        def polish(result, args):
            c["obstacle.polish_rounds"] += result[2]

        def coupled_solution(result, args):
            u, _, stats = result
            c["obstacle.coupled_rounds"] += stats.iterations
            c["obstacle.solves"] += 1
            c["obstacle.inactive_nodes"] += np.count_nonzero(np.abs(u) < 1.0)
            c["obstacle.kkt_residual_max"] = max(
                c["obstacle.kkt_residual_max"], stats.residual)

        def factor(result, args):
            c["obstacle.factor_dim"] += args[0].shape[0]
            c["obstacle.factor_fill"] += result.L.nnz + result.U.nnz

        self.wrap(sch, "pattern_coloring", "obstacle.coloring", coloring)
        self.wrap(sch, "solve_obstacle", "obstacle.solve_obstacle",
                  obstacle_solution)
        self.wrap(obs, "_active_set_polish", "obstacle.polish", polish)
        self.wrap(sch, "solve_coupled_ch", "obstacle.solve_coupled",
                  coupled_solution)
        self.wrap(obs.spla, "splu", "obstacle.factor", factor)
        self.wrap(sch, "discrete_energy", "diagnostics.energy")
        for scheme in list(sch._STEP_FUNCTIONS):
            self.wrap(sch._STEP_FUNCTIONS, scheme, "schemes.step")

        def vtk(result, args):
            c["output.vtk_bytes"] += os.path.getsize(args[0])

        self.wrap(out, "write_vtk_snapshot", "output.vtk", vtk)
        for method in ("__init__", "write", "close"):
            self.wrap(EnergyCsvWriter, method, "output.csv")
        self.wrap(RunManifest, "write", "output.manifest")
        return self

    def uninstall(self):
        for owner, attr, original, is_dict in reversed(self._undo):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the direct children's."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, root_name, steps):
        """Per-layer metrics of the spans under the root span ``root_name``
        (the run_simulation call); setup spans outside it are reported by
        their own durations."""
        root = next(i for i, s in enumerate(self.spans) if s[0] == root_name)
        own = self.self_times()
        under = [False] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            under[i] = parent >= 0 and (parent == root or under[parent])
        total = defaultdict(float)
        calls = defaultdict(int)
        layer_self = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            if under[i]:
                layer_self[name.split(".")[0]] += own[i]
        c = self.counts
        factorizations = calls["obstacle.factor"]
        sweeps = c["obstacle.iterations"] - c["obstacle.polish_rounds"]
        m = {
            "config.parse_s": total["config.parse"],
            "mesh.build_s": total["mesh.build"],
            "mesh.element_gradients_calls": calls["mesh.element_gradients"],
            "mesh.element_gradients_s": total["mesh.element_gradients"],
            "anisotropy.b_matrix_s": total["anisotropy.b_matrix"],
            "anisotropy.gamma_s": total["anisotropy.gamma"],
            "fem.assemble_aniso_s": total["fem.assemble_aniso"],
            "fem.assemble_aniso_calls": calls["fem.assemble_aniso"],
            "fem.stiffness_nnz": c["fem.stiffness_nnz"],
            "fem.assemble_mobility_s": total["fem.assemble_mobility"],
            "fem.isotropic_stiffness_calls": calls["fem.isotropic_stiffness"],
            "fem.lumped_mass_calls": calls["fem.lumped_mass"],
            "obstacle.coloring_s": total["obstacle.coloring"],
            "obstacle.colors": c["obstacle.colors"],
            "obstacle.solve_obstacle_s": total["obstacle.solve_obstacle"],
            "obstacle.sweeps": sweeps,
            "obstacle.solve_coupled_s": total["obstacle.solve_coupled"],
            "obstacle.active_set_rounds": (c["obstacle.polish_rounds"]
                                           + c["obstacle.coupled_rounds"]),
            "obstacle.factorizations": factorizations,
            "obstacle.factor_s": total["obstacle.factor"],
            "obstacle.factor_dim_mean": c["obstacle.factor_dim"] / max(factorizations, 1),
            "obstacle.factor_fill_mean": c["obstacle.factor_fill"] / max(factorizations, 1),
            "obstacle.factorizations_per_step": factorizations / max(steps, 1),
            "obstacle.inactive_nodes_mean": (c["obstacle.inactive_nodes"]
                                             / max(c["obstacle.solves"], 1)),
            "obstacle.kkt_residual_max": c["obstacle.kkt_residual_max"],
            "diagnostics.energy_s": total["diagnostics.energy"],
            "diagnostics.energy_calls": calls["diagnostics.energy"],
            "schemes.step_s": total["schemes.step"],
            "schemes.step_self_s": layer_self["schemes"],
            "output.vtk_s": total["output.vtk"],
            "output.vtk_bytes": c["output.vtk_bytes"],
            "output.vtk_files": calls["output.vtk"],
            "output.csv_s": total["output.csv"],
            "output.manifest_s": total["output.manifest"],
            "trace.unattributed_s": own[root],
            "trace.run_s": self.spans[root][2] - self.spans[root][1],
        }
        for layer in SELF_LAYERS:
            if layer != "schemes":
                m[f"{layer}.self_s"] = layer_self[layer]
        unknown = set(layer_self) - set(SELF_LAYERS)
        if unknown:
            raise RuntimeError(f"spans of unlisted layers {sorted(unknown)}")
        return m

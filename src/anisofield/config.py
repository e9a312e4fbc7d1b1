"""Plain key=value run configuration: parsing, presets and round-trip emit.

The format is deliberately minimal (sections in brackets, ``key = value``
lines, ``#`` comments) so resolved configurations diff cleanly and the
manifest can embed them verbatim.  ``parse_config(emit_config(setup))``
reproduces ``setup`` exactly.

Anisotropy specifications are either ``iso``, ``l1reg:<delta>`` with an
optional rotation (``l1reg:<delta>:rot=<angle_deg>`` in 2d,
``l1reg:<delta>:rot=<axis>,<angle_deg>`` in 3d), or an explicit list of
row-major weight matrices.  One table declares each ``[geometry]`` kind's
class, keys and their value types for parsing, key checks and emitting.
"""

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .anisotropy import (AnisotropyDensity, isotropic, make_regularized_l1,
                         rotation_2d, rotation_3d)
from .output import run_id_for
from .schemes import (Circle, Cuboid, MultiCircle, SchemeConfig, Sphere,
                      Uniform)

__all__ = [
    "ConfigError",
    "RunSetup",
    "DEFAULT_EPS_INV",
    "parse_config",
    "emit_config",
    "parse_anisotropy_spec",
]

DEFAULT_EPS_INV = 16.0 * math.pi

# [geometry] value types, (parse(key, text, dim), emit(value)); items "x,y,r; ..."
_NUM = (lambda key, text, dim: _as_float("geometry", key, text),
        lambda value: repr(float(value)))
_VEC = (lambda key, text, dim: _vector("geometry", key, text, dim),
        lambda value: ",".join(repr(float(v)) for v in value))
_ITEMS = (lambda key, text, dim: tuple(Circle(v[:dim], v[dim]) for v in (
              _vector("geometry", key, c, dim + 1) for c in text.split(";"))),
          lambda items: "; ".join(_VEC[1]((*c.center, c.radius)) for c in items))

# each [geometry] kind: its class and its keys' value types, in field order
_GEOMETRIES = {
    "circle": (Circle, {"center": _VEC, "radius": _NUM}),
    "circles": (MultiCircle, {"items": _ITEMS}),
    "sphere": (Sphere, {"center": _VEC, "radius": _NUM}),
    "cuboid": (Cuboid, {"center": _VEC, "half_extents": _VEC}),
    "uniform": (Uniform, {"value": _NUM}),
}

_KEYS = {
    "domain": {"dim", "half_width", "subdivisions"},
    "anisotropy": {"spec", "matrices"},
    "scheme": {"preset", "scheme", "tau", "t_end", "eps_inv", "theta",
               "alpha", "mobility", "w_bdry", "implicit", "tol"},
    "geometry": {"kind"}.union(*(keys for _, keys in _GEOMETRIES.values())),
    "output": {"dir", "snapshot_every"},
}

_PRESETS = {
    "fig1": {
        "scheme": {"scheme": "allen_cahn", "tau": "1e-4", "t_end": "0.05"},
        "anisotropy": {"spec": "l1reg:0.01"},
        "geometry": {"kind": "circle", "center": "0,0", "radius": "0.3"},
    },
    "fig4": {
        "scheme": {"scheme": "cahn_hilliard_dirichlet", "tau": "1e-5",
                   "t_end": "1e-3", "w_bdry": "-65",
                   "mobility": "constant:2"},
        "anisotropy": {"spec": "l1reg:0.01"},
        "geometry": {"kind": "uniform", "value": "1"},
    },
}

_UNAVAILABLE_PRESETS = ("fig2", "fig3")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass
class RunSetup:
    """Fully resolved run: domain, anisotropy, scheme and initial geometry."""

    dim: int
    half_width: float
    subdivisions: int
    anisotropy: AnisotropyDensity
    anisotropy_spec: str
    geometry: object
    scheme: SchemeConfig
    out_dir: Optional[str] = None

    @property
    def run_id(self):
        return run_id_for(emit_config(self))

    def build_mesh(self):
        from .mesh import build_uniform_mesh

        return build_uniform_mesh(self.dim, self.half_width, self.subdivisions)


def _parse_sections(text):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        sections[current][key] = value
    return sections


def _as_float(section, key, value):
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not a number: {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"[{section}] {key}: not finite: {value!r}")
    return number


def _as_int(section, key, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not an integer: {value!r}") from None


def _as_bool(section, key, value):
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"[{section}] {key}: not a boolean: {value!r}")


def _vector(section, key, value, length):
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != length:
        raise ConfigError(f"[{section}] {key}: expected {length} components")
    return tuple(_as_float(section, key, p) for p in parts)


def parse_anisotropy_spec(spec, dim):
    """Build a density from its textual specification."""
    tokens = spec.strip().split(":")
    if tokens[0] == "iso":
        if len(tokens) != 1:
            raise ConfigError(f"malformed anisotropy spec {spec!r}")
        return isotropic(dim)
    if tokens[0] != "l1reg" or len(tokens) not in (2, 3):
        raise ConfigError(f"malformed anisotropy spec {spec!r}")
    try:
        delta = float(tokens[1])
        aniso = make_regularized_l1(dim, delta)
    except ValueError as exc:
        raise ConfigError(f"anisotropy spec {spec!r}: {exc}") from None
    if len(tokens) == 2:
        return aniso
    rot_part = tokens[2]
    if not rot_part.startswith("rot="):
        raise ConfigError(f"malformed anisotropy spec {spec!r}")
    args = rot_part[len("rot="):].split(",")
    try:
        if dim == 2:
            if len(args) != 1:
                raise ValueError("2d rotation takes one angle")
            rot = rotation_2d(math.radians(float(args[0])))
        else:
            if len(args) != 2:
                raise ValueError("3d rotation takes axis,angle")
            axis_names = {"x": 0, "y": 1, "z": 2, "0": 0, "1": 1, "2": 2}
            if args[0].strip() not in axis_names:
                raise ValueError("axis must be x, y, z or 0-2")
            rot = rotation_3d(axis_names[args[0].strip()],
                              math.radians(float(args[1])))
        return aniso.rotate(rot)
    except ValueError as exc:
        raise ConfigError(f"anisotropy spec {spec!r}: {exc}") from None


def _parse_matrices(section_value, dim):
    mats = []
    for chunk in section_value.split(";"):
        entries = [_as_float("anisotropy", "matrices", p)
                   for p in chunk.split(",") if p.strip()]
        if len(entries) != dim * dim:
            raise ConfigError(
                f"[anisotropy] matrices: each matrix needs {dim * dim} "
                f"row-major entries, got {len(entries)}")
        mats.append(np.array(entries).reshape(dim, dim))
    try:
        return AnisotropyDensity(mats)
    except ValueError as exc:
        raise ConfigError(f"[anisotropy] matrices: {exc}") from None


def _parse_geometry(geo, dim):
    kind = geo.get("kind")
    if kind is None:
        raise ConfigError("[geometry] requires a kind")
    if kind not in _GEOMETRIES:
        raise ConfigError(f"[geometry] unknown kind {kind!r}")
    if kind == "sphere" and dim != 3:
        raise ConfigError("[geometry] sphere requires dim = 3")
    cls, keys = _GEOMETRIES[kind]
    extra = sorted(set(geo) - {"kind", *keys})
    if extra:
        raise ConfigError(f"[geometry] keys {extra} do not apply to kind {kind!r}")
    missing = [key for key in keys if key not in geo]
    if missing:
        raise ConfigError(f"[geometry] kind {kind!r} requires keys {missing}")
    return cls(*(parse(key, geo[key], dim) for key, (parse, _) in keys.items()))


def parse_config(text):
    """Parse configuration text into a fully resolved :class:`RunSetup`."""
    sections = _parse_sections(text)
    scheme_keys = dict(sections.get("scheme", {}))

    preset = scheme_keys.pop("preset", None)
    if preset is not None:
        if preset in _UNAVAILABLE_PRESETS:
            raise ConfigError(
                f"preset {preset!r} relies on the hexagonal density whose "
                "weight matrices are not published; approximate it with an "
                "explicit [anisotropy] matrices = ... list instead")
        if preset not in _PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        for section, values in _PRESETS[preset].items():
            target = scheme_keys if section == "scheme" else \
                sections.setdefault(section, {})
            for key, value in values.items():
                target.setdefault(key, value)

    domain = sections.get("domain", {})
    dim = _as_int("domain", "dim", domain.get("dim", "2"))
    if dim not in (2, 3):
        raise ConfigError("[domain] dim must be 2 or 3")
    half_width = _as_float("domain", "half_width", domain.get("half_width", "0.5"))
    subdivisions = _as_int("domain", "subdivisions",
                           domain.get("subdivisions", "128"))
    if half_width <= 0 or subdivisions < 1:
        raise ConfigError("[domain] half_width and subdivisions must be positive")

    aniso_sec = sections.get("anisotropy", {})
    if "spec" in aniso_sec and "matrices" in aniso_sec:
        raise ConfigError("[anisotropy] give either spec or matrices, not both")
    if "matrices" in aniso_sec:
        aniso = _parse_matrices(aniso_sec["matrices"], dim)
        spec_str = "matrices:" + ";".join(
            ",".join(repr(float(x)) for x in mat.ravel())
            for mat in aniso.matrices)
    else:
        spec_str = aniso_sec.get("spec", "iso")
        aniso = parse_anisotropy_spec(spec_str, dim)

    for key in ("scheme", "tau", "t_end"):
        if key not in scheme_keys:
            raise ConfigError(f"[scheme] missing required key {key!r}")
    eps_inv = _as_float("scheme", "eps_inv",
                        scheme_keys.get("eps_inv", repr(DEFAULT_EPS_INV)))
    if eps_inv <= 0:
        raise ConfigError("[scheme] eps_inv must be positive")
    theta_raw = scheme_keys.get("theta", "1")
    theta = 1.0 / eps_inv if theta_raw.strip() == "eps" else _as_float(
        "scheme", "theta", theta_raw)
    mobility_raw = scheme_keys.get("mobility", "constant:2")
    if mobility_raw == "degenerate":
        mobility, b0 = "degenerate", 1.0
    elif mobility_raw.startswith("constant"):
        mobility = "constant"
        _, _, b0_raw = mobility_raw.partition(":")
        b0 = _as_float("scheme", "mobility", b0_raw) if b0_raw else 2.0
    else:
        raise ConfigError(f"[scheme] unknown mobility {mobility_raw!r}")

    output = sections.get("output", {})
    snapshot_every = _as_int("output", "snapshot_every",
                             output.get("snapshot_every", "0"))
    try:
        scheme = SchemeConfig(
            scheme=scheme_keys["scheme"],
            eps_inv=eps_inv,
            tau=_as_float("scheme", "tau", scheme_keys["tau"]),
            t_end=_as_float("scheme", "t_end", scheme_keys["t_end"]),
            theta=theta,
            alpha=_as_float("scheme", "alpha", scheme_keys.get("alpha", "1")),
            mobility=mobility,
            b0=b0,
            w_bdry=(None if "w_bdry" not in scheme_keys
                    else _as_float("scheme", "w_bdry", scheme_keys["w_bdry"])),
            snapshot_every=snapshot_every,
            implicit=_as_bool("scheme", "implicit",
                              scheme_keys.get("implicit", "false")),
            tol=_as_float("scheme", "tol", scheme_keys.get("tol", "1e-9")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    geometry = _parse_geometry(
        sections.get("geometry", {"kind": "circle", "center": "0,0" if dim == 2
                                  else "0,0,0", "radius": "0.3"}), dim)
    return RunSetup(dim=dim, half_width=half_width, subdivisions=subdivisions,
                    anisotropy=aniso, anisotropy_spec=spec_str,
                    geometry=geometry, scheme=scheme,
                    out_dir=output.get("dir"))


def _emit_geometry(geometry):
    for kind, (cls, keys) in _GEOMETRIES.items():
        if type(geometry) is cls:
            return {"kind": kind, **{key: emit(getattr(geometry, f.name))
                    for (key, (_, emit)), f in zip(keys.items(), fields(cls))}}
    raise ConfigError(f"cannot emit geometry {geometry!r}")


def emit_config(setup):
    """Canonical text for a resolved setup; parsing it reproduces the setup."""
    sc = setup.scheme
    lines = [
        "[domain]",
        f"dim = {setup.dim}",
        f"half_width = {repr(setup.half_width)}",
        f"subdivisions = {setup.subdivisions}",
        "",
        "[anisotropy]",
    ]
    if setup.anisotropy_spec.startswith("matrices:"):
        lines.append(f"matrices = {setup.anisotropy_spec[len('matrices:'):]}")
    else:
        lines.append(f"spec = {setup.anisotropy_spec}")
    mobility = ("degenerate" if sc.mobility == "degenerate"
                else f"constant:{repr(sc.b0)}")
    lines += [
        "",
        "[scheme]",
        f"scheme = {sc.scheme}",
        f"tau = {repr(sc.tau)}",
        f"t_end = {repr(sc.t_end)}",
        f"eps_inv = {repr(sc.eps_inv)}",
        f"theta = {repr(sc.theta)}",
        f"alpha = {repr(sc.alpha)}",
        f"mobility = {mobility}",
    ]
    if sc.w_bdry is not None:
        lines.append(f"w_bdry = {repr(sc.w_bdry)}")
    lines += [
        f"implicit = {'true' if sc.implicit else 'false'}",
        f"tol = {repr(sc.tol)}",
        "",
        "[geometry]",
    ]
    lines += [f"{key} = {value}" for key, value in _emit_geometry(setup.geometry).items()]
    lines += ["", "[output]", f"snapshot_every = {sc.snapshot_every}"]
    if setup.out_dir is not None:
        lines.append(f"dir = {setup.out_dir}")
    return "\n".join(lines) + "\n"

"""Plain key=value run configuration: parsing and round-trip emit.

The format is deliberately minimal (sections in brackets, ``key = value``
lines, ``#`` comments) so resolved configurations diff cleanly and the
manifest can embed them verbatim.  ``parse_config(emit_config(setup))``
reproduces ``setup`` exactly.

Anisotropy specifications are either ``iso``, ``l1reg:<delta>`` with an
optional rotation (``l1reg:<delta>:rot=<angle_deg>`` in 2d,
``l1reg:<delta>:rot=<axis>,<angle_deg>`` in 3d), or an explicit list of
row-major weight matrices.  Two tables, one of the plain keys and one of
the ``[geometry]`` kinds, declare every other key and its value type for
parsing, key checks and emitting.
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

# value types, (parse(section, key, text, dim), emit(value))
_STR = (lambda section, key, text, dim: text, str)
_INT = (lambda section, key, text, dim: _as_int(section, key, text), str)
_BOOL = (lambda section, key, text, dim: _as_bool(section, key, text),
         lambda value: "true" if value else "false")
_NUM = (lambda section, key, text, dim: _as_float(section, key, text),
        lambda value: repr(float(value)))
_VEC = (lambda section, key, text, dim: _vector(section, key, text, dim),
        lambda value: ",".join(repr(float(v)) for v in value))
# [geometry] items "x,y,r; ..."
_ITEMS = (lambda section, key, text, dim: tuple(Circle(v[:dim], v[dim]) for v in (
              _vector(section, key, c, dim + 1) for c in text.split(";"))),
          lambda items: "; ".join(_VEC[1]((*c.center, c.radius)) for c in items))

# theta: a number or the token eps, resolved to 1/eps_inv by parse_config
_THETA = (lambda section, key, text, dim:
          text if text == "eps" else _NUM[0](section, key, text, dim), _NUM[1])
_REQUIRED = object()

# [domain], [scheme] and [output] keys in emit order: value type, default
# text (_REQUIRED: none, None: unset); each fills the field of its name, but
# dir fills RunSetup.out_dir and mobility both mobility and b0
_PLAIN = {
    "domain": {"dim": (_INT, "2"), "half_width": (_NUM, "0.5"),
               "subdivisions": (_INT, "128")},
    "scheme": {"scheme": (_STR, _REQUIRED), "tau": (_NUM, _REQUIRED),
               "t_end": (_NUM, _REQUIRED),
               "eps_inv": (_NUM, repr(DEFAULT_EPS_INV)),
               "theta": (_THETA, "1"), "alpha": (_NUM, "1"),
               "mobility": (_STR, "constant:2"), "w_bdry": (_NUM, None),
               "implicit": (_BOOL, "false"), "tol": (_NUM, "1e-9")},
    "output": {"snapshot_every": (_INT, "0"), "dir": (_STR, None)},
}

# each [geometry] kind: its class and its keys' value types, in field order
_GEOMETRIES = {
    "circle": (Circle, {"center": _VEC, "radius": _NUM}),
    "circles": (MultiCircle, {"items": _ITEMS}),
    "sphere": (Sphere, {"center": _VEC, "radius": _NUM}),
    "cuboid": (Cuboid, {"center": _VEC, "half_extents": _VEC}),
    "uniform": (Uniform, {"value": _NUM}),
}

# every section's keys, in emit order
_KEYS = {
    "domain": set(_PLAIN["domain"]),
    "anisotropy": {"spec", "matrices"},
    "scheme": set(_PLAIN["scheme"]),
    "geometry": {"kind"}.union(*(keys for _, keys in _GEOMETRIES.values())),
    "output": set(_PLAIN["output"]),
}


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
    return cls(*(parse("geometry", key, geo[key], dim)
                 for key, (parse, _) in keys.items()))


def parse_config(text):
    """Parse configuration text into a fully resolved :class:`RunSetup`."""
    sections = _parse_sections(text)
    values = {}
    for section, keys in _PLAIN.items():
        given = sections.get(section, {})
        for key, ((parse, _), default) in keys.items():
            raw = given.get(key, default)
            if raw is _REQUIRED:
                raise ConfigError(f"[{section}] missing required key {key!r}")
            values[key] = None if raw is None else parse(section, key, raw, None)
    dim = values["dim"]
    if dim not in (2, 3):
        raise ConfigError("[domain] dim must be 2 or 3")
    if values["half_width"] <= 0 or values["subdivisions"] < 1:
        raise ConfigError("[domain] half_width and subdivisions must be positive")

    aniso_sec = sections.get("anisotropy", {})
    if "spec" in aniso_sec and "matrices" in aniso_sec:
        raise ConfigError("[anisotropy] give either spec or matrices, not both")
    if "matrices" in aniso_sec:
        aniso = _parse_matrices(aniso_sec["matrices"], dim)
        spec_str = "matrices:" + ";".join(
            _VEC[1](mat.ravel()) for mat in aniso.matrices)
    else:
        spec_str = aniso_sec.get("spec", "iso")
        aniso = parse_anisotropy_spec(spec_str, dim)

    mobility, _, b0 = values["mobility"].partition(":")
    if values["mobility"] == "degenerate":
        b0 = 1.0
    elif mobility == "constant":
        b0 = _as_float("scheme", "mobility", b0) if b0 else 2.0
    else:
        raise ConfigError(f"[scheme] unknown mobility {values['mobility']!r}")
    values.update(mobility=mobility, b0=b0)
    if values["eps_inv"] <= 0:
        raise ConfigError("[scheme] eps_inv must be positive")
    if values["theta"] == "eps":
        values["theta"] = 1.0 / values["eps_inv"]
    try:
        scheme = SchemeConfig(**{f.name: values[f.name]
                                 for f in fields(SchemeConfig)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    geometry = _parse_geometry(sections.get("geometry", {
        "kind": "circle", "center": ",".join("0" * dim), "radius": "0.3"}), dim)
    return RunSetup(dim, values["half_width"], values["subdivisions"], aniso,
                    spec_str, geometry, scheme, values["dir"])


def _emit_geometry(geometry):
    for kind, (cls, keys) in _GEOMETRIES.items():
        if type(geometry) is cls:
            return {"kind": kind, **{key: emit(getattr(geometry, f.name))
                    for (key, (_, emit)), f in zip(keys.items(), fields(cls))}}
    raise ConfigError(f"cannot emit geometry {geometry!r}")


def emit_config(setup):
    """Canonical text for a resolved setup; parsing it reproduces the setup."""
    sc = setup.scheme
    values = {**vars(setup), **vars(sc), "dir": setup.out_dir,
              "mobility": "degenerate" if sc.mobility == "degenerate"
              else "constant:" + _NUM[1](sc.b0)}
    spec = setup.anisotropy_spec
    text = {section: {key: emit(values[key])
                      for key, ((_, emit), _) in keys.items()
                      if values[key] is not None}
            for section, keys in _PLAIN.items()}
    text["anisotropy"] = ({"matrices": spec[len("matrices:"):]}
                          if spec.startswith("matrices:") else {"spec": spec})
    text["geometry"] = _emit_geometry(setup.geometry)
    return "\n".join(f"[{section}]\n" + "".join(
        f"{key} = {value}\n" for key, value in text[section].items())
        for section in _KEYS)

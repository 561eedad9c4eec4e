"""Experiment configuration: one JSON document drives every command.

A config bundles the state space, semigroup, coefficients, noise,
simulation parameters, and checker sampling plan, with cross-module
dimensions validated up front.  A ``"preset"`` key expands to a full
document before validation; explicit top-level sections override the
preset's section wholesale.

The canonical form is fully materialized (presets expanded, defaults
filled, rates and signs listed out) and serialized with sorted keys,
so semantically identical configs hash identically.  That sha256
content hash names the run: every output file references it, and the
manifest embeds the canonical config so a manifest file can be fed
back in as ``--config`` to reproduce a run bit for bit.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coefficients import CoefficientSet, SamplerSpec
from .errors import (
    ConfigError,
    ConeSpdeError,
    read_bool,
    read_float,
    read_floats,
    read_int,
    require_array,
)
from .semigroup import DiagonalSemigroup
from .simulate import NoiseSpec, SimConfig
from .space import ConeSpec

__all__ = [
    "ExperimentConfig",
    "PRESET_NAMES",
    "preset_document",
    "canonical_json",
    "content_hash",
]

# The one stepping scheme (see ``simulate``); config documents name it.
_SCHEME = "exponential-euler"


def _heat_positive() -> dict:
    dim = 16
    return {
        "space": {"dim": dim, "cone": "nonnegative"},
        "semigroup": {"rates": "heat"},
        "coefficients": {
            "drift": {"family": "mean_reversion", "kappa": 1.0, "b": [0.5] * dim},
            "vol": [
                {"family": "proportional", "scale": 0.3, "index": j} for j in range(8)
            ],
            "jumps": [
                {"weight": 0.2, "kernel": {"family": "constant", "value": [0.1] * dim}}
            ],
        },
        "noise": {"eigenvalues": {"rule": "flat", "count": 8, "value": 1.0}, "seed": 0},
        "sim": {
            "dt": 1e-3,
            "horizon": 1.0,
            "paths": 200,
            "scheme": "exponential-euler",
            "exit_tol": 1e-8,
            "guard": 1e12,
        },
        "checker": {
            "points_per_face": 64,
            "interior_points": 64,
            "seed": 0,
            "include_corners": True,
        },
        "initial": [0.0] * dim,
    }


def _heat_positive_badvol() -> dict:
    doc = _heat_positive()
    bad = [0.0] * 16
    bad[0] = 0.3
    doc["coefficients"]["vol"].append({"family": "constant", "value": bad})
    doc["noise"]["eigenvalues"] = {"rule": "flat", "count": 9, "value": 1.0}
    return doc


def _heat_positive_hidden() -> dict:
    doc = _heat_positive()
    push = [0.0] * 16
    push[1] = -5.0
    doc["coefficients"]["drift"] = {
        "family": "sum",
        "terms": [
            doc["coefficients"]["drift"],
            {
                "family": "gated_offset",
                "vector": push,
                "gate_index": 2,
                "low": 6.0,
                "high": 7.0,
            },
        ],
    }
    start = [0.0] * 16
    start[2] = 6.5
    doc["initial"] = start
    return doc


_PRESETS = {
    "heat-positive": _heat_positive,
    "heat-positive-badvol": _heat_positive_badvol,
    "heat-positive-hidden": _heat_positive_hidden,
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_document(name: str) -> dict:
    """Full config document for a named preset."""
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    return _PRESETS[name]()


def _expand(doc: dict) -> dict:
    """Resolve the preset shortcut; user sections replace preset sections."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if "config" in doc and "hash" in doc:
        # A run manifest embeds the canonical config; accept it whole.
        doc = doc["config"]
        if not isinstance(doc, dict):
            raise ConfigError("manifest 'config' entry must be an object")
    doc = copy.deepcopy(doc)
    name = doc.pop("preset", None)
    if name is None:
        return doc
    if not isinstance(name, str):
        raise ConfigError(f"preset: must be a preset name, got {name!r}")
    base = preset_document(name)
    base.update(doc)
    return base


def _section(doc: dict, key: str, required: bool = True) -> dict:
    val = doc.get(key)
    if val is None:
        if required:
            raise ConfigError(f"{key}: missing section")
        return {}
    if not isinstance(val, dict):
        raise ConfigError(f"{key}: must be an object, got {type(val).__name__}")
    return val


def _field(section: dict, path: str, key: str, default=None, required: bool = False):
    if key not in section:
        if required:
            raise ConfigError(f"{path}.{key}: missing")
        return default
    return section[key]


@contextlib.contextmanager
def _reading(section: str):
    """Report a bad value met while building ``section`` as a
    ConfigError naming the section (errors that name it already pass).
    Inside, ``read_int``, ``read_bool`` and ``read_float`` may name a
    field relative to the section, as in ``sim: paths: must be an
    integer, got 2.7``."""
    try:
        yield
    except (ConeSpdeError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError) and str(exc).startswith(
            (f"{section}.", f"{section}:", f"{section}[")
        ):
            raise
        raise ConfigError(f"{section}: {exc}") from exc


def _noise_from(doc: dict) -> NoiseSpec:
    eigs = _field(doc, "noise", "eigenvalues", required=True)
    seed = read_int("seed", doc.get("seed", NoiseSpec.seed))
    if isinstance(eigs, dict):
        rule = _field(eigs, "noise.eigenvalues", "rule", required=True)
        count = read_int(
            "eigenvalues.count", _field(eigs, "noise.eigenvalues", "count", required=True)
        )
        if rule == "flat":
            if "value" not in eigs:
                return NoiseSpec.flat(count, seed=seed)
            return NoiseSpec.flat(count, read_float("noise.eigenvalues.value", eigs["value"]), seed)
        if rule == "dyadic":
            return NoiseSpec.dyadic(count, seed)
        raise ConfigError(f"noise.eigenvalues.rule: unknown rule {rule!r}")
    return NoiseSpec(
        tuple(read_float(f"noise.eigenvalues[{i}]", x) for i, x in enumerate(eigs)), seed
    )


@dataclass(eq=False)
class ExperimentConfig:
    """Validated experiment: all parts share one dimension, and the
    initial state ``h0`` is a read-only ``(dim,)`` float64 array.

    Equality-sensitive uses should compare ``to_dict()`` documents (the
    canonical form); the object itself holds live arrays.
    """

    cone: ConeSpec
    semigroup: DiagonalSemigroup
    coeffs: CoefficientSet
    noise: NoiseSpec
    sim: SimConfig
    sampler: SamplerSpec
    h0: np.ndarray
    check_tol: float | None = None

    @property
    def dim(self) -> int:
        return self.cone.dim

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = _expand(doc)

        space = _section(doc, "space")
        dim = read_int("space.dim", _field(space, "space", "dim", required=True))
        if dim < 1:
            raise ConfigError(f"space.dim: must be a positive integer, got {dim!r}")
        cone_doc = _field(space, "space", "cone", required=True)
        if cone_doc == "nonnegative":
            cone = ConeSpec.nonnegative(dim)
        elif isinstance(cone_doc, dict) and "signs" in cone_doc:
            with _reading("space.cone"):
                cone = ConeSpec.from_config(cone_doc)
            if cone.dim != dim:
                raise ConfigError(
                    f"space.cone: {cone.dim} signs for dimension {dim}"
                )
        else:
            raise ConfigError(
                "space.cone: expected 'nonnegative' or an object with 'signs'"
            )

        with _reading("semigroup"):
            sg = DiagonalSemigroup.from_config(_section(doc, "semigroup"), dim)

        with _reading("coefficients"):
            coeffs = CoefficientSet.from_config(_section(doc, "coefficients"), dim)
        if coeffs.dim != dim:
            raise ConfigError(f"coefficients: maps of dimension {coeffs.dim} for dimension {dim}")

        noise_doc = _section(doc, "noise")
        with _reading("noise"):
            noise = _noise_from(noise_doc)
        if noise.count != len(coeffs.vol_columns):
            raise ConfigError(
                f"noise: {noise.count} eigenvalues for "
                f"{len(coeffs.vol_columns)} volatility columns"
            )

        sim_doc = _section(doc, "sim")
        with _reading("sim"):
            scheme = str(_field(sim_doc, "sim", "scheme", default=_SCHEME))
            if scheme != _SCHEME:
                raise ConfigError(f"unknown scheme {scheme!r}")
            sim = SimConfig(
                dt=read_float("sim.dt", _field(sim_doc, "sim", "dt", required=True)),
                horizon=read_float("sim.horizon", _field(sim_doc, "sim", "horizon", required=True)),
                paths=read_int("paths", _field(sim_doc, "sim", "paths", required=True)),
                exit_tol=read_float("sim.exit_tol", sim_doc.get("exit_tol", SimConfig.exit_tol)),
                guard=read_float("sim.guard", sim_doc.get("guard", SimConfig.guard)),
            )
            # read so that a bad value still fails, then dropped: no run
            # keeps whole trajectories (see ``to_dict``)
            read_bool("store_trajectories", sim_doc.get("store_trajectories", False))

        chk = _section(doc, "checker", required=False)
        with _reading("checker"):
            sampler = SamplerSpec(
                points_per_face=read_int(
                    "points_per_face", chk.get("points_per_face", SamplerSpec.points_per_face)
                ),
                interior_points=read_int(
                    "interior_points", chk.get("interior_points", SamplerSpec.interior_points)
                ),
                seed=read_int("seed", chk.get("seed", SamplerSpec.seed)),
                include_corners=read_bool(
                    "include_corners", chk.get("include_corners", SamplerSpec.include_corners)
                ),
            )
            tol = chk.get("tol")
            tol = None if tol is None else read_float("checker.tol", tol)
        if tol is not None and tol <= 0:
            raise ConfigError(f"checker.tol: must be > 0, got {tol}")

        init = doc.get("initial")
        if init is None:
            raise ConfigError("initial: missing section")
        with _reading("initial"):
            h0 = require_array("initial", read_floats("initial", init), ("N",))
        if h0.shape[0] != dim:
            raise ConfigError(f"initial: {h0.shape[0]} coordinates for dimension {dim}")

        return cls(
            cone=cone,
            semigroup=sg,
            coeffs=coeffs,
            noise=noise,
            sim=sim,
            sampler=sampler,
            h0=h0,
            check_tol=tol,
        )

    def to_dict(self) -> dict:
        """Canonical, fully materialized document."""
        doc = {
            "space": {"dim": self.dim, "cone": self.cone.to_config()},
            "semigroup": self.semigroup.to_config(),
            "coefficients": self.coeffs.to_config(),
            "noise": {
                "eigenvalues": [float(x) for x in self.noise.eigenvalues],
                "seed": int(self.noise.seed),
            },
            "sim": {
                "dt": float(self.sim.dt),
                "horizon": float(self.sim.horizon),
                "paths": int(self.sim.paths),
                "scheme": _SCHEME,
                "exit_tol": float(self.sim.exit_tol),
                "guard": float(self.sim.guard),
                # always false: the key keeps every hash of a config
                # that wrote it, and a config that set it true names the
                # same run as its false twin
                "store_trajectories": False,
            },
            "checker": {
                "points_per_face": int(self.sampler.points_per_face),
                "interior_points": int(self.sampler.interior_points),
                "seed": int(self.sampler.seed),
                "include_corners": self.sampler.include_corners,
            },
            "initial": [float(x) for x in self.h0],
        }
        if self.check_tol is not None:
            doc["checker"]["tol"] = float(self.check_tol)
        return doc

    def content_hash(self) -> str:
        return content_hash(self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        p = Path(path)
        try:
            text = p.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {p}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{p}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        return cls.from_dict(doc)


def canonical_json(doc: dict) -> str:
    """Deterministic serialization: sorted keys, minimal separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def content_hash(doc: dict) -> str:
    """sha256 of the canonical form; the run's content address."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()

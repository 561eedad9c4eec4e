"""Experiment configuration: one JSON document drives every command.

A config bundles the state space, semigroup, coefficients, noise,
simulation parameters, and checker sampling plan, with cross-module
dimensions validated up front.  A ``"preset"`` key expands to a full
document before validation; explicit top-level sections override the
preset's section wholesale.

``from_dict`` reads the ``space``, ``semigroup`` and ``coefficients``
sections itself and the rest through ``coefficients.read_fields``;
``to_dict`` writes them back likewise, through ``write_fields``.

The canonical form is fully materialized (presets expanded, defaults
filled, rates and signs listed out) and serialized with sorted keys,
so semantically identical configs hash identically.  That sha256
content hash names the run: every output file references it, and the
manifest embeds the canonical config so a manifest file can be fed
back in as ``--config`` to reproduce a run bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coefficients import CoefficientSet, SamplerSpec, map_from_config, read_fields, write_fields
from .errors import (
    ConfigError,
    ConeSpdeError,
    check_keys,
    read_bool,
    read_float,
    read_floats,
    read_int,
    read_list,
    read_object,
    require_array,
    require_int,
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

# the sections a document must hold; ``checker`` may be left out
_SECTIONS = ("space", "semigroup", "coefficients", "noise", "sim", "initial")


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
    if "config" in read_object("config", doc) and "hash" in doc:
        # A run manifest embeds the canonical config; accept it whole.
        doc = read_object("config", doc["config"])
    doc = dict(doc)  # the top level only: sections are replaced, never edited
    name = doc.pop("preset", None)
    if name is None:
        return doc
    if not isinstance(name, str):
        raise ConfigError(f"preset: must be a preset name, got {name!r}")
    base = preset_document(name)
    base.update(doc)
    return base


@contextlib.contextmanager
def _reading(section: str):
    """Report a bad value met while building ``section`` as a
    ConfigError naming the section (errors that name it already pass),
    as in ``sim: paths must be >= 1, got 0``; inside, a reader may name
    an entry relative to the section, as in ``semigroup: rates[0]: ...``."""
    try:
        yield
    except (ConeSpdeError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError) and str(exc).startswith(
            (f"{section}.", f"{section}:", f"{section}[")
        ):
            raise
        raise ConfigError(f"{section}: {exc}") from exc


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

    @property
    def dim(self) -> int:
        return self.cone.dim

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = _expand(doc)
        read_object("", doc, *_SECTIONS)

        space = read_object("space", doc["space"], "dim", "cone")
        with _reading("space"):
            dim = read_int("space.dim", space["dim"])
            require_int("dim", dim, 1)
        # the initial state meets dim before any array of dim entries is built
        with _reading("initial"):
            h0 = require_array("initial", read_floats("initial", doc["initial"]), ("N",))
        if h0.shape[0] != dim:
            raise ConfigError(f"initial: {h0.shape[0]} coordinates for dimension {dim}")
        cone_doc = space["cone"]
        if isinstance(cone_doc, str) and cone_doc == "nonnegative":
            cone = ConeSpec.nonnegative(dim)
        elif isinstance(cone_doc, dict) and "signs" in cone_doc:
            with _reading("space.cone"):
                cone = ConeSpec(read_floats("signs", cone_doc["signs"]))
            if cone.dim != dim:
                raise ConfigError(
                    f"space.cone: {cone.dim} signs for dimension {dim}"
                )
            check_keys("space.cone", cone_doc, ("signs",))
        else:
            raise ConfigError(
                "space.cone: expected 'nonnegative' or an object with 'signs'"
            )
        check_keys("space", space, ("dim", "cone"))

        sg_doc = read_object("semigroup", doc["semigroup"])
        with _reading("semigroup"):
            rates = sg_doc.get("rates")
            if isinstance(rates, str):
                if rates != "heat":
                    raise ConfigError(f"unknown rates rule {rates!r}")
                # the heat rule takes the space's dimension as its own
                sg = DiagonalSemigroup.heat(dim)
            elif rates is None:
                raise ConfigError("semigroup config needs a 'rates' entry")
            else:
                sg = DiagonalSemigroup(read_floats("rates", rates))
            if sg.dim != dim:
                raise ConfigError(f"semigroup dim {sg.dim} does not match space dim {dim}")
            check_keys("", sg_doc, ("rates",))

        coeff_doc = read_object("coefficients", doc["coefficients"])
        with _reading("coefficients"):
            drift = map_from_config(read_object("", coeff_doc, "drift")["drift"], dim)
            # a volatility map reads at its position in the list
            columns = read_list("vol", coeff_doc.get("vol", []))
            vols = tuple(map_from_config(c, dim, index=j) for j, c in enumerate(columns))
            atoms = []
            for i, entry in enumerate(read_list("jumps", coeff_doc.get("jumps", []))):
                read_object(f"jumps[{i}]", entry, "weight", "kernel")
                weight = read_float(f"jumps[{i}].weight", entry["weight"])
                atoms.append((weight, map_from_config(entry["kernel"], dim)))
                check_keys(f"jumps[{i}]", entry, ("weight", "kernel"))
            coeffs = CoefficientSet(drift, vols, tuple(atoms))
            check_keys("", coeff_doc, ("drift", "vol", "jumps"))
        if coeffs.dim != dim:
            raise ConfigError(f"coefficients: maps of dimension {coeffs.dim} for dimension {dim}")

        with _reading("noise"):
            noise = read_fields(NoiseSpec, doc["noise"], "noise", len(vols))

        with _reading("sim"):
            sim_doc = dict(read_object("sim", doc["sim"]))
            scheme = str(sim_doc.pop("scheme", _SCHEME))
            if scheme != _SCHEME:
                raise ConfigError(f"unknown scheme {scheme!r}")
            # read so that a bad value still fails, then dropped: no run
            # keeps whole trajectories (see ``to_dict``)
            read_bool("store_trajectories", sim_doc.pop("store_trajectories", False))
            sim = read_fields(SimConfig, sim_doc, "sim")

        with _reading("checker"):
            chk = doc.get("checker")
            sampler = read_fields(SamplerSpec, {} if chk is None else chk, "checker")

        check_keys("", doc, (*_SECTIONS, "checker"))
        return cls(
            cone=cone,
            semigroup=sg,
            coeffs=coeffs,
            noise=noise,
            sim=sim,
            sampler=sampler,
            h0=h0,
        )

    def to_dict(self) -> dict:
        """Canonical, fully materialized document."""
        return {
            "space": {"dim": self.dim, "cone": {"signs": self.cone.signs.tolist()}},
            "semigroup": {"rates": self.semigroup.rates.tolist()},
            "coefficients": {
                "drift": self.coeffs.drift.to_config(),
                "vol": [c.to_config() for c in self.coeffs.vol_columns],
                "jumps": [
                    {"weight": w, "kernel": g.to_config()} for w, g in self.coeffs.jump_atoms
                ],
            },
            "noise": write_fields(self.noise),
            "sim": {
                **write_fields(self.sim),
                "scheme": _SCHEME,
                # always false: the key keeps every hash of a config
                # that wrote it, and a config that set it true names the
                # same run as its false twin
                "store_trajectories": False,
            },
            "checker": write_fields(self.sampler),
            "initial": [float(x) for x in self.h0],
        }

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

"""Config canonicalization, validation messages, and the CLI surface.

CLI tests drive the click entry points through a runner against the
built-in presets, with path-count overrides to keep runs small; the
full-size runs live in the acceptance tests.
"""

import copy
import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from conespde import ConfigError, NoiseSpec, appendix
from conespde.cli import (
    EXIT_QUIET_THRESHOLD,
    SWEEP_FACTORS,
    _strict,
    _write_json,
    _write_manifest,
    cli,
)
from conespde.coefficients import (
    GatedOffsetMap,
    ProjectedMap,
    ProportionalMap,
    RetractedMap,
    ShiftedMap,
    SumMap,
)
from conespde.config import (
    PRESET_NAMES,
    ExperimentConfig,
    canonical_json,
    content_hash,
    preset_document,
)


def combined_output(result) -> str:
    try:
        return result.output + result.stderr
    except ValueError:
        return result.output


# ---------------------------------------------------------------- canonical form


class TestCanonicalJson:
    def test_key_order_insensitive(self):
        a = {"b": 1, "a": {"y": 2, "x": 3}}
        b = {"a": {"x": 3, "y": 2}, "b": 1}
        assert canonical_json(a) == canonical_json(b)
        assert content_hash(a) == content_hash(b)

    def test_minimal_separators(self):
        assert canonical_json({"a": [1, 2]}) == '{"a":[1,2]}'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_hash_shape(self):
        h = content_hash({"a": 1})
        assert len(h) == 64 and set(h) <= set("0123456789abcdef")


# ---------------------------------------------------------------- presets


class TestPresets:
    def test_names(self):
        assert PRESET_NAMES == (
            "heat-positive",
            "heat-positive-badvol",
            "heat-positive-hidden",
        )

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="available:"):
            preset_document("heat-negative")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_validate_and_round_trip(self, name):
        ec = ExperimentConfig.from_dict(preset_document(name))
        assert ec.dim == 16
        doc = ec.to_dict()
        again = ExperimentConfig.from_dict(doc)
        assert again.to_dict() == doc
        assert again.content_hash() == ec.content_hash()

    def test_badvol_adds_column(self):
        ec = ExperimentConfig.from_dict(preset_document("heat-positive-badvol"))
        assert len(ec.coeffs.vol_columns) == 9
        assert ec.noise.count == 9

    def test_hidden_starts_in_gate_band(self):
        ec = ExperimentConfig.from_dict(preset_document("heat-positive-hidden"))
        assert ec.h0[2] == 6.5

    def test_preset_shortcut_key(self):
        via_key = ExperimentConfig.from_dict({"preset": "heat-positive"})
        direct = ExperimentConfig.from_dict(preset_document("heat-positive"))
        assert via_key.to_dict() == direct.to_dict()

    def test_preset_overlay_replaces_section_wholesale(self):
        ec = ExperimentConfig.from_dict(
            {"preset": "heat-positive", "sim": {"dt": 2e-3, "horizon": 1.0, "paths": 10}}
        )
        assert ec.sim.dt == 2e-3 and ec.sim.paths == 10
        # unspecified keys of the replaced section fall back to defaults
        assert ec.to_dict()["sim"]["scheme"] == "exponential-euler"

    def test_optional_keys_default_to_the_preset(self):
        # the preset writes every default out; the dataclasses hold them
        doc = preset_document("heat-positive")
        for key in ("scheme", "exit_tol", "guard"):
            del doc["sim"][key]
        del doc["noise"]["seed"]
        del doc["noise"]["eigenvalues"]["value"]
        del doc["checker"]
        bare = ExperimentConfig.from_dict(doc)
        full = ExperimentConfig.from_dict(preset_document("heat-positive"))
        assert bare.to_dict() == full.to_dict()
        assert bare.content_hash() == full.content_hash()

    def test_manifest_document_accepted(self):
        doc = preset_document("heat-positive")
        manifest = {"hash": "ignored", "config": doc, "outputs": []}
        ec = ExperimentConfig.from_dict(manifest)
        assert ec.to_dict() == ExperimentConfig.from_dict(doc).to_dict()

    def test_distinct_presets_hash_differently(self):
        hashes = {
            ExperimentConfig.from_dict(preset_document(n)).content_hash()
            for n in PRESET_NAMES
        }
        assert len(hashes) == 3

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_bytes_pinned(self, name):
        # the canonical JSON of each preset's load-and-write round trip,
        # recorded before the config sections were read by declared fields
        ec = ExperimentConfig.from_dict(preset_document(name))
        assert content_hash(ec.to_dict()) == PRESET_HASHES[name]


PRESET_HASHES = {
    "heat-positive": "29c8d075d29baf479d5dcfc1113d45437d55b2484edd3e35d8ba91823d36b18c",
    "heat-positive-badvol": "9dd3e0e136f0988589fdd776e0ca8619a6e7bcebc0fcaa87cae5fd3c9ec90b2f",
    "heat-positive-hidden": "1ded9eae47ff18ba4a31faa047cdd31f4bdcf0506f06a77d7d427e70c2a0d042",
}

_DELETE = object()

# one fault in a section of the heat-positive preset, and the exact
# message it raises; CHANGES.md lists those the one config reader moved
SECTION_ERRORS = {
    "dt-missing": (("sim", "dt"), _DELETE, "sim.dt: missing"),
    "paths-missing": (("sim", "paths"), _DELETE, "sim.paths: missing"),
    "dt-null": (("sim", "dt"), None, "sim.dt: must be a number, got None"),
    "paths-null": (("sim", "paths"), None, "sim.paths: must be an integer, got None"),
    "paths-zero": (("sim", "paths"), 0, "sim: paths must be >= 1, got 0"),
    "exit-tol-null": (("sim", "exit_tol"), None, "sim.exit_tol: must be a number, got None"),
    "exit-tol-negative": (("sim", "exit_tol"), -1.0, "sim: exit_tol must be >= 0, got -1.0"),
    "guard-zero": (("sim", "guard"), 0.0, "sim: guard must be > 0, got 0.0"),
    "scheme-number": (("sim", "scheme"), 5, "sim: unknown scheme '5'"),
    "store-null": (("sim", "store_trajectories"), None,
                   "sim: store_trajectories: must be true or false, got None"),
    "face-points-null": (("checker", "points_per_face"), None,
                         "checker.points_per_face: must be an integer, got None"),
    "interior-negative": (("checker", "interior_points"), -1,
                          "checker: interior_points must be >= 0, got -1"),
    "checker-seed-string": (("checker", "seed"), "1", "checker.seed: must be an integer, got '1'"),
    "corners-null": (("checker", "include_corners"), None,
                     "checker.include_corners: must be true or false, got None"),
    "tol-string": (("checker", "tol"), "1", "checker.tol: must be a number, got '1'"),
    "eigenvalues-missing": (("noise", "eigenvalues"), _DELETE, "noise.eigenvalues: missing"),
    "eigenvalues-null": (("noise", "eigenvalues"), None,
                         "noise.eigenvalues: must be a list, got None"),
    "eigenvalue-null": (("noise", "eigenvalues"), [None] * 8,
                        "noise.eigenvalues[0]: must be a number, got None"),
    "eigenvalue-nan": (("noise", "eigenvalues"), [float("nan")] * 8,
                       "noise.eigenvalues[0]: must be finite, got nan"),
    "eigenvalue-negative": (("noise", "eigenvalues"), [-1.0] * 8,
                            "noise: eigenvalues[0] must be > 0, got -1.0"),
    "noise-seed-null": (("noise", "seed"), None, "noise.seed: must be an integer, got None"),
    "noise-seed-negative": (("noise", "seed"), -1, "noise: seed must be >= 0, got -1"),
    "rule-missing": (("noise", "eigenvalues"), {"count": 8},
                     "noise.eigenvalues.rule: missing"),
    "count-missing": (("noise", "eigenvalues"), {"rule": "flat"},
                      "noise.eigenvalues.count: missing"),
    "rule-unknown": (("noise", "eigenvalues"), {"rule": 5, "count": 8},
                     "noise.eigenvalues.rule: unknown rule 5"),
}

# noise sections with two faults, and the message each raises: the seed
# is read first in both forms, as before the sections had one reader
NOISE_TWO_FAULTS = {
    "list-seed-null": ([None] * 8, None, "noise.seed: must be an integer, got None"),
    "list-seed-negative": ([None] * 8, -1, "noise.eigenvalues[0]: must be a number, got None"),
    "rule-missing-seed-negative": ({"count": 8}, -1, "noise.eigenvalues.rule: missing"),
    "rule-unknown-seed-string": ({"rule": 5, "count": 8}, "x",
                                 "noise.seed: must be an integer, got 'x'"),
    "count-string-seed-null": ({"rule": "flat", "count": "8"}, None,
                               "noise.seed: must be an integer, got None"),
}

# keys that no object declares, each dropped silently before every object
# checked its keys, and the message naming it now; then entries that are
# not the list or object they must be, most of which raised raw Python texts
UNDECLARED_KEYS = {
    "sim": (("sim", "exit_tl"), 0.5, "sim.exit_tl: undeclared key"),
    "checker": (("checker", "sed"), 1, "checker.sed: undeclared key"),
    "noise": (("noise", "sede"), 1, "noise.sede: undeclared key"),
    "space": (("space", "dmi"), 16, "space.dmi: undeclared key"),
    "semigroup": (("semigroup", "rate"), "heat", "semigroup: rate: undeclared key"),
    "coefficients": (("coefficients", "jump"), [], "coefficients: jump: undeclared key"),
    "top-level": (("sparse",), 1, "sparse: undeclared key"),
    "dyadic-value": (("noise", "eigenvalues"), {"rule": "dyadic", "count": 8, "value": 1.0},
                     "noise.eigenvalues.value: undeclared key"),
    "jump-entry": (("coefficients", "jumps", 0, "scale"), 1.0,
                   "coefficients: jumps[0].scale: undeclared key"),
    "cone": (("space", "cone"), {"signs": [1] * 16, "sign": 1}, "space.cone.sign: undeclared key"),
}
NOT_OBJECTS = {
    "jump-number": (("coefficients", "jumps"), [5],
                    "coefficients: jumps[0]: must be an object, got int"),
    "jump-missing-kernel": (("coefficients", "jumps"), [{"weight": 0.2}],
                            "coefficients: jumps[0].kernel: missing"),
    "vol-number": (("coefficients", "vol"), 5, "coefficients: vol: must be a list, got 5"),
    "jumps-object": (("coefficients", "jumps"), {}, "coefficients: jumps: must be a list, got {}"),
    "initial-object": (("initial",), {"x": 1}, "initial: must be a list, got {'x': 1}"),
    "initial-null": (("initial",), None, "initial: must be a list, got None"),
    "initial-entry-object": (("initial",), [{}] * 16, "initial[0]: must be a number, got {}"),
    "section-null": (("sim",), None, "sim: must be an object, got NoneType"),
    "signs-ragged": (("space", "cone"), {"signs": [[1], [1, 0]]},
                     "space.cone: signs[0]: must be a number, got [1]"),
}

# texts of Python's own errors that a config fault must never surface as
RAW_TEXTS = ("is not iterable", "argument must be", "argument of type", "not subscriptable",
             "unhashable")


def _nodes(doc, path=()):
    """``(path, value)`` for every object, list and leaf under ``doc``."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, (*path, key))


def _overridden(seed: int, paths: int) -> dict:
    """The document ``--seed`` and ``--paths`` make of the heat-positive preset."""
    doc = ExperimentConfig.from_dict(preset_document("heat-positive")).to_dict()
    doc["noise"]["seed"] = seed
    doc["sim"]["paths"] = paths
    return doc


def _object_name(path, obj) -> str:
    """What an undeclared-key message names the object by: a map's family,
    a list entry's ``key[i]``, else its key (nothing for the document)."""
    if "family" in obj:
        return obj["family"]
    if path and isinstance(path[-1], int):
        return f"{path[-2]}[{path[-1]}]"
    return str(path[-1]) if path else ""


# ---------------------------------------------------------------- validation


class TestValidation:
    def base(self):
        return preset_document("heat-positive")

    def test_non_object(self):
        with pytest.raises(ConfigError, match="^config: must be an object, got list$"):
            ExperimentConfig.from_dict([1, 2])

    def test_missing_space(self):
        doc = self.base()
        del doc["space"]
        with pytest.raises(ConfigError, match="^space: missing$"):
            ExperimentConfig.from_dict(doc)

    def test_bad_dim(self):
        doc = self.base()
        doc["space"]["dim"] = 0
        with pytest.raises(ConfigError, match="^space: dim must be >= 1, got 0$"):
            ExperimentConfig.from_dict(doc)
        doc["space"]["dim"] = "16"
        with pytest.raises(ConfigError, match="space.dim"):
            ExperimentConfig.from_dict(doc)

    def test_bad_cone(self):
        doc = self.base()
        doc["space"]["cone"] = "positive"
        with pytest.raises(ConfigError, match="space.cone"):
            ExperimentConfig.from_dict(doc)

    def test_rate_count_mismatch(self):
        doc = self.base()
        doc["semigroup"] = {"rates": [1.0, 2.0]}
        with pytest.raises(ConfigError, match="semigroup:.*dim 2.*16"):
            ExperimentConfig.from_dict(doc)

    def test_coefficient_dim_mismatch(self):
        # every map 2-d in a dim-16 space: the set agrees with itself, not
        # with the space
        doc = self.base()
        doc["coefficients"] = {
            "drift": {"family": "affine", "matrix": [[1, 0], [0, 1]], "offset": [0, 0]}
        }
        doc["noise"]["eigenvalues"] = []
        message = "coefficients: maps of dimension 2 for dimension 16"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ExperimentConfig.from_dict(doc)

    def test_noise_column_mismatch(self):
        doc = preset_document("heat-positive-badvol")
        doc["noise"]["eigenvalues"] = {"rule": "flat", "count": 8, "value": 1.0}
        with pytest.raises(ConfigError, match="noise: 8 eigenvalues for 9 volatility columns"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("vol", ["none", "preset"])
    @pytest.mark.parametrize("rule, count", [("flat", -3), ("dyadic", -1)], ids=["flat", "dyadic"])
    def test_negative_noise_count(self, rule, count, vol):
        # named by its own bound: with no volatility columns, no
        # column-count check would see an empty eigenvalue list
        doc = self.base()
        if vol == "none":
            doc["coefficients"]["vol"] = []
        doc["noise"]["eigenvalues"] = {"rule": rule, "count": count}
        with pytest.raises(ConfigError, match=f"^noise: count must be >= 0, got {count}$"):
            ExperimentConfig.from_dict(doc)

    def test_flat_rule_value_defaults_to_the_rule(self):
        doc = self.base()
        doc["noise"]["eigenvalues"] = {"rule": "flat", "count": 8}
        noise = ExperimentConfig.from_dict(doc).noise
        assert noise.eigenvalues == NoiseSpec.flat(8).eigenvalues

    def test_unknown_noise_rule(self):
        doc = self.base()
        doc["noise"]["eigenvalues"] = {"rule": "geometric", "count": 8}
        with pytest.raises(ConfigError, match="noise.eigenvalues.rule"):
            ExperimentConfig.from_dict(doc)

    def test_bad_scheme_wrapped(self):
        doc = self.base()
        doc["sim"]["scheme"] = "milstein"
        with pytest.raises(ConfigError, match="sim:"):
            ExperimentConfig.from_dict(doc)

    def test_checker_tol(self):
        doc = self.base()
        doc["checker"]["tol"] = 0.0
        with pytest.raises(ConfigError, match="^checker: tol must be > 0, got 0.0$"):
            ExperimentConfig.from_dict(doc)

    def test_missing_initial(self):
        doc = self.base()
        del doc["initial"]
        with pytest.raises(ConfigError, match="^initial: missing$"):
            ExperimentConfig.from_dict(doc)

    def test_initial_length(self):
        doc = self.base()
        doc["initial"] = [0.0] * 4
        with pytest.raises(ConfigError, match="initial: 4 coordinates for dimension 16"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("checker", "points_per_face", "x"),
            ("coefficients", "vol", 5),
            ("coefficients", "drift", {"family": "constant", "value": "ab"}),
            ("noise", "eigenvalues", {"rule": "flat", "count": "z"}),
        ],
    )
    def test_malformed_value_names_section(self, tmp_path, section, key, value):
        doc = self.base()
        doc[section][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"^{section}[.:]"):
            ExperimentConfig.from_dict(doc)
        res = CliRunner().invoke(cli, ["check", "--config", str(path), "--out", str(tmp_path / "r")])
        assert res.exit_code == 1
        assert re.search(f"error: {section}[.:]", combined_output(res))

    @pytest.mark.parametrize(
        "field,edit",
        [
            ("preset", lambda doc: {"preset": ["x"]}),
            ("space.dim", lambda doc: {**doc, "space": {"dim": True, "cone": "nonnegative"}}),
            ("checker.tol", lambda doc: {**doc, "checker": {"tol": "nan"}}),
            ("sim.guard", lambda doc: {**doc, "sim": {**doc["sim"], "guard": "inf"}}),
            ("sim.dt", lambda doc: {**doc, "sim": {**doc["sim"], "dt": "nan"}}),
            ("sim.dt", lambda doc: {**doc, "sim": {**doc["sim"], "dt": "-inf"}}),
            ("noise.eigenvalues[0]", lambda doc: {**doc, "noise": {"eigenvalues": ["inf"] * 8}}),
            ("sim.dt", lambda doc: {**doc, "sim": {**doc["sim"], "dt": "abc"}}),
            ("sim.dt", lambda doc: {**doc, "sim": {**doc["sim"], "dt": None}}),
            ("sim.dt", lambda doc: {**doc, "sim": {**doc["sim"], "dt": [1]}}),
            ("sim.dt", lambda doc: {**doc, "sim": {**doc["sim"], "dt": {}}}),
        ],
        ids=["preset-list", "dim-bool", "tol-nan", "guard-inf", "dt-nan", "dt-neg-inf", "eig-inf",
             "dt-abc", "dt-null", "dt-list", "dt-object"],
    )
    def test_rejected_value_names_field(self, tmp_path, field, edit):
        doc = edit(self.base())
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: "):
            ExperimentConfig.from_dict(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(cli, ["check", "--config", str(path), "--out", str(tmp_path / "r")])
        assert res.exit_code == 1
        assert f"error: {field}: " in combined_output(res)
        assert "Traceback" not in combined_output(res)

    @staticmethod
    def _set(doc, path, value):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value

    @pytest.mark.parametrize(
        "preset,path,value,message",
        [
            ("heat-positive", ("sim", "paths"), 2.7, "sim.paths: must be an integer"),
            ("heat-positive", ("sim", "paths"), True, "sim.paths: must be an integer"),
            ("heat-positive", ("sim", "store_trajectories"), "false", "sim: store_trajectories: "),
            ("heat-positive", ("checker", "include_corners"), "false", "checker.include_corners: "),
            ("heat-positive", ("checker", "points_per_face"), 8.5, "checker.points_per_face: "),
            ("heat-positive", ("space", "cone"), {"signs": [0.5] + [1] * 15}, "space.cone: "),
            ("heat-positive", ("space", "cone"), {"signs": [257] * 16}, "space.cone: "),
            ("heat-positive", ("coefficients", "vol", 0, "index"), 0.9,
             "coefficients: proportional.index: must be an integer"),
            ("heat-positive-hidden", ("coefficients", "drift", "terms", 1, "gate_index"), 2.5,
             "coefficients: gated_offset.gate_index: "),
            ("heat-positive", ("coefficients", "drift"),
             {"family": "projected", "level": 1.5, "inner": {"family": "zero"}},
             "coefficients: projected.level: "),
            ("heat-positive", ("semigroup", "dim"), 16.9,
             "semigroup: dim: undeclared key"),
            ("heat-positive", ("noise", "seed"), 1.5, "noise.seed: must be an integer"),
            ("heat-positive", ("noise", "eigenvalues", "count"), 8.9, "noise.eigenvalues.count: "),
        ],
    )
    def test_no_silent_truncation(self, preset, path, value, message):
        doc = preset_document(preset)
        self._set(doc, path, value)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "path,message",
        [
            (("coefficients", "jumps", 0, "weight"), "coefficients: jumps[0].weight: "),
            (("coefficients", "vol", 0, "scale"), "coefficients: proportional.scale: "),
            (("coefficients", "drift", "kappa"), "coefficients: mean_reversion.kappa: "),
            (("sim", "dt"), "sim.dt: "),
        ],
        ids=["weight", "scale", "kappa", "dt"],
    )
    def test_boolean_is_not_a_number(self, path, message):
        # float(True) reads 1.0
        doc = self.base()
        self._set(doc, path, True)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}must be a number, got True"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (("sim", "dt"), "0.001", "sim.dt: must be a number, got '0.001'"),
            (("initial",), ["0"] + [0.0] * 15, "initial[0]: must be a number, got '0'"),
            (("semigroup", "rates"), [1.0] * 15 + ["1.0"],
             "semigroup: rates[15]: must be a number, got '1.0'"),
            (("coefficients", "jumps", 0, "kernel", "value"), ["0.1"] * 16,
             "coefficients: constant.value[0]: must be a number"),
            (("coefficients", "drift", "b"), [0.5, "0.5"] + [0.5] * 14,
             "coefficients: mean_reversion.b[1]: must be a number"),
            (("coefficients", "drift"),
             {"family": "gated_offset", "vector": ["1"] * 16, "gate_index": 0, "low": 0, "high": 1},
             "coefficients: gated_offset.vector[0]: must be a number"),
            (("coefficients", "drift"), {"family": "tabulated", "x": ["0", 1.0], "y": [0.0, 1.0]},
             "coefficients: tabulated.x[0]: must be a number"),
            (("coefficients", "drift"), {"family": "tabulated", "x": [0.0, 1.0], "y": [0.0, "1"]},
             "coefficients: tabulated.y[1]: must be a number"),
            (("coefficients", "drift"),
             {"family": "affine", "matrix": [[0.0] * 16] * 15 + [[0.0] * 15 + ["1"]],
              "offset": [0.0] * 16},
             "coefficients: affine.matrix[15][15]: must be a number"),
            (("coefficients", "drift"), {"family": "linear", "diag": ["1"] * 16},
             "coefficients: linear.diag[0]: must be a number"),
            (("coefficients", "drift"),
             {"family": "affine", "diag": [1.0] * 16, "offset": [0.0] * 15 + ["0"]},
             "coefficients: affine.offset[15]: must be a number"),
        ],
        ids=["dt", "initial", "rates", "value", "b", "vector", "x", "y", "matrix", "diag",
             "offset"],
    )
    def test_string_is_not_a_number(self, path, value, message):
        # float("0.001") and np.asarray(["0"], dtype=float) both read numbers
        doc = self.base()
        self._set(doc, path, value)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (("sim", "dt"), 10**400, "sim.dt: "),
            (("noise", "eigenvalues", "value"), 10**400, "noise.eigenvalues.value: "),
            (("initial",), [0.0, -(10**400)] + [0.0] * 14, "initial[1]: "),
            (("semigroup", "rates"), [1.0] * 15 + [10**400], "semigroup: rates[15]: "),
        ],
        ids=["dt", "eigenvalue", "initial", "rates"],
    )
    def test_integer_too_large_for_a_float(self, path, value, message):
        # float(10**400) raises OverflowError, not ValueError
        doc = self.base()
        self._set(doc, path, value)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}must be finite"):
            ExperimentConfig.from_dict(doc)

    def test_shifted_drift_loads(self):
        # the heat-positive drift behind a level-3 dead-zone shift
        doc = self.base()
        inner = doc["coefficients"]["drift"]
        doc["coefficients"]["drift"] = {"family": "shifted", "level": 3, "eps": 0.25,
                                        "inner": inner}
        ec = ExperimentConfig.from_dict(doc)
        assert ec.coeffs.drift.to_config() == {"family": "shifted", "level": 3, "eps": 0.25,
                                               "inner": ec.coeffs.drift.inner.to_config()}
        again = ExperimentConfig.from_dict(ec.to_dict())
        assert again.content_hash() == ec.content_hash()

    @pytest.mark.parametrize(
        "drift,message",
        [
            ({"family": "shifted", "inner": {"family": "zero"}},
             "coefficients: shifted.level: missing"),
            ({"family": "shifted", "level": 2},
             "coefficients: shifted.inner: missing"),
            ({"family": "shifted", "level": -1, "inner": {"family": "zero"}},
             "coefficients: shift level must be >= 0, got -1"),
            ({"family": "shifted", "level": 2.5, "inner": {"family": "zero"}},
             "coefficients: shifted.level: must be an integer, got 2.5"),
            ({"family": "shifted", "level": 2, "eps": True, "inner": {"family": "zero"}},
             "coefficients: shifted.eps: must be a number, got True"),
            ({"family": "shifted", "level": 2, "eps": -0.5, "inner": {"family": "zero"}},
             "coefficients: shift eps must be >= 0, got -0.5"),
        ],
        ids=["missing-level", "missing-inner", "negative-level", "fractional-level",
             "boolean-eps", "negative-eps"],
    )
    def test_shifted_config_errors(self, tmp_path, drift, message):
        doc = self.base()
        doc["coefficients"]["drift"] = drift
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(cli, ["check", "--config", str(path), "--out", str(tmp_path / "r")])
        assert res.exit_code == 1
        assert f"error: {message}" in combined_output(res)
        assert "Traceback" not in combined_output(res)

    @pytest.mark.parametrize("path, value, message", SECTION_ERRORS.values(),
                             ids=SECTION_ERRORS.keys())
    def test_section_message_pinned(self, path, value, message):
        doc = self.base()
        if value is _DELETE:
            del doc[path[0]][path[1]]
        else:
            self._set(doc, path, value)
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize("eigenvalues, seed, message", NOISE_TWO_FAULTS.values(),
                             ids=NOISE_TWO_FAULTS.keys())
    def test_noise_two_faults_pinned(self, eigenvalues, seed, message):
        doc = self.base()
        doc["noise"] = {"eigenvalues": eigenvalues, "seed": seed}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize("path, value, message", UNDECLARED_KEYS.values(),
                             ids=UNDECLARED_KEYS.keys())
    def test_undeclared_key_rejected(self, path, value, message):
        doc = self.base()
        self._set(doc, path, value)
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(doc)
        assert str(exc.value) == message

    def test_undeclared_key_after_other_faults(self):
        # a section that fails for another reason reports that reason
        doc = self.base()
        doc["sim"]["exit_tl"] = 0.5
        doc["sim"]["dt"] = "x"
        with pytest.raises(ConfigError, match=r"^sim\.dt: must be a number"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("path, value, message", NOT_OBJECTS.values(), ids=NOT_OBJECTS.keys())
    def test_wrong_container_named(self, path, value, message):
        doc = self.base()
        self._set(doc, path, value)
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_object_rejects_an_undeclared_key(self, name):
        doc = preset_document(name)
        objects = [(p, v) for p, v in _nodes(doc) if isinstance(v, dict)]
        assert len(objects) >= 10
        for path, obj in objects:
            edited = target = copy.deepcopy(doc)
            for key in path:
                target = target[key]
            target["zz_extra"] = 1
            with pytest.raises(ConfigError) as exc:
                ExperimentConfig.from_dict(edited)
            message = str(exc.value)
            assert message.endswith("zz_extra: undeclared key"), (path, message)
            assert _object_name(path, obj) in message, (path, message)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_entry_replaced_loads_or_names_its_fault(self, name):
        # each object, list and leaf replaced by a value of each JSON type
        doc = preset_document(name)
        for path, _ in list(_nodes(doc))[1:]:
            for value in (None, "x", {}, [], True):
                edited = copy.deepcopy(doc)
                self._set(edited, path, value)
                try:
                    ExperimentConfig.from_dict(edited)
                except ConfigError as exc:
                    assert not any(t in str(exc) for t in RAW_TEXTS), (path, value, str(exc))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: preset_document("heat-positive-hidden"),
            lambda: {"preset": "heat-positive", "sim": {"dt": 2e-3, "horizon": 1.0, "paths": 10}},
            lambda: {"hash": "h", "config": preset_document("heat-positive"), "outputs": []},
            lambda: _overridden(seed=7, paths=10),
        ],
        ids=["preset", "overlay", "manifest", "overrides"],
    )
    def test_from_dict_leaves_its_argument_alone(self, make):
        doc = make()
        before = copy.deepcopy(doc)
        ExperimentConfig.from_dict(doc)
        assert doc == before

    def test_negative_checker_seed(self):
        doc = self.base()
        doc["checker"] = {"seed": -1}
        with pytest.raises(ConfigError, match=r"^checker: seed must be >= 0"):
            ExperimentConfig.from_dict(doc)

    def test_integral_floats_read_as_integers(self):
        doc = self.base()
        doc["sim"]["paths"] = 200.0
        doc["space"]["cone"] = {"signs": [1.0] * 16}
        doc["noise"]["seed"] = 0.0
        ec = ExperimentConfig.from_dict(doc)
        assert ec.sim.paths == 200 and ec.noise.seed == 0
        assert ec.content_hash() == ExperimentConfig.from_dict(self.base()).content_hash()


def _set(section: str, name: str):
    """Set field ``name`` of one dataclass section of a config."""
    return lambda ec, v: setattr(
        ec, section, dataclasses.replace(getattr(ec, section), **{name: v})
    )


def _drift(wrap):
    """Replace the drift by ``wrap(drift, value)``."""
    return lambda ec, v: setattr(
        ec, "coeffs", dataclasses.replace(ec.coeffs, drift=wrap(ec.coeffs.drift, v))
    )


def _first_vol(make):
    """Replace volatility column 0 by ``make(value)``."""
    return lambda ec, v: setattr(
        ec, "coeffs",
        dataclasses.replace(ec.coeffs, vol_columns=(make(v), *ec.coeffs.vol_columns[1:])),
    )


_GATE = np.zeros(16)
_GATE[1] = -5.0
# one case per scalar field a config writes: how to set it, and a NumPy
# value of it; the plain-Python twin is the same number as int or float
NUMPY_SCALARS = {
    "proportional-index": (_first_vol(lambda v: ProportionalMap(0.3, v, 16)), np.int64(0)),
    "proportional-scale": (_first_vol(lambda v: ProportionalMap(v, 0, 16)), np.float32(0.3)),
    "projected-level": (_drift(ProjectedMap), np.int64(4)),
    "shifted-level": (_drift(ShiftedMap), np.int64(4)),
    "shifted-eps": (_drift(lambda f, v: ShiftedMap(f, 2, v)), np.float32(0.1)),
    "retracted-radius": (_drift(RetractedMap), np.float32(2.5)),
    "gate-index": (_drift(lambda f, v: SumMap((f, GatedOffsetMap(_GATE, v, 6.0, 7.0)))),
                   np.int64(2)),
    "gate-band": (_drift(lambda f, v: SumMap((f, GatedOffsetMap(_GATE, 2, v, v + 1)))),
                  np.float32(6.5)),
    "noise-seed": (_set("noise", "seed"), np.int64(3)),
    "sim-paths": (_set("sim", "paths"), np.int64(10)),
    "sim-dt": (_set("sim", "dt"), np.float32(2.0**-10)),
    "sim-exit-tol": (_set("sim", "exit_tol"), np.float32(1e-8)),
    "sim-guard": (_set("sim", "guard"), np.float32(1e6)),
    "points-per-face": (_set("sampler", "points_per_face"), np.int64(5)),
    "interior-points": (_set("sampler", "interior_points"), np.int64(5)),
    "sampler-seed": (_set("sampler", "seed"), np.int64(7)),
    "check-tol": (lambda ec, v: setattr(ec, "check_tol", v), np.float32(1e-6)),
}


@pytest.mark.parametrize("case", NUMPY_SCALARS)
def test_numpy_scalars_write_as_python_numbers(case, tmp_path):
    # a NumPy scalar that the direct API accepts is written as the plain
    # number it holds, so the config hashes and writes as its twin does
    put, value = NUMPY_SCALARS[case]
    twin = (int if isinstance(value, np.integer) else float)(value)
    configs = []
    for v in (value, twin):
        ec = ExperimentConfig.from_dict(preset_document("heat-positive"))
        put(ec, v)
        configs.append(ec)
    ours, plain = configs
    assert canonical_json(ours.to_dict()) == canonical_json(plain.to_dict())
    assert ours.content_hash() == plain.content_hash()
    for ec, name in zip(configs, ("numpy", "plain")):
        (tmp_path / name).mkdir()
        _write_manifest(tmp_path / name, ec, [])
    assert (tmp_path / "numpy/manifest.json").read_bytes() == (
        tmp_path / "plain/manifest.json"
    ).read_bytes()


class TestConfigIO:
    def test_save_load_round_trip(self, tmp_path):
        ec = ExperimentConfig.from_dict(preset_document("heat-positive"))
        p = tmp_path / "cfg.json"
        p.write_text(canonical_json(ec.to_dict()) + "\n")
        again = ExperimentConfig.load(p)
        assert again.to_dict() == ec.to_dict()

    def test_json_writer_bytes(self, tmp_path):
        nan, inf = float("nan"), float("inf")
        doc = {
            "z": [1.5, nan, (inf, -inf, [0.1, {"b": nan}])],
            "a": {"text": "Gr\u00fc\u00dfe \u2264 \u03b8", "empty": [], "t": ()},
            "n": [None, True, 3],
        }
        path = tmp_path / "out.json"
        _write_json(path, doc)
        want = json.dumps(_strict(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert path.read_bytes() == want.encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    @pytest.mark.parametrize(
        "doc",
        [
            {"run": [np.float64(0.1), 2.5, np.float64(-3e-7), 1.0]},
            {"edges": [-0.0, 5e-324, 1e16, -1e16, 1.7976931348623157e308, 0.1 + 0.2]},
            {"nan": [1.0, float("nan"), 2.0], "inf": (float("inf"), -1.0, float("-inf"))},
            {"n": [np.float64("nan"), np.float64(1.5)], "x": float("nan")},
            {"flags": [True, False, 1.5], "t": (0.5, 0.25), "mixed": [1, 2.0, None, "s"]},
            {"e": {"a": [], "b": {}, "c": [[], {}, [[]]], "d": ()}, "z": [{"k": []}]},
            [[1.0, 2.0], [], [[3.0]], {"y": (4.0,)}],
            [],
            2.5,
        ],
        ids=["np-floats", "edge-floats", "non-finite", "np-non-finite", "bools-tuples",
             "empty-nests", "top-list", "top-empty", "top-scalar"],
    )
    def test_json_writer_corpus(self, tmp_path, doc):
        path = tmp_path / "out.json"
        _write_json(path, doc)
        want = json.dumps(_strict(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize(
        "doc",
        [{"a": [np.int64(3)]}, {"a": np.int64(3)}, {"a": [1.0, 2.0, object(), 3.0]}],
        ids=["np-int-in-list", "np-int", "object-in-float-run"],
    )
    def test_json_writer_rejects_and_leaves_no_file(self, tmp_path, doc):
        with pytest.raises(TypeError):
            json.dumps(_strict(doc), allow_nan=False)
        with pytest.raises(TypeError):
            _write_json(tmp_path / "out.json", doc)
        assert list(tmp_path.iterdir()) == []

    def test_json_writer_failure_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            _write_json(tmp_path / "out.json", {"a": [1.0, object()]})
        assert list(tmp_path.iterdir()) == []

    def test_load_reports_json_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"space": \n}')
        with pytest.raises(ConfigError, match=r"invalid JSON at line 2, column 1"):
            ExperimentConfig.load(p)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            ExperimentConfig.load(tmp_path / "nope.json")


# ---------------------------------------------------------------- CLI


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


# sha256 of the report.json that `check --preset <name>` writes.  The
# bytes carry every witness, magnitude and sampled-point count, so a
# sampler or checker change that moves any of them moves its digest.
REPORT_DIGESTS = {
    "heat-positive": "2f04a5e5511a5ec69370376a10a6de04e7ed43c936ad69e331ff3a2a49738ee7",
    "heat-positive-badvol": "42b4031c7dc2c182140003a676b0500e05f0df6052704351550226c8c5beac16",
    "heat-positive-hidden": "754681ccc29d8880bebd29783c508ed81e7699e7bb8807fc7abaf717c42a016e",
}


# sha256 over each output file's name and bytes, in name order, for the
# other three commands
OUTPUT_DIGESTS = {
    "simulate": (
        ["simulate", "--preset", "heat-positive", "--paths", "32"],
        "3527a7c1cb09e2167e7ec092de6192cc5f11be8b0172a8d7154ce2145cfb3ad3",
    ),
    # 30 of these 32 paths exit, so the bytes see the noise and the
    # stepping (every heat-positive row reads "<p>,<seed>,0,,0.0,-1")
    "simulate-exits": (
        ["simulate", "--preset", "heat-positive-badvol", "--paths", "32"],
        "693a8e5e529c3aa2607c76ec9a29707c5d449f55c30f610812626864cb38aa0c",
    ),
    "verify": (
        ["verify", "--preset", "heat-positive-hidden", "--paths", "32"],
        "b850d71de1e77293760ec67a640ca36055c9516545c6aab57fe8f6aac703afe4",
    ),
    "appendix": (
        ["appendix", "all", "--seed", "0"],
        "19e3ab88a93ccbc9932352402599d6a467aa883f1c9f89a70384329e74a6f6d1",
    ),
}


def output_digest(out_dir) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("command", sorted(OUTPUT_DIGESTS))
def test_output_bytes_pinned(tmp_path, command):
    args, want = OUTPUT_DIGESTS[command]
    out = tmp_path / "run"
    res = CliRunner().invoke(cli, args + ["--out", str(out)])
    assert res.exit_code == 0, combined_output(res)
    assert output_digest(out) == want


class TestCheckCommand:
    @pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
    def test_report_bytes_pinned(self, tmp_path, name):
        out = tmp_path / "run"
        res = CliRunner().invoke(cli, ["check", "--preset", name, "--out", str(out)])
        assert res.exit_code == (2 if name == "heat-positive-badvol" else 0)
        digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
        assert digest == REPORT_DIGESTS[name]

    def test_negative_checker_seed_is_an_error_line(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "heat-positive", "checker": {"seed": -1}}))
        out = tmp_path / "r"
        res = CliRunner().invoke(cli, ["check", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        assert "error: checker: seed must be >= 0" in combined_output(res)
        assert "Traceback" not in combined_output(res)

    def test_compliant_passes(self, tmp_path):
        out = tmp_path / "run"
        res = CliRunner().invoke(
            cli, ["check", "--preset", "heat-positive", "--out", str(out)]
        )
        assert res.exit_code == 0
        assert "NO VIOLATION FOUND (sampled)" in res.output
        manifest = read_manifest(out)
        report = json.loads((out / "report.json").read_text())
        assert report["hash"] == manifest["hash"]
        assert report["checker"]["verdict"] == "NO VIOLATION FOUND (sampled)"
        want = ExperimentConfig.from_dict(preset_document("heat-positive")).to_dict()
        assert manifest["config"] == want

    def test_badvol_fails_with_witness(self, tmp_path):
        out = tmp_path / "run"
        res = CliRunner().invoke(
            cli, ["check", "--preset", "heat-positive-badvol", "--out", str(out)]
        )
        assert res.exit_code == 2
        assert "VIOLATED (witness found)" in res.output
        assert "vol-parallel" in res.output
        assert "more witnesses" in res.output
        report = json.loads((out / "report.json").read_text())
        assert report["checker"]["witnesses"]

    def test_hidden_checker_blind(self, tmp_path):
        # the gated push lives strictly inside the cone, so sampling the
        # boundary cannot see it
        res = CliRunner().invoke(
            cli, ["check", "--preset", "heat-positive-hidden", "--out", str(tmp_path / "r")]
        )
        assert res.exit_code == 0

    def test_requires_exactly_one_source(self, tmp_path):
        both = CliRunner().invoke(
            cli,
            ["check", "--preset", "heat-positive", "--config", "x.json",
             "--out", str(tmp_path / "a")],
        )
        neither = CliRunner().invoke(cli, ["check", "--out", str(tmp_path / "b")])
        assert both.exit_code == 1 and neither.exit_code == 1
        assert "exactly one of --config or --preset" in combined_output(both)

    def test_non_finite_drift_is_an_error(self, tmp_path):
        # kappa (b - h) overflows to inf at every sampled point
        doc = preset_document("heat-positive")
        drift = {"family": "mean_reversion", "kappa": 1e308, "b": [1e308] * 16}
        doc["coefficients"]["drift"] = drift
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        args = ["check", "--config", str(path), "--out", str(tmp_path / "r")]
        res = CliRunner().invoke(cli, args)
        assert res.exit_code == 1
        assert "error: drift-inward: drift is not finite on face k=0" in combined_output(res)
        assert "Traceback" not in combined_output(res)

    def test_malformed_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        res = CliRunner().invoke(
            cli, ["check", "--config", str(bad), "--out", str(tmp_path / "r")]
        )
        assert res.exit_code == 1
        assert "invalid JSON at line 2, column 3" in combined_output(res)

    def test_overrides_reach_manifest(self, tmp_path):
        out = tmp_path / "run"
        res = CliRunner().invoke(
            cli,
            ["check", "--preset", "heat-positive", "--out", str(out),
             "--seed", "9", "--paths", "10", "--dt", "0.002"],
        )
        assert res.exit_code == 0
        cfg = read_manifest(out)["config"]
        assert cfg["noise"]["seed"] == 9
        assert cfg["sim"]["paths"] == 10
        assert cfg["sim"]["dt"] == 0.002


def _no_constant(name):
    raise AssertionError(f"non-standard JSON token {name}")


class TestSimulateCommand:
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_diverged_run_writes_strict_json(self, tmp_path, command):
        # a guard this small diverges every path, so the exit fraction
        # and its stderr are NaN and must be written as null
        doc = {"preset": "heat-positive",
               "sim": {"dt": 0.001, "horizon": 0.1, "paths": 4, "guard": 0.001}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        res = CliRunner().invoke(cli, [command, "--config", str(path), "--out", str(out)])
        assert res.exit_code == 0, combined_output(res)
        for written in out.glob("*.json"):
            json.loads(written.read_text(), parse_constant=_no_constant)
        name = "summary.json" if command == "simulate" else "verify.json"
        report = json.loads((out / name).read_text())
        stats = report if command == "simulate" else report["sweep"][0]
        assert stats["diverged"] == 4 and stats["exit_fraction"] is None

    def test_compliant_run(self, tmp_path):
        out = tmp_path / "run"
        res = CliRunner().invoke(
            cli,
            ["simulate", "--preset", "heat-positive", "--out", str(out), "--paths", "30"],
        )
        assert res.exit_code == 0
        manifest = read_manifest(out)
        lines = (out / "paths.csv").read_text().splitlines()
        assert lines[0] == f"# manifest {manifest['hash']}"
        assert lines[1] == "path,seed,exited,exit_time,min_margin,diverged"
        assert len(lines) == 2 + 30
        summary = json.loads((out / "summary.json").read_text())
        assert summary["hash"] == manifest["hash"]
        assert summary["dt"] == 1e-3
        assert summary["paths_counted"] == 30
        assert summary["diverged"] == 0
        assert summary["exit_fraction"] == 0.0
        # compliant paths never exit: the time column stays empty
        for row in lines[2:]:
            cells = row.split(",")
            assert cells[2] == "0" and cells[3] == ""
            float(cells[4])  # min_margin parses
            assert cells[5] == "-1"

    def test_badvol_run_reports_exits(self, tmp_path):
        out = tmp_path / "run"
        res = CliRunner().invoke(
            cli,
            ["simulate", "--preset", "heat-positive-badvol", "--out", str(out),
             "--paths", "30"],
        )
        assert res.exit_code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["exit_fraction"] > 0.0
        rows = (out / "paths.csv").read_text().splitlines()[2:]
        exited = [r.split(",") for r in rows if r.split(",")[2] == "1"]
        assert exited
        for cells in exited:
            assert float(cells[3]) >= 0.0
            assert float(cells[4]) < 0.0

    def test_store_trajectories_names_the_same_run(self, tmp_path):
        # no command stores trajectories, so the setting is read (a bad
        # value still fails) but names nothing: true and false give the
        # same manifest hash and the same bytes in every output file
        digests, hashes = [], []
        for store in (True, False):
            doc = preset_document("heat-positive-badvol")
            doc["sim"].update(paths=5, horizon=0.05, store_trajectories=store)
            path = tmp_path / f"cfg-{store}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / f"run-{store}"
            res = CliRunner().invoke(cli, ["simulate", "--config", str(path), "--out", str(out)])
            assert res.exit_code == 0, res.output
            hashes.append(read_manifest(out)["hash"])
            digests.append(output_digest(out))
        assert hashes[0] == hashes[1]
        assert digests[0] == digests[1]
        assert read_manifest(out)["config"]["sim"]["store_trajectories"] is False

    def test_manifest_reproduces_run(self, tmp_path):
        first = tmp_path / "a"
        res1 = CliRunner().invoke(
            cli,
            ["simulate", "--preset", "heat-positive-badvol", "--out", str(first),
             "--paths", "20"],
        )
        assert res1.exit_code == 0
        second = tmp_path / "b"
        res2 = CliRunner().invoke(
            cli,
            ["simulate", "--config", str(first / "manifest.json"), "--out", str(second)],
        )
        assert res2.exit_code == 0
        a = (first / "paths.csv").read_bytes()
        b = (second / "paths.csv").read_bytes()
        assert a == b


class TestVerifyCommand:
    def test_compliant_agreement(self, tmp_path):
        out = tmp_path / "run"
        res = CliRunner().invoke(
            cli,
            ["verify", "--preset", "heat-positive", "--out", str(out), "--paths", "20"],
        )
        assert res.exit_code == 0
        assert "agreement: true" in res.output
        doc = json.loads((out / "verify.json").read_text())
        assert doc["agreement"] is True
        assert doc["exit_quiet_threshold"] == EXIT_QUIET_THRESHOLD
        assert [s["dt"] for s in doc["sweep"]] == [1e-3 * f for f in SWEEP_FACTORS]
        for factor in SWEEP_FACTORS:
            assert (out / f"paths_dt{factor}x.csv").exists()
        sweep_lines = (out / "sweep.csv").read_text().splitlines()
        assert sweep_lines[1] == "dt,exit_fraction,stderr,paths_counted,diverged"
        assert len(sweep_lines) == 2 + len(SWEEP_FACTORS)

    def test_hidden_disagreement_still_exit_zero(self, tmp_path):
        # checker sees nothing, simulation exits immediately: the
        # mismatch is a reported finding, not an error code
        out = tmp_path / "run"
        res = CliRunner().invoke(
            cli,
            ["verify", "--preset", "heat-positive-hidden", "--out", str(out),
             "--paths", "20"],
        )
        assert res.exit_code == 0
        assert "agreement: false" in res.output
        doc = json.loads((out / "verify.json").read_text())
        assert doc["checker"]["verdict"] == "NO VIOLATION FOUND (sampled)"
        assert all(s["exit_fraction"] > EXIT_QUIET_THRESHOLD for s in doc["sweep"])
        assert doc["agreement"] is False

    def test_badvol_agreement_via_exits(self, tmp_path):
        out = tmp_path / "run"
        res = CliRunner().invoke(
            cli,
            ["verify", "--preset", "heat-positive-badvol", "--out", str(out),
             "--paths", "20"],
        )
        assert res.exit_code == 0
        doc = json.loads((out / "verify.json").read_text())
        assert doc["checker"]["verdict"] == "VIOLATED (witness found)"
        assert doc["checker"]["vol_ok"] is False
        assert any(s["exited"] > 0 for s in doc["sweep"])
        assert doc["agreement"] is True


    def test_finest_level_is_the_simulate_run(self, tmp_path):
        # verify's 1x level steps the same draws as simulate does
        rows = {}
        for command, name in (("simulate", "paths.csv"), ("verify", "paths_dt1x.csv")):
            out = tmp_path / command
            res = CliRunner().invoke(
                cli,
                [command, "--preset", "heat-positive-badvol", "--out", str(out), "--paths", "24"],
            )
            assert res.exit_code == 0, combined_output(res)
            rows[command] = (out / name).read_text().splitlines()[1:]
        assert len(rows["simulate"]) == 1 + 24
        assert any(row.split(",")[2] == "1" for row in rows["simulate"][1:])
        assert rows["simulate"] == rows["verify"]


class TestAppendixCommand:
    def test_phi_suite(self, tmp_path):
        out = tmp_path / "run"
        res = CliRunner().invoke(cli, ["appendix", "phi", "--out", str(out)])
        assert res.exit_code == 0
        assert "PASS phi/" in res.output
        doc = json.loads((out / "appendix.json").read_text())
        assert doc["passed"] is True
        assert doc["selector"] == "phi"
        assert all(r["suite"] == "phi" for r in doc["results"])

    def test_retraction_suite(self, tmp_path):
        res = CliRunner().invoke(
            cli, ["appendix", "retraction", "--out", str(tmp_path / "r")]
        )
        assert res.exit_code == 0

    def test_failed_rho_reports_counterexamples(self, tmp_path, monkeypatch):
        # a noise drift off by e_0 + ... + e_15 fails both rho properties;
        # their counterexamples must serialize and the command exit 2
        exact = appendix.stratonovich_correction
        monkeypatch.setattr(
            appendix,
            "stratonovich_correction",
            lambda coeffs, a: exact(coeffs, a) + 1.0,
        )
        results = appendix.suite_rho()
        assert [r.passed for r in results] == [False, False]
        for r in results:
            json.dumps(r.to_dict())
        out = tmp_path / "r"
        res = CliRunner().invoke(cli, ["appendix", "rho", "--out", str(out)])
        assert res.exit_code == 2
        doc = json.loads((out / "appendix.json").read_text())
        assert isinstance(doc["results"][0]["counterexample"]["point_norm"], float)

    def test_counterexample_means_failed(self):
        assert appendix.PropertyResult("phi", "p", "ok").passed is True
        failed = appendix.PropertyResult("phi", "p", "bad", {"x": 0.0})
        assert failed.passed is False
        assert failed.to_dict()["passed"] is False

    def test_unknown_selector(self, tmp_path):
        res = CliRunner().invoke(cli, ["appendix", "fractal", "--out", str(tmp_path / "r")])
        assert res.exit_code == 1

    def test_negative_seed_is_an_error_line(self, tmp_path):
        res = CliRunner().invoke(
            cli, ["appendix", "retraction", "--seed", "-1", "--out", str(tmp_path / "r")]
        )
        assert res.exit_code == 1
        assert "error: seed must be >= 0" in combined_output(res)
        assert "Traceback" not in combined_output(res)

    @staticmethod
    def _failed(results) -> set[str]:
        return {r.name for r in results if not r.passed}

    def test_nan_envelope_fails_closed_form(self, tmp_path, monkeypatch):
        # a NaN error is never above the worst so far: the closed-form
        # check must not pass on an envelope that is NaN everywhere
        monkeypatch.setattr(
            appendix, "inf_convolve", lambda f, lam, pts, s: np.full(len(pts), np.nan)
        )
        assert {"moreau-closed-form", "ordering"} <= self._failed(appendix.suite_supinf())
        out = tmp_path / "r"
        res = CliRunner().invoke(cli, ["appendix", "supinf", "--out", str(out)])
        assert res.exit_code == 2
        doc = json.loads((out / "appendix.json").read_text(), parse_constant=_no_constant)
        assert doc["results"][0]["counterexample"]["got"] is None

    def test_nan_composition_fails_sup_error(self, monkeypatch):
        monkeypatch.setattr(
            appendix, "sup_inf_convolve", lambda f, p, pts, s: np.full(len(pts), np.nan)
        )
        assert self._failed(appendix.suite_supinf()) == {"sup-error"}

    def test_nan_retraction_fails(self, monkeypatch):
        monkeypatch.setattr(appendix, "retract", lambda a, n: np.full_like(a, np.nan))
        assert {"nonexpansive", "norm-bound"} <= self._failed(appendix.suite_retraction())

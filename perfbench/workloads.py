"""Workload inputs and output checks for the conespde benchmark.

Each workload is one ``cone-spde`` command on an input made from the
workload seed, shaped so that one package layer does most of the work
(see README.md for the reasons and the layer each one isolates).  The
seed reaches the program only through the generated config
(``noise.seed``, ``checker.seed``) or, for ``appendix``, its
``--seed`` argument.

``check_outputs`` returns the problems found in one command's outputs;
an empty list means the command passed.  ``output_work`` gives how much
work a passing command did, in the unit named by ``WORK_UNITS``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

NAMES = ("verify-sweep", "check-wide", "simulate-generic", "appendix-all")

WORK_UNITS = {
    "verify-sweep": "path-steps",
    "check-wide": "sampled points",
    "simulate-generic": "path-steps",
    "appendix-all": "properties",
}

# Sizes of the timed workloads; the smoke sizes keep every layer and
# every output check but finish in about a second each.
_SIZES = {
    False: {"verify_paths": 4000, "wide_dim": 256, "generic_paths": 200, "generic_horizon": 1.0},
    True: {"verify_paths": 64, "wide_dim": 16, "generic_paths": 8, "generic_horizon": 0.1},
}


@dataclass(frozen=True)
class Workload:
    """One command: its arguments (``{config}`` and ``{out}`` are filled
    in per run) and the config document it reads, if any."""

    name: str
    args: tuple[str, ...]
    config: dict | None

    def argv(self, config_path: Path | None, out_dir: Path) -> list[str]:
        return [a.format(config=config_path, out=out_dir) for a in self.args]


def heat_document(dim: int, seed: int, paths: int, horizon: float = 1.0) -> dict:
    """The dim-``dim`` heat-type system on the nonnegative orthant: mean
    reversion toward 0.5, eight proportional volatility columns, one
    constant inward jump atom."""
    return {
        "space": {"dim": dim, "cone": "nonnegative"},
        "semigroup": {"rates": "heat"},
        "coefficients": {
            "drift": {"family": "mean_reversion", "kappa": 1.0, "b": [0.5] * dim},
            "vol": [{"family": "proportional", "scale": 0.3, "index": j} for j in range(8)],
            "jumps": [{"weight": 0.2, "kernel": {"family": "constant", "value": [0.1] * dim}}],
        },
        "noise": {"eigenvalues": {"rule": "flat", "count": 8, "value": 1.0}, "seed": seed},
        "sim": {
            "dt": 1e-3,
            "horizon": horizon,
            "paths": paths,
            "scheme": "exponential-euler",
            "exit_tol": 1e-8,
            "guard": 1e12,
        },
        "checker": {"points_per_face": 64, "interior_points": 64, "seed": seed, "include_corners": True},
        "initial": [0.0] * dim,
    }


def _hidden(seed: int, paths: int) -> dict:
    # A drift kick on coordinate 1, active only while 6 <= h_2 <= 7:
    # the start sits in that band, which the boundary sampler never
    # visits, so the checker passes while every path exits.
    doc = heat_document(16, seed, paths)
    push = [0.0] * 16
    push[1] = -5.0
    doc["coefficients"]["drift"] = {
        "family": "sum",
        "terms": [
            doc["coefficients"]["drift"],
            {"family": "gated_offset", "vector": push, "gate_index": 2, "low": 6.0, "high": 7.0},
        ],
    }
    doc["initial"][2] = 6.5
    return doc


def _badvol(seed: int, dim: int) -> dict:
    # A constant ninth volatility column 0.3 e_0 crosses face 0.
    doc = heat_document(dim, seed, paths=200)
    bad = [0.0] * dim
    bad[0] = 0.3
    doc["coefficients"]["vol"].append({"family": "constant", "value": bad})
    doc["noise"]["eigenvalues"]["count"] = 9
    return doc


def _generic(seed: int, paths: int, horizon: float) -> dict:
    # A tabulated drift term cannot be lowered, so every path runs
    # through the per-path generic engine.
    doc = heat_document(16, seed, paths, horizon)
    doc["coefficients"]["drift"] = {
        "family": "sum",
        "terms": [
            doc["coefficients"]["drift"],
            {"family": "tabulated", "x": [-1.0, 0.0, 1.0, 2.0], "y": [0.0, 0.0, -0.05, -0.1]},
        ],
    }
    return doc


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    size = _SIZES[smoke]
    out = ("--out", "{out}")
    if name == "verify-sweep":
        return Workload(name, ("verify", "--config", "{config}", *out), _hidden(seed, size["verify_paths"]))
    if name == "check-wide":
        return Workload(name, ("check", "--config", "{config}", *out), _badvol(seed, size["wide_dim"]))
    if name == "simulate-generic":
        doc = _generic(seed, size["generic_paths"], size["generic_horizon"])
        return Workload(name, ("simulate", "--config", "{config}", *out), doc)
    if name == "appendix-all":
        return Workload(name, ("appendix", "all", "--seed", str(seed), *out), None)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def digest(out_dir: Path) -> str:
    """sha256 over every output file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir())


def _paths_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _steps(horizon: float, dt: float) -> int:
    return int(round(horizon / dt))


def output_work(wl: Workload, out_dir: Path) -> int:
    if wl.name == "verify-sweep":
        doc = json.loads((out_dir / "verify.json").read_text())
        horizon, paths = wl.config["sim"]["horizon"], wl.config["sim"]["paths"]
        return sum(paths * _steps(horizon, s["dt"]) for s in doc["sweep"])
    if wl.name == "check-wide":
        return json.loads((out_dir / "report.json").read_text())["checker"]["sampled_points"]
    if wl.name == "simulate-generic":
        sim = wl.config["sim"]
        return sim["paths"] * _steps(sim["horizon"], sim["dt"])
    return len(json.loads((out_dir / "appendix.json").read_text())["results"])


def check_outputs(wl: Workload, exit_code: int, out_dir: Path) -> list[str]:
    """Problems with one command's exit code and output files."""
    expected_code = 2 if wl.name == "check-wide" else 0
    if exit_code != expected_code:
        return [f"exit code {exit_code}, expected {expected_code}"]
    try:
        return _CHECKS[wl.name](wl, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check_verify(wl: Workload, out: Path) -> list[str]:
    doc = json.loads((out / "verify.json").read_text())
    problems = []
    checker = doc["checker"]
    if not (checker["jump_ok"] and checker["drift_ok"] and checker["vol_ok"]):
        problems.append(f"checker reported a violation: {checker['verdict']}")
    if len(doc["sweep"]) != 3 or any(s["exited"] == 0 for s in doc["sweep"]):
        problems.append("exits not seen at every dt level")
    if doc["agreement"] is not False:
        problems.append("agreement is not false")
    paths = wl.config["sim"]["paths"]
    for factor in (4, 2, 1):
        if len(_paths_rows(out / f"paths_dt{factor}x.csv")) != paths:
            problems.append(f"paths_dt{factor}x.csv does not have {paths} rows")
    return problems


def _check_wide(wl: Workload, out: Path) -> list[str]:
    checker = json.loads((out / "report.json").read_text())["checker"]
    problems = []
    if checker["vol_ok"] is not False or not (checker["jump_ok"] and checker["drift_ok"]):
        problems.append(f"expected only vol-parallel violated: {checker['verdict']}")
    witnesses = checker["witnesses"]
    if not witnesses:
        problems.append("no witnesses")
    stray = [w for w in witnesses if (w["condition"], w["k"], w["component"]) != ("vol-parallel", 0, 8)]
    if stray:
        problems.append(f"{len(stray)} witnesses are not vol-parallel at k=0, column 8")
    return problems


def _check_simulate(wl: Workload, out: Path) -> list[str]:
    rows = _paths_rows(out / "paths.csv")
    paths = wl.config["sim"]["paths"]
    problems = []
    if len(rows) != paths:
        problems.append(f"paths.csv has {len(rows)} rows, expected {paths}")
    if not all(math.isfinite(float(r["min_margin"])) for r in rows):
        problems.append("non-finite min_margin")
    return problems


def _check_appendix(wl: Workload, out: Path) -> list[str]:
    doc = json.loads((out / "appendix.json").read_text())
    failed = [f"{r['suite']}/{r['name']}" for r in doc["results"] if not r["passed"]]
    if failed or not doc["passed"]:
        return [f"properties failed: {', '.join(failed)}"]
    return []


_CHECKS = {
    "verify-sweep": _check_verify,
    "check-wide": _check_wide,
    "simulate-generic": _check_simulate,
    "appendix-all": _check_appendix,
}

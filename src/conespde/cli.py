"""Command line entry points.

Four commands share one config format (see ``config``): ``check`` runs
the sampled invariance checker, ``simulate`` runs one Monte Carlo
ensemble, ``verify`` runs the checker plus a step-size sweep and
reports whether the two views agree, and ``appendix`` runs the
approximation-operator property suites.

Exit codes partition outcomes: 0 = completed with no violation found
(for ``verify``: completed, agreement reported either way), 2 = a
violation or property failure was found, 1 = configuration or runtime
error.  Disagreement between checker and simulation is a reported
finding, never an error code.

Every output file references the run manifest's content hash, and the
manifest embeds the canonical config, so passing a manifest back via
``--config`` reproduces the run bit for bit.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from .appendix import run_suites
from .coefficients import invariance_verdict
from .config import ExperimentConfig, PRESET_NAMES, preset_document
from .errors import ConeSpdeError, ConfigError
from .simulate import PathEnsemble, run_ensemble, run_sweep

# Sweep factors for verify: coarsest to finest multiples of the
# configured step.  Agreement calls the simulation quiet when every
# sweep member's exit fraction stays at or below this threshold.
SWEEP_FACTORS = (4, 2, 1)
EXIT_QUIET_THRESHOLD = 0.01


@click.group()
def cli():
    """Cone-invariance toolkit: check, simulate, verify, appendix.

    CSV columns (paths files): path, seed, exited, exit_time,
    min_margin, diverged.  exit_time is empty when the path never
    left; diverged is the step index or -1.  Sweep tables carry dt,
    exit_fraction, stderr, paths_counted, diverged.  The first line of
    every CSV is '# manifest <hash>'.
    """


def _guarded(fn):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            code = fn(*args, **kwargs)
        except (ConeSpdeError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        sys.exit(int(code or 0))

    return inner


def _config_options(fn):
    fn = click.option(
        "--config", "config_path", type=click.Path(), default=None,
        help="Path to a config JSON (or a previous run's manifest.json).",
    )(fn)
    fn = click.option(
        "--preset", "preset_name", type=str, default=None,
        help=f"Built-in preset: {', '.join(PRESET_NAMES)}.",
    )(fn)
    fn = click.option(
        "--out", "out_dir", type=click.Path(file_okay=False), required=True,
        help="Output directory (created if missing).",
    )(fn)
    fn = click.option("--seed", type=int, default=None, help="Override the noise master seed.")(fn)
    fn = click.option("--paths", type=int, default=None, help="Override the path count.")(fn)
    fn = click.option("--dt", type=float, default=None, help="Override the time step.")(fn)
    return fn


def _load(config_path, preset_name, seed, paths, dt) -> ExperimentConfig:
    if (config_path is None) == (preset_name is None):
        raise ConfigError("give exactly one of --config or --preset")
    if config_path is not None:
        ec = ExperimentConfig.load(config_path)
    else:
        ec = ExperimentConfig.from_dict(preset_document(preset_name))
    if seed is None and paths is None and dt is None:
        return ec
    doc = ec.to_dict()
    if seed is not None:
        doc["noise"]["seed"] = int(seed)
    if paths is not None:
        doc["sim"]["paths"] = int(paths)
    if dt is not None:
        doc["sim"]["dt"] = float(dt)
    return ExperimentConfig.from_dict(doc)


def _prepare_out(out_dir: str) -> Path:
    p = Path(out_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _strict(doc):
    """``doc`` with every non-finite float as ``None``, so it dumps as
    strict JSON (``null``) instead of the non-standard ``NaN`` tokens."""
    if isinstance(doc, dict):
        return {k: _strict(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_strict(v) for v in doc]
    return None if isinstance(doc, float) and not math.isfinite(doc) else doc


def _write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` as strict, sorted, indented JSON and a newline.

    The encoder writes its chunks straight into a temporary file beside
    ``path``, which then replaces ``path``: no whole document is built
    in memory, and a failed encode leaves no partial file.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as fh:
            json.dump(_strict(doc), fh, sort_keys=True, indent=2, allow_nan=False)
            fh.write("\n")
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_manifest(out: Path, ec: ExperimentConfig, outputs: list[str]) -> str:
    run_hash = ec.content_hash()
    _write_json(
        out / "manifest.json",
        {"hash": run_hash, "config": ec.to_dict(), "outputs": sorted(outputs)},
    )
    return run_hash


def _write_paths_csv(path: Path, ens: PathEnsemble, run_hash: str) -> None:
    lines = [
        f"# manifest {run_hash}",
        "path,seed,exited,exit_time,min_margin,diverged",
    ]
    for p in range(ens.n_paths):
        fe = int(ens.first_exit[p])
        exit_time = repr(fe * ens.dt) if fe >= 0 else ""
        lines.append(
            f"{p},{int(ens.seeds[p])},{int(fe >= 0)},{exit_time},"
            f"{repr(float(ens.min_margin[p]))},{int(ens.diverged[p])}"
        )
    path.write_text("\n".join(lines) + "\n")


def _exit_stats(ens: PathEnsemble) -> dict:
    """Exit fraction over non-diverged paths; diverged counted separately."""
    ok = ens.diverged < 0
    counted = int(ok.sum())
    exited = int((ens.exited & ok).sum())
    frac = exited / counted if counted else float("nan")
    se = float(np.sqrt(frac * (1.0 - frac) / counted)) if counted else float("nan")
    return {
        "paths_counted": counted,
        "diverged": int(ens.n_paths - counted),
        "exited": exited,
        "exit_fraction": frac,
        "stderr": se,
    }


# witnesses echoed to the terminal; the report JSON lists them all
_WITNESSES_SHOWN = 8


def _echo_report(report) -> None:
    click.echo(f"verdict: {report.verdict}")
    for w in report.witnesses[:_WITNESSES_SHOWN]:
        comp = "" if w.component is None else f" column {w.component}"
        click.echo(
            f"  witness: {w.condition}{comp} at face k={w.k} (theta={w.theta}), "
            f"magnitude {w.magnitude:.6g}"
        )
    extra = len(report.witnesses) - _WITNESSES_SHOWN
    if extra > 0:
        click.echo(f"  ... and {extra} more witnesses (full list in report JSON)")


@cli.command("check")
@_config_options
@_guarded
def cmd_check(config_path, preset_name, out_dir, seed, paths, dt) -> int:
    """Run the sampled invariance checker and write report.json."""
    ec = _load(config_path, preset_name, seed, paths, dt)
    out = _prepare_out(out_dir)
    report = invariance_verdict(ec.coeffs, ec.cone, ec.sampler, ec.check_tol)
    run_hash = _write_manifest(out, ec, ["report.json"])
    _write_json(out / "report.json", {"hash": run_hash, "checker": report.to_dict()})
    _echo_report(report)
    return 0 if report.satisfied else 2


@cli.command("simulate")
@_config_options
@_guarded
def cmd_simulate(config_path, preset_name, out_dir, seed, paths, dt) -> int:
    """Run one ensemble and write paths.csv plus the manifest."""
    ec = _load(config_path, preset_name, seed, paths, dt)
    out = _prepare_out(out_dir)
    ens = run_ensemble(ec.coeffs, ec.semigroup, ec.noise, ec.cone, ec.sim, ec.h0)
    run_hash = _write_manifest(out, ec, ["paths.csv", "summary.json"])
    _write_paths_csv(out / "paths.csv", ens, run_hash)
    stats = _exit_stats(ens)
    _write_json(out / "summary.json", {"hash": run_hash, "dt": ec.sim.dt, **stats})
    click.echo(
        f"paths {ens.n_paths}: exit fraction {stats['exit_fraction']:.4f} "
        f"(stderr {stats['stderr']:.4f}), diverged {stats['diverged']}"
    )
    return 0


@cli.command("verify")
@_config_options
@_guarded
def cmd_verify(config_path, preset_name, out_dir, seed, paths, dt) -> int:
    """Checker plus step-size sweep; reports agreement between the two."""
    ec = _load(config_path, preset_name, seed, paths, dt)
    out = _prepare_out(out_dir)
    report = invariance_verdict(ec.coeffs, ec.cone, ec.sampler, ec.check_tol)
    _echo_report(report)

    ensembles = run_sweep(ec.coeffs, ec.semigroup, ec.noise, ec.cone, ec.sim, ec.h0, SWEEP_FACTORS)
    sweep = []
    csv_names = []
    for factor, ens in zip(SWEEP_FACTORS, ensembles):
        stats = _exit_stats(ens)
        sweep.append({"dt": ens.dt, **stats})
        csv_names.append(f"paths_dt{factor}x.csv")
        click.echo(
            f"dt {ens.dt:g}: exit fraction {stats['exit_fraction']:.4f} "
            f"(stderr {stats['stderr']:.4f}), diverged {stats['diverged']}"
        )

    quiet = all(s["exit_fraction"] <= EXIT_QUIET_THRESHOLD for s in sweep)
    exits_seen = any(s["exited"] > 0 for s in sweep)
    agreement = (report.satisfied and quiet) or ((not report.satisfied) and exits_seen)

    outputs = ["verify.json", "sweep.csv"] + csv_names
    run_hash = _write_manifest(out, ec, outputs)
    for name, ens in zip(csv_names, ensembles):
        _write_paths_csv(out / name, ens, run_hash)
    lines = [
        f"# manifest {run_hash}",
        "dt,exit_fraction,stderr,paths_counted,diverged",
    ]
    for s in sweep:
        lines.append(
            f"{repr(s['dt'])},{repr(s['exit_fraction'])},{repr(s['stderr'])},"
            f"{s['paths_counted']},{s['diverged']}"
        )
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    _write_json(
        out / "verify.json",
        {
            "hash": run_hash,
            "checker": report.to_dict(),
            "sweep": sweep,
            "exit_quiet_threshold": EXIT_QUIET_THRESHOLD,
            "agreement": agreement,
        },
    )
    click.echo(f"agreement: {json.dumps(agreement, allow_nan=False)}")
    return 0


@cli.command("appendix")
@click.argument("selector", type=str, default="all")
@click.option(
    "--out", "out_dir", type=click.Path(file_okay=False), required=True,
    help="Output directory (created if missing).",
)
@click.option("--seed", type=int, default=0, help="Seed for the sampled properties.")
@_guarded
def cmd_appendix(selector, out_dir, seed) -> int:
    """Run approximation-operator property suites.

    SELECTOR is one of: phi, retraction, supinf, mollify, rho, all.
    """
    out = _prepare_out(out_dir)
    results = run_suites(selector, seed=seed)
    failures = [r for r in results if not r.passed]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        click.echo(f"{mark} {r.suite}/{r.name}: {r.detail}")
        if not r.passed:
            ce = json.dumps(_strict(r.counterexample), sort_keys=True, allow_nan=False)
            click.echo(f"     counterexample: {ce}")
    _write_json(
        out / "appendix.json",
        {
            "selector": selector,
            "seed": seed,
            "passed": not failures,
            "results": [r.to_dict() for r in results],
        },
    )
    click.echo(f"{len(results) - len(failures)}/{len(results)} properties passed")
    return 2 if failures else 0


def main():
    cli()


if __name__ == "__main__":
    main()

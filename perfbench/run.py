"""conespde benchmark: four CLI workloads run by one closed-loop client.

    python3 perfbench/run.py --workload verify-sweep --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --smoke --trace 1

One client runs one ``cone-spde`` command at a time and starts the next
only after the previous one has finished.  ``CONE_SPDE_THREADS`` is
removed from the environment, so the package runs one worker, on
whichever kernel backend is importable.

``--trace 0`` runs each command in a fresh interpreter, as a user
would, and prints the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` runs the command inside this process, alternating an
untraced and a traced repeat, and prints the per-layer metrics; the
span wrappers (``tracing.py``) are installed only around the traced
repeats, and ``trace.overhead_s`` is the difference of the two medians.

A command's outputs are checked (``workloads.check_outputs``) and
hashed; a command that errors, misses its check, or writes bytes that
differ from the run's first command counts as failed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The environment, every command's record
and, for traced runs, every span are written to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up is measured in fresh interpreters, this many before each
# command, so that its samples spread over the whole run like the
# commands' own.
SETUP_PER_COMMAND = 2
COMMAND_TIMEOUT_S = 150

SETUP_SCRIPT = """\
import json, sys, time
t0 = time.perf_counter()
import conespde.cli
from conespde.config import ExperimentConfig
if sys.argv[1:]:
    with open(sys.argv[1]) as fh:
        ExperimentConfig.from_dict(json.load(fh))
print(repr(time.perf_counter() - t0))
"""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CONE_SPDE_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(cmd: list[str], log: Path) -> tuple[int, float, float]:
    """Run ``cmd`` to completion: exit code, wall seconds, peak RSS in MB."""
    with log.open("wb") as fh:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _invoke(main, argv: list[str], log: Path) -> int:
    """Run the CLI's ``main`` in this process, its output going to ``log``."""
    sink = io.StringIO()
    code = 0
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            main(args=argv, prog_name="cone-spde", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        log.write_text(sink.getvalue())
    return code


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Client:
    """The closed-loop client for one workload and seed."""

    def __init__(self, wl: workloads.Workload, tag: str):
        self.wl = wl
        self.out = WORK / f"out-{tag}"
        self.log = WORK / f"log-{tag}.txt"
        self.config_path = None
        if wl.config is not None:
            self.config_path = WORK / f"config-{tag}.json"
            self.config_path.write_text(json.dumps(wl.config, indent=1) + "\n")
        self.records: list[dict] = []
        self.first_digest: str | None = None

    def _argv(self) -> list[str]:
        return self.wl.argv(self.config_path, self.out)

    def setup_times(self, repeats: int) -> list[float]:
        cmd = [sys.executable, "-c", SETUP_SCRIPT]
        if self.config_path is not None:
            cmd.append(str(self.config_path))
        times = []
        for _ in range(repeats):
            done = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                                  timeout=COMMAND_TIMEOUT_S, check=True)
            times.append(float(done.stdout.strip().splitlines()[-1]))
        return times

    def run_fresh(self) -> dict:
        """One command in a fresh interpreter."""
        shutil.rmtree(self.out, ignore_errors=True)
        code, wall, rss = _spawn([sys.executable, "-m", "conespde.cli", *self._argv()], self.log)
        return self._finish(code, wall, {"peak_rss_mb": rss, "mode": "fresh"})

    def run_here(self, main, mode: str) -> dict:
        """One command inside this process (``main`` may be traced)."""
        shutil.rmtree(self.out, ignore_errors=True)
        t0 = perf_counter()
        try:
            code = _invoke(main, self._argv(), self.log)
        except Exception:
            code = None
            with self.log.open("a") as fh:
                fh.write(traceback.format_exc())
        return self._finish(code, perf_counter() - t0, {"mode": mode})

    def _finish(self, code, wall: float, extra: dict) -> dict:
        rec = {"wall_s": wall, "exit_code": code, **extra}
        problems = workloads.check_outputs(self.wl, code, self.out)
        if not problems:
            rec["digest"] = workloads.digest(self.out)
            rec["work"] = workloads.output_work(self.wl, self.out)
            rec["bytes_written"] = workloads.bytes_written(self.out)
            if self.first_digest is None:
                self.first_digest = rec["digest"]
            elif rec["digest"] != self.first_digest:
                problems = ["output bytes differ from the run's first command"]
        if problems:
            problems.append("command output ends: " + self.log.read_text()[-400:])
        rec["problems"] = problems
        self.records.append(rec)
        return rec

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["problems"])


def environment(seed: int) -> dict:
    from conespde import kernels
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    return {
        "backend": kernels.BACKEND,
        "threads": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
    }


def backend_parity(wl: workloads.Workload) -> str:
    """Bitwise agreement of both kernel backends on the first chunk of
    the finest sweep level, when both can be imported."""
    try:
        importlib.import_module("conespde.kernels._euler_cy")
    except ImportError:
        return "not checked: only the fallback backend is importable"
    from conespde.config import ExperimentConfig
    from conespde.simulate import run_ensemble

    ec = ExperimentConfig.from_dict(wl.config)
    sim = replace(ec.sim, paths=min(ec.sim.paths, ec.sim.chunk))
    a, b = (run_ensemble(ec.coeffs, ec.semigroup, ec.noise, ec.cone, sim, ec.h0, backend=name)
            for name in ("compiled", "fallback"))
    for field in ("final", "min_margin", "first_exit", "diverged"):
        if getattr(a, field).tobytes() != getattr(b, field).tobytes():
            raise RuntimeError(f"kernel backends disagree on {field}")
    return f"bitwise on {sim.paths} paths x {sim.steps} steps"


def _declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def measure_end_to_end(client: Client, seconds: float, smoke: bool) -> dict[str, float]:
    """Commands in fresh interpreters, each after a set-up measurement."""
    if not smoke:
        client.setup_times(1)  # fills the page and bytecode caches; not counted
    setup = []
    deadline = perf_counter() + seconds
    while True:
        started = perf_counter()
        setup += client.setup_times(1 if smoke else SETUP_PER_COMMAND)
        client.run_fresh()
        if 2 * perf_counter() - started > deadline:
            break
    recs = client.records
    return {
        "wall_s": _median([r["wall_s"] for r in recs]),
        "setup_s": _median(setup),
        "work_per_s": _median([r["work"] / r["wall_s"] for r in recs if not r["problems"]]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in recs]),
    }


def measure_layers(client: Client, seconds: float, tracer: tracing.Tracer) -> dict[str, float]:
    """Pairs of an untraced and a traced command in this process."""
    from conespde.cli import cli

    traced, untraced = [], []
    deadline = perf_counter() + seconds
    while True:
        started = perf_counter()
        untraced.append(client.run_here(cli.main, "untraced"))
        run = len(traced)
        with tracer.installed(run):
            rec = client.run_here(tracer.wrap(tracing.COMMAND, cli.main), "traced")
        tracer.counts[run]["cli.bytes_written"] = rec.get("bytes_written", 0)
        traced.append(rec)
        if 2 * perf_counter() - started > deadline:
            break
    runs = [tracer.layer_metrics(run) for run in range(len(traced))]
    values = {name: _median([m[name] for m in runs]) for name in runs[0]}
    values["trace.overhead_s"] = _median([r["wall_s"] for r in traced]) - _median([r["wall_s"] for r in untraced])
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Measure one workload; prints the report and returns the result object."""
    wl = workloads.build(name, seed, smoke)
    WORK.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    client = Client(wl, tag)
    env = environment(seed)
    parity = backend_parity(wl) if name == "verify-sweep" else "not applicable"
    if smoke:
        seconds = 0

    extra = {}
    if trace:
        tracer = tracing.Tracer()
        values = measure_layers(client, seconds, tracer)
        declared = _declared("per_layer")
        spans_path = WORK / f"spans-{tag}.json"
        spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "run"],
                                          "spans": tracer.spans}))
        extra["spans"] = str(spans_path.relative_to(ROOT))
    else:
        values = measure_end_to_end(client, seconds, smoke)
        declared = _declared("end_to_end")

    shutil.rmtree(client.out, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted, failed = len(client.records), client.failed
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (WORK / f"result-{tag}.json").write_text(json.dumps(
        {"workload": name, "env": env, "parity": parity, "records": client.records, **extra, **result},
        indent=1) + "\n")

    print(f"workload {name}  seed {seed}  trace {int(trace)}  commands {attempted}  "
          f"work unit: {workloads.WORK_UNITS[name]}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"backend parity: {parity}")
    for m in declared:
        print(f"  {m['name']:<48} {values[m['name']]:.6g} {m['unit']}")
    print(f"  {'ops_failed_frac':<48} {failed / attempted:.6g} ({failed} of {attempted})")
    for r in client.records:
        for p in r["problems"]:
            print(f"  check failed: {p}")
    print(f"output digest {client.first_digest}")
    print(json.dumps(result))
    return result


def prepare() -> str | None:
    """Make this checkout's package importable, with one worker; returns
    what is wrong when it cannot be."""
    if not (SRC / "conespde" / "cli.py").is_file():
        return f"no conespde sources under {SRC}"
    os.environ.pop("CONE_SPDE_THREADS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import conespde

    if not Path(conespde.__file__).resolve().is_relative_to(SRC):
        return f"conespde imported from {conespde.__file__}, not {SRC}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one command per workload")
    args = ap.parse_args(argv)

    problem = prepare()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around calls into conespde's layers, recorded from outside.

The benchmark wraps public functions at the sites where the package
calls them (``cli`` imports ``run_ensemble`` and ``invariance_verdict``
by name, ``simulate`` imports ``step_ensemble``, ``appendix`` imports
the envelope functions and dispatches suites through ``SUITES``).
``Tracer.installed`` puts the wrappers in place for one command and
restores the original objects afterwards, so untraced commands run
unmodified code.

A span is ``[name, start, end, parent, run]``: ``parent`` is the index
of the enclosing span in ``Tracer.spans`` (-1 at the top) and ``run``
the traced command it belongs to.  Spans stay in memory until the
benchmark writes them out at the end.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

ENVELOPES = ("inf_convolve", "sup_convolve", "sup_inf_convolve", "mollify")
CHECKERS = ("check_jump_condition", "check_drift_condition", "check_volatility_condition")
SUITES = ("phi", "retraction", "supinf", "mollify", "rho")
# Span name of the benchmark's own call into the CLI, the root of a run.
COMMAND = "cli"


def _count_kernel(counts: Counter, args, out) -> None:
    _, _, normals, noise_counts = args[:4]
    counts["kernels.path_steps"] += normals.shape[0] * normals.shape[1]
    counts["kernels.noise_bytes_in"] += normals.nbytes + noise_counts.nbytes


def _count_verdict(counts: Counter, args, out) -> None:
    counts["coefficients.sampled_points"] += out.sampled_points
    counts["coefficients.witnesses"] += len(out.witnesses)


class Tracer:
    """In-memory span recorder for the traced commands of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts[self.run], args, out)
            return out

        return traced

    def _sites(self):
        """(owner, attribute, span name, counter) for every wrapped call site."""
        from conespde import appendix, approx, cli, coefficients, simulate
        from conespde.config import ExperimentConfig

        sites = [
            (simulate, "step_ensemble", "kernels.step_ensemble", _count_kernel),
            (cli, "run_ensemble", "simulate.run_ensemble", None),
            (cli, "invariance_verdict", "coefficients.invariance_verdict", _count_verdict),
            (coefficients, "sample_boundary_pairs", "coefficients.sample_boundary_pairs", None),
            (appendix, "sample_boundary_pairs", "coefficients.sample_boundary_pairs", None),
            (coefficients, "sample_cone_points", "coefficients.sample_cone_points", None),
            (ExperimentConfig, "from_dict", "config.from_dict", None),
            (ExperimentConfig, "content_hash", "config.content_hash", None),
        ]
        sites += [(coefficients, fn, f"coefficients.{fn}", None) for fn in CHECKERS]
        for fn in ENVELOPES:
            sites += [(approx, fn, f"approx.{fn}", None), (appendix, fn, f"approx.{fn}", None)]
        sites += [(appendix.SUITES, s, f"appendix.suite_{s}", None) for s in SUITES]
        return sites

    @contextlib.contextmanager
    def installed(self, run: int):
        """Wrap every call site for the duration of one traced command."""
        self.run = run
        saved = []
        try:
            for owner, attr, name, count in self._sites():
                if isinstance(owner, dict):
                    orig = owner[attr]
                    owner[attr] = self.wrap(name, orig, count)
                else:
                    orig = vars(owner)[attr]
                    if isinstance(orig, classmethod):
                        setattr(owner, attr, classmethod(self.wrap(name, orig.__func__, count)))
                    else:
                        setattr(owner, attr, self.wrap(name, orig, count))
                saved.append((owner, attr, orig))
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = orig
                else:
                    setattr(owner, attr, orig)

    def layer_metrics(self, run: int) -> dict[str, float]:
        """Per-layer counts and times of one traced command."""
        ids = [i for i, s in enumerate(self.spans) if s[4] == run]
        children = defaultdict(float)
        for i in ids:
            s = self.spans[i]
            if s[3] >= 0:
                children[s[3]] += s[2] - s[1]

        def nested_in_same(s) -> bool:
            p = s[3]
            while p >= 0:
                if self.spans[p][0] == s[0]:
                    return True
                p = self.spans[p][3]
            return False

        calls, busy, own = Counter(), Counter(), Counter()
        for i in ids:
            s = self.spans[i]
            calls[s[0]] += 1
            own[s[0]] += (s[2] - s[1]) - children[i]
            if not nested_in_same(s):
                busy[s[0]] += s[2] - s[1]

        counts = self.counts[run]
        path_steps = counts["kernels.path_steps"]
        points = counts["coefficients.sampled_points"]
        m = {
            "kernels.step_ensemble.calls": calls["kernels.step_ensemble"],
            "kernels.step_ensemble.busy_s": busy["kernels.step_ensemble"],
            "kernels.path_steps": path_steps,
            "kernels.ns_per_path_step": busy["kernels.step_ensemble"] / path_steps * 1e9 if path_steps else 0.0,
            "kernels.noise_bytes_in": counts["kernels.noise_bytes_in"],
            "simulate.run_ensemble.calls": calls["simulate.run_ensemble"],
            "simulate.run_ensemble.busy_s": busy["simulate.run_ensemble"],
            "simulate.self_s": own["simulate.run_ensemble"],
            "coefficients.invariance_verdict.calls": calls["coefficients.invariance_verdict"],
            "coefficients.invariance_verdict.busy_s": busy["coefficients.invariance_verdict"],
            "coefficients.sample_boundary_pairs.calls": calls["coefficients.sample_boundary_pairs"],
            "coefficients.sample_boundary_pairs.busy_s": busy["coefficients.sample_boundary_pairs"],
            "coefficients.sample_cone_points.busy_s": busy["coefficients.sample_cone_points"],
            "coefficients.sampled_points": points,
            "coefficients.witnesses": counts["coefficients.witnesses"],
            "coefficients.us_per_point": busy["coefficients.invariance_verdict"] / points * 1e6 if points else 0.0,
            "config.from_dict.busy_s": busy["config.from_dict"],
            "config.content_hash.busy_s": busy["config.content_hash"],
            "cli.self_s": own[COMMAND],
            "cli.bytes_written": counts["cli.bytes_written"],
        }
        for fn in CHECKERS:
            m[f"coefficients.{fn}.busy_s"] = busy[f"coefficients.{fn}"]
        for fn in ENVELOPES:
            m[f"approx.{fn}.calls"] = calls[f"approx.{fn}"]
            m[f"approx.{fn}.busy_s"] = busy[f"approx.{fn}"]
        for s in SUITES:
            m[f"appendix.suite_{s}.busy_s"] = busy[f"appendix.suite_{s}"]
        return m

"""Spans around the public calls of ``hawkes_bvm``, for the traced run.

The package's modules import functions by name (``from .priors import
log_prior``), so a wrapper goes into every module namespace where a caller
looks the name up; methods are wrapped on their class. Nothing inside the
package is edited. Each span is kept in memory as ``[name, start, end,
parent]`` and reduced to per-layer metrics when the job ends. A layer's
self time is its span's duration minus the time of its direct child spans
(the run is single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (span name, defining module, attribute, namespaces to patch or None for
# every hawkes_bvm module that binds the same object)
_FUNCTIONS = (
    ("simulate_thinning", "simulate", "simulate_thinning", None),
    ("run_chain", "mcmc", "run_chain", None),
    ("log_prior", "priors", "log_prior", None),
    ("log_likelihood", "likelihood", "log_likelihood", None),
    # counted only as called from PriorSpec.in_model_class
    ("spectral_radius", "model", "spectral_radius", ("priors",)),
    ("w_statistic", "likelihood", "w_statistic", None),
    ("posterior_functional", "mcmc", "posterior_functional", None),
    ("estimate_palm", "palm", "estimate_palm", None),
    ("info_operator_invert", "palm", "info_operator_invert", None),
    ("efficient_estimate", "palm", "efficient_estimate", None),
    ("bias_term", "palm", "bias_term", None),
    ("solve_moment_density", "volterra", "solve_moment_density", None),
    ("compute_efficiency", "harness", "compute_efficiency", None),
    ("run_experiment", "harness", "run_experiment", None),
    ("bvm_distance", "harness", "bvm_distance", None),
    ("emit_outputs", "harness", "emit_outputs", None),
)

_METHODS = (
    ("cache_build", "likelihood", "LikelihoodCache", "__init__"),
    ("cached_eval", "likelihood", "LikelihoodCache", "log_likelihood"),
    ("lan_build", "likelihood", "LanEstimator", "__init__"),
)


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "hawkes_bvm" or name.startswith("hawkes_bvm.")]


class Tracer:
    """Records spans and counts for one job in this process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.residual = 0.0
        self._stack: list[int] = []

    def _wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    def _count_calls(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    # hooks that read counts from call results
    def _on_stream(self, args, stream):
        self.counts["simulate.events"] += len(stream)

    def _on_prior(self, args, value):
        if value == -np.inf:
            self.counts["priors.rejects"] += 1

    def _on_cache(self, args, _):
        self.counts["likelihood.cache_rows"] += sum(
            x.shape[0] for x in args[0].X)

    def _on_invert(self, args, result):
        self.residual = max(self.residual, float(result[1]))

    def _on_volterra(self, args, density):
        self.counts["volterra.nodes"] += density.node_times.size

    def install(self) -> "Tracer":
        """Patch the loaded hawkes_bvm modules; call after importing them."""
        hooks = {"simulate_thinning": self._on_stream,
                 "log_prior": self._on_prior,
                 "info_operator_invert": self._on_invert,
                 "solve_moment_density": self._on_volterra,
                 "cache_build": self._on_cache}
        modules = _package_modules()
        for name, home, attr, only in _FUNCTIONS:
            original = getattr(sys.modules["hawkes_bvm." + home], attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod in modules:
                short = mod.__name__.rpartition(".")[2]
                if only is not None and short not in only:
                    continue
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
        for name, home, cls_name, attr in _METHODS:
            cls = getattr(sys.modules["hawkes_bvm." + home], cls_name)
            setattr(cls, attr,
                    self._wrap(name, getattr(cls, attr), hooks.get(name)))
        mcmc = sys.modules["hawkes_bvm.mcmc"]
        mcmc.mcmc_step = self._count_calls("mcmc.sweeps", mcmc.mcmc_step)
        return self

    def layer_metrics(self) -> dict:
        """Per-layer totals in seconds and counts, keyed by metric name."""
        total = defaultdict(float)
        calls = Counter()
        self_time = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child):
            total[name] += end - start
            calls[name] += 1
            self_time[name] += end - start - covered
        c = self.counts
        sweeps = c["mcmc.sweeps"]
        prior_calls = calls["log_prior"]
        return {
            "simulate.thinning_s": total["simulate_thinning"],
            "simulate.thinning_calls": calls["simulate_thinning"],
            "simulate.events": c["simulate.events"],
            "likelihood.cache_build_s": total["cache_build"],
            "likelihood.cache_builds": calls["cache_build"],
            "likelihood.cache_rows": c["likelihood.cache_rows"],
            "likelihood.cached_eval_s": total["cached_eval"],
            "likelihood.cached_evals": calls["cached_eval"],
            "likelihood.exact_eval_s": total["log_likelihood"],
            "likelihood.exact_evals": calls["log_likelihood"],
            "likelihood.lan_build_s": total["lan_build"],
            "likelihood.w_statistic_s": total["w_statistic"],
            "priors.log_prior_s": total["log_prior"],
            "priors.log_prior_calls": prior_calls,
            "priors.reject_frac": (c["priors.rejects"] / prior_calls
                                   if prior_calls else 0.0),
            "model.spectral_radius_s": total["spectral_radius"],
            "model.spectral_radius_calls": calls["spectral_radius"],
            "mcmc.chain_s": total["run_chain"],
            "mcmc.sweeps": sweeps,
            "mcmc.sweep_us": (1e6 * total["run_chain"] / sweeps
                              if sweeps else 0.0),
            "mcmc.self_s": self_time["run_chain"],
            "mcmc.posterior_functional_s": total["posterior_functional"],
            "palm.estimate_s": total["estimate_palm"],
            "palm.invert_s": total["info_operator_invert"],
            "palm.invert_residual": self.residual,
            "palm.bias_s": total["bias_term"],
            "palm.efficient_estimate_s": total["efficient_estimate"],
            "volterra.solve_s": total["solve_moment_density"],
            "volterra.nodes": c["volterra.nodes"],
            "harness.efficiency_s": total["compute_efficiency"],
            "harness.run_experiment_self_s": self_time["run_experiment"],
            "harness.bvm_distance_s": total["bvm_distance"],
            "harness.emit_s": total["emit_outputs"],
            "trace.spans": len(self.spans),
        }

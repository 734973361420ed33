"""Span recorder for the traced benchmark run.

The recorder reads the layers from outside the program: it replaces a
function at every module attribute that holds it (and methods on their
class), so each caller that looks the name up at call time runs through
the wrapper.  The package's own code is not edited.  A span is the list
``[name, start, end, parent, op, size]``: ``parent`` is the index of the
enclosing span (-1 at the top), ``op`` the id of the benchmark op it
belongs to (-1 for input generation) and ``size`` an optional work count
taken from the arguments or the result.  Spans stay in memory and are
written out once, when the run ends.

A layer is one module of the package; the layer of a span is the part of
its name before the first dot.  ``scipy.optimize.minimize`` counts to
``inference``, the only module that calls it.  A span's self time is its
duration minus the durations of its direct children, which cover disjoint
parts of it because everything runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

LAYERS = ("photon_stats", "quadrature", "inference", "subtraction", "experiment")

OP_SPAN = "bench.op"


def _count_arg(args, kwargs, result):
    return int(args[1] if len(args) > 1 else kwargs["count"])


def _result_len(args, kwargs, result):
    return len(result)


def _sample_len(args, kwargs, result):
    return len(result.values)


def _pass_sizes(args, kwargs, result):
    return [len(args[0]), len(result[0])]


#: (span name, defining module, attribute path, size function).  An entry
#: whose attribute no longer exists is listed in :attr:`Tracer.missing`,
#: and the traced run refuses to report.
SPANS = (
    ("photon_stats.pmf_values", "photonkit.photon_stats", "pmf_values", None),
    ("photon_stats.fock_cutoff", "photonkit.photon_stats", "fock_cutoff", None),
    ("photon_stats.pgf_derivative", "photonkit.photon_stats", "pgf_derivative", None),
    ("photon_stats.series", "photonkit._series", "series_log", None),
    ("photon_stats.series", "photonkit._series", "series_exp", None),
    ("quadrature.sample_quadratures", "photonkit.quadrature", "sample_quadratures",
     _sample_len),
    ("quadrature.sample_for_counts", "photonkit.quadrature", "sample_for_counts",
     _result_len),
    ("quadrature.sample_counts", "photonkit.quadrature", "sample_counts", _count_arg),
    ("quadrature.quantiles", "photonkit.quadrature", "quadrature_quantiles", None),
    ("quadrature.pdf", "photonkit.quadrature", "quadrature_pdf", None),
    ("inference.mle_fit", "photonkit.inference", "mle_fit", None),
    ("inference.fit_hierarchy2", "photonkit.inference", "fit_hierarchy2", None),
    ("inference.minimize", "scipy.optimize", "minimize", None),
    ("inference.errors", "photonkit.inference", "_parameter_errors", None),
    ("inference.errors", "photonkit.inference", "_observed_information", None),
    ("inference.chi2_test", "photonkit.inference", "chi2_test", None),
    ("inference.fidelity", "photonkit.inference", "fidelity", None),
    ("inference.method_of_moments", "photonkit.inference", "method_of_moments", None),
    ("inference.likelihood", "photonkit.inference", "_QuadratureLikelihood.density", None),
    ("inference.phi_build", "photonkit.inference", "_QuadratureLikelihood.__init__", None),
    ("inference.phi_build", "photonkit.inference", "_QuadratureLikelihood._ensure", None),
    ("subtraction.mc_subtract", "photonkit.subtraction", "mc_subtract", _pass_sizes),
    ("subtraction.chain", "photonkit.subtraction", "subtract_analytic", None),
    ("subtraction.chain", "photonkit.subtraction", "subtract_finite_p", None),
    ("subtraction.chain", "photonkit.subtraction", "autocorr_from_means", None),
    ("experiment.run_campaign", "photonkit.experiment", "run_campaign", None),
    ("experiment.mc_pool", "photonkit.experiment", "_mc_stage_counts", _result_len),
)

#: lru caches whose hit ratios are reported, as (metric prefix, module, name).
CACHES = (
    ("photon_stats.hierarchy_taylor", "photonkit.photon_stats", "_hierarchy_taylor"),
    ("photon_stats.hierarchy_cutoff", "photonkit.photon_stats", "_hierarchy_cutoff"),
    ("quadrature.cdf_grid", "photonkit.quadrature", "_cdf_grid"),
)


def _cache(module, name):
    cache = getattr(importlib.import_module(module), name, None)
    return cache if hasattr(cache, "cache_info") else None


def caches():
    """(metric prefix, cache) for every listed cache that still exists."""
    return [(prefix, _cache(module, name)) for prefix, module, name in CACHES
            if _cache(module, name) is not None]


def missing_caches() -> list[str]:
    """Listed caches that no longer exist, as ``module:name``."""
    return [f"{module}:{name}" for _, module, name in CACHES if _cache(module, name) is None]


class Tracer:
    """In-memory span recorder that patches the functions in :data:`SPANS`."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, original, name, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if size is not None:
                rec[5] = size(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every listed function wherever a module attribute holds it."""
        package = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and key.split(".")[0] == "photonkit"]
        for name, module, path, size in SPANS:
            home = importlib.import_module(module)
            if "." in path:  # a method: patch it on its class
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name, None)
                original = None if cls is None else vars(cls).get(attr)
                holders = [cls]
            else:
                attr, original = path, getattr(home, path, None)
                holders = [home, *package]
            if original is None:
                self.missing.append(f"{module}:{path}")
                continue
            wrapper = self._wrap(original, name, size)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper, original)

    def _patch(self, owner, key, wrapper, original) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    @contextmanager
    def op_span(self, op: int):
        """Root span of one benchmark op; its self time is unattributed."""
        self.op = op
        rec = [OP_SPAN, time.perf_counter(), 0.0, -1, op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()
            self.op = -1


_MINIMIZE, _ERRORS, _POOL, _SAMPLE, _FIT = 1, 2, 4, 8, 16
_FLAG = {
    "inference.minimize": _MINIMIZE,
    "inference.errors": _ERRORS,
    "experiment.mc_pool": _POOL,
    "quadrature.sample_quadratures": _SAMPLE,
    "quadrature.sample_for_counts": _SAMPLE,
    "inference.mle_fit": _FIT,
    "inference.fit_hierarchy2": _FIT,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics derived from a span list.

    Counts and times cover every span, input generation included;
    ``layer.*`` and ``trace.*`` cover the measured ops only.  A likelihood
    evaluation belongs to the search when it runs under
    ``scipy.optimize.minimize`` and not under error estimation; all other
    evaluations (Fisher differences, profile scan, bootstrap) count as
    error estimation.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    above = [0] * n  # flags of all strict ancestors
    for i, s in enumerate(spans):
        p = s[3]
        if p >= 0:
            child[p] += dur[i]
            above[i] = above[p] | _FLAG.get(spans[p][0], 0)
    self_t = [d - c for d, c in zip(dur, child)]

    count: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    m = dict.fromkeys((
        "search.evals", "errors.evals", "search.calls", "search.s", "errors.s",
        "fit.s", "fit.self_s", "sample.s", "pool.draws", "mc.in", "mc.kept",
        "sample.values", "draws", "pool.kept", "wall",
    ), 0.0)
    for i, s in enumerate(spans):
        name, flags = s[0], above[i]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        own[name] = own.get(name, 0.0) + self_t[i]
        layer = name.split(".", 1)[0]
        if name == OP_SPAN:
            m["wall"] += dur[i]
        elif layer in layer_self and s[4] >= 0:
            layer_self[layer] += self_t[i]
        if layer == "inference" and name != "inference.chi2_test":
            m["fit.self_s"] += self_t[i]
        if name == "inference.likelihood":
            key = "search.evals" if flags & _MINIMIZE and not flags & _ERRORS else "errors.evals"
            m[key] += 1
        elif name == "inference.minimize" and not flags & _ERRORS:
            m["search.calls"] += 1
            m["search.s"] += dur[i]
        elif name == "inference.errors" and not flags & _ERRORS:
            m["errors.s"] += dur[i]
        elif _FLAG.get(name) == _FIT and not flags & _FIT:
            m["fit.s"] += dur[i]
        elif name == "quadrature.sample_counts":
            m["draws"] += s[5]
            if flags & _POOL:
                m["pool.draws"] += s[5]
        elif name == "subtraction.mc_subtract":
            m["mc.in"] += s[5][0]
            m["mc.kept"] += s[5][1]
        elif name == "experiment.mc_pool":
            m["pool.kept"] += s[5]
        if _FLAG.get(name) == _SAMPLE and not flags & _SAMPLE:
            m["sample.s"] += dur[i]
        if name == "quadrature.sample_for_counts":
            m["sample.values"] += s[5]

    def c(name):
        return float(count.get(name, 0))

    def t(table, name):
        return table.get(name, 0.0)

    out = {
        "photon_stats.pmf_values.calls": c("photon_stats.pmf_values"),
        "photon_stats.pmf_values.self_s": t(own, "photon_stats.pmf_values"),
        "photon_stats.fock_cutoff.calls": c("photon_stats.fock_cutoff"),
        "photon_stats.fock_cutoff.self_s": t(own, "photon_stats.fock_cutoff"),
        "photon_stats.series.self_s": t(own, "photon_stats.series"),
        "inference.fit.calls": c("inference.mle_fit") + c("inference.fit_hierarchy2"),
        "inference.fit.s": m["fit.s"],
        "inference.fit.self_s": m["fit.self_s"],
        "inference.search.calls": m["search.calls"],
        "inference.search.evals": m["search.evals"],
        "inference.search.s": m["search.s"],
        "inference.eval_s": _ratio(m["search.s"], m["search.evals"]),
        "inference.errors.evals": m["errors.evals"],
        "inference.errors.s": m["errors.s"],
        "inference.phi_build.s": t(total, "inference.phi_build"),
        "inference.matvec.self_s": t(own, "inference.likelihood"),
        "inference.chi2_test.calls": c("inference.chi2_test"),
        "inference.chi2_test.self_s": t(own, "inference.chi2_test"),
        "quadrature.quantiles.s": t(total, "quadrature.quantiles"),
        "quadrature.pdf.self_s": t(own, "quadrature.pdf"),
        "quadrature.sample.s": m["sample.s"],
        "quadrature.sample.values": m["sample.values"],
        "quadrature.sample_counts.draws": m["draws"],
        "quadrature.sample_counts.s": t(total, "quadrature.sample_counts"),
        "subtraction.mc_subtract.s": t(total, "subtraction.mc_subtract"),
        "subtraction.mc_subtract.in": m["mc.in"],
        "subtraction.mc_subtract.kept": m["mc.kept"],
        "subtraction.mc_subtract.accept_ratio": _ratio(m["mc.kept"], m["mc.in"]),
        "experiment.mc_pool.draws": m["pool.draws"],
        "experiment.mc_pool.useful_ratio": _ratio(m["pool.kept"], m["pool.draws"]),
        "experiment.mc.passes": c("subtraction.mc_subtract"),
        "experiment.stage.self_s": t(own, "experiment.run_campaign"),
        "trace.wall_s": m["wall"],
        "trace.unattributed_ratio": _ratio(m["wall"] - sum(layer_self.values()), m["wall"]),
        "trace.spans": float(n),
    }
    for layer, value in layer_self.items():
        out[f"layer.{layer}.self_s"] = value
    return out

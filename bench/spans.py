"""Layer spans for the traced run.

Wrappers are installed from here at the import sites the program itself
uses, so the program is measured as it stands.  A wrapper records one span
(name, start, end, parent, attributes) per call into a layer and keeps the
spans in memory; `layer_metrics` turns them into per-layer counts, busy
times and self times, and `write_spans` saves them when the run ends.

Only attributes that exist are wrapped: a later version of the program that
drops a function (say Kelley or Frank-Wolfe) drops the metrics built on it
and keeps the benchmark running.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

import numpy as np


class Tracer:
    """Span recorder.  Spans are [name, start, end, parent, attrs] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.enabled = False
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, attrs=None, wrap_args=None):
        """Return fn recording a span per call while the tracer is enabled.

        attrs(result, args, kwargs) -> dict adds attributes read from the
        call; wrap_args(args, kwargs) -> (args, kwargs) may wrap arguments
        (the oracle handed to Kelley).  A failing extractor records nothing
        rather than breaking the call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), 0.0,
                   self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                if wrap_args is not None:
                    args, kwargs = wrap_args(args, kwargs)
                out = fn(*args, **kwargs)
                rec[2] = perf_counter()
                if attrs is not None:
                    try:
                        rec[4] = attrs(out, args, kwargs)
                    except (AttributeError, TypeError, IndexError, KeyError, ValueError):
                        rec[4] = None
                return out
            finally:
                if rec[2] == 0.0:
                    rec[2] = perf_counter()
                self._stack.pop()

        return traced

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        tracer = self

        class _Span:
            def __enter__(self):
                if tracer.enabled:
                    self.rec = [name, perf_counter(), 0.0,
                                tracer._stack[-1] if tracer._stack else -1, None]
                    tracer._stack.append(len(tracer.spans))
                    tracer.spans.append(self.rec)
                return self

            def __exit__(self, *exc):
                if tracer.enabled:
                    self.rec[2] = perf_counter()
                    tracer._stack.pop()
                return False

        return _Span()

    def patch(self, module_name, attr, name, attrs=None, wrap_args=None) -> bool:
        """Replace module.attr by its traced wrapper, if the attribute exists."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        fn = getattr(module, attr, None)
        if not callable(fn):
            return False
        self._installed.append((module, attr, fn))
        setattr(module, attr, self.wrap(name, fn, attrs, wrap_args))
        return True

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()


# -- result readers -----------------------------------------------------------


def tableau_mb(lp) -> float:
    """Dense simplex tableau size (MB) computed from the program's dimensions.

    Mirrors the standard form the solver builds: free variables split in
    two, finite ranges become cap rows, each inequality gets a slack, and
    every equality plus each inequality with a negative shifted right-hand
    side gets an artificial column.  Computed, not measured.
    """
    lower, upper = lp.lower, lp.upper
    n = lp.c.size
    free = np.isneginf(lower) & np.isposinf(upper)
    ranged = np.isfinite(lower) & np.isfinite(upper)
    v0 = np.where(np.isfinite(lower), lower, np.where(np.isfinite(upper), upper, 0.0))
    me = lp.A_eq.shape[0]
    mi = lp.A_le.shape[0] + int(ranged.sum())
    neg_le = int(np.count_nonzero(lp.b_le - lp.A_le @ v0 < 0)) if lp.A_le.shape[0] else 0
    cols = n + int(free.sum()) + mi + me + neg_le + 1
    return (me + mi) * cols * 8 / 1e6


def _lp_attrs(out, args, kwargs):
    lp = args[0] if args else kwargs["lp"]
    return {"pivots": int(out.iterations), "mb": tableau_mb(lp)}


def _fw_attrs(out, args, kwargs):
    dual = importlib.import_module("rhoarb.dual")
    tol = kwargs.get("tol", args[4] if len(args) > 4 else getattr(dual, "FW_TOL"))
    return {"gap_open": float(out[2]) > tol, "iterations": int(out[3])}


def _kelley_attrs(out, args, kwargs):
    return {"iterations": int(out.iterations), "status": str(out.status)}


def _newton_attrs(out, args, kwargs):
    return {"iterations": int(out.iterations)}


def install(tracer: Tracer) -> list[str]:
    """Wrap each layer at the import site that calls it; return what was wrapped.

    frontier and dual bind their own lp_solve; kelley_minimize imports it
    from rhoarb.lp inside the function, so Kelley masters appear at the
    rhoarb.lp site.
    """
    oracle = tracer.wrap

    def wrap_oracle(args, kwargs):
        if args:
            args = (oracle("frontier.oracle", args[0]),) + tuple(args[1:])
        elif "oracle" in kwargs:
            kwargs = dict(kwargs, oracle=oracle("frontier.oracle", kwargs["oracle"]))
        return args, kwargs

    sites = [
        ("rhoarb.frontier", "lp_solve", "lp.slice", _lp_attrs, None),
        ("rhoarb.dual", "lp_solve", "lp.polytope", _lp_attrs, None),
        ("rhoarb.lp", "lp_solve", "lp.master", _lp_attrs, None),
        ("rhoarb.dual", "classify_dual", "dual", None, None),
        ("rhoarb.dual", "_spectral_lp", "dual.spectral_lp", None, None),
        ("rhoarb.dual", "_frank_wolfe_min", "dual.fw", _fw_attrs, None),
        ("rhoarb.dual", "newton_cumulant_min", "solvers.newton", _newton_attrs, None),
        ("rhoarb.frontier", "kelley_minimize", "solvers.kelley", _kelley_attrs, wrap_oracle),
        ("rhoarb.frontier", "minimize_1d_convex", "solvers.golden", None, None),
        ("rhoarb.measures", "minimize_1d_convex", "solvers.golden", None, None),
        ("rhoarb.dual", "compute_rho1", "frontier", None, None),
        ("rhoarb.cli", "compute_rho1", "frontier", None, None),
        ("rhoarb.frontier", "evaluate", "measures.evaluate", None, None),
        ("rhoarb.cli", "classify_trichotomy", "elliptical", None, None),
        ("rhoarb.cli", "critical_alpha", "elliptical", None, None),
        ("rhoarb.cli", "phase_curve_rows", "elliptical", None, None),
        ("rhoarb.cli", "sr_max", "elliptical", None, None),
        ("rhoarb.elliptical", "Phi_inv", "gaussian", None, None),
        ("rhoarb.elliptical", "phi", "gaussian", None, None),
        ("rhoarb.cli", "main", "cli", None, None),
        ("rhoarb.cli", "load_market", "cli.load", None, None),
        ("rhoarb.cli", "validate_market", "market.validate", None, None),
    ]
    done = []
    for module, attr, name, attrs, wrap_args in sites:
        if tracer.patch(module, attr, name, attrs, wrap_args):
            done.append(f"{module}.{attr}")
    return done


# -- aggregation --------------------------------------------------------------

# Layer of each span name, for self times: nested spans of one layer add up.
_LAYER = {"dual": "dual", "dual.spectral_lp": "dual", "dual.fw": "dual",
          "solvers.kelley": "solvers.kelley", "frontier": "frontier", "cli": "cli"}


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as {name: (value, unit)}.

    Counts and times are means per attempted operation; lp.tableau_mb_max is
    a maximum and lp.us_per_pivot a ratio.  A layer that never ran reads 0.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]
            children[s[3]].append(i)

    def inside(i: int, name: str) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    selft: dict[str, float] = {}
    for i, s in enumerate(spans):
        calls[s[0]] = calls.get(s[0], 0) + 1
        busy[s[0]] = busy.get(s[0], 0.0) + dur[i]
        layer = _LAYER.get(s[0])
        if layer is not None:
            selft[layer] = selft.get(layer, 0.0) + dur[i] - child_time[i]

    def attr_sum(name: str, key: str) -> float:
        return float(sum(s[4][key] for s in spans if s[0] == name and s[4]))

    lp_names = ("lp.slice", "lp.polytope", "lp.master")
    pivots = {k: attr_sum(k, "pivots") for k in lp_names}
    lp_busy = sum(busy.get(k, 0.0) for k in lp_names)
    lp_pivots = sum(pivots.values())
    mb = max((s[4]["mb"] for s in spans if s[0] in lp_names and s[4]), default=0.0)
    lmo = sum(1 for i, s in enumerate(spans) if s[0] == "lp.polytope" and inside(i, "dual.fw"))
    retries = 0
    for i, s in enumerate(spans):
        if s[0] == "frontier":
            kids = [spans[j][0] for j in children[i]]
            tries = max(kids.count("lp.slice"), kids.count("solvers.kelley"))
            retries += max(tries - 1, 0)

    # Divide, not multiply by 1/n: a correctly rounded quotient makes equal
    # counts per operation read equal whatever the number of passes.
    n_ops = max(n_ops, 1)
    out: dict[str, tuple[float, str]] = {}

    def count(name, value):
        out[name] = (value / n_ops, "count/op")

    def secs(name, value):
        out[name] = (value / n_ops, "s/op")

    count("lp.calls", sum(calls.get(k, 0) for k in lp_names))
    count("lp.pivots", lp_pivots)
    secs("lp.busy_s", lp_busy)
    out["lp.us_per_pivot"] = (lp_busy / lp_pivots * 1e6 if lp_pivots else 0.0, "us")
    out["lp.tableau_mb_max"] = (mb, "MB_computed")
    for short, key in (("slice", "lp.slice"), ("polytope", "lp.polytope"),
                       ("master", "lp.master")):
        count(f"lp.{short}.calls", calls.get(key, 0))
        count(f"lp.{short}.pivots", pivots[key])
        secs(f"lp.{short}.busy_s", busy.get(key, 0.0))
    count("dual.calls", calls.get("dual", 0))
    secs("dual.self_s", selft.get("dual", 0.0))
    count("dual.spectral.scan_lps", calls.get("dual.spectral_lp", 0))
    count("dual.fw.lmo_calls", lmo)
    count("dual.fw.gap_open_runs", sum(1 for s in spans if s[0] == "dual.fw" and s[4]
                                       and s[4]["gap_open"]))
    count("solvers.kelley.runs", calls.get("solvers.kelley", 0))
    count("solvers.kelley.iterations", attr_sum("solvers.kelley", "iterations"))
    secs("solvers.kelley.self_s", selft.get("solvers.kelley", 0.0))
    count("solvers.kelley.max_iter_runs", sum(1 for s in spans if s[0] == "solvers.kelley"
                                              and s[4] and s[4]["status"] == "MAX_ITER"))
    count("frontier.oracle.calls", calls.get("frontier.oracle", 0))
    secs("frontier.oracle.busy_s", busy.get("frontier.oracle", 0.0))
    count("solvers.newton.runs", calls.get("solvers.newton", 0))
    count("solvers.newton.iterations", attr_sum("solvers.newton", "iterations"))
    secs("solvers.newton.busy_s", busy.get("solvers.newton", 0.0))
    count("solvers.golden.calls", calls.get("solvers.golden", 0))
    secs("solvers.golden.busy_s", busy.get("solvers.golden", 0.0))
    count("frontier.calls", calls.get("frontier", 0))
    secs("frontier.self_s", selft.get("frontier", 0.0))
    count("frontier.box_retries", retries)
    count("measures.evaluate.calls", calls.get("measures.evaluate", 0))
    secs("measures.evaluate.busy_s", busy.get("measures.evaluate", 0.0))
    count("elliptical.calls", calls.get("elliptical", 0))
    secs("elliptical.busy_s", busy.get("elliptical", 0.0))
    count("gaussian.calls", calls.get("gaussian", 0))
    secs("gaussian.busy_s", busy.get("gaussian", 0.0))
    secs("cli.load.busy_s", busy.get("cli.load", 0.0))
    secs("cli.self_s", selft.get("cli", 0.0))
    count("market.validate.calls", calls.get("market.validate", 0))
    secs("market.validate.busy_s", busy.get("market.validate", 0.0))
    return out


def write_spans(spans: list[list], fh) -> None:
    """One JSON object per line: name, start, end, parent index, attributes."""
    for name, start, end, parent, attrs in spans:
        rec = {"name": name, "start": start, "end": end, "parent": parent}
        if attrs:
            rec["attrs"] = attrs
        fh.write(json.dumps(rec) + "\n")

"""Command line interface and file formats.

Commands:
    analyze      classify one market under one risk measure (primal + dual)
    frontier     tabulate the lower frontier boundary at given levels
    phase-curve  Gaussian ES/VaR thresholds over an alpha grid
    elliptical   closed-form trichotomy for an elliptical model
    validate     market file sanity report

Market files are JSON ({"riskless_rate": r, "probs": [...], "assets":
[{"name": ..., "returns": [...]}, ...]}) or CSV with header
prob,asset1,...,assetd and one row per scenario; asset names are
accepted and not read.  One np.loadtxt call reads the CSV body: quoted
numbers and blank lines pass, '#' lines, ragged rows and empty fields
are errors.  Zero-probability scenarios are dropped at load
time.  Risk measures come as JSON, inline (--risk) or from a file
(--risk-file); see RiskSpec for the schema.

Exit codes: 0 no arbitrage, 2 rho-arbitrage, 3 strong rho-arbitrage,
1 error (bad input, unsupported measure, route disagreement, a simplex
that could not certify its answer).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dual import classify_dual, cross_validate
from .elliptical import (BOUNDARY_TOL, EllipticalMarket, classify_trichotomy, critical_alpha,
                         phase_curve_rows, sr_max)
from .frontier import (CLASSIFY_TOL, UnsupportedGlobalMinError, classify_primal, compute_rho1,
                       frontier_levels, frontier_points)
from .lp import SimplexError
from .market import ScenarioMarket, validate_market
from .measures import RiskSpec

EXIT_CODES = {"NO_ARBITRAGE": 0, "RHO_ARBITRAGE": 2, "STRONG_RHO_ARBITRAGE": 3}


class MarketFormatError(ValueError):
    """Raised on unreadable market files or validation violations."""

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations or []


def load_market(path: str, fmt: str | None = None) -> ScenarioMarket:
    """Read, drop zero-probability scenarios, construct, and validate."""
    if fmt is None:
        fmt = "csv" if path.lower().endswith(".csv") else "json"
    try:
        if fmt == "json":
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            r = float(obj["riskless_rate"])
            probs = np.asarray(obj["probs"], dtype=np.float64)
            returns = np.asarray([a["returns"] for a in obj["assets"]], dtype=np.float64)
        elif fmt == "csv":
            with open(path, "r", encoding="utf-8") as fh:
                header = [h.strip() for h in next(csv.reader(fh), [])]
                if not header or header[0] != "prob":
                    raise MarketFormatError("CSV header must start with 'prob'")
                with warnings.catch_warnings():
                    # a body without rows is rejected below, not warned about
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                            UserWarning)
                    data = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                      ndmin=2)
            if data.shape[0] == 0:
                raise MarketFormatError("CSV market has no scenario rows")
            probs = data[:, 0]
            returns = data[:, 1:].T
            r = 0.0  # CSV carries no riskless rate; a '#r=' comment is not supported
        else:
            raise MarketFormatError(f"unknown market format {fmt!r}")
    except MarketFormatError:
        raise
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        raise MarketFormatError(f"cannot read market file {path}: {exc}") from exc

    keep = probs != 0.0
    probs = probs[keep]
    returns = returns[:, keep]
    if probs.size == 0:
        raise MarketFormatError("market has no scenarios with nonzero probability")
    market = ScenarioMarket(probs=probs, riskless_rate=r, returns=returns)
    violations = validate_market(market)
    if violations:
        raise MarketFormatError("market failed validation: "
                                + "; ".join(violations), violations)
    return market


def load_risk(inline: str | None, path: str | None) -> RiskSpec:
    if (inline is None) == (path is None):
        raise MarketFormatError("exactly one of --risk / --risk-file is required")
    try:
        if inline is not None:
            return RiskSpec.from_json_dict(json.loads(inline))
        with open(path, "r", encoding="utf-8") as fh:
            return RiskSpec.from_json_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise MarketFormatError(f"cannot parse risk spec: {exc}") from exc


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyze command learned, JSON round-trippable."""

    risk: dict
    verdict: str
    rho1: float | None = None
    primal: dict | None = None
    dual: dict | None = None
    cross: dict | None = None
    timings: dict = field(default_factory=dict)
    market_file: str | None = None
    tol: float = CLASSIFY_TOL

    def to_dict(self) -> dict:
        return {"risk": self.risk, "verdict": self.verdict, "rho1": self.rho1,
                "primal": self.primal, "dual": self.dual, "cross": self.cross,
                "timings": self.timings, "market_file": self.market_file,
                "tol": self.tol}

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisReport":
        return cls(risk=data["risk"], verdict=data["verdict"], rho1=data.get("rho1"),
                   primal=data.get("primal"), dual=data.get("dual"),
                   cross=data.get("cross"), timings=data.get("timings", {}),
                   market_file=data.get("market_file"), tol=data.get("tol", CLASSIFY_TOL))


def analyze_market(market: ScenarioMarket, spec: RiskSpec, *, tol: float = CLASSIFY_TOL,
                   market_file: str | None = None) -> AnalysisReport:
    """Primal + dual classification with cross-validation where both run.

    Every measure but VaR has a dual route, and GENTROPIC has no primal
    one, so the dual route always runs; VaR raises UnsupportedGlobalMinError.
    """
    timings: dict[str, float] = {}
    primal = dual = cross = None
    rho1 = None

    if spec.kind == "VAR":
        raise UnsupportedGlobalMinError(
            "UNSUPPORTED_GLOBAL_MIN: VaR has neither a primal nor a dual route")

    if spec.kind != "GENTROPIC":
        t0 = time.perf_counter()
        cv = cross_validate(market, spec, tol)
        timings["cross"] = time.perf_counter() - t0
        primal, dual, cross = cv.primal.to_dict(), cv.dual.to_dict(), cv.to_dict()
        cross.pop("primal", None)
        cross.pop("dual", None)
        rho1 = cv.rho1
        verdict = "DISAGREE" if cv.status == "DISAGREE" else cv.primal.verdict
    else:
        t0 = time.perf_counter()
        dv = classify_dual(market, spec, tol)
        timings["dual"] = time.perf_counter() - t0
        dual, verdict = dv.to_dict(), dv.verdict

    return AnalysisReport(risk=spec.to_json_dict(), verdict=verdict, rho1=rho1,
                          primal=primal, dual=dual, cross=cross, timings=timings,
                          market_file=market_file, tol=tol)


# -- output helpers -----------------------------------------------------------


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)  # shortest exact round-trip form
    return str(v)


def _csv_text(header: list[str], rows: list[tuple], comments: list[str] = ()) -> str:
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _json_sanitize(obj):
    """Replace non-finite floats so json stays standard-compliant."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if obj == math.inf:
            return "inf"
        if obj == -math.inf:
            return "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _json_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_sanitize(v) for v in obj]
    return obj


def _emit_json(data: dict, out: str | None) -> None:
    _emit(json.dumps(_json_sanitize(data), indent=2), out)


# -- commands -----------------------------------------------------------------


def _cmd_analyze(args) -> int:
    market = load_market(args.market, args.market_format)
    spec = load_risk(args.risk, args.risk_file)
    report = analyze_market(market, spec, tol=args.tol, market_file=args.market)
    _emit_json(report.to_dict(), args.out)
    return EXIT_CODES.get(report.verdict, 1)


def _cmd_frontier(args) -> int:
    levels = frontier_levels(args.levels.split(","))   # before the market is read
    market = load_market(args.market, args.market_format)
    spec = load_risk(args.risk, args.risk_file)
    res = compute_rho1(market, spec)
    pts = frontier_points(res, levels)
    efficient = res.efficient_frontier_exists
    if args.format == "json":
        _emit_json({"rho1": res.rho1, "efficient": efficient, "iterations": res.iterations,
                    "points": [{"nu": nu, "rho_nu": rho} for nu, rho in pts]}, args.out)
    else:
        rows = [(nu, rho, efficient) for nu, rho in pts]
        _emit(_csv_text(["nu", "rho_nu", "efficient"], rows), args.out)
    return EXIT_CODES.get(classify_primal(res).verdict, 1)


def _parse_alphas(text: str) -> list[float]:
    if ":" in text:
        start, stop, count = text.split(":")
        grid = np.linspace(float(start), float(stop), int(count))
        return [float(a) for a in grid]
    return [float(v) for v in text.split(",")]


def _cmd_phase_curve(args) -> int:
    alphas = _parse_alphas(args.alphas)
    if any(not 0.0 < a < 1.0 for a in alphas):
        raise MarketFormatError("alphas must lie strictly inside (0, 1)")
    rows = phase_curve_rows(alphas, args.sr)
    header = ["alpha", "es_threshold", "var_threshold"]
    stars = {}
    if args.sr is not None:
        header += ["verdict_es", "verdict_var"]
        for measure in ("ES", "VAR"):
            key = f"alpha_star_{measure.lower()}"
            try:
                stars[key] = critical_alpha(args.sr, measure)
            except ValueError:
                stars[key] = None
    if args.format == "json":
        data = {"rows": [dict(zip(header, row)) for row in rows]}
        if args.sr is not None:
            data.update(sr=args.sr, **stars)
        _emit_json(data, args.out)
    else:
        comments = [f"{key}=NA" if val is None else f"{key}={val:.12g}"
                    for key, val in stars.items()]
        _emit(_csv_text(header, rows, comments=comments), args.out)
    return 0


def _parse_matrix(text: str) -> np.ndarray:
    return np.asarray([[float(v) for v in row.split(",")]
                       for row in text.split(";")], dtype=np.float64)


def _cmd_elliptical(args) -> int:
    mu = np.asarray([float(v) for v in args.mu.split(",")])
    sigma = _parse_matrix(args.sigma)
    try:
        market = EllipticalMarket(mean=mu, cov=sigma, riskless_rate=args.r,
                                  rho_z=args.rho_z)
        verdict, rho1 = classify_trichotomy(market, args.measure, args.alpha,
                                            tol=args.tol)
    except ValueError as exc:
        raise MarketFormatError(str(exc)) from exc
    sr, tangency = sr_max(market)
    data = {"sr_max": sr, "tangency": tangency.tolist(), "rho1": rho1,
            "verdict": verdict.to_dict()}
    try:
        data["alpha_star"] = critical_alpha(sr, args.measure)
    except ValueError:
        data["alpha_star"] = None
    _emit_json(data, args.out)
    return EXIT_CODES.get(verdict.verdict, 1)


def _cmd_validate(args) -> int:
    try:
        market = load_market(args.market, args.market_format)
    except MarketFormatError as exc:
        _emit_json({"valid": False, "violations": exc.violations or [str(exc)]},
                   args.out)
        return 1
    _emit_json({"valid": True, "violations": [],
                "n_scenarios": market.n_scenarios, "n_assets": market.n_assets},
               args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rhoarb",
                     description="Risk-arbitrage detection on scenario markets")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_market(p):
        p.add_argument("--market", required=True, help="market file (json or csv)")
        p.add_argument("--market-format", choices=("json", "csv"), default=None)

    def add_risk(p):
        p.add_argument("--risk", default=None, help="risk spec as inline JSON")
        p.add_argument("--risk-file", default=None, help="risk spec JSON file")

    def add_io(p):
        p.add_argument("--out", default=None, help="write output here (default stdout)")

    p = sub.add_parser("analyze", help="classify a market under a risk measure")
    add_market(p)
    add_risk(p)
    add_io(p)
    p.add_argument("--tol", type=float, default=CLASSIFY_TOL, help="boundary band")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("frontier", help="frontier boundary at given levels")
    add_market(p)
    add_risk(p)
    add_io(p)
    p.add_argument("--levels", default="0,0.5,1,2,5", help="comma list of nu >= 0")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_frontier)

    p = sub.add_parser("phase-curve", help="Gaussian thresholds over alpha")
    add_io(p)
    p.add_argument("--alphas", default="0.01:0.99:50",
                   help="comma list or start:stop:count grid")
    p.add_argument("--sr", type=float, default=None,
                   help="Sharpe ratio; adds verdict columns and alpha_star lines")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_phase_curve)

    p = sub.add_parser("elliptical", help="closed-form elliptical trichotomy")
    add_io(p)
    p.add_argument("--mu", required=True, help="means, comma separated")
    p.add_argument("--sigma", required=True, help="covariance rows ; separated")
    p.add_argument("--r", type=float, default=0.0, help="riskless rate")
    p.add_argument("--measure", choices=("ES", "VAR"), default="ES")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--rho-z", type=float, default=None, dest="rho_z",
                   help="override rho(Z) instead of the Gaussian closed form")
    p.add_argument("--tol", type=float, default=BOUNDARY_TOL)
    p.set_defaults(func=_cmd_elliptical)

    p = sub.add_parser("validate", help="market file sanity report")
    add_market(p)
    add_io(p)
    p.set_defaults(func=_cmd_validate)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """build_parser() once per process: parsing leaves the parser as it
    was, and building it costs about a millisecond."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MarketFormatError, UnsupportedGlobalMinError, ValueError, SimplexError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

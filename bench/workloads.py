"""Seeded inputs and operations of the three workloads.

Every input is made here from the workload seed; the program sees only the
generated markets, files and command lines.  A workload is a list of rounds,
and a round is a fixed list of operations, so every run attempts whole
rounds and the share of operations that fail is the same in every run.

lp_cross and entropic_cross draw fresh markets for each round from
(seed, round); their fixed markets (lp_cross's priced markets and
basis-point twins, entropic_cross's TNORM markets) do not depend on the
seed.  cli_closed_form repeats
one round over the files written at set-up.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable

import numpy as np

import rhoarb
import rhoarb.cli

ND = NormalDist()


@dataclass
class Op:
    """One operation: a cross_validate call or one CLI command."""

    key: str
    run: Callable[[], object]
    meta: dict = field(default_factory=dict)


# -- markets ------------------------------------------------------------------


def priced_market(rng, N: int, d: int, spread: float = 0.6, r: float = 0.01):
    """Market priced by a known strictly positive density z.

    z falls with the return of a random portfolio, so the market pays a
    risk premium; each asset is then shifted so that E[z (R_i - r)] = 0.
    z is an equivalent martingale density with 1 - spread < z < 1 + spread
    before normalization to E[z] = 1, known exactly.
    """
    p = rng.dirichlet(np.full(N, 5.0))
    R = rng.normal(0.0, 0.1, size=(d, N))
    y = rng.normal(size=d) @ R
    z = 1.0 - spread * np.tanh((y - p @ y) / math.sqrt(p @ (y - p @ y) ** 2))
    z /= p @ z
    R = R - (R @ (p * z))[:, None] + r
    return rhoarb.ScenarioMarket(probs=p, riskless_rate=r, returns=R), z


def drift_market(rng, N: int, d: int, sharpe: float, r: float = 0.01):
    """High-drift market: each asset earns `sharpe` standard deviations over r."""
    p = rng.dirichlet(np.full(N, 20.0))
    R = r + 0.1 * (sharpe + rng.normal(size=(d, N)))
    return rhoarb.ScenarioMarket(probs=p, riskless_rate=r, returns=R), None


def equal_drift_market(rng, N: int, d: int, sharpe: float):
    """Drift market with equal scenario probabilities and r = 0."""
    R = rng.normal(sharpe, 1.0, size=(d, N)) * 0.1
    return rhoarb.ScenarioMarket(probs=np.full(N, 1.0 / N), riskless_rate=0.0, returns=R), None


MARKETS = {"priced": priced_market, "drift": drift_market, "equal-drift": equal_drift_market}


def scaled(market, k: float):
    """The same market quoted in other units: returns and r times k."""
    return rhoarb.ScenarioMarket(probs=market.probs, riskless_rate=market.riskless_rate * k,
                                 returns=market.returns * k)


def _spec(js: dict):
    return rhoarb.RiskSpec.from_json_dict(js)


# -- cross-validation workloads -------------------------------------------------

# (label, N, d, regime, regime parameter, risk spec)
LP_TEMPLATES = [
    ("es05-drift", 180, 6, "drift", 2.0, {"kind": "ES", "alpha": 0.05}),
    ("es10-drift", 160, 6, "drift", 2.0, {"kind": "ES", "alpha": 0.1}),
    ("es25-drift", 150, 6, "drift", 2.0, {"kind": "ES", "alpha": 0.25}),
    ("spec-drift", 100, 4, "drift", 2.0, {"kind": "SPECTRAL", "atoms": [[0.1, 0.5], [0.5, 0.5]]}),
    ("spec-drift-b", 100, 4, "drift", 2.0, {"kind": "SPECTRAL", "atoms": [[0.05, 0.3], [0.25, 0.7]]}),
    ("wc-drift", 300, 12, "drift", 2.0, {"kind": "WC"}),
]

# Priced markets are fixed, not seeded: on seeded priced markets lp_solve
# fails now and then (a residual or pivot-limit RuntimeError on roughly one
# market in fifty), which a run's failure count cannot absorb.  Each is
# (label, N, d, fixed seed, risk spec); the last two have basis-point twins
# (returns x 1e4) that fail every time today, and each twin is held to its
# anchor once it completes.
LP_FIXED = [
    ("es05-priced", 60, 3, 1001, {"kind": "ES", "alpha": 0.05}),
    ("es10-priced", 100, 4, 1002, {"kind": "ES", "alpha": 0.1}),
    ("es25-priced", 150, 5, 1003, {"kind": "ES", "alpha": 0.25}),
    ("es10-priced-big", 200, 6, 1004, {"kind": "ES", "alpha": 0.1}),
    ("spec-priced-b", 80, 4, 1005, {"kind": "SPECTRAL", "atoms": [[0.05, 0.3], [0.25, 0.7]]}),
    ("wc-priced", 120, 6, 1006, {"kind": "WC"}),
    ("anchor-es", 80, 4, 7, {"kind": "ES", "alpha": 0.1}),
    ("anchor-spec", 60, 3, 11, {"kind": "SPECTRAL", "atoms": [[0.1, 0.5], [0.5, 0.5]]}),
]
TWINNED = ("anchor-es", "anchor-spec")
TWIN_SCALE = 1e4

ENT_TEMPLATES = [
    ("evar25-priced", 50, 4, "priced", 0.6, {"kind": "EVAR", "alpha": 0.25}),
    ("evar50-priced", 50, 4, "priced", 0.6, {"kind": "EVAR", "alpha": 0.5}),
    ("evar25-priced-b", 40, 4, "priced", 0.6, {"kind": "EVAR", "alpha": 0.25}),
    ("evar50-priced-b", 40, 4, "priced", 0.6, {"kind": "EVAR", "alpha": 0.5}),
    ("evar10-drift", 50, 4, "drift", 1.0, {"kind": "EVAR", "alpha": 0.1}),
    ("evar25-drift", 50, 4, "drift", 1.0, {"kind": "EVAR", "alpha": 0.25}),
    ("evar50-drift", 50, 4, "drift", 1.0, {"kind": "EVAR", "alpha": 0.5}),
    ("evar10-drift-b", 40, 4, "drift", 1.0, {"kind": "EVAR", "alpha": 0.1}),
    ("evar25-drift-b", 40, 4, "drift", 1.0, {"kind": "EVAR", "alpha": 0.25}),
    ("evar50-drift-b", 40, 4, "drift", 1.0, {"kind": "EVAR", "alpha": 0.5}),
    ("evar10-drift-c", 60, 4, "drift", 1.0, {"kind": "EVAR", "alpha": 0.1}),
]

# TNORM markets are fixed, not seeded: the Frank-Wolfe dual's cost varies
# by more than 10x between seeded markets of one size (0.17 to 3.3 s seen),
# which would swamp the run-to-run spread.  fw-cap (30 x 4, drift 0.4,
# equal odds) is one on which away-step Frank-Wolfe stops at its
# 2000-iteration cap today (GAP_NOT_CLOSED).
# (label, N, d, regime, regime parameter, fixed seed, risk spec)
ENT_FIXED = [
    ("tnorm50-priced", 20, 3, "priced", 0.6, 2001, {"kind": "TNORM", "p": 2, "alpha": 0.5}),
    ("tnorm25-drift", 40, 3, "drift", 1.0, 2001, {"kind": "TNORM", "p": 2, "alpha": 0.25}),
    ("tnorm25-drift-b", 40, 3, "drift", 1.0, 2006, {"kind": "TNORM", "p": 2, "alpha": 0.25}),
    ("fw-cap", 30, 4, "equal-drift", 0.4, 1, {"kind": "TNORM", "p": 2, "alpha": 0.5}),
]



def _cross_op(key, market, spec, meta):
    meta = dict(meta, market=market, spec=spec)
    return Op(key, lambda: rhoarb.cross_validate(market, spec), meta)


def _seeded_round(seed: int, rnd: int, templates) -> list[Op]:
    ops = []
    for t, (label, N, d, regime, param, js) in enumerate(templates):
        market, z = MARKETS[regime](np.random.default_rng([seed, rnd, t]), N, d, param)
        ops.append(_cross_op(f"r{rnd}/{label}", market, _spec(js), {"density": z}))
    return ops


def _lp_fixed_ops() -> list[Op]:
    ops = []
    for label, N, d, fixed_seed, js in LP_FIXED:
        market, z = priced_market(np.random.default_rng(fixed_seed), N, d)
        spec = _spec(js)
        ops.append(_cross_op(label, market, spec, {"density": z}))
        if label in TWINNED:
            ops.append(_cross_op(f"{label}-bp", scaled(market, TWIN_SCALE), spec,
                                 {"density": z, "twin_of": label}))
    return ops


def _ent_fixed_ops() -> list[Op]:
    ops = []
    for label, N, d, regime, param, fixed_seed, js in ENT_FIXED:
        market, z = MARKETS[regime](np.random.default_rng(fixed_seed), N, d, param)
        ops.append(_cross_op(label, market, _spec(js), {"density": z}))
    return ops


# -- cli_closed_form ----------------------------------------------------------

# d = 1 scenario files: (name, format, N, alpha, Sharpe ratio range)
CLI_FILES = [
    ("g10k", "csv", 10_000, 0.05, (0.4, 1.2)),
    ("g100k", "json", 100_000, 0.25, (1.35, 1.55)),
    ("g100k-b", "json", 100_000, 0.1, (2.5, 3.0)),
    ("g100k-c", "json", 100_000, 0.05, (0.4, 1.2)),
]
ELLIPTICAL_DIMS = [(3, "ES"), (10, "VAR"), (30, "ES")]
# The 15 frontier commands on 1e5-scenario JSON files form the middle of the
# round's latency order, so its median and p90 fall inside one block of
# similar commands rather than on the edge between two kinds of command.
PHASE_GRIDS = [("0.001:0.999:3000", "csv"), ("0.0005:0.9995:5000", "json")]


@functools.lru_cache(maxsize=None)
def gaussian_cells(N: int) -> np.ndarray:
    """Standard normal discretized into N equal-probability cells, one
    scenario per cell at the cell's conditional mean.

    The cells depend on N alone, so they are made once per process (the
    array is read-only) and set-up time is left to the seeded inputs.

    x_k = N (phi(q_{k-1}) - phi(q_k)) with q_k the k/N quantile, so the
    average of the lowest m scenarios equals the normal's average over its
    lowest m/N probability mass exactly: ES at any level that is a multiple
    of 1/N is the continuous value.
    """
    q = [-math.inf] + [ND.inv_cdf(k / N) for k in range(1, N)] + [math.inf]
    dens = np.array([0.0 if math.isinf(v) else ND.pdf(v) for v in q])
    cells = N * (dens[:-1] - dens[1:])
    cells.flags.writeable = False
    return cells


def cli_measures(alpha: float) -> list[dict]:
    return [{"kind": "WC"},
            {"kind": "ES", "alpha": alpha},
            {"kind": "SPECTRAL", "atoms": [[alpha, 0.5], [0.5, 0.5]]},
            {"kind": "EVAR", "alpha": alpha},
            {"kind": "TNORM", "p": 2, "alpha": alpha}]


def _write_market(path: str, fmt: str, probs, returns) -> None:
    if fmt == "csv":
        lines = ["prob,asset"] + [f"{p!r},{x!r}" for p, x in zip(probs.tolist(), returns.tolist())]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"riskless_rate": 0.0, "probs": probs.tolist(),
                           "assets": [{"name": "asset", "returns": returns.tolist()}]})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cli_op(key, argv, meta) -> Op:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = rhoarb.cli.main(list(argv))
            except SystemExit as exc:      # argparse usage errors exit
                code = exc.code
        return code, buf.getvalue()
    return Op(key, run, dict(meta, argv=list(argv)))


def _cli_round(seed: int, out_dir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 0])
    ops = []
    for name, fmt, N, alpha, (sr_lo, sr_hi) in CLI_FILES:
        sr = float(rng.uniform(sr_lo, sr_hi))
        sigma = float(rng.uniform(0.01, 0.05))
        z = gaussian_cells(N)
        perm = rng.permutation(N)
        returns = sigma * (sr + z[perm])           # r = 0, so excess = returns
        probs = np.full(N, 1.0 / N)
        path = os.path.join(out_dir, f"{name}.{fmt}")
        _write_market(path, fmt, probs, returns)
        for k, js in enumerate(cli_measures(alpha)):
            out_fmt = "json" if k % 2 else "csv"
            argv = ["frontier", "--market", path, "--risk", json.dumps(js),
                    "--levels", "0,0.5,1,2", "--format", out_fmt]
            ops.append(_cli_op(f"frontier/{name}/{js['kind']}", argv,
                               {"cmd": "frontier", "risk": js, "sr": sr, "N": N,
                                "cells": z, "format": out_fmt}))
    for d, measure in ELLIPTICAL_DIMS:
        A = rng.normal(size=(d, d))
        cov = A @ A.T / d + 0.5 * np.eye(d)
        cov = 0.5 * (cov + cov.T)
        mu_dir = rng.normal(size=d)
        alpha = float(rng.choice([0.01, 0.05, 0.1, 0.25]))
        rho_z = (ND.pdf(ND.inv_cdf(alpha)) / alpha if measure == "ES"
                 else -ND.inv_cdf(alpha))
        target = rho_z * float(rng.choice([0.6, 0.8, 1.25, 1.5]))
        sr_dir = math.sqrt(float(mu_dir @ np.linalg.solve(cov, mu_dir)))
        r = 0.01
        mu = r + mu_dir * (target / sr_dir)
        argv = ["elliptical", "--mu=" + ",".join(repr(float(v)) for v in mu),
                "--sigma=" + ";".join(",".join(repr(float(v)) for v in row) for row in cov),
                f"--r={r!r}", "--measure", measure, f"--alpha={alpha!r}"]
        ops.append(_cli_op(f"elliptical/d{d}", argv,
                           {"cmd": "elliptical", "mu": mu, "cov": cov, "r": r,
                            "measure": measure, "alpha": alpha}))
    for k, (grid, fmt) in enumerate(PHASE_GRIDS):
        sr = float(rng.uniform(0.5, 2.5))
        argv = ["phase-curve", "--alphas", grid, f"--sr={sr!r}", "--format", fmt]
        ops.append(_cli_op(f"phase-curve/{k}/{grid}", argv,
                           {"cmd": "phase-curve", "sr": sr, "format": fmt}))
    return ops


# -- workload table -------------------------------------------------------------


@dataclass
class Workload:
    """A workload's set-up: make_rounds(seed) builds every input it needs."""

    name: str
    tail_q: float                     # percentile reported as verdict_s_tail
    n_rounds: int                     # distinct rounds made at set-up (then repeated)
    make_rounds: Callable[[int, str], list[list[Op]]]

    @property
    def min_ops(self) -> int:
        """Completed operations a run needs for ten samples beyond tail_q."""
        return math.ceil(10.0 / (1.0 - self.tail_q)) + 1


def _lp_rounds(seed: int, out_dir: str) -> list[list[Op]]:
    fixed = _lp_fixed_ops()
    return [_seeded_round(seed, r, LP_TEMPLATES) + fixed
            for r in range(WORKLOADS["lp_cross"].n_rounds)]


def _ent_rounds(seed: int, out_dir: str) -> list[list[Op]]:
    fixed = _ent_fixed_ops()
    return [_seeded_round(seed, r, ENT_TEMPLATES) + fixed
            for r in range(WORKLOADS["entropic_cross"].n_rounds)]


def _cli_rounds(seed: int, out_dir: str) -> list[list[Op]]:
    return [_cli_round(seed, out_dir)]


WORKLOADS = {
    "lp_cross": Workload("lp_cross", 0.75, 4, _lp_rounds),
    "entropic_cross": Workload("entropic_cross", 0.75, 3, _ent_rounds),
    "cli_closed_form": Workload("cli_closed_form", 0.9, 1, _cli_rounds),
}


def markets_of(rounds: list[list[Op]]):
    """Every distinct market object in the rounds (for set-up validation)."""
    seen = {}
    for ops in rounds:
        for op in ops:
            m = op.meta.get("market")
            if m is not None:
                seen[id(m)] = m
    return list(seen.values())

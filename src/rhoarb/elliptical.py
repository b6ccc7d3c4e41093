"""Closed-form risk-arbitrage analytics for elliptical return models.

For returns R ~ E(mu, Sigma, generator) every excess return X_pi is a
scaled copy of one standardized variable Z plus its mean, so the whole
frontier collapses to the scalar comparison between rho(Z) and the maximal
Sharpe ratio: rho_1 = -1 + rho(Z) / SR_max.  The trichotomy is then

    SR_max < rho(Z)   no rho-arbitrage
    SR_max = rho(Z)   rho-arbitrage (boundary)
    SR_max > rho(Z)   strong rho-arbitrage

and rho(Z) <= 0 gives strong rho-arbitrage for every mu, Sigma.  In the
Gaussian case rho(Z) is Phi^{-1}(1 - alpha) for VaR and
phi(Phi^{-1}(alpha)) / alpha for ES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .frontier import ArbitrageVerdict
from .gaussian import Phi_inv, phi
from .solvers import increasing_root

Vector = NDArray[np.float64]

SYMMETRY_TOL = 1e-10
DEGENERACY_TOL = 1e-12
BOUNDARY_TOL = 1e-9
ALPHA_LO = 1e-12
ALPHA_HI = 1.0 - 1e-12


@dataclass(frozen=True, eq=False)
class EllipticalMarket:
    """Elliptical return model: mean vector, covariance, riskless rate.

    rho_z, when given, fixes the standardized risk rho(Z) directly;
    otherwise it is derived per measure under the Gaussian generator.
    """

    mean: Vector
    cov: Vector
    riskless_rate: float
    rho_z: float | None = None

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=np.float64)
        cov = np.array(self.cov, dtype=np.float64)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError("mean must be (d,) and cov (d, d)")
        if np.abs(cov - cov.T).max() > SYMMETRY_TOL:
            raise ValueError("cov must be symmetric within 1e-10")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("cov must be positive definite") from None
        if np.abs(mean - self.riskless_rate).max() <= DEGENERACY_TOL:
            raise ValueError("NONDEGENERATE: mean excess is zero, mu = r 1")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "riskless_rate", float(self.riskless_rate))
        if self.rho_z is not None:
            object.__setattr__(self, "rho_z", float(self.rho_z))


def sr_max(market: EllipticalMarket) -> tuple[float, Vector]:
    """Maximal Sharpe ratio and the tangency portfolio attaining it.

    SR_max = sqrt((mu - r 1)' Sigma^-1 (mu - r 1)); the tangency portfolio
    is the Sigma^-1 (mu - r 1) direction scaled to unit expected excess.
    """
    a = market.mean - market.riskless_rate
    L = np.linalg.cholesky(market.cov)
    y = np.linalg.solve(L.T, np.linalg.solve(L, a))
    sq = float(a @ y)
    sr = math.sqrt(sq)
    return sr, y / sq


def gaussian_rho_z(measure: str, alpha: float) -> float:
    """rho(Z) for standard normal Z: VAR or ES at level alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    kind = measure.upper()
    if kind == "VAR":
        return -Phi_inv(alpha) + 0.0  # + 0.0 turns the median's -0.0 into 0.0
    if kind == "ES":
        return phi(Phi_inv(alpha)) / alpha
    raise ValueError(f"gaussian rho(Z) is defined for VAR/ES, got {measure!r}")


def classify_trichotomy(market: EllipticalMarket, measure: str = "ES",
                        alpha: float | None = None, *,
                        tol: float = BOUNDARY_TOL) -> tuple[ArbitrageVerdict, float]:
    """Classify the elliptical market; returns (verdict, rho_1).

    rho(Z) comes from market.rho_z when set, else from the Gaussian
    closed forms.  rho_1 = -1 + rho(Z)/SR_max for rho(Z) >= 0 and -inf for
    rho(Z) < 0 (risk rewards dispersion, so scaling up any slice portfolio
    drives the objective to -inf and optimal portfolios do not exist).
    """
    if market.rho_z is not None:
        rho_z = market.rho_z
    else:
        if alpha is None:
            raise ValueError("alpha is required when rho_z is not fixed")
        rho_z = gaussian_rho_z(measure, alpha)
    sr, tangency = sr_max(market)

    annotations: list[str] = []
    if rho_z < 0.0:
        rho1 = -math.inf
        if market.mean.size >= 2:
            annotations.append("OPTIMAL_PORTFOLIOS_DO_NOT_EXIST")
    elif rho_z == 0.0:
        rho1 = -1.0
    else:
        rho1 = -1.0 + rho_z / sr

    verdict = _verdict(sr, rho_z, tol)
    if rho_z <= 0.0:
        annotations.append("STRONG_FOR_EVERY_MEAN_AND_COVARIANCE")
    elif verdict == "RHO_ARBITRAGE":
        annotations.append("BOUNDARY")

    certificate = {
        "sr_max": sr,
        "rho_z": rho_z,
        "tangency": tangency.tolist(),
    }
    if verdict == "STRONG_RHO_ARBITRAGE" and math.isfinite(rho1):
        certificate["portfolio"] = tangency.tolist()
        certificate["rho"] = rho1
        certificate["expected_excess"] = 1.0
    verdict_obj = ArbitrageVerdict(verdict=verdict, route="ELLIPTICAL", rho1=rho1,
                                   certificate=certificate,
                                   annotations=tuple(annotations))
    return verdict_obj, rho1


def _verdict(sr_value: float, rho_z: float, tol: float = BOUNDARY_TOL) -> str:
    """The trichotomy of comparing SR_max with rho(Z), boundary within tol."""
    if rho_z <= 0.0:
        return "STRONG_RHO_ARBITRAGE"
    if abs(sr_value - rho_z) <= tol:
        return "RHO_ARBITRAGE"
    return "STRONG_RHO_ARBITRAGE" if sr_value > rho_z else "NO_ARBITRAGE"


def critical_alpha(sr_value: float, measure: str = "ES") -> float:
    """The level where the standardized risk crosses sr: rho(Z; alpha*) = sr.

    Both thresholds decrease strictly in alpha, so sr - rho(Z; alpha) is
    increasing and increasing_root pins its sign change on
    (1e-12, 1 - 1e-12).  Raises when sr is outside the bracket's
    attainable range (above ~7 or nonpositive).
    """
    if not sr_value > 0.0:
        raise ValueError("sr must be positive")
    if (gaussian_rho_z(measure, ALPHA_LO) < sr_value
            or gaussian_rho_z(measure, ALPHA_HI) > sr_value):
        raise ValueError(f"sr = {sr_value!r} has no crossing inside "
                         f"({ALPHA_LO}, {ALPHA_HI}) for {measure}")
    return increasing_root(lambda a: sr_value - gaussian_rho_z(measure, a),
                           ALPHA_LO, ALPHA_HI)


def phase_curve_rows(alphas, sr_value: float | None = None) -> list[tuple]:
    """Rows (alpha, ES threshold, VaR threshold[, verdict_es, verdict_var]).

    With sr_value given, each row also carries the verdict of comparing sr
    against the threshold at that alpha (threshold crossing = boundary).
    """
    rows = []
    for a in alphas:
        es_t = gaussian_rho_z("ES", a)
        var_t = gaussian_rho_z("VAR", a)
        if sr_value is None:
            rows.append((a, es_t, var_t))
        else:
            rows.append((a, es_t, var_t, _verdict(sr_value, es_t), _verdict(sr_value, var_t)))
    return rows

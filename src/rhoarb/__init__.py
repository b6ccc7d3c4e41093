"""Mean-risk portfolio selection and risk-arbitrage detection.

Scenario markets, positively homogeneous risk measures, the unit-level
frontier value rho1, and three routes to the arbitrage trichotomy:
primal optimization, dual martingale-density certificates, and closed
forms for elliptical models.
"""

from .dual import (ClassicalResult, CrossValidation, DualWitness, SupnormResult,
                   classical_no_arbitrage, classify_dual, cross_validate, es_min_supnorm)
from .elliptical import (EllipticalMarket, classify_trichotomy, critical_alpha,
                         gaussian_rho_z, phase_curve_rows, sr_max)
from .frontier import (ArbitrageVerdict, FrontierResult,
                       UnsupportedGlobalMinError, classify_primal, compute_rho1,
                       frontier_points)
from .lp import LinearProgram, LPSolution, SimplexError, lp_solve
from .market import (DegenerateMarketError, MartingalePolytope, ScenarioMarket,
                     canonical_portfolio, excess_return, expected_excess,
                     validate_market)
from .measures import (RiskSpec, UnsupportedDualError, UnsupportedPrimalError,
                       evaluate)

__version__ = "0.1.0"

__all__ = [
    "ArbitrageVerdict", "ClassicalResult", "CrossValidation",
    "DegenerateMarketError", "DualWitness", "EllipticalMarket",
    "FrontierResult", "LPSolution", "LinearProgram",
    "MartingalePolytope", "RiskSpec", "ScenarioMarket",
    "SimplexError", "SupnormResult", "UnsupportedDualError",
    "UnsupportedGlobalMinError", "UnsupportedPrimalError",
    "canonical_portfolio", "classical_no_arbitrage", "classify_dual",
    "classify_primal", "classify_trichotomy", "compute_rho1",
    "critical_alpha", "cross_validate", "es_min_supnorm",
    "evaluate", "excess_return", "expected_excess", "frontier_points",
    "gaussian_rho_z", "lp_solve",
    "phase_curve_rows", "sr_max", "validate_market",
]

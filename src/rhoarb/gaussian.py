"""Standard normal density, CDF and quantile over the standard library.

erf and erfc are math's; the quantile is statistics.NormalDist's
(Wichura's AS241, ~1e-16 relative), taken on the lower tail and reflected,
so Phi_inv(u) == -Phi_inv(1 - u) holds exactly for u > 1/2.
"""

from __future__ import annotations

import math
from math import erf, erfc
from statistics import NormalDist

SQRT2 = math.sqrt(2.0)
SQRT2PI = math.sqrt(2.0 * math.pi)
_inv_cdf = NormalDist().inv_cdf


def phi(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / SQRT2PI


def Phi(x: float) -> float:
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2)."""
    return 0.5 * erfc(-x / SQRT2)


def Phi_inv(u: float) -> float:
    """Standard normal quantile on (0, 1); raises ValueError elsewhere, nan included."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {u!r}")
    if u > 0.5:
        return -_inv_cdf(1.0 - u)
    return _inv_cdf(u)

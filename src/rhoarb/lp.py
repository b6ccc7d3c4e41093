"""Dense linear programming by the bounded-variable primal simplex method.

Programs are stated as

    minimize    c . v
    subject to  A_eq v  = b_eq
                A_le v <= b_le
                lower <= v <= upper   (coordinatewise, +-inf allowed)

Each inequality gets a slack; bounds stay implicit.  A nonbasic variable
rests at one of its finite bounds, and the ratio test lets the entering
variable run to its opposite bound without a pivot, so a finite upper bound
costs no row and a pivot touches an m x n tableau whose m counts only the
real constraints.  Variables start at the program's start point when it
has one (a crash start, which can put variables at the bounds the caller
expects them to take at the optimum) and otherwise at the point of their
range nearest 0 (a free one at 0), so a box around 0 does not start at a
remote corner.  A variable strictly inside its range is priced both ways
until it reaches a bound or enters the basis.

Rows, then columns, are first scaled by powers of two (exact in floating
point) so that each has its largest entry in [1, 2).  The pivot, pricing
and feasibility tolerances act on that unit-size data, which makes them
relative to the program: rescaling a row, a right-hand side or a variable
by a power of two leaves the pivot path unchanged, and by any other
constant changes it only through rounding.

Phase I minimizes the sum of artificials placed on the rows that the
starting point violates; Phase II then fixes the artificials at zero.
Pricing is Dantzig's (largest scaled reduced cost), with a Harris two-pass
ratio test that prefers large pivots among near-ties.  The reduced costs
ride along as an extra tableau row, so each pivot is one rank-one update.
After DEGENERATE_RUN consecutive degenerate pivots the solver switches to
Bland's rule (smallest eligible index enters, smallest basic index breaks
ratio ties) until the objective moves again, which keeps every run finite;
every run on the same input takes the same pivot path.  A run that still
exceeds MAX_PIVOTS, or ends on a point that fails the residual check,
raises SimplexError.

At the optimum the basis is refactored from the scaled data: the basic
values and the row duals come from direct solves, and pricing is rechecked,
so update error does not reach the answer.

The programs of this package are short and wide: d + 1 rows for the
martingale polytope, J + d for the slice, against N to J N columns.  An
iteration prices the reduced-cost row (one product with the sign vector
and an argmax), runs the ratio test down the m rows and, on a pivot, makes
one rank-one update of the (m + 1) x n tableau.  At m near 10 the update's
arithmetic takes a microsecond or two, and the fixed cost of each call into
numpy, one to a few microseconds, sets the time of an iteration.  So the ratio
test scans the rows once in Python floats rather than making some fifteen
numpy calls over arrays of m entries; its expressions and their order are
those of the vectorized test, so every ratio, Harris cap and tie-break is
the same to the bit, and a pivot makes about nine array operations.
The scan is O(m) against the update's O(m n); at m = 50 it costs about
what the vectorized test did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

OPTIMAL = "OPTIMAL"
UNBOUNDED = "UNBOUNDED"
INFEASIBLE = "INFEASIBLE"

# Tolerances act on the power-of-two scaled program (unit-size entries).
PIVOT_TOL = 1e-9        # |pivot| must exceed this times the column's largest entry
COST_TOL = 1e-9         # reduced cost must beat this times the largest cost to enter
PRIMAL_TOL = 1e-12      # bound violation allowed in the ratio test, per unit of bound
FEAS_TOL = 1e-9         # Phase I artificials above this share of the program's size: infeasible
RESIDUAL_TOL = 1e-6     # relative residual above this at the optimum raises
DEGENERATE_RUN = 50     # consecutive degenerate pivots before Bland's rule takes over
MAX_PIVOTS = 50_000
MAX_REFACTORS = 5


class SimplexError(RuntimeError):
    """The simplex could not certify an answer: pivot limit, an unbounded
    Phase I, or an optimum that fails the residual check.  Callers raise it
    too when a program that always has an optimum reports another status."""


def _as_matrix(a, ncols: int, name: str) -> Vector:
    if a is None:
        return np.zeros((0, ncols))
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != ncols:
        raise ValueError(f"{name} must be 2-D with {ncols} columns")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Immutable problem statement; bounds default to v >= 0.

    start, if given, is where the simplex starts: one finite entry per
    variable, within its bounds.  It changes the pivot path, not the
    optimum.
    """

    c: Vector
    A_eq: Vector | None = None
    b_eq: Vector | None = None
    A_le: Vector | None = None
    b_le: Vector | None = None
    lower: Vector | None = None
    upper: Vector | None = None
    start: Vector | None = None

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=np.float64)
        if c.ndim != 1:
            raise ValueError("c must be 1-D")
        if not np.all(np.isfinite(c)):
            raise ValueError("c must be finite")
        n = c.size
        A_eq = _as_matrix(self.A_eq, n, "A_eq")
        A_le = _as_matrix(self.A_le, n, "A_le")
        b_eq = np.zeros(0) if self.b_eq is None else np.asarray(self.b_eq, dtype=np.float64).ravel()
        b_le = np.zeros(0) if self.b_le is None else np.asarray(self.b_le, dtype=np.float64).ravel()
        if b_eq.size != A_eq.shape[0] or b_le.size != A_le.shape[0]:
            raise ValueError("right-hand side length does not match its matrix")
        if not (np.all(np.isfinite(b_eq)) and np.all(np.isfinite(b_le))):
            raise ValueError("right-hand sides must be finite")
        lower = np.zeros(n) if self.lower is None else np.asarray(self.lower, dtype=np.float64).ravel()
        upper = np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, dtype=np.float64).ravel()
        if lower.size != n or upper.size != n:
            raise ValueError("bounds must have one entry per variable")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("bounds may be +-inf but not nan")
        start = self.start
        if start is not None:
            start = np.asarray(start, dtype=np.float64).ravel()
            if start.size != n or not np.all(np.isfinite(start)):
                raise ValueError("start must have one finite entry per variable")
            if np.any(start < lower) or np.any(start > upper):
                raise ValueError("start must lie within the bounds")
        for name, val in (("c", c), ("A_eq", A_eq), ("b_eq", b_eq), ("A_le", A_le),
                          ("b_le", b_le), ("lower", lower), ("upper", upper),
                          ("start", start)):
            object.__setattr__(self, name, val)

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True, eq=False)
class LPSolution:
    """Solver outcome.

    Attributes
    ----------
    status : one of OPTIMAL, UNBOUNDED, INFEASIBLE.
    value : objective at the optimum; -inf if UNBOUNDED, nan if INFEASIBLE.
    x : optimal point in the original variables, or None.
    iterations : total simplex pivots and bound flips across both phases.
    residual : max constraint/bound violation at x (0.0 when x is None).
    duals : at the optimum, the equality-row multipliers y (the rate of change
        of the optimal value with b_eq), else None.
    """

    status: str
    value: float
    x: Vector | None
    iterations: int
    residual: float
    duals: Vector | None = None


def _pow2_scale(mags: Vector) -> Vector:
    """Powers of two taking each positive magnitude into [1, 2); 1 for zeros."""
    _, exp = np.frexp(mags)
    return np.where(mags > 0.0, np.ldexp(1.0, 1 - exp), 1.0)


class _Tableau:
    """Scaled standard form K x = b, lo <= x <= hi, and the simplex state.

    Columns are the structural variables, one slack per inequality, then one
    artificial per row that the starting point violates.  T holds B^-1 K in
    its first m rows and the reduced costs in row m; xB holds basic values
    and x the values of nonbasic variables.  A structural variable starts
    at the program's start when it has one, else at the point of its range
    nearest 0 (so a free one, or a box around 0, starts at 0, and no
    starting point sits at a remote bound); slacks start basic or at 0.
    Once a variable moves it comes to rest at a bound or enters the basis.
    """

    def __init__(self, lp: LinearProgram):
        n = lp.n_vars
        me, mi = lp.A_eq.shape[0], lp.A_le.shape[0]
        m = me + mi
        K = np.zeros((m, n + mi))
        K[:me, :n] = lp.A_eq
        K[me:, :n] = lp.A_le
        K[me:, n:] = np.eye(mi)
        b = np.concatenate([lp.b_eq, lp.b_le])
        lo = np.concatenate([lp.lower, np.zeros(mi)])
        hi = np.concatenate([lp.upper, np.full(mi, np.inf)])
        cost = np.concatenate([lp.c, np.zeros(mi)])

        self.row_scale = _pow2_scale(np.abs(K).max(axis=1, initial=0.0))
        K *= self.row_scale[:, None]
        b = b * self.row_scale
        self.col_scale = _pow2_scale(np.abs(K).max(axis=0, initial=0.0))
        K *= self.col_scale[None, :]
        lo = lo / self.col_scale
        hi = hi / self.col_scale
        cost = cost * self.col_scale

        if lp.start is None:
            x = np.clip(0.0, lo, hi)           # the point of the box nearest 0
        else:
            x = np.concatenate([lp.start, np.zeros(mi)]) / self.col_scale
        r = b - K @ x
        # Slacks start basic where the starting point leaves them >= 0;
        # every other row gets an artificial, signed so that it starts at |r|.
        slack_ok = np.zeros(m, dtype=bool)
        slack_ok[me:] = r[me:] >= 0.0
        art_rows = np.flatnonzero(~slack_ok)
        nart = art_rows.size
        self.n_real = n + mi
        basis = np.empty(m, dtype=np.int64)
        basis[slack_ok] = n + np.flatnonzero(slack_ok[me:])
        basis[art_rows] = self.n_real + np.arange(nart)
        art = np.zeros((m, nart))
        art[art_rows, np.arange(nart)] = np.where(r[art_rows] >= 0.0, 1.0, -1.0)
        self.K = np.hstack([K, art])
        self.b = b
        self.lo = np.concatenate([lo, np.zeros(nart)])
        self.hi = np.concatenate([hi, np.full(nart, np.inf)])
        self.cost = np.concatenate([cost, np.zeros(nart)])
        self.m, self.n, self.n_art = m, n, nart
        self.x = np.concatenate([x, np.zeros(nart)])
        self.basis = basis
        self.is_basic = np.zeros(self.x.size, dtype=bool)
        self.is_basic[basis] = True
        diag = self.K[np.arange(m), basis]      # the starting basis is diagonal
        self.xB = r / diag
        self.T = np.empty((m + 1, self.x.size))
        self.T[:m] = self.K / diag[:, None]
        self.iterations = 0

    def price(self, cost: Vector) -> None:
        """Reduced costs of cost in row m of T, and the pricing state: the
        tolerance on reduced costs, the sign they must have against the way
        a nonbasic variable can move (-1 up from a lower bound, +1 down from
        an upper one, 0 for basic or fixed), the nonbasic variables strictly
        inside their range (either way), and the bounds of the basics.
        Flips and pivots keep the state current, and refactor leaves it as
        it is, so it is built once per phase."""
        self.T[self.m] = cost - cost[self.basis] @ self.T[:self.m]
        lo, hi, x = self.lo, self.hi, self.x
        self.cost_tol = COST_TOL * max(float(np.abs(cost).max(initial=0.0)), 1e-300)
        self.sense = np.where(x >= hi, 1.0, -1.0)
        self.sense[(hi <= lo) | self.is_basic] = 0.0
        self.inside = set(np.flatnonzero(~self.is_basic & (x > lo) & (x < hi)).tolist())
        self.bl = lo[self.basis]
        self.bu = hi[self.basis]

    def solve_basics(self) -> None:
        """Basic values from the data, the basis and the nonbasic values."""
        if self.m:
            x = np.where(self.is_basic, 0.0, self.x)
            self.xB = np.linalg.solve(self.K[:, self.basis], self.b - self.K @ x)

    def refactor(self, cost: Vector) -> bool:
        """Recompute xB, the row duals y and the reduced costs from the data
        and the basis; return whether some nonbasic variable can still
        improve.  T itself is recomputed only then, for the iterations that
        follow."""
        self.solve_basics()
        B = self.K[:, self.basis]
        self.y = np.linalg.solve(B.T, cost[self.basis]) if self.m else np.zeros(0)
        self.T[self.m] = cost - self.y @ self.K
        if self._entering(bland=False) < 0:
            return False
        if self.m:
            self.T[:self.m] = np.linalg.solve(B, self.K)
        return True

    def _entering(self, bland: bool) -> int:
        """Entering column, or -1 at optimality."""
        d = self.T[self.m]
        score = d * self.sense
        for j in self.inside:
            score[j] = abs(d[j])
        if bland:
            eligible = score > self.cost_tol
            q = int(eligible.argmax())
            return q if eligible[q] else -1
        q = int(score.argmax())
        return q if score[q] > self.cost_tol else -1

    def run(self) -> str:
        """Primal simplex from the current (primal feasible) basis, on the
        costs last priced."""
        m, T, lo, hi, x = self.m, self.T, self.lo, self.hi, self.x
        bland = False
        degenerate = 0
        while True:
            if self.iterations > MAX_PIVOTS:
                raise SimplexError("simplex pivot limit exceeded")
            q = self._entering(bland)
            if q < 0:
                return OPTIMAL
            s = 1.0 if T[m, q] < 0.0 else -1.0       # direction the entering variable moves
            g = s * T[:m, q]                         # basic i moves by -theta g_i
            row, theta = self._ratio(g, bland)
            xq = x.item(q)
            flip = hi.item(q) - xq if s > 0.0 else xq - lo.item(q)   # run to its own bound
            if row < 0 and flip == math.inf:
                return UNBOUNDED
            if row < 0 or flip <= theta:
                theta = flip
                x[q] = hi[q] if s > 0.0 else lo[q]
                self.sense[q] = s
                self.inside.discard(q)
                self.xB -= theta * g
            else:
                self._pivot(row, q, s, theta, g)
            self.iterations += 1
            if theta > 0.0:
                degenerate = 0
                bland = False
            else:
                degenerate += 1
                bland = degenerate >= DEGENERATE_RUN

    def _ratio(self, g: Vector, bland: bool) -> tuple[int, float]:
        """Leaving row and step length; (-1, inf) when nothing blocks.

        One scan of the rows in Python floats: with m near d + 1, each call
        into numpy would cost more than the arithmetic it does.
        """
        gs = g.tolist()
        tol = PIVOT_TOL * max(1.0, max(map(abs, gs), default=0.0))
        rows = []                        # (row, ratio, |g|) of the rows that can block
        cap = math.inf                   # Harris: the least relaxed step
        for i, gi, xi, lo, up in zip(range(self.m), gs, self.xB.tolist(),
                                     self.bl.tolist(), self.bu.tolist()):
            den = abs(gi)
            if den > tol:
                bound = lo if gi > 0.0 else up
                # Step to the blocking bound; a basic value already past its
                # bound (by at most the Harris tolerance) blocks at once.
                # "<=" maps -0.0 to 0.0 as well, as np.maximum(ratio, 0.0) does.
                ratio = (xi - bound) / gi
                if ratio <= 0.0:
                    ratio = 0.0
                rows.append((i, ratio, den))
                if ratio < cap:          # else its relaxed step >= ratio >= cap
                    relaxed = ratio + PRIMAL_TOL * (1.0 + abs(bound)) / den
                    if relaxed < cap:
                        cap = relaxed
        if bland:
            best = min((ratio for _, ratio, _ in rows), default=math.inf)
            if best == math.inf:
                return -1, best
            tie = best + 1e-12 * (1.0 + best)
            return min((i for i, ratio, _ in rows if ratio <= tie), key=self.basis.item), best
        if cap == math.inf:
            return -1, cap
        # Harris: the largest pivot among rows blocking within the relaxed
        # step, the first of them on a tie.
        i, ratio, _ = max((r for r in rows if r[1] <= cap), key=lambda r: r[2])
        return i, ratio

    def _pivot(self, row: int, q: int, s: float, theta: float, g: Vector) -> None:
        T, x, lo, hi = self.T, self.x, self.lo, self.hi
        leaving = self.basis.item(row)
        to_upper = g.item(row) < 0.0
        x[leaving] = hi[leaving] if to_upper else lo[leaving]
        entering_value = x[q] + s * theta
        self.xB -= theta * g
        self.xB[row] = entering_value
        self.is_basic[leaving] = False
        self.is_basic[q] = True
        self.basis[row] = q
        fixed = hi[leaving] <= lo[leaving]
        self.sense[leaving] = 0.0 if fixed else (1.0 if to_upper else -1.0)
        self.sense[q] = 0.0
        self.inside.discard(q)
        self.bl[row], self.bu[row] = lo[q], hi[q]
        prow = T[row] / T[row, q]
        T -= T[:, q, None] * prow           # the product is formed before T changes
        T[row] = prow

    def size(self) -> float:
        """Scale of the scaled program at its current point: the largest
        right-hand side or variable, the unit of primal feasibility."""
        v = self.point()[:self.n_real]
        return max(float(np.abs(self.b).max(initial=0.0)),
                   float(np.abs(v).max(initial=0.0)), np.finfo(float).tiny)

    def point(self) -> Vector:
        v = self.x.copy()
        v[self.basis] = self.xB
        return np.clip(v, self.lo, self.hi)


def _residual(lp: LinearProgram, v: Vector) -> float:
    """Max constraint/bound violation at v, in the program's own units."""
    res = 0.0
    if lp.A_eq.shape[0]:
        res = max(res, float(np.abs(lp.A_eq @ v - lp.b_eq).max()))
    if lp.A_le.shape[0]:
        res = max(res, float(np.maximum(lp.A_le @ v - lp.b_le, 0.0).max()))
    res = max(res, float(np.maximum(lp.lower - v, 0.0).max(initial=0.0)))
    return max(res, float(np.maximum(v - lp.upper, 0.0).max(initial=0.0)))


def lp_solve(lp: LinearProgram) -> LPSolution:
    """Solve lp deterministically; see module docstring for the method."""
    if np.any(lp.lower > lp.upper):
        return LPSolution(INFEASIBLE, np.nan, None, 0, 0.0)
    tab = _Tableau(lp)

    if tab.n_art:
        phase1 = np.zeros(tab.x.size)
        phase1[tab.n_real:] = 1.0
        tab.price(phase1)
        if tab.run() != OPTIMAL:
            raise SimplexError("phase 1 cannot be unbounded")
        tab.solve_basics()
        left = float(tab.xB[tab.basis >= tab.n_real].sum())
        if left > FEAS_TOL * tab.size():
            return LPSolution(INFEASIBLE, np.nan, None, tab.iterations, 0.0)
        # Artificials are fixed at 0 from here on.  One left basic blocks
        # every move that would change it, so Phase II pivots it out the
        # first time a column touches its row; on a redundant row it stays.
        tab.hi[tab.n_real:] = 0.0

    cost = tab.cost
    tab.price(cost)
    for _ in range(MAX_REFACTORS):
        if tab.run() == UNBOUNDED:
            return LPSolution(UNBOUNDED, -np.inf, None, tab.iterations, 0.0)
        if not tab.refactor(cost):
            break

    # Feasibility is judged on the scaled program, whose entries are of unit
    # size, against the size of its right-hand side and of the point.
    point = tab.point()[:tab.n_real]
    gap = float(np.abs(tab.K[:, :tab.n_real] @ point - tab.b).max(initial=0.0))
    size = tab.size()
    if gap > RESIDUAL_TOL * size:
        raise SimplexError(f"simplex returned an infeasible point (relative residual "
                           f"{gap / size:.3e})")
    v = point[:tab.n] * tab.col_scale[:tab.n]
    y = tab.y * tab.row_scale
    return LPSolution(OPTIMAL, float(lp.c @ v), v, tab.iterations, _residual(lp, v),
                      duals=y[:lp.A_eq.shape[0]])

"""Dense linear programming by the bounded-variable simplex method.

Programs are stated as

    minimize    c . v
    subject to  A_eq v  = b_eq
                A_le v <= b_le
                lower <= v <= upper   (coordinatewise, +-inf allowed)

Each inequality gets a slack; bounds stay implicit.  A nonbasic variable
rests at one of its finite bounds, and the ratio test lets the entering
variable run to its opposite bound without a pivot, so a finite upper bound
costs no row and a pivot touches an m x n tableau whose m counts only the
real constraints.

Rows, then columns, are first scaled by powers of two (exact in floating
point) so that each has its largest entry in [1, 2).  The pivot, pricing
and feasibility tolerances act on that unit-size data, which makes them
relative to the program: rescaling a row with its right-hand side, the
objective, or every variable at once by a power of two leaves the pivot
path unchanged.  A power of two on one variable can move the largest
entry of a row, and with it the row's scale; that, and any other
constant, changes the path only through the scales and rounding.

A program without a basis hint runs the primal simplex.  Variables start
at the point of their range nearest 0 (a free one at 0), so a box around 0
does not start at a remote corner; a variable strictly inside its range is
priced both ways until it reaches a bound or enters the basis.  Phase I
minimizes the sum of artificials placed on the rows that the starting point
violates; Phase II then fixes the artificials at zero.  Pricing is
Dantzig's (largest scaled reduced cost), with a Harris two-pass ratio test
that prefers large pivots among near-ties.  The reduced costs ride along as
an extra tableau row, so each pivot is one rank-one update.  After
DEGENERATE_RUN consecutive degenerate pivots the solver switches to Bland's
rule (smallest eligible index enters, smallest basic index breaks ratio
ties) until the objective moves again, which keeps every run finite.

A program with a basis hint, variable indices in order of preference, runs
the dual simplex first.  It suits programs whose columns are all boxed but
one, and whose hint names that column first: the basis is the first m
independent columns of the hint, found by Gaussian elimination with partial
pivoting on the scaled data, and every other column starts at the bound its
reduced cost asks for (the upper one when it is negative).  The elimination
runs only when one inverse of the hint's first m columns B cannot certify
them: each of its pivots u_kk has 1/|u_kk| <= m max |B^-1|, so under
2 m max |B^-1| HINT_PIVOT_TOL < 1 it would pick exactly those columns, in
order (_independent_columns), and they are the basis.  That start is
dual feasible by construction, so the dual run needs no Phase I and no
artificials.  Each iteration lets the most infeasible basic variable leave
and runs the long-step (bound-flipping) ratio test along its tableau row:
the dual objective rises along the step at a slope that starts at the
leaving variable's infeasibility and falls at each breakpoint, where a
column's reduced cost reaches zero, by the column's entry times its range.
While the slope stays positive the column flips to its opposite bound and
the step goes on; the column at which it would turn negative enters, the
largest entry among the breakpoints within the Harris tolerance.  So one
iteration can move many boxed columns across their bounds (Kostina, Math.
Methods Oper. Res. 55(3), 2002; Koberstein, Comput. Optim. Appl. 41(2),
2008).  An iteration in which the dual objective does not move (the
entering reduced cost is zero to tolerance: dual degeneracy, on which the
dual run can cycle) pushes the reduced costs of the nonbasic columns away
from zero by small fixed amounts, the way their bounds ask.  Once the basis
is primal feasible the true costs are priced again, if they were perturbed,
and the primal run above cleans up from that basis; it takes no pivot
unless the perturbation changed the optimal basis.  A start that is not
dual feasible (a hint with fewer than m independent columns, or a column
that would rest at an infinite bound) falls back to the primal run from its
default start.

A dual run that finds no column to enter an infeasible row has found a
ray along which the dual objective rises without bound, and that row of
B^-1 is a Farkas certificate (Koberstein 2008): y = e_row B^-1, from a
fresh solve, gives y K x = y b for every x that meets the rows, so y b
outside the range of y K x over the box shows that none lies in it.  The
run returns INFEASIBLE when y b clears that range by more than FEAS_TOL
times the size of the terms (_Tableau.farkas), with no Phase I.  A range
that an infinite bound leaves open on the side of y b, or that y b clears
by less, proves nothing; the two-phase primal run then decides.

Every run on the same input takes the same path.  A run that exceeds
MAX_PIVOTS, or ends on a point that fails the residual check, raises
SimplexError.  At the optimum the basis is refactored from the scaled
data: the basic values and the row duals come from direct solves, and
pricing is rechecked, so update error does not reach the answer.

The programs of this package are short and wide: d + 1 rows for the
martingale polytope, J + d for the slice, against N to J N columns.  A
primal iteration prices the reduced-cost row (one product with the sign
vector and an argmax), runs the ratio test down the m rows and, on a pivot,
makes one rank-one update of the (m + 1) x n tableau.  At m near 10 the
update's arithmetic takes a microsecond or two, and the fixed cost of each
call into numpy, one to a few microseconds, sets the time of an iteration.
So the primal ratio test scans the rows once in Python floats rather than
making some fifteen numpy calls over arrays of m entries; its expressions
and their order are those of the vectorized test, so every ratio, Harris
cap and tie-break is the same to the bit, and a pivot makes about nine
array operations.  The dual ratio test finds and sorts the breakpoints of
its row of n entries in numpy, then walks them in Python floats only as
far as the long step and the Harris pass reach.
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
HINT_PIVOT_TOL = 1e-6   # least pivot, on unit-size columns, that admits a hint column to the basis
DUAL_PERTURB = 1e-7     # size of the reduced-cost perturbation, per unit of the largest cost
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
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Immutable problem statement; bounds default to v >= 0.

    hint, if given, is a basis hint: distinct variable indices in order of
    preference, from which the dual simplex takes its starting basis (see
    the module docstring).  It changes the pivot path, not the optimum.
    """

    c: Vector
    A_eq: Vector | None = None
    b_eq: Vector | None = None
    A_le: Vector | None = None
    b_le: Vector | None = None
    lower: Vector | None = None
    upper: Vector | None = None
    hint: NDArray[np.intp] | None = None

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=np.float64)
        if c.ndim != 1:
            raise ValueError("c must be 1-D")
        if not np.isfinite(c).all():
            raise ValueError("c must be finite")
        n = c.size
        A_eq = _as_matrix(self.A_eq, n, "A_eq")
        A_le = _as_matrix(self.A_le, n, "A_le")
        b_eq = np.zeros(0) if self.b_eq is None else np.asarray(self.b_eq, dtype=np.float64).ravel()
        b_le = np.zeros(0) if self.b_le is None else np.asarray(self.b_le, dtype=np.float64).ravel()
        if b_eq.size != A_eq.shape[0] or b_le.size != A_le.shape[0]:
            raise ValueError("right-hand side length does not match its matrix")
        if not (np.isfinite(b_eq).all() and np.isfinite(b_le).all()):
            raise ValueError("right-hand sides must be finite")
        lower = np.zeros(n) if self.lower is None else np.asarray(self.lower, dtype=np.float64).ravel()
        upper = np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, dtype=np.float64).ravel()
        if lower.size != n or upper.size != n:
            raise ValueError("bounds must have one entry per variable")
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValueError("bounds may be +-inf but not nan")
        hint = self.hint
        if hint is not None:
            hint = np.asarray(hint)
            if hint.ndim != 1 or not np.issubdtype(hint.dtype, np.integer):
                raise ValueError("hint must be a 1-D sequence of variable indices")
            hint = hint.astype(np.intp, copy=False)
            if hint.size and (hint.min() < 0 or hint.max() >= n):
                raise ValueError("hint must hold distinct indices of variables")
            seen = np.zeros(n, dtype=bool)
            seen[hint] = True
            if np.count_nonzero(seen) != hint.size:
                raise ValueError("hint must hold distinct indices of variables")
        for name, val in (("c", c), ("A_eq", A_eq), ("b_eq", b_eq), ("A_le", A_le),
                          ("b_le", b_le), ("lower", lower), ("upper", upper),
                          ("hint", hint)):
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
    iterations : simplex iterations: one per primal pivot or primal bound
        flip, and one per dual iteration however many bounds its long step
        flips.
    residual : max constraint/bound violation at x (0.0 when x is None).
    duals : at the optimum, the equality-row multipliers y (the rate of change
        of the optimal value with b_eq), else None.
    flips : the bounds that the dual iterations' long steps flipped.
    """

    status: str
    value: float
    x: Vector | None
    iterations: int
    residual: float
    duals: Vector | None = None
    flips: int = 0


def _pow2_scale(mags: Vector) -> Vector:
    """Powers of two taking each positive magnitude into [1, 2); 1 for zeros."""
    _, exp = np.frexp(mags)
    return np.where(mags > 0.0, np.ldexp(1.0, 1 - exp), 1.0)


def _independent_columns(K: Vector, hint: NDArray[np.intp]) -> NDArray[np.intp] | None:
    """The first m = K.shape[0] linearly independent columns of hint, in
    hint order, or None if it holds fewer: those that _eliminate picks.

    The head B = K[:, hint[:m]] is tried first, with one inverse.  Run on
    B, the elimination writes B = L U, where L holds the eliminated columns
    divided by their pivots, so partial pivoting keeps its entries at most
    1 in size.  Then U^-1 = B^-1 L, and 1/|u_kk| = |(B^-1 L)_kk| <= m max
    |B^-1|.  So when 2 m max |B^-1| HINT_PIVOT_TOL < 1, every pivot clears
    HINT_PIVOT_TOL (the 2 covers rounding) and the elimination would pick
    the head itself, in order; it runs only when the test fails.
    """
    m = K.shape[0]
    if m == 0:
        return np.zeros(0, dtype=np.intp)
    if hint.size >= m:
        head = hint[:m]
        try:
            inv = np.linalg.inv(K[:, head])
        except np.linalg.LinAlgError:
            pass
        else:
            if 2.0 * m * float(np.abs(inv).max()) * HINT_PIVOT_TOL < 1.0:
                return head.copy()          # the run pivots the basis in place
    return _eliminate(K, hint)


def _eliminate(K: Vector, hint: NDArray[np.intp]) -> NDArray[np.intp] | None:
    """The first m = K.shape[0] >= 1 linearly independent columns of hint,
    in hint order, or None if it holds fewer.

    Gaussian elimination with partial pivoting over the rows not yet
    pivoted: a column joins when its largest eliminated entry there exceeds
    HINT_PIVOT_TOL (the columns are unit-size).  With m near 10 the
    elimination runs faster in Python floats than in numpy calls; the hint
    is read 2 m columns at a time, so only its head is touched.
    """
    m = K.shape[0]

    def columns():
        for lo in range(0, hint.size, 2 * m):
            window = hint[lo:lo + 2 * m]
            yield from zip(window.tolist(), K[:, window].T.tolist())

    chosen: list[int] = []
    steps: list[tuple[int, list[float]]] = []   # (pivot row, eliminated column / its pivot)
    free = list(range(m))                       # the rows not yet pivoted
    for j, v in columns():
        for i, w in steps:
            f = v[i]
            if f:
                v = [vk - f * wk for vk, wk in zip(v, w)]
        i = max(free, key=lambda r: abs(v[r]))
        pivot = v[i]
        if abs(pivot) <= HINT_PIVOT_TOL:
            continue
        chosen.append(j)
        if len(chosen) == m:
            return np.array(chosen, dtype=np.intp)
        steps.append((i, [vk / pivot for vk in v]))
        free.remove(i)
    return None


class _Tableau:
    """Scaled standard form K x = b, lo <= x <= hi, and the simplex state.

    Columns are the structural variables, one slack per inequality, then,
    on the primal start, one artificial per row that the starting point
    violates.  T holds B^-1 K in its first m rows and the reduced costs in
    row m; xB holds basic values and x the values of nonbasic variables.
    The primal start puts each structural variable at the point of its
    range nearest 0 (so a free one, or a box around 0, starts at 0, and no
    starting point sits at a remote bound); slacks start basic or at 0.
    The dual start (dual is True) takes its basis from the program's hint
    and puts every other column at the bound its reduced cost asks for.
    Once a variable moves it comes to rest at a bound or enters the basis.
    """

    def __init__(self, lp: LinearProgram):
        n = lp.n_vars
        me, mi = lp.A_eq.shape[0], lp.A_le.shape[0]
        m = me + mi
        if mi:
            K = np.zeros((m, n + mi))
            K[:me, :n] = lp.A_eq
            K[me:, :n] = lp.A_le
            K[me:, n:] = np.eye(mi)
            b = np.concatenate([lp.b_eq, lp.b_le])
            lo = np.concatenate([lp.lower, np.zeros(mi)])
            hi = np.concatenate([lp.upper, np.full(mi, np.inf)])
            cost = np.concatenate([lp.c, np.zeros(mi)])
        else:                                   # no slacks: scale the program's own arrays
            K, b, lo, hi, cost = lp.A_eq, lp.b_eq, lp.lower, lp.upper, lp.c

        self.row_scale = _pow2_scale(np.abs(K).max(axis=1, initial=0.0))
        K = K * self.row_scale[:, None]
        b = b * self.row_scale
        self.col_scale = _pow2_scale(np.abs(K).max(axis=0, initial=0.0))
        K *= self.col_scale[None, :]
        lo = lo / self.col_scale
        hi = hi / self.col_scale
        cost = cost * self.col_scale

        self.m, self.n, self.n_real = m, n, n + mi
        self.b = b
        self.iterations = 0
        self.flips = 0
        self.dual = lp.hint is not None and self._dual_start(K, lo, hi, cost, lp.hint)
        if not self.dual:
            self.primal_start(K, lo, hi, cost)

    def primal_start(self, K: Vector, lo: Vector, hi: Vector, cost: Vector) -> None:
        """The primal start on the scaled data K, lo, hi and cost; it also
        takes over from a dual run, whose scaled data stay as they were."""
        m, n = self.m, self.n
        me = m - (self.n_real - n)                  # the equality rows come first
        self.dual = False
        x = np.clip(0.0, lo, hi)                # the point of the box nearest 0
        r = self.b - K @ x
        # Slacks start basic where the starting point leaves them >= 0;
        # every other row gets an artificial, signed so that it starts at |r|.
        slack_ok = np.zeros(m, dtype=bool)
        slack_ok[me:] = r[me:] >= 0.0
        art_rows = np.flatnonzero(~slack_ok)
        nart = art_rows.size
        basis = np.empty(m, dtype=np.int64)
        basis[slack_ok] = n + np.flatnonzero(slack_ok[me:])
        basis[art_rows] = self.n_real + np.arange(nart)
        art = np.zeros((m, nart))
        art[art_rows, np.arange(nart)] = np.where(r[art_rows] >= 0.0, 1.0, -1.0)
        self.K = np.hstack([K, art])
        self.lo = np.concatenate([lo, np.zeros(nart)])
        self.hi = np.concatenate([hi, np.full(nart, np.inf)])
        self.cost = np.concatenate([cost, np.zeros(nart)])
        self.n_art = nart
        self.x = np.concatenate([x, np.zeros(nart)])
        self.basis = basis
        self.is_basic = np.zeros(self.x.size, dtype=bool)
        self.is_basic[basis] = True
        diag = self.K[np.arange(m), basis]      # the starting basis is diagonal
        self.xB = r / diag
        self.T = np.empty((m + 1, self.x.size))
        self.T[:m] = self.K / diag[:, None]

    def _dual_start(self, K: Vector, lo: Vector, hi: Vector, cost: Vector,
                    hint: NDArray[np.intp]) -> bool:
        """Basis from the hint, nonbasic columns at the bounds their reduced
        costs ask for; False, with nothing set, when that start is not dual
        feasible."""
        basis = _independent_columns(K, hint)
        if basis is None:
            return False
        m = self.m
        T = np.empty((m + 1, K.shape[1]))
        if m:
            # B^-1 [K | b] in one solve: the tableau and the basic values at 0.
            solved = np.linalg.solve(K[:, basis], np.hstack([K, self.b[:, None]]))
            T[:m], base = solved[:, :-1], solved[:, -1]
        else:
            base = np.zeros(0)
        d = T[m] = cost - cost[basis] @ T[:m]  # the reduced costs, priced once
        x = np.where(d < 0.0, hi, lo)
        x[basis] = 0.0
        if not np.isfinite(x).all():
            # A reduced cost within tolerance of 0 lets a column rest at
            # either bound; one that must rest at an infinite bound is dual
            # infeasible.
            tol = COST_TOL * max(float(np.abs(cost).max(initial=0.0)), 1e-300)
            x = np.where(np.isfinite(x) | (np.abs(d) > tol), x, np.where(d < 0.0, lo, hi))
            x[basis] = 0.0
            if not np.isfinite(x).all():
                return False
        self.K, self.lo, self.hi, self.cost = K, lo, hi, cost
        self.n_art = 0
        self.x = x
        self.basis = basis
        self.is_basic = np.zeros(x.size, dtype=bool)
        self.is_basic[basis] = True
        self.xB = base - T[:m] @ x
        self.T = T
        self._pricing_state(cost, inside=False)   # every nonbasic column rests at a bound
        return True

    def price(self, cost: Vector) -> None:
        """Reduced costs of cost in row m of T, and the pricing state."""
        self.T[self.m] = cost - cost[self.basis] @ self.T[:self.m]
        self._pricing_state(cost)

    def _pricing_state(self, cost: Vector, inside: bool = True) -> None:
        """The pricing state for the reduced costs in row m of T: the
        tolerance on reduced costs, the sign they must have against the way
        a nonbasic variable can move (-1 up from a lower bound, +1 down from
        an upper one, 0 for basic or fixed), the nonbasic variables strictly
        inside their range (either way; left empty without a scan when
        inside is False), and the bounds of the basics.  Flips and pivots
        keep the state current, and refactor leaves it as it is, so it is
        built once per phase."""
        lo, hi, x = self.lo, self.hi, self.x
        self.cost_tol = COST_TOL * max(float(np.abs(cost).max(initial=0.0)), 1e-300)
        self.sense = np.where(x >= hi, 1.0, -1.0)
        self.sense[(hi <= lo) | self.is_basic] = 0.0
        self.inside = (set(np.flatnonzero(~self.is_basic & (x > lo) & (x < hi)).tolist())
                       if inside else set())
        self.bl = lo[self.basis]
        self.bu = hi[self.basis]

    def solve_basics(self, B: Vector | None = None) -> None:
        """Basic values from the data, the basis (B, the basic columns, if
        given) and the nonbasic values."""
        if self.m:
            if B is None:
                B = self.K[:, self.basis]
            x = np.where(self.is_basic, 0.0, self.x)
            self.xB = np.linalg.solve(B, self.b - self.K @ x)

    def refactor(self, cost: Vector) -> bool:
        """Recompute xB, the row duals y and the reduced costs from the data
        and the basis; return whether some nonbasic variable can still
        improve.  T itself is recomputed only then, for the iterations that
        follow."""
        B = self.K[:, self.basis]
        self.solve_basics(B)
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
                self._pivot(row, q, s, theta, g, g.item(row) < 0.0)
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

    def _pivot(self, row: int, q: int, s: float, theta: float, g: Vector,
               to_upper: bool) -> None:
        """Column q enters at row row, moving by s theta (basic i by
        -theta g_i); the leaving variable rests at its upper bound if
        to_upper, else at its lower one."""
        T, x, lo, hi = self.T, self.x, self.lo, self.hi
        leaving = self.basis.item(row)
        lo_out, hi_out = lo.item(leaving), hi.item(leaving)
        x[leaving] = hi_out if to_upper else lo_out
        entering_value = x.item(q) + s * theta
        self.xB -= theta * g
        self.xB[row] = entering_value
        self.is_basic[leaving] = False
        self.is_basic[q] = True
        self.basis[row] = q
        self.sense[leaving] = 0.0 if hi_out <= lo_out else (1.0 if to_upper else -1.0)
        self.sense[q] = 0.0
        self.inside.discard(q)
        self.bl[row], self.bu[row] = lo.item(q), hi.item(q)
        prow = T[row] / T.item(row, q)
        T -= T[:, q, None] * prow           # the product is formed before T changes
        T[row] = prow

    def dual_run(self) -> str:
        """Dual simplex with the long-step ratio test from the current
        (dual feasible) basis and pricing state; OPTIMAL once every basic
        value lies in its range, INFEASIBLE when an infeasible row admits no
        entering column (that row is left in blocked).  A perturbation acts
        on the reduced costs alone, so pricing the costs again restores
        them."""
        m, T, x, lo, hi = self.m, self.T, self.x, self.lo, self.hi
        span = hi - lo
        nudge = None
        self.perturbed = False
        while True:
            if self.iterations > MAX_PIVOTS:
                raise SimplexError("simplex pivot limit exceeded")
            row, excess = self._leaving()
            if row < 0:
                return OPTIMAL
            q, moved, flipped = self._long_step(row, excess, span)
            if q < 0:
                self.blocked = row
                return INFEASIBLE
            if flipped.size:
                sf = self.sense[flipped]
                to = np.where(sf > 0.0, lo[flipped], hi[flipped])
                self.xB -= T[:m, flipped] @ (to - x[flipped])
                x[flipped] = to
                self.sense[flipped] = -sf
                self.flips += flipped.size
            # The entering column moves until the leaving variable reaches
            # the bound it violates.
            bound = self.bu.item(row) if excess > 0.0 else self.bl.item(row)
            move = (self.xB.item(row) - bound) / T.item(row, q)
            s = 1.0 if move >= 0.0 else -1.0
            self._pivot(row, q, s, abs(move), s * T[:m, q], excess > 0.0)
            self.iterations += 1
            if moved <= self.cost_tol:
                # A dual-degenerate iteration: the entering reduced cost,
                # the dual objective's gain per unit of slope, was zero to
                # tolerance.  Push every nonbasic reduced cost away from
                # zero the way its bound asks (up at a lower bound, down at
                # an upper one) by fixed, index-dependent multiples in
                # [1, 2) of DUAL_PERTURB times the largest cost.
                if nudge is None:
                    nudge = (DUAL_PERTURB * max(float(np.abs(self.cost).max()), 1e-300)
                             * (1.0 + (np.arange(x.size) * 0.6180339887498949) % 1.0))
                T[m] -= self.sense * nudge
                self.perturbed = True

    def _leaving(self) -> tuple[int, float]:
        """Row of the basic variable furthest outside its range, by more
        than PRIMAL_TOL per unit of the bound, and its signed excess (> 0
        above the upper bound, < 0 below the lower one); (-1, 0.0) if none.
        One scan of the rows in Python floats, as in _ratio."""
        row, worst, excess = -1, 0.0, 0.0
        for i, xi, lo, up in zip(range(self.m), self.xB.tolist(), self.bl.tolist(),
                                 self.bu.tolist()):
            if xi < lo:
                gap = lo - xi
                if gap > worst and gap > PRIMAL_TOL * (1.0 + abs(lo)):
                    row, worst, excess = i, gap, -gap
            elif xi > up:
                gap = xi - up
                if gap > worst and gap > PRIMAL_TOL * (1.0 + abs(up)):
                    row, worst, excess = i, gap, gap
        return row, excess

    def _long_step(self, row: int, excess: float,
                   span: Vector) -> tuple[int, float, NDArray[np.intp]]:
        """Entering column, its |reduced cost| and the columns that flip, for
        leaving row row with signed excess excess; (-1, inf, []) when no
        column can enter.

        The dual step t >= 0 moves each nonbasic reduced cost d_j by
        -s t alpha_j (alpha the tableau row, s the sign of excess).  Column j
        breaks at t_j = |d_j| / |alpha_j| when that moves d_j toward zero,
        i.e. when s alpha_j points against the bound it rests at.  Past its
        breakpoint a column keeps its reduced cost's sign right by flipping
        to its opposite bound, which takes |alpha_j| times its range off the
        slope of the dual objective, |excess| at t = 0.  The breakpoints are
        passed in order while the slope stays above FEAS_TOL |excess|; among
        those left, the column with the largest |alpha_j| whose breakpoint
        lies within the Harris tolerance of the first one left enters (the
        first of them on a tie).
        """
        alpha, sense = self.T[row], self.sense
        toward = alpha * sense                   # -s alpha_j sense_j: |alpha_j| where column j breaks
        if excess > 0.0:
            np.negative(toward, out=toward)
        tol = PIVOT_TOL * max(alpha.max(), -alpha.min())
        cand = (toward > tol).nonzero()[0]
        if not cand.size:
            return -1, math.inf, cand
        a = toward[cand]
        dist = self.T[self.m, cand] * sense[cand]
        np.negative(dist, out=dist)
        np.maximum(dist, 0.0, out=dist)          # |d_j|, 0 when rounding put it past zero
        ratio = dist / a
        order = ratio.argsort(kind="stable").tolist()
        # The walk and the Harris pass visit the breakpoints in order, and
        # only as far as they reach, in Python floats.
        # A row that the flips fix with zero slack (a block whose bounds fix
        # it, such as E[zeta] = 1 under zeta <= 1) ends its walk at a slope of
        # rounding size: FEAS_TOL of the excess counts as zero.
        slope = abs(excess)
        flat = FEAS_TOL * slope
        for k, j in enumerate(order):
            slope -= a.item(j) * span.item(cand.item(j))
            if slope <= flat:
                break
        else:
            return -1, math.inf, cand[:0]
        cap, pick, best = math.inf, -1, 0.0
        for j in order[k:]:
            if ratio.item(j) > cap:
                break
            aj = a.item(j)
            cap = min(cap, (dist.item(j) + self.cost_tol) / aj)
            if aj > best:
                pick, best = j, aj
        return cand.item(pick), dist.item(pick), cand[order[:k]]

    def farkas(self, row: int) -> bool:
        """Whether row row of B^-1 is a Farkas ray that proves the program
        infeasible.

        Every x with K x = b has y K x = y b for any y.  With y = e_row B^-1,
        from a fresh solve on the scaled data, the program is infeasible
        when y b lies outside the range of y K x over the box [lo, hi] by
        more than FEAS_TOL times the size of the terms of y K x and y b,
        sum |y_i K_ij| |x_j| at the largest finite bound of column j plus
        sum |y_i b_i|.  A side of the range that an infinite bound leaves
        open proves nothing.
        """
        e = np.zeros(self.m)
        e[row] = 1.0
        y = np.linalg.solve(self.K[:, self.basis].T, e)
        a = y @ self.K
        nz = np.flatnonzero(a)
        a, lo, hi = a[nz], self.lo[nz], self.hi[nz]
        low = float(np.where(a > 0.0, a * lo, a * hi).sum())
        high = float(np.where(a > 0.0, a * hi, a * lo).sum())
        bound = np.maximum(np.where(np.isfinite(lo), np.abs(lo), 0.0),
                           np.where(np.isfinite(hi), np.abs(hi), 0.0))
        size = float(np.abs(y) @ np.abs(self.b)) + float((np.abs(y) @ np.abs(self.K))[nz] @ bound)
        target = float(y @ self.b)
        tol = FEAS_TOL * size
        return target > high + tol or target < low - tol

    def size(self, v: Vector) -> float:
        """Scale of the scaled program at its point v (the real columns of
        point()): the largest right-hand side or variable, the unit of
        primal feasibility."""
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
    if (lp.lower > lp.upper).any():
        return LPSolution(INFEASIBLE, np.nan, None, 0, 0.0)
    tab = _Tableau(lp)
    if tab.dual and tab.dual_run() != OPTIMAL:
        # No column can enter an infeasible row.  Its row of B^-1 proves the
        # program infeasible unless the box leaves the row's range open or
        # too close; then the two-phase primal run decides.
        if tab.farkas(tab.blocked):
            return LPSolution(INFEASIBLE, np.nan, None, tab.iterations, 0.0, flips=tab.flips)
        tab.primal_start(tab.K, tab.lo, tab.hi, tab.cost)
    cost = tab.cost

    if tab.n_art:
        phase1 = np.zeros(tab.x.size)
        phase1[tab.n_real:] = 1.0
        tab.price(phase1)
        if tab.run() != OPTIMAL:
            raise SimplexError("phase 1 cannot be unbounded")
        tab.solve_basics()
        left = float(tab.xB[tab.basis >= tab.n_real].sum())
        if left > FEAS_TOL * tab.size(tab.point()[:tab.n_real]):
            return LPSolution(INFEASIBLE, np.nan, None, tab.iterations, 0.0,
                              flips=tab.flips)
        # Artificials are fixed at 0 from here on.  One left basic blocks
        # every move that would change it, so Phase II pivots it out the
        # first time a column touches its row; on a redundant row it stays.
        tab.hi[tab.n_real:] = 0.0

    if not tab.dual or tab.perturbed:     # else the dual run left the true costs priced
        tab.price(cost)
    for _ in range(MAX_REFACTORS):
        if tab.run() == UNBOUNDED:
            return LPSolution(UNBOUNDED, -np.inf, None, tab.iterations, 0.0,
                              flips=tab.flips)
        if not tab.refactor(cost):
            break

    # Feasibility is judged on the scaled program, whose entries are of unit
    # size, against the size of its right-hand side and of the point.
    point = tab.point()[:tab.n_real]
    gap = float(np.abs(tab.K[:, :tab.n_real] @ point - tab.b).max(initial=0.0))
    size = tab.size(point)
    if gap > RESIDUAL_TOL * size:
        raise SimplexError(f"simplex returned an infeasible point (relative residual "
                           f"{gap / size:.3e})")
    v = point[:tab.n] * tab.col_scale[:tab.n]
    y = tab.y * tab.row_scale
    return LPSolution(OPTIMAL, float(lp.c @ v), v, tab.iterations, _residual(lp, v),
                      duals=y[:lp.A_eq.shape[0]], flips=tab.flips)

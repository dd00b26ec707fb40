"""Bounded-variable simplex linear programming.

The relaxed verifiers (MILP class, paper §II-B-2) and the MINLP
branch-and-bound bounder both need an LP oracle, and branch-and-bound
asks it the same question hundreds of times over shrinking boxes.  This
module holds the library's one simplex implementation,
:class:`BoundedSimplex`, a dense tableau over

    min c^T x   s.t.   G x + s_G = h,   A x + s_A = b,
                       lo <= x <= hi,   s_G >= 0,   s_A = 0,

one logical (slack) column per row.  Variable bounds live in the pivot
rules — a nonbasic column sits at one of its bounds, or at zero when it
has none — and never become rows, so the tableau has exactly one row per
constraint.  Rows are equilibrated once, so one absolute tolerance fits
every row.

Reduced costs do not depend on the bounds, so an optimal basis for one
box stays dual feasible for every other box once each nonbasic column
is moved to the bound its reduced-cost sign calls for.  :meth:`solve`
therefore re-solves a new box by dual simplex from the basis the
previous solve ended in (a dual simplex that proves a box infeasible
leaves a dual-feasible basis too).  When a required bound is infinite
(a free column, or a logical with a negative reduced cost) the basis is
discarded and the solve starts cold from the slack basis: by dual
simplex when that basis is dual feasible, otherwise by primal simplex
with a composite phase 1 (minimize the sum of bound violations of the
basic columns; no artificial columns).

Pricing is Dantzig's (largest violation for the dual, largest reduced
cost for the primal); after ``_STALL`` pivots without progress both
switch to Bland's smallest-index rule, which cannot cycle.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConvergenceError, InfeasibleError, UnboundedError
from repro.convex.problem import LPProblem, Solution

__all__ = ["BoundedSimplex", "solve_lp", "simplex_standard_form"]

_EPS = 1e-9
# non-improving pivots before the pricing switches to Bland's rule
_STALL = 25
# pivots on one tableau before it is recomputed from the original rows
_REFACTOR = 100


def _pick(eligible: np.ndarray, score: np.ndarray, key: np.ndarray, bland: bool) -> int:
    """Among ``eligible`` positions, the one of largest ``score`` (first
    on ties), or under Bland's rule the one of smallest ``key``."""
    if bland:
        where = eligible.nonzero()[0]
        return int(where[key[where].argmin()])
    return int(np.where(eligible, score, -np.inf).argmax())


class BoundedSimplex:
    """Re-solvable LP over one constraint system and changing boxes.

    ``BoundedSimplex(problem).solve(lo, hi)`` minimizes ``problem.c^T x``
    over ``problem``'s rows and the box ``[lo, hi]`` (``problem``'s own
    box by default).  Each solve after the first warm-starts from the
    basis the previous one ended in.  Raises :class:`InfeasibleError`,
    :class:`UnboundedError` or :class:`ConvergenceError`.
    """

    def __init__(self, problem: LPProblem, max_iter: int = 10000):
        self.problem = problem
        self.max_iter = max_iter
        c = problem.c
        n = c.size
        rows = [(mat, rhs) for mat, rhs in ((problem.g, problem.h), (problem.a, problem.b))
                if mat is not None]
        mat = np.vstack([r[0] for r in rows]) if rows else np.zeros((0, n))
        rhs = np.concatenate([r[1] for r in rows]) if rows else np.zeros(0)
        m = rhs.size
        n_ineq = 0 if problem.g is None else problem.g.shape[0]
        scale = np.max(np.abs(mat), axis=1, initial=0.0)
        scale[scale == 0.0] = 1.0
        self._n, self._m = n, m
        # [B^-1 M | B^-1 r] over the reduced-cost row, at the slack basis
        start = np.zeros((m + 1, n + m + 1))
        start[:m, :n] = mat / scale[:, None]
        start[:m, n : n + m] = np.eye(m)
        start[:m, -1] = rhs / scale
        start[m, :n] = c
        self._start = start
        self._cost = start[m, :-1].copy()
        self._dtol = _EPS * max(1.0, float(np.max(np.abs(c), initial=0.0)))
        self._slack_lo = np.zeros(m)
        self._slack_hi = np.concatenate([np.full(n_ineq, np.inf), np.zeros(m - n_ineq)])
        self._tab: np.ndarray | None = None
        self._basis = np.arange(n, n + m)
        self._is_basic = np.zeros(n + m, dtype=bool)
        self._x = np.zeros(n + m)
        self._lo = self._hi = np.zeros(n + m)
        self._pivots_since_refactor = 0

    # ---- public -------------------------------------------------------------
    def solve(self, lo: np.ndarray | None = None, hi: np.ndarray | None = None) -> Solution:
        """Optimal vertex for the box ``[lo, hi]``; ``iterations`` counts
        the pivots and bound flips this solve took."""
        lo = self.problem.lo if lo is None else np.asarray(lo, dtype=np.float64)
        hi = self.problem.hi if hi is None else np.asarray(hi, dtype=np.float64)
        if (lo > hi).any():
            raise InfeasibleError("empty box: some lower bound exceeds its upper bound")
        self._lo = np.concatenate([lo, self._slack_lo])
        self._hi = np.concatenate([hi, self._slack_hi])
        if self._tab is not None and self._pivots_since_refactor >= _REFACTOR:
            self._refactor()
        try:
            if self._tab is not None and self._place():
                iterations = self._dual()
            else:
                self._reset()
                iterations = self._dual() if self._place() else self._primal()
        except ConvergenceError:
            self._tab = None
            raise
        x = self._x[: self._n].copy()
        return Solution(x=x, objective=float(self.problem.c @ x),
                        iterations=iterations, converged=True)

    # ---- basis bookkeeping --------------------------------------------------
    def _reset(self) -> None:
        """Cold start: the slack basis."""
        n, m = self._n, self._m
        self._tab = self._start.copy()
        self._basis = np.arange(n, n + m)
        self._is_basic[:] = False
        self._is_basic[n:] = True
        self._pivots_since_refactor = 0

    def _refactor(self) -> None:
        """Recompute the tableau of the current basis from the original
        rows, dropping the rounding error of accumulated pivots."""
        m = self._m
        start = self._start
        try:
            body = np.linalg.solve(start[:m, self._basis], start[:m])
        except np.linalg.LinAlgError:
            self._tab = None
            return
        self._tab = np.vstack([body, start[m] - start[m, self._basis] @ body])
        self._pivots_since_refactor = 0

    def _place(self) -> bool:
        """Put every nonbasic column at the bound its reduced cost calls
        for: the lower bound for a positive one, else the upper bound (a
        zero reduced cost allows either).  False when some required bound
        is infinite; the basis is then not dual feasible, and such a
        column sits at its other bound, or at 0 when it has none."""
        d = self._tab[-1, :-1]
        lo, hi = self._lo, self._hi
        finite_lo, finite_hi = np.isfinite(lo), np.isfinite(hi)
        want_hi = d < -self._dtol
        want_lo = d > self._dtol
        at_hi = finite_hi & ~(want_lo & finite_lo)
        self._x = np.where(at_hi, hi, np.where(finite_lo, lo, 0.0))
        self._update_basic_values()
        return not (~self._is_basic & ((want_hi & ~finite_hi) | (want_lo & ~finite_lo))).any()

    def _update_basic_values(self) -> None:
        x = self._x
        x[self._basis] = 0.0
        t = self._tab
        x[self._basis] = t[:-1, -1] - t[:-1, :-1] @ x

    def _pivot(self, r: int, q: int, leave_value: float) -> None:
        t = self._tab
        row = t[r] / t[r, q]  # numlint: disable=NL002 -- both ratio tests admit only |t[r, q]| > _EPS
        t -= np.outer(t[:, q], row)
        t[r] = row
        out = self._basis[r]
        self._is_basic[out] = False
        self._is_basic[q] = True
        self._basis[r] = q
        self._x[out] = leave_value
        self._pivots_since_refactor += 1

    def _movable(self) -> tuple[np.ndarray, np.ndarray]:
        """Nonbasic columns that may increase / decrease from their value."""
        nonbasic = ~self._is_basic
        x = self._x
        return nonbasic & (x < self._hi), nonbasic & (x > self._lo)

    # ---- dual simplex ---------------------------------------------------------
    def _dual(self) -> int:
        """Dual simplex from a dual-feasible basis: restore primal
        feasibility row by row, keeping every reduced-cost sign."""
        t, basis = self._tab, self._basis
        cols = np.arange(self._n + self._m)
        stall, best = 0, -np.inf
        for it in range(self.max_iter):
            xb = self._x[basis]
            below = self._lo[basis] - xb
            above = xb - self._hi[basis]
            viol = np.maximum(below, above)
            violated = viol > _EPS
            if not violated.any():
                return it
            bland = stall >= _STALL
            r = _pick(violated, viol, basis, bland)
            # the leaving column rises to lo (sign +1) or falls to hi (-1)
            sign = 1.0 if below[r] > 0.0 else -1.0
            alpha = sign * t[r, :-1]
            can_up, can_down = self._movable()
            eligible = (can_up & (alpha < -_EPS)) | (can_down & (alpha > _EPS))
            if not eligible.any():
                raise InfeasibleError("dual simplex: a basic row cannot reach its bounds")
            ratio = np.where(eligible, np.abs(t[-1, :-1]) / np.maximum(np.abs(alpha), _EPS), np.inf)
            tied = ratio <= ratio.min() + _EPS
            q = _pick(tied, np.abs(alpha), cols, bland)
            leaving = basis[r]
            self._pivot(r, q, self._lo[leaving] if sign > 0 else self._hi[leaving])
            self._update_basic_values()
            obj = float(self._cost @ self._x)
            if obj > best + 1e-12 * max(1.0, abs(best)):
                stall, best = 0, obj
            else:
                stall += 1
        raise ConvergenceError("simplex exceeded its pivot budget", iterations=self.max_iter)

    # ---- primal simplex -------------------------------------------------------
    def _primal(self) -> int:
        """Primal simplex; while some basic column violates its bounds the
        objective is the sum of violations (composite phase 1)."""
        t, basis = self._tab, self._basis
        cols = np.arange(self._n + self._m)
        stall, best, phase1_before = 0, -np.inf, True
        for it in range(self.max_iter):
            xb = self._x[basis]
            lo_b, hi_b = self._lo[basis], self._hi[basis]
            below = xb < lo_b - _EPS
            above = xb > hi_b + _EPS
            phase1 = bool(below.any() or above.any())
            if phase1:
                grad = above.astype(np.float64) - below
                d = -(grad @ t[:-1, :-1])
                d[basis] = 0.0
                progress = -float(np.sum(np.where(below, lo_b - xb, 0.0) + np.where(above, xb - hi_b, 0.0)))
                tol = _EPS
            else:
                d = t[-1, :-1]
                progress = -float(self._cost @ self._x)
                tol = self._dtol
            if phase1 != phase1_before:
                stall, best, phase1_before = 0, -np.inf, phase1
            bland = stall >= _STALL
            can_up, can_down = self._movable()
            up = can_up & (d < -tol)
            eligible = up | (can_down & (d > tol))
            if not eligible.any():
                if phase1:
                    raise InfeasibleError("phase 1 ended with bound violations: infeasible")
                return it
            q = _pick(eligible, np.abs(d), cols, bland)
            direction = 1.0 if up[q] else -1.0
            # basic values move as xb - step * col
            col = direction * t[:-1, q]
            dec, inc = col > _EPS, col < -_EPS
            # a violated basic column blocks at the bound it reaches first
            target = np.where(dec, np.where(above, hi_b, lo_b), np.where(below, lo_b, hi_b))
            active = (dec & ~below) | (inc & ~above)
            with np.errstate(invalid="ignore"):
                ratio = np.where(active, (xb - target) / np.where(active, col, 1.0), np.inf)
            ratio = np.maximum(ratio, 0.0)
            step = float(ratio.min(initial=np.inf))
            flip = self._hi[q] - self._lo[q]
            if flip <= step:
                if not np.isfinite(flip):
                    raise UnboundedError("LP is unbounded")
                self._x[q] = self._hi[q] if direction > 0 else self._lo[q]
            else:
                r = _pick(ratio <= step + _EPS, np.abs(col), basis, bland)
                self._pivot(r, q, float(target[r]))
            self._update_basic_values()
            if progress > best + 1e-12 * max(1.0, abs(best)):
                stall, best = 0, progress
            else:
                stall += 1
        raise ConvergenceError("simplex exceeded its pivot budget", iterations=self.max_iter)


def solve_lp(problem: LPProblem, max_iter: int = 10000) -> Solution:
    """Solve a general-form :class:`LPProblem` from a cold start.

    ``iterations`` in the result counts simplex pivots and bound flips.
    Branch-and-bound re-solves go through one :class:`BoundedSimplex`
    per model instead, to warm-start every node box.
    """
    return BoundedSimplex(problem, max_iter=max_iter).solve()


def simplex_standard_form(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, max_iter: int = 10000
) -> tuple[np.ndarray, float]:
    """Solve ``min c^T x`` s.t. ``A x = b``, ``x >= 0``.

    Returns ``(x, objective)``.  Raises :class:`InfeasibleError` or
    :class:`UnboundedError` accordingly.
    """
    a = np.asarray(a, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64).ravel()
    sol = solve_lp(LPProblem(c=c, a=a, b=b, lo=np.zeros(c.size)), max_iter=max_iter)
    return sol.x, sol.objective

"""Tests for the bounded-variable simplex LP solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import InfeasibleError, UnboundedError
from repro.convex import LPProblem, simplex_standard_form, solve_lp


class TestStandardForm:
    def test_basic_instance(self):
        # min -x1 - x2 s.t. x1 + x2 + s = 2, x >= 0
        a = np.array([[1.0, 1.0, 1.0]])
        b = np.array([2.0])
        c = np.array([-1.0, -1.0, 0.0])
        x, obj = simplex_standard_form(a, b, c)
        assert obj == pytest.approx(-2.0)
        assert np.allclose(a @ x, b)

    def test_infeasible_detected(self):
        # x1 = 1 and x1 = 2 simultaneously
        a = np.array([[1.0], [1.0]])
        b = np.array([1.0, 2.0])
        with pytest.raises(InfeasibleError):
            simplex_standard_form(a, b, np.array([1.0]))

    def test_unbounded_detected(self):
        # min -x1 with only x1 - x2 = 0: both can grow forever
        a = np.array([[1.0, -1.0]])
        b = np.array([0.0])
        with pytest.raises(UnboundedError):
            simplex_standard_form(a, b, np.array([-1.0, 0.0]))

    def test_negative_rhs_handled(self):
        a = np.array([[-1.0, 0.0]])
        b = np.array([-3.0])
        x, obj = simplex_standard_form(a, b, np.array([1.0, 0.0]))
        assert x[0] == pytest.approx(3.0)


class TestGeneralLP:
    def test_textbook_instance(self):
        lp = LPProblem(c=np.array([-1.0, -1.0]),
                       g=np.array([[1.0, 2.0], [3.0, 1.0]]),
                       h=np.array([4.0, 6.0]), lo=np.zeros(2))
        sol = solve_lp(lp)
        assert np.allclose(sol.x, [1.6, 1.2], atol=1e-8)
        assert sol.objective == pytest.approx(-2.8)

    def test_free_variables(self):
        # min x s.t. x >= -5 unstated; x free with equality x + y = 0, y in [0, 2],
        # minimize x -> y = 2, x = -2
        lp = LPProblem(c=np.array([1.0, 0.0]),
                       a=np.array([[1.0, 1.0]]), b=np.array([0.0]),
                       lo=np.array([-np.inf, 0.0]), hi=np.array([np.inf, 2.0]))
        sol = solve_lp(lp)
        assert sol.x[0] == pytest.approx(-2.0)

    def test_shifted_lower_bounds(self):
        lp = LPProblem(c=np.array([1.0]), lo=np.array([3.0]), hi=np.array([10.0]))
        sol = solve_lp(lp)
        assert sol.x[0] == pytest.approx(3.0)

    def test_upper_bounds_enforced(self):
        lp = LPProblem(c=np.array([-1.0]), lo=np.array([0.0]), hi=np.array([7.0]))
        sol = solve_lp(lp)
        assert sol.x[0] == pytest.approx(7.0)

    def test_infeasible_bounds_vs_equality(self):
        lp = LPProblem(c=np.array([1.0]), a=np.array([[1.0]]), b=np.array([5.0]),
                       lo=np.array([0.0]), hi=np.array([1.0]))
        with pytest.raises(InfeasibleError):
            solve_lp(lp)

    def test_beale_cycling_instance_terminates(self):
        """Beale's degenerate LP cycles under textbook Dantzig pricing;
        the Bland fallback must still reach the optimum."""
        c = np.array([-0.75, 20.0, -0.5, 6.0])
        g = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
        h = np.array([0.0, 0.0, 1.0])
        sol = solve_lp(LPProblem(c=c, g=g, h=h, lo=np.zeros(4)))
        assert sol.objective == pytest.approx(-1.25)
        x, obj = simplex_standard_form(np.hstack([g, np.eye(3)]), h, np.concatenate([c, np.zeros(3)]))
        assert obj == pytest.approx(-1.25)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 300))
    def test_random_box_lp_optimum_at_vertex(self, n, seed):
        """A pure box LP minimizes coordinatewise: x_i = lo if c_i > 0 else hi."""
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(n)
        c[np.abs(c) < 1e-3] = 1.0  # avoid degenerate ties
        lp = LPProblem(c=c, lo=-np.ones(n), hi=np.ones(n))
        sol = solve_lp(lp)
        expected = np.where(c > 0, -1.0, 1.0)
        assert np.allclose(sol.x, expected, atol=1e-8)

    def test_duality_gap_zero_on_random_instances(self):
        """Weak duality check against scipy-free certification: the optimal
        objective must equal c^T x at a feasible point and no feasible
        point sampled at random may beat it."""
        rng = np.random.default_rng(11)
        g = rng.standard_normal((4, 3))
        h = g @ np.ones(3) + 1.0  # ensures x = 1 is strictly feasible
        lp = LPProblem(c=rng.standard_normal(3), g=g, h=h,
                       lo=np.zeros(3), hi=3 * np.ones(3))
        sol = solve_lp(lp)
        for _ in range(300):
            x = rng.uniform(0, 3, 3)
            if np.all(g @ x <= h):
                assert lp.c @ x >= sol.objective - 1e-7

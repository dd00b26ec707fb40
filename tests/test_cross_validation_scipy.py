"""Cross-validation of the from-scratch solvers against scipy oracles.

scipy is never used inside the library (the mandate is from-scratch
substrates), but it is a fine independent referee for the test suite.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scipy.fft
import scipy.optimize
import scipy.signal

from repro.convex import BoundedSimplex, LPProblem, solve_lp
from repro.exceptions import InfeasibleError
from repro.minlp import MILPModel, solve_milp
from repro.signal import fft, irfft, rfft, get_window, hann


class TestLPAgainstScipy:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2000))
    def test_random_inequality_lp(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 4, 6
        g = rng.standard_normal((m, n))
        # rhs chosen so x = 0 is strictly feasible
        h = np.abs(rng.standard_normal(m)) + 0.5
        c = rng.standard_normal(n)
        lo, hi = -2 * np.ones(n), 2 * np.ones(n)
        ours = solve_lp(LPProblem(c=c, g=g, h=h, lo=lo, hi=hi))
        ref = scipy.optimize.linprog(c, A_ub=g, b_ub=h, bounds=list(zip(lo, hi)),
                                     method="highs")
        assert ref.success
        assert ours.objective == pytest.approx(ref.fun, abs=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2000))
    def test_random_equality_lp(self, seed):
        rng = np.random.default_rng(seed + 7)
        n = 5
        a = rng.standard_normal((2, n))
        x_feas = rng.uniform(0.2, 0.8, n)
        b = a @ x_feas
        c = rng.standard_normal(n)
        ours = solve_lp(LPProblem(c=c, a=a, b=b, lo=np.zeros(n), hi=np.ones(n)))
        ref = scipy.optimize.linprog(c, A_eq=a, b_eq=b, bounds=[(0, 1)] * n,
                                     method="highs")
        assert ref.success
        assert ours.objective == pytest.approx(ref.fun, abs=1e-6)

    def test_infeasible_agrees(self):
        # x >= 2 and x <= 1
        lp = LPProblem(c=np.array([1.0]), g=np.array([[-1.0], [1.0]]),
                       h=np.array([-2.0, 1.0]))
        with pytest.raises(InfeasibleError):
            solve_lp(lp)
        ref = scipy.optimize.linprog(np.array([1.0]), A_ub=[[-1.0], [1.0]],
                                     b_ub=[-2.0, 1.0], bounds=[(None, None)],
                                     method="highs")
        assert not ref.success


def _linprog(lp, lo, hi):
    bounds = [(l if np.isfinite(l) else None, u if np.isfinite(u) else None)
              for l, u in zip(lo, hi)]
    return scipy.optimize.linprog(lp.c, A_ub=lp.g, b_ub=lp.h, A_eq=lp.a, b_eq=lp.b,
                                  bounds=bounds, method="highs")


def _assert_matches_linprog(lp, lo, hi, solve):
    """``solve()`` must reproduce HiGHS: the same optimum at a feasible
    point, or InfeasibleError where HiGHS reports infeasibility."""
    ref = _linprog(lp, lo, hi)
    if ref.status == 2:
        with pytest.raises(InfeasibleError):
            solve()
        return None
    assert ref.status == 0, ref.message
    sol = solve()
    assert sol.objective == pytest.approx(ref.fun, abs=1e-7 * (1.0 + abs(ref.fun)))
    x = sol.x
    assert np.all(x >= lo - 1e-9) and np.all(x <= hi + 1e-9)
    if lp.g is not None:
        assert np.all(lp.g @ x <= lp.h + 1e-7)
    if lp.a is not None:
        assert np.allclose(lp.a @ x, lp.b, atol=1e-7)
    return sol


def _bound_heavy_lp(rng, n=8, m=3):
    """Random boxes, some fixed columns and some one-sided ones; rows
    |x_j| <= 3 keep the LP bounded whichever side a cost pushes."""
    lo, hi = -rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n)
    fixed = rng.random(n) < 0.2
    lo[fixed] = hi[fixed] = rng.uniform(-0.1, 0.1, fixed.sum())
    open_side = rng.random(n)
    lo[open_side < 0.2] = -np.inf
    hi[open_side > 0.8] = np.inf
    g = np.vstack([rng.standard_normal((m, n)), np.eye(n), -np.eye(n)])
    h = np.concatenate([np.abs(rng.standard_normal(m)) + 0.5, np.full(2 * n, 3.0)])
    return LPProblem(c=rng.standard_normal(n), g=g, h=h, lo=lo, hi=hi)


def _degenerate_lp(rng, n=5, m=9):
    """Many rows through one vertex and small integer costs: ties in
    every ratio test and alternative optima."""
    g = rng.integers(-2, 3, (m, n)).astype(float)
    h = np.where(np.arange(m) < n + 1, 0.0, rng.integers(1, 3, m).astype(float))
    c = rng.integers(-2, 3, n).astype(float)
    return LPProblem(c=c, g=g, h=h, lo=-np.ones(n), hi=np.ones(n))


def _free_variable_lp(rng, n=5):
    """Two free columns, bounded only through rows."""
    free = np.array([0, 3])
    lo, hi = np.zeros(n), rng.uniform(0.5, 2.0, n)
    lo[free], hi[free] = -np.inf, np.inf
    rows = [rng.standard_normal((3, n))]
    for j in free:
        e = np.zeros(n)
        e[j] = 1.0
        rows += [e[None], -e[None]]
    g = np.vstack(rows)
    h = np.concatenate([np.abs(rng.standard_normal(3)) + 0.5, np.full(2 * free.size, 3.0)])
    a = rng.standard_normal((1, n))
    return LPProblem(c=rng.standard_normal(n), g=g, h=h, a=a, b=np.zeros(1), lo=lo, hi=hi)


def _equality_lp(rng, n=7):
    x_feas = rng.uniform(0.2, 0.8, n)
    a = rng.standard_normal((3, n))
    g = rng.standard_normal((2, n))
    return LPProblem(c=rng.standard_normal(n), g=g, h=g @ x_feas + 0.3,
                     a=a, b=a @ x_feas, lo=np.zeros(n), hi=np.ones(n))


LP_FAMILIES = {
    "bound-heavy": _bound_heavy_lp,
    "degenerate": _degenerate_lp,
    "free-variables": _free_variable_lp,
    "equality-rows": _equality_lp,
}


def _branch_boxes(rng, lp, depth=6):
    """Node boxes as branch-and-bound makes them: split one column of
    the current box at a random interior point, keep either side."""
    lo, hi = lp.lo.copy(), lp.hi.copy()
    boxes = []
    for _ in range(depth):
        finite = np.flatnonzero(np.isfinite(lo) & np.isfinite(hi) & (hi > lo))
        if finite.size == 0:
            break
        j = rng.choice(finite)
        cut = rng.uniform(lo[j], hi[j])
        if rng.random() < 0.5:
            hi[j] = cut
        else:
            lo[j] = cut
        boxes.append((lo.copy(), hi.copy()))
    return boxes


class TestBoundedSimplexAgainstScipy:
    @pytest.mark.parametrize("family", sorted(LP_FAMILIES))
    @pytest.mark.parametrize("seed", range(12))
    def test_cold_solve_matches_linprog(self, family, seed):
        lp = LP_FAMILIES[family](np.random.default_rng(seed))
        _assert_matches_linprog(lp, lp.lo, lp.hi, lambda: solve_lp(lp))

    @pytest.mark.parametrize("family", sorted(LP_FAMILIES))
    @pytest.mark.parametrize("seed", range(6))
    def test_warm_resolve_matches_cold_and_linprog(self, family, seed):
        rng = np.random.default_rng(100 + seed)
        lp = LP_FAMILIES[family](rng)
        engine = BoundedSimplex(lp)
        for lo, hi in [(lp.lo, lp.hi)] + _branch_boxes(rng, lp):
            warm = _assert_matches_linprog(lp, lo, hi, lambda: engine.solve(lo, hi))
            if warm is not None:
                cold = solve_lp(LPProblem(c=lp.c, g=lp.g, h=lp.h, a=lp.a, b=lp.b,
                                          lo=lo, hi=hi))
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_box_made_infeasible_by_one_branch(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = 6
        # x_0 + x_1 >= 1 over the unit box: feasible until one branch
        # closes both columns
        g = np.vstack([-np.eye(n)[:2].sum(axis=0), rng.standard_normal((2, n))])
        h = np.concatenate([[-1.0], np.abs(rng.standard_normal(2)) + 2.0])
        lp = LPProblem(c=rng.standard_normal(n), g=g, h=h, lo=np.zeros(n), hi=np.ones(n))
        engine = BoundedSimplex(lp)
        _assert_matches_linprog(lp, lp.lo, lp.hi, engine.solve)
        closed = lp.hi.copy()
        closed[:2] = 0.0
        _assert_matches_linprog(lp, lp.lo, closed, lambda: engine.solve(lp.lo, closed))
        # the engine still re-solves correctly after an infeasible box
        half = lp.hi.copy()
        half[0] = 0.0
        _assert_matches_linprog(lp, lp.lo, half, lambda: engine.solve(lp.lo, half))

    def test_iterations_count_real_pivots(self):
        lp = _equality_lp(np.random.default_rng(3))
        cold = solve_lp(lp)
        assert cold.iterations > 0
        engine = BoundedSimplex(lp)
        engine.solve()
        assert engine.solve().iterations == 0  # same box: the basis is optimal


def _scipy_milp(model):
    from scipy.optimize import Bounds, LinearConstraint, milp

    lp = model.lp
    cons = []
    if lp.g is not None:
        cons.append(LinearConstraint(lp.g, -np.inf, lp.h))
    if lp.a is not None:
        cons.append(LinearConstraint(lp.a, lp.b, lp.b))
    integrality = np.zeros(lp.dim)
    integrality[sorted(model.integer_indices)] = 1
    res = milp(lp.c, integrality=integrality, bounds=Bounds(lp.lo, lp.hi),
               constraints=cons, options={"mip_rel_gap": 1e-12})
    assert res.status == 0, res.message
    return float(res.fun)


class TestMILPAgainstScipy:
    @pytest.mark.parametrize("seed", range(6))
    def test_rra_instances_match_highs(self, seed):
        from repro.qos import (ChannelConfig, ChannelModel, QoSRequirement,
                               RRAProblem, ServiceClass, UserSession)

        channel = ChannelModel(ChannelConfig(n_blocks=4), rng=np.random.default_rng(seed))
        users = [UserSession(u, ServiceClass.EMBB, QoSRequirement(1e5, 50.0, 0.99, 1))
                 for u in range(2)]
        problem = RRAProblem(gains=channel.gains(2), users=users,
                             power_levels_mw=np.array([50.0, 100.0]),
                             total_power_mw=320.0, noise_mw=channel.noise_linear_mw)
        model = problem.to_milp()
        res = solve_milp(model)
        assert res.converged
        assert res.objective == pytest.approx(_scipy_milp(model), rel=1e-9)

    @pytest.mark.parametrize("seed,eps", [(0, 0.1), (1, 0.2), (2, 0.3), (5, 0.25)])
    def test_exact_verifier_big_m_models_match_highs(self, seed, eps, monkeypatch):
        """The exact verifier's margin is the big-M MILP optimum, not just
        an upper bound on the relaxed one."""
        import repro.verify.exact as exact
        from repro.nn import Dense, ReLU, Sequential

        rng = np.random.default_rng(seed)
        net = Sequential([Dense(2, 6, rng=rng), ReLU(), Dense(6, 6, rng=rng), ReLU(),
                          Dense(6, 2, rng=rng)])
        captured = []

        def spy(model, **kwargs):
            res = solve_milp(model, **kwargs)
            captured.append((model, res))
            return res

        monkeypatch.setattr(exact, "solve_milp", spy)
        out = exact.exact_margin_bound(net, rng.uniform(-0.5, 0.5, 2), eps, np.array([1.0, -1.0]))
        (model, res), = captured
        assert res.converged and out.converged
        assert res.objective == pytest.approx(_scipy_milp(model), abs=1e-7)


class TestFFTAgainstScipy:
    @pytest.mark.parametrize("n", [7, 16, 33, 100, 128])
    def test_fft(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.allclose(fft(x), scipy.fft.fft(x), atol=1e-9)

    @pytest.mark.parametrize("n", [8, 9, 64, 65])
    def test_rfft_roundtrip(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal(n)
        assert np.allclose(rfft(x), scipy.fft.rfft(x), atol=1e-9)
        assert np.allclose(irfft(scipy.fft.rfft(x), n=n), x, atol=1e-9)


class TestWindowsAgainstScipy:
    def test_hann_periodic(self):
        ours = hann(64)
        theirs = scipy.signal.get_window("hann", 64, fftbins=True)
        assert np.allclose(ours, theirs, atol=1e-12)

    def test_hamming_periodic(self):
        ours = get_window("hamming", 48)
        theirs = scipy.signal.get_window("hamming", 48, fftbins=True)
        assert np.allclose(ours, theirs, atol=1e-12)

    def test_blackman_periodic(self):
        ours = get_window("blackman", 32)
        theirs = scipy.signal.get_window("blackman", 32, fftbins=True)
        assert np.allclose(ours, theirs, atol=1e-12)


class TestQPAgainstScipy:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1000))
    def test_box_qp_against_slsqp(self, seed):
        from repro.convex import solve_box_qp
        from repro.linalg import random_psd

        rng = np.random.default_rng(seed)
        n = 4
        p = random_psd(n, rng) + 0.2 * np.eye(n)
        q = rng.standard_normal(n)
        lo, hi = -np.ones(n), np.ones(n)
        ours = solve_box_qp(p, q, lo, hi)
        ref = scipy.optimize.minimize(
            lambda x: 0.5 * x @ p @ x + q @ x,
            np.zeros(n),
            jac=lambda x: p @ x + q,
            bounds=list(zip(lo, hi)),
            method="L-BFGS-B",
        )
        assert ours.objective == pytest.approx(ref.fun, abs=1e-5)


class TestWaterFillingAgainstScipy:
    def test_against_constrained_optimizer(self):
        from repro.qos import sum_rate, water_filling

        rng = np.random.default_rng(3)
        g = rng.uniform(1e-10, 1e-8, 6)
        noise = 1e-10
        total = 30.0
        ours = water_filling(g, total, noise)
        ref = scipy.optimize.minimize(
            lambda p: -sum_rate(g, p, noise),
            np.full(6, total / 6),
            bounds=[(0, total)] * 6,
            constraints=[{"type": "eq", "fun": lambda p: p.sum() - total}],
            method="SLSQP",
        )
        assert sum_rate(g, ours, noise) >= -ref.fun - 1e-3

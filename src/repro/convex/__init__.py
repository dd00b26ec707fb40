"""Convex-optimization substrate: QP/QCQP/SDP/LP solvers, the
rank->trace->SDP chain (paper Eqs. 7-10), envelopes, trust regions,
BFGS proxies, ADMM, and relaxation-gradation accounting.

**Non-convergence convention.**  Iterative solvers in this package are
*lenient by default*: when the iteration budget runs out they return
their best iterate with ``converged=False`` (BnB bounding and other
callers tolerate slightly inexact solves).  Every such solver also
accepts ``strict=True``, which raises
:class:`~repro.exceptions.ConvergenceError` instead — the mode the
:mod:`repro.resilience` retry/fallback machinery hooks into.  Solvers
whose fallback output is *exact by construction* (e.g. the trust-region
secular bisection, which always returns a boundary point) stay lenient
and document it.  Long loops additionally accept a cooperative
``budget`` (:class:`repro.resilience.Budget`) charged per iteration.
"""

from repro.convex.admm import (
    ADMMResult,
    admm_consensus,
    prox_box,
    prox_indicator_affine,
    prox_l1,
    prox_l2_squared,
    prox_nonconvex_l0,
)
from repro.convex.bfgs import OptimizeResult, minimize_bfgs, minimize_lbfgs, numerical_gradient
from repro.convex.envelopes import (
    Interval,
    LinearBound,
    concave_secant,
    convex_tangent,
    envelope_gap,
    mccormick_bilinear,
    quadratic_envelope,
    relu_envelope,
)
from repro.convex.corr import CoRRConfig, CoRRResult, corr_minimize, fit_convex_quadratic
from repro.convex.firstorder import (
    BatchQPResult,
    BatchSDPResult,
    box_qp_fista,
    box_qp_fista_batch,
    solve_qcqp_firstorder,
    solve_sdp_firstorder,
    solve_sdp_firstorder_batch,
)
from repro.convex.langevin import LangevinConfig, LangevinResult, langevin_minimize
from repro.convex.lp import BoundedSimplex, simplex_standard_form, solve_lp
from repro.convex.problem import (
    LPProblem,
    QCQPProblem,
    QPProblem,
    QuadraticForm,
    SDPProblem,
    Solution,
)
from repro.convex.qcqp import ShorResult, shor_relaxation, solve_qcqp, solve_qcqp_barrier
from repro.convex.qp import solve_box_qp, solve_equality_qp, solve_qp
from repro.convex.rank import (
    DecompositionResult,
    make_decomposition_instance,
    rank_minimization_reference,
    trace_minimization,
)
from repro.convex.relaxation import (
    RelaxationChain,
    RelaxationGrade,
    RelaxationStep,
    tightness_ratio,
)
from repro.convex.sdp import AffineSubspaceProjector, solve_sdp
from repro.convex.trust_region import TrustRegionResult, cauchy_point, solve_trust_region

__all__ = [
    "ADMMResult",
    "BatchQPResult",
    "BatchSDPResult",
    "BoundedSimplex",
    "CoRRConfig",
    "CoRRResult",
    "AffineSubspaceProjector",
    "DecompositionResult",
    "Interval",
    "LangevinConfig",
    "LangevinResult",
    "LPProblem",
    "LinearBound",
    "OptimizeResult",
    "QCQPProblem",
    "QPProblem",
    "QuadraticForm",
    "RelaxationChain",
    "RelaxationGrade",
    "RelaxationStep",
    "SDPProblem",
    "ShorResult",
    "Solution",
    "TrustRegionResult",
    "admm_consensus",
    "box_qp_fista",
    "box_qp_fista_batch",
    "cauchy_point",
    "concave_secant",
    "corr_minimize",
    "convex_tangent",
    "envelope_gap",
    "fit_convex_quadratic",
    "langevin_minimize",
    "make_decomposition_instance",
    "mccormick_bilinear",
    "minimize_bfgs",
    "minimize_lbfgs",
    "numerical_gradient",
    "prox_box",
    "prox_indicator_affine",
    "prox_l1",
    "prox_l2_squared",
    "prox_nonconvex_l0",
    "quadratic_envelope",
    "rank_minimization_reference",
    "relu_envelope",
    "shor_relaxation",
    "simplex_standard_form",
    "solve_box_qp",
    "solve_equality_qp",
    "solve_lp",
    "solve_qcqp",
    "solve_qcqp_barrier",
    "solve_qcqp_firstorder",
    "solve_qp",
    "solve_sdp",
    "solve_sdp_firstorder",
    "solve_sdp_firstorder_batch",
    "solve_trust_region",
    "tightness_ratio",
    "trace_minimization",
]

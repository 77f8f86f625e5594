"""The two measurement families with closed-form solutions.

Single state detection gives up on one state entirely and reads the other
off its free detector subspace; it is optimal for extreme prior weights.
The fidelity-form measurement balances both states so the inconclusive
element sees no difference between them; when feasible it attains the
squared Bures distance.  For pure states the two families cover every
prior, which reproduces the classic two-pure-state solution.

Both solvers require the state supports to be disjoint (reduce first).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .errors import InvalidInconclusive, PreconditionViolated
from .linalg import hermitian_part
from .model import UsdMeasurement, WeightedDensityPair, complete_measurement
from .optimality import SolverOutcome, accepted_outcome
from .tolerances import DEFAULT_TOL, ToleranceContext

__all__ = [
    "ProbabilityWindow", "BRANCH_SINGLE_STATE", "BRANCH_FIDELITY",
    "try_single_state_detection", "single_detection_window",
    "try_fidelity_form", "fidelity_window",
]

BRANCH_SINGLE_STATE = "single-state-detection"
BRANCH_FIDELITY = "fidelity-form"


@dataclass(frozen=True)
class ProbabilityWindow:
    """Range of priors p1 in which a closed-form family is optimal.

    kind names the family; spectral_quantity is the eigenvalue (lambda or
    mu-squared style) that generated the endpoint(s).
    """

    kind: str
    lower: float
    upper: float
    spectral_quantity: float

    @property
    def is_empty(self) -> bool:
        if self.kind == "fidelity_form":
            return self.upper < self.lower
        # single-detection windows are half-open at 0 resp. 1
        if self.kind == "single_detect_gamma2":
            return self.upper <= 0.0
        return self.lower >= 1.0

    def contains(self, p1: float) -> bool:
        return (not self.is_empty) and self.lower <= p1 <= self.upper


def _require_disjoint_supports(pair: WeightedDensityPair):
    if pair.support_overlap.size:
        raise PreconditionViolated(
            "state supports overlap; apply the parallel reduction first")


def _psd_with_boundary(a: np.ndarray, tol: ToleranceContext,
                       support: np.ndarray):
    """(is_psd, is_marginal): marginal when the minimum eigenvalue sits
    within 10x psd_floor of zero (a class-transition prior).

    The operator is compressed onto the basis `support` first: the tested
    operators vanish structurally outside the state support, and those
    hard zeros would otherwise always look marginal.
    """
    a = support.conj().T @ a @ support
    if a.shape[0] == 0:
        return True, False
    w = np.linalg.eigvalsh(hermitian_part(a))
    floor = tol.psd_floor * max(1.0, float(np.abs(w).max()))
    lo = float(w.min())
    return lo >= -floor, abs(lo) <= 10 * floor


def try_single_state_detection(pair: WeightedDensityPair) -> SolverOutcome | None:
    """Detect only one state; optimal iff a single PSD condition holds.

    Giving up on gamma1 is optimal iff gamma1 (gamma2-gamma1) gamma1 >= 0;
    the measurement is then (0, L2, 1-L2) with L2 the projector onto
    ker(gamma1) inside the collective support, and the success probability
    is tr(L2 gamma2).  The mirrored branch detects gamma1.  The first
    branch whose condition holds and whose measurement the optimality
    check accepts (`accepted_outcome`) is the outcome; None otherwise.
    """
    _require_disjoint_supports(pair)
    tol = pair.tol
    g1, g2 = pair.gamma1, pair.gamma2
    sup1, sup2 = pair.supports
    lam1, lam2 = pair.detectors
    # (condition, support of the state given up, detector of the other)
    branches = (
        (g1 @ (g2 - g1) @ g1, sup1, lam2, False),
        (g2 @ (g1 - g2) @ g2, sup2, lam1, True),
    )
    for condition, given_up, detector, detects_first in branches:
        ok, marginal = _psd_with_boundary(condition, tol, given_up.basis)
        if not ok:
            continue
        e_q = np.eye(pair.dim) - detector
        if detects_first:
            m = UsdMeasurement(detector, np.zeros_like(detector), e_q)
        else:
            m = UsdMeasurement(np.zeros_like(detector), detector, e_q)
        outcome = accepted_outcome(m, pair, BRANCH_SINGLE_STATE, marginal)
        if outcome is not None:
            return outcome
    return None


def _min_supported_eigenvalue(rho1, rho2, tol) -> float:
    """Smallest eigenvalue of sqrt(rho1)^- rho2 sqrt(rho1)^- on supp(rho1)."""
    sup = la.support(rho1, tol)
    if sup.size == 0:
        return 0.0
    root_inv = la.pseudo_inverse(la.sqrt_psd(rho1, tol), tol)
    op = root_inv @ rho2 @ root_inv
    compressed = hermitian_part(sup.basis.conj().T @ op @ sup.basis)
    return float(np.linalg.eigvalsh(compressed).min())


def single_detection_window(rho1: np.ndarray, rho2: np.ndarray,
                            tol: ToleranceContext = DEFAULT_TOL,
                            ) -> ProbabilityWindow:
    """Priors for which detecting only rho2 is optimal: (0, l1].

    l1 = lambda1 / (1 + lambda1) with lambda1 the smallest non-vanishing
    eigenvalue of sqrt(rho1)^- rho2 sqrt(rho1)^-.  If supp(rho1) meets
    ker(rho2) the window is empty (lambda1 = 0).
    """
    lam = _min_supported_eigenvalue(rho1, rho2, tol)
    if lam <= tol.rank_cutoff:
        return ProbabilityWindow("single_detect_gamma2", 0.0, 0.0, 0.0)
    return ProbabilityWindow("single_detect_gamma2", 0.0, lam / (1 + lam), lam)


def _max_fidelity_eigenvalue(rho1, rho2, tol) -> float:
    root = la.sqrt_psd(rho1, tol)
    r_op = la.sqrt_psd(root @ rho2 @ root, tol)
    root_inv = la.pseudo_inverse(root, tol)
    return float(max(np.linalg.eigvalsh(
        hermitian_part(root_inv @ r_op @ root_inv)).max(initial=0.0), 0.0))


def fidelity_window(rho1: np.ndarray, rho2: np.ndarray,
                    tol: ToleranceContext = DEFAULT_TOL) -> ProbabilityWindow:
    """Priors for which the fidelity-form measurement is optimal: [m1, 1-m2].

    m_mu = mu^2 / (1 + mu^2) with mu the largest eigenvalue of
    sqrt(rho_mu)^- sqrt(sqrt(rho_mu) rho_nu sqrt(rho_mu)) sqrt(rho_mu)^-.
    The window is empty when m1 + m2 > 1.
    """
    mu1 = _max_fidelity_eigenvalue(rho1, rho2, tol)
    mu2 = _max_fidelity_eigenvalue(rho2, rho1, tol)
    m1 = mu1 ** 2 / (1 + mu1 ** 2)
    m2 = mu2 ** 2 / (1 + mu2 ** 2)
    return ProbabilityWindow("fidelity_form", m1, 1.0 - m2, mu1)


def try_fidelity_form(pair: WeightedDensityPair) -> SolverOutcome | None:
    """Balanced measurement attaining the squared Bures distance.

    Feasible iff gamma_mu - sqrt(sqrt(g_mu) g_nu sqrt(g_mu)) >= 0 for both
    states; the inconclusive element is then built in closed form and the
    measurement completed.  When the optimality check accepts it
    (`accepted_outcome`), its success probability equals
    tr(g1+g2) - 2 tr|sqrt(g1) sqrt(g2)|.  Returns None when infeasible,
    not completable (just outside the window) or refused.
    """
    _require_disjoint_supports(pair)
    tol = pair.tol
    g1, g2 = pair.gamma1, pair.gamma2
    root1 = la.sqrt_psd(g1, tol)
    root2 = la.sqrt_psd(g2, tol)
    f1 = la.sqrt_psd(root1 @ g2 @ root1, tol)
    f2 = la.sqrt_psd(root2 @ g1 @ root2, tol)
    sup1, sup2 = pair.supports
    ok1, marginal1 = _psd_with_boundary(g1 - f1, tol, sup1.basis)
    ok2, marginal2 = _psd_with_boundary(g2 - f2, tol, sup2.basis)
    if not (ok1 and ok2):
        return None
    total_inv = pair.total_inverse
    deficit = root1 @ (g1 - f1) @ root1 + root2 @ (g2 - f2) @ root2
    e_q = hermitian_part(np.eye(pair.dim) - total_inv @ deficit @ total_inv)
    try:
        m = complete_measurement(e_q, pair)
    except InvalidInconclusive:
        return None
    return accepted_outcome(m, pair, BRANCH_FIDELITY, marginal1 or marginal2)

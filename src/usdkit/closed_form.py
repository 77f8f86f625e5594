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

from .errors import PreconditionViolated
from .linalg import dag, hermitian_part
from .model import UsdMeasurement, WeightedDensityPair, validate_inconclusive
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
        return self.upper <= 0.0  # a single-detection window is open at 0

    def contains(self, p1: float) -> bool:
        return (not self.is_empty) and self.lower <= p1 <= self.upper


def _require_disjoint_supports(pair: WeightedDensityPair):
    if pair.support_overlap.size:
        raise PreconditionViolated(
            "state supports overlap; apply the parallel reduction first")


def _psd_with_boundary(block: np.ndarray, tol: ToleranceContext):
    """(is_psd, is_marginal) of an operator compressed onto a state's
    support (outside it the tested operators vanish, and those hard zeros
    would always look marginal): marginal when the minimum eigenvalue sits
    within 10x psd_floor of zero (a class-transition prior).  For a stack
    of blocks (..., k, k), one value of each per block."""
    w = np.linalg.eigvalsh(hermitian_part(block))
    floor = tol.psd_floor * np.maximum(1.0, np.abs(w).max(axis=-1,
                                                          initial=0.0))
    lo = w.min(axis=-1, initial=np.inf)  # an empty block is PSD, not marginal
    return lo >= -floor, np.abs(lo) <= 10 * floor


def _single_state_branches(gamma1: np.ndarray, gamma2: np.ndarray,
                           split, tol: ToleranceContext):
    """The two branches of `try_single_state_detection` in the order they
    are tried, lazily, as (ok, marginal, m): whether the branch's condition
    holds and sits on its boundary (`_psd_with_boundary`), and its fixed
    measurement.  The states may be stacks (..., d, d), each row a pair
    holding `split`; ok and marginal then hold one value per row."""
    (b1, b2), (lam1, lam2) = (s.basis for s in split.supports), split.detectors
    zero, eye = np.zeros_like(lam1), np.eye(split.dim)
    # (state given up, the other, its support basis, the measurement)
    for g, other, b, elements in (
            (gamma1, gamma2, b1, (zero, lam2, eye - lam2)),
            (gamma2, gamma1, b2, (lam1, zero, eye - lam1))):
        ok, marginal = _psd_with_boundary(
            dag(b) @ (g @ (other - g) @ g) @ b, tol)
        yield ok, marginal, UsdMeasurement(*elements)


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
    for ok, marginal, m in _single_state_branches(
            pair.gamma1, pair.gamma2, pair.jordan, pair.tol):
        if not ok:
            continue
        outcome = accepted_outcome(m, pair, BRANCH_SINGLE_STATE,
                                   bool(marginal))
        if outcome is not None:
            return outcome
    return None


def single_detection_window(rho1: np.ndarray, rho2: np.ndarray,
                            tol: ToleranceContext = DEFAULT_TOL,
                            ) -> ProbabilityWindow:
    """Priors for which detecting only rho2 is optimal: (0, l1].

    l1 = lambda1 / (1 + lambda1) with lambda1 the smallest non-vanishing
    eigenvalue of sqrt(rho1)^- rho2 sqrt(rho1)^- on supp(rho1), read off
    the `root_blocks` of the pair (rho1, rho2) / 2.  If supp(rho1) meets
    ker(rho2) the window is empty (lambda1 = 0).
    """
    lam = WeightedDensityPair.from_states(
        rho1, rho2, 0.5, tol).root_blocks[0].detection_eigenvalue()
    if lam <= tol.rank_cutoff:
        return ProbabilityWindow("single_detect_gamma2", 0.0, 0.0, 0.0)
    return ProbabilityWindow("single_detect_gamma2", 0.0, lam / (1 + lam), lam)


def fidelity_window(rho1: np.ndarray, rho2: np.ndarray,
                    tol: ToleranceContext = DEFAULT_TOL) -> ProbabilityWindow:
    """Priors for which the fidelity-form measurement is optimal: [m1, 1-m2].

    m_mu = mu^2 / (1 + mu^2) with mu the largest eigenvalue of
    sqrt(rho_mu)^- sqrt(sqrt(rho_mu) rho_nu sqrt(rho_mu)) sqrt(rho_mu)^-,
    read off the `root_blocks` of the pair (rho1, rho2) / 2.  The window is
    empty when m1 + m2 > 1.
    """
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.5, tol)
    mu1, mu2 = (root.fidelity_eigenvalue() for root in pair.root_blocks)
    m1, m2 = (mu ** 2 / (1 + mu ** 2) for mu in (mu1, mu2))
    return ProbabilityWindow("fidelity_form", m1, 1.0 - m2, mu1)


def try_fidelity_form(pair: WeightedDensityPair) -> SolverOutcome | None:
    """Balanced measurement attaining the squared Bures distance.

    Feasible iff gamma_mu - F_mu >= 0 for both states, F_mu the polar
    factors of sqrt(g1) sqrt(g2): A_mu - polar_mu >= 0 on the pair's
    `root_blocks`, at the rank its Jordan split decided.  The measurement
    is then Y_mu = 1 - A_mu^-1/2 polar_mu A_mu^-1/2, mapped out by the
    split (`JordanSplit.measurement`).  When its e_q is valid and the
    optimality check accepts it (`accepted_outcome`), its success
    probability equals tr(g1+g2) - 2 tr|sqrt(g1) sqrt(g2)|.  Returns None
    when infeasible, invalid (just outside the window) or refused.
    """
    _require_disjoint_supports(pair)
    roots = pair.root_blocks
    ok, marginal = _fidelity_feasible(roots, pair.tol)
    if not ok:
        return None
    m = pair.jordan.measurement(*_fidelity_blocks(roots))
    if not validate_inconclusive(m.e_inconclusive, pair).ok:
        return None
    return accepted_outcome(m, pair, BRANCH_FIDELITY, bool(marginal))


def _fidelity_feasible(roots, tol: ToleranceContext):
    """(ok, marginal) of `try_fidelity_form` on the pair whose `root_blocks`
    are `roots`: whether both conditions A_mu - polar_mu >= 0 hold, and
    whether one sits on its boundary (`_psd_with_boundary`).  For root
    blocks scaled by arrays of weights (`_RootBlock.scaled`), one verdict
    per row."""
    (ok1, marginal1), (ok2, marginal2) = (
        _psd_with_boundary(root.block - root.polar, tol) for root in roots)
    return ok1 & ok2, marginal1 | marginal2


def _fidelity_blocks(roots):
    """The blocks Y_mu = 1 - A_mu^-1/2 polar_mu A_mu^-1/2 of the
    fidelity-form measurement on the pair whose `root_blocks` are `roots`;
    (n, k, k) for root blocks scaled by arrays of weights."""
    return tuple(np.eye(r.block.shape[-1])
                 - r.inverse_root @ r.polar @ r.inverse_root for r in roots)

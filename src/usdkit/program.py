"""The strictly skew core as one k x k convex program.

In the Jordan bases of a strictly skew (2k; k, k) core, with A_mu the
blocks B_mu^dag gamma_mu B_mu (`_RootBlock.block`), C = diag(cosines) and
S = diag(sines), every proper USD measurement is fixed by a Hermitian G
with C^2 <= G <= 1: Y1 = 1 - G and Y2 = 1 - C G^-1 C, mapped out by the
split (`JordanSplit.measurement`), and its success is tr A1 + tr A2 -
f(G), f(G) = tr(A1 G) + tr(C A2 C G^-1).  This is the dual of Eldar,
Stojnic & Hassibi (PRA 69, 062318, 2004) in Jordan coordinates; f is
convex, as G^-1 is operator convex, and its unconstrained minimiser
A1^-1 # C A2 C is the fidelity form.

The program is solved in the W form, G = C^2 + S W S with 0 <= W <= 1,
so that both bounds have width one whatever the cosines, by semismooth
Newton (Qi & Sun, SIAM J. Matrix Anal. Appl. 28, 2006) on the natural
residual R(W) = W - P(W - tau grad F(W)), P the projection onto the box,
which clips the eigenvalues of its argument to [0, 1].  The answer is
checked like every family's (`optimality.accepted_outcome`), so the
solver carries no optimality argument of its own.
"""
from __future__ import annotations

import numpy as np

from .linalg import dag, hermitian_part
from .model import WeightedDensityPair, validate_inconclusive
from .optimality import SolverOutcome, accepted_outcome

__all__: list[str] = []

_BRANCH_PROGRAM = "convex-program"

# Newton steps before the solve gives up; the benchmark's cores take 5-6
_MAX_STEPS = 50
# the natural residual (Frobenius norm) counted as converged
_RESIDUAL_TOL = 1e-15
# halvings of a Newton step before the line search calls the solve stalled
_MAX_HALVINGS = 30


def _solve_program(core: WeightedDensityPair) -> SolverOutcome | None:
    """The program's answer on a strictly skew core that no family
    answers, if its inconclusive element is valid and the check accepts
    it (`accepted_outcome`); None when either refuses it, the solve runs
    out its steps or a linear solve meets a singular matrix:
    `pipeline.dispatch` then runs the oracle."""
    split = core.jordan
    try:
        blocks = _program_blocks(core.root_blocks, split.cosines[split.skew])
    except np.linalg.LinAlgError:
        return None
    if blocks is None:
        return None
    m = split.measurement(*blocks)
    # the box keeps E_q >= 0 in exact arithmetic; the lifts scale rounding
    # by 1/s^2, so the element is validated as the fidelity form's is
    if not validate_inconclusive(m.e_inconclusive, core).ok:
        return None
    return accepted_outcome(m, core, _BRANCH_PROGRAM)


def _clip(w: np.ndarray) -> np.ndarray:
    """P: the projection of a Hermitian matrix onto 0 <= W <= 1."""
    lam, u = np.linalg.eigh(w)
    return (u * np.clip(lam, 0.0, 1.0)) @ dag(u)


def _hessian(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The k^2 x k^2 matrix of H -> X H Z + Z H X on row-major vec(H)."""
    k = len(x)
    h = (x[:, None, :, None] * z.T[None, :, None, :]
         + z[:, None, :, None] * x.T[None, :, None, :])
    return h.reshape(k * k, k * k)


def _program_blocks(roots, cosines: np.ndarray):
    """(Y1, Y2) at the minimiser of f over C^2 <= G <= 1 for the core whose
    `root_blocks` are `roots`, A_mu their blocks, and whose Jordan cosines
    are `cosines`; or None when `_MAX_STEPS` Newton steps do not bring the
    natural residual below `_RESIDUAL_TOL`.

    The start is the unconstrained minimiser, the fidelity form's G =
    A1^-1/2 polar1 A1^-1/2 (`closed_form._fidelity_blocks`), clipped to the
    box: it already scales like the optimum along a near-orthogonal Jordan
    pair, where G = 1/2 starts Newton far outside its reach.

    With X = S G^-1 S and Z = S G^-1 C A2 C G^-1 S, grad F = S A1 S - Z
    and the Hessian is H -> X H Z + Z H X; tau is one over its largest
    eigenvalue at the start.  At V = W - tau grad F = U diag(lam) U^dag
    the projection's derivative acts on H as U (Omega o U^dag H U) U^dag,
    Omega the divided differences of the clip over lam, so each Newton
    step is one k^2 x k^2 solve in the eigenbasis of V.  Each trial point
    is clipped back into the box, so G >= C^2 stays positive definite and
    Newton cannot settle on a point outside it, and a step is halved until
    |R| falls by the Armijo fraction; a step that no halving improves ends
    the solve, stalled at rounding, and the check decides.  The answer is
    P(V) at the last iterate, mapped out as
    Y1 = S (1 - W) S and Y2 = S^2 - C G^-1 S (1 - W) S C, which is
    1 - C G^-1 C without its cancellation near parallel.
    """
    (a1, a2), first = (root.block for root in roots), roots[0]
    start = first.inverse_root @ first.polar @ first.inverse_root
    k = len(cosines)
    c = cosines
    s = np.sqrt((1.0 - c) * (1.0 + c))
    ss = np.outer(s, s)
    cac = np.outer(c, c) * a2
    sas = ss * a1
    c2 = np.diag(c * c)
    eye, eye2 = np.eye(k), np.eye(k * k)

    def curvature(w):
        """X, Z and grad F at W."""
        ginv = np.linalg.inv(c2 + ss * w)
        z = ss * (ginv @ cac @ ginv)
        return ss * ginv, z, sas - z

    w = _clip((start - c2) / ss)
    x, z, _ = curvature(w)
    tau = 1.0 / np.linalg.eigvalsh(_hessian(x, z))[-1]

    def residual(w):
        """R(W), its norm, and what the Newton step at W reads."""
        x, z, grad = curvature(w)
        lam, u = np.linalg.eigh(w - tau * grad)
        box = (u * np.clip(lam, 0.0, 1.0)) @ dag(u)
        r = w - box
        return np.linalg.norm(r), (r, box, x, z, lam, u)

    norm, state = residual(w)
    for _ in range(_MAX_STEPS):
        if norm <= _RESIDUAL_TOL:
            break
        r, _, x, z, lam, u = state
        clipped = np.clip(lam, 0.0, 1.0)
        gap = lam[:, None] - lam
        inside = ((lam > 0.0) & (lam < 1.0)).astype(float)
        omega = np.divide(clipped[:, None] - clipped, gap,
                          out=np.outer(inside, inside), where=gap != 0.0)
        jac = eye2 - omega.reshape(-1, 1) * (
            eye2 - tau * _hessian(dag(u) @ x @ u, dag(u) @ z @ u))
        step = np.linalg.solve(jac, -(dag(u) @ r @ u).reshape(-1))
        step = hermitian_part(u @ step.reshape(k, k) @ dag(u))
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = _clip(w + alpha * step)
            trial_norm, trial_state = residual(trial)
            if trial_norm <= (1.0 - 1e-4 * alpha) * norm:
                break
            alpha /= 2.0
        else:
            break
        w, norm, state = trial, trial_norm, trial_state
    else:
        return None
    box = state[1]
    rest = ss * (eye - box)
    q = np.linalg.solve(c2 + ss * box, rest)
    return rest, hermitian_part(np.diag(s * s) - np.outer(c, c) * q)

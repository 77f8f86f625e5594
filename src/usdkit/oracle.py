"""Independent numerical optimizer over inconclusive operators.

The feasible set is the convex body of Hermitian E with 0 <= E <= 1 that
act as identity on the common kernel and satisfy the linear separation
constraint gamma1 (1 - E) gamma2 = 0.  The success probability
tr[(1 - E) Gamma], with Gamma = gamma1 + gamma2, is linear in E, so the
optimum solves a semidefinite program.  Each restart solves it with one
Douglas-Rachford (ADMM) splitting: the exact affine projection alternates
with the spectral box [0, 1] while a scaled dual variable accumulates the
constraint forces.  The same splitting with no objective polishes the
answer onto the feasible set and draws random feasible points.

The splitting's dual also yields an upper bound on the success.  Any
Hermitian Y orthogonal to the null space of the affine constraints has
tr(E Y) = tr(E_a Y) on the whole affine set, E_a being one point of it,
and the box bounds tr(E (Gamma - Y)) below by the sum of the negative
eigenvalues of Gamma - Y.  So every feasible E has
success <= tr Gamma - tr(E_a Y) - sum min(eig(Gamma - Y), 0).

This module deliberately knows nothing about optimal-measurement theory:
it only uses the feasibility conditions, so it can serve as an
independent reference for the analytic solvers.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NonConvergence
from .linalg import dag, hermitian_part
from .model import WeightedDensityPair

__all__ = [
    "OracleConfig", "OracleResult", "UniquenessReport", "FeasibleSet",
    "oracle_optimize", "uniqueness_probe", "random_feasible_inconclusive",
]


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the optimizer.

    Restart k draws its start from `seed` and k alone and runs the
    splitting for at most `max_iters` iterations, stopping early once the
    primal and dual residuals drop below convergence_tol clipped to
    [5e-14, 1e-13]; the polish, the same splitting with no objective, stops
    likewise at [5e-15, 1e-14] or after 30 000 iterations.  The lower
    ends sit just above the rounding level where the residuals stall, so a
    tighter convergence_tol does not run out the budgets.  The oracle
    raises NonConvergence when the returned operator's feasibility residual
    exceeds convergence_tol.  `dispatch` runs restart 0 alone first, and
    all `restarts` only when the checker refuses that point.
    """

    seed: int = 0
    restarts: int = 1
    max_iters: int = 200_000
    convergence_tol: float = 1e-8

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")


@dataclass(frozen=True)
class OracleResult:
    """Best feasible inconclusive operator found, with diagnostics.

    upper_bound is the smallest of the restarts' dual bounds; it holds for
    every feasible operator, so upper_bound - success bounds the distance
    to the optimal success.
    """

    e_q_opt: np.ndarray
    success: float
    upper_bound: float
    per_restart_distances: tuple[float, ...]
    feasibility_residual: float
    iterations: int


@dataclass(frozen=True)
class UniquenessReport:
    """Spread of the converged optimizers across restarts."""

    unique: bool
    max_distance: float
    result: OracleResult

    def __bool__(self) -> bool:
        return self.unique


class FeasibleSet:
    """Projection machinery for the inconclusive-operator feasible set.

    The affine projection is one real matrix plus an offset, acting on the
    float view of E (its 2 d^2 real and imaginary parts).  The matrix is
    the orthogonal projector onto the Hermitian matrices minus the part
    normal to the constraints.
    """

    def __init__(self, pair: WeightedDensityPair):
        self.pair = pair
        d = pair.dim
        self.dim = d
        self.kernel_basis = kb = pair.common_kernel().basis
        n = 2 * d * d
        # herm[k] is the Hermitian part of the k-th coordinate matrix
        units = np.eye(n).view(complex).reshape(n, d, d)
        herm = 0.5 * (units + units.conj().transpose(0, 2, 1))
        g1, g2 = pair.gamma1, pair.gamma2
        images = np.concatenate([(g1 @ herm @ g2).reshape(n, -1),
                                 (herm @ kb).reshape(n, -1)], axis=1)
        rhs = np.concatenate([(g1 @ g2).ravel(), kb.ravel()]).view(float)
        rows = images.view(float).T
        solver = np.linalg.pinv(rows, rcond=1e-12)
        self._linear = herm.reshape(n, -1).view(float) - solver @ rows
        self._offset = solver @ rhs

    # -- individual projections -------------------------------------------
    def project_affine(self, e: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(e, dtype=complex).reshape(-1).view(float)
        y = self._linear @ x + self._offset
        return y.view(complex).reshape(self.dim, self.dim)

    @staticmethod
    def _clip_spectrum(e: np.ndarray) -> np.ndarray:
        w, u = np.linalg.eigh(hermitian_part(e))
        return (u * np.clip(w, 0.0, 1.0)) @ dag(u)

    def project(self, e: np.ndarray, cycles: int = 500,
                tol: float = 1e-13) -> np.ndarray:
        """A feasible point reached from e by the splitting with no objective.

        Runs at most `cycles` iterations and stops once the primal and dual
        residuals drop below tol.  The result lies in the spectral box
        exactly, with the remaining residual in the affine constraint.  A
        feasible e comes back unchanged up to rounding; otherwise the point
        is feasible but in general not the one nearest to e.
        """
        return _split(self, e, np.zeros_like(e), cycles, tol)[0]

    def residual(self, e: np.ndarray) -> float:
        """Worst violation of any feasibility condition."""
        w = np.linalg.eigvalsh(hermitian_part(e))
        res = max(0.0, -float(w.min()), float(w.max()) - 1.0)
        cross = self.pair.gamma1 @ (np.eye(self.dim) - e) @ self.pair.gamma2
        res = max(res, float(np.linalg.norm(cross)))
        kb = self.kernel_basis
        if kb.shape[1]:
            res = max(res, float(np.abs(e @ kb - kb).max()))
        return res

    def success(self, e: np.ndarray) -> float:
        return float(np.real(np.trace((np.eye(self.dim) - e) @ self.pair.total)))

    def success_bound(self, m: np.ndarray) -> float:
        """Upper bound on the success of every feasible operator.

        Y is the part of the Hermitian m normal to the affine constraints,
        m minus its image under the linear part of `project_affine`; the
        bound is the one in the module docstring, with E_a the affine
        point nearest 0.
        """
        e_a = self._offset.view(complex).reshape(self.dim, self.dim)
        y = m - (self.project_affine(m) - e_a)
        total = self.pair.total
        w = np.linalg.eigvalsh(hermitian_part(total - y))
        return float(np.trace(total).real - np.vdot(e_a, y).real
                     - np.minimum(w, 0.0).sum())


def _random_start(d: int, seed: int) -> np.ndarray:
    """1 - X X^dag for a random contraction X; inside the spectral box."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x /= 1.3 * np.linalg.norm(x, 2)
    return np.eye(d) - x @ dag(x)


def random_feasible_inconclusive(pair: WeightedDensityPair, seed: int = 0,
                                 cycles: int = 60_000,
                                 tol: float = 1e-13) -> np.ndarray:
    """A random valid inconclusive operator, via `FeasibleSet.project`.

    Draws a contraction X, forms 1 - X X^dag and runs the splitting with no
    objective from it to a feasible point; deterministic in the seed.
    Raises NonConvergence when the cycle cap leaves a point infeasible by
    more than pair.tol.equality, the bound `complete_measurement` applies.
    """
    feas = FeasibleSet(pair)
    e = feas.project(_random_start(pair.dim, seed), cycles=cycles, tol=tol)
    if (residual := feas.residual(e)) > pair.tol.equality:
        raise NonConvergence(f"random draw infeasible by {residual:.3e}")
    return e


def _split(feas: FeasibleSet, start, objective, iters, tol):
    """Douglas-Rachford splitting for min tr(E objective) on the feasible set.

    Alternates the exact affine projection with the spectral box while the
    scaled dual accumulates the constraint forces; stops when the primal
    residual |affine - boxed| and the dual residual |boxed - prev| are
    both below tol.  Returns the boxed iterate, the dual and the iteration
    count.
    """
    boxed = hermitian_part(start)
    dual = np.zeros_like(boxed)
    used = 0
    for used in range(1, iters + 1):
        affine = feas.project_affine(boxed - dual - objective)
        prev = boxed
        boxed = feas._clip_spectrum(affine + dual)
        dual = dual + affine - boxed
        if (np.linalg.norm(affine - boxed) < tol
                and np.linalg.norm(boxed - prev) < tol):
            break
    return boxed, dual, used


def oracle_optimize(pair: WeightedDensityPair,
                    cfg: OracleConfig = OracleConfig()) -> OracleResult:
    """Maximize the success probability over valid inconclusive operators.

    Each restart runs the splitting from its own random start, takes the
    dual bound, and polishes the iterate onto the feasible set with
    `FeasibleSet.project`, the splitting again with no objective.  The
    reported success is the best over restarts, the bound the smallest;
    restart-to-restart spreads are returned for uniqueness probing.
    """
    feas = FeasibleSet(pair)
    scale = max(float(np.linalg.norm(pair.total, 2)), 1e-300)
    objective = pair.total / scale
    finals = []
    bounds = []
    best = None
    best_success = -np.inf
    total_iters = 0
    for restart in range(cfg.restarts):
        start = _random_start(pair.dim, cfg.seed * 1_000_003 + restart)
        boxed, dual, used = _split(
            feas, start, objective, cfg.max_iters,
            tol=float(np.clip(cfg.convergence_tol, 5e-14, 1e-13)))
        total_iters += used
        bounds.append(feas.success_bound(scale * (dual + objective)))
        e = feas.project(boxed, cycles=30_000,
                         tol=float(np.clip(cfg.convergence_tol, 5e-15, 1e-14)))
        success = feas.success(e)
        finals.append(e)
        if success > best_success:
            best, best_success = e, success
    residual = feas.residual(best)
    if residual > cfg.convergence_tol:
        raise NonConvergence(
            f"feasibility residual {residual:.3e} above tolerance "
            f"{cfg.convergence_tol:.1e} after {total_iters} iterations")
    distances = tuple(
        float(np.linalg.norm(a - b))
        for a, b in combinations(finals, 2))
    return OracleResult(
        e_q_opt=best,
        success=best_success,
        upper_bound=min(bounds),
        per_restart_distances=distances,
        feasibility_residual=residual,
        iterations=total_iters,
    )


def uniqueness_probe(pair: WeightedDensityPair,
                     cfg: OracleConfig | None = None) -> UniquenessReport:
    """Do independent restarts land on one optimizer?

    Runs the oracle with at least ten restarts and reports whether the
    largest pairwise distance between the converged inconclusive operators
    stays below ten times the convergence tolerance.
    """
    if cfg is None:
        cfg = OracleConfig(restarts=10)
    if cfg.restarts < 10:
        raise ValueError("uniqueness probing needs at least 10 restarts")
    result = oracle_optimize(pair, cfg)
    spread = max(result.per_restart_distances, default=0.0)
    return UniquenessReport(
        unique=spread <= 10 * cfg.convergence_tol,
        max_distance=spread,
        result=result,
    )

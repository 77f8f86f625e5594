"""Independent numerical optimizer over inconclusive operators.

The feasible set is the convex body of Hermitian E with 0 <= E <= 1 that
act as identity on the common kernel and satisfy the linear separation
constraint gamma1 (1 - E) gamma2 = 0.  The success probability
tr[(1 - E) Gamma], with Gamma = gamma1 + gamma2, is linear in E, so the
optimum solves a semidefinite program.  Each restart solves it with one
Douglas-Rachford (ADMM) splitting: the exact affine projection alternates
with the spectral box [0, 1] while a scaled dual variable accumulates the
constraint forces.  The splitting runs as a fixed-point iteration with
safeguarded Anderson acceleration: from a short history of its points it
extrapolates, and it falls back to the plain step whenever the
extrapolated point does not reduce the fixed-point residual (`_split`).
The same splitting with no objective polishes the answer onto the
feasible set and draws random feasible points.

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
    splitting for at most `max_iters` map evaluations, rejected Anderson
    extrapolations included, stopping early once the primal and dual
    residuals drop below convergence_tol clipped to [5e-14, 1e-13]; the
    polish, the same splitting with no objective, stops likewise at
    [5e-15, 1e-14] or after 30 000 evaluations.  The lower ends sit just
    above the rounding level where the residuals stall, so a tighter
    convergence_tol does not run out the budgets.  The oracle raises
    NonConvergence when the returned operator's feasibility residual
    exceeds convergence_tol.  `dispatch` runs restart 0 alone first, and
    the other `restarts` only when the checker refuses that point.
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
    to the optimal success.  iterations is the number of map evaluations
    of the restarts' splittings, one spectral-box projection (an `eigh`)
    each, rejected extrapolations included; the polish's are not counted.
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
        # eigh reads one triangle, so e need be Hermitian only to rounding
        w, u = np.linalg.eigh(e)
        return (u * w.clip(0.0, 1.0)) @ dag(u)

    def project(self, e: np.ndarray, cycles: int = 500,
                tol: float = 1e-13) -> np.ndarray:
        """A feasible point reached from e by the splitting with no objective.

        Runs at most `cycles` map evaluations and stops once the primal and
        dual residuals drop below tol.  That point lies in the spectral box
        up to rounding, with the remaining residual in the affine
        constraint; e is returned instead when it is less infeasible
        (`residual`), so a feasible e comes back unchanged up to rounding.
        Otherwise the point is feasible but in general not nearest to e.
        """
        out = _split(self, e, np.zeros_like(e), cycles, tol)[0]
        return out if self._affine_residual(out) <= self.residual(e) else e

    def residual(self, e: np.ndarray) -> float:
        """Worst violation of any feasibility condition."""
        w = np.linalg.eigvalsh(hermitian_part(e))
        return max(-float(w.min()), float(w.max()) - 1.0,
                   self._affine_residual(e))

    def _affine_residual(self, e: np.ndarray) -> float:
        """`residual` of the affine constraints alone (no spectral box)."""
        cross = self.pair.gamma1 @ (np.eye(self.dim) - e) @ self.pair.gamma2
        kb = self.kernel_basis
        return max(float(np.linalg.norm(cross)),
                   float(np.abs(e @ kb - kb).max(initial=0.0)))

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


# Anderson memory of `_split`: the last _MEMORY points of the iteration.
_MEMORY = 10


def _split(feas: FeasibleSet, start, objective, iters, tol):
    """Douglas-Rachford splitting for min tr(E objective) on the feasible set.

    The splitting is the fixed-point iteration t <- T(t) on the input t of
    the spectral box, T(t) = t + P_A(2 P_B(t) - t - objective) - P_B(t),
    with P_B the box (`_clip_spectrum`) and P_A `project_affine`.  The
    boxed iterate is P_B(t), the scaled dual t - P_B(t), and a plain step
    t + g, with g = T(t) - t the affine minus the boxed iterate, is one
    iteration of the alternating scheme.  Once the history holds the
    _MEMORY points before the current one, each step is Anderson's
    extrapolation (type II, Walker & Ni 2011): the affine combination of
    the images T(t) of those points and the current one whose residuals g
    combine to the least norm, found from a small Gram system.  The
    safeguard (after SCS, Zhang, O'Donoghue & Boyd 2020) keeps the
    extrapolated point only when its |g| is below the current one, and
    that evaluation then serves as the next step's; otherwise the plain
    step is taken and the history starts again, so where extrapolation
    stalls it wastes one evaluation in every _MEMORY + 1.

    Starts from t = start and stops when the primal residual |g| and the
    dual residual |boxed - prev| are both below tol, prev being the last
    point's boxed iterate.  Returns the boxed iterate, the dual and the
    number of map evaluations, rejected extrapolations included; that
    number never exceeds iters.
    """
    shape = start.shape

    def image(x):
        """P_B(t) and g at the real view x of t."""
        t = x.view(complex).reshape(shape)
        boxed = feas._clip_spectrum(t)
        g = feas.project_affine(2 * boxed - t - objective) - boxed
        return boxed, g.reshape(-1).view(float)

    prev = hermitian_part(np.asarray(start, dtype=complex))
    x = prev.reshape(-1).view(float)
    boxed, g = image(x)
    res = g @ g
    used = 1
    # ring buffers of the last points' images x + g and residuals g
    images = np.empty((_MEMORY, x.size))
    residuals = np.empty_like(images)
    stored = 0
    while used < iters and (res >= tol * tol
                            or np.linalg.norm(boxed - prev) >= tol):
        plain = x + g
        y = plain
        if stored >= _MEMORY:
            dg = residuals - g
            gram = dg @ dg.T
            # a relative ridge; the 1e-300 keeps an all-zero Gram solvable
            gram.flat[::_MEMORY + 1] += 1e-10 * gram.trace() + 1e-300
            y = plain - np.linalg.solve(gram, dg @ g) @ (images - plain)
        y_boxed, y_g = image(y)
        used += 1
        y_res = y_g @ y_g
        if y is not plain and not y_res < res:
            stored = 0
            if used == iters:
                break
            y = plain
            y_boxed, y_g = image(y)
            used += 1
            y_res = y_g @ y_g
        images[stored % _MEMORY] = plain
        residuals[stored % _MEMORY] = g
        stored += 1
        prev, x, boxed, g, res = boxed, y, y_boxed, y_g, y_res
    return boxed, x.view(complex).reshape(shape) - boxed, used


def oracle_optimize(pair: WeightedDensityPair,
                    cfg: OracleConfig = OracleConfig()) -> OracleResult:
    """Maximize the success probability over valid inconclusive operators.

    Each restart runs the splitting from its own random start, takes the
    dual bound, and polishes the iterate onto the feasible set with
    `FeasibleSet.project`, the splitting again with no objective.  The
    reported success is the best over restarts, the bound the smallest;
    restart-to-restart spreads are returned for uniqueness probing.
    """
    return _extend(pair, cfg, None)


def _extend(pair: WeightedDensityPair, cfg: OracleConfig,
            first: OracleResult | None) -> OracleResult:
    """`oracle_optimize(pair, cfg)`.  `first`, when given, is the result of
    its restart 0 alone (cfg with one restart): only restarts 1 onwards run,
    and it is merged with them."""
    runs = ([] if first is None
            else [(first.e_q_opt, first.success, first.upper_bound)])
    iterations = 0 if first is None else first.iterations
    feas = FeasibleSet(pair)
    scale = max(float(np.linalg.norm(pair.total, 2)), 1e-300)
    objective = pair.total / scale
    for restart in range(len(runs), cfg.restarts):
        start = _random_start(pair.dim, cfg.seed * 1_000_003 + restart)
        boxed, dual, used = _split(
            feas, start, objective, cfg.max_iters,
            tol=float(np.clip(cfg.convergence_tol, 5e-14, 1e-13)))
        iterations += used
        bound = feas.success_bound(scale * (dual + objective))
        e = feas.project(boxed, cycles=30_000,
                         tol=float(np.clip(cfg.convergence_tol, 5e-15, 1e-14)))
        runs.append((e, feas.success(e), bound))
    # the first of the best, as restarts are numbered
    best, success, _ = max(runs, key=lambda run: run[1])
    residual = feas.residual(best)
    if residual > cfg.convergence_tol:
        raise NonConvergence(
            f"feasibility residual {residual:.3e} above tolerance "
            f"{cfg.convergence_tol:.1e} after {iterations} iterations")
    distances = tuple(
        float(np.linalg.norm(a[0] - b[0]))
        for a, b in combinations(runs, 2))
    return OracleResult(
        e_q_opt=best,
        success=success,
        upper_bound=min(run[2] for run in runs),
        per_restart_distances=distances,
        feasibility_residual=residual,
        iterations=iterations,
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

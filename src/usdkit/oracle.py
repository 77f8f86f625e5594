"""Independent numerical optimizer over USD measurements.

The variables are those of Eldar's semidefinite program for unambiguous
discrimination (IEEE Trans. Inf. Theory 49, 446, 2003): E_mu = D_mu Z_mu
D_mu^dag with Z_mu >= 0 on the pair's detector bases D_mu, and E_q = 1 -
E1 - E2, mapped out by the split's one map out of detector coordinates
(`JordanSplit.measurement`), which the analytic solvers use too.  Such a
triple is USD, sums to the identity and acts as the identity on the
common kernel by construction; E_q >= 0 is the one condition left.  A
slack S >= 0 carries it through one affine identity, a S + Q^dag (E1 +
E2) Q = 1, with Q an orthonormal basis of the span of both detector
spaces and a = _SLACK_WEIGHT.  The success, tr(Z1 D1^dag gamma1 D1) +
tr(Z2 D2^dag gamma2 D2), is linear, so each restart solves a
semidefinite program by Douglas-Rachford (ADMM) splitting: the exact
affine projection alternates with the projection onto the PSD blocks
while a scaled dual variable accumulates the constraint forces, and
safeguarded Anderson acceleration extrapolates from a short history of
its points (`_split`).  The same splitting with no objective polishes the
answer onto the feasible set and draws random feasible points.

Any Hermitian Y bounds the success (the dual of Eldar, Stojnic & Hassibi,
PRA 69, 062318, 2004).  With Y+ its positive part, sum_mu tr(Z_mu D_mu^dag
Y+ D_mu) = tr(Y+ (1 - a S)) <= tr Y+, and 0 <= Z_mu <= 1, so every USD
measurement has success <= tr Y+ + sum_mu tr(D_mu^dag (gamma_mu - Y+)
D_mu)_+.  The splitting's dual gives the Y that makes this tight.

This module deliberately knows nothing about optimal-measurement theory:
it shares only the pair's geometry with the analytic solvers and uses
only the feasibility conditions, so it can serve as an independent
reference for them.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NonConvergence
from .linalg import dag, hermitian_part
from .model import UsdMeasurement, WeightedDensityPair, success_probability

__all__ = [
    "OracleConfig", "OracleResult", "UniquenessReport", "FeasibleSet",
    "oracle_optimize", "uniqueness_probe", "random_feasible_inconclusive",
]

# a in the affine identity a S + Q^dag (E1 + E2) Q = 1, the slack's weight
_SLACK_WEIGHT = 0.5
# the objective splitting minimises -_STEP tr(Z G) / max_mu |G_mu|_2, with
# G_mu = D_mu^dag gamma_mu D_mu
_STEP = 4.0


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
    NonConvergence when the returned measurement's inconclusive element
    has an eigenvalue below -convergence_tol, its only possible
    infeasibility.  `dispatch` runs it only where neither a family nor
    the k x k program (`program._solve_program`) answers: restart 0
    alone first, the other `restarts` only when the checker refuses it.
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
    """Best USD measurement found, with diagnostics.

    upper_bound, the smallest of the restarts' dual bounds, holds for every
    USD measurement of the pair, converged or not.  feasibility_residual is
    the negated most negative eigenvalue of the inconclusive element, or 0;
    per_restart_distances are the Frobenius distances between the restarts'
    conclusive elements.  iterations counts the map evaluations of the
    restarts' splittings, one `eigh` each, rejected extrapolations
    included; the polish's are not counted.
    """

    measurement: UsdMeasurement
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


def _real_view(point: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of a point's entries, as one vector."""
    return np.ascontiguousarray(point, dtype=complex).reshape(-1).view(float)


class FeasibleSet:
    """The USD measurements of a pair, in the variables (Z1, Z2, S).

    With [D1 D2] = Q R, Q^dag (E1 + E2) Q = R Z R^dag for Z = diag(Z1, Z2),
    m x m like S.  A point is the stack (Z, S), and the box, the PSD cone
    of all three blocks, one batched `eigh` of it.  The affine projection
    of a point's real view x is x - W^T (W x - L^-1 b), W = L^-1 A, for the
    map A of a S + R Z R^dag = b on a basis of the Hermitian matrices: A A^T
    is at least a^2 times the basis' Gram matrix, so its Cholesky factor L
    exists.  It keeps what is not a Hermitian stack with Z block diagonal,
    which the splitting meets only as rounding.
    """

    def __init__(self, pair: WeightedDensityPair):
        self.pair = pair
        self._d = d = np.hstack([s.basis for s in pair.detector_spaces])
        # Q from one QR of both bases is orthonormal to rounding however
        # close the two detector spaces come
        self._q, self._r = q, r = np.linalg.qr(d)
        m = len(r)
        first = np.arange(m) < pair.detector_spaces[0].size
        # the entries of Z1 and Z2 in Z, and those of a point
        self._blocks = (np.outer(first, first), np.outer(~first, ~first))
        self._mask = np.stack((first[:, None] == first, np.ones((m, m), bool)))
        self.gain = self._diagonal(pair.gamma1, pair.gamma2)
        # a basis of the m x m Hermitian matrices: E_ij + E_ji for i <= j
        # and i (E_ij - E_ji) for i < j
        i, j = np.triu_indices(m)
        e = np.eye(m * m).reshape(m, m, m, m)[i, j]
        units = np.concatenate((e + e.swapaxes(1, 2),
                                1j * (e - e.swapaxes(1, 2))[i < j]))
        # row k, the adjoint image of unit k, gives the unit's part of
        # a S + R Z R^dag at a point as a dot product with its real view
        rows = _real_view(np.stack((dag(r) @ units @ r * self._mask[0],
                                    _SLACK_WEIGHT * units), axis=1))
        rows = rows.reshape(len(units), 4 * m * m)
        lower_inv = np.linalg.inv(np.linalg.cholesky(rows @ rows.T))
        self._rows = lower_inv @ rows
        self._target = lower_inv @ np.trace(units, axis1=1, axis2=2).real

    def _diagonal(self, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
        """diag(D1^dag a1 D1, D2^dag a2 D2)."""
        d = self._d
        return sum(dag(d) @ a @ d * block
                   for a, block in zip((a1, a2), self._blocks))

    def variables(self, m: UsdMeasurement) -> np.ndarray:
        """The point of a measurement: Z_mu = D_mu^dag E_mu D_mu and
        S = Q^dag E_q Q / a."""
        q = self._q
        return np.stack((self._diagonal(m.e1, m.e2),
                         dag(q) @ m.e_inconclusive @ q / _SLACK_WEIGHT))

    def measurement(self, point: np.ndarray) -> UsdMeasurement:
        """The measurement at the point: its blocks Z_mu mapped out by the
        split's one map, E_mu = D_mu Z_mu D_mu^dag and E_q = 1 - E1 - E2
        (`JordanSplit.measurement`)."""
        z, k1 = point[0], self.pair.detector_spaces[0].size
        return self.pair.jordan.measurement(z[:k1, :k1], z[k1:, k1:])

    def project_affine(self, x: np.ndarray) -> np.ndarray:
        """The affine projection of the point whose `_real_view` is x."""
        return x - (self._rows @ x - self._target) @ self._rows

    @staticmethod
    def _clip_spectrum(point: np.ndarray) -> np.ndarray:
        # eigh reads one triangle, so the blocks need be Hermitian only to
        # rounding
        w, u = np.linalg.eigh(point)
        return (u * np.maximum(w, 0.0)[:, None, :]) @ u.conj().swapaxes(1, 2)

    def project(self, point: np.ndarray, cycles: int = 500,
                tol: float = 1e-13) -> np.ndarray:
        """A feasible point reached by the splitting with no objective, in
        at most `cycles` map evaluations, stopping once the primal and dual
        residuals drop below tol.  It lies in the box up to rounding, so
        E_q >= -`residual` on the span of Q (E_q = a S - (a S + R Z R^dag -
        1) there).  A start that is less infeasible comes back instead."""
        out = _split(self, point, np.zeros_like(point), cycles, tol)[0]
        return out if self.residual(out) <= self.residual(point) else point

    def residual(self, point: np.ndarray) -> float:
        """Worst violation of a feasibility condition: the negated least
        eigenvalue of Z1, Z2 and S, or the norm of a S + R Z R^dag - 1."""
        z, s = point = point * self._mask
        affine = _SLACK_WEIGHT * s + self._r @ z @ dag(self._r) - np.eye(len(s))
        return max(-float(np.linalg.eigvalsh(point).min(initial=0.0)),
                   float(np.linalg.norm(affine)))

    def success_bound(self, y: np.ndarray) -> float:
        """The module docstring's bound at Y = Q y Q^dag: the blocks
        D_mu^dag (gamma_mu - Y+) D_mu are those of diag(G1, G2) - R^dag y+ R."""
        w, u = np.linalg.eigh(hermitian_part(y))
        w = np.maximum(w, 0.0)
        rest = self.gain - dag(self._r) @ ((u * w) @ dag(u)) @ self._r
        return float(w.sum() + np.maximum(np.linalg.eigvalsh(
            hermitian_part(rest * self._mask[0])), 0.0).sum())


def _random_start(feas: FeasibleSet, seed: int) -> np.ndarray:
    """Random Hermitian blocks Z1, Z2, S; deterministic in seed."""
    re, im = np.random.default_rng(seed).normal(size=(2,) + feas._mask.shape)
    g = re + 1j * im
    return (g + g.conj().swapaxes(1, 2)) * feas._mask / (4 * len(g[0]))


def random_feasible_inconclusive(pair: WeightedDensityPair, seed: int = 0,
                                 cycles: int = 60_000,
                                 tol: float = 1e-13) -> np.ndarray:
    """The inconclusive element of a random USD measurement.

    Draws random blocks (`_random_start`) and runs the splitting with no
    objective from them to a feasible point (`FeasibleSet.project`);
    deterministic in the seed.  Raises NonConvergence when the cycle cap
    leaves a point infeasible by more than pair.tol.equality, the bound
    `complete_measurement` applies.
    """
    feas = FeasibleSet(pair)
    point = feas.project(_random_start(feas, seed), cycles=cycles, tol=tol)
    if (residual := feas.residual(point)) > pair.tol.equality:
        raise NonConvergence(f"random draw infeasible by {residual:.3e}")
    return feas.measurement(point).e_inconclusive


# Anderson memory of `_split`: the last _MEMORY points of the iteration.
_MEMORY = 10


def _split(feas: FeasibleSet, start, objective, iters, tol):
    """Douglas-Rachford splitting for min tr(t objective) on the feasible set.

    The splitting is the fixed-point iteration t <- T(t) on the input t of
    the box, T(t) = t + P_A(2 P_B(t) - t - objective) - P_B(t), with P_B
    the box (`_clip_spectrum`) and P_A `project_affine`.  The boxed
    iterate is P_B(t), the scaled dual t - P_B(t), and a plain step t + g,
    with g = T(t) - t the affine minus the boxed iterate, is one iteration
    of the alternating scheme.  Once the history holds the _MEMORY points
    before the current one, each step is Anderson's extrapolation (type
    II, Walker & Ni 2011): the affine combination of the images T(t) of
    those points and the current one whose residuals g combine to the
    least norm, found from a small Gram system.  The safeguard (after SCS, Zhang, O'Donoghue & Boyd 2020)
    keeps the extrapolated point only when its |g| is below the current
    one, and that evaluation then serves as the next step's; otherwise the
    plain step is taken and the history starts again, so where
    extrapolation stalls it wastes one evaluation in every _MEMORY + 1.

    Starts from t = start and stops when the primal residual |g| and the
    dual residual |boxed - prev| are both below tol, prev being the last
    point's boxed iterate.  Returns the boxed iterate, the dual and the
    number of map evaluations, rejected extrapolations included; that
    number never exceeds iters.
    """
    shape = start.shape
    objective = _real_view(objective)

    def image(x):
        """P_B(t) and g at the real view x of t, both as real views."""
        b = _real_view(feas._clip_spectrum(x.view(complex).reshape(shape)))
        return b, feas.project_affine(2 * b - x - objective) - b

    prev = x = _real_view(start)
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
    boxed, dual = (v.view(complex).reshape(shape) for v in (boxed, x - boxed))
    return boxed, dual, used


def oracle_optimize(pair: WeightedDensityPair,
                    cfg: OracleConfig = OracleConfig()) -> OracleResult:
    """Maximize the success probability over USD measurements.

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
    runs = ([] if first is None else [(
        first.measurement, first.success, first.upper_bound,
        first.feasibility_residual)])
    iterations = 0 if first is None else first.iterations
    feas = FeasibleSet(pair)
    scale = max(float(np.linalg.norm(feas.gain, 2)), 1e-300) / _STEP
    objective = np.stack((-feas.gain / scale, np.zeros_like(feas.gain)))
    for restart in range(len(runs), cfg.restarts):
        start = _random_start(feas, cfg.seed * 1_000_003 + restart)
        boxed, dual, used = _split(
            feas, start, objective, cfg.max_iters,
            tol=float(np.clip(cfg.convergence_tol, 5e-14, 1e-13)))
        iterations += used
        bound = feas.success_bound(-scale / _SLACK_WEIGHT * dual[1])
        point = feas.project(
            boxed, cycles=30_000,
            tol=float(np.clip(cfg.convergence_tol, 5e-15, 1e-14)))
        m = feas.measurement(point)
        runs.append((m, success_probability(m, pair), bound, max(
            -float(np.linalg.eigvalsh(m.e_inconclusive)[0]), 0.0)))
    # the first of the best, as restarts are numbered
    best, success, _, residual = max(runs, key=lambda run: run[1])
    if residual > cfg.convergence_tol:
        raise NonConvergence(
            f"feasibility residual {residual:.3e} above tolerance "
            f"{cfg.convergence_tol:.1e} after {iterations} iterations")
    distances = tuple(
        float(np.linalg.norm([a[0].e1 - b[0].e1, a[0].e2 - b[0].e2]))
        for a, b in combinations(runs, 2))
    return OracleResult(
        measurement=best,
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
    largest pairwise distance between the converged conclusive elements
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

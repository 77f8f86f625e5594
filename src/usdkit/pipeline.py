"""Generic solve strategy, parameter sweeps and file formats.

The dispatcher follows the standard playbook: reduce the pair to its
strictly skew core, try the closed-form families, use the complete
four-dimensional solver when the core supports it, and otherwise solve
the core's k x k convex program (`program`); only where the checker
refuses that answer does it fall back to the numerical oracle (flagged as
best-known unless the checker certifies its point).  Sweeps evaluate the
dispatcher over a prior grid and report class labels together with the
single-state-detection lower bounds and the convexity ("bound triangle")
upper bound.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import linalg as la
from .errors import CertificateFailure, UsdKitError
from .linalg import hermitian_part
from .model import (MeasurementClassTag, UsdMeasurement, WeightedDensityPair,
                    _success, success_probability)
from .optimality import (SolverOutcome, build_certificate, check_optimality,
                         classify)
from .oracle import OracleConfig, _extend, oracle_optimize
from .program import _solve_program
from .reductions import ReductionRecord, lift_measurement, reduce_fully
from .solver4d import _FAMILIES, _first_closed_form, _solve_rows, solve_4d
from .tolerances import DEFAULT_TOL, ToleranceContext

__all__ = [
    "ProblemFile", "SweepRow", "BRANCH_TRIVIAL", "BRANCH_ORACLE",
    "dispatch", "sweep", "sweep_bounds", "load_problem", "save_problem",
    "load_measurement", "save_measurement", "rows_to_csv",
]

BRANCH_TRIVIAL = "trivial"
BRANCH_ORACLE = "oracle-best-known"
BRANCH_ORACLE_CERTIFIED = "oracle-checker"


# --------------------------------------------------------------------------
# dispatch
# --------------------------------------------------------------------------

def _trivial_outcome(record: ReductionRecord,
                     pair: WeightedDensityPair) -> SolverOutcome:
    """The lift of the measurement that answers nothing on an empty core:
    proper by construction, so the check does not test that."""
    d = pair.dim
    zero = np.zeros((d, d), dtype=complex)
    m = lift_measurement(UsdMeasurement(zero, zero, np.eye(d)), record)
    report = check_optimality(m, pair, require_proper=False)
    return SolverOutcome(
        measurement=m,
        class_tag=MeasurementClassTag(0, 0, True),
        success=success_probability(m, pair),
        report=report,
        branch=BRANCH_TRIVIAL,
    )


def _oracle_fallback(record: ReductionRecord, pair: WeightedDensityPair,
                     oracle_cfg: OracleConfig | None,
                     notes: tuple[str, ...]) -> SolverOutcome:
    """The oracle's answer on the reduced pair, lifted, for a core that
    neither a family nor the k x k program answers (`_solve_program`
    returned None): certified (`BRANCH_ORACLE_CERTIFIED`) when the checker
    accepts its point, else best known (`BRANCH_ORACLE`), and never with a
    certificate.  The oracle builds its point on the core's detector bases,
    so the measurement is proper and the check does not test that."""
    cfg = oracle_cfg if oracle_cfg is not None else OracleConfig(restarts=3)
    core = record.reduced_pair
    # The optimum is unique and the checker's conditions are necessary and
    # sufficient, so a certified first restart is the answer.  Only when
    # the checker refuses it do the other configured restarts run; restart
    # k's start depends on cfg.seed and k alone, so restart 0 is kept and
    # merged with them into the result of one call with cfg.  A first run
    # that raises leaves nothing to keep, and all restarts run.
    result = report = None
    try:
        result = oracle_optimize(core, replace(cfg, restarts=1))
    except UsdKitError:
        if cfg.restarts == 1:
            raise
    else:
        report = check_optimality(result.measurement, core,
                                  require_proper=False)
    if cfg.restarts > 1 and (report is None or not report.is_optimal):
        result = _extend(core, cfg, result)
        report = check_optimality(result.measurement, core,
                                  require_proper=False)
    m = lift_measurement(result.measurement, record)
    certified = report.is_optimal
    return SolverOutcome(
        measurement=m,
        class_tag=classify(result.measurement, core),
        success=success_probability(m, pair),
        report=report,
        branch=BRANCH_ORACLE_CERTIFIED if certified else BRANCH_ORACLE,
        warnings=notes + (() if certified else (
            "no analytic branch applied; success is the oracle's best known "
            "value and the checker did not certify it",)),
    )


def dispatch(pair: WeightedDensityPair,
             oracle_cfg: OracleConfig | None = None,
             with_certificate: bool = True) -> SolverOutcome:
    """Solve an arbitrary two-state instance end to end.

    Reduces first.  A core that is 4-dim with two rank-2 states goes to the
    four-dimensional solver, which tries the closed forms itself; any
    other core gets the closed forms.  A core no family answers (the
    four-dimensional solver finds none or raises) gets its k x k convex
    program (`program._solve_program`), branch "convex-program", checked
    like a family's answer.  The oracle is the last resort, where the
    check refuses the program's answer, its Newton solve runs out its
    steps or meets a singular matrix: it runs one restart on the reduced
    pair, and the `oracle_cfg` restarts (3 when none is given) only when
    the checker refuses that point or the first run raises.  The outcome's
    class tag always refers to the strictly skew core measurement; the
    measurement itself and the optimality report refer to the original
    pair.

    Each answer is checked once, where it is accepted: on the reduced pair,
    in the caller's space, by the family or the program
    (`optimality.accepted_outcome`) or by the oracle's gate; `dispatch`
    makes no other copy of the pair.  That check is the returned report; it
    equals the check of the lifted measurement on the pair passed in,
    because the residuals do not change under the lift (`OptimalityReport`),
    and the reduced pair is strictly skew by construction (`reduce_fully`).
    That holds next to a reduction cutoff too, where the record's
    `boundary_warnings` stay notes on the outcome.  Only when the checker
    refuses the oracle's first restart is the extended run checked once
    more.  At most one certificate is built, on the reduced pair in the
    caller's space, only with `with_certificate`, and it takes the returned
    report instead of checking again; `solve_4d` itself returns none.
    """
    record = reduce_fully(pair)
    notes = tuple(record.boundary_warnings)
    core = record.reduced_pair
    core_support = core.collective_support().size
    if core_support == 0:
        return _trivial_outcome(record, pair)

    core_outcome: SolverOutcome | None = None
    if core_support == 4:  # strictly skew, so both ranks are 2
        try:
            core_outcome = solve_4d(core)
        except UsdKitError as exc:
            notes = notes + (f"four-dimensional solver failed: {exc}",)
    else:
        core_outcome = _first_closed_form(core)
    if core_outcome is None:
        core_outcome = _solve_program(core)
    if core_outcome is None:
        return _oracle_fallback(record, pair, oracle_cfg, notes)

    m = core_outcome.measurement
    if core is not pair:
        m = lift_measurement(m, record)
    report = core_outcome.report
    certificate = None
    if with_certificate and report.is_optimal:
        try:
            certificate = build_certificate(m, pair, report=report)
        except CertificateFailure as exc:
            notes = notes + (f"certificate construction failed: {exc}",)
    return SolverOutcome(
        measurement=m,
        class_tag=core_outcome.class_tag,
        success=success_probability(m, pair),
        report=report,
        branch=core_outcome.branch,
        certificate=certificate,
        boundary=core_outcome.boundary,
        warnings=notes + core_outcome.warnings,
    )


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One solved prior in a sweep."""

    p1: float
    success_probability: float
    class_tag: tuple[int, int]
    branch: str
    lower_bound: float
    upper_bound: float


def sweep_bounds(rho1: np.ndarray, rho2: np.ndarray,
                 tol: ToleranceContext = DEFAULT_TOL):
    """Prior-independent bound data; returns bounds(p1) -> (lower, upper).

    The lower bound is the best single-state-detection success (a valid
    measurement for every prior).  The upper bound is the chord joining
    the priors where single state detection stops being optimal, which
    dominates the success probability by convexity; outside that prior
    range it coincides with the lower bound.
    """
    return _bounds(WeightedDensityPair.from_states(rho1, rho2, 0.5, tol))


def _bounds(probe: WeightedDensityPair):
    """`sweep_bounds` from the states' pair at p1 = 0.5, which halves them."""
    record = reduce_fully(probe)
    xi, states = record.xi, (2 * probe.gamma1, 2 * probe.gamma2)
    core1, core2 = (xi @ rho @ xi for rho in states)
    off1, off2 = (float(np.real(np.trace(s @ rho)))
                  for s, rho in zip((record.sigma1, record.sigma2), states))
    # the reduced pair is (core1, core2) weighted by 0.5 each: it holds
    # their detector projectors and root blocks.  An empty core has no
    # detector and lambda1 = lambda2 = 0, so both bounds are the offset
    reduced = record.reduced_pair
    gain1, gain2 = (float(np.real(np.trace(det @ core))) for det, core
                    in zip(reduced.detectors, (core1, core2)))
    lam1, lam2 = (max(root.detection_eigenvalue(), 0.0)
                  for root in reduced.root_blocks)
    p_lo = lam1 / (1 + lam1)
    p_hi = 1.0 / (1 + lam2)

    def lower(p1: float) -> float:
        offset = p1 * off1 + (1 - p1) * off2
        return max((1 - p1) * gain2, p1 * gain1) + offset

    lo_val, hi_val = lower(p_lo), lower(p_hi)

    def bounds(p1: float):
        low = lower(p1)
        if p_lo < p1 < p_hi and p_hi > p_lo:
            t = (p1 - p_lo) / (p_hi - p_lo)
            return low, (1 - t) * lo_val + t * hi_val
        return low, low

    return bounds


def sweep(rho1: np.ndarray, rho2: np.ndarray, p1_grid,
          tol: ToleranceContext = DEFAULT_TOL) -> list[SweepRow]:
    """Solve every prior on the grid: most of them as one stack, the rest
    with `dispatch`.

    A prior outside (0, 1) raises ValueError before anything is solved.
    The prior only weights the two states, and the pair that
    `WeightedDensityPair.from_states(rho1, rho2, p1)` builds holds the
    states' split at every prior: their supports, kernels, detector spaces
    and reduction projectors.  So the states are tested and split once, in
    the pair at p1 = 0.5, and so is its reduction, and a state that fails
    a test raises before anything is solved.  Each prior's pair is that
    pair reweighted by (2 p1, 2 (1 - p1)); every prior whose pair passes
    its total-trace test is one row of a stack (`_stacked_answers`).

    Where the reduced pair at 0.5 is not empty, the stack is solved as
    `dispatch` solves one core (`solver4d._solve_rows`): single state
    detection and the fidelity form on any core, and on a (4;2,2) core
    every family of `solve_4d`, each once over all rows, in order, with
    one stacked check; a row whose first passing family is off a class
    boundary takes that family's answer.  Every other prior runs a fresh
    `dispatch` on `from_states(rho1, rho2, p1)`: priors on a class
    boundary, priors where the check refuses every family (the k x k
    program's, or the oracle's where the check refuses that too),
    priors whose class-12 host basis would not be phased as the core's,
    priors whose pair fails its total-trace test (`from_states` raises
    there), and every prior of an empty core.  So every row is the answer
    `dispatch` gives on the pair built afresh, up to rounding on stacked
    rows and exactly on the others.  A row keeps no measurement, so no
    certificate is built.
    """
    grid = [float(p1) for p1 in p1_grid]
    if not all(0.0 < p1 < 1.0 for p1 in grid):
        raise ValueError("p1 must lie strictly between 0 and 1")
    base = WeightedDensityPair.from_states(rho1, rho2, 0.5, tol)
    bounds = _bounds(base)
    answers = _stacked_answers(base, rho1, rho2, np.array(grid))
    rows = []
    for p1, answer in zip(grid, answers):
        if answer is None:
            outcome = dispatch(WeightedDensityPair.from_states(
                rho1, rho2, p1, tol), with_certificate=False)
            answer = (outcome.success, (outcome.class_tag.e1_rank,
                                        outcome.class_tag.e2_rank),
                      outcome.branch)
        rows.append(SweepRow(p1, *answer, *bounds(p1)))
    return rows


def _stacked_answers(base: WeightedDensityPair, rho1: np.ndarray,
                     rho2: np.ndarray, grid: np.ndarray):
    """(success, class tag, branch) of each prior of the grid that `sweep`
    solves as one stack; None for every other prior.  base is the pair of
    the states rho1, rho2 at p1 = 0.5, whose split every prior's pair
    holds.  The rows are the priors whose pairs pass the total-trace
    test, with the states (p1 rho1, (1 - p1) rho2) stacked as (n, d, d)
    exactly as `WeightedDensityPair.from_states` builds them.  Every
    non-empty core stacks its closed forms, a (4;2,2) core its candidate
    classes too (`solver4d._solve_rows`)."""
    answers = [None] * len(grid)
    record = base.reduction
    core = record.reduced_pair
    if core.collective_support().size == 0:
        return answers
    w = grid[:, None, None]
    gamma1 = hermitian_part(w * np.asarray(rho1, dtype=complex))
    gamma2 = hermitian_part((1.0 - w) * np.asarray(rho2, dtype=complex))
    total = np.real(np.trace(gamma1 + gamma2, axis1=1, axis2=2))
    priors = np.flatnonzero(total <= 1.0 + base.tol.equality)
    gamma1, gamma2 = gamma1[priors], gamma2[priors]
    core1, core2 = gamma1, gamma2
    if core is not base:  # the reduced pairs, as `reduce_fully` builds them
        proj1, proj2 = core.jordan.support_projectors
        core1, core2 = (hermitian_part(p @ g @ p)
                        for p, g in ((proj1, gamma1), (proj2, gamma2)))
    p1 = grid[priors]
    for family, rows, m, tag, _ in _solve_rows(
            core, 2.0 * p1, 2.0 * (1.0 - p1), core1, core2):
        success = _success(lift_measurement(m, record), gamma1[rows],
                           gamma2[rows])
        for i, value, e1_rank, e2_rank in zip(
                priors[rows].tolist(), success.tolist(),
                tag.e1_rank.tolist(), tag.e2_rank.tolist()):
            answers[i] = (value, (e1_rank, e2_rank), _FAMILIES[family][0])
    return answers


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Fixed-format CSV with 17 significant digits and LF line endings."""
    lines = ["p1,success,class_e1,class_e2,branch,lower_bound,upper_bound"]
    for r in rows:
        lines.append(
            f"{r.p1:.17g},{r.success_probability:.17g},{r.class_tag[0]},"
            f"{r.class_tag[1]},{r.branch},{r.lower_bound:.17g},"
            f"{r.upper_bound:.17g}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# file formats
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemFile:
    """Parsed problem description: two unit-trace states and optionally p1."""

    dim: int
    rho1: np.ndarray
    rho2: np.ndarray
    p1: float | None = None

    def pair(self, p1: float | None = None,
             tol: ToleranceContext = DEFAULT_TOL) -> WeightedDensityPair:
        prior = p1 if p1 is not None else self.p1
        if prior is None:
            raise ValueError("no prior probability given (set p1)")
        return WeightedDensityPair.from_states(self.rho1, self.rho2, prior, tol)


def _is_number(value) -> bool:
    """A JSON number: bool is a subclass of int, but not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _matrix_from_json(obj, dim: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ValueError(f"{where}: expected {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"{where}: row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(_is_number(v) for v in entry)):
                raise ValueError(
                    f"{where}: entry ({i},{j}) must be a [re, im] pair")
            out[i, j] = complex(entry[0], entry[1])
    return out


def _matrix_to_json(a: np.ndarray):
    return [[[float(np.real(v)), float(np.imag(v))] for v in row]
            for row in np.asarray(a)]


def _validate_state(rho: np.ndarray, tol: ToleranceContext, where: str):
    if not la.is_hermitian(rho, tol):
        raise ValueError(f"{where}: matrix is not Hermitian within tolerance")
    if not la.is_psd(rho, tol):
        raise ValueError(f"{where}: matrix is not positive semi-definite")
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > max(tol.equality, 1e-9):
        raise ValueError(f"{where}: trace {tr} differs from 1")


def load_problem(path, tol: ToleranceContext = DEFAULT_TOL) -> ProblemFile:
    """Parse and validate a problem JSON file."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("problem file must contain a JSON object")
    try:
        dim = data["dim"]
    except KeyError:
        raise ValueError("problem file: missing field 'dim'") from None
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError("problem file: dim must be a JSON integer")
    if dim <= 0:
        raise ValueError("problem file: dim must be positive")
    rho1 = _matrix_from_json(data.get("rho1"), dim, "rho1")
    rho2 = _matrix_from_json(data.get("rho2"), dim, "rho2")
    _validate_state(rho1, tol, "rho1")
    _validate_state(rho2, tol, "rho2")
    p1 = data.get("p1")
    if p1 is not None:
        if not _is_number(p1):
            raise ValueError("problem file: p1 must be a JSON number")
        p1 = float(p1)
        if not 0.0 < p1 < 1.0:
            raise ValueError("problem file: p1 must lie strictly in (0, 1)")
    return ProblemFile(dim, rho1, rho2, p1)


def _format_matrix(a: np.ndarray, indent: str) -> str:
    rows = [indent + " " + json.dumps(row, separators=(",", ":"))
            for row in _matrix_to_json(a)]
    return "[\n" + ",\n".join(rows) + "\n" + indent + "]"


def save_problem(path, problem: ProblemFile) -> None:
    parts = [f'  "dim": {problem.dim}',
             f'  "rho1": {_format_matrix(problem.rho1, "  ")}',
             f'  "rho2": {_format_matrix(problem.rho2, "  ")}']
    if problem.p1 is not None:
        parts.append(f'  "p1": {json.dumps(problem.p1)}')
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("{\n" + ",\n".join(parts) + "\n}\n")


def load_measurement(path, dim: int) -> UsdMeasurement:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("measurement file must contain a JSON object")
    elements = []
    for name in ("e1", "e2", "e_inconclusive"):
        if name not in data:
            raise ValueError(f"measurement file: missing field '{name}'")
        elements.append(_matrix_from_json(data[name], dim, name))
    return UsdMeasurement(*elements)


def save_measurement(path, m: UsdMeasurement) -> None:
    parts = [f'  "{name}": {_format_matrix(matrix, "  ")}'
             for name, matrix in (("e1", m.e1), ("e2", m.e2),
                                  ("e_inconclusive", m.e_inconclusive))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("{\n" + ",\n".join(parts) + "\n}\n")

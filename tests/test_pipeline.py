import json
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from usdkit import (NonConvergence, NotPSD, OracleConfig, check_optimality,
                    UsdMeasurement, UsdNumericsWarning, WeightedDensityPair,
                    classify, dispatch, lift_measurement, oracle_optimize,
                    reduce_fully, solve_4d, success_probability)
from usdkit import linalg as la
from usdkit import model, oracle, pipeline
from usdkit.cli import main
from usdkit.pipeline import (ProblemFile, load_measurement, load_problem,
                             rows_to_csv, save_measurement, save_problem,
                             sweep, sweep_bounds)

from util import (REDUCED_SHAPES, assert_same_answer,
                  degenerate_host_states, example1_states, examples2_states,
                  generic_pair, haar_unitary, jordan_cosine_states,
                  peres_states, random_direction, record_decompositions,
                  with_eigenvalue_tails)

DATA = Path(__file__).parent / "data"
IDP = 1 - 1 / np.sqrt(2)


# ------------------------------------------------------------- dispatch

def test_dispatch_peres_embedded():
    rho1, rho2 = peres_states(dim=3)
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.5)
    outcome = dispatch(pair)
    assert outcome.optimal
    assert outcome.branch == "fidelity-form"
    assert outcome.success == pytest.approx(IDP, abs=1e-10)
    assert outcome.certificate is not None


def test_dispatch_example1_uses_4d_solver():
    rho1, rho2 = example1_states()
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.5)
    outcome = dispatch(pair)
    assert outcome.optimal
    assert outcome.branch in ("class-12", "class-11")
    assert outcome.certificate is not None


def test_dispatch_identical_states_trivial():
    rho = np.diag([0.6, 0.4]).astype(complex)
    pair = WeightedDensityPair.from_states(rho, rho, 0.5)
    outcome = dispatch(pair)
    assert outcome.branch == "trivial"
    assert outcome.success == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(outcome.measurement.e_inconclusive, np.eye(2),
                               atol=1e-12)


def _assert_dispatch_matches_solve_4d(pair):
    """dispatch agrees with solve_4d on the reduced core; returns the branch."""
    from usdkit import reduce_fully, solve_4d

    outcome = dispatch(pair)
    assert outcome.optimal
    # success splits into the free offset plus the core optimum
    rec = reduce_fully(pair)
    core_outcome = solve_4d(rec.reduced_pair)
    assert outcome.success == pytest.approx(
        core_outcome.success + rec.lifted_offset, abs=1e-12)
    assert outcome.class_tag == core_outcome.class_tag
    assert outcome.branch == core_outcome.branch
    return outcome


def test_dispatch_composite_six_dim(rng):
    from util import random_skew_pair
    from usdkit.linalg import dag

    skew = random_skew_pair(rng)
    g1 = np.zeros((6, 6), dtype=complex)
    g2 = np.zeros((6, 6), dtype=complex)
    g1[:4, :4] = 0.7 * skew.gamma1
    g2[:4, :4] = 0.7 * skew.gamma2
    g1[4, 4] = 0.2
    g2[5, 5] = 0.1
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    pair = WeightedDensityPair(6, q @ g1 @ dag(q), q @ g2 @ dag(q))
    outcome = _assert_dispatch_matches_solve_4d(pair)
    assert outcome.success == pytest.approx(
        success_probability(outcome.measurement, pair), abs=1e-12)


@pytest.mark.parametrize("dim, rank2", [(4, 2), (5, 3)])
def test_dispatch_matches_solve_4d_in_every_branch(dim, rank2):
    # (4;2,2) pairs are their own core; (5;2,3) pairs reduce to a (4;2,2)
    # core.  The seed gives priors in all four branches of the solver.
    from util import random_density

    rng = np.random.default_rng(1)
    branches = set()
    for trial in range(3):
        rho1 = random_density(rng, dim, 2)
        rho2 = random_density(rng, dim, rank2)
        for p1 in np.linspace(0.05, 0.95, 19):
            pair = WeightedDensityPair.from_states(rho1, rho2, float(p1))
            branches.add(_assert_dispatch_matches_solve_4d(pair).branch)
    assert branches == {"single-state-detection", "fidelity-form",
                        "class-12", "class-11"}


def _count_calls(monkeypatch, *functions):
    """Count calls of each function at every usdkit module that holds it."""
    counts = Counter()
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "usdkit"
                    and getattr(module, fn.__name__, None) is fn):
                monkeypatch.setattr(module, fn.__name__, counted)
    return counts


def test_dispatch_runs_each_stage_once(monkeypatch):
    from usdkit.closed_form import (try_fidelity_form,
                                    try_single_state_detection)
    from usdkit.optimality import (build_certificate, check_optimality,
                                   classify)
    from usdkit.solver4d import solve_4d

    counts = _count_calls(monkeypatch, try_single_state_detection,
                          try_fidelity_form, solve_4d, build_certificate,
                          check_optimality, classify)
    rho1, rho2 = example1_states()
    outcome = dispatch(WeightedDensityPair.from_states(rho1, rho2, 0.5))
    assert outcome.certificate is not None
    for name in ("try_single_state_detection", "try_fidelity_form",
                 "solve_4d"):
        assert counts[name] <= 1, name
    assert counts["build_certificate"] == 1
    # one check, on the pair itself (the reduction removes nothing here);
    # the certificate takes that report
    assert counts["check_optimality"] == 1
    assert counts["classify"] <= 1
    # a (5;2,3) pair reduces to a (2,2) core: the core's check is the
    # lifted measurement's report, with no second check on the pair
    counts.clear()
    pair = WeightedDensityPair.from_states(
        *generic_pair(np.random.default_rng([5, 2, 3]), 5, 2, 3), 0.5)
    assert reduce_fully(pair).reduced_pair is not pair
    outcome = dispatch(pair)
    assert outcome.optimal and outcome.certificate is not None
    assert counts["solve_4d"] == 1
    assert counts["check_optimality"] == 1
    assert counts["classify"] <= 1
    # a reduction whose Jordan cosines lie within 10x of their cutoffs
    # carries boundary_warnings, and the core's check is still the report
    counts.clear()
    pair = WeightedDensityPair.from_states(
        *_near_cutoff_states(1e-9, 1e-10), 0.5)
    assert reduce_fully(pair).boundary_warnings
    outcome = dispatch(pair, oracle_cfg=_NEAR_CUTOFF_ORACLE)
    assert outcome.optimal
    assert counts["check_optimality"] == 1
    counts.clear()
    rows = sweep(rho1, rho2, np.linspace(0.05, 0.95, 7))
    assert len(rows) == 7
    assert counts["build_certificate"] == 0


# Priors inside class-transition ties, where two families pass their checks
# and `solve_4d` keeps the one with the smaller total residual.  Bisecting
# example1's class-12 <-> class-11 transitions and examples2's single state
# detection -> fidelity form transition lands on them.  The class-12
# answers tagged (1, 2) or (2, 1) keep a singular value close to the rank
# cutoff; the ones tagged (1, 1) are not of their family's class; the
# single-state-detection answer at the examples2 tie loses to the fidelity
# form.
TIE_PRIORS = (
    (example1_states, 0.3091481307148933, "class-12", (1, 2, False)),
    (example1_states, 0.3091481308033689, "class-12", (1, 1, True)),
    (example1_states, 0.49805963240563866, "class-12", (2, 1, False)),
    (example1_states, 0.49805963234044615, "class-12", (1, 1, True)),
    (examples2_states, 0.32352941185235967, "fidelity-form", (2, 2, False)),
)


@pytest.mark.parametrize("states, p1, branch, tag", TIE_PRIORS)
def test_class_transition_tie_keeps_the_smaller_residual(states, p1, branch,
                                                         tag):
    outcome = dispatch(WeightedDensityPair.from_states(*states(), p1))
    assert outcome.optimal
    assert outcome.branch == branch
    assert (outcome.class_tag.e1_rank, outcome.class_tag.e2_rank,
            outcome.class_tag.is_von_neumann) == tag
    assert outcome.boundary
    assert (f"2 families passed verification (class boundary); kept {branch}"
            " by smaller residual") in outcome.warnings


def test_solve_4d_stops_at_the_first_accepted_family(monkeypatch):
    from usdkit import solver4d

    counts = _count_calls(monkeypatch, solver4d.enumerate_candidates_11,
                          solver4d.try_fidelity_form)
    rho1, rho2 = example1_states()
    # a class-12 prior away from any transition: class 11 is not enumerated
    outcome = dispatch(WeightedDensityPair.from_states(rho1, rho2, 0.7))
    assert outcome.branch == "class-12" and not outcome.boundary
    assert counts["enumerate_candidates_11"] == 0
    # single state detection passes: the fidelity form is not tried
    counts.clear()
    outcome = dispatch(WeightedDensityPair.from_states(rho1, rho2, 0.01))
    assert outcome.branch == "single-state-detection"
    assert counts["try_fidelity_form"] == 0
    # on a class boundary every family runs
    for states, p1, _, _ in (TIE_PRIORS[0], TIE_PRIORS[-1]):
        counts.clear()
        outcome = dispatch(WeightedDensityPair.from_states(*states(), p1))
        assert outcome.boundary
        assert counts["try_fidelity_form"] == 1
        assert counts["enumerate_candidates_11"] == (
            1 if outcome.branch == "class-12" else 0)


def _reduced_pair():
    # the pair of test_certificate_for_reduced_pair: a shared support
    # direction and a free detector part reduce away
    g1 = np.diag([0.2, 0.25, 0.0, 0.0]).astype(complex)
    plus = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    e3 = np.array([0, 0, 0, 1], dtype=complex)
    g2 = 0.25 * np.outer(plus, plus.conj()) + 0.2 * np.outer(e3, e3.conj())
    return WeightedDensityPair(4, g1, g2)


RESIDUALS = ("residual_a1", "residual_a2", "residual_cross", "residual_b",
             "residual_antihermitian")
VERDICTS = ("cond_a1", "cond_a2", "cond_cross", "cond_b")


def _assert_report_is_a_fresh_check(outcome, pair):
    from usdkit.optimality import check_optimality

    fresh = check_optimality(outcome.measurement, pair)
    for name in RESIDUALS:
        assert getattr(outcome.report, name) == pytest.approx(
            getattr(fresh, name), abs=1e-12), name
    for name in VERDICTS:
        assert getattr(outcome.report, name) == getattr(fresh, name), name


def test_dispatch_report_is_the_check_of_its_measurement():
    # the report is the check the family ran on the core; whether the
    # reduction removed nothing or something (then the measurement is
    # lifted, with no second check), it is that of the returned
    # measurement on the original pair
    rho1, rho2 = generic_pair(np.random.default_rng([31, 4]), 4, 2, 2)
    skew = WeightedDensityPair.from_states(rho1, rho2, 0.4)
    assert reduce_fully(skew).reduced_pair is skew
    reduced = [_reduced_pair()] + [
        WeightedDensityPair.from_states(
            *generic_pair(np.random.default_rng(shape), *shape), 0.4)
        for shape in REDUCED_SHAPES]
    for pair in [skew] + reduced:
        record = reduce_fully(pair)
        if pair is not skew:
            assert record.reduced_pair is not pair
            assert not record.boundary_warnings
        outcome = dispatch(pair)
        assert outcome.optimal and outcome.certificate is not None
        _assert_report_is_a_fresh_check(outcome, pair)


def _near_cutoff_states(ortho, par):
    """States on C^8 whose supports have one Jordan cosine `ortho` and one
    1 - `par`, beside a generic (4;2,2) block, in a random basis."""
    from usdkit.linalg import dag

    core1, core2 = generic_pair(np.random.default_rng([41, 0]), 4, 2, 2)
    basis = np.eye(8)
    near_orthogonal = ortho * basis[4] + np.sqrt(1 - ortho ** 2) * basis[5]
    near_parallel = ((1 - par) * basis[6]
                     + np.sqrt(1 - (1 - par) ** 2) * basis[7])
    rho1 = np.zeros((8, 8), dtype=complex)
    rho2 = np.zeros((8, 8), dtype=complex)
    rho1[:4, :4], rho2[:4, :4] = 0.6 * core1, 0.6 * core2
    rho1 += (0.25 * np.outer(basis[4], basis[4])
             + 0.15 * np.outer(basis[6], basis[6]))
    rho2 += (0.15 * np.outer(near_orthogonal, near_orthogonal)
             + 0.25 * np.outer(near_parallel, near_parallel))
    rng = np.random.default_rng([42, 0])
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    return q @ rho1 @ dag(q), q @ rho2 @ dag(q)


# (1e-9, 1e-9) is left out: both cosines of the states' split land just
# past their cutoffs (1 - c and c are about 1.0000001e-9 to 1.0000004e-9)
# at every prior, so the reduction removes nothing there;
# test_strictly_skew_near_cutoff_pairs_are_certified_by_the_oracle takes
# those pairs instead
_NEAR_CUTOFF_OFFSETS = [(o, p) for o in (1e-11, 1e-10, 1e-9)
                        for p in (1e-11, 1e-10, 1e-9)
                        if (o, p) != (1e-9, 1e-9)] + [
    (3e-11, 3e-11), (2e-10, 2e-10), (8e-10, 8e-10)]
_NEAR_CUTOFF_ORACLE = OracleConfig(restarts=1, max_iters=2000)


@pytest.mark.parametrize("ortho, par, p1", [
    (ortho, par, p1)
    for ortho, par in _NEAR_CUTOFF_OFFSETS for p1 in (0.2, 0.4, 0.5, 0.8)])
def test_near_cutoff_reductions_report_a_fresh_check(ortho, par, p1):
    # the reduction removes both near-cutoff directions; the returned
    # report, the core's check kept through the lift, must still be the
    # check of the returned measurement on the pair.
    # A small oracle budget keeps the uncertified fallbacks cheap.
    rho1, rho2 = _near_cutoff_states(ortho, par)
    pair = WeightedDensityPair.from_states(rho1, rho2, p1)
    outcome = dispatch(pair, oracle_cfg=_NEAR_CUTOFF_ORACLE)
    assert reduce_fully(pair).reduced_pair is not pair
    _assert_report_is_a_fresh_check(outcome, pair)


@pytest.mark.parametrize("p1", [
    pytest.param(0.2, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=(
            "the k x k program stalls far from the optimum (the check "
            "refuses its point, residual_b 1.5e-3), and the splitting "
            "stalls on the near-parallel Jordan pair (1 - c = "
            "1.0000003048e-9): the gap stays at 5e-10 up to 20 000 "
            "evaluations, and at the 2000-evaluation cap the check on the "
            "pair refuses the point (residual_a2 -1.26e-10 against the "
            "floor of -1e-10)"))),
    0.4, 0.5, 0.8])
def test_strictly_skew_near_cutoff_pairs_are_certified_by_the_oracle(p1):
    # the (1e-9, 1e-9) states: both cosines of the states' split lie just
    # past their cutoffs, at every prior, so the whole 8-dim pair is the
    # core and reaches the k x k program, and the oracle where the check
    # refuses the program's point (at 0.2, 0.4 and 0.8).
    # Either measurement is built on the Jordan or detector bases, whose
    # near-parallel pair is 1e-9 from the cutoff, with no completion, and
    # it is certified on the pair itself
    rho1, rho2 = _near_cutoff_states(1e-9, 1e-9)
    pair = WeightedDensityPair.from_states(rho1, rho2, p1)
    assert pair.strictly_skew and reduce_fully(pair).reduced_pair is pair
    outcome = dispatch(pair, oracle_cfg=_NEAR_CUTOFF_ORACLE)
    assert outcome.branch in ("oracle-checker", "convex-program")
    assert outcome.optimal
    _assert_report_is_a_fresh_check(outcome, pair)


def test_unwarned_near_cutoff_reduction_keeps_the_core_report():
    # 1 - c rounds to 9.99998973e-11, just below the boundary-warning zone:
    # the reduction calls that pair parallel and the other one orthogonal,
    # and the reduced pair, built from the same classification, is strictly
    # skew.  The lifted answer keeps the core's report with no second
    # check, and that report is a fresh check on the pair.
    rho1, rho2 = _near_cutoff_states(1e-11, 1e-10)
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.4)
    record = reduce_fully(pair)
    assert not record.boundary_warnings
    assert (pair.jordan.n_parallel, pair.jordan.n_skew) == (1, 2)
    assert record.reduced_pair.strictly_skew
    outcome = dispatch(pair, oracle_cfg=_NEAR_CUTOFF_ORACLE)
    assert outcome.branch == "class-12" and outcome.certificate is not None
    _assert_report_is_a_fresh_check(outcome, pair)


_GRID_OFFSETS = (1e-12, 1e-11, 1e-10, 5e-10, 1e-9, 2e-9, 1e-8, 1e-7, 1e-6,
                 1e-5, 1e-4, 1e-3)


@pytest.mark.parametrize("p1", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_reduced_pairs_are_strictly_skew_by_construction(p1):
    # the pair's verdict and the reduction read one Jordan classification:
    # the reduction removes something exactly when the pair is not
    # strictly skew, and what it leaves is strictly skew, on a grid that
    # crosses both cosine cutoffs and the rank cutoff's reach
    for ortho in _GRID_OFFSETS:
        for par in _GRID_OFFSETS:
            pair = WeightedDensityPair.from_states(
                *_near_cutoff_states(ortho, par), p1)
            reduced = reduce_fully(pair).reduced_pair
            assert pair.strictly_skew == (reduced is pair), (ortho, par)
            assert reduced.strictly_skew, (ortho, par)


def _transition_states(family):
    if family == "examples2":
        return examples2_states()
    return generic_pair(np.random.default_rng([0, 5, 2, 3]), 5, 2, 3)


@pytest.mark.parametrize("family, lo, hi", [
    ("examples2", 0.47, 0.49),
    ("5;2,3", 0.48, 0.49),
])
def test_class_transition_bisection_stays_analytic(family, lo, hi):
    # bisecting the change from the fidelity form to class 12 down to 1e-13
    # meets only those two families: just outside its window the fidelity
    # form refuses (its inconclusive element does not complete) instead of
    # raising, and class 12 answers.  The (5;2,3) pair reduces to a (2,2)
    # core, so its answers are lifted.
    rho1, rho2 = _transition_states(family)

    def solve(p1):
        return dispatch(WeightedDensityPair.from_states(rho1, rho2, p1))

    ends = [solve(lo).branch, solve(hi).branch]
    assert set(ends) == {"fidelity-form", "class-12"}
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        outcome = solve(mid)
        assert outcome.branch in ends and outcome.optimal, mid
        if outcome.branch == ends[0]:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("family, p1", [
    ("examples2", 0.47839405),
    ("5;2,3", 0.36212344885),
    ("5;2,3", 0.48665989786),
])
def test_class_transition_priors_solve_as_class_12(family, p1):
    # priors just past the fidelity window, where its inconclusive element
    # does not complete: the fidelity form refuses and class 12 answers,
    # certified, with the success of the oracle's answer
    pair = WeightedDensityPair.from_states(*_transition_states(family), p1)
    outcome = dispatch(pair)
    assert outcome.branch == "class-12"
    assert outcome.optimal and outcome.certificate is not None
    _assert_report_is_a_fresh_check(outcome, pair)
    record = reduce_fully(pair)
    lifted = lift_measurement(oracle_optimize(
        record.reduced_pair, OracleConfig(restarts=1)).measurement, record)
    assert outcome.success == pytest.approx(
        success_probability(lifted, pair), abs=1e-9)


def test_dispatch_with_parallel_component(rng):
    # five-dim pair: a skew 4-dim core plus one shared support direction;
    # the parallel reduction strips it and the lifted answer matches the
    # oracle on the unreduced problem
    from util import random_skew_pair
    from usdkit.linalg import dag
    from usdkit.oracle import OracleConfig, oracle_optimize

    skew = random_skew_pair(rng)
    g1 = np.zeros((5, 5), dtype=complex)
    g2 = np.zeros((5, 5), dtype=complex)
    g1[:4, :4] = 0.6 * skew.gamma1
    g2[:4, :4] = 0.6 * skew.gamma2
    g1[4, 4] = 0.2
    g2[4, 4] = 0.1
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    pair = WeightedDensityPair(5, q @ g1 @ dag(q), q @ g2 @ dag(q))
    outcome = dispatch(pair)
    assert outcome.optimal
    reference = oracle_optimize(pair, OracleConfig(seed=77))
    assert outcome.success == pytest.approx(reference.success, abs=1e-6)
    # nothing is gained on the shared direction
    shared = q @ np.eye(5)[:, 4:]
    np.testing.assert_allclose(outcome.measurement.e_inconclusive @ shared,
                               shared, atol=1e-8)


def test_dispatch_notes_nothing_on_a_core_larger_than_four():
    # a core larger than four dimensions is the program's, certified like
    # a (4;2,2) core's answer, with no note: the strictly skew rank-(3,3)
    # pair on C^6
    outcome = dispatch(load_problem(DATA / "skew6.json").pair(0.5))
    assert outcome.branch == "convex-program"
    assert outcome.optimal and outcome.certificate is not None
    assert outcome.warnings == ()
    rho1, rho2 = example1_states()
    outcome = dispatch(WeightedDensityPair.from_states(rho1, rho2, 0.5))
    assert outcome.optimal


def test_dispatch_oracle_fallback_six_dim_skew(rng):
    # strictly skew rank-3 pair: no analytic family covers it, the k x k
    # program or the oracle fallback (with the checker certifying) takes
    # over
    from util import random_density

    while True:
        rho1 = random_density(rng, 6, 3)
        rho2 = random_density(rng, 6, 3)
        pair = WeightedDensityPair.from_states(rho1, rho2, 0.45)
        if pair.strictly_skew:
            break
    outcome = dispatch(pair)
    assert outcome.branch in ("convex-program", "oracle-checker",
                              "oracle-best-known", "single-state-detection",
                              "fidelity-form")
    if outcome.branch.startswith("oracle"):
        assert outcome.report is not None
        # oracle fallback on a generic instance still verifies
        assert outcome.optimal == outcome.report.is_optimal


def _c7_pair(rng):
    """Rank-(3,3) states in C^7: a common kernel and a 6-dim skew core."""
    from util import random_density

    rho1 = random_density(rng, 7, 3)
    rho2 = random_density(rng, 7, 3)
    return WeightedDensityPair.from_states(rho1, rho2, 0.45)


def _refuse_program(monkeypatch):
    """Make the k x k program refuse every core, so that dispatch reaches
    the oracle."""
    monkeypatch.setattr(pipeline, "_solve_program", lambda core: None)


def _spy_oracle(monkeypatch):
    """Record the cfg of each oracle call dispatch makes."""
    real = pipeline.oracle_optimize
    calls = []

    def spy(pair, cfg):
        calls.append(cfg)
        return real(pair, cfg)

    monkeypatch.setattr(pipeline, "oracle_optimize", spy)
    return calls


def _spy_objective_splittings(monkeypatch):
    """Count the oracle's splittings with an objective, one per restart
    (the polish runs with none)."""
    real = oracle._split
    runs = []

    def split(feas, start, objective, iters, tol):
        if objective.any():
            runs.append(iters)
        return real(feas, start, objective, iters, tol)

    monkeypatch.setattr(oracle, "_split", split)
    return runs


def _refuse(monkeypatch):
    # the checker refuses the first point it is shown
    real = pipeline.check_optimality

    def refuse_once(m, pair, **kwargs):
        monkeypatch.setattr(pipeline, "check_optimality", real)
        return replace(real(m, pair, **kwargs), cond_b=False)

    monkeypatch.setattr(pipeline, "check_optimality", refuse_once)


def _not_converged(monkeypatch):
    # restart 0 alone runs, then raises
    run = pipeline.oracle_optimize

    def raise_after_one(pair, cfg):
        result = run(pair, cfg)
        if cfg.restarts == 1:
            raise NonConvergence("forced")
        return result

    monkeypatch.setattr(pipeline, "oracle_optimize", raise_after_one)


def test_oracle_fallback_runs_on_the_reduced_pair(rng, monkeypatch):
    # a rank-(3,3) pair in C^7 is strictly skew with a common kernel; with
    # the k x k program refusing it, the oracle runs once, one restart, on
    # the pair itself, and dispatch builds no other pair.  The answer
    # matches a three-restart run
    pair = _c7_pair(rng)
    assert pair.strictly_skew and pair.common_kernel().size == 1
    _refuse_program(monkeypatch)
    real = pipeline.oracle_optimize
    problems = []

    def spy(problem, cfg):
        problems.append((problem, cfg.restarts))
        return real(problem, cfg)

    monkeypatch.setattr(pipeline, "oracle_optimize", spy)
    built = []
    post_init = WeightedDensityPair.__post_init__
    monkeypatch.setattr(WeightedDensityPair, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    outcome = dispatch(pair)
    assert [(p is pair, r) for p, r in problems] == [(True, 1)]
    assert built == []
    assert outcome.branch == "oracle-checker"
    full = real(pair, OracleConfig(restarts=3))
    assert outcome.success == pytest.approx(full.success, abs=1e-9)
    assert outcome.class_tag == classify(full.measurement, pair)


@pytest.mark.parametrize("first_run", [_refuse, _not_converged])
def test_oracle_fallback_runs_the_configured_restarts_on_refusal(
        first_run, rng, monkeypatch):
    # with the k x k program refusing the pair, a first point the checker
    # refuses, or a first run that raises, sends dispatch to the default
    # three restarts, whose answer it returns.  A refused restart 0 is
    # kept, so only restarts 1 and 2 run again; a first run that raises
    # leaves nothing to keep
    from usdkit.oracle import oracle_optimize

    pair = _c7_pair(rng)
    _refuse_program(monkeypatch)
    calls = _spy_oracle(monkeypatch)
    first_run(monkeypatch)
    splittings = _spy_objective_splittings(monkeypatch)
    outcome = dispatch(pair)
    assert [cfg.restarts for cfg in calls] == [1]
    assert len(splittings) == (4 if first_run is _not_converged else 3)
    assert outcome.branch == "oracle-checker" and outcome.optimal
    expected = oracle_optimize(pair, OracleConfig(restarts=3)).measurement
    for name in ("e1", "e2", "e_inconclusive"):
        np.testing.assert_allclose(getattr(outcome.measurement, name),
                                   getattr(expected, name), rtol=0, atol=1e-12)


def test_oracle_fallback_with_one_restart_runs_once(rng, monkeypatch):
    pair = _c7_pair(rng)
    _refuse_program(monkeypatch)
    calls = _spy_oracle(monkeypatch)
    _refuse(monkeypatch)
    splittings = _spy_objective_splittings(monkeypatch)
    outcome = dispatch(pair, oracle_cfg=OracleConfig(restarts=1))
    assert [cfg.restarts for cfg in calls] == [1]
    assert len(splittings) == 1
    assert outcome.branch == "oracle-best-known" and not outcome.optimal


def _embedded(rho1, rho2, seed):
    """The states padded with zeros to one more dimension and conjugated by
    a Haar-random unitary, so that their pair has a common kernel."""
    u = haar_unitary(np.random.default_rng([seed, 5]), len(rho1) + 1)
    return [u @ np.pad(rho, (0, 1)) @ u.conj().T for rho in (rho1, rho2)]


def test_every_checked_measurement_is_proper(rng, monkeypatch):
    # dispatch checks its own measurements without testing properness:
    # every branch builds its conclusive elements inside the detector
    # spaces.  Pinned on pairs with a common kernel, where is_proper has
    # something to test, on every branch and on every pair checked
    from usdkit import is_proper

    seen = []

    def spy(m, pair, **kwargs):
        seen.append((m, pair))
        return check_optimality(m, pair, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "usdkit"
                and getattr(module, "check_optimality", None)
                is check_optimality):
            monkeypatch.setattr(module, "check_optimality", spy)
    rho = np.diag([0.6, 0.4]).astype(complex)
    pairs = [WeightedDensityPair.from_states(*_embedded(rho, rho, 0), 0.5)]
    for seed, states in enumerate((example1_states, examples2_states), 1):
        rho1, rho2 = _embedded(*states(), seed)
        pairs += [WeightedDensityPair.from_states(rho1, rho2, p1)
                  for p1 in np.linspace(0.05, 0.95, 10)]
    pairs.append(_c7_pair(rng))
    outcomes = [dispatch(pair, with_certificate=False) for pair in pairs]
    _refuse_program(monkeypatch)
    outcomes.append(dispatch(pairs[-1], with_certificate=False))
    assert {o.branch for o in outcomes} == {
        "trivial", "single-state-detection", "fidelity-form", "class-12",
        "class-11", "convex-program", "oracle-checker"}
    for pair, outcome in zip(pairs + pairs[-1:], outcomes):
        assert is_proper(outcome.measurement, pair), outcome.branch
    assert len(seen) >= len(outcomes)
    for m, pair in seen:
        assert pair.common_kernel().size == 1
        assert is_proper(m, pair)


# ------------------------------------------------------------- sweeps

def test_sweep_pure_states_three_regions():
    rho1, rho2 = peres_states(dim=2)
    rows = sweep(rho1, rho2, np.linspace(0.01, 0.99, 99))
    kinds = [r.class_tag for r in rows]
    # exactly three contiguous regions: (0,1), (1,1), (1,0)
    compressed = [k for i, k in enumerate(kinds) if i == 0 or k != kinds[i - 1]]
    assert compressed == [(0, 1), (1, 1), (1, 0)]
    for r in rows:
        assert r.lower_bound - 1e-12 <= r.success_probability <= r.upper_bound + 1e-9


def test_sweep_convexity_and_bounds_example1():
    rho1, rho2 = example1_states()
    grid = np.linspace(0.005, 0.995, 25)
    rows = sweep(rho1, rho2, grid)
    values = np.array([r.success_probability for r in rows])
    second = values[:-2] - 2 * values[1:-1] + values[2:]
    assert np.all(second >= -1e-6)
    for r in rows:
        assert r.lower_bound - 1e-12 <= r.success_probability
        assert r.success_probability <= r.upper_bound + 1e-9
    assert rows[0].class_tag == (0, 2)
    assert rows[-1].class_tag == (2, 0)


def test_sweep_examples2_detection_then_fidelity():
    rho1, rho2 = examples2_states()
    grid = np.linspace(0.005, 0.995, 25)
    rows = sweep(rho1, rho2, grid)
    branches = [r.branch for r in rows]
    compressed = [b for i, b in enumerate(branches)
                  if i == 0 or b != branches[i - 1]]
    assert compressed[0] == "single-state-detection"
    assert compressed[1] == "fidelity-form"


GRID = np.linspace(0.01, 0.99, 99)


def _sweep_states(family):
    """The states of a sweep family; "<family>@<seed>" conjugates them by
    a Haar-random unitary drawn from the seed."""
    if "@" in family:
        family, seed = family.split("@")
        rho1, rho2 = _sweep_states(family)
        u = haar_unitary(np.random.default_rng([int(seed), 99]), len(rho1))
        return u @ rho1 @ u.conj().T, u @ rho2 @ u.conj().T
    if family == "example1":
        return example1_states()
    if family == "examples2":
        return examples2_states()
    if family == "peres":
        return peres_states(dim=3)
    if family == "degenerate-host":
        return degenerate_host_states()
    if family == "pure":
        return generic_pair(np.random.default_rng(0), 2, 1, 1)
    if family in ("skew6", "near_cutoff4"):
        problem = load_problem(DATA / f"{family}.json")
        return problem.rho1, problem.rho2
    d, r1, r2 = (int(n) for n in family.replace(";", ",").split(","))
    return generic_pair(np.random.default_rng([d, r1, r2]), d, r1, r2)


@pytest.mark.parametrize("family", ["example1", "examples2", "peres", "pure",
                                    "3;1,2", "4;2,2", "5;2,3", "5;3,3",
                                    "skew6", "4;2,2@1", "4;2,2@2", "5;2,3@1",
                                    "5;2,3@2", "degenerate-host"])
@pytest.mark.filterwarnings("ignore::usdkit.errors.UsdNumericsWarning")
def test_sweep_matches_fresh_dispatch(family):
    # sweep shares one pair's geometry across its priors; each row must be
    # the answer dispatch gives on the pair built afresh at that prior.
    # The degenerate-host pair takes the g23 = 0 branch of class-12 in the
    # stack, and its basis-vector rank-(1,1) candidates where both cross
    # elements are zero; its sweep still flags the discarded family
    rho1, rho2 = _sweep_states(family)
    grid = np.linspace(0.1, 0.9, 9) if family == "skew6" else GRID
    with (pytest.warns(UsdNumericsWarning) if family == "degenerate-host"
          else nullcontext()):
        rows = sweep(rho1, rho2, grid)
    for row in rows:
        fresh = dispatch(WeightedDensityPair.from_states(rho1, rho2, row.p1),
                         with_certificate=False)
        assert_same_answer(row, fresh)
    if family == "skew6":
        # the (6;3,3) pair reaches the k x k program at every prior but
        # p1 = 0.9
        assert [r.branch for r in rows] == ["convex-program"] * 8 + [
            "single-state-detection"]


def test_analytic_answers_need_no_compressed_copy(monkeypatch):
    # solve_4d and build_certificate work in the pair's own space: the one
    # pair dispatch builds is the reduced pair, and none when the pair is
    # strictly skew
    built = []
    post_init = WeightedDensityPair.__post_init__
    pairs = [WeightedDensityPair.from_states(*generic_pair(
        np.random.default_rng([d, r1, r2]), d, r1, r2), 0.5)
        for d, r1, r2 in ((4, 2, 2), (5, 2, 3), (3, 1, 2))]
    pairs.append(WeightedDensityPair.from_states(*peres_states(dim=3), 0.5))
    monkeypatch.setattr(WeightedDensityPair, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    for pair in pairs:
        built.clear()
        outcome = dispatch(pair)
        assert outcome.optimal and outcome.certificate is not None
        reduced = reduce_fully(pair).reduced_pair
        assert [b is reduced for b in built] == (
            [] if reduced is pair else [True])
    assert solve_4d(reduce_fully(pairs[1]).reduced_pair).optimal


class _ReachedOracle(Exception):
    pass


def _outcome(solve):
    try:
        return solve()
    except Exception as exc:  # compared by type below
        return exc


@pytest.mark.parametrize("tail", [1e-9, 1e-10, 3e-11, 1e-11, 1e-12])
def test_sweep_matches_fresh_dispatch_near_rank_cutoff(tail, monkeypatch):
    # (4;2,2) states whose kernels carry eigenvalues near the rank cutoffs,
    # the relative one and rank_atol, which apply to the states.  The two
    # paths must agree, or fail alike, up to the hand-off to the oracle.
    # A prior the stack leaves runs dispatch on the pair built afresh, so
    # past the hand-off the two are one call; on these pairs the oracle
    # does not converge, and the stub keeps the test short.
    def reached_oracle(*args, **kwargs):
        raise _ReachedOracle

    monkeypatch.setattr(pipeline, "oracle_optimize", reached_oracle)
    base1, base2 = generic_pair(np.random.default_rng([77, 1]), 4, 2, 2)
    rho1 = with_eigenvalue_tails(base1, tail)
    rho2 = with_eigenvalue_tails(base2, tail)
    for p1 in GRID:
        shared = _outcome(lambda: sweep(rho1, rho2, [p1])[0])
        fresh = _outcome(lambda: dispatch(
            WeightedDensityPair.from_states(rho1, rho2, p1),
            with_certificate=False))
        if isinstance(shared, Exception) or isinstance(fresh, Exception):
            assert type(shared) is type(fresh), p1
        else:
            assert_same_answer(shared, fresh)


def test_sweep_matches_fresh_dispatch_across_the_near_cutoff4_grid():
    # the states' kernel eigenvalues lie between rank_atol and the relative
    # rank cutoff, and every prior holds the states' split; the rows cross
    # single state detection, class-12 and class-11, none reaches the
    # oracle, and every row is the answer of a fresh dispatch
    problem = load_problem(DATA / "near_cutoff4.json")
    rows = sweep(problem.rho1, problem.rho2, GRID)
    assert {r.branch for r in rows} == {"single-state-detection", "class-12",
                                        "class-11"}
    for row in rows:
        assert_same_answer(row, dispatch(problem.pair(row.p1),
                                         with_certificate=False))


def test_sweep_runs_fewer_solver_calls_than_fresh_dispatches(monkeypatch):
    # example1's grid runs single state detection, class-12, class-11,
    # class-12 and single state detection again, all in one stack: the
    # per-pair closed forms, the class-12 enumeration and the check run
    # less often than in fresh dispatches (here not at all)
    from usdkit.closed_form import (try_fidelity_form,
                                    try_single_state_detection)
    from usdkit.optimality import check_optimality
    from usdkit.solver4d import enumerate_candidates_12

    rho1, rho2 = example1_states()
    counts = _count_calls(monkeypatch, try_single_state_detection,
                          try_fidelity_form, enumerate_candidates_12,
                          check_optimality)
    rows = sweep(rho1, rho2, GRID)
    swept = Counter(counts)
    counts.clear()
    for p1 in GRID:
        dispatch(WeightedDensityPair.from_states(rho1, rho2, p1),
                 with_certificate=False)
    for name in ("try_single_state_detection", "try_fidelity_form",
                 "enumerate_candidates_12"):
        assert swept[name] < counts[name], name
    changes = sum(a.branch != b.branch for a, b in zip(rows, rows[1:]))
    assert changes == 4
    assert swept["check_optimality"] <= len(rows) + changes


def test_sweep_dispatches_only_the_priors_the_stack_leaves(monkeypatch):
    # the stack holds every family, so on a (4;2,2) core whose split every
    # prior holds, dispatch runs at most for the priors whose fresh answer
    # sits on a class boundary: none of example1's and one of examples2's.
    # Every other non-empty core stacks its closed forms: the pure pairs'
    # priors dispatch none, and skew6's only those the k x k program
    # answers.
    # near_cutoff4's states carry kernel eigenvalues between rank_atol and
    # the relative rank cutoff; every prior holds their split, and the
    # stack answers all of them.  The degenerate-host pair's priors with
    # both rank-(1,1) cross elements zero settle through the stacked
    # basis-vector candidates
    real = pipeline.dispatch
    calls = []
    monkeypatch.setattr(pipeline, "dispatch", lambda *args, **kwargs:
                        calls.append(args[0].gamma1)
                        or real(*args, **kwargs))
    for family, on_boundary in (("example1", 0), ("examples2", 1)):
        calls.clear()
        rho1, rho2 = _sweep_states(family)
        sweep(rho1, rho2, GRID)
        fresh = [real(WeightedDensityPair.from_states(rho1, rho2, p1),
                      with_certificate=False) for p1 in GRID]
        assert sum(f.boundary for f in fresh) == on_boundary, family
        assert len(calls) <= on_boundary, family
    for family in ("peres", "pure", "3;1,2", "near_cutoff4",
                   "degenerate-host"):
        calls.clear()
        with (pytest.warns(UsdNumericsWarning)
              if family == "degenerate-host" else nullcontext()):
            sweep(*_sweep_states(family), GRID)
        assert calls == [], family
    calls.clear()
    rho1, rho2 = _sweep_states("skew6")
    grid = np.linspace(0.1, 0.9, 9)
    sweep(rho1, rho2, grid)
    program_priors = [p1 for p1 in grid if real(
        WeightedDensityPair.from_states(rho1, rho2, p1),
        with_certificate=False).branch == "convex-program"]
    assert len(program_priors) == 8
    np.testing.assert_allclose([np.trace(g).real for g in calls],
                               program_priors, rtol=1e-12)


@pytest.mark.parametrize("family", ["skew6", "examples2"])
def test_dispatched_sweep_rows_are_the_fresh_answer_bit_for_bit(
        family, monkeypatch):
    # a prior the stack leaves runs dispatch on the pair from_states builds
    # at it, so its row is that answer exactly: skew6's program rows and
    # examples2's class-boundary row at p1 = 0.01
    left = []
    real = pipeline._stacked_answers

    def spy(*args):
        answers = real(*args)
        left.extend(i for i, answer in enumerate(answers) if answer is None)
        return answers

    monkeypatch.setattr(pipeline, "_stacked_answers", spy)
    rho1, rho2 = _sweep_states(family)
    grid = np.linspace(0.1, 0.9, 9) if family == "skew6" else GRID
    rows = sweep(rho1, rho2, grid)
    for i in left:
        fresh = dispatch(WeightedDensityPair.from_states(rho1, rho2, grid[i]),
                         with_certificate=False)
        assert rows[i].success_probability == fresh.success, grid[i]
        assert rows[i].branch == fresh.branch, grid[i]
        assert rows[i].class_tag == (fresh.class_tag.e1_rank,
                                     fresh.class_tag.e2_rank), grid[i]
    assert len(left) == (8 if family == "skew6" else 1)


@pytest.mark.parametrize("family", ["example1", "examples2", "4;2,2",
                                    "5;2,3"])
def test_sweep_mirrors_under_the_state_swap(family):
    # swapping the states and the priors swaps e1 and e2: every row keeps
    # its branch and success and swaps its class tag, through both
    # class-12 hosts and the stacked class-11 rows alike
    rho1, rho2 = _sweep_states(family)
    rows = sweep(rho1, rho2, GRID)
    for row, mirror in zip(rows, sweep(rho2, rho1, 1.0 - GRID)):
        assert mirror.branch == row.branch, row.p1
        assert mirror.class_tag == row.class_tag[::-1], row.p1
        assert mirror.success_probability == pytest.approx(
            row.success_probability, abs=1e-12), row.p1


@pytest.mark.parametrize("family", ["example1", "examples2", "4;2,2",
                                    "5;2,3"])
def test_stacked_rows_hold_the_check_of_their_pair(family, monkeypatch):
    # every stacked row carries the residuals and class tag of its
    # measurement on the pair `from_states` builds at its prior: the check
    # and the classification of the reduced pair, where dispatch takes them
    from usdkit.model import _at
    from usdkit.solver4d import _FAMILIES

    parts = []
    real = pipeline._solve_rows

    def spy(core, c1, c2, gamma1, gamma2):
        found = real(core, c1, c2, gamma1, gamma2)
        parts.extend((c1 / 2, part) for part in found)
        return found

    monkeypatch.setattr(pipeline, "_solve_rows", spy)
    rho1, rho2 = _sweep_states(family)
    sweep(rho1, rho2, GRID)
    assert sum(len(part[1]) for _, part in parts) >= 45
    if family == "example1":
        assert sum(len(rows) for _, (i, rows, *_) in parts
                   if _FAMILIES[i][0] == "class-11") >= 19
    for p1s, (_, rows, m, tag, report) in parts:
        for j, row in enumerate(rows):
            core = WeightedDensityPair.from_states(
                rho1, rho2, p1s[row]).reduction.reduced_pair
            m_row = UsdMeasurement(*(e[j] for e in m.elements()))
            fresh, stacked = check_optimality(m_row, core), _at(report, j)
            assert stacked.is_optimal and fresh.is_optimal
            for name in ("residual_a1", "residual_a2", "residual_cross",
                         "residual_b", "residual_antihermitian"):
                assert getattr(stacked, name) == pytest.approx(
                    getattr(fresh, name), abs=1e-15), (p1s[row], name)
            assert _at(tag, j) == classify(m_row, core), p1s[row]


def _oracle_fallback_states():
    """The benchmark's rank-(3,3) pair on C^6 of index 2 in its
    oracle-fallback workload, drawn as `perfbench/instances.py` draws it
    (pool seed 20080311, family 206); the k x k program answers it."""
    return generic_pair(np.random.default_rng([20080311, 206, 2]), 6, 3, 3)


@pytest.mark.parametrize("states, bounds", [
    (example1_states, {"eigh": 2, "eigvalsh": 8, "svd": 2}),
    (_oracle_fallback_states, {"eigh": 14, "eigvalsh": 9, "svd": 2}),
], ids=["example1", "oracle-fallback-6"])
def test_dispatch_decomposition_counts(states, bounds, monkeypatch):
    # upper bounds on the dense decompositions of one dispatch, with its
    # certificate, at p1 = 0.5: the split, the check, the classification
    # and the certificate decompose each operator once
    pair = WeightedDensityPair.from_states(*states(), 0.5)
    calls = record_decompositions(monkeypatch, tuple(bounds))
    outcome = dispatch(pair)
    assert outcome.optimal and outcome.certificate is not None
    counts = Counter(name for name, _ in calls)
    assert all(counts[name] <= bound for name, bound in bounds.items()), \
        counts


def test_sweep_tests_the_states_once(monkeypatch):
    # a state at -0.4e-10 passes the PSD test: the only tests are the two
    # on the states, which every prior's pair holds
    rho1, rho2 = example1_states()
    rho1 = with_eigenvalue_tails(rho1, [-0.4e-10, 0.0])
    tested = []
    state_spectrum = model._state_spectrum
    monkeypatch.setattr(model, "_state_spectrum", lambda a, tol, name: (
        tested.append(a) or state_spectrum(a, tol, name)))
    assert len(sweep(rho1, rho2, GRID)) == len(GRID)
    assert len(tested) == 2
    for a, b in zip(tested, (rho1, rho2)):
        np.testing.assert_array_equal(a, la.hermitian_part(b))


def test_sweep_tests_a_state_where_scaling_proves_nothing(monkeypatch):
    # at -1.5e-10 the state fails the PSD test, below the 1e-10 floor: a
    # state that fails, fails at every prior, and the sweep raises before
    # it solves anything
    rho1, rho2 = example1_states()
    rho1 = with_eigenvalue_tails(rho1, [-1.5e-10, 0.0])
    for p1 in (0.01, 0.66):
        with pytest.raises(NotPSD):
            WeightedDensityPair.from_states(rho1, rho2, p1)
    solved = []
    for name in ("dispatch", "_solve_rows"):
        monkeypatch.setattr(pipeline, name, lambda *args, **kwargs:
                            solved.append(args))
    with pytest.raises(NotPSD):
        sweep(rho1, rho2, GRID[:66])
    assert solved == []


@pytest.mark.parametrize("grid", [[0.5, 1.0], [0.0], [0.3, -0.2]])
def test_sweep_rejects_a_prior_outside_the_open_interval(grid):
    rho1, rho2 = example1_states()
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        sweep(rho1, rho2, grid)


def test_sweep_rejects_a_bad_grid_before_solving(monkeypatch):
    solved = []
    for name in ("dispatch", "_solve_rows"):
        monkeypatch.setattr(pipeline, name, lambda *args, **kwargs:
                            solved.append(args))
    rho1, rho2 = example1_states()
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        sweep(rho1, rho2, [0.3, 0.4, 1.0])
    assert solved == []


def _near_cutoff4_states():
    """A (4;2,2) pair whose kernels carry eigenvalue tails of about 3e-11,
    between the relative rank cutoff and rank_atol."""
    base1, base2 = generic_pair(np.random.default_rng([77, 1]), 4, 2, 2)
    u = np.random.default_rng([78, 1]).random(4)
    return (with_eigenvalue_tails(base1, 3e-11 * (1 + u[:2])),
            with_eigenvalue_tails(base2, 3e-11 * (1 + u[2:])))


def test_near_cutoff_pair_falls_back_to_a_measurement():
    # solve_4d runs its families on the pair itself, with the rank
    # decisions the pair took once; no rotated copy re-decides them, and
    # the instance solves analytically, certified.  0.2763545690059208 is
    # its answer with the tails dropped
    rho1, rho2 = _near_cutoff4_states()
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.08)
    outcome = dispatch(pair, oracle_cfg=OracleConfig(restarts=1, max_iters=200))
    assert outcome.branch == "class-12"
    assert outcome.optimal and outcome.certificate is not None
    assert outcome.success == pytest.approx(0.2763545690059208, abs=1e-9)
    low, up = sweep_bounds(rho1, rho2)(0.08)
    assert low - 1e-12 <= outcome.success <= up + 1e-9


def test_sweep_bounds_triangle_shape():
    rho1, rho2 = example1_states()
    bounds = sweep_bounds(rho1, rho2)
    low_mid, up_mid = bounds(0.5)
    assert up_mid > low_mid  # strict gap inside the triangle
    low_edge, up_edge = bounds(0.001)
    assert up_edge == pytest.approx(low_edge)  # coincide outside


# ------------------------------------------------------------- files

def test_problem_round_trip(tmp_path):
    problem = load_problem(DATA / "example1.json")
    out = tmp_path / "copy.json"
    save_problem(out, problem)
    again = load_problem(out)
    assert np.array_equal(problem.rho1, again.rho1)
    assert np.array_equal(problem.rho2, again.rho2)
    assert (out.read_text(encoding="utf-8")
            == Path(DATA / "example1.json").read_text(encoding="utf-8"))


def test_problem_validation_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "rho1": [[[1.0,0.0],[0.0,0.0]],'
                   '[[0.0,0.0],[1.0,0.0]]], "rho2": [[[0.5,0.0],[0.0,0.1]],'
                   '[[0.0,-0.1],[0.5,0.0]]]}')
    with pytest.raises(ValueError, match="rho1.*trace|trace.*rho1"):
        load_problem(bad)
    bad.write_text('{"dim": 2, "rho1": [[1.0]]}')
    with pytest.raises(ValueError, match="rho1"):
        load_problem(bad)
    bad.write_text('{"rho1": []}')
    with pytest.raises(ValueError, match="dim"):
        load_problem(bad)
    # JSON types are taken as written: no truncation, parsing or bools
    one = [[[1.0, 0.0]]]
    for problem, field in (({"dim": 1.9, "rho1": one, "rho2": one}, "dim"),
                           ({"dim": "1", "rho1": one, "rho2": one}, "dim"),
                           ({"dim": True, "rho1": one, "rho2": one}, "dim"),
                           ({"dim": 1, "rho1": one, "rho2": one, "p1": "0.5"},
                            "p1"),
                           ({"dim": 1, "rho1": one, "rho2": one, "p1": True},
                            "p1"),
                           ({"dim": 1, "rho1": [[[True, False]]], "rho2": one},
                            "rho1")):
        bad.write_text(json.dumps(problem))
        with pytest.raises(ValueError, match=field):
            load_problem(bad)


def test_measurement_round_trip(tmp_path):
    rho1, rho2 = peres_states(dim=3)
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.5)
    outcome = dispatch(pair)
    path = tmp_path / "m.json"
    save_measurement(path, outcome.measurement)
    loaded = load_measurement(path, 3)
    np.testing.assert_array_equal(loaded.e1, outcome.measurement.e1)


def test_csv_format():
    rho1, rho2 = peres_states(dim=2)
    rows = sweep(rho1, rho2, [0.25, 0.5])
    text = rows_to_csv(rows)
    lines = text.split("\n")
    assert lines[0] == "p1,success,class_e1,class_e2,branch,lower_bound,upper_bound"
    assert lines[1].startswith("0.25,")
    assert text.endswith("\n") and "\r" not in text
    # 17 significant digits survive a parse round trip
    assert float(lines[2].split(",")[1]) == rows[1].success_probability


# ------------------------------------------------------------- CLI

def test_cli_solve_peres(capsys):
    code = main(["solve", str(DATA / "peres.json"), "--p1", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.292893" in out


def test_cli_solve_csv(capsys):
    code = main(["solve", str(DATA / "example1.json"), "--p1", "0.3",
                 "--csv"])
    lines = capsys.readouterr().out.split("\n")
    assert code == 0
    assert lines[0] == "p1,success,class_e1,class_e2,branch"
    assert lines[2:] == [""]
    rho1, rho2 = example1_states()
    fresh = dispatch(WeightedDensityPair.from_states(rho1, rho2, 0.3))
    p1, success, e1, e2, branch = lines[1].split(",")
    assert float(p1) == 0.3
    assert float(success) == fresh.success
    assert (int(e1), int(e2)) == (fresh.class_tag.e1_rank,
                                  fresh.class_tag.e2_rank)
    assert branch == fresh.branch


def test_peres_optimum_is_the_dispatched_measurement(capsys):
    # tests/data/peres_optimum.json holds dispatch's answer on peres.json at
    # p1 = 0.5, written by save_measurement; verify certifies it
    problem = load_problem(DATA / "peres.json")
    outcome = dispatch(problem.pair(0.5))
    stored = load_measurement(DATA / "peres_optimum.json", problem.dim)
    for name in ("e1", "e2", "e_inconclusive"):
        np.testing.assert_allclose(getattr(stored, name),
                                   getattr(outcome.measurement, name),
                                   rtol=0, atol=1e-12)
    code = main(["verify", str(DATA / "peres.json"),
                 str(DATA / "peres_optimum.json"), "--p1", "0.5"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["report"]["is_optimal"] is True
    assert payload["certificate"]["valid"] is True


def test_skew6_problem_is_the_seeded_draw():
    # tests/data/skew6.json holds this draw, written by save_problem
    rho1, rho2 = generic_pair(np.random.default_rng([6, 3, 3]), 6, 3, 3)
    problem = load_problem(DATA / "skew6.json")
    assert np.array_equal(problem.rho1, rho1)
    assert np.array_equal(problem.rho2, rho2)
    assert problem.p1 is None
    assert problem.pair(0.5).strictly_skew


def test_near_cutoff8_problem_solves_as_class_12(capsys):
    # tests/data/near_cutoff8.json holds the near-cutoff pair of
    # test_unwarned_near_cutoff_reduction_keeps_the_core_report, written by
    # save_problem; the console script solves it analytically, certified
    rho1, rho2 = _near_cutoff_states(1e-11, 1e-10)
    problem = load_problem(DATA / "near_cutoff8.json")
    assert np.array_equal(problem.rho1, rho1)
    assert np.array_equal(problem.rho2, rho2)
    assert problem.p1 == 0.4
    code = main(["solve", str(DATA / "near_cutoff8.json"), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["branch"] == "class-12" and payload["optimal"] is True
    assert payload["certificate_valid"] is True


def test_near_cutoff4_problem_solves_as_class_12(capsys):
    # tests/data/near_cutoff4.json holds the pair of
    # test_near_cutoff_pair_falls_back_to_a_measurement, written by
    # save_problem; the console script solves it analytically, certified
    rho1, rho2 = _near_cutoff4_states()
    problem = load_problem(DATA / "near_cutoff4.json")
    assert np.array_equal(problem.rho1, rho1)
    assert np.array_equal(problem.rho2, rho2)
    assert problem.p1 == 0.08
    code = main(["solve", str(DATA / "near_cutoff4.json"), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["branch"] == "class-12" and payload["optimal"] is True
    assert payload["certificate_valid"] is True


def _near_orthogonal4_states():
    """A strictly skew (4;2,2) pair with Jordan cosines 0.5 and 5e-9."""
    return jordan_cosine_states(np.random.default_rng([15, 1]), 0.5, 5e-9)


# the oracle on tests/data/near_orthogonal4.json (one restart, 200 000
# iterations; 10^6 give the same digits): its converged point and its
# dual upper bound.  The analytic answer, a measurement feasible to 1e-15,
# lies 2.1e-9 above that point and below the bound
NEAR_ORTHOGONAL4_ORACLE = (0.8750261700916128, 0.8750261737550045)


def test_near_orthogonal4_problem_solves_as_class_12(capsys):
    # tests/data/near_orthogonal4.json, written by save_problem, holds a
    # Jordan cosine of 5e-9: skew (above the 1e-9 cutoff) but below
    # tol.equality.  The certificate's oblique projector scales by 1/c
    # there, and the certificate's residual gate refuses it; the answer
    # stays checker-certified
    rho1, rho2 = _near_orthogonal4_states()
    problem = load_problem(DATA / "near_orthogonal4.json")
    assert np.array_equal(problem.rho1, rho1)
    assert np.array_equal(problem.rho2, rho2)
    assert problem.p1 == 0.1
    pair = problem.pair()
    assert pair.strictly_skew
    assert pair.jordan.cosines[1] == pytest.approx(5e-9, rel=1e-6)
    outcome = dispatch(pair)
    assert outcome.branch == "class-12" and outcome.optimal
    _assert_report_is_a_fresh_check(outcome, pair)
    assert outcome.certificate is None
    assert any(note.startswith("certificate construction failed")
               for note in outcome.warnings)
    low, up = NEAR_ORTHOGONAL4_ORACLE
    assert low <= outcome.success <= up
    code = main(["solve", str(DATA / "near_orthogonal4.json"), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["branch"] == "class-12" and payload["optimal"] is True
    assert payload["certificate_valid"] is False


def _near_orthogonal_fidelity4_states():
    """A strictly skew (4;2,2) pair with Jordan cosines 0.01 and 1e-6."""
    return jordan_cosine_states(np.random.default_rng([31, 1]), 0.01, 1e-6)


def test_near_orthogonal_fidelity4_file_holds_its_draw():
    # tests/data/near_orthogonal_fidelity4.json, written by save_problem
    rho1, rho2 = _near_orthogonal_fidelity4_states()
    problem = load_problem(DATA / "near_orthogonal_fidelity4.json")
    assert np.array_equal(problem.rho1, rho1)
    assert np.array_equal(problem.rho2, rho2)
    assert problem.p1 == 0.5
    pair = problem.pair()
    assert pair.strictly_skew
    np.testing.assert_allclose(pair.jordan.cosines, [0.01, 1e-6], rtol=1e-6)


def test_degenerate_host_file_holds_its_states():
    problem = load_problem(DATA / "degenerate_host.json")
    for loaded, state in zip((problem.rho1, problem.rho2),
                             degenerate_host_states()):
        np.testing.assert_array_equal(loaded, state)


def test_near_parallel12_file_holds_its_states():
    problem = load_problem(DATA / "near_parallel12.json")
    states = jordan_cosine_states(np.random.default_rng(1), 1 - 1e-6, 1e-6)
    for loaded, state in zip((problem.rho1, problem.rho2), states):
        np.testing.assert_array_equal(loaded, state)
    assert problem.p1 == 0.25


def test_near_orthogonal_fidelity_form_is_certified():
    # the polar factors of sqrt(g1) sqrt(g2) carry eigenvalues of order c,
    # whose squares (order c^2 = 1e-12) lie below the rank cutoff: the
    # fidelity form takes them at the rank the Jordan split decided
    from usdkit import check_optimality, try_fidelity_form
    from usdkit.linalg import sqrt_psd

    pair = load_problem(DATA / "near_orthogonal_fidelity4.json").pair()
    outcome = try_fidelity_form(pair)
    assert outcome is not None and outcome.branch == "fidelity-form"
    assert outcome.optimal
    assert check_optimality(outcome.measurement, pair).is_optimal
    product = sqrt_psd(pair.gamma1) @ sqrt_psd(pair.gamma2)
    bures = pair.total_trace - 2 * np.linalg.svd(product, compute_uv=False).sum()
    assert outcome.success == pytest.approx(bures, abs=1e-12)


def test_near_orthogonal_fidelity4_problem_solves_as_fidelity_form(capsys):
    code = main(["solve", str(DATA / "near_orthogonal_fidelity4.json"),
                 "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["branch"] == "fidelity-form" and payload["optimal"] is True


def test_cli_solve_reaches_the_oracle(capsys, monkeypatch):
    # a strictly skew rank-(3,3) pair on C^6: no analytic family applies,
    # and with the k x k program refusing it the oracle answers
    _refuse_program(monkeypatch)
    code = main(["solve", str(DATA / "skew6.json"), "--p1", "0.5", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["branch"] == "oracle-checker"
    assert payload["optimal"] is True


def test_cli_solve_json_payload(capsys):
    code = main(["solve", str(DATA / "peres.json"), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["optimal"] is True
    assert payload["success_probability"] == pytest.approx(IDP, abs=1e-9)
    assert payload["report"]["is_optimal"] is True


def test_cli_closed_pipe_exits_quietly(capsys, monkeypatch):
    # the reader of the output has gone (`usdkit solve ... | head -c 1`):
    # no traceback, and the status a shell gives a process killed by
    # SIGPIPE, not the one for invalid input
    import io

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["solve", str(DATA / "peres.json"), "--json"])
    assert code == 141
    assert capsys.readouterr().err == ""


def test_cli_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", str(DATA / "example1.json"), "--min", "0.01",
                 "--max", "0.99", "--steps", "9", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "p1,success,class_e1,class_e2,branch,lower_bound,upper_bound"
    assert len(lines) == 10


def test_cli_sweep_to_stdout_matches_the_file(tmp_path, capsys):
    argv = ["sweep", str(DATA / "peres.json"), "--min", "0.1", "--max", "0.9",
            "--steps", "3", "--out"]
    out = tmp_path / "sweep.csv"
    assert main(argv + [str(out)]) == 0
    assert main(argv + ["-"]) == 0
    text = capsys.readouterr().out
    assert text == out.read_text(encoding="utf-8")
    assert len(text.strip().split("\n")) == 4


def test_cli_sweep_exits_uncertified_on_a_best_known_row(tmp_path,
                                                         monkeypatch):
    # the CSV is still written, and the exit code says that a row is the
    # oracle's best known value, not a certified optimum
    real = pipeline.sweep

    def with_best_known(*args):
        rows = real(*args)
        return rows[:1] + [replace(rows[1], branch="oracle-best-known")]

    monkeypatch.setattr("usdkit.cli.sweep", with_best_known)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", str(DATA / "peres.json"), "--min", "0.1", "--max",
                 "0.9", "--steps", "3", "--out", str(out)])
    assert code == 2
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 3 and lines[2].split(",")[4] == "oracle-best-known"


def test_cli_sweep_rejects_an_empty_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", str(DATA / "peres.json"), "--min", "0.1", "--max",
                 "0.9", "--steps", "0", "--out", str(out)])
    assert code == 1
    assert "steps" in capsys.readouterr().err
    assert not out.exists()


def test_cli_verify_accepts_optimum(tmp_path, capsys):
    rho1, rho2 = peres_states(dim=3)
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.5)
    outcome = dispatch(pair)
    mpath = tmp_path / "m.json"
    save_measurement(mpath, outcome.measurement)
    code = main(["verify", str(DATA / "peres.json"), str(mpath)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["report"]["is_optimal"] is True
    assert payload["certificate"]["valid"] is True


def test_cli_verify_rejects_perturbed(tmp_path, capsys):
    from usdkit.oracle import FeasibleSet

    rho1, rho2 = peres_states(dim=3)
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.5)
    outcome = dispatch(pair)
    feas = FeasibleSet(pair)
    r = np.random.default_rng(4)
    x = feas.variables(outcome.measurement)
    m = feas.measurement(feas.project(x + 2e-3 * random_direction(feas, r)))
    mpath = tmp_path / "perturbed.json"
    save_measurement(mpath, m)
    code = main(["verify", str(DATA / "peres.json"), str(mpath)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["violated_conditions"]


def test_cli_verify_refuses_a_measurement_that_is_not_usd(tmp_path, capsys):
    # the Peres optimum with its conclusive elements swapped names each state
    # on the other's support
    m = load_measurement(DATA / "peres_optimum.json", 3)
    mpath = tmp_path / "swapped.json"
    save_measurement(mpath, UsdMeasurement(m.e2, m.e1, m.e_inconclusive))
    code = main(["verify", str(DATA / "peres.json"), str(mpath),
                 "--p1", "0.5"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["valid_usd"] is False
    assert "not USD" in payload["error"]


def test_cli_reduce(capsys):
    code = main(["reduce", str(DATA / "peres.json")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["core_support_dim"] == 2
    assert payload["lifted_offset"] == pytest.approx(0.0, abs=1e-12)


def test_cli_oracle(capsys):
    code = main(["oracle", str(DATA / "peres.json"), "--seed", "3",
                 "--restarts", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["success_probability"] == pytest.approx(IDP, abs=1e-8)
    assert payload["upper_bound"] == pytest.approx(IDP, abs=1e-8)
    assert payload["upper_bound"] >= payload["success_probability"] - 1e-12
    assert len(payload["per_restart_distances"]) == 1


def test_cli_oracle_rejects_a_negative_seed(capsys):
    code = main(["oracle", str(DATA / "peres.json"), "--p1", "0.5",
                 "--seed", "-1"])
    assert code == 1
    assert "seed must be >= 0" in capsys.readouterr().err


def test_cli_oracle_probes_uniqueness(capsys):
    # ten or more restarts run the uniqueness probe
    code = main(["oracle", str(DATA / "peres.json"), "--p1", "0.5",
                 "--restarts", "10"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["unique"] is True
    assert payload["max_distance"] <= 1e-7
    assert len(payload["per_restart_distances"]) == 45
    assert payload["max_distance"] == max(payload["per_restart_distances"])
    assert payload["success_probability"] == pytest.approx(IDP, abs=1e-8)


def test_cli_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "rho1": [[[1.0')
    code = main(["solve", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line" in err


def test_cli_missing_file(capsys):
    assert main(["solve", "no-such-file.json"]) == 1


def test_cli_tol_override(tmp_path, capsys):
    # a slightly unnormalized state passes once the tolerance is widened
    problem = load_problem(DATA / "peres.json")
    rho1 = problem.rho1.copy()
    rho1[1, 1] = 1.0 + 5e-7
    path = tmp_path / "loose.json"
    save_problem(path, ProblemFile(3, rho1, problem.rho2, 0.5))
    assert main(["solve", str(path)]) == 1
    capsys.readouterr()
    assert main(["--tol", "1e-5", "solve", str(path)]) == 0


@pytest.mark.parametrize("p1", [0.15, 0.16, 0.17, 0.18, 0.19])
def test_tail_family_answers_as_class_12_without_the_oracle(p1, monkeypatch):
    # the eigenvalue tails of 3e-11 that the rank cutoff drops stay in the
    # states; the class-12 completion reads only the split's supports, so
    # it closes to the identity and no prior of the band reaches the oracle
    def reached_oracle(*args, **kwargs):
        raise _ReachedOracle

    monkeypatch.setattr(pipeline, "oracle_optimize", reached_oracle)
    base1, base2 = generic_pair(np.random.default_rng([77, 1]), 4, 2, 2)
    pair = WeightedDensityPair.from_states(
        *(with_eigenvalue_tails(base, 3e-11) for base in (base1, base2)), p1)
    outcome = dispatch(pair, with_certificate=False)
    assert outcome.branch == "class-12" and outcome.optimal


@pytest.mark.parametrize("p1", [0.07, 0.08, 0.91, 0.92])
def test_near_cutoff4_class_12_lies_in_the_oracle_bracket(p1):
    # the oracle on the reduced pair brackets the optimum between its
    # success and its dual bound; the analytic answer, lifted by the
    # reduction's offset, lies inside up to rounding
    pair = load_problem(DATA / "near_cutoff4.json").pair(p1)
    outcome = dispatch(pair, with_certificate=False)
    assert outcome.branch == "class-12"
    record = pair.reduction
    res = oracle_optimize(record.reduced_pair)
    offset = record.lifted_offset
    assert res.success + offset - 1e-13 <= outcome.success
    assert outcome.success <= res.upper_bound + offset + 1e-13

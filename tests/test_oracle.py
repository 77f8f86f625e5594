from pathlib import Path

import numpy as np
import pytest

from usdkit import (NonConvergence, OracleConfig, WeightedDensityPair,
                    check_optimality, dispatch, is_proper, success_probability,
                    try_single_state_detection, uniqueness_probe)
from usdkit import linalg as la
from usdkit import oracle
from usdkit.model import complete_measurement, validate_inconclusive
from usdkit.oracle import (FeasibleSet, oracle_optimize,
                           random_feasible_inconclusive)
from usdkit.pipeline import load_problem

from util import (example1_states, peres_states, random_direction,
                  random_skew_pair)

DATA = Path(__file__).parent / "data"
IDP = 1 - 1 / np.sqrt(2)


def fidelity_bound(pair):
    r1, r2 = la.sqrt_psd(pair.gamma1), la.sqrt_psd(pair.gamma2)
    return pair.total_trace - 2 * float(
        np.sum(np.linalg.svd(r1 @ r2, compute_uv=False)))


def _count_evaluations(monkeypatch):
    """(has objective, box calls, evaluations reported) of each splitting
    the oracle runs; each map evaluation calls the spectral box once."""
    boxes = [0]
    clip = FeasibleSet._clip_spectrum

    def counted(e):
        boxes[0] += 1
        return clip(e)

    real = oracle._split
    runs = []

    def split(feas, start, objective, iters, tol):
        before = boxes[0]
        out = real(feas, start, objective, iters, tol)
        runs.append((bool(objective.any()), boxes[0] - before, out[2]))
        return out

    monkeypatch.setattr(FeasibleSet, "_clip_spectrum", staticmethod(counted))
    monkeypatch.setattr(oracle, "_split", split)
    return runs


def test_orthogonal_states_full_recovery():
    g1 = np.diag([0.5, 0.0, 0.0]).astype(complex)
    g2 = np.diag([0.0, 0.3, 0.0]).astype(complex)
    pair = WeightedDensityPair(3, g1, g2)
    res = oracle_optimize(pair, OracleConfig(seed=1))
    assert res.success == pytest.approx(pair.total_trace, abs=1e-9)
    np.testing.assert_allclose(res.measurement.e_inconclusive,
                               np.diag([0, 0, 1]), atol=1e-7)


def test_identical_states_detect_nothing():
    # neither state has a detector space: the only USD measurement is the
    # identity as inconclusive element
    rho = np.diag([0.6, 0.4]).astype(complex)
    res = oracle_optimize(WeightedDensityPair.from_states(rho, rho, 0.5))
    assert res.success == 0.0 and res.upper_bound == 0.0
    np.testing.assert_array_equal(res.measurement.e_inconclusive, np.eye(2))


def test_peres_value():
    rho1, rho2 = peres_states(dim=2)
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.5)
    res = oracle_optimize(pair, OracleConfig(seed=2))
    assert res.success == pytest.approx(IDP, abs=1e-9)


def test_peres_converges_in_few_evaluations():
    # the accelerated splitting takes 21 to 36 evaluations at seeds 0 to
    # 9, the plain one 68 to 84
    rho1, rho2 = peres_states(dim=2)
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.5)
    res = oracle_optimize(pair)
    assert res.success == pytest.approx(IDP, abs=1e-12)
    assert res.iterations <= 40


def test_iterations_count_the_objective_splittings_evaluations(
        rng, monkeypatch):
    runs = _count_evaluations(monkeypatch)
    res = oracle_optimize(random_skew_pair(rng), OracleConfig(seed=3))
    objective = [boxes for has_objective, boxes, _ in runs if has_objective]
    assert objective == [res.iterations]
    assert all(boxes == used for _, boxes, used in runs)


def test_evaluations_never_exceed_the_cap(rng, monkeypatch):
    # rejected extrapolations count too: one rejected at the cap ends the
    # splitting without the plain step it would otherwise take.  The first
    # extrapolation comes at evaluation 12, so the caps cover it
    pair = random_skew_pair(rng)
    runs = _count_evaluations(monkeypatch)
    for max_iters in range(10, 51):
        runs.clear()
        cfg = OracleConfig(seed=1, restarts=3, max_iters=max_iters)
        res = oracle_optimize(pair, cfg)
        objective = [boxes for has_objective, boxes, _ in runs
                     if has_objective]
        assert len(objective) == cfg.restarts
        assert max(objective) <= max_iters
        assert sum(objective) == res.iterations


def test_extend_merges_into_the_configured_run(rng):
    # dispatch keeps a refused restart 0 and runs only the others: merged,
    # they give what one call with the configuration gives
    from dataclasses import replace

    from usdkit.oracle import _extend

    pair = random_skew_pair(rng)
    cfg = OracleConfig(seed=4, restarts=3)
    first = oracle_optimize(pair, replace(cfg, restarts=1))
    merged = _extend(pair, cfg, first)
    full = oracle_optimize(pair, cfg)
    for a, b in zip(merged.measurement.elements(), full.measurement.elements()):
        np.testing.assert_array_equal(a, b)
    for name in ("success", "upper_bound", "per_restart_distances",
                 "feasibility_residual", "iterations"):
        assert getattr(merged, name) == getattr(full, name)


def test_deterministic_given_seed(rng):
    pair = random_skew_pair(rng)
    cfg = OracleConfig(seed=11)
    r1 = oracle_optimize(pair, cfg)
    r2 = oracle_optimize(pair, cfg)
    assert r1.success == r2.success
    for a, b in zip(r1.measurement.elements(), r2.measurement.elements()):
        np.testing.assert_array_equal(a, b)


def test_never_exceeds_fidelity_bound(rng):
    for trial in range(8):
        pair = random_skew_pair(rng)
        res = oracle_optimize(pair, OracleConfig(seed=trial))
        assert res.success <= fidelity_bound(pair) + 1e-6


def test_never_below_detection_value(rng):
    seen = 0
    for trial in range(25):
        pair = random_skew_pair(rng)
        ssd = try_single_state_detection(pair)
        if ssd is None:
            continue
        seen += 1
        res = oracle_optimize(pair, OracleConfig(seed=trial))
        assert res.success >= ssd.success - 1e-6
        if seen >= 3:
            break
    assert seen >= 1


def test_separation_constraint_at_termination(rng):
    pair = random_skew_pair(rng)
    res = oracle_optimize(pair, OracleConfig(seed=4))
    e_q = res.measurement.e_inconclusive
    cross = pair.gamma1 @ (np.eye(4) - e_q) @ pair.gamma2
    assert np.linalg.norm(cross) <= 1e-8
    assert res.feasibility_residual <= 1e-8


def test_example1_reference_value():
    # frozen reference for the midpoint prior, produced by this oracle;
    # guards against regressions of the optimizer itself
    rho1, rho2 = example1_states()
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.5)
    res = oracle_optimize(pair, OracleConfig(seed=5))
    assert res.success == pytest.approx(0.4492730800184392, abs=1e-8)
    # the plain splitting took about 500 evaluations
    assert res.iterations <= 150


def test_completed_oracle_measurement_is_proper(rng):
    # the oracle's measurement is the completion of its inconclusive element
    pair = random_skew_pair(rng)
    res = oracle_optimize(pair, OracleConfig(seed=6))
    m = complete_measurement(res.measurement.e_inconclusive, pair)
    assert is_proper(m, pair) and is_proper(res.measurement, pair)
    assert success_probability(m, pair) == pytest.approx(res.success, abs=1e-9)
    for a, b in zip(m.elements(), res.measurement.elements()):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)


def test_random_feasible_points_are_feasible(rng):
    pair = random_skew_pair(rng)
    for seed in range(5):
        e = random_feasible_inconclusive(pair, seed=seed)
        diag = validate_inconclusive(e, pair)
        assert max(diag.residual_kernel, diag.residual_psd,
                   diag.residual_complement, diag.residual_separation) <= 1e-11
        # distinct seeds give distinct points
    e1 = random_feasible_inconclusive(pair, seed=0)
    e2 = random_feasible_inconclusive(pair, seed=1)
    assert np.linalg.norm(e1 - e2) > 1e-3


def test_unconverged_random_draw_raises(rng, monkeypatch):
    # a splitting that never moves leaves the random start, whose blocks
    # are not PSD: the draw must refuse it, not return it
    pair = random_skew_pair(rng)
    monkeypatch.setattr(FeasibleSet, "project",
                        lambda self, e, cycles=500, tol=1e-13: e)
    with pytest.raises(NonConvergence, match="random draw"):
        random_feasible_inconclusive(pair, seed=0)


def test_project_returns_a_feasible_input_unchanged(rng):
    pair = random_skew_pair(rng)
    feas = FeasibleSet(pair)
    optimum = dispatch(pair).measurement
    drawn = complete_measurement(random_feasible_inconclusive(pair, seed=3),
                                 pair)
    for m in (optimum, drawn):
        x = feas.variables(m)
        np.testing.assert_allclose(feas.project(x), x, rtol=0, atol=1e-12)
        for a, b in zip(feas.measurement(x).elements(), m.elements()):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_project_makes_a_perturbed_peres_operator_feasible():
    # Peres in C^3 has a one-dimensional common kernel
    rho1, rho2 = peres_states(dim=3)
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.5)
    feas = FeasibleSet(pair)
    optimum = feas.variables(dispatch(pair).measurement)
    r = np.random.default_rng(4)
    for _ in range(5):
        perturbed = optimum + 2e-3 * random_direction(feas, r)
        assert feas.residual(perturbed) > 1e-4
        assert feas.residual(feas.project(perturbed)) <= 1e-12


def test_project_never_returns_a_less_feasible_point():
    # on the reduced pair of tests/data/near_cutoff4.json, whose states keep
    # eigenvalues just above the rank cutoff: the objective splitting
    # capped at 50 evaluations ends far from the affine set, and at 500 it
    # meets its stop rule at a point feasible to rounding.  The splitting
    # with no objective, run from either, returns nothing less feasible
    pair = load_problem(DATA / "near_cutoff4.json").pair()
    feas = FeasibleSet(pair.reduction.reduced_pair)
    objective = np.stack((-feas.gain, 0 * feas.gain))
    start = oracle._random_start(feas, 0)
    for cap in (50, 500):
        boxed = oracle._split(feas, start, objective, cap, 1e-13)[0]
        assert feas.residual(feas.project(boxed)) <= feas.residual(boxed)
    assert feas.residual(boxed) <= 1e-14


def test_uniqueness_probe_positive(rng):
    pair = random_skew_pair(rng)
    probe = uniqueness_probe(pair, OracleConfig(seed=7, restarts=10))
    assert probe.unique
    assert probe.max_distance <= 1e-7
    assert len(probe.result.per_restart_distances) == 45


def test_uniqueness_probe_negative_control(rng):
    # deliberately under-converged runs scatter: diagnostic false with the
    # spread reported
    pair = random_skew_pair(rng)
    cfg = OracleConfig(seed=8, restarts=10, max_iters=3)
    probe = uniqueness_probe(pair, cfg)
    assert not probe.unique
    assert probe.max_distance > 10 * cfg.convergence_tol
    assert max(probe.result.per_restart_distances) == probe.max_distance
    # the dual bound of an unconverged run still holds, but visibly loosely
    assert probe.result.success <= probe.result.upper_bound + 1e-12
    assert probe.result.upper_bound - probe.result.success > 1e-6


def test_nonconvergence_raised(rng, monkeypatch):
    # with a polish that does not move, the oracle returns the point of a
    # splitting capped at two evaluations, whose inconclusive element is
    # far from PSD
    pair = random_skew_pair(rng)
    monkeypatch.setattr(FeasibleSet, "project",
                        lambda self, x, cycles=500, tol=1e-13: x)
    with pytest.raises(NonConvergence, match="feasibility residual"):
        oracle_optimize(pair, OracleConfig(seed=9, max_iters=2))


def test_subrounding_tolerance_stops_at_rounding_level(rng, monkeypatch):
    # no rounded residual of the splitting meets 1e-17: the splitting and
    # the polish stop where their residuals stall instead of running out
    # their budgets of 200 000 and 30 000 evaluations.  The returned
    # inconclusive element may still be PSD to the last bit, so whether
    # the oracle raises is not the point
    pair = random_skew_pair(rng)
    cfg = OracleConfig(seed=9, convergence_tol=1e-17)
    runs = _count_evaluations(monkeypatch)
    try:
        oracle_optimize(pair, cfg)
    except NonConvergence:
        pass
    (_, objective, _), (_, polish, _) = runs
    assert objective < cfg.max_iters / 100 and polish < 300


@pytest.mark.parametrize("field,value", [
    ("seed", -1), ("max_iters", 0), ("restarts", 0), ("convergence_tol", 0.0)])
def test_config_rejects_invalid_fields(field, value):
    # each is refused when the config is built, before any solve runs
    with pytest.raises(ValueError, match=field):
        OracleConfig(**{field: value})


def test_probe_requires_ten_restarts(rng):
    pair = random_skew_pair(rng)
    with pytest.raises(ValueError):
        uniqueness_probe(pair, OracleConfig(restarts=3))


@pytest.mark.parametrize("d,r", [(4, 2), (5, 2), (6, 3)])
def test_dual_bound_brackets_converged_success(rng, d, r):
    for trial in range(3):
        pair = random_skew_pair(rng, d=d, r=r)
        res = oracle_optimize(pair, OracleConfig(seed=trial))
        assert res.success <= res.upper_bound + 1e-12
        assert res.upper_bound - res.success <= 1e-9


def test_analytic_successes_within_oracle_bound(rng):
    # a check of the closed forms that uses no optimality theory: no
    # analytic success may beat the bound of any dual point
    branches = set()
    for trial in range(8):
        pair = random_skew_pair(rng)
        outcome = dispatch(pair, with_certificate=False)
        assert not outcome.branch.startswith("oracle")
        branches.add(outcome.branch)
        res = oracle_optimize(pair, OracleConfig(seed=trial))
        assert outcome.success <= res.upper_bound + 1e-9
    assert {"class-11", "class-12"} <= branches, branches


def test_project_affine_is_the_orthogonal_projection(rng):
    # Peres in C^3 has a one-dimensional common kernel, which the variables
    # leave out: every point's measurement acts as the identity there
    rho1, rho2 = peres_states(dim=3)
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.4)
    feas = FeasibleSet(pair)
    kb = pair.common_kernel().basis
    assert kb.shape[1] == 1
    def project(point):
        out = feas.project_affine(oracle._real_view(point))
        return out.view(complex).reshape(point.shape)

    for _ in range(5):
        a, b, x = (random_direction(feas, rng) for _ in range(3))
        px = project(x)
        np.testing.assert_allclose(project(px), px, atol=1e-12)
        # the affine identity holds at px, and the measurement is USD and
        # sums to the identity, whatever its blocks
        z, s = px
        np.testing.assert_allclose(oracle._SLACK_WEIGHT * s
                                   + feas._r @ z @ feas._r.conj().T,
                                   np.eye(len(s)), atol=1e-12)
        m = feas.measurement(px)
        assert abs(np.trace(m.e1 @ pair.gamma2)) <= 1e-12
        assert abs(np.trace(m.e2 @ pair.gamma1)) <= 1e-12
        np.testing.assert_allclose(sum(m.elements()), np.eye(3), atol=1e-12)
        np.testing.assert_allclose(m.e_inconclusive @ kb, kb, atol=1e-12)
        chord = project(a) - project(b)
        assert abs(np.vdot(x - px, chord).real) <= 1e-12


def _near_cutoff4_reduced_pair():
    """The reduced pair of tests/data/near_cutoff4.json: a (4;2,2) pair
    whose states keep eigenvalues just above the rank cutoff."""
    return load_problem(DATA / "near_cutoff4.json").pair().reduction.reduced_pair


def test_near_cutoff4_converges_to_a_certified_measurement():
    # with the oblique completion, this pair ran out a 20 000-evaluation
    # cap and its point was not certified; on the detector spaces the
    # splitting meets its stop rule in a few dozen evaluations
    pair = _near_cutoff4_reduced_pair()
    res = oracle_optimize(pair, OracleConfig(max_iters=20_000))
    assert res.iterations < 20_000
    assert check_optimality(res.measurement, pair).is_optimal


@pytest.mark.parametrize("max_iters", [20, 20_000])
def test_dual_bound_holds_converged_or_not(max_iters):
    # the bound holds for every USD measurement whatever the dual it is
    # read from, so also for the returned one of a capped run
    res = oracle_optimize(_near_cutoff4_reduced_pair(),
                          OracleConfig(max_iters=max_iters))
    assert res.upper_bound >= res.success - 1e-12

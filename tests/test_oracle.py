import re
from pathlib import Path

import numpy as np
import pytest

from usdkit import (NonConvergence, OracleConfig, WeightedDensityPair,
                    dispatch, is_proper, success_probability,
                    try_single_state_detection, uniqueness_probe)
from usdkit import linalg as la
from usdkit import oracle
from usdkit.model import complete_measurement
from usdkit.oracle import (FeasibleSet, oracle_optimize,
                           random_feasible_inconclusive)
from usdkit.pipeline import load_problem

from util import example1_states, peres_states, random_skew_pair

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
    np.testing.assert_allclose(res.e_q_opt, np.diag([0, 0, 1]), atol=1e-7)


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
    np.testing.assert_array_equal(merged.e_q_opt, full.e_q_opt)
    for name in ("success", "upper_bound", "per_restart_distances",
                 "feasibility_residual", "iterations"):
        assert getattr(merged, name) == getattr(full, name)


def test_deterministic_given_seed(rng):
    pair = random_skew_pair(rng)
    cfg = OracleConfig(seed=11)
    r1 = oracle_optimize(pair, cfg)
    r2 = oracle_optimize(pair, cfg)
    assert r1.success == r2.success
    np.testing.assert_array_equal(r1.e_q_opt, r2.e_q_opt)


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
    cross = pair.gamma1 @ (np.eye(4) - res.e_q_opt) @ pair.gamma2
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
    pair = random_skew_pair(rng)
    res = oracle_optimize(pair, OracleConfig(seed=6))
    m = complete_measurement(res.e_q_opt, pair)
    assert is_proper(m, pair)
    assert success_probability(m, pair) == pytest.approx(res.success, abs=1e-9)


def test_random_feasible_points_are_feasible(rng):
    pair = random_skew_pair(rng)
    feas = FeasibleSet(pair)
    for seed in range(5):
        e = random_feasible_inconclusive(pair, seed=seed)
        assert feas.residual(e) <= 1e-11
        # distinct seeds give distinct points
    e1 = random_feasible_inconclusive(pair, seed=0)
    e2 = random_feasible_inconclusive(pair, seed=1)
    assert np.linalg.norm(e1 - e2) > 1e-3


def test_unconverged_random_draw_raises(rng, monkeypatch):
    # a splitting that never moves leaves the random start, which violates
    # the separation constraint: the draw must refuse it, not return it
    pair = random_skew_pair(rng)
    monkeypatch.setattr(FeasibleSet, "project",
                        lambda self, e, cycles=500, tol=1e-13: e)
    with pytest.raises(NonConvergence, match="random draw"):
        random_feasible_inconclusive(pair, seed=0)


def test_project_returns_a_feasible_input_unchanged(rng):
    pair = random_skew_pair(rng)
    feas = FeasibleSet(pair)
    optimum = dispatch(pair).measurement.e_inconclusive
    for e in (optimum, random_feasible_inconclusive(pair, seed=3)):
        np.testing.assert_allclose(feas.project(e), e, rtol=0, atol=1e-12)


def test_project_makes_a_perturbed_peres_operator_feasible():
    # Peres in C^3 has a one-dimensional common kernel
    rho1, rho2 = peres_states(dim=3)
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.5)
    feas = FeasibleSet(pair)
    optimum = dispatch(pair).measurement.e_inconclusive
    r = np.random.default_rng(4)
    for _ in range(5):
        h = r.normal(size=(3, 3)) + 1j * r.normal(size=(3, 3))
        perturbed = optimum + 1e-3 * (h + h.conj().T)
        assert feas.residual(perturbed) > 1e-4
        assert feas.residual(feas.project(perturbed)) <= 1e-12


def test_project_never_returns_a_less_feasible_point():
    # on the compressed core of tests/data/near_cutoff4.json, whose states
    # keep eigenvalues just above the rank cutoff, a capped objective
    # splitting ends at a boxed point feasible to rounding; the splitting
    # with no objective, run from there, drifts to a residual near 1e-9
    pair = load_problem(DATA / "near_cutoff4.json").pair()
    core = pair.reduction.reduced_pair.compressed[0]
    feas = FeasibleSet(core)
    objective = core.total / np.linalg.norm(core.total, 2)
    start = oracle._random_start(core.dim, 0)
    boxed = oracle._split(feas, start, objective, 500, 1e-13)[0]
    assert feas.residual(boxed) <= 1e-15
    assert feas.residual(feas.project(boxed)) <= feas.residual(boxed)


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


def test_nonconvergence_raised(rng):
    # the polish leaves a rounding-level residual, so no returned point can
    # meet a tolerance of 1e-300; a pure-state pair in C^2 polishes fastest
    pair = random_skew_pair(rng, d=2, r=1)
    cfg = OracleConfig(seed=9, max_iters=2, convergence_tol=1e-300)
    with pytest.raises(NonConvergence):
        oracle_optimize(pair, cfg)


def test_subrounding_tolerance_stops_at_rounding_level(rng):
    # no rounded residual meets 1e-17, so the oracle must still raise, but
    # the splitting and the polish stop where their residuals stall instead
    # of running out their budgets
    pair = random_skew_pair(rng)
    cfg = OracleConfig(seed=9, convergence_tol=1e-17)
    with pytest.raises(NonConvergence) as info:
        oracle_optimize(pair, cfg)
    iterations = int(re.search(r"after (\d+) iterations",
                               str(info.value)).group(1))
    assert iterations < cfg.max_iters / 100


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
    # Peres in C^3 has a one-dimensional common kernel
    rho1, rho2 = peres_states(dim=3)
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.4)
    feas = FeasibleSet(pair)
    kb = feas.kernel_basis
    assert kb.shape[1] == 1

    def hermitian():
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        return a + a.conj().T

    for _ in range(5):
        a, b, e = hermitian(), hermitian(), hermitian()
        pe = feas.project_affine(e)
        np.testing.assert_allclose(pe, pe.conj().T, atol=1e-12)
        np.testing.assert_allclose(feas.project_affine(pe), pe, atol=1e-12)
        cross = pair.gamma1 @ (np.eye(3) - pe) @ pair.gamma2
        assert np.abs(cross).max() <= 1e-12
        np.testing.assert_allclose(pe @ kb, kb, atol=1e-12)
        chord = feas.project_affine(a) - feas.project_affine(b)
        assert abs(np.vdot(e - pe, chord).real) <= 1e-12

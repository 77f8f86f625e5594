"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines;
every criterion asserts its stated tolerance and stays inside its runtime
budget.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from usdkit import (OracleConfig, UsdMeasurement, WeightedDensityPair,
                    build_certificate, check_optimality, dispatch,
                    fidelity_window, is_proper, is_usd,
                    single_detection_window, success_probability,
                    try_fidelity_form, uniqueness_probe)
from usdkit import linalg as la
from usdkit.model import complete_measurement, reconstruct_from_core
from usdkit.optimality import count_types_classes, rank_law_check
from usdkit.oracle import FeasibleSet, oracle_optimize, random_feasible_inconclusive
from usdkit.pipeline import load_problem, sweep
from usdkit.reductions import lift_measurement, reduce_fully, tau_parallel, tau_skew

from util import (example1_states, examples2_states, peres_nonproper_measurement,
                  peres_states, random_density, random_direction,
                  random_skew_pair, random_unit)

DATA = Path(__file__).parent / "data"
IDP = 1 - 1 / np.sqrt(2)

# measurements produced by criteria 4-6, re-checked by criterion 7
_optimal_instances: list[tuple[UsdMeasurement, WeightedDensityPair]] = []


def _report(num: int, title: str, elapsed: float, budget: float):
    print(f"ACCEPTANCE {num:2d} PASS  {title}  ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_peres_example():
    t0 = time.perf_counter()
    problem = load_problem(DATA / "peres.json")
    pair = problem.pair()
    outcome = dispatch(pair)
    assert outcome.optimal
    assert abs(outcome.success - IDP) < 1e-9
    # the textbook non-proper measurement: USD, same success, not proper
    e1, e2, e_q = peres_nonproper_measurement()
    m = UsdMeasurement(e1, e2, e_q)
    m.validate(pair)
    assert is_usd(m, pair)
    assert abs(success_probability(m, pair) - IDP) < 1e-9
    assert not is_proper(m, pair)
    _report(1, "symmetric pure pair solved; non-proper optimum flagged",
            time.perf_counter() - t0, 1.0)


def test_criterion_02_pure_state_window_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(20):
        v1, v2 = random_unit(rng, 3), random_unit(rng, 3)
        rho1 = np.outer(v1, v1.conj())
        rho2 = np.outer(v2, v2.conj())
        w_fid = fidelity_window(rho1, rho2)
        w1 = single_detection_window(rho1, rho2)
        w2 = single_detection_window(rho2, rho1)
        assert abs(w_fid.lower - w1.upper) < 1e-10
        assert abs((1 - w_fid.upper) - w2.upper) < 1e-10
    # three-region sweep structure for pairs whose windows fit the grid
    for seed in range(3):
        r = np.random.default_rng(400 + seed)
        overlap = r.uniform(0.4, 0.8)
        a = np.array([1.0, 0.0], dtype=complex)
        b = np.array([overlap, np.sqrt(1 - overlap ** 2)], dtype=complex)
        rows = sweep(np.outer(a, a.conj()), np.outer(b, b.conj()),
                     np.linspace(0.01, 0.99, 99))
        tags = [row.class_tag for row in rows]
        compressed = [k for i, k in enumerate(tags) if i == 0 or k != tags[i - 1]]
        assert compressed == [(0, 1), (1, 1), (1, 0)]
    _report(2, "detection and fidelity windows partition (0,1) for pure pairs",
            time.perf_counter() - t0, 10.0)


def test_criterion_03_counting_formulas():
    t0 = time.perf_counter()
    for r in range(7):
        types = [(a, b) for a in range(r + 1) for b in range(r + 1) if a + b >= r]
        classes = {tuple(sorted(t)) for t in types}
        assert count_types_classes(r) == (len(types), len(classes))
    _report(3, "type/class counting matches exhaustive enumeration (r=0..6)",
            time.perf_counter() - t0, 1.0)


def test_criterion_04_fidelity_form_value():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    found = 0
    while found < 20:
        pair = random_skew_pair(rng)
        rho1 = pair.gamma1 / np.real(np.trace(pair.gamma1))
        rho2 = pair.gamma2 / np.real(np.trace(pair.gamma2))
        window = fidelity_window(rho1, rho2)
        if window.is_empty:
            continue
        mid = 0.5 * (window.lower + window.upper)
        pair = WeightedDensityPair.from_states(rho1, rho2, mid)
        outcome = try_fidelity_form(pair)
        if outcome is None:
            continue
        found += 1
        r1, r2 = la.sqrt_psd(pair.gamma1), la.sqrt_psd(pair.gamma2)
        bures = pair.total_trace - 2 * float(
            np.sum(np.linalg.svd(r1 @ r2, compute_uv=False)))
        assert abs(outcome.success - bures) < 1e-9
        assert check_optimality(outcome.measurement, pair).is_optimal
        _optimal_instances.append((outcome.measurement, pair))
    _report(4, "fidelity-form success equals the squared Bures distance (20 pairs)",
            time.perf_counter() - t0, 30.0)


def test_criterion_05_oracle_agreement_on_example_sweeps():
    t0 = time.perf_counter()
    grid = np.linspace(0.005, 0.995, 25)
    for name, states in (("example1", example1_states()),
                         ("examples2", examples2_states())):
        rho1, rho2 = states
        rows = sweep(rho1, rho2, grid)
        for row in rows:
            pair = WeightedDensityPair.from_states(rho1, rho2, row.p1)
            reference = oracle_optimize(pair, OracleConfig(seed=17))
            assert abs(row.success_probability - reference.success) < 1e-6, \
                (name, row.p1)
            m = reference.measurement
            _optimal_instances.append((m, pair))
        branches = [row.branch for row in rows]
        assert branches[0] == "single-state-detection"
        assert branches[-1] == "single-state-detection"
        if name == "examples2":
            compressed = [b for i, b in enumerate(branches)
                          if i == 0 or b != branches[i - 1]]
            assert compressed[:2] == ["single-state-detection", "fidelity-form"]
    _report(5, "25-point sweeps of both reference pairs match the oracle to 1e-6",
            time.perf_counter() - t0, 600.0)


def test_criterion_06_uniqueness_probe():
    t0 = time.perf_counter()
    rng = np.random.default_rng(406)
    for trial in range(10):
        pair = random_skew_pair(rng)
        probe = uniqueness_probe(pair, OracleConfig(seed=trial, restarts=10))
        assert probe.unique
        assert probe.max_distance <= 1e-5
        m = probe.result.measurement
        _optimal_instances.append((m, pair))
    _report(6, "ten independent restarts agree on one optimum (10 pairs)",
            time.perf_counter() - t0, 600.0)


def test_criterion_07_rank_law_everywhere():
    t0 = time.perf_counter()
    assert _optimal_instances, "criteria 4-6 must run first"
    for m, pair in _optimal_instances:
        assert rank_law_check(m, pair)
    _report(7, f"rank law holds on all {len(_optimal_instances)} collected optima",
            time.perf_counter() - t0, 60.0)


def test_criterion_08_reconstruction_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(408)
    for trial in range(50):
        pair = random_skew_pair(rng)
        e_q = random_feasible_inconclusive(pair, seed=9000 + trial)
        core = e_q @ (pair.gamma2 - pair.gamma1) @ e_q
        rebuilt = reconstruct_from_core(core, pair)
        assert np.linalg.norm(rebuilt - e_q) < 1e-8
    _report(8, "inconclusive operators rebuild from their cores (50 samples)",
            time.perf_counter() - t0, 120.0)


def test_criterion_09_reduction_laws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(409)
    for trial in range(50):
        skew = random_skew_pair(rng)
        par = random_density(rng, 1, 1)
        g1 = np.zeros((7, 7), dtype=complex)
        g2 = np.zeros((7, 7), dtype=complex)
        g1[:4, :4] = 0.5 * skew.gamma1
        g2[:4, :4] = 0.5 * skew.gamma2
        g1[4, 4] = 0.15 * par[0, 0]
        g2[4, 4] = 0.1 * par[0, 0]
        g1[5, 5] = 0.1
        g2[6, 6] = 0.05
        q, _ = np.linalg.qr(rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
        pair = WeightedDensityPair(7, q @ g1 @ q.conj().T, q @ g2 @ q.conj().T)
        # idempotence and commutation within 1e-10
        rec = reduce_fully(pair)
        rec2 = reduce_fully(rec.reduced_pair)
        assert np.abs(rec2.reduced_pair.gamma1 - rec.reduced_pair.gamma1).max() < 1e-10
        assert np.abs(rec2.reduced_pair.gamma2 - rec.reduced_pair.gamma2).max() < 1e-10
        a, _ = tau_parallel(pair)
        ab, _ = tau_skew(a)
        b, _ = tau_skew(pair)
        ba, _ = tau_parallel(b)
        assert np.abs(ab.gamma1 - ba.gamma1).max() < 1e-10
        assert np.abs(ab.gamma2 - ba.gamma2).max() < 1e-10
        # lifted success equality within 1e-9
        e_q = random_feasible_inconclusive(rec.reduced_pair, seed=9100 + trial,
                                           cycles=20_000)
        m_red = complete_measurement(e_q, rec.reduced_pair)
        lifted = lift_measurement(m_red, rec)
        expected = success_probability(m_red, rec.reduced_pair) + rec.lifted_offset
        assert abs(success_probability(lifted, pair) - expected) < 1e-9
    _report(9, "reduction idempotence/commutation and lift bookkeeping (50 pairs)",
            time.perf_counter() - t0, 300.0)


def test_criterion_10_checker_soundness_and_certificates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(410)
    for trial in range(50):
        if trial % 3 == 2:
            # two-dimensional strictly skew pairs (pure vs pure)
            pair = random_skew_pair(rng, d=2, r=1)
        else:
            pair = random_skew_pair(rng)
        reference = oracle_optimize(pair, OracleConfig(seed=trial))
        m_opt = reference.measurement
        report = check_optimality(m_opt, pair)
        assert report.is_optimal, (trial, report.to_dict())
        # feasibility-preserving perturbation of size ~1e-3 must be rejected
        feas = FeasibleSet(pair)
        x = feas.variables(m_opt)
        m_bad = None
        for attempt in range(8):
            cand = feas.measurement(feas.project(
                x + 3e-3 * random_direction(feas, rng), cycles=40_000))
            moved = np.linalg.norm(cand.e_inconclusive - m_opt.e_inconclusive)
            if 2e-4 < moved < 5e-3:
                m_bad = cand
                break
        assert m_bad is not None, f"no usable perturbation (trial {trial})"
        assert not check_optimality(m_bad, pair).is_optimal, trial
        # certificate residuals within 1e-7 on every accepted instance
        cert = build_certificate(m_opt, pair)
        for name, value in cert.residuals.items():
            if name.startswith(("z_psd", "dominates")):
                assert value >= -1e-7, (trial, name, value)
            else:
                assert value <= 1e-7, (trial, name, value)
    _report(10, "checker accepts optima, rejects 1e-3 perturbations, certifies (50 pairs)",
            time.perf_counter() - t0, 600.0)

import numpy as np
import pytest

from usdkit import (IncompatibleRecord, UsdMeasurement, WeightedDensityPair,
                    lift_measurement, reduce_fully, success_probability)
from usdkit import linalg as la
from usdkit.linalg import dag
from usdkit.reductions import tau_parallel, tau_skew

from util import peres_states, random_density, random_skew_pair


def embedded_pair(rng, blocks, d):
    """Assemble a pair from (gamma1_block, gamma2_block, offset) pieces and
    hide the block structure behind a random unitary."""
    g1 = np.zeros((d, d), dtype=complex)
    g2 = np.zeros((d, d), dtype=complex)
    for b1, b2, k in blocks:
        n = b1.shape[0]
        g1[k:k + n, k:k + n] = b1
        g2[k:k + n, k:k + n] = b2
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return WeightedDensityPair(d, q @ g1 @ dag(q), q @ g2 @ dag(q)), q


def test_tau_parallel_disjoint_supports_unchanged(rng):
    pair = random_skew_pair(rng)
    reduced, proj = tau_parallel(pair)
    np.testing.assert_allclose(proj, np.eye(4), atol=1e-9)
    np.testing.assert_allclose(reduced.gamma1, pair.gamma1, atol=1e-9)


def test_tau_parallel_identical_states_vanish():
    rho = np.diag([0.5, 0.5]).astype(complex)
    pair = WeightedDensityPair.from_states(rho, rho, 0.4)
    reduced, proj = tau_parallel(pair)
    assert np.abs(reduced.total).max() < 1e-10
    assert np.abs(proj).max() < 1e-9


def test_tau_parallel_removes_shared_eigenvector(rng):
    # both states contain |0><0|; the shared direction must disappear and
    # the trace drop equals the overlap mass
    g1 = np.diag([0.2, 0.3, 0.0]).astype(complex)
    g2 = np.diag([0.1, 0.0, 0.4]).astype(complex)
    pair = WeightedDensityPair(3, g1, g2)
    reduced, proj = tau_parallel(pair)
    np.testing.assert_allclose(proj, np.diag([0, 1, 1]), atol=1e-10)
    assert reduced.total_trace == pytest.approx(pair.total_trace - 0.3)


def test_tau_skew_strictly_skew_unchanged(rng):
    pair = random_skew_pair(rng)
    reduced, proj = tau_skew(pair)
    np.testing.assert_allclose(proj, np.eye(4), atol=1e-9)
    np.testing.assert_allclose(reduced.gamma2, pair.gamma2, atol=1e-9)


def test_tau_skew_orthogonal_states_vanish():
    g1 = np.diag([0.5, 0.0]).astype(complex)
    g2 = np.diag([0.0, 0.5]).astype(complex)
    pair = WeightedDensityPair(2, g1, g2)
    reduced, _ = tau_skew(pair)
    assert np.abs(reduced.total).max() < 1e-10


def test_tau_skew_removes_orthogonal_direction():
    # gamma1 has one direction orthogonal to supp gamma2: reduced to 1-vs-1
    g1 = np.diag([0.2, 0.3, 0.0]).astype(complex)
    plus = np.array([1, 0, 1], dtype=complex) / np.sqrt(2)
    g2 = 0.5 * np.outer(plus, plus.conj())
    pair = WeightedDensityPair(3, g1, g2)
    reduced, _ = tau_skew(pair)
    assert la.rank(reduced.gamma1) == 1
    assert la.rank(reduced.gamma2) == 1


def test_reduce_fully_strictly_skew_identity(rng):
    pair = random_skew_pair(rng)
    rec = reduce_fully(pair)
    assert rec.reduced_pair is rec.pair
    assert rec.lifted_offset == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(rec.reduced_pair.gamma1, pair.gamma1, atol=1e-9)


def test_reduce_fully_identical_states():
    rho = np.diag([0.6, 0.4]).astype(complex)
    pair = WeightedDensityPair.from_states(rho, rho, 0.5)
    rec = reduce_fully(pair)
    assert np.abs(rec.reduced_pair.total).max() < 1e-10
    assert rec.lifted_offset == pytest.approx(0.0, abs=1e-12)


def test_reduce_fully_composite_block(rng):
    skew = random_skew_pair(rng)
    blocks = [(0.7 * skew.gamma1, 0.7 * skew.gamma2, 0)]
    g1extra = np.zeros((2, 2), dtype=complex); g1extra[0, 0] = 0.2
    g2extra = np.zeros((2, 2), dtype=complex); g2extra[1, 1] = 0.1
    blocks.append((g1extra, g2extra, 4))
    pair, q = embedded_pair(rng, blocks, 6)
    rec = reduce_fully(pair)
    # reduced pair equals the rotated 4-dim block; offset equals the
    # orthogonal block's full trace
    assert rec.lifted_offset == pytest.approx(0.3, abs=1e-10)
    target1 = np.zeros((6, 6), dtype=complex)
    target1[:4, :4] = 0.7 * skew.gamma1
    np.testing.assert_allclose(rec.reduced_pair.gamma1, q @ target1 @ dag(q),
                               atol=1e-9)
    assert la.rank(rec.reduced_pair.total) == 4
    # record invariants
    np.testing.assert_allclose(
        rec.xi, np.eye(6) - rec.pi_parallel - rec.sigma1 - rec.sigma2,
        atol=1e-10)
    for p in (rec.pi_parallel, rec.sigma1, rec.sigma2, rec.xi):
        np.testing.assert_allclose(p @ p, p, atol=1e-9)
        np.testing.assert_allclose(p, dag(p), atol=1e-10)
    assert np.abs(rec.sigma1 @ rec.sigma2).max() < 1e-9
    assert np.abs(rec.sigma1 @ rec.pi_parallel).max() < 1e-9


def test_reduce_fully_idempotent(rng):
    for _ in range(12):
        skew = random_skew_pair(rng, d=4, r=2)
        par = random_density(rng, 1, 1)
        blocks = [(0.5 * skew.gamma1, 0.5 * skew.gamma2, 0),
                  (0.15 * par, 0.15 * par, 4),
                  (np.array([[0.1]], dtype=complex), np.zeros((1, 1), complex), 5)]
        pair, _ = embedded_pair(rng, blocks, 7)
        rec = reduce_fully(pair)
        rec2 = reduce_fully(rec.reduced_pair)
        np.testing.assert_allclose(rec2.reduced_pair.gamma1,
                                   rec.reduced_pair.gamma1, atol=1e-10)
        np.testing.assert_allclose(rec2.reduced_pair.gamma2,
                                   rec.reduced_pair.gamma2, atol=1e-10)
        assert rec2.lifted_offset == pytest.approx(0.0, abs=1e-10)


def test_tau_maps_commute(rng):
    for _ in range(12):
        skew = random_skew_pair(rng, d=4, r=2)
        par = random_density(rng, 1, 1)
        blocks = [(0.5 * skew.gamma1, 0.5 * skew.gamma2, 0),
                  (0.2 * par, 0.1 * par, 4),
                  (np.array([[0.05]], dtype=complex), np.zeros((1, 1), complex), 5)]
        pair, _ = embedded_pair(rng, blocks, 7)
        a1, _ = tau_parallel(pair)
        ab, _ = tau_skew(a1)
        b1, _ = tau_skew(pair)
        ba, _ = tau_parallel(b1)
        np.testing.assert_allclose(ab.gamma1, ba.gamma1, atol=1e-10)
        np.testing.assert_allclose(ab.gamma2, ba.gamma2, atol=1e-10)
        # both compositions agree with the one-shot reduction
        rec = reduce_fully(pair)
        np.testing.assert_allclose(ab.gamma1, rec.reduced_pair.gamma1, atol=1e-9)


def test_nontriviality_rank_criteria(rng):
    # parallel map acts nontrivially iff rank(g1+g2) < rank g1 + rank g2;
    # skew map iff rank g_mu > rank(g1 g2) for some mu
    skew = random_skew_pair(rng)
    _, p_par = tau_parallel(skew)
    assert np.allclose(p_par, np.eye(4))
    assert la.rank(skew.total) == la.rank(skew.gamma1) + la.rank(skew.gamma2)

    g1 = np.diag([0.2, 0.3, 0.0]).astype(complex)
    g2 = np.diag([0.1, 0.0, 0.4]).astype(complex)
    overlap_pair = WeightedDensityPair(3, g1, g2)
    assert la.rank(overlap_pair.total) < la.rank(g1) + la.rank(g2)
    _, p_par2 = tau_parallel(overlap_pair)
    assert not np.allclose(p_par2, np.eye(3))

    assert la.rank(g1 @ g2) < la.rank(g1)
    _, p_skew = tau_skew(overlap_pair)
    assert not np.allclose(p_skew, np.eye(3))


def test_is_strictly_skew_cases(rng):
    assert random_skew_pair(rng).strictly_skew
    rho = np.diag([0.5, 0.5]).astype(complex)
    assert not WeightedDensityPair.from_states(rho, rho, 0.5).strictly_skew
    g1 = np.diag([0.5, 0.0]).astype(complex)
    g2 = np.diag([0.0, 0.5]).astype(complex)
    assert not WeightedDensityPair(2, g1, g2).strictly_skew


def test_is_strictly_skew_ignores_common_kernel(rng):
    skew = random_skew_pair(rng)
    g1 = np.zeros((5, 5), dtype=complex); g1[:4, :4] = skew.gamma1
    g2 = np.zeros((5, 5), dtype=complex); g2[:4, :4] = skew.gamma2
    assert WeightedDensityPair(5, g1, g2).strictly_skew


def test_lift_identity_reduction(rng):
    pair = random_skew_pair(rng)
    rec = reduce_fully(pair)
    d = pair.dim
    zero = np.zeros((d, d), dtype=complex)
    m = UsdMeasurement(zero, zero, np.eye(d))
    lifted = lift_measurement(m, rec)
    np.testing.assert_allclose(lifted.e_inconclusive, np.eye(d), atol=1e-12)


def test_lift_orthogonal_states_collects_everything():
    g1 = np.diag([0.5, 0.0, 0.0]).astype(complex)
    g2 = np.diag([0.0, 0.3, 0.0]).astype(complex)
    pair = WeightedDensityPair(3, g1, g2)
    rec = reduce_fully(pair)
    zero = np.zeros((3, 3), dtype=complex)
    lifted = lift_measurement(UsdMeasurement(zero, zero, np.eye(3)), rec)
    np.testing.assert_allclose(lifted.e1, np.diag([1, 0, 0]), atol=1e-10)
    np.testing.assert_allclose(lifted.e2, np.diag([0, 1, 0]), atol=1e-10)
    assert success_probability(lifted, pair) == pytest.approx(pair.total_trace)
    assert success_probability(lifted, pair) == pytest.approx(rec.lifted_offset)


def test_lift_dimension_mismatch(rng):
    pair = random_skew_pair(rng)
    rec = reduce_fully(pair)
    zero = np.zeros((3, 3), dtype=complex)
    with pytest.raises(IncompatibleRecord):
        lift_measurement(UsdMeasurement(zero, zero, np.eye(3)), rec)


def test_lift_success_offset_identity(rng):
    # success(lifted) = success(reduced measurement) + offset
    from usdkit.model import complete_measurement
    from usdkit.oracle import random_feasible_inconclusive

    for trial in range(6):
        skew = random_skew_pair(rng)
        blocks = [(0.6 * skew.gamma1, 0.6 * skew.gamma2, 0)]
        extra1 = np.zeros((2, 2), dtype=complex); extra1[0, 0] = 0.25
        extra2 = np.zeros((2, 2), dtype=complex); extra2[1, 1] = 0.15
        blocks.append((extra1, extra2, 4))
        pair, _ = embedded_pair(rng, blocks, 6)
        rec = reduce_fully(pair)
        e_q = random_feasible_inconclusive(rec.reduced_pair, seed=700 + trial)
        m_red = complete_measurement(e_q, rec.reduced_pair)
        lifted = lift_measurement(m_red, rec)
        lifted.validate(pair)
        expect = success_probability(m_red, rec.reduced_pair) + rec.lifted_offset
        assert success_probability(lifted, pair) == pytest.approx(expect, abs=1e-9)

import numpy as np
import pytest

from usdkit import (InvalidInconclusive, NotPSD, UsdMeasurement,
                    WeightedDensityPair, dispatch, is_proper, is_usd,
                    reduce_fully, success_probability)
from usdkit import linalg as la
from usdkit import pipeline
from usdkit.linalg import dag
from usdkit.model import (complete_measurement, failure_probability,
                          projective_kernel_decomposition,
                          reconstruct_from_core, validate_inconclusive)
from usdkit.oracle import random_feasible_inconclusive

from util import (example1_states, jordan_cosine_states,
                  peres_nonproper_measurement, peres_states, random_skew_pair)

IDP = 1 - 1 / np.sqrt(2)  # optimal success for the symmetric |1>,|+> pair


@pytest.fixture
def peres_pair3():
    rho1, rho2 = peres_states(dim=3)
    return WeightedDensityPair.from_states(rho1, rho2, 0.5)


def test_pair_validation_rejects_negative():
    with pytest.raises(NotPSD):
        WeightedDensityPair(2, np.diag([0.5, -0.1]).astype(complex),
                            np.diag([0.25, 0.25]).astype(complex))


def test_pair_validation_rejects_overweight():
    with pytest.raises(ValueError):
        WeightedDensityPair(2, np.diag([0.8, 0.0]).astype(complex),
                            np.diag([0.0, 0.4]).astype(complex))


def test_pair_subnormalized_accepted():
    pair = WeightedDensityPair(2, np.diag([0.3, 0.0]).astype(complex),
                               np.diag([0.0, 0.2]).astype(complex))
    assert pair.total_trace == pytest.approx(0.5)


def test_sweep_stacks_a_prior_only_where_rank_decisions_hold(monkeypatch):
    # rho1 carries an eigenvalue of 5e-8: far above the state's relative
    # cutoff, so it is support of the state.  The rank decisions are the
    # states', so it stays support of the pair at every prior, also at
    # p1 = 5e-6, where its weight puts it below rank_atol = 1e-12, and both
    # priors hold the split of the pair at p1 = 0.5 and stack on it
    rho1, rho2 = example1_states()
    rho1 = rho1 + np.diag([0.0, 0.0, 5e-8, 0.0])
    rho1 = rho1 / np.trace(rho1).real
    p1s = np.array([0.3, 5e-6])
    base = WeightedDensityPair.from_states(rho1, rho2, 0.5)
    fresh = [WeightedDensityPair.from_states(rho1, rho2, p1) for p1 in p1s]
    assert [pair.supports[0].size for pair in fresh] == [3, 3]
    record = reduce_fully(base)
    for pair in fresh:
        assert [s.size for s in base.supports] == \
            [s.size for s in pair.supports]
        assert [s.size for s in record.reduced_pair.supports] == \
            [s.size for s in reduce_fully(pair).reduced_pair.supports]
    # both priors are rows of the stack, on the states of the fresh pairs
    # and of their reduced pairs bit for bit, lifted by base's reduction.
    # The stack answers p1 = 0.3 and leaves p1 = 5e-6 to dispatch, since
    # its answer sits on a class boundary: its tiny PSD block is marginal
    rows_in, answered, dispatched = [], [], []
    real_rows, real_success = pipeline._solve_rows, pipeline._success
    real_dispatch = pipeline.dispatch
    monkeypatch.setattr(pipeline, "_solve_rows", lambda core, c1, c2, *states:
                        rows_in.append((c1, states))
                        or real_rows(core, c1, c2, *states))
    monkeypatch.setattr(pipeline, "_success", lambda m, gamma1, gamma2:
                        answered.extend(zip(gamma1, gamma2))
                        or real_success(m, gamma1, gamma2))
    monkeypatch.setattr(pipeline, "dispatch", lambda pair, **kwargs:
                        dispatched.append(pair)
                        or real_dispatch(pair, **kwargs))
    rows = pipeline.sweep(rho1, rho2, p1s)
    [(c1, (core1, core2))] = rows_in
    np.testing.assert_array_equal(c1, 2.0 * p1s)
    for g1, g2, pair in zip(core1, core2, fresh):
        reduced = reduce_fully(pair).reduced_pair
        np.testing.assert_array_equal(g1, reduced.gamma1)
        np.testing.assert_array_equal(g2, reduced.gamma2)
    [(g1, g2)] = answered
    np.testing.assert_array_equal(g1, fresh[0].gamma1)
    np.testing.assert_array_equal(g2, fresh[0].gamma2)
    offset = float(np.real(np.trace(
        (record.sigma1 + record.sigma2) @ (g1 + g2))))
    assert offset == pytest.approx(reduce_fully(fresh[0]).lifted_offset,
                                   abs=1e-15)
    [left] = dispatched
    np.testing.assert_array_equal(left.gamma1, fresh[1].gamma1)
    assert dispatch(fresh[1], with_certificate=False).boundary
    for row, pair in zip(rows, fresh):
        assert row.success_probability == pytest.approx(
            dispatch(pair, with_certificate=False).success, abs=1e-12)


def test_scaled_root_blocks_are_a_fresh_pairs(monkeypatch):
    # a pair's root blocks, scaled by the weights (c1, c2) = (0.3, 1.7),
    # are those of the pair (c1 gamma1, c2 gamma2) built afresh, up to
    # rounding, with no decomposition; on a pair and on the reduced pair
    # of a pair that shares a support direction
    rho1, rho2 = example1_states()
    shared = np.zeros((5, 5), dtype=complex)
    shared[4, 4] = 1.0
    # a support direction that both states share: the reduction removes it
    overlapping = WeightedDensityPair(
        5, *(0.5 * (0.9 * np.pad(rho, ((0, 1), (0, 1))) + 0.1 * shared)
             for rho in (rho1, rho2)))
    bases = (WeightedDensityPair.from_states(rho1, rho2, 0.5),
             reduce_fully(overlapping).reduced_pair)
    assert bases[1] is not overlapping
    fresh = [WeightedDensityPair(base.dim, 0.3 * base.gamma1,
                                 1.7 * base.gamma2) for base in bases]
    fresh.append(reduce_fully(WeightedDensityPair(
        5, 0.3 * overlapping.gamma1, 1.7 * overlapping.gamma2)).reduced_pair)
    bases = bases + bases[1:]
    for base in bases:
        base.root_blocks

    def refuse(*args, **kwargs):
        raise AssertionError("scaling decomposed a block")

    for name in ("eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    blocks = [(root1.scaled(0.3, 1.7), root2.scaled(1.7, 0.3))
              for root1, root2 in (base.root_blocks for base in bases)]
    monkeypatch.undo()
    for roots, base, own in zip(blocks, bases, fresh):
        for root, ref, b, b_ref in zip(roots, own.root_blocks,
                                       base.supports, own.supports):
            def dense(x, basis):
                return basis.basis @ x @ dag(basis.basis)

            for got, want in (
                    (dense(root.block, b), dense(ref.block, b_ref)),
                    (dense(root.polar, b), dense(ref.polar, b_ref)),
                    (dense(root.inverse_root @ root.inverse_root, b),
                     dense(ref.inverse_root @ ref.inverse_root, b_ref)),
                    (root.spectrum[0], ref.spectrum[0])):
                np.testing.assert_allclose(got, want, atol=1e-12)
            assert root.detection_eigenvalue() == pytest.approx(
                ref.detection_eigenvalue(), rel=1e-12)
            assert root.fidelity_eigenvalue() == pytest.approx(
                ref.fidelity_eigenvalue(), rel=1e-12)


def test_success_zero_measurement(peres_pair3):
    d = peres_pair3.dim
    zero = np.zeros((d, d), dtype=complex)
    m = UsdMeasurement(zero, zero, np.eye(d))
    assert success_probability(m, peres_pair3) == pytest.approx(0.0)


def test_success_orthogonal_projective():
    g1 = np.diag([0.5, 0.0]).astype(complex)
    g2 = np.diag([0.0, 0.5]).astype(complex)
    pair = WeightedDensityPair(2, g1, g2)
    m = UsdMeasurement(np.diag([1.0, 0.0]).astype(complex),
                       np.diag([0.0, 1.0]).astype(complex),
                       np.zeros((2, 2), dtype=complex))
    assert success_probability(m, pair) == pytest.approx(pair.total_trace)


def test_nonproper_example_success_and_properness(peres_pair3):
    e1, e2, e_q = peres_nonproper_measurement()
    m = UsdMeasurement(e1, e2, e_q)
    m.validate(peres_pair3)
    assert is_usd(m, peres_pair3)
    assert success_probability(m, peres_pair3) == pytest.approx(IDP, abs=1e-12)
    assert not is_proper(m, peres_pair3)


def test_projected_nonproper_example_becomes_proper(peres_pair3):
    e1, e2, _ = peres_nonproper_measurement()
    p = peres_pair3.collective_support().projector()
    e1p, e2p = p @ e1 @ p, p @ e2 @ p
    m = UsdMeasurement(e1p, e2p, np.eye(3) - e1p - e2p)
    m.validate(peres_pair3)
    assert is_proper(m, peres_pair3)
    # marginal probabilities survive the projection
    assert success_probability(m, peres_pair3) == pytest.approx(IDP, abs=1e-12)


def test_any_measurement_on_full_support_pair_is_proper(rng):
    pair = random_skew_pair(rng)
    e_q = random_feasible_inconclusive(pair, seed=5)
    m = complete_measurement(e_q, pair)
    assert is_proper(m, pair)


def test_full_support_pair_is_proper_without_a_decomposition(rng, monkeypatch):
    pair = random_skew_pair(rng)
    m = complete_measurement(random_feasible_inconclusive(pair, seed=5), pair)

    def refuse(*args, **kwargs):
        raise AssertionError("la.support called")

    monkeypatch.setattr(la, "support", refuse)
    assert is_proper(m, pair)


def test_full_support_pair_has_an_empty_kernel_without_a_qr(rng, monkeypatch):
    pair = random_skew_pair(rng)
    assert pair.jordan.n_skew == 2

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    assert pair.common_kernel().size == 0
    assert pair.collective_support().size == 4


def test_validate_inconclusive_identity(peres_pair3):
    diag = validate_inconclusive(np.eye(3, dtype=complex), peres_pair3)
    assert diag.ok


def test_validate_inconclusive_zero_fails_on_overlap(peres_pair3):
    diag = validate_inconclusive(np.zeros((3, 3), dtype=complex), peres_pair3)
    assert not diag.ok
    assert not diag.identity_on_kernel  # ker S = span{e2} is not fixed
    assert not diag.separates_states    # gamma1 gamma2 != 0


def test_validate_inconclusive_rejects_non_contraction(peres_pair3):
    diag = validate_inconclusive(2.0 * np.eye(3, dtype=complex), peres_pair3)
    assert not diag.complement_psd and diag.psd


def test_complete_measurement_identity_gives_trivial(peres_pair3):
    m = complete_measurement(np.eye(3, dtype=complex), peres_pair3)
    assert np.allclose(m.e1, 0) and np.allclose(m.e2, 0)


def test_complete_measurement_orthogonal_states():
    g1 = np.diag([0.5, 0.0, 0.0]).astype(complex)
    g2 = np.diag([0.0, 0.3, 0.0]).astype(complex)
    pair = WeightedDensityPair(3, g1, g2)
    e_q = np.diag([0.0, 0.0, 1.0]).astype(complex)
    m = complete_measurement(e_q, pair)
    np.testing.assert_allclose(m.e1, np.diag([1, 0, 0]), atol=1e-10)
    np.testing.assert_allclose(m.e2, np.diag([0, 1, 0]), atol=1e-10)


def test_complete_measurement_rejects_invalid(peres_pair3):
    with pytest.raises(InvalidInconclusive):
        complete_measurement(np.zeros((3, 3), dtype=complex), peres_pair3)


def test_completion_closes_and_validates(rng):
    for trial in range(10):
        pair = random_skew_pair(rng)
        e_q = random_feasible_inconclusive(pair, seed=100 + trial)
        m = complete_measurement(e_q, pair)
        m.validate(pair)
        assert is_usd(m, pair)
        total = success_probability(m, pair) + failure_probability(m, pair)
        assert total == pytest.approx(pair.total_trace, abs=1e-9)


def test_reconstruct_from_core_round_trip(rng):
    for trial in range(10):
        pair = random_skew_pair(rng)
        e_q = random_feasible_inconclusive(pair, seed=200 + trial)
        core = e_q @ (pair.gamma2 - pair.gamma1) @ e_q
        back = reconstruct_from_core(core, pair)
        assert np.linalg.norm(back - e_q) < 1e-8


def test_reconstruct_orthogonal_states_kernel_projector():
    g1 = np.diag([0.5, 0.0, 0.0]).astype(complex)
    g2 = np.diag([0.0, 0.3, 0.0]).astype(complex)
    pair = WeightedDensityPair(3, g1, g2)
    # core = 0 for the projective optimum; expected e_q = projector onto ker S
    back = reconstruct_from_core(np.zeros((3, 3), dtype=complex), pair)
    np.testing.assert_allclose(back, np.diag([0, 0, 1]), atol=1e-10)


def test_reconstruct_peres_round_trip(peres_pair3):
    e1, e2, e_q = peres_nonproper_measurement()
    p = peres_pair3.collective_support().projector()
    e1p, e2p = p @ e1 @ p, p @ e2 @ p
    proper_e_q = np.eye(3) - e1p - e2p
    core = proper_e_q @ (peres_pair3.gamma2 - peres_pair3.gamma1) @ proper_e_q
    back = reconstruct_from_core(core, peres_pair3)
    assert np.linalg.norm(back - proper_e_q) < 1e-9


def test_projective_kernel_decomposition_identity(peres_pair3):
    part1, part2, ker = projective_kernel_decomposition(
        np.eye(3, dtype=complex), peres_pair3)
    assert part1.size == 1 and part2.size == 1 and ker.size == 1
    total = la.subspace_sum(la.subspace_sum(part1, part2), ker)
    assert total.size == 3


def test_projective_kernel_decomposition_sums_to_fixed_space(rng):
    # decomposition identity on completed random measurements
    for trial in range(6):
        pair = random_skew_pair(rng)
        e_q = random_feasible_inconclusive(pair, seed=300 + trial)
        part1, part2, ker = projective_kernel_decomposition(e_q, pair)
        fixed = la.kernel(np.eye(pair.dim) - e_q, pair.tol)
        rebuilt = la.subspace_sum(la.subspace_sum(part1, part2), ker)
        assert rebuilt.size == fixed.size
        if fixed.size:
            np.testing.assert_allclose(rebuilt.projector(), fixed.projector(),
                                       atol=1e-8)


@pytest.mark.parametrize("c1", [0.5, 1 - 1e-8])
def test_detector_bases_are_orthonormal_near_parallel(c1):
    # Subspace promises column-orthonormal bases, however close to
    # parallel a Jordan pair comes
    pair = WeightedDensityPair.from_states(
        *jordan_cosine_states(np.random.default_rng(0), 1 - 1e-6, c1), 0.5)
    for space in (*pair.detector_spaces, pair.collective_support()):
        gram = la.dag(space.basis) @ space.basis
        assert np.abs(gram - np.eye(space.size)).max() <= 1e-12

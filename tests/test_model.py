import numpy as np
import pytest

from usdkit import (InvalidInconclusive, NotPSD, UsdMeasurement,
                    WeightedDensityPair, dispatch, is_proper, is_usd,
                    reduce_fully, success_probability)
from usdkit import linalg as la
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


def test_reweighted_pair_shares_geometry_where_rank_decisions_hold():
    # rho1 carries an eigenvalue of 5e-8: far above the relative cutoff, so
    # it is support at any weight that keeps it above rank_atol = 1e-12
    rho1, rho2 = example1_states()
    rho1 = rho1 + np.diag([0.0, 0.0, 5e-8, 0.0])
    base = WeightedDensityPair(4, 0.5 * rho1, 0.4 * rho2)
    for c1, c2, shares in ((0.6, 1.4, True), (1e-5, 1.0, False)):
        pair = base.reweighted(c1, c2)
        fresh = WeightedDensityPair(4, c1 * base.gamma1, c2 * base.gamma2)
        assert [s.size for s in pair.supports] == \
            [s.size for s in fresh.supports]
        # geometry is shared only by holding the base's split, and then
        # everything read off it is the base's own object
        assert (pair.jordan is base.jordan) == shares
        assert (pair.supports[0] is base.supports[0]) == shares
        assert (pair.collective_support() is base.collective_support()) \
            == shares
        for name in ("detector_spaces", "detectors", "lifts"):
            assert (getattr(pair, name) is getattr(base, name)) == shares
        record, fresh_record = reduce_fully(pair), reduce_fully(fresh)
        assert record.pair is pair
        assert (record.xi is reduce_fully(base).xi) == shares
        assert (record.reduced_pair.jordan
                is reduce_fully(base).reduced_pair.jordan) == shares
        assert record.lifted_offset == pytest.approx(
            fresh_record.lifted_offset, abs=1e-15)
        outcome = dispatch(pair, with_certificate=False)
        assert outcome.success == pytest.approx(
            dispatch(fresh, with_certificate=False).success, abs=1e-12)
    # the eigenvalue is support at c1 = 0.6 and kernel at c1 = 1e-5
    assert base.reweighted(0.6, 1.4).supports[0].size == 3
    assert base.reweighted(1e-5, 1.0).supports[0].size == 2
    with pytest.raises(ValueError):
        base.reweighted(0.0, 1.0)


def test_reweighted_pair_scales_its_lenders_root_blocks(monkeypatch):
    # a reweighted pair, and its reduced pair, reweight the root blocks of
    # the pair they were lent by: no decomposition, and the same roots and
    # polar factors as a pair that computes its own, up to rounding
    rho1, rho2 = example1_states()
    shared = np.zeros((5, 5), dtype=complex)
    shared[4, 4] = 1.0
    # a support direction that both states share: the reduction removes it
    overlapping = WeightedDensityPair(
        5, *(0.5 * (0.9 * np.pad(rho, ((0, 1), (0, 1))) + 0.1 * shared)
             for rho in (rho1, rho2)))
    lenders = (WeightedDensityPair.from_states(rho1, rho2, 0.5),
               reduce_fully(overlapping).reduced_pair)
    assert lenders[1] is not overlapping
    for lender in lenders:
        lender.root_blocks
    pairs = [(lender.reweighted(0.3, 1.7), lender) for lender in lenders]
    pairs.append((reduce_fully(overlapping.reweighted(0.3, 1.7)).reduced_pair,
                  lenders[1]))

    def refuse(*args, **kwargs):
        raise AssertionError("a reweighted pair decomposed its blocks")

    for name in ("eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    blocks = [pair.root_blocks for pair, _ in pairs]
    monkeypatch.undo()
    for roots, (pair, lender) in zip(blocks, pairs):
        assert pair._lender[0] is lender
        own = WeightedDensityPair(pair.dim, pair.gamma1, pair.gamma2)
        for root, ref, b, b_ref in zip(roots, own.root_blocks,
                                       pair.supports, own.supports):
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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the detector bases (b_mu - c b_nu) / sqrt(1 - c^2) take their sines "
    "from the cosines: at c0 = 1 - 1e-6 they are orthonormal only to "
    "2.2e-10, and to 2.2e-8 with c1 = 1 - 1e-8 (ROADMAP item 12)"))
@pytest.mark.parametrize("c1", [0.5, 1 - 1e-8])
def test_detector_bases_are_orthonormal_near_parallel(c1):
    # Subspace promises column-orthonormal bases, and the collective
    # support, read off the same normals, inherits the defect
    pair = WeightedDensityPair.from_states(
        *jordan_cosine_states(np.random.default_rng(0), 1 - 1e-6, c1), 0.5)
    for space in (*pair.detector_spaces, pair.collective_support()):
        gram = la.dag(space.basis) @ space.basis
        assert np.abs(gram - np.eye(space.size)).max() <= 1e-12

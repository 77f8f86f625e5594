from pathlib import Path

import numpy as np
import pytest

from usdkit import (InvalidInconclusive, NotHermitian, NotPSD, UsdMeasurement,
                    WeightedDensityPair, dispatch, is_proper, is_usd,
                    load_problem, reduce_fully, success_probability)
from usdkit import linalg as la
from usdkit import pipeline
from usdkit.linalg import dag
from usdkit.model import (complete_measurement, failure_probability,
                          projective_kernel_decomposition,
                          reconstruct_from_core, validate_inconclusive)
from usdkit.oracle import random_feasible_inconclusive

from util import (REDUCED_SHAPES, example1_states, generic_pair,
                  haar_unitary, jordan_cosine_states,
                  peres_nonproper_measurement, peres_states, random_density,
                  random_skew_pair, record_decompositions,
                  with_eigenvalue_tails)

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


def _embedded_states(rng, c):
    """Rank-3 states on C^6 with one parallel Jordan pair (cosine 1 - 1e-10,
    inside the parallel cutoff), one skew pair of cosine c, one orthogonal
    pair and a one-dimensional common kernel: supports (e0, e1, e2) and
    (c' e0 + s' e5, c e1 + s e3, e4), rotated together."""
    e = np.eye(6, dtype=complex)
    s, c_par = np.sqrt((1 - c) * (1 + c)), 1 - 1e-10
    b1 = e[:, [0, 1, 2]]
    b2 = np.stack([c_par * e[:, 0] + np.sqrt(1 - c_par ** 2) * e[:, 5],
                   c * e[:, 1] + s * e[:, 3], e[:, 4]], axis=1)
    r1, r2 = random_density(rng, 3, 3), random_density(rng, 3, 3)
    u = haar_unitary(rng, 6)
    return tuple(u @ b @ r @ dag(b) @ dag(u)
                 for b, r in ((b1, r1), (b2, r2)))


@pytest.mark.parametrize("c", [0.5, 1 - 1e-8])
@pytest.mark.parametrize("seed", range(3))
def test_collective_support_reads_the_detector_qr(seed, c, monkeypatch):
    # off full support the collective support and the common kernel are
    # read off the complete QR the detector spaces take: one np.linalg.qr
    # call per fresh split, for both
    rho1, rho2 = _embedded_states(np.random.default_rng(seed), c)
    calls = record_decompositions(monkeypatch, ("qr",))
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.4)
    split = pair.jordan
    assert (split.n_parallel, split.n_skew) == (1, 1)
    support, kernel = pair.collective_support(), pair.common_kernel()
    assert [d.size for d in pair.detector_spaces] == [2, 2]
    assert len(calls) == 1
    assert (support.size, kernel.size) == (5, 1)
    basis = np.hstack((support.basis, kernel.basis))
    assert np.abs(dag(basis) @ basis - np.eye(6)).max() <= 1e-13
    # span[B1, the non-parallel columns of B2]: its columns lie in the
    # collective support, which has their joint dimension (B1's parallel
    # column, 1.4e-5 off B2's, is in it; B2's is not)
    b1, b2 = (s.basis for s in split.supports)
    columns = np.hstack((b1, b2[:, split.n_parallel:]))
    p = support.projector()
    assert np.abs(columns - p @ columns).max() <= 1e-13
    # the projector of that span by SVD; at c = 1 - 1e-8 the columns have
    # a singular value near s = 1.4e-4, so any factorisation of them (this
    # SVD, or the complete QR that gave the collective support before) is
    # only good to about 1e-16 / s, and the containment above is the
    # well-conditioned statement
    reference = la.Subspace.from_columns(columns).projector()
    assert np.abs(p - reference).max() <= (1e-13 if c < 0.9 else 1e-11)


def _tests_raise(rho1, rho2, error, name):
    with pytest.raises(error, match=name):
        WeightedDensityPair.from_states(rho1, rho2, 0.5)


def test_from_states_tests_each_state_once():
    rho1, rho2 = example1_states()
    # a tail at -0.4e-10 passes the PSD test, one at -1.5e-10 fails it
    WeightedDensityPair.from_states(*(with_eigenvalue_tails(
        rho, [-0.4e-10, 0.0]) for rho in (rho1, rho2)), 0.5)
    bad1, bad2 = (with_eigenvalue_tails(rho, [-1.5e-10, 0.0])
                  for rho in (rho1, rho2))
    _tests_raise(bad1, rho2, NotPSD, "rho1")
    _tests_raise(rho1, bad2, NotPSD, "rho2")
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1e-3
    _tests_raise(rho1 + skew, rho2, NotHermitian, "rho1")
    _tests_raise(rho1, rho2 + skew, NotHermitian, "rho2")
    # rho1 is tested, both ways, before rho2
    _tests_raise(bad1, rho2 + skew, NotPSD, "rho1")
    _tests_raise(rho1 + skew, bad2, NotHermitian, "rho1")


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


# (problem file, prior): class-11 and class-12 on example1, single state
# detection, the k x k program, the fidelity form and a class-12 answer
# near orthogonal; then the near-parallel grid pairs, bounded by the
# completion's own closure gate
_INVERSE_FILES = (("example1", 0.4), ("example1", 0.5), ("examples2", 0.1),
                  ("skew6", 0.5), ("peres", 0.5), ("near_orthogonal4", 0.1))
_NEAR_PARALLEL_FILES = (("near_parallel11", 0.5), ("near_parallel12", 0.25))


@pytest.mark.parametrize("case", _INVERSE_FILES + _NEAR_PARALLEL_FILES + tuple(
    (shape, p1) for shape in REDUCED_SHAPES for p1 in (0.3, 0.7)), ids=str)
def test_completion_inverts_the_map_of_every_family(case):
    # every family maps its blocks out of detector coordinates; completing
    # the inconclusive element of its answer gives back its e1 and e2
    source, p1 = case
    if isinstance(source, str):
        path = Path(__file__).parent / "data" / f"{source}.json"
        pair = load_problem(path).pair(p1)
    else:
        rho1, rho2 = generic_pair(np.random.default_rng(source), *source)
        pair = WeightedDensityPair.from_states(rho1, rho2, p1)
    m = dispatch(pair, with_certificate=False).measurement
    completed = complete_measurement(m.e_inconclusive, pair)
    bound = pair.tol.equality if case in _NEAR_PARALLEL_FILES else 1e-13
    for e, e_ref in ((completed.e1, m.e1), (completed.e2, m.e2)):
        assert np.abs(e - e_ref).max() <= bound


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

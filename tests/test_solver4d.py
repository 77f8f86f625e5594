import numpy as np
import pytest

from usdkit import (NoSolutionFound, OracleConfig, PreconditionViolated,
                    UsdMeasurement, WeightedDensityPair, check_optimality,
                    reduce_fully, solve_4d, success_probability)
from usdkit import linalg as la
from usdkit.linalg import dag
from usdkit.oracle import oracle_optimize
from usdkit.solver4d import (Rejection, balance_residual_11,
                             balance_residual_12, enumerate_candidates_11,
                             enumerate_candidates_12, finalize_candidate_11,
                             finalize_candidate_12)

from util import (GRID_COSINES, assert_same_answer, degenerate_host_states,
                  example1_states, examples2_states, generic_pair,
                  grid_states, haar_unitary, jordan_cosine_states, lifts,
                  random_density, random_skew_pair, record_decompositions)


def oracle_value(pair, seed=0):
    return oracle_optimize(pair, OracleConfig(seed=seed)).success


def test_solver_matches_oracle_on_random_pairs(rng):
    for trial in range(10):
        pair = random_skew_pair(rng)
        outcome = solve_4d(pair)
        assert outcome.report.is_optimal
        assert abs(outcome.success - oracle_value(pair, seed=trial)) < 1e-6
        assert success_probability(outcome.measurement, pair) == \
            pytest.approx(outcome.success, abs=1e-9)


def test_example1_midpoint_between_bounds():
    rho1, rho2 = example1_states()
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.5)
    outcome = solve_4d(pair)
    lam2 = la.intersect(la.kernel(pair.gamma1), pair.collective_support())
    lam1 = la.intersect(la.kernel(pair.gamma2), pair.collective_support())
    lower = max(np.real(np.trace(lam2.projector() @ pair.gamma2)),
                np.real(np.trace(lam1.projector() @ pair.gamma1)))
    r1, r2 = la.sqrt_psd(pair.gamma1), la.sqrt_psd(pair.gamma2)
    upper = pair.total_trace - 2 * np.sum(np.linalg.svd(r1 @ r2, compute_uv=False))
    assert lower - 1e-12 <= outcome.success <= upper + 1e-12
    assert abs(outcome.success - oracle_value(pair)) < 1e-6


def test_example1_class_sequence():
    rho1, rho2 = example1_states()
    tags = []
    for p1 in np.linspace(0.005, 0.995, 25):
        pair = WeightedDensityPair.from_states(rho1, rho2, float(p1))
        outcome = solve_4d(pair)
        tags.append((outcome.class_tag.e1_rank, outcome.class_tag.e2_rank))
    assert tags[0] == (0, 2)
    assert tags[-1] == (2, 0)
    # the sweep passes through the mixed classes in between
    assert (1, 2) in tags and (2, 1) in tags and (1, 1) in tags


def test_examples2_direct_detection_to_fidelity_transition():
    rho1, rho2 = examples2_states()
    branches = []
    for p1 in np.linspace(0.005, 0.995, 25):
        pair = WeightedDensityPair.from_states(rho1, rho2, float(p1))
        outcome = solve_4d(pair)
        branches.append(outcome.branch)
        assert abs(outcome.success - oracle_value(pair)) < 1e-6
    kinds = [b for b, _ in __import__("itertools").groupby(branches)]
    assert kinds[0] == "single-state-detection"
    # the fidelity form follows single state detection directly
    assert kinds[1] == "fidelity-form"
    assert branches[-1] == "single-state-detection"


def test_examples2_fidelity_region_agrees_at_example_point():
    rho1, rho2 = examples2_states()
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.4)
    outcome = solve_4d(pair)
    assert outcome.branch == "fidelity-form"
    assert outcome.class_tag.as_class == (2, 2)


def test_commuting_blocks_match_pure_state_solution(rng):
    # two diagonal 2x2 blocks: the optimum composes the per-block
    # two-pure-state solutions
    c1, c2 = 0.6, 0.3
    v1 = np.array([c1, np.sqrt(1 - c1 ** 2)], dtype=complex)
    v2 = np.array([c2, np.sqrt(1 - c2 ** 2)], dtype=complex)
    rho1 = np.zeros((4, 4), dtype=complex)
    rho2 = np.zeros((4, 4), dtype=complex)
    rho1[0, 0], rho1[2, 2] = 0.5, 0.5
    rho2[:2, :2] = 0.5 * np.outer(v1, v1.conj())
    rho2[2:, 2:] = 0.5 * np.outer(v2, v2.conj())
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.5)
    outcome = solve_4d(pair)
    # per-block two-pure-state optimum at equal priors:
    # P_block = (1 - overlap) per unit block weight
    expected = 0.5 * (1 - c1) + 0.5 * (1 - c2)
    assert outcome.success == pytest.approx(expected, abs=1e-9)


def test_preconditions():
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    pair = WeightedDensityPair.from_states(rho, rho, 0.5)
    with pytest.raises(PreconditionViolated):
        solve_4d(pair)
    with pytest.raises(PreconditionViolated, match="two Jordan pairs"):
        enumerate_candidates_11(pair)
    # rank-1 states: support is 2-dim, not 4
    v = np.zeros(4, dtype=complex); v[0] = 1
    w = np.ones(4, dtype=complex) / 2
    p2 = WeightedDensityPair.from_states(np.outer(v, v.conj()),
                                         np.outer(w, w.conj()), 0.5)
    with pytest.raises(PreconditionViolated):
        solve_4d(p2)


# ------------------------------------------------------------- candidates

def test_candidates_12_back_substitution(rng):
    checked = 0
    for trial in range(20):
        pair = random_skew_pair(rng)
        for host in (1, 2):
            for cand in enumerate_candidates_12(pair, detect_on=host):
                if cand.x != 0.0:
                    assert balance_residual_12(cand, pair) <= 1e-8
                    checked += 1
    assert checked >= 10


def test_candidates_12_engineered_eigenvector_gate():
    # diagonal-on-support states with g23 = 0 and g21 >= g11: the larger
    # host eigenvector is a candidate
    g1 = np.diag([0.10, 0.08, 0.0, 0.0]).astype(complex)
    q = np.zeros((4, 4), dtype=complex)
    # gamma2 diagonal in the same basis on a skew support
    b1 = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    b2 = np.array([0, 1, 0, 1], dtype=complex) / np.sqrt(2)
    g2 = 0.3 * np.outer(b1, b1.conj()) + 0.2 * np.outer(b2, b2.conj())
    pair = WeightedDensityPair(4, g1, g2)
    cands = enumerate_candidates_12(pair, detect_on=1)
    assert len(cands) >= 1
    for cand in cands:
        assert cand.x == 0.0
        # phi is a host eigenvector
        overlaps = [abs(np.vdot(cand.phi, e)) for e in np.eye(4)[:2]]
        assert max(overlaps) > 1 - 1e-10


def test_candidates_12_nu_gate(rng):
    # candidates with nu >= 1 are rejected with the named reason
    rejected = accepted = 0
    for trial in range(25):
        pair = random_skew_pair(rng)
        for host in (1, 2):
            for cand in enumerate_candidates_12(pair, detect_on=host):
                result = finalize_candidate_12(cand, pair)
                if isinstance(result, Rejection):
                    if result.reason == "nu_ge_one":
                        assert cand.nu >= 1 - 1e-12
                        rejected += 1
                else:
                    assert isinstance(result.measurement, UsdMeasurement)
                    assert 0 < cand.nu < 1
                    # accepted geometry: phi ⊥ phi_perp
                    assert abs(np.vdot(cand.phi, cand.phi_perp)) < 1e-10
                    accepted += 1
    assert rejected >= 1 and accepted >= 1


def test_candidate_12_blocks_are_those_of_its_lifted_inconclusive_element():
    # a class-12 candidate is mapped out from k x k blocks in detector
    # coordinates; its measurement, and its weight nu, are those of the
    # d x d element phi phi^dag + n n^dag + P_ker, n = sqrt(rho) L_h u +
    # L_o C u / sqrt(rho) on the lifts L_mu = D_mu diag(tau_mu)^-1
    # (`util.lifts`, u = B_h^dag phi_perp), completed as E_mu = L_mu
    # T_mu^dag (1 - e_q) T_mu L_mu^dag
    from usdkit.solver4d import _blocks_12

    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(20):
        pair = random_skew_pair(rng, margin=0.1)
        split = pair.jordan
        c, lift = split.cosines[split.skew], lifts(split)
        rest = np.eye(pair.dim) - pair.common_kernel().projector()
        for host in (1, 2):
            h, o = host - 1, 2 - host
            for cand in enumerate_candidates_12(pair, detect_on=host):
                u = dag(split.lifted_columns[h]) @ cand.phi_perp
                root = np.sqrt(cand.rho)
                n = root * lift[h] @ u + lift[o] @ (c * u) / root
                assert cand.nu == pytest.approx(np.vdot(n, n).real, rel=1e-12)
                one_minus_e_q = (rest - np.outer(cand.phi, cand.phi.conj())
                                 - np.outer(n, n.conj()))
                m = split.measurement(*_blocks_12(cand, split))
                for t, el, e in zip(split.lifted_columns, lift,
                                    (m.e1, m.e2)):
                    np.testing.assert_allclose(
                        e, el @ dag(t) @ one_minus_e_q @ t @ dag(el),
                        rtol=0, atol=1e-13)
                checked += 1
    assert checked >= 20


def test_accepted_12_measurement_ranks(rng):
    for trial in range(40):
        pair = random_skew_pair(rng)
        outcome = solve_4d(pair)
        if outcome.class_tag.as_class != (1, 2):
            continue
        tag = outcome.class_tag
        assert {tag.e1_rank, tag.e2_rank} == {1, 2}
        assert la.rank(outcome.measurement.e_inconclusive, pair.tol) == 2
        delta = la.kernel(np.eye(4) - outcome.measurement.e_inconclusive)
        assert delta.size == 1
        return
    pytest.fail("no class-[1,2] optimum found")


def test_candidates_11_back_substitution(rng):
    checked = 0
    for trial in range(25):
        pair = random_skew_pair(rng)
        try:
            cands = enumerate_candidates_11(pair)
        except PreconditionViolated:
            continue
        for cand in cands:
            if cand.x != 0.0:
                scale = max(1.0, pair.total_trace ** 2)
                assert balance_residual_11(cand) <= 1e-8 * scale
                checked += 1
    assert checked >= 5


def _lifted_11(vectors, split):
    """k-vectors of a rank-(1,1) candidate, (psi1, psi1_perp, psi2,
    psi2_perp) or a frame (r1, r2, r1, r2), lifted to C^d: the ker gamma2
    side on the columns of -D1, the ker gamma1 side on those of D2."""
    d1, d2 = (s.basis for s in split.detector_spaces)
    return [-d1 @ vectors[0], -d1 @ vectors[1], d2 @ vectors[2],
            d2 @ vectors[3]]


def test_candidates_11_orthonormal_geometry(rng):
    for trial in range(10):
        pair = random_skew_pair(rng)
        for cand in enumerate_candidates_11(pair):
            psi1, psi1_perp, psi2, psi2_perp = _lifted_11(
                (cand.psi1, cand.psi1_perp, cand.psi2, cand.psi2_perp),
                pair.jordan)
            assert abs(np.vdot(psi1, psi2)) < 1e-8
            assert abs(np.linalg.norm(psi1) - 1) < 1e-10
            assert abs(np.linalg.norm(psi2) - 1) < 1e-10
            assert abs(np.vdot(psi1, psi1_perp)) < 1e-10
            assert abs(np.vdot(psi2, psi2_perp)) < 1e-10
            # psi1 lives in ker gamma2, psi2 in ker gamma1
            assert np.linalg.norm(pair.gamma2 @ psi1) < 1e-8
            assert np.linalg.norm(pair.gamma1 @ psi2) < 1e-8


def test_candidate_11_data_and_measurement_are_the_lifted_reads(rng):
    # the k x k data of every candidate are the d x d reads of the states
    # on its frame lifted to the detector spaces, its acceptance
    # inequalities are those of its lifted vectors, and its mapped-out
    # conclusive elements are |psi><psi| of its lifted directions
    import usdkit.solver4d as s4

    checked = 0
    for trial in range(20):
        pair = random_skew_pair(rng)
        split = pair.jordan
        cosines = split.cosines[split.skew]
        (r1, r2), _, _ = s4._kernel_jordan_data(pair.root_blocks, split,
                                                pair.tol)
        k21, k22, k11, k12 = _lifted_11((r1[0], r2[0], r1[0], r2[0]), split)

        def read(u, gamma, v):
            return complex(np.vdot(u, gamma @ v))

        g1, g2 = pair.gamma1, pair.gamma2
        for cand in enumerate_candidates_11(pair):
            d = cand.jordan_data
            phase = np.exp(1j * d.phase)
            assert abs(read(k21, g1, k22) - d.g13 * phase) < 1e-13
            assert abs(read(k11, g2, k12) - d.g23 / phase) < 1e-13
            assert abs(read(k21, g1, k21) - read(k22, g1, k22) - d.g1) < 1e-13
            assert abs(read(k11, g2, k11) - read(k12, g2, k12) - d.g2) < 1e-13
            assert d.c == cosines[1] / cosines[0]
            psi1, perp1, psi2, perp2 = _lifted_11(
                (cand.psi1, cand.psi1_perp, cand.psi2, cand.psi2_perp), split)
            lifted = tuple(
                abs(np.vdot(perp, psi)) ** 2 * read(psi, g, psi).real
                >= read(perp, g_perp, perp).real - pair.tol.equality
                for perp, psi, g, g_perp in ((perp1, psi2, g2, g1),
                                             (perp2, psi1, g1, g2)))
            assert tuple(s4._acceptance_11(cand, pair.root_blocks, split,
                                           pair.tol)) == lifted
            m = split.measurement(*s4._blocks_11(cand))
            np.testing.assert_allclose(m.e1, np.outer(psi1, psi1.conj()),
                                       rtol=0, atol=1e-13)
            np.testing.assert_allclose(m.e2, np.outer(psi2, psi2.conj()),
                                       rtol=0, atol=1e-13)
            checked += 1
    assert checked >= 20


def test_near_parallel_class_11_maps_out_its_directions():
    # at cosine 1 - 1e-8 the blocks psi psi^dag are mapped out on the
    # orthonormal detector bases with no scale, so e1 and e2 are the
    # projectors onto the lifted directions and the answer stays class-11
    import usdkit.solver4d as s4

    states = jordan_cosine_states(np.random.default_rng(1), 1 - 1e-8, 0.1)
    for p1 in (0.3, 0.7):
        pair = WeightedDensityPair.from_states(*states, p1)
        outcome = solve_4d(pair)
        assert outcome.branch == "class-11"
        assert outcome.class_tag.as_class == (1, 1)
        split = pair.jordan
        for cand in enumerate_candidates_11(pair):
            psi1, _, psi2, _ = _lifted_11(
                (cand.psi1, cand.psi1_perp, cand.psi2, cand.psi2_perp), split)
            m = split.measurement(*s4._blocks_11(cand))
            np.testing.assert_allclose(m.e1, np.outer(psi1, psi1.conj()),
                                       rtol=0, atol=1e-13)
            np.testing.assert_allclose(m.e2, np.outer(psi2, psi2.conj()),
                                       rtol=0, atol=1e-13)


def test_degenerate_branch_flags_discarded_family():
    # in the g23 = 0 branch the mixing-angle family is excluded by
    # uniqueness; the solver flags any numerically admissible one
    from usdkit import UsdNumericsWarning

    pair = WeightedDensityPair.from_states(*degenerate_host_states(), 0.5)
    with pytest.warns(UsdNumericsWarning):
        enumerate_candidates_12(pair, detect_on=1)


@pytest.mark.filterwarnings("ignore::usdkit.errors.UsdNumericsWarning")
def test_candidate_11_von_neumann_blockwise_instance():
    # two 2x2 blocks with asymmetric weights, engineered so block A sits in
    # its detect-state-2 window and block B in its detect-state-1 window:
    # the overall optimum is the von Neumann (1,1) measurement assembled
    # from the per-block detections
    v = np.array([1, 1], dtype=complex) / np.sqrt(2)
    e0 = np.array([1, 0], dtype=complex)
    rho1 = np.zeros((4, 4), dtype=complex)
    rho2 = np.zeros((4, 4), dtype=complex)
    rho1[:2, :2] = 0.1 * np.outer(e0, e0.conj())
    rho1[2:, 2:] = 0.9 * np.outer(v, v.conj())
    rho2[:2, :2] = 0.9 * np.outer(v, v.conj())
    rho2[2:, 2:] = 0.1 * np.outer(e0, e0.conj())
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.5)
    outcome = solve_4d(pair)
    assert outcome.class_tag.as_class == (1, 1)
    assert outcome.class_tag.is_von_neumann
    assert abs(outcome.success - oracle_value(pair)) < 1e-6
    # the accepted directions are kernel basis vectors (block structure
    # makes the cross elements vanish)
    for cand in enumerate_candidates_11(pair):
        assert cand.x == 0.0


def test_exclusivity_all_accepted_measurements_coincide(rng):
    # finalized measurements from every family agree within 1e-6
    for trial in range(6):
        pair = random_skew_pair(rng)
        accepted = []
        from usdkit import try_fidelity_form, try_single_state_detection
        for fam in (try_single_state_detection, try_fidelity_form):
            oc = fam(pair)
            if oc is not None:
                accepted.append(oc.measurement)
        for host in (1, 2):
            for cand in enumerate_candidates_12(pair, detect_on=host):
                oc = finalize_candidate_12(cand, pair)
                if not isinstance(oc, Rejection):
                    accepted.append(oc.measurement)
        for cand in enumerate_candidates_11(pair):
            oc = finalize_candidate_11(cand, pair)
            if not isinstance(oc, Rejection):
                accepted.append(oc.measurement)
        assert len(accepted) >= 1
        for m in accepted[1:]:
            assert np.linalg.norm(m.e_inconclusive
                                  - accepted[0].e_inconclusive) < 1e-6


def _two_block_pair():
    """A (4;2,2) pair of two 2x2 blocks: both cross elements vanish."""
    def block_state(weight_a, angle_a, weight_b, angle_b):
        g = np.zeros((4, 4), dtype=complex)
        for lo, weight, angle in ((0, weight_a, angle_a), (2, weight_b, angle_b)):
            v = np.array([np.cos(angle), np.sin(angle)])
            g[lo:lo + 2, lo:lo + 2] = weight * np.outer(v, v)
        return g

    return WeightedDensityPair(4, block_state(0.1, 0.0, 0.3, 1.1),
                               block_state(0.2, 0.5, 0.4, 0.0))


def test_class11_kernel_bases_take_no_svd(monkeypatch):
    # the kernel Jordan pairs are read off the pair's split, which the
    # pair classified once
    pair = _two_block_pair()
    assert pair.strictly_skew
    # the root blocks, which the fidelity form reads first, take their
    # one SVD before the candidates read them
    pair.root_blocks
    calls = record_decompositions(monkeypatch, ("svd",))
    enumerate_candidates_11(pair)
    assert calls == []


def test_kernel_jordan_data_reads_the_split(rng):
    # equal-angle pair: supp gamma2 tilts both axes of supp gamma1 by the
    # same angle, so the two cosines coincide and the kernel bases are
    # rotated to make gamma1's form on the ker(gamma2) basis diagonal; so
    # are its copies conjugated by a random unitary
    import usdkit.solver4d as s4

    c, s = np.cos(0.4), np.sin(0.4)
    b1 = np.eye(4, dtype=complex)[:, :2]
    b2 = np.array([[c, 0, s, 0], [0, c, 0, s]], dtype=complex).T
    rho1 = b1 @ random_density(rng, 2, 2) @ dag(b1)
    rho2 = b2 @ random_density(rng, 2, 2) @ dag(b2)
    pairs = [WeightedDensityPair.from_states(rho1, rho2, 0.4)]
    for seed in (1, 2, 3):
        u = haar_unitary(np.random.default_rng(seed), 4)
        pairs.append(WeightedDensityPair.from_states(
            u @ rho1 @ dag(u), u @ rho2 @ dag(u), 0.4))
    for pair in pairs:
        split = pair.jordan
        cosines = split.cosines[split.skew]
        np.testing.assert_allclose(cosines, [c, c], atol=1e-12)
        (r1, r2), data, _ = s4._kernel_jordan_data(pair.root_blocks, split,
                                                   pair.tol)
        assert data.g13 == 0.0
        k21, k22, k11, k12 = (
            _lifted_11((r1[0], r2[0], r1[0], r2[0]), split))
        overlap = dag(np.column_stack((k11, k12))) @ np.column_stack(
            (k21, k22))
        np.testing.assert_allclose(overlap, np.diag(np.diag(overlap)),
                                   atol=1e-9)
        assert np.all(np.abs(np.diag(overlap).imag) < 1e-12)
        assert np.all(np.diag(overlap).real > 0)
        assert data.c == cosines[1] / cosines[0]


# ---------------------------------------------------------------- reports

def _rotated(rng, rho1, rho2, p1, d=4):
    """The pair of (rho1, rho2) at p1, padded with zeros to C^d and
    conjugated by a random unitary."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    n = rho1.shape[0]
    pad = [np.zeros((d, d), dtype=complex) for _ in range(2)]
    pad[0][:n, :n], pad[1][:n, :n] = rho1, rho2
    return WeightedDensityPair.from_states(q @ pad[0] @ dag(q),
                                           q @ pad[1] @ dag(q), p1)


def _report_cases():
    from usdkit import reduce_fully

    rng = np.random.default_rng([7, 4, 2, 2])
    ex1, ex2 = example1_states(), examples2_states()
    reduced = reduce_fully(WeightedDensityPair.from_states(
        *generic_pair(np.random.default_rng([0, 5, 2, 3]), 5, 2, 3), 0.5))
    return {
        "single-state-detection": ("single-state-detection",
                                   _rotated(rng, *ex1, 0.95)),
        "fidelity-form": ("fidelity-form", _rotated(rng, *ex2, 0.4)),
        "class-12": ("class-12", _rotated(rng, *ex1, 0.7)),
        "class-11": ("class-11", _rotated(rng, *ex1, 0.4)),
        # a common kernel of dimension two
        "embedded-in-c6": ("class-12", _rotated(rng, *ex1, 0.2, d=6)),
        # the (2, 2) core of a (5; 2, 3) pair, on C^5
        "reduced-5-2-3": ("class-12", reduced.reduced_pair),
    }


@pytest.mark.parametrize("case", ["single-state-detection", "fidelity-form",
                                  "class-12", "class-11", "embedded-in-c6",
                                  "reduced-5-2-3"])
def test_outcome_report_is_a_fresh_check_of_its_measurement(case):
    # each family checks its measurement once, on the pair it is given;
    # that report must be a fresh check of the measurement on the pair
    branch, pair = _report_cases()[case]
    outcome = solve_4d(pair)
    assert outcome.branch == branch
    report = outcome.report
    fresh = check_optimality(outcome.measurement, pair)
    for name in ("residual_a1", "residual_a2", "residual_cross",
                 "residual_b", "residual_antihermitian"):
        assert getattr(report, name) == pytest.approx(
            getattr(fresh, name), abs=1e-12), name
    for name in ("cond_a1", "cond_a2", "cond_cross", "cond_b"):
        assert getattr(report, name) == getattr(fresh, name), name
    assert report.is_optimal
    assert outcome.success == pytest.approx(
        success_probability(outcome.measurement, pair), abs=1e-12)


def test_uncompletable_candidate_is_rejected_as_such(monkeypatch):
    # a candidate whose mapped-out inconclusive element is not valid never
    # reaches the optimality check
    import usdkit.optimality as optimality
    import usdkit.solver4d as s4
    from usdkit.model import InconclusiveDiagnostics

    rho1, rho2 = example1_states()
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.7)
    cands = [c for host in (1, 2)
             for c in enumerate_candidates_12(pair, detect_on=host)
             if 0 < c.nu < 1 - pair.tol.rank_atol]
    assert cands

    def refuse(e_q, pair):
        return InconclusiveDiagnostics(True, False, True, True,
                                       0.0, 1.0, 0.0, 0.0)

    def unreachable(m, pair):
        raise AssertionError("checked a measurement that was never built")

    monkeypatch.setattr(s4, "validate_inconclusive", refuse)
    monkeypatch.setattr(optimality, "check_optimality", unreachable)
    for cand in cands:
        assert finalize_candidate_12(cand, pair) == Rejection("not_completable")


def test_a_sweep_row_on_a_class_transition_is_the_fresh_answer():
    # at the upper end of examples2's fidelity window the fidelity form
    # passes on the boundary to class-12, so the prior is left to a fresh
    # dispatch, which names the fidelity form with boundary set.  The
    # class-12 row before it hands nothing on to it
    from usdkit.closed_form import fidelity_window
    from usdkit.pipeline import dispatch, sweep

    states = examples2_states()
    u = fidelity_window(*states).upper
    rows = sweep(*states, [u + 1e-3, u])
    fresh = dispatch(WeightedDensityPair.from_states(*states, u),
                     with_certificate=False)
    assert rows[0].branch == "class-12"
    assert fresh.branch == "fidelity-form" and fresh.boundary
    assert_same_answer(rows[1], fresh)


def _solved_on_reduced_pair(cosines, seed, p1):
    """solve_4d's outcome on the reduced pair of `jordan_cosine_states`,
    asserted to pass the four-condition check there."""
    rho1, rho2 = jordan_cosine_states(np.random.default_rng(seed), *cosines)
    pair = reduce_fully(
        WeightedDensityPair.from_states(rho1, rho2, p1)).reduced_pair
    outcome = solve_4d(pair)
    assert outcome.optimal
    assert check_optimality(outcome.measurement, pair).is_optimal
    return outcome


@pytest.mark.parametrize("p1", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_completion_through_the_lifts_answers_a_near_degenerate_core(p1):
    # one cosine 1e-6 from parallel, the other 1e-6 from orthogonal: a
    # class-12 measurement mapped out of detector coordinates
    # (`JordanSplit.measurement`), with no inverse of gamma1 + gamma2 and
    # its own rank decision, passes the check
    _solved_on_reduced_pair((1 - 1e-6, 1e-6), 1, p1)


@pytest.mark.parametrize("p1", [0.05, 0.25, 0.5])
def test_near_parallel_class_12_host_element_is_rank_one(p1):
    # one cosine 1e-6 from parallel: the host block (1 - rho) u u^dag is a
    # rank-one outer product mapped out once by the detector basis, so the
    # host element keeps rank one and the answer is tagged (1,2), off any
    # class boundary
    rho1, rho2 = jordan_cosine_states(np.random.default_rng(1),
                                      1 - 1e-6, 1e-6)
    outcome = solve_4d(WeightedDensityPair.from_states(rho1, rho2, p1))
    assert outcome.branch == "class-12" and not outcome.boundary
    tag = outcome.class_tag
    assert (tag.e1_rank, tag.e2_rank) == (1, 2)
    values = np.linalg.svd(outcome.measurement.e1, compute_uv=False)
    assert values[1] < 1e-14 * values[0]


@pytest.mark.parametrize("cosines, p1", [
    ((0.99, 0.1), 0.9), ((0.99, 0.1), 0.95), ((0.99, 0.01), 0.85),
    ((1 - 1e-6, 1e-3), 0.1), ((1 - 1e-6, 1e-3), 0.5),
    ((1 - 1e-6, 1e-3), 0.9)])
def test_class_11_keeps_the_roots_of_small_leading_coefficients(cosines, p1):
    # at a small ratio c = c1 / c0 the leading coefficients of the
    # class-[1,1] polynomial are tiny, and the roots near 1/c they carry
    # are the answer; zeroing them relative to the largest coefficient
    # left no family
    _solved_on_reduced_pair(cosines, 0, p1)


def test_stacked_roots_are_those_of_np_roots_per_polynomial():
    # one stacked companion matrix per trimmed degree gives each row the
    # real nonzero roots np.roots finds, in its order; rows with leading
    # or trailing zeros are trimmed as np.roots trims them
    from usdkit.solver4d import _REAL_ROOT_TOL, _real_nonzero_roots

    rng = np.random.default_rng(22)
    coeffs = rng.normal(size=(40, 7))
    coeffs[3, :2] = 0.0
    coeffs[5, -1] = 0.0
    coeffs[7, :6] = 0.0
    coeffs[9] = 0.0
    coeffs[11, [0, 1, 6]] = 0.0
    rows, roots = _real_nonzero_roots(coeffs)
    assert np.all(np.diff(rows) >= 0)
    for i, row in enumerate(coeffs):
        trimmed = np.trim_zeros(row, "f")
        z = np.roots(trimmed) if len(trimmed) > 1 else np.zeros(0)
        expected = [r.real for r in z
                    if abs(r.imag) <= _REAL_ROOT_TOL * (1.0 + abs(r.real))
                    and abs(r.real) > 1e-12]
        np.testing.assert_allclose(roots[rows == i], expected, rtol=1e-12,
                                   atol=1e-14)


# the near-parallel cores of the cosine grid at seed 0: c0 >= 1 - 1e-4 and
# c1 > 1e-4, at five priors
_NEAR_PARALLEL_GRID = [
    (c0, c1, p1) for i, c0 in enumerate(GRID_COSINES)
    for c1 in GRID_COSINES[:i + 1] if c0 >= 1 - 1e-4 and c1 > 1e-4
    for p1 in (0.1, 0.3, 0.5, 0.7, 0.9)]
_NO_FAMILY = pytest.mark.xfail(strict=True, raises=NoSolutionFound, reason=(
    "both cosines 1 - 1e-8 at p1 = 0.1: no family passes its check "
    "(ROADMAP item 12)"))


@pytest.mark.parametrize("c0, c1, p1", [
    pytest.param(*case, marks=_NO_FAMILY)
    if case == (1 - 1e-8, 1 - 1e-8, 0.1) else case
    for case in _NEAR_PARALLEL_GRID])
def test_solve_4d_answers_every_near_parallel_grid_core(c0, c1, p1):
    # the families map their answers out on orthonormal detector bases,
    # so a cosine within 1e-8 of parallel costs no family its answer
    core = WeightedDensityPair.from_states(
        *grid_states(0, c0, c1), p1).reduction.reduced_pair
    assert solve_4d(core).optimal

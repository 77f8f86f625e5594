import numpy as np
import pytest

from usdkit import (DEFAULT_TOL, PreconditionViolated, WeightedDensityPair,
                    check_optimality, classify, fidelity_window,
                    reduce_fully, single_detection_window,
                    success_probability, try_fidelity_form,
                    try_single_state_detection)
from usdkit import linalg as la
from usdkit.linalg import dag

from util import (REDUCED_SHAPES, example1_states, examples2_states,
                  generic_pair, peres_states, random_density,
                  random_skew_pair, random_unit)


def pure_pair(rng, overlap):
    """Two unit vectors with |<a|b>| = overlap, in C^2."""
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([overlap, np.sqrt(1 - overlap ** 2)], dtype=complex)
    return np.outer(a, a.conj()), np.outer(b, b.conj())


def bures_success(pair):
    r1 = la.sqrt_psd(pair.gamma1)
    r2 = la.sqrt_psd(pair.gamma2)
    return pair.total_trace - 2 * float(
        np.sum(np.linalg.svd(r1 @ r2, compute_uv=False)))


def assert_windows_match_dense(rho1, rho2):
    """Both detection windows and the fidelity window agree within 1e-12
    relative with their formulas on the full operators, evaluated with
    `la.sqrt_psd` and `la.pseudo_inverse`: the reference for the windows'
    blocks (`WeightedDensityPair.root_blocks`)."""
    def detection(a, b):  # smallest eigenvalue on supp a
        sup = la.support(a)
        inv = la.pseudo_inverse(la.sqrt_psd(a))
        op = la.hermitian_part(dag(sup.basis) @ inv @ b @ inv @ sup.basis)
        lam = float(np.linalg.eigvalsh(op).min())
        return lam if lam > DEFAULT_TOL.rank_cutoff else 0.0

    def fidelity(a, b):
        root = la.sqrt_psd(a)
        inv = la.pseudo_inverse(root)
        op = inv @ la.sqrt_psd(root @ b @ root) @ inv
        mu = float(np.linalg.eigvalsh(la.hermitian_part(op)).max())
        return mu, mu ** 2 / (1 + mu ** 2)

    for a, b in ((rho1, rho2), (rho2, rho1)):
        assert single_detection_window(a, b).spectral_quantity == \
            pytest.approx(detection(a, b), rel=1e-12, abs=1e-300)
    (mu1, m1), (_, m2) = fidelity(rho1, rho2), fidelity(rho2, rho1)
    window = fidelity_window(rho1, rho2)
    assert window.spectral_quantity == pytest.approx(mu1, rel=1e-12)
    assert window.lower == pytest.approx(m1, rel=1e-12)
    assert window.upper == pytest.approx(1 - m2, rel=1e-12)


def assert_polar_factors_match_dense(pair):
    """The fidelity form's F_mu = sqrt(sqrt(g_mu) g_nu sqrt(g_mu)), read off
    the pair's root blocks, agree within 1e-12 relative with square roots
    of the full operators."""
    r1, r2 = la.sqrt_psd(pair.gamma1), la.sqrt_psd(pair.gamma2)
    dense = (la.sqrt_psd(r1 @ pair.gamma2 @ r1),
             la.sqrt_psd(r2 @ pair.gamma1 @ r2))
    for root, support, f in zip(pair.root_blocks, pair.supports, dense):
        b = support.basis
        np.testing.assert_allclose(b @ root.polar @ dag(b), f, rtol=0,
                                   atol=1e-12 * np.abs(f).max())


# ---------------------------------------------------------------- SSD

def test_ssd_tiny_prior_detects_other_state(rng):
    pair = random_skew_pair(rng, p1=1e-3)
    outcome = try_single_state_detection(pair)
    assert outcome is not None
    assert np.abs(outcome.measurement.e1).max() < 1e-12
    tag = outcome.class_tag
    assert (tag.e1_rank, tag.e2_rank) == (0, 2)
    assert tag.is_von_neumann


def test_ssd_not_applicable_for_balanced_pure_states():
    # equal priors, overlap c with c^2/(1+c^2) < 1/2: no detection branch
    rho1, rho2 = pure_pair(np.random.default_rng(0), overlap=1 / np.sqrt(2))
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.5)
    assert try_single_state_detection(pair) is None
    window = single_detection_window(rho1, rho2)
    assert window.spectral_quantity == pytest.approx(0.5, abs=1e-12)
    assert window.upper == pytest.approx(1 / 3, abs=1e-12)
    assert not window.contains(0.5)


def test_ssd_example1_small_prior_applicable():
    rho1, rho2 = example1_states()
    window = single_detection_window(rho1, rho2)
    assert 0 < window.upper < 0.1
    pair = WeightedDensityPair.from_states(rho1, rho2, window.upper / 2)
    outcome = try_single_state_detection(pair)
    assert outcome is not None
    assert outcome.class_tag.as_class == (0, 2)
    # success = tr(Lambda2 gamma2)
    lam2 = la.intersect(la.kernel(pair.gamma1), pair.collective_support())
    assert outcome.success == pytest.approx(
        float(np.real(np.trace(lam2.projector() @ pair.gamma2))), abs=1e-12)


def test_ssd_requires_disjoint_supports():
    g1 = np.diag([0.2, 0.3, 0.0]).astype(complex)
    g2 = np.diag([0.1, 0.0, 0.4]).astype(complex)
    with pytest.raises(PreconditionViolated):
        try_single_state_detection(WeightedDensityPair(3, g1, g2))


def test_single_detection_window_pure_states():
    for overlap in (0.3, 0.6, 0.9):
        rho1, rho2 = pure_pair(np.random.default_rng(1), overlap)
        window = single_detection_window(rho1, rho2)
        lam = overlap ** 2
        assert window.spectral_quantity == pytest.approx(lam, abs=1e-12)
        assert window.upper == pytest.approx(lam / (1 + lam), abs=1e-12)
        assert_windows_match_dense(rho1, rho2)


def test_single_detection_window_empty_when_kernel_meets_support():
    # supp rho1 contains a direction in ker rho2
    rho1 = np.diag([0.5, 0.5, 0.0]).astype(complex)
    rho2 = np.diag([0.0, 0.5, 0.5]).astype(complex)
    window = single_detection_window(rho1, rho2)
    assert window.is_empty


def test_boundary_flag_fires_only_at_window_endpoint():
    rho1, rho2 = example1_states()
    window = single_detection_window(rho1, rho2)
    at_edge = try_single_state_detection(
        WeightedDensityPair.from_states(rho1, rho2, window.upper))
    inside = try_single_state_detection(
        WeightedDensityPair.from_states(rho1, rho2, window.upper - 1e-3))
    assert at_edge is not None and at_edge.boundary
    assert inside is not None and not inside.boundary


def test_single_detection_window_example1_matches_boundary():
    # at the window endpoint the PSD condition is marginal; just inside it
    # holds, just outside it fails
    rho1, rho2 = example1_states()
    window = single_detection_window(rho1, rho2)
    eps = 1e-6
    inside = WeightedDensityPair.from_states(rho1, rho2, window.upper - eps)
    outside = WeightedDensityPair.from_states(rho1, rho2, window.upper + eps)
    assert try_single_state_detection(inside) is not None
    assert try_single_state_detection(outside) is None


# ---------------------------------------------------------------- fidelity

def test_fidelity_orthogonal_blocks_trivial():
    g1 = np.diag([0.3, 0.2, 0.0, 0.0]).astype(complex)
    g2 = np.diag([0.0, 0.0, 0.3, 0.2]).astype(complex)
    pair = WeightedDensityPair(4, g1, g2)
    outcome = try_fidelity_form(pair)
    assert outcome is not None
    assert outcome.success == pytest.approx(pair.total_trace, abs=1e-12)


def test_fidelity_symmetric_pure_states_value():
    for overlap in (0.2, 1 / np.sqrt(2), 0.8):
        rho1, rho2 = pure_pair(np.random.default_rng(2), overlap)
        pair = WeightedDensityPair.from_states(rho1, rho2, 0.5)
        outcome = try_fidelity_form(pair)
        assert outcome is not None
        assert outcome.success == pytest.approx(1 - overlap, abs=1e-12)
        assert success_probability(outcome.measurement, pair) == pytest.approx(
            1 - overlap, abs=1e-10)


def test_fidelity_matches_bures_expression(rng):
    hits = 0
    for _ in range(40):
        pair = random_skew_pair(rng)
        assert_polar_factors_match_dense(pair)
        outcome = try_fidelity_form(pair)
        if outcome is None:
            continue
        hits += 1
        assert outcome.success == pytest.approx(bures_success(pair), abs=1e-9)
        assert check_optimality(outcome.measurement, pair).is_optimal
    assert hits >= 3  # the window is hit regularly by random draws


def test_fidelity_form_refuses_just_outside_its_window():
    # 5e-11 above the window's upper edge the closed-form inconclusive
    # element is not PSD-complementable; the family refuses instead of
    # raising InvalidInconclusive, so the next family can answer
    from util import examples2_states

    rho1, rho2 = examples2_states()
    assert fidelity_window(rho1, rho2).upper < 0.47839405
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.47839405)
    assert pair.strictly_skew
    assert try_fidelity_form(pair) is None


def test_fidelity_window_pure_states_abut_detection_windows():
    for overlap in (0.25, 0.5, 0.75):
        rho1, rho2 = pure_pair(np.random.default_rng(3), overlap)
        w_fid = fidelity_window(rho1, rho2)
        w_ssd1 = single_detection_window(rho1, rho2)
        w_ssd2 = single_detection_window(rho2, rho1)
        assert w_fid.lower == pytest.approx(w_ssd1.upper, abs=1e-10)
        assert 1 - w_fid.upper == pytest.approx(w_ssd2.upper, abs=1e-10)


def test_fidelity_window_example1_consistent():
    rho1, rho2 = example1_states()
    assert_windows_match_dense(rho1, rho2)
    assert_polar_factors_match_dense(
        WeightedDensityPair.from_states(rho1, rho2, 0.4))
    window = fidelity_window(rho1, rho2)
    if window.is_empty:
        # no prior admits the fidelity form: verify at a midpoint
        pair = WeightedDensityPair.from_states(rho1, rho2, 0.5)
        assert try_fidelity_form(pair) is None
    else:
        mid = 0.5 * (window.lower + window.upper)
        pair = WeightedDensityPair.from_states(rho1, rho2, mid)
        assert try_fidelity_form(pair) is not None


def test_fidelity_window_empty_case(rng):
    # scan random rank-2 pairs for an instance with m1 + m2 > 1 and verify
    # the form indeed never applies on a prior scan
    found = None
    for _ in range(200):
        rho1 = random_density(rng, 4, 2)
        rho2 = random_density(rng, 4, 2)
        window = fidelity_window(rho1, rho2)
        if window.is_empty:
            found = (rho1, rho2)
            break
    assert found is not None, "no empty-window instance in 200 draws"
    rho1, rho2 = found
    for p1 in np.linspace(0.05, 0.95, 19):
        pair = WeightedDensityPair.from_states(rho1, rho2, float(p1))
        if la.intersect(la.support(pair.gamma1), la.support(pair.gamma2)).size:
            continue
        assert try_fidelity_form(pair) is None


def test_window_partition_for_pure_states(rng):
    # detection and fidelity windows partition (0,1) for rank-1 states
    for _ in range(20):
        v1, v2 = random_unit(rng, 3), random_unit(rng, 3)
        rho1 = np.outer(v1, v1.conj())
        rho2 = np.outer(v2, v2.conj())
        w1 = single_detection_window(rho1, rho2)
        w2 = single_detection_window(rho2, rho1)
        wf = fidelity_window(rho1, rho2)
        assert wf.lower == pytest.approx(w1.upper, abs=1e-10)
        assert wf.upper == pytest.approx(1 - w2.upper, abs=1e-10)
        assert_windows_match_dense(rho1, rho2)


def test_windows_and_polar_factors_match_dense_formulas():
    # the cases the tests above do not take: a seeded pair of each shape
    # that the reductions shrink, examples2 and Peres in C^2 and C^3, each
    # on the pair at p1 = 0.4 and on its reduced pair
    cases = [generic_pair(np.random.default_rng(shape), *shape)
             for shape in REDUCED_SHAPES]
    cases += [examples2_states(), peres_states(), peres_states(dim=3)]
    for rho1, rho2 in cases:
        assert_windows_match_dense(rho1, rho2)
        pair = WeightedDensityPair.from_states(rho1, rho2, 0.4)
        assert_polar_factors_match_dense(pair)
        assert_polar_factors_match_dense(reduce_fully(pair).reduced_pair)


def test_balanced_inconclusive_iff_fidelity_form(rng):
    # e g1 e = e g2 e holds for the built form, and a completed feasible
    # operator satisfying that balance reproduces the closed form
    from usdkit.model import reconstruct_from_core

    hits = 0
    for _ in range(30):
        pair = random_skew_pair(rng)
        outcome = try_fidelity_form(pair)
        if outcome is None:
            continue
        hits += 1
        e = outcome.measurement.e_inconclusive
        lhs = e @ pair.gamma1 @ e
        rhs = e @ pair.gamma2 @ e
        assert np.linalg.norm(lhs - rhs) < 1e-9
        # converse: balance forces a vanishing core, and the core identity
        # reconstructs exactly this operator
        rebuilt = reconstruct_from_core(np.zeros_like(e), pair)
        assert np.linalg.norm(rebuilt - e) < 1e-8
    assert hits >= 2


def test_ssd_outcome_is_von_neumann(rng):
    seen = 0
    for _ in range(30):
        pair = random_skew_pair(rng)
        outcome = try_single_state_detection(pair)
        if outcome is None:
            continue
        seen += 1
        tag = classify(outcome.measurement, pair)
        assert tag.is_von_neumann
        assert tag.as_class == (0, 2)
    assert seen >= 2

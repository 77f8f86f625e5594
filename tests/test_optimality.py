from pathlib import Path

import numpy as np
import pytest

from usdkit import (CertificateFailure, NotProper, OracleConfig,
                    PreconditionViolated, UsdMeasurement, WeightedDensityPair,
                    build_certificate, check_optimality, classify, is_proper,
                    reduce_fully, solve_4d, success_probability,
                    try_fidelity_form, try_single_state_detection)
from usdkit import linalg as la
from usdkit.optimality import (count_types_classes, projective_part_law,
                               rank_law_check)
from usdkit.oracle import FeasibleSet, oracle_optimize
from usdkit.pipeline import dispatch, load_problem

from util import (REDUCED_SHAPES, dense_certificate, generic_pair,
                  peres_nonproper_measurement, peres_states,
                  random_direction, random_skew_pair,
                  record_decompositions)

CERT_RESIDUAL = 1e-7


@pytest.fixture
def peres_pair3():
    rho1, rho2 = peres_states(dim=3)
    return WeightedDensityPair.from_states(rho1, rho2, 0.5)


def projected_peres_measurement(pair):
    e1, e2, _ = peres_nonproper_measurement()
    p = pair.collective_support().projector()
    e1p, e2p = p @ e1 @ p, p @ e2 @ p
    return UsdMeasurement(e1p, e2p, np.eye(3) - e1p - e2p)


def test_peres_projected_measurement_is_optimal(peres_pair3):
    m = projected_peres_measurement(peres_pair3)
    report = check_optimality(m, peres_pair3)
    assert report.is_optimal


def test_nonproper_measurement_raises(peres_pair3):
    e1, e2, e_q = peres_nonproper_measurement()
    with pytest.raises(NotProper):
        check_optimality(UsdMeasurement(e1, e2, e_q), peres_pair3)


def test_trivial_inconclusive_is_not_optimal(peres_pair3):
    d = peres_pair3.dim
    zero = np.zeros((d, d), dtype=complex)
    report = check_optimality(UsdMeasurement(zero, zero, np.eye(d)),
                              peres_pair3)
    assert not report.is_optimal


def test_forced_detection_on_violating_pair(rng):
    # (0, L2, 1-L2) is suboptimal when the detection PSD condition fails
    for _ in range(50):
        pair = random_skew_pair(rng)
        cond = pair.gamma1 @ (pair.gamma2 - pair.gamma1) @ pair.gamma1
        if np.linalg.eigvalsh(la.hermitian_part(cond))[0] > -1e-6:
            continue
        lam2 = la.intersect(la.kernel(pair.gamma1),
                            pair.collective_support()).projector()
        m = UsdMeasurement(np.zeros_like(lam2), lam2, np.eye(4) - lam2)
        report = check_optimality(m, pair)
        assert not report.is_optimal
        # oracle beats the forced detection
        res = oracle_optimize(pair, OracleConfig(seed=3))
        assert res.success > success_probability(m, pair) + 1e-6
        return
    pytest.fail("no violating pair found")


def test_checker_oracle_agreement(rng):
    # optimal iff within 1e-6 of the oracle optimum
    for trial in range(12):
        pair = random_skew_pair(rng)
        res = oracle_optimize(pair, OracleConfig(seed=trial))
        m = res.measurement
        report = check_optimality(m, pair)
        assert report.is_optimal, (trial, report.to_dict())
        assert abs(success_probability(m, pair) - res.success) < 1e-9


def test_rank_law_on_solved_instances(rng):
    for trial in range(8):
        pair = random_skew_pair(rng)
        outcome = solve_4d(pair)
        assert rank_law_check(outcome.measurement, pair)
        assert la.rank(outcome.measurement.e_inconclusive) == 2


def test_rank_law_peres(peres_pair3):
    m = projected_peres_measurement(peres_pair3)
    # rank e_? = rank(g1 g2) + dim ker S = 1 + 1 in the 3-dim embedding
    assert rank_law_check(m, peres_pair3)
    assert la.rank(m.e_inconclusive) == 2


def test_rank_law_orthogonal_states():
    g1 = np.diag([0.5, 0.0, 0.0]).astype(complex)
    g2 = np.diag([0.0, 0.3, 0.0]).astype(complex)
    pair = WeightedDensityPair(3, g1, g2)
    m = UsdMeasurement(np.diag([1.0, 0, 0]).astype(complex),
                       np.diag([0.0, 1, 0]).astype(complex),
                       np.diag([0.0, 0, 1]).astype(complex))
    assert rank_law_check(m, pair)


def test_classify_ssd_and_fidelity(rng):
    ssd_seen = fid_seen = False
    for _ in range(40):
        pair = random_skew_pair(rng)
        ssd = try_single_state_detection(pair)
        if ssd is not None and not ssd_seen:
            tag = classify(ssd.measurement, pair)
            assert tag.as_class == (0, 2) and tag.is_von_neumann
            ssd_seen = True
            continue
        fid = try_fidelity_form(pair)
        if fid is not None and not fid_seen:
            tag = classify(fid.measurement, pair)
            assert (tag.e1_rank, tag.e2_rank) == (2, 2)
            assert not tag.is_von_neumann
            fid_seen = True
        if ssd_seen and fid_seen:
            break
    assert ssd_seen and fid_seen


def test_cross_rank_is_the_rank_of_the_product(rng):
    # classify reads rank(gamma1 gamma2) off the Jordan classification: the
    # pairs that are not orthogonal, parallel ones included
    rho1, rho2 = peres_states(dim=3)
    pairs = [random_skew_pair(rng), random_skew_pair(rng, d=5, r=2),
             WeightedDensityPair.from_states(rho1, rho2, 0.5),
             WeightedDensityPair.from_states(rho1, rho1, 0.5),
             WeightedDensityPair(3, np.diag([0.2, 0.3, 0]).astype(complex),
                                 np.diag([0, 0.1, 0.4]).astype(complex))]
    for pair in pairs:
        assert pair.jordan.cross_rank == la.rank(pair.gamma1 @ pair.gamma2)


def test_count_types_classes_formulas():
    assert count_types_classes(0) == (1, 1)
    assert count_types_classes(1) == (3, 2)
    assert count_types_classes(2) == (6, 4)


@pytest.mark.parametrize("r", range(7))
def test_count_types_classes_vs_enumeration(r):
    types = [(a, b) for a in range(r + 1) for b in range(r + 1) if a + b >= r]
    classes = {tuple(sorted(t)) for t in types}
    assert count_types_classes(r) == (len(types), len(classes))


def test_projective_part_law_on_fidelity_form(rng):
    for _ in range(30):
        pair = random_skew_pair(rng)
        outcome = try_fidelity_form(pair)
        if outcome is None:
            continue
        assert projective_part_law(outcome.measurement, pair)
        return
    pytest.fail("no fidelity instance found")


def test_projective_part_law_class12(rng):
    for _ in range(40):
        pair = random_skew_pair(rng)
        outcome = solve_4d(pair)
        if outcome.class_tag.as_class != (1, 2):
            continue
        assert projective_part_law(outcome.measurement, pair)
        # the fixed space is one-dimensional inside a state support
        delta = la.kernel(np.eye(4) - outcome.measurement.e_inconclusive)
        assert delta.size == 1
        return
    pytest.fail("no class-[1,2] instance found")


def test_projective_part_law_violated_by_perturbation(rng):
    pair = random_skew_pair(rng)
    outcome = solve_4d(pair)
    feas = FeasibleSet(pair)
    r = np.random.default_rng(9)
    x = feas.variables(outcome.measurement)
    m2 = feas.measurement(feas.project(x + 2e-2 * random_direction(feas, r)))
    moved = np.linalg.norm(m2.e_inconclusive
                           - outcome.measurement.e_inconclusive)
    assert moved >= 1e-4, "projection collapsed the perturbation"
    assert not projective_part_law(m2, pair)


def test_projective_part_law_requires_disjoint_supports():
    g1 = np.diag([0.2, 0.3, 0.0]).astype(complex)
    g2 = np.diag([0.1, 0.0, 0.4]).astype(complex)
    pair = WeightedDensityPair(3, g1, g2)
    m = UsdMeasurement(*(np.zeros((3, 3), dtype=complex),) * 2, np.eye(3))
    with pytest.raises(PreconditionViolated):
        projective_part_law(m, pair)


def test_uniqueness_two_optimal_measurements_agree(rng):
    # solver's optimum and the oracle's optimum coincide
    for trial in range(5):
        pair = random_skew_pair(rng)
        outcome = solve_4d(pair)
        res = oracle_optimize(pair, OracleConfig(seed=40 + trial))
        m_oracle = res.measurement
        assert check_optimality(m_oracle, pair).is_optimal
        dist = np.linalg.norm(m_oracle.e_inconclusive
                              - outcome.measurement.e_inconclusive)
        assert dist < 1e-6


def test_free_detector_parts_saturate(rng):
    # at any optimum, the conclusive elements act as identity on their
    # free detector subspaces
    g1 = np.diag([0.2, 0.25, 0.0, 0.0]).astype(complex)
    plus = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    e3 = np.array([0, 0, 0, 1], dtype=complex)
    g2 = 0.25 * np.outer(plus, plus.conj()) + 0.2 * np.outer(e3, e3.conj())
    pair = WeightedDensityPair(4, g1, g2)
    outcome = dispatch(pair)
    assert outcome.optimal
    sigma2 = la.intersect(la.kernel(pair.gamma1),
                          la.support(pair.gamma2)).projector()
    sigma1 = la.intersect(la.support(pair.gamma1),
                          la.kernel(pair.gamma2)).projector()
    assert np.linalg.norm(outcome.measurement.e2 @ sigma2 - sigma2) < 1e-8
    assert np.linalg.norm(outcome.measurement.e1 @ sigma1 - sigma1) < 1e-8


# ------------------------------------------------------------- certificates

def test_certificate_on_fidelity_form(rng):
    for _ in range(30):
        pair = random_skew_pair(rng)
        outcome = try_fidelity_form(pair)
        if outcome is None:
            continue
        cert = build_certificate(outcome.measurement, pair)
        for name, value in cert.residuals.items():
            if name.startswith(("z_psd", "dominates")):
                assert value >= -CERT_RESIDUAL, (name, value)
            else:
                assert value <= CERT_RESIDUAL, (name, value)
        assert np.isfinite(cert.v1_condition)
        return
    pytest.fail("no fidelity instance found")


def test_certificate_on_class11(rng):
    for _ in range(60):
        pair = random_skew_pair(rng)
        outcome = solve_4d(pair)
        if outcome.class_tag.as_class != (1, 1):
            continue
        cert = build_certificate(outcome.measurement, pair)
        assert np.linalg.eigvalsh(cert.z)[0] >= -CERT_RESIDUAL
        return
    pytest.fail("no class-[1,1] instance in 60 draws")


def test_certificate_takes_no_svd(rng, monkeypatch):
    # z is built in the detector coordinates of the pair's Jordan split,
    # where the pseudo-inverse of V1 cancels: no SVD and no pinv, only the
    # k x k spectrum of V and one stacked call for the three PSD residuals
    pair = random_skew_pair(rng)
    m = solve_4d(pair).measurement
    report = check_optimality(m, pair)
    calls = record_decompositions(monkeypatch)
    build_certificate(m, pair, report=report)
    assert calls == [("eigvalsh", (2, 2)), ("eigvalsh", (3, 4, 4))]


# (problem file, prior): single state detection, the fidelity form,
# class-12, class-11, the k x k program, a near-parallel grid pair
# (cosines 1 - 1e-8 and 0.2), and two answers the gate refuses: the class-12
# answers near parallel and at cosine 5e-9
_CERTIFICATE_FILES = (("example1", 0.95), ("peres", 0.5), ("example1", 0.5),
                      ("near_cutoff4", 0.5), ("skew6", 0.5),
                      ("near_parallel11", 0.5), ("near_parallel12", 0.25),
                      ("near_orthogonal4", 0.1))


def _certificate_pair(case):
    if isinstance(case[0], str):
        name, p1 = case
        path = Path(__file__).parent / "data" / f"{name}.json"
        return load_problem(path).pair(p1)
    shape, p1 = case
    rho1, rho2 = generic_pair(np.random.default_rng(shape), *shape)
    return WeightedDensityPair.from_states(rho1, rho2, p1)


@pytest.mark.parametrize("case", _CERTIFICATE_FILES + tuple(
    (shape, p1) for shape in REDUCED_SHAPES for p1 in (0.3, 0.7)), ids=str)
def test_certificate_matches_the_dense_construction(case):
    # the k x k construction gives the d x d one's z, residual verdicts and
    # condition number, on the pair and, for the reduced shapes, through
    # the sandwich by xi
    pair = _certificate_pair(case)
    outcome = dispatch(pair, with_certificate=False)
    assert outcome.optimal
    z_ref, residuals_ref, cond_ref = dense_certificate(outcome.measurement,
                                                       pair)
    try:
        cert = build_certificate(outcome.measurement, pair,
                                 report=outcome.report)
    except CertificateFailure as exc:
        residuals = exc.residuals
    else:
        residuals = cert.residuals
        scale = max(1.0, np.linalg.norm(cert.z))
        assert np.linalg.norm(cert.z - z_ref) <= 1e-12 * scale
        assert cert.v1_condition == pytest.approx(cond_ref, rel=1e-10)
    assert ({name: abs(v) <= CERT_RESIDUAL for name, v in residuals.items()}
            == {name: abs(v) <= CERT_RESIDUAL
                for name, v in residuals_ref.items()})
    refused = case in _CERTIFICATE_FILES[-2:]
    assert all(abs(v) <= CERT_RESIDUAL
               for v in residuals_ref.values()) != refused


def test_certificate_rejects_suboptimal(rng):
    pair = random_skew_pair(rng)
    d = pair.dim
    zero = np.zeros((d, d), dtype=complex)
    with pytest.raises(CertificateFailure):
        build_certificate(UsdMeasurement(zero, zero, np.eye(d)), pair)


def test_certificate_takes_the_callers_report(rng):
    pair = random_skew_pair(rng)
    d = pair.dim
    zero = np.zeros((d, d), dtype=complex)
    idle = UsdMeasurement(zero, zero, np.eye(d))
    idle_report = check_optimality(idle, pair)
    assert not idle_report.is_optimal
    with pytest.raises(CertificateFailure):
        build_certificate(idle, pair, report=idle_report)
    m = solve_4d(pair).measurement
    report = check_optimality(m, pair)
    assert report.is_optimal
    given = build_certificate(m, pair, report=report)
    checked = build_certificate(m, pair)
    np.testing.assert_allclose(given.z, checked.z, rtol=0, atol=1e-14)


def test_certificate_for_reduced_pair(rng):
    # non-strictly-skew input: certificate is built for the skew core
    g1 = np.diag([0.2, 0.25, 0.0, 0.0]).astype(complex)
    plus = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    e3 = np.array([0, 0, 0, 1], dtype=complex)
    g2 = 0.25 * np.outer(plus, plus.conj()) + 0.2 * np.outer(e3, e3.conj())
    pair = WeightedDensityPair(4, g1, g2)
    outcome = dispatch(pair)
    assert outcome.optimal
    cert = build_certificate(outcome.measurement, pair)
    # built on the reduced pair, in the pair's own space
    assert cert.pair is reduce_fully(pair).reduced_pair
    assert cert.z.shape == (pair.dim, pair.dim)

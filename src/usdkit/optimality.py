"""Operational optimality checking, classification and certificates.

A proper measurement is optimal iff four residual conditions on the
inconclusive element hold (two PSD sandwiches, one cross term, one
projective-part equation).  This module evaluates them directly, exposes
the rank law obeyed by every optimal inconclusive element, classifies
measurements by conclusive-operator ranks, and constructs the explicit
dual certificate operator whose existence is equivalent to optimality.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .errors import CertificateFailure, NotProper, PreconditionViolated
from .linalg import dag, hermitian_part
from .model import (MeasurementClassTag, UsdMeasurement, WeightedDensityPair,
                    _at, is_proper, success_probability)
from .tolerances import ToleranceContext

__all__ = [
    "OptimalityReport", "CertificateZ", "SolverOutcome", "check_optimality",
    "rank_law_check", "classify", "count_types_classes",
    "projective_part_law", "build_certificate",
]

# absolute bound on every residual of a built certificate
_CERTIFICATE_RESIDUAL_TOL = 1e-7


@dataclass(frozen=True)
class OptimalityReport:
    """Outcome of the four-condition optimality check.

    The two PSD residuals are most-negative eigenvalues of the Hermitian
    parts (>= -psd_floor passes); the equality residuals are Frobenius
    norms.  The detector projectors are the pair's (`pair.detectors`), so
    the report holds no operator and no basis, and one report serves a
    measurement on the pair and on its reduced pair: it does not change
    under `lift_measurement`.  The reduction splits the supports into
    orthogonal sums, supp gamma1 = pi_par + sigma1 + C1 and supp gamma2 =
    pi_par + sigma2 + C2 with C_mu inside xi, so the detectors of the pair
    are Lambda_mu = sigma_mu + Lambda_mu(reduced), and Lambda_mu pi_par =
    0.  The lifted inconclusive element is e = pi_par + xi e_r xi, with e_r
    the reduced one, so Lambda_mu e = Lambda_mu(reduced) e_r and
    e (1 - e) = e_r (1 - e_r) live inside xi.  Each residual then sees
    gamma2 - gamma1 only through xi (gamma2 - gamma1) xi, the reduced
    pair's difference up to the tails its classification drops, and equals
    the one on the reduced pair up to rounding.  The split needs the
    reduced pair to be strictly skew, as it is by construction.

    The check of a stack of measurements (`_check`) holds one value per
    row in each field.
    """

    cond_a1: bool
    cond_a2: bool
    cond_cross: bool
    cond_b: bool
    residual_a1: float
    residual_a2: float
    residual_cross: float
    residual_b: float
    residual_antihermitian: float

    @property
    def is_optimal(self) -> bool:
        return self.cond_a1 & self.cond_a2 & self.cond_cross & self.cond_b

    def to_dict(self) -> dict:
        return {
            "is_optimal": self.is_optimal,
            "cond_a1": self.cond_a1, "cond_a2": self.cond_a2,
            "cond_cross": self.cond_cross, "cond_b": self.cond_b,
            "residual_a1": self.residual_a1, "residual_a2": self.residual_a2,
            "residual_cross": self.residual_cross, "residual_b": self.residual_b,
            "residual_antihermitian": self.residual_antihermitian,
        }


def check_optimality(m: UsdMeasurement, pair: WeightedDensityPair,
                     require_proper: bool = True) -> OptimalityReport:
    """Evaluate the four operational optimality conditions for a measurement.

    With e = e_inconclusive, M = e (gamma2 - gamma1) e and Lambda_mu the
    detector projectors, the conditions are
      (a1)  Lambda1 M Lambda1 >= 0,
      (a2) -Lambda2 M Lambda2 >= 0,
      (cross) Lambda1 M Lambda2 = 0,
      (b)   (Lambda1 - Lambda2) M (1 - e) = 0.
    A proper measurement is optimal iff all four hold.  This is the
    one-row case of `_check`.
    """
    if require_proper and not is_proper(m, pair):
        raise NotProper("optimality conditions apply to proper measurements")
    return _at(_check(m.e_inconclusive, pair.gamma1, pair.gamma2,
                      pair.detectors, pair.tol))


def _check(e: np.ndarray, gamma1: np.ndarray, gamma2: np.ndarray,
           detectors, tol: ToleranceContext) -> OptimalityReport:
    """`check_optimality` of each inconclusive element e of a stack
    (..., d, d) on the pair (gamma1, gamma2) of its row, whose detector
    projectors are `detectors`: every field holds one value per row."""
    lam1, lam2 = detectors
    core = e @ (gamma2 - gamma1) @ e
    scale = np.maximum(1.0, np.real(np.trace(gamma1 + gamma2, axis1=-2,
                                             axis2=-1)))
    s11 = lam1 @ core @ lam1
    s22 = lam2 @ core @ lam2
    h11, h22 = hermitian_part(s11), hermitian_part(s22)
    anti = np.maximum(la.frobenius(s11 - h11), la.frobenius(s22 - h22))
    # the smallest eigenvalues of both Hermitian parts, from one call
    res_a1, res_a2 = np.linalg.eigvalsh(np.stack((h11, -h22))).min(
        axis=-1, initial=0.0)
    res_cross = la.frobenius(lam1 @ core @ lam2)
    res_b = la.frobenius((lam1 - lam2) @ core @ (np.eye(e.shape[-1]) - e))
    floor = tol.psd_floor * scale
    return OptimalityReport(
        cond_a1=(res_a1 >= -floor) & (anti <= tol.hermitian * scale),
        cond_a2=res_a2 >= -floor,
        cond_cross=res_cross <= tol.equality * scale,
        cond_b=res_b <= tol.equality * scale,
        residual_a1=res_a1,
        residual_a2=res_a2,
        residual_cross=res_cross,
        residual_b=res_b,
        residual_antihermitian=anti,
    )


def accepted_outcome(m: UsdMeasurement, pair: WeightedDensityPair,
                     branch: str, boundary: bool = False,
                     ) -> SolverOutcome | None:
    """The outcome of `m` on `pair` if `m` passes the optimality check.

    This is the acceptance gate of every analytic family.  It checks `m`
    once; only a measurement that passes is classified and has its
    success evaluated, and that check is the outcome's report.  By
    uniqueness of the optimum, the one passed check certifies the answer.
    Returns None when the check refuses `m`.  Every family builds its
    conclusive elements inside the detector spaces, through
    `JordanSplit.measurement` or on the detector bases, so `m` is proper
    and the check does not test that (`is_proper`).
    """
    report = check_optimality(m, pair, require_proper=False)
    if not report.is_optimal:
        return None
    return SolverOutcome(measurement=m, class_tag=classify(m, pair),
                         success=success_probability(m, pair), report=report,
                         branch=branch, boundary=boundary)


def rank_law_check(m: UsdMeasurement, pair: WeightedDensityPair) -> bool:
    """Rank law for optimal proper measurements.

    rank(e_inconclusive) must equal rank(gamma1 gamma2) + dim ker(g1+g2),
    and the support of the inconclusive element may meet either state
    kernel only in the common kernel.
    """
    tol = pair.tol
    e_supp = la.support(m.e_inconclusive, tol)
    k_dim = pair.common_kernel().size
    expected = pair.jordan.cross_rank + k_dim
    if e_supp.size != expected:
        return False
    for kern in pair.kernels:
        meet = la.intersect(e_supp, kern, tol)
        if meet.size != k_dim:
            return False
    return True


def classify(m: UsdMeasurement, pair: WeightedDensityPair) -> MeasurementClassTag:
    """Rank-based measurement type (e1, e2).

    A measurement is von Neumann exactly when the conclusive ranks sum to
    rank(gamma1 gamma2) (`JordanSplit.cross_rank`); all three elements are
    then verified to be projectors.  The tag's rank_margin comes from the
    singular values of e1 and e2 that decide their ranks.  This is the
    one-row case of `_classify`.
    """
    return _at(_classify(m, pair.jordan.cross_rank, pair.tol))


def _classify(m: UsdMeasurement, cross_rank: int,
              tol: ToleranceContext) -> MeasurementClassTag:
    """`classify` of each measurement of a stack, whose elements are
    (..., d, d), on pairs of the given `cross_rank`: every field holds one
    value per row."""
    # the singular values of e1 and e2, stacked as (2, ..., d)
    values = np.linalg.svd(np.stack((m.e1, m.e2)), compute_uv=False)
    # `linalg.rank` of each from those values, and how far the kept ones
    # cleared the cutoff
    cut = np.maximum(tol.rank_cutoff * values.max(axis=-1, initial=0.0),
                     tol.rank_atol)[..., None]
    kept = values > cut
    e1_rank, e2_rank = kept.sum(axis=-1)
    margin = np.where(kept, values / cut, np.inf).min(axis=(0, -1),
                                                     initial=np.inf)
    von_neumann = e1_rank + e2_rank == cross_rank
    if von_neumann.any():
        e = np.stack(m.elements())
        von_neumann = von_neumann & (np.abs(e @ e - e).max(
            axis=(-2, -1)) <= tol.equality).all(axis=0)
    return MeasurementClassTag(e1_rank, e2_rank, von_neumann, margin)


def count_types_classes(r: int) -> tuple[int, int]:
    """Number of measurement types and classes for conclusive rank r.

    Types are pairs (e1, e2) with e_mu <= r <= e1 + e2; classes identify
    (a, b) with (b, a).
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    types = (r + 1) * (r + 2) // 2
    classes = int(np.floor((r / 2 + 1) ** 2))
    return types, classes


def projective_part_law(m: UsdMeasurement, pair: WeightedDensityPair) -> bool:
    """Core identity of optimal measurements on support-disjoint pairs.

    e (g2-g1) e must equal both P (g2-g1) P and D (g2-g1) D, where P
    projects onto supp(e) and D onto ker(1-e).
    """
    tol = pair.tol
    if pair.support_overlap.size:
        raise PreconditionViolated("state supports overlap; reduce first")
    e = m.e_inconclusive
    diff = pair.gamma2 - pair.gamma1
    p_supp = la.support(e, tol).projector()
    delta = la.kernel(np.eye(pair.dim) - e, tol).projector()
    core = e @ diff @ e
    scale = max(1.0, pair.total_trace)
    return (np.linalg.norm(core - p_supp @ diff @ p_supp) <= tol.equality * scale
            and np.linalg.norm(core - delta @ diff @ delta) <= tol.equality * scale)


@dataclass(frozen=True)
class CertificateZ:
    """Explicit dual certificate for an optimal measurement.

    z is PSD, annihilates the inconclusive element, dominates gamma_mu on
    the detector subspaces and agrees with gamma_mu against the conclusive
    elements.  v1_condition is the condition number of the k x k V that
    z carries (`build_certificate`): it tracks how ill-posed that was.
    `pair` is the reduced pair (`reduce_fully`) of the pair the
    certificate was asked for, in its space: z has the caller's dimension.
    """

    z: np.ndarray
    pair: WeightedDensityPair
    residuals: dict = field(default_factory=dict)
    v1_condition: float = float("nan")


def _certificate_residuals(z, m: UsdMeasurement, pair: WeightedDensityPair):
    lam1, lam2 = pair.detectors
    psd = np.linalg.eigvalsh(np.stack([z] + [
        hermitian_part(lam @ (z - g) @ lam)
        for lam, g in zip(pair.detectors, (pair.gamma1, pair.gamma2))])).min(
        axis=-1, initial=0.0).tolist()
    return {
        "z_psd": psd[0],
        "z_annihilates_inconclusive": float(np.linalg.norm(z @ m.e_inconclusive)),
        "dominates_1": psd[1],
        "dominates_2": psd[2],
        "agrees_1": float(np.linalg.norm(lam1 @ (z - pair.gamma1) @ m.e1)),
        "agrees_2": float(np.linalg.norm(lam2 @ (z - pair.gamma2) @ m.e2)),
    }


def build_certificate(m: UsdMeasurement, pair: WeightedDensityPair, *,
                      report: OptimalityReport | None = None) -> CertificateZ:
    """Construct and verify the dual certificate for an optimal measurement.

    One construction serves every pair: the certificate is built on the
    reduced pair (`reduce_fully(pair).reduced_pair`, the pair itself when
    the reduction removes nothing), in the pair's own space, for the
    measurement sandwiched by the record's projector xi onto the strictly
    skew core, (xi e1 xi, xi e2 xi, xi e_q xi + 1 - xi), or `m` itself
    when nothing is removed.  By the reduction laws that measurement is
    optimal for the reduced pair iff `m` is optimal for `pair`.  z is
    built in the reduced pair's detector coordinates, z = M V M^dag with
    the k x k V = D1^dag (e (gamma2 - gamma1) e + gamma1) D1 and the d x k
    M = T1 diag(tau1)^-* + T2 diag(tau2)^-* [diag(1/<d1_j|d2_j>) (1 -
    D1^dag e1 D1) + D2^dag e1 D1], tau_mu = diag(T_mu^dag D_mu) the
    split's `tau`: the dense t V1 t^dag (V1 = D1 V D1^dag, t = Q1 + Q2 R
    V1 V1^+, Q_mu = T_mu diag(tau_mu)^-* D_mu^dag), where V1's
    pseudo-inverse cancels.  Every residual (`CertificateZ.residuals`,
    d x d) must lie within the fixed absolute bound 1e-7, or
    `CertificateFailure` is raised; this also refuses a 1/c-scaled
    near-orthogonal construction.

    `report` is the `check_optimality(m, pair)` a caller already holds;
    without it the measurement is checked here.  Either way a report that
    is not optimal raises `CertificateFailure`.
    """
    if report is None:
        report = check_optimality(m, pair)
    if not report.is_optimal:
        raise CertificateFailure(
            "measurement fails the operational optimality conditions; "
            "no certificate exists", report.to_dict())
    record = pair.reduction
    core = record.reduced_pair
    if core.collective_support().size == 0:
        raise CertificateFailure(
            "pair reduces to nothing; optimality is trivial and the "
            "certificate construction is empty", {})
    if core is not pair:  # the measurement of the reduced pair that m lifts
        xi = record.xi
        e1, e2, e = (hermitian_part(xi @ a @ xi) for a in m.elements())
        m = UsdMeasurement(e1, e2, e + np.eye(pair.dim) - xi)
    (d1, d2), (t1, t2) = ((s.basis for s in core.detector_spaces),
                          core.jordan.lifted_columns)
    tau1, tau2 = core.jordan.tau
    overlap = np.einsum("ij,ij->j", d1.conj(), d2)
    e, e1_d1 = m.e_inconclusive, m.e1 @ d1
    v = hermitian_part(dag(d1) @ (e @ (core.gamma2 - core.gamma1) @ e
                                  + core.gamma1) @ d1)
    x = ((np.eye(len(overlap)) - dag(d1) @ e1_d1) / overlap[:, None]
         + dag(d2) @ e1_d1)
    t = t1 / tau1.conj() + (t2 / tau2.conj()) @ x
    z = hermitian_part(t @ v @ dag(t))
    sv = np.abs(np.linalg.eigvalsh(v))  # kept as `linalg.rank` keeps them
    sv = sv[sv > la._rank_threshold(sv, core.tol)]
    v1_cond = float(sv.max() / sv.min()) if sv.size else float("inf")
    residuals = _certificate_residuals(z, m, core)
    for name, value in residuals.items():
        # the PSD residuals are at most 0, the norms at least 0
        if abs(value) > _CERTIFICATE_RESIDUAL_TOL:
            raise CertificateFailure(
                f"certificate violates {name}: {value:.3e}", residuals)
    return CertificateZ(z, core, residuals, v1_cond)


@dataclass(frozen=True)
class SolverOutcome:
    """Result of a solve: measurement, class, success and its evidence."""

    measurement: UsdMeasurement
    class_tag: MeasurementClassTag
    success: float
    report: OptimalityReport
    branch: str
    certificate: CertificateZ | None = None
    boundary: bool = False
    warnings: tuple[str, ...] = ()

    @property
    def optimal(self) -> bool:
        """Whether the report certifies the measurement optimal."""
        return self.report.is_optimal

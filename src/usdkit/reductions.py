"""Structure-removing reductions of a discrimination problem.

Two maps shrink a pair of weighted density operators without changing the
discrimination task: one removes the common-support ("parallel") part, the
other the mutually orthogonal ("detect for free") parts.  Composing both
yields a strictly skew core; a measurement solved on the core lifts back
with a closed-form success offset.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg as la
from .errors import IncompatibleRecord
from .linalg import dag
from .model import UsdMeasurement, WeightedDensityPair

__all__ = [
    "ReductionRecord", "tau_parallel", "tau_skew", "reduce_fully",
    "lift_measurement",
    "PARALLEL_COSINE_CUTOFF", "ORTHOGONAL_COSINE_CUTOFF",
]

# Jordan-angle classification: cosines this close to 1 count as a shared
# direction, cosines this close to 0 as mutually orthogonal directions.
PARALLEL_COSINE_CUTOFF = 1e-9
ORTHOGONAL_COSINE_CUTOFF = 1e-9


@dataclass(frozen=True)
class ReductionRecord:
    """Projectors and bookkeeping needed to lift a reduced solution back.

    pi_parallel projects onto the common support overlap, sigma1 onto
    supp(gamma1) ∩ ker(gamma2), sigma2 onto ker(gamma1) ∩ supp(gamma2) and
    xi onto the remaining strictly skew core.  lifted_offset is the success
    probability gained for free on the sigma parts.
    """

    pair: WeightedDensityPair
    pi_parallel: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    xi: np.ndarray
    lifted_offset: float
    reduced_pair: WeightedDensityPair
    boundary_warnings: tuple[str, ...] = field(default=())

    @property
    def trivial(self) -> bool:
        """True when the reduction removed nothing."""
        d = self.pair.dim
        return bool(np.abs(self.xi - np.eye(d)).max() < 1e-12)


def _projected_pair(pair: WeightedDensityPair, p: np.ndarray) -> WeightedDensityPair:
    return WeightedDensityPair(
        pair.dim,
        la.hermitian_part(p @ pair.gamma1 @ p),
        la.hermitian_part(p @ pair.gamma2 @ p),
        pair.tol,
    )


def tau_parallel(pair: WeightedDensityPair,
                 ) -> tuple[WeightedDensityPair, np.ndarray]:
    """Project out the common support overlap.

    Returns the projected pair and the projector onto ker(g1) + ker(g2),
    i.e. the orthocomplement of supp(g1) ∩ supp(g2).  Proper measurements
    and their success probabilities coincide for both problems.
    """
    p = np.eye(pair.dim) - pair.support_overlap.projector()
    return _projected_pair(pair, p), p


def tau_skew(pair: WeightedDensityPair,
             ) -> tuple[WeightedDensityPair, np.ndarray]:
    """Project out the mutually orthogonal parts of the two supports.

    The removed directions are supp(g1) ∩ ker(g2) and ker(g1) ∩ supp(g2);
    the projector returned is onto their joint orthocomplement.  Failure
    probability is preserved between the two problems.
    """
    tol = pair.tol
    (sup1, sup2), (k1, k2) = pair.supports, pair.kernels
    s1 = la.intersect(sup1, k2, tol)
    s2 = la.intersect(k1, sup2, tol)
    p = np.eye(pair.dim) - s1.projector() - s2.projector()
    return _projected_pair(pair, p), p


def reduce_fully(pair: WeightedDensityPair) -> ReductionRecord:
    """Apply both reductions at once via Jordan bases of the supports.

    Jordan pairs with cosine 1 span the parallel part, pairs with cosine 0
    (and unpaired directions) span the sigma parts; the remainder is the
    strictly skew core.  A second application never changes the result.
    The record is computed once per pair and kept
    (`WeightedDensityPair.reduction`).
    """
    return pair.reduction


def _reduction_record(pair: WeightedDensityPair) -> ReductionRecord:
    """The record of `pair` with None in place of the pair, and of the
    reduced pair when that is the pair itself; `reduce_fully` fills them
    in from `WeightedDensityPair.reduction`."""
    tol = pair.tol
    d = pair.dim
    sup1, sup2 = pair.supports
    b1, b2, cosines = la.jordan_bases(sup1, sup2, tol)
    npair = len(cosines)
    warnings = []
    for c in cosines:
        in_parallel_zone = PARALLEL_COSINE_CUTOFF / 10 <= 1.0 - c <= PARALLEL_COSINE_CUTOFF * 10
        in_orthogonal_zone = ORTHOGONAL_COSINE_CUTOFF / 10 <= c <= ORTHOGONAL_COSINE_CUTOFF * 10
        if in_parallel_zone or in_orthogonal_zone:
            warnings.append(
                f"Jordan cosine {c:.12g} lies within 10x of a classification"
                " cutoff; the reduction is discontinuous here")
    parallel_idx = [k for k in range(npair) if cosines[k] >= 1 - PARALLEL_COSINE_CUTOFF]
    y1 = [i for i in range(sup1.size)
          if i >= npair or cosines[i] <= ORTHOGONAL_COSINE_CUTOFF]
    y2 = [j for j in range(sup2.size)
          if j >= npair or cosines[j] <= ORTHOGONAL_COSINE_CUTOFF]
    pi_par = _projector_from(b1, parallel_idx, d)
    sigma1 = _projector_from(b1, y1, d)
    sigma2 = _projector_from(b2, y2, d)
    xi = np.eye(d) - pi_par - sigma1 - sigma2
    for projector in (pi_par, sigma1, sigma2, xi):
        projector.setflags(write=False)  # shared by the pair's reweightings
    # with nothing removed xi is exactly the identity and projecting would
    # only copy the pair; keeping the pair (None here, see
    # `WeightedDensityPair._reduction`) keeps its computed geometry
    reduced = (_projected_pair(pair, xi) if parallel_idx or y1 or y2
               else None)
    return ReductionRecord(None, pi_par, sigma1, sigma2, xi,
                           _offset(sigma1, sigma2, pair), reduced,
                           tuple(warnings))


def _offset(sigma1, sigma2, pair: WeightedDensityPair) -> float:
    return float(np.real(np.trace((sigma1 + sigma2) @ pair.total)))


def _reweighted_record(record: ReductionRecord, pair: WeightedDensityPair,
                       c1: float, c2: float) -> ReductionRecord:
    """The record of `pair` from that of the pair it is the (c1, c2)
    reweighting of: the projectors are shared, the offset is taken on
    `pair` and the reduced pair is reweighted alike."""
    reduced = (None if record.reduced_pair is None
               else record.reduced_pair.reweighted(c1, c2))
    return replace(record, reduced_pair=reduced,
                   lifted_offset=_offset(record.sigma1, record.sigma2, pair))


def _projector_from(basis: np.ndarray, idx, d: int) -> np.ndarray:
    if not idx:
        return np.zeros((d, d), dtype=complex)
    cols = basis[:, idx]
    return cols @ dag(cols)


def lift_measurement(m_reduced: UsdMeasurement,
                     record: ReductionRecord) -> UsdMeasurement:
    """Lift an optimal proper measurement of the reduced pair to the original.

    e1 gains sigma1, e2 gains sigma2, and the inconclusive element shrinks
    accordingly; the success probability grows by exactly the record's
    lifted_offset.
    """
    if m_reduced.dim != record.pair.dim:
        raise IncompatibleRecord(
            f"measurement dim {m_reduced.dim} != record dim {record.pair.dim}")
    e1 = m_reduced.e1 + record.sigma1
    e2 = m_reduced.e2 + record.sigma2
    return UsdMeasurement(e1, e2, np.eye(record.pair.dim) - e1 - e2)

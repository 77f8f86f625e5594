"""Structure-removing reductions of a discrimination problem.

Two maps shrink a pair of weighted density operators without changing the
discrimination task: one removes the common-support ("parallel") part, the
other the mutually orthogonal ("detect for free") parts.  Composing both
yields a strictly skew core; a measurement solved on the core lifts back
with a closed-form success offset.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .errors import IncompatibleRecord
from .model import (ORTHOGONAL_COSINE_CUTOFF, PARALLEL_COSINE_CUTOFF,
                    UsdMeasurement, WeightedDensityPair)

__all__ = [
    "ReductionRecord", "tau_parallel", "tau_skew", "reduce_fully",
    "lift_measurement",
    "PARALLEL_COSINE_CUTOFF", "ORTHOGONAL_COSINE_CUTOFF",
]


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


def _projected_pair(pair: WeightedDensityPair, p1: np.ndarray,
                    p2: np.ndarray) -> WeightedDensityPair:
    """The pair (p1 gamma1 p1, p2 gamma2 p2) of orthogonal projectors p1, p2.

    Its states are not tested again: each is a compression of one of
    `pair`, which passed the tests, so by Cauchy interlacing its smallest
    eigenvalue is at least min(0, that of the state it compresses).
    """
    return WeightedDensityPair._known_valid(
        pair.dim, la.hermitian_part(p1 @ pair.gamma1 @ p1),
        la.hermitian_part(p2 @ pair.gamma2 @ p2), pair.tol)


def tau_parallel(pair: WeightedDensityPair,
                 ) -> tuple[WeightedDensityPair, np.ndarray]:
    """Project out the common support overlap.

    Returns the projected pair and the projector onto ker(g1) + ker(g2),
    i.e. the orthocomplement of supp(g1) ∩ supp(g2).  Proper measurements
    and their success probabilities coincide for both problems.
    """
    p = np.eye(pair.dim) - pair.jordan.reduction_projectors[0]
    return _projected_pair(pair, p, p), p


def tau_skew(pair: WeightedDensityPair,
             ) -> tuple[WeightedDensityPair, np.ndarray]:
    """Project out the mutually orthogonal parts of the two supports.

    The removed directions are supp(g1) ∩ ker(g2) and ker(g1) ∩ supp(g2)
    (the sigma parts of `reduce_fully`); the projector returned is onto
    their joint orthocomplement.  Failure probability is preserved.
    """
    _, sigma1, sigma2, _ = pair.jordan.reduction_projectors
    p = np.eye(pair.dim) - sigma1 - sigma2
    return _projected_pair(pair, p, p), p


def reduce_fully(pair: WeightedDensityPair) -> ReductionRecord:
    """Apply both reductions at once via Jordan bases of the supports.

    Jordan pairs with cosine 1 span the parallel part, pairs with cosine 0
    (and unpaired directions) span the sigma parts, as the pair's one
    classification (`WeightedDensityPair.jordan`) decides.  The reduced
    pair is P_mu gamma_mu P_mu over the skew Jordan columns of supp
    gamma_mu and holds their classification, the split's `core`: it is
    strictly skew by construction.  A second application never changes
    the result.  The record is computed once per pair and kept
    (`WeightedDensityPair.reduction`).
    """
    return pair.reduction


def _reduction_record(pair: WeightedDensityPair) -> ReductionRecord:
    """The record of `pair` with None in place of the pair, and of the
    reduced pair when that is the pair itself; `reduce_fully` fills them
    in from `WeightedDensityPair.reduction`.  The projectors are the
    split's (`JordanSplit.reduction_projectors`); the offset and the
    reduced pair carry the weights and are built on `pair`, and the
    reduced pair is handed the split's `core`, so it decides no rank of
    its own."""
    split = pair.jordan
    warnings = []
    for c in split.cosines:
        in_parallel_zone = PARALLEL_COSINE_CUTOFF / 10 <= 1.0 - c <= PARALLEL_COSINE_CUTOFF * 10
        in_orthogonal_zone = ORTHOGONAL_COSINE_CUTOFF / 10 <= c <= ORTHOGONAL_COSINE_CUTOFF * 10
        if in_parallel_zone or in_orthogonal_zone:
            warnings.append(
                f"Jordan cosine {c:.12g} lies within 10x of a classification"
                " cutoff; the reduction is discontinuous here")
    pi_par, sigma1, sigma2, xi = split.reduction_projectors
    # with nothing removed xi is exactly the identity and projecting would
    # only copy the pair; keeping the pair (None here, see
    # `WeightedDensityPair._reduction`) keeps its computed geometry
    reduced = None
    if not split.strictly_skew:
        reduced = _projected_pair(pair, *split.core.support_projectors)
        object.__setattr__(reduced, "jordan", split.core)
    offset = float(np.real(np.trace((sigma1 + sigma2) @ pair.total)))
    return ReductionRecord(None, pi_par, sigma1, sigma2, xi, offset, reduced,
                           tuple(warnings))


def lift_measurement(m_reduced: UsdMeasurement,
                     record: ReductionRecord) -> UsdMeasurement:
    """Lift an optimal proper measurement of the reduced pair to the original.

    e1 gains sigma1, e2 gains sigma2, and the inconclusive element shrinks
    accordingly; the success probability grows by exactly the record's
    lifted_offset.  Elements stacked as (n, d, d) lift row by row.
    """
    if m_reduced.dim != record.pair.dim:
        raise IncompatibleRecord(
            f"measurement dim {m_reduced.dim} != record dim {record.pair.dim}")
    e1 = m_reduced.e1 + record.sigma1
    e2 = m_reduced.e2 + record.sigma2
    return UsdMeasurement(e1, e2, np.eye(record.pair.dim) - e1 - e2)

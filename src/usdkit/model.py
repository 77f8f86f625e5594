"""Problem and measurement model for two-state unambiguous discrimination.

A problem instance is a pair of weighted density operators (PSD operators
whose traces are the a-priori probabilities).  A measurement is a POVM
triple (e1, e2, e_inconclusive); outcome 1 must never fire on state 2 and
vice versa.  The inconclusive element alone determines a proper
measurement, and this module implements that completion explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import linalg as la
from .errors import (DimensionMismatch, InvalidInconclusive, NotPSD,
                     NotReconstructible)
from .linalg import Subspace, dag, hermitian_part
from .tolerances import DEFAULT_TOL, ToleranceContext

__all__ = [
    "WeightedDensityPair", "JordanSplit", "UsdMeasurement",
    "MeasurementClassTag", "InconclusiveDiagnostics",
    "success_probability", "failure_probability", "is_proper", "is_usd",
    "validate_inconclusive", "complete_measurement", "reconstruct_from_core",
    "projective_kernel_decomposition",
]


# Jordan-angle classification: cosines this close to 1 count as a shared
# direction, cosines this close to 0 as mutually orthogonal directions.
PARALLEL_COSINE_CUTOFF = 1e-9
ORTHOGONAL_COSINE_CUTOFF = 1e-9


@dataclass(frozen=True)
class JordanSplit:
    """The supports in Jordan bases (`linalg.jordan_bases`: <b1_i|b2_j> is
    cosines[i] for i = j, else 0; cosines descending), classified once.

    The first n_parallel pairs are parallel (cosine >= 1 -
    PARALLEL_COSINE_CUTOFF), the next n_skew skew.  The other columns,
    of orthogonal pairs (cosine <= ORTHOGONAL_COSINE_CUTOFF) or unpaired,
    are free: there the state is detected for sure.

    The detector spaces pair up in the same bases: their skew columns
    (`detector_spaces`) have <d1_j|d2_k> = -cosines[k] for j = k, else 0,
    in orthonormal bases.  Every measurement leaves these detector
    coordinates through one map, E_mu = D_mu X_mu D_mu^dag (`measurement`):
    the families, the k x k program, the oracle and `complete_measurement`.

    The split is the one carrier of a pair's prior-independent geometry:
    everything below is read off the bases and cosines on first use and
    kept.  It is taken once, by `_jordan_split`: on the two states for a
    pair built by `WeightedDensityPair.from_states`, so the pair of the
    same states at any prior takes the same decisions, and on the pair's
    own operators otherwise.  A reduced pair holds its pair's `core`
    (`reductions.reduce_fully`), and a sweep solves all its stacked priors
    on one split (`pipeline.sweep`).  Its arrays are read-only.
    """

    supports: tuple[Subspace, Subspace]
    kernels: tuple[Subspace, Subspace]
    cosines: np.ndarray
    n_parallel: int
    n_skew: int

    @property
    def dim(self) -> int:
        return self.supports[0].dim

    @property
    def skew(self) -> slice:
        """The columns of the skew pairs, in either basis."""
        return slice(self.n_parallel, self.n_parallel + self.n_skew)

    @property
    def cross_rank(self) -> int:
        """rank(gamma1 gamma2): the Jordan pairs that are not orthogonal."""
        return self.n_parallel + self.n_skew

    @cached_property
    def core(self) -> "JordanSplit":
        """The split of the reduced pair (`reductions.reduce_fully`): only
        the skew pairs, each kernel taking in the other columns."""
        skew = self.skew
        kernels = tuple(Subspace(k.dim, _freeze(np.hstack((
            k.basis, np.delete(s.basis, skew, axis=1)))))
            for s, k in zip(self.supports, self.kernels))
        supports = tuple(Subspace(s.dim, s.basis[:, skew])
                         for s in self.supports)
        return JordanSplit(supports, kernels, self.cosines[skew], 0,
                           self.n_skew)

    @cached_property
    def support_projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """The orthogonal projectors onto the two supports."""
        return tuple(_freeze(s.projector()) for s in self.supports)

    @cached_property
    def collective(self) -> tuple[Subspace, Subspace]:
        """(collective support, common kernel): the span of both supports
        and its complement; the whole space, with no decomposition, or read
        off state 2's complete QR (`_sides`), whose columns span exactly [B1,
        B2's non-parallel columns] (state 1's drop B1's parallel columns)."""
        size = sum(s.size for s in self.supports) - self.n_parallel
        if size >= self.dim:
            eye = _freeze(np.eye(self.dim, dtype=complex))
            return Subspace(self.dim, eye), Subspace.zero(self.dim)
        q = self._sides[1]
        return Subspace(self.dim, q[:, :size]), Subspace(self.dim, q[:, size:])

    @cached_property
    def support_overlap(self) -> Subspace:
        """supp(gamma1) ∩ supp(gamma2): the parallel Jordan directions, the
        part the parallel reduction removes."""
        return Subspace(self.dim, self.supports[0].basis[:, :self.n_parallel])

    @cached_property
    def _sides(self) -> np.ndarray:
        """The Q (2, d, d) of one stacked complete QR of both states'
        matrices, each column phased as the column it orthonormalises."""
        skew = self.skew
        b1, b2 = (s.basis for s in self.supports)
        q, r = np.linalg.qr(np.stack([np.hstack((
            other, own[:, skew] - other[:, skew] * self.cosines[skew],
            own[:, skew.stop:])) for own, other in ((b1, b2), (b2, b1))]),
            mode="complete")
        diagonal = np.diagonal(r, axis1=1, axis2=2)
        q[:, :, :diagonal.shape[1]] *= (diagonal / np.abs(diagonal))[:, None]
        return _freeze(q)

    @cached_property
    def detector_spaces(self) -> tuple[Subspace, Subspace]:
        """ker(gamma2) resp. ker(gamma1) inside the collective support: the
        directions on which state 1 resp. state 2 is detected for sure.
        For state 1, the columns after B2 of the QR (`_sides`) of [B2, b1 -
        c b2 per skew pair, the free columns of B1], the collective
        support's size, so B1^dag D1 = diag(`sines`) on the skew pairs:
        orthonormal however close to parallel they come."""
        size = sum(s.size for s in self.supports) - self.n_parallel
        return tuple(Subspace(self.dim, q[:, other.size:size])
                     for q, other in zip(self._sides, self.supports[::-1]))

    @cached_property
    def sines(self) -> np.ndarray:
        """sqrt((1 - c)(1 + c)) of the skew cosines, <b_mu_j|d_mu_j>."""
        c = self.cosines[self.skew]
        return _freeze(np.sqrt((1.0 - c) * (1.0 + c)))

    @cached_property
    def detectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(Lambda1, Lambda2): orthogonal projectors onto the detector spaces."""
        return tuple(_freeze(s.projector()) for s in self.detector_spaces)

    @property
    def lifted_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(T1, T2): the non-parallel Jordan columns of each support, skew
        and free, paired column by column with the detector bases D_mu:
        T_mu^dag D_mu = diag(`tau`) and T_nu^dag D_mu = 0."""
        return tuple(s.basis[:, self.n_parallel:] for s in self.supports)

    @cached_property
    def tau(self) -> tuple[np.ndarray, np.ndarray]:
        """(tau1, tau2): tau_mu = diag(T_mu^dag D_mu), the overlap of each
        `lifted_columns` column with its detector column, read off the
        bases (not off `sines`); read by `complete_measurement` and
        `optimality.build_certificate`."""
        return tuple(
            _freeze(np.einsum("ij,ij->j", t.conj(), d.basis))
            for t, d in zip(self.lifted_columns, self.detector_spaces))

    def measurement(self, x1: np.ndarray, x2: np.ndarray) -> "UsdMeasurement":
        """E_mu = D_mu X_mu D_mu^dag on the orthonormal `detector_spaces`
        and E_q = 1 - E1 - E2, for blocks X_mu in detector coordinates.
        Blocks stacked as (n, k, k) give elements stacked as (n, d, d)."""
        e1, e2 = (hermitian_part(d.basis @ x @ dag(d.basis))
                  for d, x in zip(self.detector_spaces, (x1, x2)))
        return UsdMeasurement(e1, e2, np.eye(self.dim) - e1 - e2)

    @cached_property
    def strictly_skew(self) -> bool:
        """True iff both reductions act trivially: every Jordan direction is
        skew, none parallel, orthogonal or unpaired.  Directions outside
        the collective support are ignored (any measurement acts as
        identity there)."""
        return (self.n_parallel == 0 and self.n_skew
                == self.supports[0].size == self.supports[1].size)

    @cached_property
    def reduction_projectors(self) -> tuple[np.ndarray, ...]:
        """(pi_parallel, sigma1, sigma2, xi) of `reductions.ReductionRecord`:
        onto the parallel columns, the free columns of either support, and
        the rest."""
        (b1, b2), free = (s.basis for s in self.supports), self.skew.stop
        pi_par, sigma1, sigma2 = (Subspace(self.dim, cols).projector()
                                  for cols in (b1[:, :self.n_parallel],
                                               b1[:, free:], b2[:, free:]))
        xi = np.eye(self.dim) - pi_par - sigma1 - sigma2
        return tuple(_freeze(p) for p in (pi_par, sigma1, sigma2, xi))


def _jordan_split(spectra, tol: ToleranceContext) -> JordanSplit:
    """The split of the supports of two Hermitian operators, given the
    `eigh` of each: each spectrum decides its operator's support, one SVD
    gives the Jordan pairs, and the two cosine cutoffs classify them."""
    (sup1, ker1), (sup2, ker2) = (la._split_spectrum(s, tol) for s in spectra)
    b1, b2, cosines = la.jordan_bases(sup1, sup2, tol)
    n_parallel = int(np.sum(cosines >= 1 - PARALLEL_COSINE_CUTOFF))
    n_skew = int(np.sum(cosines > ORTHOGONAL_COSINE_CUTOFF)) - n_parallel
    for a in (b1, b2, ker1.basis, ker2.basis, cosines):
        _freeze(a)
    dim = sup1.dim
    return JordanSplit((Subspace(dim, b1), Subspace(dim, b2)), (ker1, ker2),
                       cosines, n_parallel, n_skew)


def _state_spectrum(state: np.ndarray, tol: ToleranceContext, name: str):
    """The `eigh` of a Hermitian state, for its PSD test and its support."""
    w, u = np.linalg.eigh(state)
    if w.size and w[0] < -tol.psd_floor * max(1.0, float(np.abs(w).max())):
        raise NotPSD(f"{name} is not positive semi-definite")
    return w, u


@dataclass(frozen=True)
class WeightedDensityPair:
    """The two input states as weighted density operators.

    Each operator is PSD with trace equal to its a-priori probability; the
    traces may sum to less than one (sub-normalized instances are valid and
    show up naturally after reductions).
    """

    dim: int
    gamma1: np.ndarray
    gamma2: np.ndarray
    tol: ToleranceContext = field(default=DEFAULT_TOL)
    # True on a pair built by `_known_valid`, set before __init__ runs
    _states_known_valid = False

    def __post_init__(self):
        tested = not self._states_known_valid
        g1, g2 = (la.assert_hermitian(g, self.tol, name) if tested
                  else hermitian_part(g)
                  for g, name in ((np.asarray(self.gamma1, dtype=complex),
                                   "gamma1"),
                                  (np.asarray(self.gamma2, dtype=complex),
                                   "gamma2")))
        if g1.shape != (self.dim, self.dim) or g2.shape != (self.dim, self.dim):
            raise DimensionMismatch("state operators do not match dim")
        for name, g in (("gamma1", g1), ("gamma2", g2)):
            if tested and not la.is_psd(g, self.tol):
                raise NotPSD(f"{name} is not positive semi-definite")
        total = float(np.real(np.trace(g1) + np.trace(g2)))
        if total > 1.0 + self.tol.equality:
            raise ValueError(f"trace(gamma1)+trace(gamma2) = {total} exceeds 1")
        # read-only: the geometry cached below must not go stale
        object.__setattr__(self, "gamma1", _freeze(g1))
        object.__setattr__(self, "gamma2", _freeze(g2))

    @classmethod
    def _known_valid(cls, dim: int, gamma1: np.ndarray, gamma2: np.ndarray,
                     tol: ToleranceContext) -> "WeightedDensityPair":
        """`cls(dim, gamma1, gamma2, tol)` without the hermiticity and PSD
        tests of the two operators, which the caller has proven to pass:
        `from_states` tested the states they weight, and a reduction's
        operators compress a pair that passed.  The pair stores the same
        Hermitian parts, and the shape and total-trace tests still run."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "_states_known_valid", True)
        pair.__init__(dim, gamma1, gamma2, tol)
        return pair

    @staticmethod
    def from_states(rho1: np.ndarray, rho2: np.ndarray, p1: float,
                    tol: ToleranceContext = DEFAULT_TOL) -> "WeightedDensityPair":
        """Build the pair p1*rho1, (1-p1)*rho2 from unit-trace states.

        The prior only weights the states, so the pair has their supports,
        kernels and Jordan pairs.  The states are tested and split
        (`_jordan_split`) once, here, rho1 before rho2: one hermiticity test
        and one `eigh` (`_state_spectrum`) each, for the PSD test and the
        support.  The pair is built untested (`_known_valid`) and handed the
        states' split, as a reduced pair is handed its pair's `core`.  So a
        state that fails a test fails at every prior, and the pairs of the
        same states take the same rank decisions at every prior.
        """
        if not 0.0 < p1 < 1.0:
            raise ValueError("p1 must lie strictly between 0 and 1")
        rho1, rho2 = (np.asarray(rho, dtype=complex) for rho in (rho1, rho2))
        spectra = [_state_spectrum(la.assert_hermitian(rho, tol, n), tol, n)
                   for rho, n in ((rho1, "rho1"), (rho2, "rho2"))]
        pair = WeightedDensityPair._known_valid(
            rho1.shape[0], p1 * rho1, (1.0 - p1) * rho2, tol)
        object.__setattr__(pair, "jordan", _jordan_split(spectra, tol))
        return pair

    @property
    def total(self) -> np.ndarray:
        return self.gamma1 + self.gamma2

    @property
    def total_trace(self) -> float:
        return float(np.real(np.trace(self.total)))

    @cached_property
    def root_blocks(self) -> tuple["_RootBlock", "_RootBlock"]:
        """Both states' blocks A_mu = B_mu^dag gamma_mu B_mu, inverse roots
        and polar factors on the split's support bases (`_RootBlock`), from
        an `eigh` per state and one SVD of k x k blocks, at the split's
        ranks; computed once, and read by both windows and the fidelity
        form.  A sweep reweights the blocks of one pair for all its stacked
        priors instead (`_RootBlock.scaled`)."""
        split, r = self.jordan, self.jordan.cross_rank
        blocks = [hermitian_part(dag(s.basis) @ g @ s.basis)
                  for s, g in zip(split.supports, (self.gamma1, self.gamma2))]
        # positive definite: the split kept only eigenvalues above its cut,
        # and a weight only scales them
        eigs = [np.linalg.eigh(a) for a in blocks]
        (w1, q1), (w2, q2) = eigs
        overlap = np.zeros((len(w1), len(w2)))
        overlap[range(r), range(r)] = split.cosines[:r]
        u, s, vh = np.linalg.svd(((q1 * np.sqrt(w1)) @ dag(q1)) @ overlap
                                 @ ((q2 * np.sqrt(w2)) @ dag(q2)))
        return tuple(
            _RootBlock(a, (q / np.sqrt(w)) @ dag(q), (x * s[:r]) @ dag(x),
                       (w, q))
            for a, (w, q), x in zip(blocks, eigs, (u[:, :r], dag(vh[:r]))))

    # The geometry below does not depend on the prior: every value is read
    # off the Jordan classification of the two supports (`jordan`), handed
    # to the pair or computed on first use, and kept, so a reduced pair,
    # which holds the split's `core`, shares all of it.  The reduction
    # carries the weights and is built per pair.  Every array is shared by
    # every caller and is read-only.

    @cached_property
    def jordan(self) -> JordanSplit:
        """The classification every support-geometry value below is read
        from, `_jordan_split` of the pair's two operators.  A pair built by
        `from_states` is handed the split of its states instead, and a
        reduced pair its pair's `core` (`reductions.reduce_fully`)."""
        return _jordan_split(map(np.linalg.eigh, (self.gamma1, self.gamma2)),
                             self.tol)

    # reads of the split, documented there: supports and kernels (in
    # Jordan bases), the support overlap, the detector spaces and their
    # projectors and the strictly-skew verdict
    supports = property(lambda self: self.jordan.supports)
    kernels = property(lambda self: self.jordan.kernels)
    support_overlap = property(lambda self: self.jordan.support_overlap)
    detector_spaces = property(lambda self: self.jordan.detector_spaces)
    detectors = property(lambda self: self.jordan.detectors)
    strictly_skew = property(lambda self: self.jordan.strictly_skew)

    def collective_support(self) -> Subspace:
        return self.jordan.collective[0]

    def common_kernel(self) -> Subspace:
        return self.jordan.collective[1]

    @cached_property
    def _reduction(self):
        """`reduction` with None in place of every reference to this pair:
        a pair that held itself would live until a cyclic garbage
        collection instead of going when it is dropped."""
        from .reductions import _reduction_record  # reductions imports model
        return _reduction_record(self)

    @property
    def reduction(self):
        """`reductions.reduce_fully(self)`: the record of both reductions."""
        record = self._reduction
        return replace(record, pair=self,
                       reduced_pair=record.reduced_pair or self)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _RootBlock(NamedTuple):
    """One state's entry of `WeightedDensityPair.root_blocks`, on its
    support basis B: block A = B^dag gamma B, positive definite by the
    split's rank decision; inverse_root A^-1/2, so sqrt(gamma) =
    B A A^-1/2 B^dag.  With U S V^dag the SVD of K = sqrt(A1) C sqrt(A2)
    at rank `cross_rank`, C = B1^dag B2 holding the Jordan cosines, polar is
    U S U^dag (V S V^dag for state 2): F1 = sqrt(sqrt(g1) g2 sqrt(g1)) =
    B1 U S U^dag B1^dag, and polar^2 = K K^dag (K^dag K).  spectrum is
    the `eigh` of A (ascending eigenvalues, eigenvectors) the roots come
    from.  A sweep scales one pair's blocks to each stacked prior (`scaled`).
    """

    block: np.ndarray
    inverse_root: np.ndarray
    polar: np.ndarray
    spectrum: tuple[np.ndarray, np.ndarray]

    def scaled(self, c, c_other) -> "_RootBlock":
        """This block for the state scaled by c and the other by c_other:
        A and its eigenvalues scale by c, A^-1/2 by 1/sqrt(c) and polar by
        sqrt(c c_other); the eigenvectors, and the singular vectors behind
        polar, stay.  Weights given as arrays (n, 1, 1) give one block per
        row, (n, k, k), and eigenvalues (n, 1, k)."""
        w, q = self.spectrum
        return _RootBlock(c * self.block, self.inverse_root / np.sqrt(c),
                          np.sqrt(c * c_other) * self.polar, (c * w, q))

    def detection_eigenvalue(self) -> float:
        """min eig of sqrt(g)^- g' sqrt(g)^- on supp g, g' the other state:
        A^-1/2 C A' C^dag A^-1/2 = A^-1 polar^2 A^-1; 0 on an empty support."""
        m = self.inverse_root @ self.inverse_root @ self.polar
        return float(np.linalg.eigvalsh(m @ dag(m))[0]) if len(m) else 0.0

    def fidelity_eigenvalue(self) -> float:
        """max(0, max eig of sqrt(g)^- F sqrt(g)^- = A^-1/2 polar A^-1/2)."""
        r = self.inverse_root
        return float(np.linalg.eigvalsh(
            hermitian_part(r @ self.polar @ r)).max(initial=0.0))


@dataclass(frozen=True)
class UsdMeasurement:
    """POVM triple (e1, e2, e_inconclusive)."""

    e1: np.ndarray
    e2: np.ndarray
    e_inconclusive: np.ndarray

    @property
    def dim(self) -> int:
        return self.e1.shape[-1]

    def elements(self):
        return self.e1, self.e2, self.e_inconclusive

    def validate(self, pair: WeightedDensityPair | None = None,
                 tol: ToleranceContext = DEFAULT_TOL) -> None:
        """Raise unless this is a valid (USD) measurement (for pair, if given)."""
        d = self.dim
        for name, e in zip(("e1", "e2", "e_inconclusive"), self.elements()):
            la.assert_hermitian(e, tol, name)
            if not la.is_psd(e, tol):
                raise NotPSD(f"{name} is not positive semi-definite")
        closure = np.abs(self.e1 + self.e2 + self.e_inconclusive - np.eye(d)).max()
        if closure > tol.equality:
            raise ValueError(f"POVM elements sum to identity only up to {closure:.2e}")
        if pair is not None and not is_usd(self, pair):
            raise ValueError("measurement misidentifies a state (not USD)")


@dataclass(frozen=True)
class MeasurementClassTag:
    """Measurement type by conclusive-operator ranks.

    For strictly skew pairs with conclusive rank r the ranks obey
    e_mu <= r <= e1 + e2; the unordered pair [e1, e2] is the measurement
    class.  The measurement is von Neumann exactly when e1 + e2 = r.
    rank_margin is how far the two conclusive rank decisions cleared the
    rank cutoff, the smallest ratio of a kept singular value to it
    (`optimality.classify`); it does not take part in comparisons.
    """

    e1_rank: int
    e2_rank: int
    is_von_neumann: bool
    rank_margin: float = field(default=float("inf"), compare=False)

    @property
    def as_class(self) -> tuple[int, int]:
        """Unordered class label [min, max]."""
        return (min(self.e1_rank, self.e2_rank),
                max(self.e1_rank, self.e2_rank))


def is_usd(m: UsdMeasurement, pair: WeightedDensityPair) -> bool:
    """No misidentification: tr(e2 gamma1) = 0 = tr(e1 gamma2)."""
    tol = pair.tol
    wrong2 = abs(float(np.real(np.trace(m.e2 @ pair.gamma1))))
    wrong1 = abs(float(np.real(np.trace(m.e1 @ pair.gamma2))))
    return wrong2 <= tol.equality and wrong1 <= tol.equality


def success_probability(m: UsdMeasurement, pair: WeightedDensityPair) -> float:
    """tr(e1 gamma1) + tr(e2 gamma2)."""
    return float(_success(m, pair.gamma1, pair.gamma2))


def _success(m: UsdMeasurement, gamma1: np.ndarray, gamma2: np.ndarray):
    """`success_probability` of each measurement of a stack on the pair
    (gamma1, gamma2) of its row: every array may carry leading axes."""
    return np.real(np.trace(m.e1 @ gamma1, axis1=-2, axis2=-1)
                   + np.trace(m.e2 @ gamma2, axis1=-2, axis2=-1))


def _at(record, *row):
    """`record`, a dataclass whose fields hold one numpy value per row of a
    stack, at the given row (no row for a record of single values), as
    Python scalars."""
    return type(record)(*[v.item(*row) for v in vars(record).values()])


def failure_probability(m: UsdMeasurement, pair: WeightedDensityPair) -> float:
    """tr(e_inconclusive (gamma1 + gamma2))."""
    return float(np.real(np.trace(m.e_inconclusive @ pair.total)))


def is_proper(m: UsdMeasurement, pair: WeightedDensityPair) -> bool:
    """True iff supp(e1+e2) lies inside the collective state support.

    Always true, with no decomposition of e1+e2, when the pair has no
    common kernel: the collective support is then the whole space.
    """
    if pair.common_kernel().size == 0:
        return True
    tol = pair.tol
    conclusive = la.support(m.e1 + m.e2, tol)
    p_supp = pair.collective_support().projector()
    if conclusive.size == 0:
        return True
    leak = conclusive.basis - p_supp @ conclusive.basis
    return bool(np.abs(leak).max() <= np.sqrt(tol.equality))


@dataclass(frozen=True)
class InconclusiveDiagnostics:
    """Per-condition report for a candidate inconclusive operator."""

    identity_on_kernel: bool
    psd: bool
    complement_psd: bool
    separates_states: bool
    residual_kernel: float
    residual_psd: float
    residual_complement: float
    residual_separation: float

    @property
    def ok(self) -> bool:
        """All four conditions hold (per row, for diagnostics of a stack)."""
        return (self.identity_on_kernel & self.psd & self.complement_psd
                & self.separates_states)

    def first_failure(self) -> str | None:
        for name in ("identity_on_kernel", "psd", "complement_psd",
                     "separates_states"):
            if not getattr(self, name):
                return name
        return None


def validate_inconclusive(e_q: np.ndarray,
                          pair: WeightedDensityPair) -> InconclusiveDiagnostics:
    """Check the four conditions an inconclusive element must satisfy.

    It must act as identity on the common kernel, satisfy 0 <= e_q <= 1,
    and annihilate the cross term: gamma1 (1 - e_q) gamma2 = 0.  This is
    the one-row case of `_diagnostics`.
    """
    return _at(_diagnostics(e_q, pair.gamma1, pair.gamma2,
                            pair.common_kernel().basis, pair.tol))


def _diagnostics(e_q: np.ndarray, gamma1: np.ndarray, gamma2: np.ndarray,
                 kernel: np.ndarray, tol: ToleranceContext,
                 ) -> InconclusiveDiagnostics:
    """`validate_inconclusive` of each e_q of a stack (..., d, d) on the
    pair (gamma1, gamma2) of its row, whose common kernel has the basis
    `kernel`: every field holds one value per row."""
    res_k = (np.abs(e_q @ kernel - kernel).max(axis=(-2, -1))
             if kernel.shape[1] else np.zeros(e_q.shape[:-2]))
    w = np.linalg.eigvalsh(hermitian_part(e_q))
    res_psd = np.maximum(0.0, -w.min(axis=-1))
    res_comp = np.maximum(0.0, w.max(axis=-1) - 1.0)
    cross = gamma1 @ (np.eye(e_q.shape[-1]) - e_q) @ gamma2
    res_sep = la.frobenius(cross)
    floor = tol.psd_floor * np.maximum(1.0, np.abs(w).max(axis=-1,
                                                          initial=0.0))
    return InconclusiveDiagnostics(
        identity_on_kernel=res_k <= tol.equality,
        psd=res_psd <= floor,
        complement_psd=res_comp <= floor,
        separates_states=res_sep <= tol.equality,
        residual_kernel=res_k,
        residual_psd=res_psd,
        residual_complement=res_comp,
        residual_separation=res_sep,
    )


def complete_measurement(e_q: np.ndarray,
                         pair: WeightedDensityPair) -> UsdMeasurement:
    """The unique proper USD measurement with the given inconclusive element.

    For callers that hold an e_q; the library's solvers build their
    measurements from k x k blocks instead.  e_q must pass
    `validate_inconclusive`; then its blocks in detector coordinates are
    X_mu = diag(1/tau_mu) T_mu^dag (1 - e_q) T_mu diag(1/conj(tau_mu)), on
    the split's `lifted_columns` T_mu and `tau`, mapped out by the one map
    of every family, E_mu = D_mu X_mu D_mu^dag (`JordanSplit.measurement`),
    and 1 - e1 - e2 must give e_q back within tol.equality (largest
    entry).  Either failure raises `InvalidInconclusive`.
    """
    diag = validate_inconclusive(e_q, pair)
    if not diag.ok:
        raise InvalidInconclusive(
            f"inconclusive operator rejected: {diag.first_failure()}", diag)
    split, rest = pair.jordan, np.eye(pair.dim) - e_q
    m = split.measurement(*(
        dag(t) @ rest @ t / tau[:, None] / tau.conj()
        for t, tau in zip(split.lifted_columns, split.tau)))
    closure = np.abs(m.e_inconclusive - e_q).max()
    if closure > pair.tol.equality:
        raise InvalidInconclusive(
            f"completion does not close to identity (residual {closure:.2e})",
            diag)
    return UsdMeasurement(m.e1, m.e2, hermitian_part(e_q))


def reconstruct_from_core(core: np.ndarray,
                          pair: WeightedDensityPair) -> np.ndarray:
    """Recover e_q from its core e_q (gamma2 - gamma1) e_q.

    Evaluates the closed-form sandwich identity: the inverse of
    gamma1+gamma2 on its support applied around
    gamma1 gamma2 + gamma2 gamma1
    + sqrt(g1) sqrt( sqrt(g1) [gamma2 - core] sqrt(g1) ) sqrt(g1)
    + sqrt(g2) sqrt( sqrt(g2) [gamma1 + core] sqrt(g2) ) sqrt(g2),
    plus the projector onto the common kernel.  The roots of the states
    are the pair's `root_blocks`: with W = B A A^-1/2 on a support basis B,
    sqrt(gamma) = W B^dag, and each sandwich is W sqrt(W^dag X W) W^dag, so
    the inner root is of a k x k block.
    """
    g1, g2 = pair.gamma1, pair.gamma2
    curly = g1 @ g2 + g2 @ g1
    for b, root, x in zip(pair.supports, pair.root_blocks,
                          (g2 - core, g1 + core)):
        w = b.basis @ root.block @ root.inverse_root
        try:
            curly = curly + w @ la.sqrt_psd(dag(w) @ x @ w, pair.tol) @ dag(w)
        except NotPSD as exc:
            raise NotReconstructible(
                f"inner square-root argument not PSD: {exc}") from exc
    total_inv = la.pseudo_inverse(pair.total, pair.tol)
    p_kernel = pair.common_kernel().projector()
    return hermitian_part(p_kernel + total_inv @ curly @ total_inv)


def projective_kernel_decomposition(
        e_q: np.ndarray, pair: WeightedDensityPair,
) -> tuple[Subspace, Subspace, Subspace]:
    """Split ker(1 - e_q) into its supp(gamma1), supp(gamma2), ker parts.

    For any proper measurement the projective part of the inconclusive
    element decomposes as the (generally non-orthogonal) sum of its
    intersections with the two state supports, plus the common kernel.
    The first two components may overlap inside supp g1 ∩ supp g2.
    """
    tol = pair.tol
    fixed = la.kernel(np.eye(pair.dim) - e_q, tol)
    sup1, sup2 = pair.supports
    part1 = la.intersect(fixed, sup1, tol)
    part2 = la.intersect(fixed, sup2, tol)
    return part1, part2, pair.common_kernel()

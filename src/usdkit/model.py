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

import numpy as np

from . import linalg as la
from .errors import (DimensionMismatch, InvalidInconclusive, NotPSD,
                     NotReconstructible)
from .linalg import Subspace, dag, hermitian_part
from .tolerances import DEFAULT_TOL, ToleranceContext

__all__ = [
    "WeightedDensityPair", "UsdMeasurement", "MeasurementClassTag",
    "InconclusiveDiagnostics",
    "success_probability", "failure_probability", "is_proper", "is_usd",
    "validate_inconclusive", "complete_measurement", "reconstruct_from_core",
    "projective_kernel_decomposition", "expand_measurement",
]


def _geometry(derive=None):
    """A cached property of the pair's prior-independent geometry.

    A pair that shares a base pair's geometry (see
    `WeightedDensityPair.reweighted`) takes the value from the base,
    passed through derive(value, pair, c1, c2) when the value also depends
    on the weights (derive returns None to have the pair compute its own
    value); any other pair computes it on first use.
    """
    def wrap(compute):
        def get(self):
            if self._base is not None:
                base, c1, c2 = self._base
                value = getattr(base, compute.__name__)
                if derive is None:
                    return value
                value = derive(value, self, c1, c2)
                if value is not None:
                    return value
            return compute(self)
        get.__name__, get.__doc__ = compute.__name__, compute.__doc__
        return cached_property(get)
    return wrap


def _reweighted_compression(value, pair, c1, c2):
    core, isometry = value
    return core.reweighted(c1, c2), isometry


def _reweighted_skew(value, pair, c1, c2):
    # the subspace tests are shared; only the rank of gamma1 gamma2 scales
    verdict, cross = value
    if cross is None:
        return value
    (w1, _, _), (w2, _, _), _ = pair._spectral
    norm = c1 * c2 * w1.max(initial=0.0) * w2.max(initial=0.0)
    if la.rank_survives_scaling(cross, c1 * c2, c1 * c2, norm, pair.tol):
        return value
    return None


def _reweighted_reduction(record, pair, c1, c2):
    from .reductions import _reweighted_record  # reductions imports model
    return _reweighted_record(record, pair, c1, c2)


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
    # (base pair, c1, c2) when this pair shares the base pair's geometry
    _base: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        g1 = la.assert_hermitian(np.asarray(self.gamma1, dtype=complex),
                                 self.tol, "gamma1")
        g2 = la.assert_hermitian(np.asarray(self.gamma2, dtype=complex),
                                 self.tol, "gamma2")
        if g1.shape != (self.dim, self.dim) or g2.shape != (self.dim, self.dim):
            raise DimensionMismatch("state operators do not match dim")
        for name, g in (("gamma1", g1), ("gamma2", g2)):
            if not la.is_psd(g, self.tol):
                raise NotPSD(f"{name} is not positive semi-definite")
        total = float(np.real(np.trace(g1) + np.trace(g2)))
        if total > 1.0 + self.tol.equality:
            raise ValueError(f"trace(gamma1)+trace(gamma2) = {total} exceeds 1")
        # read-only: the geometry cached below must not go stale
        object.__setattr__(self, "gamma1", _freeze(g1))
        object.__setattr__(self, "gamma2", _freeze(g2))

    @staticmethod
    def from_states(rho1: np.ndarray, rho2: np.ndarray, p1: float,
                    tol: ToleranceContext = DEFAULT_TOL) -> "WeightedDensityPair":
        """Build the pair p1*rho1, (1-p1)*rho2 from unit-trace states."""
        if not 0.0 < p1 < 1.0:
            raise ValueError("p1 must lie strictly between 0 and 1")
        rho1 = np.asarray(rho1, dtype=complex)
        return WeightedDensityPair(rho1.shape[0], p1 * rho1,
                                   (1.0 - p1) * np.asarray(rho2, dtype=complex),
                                   tol)

    def reweighted(self, c1: float, c2: float) -> "WeightedDensityPair":
        """The pair (c1 gamma1, c2 gamma2), sharing this pair's geometry.

        Supports, kernels and everything built from them depend on the
        states alone, so the new pair takes them from this one; values
        that carry the weights (the reduced pair, the compressed core, the
        lifted offset) are reweighted alike.  A rank decision is shared
        only when it provably matches the one the new pair would take
        itself (`linalg.rank_survives_scaling`): the spectra of the two
        operators scale by c1 and c2, and by Loewner order each eigenvalue
        of the sum moves by a factor between min(c1, c2) and max(c1, c2).
        Otherwise the new pair computes its own geometry.
        """
        if not (c1 > 0.0 and c2 > 0.0):
            raise ValueError("weights must be positive")
        return self._lend_geometry(
            WeightedDensityPair(self.dim, c1 * self.gamma1, c2 * self.gamma2,
                                self.tol), c1, c2)

    def _lend_geometry(self, pair: "WeightedDensityPair", c1: float,
                       c2: float) -> "WeightedDensityPair":
        """Let `pair`, which must be (c1 gamma1, c2 gamma2) up to rounding,
        share this pair's geometry as `reweighted` describes; returns it."""
        base, w1, w2 = self._base or (self, 1.0, 1.0)
        w1, w2 = w1 * c1, w2 * c2
        (v1, _, _), (v2, _, _), (v, _, _) = base._spectral
        lo, hi = min(w1, w2), max(w1, w2)
        if all(la.rank_survives_scaling(values, a, b,
                                        b * values.max(initial=0.0), base.tol)
               for values, a, b in ((v1, w1, w1), (v2, w2, w2), (v, lo, hi))):
            object.__setattr__(pair, "_base", (base, w1, w2))
        return pair

    @property
    def total(self) -> np.ndarray:
        return self.gamma1 + self.gamma2

    @property
    def total_trace(self) -> float:
        return float(np.real(np.trace(self.total)))

    @cached_property
    def total_inverse(self) -> np.ndarray:
        """Moore-Penrose inverse of gamma1 + gamma2, computed once.  It
        carries the weights, so a reweighted pair computes its own."""
        return _freeze(la.pseudo_inverse(self.total, self.tol))

    # The geometry below does not depend on the prior: it is built from the
    # supports of the two operators, or (the compressed core, the reduction)
    # carries the weights in a way a reweighting can follow.  Each value is
    # computed on first use and kept for the life of the pair, and a
    # reweighted pair derives it from its base.  Its arrays are shared by
    # every caller and are read-only.

    @_geometry()
    def _spectral(self) -> tuple[tuple[np.ndarray, Subspace, Subspace], ...]:
        """(eigenvalues, support, kernel) of gamma1, gamma2 and their sum."""
        out = tuple(la.spectral_split(g, self.tol)
                    for g in (self.gamma1, self.gamma2, self.total))
        for w, sup, ker in out:
            _freeze(w)
            _freeze(sup.basis)
            _freeze(ker.basis)
        return out

    @property
    def supports(self) -> tuple[Subspace, Subspace]:
        """(supp gamma1, supp gamma2)."""
        return self._spectral[0][1], self._spectral[1][1]

    @property
    def kernels(self) -> tuple[Subspace, Subspace]:
        """(ker gamma1, ker gamma2)."""
        return self._spectral[0][2], self._spectral[1][2]

    def collective_support(self) -> Subspace:
        return self._spectral[2][1]

    def common_kernel(self) -> Subspace:
        return self._spectral[2][2]

    @_geometry()
    def support_overlap(self) -> Subspace:
        """supp(gamma1) ∩ supp(gamma2), the part the parallel reduction
        removes."""
        out = la.intersect(*self.supports, self.tol)
        _freeze(out.basis)
        return out

    @_geometry()
    def detector_spaces(self) -> tuple[Subspace, Subspace]:
        """ker(gamma2) resp. ker(gamma1) inside the collective support: the
        directions on which state 1 resp. state 2 is detected for sure."""
        s_all = self.collective_support()
        k1, k2 = self.kernels
        out = (la.intersect(k2, s_all, self.tol),
               la.intersect(k1, s_all, self.tol))
        for s in out:
            _freeze(s.basis)
        return out

    @_geometry()
    def detectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(Lambda1, Lambda2): orthogonal projectors onto the detector spaces."""
        return tuple(_freeze(s.projector()) for s in self.detector_spaces)

    @_geometry()
    def obliques(self) -> tuple[np.ndarray, np.ndarray]:
        """(Q1, Q2): oblique projectors that complete e1, e2 from e_q.

        Q1 has kernel ker(Lambda1) and projects onto the part of
        supp(gamma1) outside the support overlap; Q2 swaps the roles.  A
        state without a detector space gets the zero operator.  Each is
        built from the subspace bases the pair already holds
        (`linalg._oblique_between`), and the supports are cut down to
        their non-parallel parts only when they overlap.
        """
        tol = self.tol
        overlap = self.support_overlap
        non_parallel = (la.kernel(overlap.projector(), tol) if overlap.size
                        else None)
        out = []
        for lam_space, own in zip(self.detector_spaces, self.supports):
            if lam_space.size == 0:
                q = np.zeros((self.dim, self.dim), dtype=complex)
            else:
                target = (own if non_parallel is None
                          else la.intersect(own, non_parallel, tol))
                q = la._oblique_between(lam_space, target, tol)
            out.append(_freeze(q))
        return tuple(out)

    @_geometry(_reweighted_skew)
    def _skew(self) -> tuple[bool, np.ndarray | None]:
        """(strictly skew?, singular values of gamma1 gamma2 when a rank of
        theirs decided it, else None); see `strictly_skew`."""
        tol = self.tol
        sup1, sup2 = self.supports
        lam1, lam2 = self.detector_spaces
        if (self.support_overlap.size or la.intersect(sup1, lam1, tol).size
                or la.intersect(sup2, lam2, tol).size):
            return False, None
        r1, r2 = sup1.size, sup2.size
        if self.collective_support().size != r1 + r2:
            return False, None
        cross = _freeze(np.linalg.svd(self.gamma1 @ self.gamma2,
                                      compute_uv=False))
        r_cross = la.rank_from_values(cross, tol)
        return r_cross == r1 == r2, cross

    @property
    def strictly_skew(self) -> bool:
        """True iff both reductions act trivially on the pair.

        Checked on the collective support: the support overlap and both
        support/kernel intersections must vanish there.  Cross-checked by
        the equivalent rank laws rank(g1+g2) = rank g1 + rank g2 and
        rank g_mu = rank(g1 g2).  Directions outside the collective support
        are ignored (any measurement acts as identity there).  The verdict
        is taken once per pair and kept.
        """
        return self._skew[0]

    @_geometry(_reweighted_compression)
    def compressed(self) -> tuple["WeightedDensityPair", np.ndarray]:
        """The pair restricted to its collective support, and the isometry
        (columns = support basis) mapping compressed vectors back into the
        ambient space."""
        v = self.collective_support().basis
        g1 = hermitian_part(dag(v) @ self.gamma1 @ v)
        g2 = hermitian_part(dag(v) @ self.gamma2 @ v)
        return WeightedDensityPair(v.shape[1], g1, g2, self.tol), v

    @_geometry(_reweighted_reduction)
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


@dataclass(frozen=True)
class UsdMeasurement:
    """POVM triple (e1, e2, e_inconclusive)."""

    e1: np.ndarray
    e2: np.ndarray
    e_inconclusive: np.ndarray

    @property
    def dim(self) -> int:
        return self.e1.shape[0]

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
    rank cutoff (`linalg.rank_margin`); it does not take part in
    comparisons.
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
    return float(np.real(np.trace(m.e1 @ pair.gamma1) +
                         np.trace(m.e2 @ pair.gamma2)))


def failure_probability(m: UsdMeasurement, pair: WeightedDensityPair) -> float:
    """tr(e_inconclusive (gamma1 + gamma2))."""
    return float(np.real(np.trace(m.e_inconclusive @ pair.total)))


def is_proper(m: UsdMeasurement, pair: WeightedDensityPair) -> bool:
    """True iff supp(e1+e2) lies inside the collective state support."""
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
        return (self.identity_on_kernel and self.psd and self.complement_psd
                and self.separates_states)

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
    and annihilate the cross term: gamma1 (1 - e_q) gamma2 = 0.
    """
    tol = pair.tol
    d = pair.dim
    kb = pair.common_kernel().basis
    res_k = float(np.abs(e_q @ kb - kb).max()) if kb.shape[1] else 0.0
    w = np.linalg.eigvalsh(hermitian_part(e_q))
    res_psd = max(0.0, -float(w.min()))
    res_comp = max(0.0, float(w.max()) - 1.0)
    cross = pair.gamma1 @ (np.eye(d) - e_q) @ pair.gamma2
    res_sep = float(np.linalg.norm(cross))
    floor = tol.psd_floor * max(1.0, float(np.abs(w).max(initial=0.0)))
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

    e1 = Q1^dag (1 - e_q) Q1 with Q1 the pair's first oblique projector
    (`WeightedDensityPair.obliques`); e2 analogously.
    """
    diag = validate_inconclusive(e_q, pair)
    if not diag.ok:
        raise InvalidInconclusive(
            f"inconclusive operator rejected: {diag.first_failure()}", diag)
    one = np.eye(pair.dim)
    q1, q2 = pair.obliques
    e1 = hermitian_part(dag(q1) @ (one - e_q) @ q1)
    e2 = hermitian_part(dag(q2) @ (one - e_q) @ q2)
    m = UsdMeasurement(e1, e2, hermitian_part(e_q))
    closure = float(np.abs(e1 + e2 + e_q - one).max())
    if closure > pair.tol.equality:
        raise InvalidInconclusive(
            f"completion does not close to identity (residual {closure:.2e})",
            diag)
    return m


def reconstruct_from_core(core: np.ndarray,
                          pair: WeightedDensityPair) -> np.ndarray:
    """Recover e_q from its core e_q (gamma2 - gamma1) e_q.

    Evaluates the closed-form sandwich identity: the inverse of
    gamma1+gamma2 on its support applied around
    gamma1 gamma2 + gamma2 gamma1
    + sqrt(g1) sqrt( sqrt(g1) [gamma2 - core] sqrt(g1) ) sqrt(g1)
    + sqrt(g2) sqrt( sqrt(g2) [gamma1 + core] sqrt(g2) ) sqrt(g2),
    plus the projector onto the common kernel.
    """
    tol = pair.tol
    g1, g2 = pair.gamma1, pair.gamma2
    total_inv = pair.total_inverse
    p_kernel = pair.common_kernel().projector()
    r1 = la.sqrt_psd(g1, tol)
    r2 = la.sqrt_psd(g2, tol)
    try:
        inner1 = la.sqrt_psd(r1 @ (g2 - core) @ r1, tol)
        inner2 = la.sqrt_psd(r2 @ (g1 + core) @ r2, tol)
    except NotPSD as exc:
        raise NotReconstructible(
            f"inner square-root argument not PSD: {exc}") from exc
    curly = g1 @ g2 + g2 @ g1 + r1 @ inner1 @ r1 + r2 @ inner2 @ r2
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


def expand_measurement(m: UsdMeasurement, isometry: np.ndarray) -> UsdMeasurement:
    """Push a measurement on the compressed space back to the ambient one.

    Conclusive elements are conjugated by the isometry; the inconclusive
    element absorbs the rest so the triple still sums to the identity (it
    acts as identity on the removed directions).
    """
    v = isometry
    d = v.shape[0]
    e1 = v @ m.e1 @ dag(v)
    e2 = v @ m.e2 @ dag(v)
    return UsdMeasurement(e1, e2, np.eye(d) - e1 - e2)

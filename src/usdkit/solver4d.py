"""Complete solver for strictly skew pairs on a four-dimensional support.

With both states of rank two, the optimal measurement falls into one of
six rank types.  Single state detection and the fidelity form cover the
extreme classes; the remaining classes [1,2] and [1,1] reduce to real
roots of explicit polynomials (degree six, respectively degree eight in
x^2) plus sign and positivity gates.  By uniqueness of the optimum, the
first family whose measurement passes verification is the answer, and it
is returned with its class tag and optimality evidence.  Only at a class
boundary, where two families can both pass within tolerance, are the
other families tried as well.
"""
from __future__ import annotations

import itertools
import warnings as _warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import linalg as la
from .closed_form import (BRANCH_FIDELITY, BRANCH_SINGLE_STATE,
                          _fidelity_blocks, _fidelity_feasible,
                          _single_state_branches,
                          try_fidelity_form, try_single_state_detection)
from .errors import (DegenerateFamily, InvalidInconclusive, NoSolutionFound,
                     PreconditionViolated, UsdNumericsWarning)
from .linalg import dag, hermitian_part
from .model import (UsdMeasurement, WeightedDensityPair, _completion,
                    _diagnostics, complete_measurement)
from .optimality import (OptimalityReport, SolverOutcome, _check, _classify,
                         accepted_outcome)
from .tolerances import ToleranceContext

__all__ = [
    "Candidate12", "Candidate11", "Rejection", "BRANCH_CLASS_12",
    "BRANCH_CLASS_11", "solve_4d", "enumerate_candidates_12",
    "finalize_candidate_12", "enumerate_candidates_11",
    "finalize_candidate_11", "balance_residual_12", "balance_residual_11",
]

BRANCH_CLASS_12 = "class-12"
BRANCH_CLASS_11 = "class-11"

# roots of the candidate polynomials count as real below this imag/real ratio
_REAL_ROOT_TOL = 1e-8

# the families in the order they are tried, as (branch, host): host names
# the state whose support hosts ker(1 - e_q) of a class-12 measurement, and
# is 0 for the other families
_FAMILIES = ((BRANCH_SINGLE_STATE, 0), (BRANCH_FIDELITY, 0),
             (BRANCH_CLASS_12, 1), (BRANCH_CLASS_12, 2), (BRANCH_CLASS_11, 0))
_CLOSED_FORMS = _FAMILIES[:2]
# an answer whose conclusive ranks clear the rank cutoff by less than this
# factor sits on a class boundary
_BOUNDARY_RANK_MARGIN = 100.0


@dataclass(frozen=True)
class Rejection:
    """Why a finalizer refused a candidate."""

    reason: str


@dataclass(frozen=True)
class Candidate12:
    """Candidate data for a rank-(1,2) measurement.

    (phi, phi_perp) is an orthonormal basis of the support of the host
    state; the inconclusive element fixes phi and keeps weight nu on the
    unit vector behind n_vector = sqrt(nu)*n.  x is the real root that
    generated the basis (0 for the eigenvector candidates).
    """

    phi: np.ndarray
    phi_perp: np.ndarray
    x: float
    n_vector: np.ndarray
    nu: float
    host: int  # which state's support hosts ker(1 - e_inconclusive)


@dataclass(frozen=True)
class JordanData11:
    phase: float
    c: float
    g13: float
    g23: float
    g1: float
    g2: float


@dataclass(frozen=True)
class Candidate11:
    """Candidate data for a von Neumann rank-(1,1) measurement.

    psi1 (in ker gamma2) and psi2 (in ker gamma1) are the conclusive
    directions; the perp vectors complete the respective kernel bases.
    """

    psi1: np.ndarray
    psi1_perp: np.ndarray
    psi2: np.ndarray
    psi2_perp: np.ndarray
    x: float
    theta: float
    jordan_data: JordanData11


def _host_eigenbasis(sup: la.Subspace, spectrum, host_gamma: np.ndarray,
                     other_gamma: np.ndarray, tol: ToleranceContext):
    """Eigenbasis (s1, s2) of the host on its support `sup`, with g23 >= 0.

    spectrum is the `eigh` of the host's block on `sup`, kept by the
    pair's `root_blocks` (`_RootBlock.spectrum`).  s1 carries the larger
    host eigenvalue.  If the host is degenerate on its support, the basis
    is rotated to diagonalize the other state's quadratic form instead
    (g23 = 0 convention).
    """
    w, v = spectrum
    s1, s2 = sup.basis @ v[:, 1], sup.basis @ v[:, 0]
    g11, g12 = float(w[1]), float(w[0])
    trace_scale = max(float(np.real(np.trace(host_gamma))), 1e-300)
    if abs(g11 - g12) <= tol.equality * trace_scale:
        other_form = hermitian_part(dag(sup.basis) @ other_gamma @ sup.basis)
        _, v2 = np.linalg.eigh(other_form)
        s1, s2 = sup.basis @ v2[:, 0], sup.basis @ v2[:, 1]
        mean = 0.5 * (g11 + g12)
        g11 = g12 = mean
    cross = np.vdot(s1, other_gamma @ s2)
    if abs(cross) > tol.rank_atol:
        s2 = s2 * (cross.conjugate() / abs(cross))
    g21 = float(np.real(np.vdot(s1, other_gamma @ s1)))
    g22 = float(np.real(np.vdot(s2, other_gamma @ s2)))
    g23 = float(abs(np.vdot(s1, other_gamma @ s2)))
    return s1, s2, (g11, g12, g21, g22, g23)


def _finish_candidate_12(phi_perp, q_host, q_other, host, split):
    """(n_vec, nu): n = sqrt(r) L_h T_h^dag pp + L_o T_o^dag pp / sqrt(r)
    with the split's `lifts`, pp = phi_perp, r = sqrt(q_other / q_host) for
    the positive quadratic forms q = <pp|g|pp> of the host and the other
    state, up to one common factor, and nu = |n|^2.  phi_perp may be a
    stack (..., d) of vectors, with forms (...)."""
    root = np.sqrt(np.sqrt(q_other / q_host))[..., None]
    t, lift = split.lifted_columns, split.lifts
    h, o = host - 1, 2 - host
    n_vec = (root * ((phi_perp @ t[h].conj()) @ lift[h].T)
             + ((phi_perp @ t[o].conj()) @ lift[o].T) / root)
    return n_vec, np.sum(np.abs(n_vec) ** 2, axis=-1)


def enumerate_candidates_12(pair: WeightedDensityPair,
                            detect_on: int = 1) -> list[Candidate12]:
    """Candidate bases for the class with a one-dimensional projective part.

    detect_on names the state whose support hosts ker(1 - e_inconclusive)
    (host 1 gives measurement type (1, 2)).  With g23 = 0 only the two
    host eigenvectors qualify, gated by g21 >= g11 resp. g22 >= g12.
    Otherwise the mixing angle vanishes and each real nonzero root of the
    degree-six polynomial yields one candidate, filtered by the sign
    condition x g1 (x g2 + g23 (x^2-1)) >= 0 and by
    <phi|g_other - g_host|phi> >= 0: the one-row case of
    `_mixing_candidates_12`.
    """
    if detect_on not in (1, 2):
        raise ValueError("detect_on must be 1 or 2")
    tol = pair.tol
    host_gamma = pair.gamma1 if detect_on == 1 else pair.gamma2
    other_gamma = pair.gamma2 if detect_on == 1 else pair.gamma1
    s1, s2, g = _host_eigenbasis(
        pair.supports[detect_on - 1],
        pair.root_blocks[detect_on - 1].spectrum, host_gamma, other_gamma, tol)
    if not _degenerate_12(g, tol):
        _, cands = _mixing_candidates_12(s1, s2, g, detect_on, pair.jordan,
                                         tol)
        return [Candidate12(phi, pp, x, n, nu, detect_on) for phi, pp, x, n, nu
                in zip(cands.phi, cands.phi_perp, cands.x.tolist(),
                       cands.n_vector, cands.nu.tolist())]
    g11, g12, g21, g22, g23 = g
    diff1, diff2 = g11 - g12, g21 - g22
    scale = max(g11, g21, g22, g23)
    out: list[Candidate12] = []
    for phi, phi_perp, gate in ((s1, s2, g21 >= g11 - tol.equality * scale),
                                (s2, s1, g22 >= g12 - tol.equality * scale)):
        # a degenerate host keeps g11 = g12 only up to tol, so the forms
        # are taken of the states themselves
        q_host, q_other = (float(np.real(np.vdot(phi_perp, g @ phi_perp)))
                           for g in (host_gamma, other_gamma))
        if gate and q_host > 0.0 and q_other > 0.0:
            n_vec, nu = _finish_candidate_12(phi_perp, q_host, q_other,
                                             detect_on, pair.jordan)
            out.append(Candidate12(phi, phi_perp, 0.0, n_vec, float(nu),
                                   detect_on))
    # uniqueness forbids mixed-basis solutions here; flag any that the
    # quadratic sign pattern would admit, for inspection
    denom = diff1 ** 2 * g21 - diff2 ** 2 * g11
    numer = diff2 ** 2 * g12 - diff1 ** 2 * g22
    if abs(denom) > tol.rank_atol and numer / denom > 0:
        _warnings.warn(
            "discarded a nonzero-angle solution family in the "
            "degenerate (g23 = 0) branch; uniqueness excludes it",
            UsdNumericsWarning, stacklevel=2)
    return out


def _degenerate_12(g, tol: ToleranceContext, c_host=1.0, c_other=1.0):
    """Whether the host eigenbasis `g` of `_host_eigenbasis` takes the
    degenerate (g23 = 0) branch of `enumerate_candidates_12`, on the pair
    that weights the host by c_host and the other state by c_other; with
    arrays of weights, one verdict per row."""
    g11, _, g21, g22, g23 = g
    return c_other * g23 <= tol.equality * np.maximum(
        c_host * g11, c_other * max(g21, g22, g23))


def _mixing_candidates_12(s1, s2, g, host, split, tol: ToleranceContext,
                          c_host=1.0, c_other=1.0):
    """(rows, candidates) of the mixing polynomial (`enumerate_candidates_12`
    off its degenerate branch) for each pair of a stack that weights the
    pair of the host eigenbasis (s1, s2, g) by (c_host, c_other) on its
    `split`: arrays (n,) of weights, or 1 for that pair itself.

    On the basis (s1, s2) the host's form is diag(g11, g12) and the other
    state's [[g21, g23], [g23, g22]], so every quadratic form of a row is
    read off g and its weights.  The polynomial of a row is c_h c_o (c_h L
    - c_o Q), L and Q the two parts below, so each row's roots are those
    of c_h L - c_o Q, all from one stacked companion matrix
    (`_real_nonzero_roots`).  candidates is a `Candidate12` whose fields
    hold one value per candidate, rows[j] the row of candidate j, each
    row's in root order.
    """
    g11, g12, g21, g22, g23 = g
    diff1, diff2 = g11 - g12, g21 - g22
    # mixing polynomial: x^2 g1^2 (g21 x^2 - 2 g23 x + g22)
    #                    - (g23 x^2 + g2 x - g23)^2 (g11 x^2 + g12)
    # (coefficient arrays, highest power first)
    lead = np.zeros(7)
    lead[2:] = np.convolve([diff1 ** 2, 0.0, 0.0], [g21, -2 * g23, g22])
    cross = [g23, diff2, -g23]
    quad = np.convolve(np.convolve(cross, cross), [g11, 0.0, g12])
    c_host, c_other = np.atleast_1d(c_host, c_other)
    rows, x = _real_nonzero_roots(np.outer(c_host, lead)
                                  - np.outer(c_other, quad))
    # each candidate's forms on (s1, s2), of its row's weights
    c_o = c_other[rows]
    h11, h12 = np.multiply.outer((g11, g12), c_host[rows])
    o11, o22, o12 = np.multiply.outer((g21, g22, g23), c_o)
    scale = np.maximum(h11, c_o * max(g21, g22, g23))
    xx = x * x
    # the forms of phi_perp, along x s1 - s2, without the common 1 + x^2
    q_host, q_other = xx * h11 + h12, xx * o11 - 2 * x * o12 + o22
    # the sign condition, <phi|g_o - g_h|phi> >= 0 for phi the unit vector
    # along s1 + x s2, and positive forms
    keep = ((x * (h11 - h12) * (x * (o11 - o22) + o12 * (xx - 1))
             >= -tol.equality * scale ** 2)
            & ((o11 - h11) + 2 * x * o12 + xx * (o22 - h12)
               >= -tol.equality * scale * (1.0 + xx))
            & (q_host > 0.0) & (q_other > 0.0))
    rows, x, xx = rows[keep], x[keep], xx[keep]
    norm = (1.0 / np.sqrt(1.0 + xx))[:, None]
    phi_perp = norm * (x[:, None] * s1 - s2)
    n_vec, nu = _finish_candidate_12(phi_perp, q_host[keep], q_other[keep],
                                     host, split)
    return rows, Candidate12(norm * (s1 + x[:, None] * s2), phi_perp, x,
                             n_vec, nu, host)


def _real_nonzero_roots(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real nonzero roots of each polynomial of a stack (n, k),
    coefficients highest power first, as (rows, roots): roots[j] is a root
    of polynomial rows[j], each polynomial's in the order `np.roots` gives
    them.  Like `np.roots`, each polynomial is trimmed of its leading and
    trailing zeros and solved by the eigenvalues of its companion matrix.
    The polynomials with nothing to trim share one stacked `eigvals`."""
    untrimmed = coeffs[:, [0, -1]].all(axis=1)
    stacks = [(untrimmed.nonzero()[0], coeffs[untrimmed])]
    for row in (~untrimmed).nonzero()[0].tolist():
        trimmed = np.trim_zeros(coeffs[row])
        if len(trimmed) > 1:
            stacks.append((np.array([row]), trimmed[None]))
    found = []
    for rows, p in stacks:
        degree = p.shape[1] - 1
        companion = np.eye(degree, k=-1) * np.ones((len(p), 1, 1))
        companion[:, 0] = -p[:, 1:] / p[:, :1]
        z = np.linalg.eigvals(companion)
        size = np.abs(z.real)
        real = ((np.abs(z.imag) <= _REAL_ROOT_TOL * (1.0 + size))
                & (size > 1e-12))
        found.append((rows[real.nonzero()[0]], z.real[real]))
    if len(found) == 1:
        return found[0]
    rows, roots = (np.concatenate(parts) for parts in zip(*found))
    order = np.argsort(rows, kind="stable")
    return rows[order], roots[order]


def balance_residual_12(cand: Candidate12, pair: WeightedDensityPair) -> float:
    """Residual of the complex balance equation the candidate must solve:
    sqrt(<pp|gh|pp>) <pp|go|phi> - sqrt(<pp|go|pp>) <pp|gh|phi>."""
    gh = pair.gamma1 if cand.host == 1 else pair.gamma2
    go = pair.gamma2 if cand.host == 1 else pair.gamma1
    pp, phi = cand.phi_perp, cand.phi
    lhs = (np.sqrt(np.real(np.vdot(pp, gh @ pp))) * np.vdot(pp, go @ phi))
    rhs = (np.sqrt(np.real(np.vdot(pp, go @ pp))) * np.vdot(pp, gh @ phi))
    return float(abs(lhs - rhs))


def finalize_candidate_12(cand: Candidate12, pair: WeightedDensityPair,
                          ) -> SolverOutcome | Rejection:
    """Build and verify the measurement of a rank-(1,2) candidate.

    The inconclusive element is |phi><phi| + n n^dag; the candidate is
    accepted only if its weight nu lies strictly inside (0, 1), the
    inconclusive element completes to a measurement ("not_completable"
    otherwise) and that measurement passes the full optimality check
    ("optimality_residual" otherwise).  An accepted candidate gives the
    outcome of `optimality.accepted_outcome` on `pair`, branch class-12.
    """
    if not _nu_inside(cand.nu, pair.tol):
        return Rejection("nu_ge_one")
    try:
        m = complete_measurement(
            _inconclusive_12(cand, pair.common_kernel().projector()), pair)
    except InvalidInconclusive:
        return Rejection("not_completable")
    return (accepted_outcome(m, pair, BRANCH_CLASS_12)
            or Rejection("optimality_residual"))


def _nu_inside(nu, tol: ToleranceContext):
    """The weight gate of `finalize_candidate_12`: 0 < nu < 1, with the
    rank margin; per candidate for an array of weights."""
    return (0.0 < nu) & (nu < 1.0 - tol.rank_atol)


def _inconclusive_12(cand: Candidate12, kernel_projector: np.ndarray):
    """|phi><phi| + n n^dag + the common kernel's projector, the e_q of a
    rank-(1,2) candidate; (m, d, d) for candidates whose fields hold one
    value per candidate."""
    def outer(v):
        return v[..., :, None] * v.conj()[..., None, :]
    return hermitian_part(outer(cand.phi) + outer(cand.n_vector)
                          + kernel_projector)


def _kernel_jordan_data(pair: WeightedDensityPair):
    """Jordan bases of the detector spaces (the kernels inside the
    collective support), with the phase conventions the rank-(1,1)
    candidate equations assume.  They are read off the split
    (<d1_k|d2_k> = -c_k): D2 in ker gamma1 and -D1 in ker gamma2 overlap in
    the split's cosines.  Cosines within 10 tol.equality of each other get
    the basis that diagonalizes gamma1 on the ker gamma2 side, each pair
    phased to a positive overlap."""
    tol = pair.tol
    split = pair.jordan
    if not (split.strictly_skew and split.n_skew == 2):
        raise PreconditionViolated(
            "kernel geometry is not strictly skew with two Jordan pairs")
    d1, d2 = (s.basis for s in split.detector_spaces)
    basis1, basis2, cosines = d2, -d1, split.cosines
    if cosines[0] - cosines[1] <= 10 * tol.equality:
        _, rot = np.linalg.eigh(hermitian_part(dag(basis2) @ pair.gamma1
                                               @ basis2))
        basis1, basis2 = basis1 @ rot, basis2 @ rot
        for k in range(2):
            z = np.vdot(basis1[:, k], basis2[:, k])
            if abs(z) > tol.rank_atol:
                basis2[:, k] *= z.conjugate() / abs(z)
    k11, k12 = basis1[:, 0], basis1[:, 1]
    k21, k22 = basis2[:, 0], basis2[:, 1]
    b1 = complex(np.vdot(k21, pair.gamma1 @ k22))
    b2 = complex(np.vdot(k11, pair.gamma2 @ k12))
    scale = max(pair.total_trace, 1e-300)
    g13 = abs(b1) if abs(b1) > tol.equality * scale else 0.0
    g23 = abs(b2) if abs(b2) > tol.equality * scale else 0.0
    # one joint phase on (k12, k22) makes the two cross elements carry
    # opposite phases +phase / -phase with phase in [0, pi)
    if g13 == 0.0 and g23 == 0.0:
        phase, shift = 0.0, 0.0
    elif g13 == 0.0:
        phase, shift = 0.0, -np.angle(b2)
    elif g23 == 0.0:
        phase, shift = 0.0, -np.angle(b1)
    else:
        beta1, beta2 = np.angle(b1), np.angle(b2)
        phase = 0.5 * (beta1 - beta2)
        shift = phase - beta1
        wrapped = np.mod(phase, np.pi)
        shift += wrapped - phase
        phase = float(wrapped)
    k12 = k12 * np.exp(1j * shift)
    k22 = k22 * np.exp(1j * shift)
    g11 = float(np.real(np.vdot(k21, pair.gamma1 @ k21)))
    g12 = float(np.real(np.vdot(k22, pair.gamma1 @ k22)))
    g21 = float(np.real(np.vdot(k11, pair.gamma2 @ k11)))
    g22 = float(np.real(np.vdot(k12, pair.gamma2 @ k12)))
    c = float(cosines[1] / cosines[0])
    return (k11, k12, k21, k22), phase, c, g13, g23, g11 - g12, g21 - g22


def _vectors_11(k11, k12, k21, k22, c, x, theta):
    e = np.exp(1j * theta)
    n1 = 1.0 / np.sqrt(1.0 + x * x)
    n2 = 1.0 / np.sqrt(1.0 + c * c * x * x)
    psi1 = n1 * (k21 + x * e * k22)
    psi1_perp = n1 * (x * e.conjugate() * k21 - k22)
    psi2 = n2 * (-x * e.conjugate() * c * k11 + k12)
    psi2_perp = n2 * (-k11 - x * e * c * k12)
    return psi1, psi1_perp, psi2, psi2_perp


def enumerate_candidates_11(pair: WeightedDensityPair) -> list[Candidate11]:
    """Candidates for the von Neumann class with both conclusive ranks one.

    Basis-vector candidates fire when the phase vanishes and the cross
    elements balance (c*g23 = g13 for psi1 = k21, c*g13 = g23 for
    psi1 = k22).  Mixed candidates come from real nonzero roots of the
    even polynomial B1^2 (A1^2 + A2^2) = (A1 B2 - A2 B3)^2; the angle
    theta follows from A1 sin(theta) = A2 cos(theta) (or from the
    closed-form fallback when both vanish), and candidates with a
    determinate angle must also satisfy B1 = B3 sin(theta) - B2 cos(theta).
    """
    tol = pair.tol
    vecs, phase, c, g13, g23, d1, d2 = _kernel_jordan_data(pair)
    k11, k12, k21, k22 = vecs
    out: list[Candidate11] = []
    scale = max(pair.total_trace, 1e-300)
    sin_phase, cos_phase = float(np.sin(phase)), float(np.cos(phase))
    data = JordanData11(phase, c, g13, g23, d1, d2)

    def make(x, theta):
        return Candidate11(*_vectors_11(k11, k12, k21, k22, c, x, theta),
                           x, theta, data)

    if abs(sin_phase) <= tol.equality:
        if abs(c * g23 - g13) <= tol.equality * scale:
            out.append(make(0.0, 0.0))
        if abs(c * g13 - g23) <= tol.equality * scale:
            # swapped basis-vector candidate psi1 = k22
            out.append(Candidate11(k22, k21, k11, k12, 0.0, 0.0, data))
    if g13 == 0.0 and g23 == 0.0:
        _degenerate_family_probe(pair, out, c, d1, d2, vecs)
        return out
    # coefficient arrays, highest power first
    u = np.array([c * c, 0.0, 1.0])        # c^2 x^2 + 1
    v = np.array([1.0, 0.0, 1.0])          # x^2 + 1
    a1_poly = (v * (c * g23) - u * g13) * cos_phase
    a2_poly = (v * (c * g23) + u * g13) * sin_phase
    b1_poly = _b1_poly(c, d1, d2)
    g13_part = np.convolve(np.convolve(u, u) * g13, [1.0, 0.0, -1.0])
    g23_part = np.convolve(np.convolve(v, v) * (c * g23), [c * c, 0.0, -1.0])
    b2_poly = (g13_part - g23_part) * cos_phase
    b3_poly = (g13_part + g23_part) * sin_phase
    # B1^2 (A1^2 + A2^2) - (A1 B2 - A2 B3)^2; the first term has degree 14,
    # the second degree 16
    mixed = np.convolve(a1_poly, b2_poly) - np.convolve(a2_poly, b3_poly)
    poly = -np.convolve(mixed, mixed)
    poly[2:] += np.convolve(np.convolve(b1_poly, b1_poly),
                            np.convolve(a1_poly, a1_poly)
                            + np.convolve(a2_poly, a2_poly))
    coeff_scale = max(abs(d1), abs(d2), g13, g23)
    for x in _real_nonzero_roots(poly[None])[1].tolist():
        a1, a2 = np.polyval(a1_poly, x), np.polyval(a2_poly, x)
        b1, b2, b3 = (np.polyval(b1_poly, x), np.polyval(b2_poly, x),
                      np.polyval(b3_poly, x))
        bscale = max(1.0, abs(b1), abs(b2), abs(b3))
        if abs(a1) > 1e-11 * coeff_scale:
            theta = float(np.arctan(a2 / a1))
            if abs(b1 - b3 * np.sin(theta) + b2 * np.cos(theta)) <= 1e-7 * bscale:
                out.append(make(x, theta))
        elif abs(a2) > 1e-11 * coeff_scale:
            theta = -np.pi / 2
            if abs(b1 - b3 * np.sin(theta) + b2 * np.cos(theta)) <= 1e-7 * bscale:
                out.append(make(x, theta))
        else:
            # both angle coefficients vanish: theta only fixed up to sign
            denom = 2.0 * g13 * g23 * (c * g23 - g13)
            if abs(denom) <= 1e-14 * max(coeff_scale ** 3, 1e-300):
                continue
            cos_theta = x * c * (g23 ** 2 * d1 - g13 ** 2 * d2) / denom
            if abs(cos_theta) > 1.0 + 1e-10:
                continue
            theta = float(np.arccos(np.clip(cos_theta, -1.0, 1.0)))
            out.append(make(x, theta))
            if theta != 0.0:
                out.append(make(x, -theta))
    return out


def _b1_poly(c: float, d1: float, d2: float) -> np.ndarray:
    """Coefficients of B1(x) = x [(c^2 x^2 + 1)^2 d1 - c^2 (x^2 + 1)^2 d2]."""
    u = [c * c, 0.0, 1.0]
    v = [1.0, 0.0, 1.0]
    return (np.convolve(np.convolve(u, u), [d1, 0.0])
            - np.convolve(np.convolve(v, v), [c * c * d2, 0.0]))


def _degenerate_family_probe(pair, basis_candidates, c, d1, d2, vecs):
    """With both cross elements zero, any nonzero-x solution of the
    remaining conditions would form a continuous optimal family, which
    uniqueness forbids; finding one numerically means the instance is
    degenerate for this method."""
    tol = pair.tol
    k11, k12, k21, k22 = vecs
    # B1(x) = 0 with x != 0: B1(x) / x is a quadratic in y = x^2, with the
    # coefficients of x^4, x^2 and x^0
    coeffs = _b1_poly(c, d1, d2)[0:5:2]
    top = float(np.abs(coeffs).max())
    if top == 0.0:
        return
    for y in np.roots(np.trim_zeros(coeffs / top, "f")):
        if abs(np.imag(y)) > 1e-10 or np.real(y) <= 1e-12:
            continue
        x = float(np.sqrt(np.real(y)))
        psi1, psi1p, psi2, psi2p = _vectors_11(k11, k12, k21, k22, c, x, 0.0)
        e1 = np.outer(psi1, psi1.conj())
        e2 = np.outer(psi2, psi2.conj())
        e_q = np.eye(pair.dim) - e1 - e2
        if la.min_eigenvalue(e_q) < -tol.psd_floor:
            continue
        lhs_a = abs(np.vdot(psi1p, psi2)) ** 2 * np.real(np.vdot(psi2, pair.gamma2 @ psi2))
        rhs_a = np.real(np.vdot(psi1p, pair.gamma1 @ psi1p))
        lhs_b = abs(np.vdot(psi2p, psi1)) ** 2 * np.real(np.vdot(psi1, pair.gamma1 @ psi1))
        rhs_b = np.real(np.vdot(psi2p, pair.gamma2 @ psi2p))
        if lhs_a >= rhs_a - tol.equality and lhs_b >= rhs_b - tol.equality:
            raise DegenerateFamily(
                "a continuous family of rank-(1,1) solutions appeared with "
                "vanishing cross elements; the instance is numerically "
                "degenerate for the candidate method")


def balance_residual_11(cand: Candidate11) -> float:
    """Relative residual of the complex balance equation behind the
    x-polynomial (the raw terms grow like x^4, so the difference is scaled
    by the larger side)."""
    d = cand.jordan_data
    x, theta, phase, c = cand.x, cand.theta, d.phase, d.c
    u = c * c * x * x + 1.0
    v = x * x + 1.0
    lhs = u * u * (x * d.g1 - np.exp(1j * (theta + phase)) * d.g13
                   + x * x * np.exp(-1j * (theta + phase)) * d.g13)
    rhs = c * v * v * (x * c * d.g2 - np.exp(1j * (theta - phase)) * d.g23
                       + x * x * c * c * np.exp(-1j * (theta - phase)) * d.g23)
    return float(abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))


def finalize_candidate_11(cand: Candidate11, pair: WeightedDensityPair,
                          ) -> SolverOutcome | Rejection:
    """Build and verify the projective measurement of a rank-(1,1) candidate.

    e1 = |psi1><psi1| and e2 = |psi2><psi2|; the candidate must leave the
    inconclusive element PSD and satisfy both acceptance inequalities
    before the full optimality check is consulted.  An accepted candidate
    gives the outcome of `optimality.accepted_outcome` on `pair`, branch
    class-11.
    """
    tol = pair.tol
    if abs(np.vdot(cand.psi1, cand.psi2)) > np.sqrt(tol.equality):
        return Rejection("not_psd")
    e1 = np.outer(cand.psi1, cand.psi1.conj())
    e2 = np.outer(cand.psi2, cand.psi2.conj())
    e_q = np.eye(pair.dim) - e1 - e2
    if la.min_eigenvalue(e_q) < -tol.psd_floor:
        return Rejection("not_psd")
    lhs = (abs(np.vdot(cand.psi1_perp, cand.psi2)) ** 2
           * float(np.real(np.vdot(cand.psi2, pair.gamma2 @ cand.psi2))))
    rhs = float(np.real(np.vdot(cand.psi1_perp, pair.gamma1 @ cand.psi1_perp)))
    if lhs < rhs - tol.equality:
        return Rejection("first_acceptance_inequality")
    lhs = (abs(np.vdot(cand.psi2_perp, cand.psi1)) ** 2
           * float(np.real(np.vdot(cand.psi1, pair.gamma1 @ cand.psi1))))
    rhs = float(np.real(np.vdot(cand.psi2_perp, pair.gamma2 @ cand.psi2_perp)))
    if lhs < rhs - tol.equality:
        return Rejection("second_acceptance_inequality")
    return (accepted_outcome(UsdMeasurement(e1, e2, hermitian_part(e_q)),
                             pair, BRANCH_CLASS_11)
            or Rejection("optimality_residual"))


def _residual_total(report: OptimalityReport) -> float:
    return (abs(report.residual_a1) + abs(report.residual_a2)
            + report.residual_cross + report.residual_b)


def _family_outcomes(pair: WeightedDensityPair, family):
    """The outcomes of one family (`_FAMILIES`) that pass their check on
    `pair`, in the order its candidates are tried; lazily, so a caller that
    stops at the first one runs nothing past it."""
    branch, host = family
    if branch == BRANCH_SINGLE_STATE:
        results = [try_single_state_detection(pair)]
    elif branch == BRANCH_FIDELITY:
        results = [try_fidelity_form(pair)]
    elif branch == BRANCH_CLASS_12:
        results = (finalize_candidate_12(cand, pair)
                   for cand in enumerate_candidates_12(pair, detect_on=host))
    else:
        results = (finalize_candidate_11(cand, pair)
                   for cand in enumerate_candidates_11(pair))
    for outcome in results:
        if isinstance(outcome, SolverOutcome):
            yield outcome


def _accepted_outcomes(pair: WeightedDensityPair, families=_FAMILIES,
                       started=None):
    """The outcomes of `families` that pass their check on `pair`, in the
    order they are tried.  The candidate classes run only when neither
    closed form passes.  `started` maps a family that has already run to
    what it yielded (`_carried`), which is replayed, not run again."""
    started = started or {}
    closed = False
    for family in families:
        if closed and family not in _CLOSED_FORMS:
            return
        outcomes = (started[family] if family in started
                    else _family_outcomes(pair, family))
        for outcome in outcomes:
            closed = closed or family in _CLOSED_FORMS
            yield outcome


def _family_class(branch: str, rank: int) -> tuple[int, int]:
    """The unordered class of a family's measurement on a strictly skew
    core whose states have rank `rank`; the candidate classes are solved
    only at rank 2."""
    return {BRANCH_SINGLE_STATE: (0, rank), BRANCH_FIDELITY: (rank, rank),
            BRANCH_CLASS_12: (1, 2), BRANCH_CLASS_11: (1, 1)}[branch]


def _on_boundary(outcome: SolverOutcome, rank: int = 2) -> bool:
    """Whether an accepted answer sits on a class boundary: its closed form
    called it marginal, its class is not its family's, or a kept singular
    value of e1 or e2 sits within `_BOUNDARY_RANK_MARGIN` of the cutoff.
    This is the one-row case of `_off_class`."""
    return bool(_off_class(outcome.boundary, outcome.class_tag,
                           outcome.branch, rank))


def _off_class(boundary, tag, branch: str, rank: int = 2):
    """`_on_boundary` of answers of family `branch` with the given boundary
    flags and class tags, whose fields may hold one value per row."""
    low, high = _family_class(branch, rank)
    return (boundary | (np.minimum(tag.e1_rank, tag.e2_rank) != low)
            | (np.maximum(tag.e1_rank, tag.e2_rank) != high)
            | (tag.rank_margin <= _BOUNDARY_RANK_MARGIN))


def _family_of(outcome: SolverOutcome):
    """The family (`_FAMILIES`) of an analytic outcome, None for any other
    branch.  A class-12 measurement has e1 of rank 1 when state 1 hosts
    ker(1 - e_q)."""
    if outcome.branch == BRANCH_CLASS_12:
        return BRANCH_CLASS_12, 1 if outcome.class_tag.e1_rank == 1 else 2
    family = (outcome.branch, 0)
    return family if family in _FAMILIES else None


def _carried(pair: WeightedDensityPair, family, rank: int = 2):
    """Run `family`, the one the previous prior of a sweep accepted, first.

    Returns (answer, started).  answer is the family's first outcome that
    passes its check, when that outcome is off a class boundary
    (`_on_boundary`): by uniqueness of the optimum it is the answer, and
    nothing else runs.  Otherwise answer is None, and started maps the
    family to a replay of what it yielded, so that the full order
    (`_accepted_outcomes`) runs unchanged without running it twice.
    """
    if family is None:
        return None, {}
    probe, replay = itertools.tee(_family_outcomes(pair, family))
    first = next(probe, None)
    if first is not None and not _on_boundary(first, rank):
        return first, {}
    return None, {family: replay}


def _first_closed_form(pair: WeightedDensityPair,
                       family=None) -> SolverOutcome | None:
    """The answer of `dispatch` on a strictly skew core that is not 4-dim:
    the first closed form that passes, single state detection before the
    fidelity form, or None.  A carried closed form runs first, under the
    rule of `solve_4d`."""
    if family not in _CLOSED_FORMS:
        family = None
    answer, started = _carried(pair, family, pair.jordan.n_skew)
    if answer is not None:
        return answer
    return next(_accepted_outcomes(pair, _CLOSED_FORMS, started), None)


def solve_4d(pair: WeightedDensityPair, *, _family=None) -> SolverOutcome:
    """Optimal measurement of a strictly skew rank-(2,2) pair (4-dim support).

    Families are tried cheapest first, each at most once, on the pair as
    given, in its own space: single state detection, the fidelity form,
    the two rank-(1,2) orientations, then rank-(1,1); the last three only
    when neither closed form passes.  A common kernel is no obstacle: each
    family builds an inconclusive element that is the identity on it.
    Each family checks its measurement once, on the pair, and that check
    is the outcome's report.

    By uniqueness, the first answer that passes is the optimum, and the
    remaining families are skipped, unless that answer sits on a class
    boundary: its closed form flagged it marginal, its class tag is not
    its family's class, or a kept singular value of e1 or e2 lies within
    100x above the rank cutoff.  There two families can both pass within
    tolerance, so all of them run; when more than one passes, the one with
    the smallest total residual is kept, with `boundary` set and a note
    naming how many families passed.

    `sweep` passes the family that answered the previous prior as
    `_family`, a `(branch, host)` pair of `_FAMILIES`, and that family
    runs first.  If its measurement passes its check off a class boundary,
    it is the answer, by the same uniqueness argument.  Otherwise the full
    order above runs, with what the family already yielded replayed, so
    boundary handling and the smallest-residual choice are unchanged.  On
    a class transition the carried family can pass off the boundary where
    a family tried before it passes on the boundary; both measurements
    pass the check, and the outcome names the carried family.

    The outcome carries no certificate (its `certificate` is None); call
    `build_certificate` on the measurement when one is needed.
    """
    if not pair.strictly_skew:
        raise PreconditionViolated("solver requires a strictly skew pair")
    support = pair.collective_support().size
    if support != 4:
        raise PreconditionViolated(
            f"collective support must be four-dimensional, got {support}")
    if any(s.size != 2 for s in pair.supports):
        raise PreconditionViolated("both states must have rank two")

    answer, started = _carried(pair, _family)
    if answer is not None:
        return answer
    outcomes = _accepted_outcomes(pair, started=started)
    first = next(outcomes, None)
    if first is None:
        raise NoSolutionFound(
            "no measurement family passed verification; the instance sits "
            "too close to a numerical degeneracy")
    found = [first, *outcomes] if _on_boundary(first) else [first]
    # on a class boundary, answers of two families can agree up to
    # tolerance: keep the one with the smaller residual and mark the outcome
    found.sort(key=lambda oc: _residual_total(oc.report))
    best = found[0]
    if len(found) == 1:
        return best
    note = (f"{len(found)} families passed verification (class boundary);"
            f" kept {best.branch} by smaller residual")
    return replace(best, boundary=True, warnings=best.warnings + (note,))


# --------------------------------------------------------------------------
# a stack of reweighted pairs
# --------------------------------------------------------------------------

def _take(record, keep):
    """`record`, a dataclass whose fields hold one value per row, at the
    rows `keep` (a mask or indices); a field of one value for all rows
    (a candidate's host) stays."""
    return type(record)(*(v[keep] if np.ndim(v) else v for v in (
        getattr(record, f.name) for f in fields(record))))


def _repeat(record, n: int):
    """`record`, a dataclass of one value per field, as the same value in
    each of n rows (read-only views)."""
    return type(record)(*(np.broadcast_to(v, (n,) + np.shape(v)) for v in (
        getattr(record, f.name) for f in fields(record))))


def _solve_4d_rows(core: WeightedDensityPair, c1: np.ndarray, c2: np.ndarray,
                   gamma1: np.ndarray, gamma2: np.ndarray):
    """The answers of `solve_4d` on a stack of pairs that one stack of
    arrays settles.

    Row i is the pair (gamma1[i], gamma2[i]), states (n, d, d), that
    reweights the strictly skew (4;2,2) pair `core` by (c1[i], c2[i]) and
    holds its split, as `WeightedDensityPair.reweighted` hands it over.
    The families run in `solve_4d`'s order, single state detection, the
    fidelity form and class-12 with either host, each once, over the rows
    no family before it settled, with the arithmetic of the per-pair path
    given a leading row axis: `_single_state_branches`, `_fidelity_blocks`
    and `_mixing_candidates_12`, then `_diagnostics`, `_completion`,
    `_check` and `_classify`.  A row is settled by the first family that
    passes its check there.  Off a class boundary (`_off_class`) that
    measurement is the row's answer, by uniqueness of the optimum, as in
    `solve_4d`.  On one, the row is left to `solve_4d`, as is a row no
    family passes (class-11, or none) and a row whose class-12 host takes
    the degenerate branch of `enumerate_candidates_12`.

    Returns the answers in parts (family, rows, m, tag, report), one per
    family that answered rows: `_FAMILIES[family]` answers the rows with
    the measurements m, class tags and checks (`_check`), whose fields
    hold one value per row.  Rows in no part are left to `solve_4d`.
    """
    split, tol = core.jordan, core.tol
    kernel = core.common_kernel()
    parts = []
    pending = np.arange(len(c1))  # the rows no family has settled

    def states(rows):
        """The states of the pending rows `rows` (indices into pending)."""
        return gamma1[pending[rows]], gamma2[pending[rows]]

    def check(m, rows):
        return _check(m.e_inconclusive, *states(rows), split.detectors, tol)

    def settle(family, rows, m, report, boundary, tag=None, left=()):
        """Settle the pending rows `rows`, each passed first by family with
        the measurement and check of its row, and leave the rows `left`
        to solve_4d."""
        nonlocal pending
        tag = _classify(m, 2, tol) if tag is None else tag
        answer = ~_off_class(boundary, tag, _FAMILIES[family][0])
        if answer.any():
            parts.append((family, pending[rows[answer]], _take(m, answer),
                          _take(tag, answer), _take(report, answer)))
        pending = np.delete(pending, np.concatenate((rows, left)).astype(int))

    # single state detection: two fixed measurements, in order
    for ok, marginal, m in _single_state_branches(gamma1, gamma2, split, tol):
        rows = np.flatnonzero(ok[pending])
        report = check(m, rows)
        passed = report.is_optimal
        rows, report = rows[passed], _take(report, passed)
        settle(0, rows, _repeat(m, len(rows)), report, marginal[pending[rows]],
               _repeat(_classify(m, 2, tol), len(rows)))
    # the fidelity form
    w1, w2 = c1[pending, None, None], c2[pending, None, None]
    roots = tuple(root.scaled(c, other) for root, c, other in
                  zip(core.root_blocks, (w1, w2), (w2, w1)))
    ok, marginal = _fidelity_feasible(roots, tol)
    rows = np.flatnonzero(ok)
    m = split.measurement(*(y[rows] for y in _fidelity_blocks(roots)))
    valid = _diagnostics(m.e_inconclusive, *states(rows), kernel.basis, tol).ok
    rows, m, marginal = rows[valid], _take(m, valid), marginal[rows[valid]]
    report = check(m, rows)
    passed = report.is_optimal
    settle(1, rows[passed], _take(m, passed), _take(report, passed),
           marginal[passed])
    # class-12, host 1 then host 2
    for family in (2, 3):
        host = _FAMILIES[family][1]
        h, o = host - 1, 2 - host
        s1, s2, g = _host_eigenbasis(
            core.supports[h], core.root_blocks[h].spectrum,
            (core.gamma1, core.gamma2)[h], (core.gamma1, core.gamma2)[o], tol)
        c_h, c_o = (c1, c2)[h][pending], (c1, c2)[o][pending]
        # a row that takes the degenerate branch, or whose host basis would
        # not be phased as the core's, is left to solve_4d
        degenerate = (_degenerate_12(g, tol, c_h, c_o)
                      | (c_o * g[4] <= tol.rank_atol))
        rows = np.flatnonzero(~degenerate)
        cand_rows, cands = _mixing_candidates_12(s1, s2, g, host, split, tol,
                                                 c_h[rows], c_o[rows])
        inside = _nu_inside(cands.nu, tol)
        cand_rows, e_q = rows[cand_rows[inside]], _inconclusive_12(
            _take(cands, inside), kernel.projector())
        valid = _diagnostics(e_q, *states(cand_rows), kernel.basis, tol).ok
        m, closure = _completion(e_q[valid], split)
        closed = closure <= tol.equality
        cand_rows, m = cand_rows[valid][closed], _take(m, closed)
        report = check(m, cand_rows)
        # each row's first candidate that passes: candidates come in row
        # order, each row's in the order enumerate_candidates_12 gives them
        passed = np.flatnonzero(report.is_optimal)
        picked = passed[np.unique(cand_rows[passed], return_index=True)[1]]
        settle(family, cand_rows[picked], _take(m, picked),
               _take(report, picked), np.zeros(len(picked), dtype=bool),
               left=np.flatnonzero(degenerate))
    return parts

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

import warnings as _warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .closed_form import (BRANCH_FIDELITY, BRANCH_SINGLE_STATE,
                          _fidelity_blocks, _fidelity_feasible,
                          _single_state_branches,
                          try_fidelity_form, try_single_state_detection)
from .errors import NoSolutionFound, PreconditionViolated, UsdNumericsWarning
from .linalg import dag, hermitian_part
from .model import (UsdMeasurement, WeightedDensityPair, _at, _diagnostics,
                    validate_inconclusive)
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
    state, and rho = sqrt(<pp|g_other|pp> / <pp|g_host|pp>) the ratio of
    the two states' forms on pp = phi_perp.  The measurement is built from
    these alone, as k x k blocks in the split's detector coordinates
    (`_blocks_12`); its inconclusive element fixes phi and keeps the
    weight nu on one more direction.  x is the real root that generated
    the basis (0 for the eigenvector candidates).
    """

    phi: np.ndarray
    phi_perp: np.ndarray
    x: float
    rho: float
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
    """Candidate data for a von Neumann rank-(1,1) measurement: the
    conclusive directions as k-vectors on the detector Jordan columns,
    psi1 on those of -D1 in ker gamma2 and psi2 on those of D2 in ker
    gamma1 (`JordanSplit.detector_spaces`), and the perp vectors that
    complete each side's basis; <psi1|psi2> = psi1^dag C psi2."""

    psi1: np.ndarray
    psi1_perp: np.ndarray
    psi2: np.ndarray
    psi2_perp: np.ndarray
    x: float
    theta: float
    jordan_data: JordanData11


def _host_eigenbasis(pair: WeightedDensityPair, host: int):
    """Eigenbasis (s1, s2) of state `host` of the pair on its support, with
    g23 >= 0.

    The host's eigenvalues and eigenvectors on its support are the `eigh`
    kept by the pair's `root_blocks` (`_RootBlock.spectrum`).  s1 carries
    the larger host eigenvalue.  If the host is degenerate on its support,
    the basis is rotated to diagonalize the other state's quadratic form
    instead (g23 = 0 convention).
    """
    h = host - 1
    sup, (w, v), tol = pair.supports[h], pair.root_blocks[h].spectrum, pair.tol
    states = (pair.gamma1, pair.gamma2)
    host_gamma, other_gamma = states[h], states[1 - h]
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
    """(rho, nu): rho = sqrt(q_other / q_host) for the positive quadratic
    forms q = <pp|g|pp> of the host and the other state on pp = phi_perp,
    up to one common factor, and the weight nu of the inconclusive
    element off phi, |n|^2 for n = sqrt(rho) L_h u + L_o C u / sqrt(rho)
    (L_mu the split's `lifts`, u = B_h^dag pp), read off the cosines and
    `sines` in a form free of cancellation near parallel: sum_k |u_k|^2
    ((rho - c_k^2)^2 / s_k^2 + c_k^2) / rho.  phi_perp may be a stack
    (..., d) of vectors, with forms (...)."""
    rho = np.sqrt(q_other / q_host)
    weight = np.abs(phi_perp @ split.supports[host - 1].basis.conj()) ** 2
    cc = split.cosines[split.skew] ** 2
    terms = (rho[..., None] - cc) ** 2 / split.sines ** 2 + cc
    return rho, np.sum(weight * terms, axis=-1) / rho


def enumerate_candidates_12(pair: WeightedDensityPair,
                            detect_on: int = 1) -> list[Candidate12]:
    """Candidate bases for the class with a one-dimensional projective part.

    detect_on names the state whose support hosts ker(1 - e_inconclusive)
    (host 1 gives measurement type (1, 2)).  With g23 = 0 only the two
    host eigenvectors qualify, gated by g21 >= g11 resp. g22 >= g12.
    Otherwise the mixing angle vanishes and each real nonzero root of the
    degree-six polynomial yields one candidate, filtered by the sign
    condition x g1 (x g2 + g23 (x^2-1)) >= 0 and by
    <phi|g_other - g_host|phi> >= 0.  Each candidate carries its ratio
    rho and weight nu (`_finish_candidate_12`), all `finalize_candidate_12`
    needs besides its basis.  This is the one-row case of `_candidates_12`.
    """
    if detect_on not in (1, 2):
        raise ValueError("detect_on must be 1 or 2")
    s1, s2, g = _host_eigenbasis(pair, detect_on)
    host, other = (pair.gamma1, pair.gamma2)[::1 if detect_on == 1 else -1]
    _, cands = _candidates_12(s1, s2, g, detect_on, pair.jordan, pair.tol,
                              host[None], other[None])
    return [Candidate12(phi, pp, x, rho, nu, detect_on) for phi, pp, x, rho,
            nu in zip(cands.phi, cands.phi_perp, cands.x.tolist(),
                      cands.rho.tolist(), cands.nu.tolist())]


def _candidates_12(s1, s2, g, host, split, tol: ToleranceContext, gamma_h,
                   gamma_o, c_host=1.0, c_other=1.0):
    """(rows, candidates) of `enumerate_candidates_12` for each pair of a
    stack, with states gamma_h, gamma_o (n, d, d), as
    `_mixing_candidates_12` gives them: `_eigenvector_candidates_12` on the
    rows that take the degenerate branch (`_degenerate_12`)."""
    c_host, c_other = np.atleast_1d(c_host, c_other)
    degenerate = _degenerate_12(g, tol, c_host, c_other)
    if not degenerate.any():
        return _mixing_candidates_12(s1, s2, g, host, split, tol, c_host,
                                     c_other)
    mixing, eigen = np.flatnonzero(~degenerate), np.flatnonzero(degenerate)
    rows_m, mixed = _mixing_candidates_12(s1, s2, g, host, split, tol,
                                          c_host[mixing], c_other[mixing])
    rows_e, eigenvectors = _eigenvector_candidates_12(
        s1, s2, g, host, split, tol, c_host[eigen], c_other[eigen],
        gamma_h[eigen], gamma_o[eigen])
    return _in_row_order([(mixing[rows_m], mixed),
                          (eigen[rows_e], eigenvectors)])


def _eigenvector_candidates_12(s1, s2, g, host, split, tol: ToleranceContext,
                               c_host, c_other, gamma_h, gamma_o):
    """(rows, candidates) of the degenerate branch of
    `enumerate_candidates_12`, as `_candidates_12` takes them: phi = s1
    where g21 >= g11, then phi = s2 where g22 >= g12."""
    g11, g12, g21, g22, g23 = g
    h11, h12 = c_host * g11, c_host * g12
    o11, o22 = c_other * g21, c_other * g22
    scale = np.maximum(h11, c_other * max(g21, g22, g23))
    phi, phi_perp = np.array([s1, s2]), np.array([s2, s1])
    # a degenerate host keeps g11 = g12 only up to tol, so the forms are
    # taken of the states themselves, (n, 2) for the two phi_perp
    q_host, q_other = (np.real(np.sum(phi_perp.conj() * (
        phi_perp @ np.swapaxes(gamma, -1, -2)), -1)) for gamma in
        (gamma_h, gamma_o))
    rows, k = np.nonzero(
        np.stack([o11 >= h11 - tol.equality * scale,
                  o22 >= h12 - tol.equality * scale], axis=1)
        & (q_host > 0.0) & (q_other > 0.0))
    rho, nu = _finish_candidate_12(phi_perp[k], q_host[rows, k],
                                   q_other[rows, k], host, split)
    # uniqueness forbids mixed-basis solutions here; flag any that the
    # quadratic sign pattern would admit, for inspection
    diff1, diff2 = h11 - h12, o11 - o22
    denom = diff1 ** 2 * o11 - diff2 ** 2 * h11
    numer = diff2 ** 2 * h12 - diff1 ** 2 * o22
    if np.any((np.abs(denom) > tol.rank_atol) & (numer * denom > 0)):
        _warnings.warn(
            "discarded a nonzero-angle solution family in the "
            "degenerate (g23 = 0) branch; uniqueness excludes it",
            UsdNumericsWarning, stacklevel=4)
    return rows, Candidate12(phi[k], phi_perp[k], np.zeros(len(rows)), rho,
                             nu, host)


def _in_row_order(parts):
    """The candidates of parts (rows, candidates) as one (rows,
    candidates), in row order, each row's in the order of the parts; a
    field of one value for all candidates is the first part's."""
    rows = np.concatenate([r for r, _ in parts])
    order = np.argsort(rows, kind="stable")
    first = parts[0][1]
    return rows[order], type(first)(*(
        np.concatenate([getattr(c, f.name) for _, c in parts])[order]
        if np.ndim(getattr(first, f.name)) else getattr(first, f.name)
        for f in fields(first)))


def _degenerate_12(g, tol: ToleranceContext, c_host, c_other):
    """Whether the host eigenbasis `g` of `_host_eigenbasis` takes the
    degenerate (g23 = 0) branch of `enumerate_candidates_12`, on each pair
    that weights the host by c_host and the other state by c_other."""
    g11, _, g21, g22, g23 = g
    return c_other * g23 <= tol.equality * np.maximum(
        c_host * g11, c_other * max(g21, g22, g23))


def _mixing_candidates_12(s1, s2, g, host, split, tol: ToleranceContext,
                          c_host, c_other):
    """(rows, candidates) of the mixing polynomial (`enumerate_candidates_12`
    off its degenerate branch) for each pair of a stack that weights the
    pair of the host eigenbasis (s1, s2, g) by arrays (n,) of weights
    (c_host, c_other) on its `split`.

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
    rho, nu = _finish_candidate_12(phi_perp, q_host[keep], q_other[keep],
                                   host, split)
    return rows, Candidate12(norm * (s1 + x[:, None] * s2), phi_perp, x,
                             rho, nu, host)


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

    The measurement is mapped out once from its k x k blocks
    (`_blocks_12`, `JordanSplit.measurement`).  The candidate is accepted
    only if its weight nu lies strictly inside (0, 1) ("nu_ge_one"
    otherwise), the inconclusive element is valid ("not_completable"
    otherwise, `validate_inconclusive`) and the measurement passes the
    full optimality check ("optimality_residual" otherwise).  An accepted
    candidate gives the outcome of `optimality.accepted_outcome` on
    `pair`, branch class-12.
    """
    if not _nu_inside(cand.nu, pair.tol):
        return Rejection("nu_ge_one")
    m = pair.jordan.measurement(*_blocks_12(cand, pair.jordan))
    if not validate_inconclusive(m.e_inconclusive, pair).ok:
        return Rejection("not_completable")
    return (accepted_outcome(m, pair, BRANCH_CLASS_12)
            or Rejection("optimality_residual"))


def _nu_inside(nu, tol: ToleranceContext):
    """The weight gate of `finalize_candidate_12`: 0 < nu < 1, with the
    rank margin; per candidate for an array of weights."""
    return (0.0 < nu) & (nu < 1.0 - tol.rank_atol)


def _blocks_12(cand: Candidate12, split):
    """(X1, X2) in detector coordinates of a rank-(1,2) candidate on its
    pair's `split`: X_host = (1 - rho) v v^dag and X_other = 1 - (1/rho -
    1) w w^dag, v = S^-1 B_h^dag phi_perp and w = C v.  They are S^-1 Y
    S^-1 of the blocks on the support columns, (1 - rho) u_perp u_perp^dag
    and 1 - C (u u^dag + u_perp u_perp^dag / rho) C, as u u^dag + u_perp
    u_perp^dag = 1, free of cancellation near parallel; (m, k, k) for a
    stack of candidates."""
    v = (cand.phi_perp @ split.supports[cand.host - 1].basis.conj()
         ) / split.sines
    w = split.cosines[split.skew] * v
    rho = np.asarray(cand.rho)[..., None, None]
    blocks = ((1.0 - rho) * _outer(v),
              np.eye(len(split.sines)) - (1.0 / rho - 1.0) * _outer(w))
    return blocks if cand.host == 1 else blocks[::-1]


def _detector_forms(roots, split, c1=1.0, c2=1.0):
    """(F1, F2): the forms c_mu S A_mu S of (c1 gamma1, c2 gamma2) on the
    detector columns, A_mu the blocks of `root_blocks` `roots`, as B_mu^dag
    D_mu = S = diag(sines) on the `split`'s skew pairs; (n, k, k) for
    weights (n, 1, 1)."""
    s = split.sines
    return tuple(w * s[:, None] * root.block * s
                 for root, w in zip(roots, (c1, c2)))


def _outer(v):
    """|v><v| of each vector of a stack (..., k), as (..., k, k)."""
    return v[..., :, None] * v.conj()[..., None, :]


def _kernel_jordan_data(roots, split, tol: ToleranceContext,
                        c1=1.0, c2=1.0):
    """((r1, r2), data, scale): the frame of the detector spaces, the data
    of the rank-(1,1) equations (`JordanData11`) and the trace c1 tr A1 +
    c2 tr A2 of (c1 gamma1, c2 gamma2), per row of the weights, on the
    `root_blocks` `roots` and the skew pairs of the `split`.  Both sides
    take the frame (`Candidate11`), so each overlap r^dag C r is real and
    positive: the identity, or the eigenbasis of F1 (`_detector_forms`)
    for cosines within 10 tol.equality.  The data are entries of F1 and
    F2 on it, cross elements below tol.equality of the trace zero, r2
    phased to give them opposite phases in [0, pi)."""
    c1, c2 = np.atleast_1d(c1, c2)
    cosines = split.cosines[split.skew]
    f1, f2 = _detector_forms(roots, split)
    frame = np.eye(len(cosines))
    if cosines[0] - cosines[1] <= 10 * tol.equality:
        frame = np.linalg.eigh(f1)[1]
        f1, f2 = (dag(frame) @ f @ frame for f in (f1, f2))
    b1, b2 = c1 * f1[0, 1], c2 * f2[0, 1]
    scale = c1 * roots[0].block.trace().real + c2 * roots[1].block.trace().real
    g13, g23 = (np.where(abs(b) > tol.equality * scale, abs(b), 0.0)
                for b in (b1, b2))
    beta1, beta2 = np.angle(b1), np.angle(b2)
    phase = np.where((g13 == 0.0) | (g23 == 0.0), 0.0,
                     np.mod(0.5 * (beta1 - beta2), np.pi))
    shift = np.where(g13 == 0.0, np.where(g23 == 0.0, 0.0, -beta2),
                     np.where(g23 == 0.0, -beta1, phase - beta1))
    r2 = frame[:, 1] * np.exp(1j * shift)[:, None]
    data = JordanData11(phase, cosines[1] / cosines[0], g13, g23,
                        c1 * (f1[0, 0].real - f1[1, 1].real),
                        c2 * (f2[0, 0].real - f2[1, 1].real))
    return (np.broadcast_to(frame[:, 0], r2.shape), r2), data, scale


def enumerate_candidates_11(pair: WeightedDensityPair) -> list[Candidate11]:
    """Candidates for the von Neumann class with both conclusive ranks one.

    Basis-vector candidates fire when the phase vanishes and the cross
    elements balance (c*g23 = g13 for psi1 = r1, c*g13 = g23 for
    psi1 = r2).  Mixed candidates come from real nonzero roots of the
    even polynomial B1^2 (A1^2 + A2^2) = (A1 B2 - A2 B3)^2; the angle
    theta follows from A1 sin(theta) = A2 cos(theta) (or from the
    closed-form fallback when both vanish), and candidates with a
    determinate angle must also satisfy B1 = B3 sin(theta) - B2 cos(theta).
    With both cross elements zero the polynomial vanishes, and only the
    basis-vector candidates remain: a nonzero-x solution would form a
    continuous optimal family, which uniqueness forbids.  This is the
    one-row case of `_candidates_11`, on the pair's root blocks.
    """
    split = pair.jordan
    if not (split.strictly_skew and split.n_skew == 2):
        raise PreconditionViolated(
            "kernel geometry is not strictly skew with two Jordan pairs")
    _, cands = _candidates_11(pair.root_blocks, split, pair.tol)
    jordan = _at(cands.jordan_data, 0)
    return [Candidate11(*v, x, theta, jordan) for *v, x, theta in zip(
        cands.psi1, cands.psi1_perp, cands.psi2, cands.psi2_perp,
        cands.x.tolist(), cands.theta.tolist())]


def _candidates_11(roots, split, tol: ToleranceContext, c1=1.0, c2=1.0):
    """(rows, candidates) of `enumerate_candidates_11` for each pair of a
    stack that weights the pair of `root_blocks` `roots` on the `split` by
    arrays (n,) of weights (c1, c2), with jordan_data one value per row
    (`_kernel_jordan_data`); a row with both cross elements zero has an
    all-zero polynomial, so basis-vector candidates only."""
    (r1, r2), jordan, scale = _kernel_jordan_data(roots, split, tol, c1,
                                                  c2)
    phase, c, g13, g23, d1, d2 = vars(jordan).values()
    cos_p, sin_p = np.cos(phase), np.sin(phase)
    parts = []
    # the basis-vector candidates psi1 = r1, then the swapped psi1 = r2
    for balance, vectors in ((c * g23 - g13, (r1, -r2, r2, -r1)),
                             (c * g13 - g23, (r2, r1, r1, r2))):
        rows = np.flatnonzero((np.abs(sin_p) <= tol.equality)
                              & (np.abs(balance) <= tol.equality * scale))
        zero = np.zeros(len(rows))
        parts.append((rows, Candidate11(*(v[rows] for v in vectors), zero,
                                        zero, jordan)))
    # coefficient arrays, highest power first, one row per pair (all zero
    # where both cross elements are)
    u = np.array([c * c, 0.0, 1.0])        # c^2 x^2 + 1
    v = np.array([1.0, 0.0, 1.0])          # x^2 + 1
    h, o = g13[:, None], c * g23[:, None]
    a1_poly = (o * v - h * u) * cos_p[:, None]
    a2_poly = (o * v + h * u) * sin_p[:, None]
    uu, vv = np.convolve(u, u), np.convolve(v, v)
    # B1(x) = x [(c^2 x^2 + 1)^2 d1 - c^2 (x^2 + 1)^2 d2]
    b1_poly = (np.multiply.outer(d1, np.append(uu, 0.0))
               - np.multiply.outer(c * c * d2, np.append(vv, 0.0)))
    g13_part = h * np.convolve(uu, [1.0, 0.0, -1.0])
    g23_part = o * np.convolve(vv, [c * c, 0.0, -1.0])
    b2_poly = (g13_part - g23_part) * cos_p[:, None]
    b3_poly = (g13_part + g23_part) * sin_p[:, None]
    # B1^2 (A1^2 + A2^2) - (A1 B2 - A2 B3)^2; the first term has degree 14,
    # the second degree 16
    mixed = _polymul(a1_poly, b2_poly) - _polymul(a2_poly, b3_poly)
    poly = -_polymul(mixed, mixed)
    poly[:, 2:] += _polymul(_polymul(b1_poly, b1_poly),
                            _polymul(a1_poly, a1_poly)
                            + _polymul(a2_poly, a2_poly))
    rows, x = _real_nonzero_roots(poly)
    # A1, A2, B1, B2 and B3 at each root, from their factors above
    coeff_scale = np.maximum.reduce([abs(d1), abs(d2), g13, g23])[rows]
    g13, g23, d1, d2, cos_p, sin_p = (a[rows] for a in (
        g13, g23, d1, d2, cos_p, sin_p))
    xx = x * x
    u_x, v_x = c * c * xx + 1.0, xx + 1.0
    a1 = (c * g23 * v_x - g13 * u_x) * cos_p
    a2 = (c * g23 * v_x + g13 * u_x) * sin_p
    b1 = x * (u_x * u_x * d1 - c * c * v_x * v_x * d2)
    g13_part = g13 * u_x * u_x * (xx - 1.0)
    g23_part = c * g23 * v_x * v_x * (c * c * xx - 1.0)
    b2, b3 = (g13_part - g23_part) * cos_p, (g13_part + g23_part) * sin_p
    bscale = np.maximum.reduce([np.ones_like(x), abs(b1), abs(b2), abs(b3)])
    with np.errstate(divide="ignore", invalid="ignore"):
        angled = np.abs(a1) > 1e-11 * coeff_scale
        upright = ~angled & (np.abs(a2) > 1e-11 * coeff_scale)
        theta = np.where(angled, np.arctan(a2 / a1), -np.pi / 2)
        solved = (np.abs(b1 - b3 * np.sin(theta) + b2 * np.cos(theta))
                  <= 1e-7 * bscale)
        # both angle coefficients vanish: theta only fixed up to sign
        denom = 2.0 * g13 * g23 * (c * g23 - g13)
        cos_theta = x * c * (g23 ** 2 * d1 - g13 ** 2 * d2) / denom
    free = (~angled & ~upright
            & (np.abs(denom) > 1e-14 * np.maximum(coeff_scale ** 3, 1e-300))
            & (np.abs(cos_theta) <= 1.0 + 1e-10))
    theta = np.where(free, np.arccos(np.clip(cos_theta, -1.0, 1.0)), theta)
    # each root's candidate, then its mirror at -theta
    keep = np.stack([((angled | upright) & solved) | free,
                     free & (theta != 0.0)], axis=1).ravel()
    j = np.repeat(np.arange(len(x)), 2)[keep]
    theta = np.stack([theta, -theta], axis=1).ravel()[keep]
    r, x, e = rows[j], x[j, None], np.exp(1j * theta)[:, None]
    n1, n2 = 1.0 / np.sqrt(1.0 + x * x), 1.0 / np.sqrt(1.0 + c * c * x * x)
    r1, r2 = r1[r], r2[r]
    parts.append((r, Candidate11(
        n1 * (r1 + x * e * r2), n1 * (x * e.conj() * r1 - r2),
        n2 * (r2 - x * e.conj() * c * r1), n2 * (-r1 - x * e * c * r2),
        x[:, 0], theta, jordan)))
    return _in_row_order(parts)


def _polymul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The products of the polynomials in the rows of two stacks (n, k)
    and (n, l), coefficients highest power first, as `np.convolve`."""
    k, l = p.shape[1], q.shape[1]
    # the product of coefficients i and j adds to coefficient i + j
    spread = np.equal.outer(np.add.outer(np.arange(k), np.arange(l)).ravel(),
                            np.arange(k + l - 1))
    return (p[:, :, None] * q[:, None, :]).reshape(len(p), k * l) @ spread


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

    Its measurement is mapped out once from k x k blocks (`_blocks_11`).
    It is accepted only if its inconclusive element is valid ("not_psd"
    otherwise, `validate_inconclusive`), both acceptance inequalities hold
    (`_acceptance_11`) and it passes the full optimality check
    ("optimality_residual" otherwise), as `optimality.accepted_outcome`.
    """
    split = pair.jordan
    m = split.measurement(*_blocks_11(cand))
    if not validate_inconclusive(m.e_inconclusive, pair).ok:
        return Rejection("not_psd")
    first, second = _acceptance_11(cand, pair.root_blocks, split, pair.tol)
    if not (first and second):
        return Rejection(("second" if first else "first")
                         + "_acceptance_inequality")
    return (accepted_outcome(m, pair, BRANCH_CLASS_11)
            or Rejection("optimality_residual"))


def _blocks_11(cand: Candidate11):
    """(X1, X2) = (psi1 psi1^dag, psi2 psi2^dag) of rank-(1,1) candidates,
    in the detector coordinates of their vectors; (m, k, k) for a stack."""
    return _outer(cand.psi1), _outer(cand.psi2)


def _acceptance_11(cand: Candidate11, roots, split, tol: ToleranceContext,
                   c1=1.0, c2=1.0):
    """Whether rank-(1,1) candidates pass |<psi1_perp|psi2>|^2
    <psi2|g2|psi2> >= <psi1_perp|g1|psi1_perp> - tol.equality, and its
    mirror, on the forms `_detector_forms` of (roots, split, c1, c2), with
    <a|b> = a^dag C b across the two sides; per candidate of a stack."""
    f1, f2 = _detector_forms(roots, split, c1, c2)
    c = split.cosines[split.skew]

    def form(v, f):
        return np.real(np.einsum("...i,...ij,...j->...", v.conj(), f, v))

    return tuple(np.abs(np.sum(perp.conj() * c * psi, -1)) ** 2 * form(psi, f)
                 >= form(perp, f_perp) - tol.equality
                 for perp, psi, f, f_perp in (
                     (cand.psi1_perp, cand.psi2, f2, f1),
                     (cand.psi2_perp, cand.psi1, f1, f2)))


def _residual_total(report: OptimalityReport) -> float:
    return (abs(report.residual_a1) + abs(report.residual_a2)
            + report.residual_cross + report.residual_b)


def _accepted_outcomes(pair: WeightedDensityPair, families=_FAMILIES):
    """The outcomes of `families` that pass their check on `pair`, in the
    order they are tried, each family's in the order of its candidates;
    lazily, so a caller that stops at the first one runs nothing past it.
    The candidate classes run only when neither closed form passes."""
    closed = False
    for family in families:
        branch, host = family
        if closed and family not in _CLOSED_FORMS:
            return
        if branch == BRANCH_SINGLE_STATE:
            results = [try_single_state_detection(pair)]
        elif branch == BRANCH_FIDELITY:
            results = [try_fidelity_form(pair)]
        elif branch == BRANCH_CLASS_12:
            results = (finalize_candidate_12(cand, pair) for cand
                       in enumerate_candidates_12(pair, detect_on=host))
        else:
            results = (finalize_candidate_11(cand, pair)
                       for cand in enumerate_candidates_11(pair))
        for outcome in results:
            if isinstance(outcome, SolverOutcome):
                closed = closed or family in _CLOSED_FORMS
                yield outcome


def _off_class(boundary, tag, branch: str, k: int):
    """Whether answers of family `branch` on a strictly skew (2k;k,k) core,
    with the given boundary flags and class tags (one value per row, or
    single values), sit on a class boundary: their closed form called them
    marginal, their class is not their family's, or a kept singular value
    of e1 or e2 sits within `_BOUNDARY_RANK_MARGIN` of the rank cutoff.
    The candidate classes exist only for k = 2."""
    low, high = {BRANCH_SINGLE_STATE: (0, k), BRANCH_FIDELITY: (k, k),
                 BRANCH_CLASS_12: (1, 2), BRANCH_CLASS_11: (1, 1)}[branch]
    return (boundary | (np.minimum(tag.e1_rank, tag.e2_rank) != low)
            | (np.maximum(tag.e1_rank, tag.e2_rank) != high)
            | (tag.rank_margin <= _BOUNDARY_RANK_MARGIN))


def _first_closed_form(pair: WeightedDensityPair) -> SolverOutcome | None:
    """The answer of `dispatch` on a strictly skew core that is not 4-dim:
    the first closed form that passes, single state detection before the
    fidelity form, or None."""
    return next(_accepted_outcomes(pair, _CLOSED_FORMS), None)


def solve_4d(pair: WeightedDensityPair) -> SolverOutcome:
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

    The outcome carries no certificate (its `certificate` is None); call
    `build_certificate` on the measurement when one is needed.
    `_solve_rows` is the same arithmetic over a stack of pairs.
    """
    if not pair.strictly_skew:
        raise PreconditionViolated("solver requires a strictly skew pair")
    support = pair.collective_support().size
    if support != 4:
        raise PreconditionViolated(
            f"collective support must be four-dimensional, got {support}")
    if any(s.size != 2 for s in pair.supports):
        raise PreconditionViolated("both states must have rank two")

    outcomes = _accepted_outcomes(pair)
    first = next(outcomes, None)
    if first is None:
        raise NoSolutionFound(
            "no measurement family passed verification; the instance sits "
            "too close to a numerical degeneracy")
    found = ([first, *outcomes]
             if _off_class(first.boundary, first.class_tag, first.branch, 2)
             else [first])
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


def _solve_rows(core: WeightedDensityPair, c1: np.ndarray, c2: np.ndarray,
                gamma1: np.ndarray, gamma2: np.ndarray):
    """The answers of `dispatch` on a stack of cores that one stack of
    arrays settles.

    Row i is the pair (gamma1[i], gamma2[i]), states (n, d, d), that
    reweights the non-empty strictly skew pair `core`, of k = n_skew Jordan
    pairs, by (c1[i], c2[i]) on its split, which the row's own pair holds
    too: a pair of two states holds their split at every prior
    (`WeightedDensityPair.from_states`).  Single state detection and the
    fidelity form run on any core; on a (4;2,2) core class-12 with either
    host and class-11 follow, in `solve_4d`'s order.  Each family runs
    once, over the rows no family before it settled, with the arithmetic
    of the per-pair path given a leading row axis:
    `_single_state_branches`; or the k x k blocks of `_fidelity_blocks`,
    `_blocks_12` or `_blocks_11`, of the core's root blocks and data
    reweighted (`_RootBlock.scaled`, `_candidates_12`, `_candidates_11`
    and `_acceptance_11`), mapped out by `JordanSplit.measurement` and
    validated by `_diagnostics`; then `_check` and `_classify`.  A row is
    settled by the first family that passes its check there.  Off a class
    boundary (`_off_class`) that measurement is the row's answer, by
    uniqueness of the optimum, as in `solve_4d` and `_first_closed_form`.
    On one, the row is left to `dispatch`, as is a row no family passes
    and a row whose class-12 host basis would not be phased as the core's.
    A row with both rank-(1,1) cross elements zero is settled like any
    other, by its basis-vector candidates (`_candidates_11`).

    Returns the answers in parts (family, rows, m, tag, report), one per
    family that answered rows: `_FAMILIES[family]` answers the rows with
    the measurements m, class tags and checks (`_check`), whose fields
    hold one value per row.  Rows in no part are left to `dispatch`.
    """
    split, tol = core.jordan, core.tol
    k = split.n_skew
    kernel = core.common_kernel()
    parts = []
    pending = np.arange(len(c1))  # the rows no family has settled

    def states(rows):
        """The states of the pending rows `rows` (indices into pending)."""
        return gamma1[pending[rows]], gamma2[pending[rows]]

    def check(m, rows):
        return _check(m.e_inconclusive, *states(rows), split.detectors, tol)

    def settle(family, rows, m, boundary=None, left=()):
        """Settle each pending row of `rows` (indices into pending, a row's
        candidates in its family's order) by its first candidate whose
        measurement in m passes its check, `boundary` flagging candidates
        their closed form called marginal, and leave the rows `left` to
        dispatch.  Only an answer off a class boundary is kept."""
        nonlocal pending
        report = check(m, rows)
        passed = np.flatnonzero(report.is_optimal)
        first = passed[np.unique(rows[passed], return_index=True)[1]]
        m, report, rows = _take(m, first), _take(report, first), rows[first]
        tag = _classify(m, k, tol)
        marginal = (np.zeros(len(first), bool) if boundary is None
                    else boundary[first])
        answer = ~_off_class(marginal, tag, _FAMILIES[family][0], k)
        if answer.any():
            parts.append((family, pending[rows[answer]], _take(m, answer),
                          _take(tag, answer), _take(report, answer)))
        pending = np.delete(pending, np.concatenate((rows, left)).astype(int))

    # single state detection: two fixed measurements, in order
    for ok, marginal, m in _single_state_branches(gamma1, gamma2, split, tol):
        rows = np.flatnonzero(ok[pending])
        m = UsdMeasurement(*(np.broadcast_to(e, (len(rows),) + e.shape)
                             for e in m.elements()))
        settle(0, rows, m, marginal[pending[rows]])
    if not pending.size:
        return parts
    # the fidelity form
    w1, w2 = c1[pending, None, None], c2[pending, None, None]
    roots = tuple(root.scaled(c, other) for root, c, other in
                  zip(core.root_blocks, (w1, w2), (w2, w1)))
    ok, marginal = _fidelity_feasible(roots, tol)
    rows = np.flatnonzero(ok)
    m = split.measurement(*(x[rows] for x in _fidelity_blocks(roots,
                                                              split.sines)))
    valid = _diagnostics(m.e_inconclusive, *states(rows), kernel.basis, tol).ok
    settle(1, rows[valid], _take(m, valid), marginal[rows[valid]])
    # class-12, host 1 then host 2, on a (4;2,2) core only
    for family in (2, 3):
        if k != 2 or not pending.size:
            return parts
        host = _FAMILIES[family][1]
        h, o = host - 1, 2 - host
        s1, s2, g = _host_eigenbasis(core, host)
        c_h, c_o = (c1, c2)[h][pending], (c1, c2)[o][pending]
        unphased = ((c_o * g[4] <= tol.rank_atol)
                    & ~_degenerate_12(g, tol, c_h, c_o))
        rows = np.flatnonzero(~unphased)
        row_states = states(rows)
        cand_rows, cands = _candidates_12(s1, s2, g, host, split, tol,
                                          row_states[h], row_states[o],
                                          c_h[rows], c_o[rows])
        inside = _nu_inside(cands.nu, tol)
        cand_rows = rows[cand_rows[inside]]
        m = split.measurement(*_blocks_12(_take(cands, inside), split))
        valid = _diagnostics(m.e_inconclusive, *states(cand_rows),
                             kernel.basis, tol).ok
        settle(family, cand_rows[valid], _take(m, valid),
               left=np.flatnonzero(unphased))
    if not pending.size:
        return parts
    # class-11, on the core's root blocks reweighted per row
    roots = core.root_blocks
    rows, cands = _candidates_11(roots, split, tol, c1[pending], c2[pending])
    w1, w2 = (c[pending[rows], None, None] for c in (c1, c2))
    gated = np.logical_and(*_acceptance_11(cands, roots, split, tol, w1, w2))
    rows = rows[gated]
    m = split.measurement(*_blocks_11(_take(cands, gated)))
    valid = _diagnostics(m.e_inconclusive, *states(rows), kernel.basis,
                         tol).ok
    settle(4, rows[valid], _take(m, valid))
    return parts

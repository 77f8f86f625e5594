"""Shared construction helpers for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from usdkit import WeightedDensityPair
from usdkit.linalg import dag, hermitian_part


def assert_same_answer(row, fresh):
    """A sweep row names the branch and class tag of `fresh`, the outcome
    of a fresh `dispatch` at its prior, with the same success to 1e-12."""
    assert row.branch == fresh.branch, row.p1
    assert row.class_tag == (fresh.class_tag.e1_rank,
                             fresh.class_tag.e2_rank), row.p1
    assert row.success_probability == pytest.approx(fresh.success,
                                                    abs=1e-12), row.p1


def unit_phase(q: float) -> complex:
    """e^{i pi q}: principal value of (-1)**q."""
    return complex(np.exp(1j * np.pi * q))


def random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_direction(feas, rng: np.random.Generator) -> np.ndarray:
    """A random unit-norm direction among the points of an
    `oracle.FeasibleSet`: Hermitian blocks Z1, Z2 and S."""
    from usdkit.oracle import _random_start

    h = _random_start(feas, int(rng.integers(2 ** 62)))
    return h / np.linalg.norm(h)


def random_density(rng: np.random.Generator, d: int, r: int) -> np.ndarray:
    """Random rank-r density matrix on C^d."""
    a = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    rho = a @ dag(a)
    return rho / np.real(np.trace(rho))


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary on C^d: the Q of a complex Gaussian matrix, with
    the phases of R's diagonal moved into it."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_skew_pair(rng: np.random.Generator, p1: float | None = None,
                     d: int = 4, r: int = 2,
                     margin: float = 0.05) -> WeightedDensityPair:
    """Random strictly skew pair of rank-r states on C^d.

    Generic draws are strictly skew with probability one.  Samples whose
    support geometry sits within `margin` of a reducible configuration
    (principal cosines near 0 or 1) are redrawn: those instances are
    ill-conditioned for every method and would only test roundoff.
    """
    from usdkit.linalg import support, jordan_bases

    while True:
        rho1 = random_density(rng, d, r)
        rho2 = random_density(rng, d, r)
        weight = float(rng.uniform(0.1, 0.9)) if p1 is None else p1
        pair = WeightedDensityPair.from_states(rho1, rho2, weight)
        if not pair.strictly_skew:
            continue
        _, _, cosines = jordan_bases(support(pair.gamma1), support(pair.gamma2))
        if len(cosines) and (cosines.max() > 1 - margin or cosines.min() < margin):
            continue
        return pair


def peres_states(dim: int = 2):
    """The classic symmetric pure-state pair |1>, |+>."""
    rho1 = np.zeros((dim, dim), dtype=complex)
    rho1[1, 1] = 1.0
    rho2 = np.zeros((dim, dim), dtype=complex)
    rho2[:2, :2] = 0.5
    return rho1, rho2


def peres_nonproper_measurement():
    """The non-proper optimal USD measurement from the motivating example
    (lives in C^3, leaks into the third direction)."""
    strength = 3.0 - 3.0 / np.sqrt(2)
    f1 = np.array([1, -1, -1], dtype=complex) / np.sqrt(3)
    f2 = np.array([np.sqrt(2), 0, 1], dtype=complex) / np.sqrt(3)
    e1 = strength * np.outer(f1, f1.conj())
    e2 = strength * np.outer(f2, f2.conj())
    return e1, e2, np.eye(3) - e1 - e2


def example1_states():
    """Rank-2 pair on C^4 with small-rational entries (sweep workhorse)."""
    rho1 = np.diag([1.0, 2.0, 0.0, 0.0]).astype(complex) / 3.0
    rho2 = np.array([
        [11, 10, 12, 10],
        [10, 10, 10, 10],
        [12, 10, 14, 10],
        [10, 10, 10, 10],
    ], dtype=complex) / 45.0
    return rho1, rho2


def examples2_states():
    """Asymmetric rank-2 pair on C^4 whose sweep shows a direct
    single-state-detection -> fidelity-form transition."""
    rho1 = np.diag([0.5 + np.sqrt(5 / 22), 0.5 - np.sqrt(5 / 22), 0.0, 0.0]
                   ).astype(complex)
    w = (1 / (2 * np.sqrt(41))) * np.array([
        unit_phase(1 / 7) * (np.sqrt(22) + 2 * np.sqrt(5)),
        unit_phase(1 / 7) * (np.sqrt(22) - 2 * np.sqrt(5)),
        2 * np.sqrt(10),
        2 * np.sqrt(10),
    ], dtype=complex)
    v = (1 / np.sqrt(10)) * np.array([
        unit_phase(4 / 21).conjugate(),
        unit_phase(17 / 21),
        2 * np.sqrt(2) * unit_phase(1 / 5),
        0.0,
    ], dtype=complex)
    rho2 = (5 / 46) * np.outer(v, v.conj()) + (41 / 46) * np.outer(w, w.conj())
    return rho1, rho2


# (dim, rank1, rank2) of seeded generic pairs whose reduction removes a
# part, leaving a strictly skew core of another shape
REDUCED_SHAPES = ((3, 1, 2), (4, 1, 2), (3, 2, 2), (4, 2, 3), (5, 2, 3),
                  (5, 3, 3))


def generic_pair(rng: np.random.Generator, d: int, r1: int, r2: int,
                 margin: float = 0.05):
    """Random states of ranks (r1, r2) on C^d with generic support geometry.

    Beyond the max(0, r1 + r2 - d) principal cosines that a generic pair
    shares, every cosine between the two supports stays `margin` away from
    0 and 1; draws that miss are redrawn.
    """
    shared = max(0, r1 + r2 - d)
    while True:
        rho1 = random_density(rng, d, r1)
        rho2 = random_density(rng, d, r2)
        top1 = np.linalg.eigh(rho1)[1][:, -r1:]
        top2 = np.linalg.eigh(rho2)[1][:, -r2:]
        cosines = np.clip(np.linalg.svd(dag(top1) @ top2, compute_uv=False),
                          0.0, 1.0)[shared:]
        if len(cosines) and (cosines.max() > 1 - margin
                             or cosines.min() < margin):
            continue
        return rho1, rho2


def jordan_cosine_states(rng: np.random.Generator, c0: float, c1: float):
    """A strictly skew (4;2,2) pair with Jordan cosines c0 and c1, in a
    random basis: supp rho1 = span{e0, e1} and supp rho2 =
    span{c0 e0 + s0 e2, c1 e1 + s1 e3}, s_k = sqrt(1 - c_k^2), each state
    a random full-rank density on its support."""
    b1 = np.eye(4, dtype=complex)[:, :2]
    b2 = np.zeros((4, 2), dtype=complex)
    b2[0, 0], b2[2, 0] = c0, np.sqrt(1 - c0 * c0)
    b2[1, 1], b2[3, 1] = c1, np.sqrt(1 - c1 * c1)
    rho1 = b1 @ random_density(rng, 2, 2) @ dag(b1)
    rho2 = b2 @ random_density(rng, 2, 2) @ dag(b2)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q @ rho1 @ dag(q), q @ rho2 @ dag(q)


# the cosine grid of ROADMAP item 12: every pair c0 >= c1 of these
# cosines, at each seed and prior (`grid_states`)
GRID_COSINES = (1e-8, 1e-6, 1e-4, 0.01, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99,
                1 - 1e-4, 1 - 1e-6, 1 - 1e-8)
GRID_PRIORS = np.linspace(0.05, 0.95, 19)


def grid_states(seed: int, c0: float, c1: float):
    """The states of the cosine grid at Jordan cosines c0 >= c1: a fresh
    `default_rng(seed)` draws R1 and then R2 (`random_density(rng, 2,
    2)`), rho_mu = b_mu R_mu b_mu^dag with b1 = (e0, e1) and b2 = (c0 e0 +
    s0 e2, c1 e1 + s1 e3), s_k = sqrt(1 - c_k^2), and then one
    `haar_unitary(rng, 4)` rotates both."""
    rng = np.random.default_rng(seed)
    r1, r2 = random_density(rng, 2, 2), random_density(rng, 2, 2)
    b1 = np.eye(4, dtype=complex)[:, :2]
    b2 = np.zeros((4, 2), dtype=complex)
    b2[0, 0], b2[2, 0] = c0, np.sqrt(1 - c0 * c0)
    b2[1, 1], b2[3, 1] = c1, np.sqrt(1 - c1 * c1)
    u = haar_unitary(rng, 4)
    return tuple(u @ b @ r @ dag(b) @ dag(u) for b, r in ((b1, r1), (b2, r2)))


def with_eigenvalue_tails(rho: np.ndarray, tails) -> np.ndarray:
    """rho with its eigenvalues below 1e-6 set to `tails` (ascending order),
    renormalized to unit trace."""
    w, u = np.linalg.eigh(rho)
    w = w.copy()
    w[w < 1e-6] = tails
    out = (u * w) @ dag(u)
    return out / np.real(np.trace(out))


def record_decompositions(monkeypatch,
                          names=("eigh", "eigvalsh", "svd", "pinv", "qr"),
                          ) -> list:
    """Patch the named np.linalg functions to record (name, shape) of every
    matrix (stack) they are given; returns the (growing) list."""
    calls = []

    def recording(name, fn):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(np.linalg, name,
                            recording(name, getattr(np.linalg, name)))
    return calls


def lifts(split):
    """(L1, L2): L_mu = D_mu diag(tau_mu)^-1, tau_mu = diag(T_mu^dag D_mu),
    on the split's detector bases D_mu and `lifted_columns` T_mu, so
    T_mu^dag L_mu = 1 and T_nu^dag L_mu = 0; Q_mu = T_mu L_mu^dag is the
    oblique projector onto the non-parallel part of supp(gamma_mu) along
    ker(Lambda_mu)."""
    return tuple(d.basis / np.einsum("ij,ij->j", t.conj(), d.basis)
                 for d, t in zip(split.detector_spaces, split.lifted_columns))


def dense_certificate(m, pair):
    """(z, residuals, v1_condition) of the d x d certificate construction
    that `build_certificate` replaced by its k x k form, kept as its
    reference: on the reduced pair, with V1 = Lambda1 (e (g2 - g1) e + g1)
    Lambda1, W1 = (R1 (Lambda1 - e1) + Lambda2 e1) V1 with R1 the oblique
    map D1 -> D2 of diagonal overlap, and t = Q1 + Q2 W1 V1^+ through the
    obliques Q_mu = T_mu L_mu^dag, z = t V1 t^dag; V1^+ and the condition
    number come from one SVD, and each residual from its own call.  It
    raises nothing: the caller reads the residuals."""
    record = pair.reduction
    core, xi = record.reduced_pair, record.xi
    e1, e2, e = (hermitian_part(xi @ a @ xi) for a in m.elements())
    e = e + np.eye(pair.dim) - xi
    tol = core.tol
    g1, g2 = core.gamma1, core.gamma2
    lam1, lam2 = core.detectors
    d1, d2 = (s.basis for s in core.detector_spaces)
    r1 = (d2 / np.einsum("ij,ij->j", d1.conj(), d2)) @ dag(d1)
    q1, q2 = (t @ dag(lift) for t, lift in zip(core.jordan.lifted_columns,
                                               lifts(core.jordan)))
    v1 = hermitian_part(lam1 @ e @ (g2 - g1) @ e @ lam1 + lam1 @ g1 @ lam1)
    w1 = (r1 @ (lam1 - e1) + lam2 @ e1) @ v1
    u, sv, vh = np.linalg.svd(v1)
    top = sv.max(initial=0.0)
    keep = sv > tol.rank_cutoff * top
    v1_pinv = (dag(vh[keep]) / sv[keep]) @ dag(u[:, keep])
    sv = sv[sv > max(tol.rank_cutoff * top, tol.rank_atol)]
    v1_cond = float(sv.max() / sv.min()) if sv.size else float("inf")
    t = q1 + q2 @ w1 @ v1_pinv
    z = hermitian_part(t @ v1 @ dag(t))

    def min_eig(a):
        return min(0.0, float(np.linalg.eigvalsh(hermitian_part(a))[0]))

    residuals = {
        "z_psd": min_eig(z),
        "z_annihilates_inconclusive": float(np.linalg.norm(z @ e)),
        "dominates_1": min_eig(lam1 @ (z - g1) @ lam1),
        "dominates_2": min_eig(lam2 @ (z - g2) @ lam2),
        "agrees_1": float(np.linalg.norm(lam1 @ (z - g1) @ e1)),
        "agrees_2": float(np.linalg.norm(lam2 @ (z - g2) @ e2)),
    }
    return z, residuals, v1_cond


def degenerate_host_states():
    """A block-diagonal (4;2,2) pair: each state is one pure state per 2x2
    block, so both hosts of class-12 are degenerate (g23 = 0) and both
    rank-(1,1) cross elements vanish."""
    v = np.array([1, 1], dtype=complex) / np.sqrt(2)
    e0 = np.array([1, 0], dtype=complex)
    rho1 = np.zeros((4, 4), dtype=complex)
    rho2 = np.zeros((4, 4), dtype=complex)
    rho1[:2, :2] = 0.1 * np.outer(e0, e0.conj())
    rho1[2:, 2:] = 0.9 * np.outer(v, v.conj())
    rho2[:2, :2] = 0.9 * np.outer(v, v.conj())
    rho2[2:, 2:] = 0.1 * np.outer(e0, e0.conj())
    return rho1, rho2

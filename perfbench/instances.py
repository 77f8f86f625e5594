"""Seeded problem instances for the benchmark, built with numpy alone.

The instances do not come from the test helpers, so that editing the tests
cannot shift the workloads.  Every base instance is drawn from its own
generator, seeded by (POOL_SEED, family, index), so a base instance never
depends on how many others are drawn; the frozen reference values in
`reference.json` are keyed by those indices.

A run's `--seed` then picks the order of the base instances and, for the
analytic workloads, a Haar-random unitary U per call: the program solves
(U rho1 U^dag, U rho2 U^dag), whose optimal success equals the base
instance's.  So no two calls of a run share a pair, while the amount of
work per run stays the same from seed to seed.
"""
from __future__ import annotations

import numpy as np

POOL_SEED = 20080311

# cosine margin of the test suite's random strictly skew pairs: draws whose
# support geometry sits this close to a reducible configuration are redrawn
MARGIN = 0.05

# Prior grid of the sweep workload.
SWEEP_GRID = np.linspace(0.01, 0.99, 99)


def example1_states():
    """Rank-2 pair on C^4 with small-rational entries."""
    rho1 = np.diag([1.0, 2.0, 0.0, 0.0]).astype(complex) / 3.0
    rho2 = np.array([[11, 10, 12, 10], [10, 10, 10, 10],
                     [12, 10, 14, 10], [10, 10, 10, 10]], dtype=complex) / 45.0
    return rho1, rho2


def examples2_states():
    """Asymmetric rank-2 pair on C^4 with a direct single-state-detection
    to fidelity-form transition."""
    def phase(q):
        return complex(np.exp(1j * np.pi * q))

    rho1 = np.diag([0.5 + np.sqrt(5 / 22), 0.5 - np.sqrt(5 / 22), 0.0, 0.0]
                   ).astype(complex)
    w = (1 / (2 * np.sqrt(41))) * np.array([
        phase(1 / 7) * (np.sqrt(22) + 2 * np.sqrt(5)),
        phase(1 / 7) * (np.sqrt(22) - 2 * np.sqrt(5)),
        2 * np.sqrt(10), 2 * np.sqrt(10)], dtype=complex)
    v = (1 / np.sqrt(10)) * np.array([
        phase(4 / 21).conjugate(), phase(17 / 21),
        2 * np.sqrt(2) * phase(1 / 5), 0.0], dtype=complex)
    rho2 = (5 / 46) * np.outer(v, v.conj()) + (41 / 46) * np.outer(w, w.conj())
    return rho1, rho2


def peres_states():
    """|1> against |+> on C^3; the third direction is a common kernel."""
    rho1 = np.zeros((3, 3), dtype=complex)
    rho1[1, 1] = 1.0
    rho2 = np.zeros((3, 3), dtype=complex)
    rho2[:2, :2] = 0.5
    return rho1, rho2


def random_density(rng, d, r):
    """Random rank-r density matrix on C^d."""
    a = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    rho = a @ a.conj().T
    return rho / np.real(np.trace(rho))


def haar_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _support_basis(rho, r):
    _, u = np.linalg.eigh(rho)
    return u[:, -r:]


def support_cosines(rho1, r1, rho2, r2):
    """Principal cosines between the supports of two rank-r1, rank-r2 states."""
    s = np.linalg.svd(_support_basis(rho1, r1).conj().T
                      @ _support_basis(rho2, r2), compute_uv=False)
    return np.clip(s, 0.0, 1.0)


def random_pair(rng, d, r1, r2, margin=MARGIN):
    """Random states of ranks (r1, r2) on C^d with generic support geometry.

    Mirrors the test suite's filter for strictly skew pairs: the generic
    intersection of the supports has dimension max(0, r1 + r2 - d), and every
    other principal cosine must stay `margin` away from 0 and 1.
    """
    shared = max(0, r1 + r2 - d)
    while True:
        rho1 = random_density(rng, d, r1)
        rho2 = random_density(rng, d, r2)
        rest = support_cosines(rho1, r1, rho2, r2)[shared:]
        if len(rest) and (rest.max() > 1 - margin or rest.min() < margin):
            continue
        return rho1, rho2


def _rng(family, index):
    return np.random.default_rng([POOL_SEED, family, index])


# --------------------------------------------------------------------------
# sweep-4d: example1, examples2 and seeded pairs whose core is (4; 2, 2)
# --------------------------------------------------------------------------

SWEEP_RANDOM = (("4;2,2", 4, 2, 2, 5), ("5;2,3", 5, 2, 3, 5))


def sweep_pairs():
    """[(name, rho1, rho2)] of the sweep workload, in a fixed order."""
    pairs = [("example1",) + example1_states(),
             ("examples2",) + examples2_states()]
    for family, (shape, d, r1, r2, count) in enumerate(SWEEP_RANDOM):
        for i in range(count):
            pairs.append((f"{shape}#{i}",)
                         + random_pair(_rng(10 + family, i), d, r1, r2))
    return pairs


# --------------------------------------------------------------------------
# dispatch-mixed: every analytic branch, no pair shared between calls
# --------------------------------------------------------------------------

# (shape, dim, rank1, rank2, count); "pure" pairs are rank (1,1) on C^2
DISPATCH_SHAPES = (
    ("pure", 2, 1, 1, 96),
    ("peres", 3, 1, 1, 16),
    ("3;1,2", 3, 1, 2, 64),
    ("4;1,2", 4, 1, 2, 64),
    ("3;2,2", 3, 2, 2, 64),
    ("4;2,3", 4, 2, 3, 64),
    ("4;2,2", 4, 2, 2, 128),
    ("5;2,3", 5, 2, 3, 96),
    ("5;3,3", 5, 3, 3, 96),
    ("3;3,3", 3, 3, 3, 32),
)


def dispatch_instances():
    """[(shape, rho1, rho2, p1)] of the dispatch workload, in a fixed order."""
    out = []
    for family, (shape, d, r1, r2, count) in enumerate(DISPATCH_SHAPES):
        for i in range(count):
            rng = _rng(100 + family, i)
            if shape == "peres":
                rho1, rho2 = peres_states()
            else:
                rho1, rho2 = random_pair(rng, d, r1, r2)
            p1 = float(rng.uniform(0.05, 0.95))
            out.append((shape, rho1, rho2, p1))
    return out


# --------------------------------------------------------------------------
# oracle-fallback: strictly skew rank-(3,3) cores that no closed form covers
# --------------------------------------------------------------------------

ORACLE_DIMS = (6, 7)
ORACLE_P1 = 0.5


def oracle_candidate(d, index):
    """Candidate `index` of the rank-(3,3) pairs on C^d, at prior ORACLE_P1.

    Only candidates that reach the oracle are used; `reference.json` lists
    their indices, so the filter is frozen with the references.
    """
    rho1, rho2 = random_pair(_rng(200 + d, index), d, 3, 3)
    return rho1, rho2, ORACLE_P1


def rotate(u, rho):
    return u @ rho @ u.conj().T

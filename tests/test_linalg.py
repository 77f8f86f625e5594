import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usdkit import DimensionMismatch, NotHermitian, NotPSD, ToleranceContext
from usdkit import linalg as la
from usdkit.linalg import Subspace, dag

from util import random_unit

TOL = ToleranceContext()


def subspace(*columns):
    cols = np.array(columns, dtype=complex).T
    return Subspace.from_columns(cols)


def test_support_identity_is_full():
    s = la.support(np.eye(3, dtype=complex))
    assert s.size == 3
    np.testing.assert_allclose(s.projector(), np.eye(3), atol=1e-12)


def test_support_rank_one_diagonal():
    s = la.support(np.diag([1.0, 0.0, 0.0]).astype(complex))
    assert s.size == 1
    assert abs(abs(s.basis[0, 0]) - 1.0) < 1e-12


def test_support_rank_one_projector():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    s = la.support(0.5 * np.outer(plus, plus.conj()))
    assert s.size == 1
    overlap = abs(np.vdot(s.basis[:, 0], plus))
    assert abs(overlap - 1.0) < 1e-12


def test_support_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        la.support(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_kernel_diagonal():
    k = la.kernel(np.diag([1.0, 0.0, 0.0]).astype(complex))
    assert k.size == 2
    proj = k.projector()
    np.testing.assert_allclose(proj, np.diag([0.0, 1.0, 1.0]), atol=1e-12)


def test_kernel_of_identity_is_zero():
    assert la.kernel(np.eye(4, dtype=complex)).size == 0


def test_kernel_of_embedded_pure_pair():
    # two pure states spanning the 01-plane of C^3; the kernel is |2>
    e1 = np.zeros(3, dtype=complex); e1[1] = 1
    plus = np.zeros(3, dtype=complex); plus[:2] = 1 / np.sqrt(2)
    total = 0.5 * np.outer(e1, e1.conj()) + 0.5 * np.outer(plus, plus.conj())
    k = la.kernel(total)
    assert k.size == 1
    assert abs(abs(k.basis[2, 0]) - 1.0) < 1e-12


def test_intersect_coordinate_planes():
    a = subspace([1, 0, 0], [0, 1, 0])
    b = subspace([0, 1, 0], [0, 0, 1])
    meet = la.intersect(a, b)
    assert meet.size == 1
    assert abs(abs(meet.basis[1, 0]) - 1.0) < 1e-10


def test_intersect_idempotent(rng):
    cols = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    x = Subspace.from_columns(cols)
    meet = la.intersect(x, x)
    assert meet.size == x.size
    np.testing.assert_allclose(meet.projector(), x.projector(), atol=1e-10)


def test_intersect_generic_position_is_zero(rng):
    a = Subspace.from_columns(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
    b = Subspace.from_columns(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
    assert la.intersect(a, b).size == 0
    # oracle: the stacked bases have full rank 4 in generic position
    assert la.rank(np.hstack([a.basis, b.basis])) == 4


def test_intersect_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        la.intersect(Subspace.full(2), Subspace.full(3))


def test_sum_spans_both(rng):
    a = subspace([1, 0, 0])
    b = subspace([0, 1, 0])
    s = la.subspace_sum(a, b)
    assert s.size == 2
    # generic pair fills the space
    x = Subspace.from_columns(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
    y = Subspace.from_columns(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
    assert la.subspace_sum(x, y).size == 4
    assert la.subspace_sum(x, x).size == x.size


def test_orthogonal_projector_cases():
    assert np.allclose(Subspace.zero(3).projector(), np.zeros((3, 3)))
    assert np.allclose(Subspace.full(3).projector(), np.eye(3))
    s = subspace([1, 1])
    np.testing.assert_allclose(s.projector(), 0.5 * np.ones((2, 2)), atol=1e-12)


def test_pseudo_inverse_cases():
    a = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    np.testing.assert_allclose(la.pseudo_inverse(a), np.linalg.inv(a), atol=1e-12)
    assert np.allclose(la.pseudo_inverse(np.zeros((3, 3), dtype=complex)), 0)
    np.testing.assert_allclose(la.pseudo_inverse(np.diag([2.0, 0.0]).astype(complex)),
                               np.diag([0.5, 0.0]), atol=1e-12)


def test_pseudo_inverse_acts_on_support(rng):
    a = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    h = a @ dag(a)
    hinv = la.pseudo_inverse(h)
    p = la.support(h).projector()
    np.testing.assert_allclose(h @ hinv, p, atol=1e-10)
    np.testing.assert_allclose(h @ hinv @ h, h, atol=1e-10)


def test_sqrt_psd_cases(rng):
    p = subspace([1, 1]).projector()
    np.testing.assert_allclose(la.sqrt_psd(p), p, atol=1e-12)
    np.testing.assert_allclose(la.sqrt_psd(np.diag([4.0, 9.0]).astype(complex)),
                               np.diag([2.0, 3.0]), atol=1e-12)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    psd = a @ dag(a)
    root = la.sqrt_psd(psd)
    np.testing.assert_allclose(root @ root, psd, atol=1e-8 * np.linalg.norm(psd))


def test_sqrt_psd_rejects_negative():
    with pytest.raises(NotPSD):
        la.sqrt_psd(np.diag([1.0, -0.5]).astype(complex))


def test_jordan_bases_identical_and_orthogonal(rng):
    x = Subspace.from_columns(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
    a, b, cos = la.jordan_bases(x, x)
    np.testing.assert_allclose(cos, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(dag(a) @ b, np.eye(2), atol=1e-10)
    ortho = Subspace(4, la.kernel(x.projector()).basis)
    _, _, cos0 = la.jordan_bases(x, ortho)
    np.testing.assert_allclose(cos0, [0.0, 0.0], atol=1e-12)


def test_jordan_bases_hand_value():
    a = subspace([1, 0, 0], [0, 1, 0])
    b = subspace([1, 0, 1], [0, 1, 0])
    _, _, cos = la.jordan_bases(a, b)
    np.testing.assert_allclose(cos, [1.0, 1.0 / np.sqrt(2)], atol=1e-12)


def test_jordan_bases_mutual_orthogonality(rng):
    # contract: <a_i|b_j> = delta_ij cos_i with orthonormal bases
    for _ in range(100):
        d = int(rng.integers(2, 6))
        ka = int(rng.integers(1, d + 1))
        kb = int(rng.integers(1, d + 1))
        a = Subspace.from_columns(rng.normal(size=(d, ka)) + 1j * rng.normal(size=(d, ka)))
        b = Subspace.from_columns(rng.normal(size=(d, kb)) + 1j * rng.normal(size=(d, kb)))
        ba, bb, cos = la.jordan_bases(a, b)
        np.testing.assert_allclose(dag(ba) @ ba, np.eye(a.size), atol=1e-10)
        np.testing.assert_allclose(dag(bb) @ bb, np.eye(b.size), atol=1e-10)
        overlap = dag(ba) @ bb
        expected = np.zeros_like(overlap)
        for k, c in enumerate(cos):
            expected[k, k] = c
        np.testing.assert_allclose(overlap, expected, atol=1e-10)
        assert all(cos[i] >= cos[i + 1] - 1e-12 for i in range(len(cos) - 1))


def test_kernel_sum_decomposition_lemma(rng):
    # for block-masked X with P_k X P_l = 0 (k != l), ker X is the sum of
    # its intersections with the blocks
    d = 6
    p1 = subspace([1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]).projector()
    p2 = np.eye(d) - p1
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = p1 @ x @ p1 + p2 @ x @ p2
    # force a kernel vector inside each block
    v1 = np.zeros(d, dtype=complex); v1[0] = 1
    v2 = np.zeros(d, dtype=complex); v2[4] = 1
    x = x @ (np.eye(d) - np.outer(v1, v1.conj())) @ (np.eye(d) - np.outer(v2, v2.conj()))
    kx = la.kernel(dag(x) @ x)
    part1 = la.intersect(kx, Subspace(d, la.support(p1).basis))
    part2 = la.intersect(kx, Subspace(d, la.support(p2).basis))
    joined = la.subspace_sum(part1, part2)
    assert joined.size == kx.size
    np.testing.assert_allclose(joined.projector(), kx.projector(), atol=1e-9)


def test_kernel_of_product_lemma(rng):
    # with range(B) meeting ker(A) trivially, ker(AB) = ker(B)
    d = 5
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u = np.zeros(d, dtype=complex); u[0] = 1.0
    a = a @ (np.eye(d) - np.outer(u, u.conj()))  # ker A = span{e0}
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    v = np.zeros(d, dtype=complex); v[3] = 1.0
    b = (np.eye(d) - np.outer(u, u.conj())) @ b @ (np.eye(d) - np.outer(v, v.conj()))
    # range B avoids e0 = ker A by construction; ker B contains e3
    kab = la.kernel(dag(a @ b) @ (a @ b))
    kb = la.kernel(dag(b) @ b)
    assert kab.size == kb.size
    np.testing.assert_allclose(kab.projector(), kb.projector(), atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_support_kernel_complementary(d, seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, d + 1))
    if r == 0:
        h = np.zeros((d, d), dtype=complex)
    else:
        a = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
        h = a @ dag(a)
    sup, ker = la.support(h), la.kernel(h)
    assert sup.size + ker.size == d
    assert sup.size == r
    np.testing.assert_allclose(sup.projector() + ker.projector(), np.eye(d),
                               atol=1e-10)
    p = sup.projector()
    np.testing.assert_allclose(p, dag(p), atol=1e-12)
    np.testing.assert_allclose(p @ p, p, atol=1e-10)


def test_subspace_from_columns_orthonormal(rng):
    cols = rng.normal(size=(6, 4)) @ np.diag([1, 1e-3, 1e-14, 1e-16])
    s = Subspace.from_columns(cols.astype(complex))
    assert s.size == 2  # tiny directions cut by the rank threshold
    np.testing.assert_allclose(dag(s.basis) @ s.basis, np.eye(2), atol=1e-12)

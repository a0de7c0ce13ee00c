from __future__ import annotations

import numpy as np
import pytest

from isopo_lab import linalg
from isopo_lab.errors import ContractViolation, SingularMatrixError
from isopo_lab.linalg import frobenius_dot, solve_tikhonov, sym_eigh


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


def test_sym_eigh_identity():
    eig = sym_eigh(np.eye(3))
    assert np.allclose(eig.eigenvalues, [1.0, 1.0, 1.0])
    u = eig.eigenvectors
    assert np.allclose(u.T @ u, np.eye(3), atol=1e-12)


def test_sym_eigh_two_by_two_hand_solved():
    # char poly (2-x)^2 - 1 gives x in {1, 3}
    eig = sym_eigh([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(eig.eigenvalues, [1.0, 3.0], atol=1e-12)
    v1 = eig.eigenvectors[:, 0]
    v3 = eig.eigenvectors[:, 1]
    assert abs(abs(v1 @ np.array([1.0, -1.0]) / np.sqrt(2)) - 1.0) < 1e-12
    assert abs(abs(v3 @ np.array([1.0, 1.0]) / np.sqrt(2)) - 1.0) < 1e-12


def test_sym_eigh_diagonal_sorts_ascending():
    eig = sym_eigh(np.diag([5.0, 2.0, 9.0]))
    assert np.allclose(eig.eigenvalues, [2.0, 5.0, 9.0])
    # eigenvectors are signed permutation columns
    assert np.allclose(np.abs(eig.eigenvectors), np.eye(3)[:, [1, 0, 2]], atol=1e-12)


def test_sym_eigh_rejects_nonsquare_and_asymmetric():
    with pytest.raises(ContractViolation):
        sym_eigh(np.zeros((2, 3)))
    with pytest.raises(ContractViolation):
        sym_eigh([[1.0, 2.0], [2.1, 1.0]])
    with pytest.raises(ContractViolation):
        sym_eigh([[np.nan, 0.0], [0.0, 1.0]])


def test_sym_eigh_zero_and_single():
    eig = sym_eigh(np.zeros((4, 4)))
    assert np.allclose(eig.eigenvalues, 0.0)
    eig = sym_eigh([[7.0]])
    assert eig.eigenvalues[0] == 7.0


def test_sym_eigh_reconstruction_property():
    rng = np.random.default_rng(42)
    for n in (2, 3, 5, 9, 17, 33, 64):
        for _ in range(5):
            m = random_symmetric(rng, n)
            eig = sym_eigh(m)
            rec = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
            assert np.linalg.norm(rec - m) <= 1e-8 * np.linalg.norm(m)
            orth = eig.eigenvectors.T @ eig.eigenvectors - np.eye(n)
            assert np.linalg.norm(orth) <= 1e-10
            assert np.all(np.diff(eig.eigenvalues) >= 0)


def test_sym_eigh_matches_lapack_eigenvalues():
    rng = np.random.default_rng(7)
    for n in (4, 16, 48):
        m = random_symmetric(rng, n)
        ours = sym_eigh(m).eigenvalues
        ref = np.linalg.eigvalsh(m)
        assert np.allclose(ours, ref, rtol=1e-10, atol=1e-10 * np.linalg.norm(m))


def test_gram_eigenvalues_nearly_nonnegative():
    rng = np.random.default_rng(11)
    for m, d in ((3, 8), (16, 5), (32, 40)):
        j = rng.standard_normal((m, d))
        k = j @ j.T
        eig = sym_eigh(0.5 * (k + k.T))
        assert eig.eigenvalues.min() >= -1e-10 * np.linalg.norm(k)


def test_solve_tikhonov_identity():
    assert np.allclose(solve_tikhonov(np.eye(2), 0.0, [1.0, 2.0]), [1.0, 2.0])


def test_solve_tikhonov_diagonal_componentwise():
    # eigenvalues 1 and 3 shifted by c=1 invert to 1/2 and 1/4
    assert np.allclose(solve_tikhonov(np.diag([1.0, 3.0]), 1.0, [2.0, 8.0]), [1.0, 2.0])


def test_solve_tikhonov_against_dense_solve():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, 0.0])
    got = solve_tikhonov(m, 0.5, b)
    expected = np.linalg.solve(m + 0.5 * np.eye(2), b)
    assert np.allclose(got, expected, atol=1e-10)


def test_solve_tikhonov_random_spd_matches_lu():
    rng = np.random.default_rng(3)
    for n in (2, 8, 31, 64):
        a = rng.standard_normal((n, n))
        spd = a @ a.T + 0.1 * np.eye(n)
        spd = 0.5 * (spd + spd.T)
        b = rng.standard_normal(n)
        for c in (0.0, 0.7):
            got = solve_tikhonov(spd, c, b)
            ref = np.linalg.solve(spd + c * np.eye(n), b)
            assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)


def test_solve_tikhonov_singular_raises():
    m = np.diag([0.0, 2.0])
    with pytest.raises(SingularMatrixError):
        solve_tikhonov(m, 0.0, [1.0, 1.0])
    with pytest.raises(ContractViolation):
        solve_tikhonov(m, -1.0, [1.0, 1.0])
    # M + cI = diag(-0.5, 2.5) is indefinite: Cholesky breaks down
    with pytest.raises(SingularMatrixError):
        solve_tikhonov(np.diag([-1.0, 2.0]), 0.5, [1.0, 1.0])


def test_solve_tikhonov_rejects_bad_input():
    for c in (np.nan, np.inf):
        with pytest.raises(ContractViolation):
            solve_tikhonov(np.eye(2), c, [1.0, 1.0])
    with pytest.raises(ContractViolation):
        solve_tikhonov([[1.0, 2.0], [0.0, 1.0]], 0.5, [1.0, 1.0])
    with pytest.raises(ContractViolation):
        solve_tikhonov(np.eye(2), 0.5, [1.0, 1.0, 1.0])


def test_frobenius_dot_examples():
    assert frobenius_dot(np.eye(2), np.eye(2)) == 2.0
    assert frobenius_dot([[1.0, 2.0], [3.0, 4.0]], [[4.0, 3.0], [2.0, 1.0]]) == 20.0


def test_frobenius_dot_matches_flattened_dot():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    assert abs(frobenius_dot(a, b) - float(a.ravel() @ b.ravel())) < 1e-12


def test_frobenius_dot_shape_mismatch():
    with pytest.raises(ContractViolation):
        frobenius_dot(np.zeros((2, 2)), np.zeros((2, 3)))


def test_sym_eigh_reports_non_convergence(monkeypatch):
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    m = np.random.default_rng(4).standard_normal((6, 6))
    with pytest.raises(ArithmeticError, match="did not converge in 1 sweeps"):
        sym_eigh(m + m.T)

from __future__ import annotations

import numpy as np
import pytest

from isopo_lab.errors import ContractViolation, SingularMatrixError
from isopo_lab.linalg import solve_tikhonov


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
        solve_tikhonov(np.zeros((2, 3)), 0.5, [1.0, 1.0])
    with pytest.raises(ContractViolation):
        solve_tikhonov([[np.nan, 0.0], [0.0, 1.0]], 0.5, [1.0, 1.0])
    with pytest.raises(ContractViolation):
        solve_tikhonov(np.eye(2), 0.5, [1.0, 1.0, 1.0])

"""Dense double-precision helpers for microbatch-sized symmetric problems.

Matrices are plain 2-D float64 numpy arrays (row-major). The Tikhonov solve
that training uses factors M + c I by Cholesky. The symmetric eigensolver is
a round-robin Jacobi iteration kept as a checked contract (acceptance
criterion 10): simple and provably convergent, it is not on the training
path.
``frobenius_dot`` is the entry-wise reference that Gram matrices are checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, SingularMatrixError

# Relative tolerance for accepting an input as symmetric.
SYMMETRY_RTOL = 1e-12
# Jacobi stops once the off-diagonal Frobenius norm falls below this times ||M||.
OFFDIAG_RTOL = 1e-12
_MAX_SWEEPS = 60


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are ascending; ``eigenvectors`` holds the matching
    orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ContractViolation(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ContractViolation(f"{name} has non-finite entries")
    return m


def _as_symmetric(mat) -> tuple[np.ndarray, float]:
    """The finite square matrix ``mat``, symmetric to 1e-12 relative, and its norm."""
    m = _as_matrix(mat)
    if m.shape[0] != m.shape[1]:
        raise ContractViolation(f"matrix must be square, got {m.shape}")
    norm = float(np.linalg.norm(m))
    if float(np.linalg.norm(m - m.T)) > SYMMETRY_RTOL * max(norm, 1e-300):
        raise ContractViolation("matrix is not symmetric to 1e-12 relative")
    return m, norm


def frobenius_dot(a, b) -> float:
    """Entry-wise dot product sum_ij A_ij * B_ij of two equally shaped matrices."""
    am = _as_matrix(a, "a")
    bm = _as_matrix(b, "b")
    if am.shape != bm.shape:
        raise ContractViolation(f"shape mismatch: {am.shape} vs {bm.shape}")
    return float(np.sum(am * bm))


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The n - 1 rounds (odd n: n) of a round-robin sweep over indices 0..n-1.

    Each round pairs every index with another as disjoint (p, q) arrays; over
    a sweep every pair meets exactly once (Brent & Luk, 1985). Odd n plays
    with a pad index that sits out the round in which it would be paired.
    """
    m = n + n % 2
    order = np.arange(m)
    rounds = []
    for _ in range(m - 1):
        p, q = order[: m // 2], order[::-1][: m // 2]
        keep = (p < n) & (q < n)
        rounds.append((p[keep], q[keep]))
        order = np.concatenate([order[:1], np.roll(order[1:], 1)])
    return rounds


def sym_eigh(mat) -> SymEig:
    """Eigendecompose a symmetric real matrix by round-robin Jacobi rotations.

    Each round of a sweep applies n/2 rotations on disjoint index pairs at
    once, as whole-row and whole-column updates. Raises ContractViolation for
    non-square or asymmetric input. The result satisfies
    ||M U - U diag(D)||_F <= ~1e-12 ||M||_F, well inside the 1e-8 contract,
    and U is orthonormal to machine precision.
    """
    m, norm = _as_symmetric(mat)
    n = m.shape[0]
    a = 0.5 * (m + m.T)  # exact symmetrization of representable asymmetry
    u = np.eye(n)
    if n == 1:
        return SymEig(np.array([a[0, 0]]), u)

    tol = OFFDIAG_RTOL * norm
    skip = tol / (n + 1)  # skipped entries cannot push off-norm above tol
    converged = norm == 0.0
    rounds = _round_robin(n)

    def offdiag_norm() -> float:
        # computed directly (not ||A||^2 - ||diag||^2, which cancels badly)
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        return float(np.linalg.norm(off))

    for _ in range(_MAX_SWEEPS):
        if offdiag_norm() <= tol:
            converged = True
            break
        for p, q in rounds:
            apq = a[p, q]
            active = np.abs(apq) > skip
            if not active.any():
                continue
            p, q, apq = p[active], q[active], apq[active]
            app = a[p, p]
            aqq = a[q, q]
            tau = 0.5 * (aqq - app) / apq
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c

            col_p = a[:, p]  # index arrays select copies, not views
            col_q = a[:, q]
            a[:, p] = c * col_p - s * col_q
            a[:, q] = s * col_p + c * col_q
            row_p = a[p, :]
            row_q = a[q, :]
            a[p, :] = c[:, None] * row_p - s[:, None] * row_q
            a[q, :] = s[:, None] * row_p + c[:, None] * row_q
            # stable closed forms for the rotated 2x2 blocks
            a[p, p] = app - t * apq
            a[q, q] = aqq + t * apq
            a[p, q] = 0.0
            a[q, p] = 0.0

            u_p = u[:, p]
            u_q = u[:, q]
            u[:, p] = c * u_p - s * u_q
            u[:, q] = s * u_p + c * u_q
    if not converged and offdiag_norm() > tol:
        raise ArithmeticError(f"Jacobi did not converge in {_MAX_SWEEPS} sweeps")

    d = np.diag(a).copy()
    order = np.argsort(d, kind="stable")
    return SymEig(d[order], u[:, order])


def solve_tikhonov(mat, c: float, b) -> np.ndarray:
    """Solve (M + c I) x = b for a symmetric positive semi-definite M.

    Factors M + c I = L L^T by Cholesky and applies two solves. Requires a
    finite c >= 0; raises SingularMatrixError when M + c I is not numerically
    positive definite (for example a rank-deficient M with c == 0).
    """
    if not (np.isfinite(c) and c >= 0):
        raise ContractViolation(f"regularization must be finite and nonnegative, got {c}")
    m, _ = _as_symmetric(mat)
    n = m.shape[0]
    vec = np.asarray(b, dtype=float)
    if vec.shape != (n,):
        raise ContractViolation(f"rhs shape {vec.shape} does not match dimension {n}")
    try:
        chol = np.linalg.cholesky(m + c * np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"M + cI with c = {c:.3e} is not positive definite") from exc
    return np.linalg.solve(chol.T, np.linalg.solve(chol, vec))

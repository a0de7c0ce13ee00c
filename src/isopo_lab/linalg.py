"""Dense double-precision Tikhonov solve for microbatch-sized symmetric problems.

Matrices are plain 2-D float64 numpy arrays (row-major). ``solve_tikhonov``
factors M + c I by Cholesky; it is the solve interacting ISOPO applies to the
layer-wise NTK.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, SingularMatrixError

# Relative tolerance for accepting an input as symmetric.
SYMMETRY_RTOL = 1e-12


def _as_symmetric(mat) -> np.ndarray:
    """The finite square matrix ``mat``, checked symmetric to 1e-12 relative."""
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractViolation(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ContractViolation("matrix has non-finite entries")
    norm = float(np.linalg.norm(m))
    if float(np.linalg.norm(m - m.T)) > SYMMETRY_RTOL * max(norm, 1e-300):
        raise ContractViolation("matrix is not symmetric to 1e-12 relative")
    return m


def solve_tikhonov(mat, c: float, b) -> np.ndarray:
    """Solve (M + c I) x = b for a symmetric positive semi-definite M.

    Factors M + c I = L L^T by Cholesky and applies two solves. Requires a
    finite c >= 0; raises SingularMatrixError when M + c I is not numerically
    positive definite (for example a rank-deficient M with c == 0).
    """
    if not (np.isfinite(c) and c >= 0):
        raise ContractViolation(f"regularization must be finite and nonnegative, got {c}")
    m = _as_symmetric(mat)
    n = m.shape[0]
    vec = np.asarray(b, dtype=float)
    if vec.shape != (n,):
        raise ContractViolation(f"rhs shape {vec.shape} does not match dimension {n}")
    try:
        chol = np.linalg.cholesky(m + c * np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"M + cI with c = {c:.3e} is not positive definite") from exc
    return np.linalg.solve(chol.T, np.linalg.solve(chol, vec))

"""Dense symmetric eigensolver for small matrices (cyclic Jacobi)."""

import math

import numpy as np

from .errors import ConvergenceError

TOL = 1e-14  # off-diagonal Frobenius norm, relative to the matrix's, at convergence
MAX_SWEEPS = 60


def jacobi_eigh(M):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Returns a 1-D array in no particular order; eigenvectors are not
    accumulated.  The sweeps run on Python floats, which are faster than
    NumPy calls on the rows of 2 to 10 entries this package works with.
    Each rotation updates rows p and q, then columns p and q; the tests pin
    the eigenvalues this order gives, bit for bit.  Cost is O(n^3) per sweep.
    """
    A = np.array(M, dtype=float)
    n = A.shape[0]
    if n == 1:
        return np.array([A[0, 0]])
    norm = np.linalg.norm(A)
    if norm == 0.0:
        return np.zeros(n)
    a = A.tolist()
    for _ in range(MAX_SWEEPS):
        # a plain running sum: sum() of floats is compensated from Python 3.12
        off = 0.0
        for p in range(n - 1):
            for x in a[p][p + 1 :]:
                off += x**2
        if math.sqrt(2.0 * off) <= TOL * norm:
            return np.array([a[i][i] for i in range(n)])
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= 1e-300:
                    continue
                tau = (a[q][q] - a[p][p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rp, rq = a[p], a[q]
                a[p] = [c * x - s * y for x, y in zip(rp, rq)]
                a[q] = [s * x + c * y for x, y in zip(rp, rq)]
                for row in a:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
    raise ConvergenceError("Jacobi eigensolver did not converge")

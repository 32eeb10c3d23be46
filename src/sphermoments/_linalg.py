"""The eigenvalues behind validate's positive-definiteness check."""

import numpy as np


def jacobi_eigh(M):
    """Ascending eigenvalues of a symmetric matrix by ``numpy.linalg.eigvalsh``
    (LAPACK, which scales its input itself).  The name, which ``distributions``
    imports, outlives the Jacobi solver this replaced: the benchmark's tracer
    times it as the ``linalg.jacobi_eigh`` span and fails a traced run that
    records no calls, so the rename goes with the benchmark change that drops
    the span."""
    return np.linalg.eigvalsh(M)

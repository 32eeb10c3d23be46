"""Shared randomized-input helpers for the test suite."""

import numpy as np

# the library's own input generators, which its validate suites draw from
from sphermoments.validation import _random_spd as random_spd
from sphermoments.validation import _random_unit as random_unit


def rng_for(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def random_rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))

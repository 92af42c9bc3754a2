"""Test-side reference implementations shared by several test modules."""

import numpy as np
import pytest

from helitube.bloch import two_band_energies


def _fd_hessian(spec, k, band):
    """Band Hessian d2E/dk dk of a two-band branch by finite differences.

    Central second differences of two_band_energies with one Richardson
    extrapolation, step 1e-4*|tau|.  It shares no algebra with the closed
    form in bloch.two_band_hessian, which it checks.
    """
    kv = np.asarray(k, dtype=float)
    step = 1e-4 * abs(spec.tau)

    def energy(dk_s, dk_v):
        return two_band_energies(spec, (kv[0] + dk_s, kv[1] + dk_v))[band]

    def second_differences(h):
        e0 = energy(0.0, 0.0)
        d = np.empty((2, 2))
        d[0, 0] = (energy(h, 0.0) - 2 * e0 + energy(-h, 0.0)) / h**2
        d[1, 1] = (energy(0.0, h) - 2 * e0 + energy(0.0, -h)) / h**2
        mixed = (
            energy(h, h) - energy(h, -h) - energy(-h, h) + energy(-h, -h)
        ) / (4 * h**2)
        d[0, 1] = d[1, 0] = mixed
        return d

    return (4.0 * second_differences(step / 2) - second_differences(step)) / 3.0


@pytest.fixture
def fd_hessian():
    return _fd_hessian

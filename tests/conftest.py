"""Test-side reference implementations shared by several test modules.

Each is a fixture returning a plain function, and none is part of the
package's API.  Fields are plain complex arrays on the (n_s, n_phi) last
axes, as in operators:

fd_hessian                 band Hessian by finite differences, against
                           bloch.two_band_hessian
laplace_beltrami_expanded  -Laplacian in expanded coefficient form, against
                           operators.apply_laplace_beltrami (metric form)
random_band_limited        seeded band-limited probe field, unit flat norm
weingarten                 shape operator I^-1 II from the Frenet-Serret
                           equations, against geometry.principal_curvatures
"""

import math

import numpy as np
import pytest

from helitube import operators
from helitube.bloch import two_band_energies
from helitube.geometry import grid_nodes
from helitube.operators import band_limited, spectral_derivative
from helitube.spec import HelixSpec


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


def _weingarten(spec: HelixSpec, s: float, phi: float) -> np.ndarray:
    """Shape operator W = I^-1 II of X = x - rho0 (sin(phi) B + cos(phi) N),
    in the (phi, s) coordinate basis.

    Every vector is written in the Frenet basis (t, n, b) at s, which moves
    by the Frenet-Serret equations (t, n, b)' = F (t, n, b), so a vector
    with components c has derivative c' + c F.  N and B are n and b turned
    through theta = -tau s.  The normal sin(phi) B + cos(phi) N points into
    the tube, so the curvature around it is +1/rho0.  Nothing here reads
    geometry's curvatures.
    """
    kappa, tau, rho0 = spec.kappa, spec.tau, spec.rho0
    F = np.array([[0.0, kappa, 0.0], [-kappa, 0.0, tau], [0.0, -tau, 0.0]])
    c, sn = math.cos(-tau * s), math.sin(-tau * s)
    # components of N and B, then of their first and second s-derivatives
    # at a fixed basis (theta' = -tau)
    N = np.array([[0.0, c, sn], [0.0, tau * sn, -tau * c],
                  [0.0, -tau**2 * c, -tau**2 * sn]])
    B = np.array([[0.0, -sn, c], [0.0, tau * c, tau * sn],
                  [0.0, tau**2 * sn, -tau**2 * c]])
    u = math.sin(phi) * B + math.cos(phi) * N  # the normal
    v = math.cos(phi) * B - math.sin(phi) * N  # its phi-derivative
    t = np.array([1.0, 0.0, 0.0])
    X_s = t - rho0 * (u[1] + u[0] @ F)
    X_ss = t @ F - rho0 * (u[2] + 2.0 * u[1] @ F + u[0] @ F @ F)
    X_p = -rho0 * v[0]
    X_sp = -rho0 * (v[1] + v[0] @ F)
    X_pp = rho0 * u[0]
    first = np.array([[X_p @ X_p, X_p @ X_s], [X_s @ X_p, X_s @ X_s]])
    second = np.array([[X_pp @ u[0], X_sp @ u[0]], [X_sp @ u[0], X_ss @ u[0]]])
    return np.linalg.solve(first, second)


def _laplace_beltrami_expanded(spec: HelixSpec, psi: np.ndarray) -> np.ndarray:
    """-Laplacian in expanded coefficient form; cross-check of the metric form.

    -(1/h^2) Psi_ss + (h_s/h^3) Psi_s - Psi_vv - (h_v/h) Psi_v with analytic
    metric derivatives.
    """
    S, P = grid_nodes(spec, *psi.shape[-2:])
    h, h_s, _, h_v, _ = operators._h_derivatives(spec, S, P)
    f_s = spectral_derivative(psi, -2, spec.s_period)
    f_ss = spectral_derivative(psi, -2, spec.s_period, 2)
    f_v = spectral_derivative(psi, -1, spec.varphi_period)
    f_vv = spectral_derivative(psi, -1, spec.varphi_period, 2)
    return -f_ss / h**2 + (h_s / h**3) * f_s - f_vv - (h_v / h) * f_v


def _random_band_limited(
    spec: HelixSpec, n_s: int, n_phi: int, rng: np.random.Generator
) -> np.ndarray:
    """band_limited with complex standard normal amplitudes drawn from rng."""
    return band_limited(
        spec, n_s, n_phi,
        lambda shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
    )


@pytest.fixture
def weingarten():
    return _weingarten


@pytest.fixture
def laplace_beltrami_expanded():
    return _laplace_beltrami_expanded


@pytest.fixture
def random_band_limited():
    return _random_band_limited

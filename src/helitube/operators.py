"""Surface Schrodinger operators in the two gauges.

Two equivalent pictures of the same eigenproblem are implemented:

* Psi: the raw surface wavefunction with weighted norm
  integral |Psi|^2 h ds dvarphi and kinetic operator -Laplace-Beltrami
  (apply_laplace_beltrami).
* Phi = sqrt(h) Psi with the flat norm, where the operator becomes
  -d_s(h^-2 d_s .) - d_varphi^2 + V_eff and V_eff = V_kin + V_curv
  collects all metric derivatives into a multiplicative potential
  (apply_transformed_operator, v1_apply).

A field is a plain complex array whose last two axes sample the spec's
periodic unit cell (spec.s_period x spec.varphi_period) at the nodes of
geometry.grid_nodes; leading axes stack fields on one cell, each operator
acts on every field, and a norm is that of the whole stack.  The gauge is
stated by the function a field is handed to, not carried by the field.
The norm is the flat one, so the h-weighted norm of Psi is
wavefield_norm(spec, sqrt(h) * Psi).

All derivatives are trigonometric-spectral on the periodic unit cell, so the
operators are exact on band-limited fields; finite differences live only in
the independent grid oracle.  The first-order (in eps = rho0*kappa) potential
is operator-valued: its action on a field is primary, the multiplicative part
is exposed separately for plotting.
"""

from __future__ import annotations

import numpy as np

from .geometry import HelixSpec, grid_nodes, helical_phase, metric_h, v_curv


def spectral_offset(spec: HelixSpec) -> float:
    """Offset a of the ray basis: a free plane wave k sits at k^2 - a, so
    a + E is its effective squared wavenumber (natural units)."""
    # a = (1/rho0^2 + kappa^2)/4; (1/rho0)**2 keeps round decimals exact
    return ((1.0 / spec.rho0) ** 2 + spec.kappa**2) / 4.0


def _field(values) -> np.ndarray:
    """values as a complex stack of fields on the (n_s, n_phi) last axes."""
    values = np.asarray(values, dtype=complex)
    if values.ndim < 2:
        raise ValueError("values must have at least 2 dimensions")
    return values


def wavefield_norm(spec: HelixSpec, values) -> float:
    """Flat L2 norm over the unit cell: sqrt(integral |f|^2 ds dvarphi)."""
    f = _field(values)
    n_s, n_phi = f.shape[-2:]
    cell = (spec.s_period / n_s) * (spec.varphi_period / n_phi)
    return float(np.sqrt(np.sum(np.abs(f) ** 2) * cell))


def normalize(spec: HelixSpec, values) -> np.ndarray:
    """Scale to unit flat norm."""
    f = _field(values)
    nrm = wavefield_norm(spec, f)
    if nrm == 0.0:
        raise ValueError("cannot normalize a zero field")
    return f / nrm


def spectral_derivative(
    values: np.ndarray, axis: int, period: float, order: int = 1
) -> np.ndarray:
    """Trigonometric derivative along one periodic axis.

    Exact on grid modes; the Nyquist mode is dropped for odd orders where its
    derivative is not representable on the grid.
    """
    n = values.shape[axis]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=period / n)
    if order % 2 == 1 and n % 2 == 0:
        k = k.copy()
        k[n // 2] = 0.0  # Nyquist has no odd-order spectral image
    shape = [1] * values.ndim
    shape[axis] = n
    mult = (1j * k.reshape(shape)) ** order
    return np.fft.ifft(np.fft.fft(values, axis=axis) * mult, axis=axis)


def apply_laplace_beltrami(spec: HelixSpec, psi) -> np.ndarray:
    """-Laplace-Beltrami of the surface wavefunction Psi, in metric form.

    -(1/h) d_s((1/h) d_s Psi) - (1/h) d_varphi(h d_varphi Psi), with spectral
    derivatives.  Self-adjoint under the h-weighted inner product.
    """
    f = _field(psi)
    h = metric_h(spec, *grid_nodes(spec, *f.shape[-2:]))
    ds = lambda v: spectral_derivative(v, -2, spec.s_period)
    dv = lambda v: spectral_derivative(v, -1, spec.varphi_period)
    return -ds(ds(f) / h) / h - dv(h * dv(f)) / h


def _h_derivatives(spec: HelixSpec, s, phi):
    """Analytic h and its first/second derivatives in s and varphi."""
    xi = helical_phase(spec, s, phi)
    eps, tau, rho0 = spec.epsilon, spec.tau, spec.rho0
    c, sn = np.cos(xi), np.sin(xi)
    h = 1.0 + eps * c
    h_s = eps * tau * sn
    h_ss = -eps * tau**2 * c
    h_v = -(eps / rho0) * sn
    h_vv = -(eps / rho0**2) * c
    return h, h_s, h_ss, h_v, h_vv


def v_kin(spec: HelixSpec, s, phi):
    """Gauge-transformation potential picked up by Phi = sqrt(h) Psi.

    (1/2) h_vv/h - (1/4) h_v^2/h^2 + (1/2) h_ss/h^3 - (5/4) h_s^2/h^4 with
    analytic derivatives of the metric factor; vanishes for a straight tube.
    """
    h, h_s, h_ss, h_v, h_vv = _h_derivatives(spec, s, phi)
    return (
        0.5 * h_vv / h
        - 0.25 * h_v**2 / h**2
        + 0.5 * h_ss / h**3
        - 1.25 * h_s**2 / h**4
    )


def v_eff(spec: HelixSpec, s, phi):
    """Full effective potential v_kin + v_curv (natural units)."""
    return v_kin(spec, s, phi) + v_curv(spec, s, phi)


def apply_transformed_operator(
    spec: HelixSpec, phi, k_s: float = 0.0
) -> np.ndarray:
    """Flat-gauge Hamiltonian action -d_s(h^-2 d_s Phi) - Phi_vv + V_eff Phi.

    The s-part is kept in flux (Sturm-Liouville) form, which is identical to
    the expanded -(1/h^2) d_s^2 + 2(h_s/h^3) d_s and manifestly symmetric
    under the flat inner product.  k_s is the Bloch momentum: the field is
    the periodic part u of exp(i k_s s) u, so d_s acts as d_s + i k_s.
    """
    f = _field(phi)
    S, P = grid_nodes(spec, *f.shape[-2:])
    h = metric_h(spec, S, P)
    ds = lambda v: spectral_derivative(v, -2, spec.s_period) + 1j * k_s * v
    flux = -ds(ds(f) / h**2)
    f_vv = spectral_derivative(f, -1, spec.varphi_period, 2)
    pot = v_eff(spec, S, P)
    return flux - f_vv + pot * f


def v1_multiplicative(spec: HelixSpec, s, phi):
    """Multiplicative part of the first-order potential.

    eps * (kappa^2/2) [cos xi + cos^2 xi - cos^3 xi] with the helical phase
    xi = phi - tau s; the derivative terms of the first-order operator
    are not included here.
    """
    c = np.cos(helical_phase(spec, s, phi))
    return spec.epsilon * 0.5 * spec.kappa**2 * (c + c**2 - c**3)


def v1_apply(spec: HelixSpec, phi) -> np.ndarray:
    """Action of the operator-valued first-order potential on a Phi field.

    eps { (kappa^2/2)[cos xi + cos^2 xi - cos^3 xi] + cos xi d_s^2
          + tau sin xi d_s },  xi = varphi/rho0 - tau s,
    with spectral derivatives.  Linear in eps by construction.
    """
    f = _field(phi)
    S, P = grid_nodes(spec, *f.shape[-2:])
    xi = helical_phase(spec, S, P)
    f_s = spectral_derivative(f, -2, spec.s_period)
    f_ss = spectral_derivative(f, -2, spec.s_period, 2)
    mult = v1_multiplicative(spec, S, P)
    return mult * f + spec.epsilon * (
        np.cos(xi) * f_ss + spec.tau * np.sin(xi) * f_s
    )


def band_limited(spec: HelixSpec, n_s: int, n_phi: int, draw) -> np.ndarray:
    """Field with spectral support on low modes only, unit flat norm.

    Modes up to max(1, n/4) per direction, so products with smooth metric
    factors stay alias-free at the working grid.  draw(shape) is called
    once and returns the complex amplitudes of exactly those modes, shape
    (kept s-modes, kept phi-modes), each axis in FFT order: nothing is drawn
    for a mode that is dropped.
    """
    rows, cols = (
        np.flatnonzero(np.abs(np.fft.fftfreq(n, 1.0 / n)) <= max(1, n // 4))
        for n in (n_s, n_phi)
    )
    coef = np.zeros((n_s, n_phi), dtype=complex)
    coef[np.ix_(rows, cols)] = draw((len(rows), len(cols)))
    return normalize(spec, np.fft.ifft2(coef))

"""Plane-wave analysis of the periodic first-order potential.

The potential on the tube surface is periodic in (s, varphi) and all of its
Fourier weight sits on integer multiples j K1 of the single reciprocal
vector K1 = ray_vector(spec) = (tau, -1/rho0), the tube's helical symmetry.
This module builds the coupling amplitudes between plane-wave components,
solves the two-component secular problem that K1 couples near the zone
boundary -K1/2, and derives the quantities that follow from it: the
splitting there, the effective-mass tensor, and the straight-tube reference:
cylinder_levels, the one closed form of the kappa = 0 spectrum.

Because the first-order potential contains s-derivatives, a coupling
amplitude depends on the longitudinal wavenumber of the component it acts
on.  The stated table is real, as the frame's origin is fixed at s = 0,
and even in d, so the amplitude that takes q to q + j tau equals the one
that brings it back: each coupling is the one real number ray_amplitude,
and every U^2 is its square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import HelixSpec
from .operators import spectral_offset


class NearResonance(ValueError):
    """Perturbative denominator too small; use the two-band treatment."""


class OutOfValidity(ValueError):
    """Requested point lies outside the expansion's validity window."""


class SingularMass(ValueError):
    """Band Hessian is numerically singular; no finite mass tensor."""


@dataclass(frozen=True)
class BlochVector:
    """Quasi-momentum k_s in the first zone plus an exact transverse integer n."""

    k_s: float
    n_transverse: int = 0


def ray_vector(spec: HelixSpec) -> np.ndarray:
    """K1 = (tau, -1/rho0): the potential's Fourier weight sits on its multiples."""
    return np.array([spec.tau, -1.0 / spec.rho0])


def zone_boundary_k(spec: HelixSpec) -> np.ndarray:
    """The k-point -K1/2 where the free bands connected by K1 cross."""
    return -0.5 * ray_vector(spec)


def k_components(spec: HelixSpec, k) -> np.ndarray:
    """(k_s, k_varphi) of a BlochVector or of a raw pair on the continuous ray."""
    if isinstance(k, BlochVector):
        return np.array([k.k_s, k.n_transverse / spec.rho0])
    kv = np.asarray(k, dtype=float)
    if kv.shape != (2,):
        raise ValueError("k must be a BlochVector or a pair (k_s, k_varphi)")
    return kv


# --------------------------------------------------------------------------
# coupling amplitudes


def stated_table(spec: HelixSpec) -> tuple[dict, dict]:
    """The paper's first-order Fourier coefficients, keyed by d = n' - n, of
    h^-2 (w) and of the potential (v) in the helical phase x, from cos x,
    cos^2 x and cos^3 x written as exponentials; v[0] is the shift
    eps kappa^2/4 on top of the zeroth-order -a, which is left out."""
    eps, k2 = spec.epsilon, spec.kappa**2
    w = {0: 1.0, 1: -eps / 2, -1: -eps / 2}
    v = {0: eps * k2 / 4}
    for d, c in ((1, k2 / 16), (2, k2 / 8), (3, -k2 / 16)):
        v[d] = v[-d] = eps * c
    return w, v


def ray_amplitude(spec: HelixSpec, j: int, q_s):
    """Amplitude of the j-th ray harmonic acting on a plane wave exp(i q_s s).

    It lowers n by j and raises q by j tau: v[-j] + (q_s + j tau) w[-j] q_s
    from stated_table, or the shift v[0] at j = 0; real, as the frame's
    origin is fixed at s = 0."""
    w, v = stated_table(spec)
    if j == 0:
        return v[0]
    return v.get(-j, 0.0) + (q_s + j * spec.tau) * w.get(-j, 0.0) * q_s


def first_order_u(spec: HelixSpec, k, energy: float) -> float:
    """Leading mixing coefficient of the k+K1 component into the k state."""
    kv = k_components(spec, k)
    K = ray_vector(spec)
    denom = spectral_offset(spec) + energy - float((kv + K) @ (kv + K))
    delta = 1e-6 * spec.tau**2
    if abs(denom) <= delta:
        raise NearResonance(
            f"denominator {denom:.3e} within {delta:.3e} of zero; "
            "the state is degenerate with its shifted partner"
        )
    return ray_amplitude(spec, 1, kv[0]) / denom


# --------------------------------------------------------------------------
# two-band secular problem


def two_band_energies(spec: HelixSpec, k):
    """Both roots of the 2x2 secular problem coupling k and k+K1.

    Returns (E1, E2) with E1 <= E2.  At epsilon = 0 the roots are the free
    values k^2 - a and (k+K1)^2 - a; the j = 0 harmonic adds a constant
    shift eps kappa^2/4 to both roots.
    """
    kv = k_components(spec, k)
    K = ray_vector(spec)
    a = spectral_offset(spec)
    lower = float(kv @ kv) - a
    upper = float((kv + K) @ (kv + K)) - a
    u = ray_amplitude(spec, 1, kv[0])
    shift = ray_amplitude(spec, 0, 0.0)
    mid = shift + 0.5 * (lower + upper)
    disc = math.sqrt(0.25 * (upper - lower) ** 2 + u * u)
    return mid - disc, mid + disc


def first_order_energies(spec: HelixSpec, k, n_bands: int) -> np.ndarray:
    """Second-order perturbative energies of the ray-shifted free states."""
    kv = k_components(spec, k)
    a = spectral_offset(spec)
    shift = ray_amplitude(spec, 0, 0.0)
    delta = 1e-6 * spec.tau**2

    def free(j: int) -> float:
        return (kv[0] + j * spec.tau) ** 2 + (kv[1] - j / spec.rho0) ** 2 - a

    energies = []
    for j in range(-4, 5):
        e0 = free(j)
        q = kv[0] + j * spec.tau
        corr = 0.0
        for dj in (-3, -2, -1, 1, 2, 3):
            denom = e0 - free(j + dj)
            if abs(denom) <= delta:
                raise NearResonance(
                    f"states j={j} and j={j + dj} degenerate at this k"
                )
            corr += ray_amplitude(spec, dj, q) ** 2 / denom
        energies.append(e0 + shift + corr)
    return np.sort(energies)[:n_bands]


def two_band_gap(spec: HelixSpec) -> float:
    """Band gap 2|U| opened at the zone boundary -K1/2."""
    e1, e2 = two_band_energies(spec, tuple(zone_boundary_k(spec)))
    return e2 - e1


def near_boundary_expansion(spec: HelixSpec, G: float):
    """Quadratic expansion of the two bands at displacement G along the ray.

    Valid while K1^2 G^2 < 0.1 U^2; at G = 0 it reproduces the two-band
    roots, and the gap, exactly.
    """
    K = ray_vector(spec)
    K2 = float(K @ K)
    u_abs = abs(ray_amplitude(spec, 1, zone_boundary_k(spec)[0]))
    if not K2 * G**2 < 0.1 * u_abs**2:
        raise OutOfValidity(
            f"K^2 G^2 = {K2 * G**2:.3e} not small against U^2 = {u_abs**2:.3e}"
        )
    a = spectral_offset(spec)
    shift = ray_amplitude(spec, 0, 0.0)
    base = shift - a + G**2 + K2 / 4
    corr = u_abs + K2 * G**2 / (2 * u_abs)
    return base - corr, base + corr


# --------------------------------------------------------------------------
# fit through the origin


def origin_fit(x, y) -> tuple[float, float]:
    """Least-squares slope of y = slope * x, a line through the origin.

    Returns (slope, r_squared).  The slope is 0 when every x is 0,
    and r_squared is 1 when y is constant.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sxx = float(x @ x)
    slope = float(x @ y) / sxx if sxx > 0 else 0.0
    ss_res = float(np.sum((y - slope * x) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, r_squared


# --------------------------------------------------------------------------
# effective mass


def _invert_hessian(hess: np.ndarray, tau: float) -> np.ndarray:
    det = float(np.linalg.det(hess))
    if abs(det) < 1e-12 * tau**4:
        raise SingularMass(f"band Hessian determinant {det:.3e} below cutoff")
    return 2.0 * np.linalg.inv(hess)


def two_band_hessian(spec: HelixSpec, k, band: int) -> np.ndarray:
    """Closed-form Hessian d2E/dk dk of a two-band branch.

    The branch is shift + |k|^2 + K.k + K^2/2 - a -+ f with
    f = sqrt(D^2 + U^2(q0)), D = K.k + K^2/2, so the Hessian is
    2 I -+ f'' with f'' assembled from D, U^2 and its q0-derivatives; as
    U(q) = ray_amplitude(spec, 1, q) = v + c (q + tau) q, c = w[-1] of
    stated_table, U' = c (2 q + tau) and U'' = 2 c.
    """
    if band not in (0, 1):
        raise ValueError("band must be 0 (lower) or 1 (upper)")
    kv = k_components(spec, k)
    K = ray_vector(spec)
    D = float(K @ kv) + 0.5 * float(K @ K)
    q0 = kv[0]
    c = stated_table(spec)[0][-1]
    u, up = ray_amplitude(spec, 1, q0), c * (2.0 * q0 + spec.tau)
    f_sq = D * D + u * u
    if f_sq <= 0.0:
        raise SingularMass("bands touch at this k; Hessian undefined")
    f = math.sqrt(f_sq)
    grad = D * K + np.array([u * up, 0.0])
    curv = np.outer(K, K)
    curv[0, 0] += up * up + u * 2.0 * c
    f_hess = curv / f - np.outer(grad, grad) / f**3
    sign = -1.0 if band == 0 else 1.0
    return 2.0 * np.eye(2) + sign * f_hess


def effective_mass(spec: HelixSpec, k, band: int) -> np.ndarray:
    """Mass tensor 2 [d2E/dk dk]^{-1} of a two-band branch, in units of mu.

    Inverts the closed-form two_band_hessian; band 0 is the lower branch,
    band 1 the upper.
    """
    return _invert_hessian(two_band_hessian(spec, k, band), spec.tau)


# --------------------------------------------------------------------------
# straight-tube reference


def cylinder_levels(spec: HelixSpec, n_lowest: int) -> np.ndarray:
    """The n_lowest lowest levels (n^2 - 1/4)/rho0^2 + (2 pi m/L)^2 of the
    straight tube at k_s = 0, L = s_period, sorted, one per (n, m); as a
    level grows with |n| and with |m|, |n|, |m| <= n_lowest hold them all."""
    if spec.kappa != 0.0:
        raise ValueError("closed cylinder spectrum requires kappa = 0")
    if n_lowest < 1:
        raise ValueError(f"n_lowest must be at least 1, got {n_lowest}")
    r = range(-n_lowest, n_lowest + 1)
    levels = [(n * n - 0.25) * (1.0 / spec.rho0) ** 2
              + (2 * m * math.pi / spec.s_period) ** 2 for n in r for m in r]
    return np.sort(levels)[:n_lowest]

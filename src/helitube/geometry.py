"""Geometry of a tube surface wrapped around a circular helix.

The base curve is the constant-curvature, constant-torsion helix embedded as

    x(s) = (R cos(alpha s), R sin(alpha s), p alpha s),

with R = kappa/(kappa^2 + tau^2), p = tau/(kappa^2 + tau^2) and
alpha = sqrt(kappa^2 + tau^2), parametrized by arclength s.  The tube of
radius rho0 is swept along x(s) using the rotation-minimizing frame (t, N, B),
obtained from the Frenet frame (t, n, b) by a rotation through
theta(s) = -tau s about the tangent.  The paper's integration constant in
theta is fixed so that the two frames coincide at s = 0: shifting it only
shifts phi, which no spectrum sees.  The frames are internal to
surface_point, the embedding built from them.  In that frame the induced
metric is diagonal (X_s . X_varphi = 0 is the frame's no-twist condition)
with a single nontrivial factor

    h(s, phi) = 1 + rho0 kappa cos(theta(s) + phi),

and the principal curvatures, mean/Gauss curvatures and the attractive
curvature potential all have closed forms evaluated here.  Each depends on
(s, phi) only through the helical phase xi = theta(s) + phi (helical_phase),
the tube's screw symmetry.

Energies are in natural units 2*mu*E/hbar^2 (dimension 1/length^2).
"""

from __future__ import annotations

import math

import numpy as np

from .spec import HelixSpec


def rotation_angle(spec: HelixSpec, s):
    """Frame rotation angle theta(s) = -tau*s."""
    return -spec.tau * np.asarray(s, dtype=float)


def helical_phase(spec: HelixSpec, s, phi):
    """Helical phase xi = theta(s) + phi.

    h, the curvatures, v_curv and the effective potential depend on
    (s, phi) only through xi, so they are invariant under the screw shift
    (s, phi) -> (s + d, phi + tau d).
    """
    return rotation_angle(spec, s) + np.asarray(phi, dtype=float)


def surface_point(spec: HelixSpec, s, phi) -> np.ndarray:
    """Embedded surface point X(s, phi) = x(s) - rho0 (sin(phi) B + cos(phi) N).

    x is the helix and (N, B) its Frenet normals (n, b) turned through
    theta(s) about the tangent.  Broadcasts over s and phi; the 3-vector
    sits on the last axis.
    """
    s = np.asarray(s, dtype=float)
    phi = np.asarray(phi, dtype=float)
    s, phi = np.broadcast_arrays(s, phi)
    a, R, p = spec.alpha, spec.helix_radius, spec.pitch
    c, sn = np.cos(a * s), np.sin(a * s)
    x = np.stack([R * c, R * sn, p * a * s], axis=-1)
    n = np.stack([-c, -sn, np.zeros_like(s)], axis=-1)
    b = np.stack([a * p * sn, -a * p * c, a * R * np.ones_like(s)], axis=-1)
    theta = rotation_angle(spec, s)[..., None]
    ct, st = np.cos(theta), np.sin(theta)
    N, B = ct * n + st * b, -st * n + ct * b
    return x - spec.rho0 * (np.sin(phi)[..., None] * B + np.cos(phi)[..., None] * N)


def metric_h(spec: HelixSpec, s, phi):
    """Metric factor h(s, phi) = 1 + rho0*kappa*cos(theta(s) + phi); h > 0."""
    return 1.0 + spec.epsilon * np.cos(helical_phase(spec, s, phi))


def principal_curvatures(spec: HelixSpec, s, phi):
    """Principal, mean and Gauss curvatures at (s, phi).

    Returns
    -------
    (kappa1, kappa2, M, K)
        kappa1 = 1/rho0 (around the tube), kappa2 = kappa*cos(theta+phi)/h
        (along the tube), M = (kappa1+kappa2)/2, K = kappa1*kappa2.

    M is reported with the (kappa1+kappa2)/2 sign convention; the curvature
    potential depends only on (kappa1-kappa2)^2, so the overall sign of the
    shape operator never matters downstream.
    """
    h = metric_h(spec, s, phi)
    k1 = np.full_like(np.asarray(h, dtype=float), 1.0 / spec.rho0)
    k2 = spec.kappa * np.cos(helical_phase(spec, s, phi)) / h
    return k1, k2, 0.5 * (k1 + k2), k1 * k2


def v_curv(spec: HelixSpec, s, phi):
    """Curvature-induced potential -(M^2 - K) = -1/(4 rho0^2 h^2).

    Always attractive; in natural units of 1/length^2.
    """
    h = metric_h(spec, s, phi)
    return -1.0 / (4.0 * spec.rho0**2 * h**2)


def grid_nodes(spec: HelixSpec, n_s: int, n_phi: int):
    """(S, PHI): (s, phi) at every node of one unit cell, s-major.

    Node (i, j) sits at s = i*s_period/n_s and varphi = rho0*phi =
    -pi*rho0 + j*2*pi*rho0/n_phi; both directions are half-open, so no
    periodic edge is duplicated.  tau = 0 has no cell: DegeneratePeriod.
    """
    s = np.arange(n_s) * (spec.s_period / n_s)
    varphi = -math.pi * spec.rho0 + np.arange(n_phi) * (spec.varphi_period / n_phi)
    S, V = np.meshgrid(s, varphi, indexing="ij")
    return S, V / spec.rho0

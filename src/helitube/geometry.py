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

HelixSpec is a slotted class whose checks are scalar arithmetic, and the
functions of (s, phi) import numpy when called: building and validating a
spec loads only math, no numpy and no dataclasses (which imports inspect).

Energies are in natural units 2*mu*E/hbar^2 (dimension 1/length^2).
"""

from __future__ import annotations

import math


class DegenerateCurve(ValueError):
    """Base curve has kappa = tau = 0: no Frenet frame exists."""


class DegeneratePeriod(ValueError):
    """tau = 0: the metric has no finite s-period of its own."""


class EmbeddingViolation(ValueError):
    """rho0*kappa >= 1: h = 1 + eps cos(theta + phi) reaches 0, so the
    tube is not even locally embedded.

    rho0*kappa < 1 is only the local condition: a tube that passes it can
    still run into its next turn once rho0 exceeds the helix's reach
    (kappa 9, tau 1, rho0 0.1 has reach 0.0381), and that is not checked.
    """


class HelixSpec:
    """Physical parameters of one helical-tube problem instance.

    Parameters
    ----------
    kappa : float
        Curvature of the base curve, >= 0 [1/length].
    tau : float
        Torsion; any sign (handedness) [1/length].
    rho0 : float
        Tube radius, > 0 [length].

    HelixSpec alone decides whether a helix can be computed.  It refuses
    rho0*kappa >= 1 (EmbeddingViolation), a `tau`, `kappa` or `1/rho0` above
    about 1.16e77 (its fourth power overflows) and 0 < |tau| < about
    4.7e-154 (the squared period overflows).  tau = 0 has no s_period.

    A spec is an immutable value, equal and hashed by its fields; it is no
    NamedTuple, whose `_replace` would skip these checks.
    """

    __slots__ = ("kappa", "tau", "rho0")

    def __init__(self, kappa: float, tau: float, rho0: float):
        for name, v in (("kappa", kappa), ("tau", tau), ("rho0", rho0)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.rho0 <= 0.0:
            raise ValueError(f"rho0 must be > 0, got {self.rho0!r}")
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa!r}")
        if self.epsilon >= 1.0:
            raise EmbeddingViolation(
                f"rho0*kappa = {self.epsilon!r} >= 1: tube is not embedded"
            )
        # energies go as the square of these scales and are squared again (matrix
        # norms, the least-squares fit); `*` gives inf where `**` raises
        for name, scale in (("tau", self.tau), ("kappa", self.kappa),
                            ("1/rho0", 1.0 / self.rho0)):
            if not math.isfinite((scale * scale) * (scale * scale)):
                raise ValueError(f"{name} = {scale!r} is too large: its fourth "
                                 "power, the scale of a squared energy, overflows")
        if self.tau != 0.0 and not math.isfinite(self.s_period * self.s_period):
            raise ValueError(f"tau = {self.tau!r} is too small: the squared "
                             "period (2 pi/|tau|)^2 overflows")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kappa, self.tau, self.rho0) == (other.kappa, other.tau, other.rho0)

    def __hash__(self):
        return hash((self.kappa, self.tau, self.rho0))

    def __repr__(self):
        return f"HelixSpec(kappa={self.kappa!r}, tau={self.tau!r}, rho0={self.rho0!r})"

    def __reduce__(self):  # copy and pickle rebuild through the checks
        return HelixSpec, (self.kappa, self.tau, self.rho0)

    @property
    def epsilon(self) -> float:
        """Dimensionless tube parameter rho0*kappa < 1."""
        return self.rho0 * self.kappa

    @property
    def alpha(self) -> float:
        # alpha = 1/sqrt(R^2 + p^2) collapses to sqrt(kappa^2 + tau^2)
        a2 = self.kappa**2 + self.tau**2
        if a2 == 0.0:
            raise DegenerateCurve("kappa = tau = 0 has no frame")
        return math.sqrt(a2)

    @property
    def helix_radius(self) -> float:
        """R = kappa/(kappa^2 + tau^2)."""
        return self.kappa / self.alpha**2

    @property
    def pitch(self) -> float:
        """p = tau/(kappa^2 + tau^2)."""
        return self.tau / self.alpha**2

    @property
    def s_period(self) -> float:
        """Period 2*pi/|tau| of the metric along s."""
        if self.tau == 0.0:
            raise DegeneratePeriod("tau = 0: metric is s-independent")
        return 2.0 * math.pi / abs(self.tau)

    @property
    def varphi_period(self) -> float:
        """Transverse circumference 2*pi*rho0."""
        return 2.0 * math.pi * self.rho0


def rotation_angle(spec: HelixSpec, s):
    """Frame rotation angle theta(s) = -tau*s."""
    import numpy as np

    return -spec.tau * np.asarray(s, dtype=float)


def helical_phase(spec: HelixSpec, s, phi):
    """Helical phase xi = theta(s) + phi.

    h, the curvatures, v_curv and the effective potential depend on
    (s, phi) only through xi, so they are invariant under the screw shift
    (s, phi) -> (s + d, phi + tau d).
    """
    import numpy as np

    return rotation_angle(spec, s) + np.asarray(phi, dtype=float)


def surface_point(spec: HelixSpec, s, phi) -> np.ndarray:
    """Embedded surface point X(s, phi) = x(s) - rho0 (sin(phi) B + cos(phi) N).

    x is the helix and (N, B) its Frenet normals (n, b) turned through
    theta(s) about the tangent.  Broadcasts over s and phi; the 3-vector
    sits on the last axis.
    """
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

    s = np.arange(n_s) * (spec.s_period / n_s)
    varphi = -math.pi * spec.rho0 + np.arange(n_phi) * (spec.varphi_period / n_phi)
    S, V = np.meshgrid(s, varphi, indexing="ij")
    return S, V / spec.rho0

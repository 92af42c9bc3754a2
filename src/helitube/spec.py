"""The helical tube's parameters, and the errors that refuse a request.

HelixSpec is a slotted class whose checks are scalar arithmetic, and this
module imports only math: building and validating a spec, and naming
every error the command line maps to an exit code, load no numpy and no
dataclasses (which imports inspect).
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


class ConvergenceFailure(RuntimeError):
    """LAPACK failed, or returned a non-finite eigenvalue."""


class CapExceeded(ValueError):
    """The request needs more storage or more sectors than the desk-scale caps."""


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

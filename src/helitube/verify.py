"""Self-verification suite behind the `helitube verify` subcommand.

Each check measures one library invariant and reports the measured value
against its tolerance.  The two checks that hold the exact oracle to a
reference (continuum oracle: the spectral operator's collocation matrix;
cylinder limit: the closed form) run on fixed internal parameters, so they
stay meaningful whatever the configured geometry; the operator identity
and the ray selection run on the configured helix.  No check reads the
configured grid: the collocation grid is fixed, and the operator identity
sizes its grid from eps.

Invariants that hold bitwise by construction, which no input can move, are
left to the test suite: the Hermiticity of the grid and ray matrices (each
hop and its conjugate come from one array) and the evenness of v_eff under
(s, phi) -> (-s, -phi) (it reads cos and sin^2 of exactly -xi).  So are the
finite-difference grid's own properties (its screw reduction and its
second-order refinement), which no artifact is computed from.

The vkin_offset configuration key is a negative-control hook: a nonzero
value shifts the potential on one side of the operator identity only, as
a wrong gauge potential would, so any corruption there is caught by the
first check.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .spec import CapExceeded, HelixSpec
from .geometry import grid_nodes, metric_h, v_curv
from .operators import (
    apply_laplace_beltrami,
    apply_transformed_operator,
    band_limited,
    v1_multiplicative,
)
from .oracle import (
    collocation_levels,
    continuum_levels,
    cylinder_levels,
    fourier_decay_rate,
)

_IDENTITY_FIELDS = 5
_IDENTITY_SEED = 2024
# the operator identity's grid: 512x512 covers eps up to about 0.96, where
# the fields, taken one at a time, keep verify near 80 MB (484x484 grid)
_IDENTITY_MAX_NODES = 2**18


def _check(name, tolerance, measured, **detail) -> dict:
    entry = {
        "name": name,
        "kind": "max",
        "tolerance": float(tolerance),
        "measured": float(measured),
        "passed": bool(measured <= tolerance),
    }
    entry.update(detail)
    return entry


def _l2(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def check_operator_identity(cfg) -> dict:
    """sqrt(h)(-Lap)(Phi/sqrt(h)) + v_curv Phi vs apply_transformed_operator.

    The fields (band_limited) keep modes up to n/4 of the n x n grid,
    which leaves n/4 modes above them for the products with powers of h,
    whose Fourier tail falls off as r^|d| (fourier_decay_rate).  n is sized
    from the spec so that r^(n/4) <= 1e-15: every product is resolved.
    Each kept mode's amplitude has real and imaginary parts uniform in
    [-1, 1), 53 bits each from the bytes of the stdlib's random seeded with
    _IDENTITY_SEED, so the probe is deterministic and loads no
    numpy.random.  Both operators act on one field at a time, so the
    temporaries are those of one field; the error of each field is measured
    against its |rhs|, the operator's own scale, so rounding does not grow
    with tau^2.
    """
    spec = cfg.spec()
    r = max(fourier_decay_rate(spec), 1e-3)
    n = 4 * math.ceil(math.log(1e-15) / math.log(r))
    if n * n > _IDENTITY_MAX_NODES:
        raise CapExceeded(
            f"eps = {spec.epsilon!r} needs a {n}x{n} grid for the operator "
            f"identity, more than the desk-scale cap of {_IDENTITY_MAX_NODES} nodes"
        )
    rand = random.Random(_IDENTITY_SEED)

    def draw(shape):
        bits = np.frombuffer(rand.randbytes(16 * math.prod(shape)), "<u8") >> 11
        u = bits * 2.0**-52 - 1.0
        return (u[0::2] + 1j * u[1::2]).reshape(shape)

    S, P = grid_nodes(spec, n, n)
    root_h = np.sqrt(metric_h(spec, S, P))
    pot = v_curv(spec, S, P) - cfg.vkin_offset
    err = []
    for _ in range(_IDENTITY_FIELDS):
        phi = band_limited(spec, n, n, draw)
        lhs = root_h * apply_laplace_beltrami(spec, phi / root_h) + pot * phi
        rhs = apply_transformed_operator(spec, phi)
        err.append(_l2(lhs - rhs) / _l2(rhs))
    return _check(
        "operator_identity", 1e-13, float(np.max(err)),
        grid=[n, n], fields=_IDENTITY_FIELDS,
    )


def check_continuum_oracle(cfg) -> dict:
    """continuum_levels vs collocation_levels, the spectral operator's own
    dense matrix on an odd grid, lowest 4 levels of FIG3 at k_s = -0.3."""
    probe = HelixSpec(kappa=1.0, tau=1.0, rho0=0.1)
    exact = continuum_levels(probe, [-0.3], 4)[0][0]
    reference = collocation_levels(probe, -0.3, 13, 4)
    measured = float(np.max(np.abs(exact - reference) / np.abs(exact)))
    return _check(
        "continuum_oracle", 1e-10, measured,
        grid=[13, 13], probe_k_s=-0.3, levels=4,
    )


def check_ray_selection(cfg) -> dict:
    """Multiplicative first-order term has Fourier support on one ray only."""
    spec = cfg.spec()
    n = 64
    coef = np.fft.fft2(v1_multiplicative(spec, *grid_nodes(spec, n, n))) / n**2
    ms = np.fft.fftfreq(n, 1.0 / n).astype(int)
    # the helical phase j(tau s - phi) sits at grid modes (j sgn(tau), -j)
    sgn = 1 if spec.tau > 0 else -1
    on_ray = ms[None, :] == -sgn * ms[:, None]
    off = float(np.max(np.abs(np.where(on_ray, 0.0, coef))))
    tol = 1e-12 * spec.epsilon * spec.kappa**2
    return _check("ray_selection", tol, off, grid=[n, n])


def cylinder_error(spec0: HelixSpec, n_lowest: int) -> float:
    """Straight-tube exact oracle vs the closed form cylinder_levels.

    continuum_levels at k_s = 0 against the n_lowest levels of
    cylinder_levels; returns the largest absolute error divided by the
    largest |level|, so that a level of exactly 0 (at tau = 1/(2 rho0))
    cannot inflate it.
    """
    levels = continuum_levels(spec0, [0.0], n_lowest)[0][0]
    exact = cylinder_levels(spec0, n_lowest)
    return float(np.max(np.abs(levels - exact)) / np.max(np.abs(exact)))


def check_cylinder_limit(cfg) -> dict:
    """Straight-tube spectrum vs closed form on fixed probe parameters."""
    probe = HelixSpec(kappa=0.0, tau=5.0, rho0=1.0)
    return _check(
        "cylinder_limit", 1e-12, cylinder_error(probe, 5),
        probe_tau=5.0, probe_rho0=1.0,
    )


_CHECKS = (
    check_operator_identity,
    check_continuum_oracle,
    check_ray_selection,
    check_cylinder_limit,
)


def run_verification(cfg) -> dict:
    spec = cfg.spec()
    checks = [fn(cfg) for fn in _CHECKS]
    return {
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "config": {
            "kappa": spec.kappa,
            "tau": spec.tau,
            "rho0": spec.rho0,
            "epsilon": spec.epsilon,
            "vkin_offset": cfg.vkin_offset,
        },
    }

"""Spectral oracles on dense matrices.

h and v_eff depend on (s, phi) only through the helical phase
xi = theta(s) + phi, so a plane wave exp(i(q s + n phi)) couples only to
those of the same helical momentum p = q + tau n, through the matrix

    H[n', n] = q_n' w[n' - n] q_n + (n/rho0)^2 delta + v[n' - n]

(_lattice; q_n = p - tau n, w and v the Fourier coefficients of h^-2 and
of the potential in xi).  continuum_levels feeds it the exact
coefficients (_exact_table) and solves the sectors p = k_s + M tau, the
helical reduction standard for nanotube bands; assemble_perturbed
returns it, a plain real symmetric array, fed the paper's stated
first-order table on the coupling ray (_stated_ray, whose window
n = -j descends as _lattice reads it), and perturbed_levels solves those
matrices along a k-path, one at a time on a table built once.  Each
table is gathered once per call into the Toeplitz matrices W[i, j] =
w[i - j] and V of its window (_toeplitz), which every matrix of the call
shares.  Both windows keep _n_modes(spec) modes each side, so the
truncation follows the spec and is set in one place.  cylinder_levels is
the straight tube's closed form (kappa = 0), and collocation_levels
solves the dense matrix of operators.apply_transformed_operator on an odd
n x n grid: the references verify holds continuum_levels to.  A
second-order finite-difference grid on the (s, varphi) unit cell, with
no flux along phi, stays as the test suite's independent reference,
written by one builder, _grid_blocks, as the Bloch blocks of its
discrete screw symmetry: screw_eigenvalues (not exported) solves the
stack of gcd(n_s, n_phi) blocks at once, and assemble_full is the
one-block case (the dense matrix, no screw twist), which checks the
reduction.  assemble_full returns a plain array and
eigensolve takes one; SpectrumResult stays because
perfbench/make_reference.py reads its .eigenvalues.
Everything is dense and deterministic (vectorized numpy, LAPACK
eigenvalue-only symmetric/Hermitian solvers) and capped at desk scale: a
request over a cap raises CapExceeded.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .spec import CapExceeded, ConvergenceFailure, DegeneratePeriod, HelixSpec
from .geometry import grid_nodes, metric_h
from .operators import apply_transformed_operator, spectral_offset, v_eff
from .bloch import k_components, stated_table, zone_boundary_k

_MAX_DIMENSION = 4096
# continuum_levels solves at most this many sector pairs M = +-j per k-point,
# times min(1, (64/d)**3) for windows of d modes: the d^3 work of 2**16 of 64
_MAX_SECTOR_PAIRS = 2**16


@dataclass
class SpectrumResult:
    """Ascending eigenvalues of one dense solve."""

    eigenvalues: np.ndarray


def _unit_phase(x: float) -> complex:
    """exp(i x), exactly +-1 when x is a multiple of pi."""
    r = x / math.pi
    if abs(r - round(r)) < 1e-12:
        return complex((-1.0) ** (round(r) % 2))
    return cmath.exp(1j * x)


def _check_storage(blocks: int, dim: int) -> None:
    """Desk-scale cap on stored entries: blocks * dim^2 <= _MAX_DIMENSION^2."""
    if blocks * dim * dim > _MAX_DIMENSION**2:
        raise CapExceeded(
            f"{blocks} x {dim}^2 matrix entries exceed the desk-scale cap "
            f"of {_MAX_DIMENSION}^2"
        )


def _grid_blocks(spec: HelixSpec, k, n_s: int, n_phi: int, g: int, dj: int):
    """The (g, d, d) stack of Bloch blocks of the grid operator on an
    n_s x n_phi unit cell.

    -d_s(h^-2 d_s) - d2_varphi + v_eff, second-order centered, with h^-2
    sampled at s midpoints so every block is Hermitian by construction.
    The blocks (d = n_s n_phi/g) live on the strip of the first r = n_s/g
    s-rows: node (i, j) is row i*n_phi + j, and in block mu the s hop out
    of the strip from (r-1, j) lands on (0, j - dj) times lambda_mu =
    exp(i (k_s L + 2 pi mu)/g).  g = 1, dj = 0 is the dense matrix with the
    Bloch phase on the seam.  Storage is capped at g d^2 <= _MAX_DIMENSION^2.
    """
    k_s, k_varphi = k_components(spec, k)
    if k_varphi != 0.0:
        raise ValueError(f"the grid has no flux along phi, got k_varphi = {k_varphi}")
    d, r = n_s * n_phi // g, n_s // g
    _check_storage(g, d)
    if n_s < 4 or n_phi < 4:
        raise ValueError("need at least 4 points per direction")
    ds = spec.s_period / n_s
    dv = spec.varphi_period / n_phi
    S, P = (a[:r] for a in grid_nodes(spec, n_s, n_phi))
    flux = metric_h(spec, S + 0.5 * ds, P) ** -2.0
    flux_in = np.vstack([np.roll(flux[-1], -dj)[None, :], flux[:-1]])
    diag = (flux + flux_in) / ds**2 + 2.0 / dv**2 + v_eff(spec, S, P)
    hop_s, hop_v = flux / ds**2, 1.0 / dv**2

    x = k_s * spec.s_period
    lam = np.array([_unit_phase((x + 2.0 * math.pi * mu) / g) for mu in range(g)])
    if np.all(lam.imag == 0.0):
        lam = lam.real
    idx = np.arange(d).reshape(r, n_phi)
    up = np.vstack([idx[1:], np.roll(idx[0], dj)[None, :]])
    right = np.roll(idx, -1, axis=1)

    # each statement below writes distinct entries, and coinciding entries
    # of different statements (r = 1, |dj| = 1) add up as the hops do
    phase = np.ones((g, r, n_phi), dtype=lam.dtype)
    phase[:, -1, :] = lam[:, None]
    blocks = np.zeros((g, d, d), dtype=lam.dtype)
    blocks[:, idx, idx] = diag
    blocks[:, idx, up] += phase * -hop_s
    blocks[:, up, idx] += np.conj(phase) * -hop_s
    blocks[:, idx, right] += -hop_v
    blocks[:, right, idx] += -hop_v
    return blocks


def assemble_full(spec: HelixSpec, k, n_s: int, n_phi: int) -> np.ndarray:
    """The grid operator's dense Hermitian array at Bloch k: the one block of
    _grid_blocks with g = 1 and no twist, so it checks the screw reduction."""
    return _grid_blocks(spec, k, n_s, n_phi, 1, 0)[0]


def _screw_twist(spec: HelixSpec, n_phi: int, g: int) -> int:
    """phi-node shift dj = sign(tau) n_phi/g that goes with n_s/g s-nodes.

    Shifting s by n_s/g nodes moves theta(s) by -sign(tau) 2 pi/g, which
    dj phi-nodes undo, so theta + phi and every coefficient is unchanged.
    """
    return int(math.copysign(n_phi // g, spec.tau))


def screw_eigenvalues(
    spec: HelixSpec, k, n_s: int, n_phi: int, n_lowest: int
) -> np.ndarray:
    """Lowest eigenvalues of the assemble_full grid matrix, block by block.

    The grid operator commutes with the screw shift T: (i, j) -> (i + r,
    j + dj) of _screw_twist, and T^g is the Bloch factor exp(i k_s L), so
    the matrix splits exactly into the g = gcd(n_s, n_phi) blocks of
    _grid_blocks, one per screw phase; they are built straight from the
    node coefficients, never from the dense matrix, and solved as one stack.
    """
    _check_count("n_lowest", n_lowest, n_s * n_phi)
    g = math.gcd(n_s, n_phi)
    blocks = _grid_blocks(spec, k, n_s, n_phi, g, _screw_twist(spec, n_phi, g))
    return np.sort(_dense_eigh(blocks), axis=None)[:n_lowest]


def _toeplitz(table, size: int) -> np.ndarray:
    """(W, V), W[i, j] = w[i - j] on a window of size indices: the table
    (w, v), in FFT order, gathered once for every matrix on that window."""
    d = np.subtract.outer(np.arange(size), np.arange(size))
    return np.asarray(table)[:, d]


def _lattice(spec: HelixSpec, p, ns: np.ndarray, toeplitz) -> np.ndarray:
    """H[n', n] = q_n' w[n' - n] q_n + (n/rho0)^2 delta + v[n' - n], with
    q_n = p - tau n: one matrix per entry of p, over the indices ns (last
    axis, consecutive integers up to a common offset).  toeplitz = (W, V)
    is _toeplitz's gather of a real table, as the frame's origin is fixed
    at s = 0, so H is real symmetric.  It reads n' - n as i - j, right for
    an ascending window, and for a descending one fed an even table."""
    W, V = toeplitz
    q = np.asarray(p, dtype=float)[..., None] - spec.tau * ns
    H = W * (q[..., :, None] * q[..., None, :]) + V  # symmetric to the last bit
    return H + (ns[..., None] / spec.rho0) ** 2 * np.eye(ns.shape[-1])


def _stated_ray(spec: HelixSpec):
    """The coupling ray's window as _lattice reads it, n = -j for j in
    [-n_modes, n_modes] (descending), and the _toeplitz matrices of
    stated_table, less a on the diagonal; the stated table is exactly even."""
    n = _n_modes(spec)
    _check_storage(1, 2 * n + 1)
    offsets = range(-2 * n, 2 * n + 1)
    table = np.fft.ifftshift(
        [[t.get(d, 0.0) for d in offsets] for t in stated_table(spec)], axes=-1)
    table[1, 0] -= spectral_offset(spec)
    return np.arange(n, -n - 1, -1), _toeplitz(table, 2 * n + 1)


def assemble_perturbed(spec: HelixSpec, k) -> np.ndarray:
    """Central-equation matrix on the coupling ray (_stated_ray): component j
    has q = k_s + j tau and n = rho0 k_phi - j, the ray's window shifted by
    rho0 k_phi, so all share one p, and the matrix, a real symmetric array,
    is _lattice fed the stated table."""
    ray, toeplitz = _stated_ray(spec)
    k_s, k_varphi = k_components(spec, k)
    ns = k_varphi * spec.rho0 + ray
    return _lattice(spec, k_s + spec.tau * spec.rho0 * k_varphi, ns, toeplitz)


def fourier_decay_rate(spec: HelixSpec) -> float:
    """r = eps/(1 + sqrt(1 - eps^2)): the Fourier coefficients of h^-2, and
    so of v_curv and v_eff, in the helical phase fall off as r^|d|."""
    return spec.epsilon / (1.0 + math.sqrt(1.0 - spec.epsilon**2))


def _n_modes(spec: HelixSpec) -> int:
    """Modes kept each side of a sector's centre: the levels fall off as
    r^(2 n_modes) (fourier_decay_rate), which this puts below 1e-17; at least 8."""
    r = fourier_decay_rate(spec)
    return max(8, math.ceil(math.log(1e-17) / (2.0 * math.log(max(r, 1e-3)))))


def _exact_table(spec: HelixSpec, n_modes: int):
    """The exact table (w, v) in FFT order, the FFT of h^-2 and v_eff at
    n_xi = 8 n_modes equispaced helical phases xi (s = 0, phi = xi), and
    the least v_eff sample."""
    n_xi = 8 * n_modes
    xi = np.arange(n_xi) * (2.0 * math.pi / n_xi)
    samples = metric_h(spec, 0.0, xi) ** -2.0, v_eff(spec, 0.0, xi)
    return [np.fft.fft(f).real / n_xi for f in samples], np.min(samples[1])


def continuum_levels(spec: HelixSpec, ks, n_bands: int) -> tuple[np.ndarray, dict]:
    """Lowest n_bands levels at each Bloch k_s, and what the solve took.

    Sector p = k_s + M tau is _lattice fed _exact_table, on the
    2 n_modes + 1 indices around its kinetic minimum n = p tau/(tau^2 + B).
    As h^-2 >= A = (1+eps)^-2, its levels lie above c p^2 + min v_eff with
    c = A B/(A tau^2 + B), B = rho0^-2: the pairs M = +-j are solved outward
    until the nearer one's bound is above the n_bands-th level found.  When,
    once the solved sectors (at least 3) number n_bands, that bound cannot
    stop the loop within _MAX_SECTOR_PAIRS * min(1, (64/d)**3) pairs of
    dimension d = 2 n_modes + 1 (tiny tau, or eps near 1, where min v_eff
    falls as -1/(4 rho0^2 (1 - eps)^2)), CapExceeded is raised at once.
    """
    if spec.tau == 0.0:
        raise DegeneratePeriod("tau = 0: no helical momentum sectors")
    _check_path(ks)
    _check_count("n_bands", n_bands)
    n_modes = _n_modes(spec)
    d = 2 * n_modes + 1
    _check_storage(2, d)
    table, floor = _exact_table(spec, n_modes)
    # the FFT's .real is even only to rounding: gathered on the ascending window
    toeplitz = _toeplitz(table, d)
    A, B = (1.0 + spec.epsilon) ** -2, spec.rho0**-2
    c = A * B / (A * spec.tau**2 + B)
    pairs = int(_MAX_SECTOR_PAIRS * min(1.0, (64 / d) ** 3))
    # as |k_s| <= |tau|/2, every pair beyond the cap lies above this
    far = c * ((pairs - 0.5) * spec.tau) ** 2 + floor
    rows, sectors = [], []
    for k_s in ks:
        levels = np.full(n_bands, np.inf)
        for j in itertools.count():
            p = k_s + spec.tau * np.array([-j, j] if j else [0])
            if c * np.min(p * p) + floor > levels[-1]:
                break
            centre = np.rint(p * spec.tau / (spec.tau**2 + B))
            ns = centre[:, None] + np.arange(-n_modes, n_modes + 1)
            w = _dense_eigh(_lattice(spec, p, ns, toeplitz))
            levels = np.sort(np.append(levels, w[:, :n_bands]))[:n_bands]
            # once the 2 j + 1 sectors (at least 3) number n_bands: fewer can
            # leave the n_bands-th level a transverse step too high, and the
            # count far too large
            if j and 2 * j + 1 >= n_bands and far <= levels[-1] < np.inf:
                raise CapExceeded(
                    f"kappa = {spec.kappa!r}, tau = {spec.tau!r}, rho0 = "
                    f"{spec.rho0!r} needs more than {pairs} sector pairs of "
                    f"dimension {d} per k-point, over the desk-scale cap"
                )
        rows.append(levels)
        sectors.append(2 * j - 1)
    detail = {"n_modes": n_modes, "sectors_per_kpoint": [min(sectors), max(sectors)]}
    return np.array(rows), detail


def cylinder_levels(spec: HelixSpec, n_lowest: int) -> np.ndarray:
    """The n_lowest lowest levels (m tau)^2 + (n^2 - 1/4)/rho0^2 of the
    straight tube at k_s = 0 (m tau = 2 pi m/L, L = s_period), sorted, one
    per (n, m); as a level grows with |n| and with |m|, |n|, |m| <= n_lowest
    hold them all.  The two terms can cancel (n = 0 is negative), so each
    is rounded as few times as it can be: m tau is formed directly, not
    through 2 pi/L, and squares are products, which round once (libm's pow
    can be an ulp off).  1/rho0 is squared, as verify.cylinder_error's zero
    level at tau = 1/(2 rho0) needs: rho0 = 0.1, tau = 5 gives 25 - 25."""
    if spec.kappa != 0.0:
        raise ValueError("closed cylinder spectrum requires kappa = 0")
    _check_count("n_lowest", n_lowest)
    r = range(-n_lowest, n_lowest + 1)
    inv_sq = (1.0 / spec.rho0) * (1.0 / spec.rho0)
    levels = [(m * spec.tau) * (m * spec.tau) + (n * n - 0.25) * inv_sq
              for n in r for m in r]
    return np.sort(levels)[:n_lowest]


def collocation_levels(
    spec: HelixSpec, k_s: float, n: int, n_lowest: int
) -> np.ndarray:
    """Lowest n_lowest levels at Bloch k_s of apply_transformed_operator on
    the n x n grid, as the dense matrix of its action on the n^2 unit fields.

    The Fourier derivatives are exact on the grid's modes, so the levels
    converge exponentially in n.  n must be odd: on an even grid the first
    s-derivative drops the Nyquist mode, which leaves a spurious level next
    to each low level.
    """
    if n % 2 == 0:
        raise ValueError(f"n must be odd, got {n}")
    _check_path([k_s])
    _check_storage(1, n * n)
    _check_count("n_lowest", n_lowest, n * n)
    unit = np.eye(n * n).reshape(n * n, n, n)
    columns = apply_transformed_operator(spec, unit, k_s)
    return _dense_eigh(columns.reshape(n * n, n * n).T)[:n_lowest]


def _check_path(ks) -> None:
    """Refuse an empty k-path, or a non-finite k_s on it, before any solve."""
    if len(ks) == 0:
        raise ValueError("the k-path has no points")
    for k_s in ks:
        if not math.isfinite(k_s):
            raise ValueError(f"k_s must be finite, got {k_s}")


def _check_count(name: str, value, count: float = math.inf) -> None:
    """Refuse a count, the argument called name, that is not an integer in
    [1, count]."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 1 <= value <= count:
        bound = "at least 1" if count == math.inf else f"in [1, {count}]"
        raise ValueError(f"{name} must be {bound}, got {value}")


def _dense_eigh(entries: np.ndarray) -> np.ndarray:
    """LAPACK eigvalsh of one Hermitian matrix or a stack of them, all
    eigenvalues ascending; a non-finite entry or eigenvalue, or a LAPACK
    failure, raises ConvergenceFailure.  Callers check their own counts."""
    # eigvalsh([[nan, 0], [0, 1]]) returns [0, -0]: finite, and wrong
    if not np.all(np.isfinite(entries)):
        raise ConvergenceFailure("eigensolve given a non-finite matrix entry")
    try:
        w = np.linalg.eigvalsh(entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"dense eigensolve failed: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise ConvergenceFailure("eigensolve produced non-finite eigenvalues")
    return w


def eigensolve(H: np.ndarray, n_lowest: int) -> SpectrumResult:
    """Lowest n_lowest eigenvalues of the Hermitian array H, one dense solve."""
    _check_count("n_lowest", n_lowest, H.shape[-1])
    return SpectrumResult(_dense_eigh(H)[:n_lowest])


# --------------------------------------------------------------------------
# stated-table levels


def perturbed_levels(spec: HelixSpec, ks, n_bands: int) -> np.ndarray:
    """Lowest n_bands levels of the assemble_perturbed matrix at each Bloch
    k_s (k_varphi = 0): the stated table is built once, and the path's
    matrices are solved one at a time."""
    _check_path(ks)
    ray, toeplitz = _stated_ray(spec)
    _check_count("n_bands", n_bands, len(ray))
    return np.array([_dense_eigh(_lattice(spec, k_s, ray, toeplitz))[:n_bands]
                     for k_s in ks])


def gap_perturbed(spec: HelixSpec) -> float:
    """Splitting of the lowest pair at the crossing point -K1/2 of the ray.

    The crossing sits at half-integer transverse wavenumber, so this is
    evaluated on the continuous ray rather than at an integer-n BlochVector.
    """
    kb = tuple(zone_boundary_k(spec))
    e = _dense_eigh(assemble_perturbed(spec, kb))
    return float(e[1] - e[0])

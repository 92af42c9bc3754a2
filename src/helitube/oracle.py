"""Brute-force spectral verification on dense matrices.

Two independent discretizations of the transformed surface problem:

* a second-order flux-form finite-difference operator on the (s, varphi)
  grid of one unit cell, with the Bloch phase applied on stencil entries
  that cross the s seam and plain periodicity across the compact varphi
  seam (a formal transverse Bloch index n would only contribute the
  trivial phase e^{i 2 pi n});
* the plane-wave basis restricted to the coupling ray, which is the
  analytic treatment's own matrix form and serves as its direct check.

The s cell is the minimal period 2 pi/|tau|.  Band structure computed on
any multiple of the cell folds onto the same spectrum, so nothing is lost
by the minimal choice.

Every coefficient of the grid operator depends on (s, phi) only through
theta(s) + phi, so the grid matrix commutes with a discrete screw shift
and splits into gcd(n_s, n_phi) independent blocks (screw_eigenvalues).
assemble_full keeps the dense matrix as the reference.

Everything here is dense and deterministic: assembly is vectorized numpy,
eigensolves use the LAPACK symmetric/Hermitian drivers, and matrices are
capped at desk scale.
"""

from __future__ import annotations

import cmath
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import HelixSpec, grid_nodes, metric_h
from .operators import effective_params, v_eff
from .bloch import (
    K1,
    SOURCE_TAGS,
    BandStructure,
    ReciprocalVector,
    first_order_energies,
    k_components,
    ray_amplitude,
    two_band_energies,
    zone_boundary_k,
)

GRID_2D = "GRID_2D"
PLANE_WAVE_RAY = "PLANE_WAVE_RAY"

DEFAULT_MAX_DIMENSION = 4096


class ConvergenceFailure(RuntimeError):
    """Eigensolver failed to meet the residual target."""


@dataclass
class DiscretizedHamiltonian:
    """Dense Hermitian matrix plus the basis it is written in."""

    entries: np.ndarray
    basis: str
    transverse_n: int | None = None  # always None; perfbench/tracer.py reads it

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


@dataclass
class SpectrumResult:
    """Ascending eigenvalues with optional vectors and their residuals."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    residual_norms: np.ndarray | None = None


def _unit_phase(x: float) -> complex:
    """exp(i x), exactly +-1 when x is a multiple of pi."""
    r = x / math.pi
    if abs(r - round(r)) < 1e-12:
        return complex((-1.0) ** (round(r) % 2))
    return cmath.exp(1j * x)


def _check_storage(blocks: int, dim: int) -> None:
    """Desk-scale cap on stored entries: blocks * dim^2 <= DEFAULT_MAX_DIMENSION^2."""
    if blocks * dim * dim > DEFAULT_MAX_DIMENSION**2:
        raise ValueError(
            f"{blocks} x {dim}^2 matrix entries exceed the desk-scale cap "
            f"of {DEFAULT_MAX_DIMENSION}^2"
        )


def assemble_full(spec: HelixSpec, k, n_s: int, n_phi: int) -> DiscretizedHamiltonian:
    """Flux-form finite differences for the full transformed operator.

    -d_s(h^-2 d_s) - d2_varphi + v_eff on the unit cell, second-order
    centered, with h^-2 sampled at s midpoints so the matrix is Hermitian
    by construction.
    """
    if n_s < 4 or n_phi < 4:
        raise ValueError("need at least 4 points per direction")
    dim = n_s * n_phi
    _check_storage(1, dim)
    ds = spec.s_period / n_s
    dv = spec.varphi_period / n_phi
    S, P = grid_nodes(spec, n_s, n_phi)
    pot = v_eff(spec, S, P)
    flux = metric_h(spec, S + 0.5 * ds, P) ** -2.0

    phase = _unit_phase(k_components(spec, k)[0] * spec.s_period)
    dtype = np.float64 if phase.imag == 0.0 else np.complex128
    ph = phase.real if dtype == np.float64 else phase

    idx = np.arange(n_s)[:, None] * n_phi + np.arange(n_phi)[None, :]
    H = np.zeros((dim, dim), dtype=dtype)
    diag = (flux + np.roll(flux, 1, axis=0)) / ds**2 + 2.0 / dv**2 + pot
    H[idx.ravel(), idx.ravel()] = diag.ravel()

    hop_s = -(flux / ds**2).astype(dtype)
    hop_s[-1, :] *= ph
    cols_s = np.roll(idx, -1, axis=0)
    H[idx.ravel(), cols_s.ravel()] = hop_s.ravel()
    H[cols_s.ravel(), idx.ravel()] = np.conj(hop_s).ravel()

    hop_v = -1.0 / dv**2
    cols_v = np.roll(idx, -1, axis=1)
    H[idx.ravel(), cols_v.ravel()] = hop_v
    H[cols_v.ravel(), idx.ravel()] = hop_v
    return DiscretizedHamiltonian(H, GRID_2D)


def screw_blocks(n_s: int, n_phi: int) -> tuple[int, int]:
    """(g, d): the n_s x n_phi grid matrix splits into g = gcd(n_s, n_phi)
    screw blocks of dimension d = n_s n_phi/g."""
    g = math.gcd(n_s, n_phi)
    return g, n_s * n_phi // g


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
    the matrix splits exactly into one block per screw phase
    lambda_mu = exp(i (k_s L + 2 pi mu)/g), mu = 0..g-1.  Each block lives
    on an r x n_phi strip of nodes; its s hop out of the strip from
    (r-1, j) lands on (0, j - dj) times lambda_mu.  The blocks are built
    straight from the node coefficients, never from the dense matrix, and
    solved in one stacked eigvalsh.  Storage is capped as for the dense
    matrix: g d^2 <= DEFAULT_MAX_DIMENSION^2 with d = n_s n_phi/g.
    """
    if n_s < 4 or n_phi < 4:
        raise ValueError("need at least 4 points per direction")
    g, d = screw_blocks(n_s, n_phi)
    r, dj = n_s // g, _screw_twist(spec, n_phi, g)
    _check_storage(g, d)
    ds = spec.s_period / n_s
    dv = spec.varphi_period / n_phi
    S, P = (a[:r] for a in grid_nodes(spec, n_s, n_phi))
    pot = v_eff(spec, S, P)
    flux = metric_h(spec, S + 0.5 * ds, P) ** -2.0
    # the bond into row 0 comes from row -1, the screw image of (r-1, j+dj)
    flux_in = np.vstack([np.roll(flux[-1], -dj)[None, :], flux[:-1]])
    diag = (flux + flux_in) / ds**2 + 2.0 / dv**2 + pot

    x = k_components(spec, k)[0] * spec.s_period
    lam = np.array([_unit_phase((x + 2.0 * math.pi * mu) / g) for mu in range(g)])
    if np.all(lam.imag == 0.0):
        lam = lam.real
    dtype = lam.dtype

    # strip node (i, j) is row i*n_phi + j of every block; each statement
    # below writes distinct entries, and coinciding entries of different
    # statements (r = 1, |dj| = 1) add up as in the dense matrix
    idx = np.arange(d).reshape(r, n_phi)
    up = np.vstack([idx[1:], np.roll(idx[0], dj)[None, :]])
    phase = np.ones((g, r, n_phi), dtype=dtype)
    phase[:, -1, :] = lam[:, None]
    hop_s = -flux / ds**2
    blocks = np.zeros((g, d, d), dtype=dtype)
    blocks[:, idx, idx] = diag
    blocks[:, idx, up] += phase * hop_s
    blocks[:, up, idx] += np.conj(phase) * hop_s
    right = np.roll(idx, -1, axis=1)
    blocks[:, idx, right] += -1.0 / dv**2
    blocks[:, right, idx] += -1.0 / dv**2
    w, _ = _dense_eigh(blocks, n_lowest)
    return np.sort(w, axis=None)[:n_lowest]


def assemble_perturbed(
    spec: HelixSpec, k, n_harmonics: int
) -> DiscretizedHamiltonian:
    """Central-equation matrix on the coupling ray, j in [-n, n].

    Diagonal entries are the a-shifted free energies plus the constant
    harmonic; off-diagonals are ray amplitudes evaluated at the source
    component's own longitudinal wavenumber, so the matrix is Hermitian.
    """
    if n_harmonics < 3:
        raise ValueError("need n_harmonics >= 3 to cover all couplings")
    _check_storage(1, 2 * n_harmonics + 1)
    kv = k_components(spec, k)
    a = effective_params(spec).a
    js = np.arange(-n_harmonics, n_harmonics + 1)
    q = kv[0] + js * spec.tau
    free = q**2 + (kv[1] - js / spec.rho0) ** 2 - a
    shift = spec.epsilon * spec.kappa**2 / 4
    dtype = np.float64 if spec.s0 == 0.0 else np.complex128
    dim = js.size
    H = np.zeros((dim, dim), dtype=dtype)
    H[np.arange(dim), np.arange(dim)] = free + shift
    for dj in (1, 2, 3):
        for col in range(dim - dj):
            amp = ray_amplitude(spec, dj, q[col])
            if dtype == np.float64:
                amp = amp.real if isinstance(amp, complex) else amp
            H[col + dj, col] = amp
            H[col, col + dj] = np.conj(amp)
    return DiscretizedHamiltonian(H, PLANE_WAVE_RAY)


def _dense_eigh(entries: np.ndarray, n_lowest: int, with_vectors: bool = False):
    """LAPACK eigh/eigvalsh of one Hermitian matrix or a stack of them.

    n_lowest is checked against the total count of eigenvalues; a LAPACK
    failure or a non-finite eigenvalue raises ConvergenceFailure.
    """
    count = entries.size // entries.shape[-1]
    if not 1 <= n_lowest <= count:
        raise ValueError(f"n_lowest must be in [1, {count}], got {n_lowest}")
    try:
        if with_vectors:
            w, v = np.linalg.eigh(entries)
        else:
            w, v = np.linalg.eigvalsh(entries), None
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"dense eigensolve failed: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise ConvergenceFailure("eigensolve produced non-finite eigenvalues")
    return w, v


def eigensolve(
    H: DiscretizedHamiltonian, n_lowest: int, with_vectors: bool = False
) -> SpectrumResult:
    """Lowest eigenvalues of a Hermitian matrix, deterministic dense solve."""
    w, v = _dense_eigh(H.entries, n_lowest, with_vectors)
    w = w[:n_lowest]
    if v is None:
        return SpectrumResult(eigenvalues=w)
    v = v[:, :n_lowest]
    scale = float(np.linalg.norm(H.entries))
    residuals = np.linalg.norm(H.entries @ v - v * w[None, :], axis=0)
    if np.any(residuals > 1e-9 * scale):
        raise ConvergenceFailure(
            f"worst residual {residuals.max():.3e} exceeds 1e-9*|H| = {1e-9 * scale:.3e}"
        )
    return SpectrumResult(eigenvalues=w, eigenvectors=v, residual_norms=residuals)


# --------------------------------------------------------------------------
# band sweeps


def _sweep_one(spec, k, source, n_bands, n_s, n_phi, n_harmonics):
    if source == "TWO_BAND":
        return np.asarray(two_band_energies(spec, k))[:n_bands]
    if source == "FIRST_ORDER":
        return first_order_energies(spec, k, n_bands)
    if source == "ORACLE_PERTURBED":
        H = assemble_perturbed(spec, k, n_harmonics)
        return eigensolve(H, n_bands).eigenvalues
    return screw_eigenvalues(spec, k, n_s, n_phi, n_bands)


def thread_count() -> int:
    """Worker threads for band_sweep: HELITUBE_THREADS, default 1.

    Raises ValueError unless the variable holds an integer >= 1.
    """
    raw = os.environ.get("HELITUBE_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"HELITUBE_THREADS must be an integer >= 1, got {raw!r}")
    return int(raw)


def band_sweep(
    spec: HelixSpec,
    kpath,
    source: str,
    n_bands: int = 2,
    n_s: int = 64,
    n_phi: int = 64,
    n_harmonics: int = 7,
) -> BandStructure:
    """Lowest bands along a k-path with the requested method.

    k-point evaluations are independent; HELITUBE_THREADS > 1 runs them in
    a thread pool (the dense solver releases the interpreter lock).
    Output follows the input path order either way.
    """
    if source not in SOURCE_TAGS:
        raise ValueError(f"unknown source tag {source!r}")
    if source == "TWO_BAND" and n_bands > 2:
        raise ValueError("the two-band model has exactly 2 bands")
    half = abs(spec.tau) / 2
    for k in kpath:
        k_s = k_components(spec, k)[0]
        if abs(k_s) > half * (1 + 1e-12):
            raise ValueError(f"k_s = {k_s} outside the first zone")

    def run(k):
        return _sweep_one(spec, k, source, n_bands, n_s, n_phi, n_harmonics)

    workers = thread_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run, kpath))
    else:
        rows = [run(k) for k in kpath]
    return BandStructure(list(kpath), np.vstack(rows), source)


def gap_perturbed(
    spec: HelixSpec, m: ReciprocalVector = K1, n_harmonics: int = 7
) -> float:
    """Splitting of the lowest pair at the crossing point -K_m/2 of the ray.

    The crossing sits at half-integer transverse wavenumber, so this is
    evaluated on the continuous ray rather than at an integer-n BlochVector.
    """
    kb = tuple(zone_boundary_k(spec, m))
    e = eigensolve(assemble_perturbed(spec, kb, n_harmonics), 2).eigenvalues
    return float(e[1] - e[0])

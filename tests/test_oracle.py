"""Grid, helical-momentum and ray-basis eigensolvers: assembly and spectra."""

import cmath
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helitube import oracle as oracle_module
from helitube import verify
from helitube.bloch import (
    BlochVector,
    NearResonance,
    first_order_energies,
    ray_amplitude,
    two_band_energies,
    two_band_gap,
    zone_boundary_k,
)
from helitube.cli import RunConfig
from helitube.geometry import grid_nodes, metric_h, v_curv
from helitube.operators import spectral_offset, v_eff
from helitube.oracle import (
    SpectrumResult,
    assemble_full,
    assemble_perturbed,
    collocation_levels,
    continuum_levels,
    cylinder_levels,
    eigensolve,
    fourier_decay_rate,
    gap_perturbed,
    perturbed_levels,
    screw_eigenvalues,
)
from helitube.spec import CapExceeded, ConvergenceFailure, DegeneratePeriod, HelixSpec

FIG3 = HelixSpec(kappa=1.0, tau=1.0, rho0=0.1)


# ----------------------------------------------------------------- assembly


def test_full_matrix_hermitian():
    A = assemble_full(FIG3, BlochVector(0.3, 0), 16, 12)
    assert A.shape[0] == 16 * 12
    asym = np.linalg.norm(A - A.conj().T) / np.linalg.norm(A)
    assert asym <= 1e-12


@pytest.mark.parametrize("grid", [(5, 4), (6, 6)])
@pytest.mark.parametrize("tau", [1.3, -1.3])
@pytest.mark.parametrize("k_frac", [0.0, -0.5, 0.3])
def test_full_matrix_entries_from_plain_loops(grid, tau, k_frac):
    # 5-point flux form node by node: h^-2 at the s midpoint between rows
    # i and i+1, the Bloch phase on the bond across the seam; the zone
    # centre and boundary give a real matrix, the interior a complex one
    spec = HelixSpec(kappa=2.0, tau=tau, rho0=0.3)
    n_s, n_phi = grid
    k_s = k_frac * abs(tau)
    ds, dv = spec.s_period / n_s, spec.varphi_period / n_phi
    S, P = grid_nodes(spec, n_s, n_phi)
    f = metric_h(spec, S + 0.5 * ds, P) ** -2.0
    v = v_eff(spec, S, P)
    seam = {0.0: 1.0, -0.5: -1.0}.get(k_frac, cmath.exp(1j * k_s * spec.s_period))
    want = np.zeros((n_s * n_phi, n_s * n_phi), dtype=complex)
    for i in range(n_s):
        for j in range(n_phi):
            node = i * n_phi + j
            want[node, node] = (f[i, j] + f[i - 1, j]) / ds**2 + 2.0 / dv**2 + v[i, j]
            up = (i + 1) % n_s * n_phi + j
            want[node, up] = -f[i, j] / ds**2 * (seam if i == n_s - 1 else 1.0)
            want[up, node] = np.conj(want[node, up])
            right = i * n_phi + (j + 1) % n_phi
            want[node, right] = want[right, node] = -1.0 / dv**2
    got = assemble_full(spec, BlochVector(k_s, 0), n_s, n_phi)
    assert got.dtype == (np.complex128 if k_frac == 0.3 else np.float64)
    assert np.array_equal(got, want)


def test_full_matrix_real_at_zone_center_and_boundary():
    for k_s in (0.0, -0.5 * FIG3.tau):
        A = assemble_full(FIG3, BlochVector(k_s, 0), 8, 8)
        assert A.dtype == np.float64


def test_full_dimension_guard():
    with pytest.raises(ValueError):
        assemble_full(FIG3, BlochVector(0.0, 0), 96, 48)
    with pytest.raises(ValueError):
        assemble_full(FIG3, BlochVector(0.0, 0), 2, 8)


def test_full_cylinder_discrete_dispersion_exact():
    # kappa = 0 separates; every eigenvalue is a sum of 1-d stencil symbols
    spec = HelixSpec(kappa=0.0, tau=1.0, rho0=0.5)
    n_s, n_phi, k_s = 16, 12, 0.3
    got = np.linalg.eigvalsh(assemble_full(spec, BlochVector(k_s, 0), n_s, n_phi))
    ds = spec.s_period / n_s
    dv = spec.varphi_period / n_phi
    symbols = []
    for m in range(n_s):
        q = k_s + m * (2 * np.pi / spec.s_period)
        e_s = (2 - 2 * np.cos(q * ds)) / ds**2
        for n in range(n_phi):
            e_v = (2 - 2 * np.cos(2 * np.pi * n / n_phi)) / dv**2
            symbols.append(e_s + e_v - 0.25 / spec.rho0**2)
    want = np.sort(symbols)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def test_full_cylinder_lowest_modes_quick():
    # rho0 = 1, tau = 5 pushes longitudinal modes far above |n| <= 3
    spec = HelixSpec(kappa=0.0, tau=5.0, rho0=1.0)
    exact = cylinder_levels(spec, 7)
    levels = {}
    for g in (16, 32):
        H = assemble_full(spec, BlochVector(0.0, 0), g, g)
        levels[g] = eigensolve(H, 7).eigenvalues
    richardson = (4 * levels[32] - levels[16]) / 3
    # one extrapolation level leaves an O(dv^4) remainder, ~1.3e-3 on |n| = 3
    np.testing.assert_allclose(richardson, exact, rtol=2e-3)
    np.testing.assert_allclose(richardson[:5], exact[:5], rtol=1e-3)
    # the n = 0 mode is a grid eigenvector, so it is exact before extrapolation
    assert levels[16][0] == pytest.approx(-0.25, abs=1e-12)


def test_full_refinement_order():
    # kappa != tau keeps the leading harmonic alive so the s error is visible;
    # two-sided, so an order far too high fails as well (measured 2.00007)
    spec = HelixSpec(kappa=0.1, tau=1.0, rho0=0.5)
    k = BlochVector(0.0, 0)
    lowest = {}
    for n_s in (32, 64, 128):
        lowest[n_s] = screw_eigenvalues(spec, k, n_s, 24, 1)[0]
    d1 = abs(lowest[32] - lowest[64])
    d2 = abs(lowest[64] - lowest[128])
    order = math.log2(d1 / d2)
    print(f"observed refinement order: {order:.3f}")
    assert abs(order - 2) <= 0.1


def test_refinement_probe_blocks_match_the_dense_level():
    # the refinement probe on its coarsest grid: the 8 screw blocks of 96
    # against the dense 768^2 matrix (measured 2.8e-13 of |E|)
    spec = HelixSpec(kappa=0.1, tau=1.0, rho0=0.5)
    k = BlochVector(0.0, 0)
    blocks = screw_eigenvalues(spec, k, 32, 24, 1)[0]
    dense = eigensolve(assemble_full(spec, k, 32, 24), 1).eigenvalues[0]
    assert abs(blocks - dense) <= 1e-12 * abs(dense)


def test_verify_solves_no_large_dense_matrix(monkeypatch):
    # the largest dense solve is continuum_oracle's 13x13 collocation matrix
    dims = []
    right = np.linalg.eigvalsh

    def recording(a):
        dims.append(a.shape[-1])
        return right(a)

    monkeypatch.setattr(oracle_module.np.linalg, "eigvalsh", recording)
    assert verify.run_verification(RunConfig())["passed"] is True
    assert max(dims) == 13 * 13


def test_full_time_reversal_pair():
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=0.1)
    k_s = 0.37 * spec.tau
    up = screw_eigenvalues(spec, BlochVector(k_s, 0), 32, 24, 6)
    dn = screw_eigenvalues(spec, BlochVector(-k_s, 0), 32, 24, 6)
    np.testing.assert_allclose(up, dn, atol=1e-9)


# ------------------------------------------------------------ screw blocks


def _dense_spectrum(spec, k, n_s, n_phi):
    return np.linalg.eigvalsh(assemble_full(spec, BlochVector(k, 0), n_s, n_phi))


@st.composite
def _grids(draw):
    """(n_s, n_phi) in 4..24 with gcd 1, gcd n_s, or strictly between."""
    kind = draw(st.sampled_from(("coprime", "gcd_is_n_s", "gcd_between")))
    if kind == "coprime":
        n_s = draw(st.integers(4, 24))
        n_phi = draw(st.integers(4, 24).filter(lambda m: math.gcd(m, n_s) == 1))
    elif kind == "gcd_is_n_s":
        n_s = draw(st.integers(4, 12))
        n_phi = n_s * draw(st.integers(1, 24 // n_s))
    else:
        composite = [n for n in range(4, 25) if any(n % p == 0 for p in range(2, n))]
        n_s = draw(st.sampled_from(composite))
        n_phi = draw(st.integers(4, 24).filter(lambda m: 1 < math.gcd(m, n_s) < n_s))
    return n_s, n_phi


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(
    rho0=st.floats(0.05, 1.5),
    eps=st.one_of(st.just(0.0), st.floats(0.0, 0.9, exclude_max=True)),
    tau=st.floats(0.3, 3.0),
    sign=st.sampled_from((1.0, -1.0)),
    k_frac=st.floats(-1.0, 1.0),
    grid=_grids(),
)
def test_screw_blocks_match_dense_spectrum(rho0, eps, tau, sign, k_frac, grid):
    spec = HelixSpec(kappa=eps / rho0, tau=sign * tau, rho0=rho0)
    k = k_frac * tau / 2
    n_s, n_phi = grid
    dense = _dense_spectrum(spec, k, n_s, n_phi)
    blocks = screw_eigenvalues(spec, BlochVector(k, 0), n_s, n_phi, n_s * n_phi)
    assert np.max(np.abs(blocks - dense)) <= 1e-10 * np.max(np.abs(dense))


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(
    rho0=st.floats(0.05, 1.5),
    eps=st.one_of(st.just(0.0), st.floats(0.0, 0.9, exclude_max=True)),
    tau=st.floats(0.3, 3.0),
    sign=st.sampled_from((1.0, -1.0)),
    k_frac=st.sampled_from((0.0, 0.37, -1.0, 2.0, 2.74)),
    grid=_grids(),
)
@example(rho0=0.3, eps=0.0, tau=1.3, sign=1.0, k_frac=0.0, grid=(7, 5))
@example(rho0=0.3, eps=0.6, tau=1.3, sign=-1.0, k_frac=0.0, grid=(12, 8))
@example(rho0=0.3, eps=0.6, tau=1.3, sign=1.0, k_frac=0.0, grid=(6, 12))
@example(rho0=0.3, eps=0.6, tau=1.3, sign=-1.0, k_frac=0.0, grid=(4, 4))
@example(rho0=0.5, eps=0.05, tau=1.0, sign=1.0, k_frac=2.0, grid=(32, 24))
@example(rho0=0.5, eps=0.05, tau=1.0, sign=-1.0, k_frac=2.0, grid=(32, 24))
def test_screw_ground_state_matches_every_block(rho0, eps, tau, sign, k_frac, grid):
    # the lowest level alone is that of the full solve and of the dense
    # matrix, at k_s = 0, at a generic k_s, at the zone boundary and outside
    # the first zone.  At k_s = tau the Bloch phase is 1 but block 0's screw
    # phase is not, and block 0 alone misses the lowest level.
    spec = HelixSpec(kappa=eps / rho0, tau=sign * tau, rho0=rho0)
    k = BlochVector(k_frac * tau / 2, 0)
    n_s, n_phi = grid
    dense = _dense_spectrum(spec, k.k_s, n_s, n_phi)
    every = screw_eigenvalues(spec, k, n_s, n_phi, n_s * n_phi)
    lowest = screw_eigenvalues(spec, k, n_s, n_phi, 1)
    assert lowest.shape == (1,)
    scale = np.max(np.abs(dense))
    assert abs(lowest[0] - dense[0]) <= 1e-10 * scale
    assert abs(lowest[0] - every[0]) <= 1e-10 * scale


@pytest.mark.parametrize(
    "spec, grid, k_s",
    [
        (HelixSpec(kappa=0.1, tau=1.0, rho0=0.5), (32, 24), 0.0),  # refinement probe
        (HelixSpec(kappa=1.0, tau=-1.0, rho0=0.1), (12, 8), 0.0),
        (HelixSpec(kappa=2.0, tau=1.3, rho0=0.3), (12, 8), 0.2),
    ],
    ids=["probe", "mirror", "generic_k"],
)
def test_screw_spectrum_is_missed_with_a_wrong_twist(monkeypatch, spec, grid, k_s):
    # negative control: the screw shift with the twist reversed, or with
    # none, does not commute with the grid operator, so its blocks miss the
    # dense spectrum (measured 2.4e-5 to 0.15 of the largest level; the
    # right twist 2.4e-15).  eps > 0: at kappa = 0 the twist does not matter
    n_s, n_phi = grid
    k = BlochVector(k_s, 0)
    dense = _dense_spectrum(spec, k_s, n_s, n_phi)
    scale = np.max(np.abs(dense))
    right = oracle_module._screw_twist

    def miss():
        got = screw_eigenvalues(spec, k, n_s, n_phi, n_s * n_phi)
        return np.max(np.abs(got - dense)) / scale

    assert miss() <= 1e-10
    for wrong in (lambda spec, n_phi, g: -right(spec, n_phi, g), lambda *_: 0):
        monkeypatch.setattr(oracle_module, "_screw_twist", wrong)
        assert miss() > 1e-5


def test_screw_lowest_levels_and_real_blocks():
    # gcd 2 at the zone centre gives phases +1 and -1: both blocks are real
    spec = HelixSpec(kappa=1.0, tau=-1.0, rho0=0.1)
    want = _dense_spectrum(spec, 0.0, 10, 8)[:5]
    got = screw_eigenvalues(spec, (0.0, 0.0), 10, 8, 5)
    assert got.shape == (5,) and got.dtype == np.float64
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_screw_guards():
    # 67x64 is coprime: one block of 4288^2 entries, more than 4096^2
    for n_lowest in (2, 1):
        with pytest.raises(CapExceeded, match="cap"):
            screw_eigenvalues(FIG3, BlochVector(0.0, 0), 67, 64, n_lowest)
    # 256 blocks of 256 fill the cap exactly, 257 of 257 exceed it; the
    # boundary is checked on the count alone, as a stack at the cap holds
    # 268 MB of complex entries
    oracle_module._check_storage(256, 256)
    with pytest.raises(CapExceeded, match="cap"):
        oracle_module._check_storage(257, 257)
    with pytest.raises(CapExceeded, match="cap"):
        screw_eigenvalues(FIG3, BlochVector(0.0, 0), 257, 257, 1)
    with pytest.raises(ValueError):
        screw_eigenvalues(FIG3, BlochVector(0.0, 0), 2, 8, 1)
    with pytest.raises(ValueError):
        screw_eigenvalues(FIG3, BlochVector(0.0, 0), 8, 8, 65)
    with pytest.raises(ValueError):
        screw_eigenvalues(FIG3, BlochVector(0.0, 0), 8, 8, 0)


def test_dense_matrix_uses_no_screw_twist(monkeypatch):
    # the dense matrix is the one-block case, the reference the twist is
    # checked against, so it must not depend on the twist
    want = assemble_full(FIG3, BlochVector(-0.3, 0), 16, 12)

    def broken(spec, n_phi, g):
        raise AssertionError("assemble_full asked for the screw twist")

    monkeypatch.setattr(oracle_module, "_screw_twist", broken)
    got = assemble_full(FIG3, BlochVector(-0.3, 0), 16, 12)
    assert np.array_equal(got, want)


# ------------------------------------------------------- continuum oracle

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench/reference/fig3_bands.csv"


def _richardson(spec, k_s, n_lowest, grids=(32, 64)):
    """(4 E_fine - E_coarse)/3 on the screw-block grid: the independent 2-d route."""
    k = BlochVector(k_s, 0)
    coarse, fine = (screw_eigenvalues(spec, k, n, n, n_lowest) for n in grids)
    return (4.0 * fine - coarse) / 3.0


def _continuum(spec, k_s, n_bands=4):
    return continuum_levels(spec, [k_s], n_bands)[0][0]


def test_continuum_matches_the_fig3_reference_table():
    ref = np.loadtxt(REFERENCE, delimiter=",", skiprows=1)
    got = continuum_levels(FIG3, ref[:, 1], 2)[0]
    # the table is Richardson 16^2/32^2; the exact levels sit 6.9e-7 from it
    assert np.max(np.abs(got - ref[:, 2:4]) / np.abs(ref[:, 2:4])) <= 1e-6


def test_continuum_matches_the_grid_on_a_mirror_helix():
    spec = HelixSpec(kappa=1.3, tau=-0.8, rho0=0.3)
    exact, rich = _continuum(spec, 0.27), _richardson(spec, 0.27, 4)
    # measured 1.1e-5, at the 4th level (the lowest three 3e-9 to 1.8e-6):
    # what the grid's O(h^4) remainder leaves at 32/64
    assert np.max(np.abs(exact - rich) / np.abs(exact)) <= 5e-5


@settings(max_examples=30, deadline=None)
@given(
    rho0=st.floats(0.05, 1.0),
    eps=st.floats(0.0, 0.5),
    tau=st.floats(0.5, 2.0),
    sign=st.sampled_from((1.0, -1.0)),
    k_frac=st.floats(-1.0, 1.0),
)
@example(rho0=1 / 3, eps=0.5, tau=1.93359375, sign=1.0, k_frac=0.5)
@example(rho0=0.2804237294512709, eps=0.15625, tau=1.958984375, sign=1.0,
         k_frac=0.30078125)
def test_continuum_matches_the_grid_richardson_limit(rho0, eps, tau, sign, k_frac):
    spec = HelixSpec(kappa=eps / rho0, tau=sign * tau, rho0=rho0)
    k_s = k_frac * tau / 2
    # on 64/128: coarser grids are not yet in their h^2 regime for every
    # level.  At the first example (k_s = tau/4) the 4th level misses by
    # 8.1e-4 on 32/64, 4.7e-5 on 48/96 and 1.6e-7 on 64/128; at the second
    # by 2.1e-3, 6.5e-4 (over the bound), 6.6e-5 and, on 96/192, 1.7e-8;
    # worst of 250 uniform draws on 64/128 1.4e-6
    exact, rich = _continuum(spec, k_s), _richardson(spec, k_s, 4, (64, 128))
    assert np.max(np.abs(exact - rich)) <= 5e-4 * np.max(np.abs(exact))


@settings(max_examples=30, deadline=None)
@given(
    rho0=st.floats(0.05, 1.0),
    eps=st.floats(0.0, 0.9),
    tau=st.floats(0.3, 3.0),
    k_frac=st.floats(-1.0, 1.0),
)
def test_continuum_symmetries(rho0, eps, tau, k_frac):
    # mirror helix and time reversal: one spectrum
    def levels(tau, k_frac):
        spec = HelixSpec(kappa=eps / rho0, tau=tau, rho0=rho0)
        return _continuum(spec, k_frac * tau / 2)

    base = levels(tau, k_frac)
    # rounding only: the worst of 400 seeded draws was 1.5e-12 of the
    # largest level, at eps near 0.9 where n_modes and |H| are largest
    scale = np.max(np.abs(base))
    for other in (levels(-tau, k_frac), levels(tau, -k_frac)):
        assert np.max(np.abs(other - base)) <= 1e-11 * scale


# The closed tube has no spectral gap: the helical momentum p is conserved,
# so the exact bands are one dispersion E_m(p) folded into the zone, and at
# k_s = -tau/2 the sectors p = -tau/2 and p = tau/2 hold one level each.
# The paper's two-band gap is a splitting of its first-order model only.
_CLOSED_TUBES = [
    FIG3,
    HelixSpec(kappa=1.0, tau=0.5, rho0=0.05),
    HelixSpec(kappa=9.0, tau=1.0, rho0=0.1),  # eps = 0.9
    HelixSpec(kappa=1.0, tau=-1.3, rho0=0.3),
]
_CLOSED_IDS = ["fig3", "thin", "eps0.9", "mirror"]


@pytest.mark.parametrize("spec", _CLOSED_TUBES, ids=_CLOSED_IDS)
def test_exact_lowest_pair_is_degenerate_at_the_zone_edge(spec):
    pair = _continuum(spec, -spec.tau / 2, 2)
    # measured 2.3e-14 to 1.4e-13 of |E|: rounding
    assert pair[1] - pair[0] <= 1e-11 * np.max(np.abs(pair))


@pytest.mark.parametrize("spec", _CLOSED_TUBES, ids=_CLOSED_IDS)
def test_stated_splitting_fails_the_zone_edge_degeneracy(spec):
    # negative control: the paper's ray matrix splits the same pair by
    # 9.4e-5 |E| (thin) to 6.4e-2 |E| (mirror), millions of times the bound
    pair = _continuum(spec, -spec.tau / 2, 2)
    assert gap_perturbed(spec) >= 5e-5 * np.max(np.abs(pair))


def _band_overlaps(levels):
    """max_k E_m - min_k E_(m+1) for each adjacent pair of folded bands
    (rows are k-points), relative to the largest |E|: >= 0 where they touch."""
    return (levels[:, :-1].max(axis=0) - levels[:, 1:].min(axis=0)) / np.max(
        np.abs(levels)
    )


@pytest.mark.parametrize("spec", _CLOSED_TUBES, ids=_CLOSED_IDS)
def test_folded_exact_bands_touch(spec):
    # every p lies in one sector, so the folded bands tile [E_min, inf): each
    # band reaches the next one (measured >= -9.8e-14: rounding)
    ks = np.linspace(0.0, -abs(spec.tau) / 2, 41)
    levels = continuum_levels(spec, ks, 6)[0]
    assert np.min(_band_overlaps(levels)) >= -1e-11


@pytest.mark.parametrize("spec", _CLOSED_TUBES, ids=_CLOSED_IDS)
def test_folded_bands_separate_without_the_screw_symmetry(spec):
    # negative control: the 24x12 grid's lowest pair touches too (>= -1.1e-13),
    # but cos(tau s) on its diagonal, which no screw shift leaves alone, pulls
    # the pair apart by 1.1e-3 (eps0.9) to 0.30 (mirror) of the largest |E|
    ks = np.linspace(0.0, -abs(spec.tau) / 2, 11)
    S = grid_nodes(spec, 24, 12)[0].ravel()
    overlap = []
    for amp in (0.0, 1.0):
        pairs = []
        for k_s in ks:
            H = assemble_full(spec, BlochVector(k_s, 0), 24, 12)
            H[np.diag_indices_from(H)] += amp * np.cos(spec.tau * S)
            pairs.append(np.linalg.eigvalsh(H)[:2])
        overlap.append(_band_overlaps(np.array(pairs))[0])
    assert overlap[0] >= -1e-11
    assert overlap[1] <= -1e-4


@pytest.mark.xfail(reason=(
    "the paper's band gap is absent from the exact closed tube: at FIG3 the "
    "two lowest levels at k_s = -tau/2 differ by 2.3e-12, against a stated "
    "gap 2|U| = 0.0375"))
def test_paper_gap_opens_between_the_two_lowest_exact_bands():
    pair = _continuum(FIG3, -FIG3.tau / 2, 2)
    assert pair[1] - pair[0] >= 0.5 * two_band_gap(FIG3)


@pytest.mark.parametrize("spec", [
    FIG3,
    HelixSpec(kappa=1.3, tau=-0.8, rho0=0.3),
    HelixSpec(kappa=1.0, tau=2.0, rho0=0.5),  # eps = 0.5
    HelixSpec(kappa=3.0, tau=1.0, rho0=0.3),  # eps = 0.9, n_modes = 42
], ids=["fig3", "mirror", "fat", "eps0.9"])
def test_continuum_truncation_is_stable(spec, monkeypatch):
    k_s, n_bands = -0.3 * abs(spec.tau), 6
    base = _continuum(spec, k_s, n_bands)
    # relative to the largest kept level: a level near 0 is known only to
    # the eigensolver's eps_mach |H|, and doubling n_modes quadruples |H|
    scale = np.max(np.abs(base))
    # every sector the stopping rule skips lies above the kept levels: the
    # union of |M| <= 150, each sector on the oracle's own modes and table
    n = oracle_module._n_modes(spec)
    samples = oracle_module._helical_samples(spec, 8 * n)
    table = [np.fft.fft(f).real / (8 * n) for f in samples]
    toeplitz = oracle_module._toeplitz(table, 2 * n + 1)
    ps = k_s + spec.tau * np.arange(-150, 151)
    centre = np.rint(ps * spec.tau / (spec.tau**2 + spec.rho0**-2))
    ns = centre[:, None] + np.arange(-n, n + 1)
    every = np.linalg.eigvalsh(oracle_module._lattice(spec, ps, ns, toeplitz))
    wider = np.sort(every, axis=None)[:n_bands]
    assert np.max(np.abs(wider - base)) <= 1e-12 * scale
    right = oracle_module._n_modes
    monkeypatch.setattr(oracle_module, "_n_modes", lambda spec: 2 * right(spec))
    doubled = _continuum(spec, k_s, n_bands)
    assert np.max(np.abs(doubled - base)) <= 1e-12 * scale


def test_continuum_guards():
    with pytest.raises(DegeneratePeriod):
        continuum_levels(HelixSpec(1.0, 0.0, 0.1), [0.0], 2)
    # eps -> 1 needs more transverse modes than the storage cap allows
    nearly_flat = HelixSpec(kappa=0.999999, tau=1.0, rho0=1.0)
    with pytest.raises(ValueError, match="cap"):
        continuum_levels(nearly_flat, [0.0], 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: continuum_levels(FIG3, [0.0], 0), "n_bands must be at least 1, got 0"),
        (lambda: continuum_levels(FIG3, [0.0], -1), "n_bands must be at least 1, got -1"),
        (lambda: continuum_levels(FIG3, [0.0, math.nan], 2), "k_s must be finite, got nan"),
        (lambda: continuum_levels(FIG3, [math.inf], 2), "k_s must be finite, got inf"),
        (lambda: continuum_levels(FIG3, [], 2), "^the k-path has no points$"),
        (lambda: continuum_levels(FIG3, [0.0], 2.0), "^n_bands must be an integer, got 2.0$"),
        (lambda: perturbed_levels(FIG3, [], 2), "^the k-path has no points$"),
        (lambda: perturbed_levels(FIG3, [0.0], 0), r"^n_bands must be in \[1, 17\], got 0$"),
        (lambda: perturbed_levels(FIG3, [0.0], 2.0), "^n_bands must be an integer, got 2.0$"),
        (lambda: cylinder_levels(HelixSpec(0.0, 5.0, 1.0), 0),
         "n_lowest must be at least 1, got 0"),
        (lambda: cylinder_levels(HelixSpec(0.0, 5.0, 1.0), 2.0),
         "^n_lowest must be an integer, got 2.0$"),
        (lambda: verify.cylinder_error(HelixSpec(0.0, 5.0, 1.0), 0),
         "n_bands must be at least 1, got 0"),
        # perturbed_levels and collocation_levels check k_s through
        # _check_path, as continuum_levels does; every other route takes
        # its k-point through bloch.k_components
        (lambda: perturbed_levels(FIG3, [math.nan], 2), "k_s must be finite, got nan"),
        (lambda: assemble_perturbed(FIG3, (0.0, math.nan)),
         "k_varphi must be finite, got nan"),
        (lambda: two_band_energies(FIG3, (math.nan, 0.0)), "k_s must be finite, got nan"),
        (lambda: screw_eigenvalues(FIG3, BlochVector(math.nan, 0), 8, 8, 2),
         "k_s must be finite, got nan"),
        (lambda: collocation_levels(FIG3, math.nan, 5, 2), "k_s must be finite, got nan"),
        # the grid has no phase along phi: a transverse part would be dropped
        (lambda: assemble_full(FIG3, BlochVector(0.3, 2), 8, 8),
         "no flux along phi, got k_varphi = 20.0"),
        (lambda: assemble_full(FIG3, (0.3, 7.0), 8, 8),
         "no flux along phi, got k_varphi = 7.0"),
    ],
    ids=["no_bands", "negative_bands", "nan_k_s", "inf_k_s", "empty_path", "float_bands",
         "perturbed_empty_path", "perturbed_no_bands", "perturbed_float_bands",
         "cylinder", "cylinder_float", "cylinder_error",
         "perturbed_nan_k_s", "ray_nan_k_varphi", "two_band_nan_k_s", "screw_nan_k_s",
         "collocation_nan_k_s", "grid_transverse_n", "grid_k_varphi"],
)
def test_exact_solvers_refuse_a_count_below_one_or_a_non_finite_k_s(call, message):
    # as the sibling solvers do (_check_count), before any solve: no
    # IndexError, ConvergenceFailure or silent nan from deep inside
    with pytest.raises(ValueError, match=message):
        call()


def test_continuum_sector_cap_raises_at_once(monkeypatch):
    # tau = 1e-7 would take about 2.6 million sector pairs per k-point; the
    # bound after the first pair refuses it before a third solve
    solves = []
    right = oracle_module._dense_eigh

    def counted(*args, **kwargs):
        solves.append(1)
        return right(*args, **kwargs)

    monkeypatch.setattr(oracle_module, "_dense_eigh", counted)
    with pytest.raises(CapExceeded, match="sector pairs"):
        continuum_levels(HelixSpec(kappa=1.0, tau=1e-7, rho0=0.1), [0.0], 2)
    assert len(solves) == 2
    # tau = 1e-3 needs 258 pairs, well inside the cap
    levels, detail = continuum_levels(HelixSpec(1.0, 1e-3, 0.1), [0.0], 2)
    assert detail["sectors_per_kpoint"] == [515, 515]


@pytest.mark.parametrize("tau", [1e-4, 1e-5, 1e-6, 1e-7])
@pytest.mark.parametrize("n_bands", [4, 7])
def test_continuum_sector_cap_waits_for_n_bands_sectors(tau, n_bands):
    # the straight tube's n_bands lowest levels sit in 5 or 7 sectors; the
    # cap only judges the bound once that many are in, so tiny tau is solved
    spec = HelixSpec(kappa=0.0, tau=tau, rho0=0.1)
    levels, detail = continuum_levels(spec, [0.0], n_bands)
    want = _cylinder_closed_form(spec, 0.0, n_bands)
    assert np.max(np.abs(levels[0] - want)) <= 1e-15 * np.max(np.abs(want))
    assert detail["sectors_per_kpoint"] == [n_bands + 1 - n_bands % 2] * 2


def test_continuum_sector_cap_still_refuses_the_helix(monkeypatch):
    # at tau = 1e-6 the helix needs far more pairs than the cap: refused as
    # soon as the sectors number n_bands (M = 0 and three pairs for 7)
    solves = []
    right = oracle_module._dense_eigh

    def counted(*args, **kwargs):
        solves.append(1)
        return right(*args, **kwargs)

    monkeypatch.setattr(oracle_module, "_dense_eigh", counted)
    with pytest.raises(CapExceeded, match="sector pairs"):
        continuum_levels(HelixSpec(kappa=1.0, tau=1e-6, rho0=0.1), [0.0], 7)
    assert len(solves) == 4


def _exact_sector_matrices(spec, k_s):
    """The oracle's own sectors M = -2..2 at k_s, with the FFT table
    (before _toeplitz gathers it)."""
    n = oracle_module._n_modes(spec)
    samples = oracle_module._helical_samples(spec, 8 * n)
    table = [np.fft.fft(f).real / (8 * n) for f in samples]
    ps = k_s + spec.tau * np.arange(-2, 3)
    ns = np.rint(ps * spec.tau / (spec.tau**2 + spec.rho0**-2))[:, None]
    return table, ps, ns + np.arange(-n, n + 1)


def _asymmetry(H):
    return np.max(np.abs(H - np.swapaxes(H, -1, -2).conj())) / np.max(np.abs(H))


@settings(max_examples=60, deadline=None)
@given(
    rho0=st.floats(0.05, 1.0),
    eps=st.floats(0.0, 0.9),
    tau=st.floats(0.3, 3.0),
    sign=st.sampled_from((1.0, -1.0)),
    k_frac=st.floats(-1.0, 1.0),
    k_phi=st.floats(-30.0, 30.0),
)
def test_hermiticity_over_random_specs(rho0, eps, tau, sign, k_frac, k_phi):
    spec = HelixSpec(kappa=eps / rho0, tau=sign * tau, rho0=rho0)
    k_s = k_frac * tau / 2
    # the ray matrix is Hermitian to the last bit, at any k on or off the path
    H = assemble_perturbed(spec, (k_s, k_phi))
    assert np.array_equal(H, H.conj().T)
    # the exact sectors only up to rounding: the FFT's .real is even to
    # eps_mach (worst of 400 seeded draws 2.8e-16 of the largest entry)
    table, ps, ns = _exact_sector_matrices(spec, k_s)
    toeplitz = oracle_module._toeplitz(table, ns.shape[-1])
    assert _asymmetry(oracle_module._lattice(spec, ps, ns, toeplitz)) <= 1e-15


def test_hermiticity_check_catches_an_uneven_table():
    spec = HelixSpec(kappa=1.3, tau=-0.8, rho0=0.3)
    table, ps, ns = _exact_sector_matrices(spec, 0.27)
    table[0] = table[0].copy()
    table[0][1] += 1e-3 * abs(table[0][1])  # w[1] != w[-1], before the gather
    toeplitz = oracle_module._toeplitz(table, ns.shape[-1])
    assert _asymmetry(oracle_module._lattice(spec, ps, ns, toeplitz)) > 1e-5  # 3.4e-5


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 0.9])
def test_fourier_decay_rate_is_the_ratio_of_h_harmonics(eps):
    # 1/h = sum_d c_d exp(i d xi) with c_d proportional to (-r)^|d|, r the
    # decay rate; h^-2 and the potentials inherit r^|d| up to a factor in d
    spec = HelixSpec(kappa=eps / 0.1, tau=1.0, rho0=0.1)
    n = 256
    xi = np.arange(n) * (2.0 * math.pi / n)
    c = np.fft.fft(1.0 / metric_h(spec, 0.0, xi)).real / n
    r = fourier_decay_rate(spec)
    np.testing.assert_allclose(c[1:6], c[0] * (-r) ** np.arange(1, 6),
                               rtol=1e-12, atol=1e-15)


def _cylinder_closed_form(spec, k_s, n_bands, quarter=0.25):
    m, n = np.meshgrid(np.arange(-60, 61), np.arange(-12, 13))
    levels = (k_s + m * spec.tau) ** 2 + (n**2 - quarter) / spec.rho0**2
    return np.sort(levels, axis=None)[:n_bands]


@settings(max_examples=60, deadline=None)
@given(
    rho0=st.floats(0.05, 1.0),
    tau=st.floats(0.3, 3.0),
    sign=st.sampled_from((1.0, -1.0)),
    k_frac=st.floats(-1.0, 1.0),
)
def test_continuum_cylinder_limit(rho0, tau, sign, k_frac):
    # kappa = 0: (k_s + m tau)^2 + (n^2 - 1/4)/rho0^2, to rounding (worst of
    # 2,000 seeded draws 6.6e-16 of the largest level)
    spec = HelixSpec(kappa=0.0, tau=sign * tau, rho0=rho0)
    k_s = k_frac * tau / 2
    got = _continuum(spec, k_s, 6)
    want = _cylinder_closed_form(spec, k_s, 6)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@settings(max_examples=60, deadline=None)
@given(
    rho0=st.floats(0.05, 1.0),
    tau=st.floats(1e-3, 3.0),
    sign=st.sampled_from((1.0, -1.0)),
    n_lowest=st.integers(1, 25),
)
def test_cylinder_levels_match_the_closed_form(rho0, tau, sign, n_lowest):
    # the package's (n, m) enumeration against the test-side grid of them
    spec = HelixSpec(kappa=0.0, tau=sign * tau, rho0=rho0)
    got = cylinder_levels(spec, n_lowest)
    want = _cylinder_closed_form(spec, 0.0, n_lowest)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_continuum_approaches_the_cylinder_as_eps_squared():
    # FIG3's shape at k_s = -0.3: the distance falls 100-fold per decade of
    # eps (measured 9.9e-5, 9.9e-7, 9.9e-9 relative at eps = 1e-2, 1e-3, 1e-4)
    shape = HelixSpec(kappa=0.0, tau=1.0, rho0=0.1)
    want = _cylinder_closed_form(shape, -0.3, 4)
    dist = []
    for eps in (1e-2, 1e-3, 1e-4):
        got = _continuum(HelixSpec(kappa=eps / 0.1, tau=1.0, rho0=0.1), -0.3)
        dist.append(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    assert 5e-5 <= dist[0] <= 2e-4
    assert all(50.0 <= a / b <= 200.0 for a, b in zip(dist, dist[1:]))
    # negative control: the closed form without the -1/4 misses by 8.7 times
    # its largest level
    wrong = _cylinder_closed_form(shape, -0.3, 4, quarter=0.0)
    exact = _continuum(shape, -0.3)
    assert np.max(np.abs(exact - wrong)) / np.max(np.abs(wrong)) > 1e-2


def test_cylinder_error_past_nine_levels():
    # at tiny tau the ten lowest levels are n = 0 with |m| <= 5, so the
    # closed form has to reach past |m| = 4
    straight = HelixSpec(kappa=0.0, tau=1e-3, rho0=0.1)
    assert verify.cylinder_error(straight, 10) <= 1e-12


def test_cylinder_limit_check_catches_a_shifted_potential(monkeypatch):
    # the straight tube on the exact oracle meets the closed form to rounding
    # (0.0 at the probe); a potential 1e-3 off moves every level by 1e-3
    cfg = RunConfig()
    assert verify.check_cylinder_limit(cfg)["passed"] is True
    right = oracle_module.v_eff
    monkeypatch.setattr(oracle_module, "v_eff", lambda *a: right(*a) + 1e-3)
    check = verify.check_cylinder_limit(cfg)
    assert check["passed"] is False
    assert check["measured"] > 1e6 * check["tolerance"]


@pytest.mark.parametrize("wrong", ["h^-1 for h^-2", "v_kin dropped"])
def test_continuum_oracle_check_catches_a_wrong_table(monkeypatch, wrong):
    cfg = RunConfig()
    assert verify.check_continuum_oracle(cfg)["passed"] is True
    right = oracle_module._helical_samples

    def corrupted(spec, n_xi):
        h2, pot = right(spec, n_xi)
        xi = np.arange(n_xi) * (2.0 * np.pi / n_xi)
        if wrong == "h^-1 for h^-2":
            return np.sqrt(h2), pot
        return h2, v_curv(spec, 0.0, xi)

    monkeypatch.setattr(oracle_module, "_helical_samples", corrupted)
    check = verify.check_continuum_oracle(cfg)
    assert check["passed"] is False
    # measured 1.2e-3 (h^-1) and 1.0e-2 (v_kin dropped)
    assert check["measured"] > 1e6 * check["tolerance"]


def test_continuum_oracle_check_catches_a_wrong_k_s(monkeypatch):
    # continuum_levels taken at k_s = -0.2 in place of the probe's -0.3
    right = verify.continuum_levels

    def shifted(spec, ks, n_bands):
        return right(spec, [k_s + 0.1 for k_s in ks], n_bands)

    monkeypatch.setattr(verify, "continuum_levels", shifted)
    check = verify.check_continuum_oracle(RunConfig())
    assert check["passed"] is False
    assert check["measured"] > 1e6 * check["tolerance"]


# ------------------------------------------------------ collocation levels


@pytest.mark.parametrize("k_s", [0.0, -0.27, 0.65, 1.03])
def test_collocation_matches_the_cylinder_closed_form(k_s):
    # independent of every oracle in the package: the straight tube's
    # (k_s + m tau)^2 + (n^2 - 1/4)/rho0^2, k_s inside, on and outside the
    # zone edge tau/2 = 0.65
    spec = HelixSpec(kappa=0.0, tau=1.3, rho0=0.4)
    got = collocation_levels(spec, k_s, 13, 6)
    want = _cylinder_closed_form(spec, k_s, 6)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("spec, k_s, n", [
    (FIG3, -0.3, 13),  # verify's probe, measured 6.6e-14
    (HelixSpec(kappa=1.0, tau=-2.0, rho0=0.2), -0.6, 21),  # measured 2.2e-12
], ids=["fig3", "mirror"])
def test_collocation_matches_the_continuum(spec, k_s, n):
    got = collocation_levels(spec, k_s, n, 4)
    want = _continuum(spec, k_s)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11


def test_collocation_guards(monkeypatch):
    # an even grid drops the s-Nyquist mode of d_s and leaves a spurious
    # level next to each low level: FIG3 on 16x16 is 5.5e-2 off
    with pytest.raises(ValueError, match="odd"):
        collocation_levels(FIG3, -0.3, 16, 4)
    for n_lowest in (0, 10):
        with pytest.raises(ValueError, match="n_lowest"):
            collocation_levels(FIG3, -0.3, 3, n_lowest)
    # the dense matrix holds n^4 entries: refused before it is built
    monkeypatch.setattr(oracle_module, "_MAX_DIMENSION", 11 * 11 - 1)
    assert collocation_levels(FIG3, -0.3, 9, 1).shape == (1,)
    with pytest.raises(CapExceeded, match="cap"):
        collocation_levels(FIG3, -0.3, 11, 1)
    monkeypatch.undo()
    with pytest.raises(CapExceeded, match="cap"):
        collocation_levels(FIG3, -0.3, 65, 1)


def test_perturbed_is_the_lattice_fed_the_stated_table():
    # rebuild the ray matrix entry by entry from ray_amplitude, on the
    # continuous ray (half-integer n); the amplitudes and the matrix are real
    spec = HelixSpec(kappa=1.0, tau=-1.0, rho0=0.1)
    kv = zone_boundary_k(spec)
    n = oracle_module._n_modes(spec)
    js = np.arange(-n, n + 1)
    q = kv[0] + js * spec.tau
    want = np.diag(q**2 + (kv[1] - js / spec.rho0) ** 2
                   - spectral_offset(spec) + ray_amplitude(spec, 0, 0.0))
    for dj in (1, 2, 3):
        for col in range(2 * n + 1 - dj):
            want[col + dj, col] = ray_amplitude(spec, dj, q[col])
            want[col, col + dj] = want[col + dj, col]
    got = assemble_perturbed(spec, tuple(kv))
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def _ray_blocks(spec, k):
    """Eigenvalues of the (j = 0, j = 1) and (j = 0, j = -1) 2x2 blocks of
    the ray matrix at k, and the rounding scale of their diagonal: its
    largest entry, or the offset a subtracted there if that is larger."""
    H = assemble_perturbed(spec, k)
    n = oracle_module._n_modes(spec)  # row n is j = 0
    scale = max(np.max(np.abs(np.diag(H)[n - 1:n + 2])), spectral_offset(spec))
    return (np.linalg.eigvalsh(H[n:n + 2, n:n + 2]),
            np.linalg.eigvalsh(H[n - 1:n + 1, n - 1:n + 1]), scale)


@settings(max_examples=60, deadline=None)
@given(
    rho0=st.floats(0.05, 1.0),
    eps=st.floats(0.0, 0.9),
    tau=st.floats(0.2, 3.0),
    sign=st.sampled_from((1.0, -1.0)),
    k_frac=st.floats(-1.0, 1.0),
    n_phi=st.integers(-3, 3),
    d_phi=st.floats(-0.5, 0.5),
)
def test_two_band_is_the_k1_block_of_the_ray_matrix(
    rho0, eps, tau, sign, k_frac, n_phi, d_phi
):
    # two_band_energies couples k and k + ray_vector(spec); the ray matrix
    # puts k + j ray_vector(spec) in row n + j, so the two meet in one block
    spec = HelixSpec(kappa=eps / rho0, tau=sign * tau, rho0=rho0)
    k = (k_frac * tau / 2, (n_phi + d_phi) / rho0)
    block, _, scale = _ray_blocks(spec, k)
    want = np.asarray(two_band_energies(spec, k))
    # worst of 2,000 seeded numpy draws over these ranges: 1.7e-15
    assert np.max(np.abs(block - want)) <= 1e-12 * scale


def test_two_band_misses_the_reversed_block():
    # negative control: k - ray_vector(spec) is not the partner, so the
    # (j = 0, j = -1) block misses by far more than the tolerance above;
    # at k = 0 the two blocks coincide by symmetry, random draws avoid it
    rng = np.random.default_rng(0)
    worst = np.inf
    for _ in range(200):
        rho0, eps = rng.uniform(0.05, 1.0), rng.uniform(0.0, 0.9)
        tau = rng.uniform(0.2, 3.0) * rng.choice((1.0, -1.0))
        spec = HelixSpec(kappa=eps / rho0, tau=tau, rho0=rho0)
        k = (rng.uniform(-0.5, 0.5) * abs(tau),
             (rng.integers(-3, 4) + rng.uniform(-0.5, 0.5)) / rho0)
        _, reversed_block, scale = _ray_blocks(spec, k)
        want = np.asarray(two_band_energies(spec, k))
        worst = min(worst, np.max(np.abs(reversed_block - want)) / scale)
    assert worst > 1e-6  # 3.2e-3 here; 8.3e-3 over 2,000 draws from seed 1


def test_perturbed_free_diagonal():
    spec = HelixSpec(kappa=0.0, tau=1.0, rho0=0.1)
    kv = (0.2, 0.0)
    H = assemble_perturbed(spec, kv)
    assert H.shape == (17, 17)  # the window floor of 8 modes each side
    a = spectral_offset(spec)
    js = np.arange(-8, 9)
    want = (0.2 + js * spec.tau) ** 2 + (js * 10.0) ** 2 - a
    np.testing.assert_allclose(np.diag(H), want, rtol=1e-14)
    off = H - np.diag(np.diag(H))
    assert np.all(off == 0.0)


def test_perturbed_levels_are_one_solve_per_kpoint():
    # perturbed_levels solves the path's ray matrices one at a time; each
    # row is exactly the lowest n_bands of its own matrix's solve
    for spec in (FIG3, HelixSpec(kappa=0.7, tau=-1.3, rho0=0.3)):
        ks = [f * abs(spec.tau) for f in np.linspace(0, -0.5, 7)]
        for n_bands in (2, 5):
            got = perturbed_levels(spec, ks, n_bands)
            for k_s, row in zip(ks, got):
                want = np.linalg.eigvalsh(assemble_perturbed(spec, (k_s, 0.0)))
                assert np.array_equal(row, want[:n_bands])
    # n_bands is checked against one matrix (FIG3's window is 17), not the path
    assert perturbed_levels(FIG3, [0.0, -0.25], 17).shape == (2, 17)
    with pytest.raises(ValueError, match="n_bands"):
        perturbed_levels(FIG3, [0.0, -0.25], 18)


def test_perturbed_levels_build_the_table_once_and_solve_one_matrix_at_a_time(
        monkeypatch):
    # the stated table depends on the spec alone, so a path builds it once;
    # each 17x17 ray matrix is solved on its own, and the levels are those
    # of one stacked call on the whole path, bit for bit
    ks = list(np.linspace(0.0, -0.5, 23))
    whole = np.linalg.eigvalsh(np.stack([assemble_perturbed(FIG3, (k_s, 0.0))
                                         for k_s in ks]))[:, :2]
    shapes, tables = [], []
    right_eigh, right_table = oracle_module._dense_eigh, oracle_module.stated_table

    def recorded(entries):
        shapes.append(entries.shape)
        return right_eigh(entries)

    def counted(spec):
        tables.append(spec)
        return right_table(spec)

    monkeypatch.setattr(oracle_module, "_dense_eigh", recorded)
    monkeypatch.setattr(oracle_module, "stated_table", counted)
    got = perturbed_levels(FIG3, ks, 2)
    assert shapes == [(17, 17)] * 23
    assert tables == [FIG3]
    assert np.array_equal(got, whole)


def test_perturbed_hermitian_and_minimum_size():
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=0.05)
    H = assemble_perturbed(spec, (0.1, 0.0))
    assert np.linalg.norm(H - H.conj().T) <= 1e-12 * np.linalg.norm(H)


def test_perturbed_storage_cap():
    # eps = 0.999999 needs a window of 2*13900 + 1 rows, over the 4096 cap:
    # refused before the matrix is allocated
    nearly_flat = HelixSpec(kappa=0.999999, tau=1.0, rho0=1.0)
    with pytest.raises(CapExceeded, match="cap"):
        assemble_perturbed(nearly_flat, (0.0, 0.0))


def test_perturbed_truncation_stability(monkeypatch):
    # the derived window is converged: doubling it moves none of the lowest
    # four levels by more than 1e-13 of the matrix's largest |eigenvalue|
    specs = [
        FIG3,
        HelixSpec(kappa=0.7, tau=-1.3, rho0=0.3),
        HelixSpec(kappa=0.9, tau=2.0, rho0=1.0),  # a fixed window of 7 is off
        HelixSpec(kappa=9.0, tau=1.0, rho0=0.1),
        HelixSpec(kappa=1.0, tau=1.0, rho0=0.01),
    ]

    def lowest(spec):
        ks = [(f * abs(spec.tau), 0.0) for f in (0.0, -0.3)]
        ks.append(tuple(zone_boundary_k(spec)))
        Hs = [assemble_perturbed(spec, k) for k in ks]
        every = [np.linalg.eigvalsh(H) for H in Hs]
        return np.array([w[:4] for w in every]), max(np.abs(w).max() for w in every)

    base = {spec: lowest(spec) for spec in specs}
    right = oracle_module._n_modes
    monkeypatch.setattr(oracle_module, "_n_modes", lambda spec: 2 * right(spec))
    for spec in specs:
        (levels, scale), (doubled, _) = base[spec], lowest(spec)
        assert np.max(np.abs(doubled - levels)) <= 1e-13 * scale


def test_perturbed_vs_two_band_second_order():
    # truncation error of the 2x2 treatment shrinks as eps^2: the kappa sweep
    # at fixed rho0 keeps the lattice fixed while eps halves
    rho0, errs = 0.1, {}
    for eps in (0.04, 0.02):
        spec = HelixSpec(kappa=eps / rho0, tau=1.0, rho0=rho0)
        kb = tuple(zone_boundary_k(spec))
        pert = np.linalg.eigvalsh(assemble_perturbed(spec, kb))[:2]
        tb = two_band_energies(spec, kb)
        errs[eps] = max(abs(pert[0] - tb[0]), abs(pert[1] - tb[1]))
    ratio = errs[0.04] / errs[0.02]
    print(f"two-band truncation error ratio: {ratio:.3f}")
    assert 3.0 <= ratio <= 5.0


# --------------------------------------------------------------- eigensolve


def test_eigensolve_trivial_diag():
    res = eigensolve(np.diag([2.0, 1.0]), 2)
    np.testing.assert_allclose(res.eigenvalues, [1.0, 2.0])
    assert [f.name for f in dataclasses.fields(SpectrumResult)] == ["eigenvalues"]


def test_eigensolve_validates_count():
    with pytest.raises(ValueError):
        eigensolve(np.eye(3), 4)
    with pytest.raises(ValueError):
        eigensolve(np.eye(3), 0)


def test_eigensolve_deterministic():
    H = assemble_full(FIG3, BlochVector(0.2, 0), 12, 8)
    a = eigensolve(H, 6).eigenvalues
    b = eigensolve(H, 6).eigenvalues
    assert np.array_equal(a, b)


def test_eigensolve_convergence_failure_diagnostic():
    with pytest.raises(ConvergenceFailure):
        eigensolve(np.full((3, 3), np.nan), 2)


def test_a_lapack_failure_is_a_convergence_failure(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(oracle_module.np.linalg, "eigvalsh", failing)
    with pytest.raises(ConvergenceFailure,
                       match="^dense eigensolve failed: Eigenvalues did not converge$"):
        eigensolve(np.eye(2), 1)


@pytest.mark.parametrize("bad", [
    np.diag([np.nan, 1.0]),  # LAPACK returns [0, -0], finite and wrong
    np.full((2, 2), 1e308),  # finite entries, an eigenvalue overflows to inf
], ids=["nan-entry", "overflow"])
def test_eigensolve_refuses_non_finite_input_or_levels(bad):
    with pytest.raises(ConvergenceFailure):
        eigensolve(bad, 2)


def _bisection_eigenvalues(A, n_scan=20001):
    """Independent route: sign changes of det(A - x I), then bisection."""
    radii = np.sum(np.abs(A), axis=1) - np.abs(np.diag(A))
    lo = float(np.min(np.diag(A).real - radii)) - 1.0
    hi = float(np.max(np.diag(A).real + radii)) + 1.0
    xs = np.linspace(lo, hi, n_scan)
    eye = np.eye(A.shape[0])
    dets = np.linalg.det(A[None, :, :] - xs[:, None, None] * eye).real
    roots = []
    for i in np.nonzero(np.sign(dets[:-1]) != np.sign(dets[1:]))[0]:
        a, b = xs[i], xs[i + 1]
        fa = dets[i]
        for _ in range(60):
            mid = 0.5 * (a + b)
            fm = float(np.linalg.det(A - mid * eye).real)
            if np.sign(fm) == np.sign(fa):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    return np.array(roots)


def test_eigensolve_against_characteristic_polynomial():
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    A = 0.5 * (raw + raw.conj().T)
    got = eigensolve(A, 4).eigenvalues
    want = _bisection_eigenvalues(A)
    assert len(want) == 4
    np.testing.assert_allclose(got, want, atol=1e-10)


# ---------------------------------------------------------- bands along k_s


def test_free_tube_two_band_and_ray_levels_are_folded_parabolas():
    # stay on the k <= 0 side, where k + K1 is the nearest fold and the
    # second ray band is the one the two-band model describes
    spec = HelixSpec(kappa=0.0, tau=1.0, rho0=0.1)
    ks = [-0.4, -0.3, -0.2, 0.0]
    tb = np.array([two_band_energies(spec, (k_s, 0.0)) for k_s in ks])
    pert = perturbed_levels(spec, ks, 2)
    a = spectral_offset(spec)
    for i, k_s in enumerate(ks):
        assert tb[i, 0] == pytest.approx(k_s**2 - a, rel=1e-12)
    np.testing.assert_allclose(tb, pert, rtol=1e-10)


def test_first_order_free_limit():
    spec = HelixSpec(kappa=0.0, tau=1.0, rho0=0.1)
    fo = first_order_energies(spec, BlochVector(0.1, 0), 2)
    a = spectral_offset(spec)
    assert fo[0] == pytest.approx(0.1**2 - a, rel=1e-12)


def test_first_order_near_interior_matches_ray_matrix():
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=0.02)
    ks = [0.1, -0.2]
    fo = np.array([first_order_energies(spec, (k_s, 0.0), 2) for k_s in ks])
    pert = perturbed_levels(spec, ks, 2)
    diff = np.max(np.abs(fo[:, 0] - pert[:, 0]))
    assert diff <= 1e-6


def test_first_order_raises_at_boundary():
    # the ray degeneracy sits at the continuous point -K1/2, which has
    # half-integer transverse wavenumber, so pass it as a raw pair
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=0.1)
    with pytest.raises(NearResonance):
        first_order_energies(spec, (-0.5, 5.0), 2)


def test_boundary_gap_positive_and_near_two_band():
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=0.05)
    gap = gap_perturbed(spec)
    assert gap > 0
    tb = 2 * spec.epsilon * (1.0 / 16 + 1.0 / 8)
    assert abs(gap - tb) / tb <= 0.10


def test_full_vs_perturbed_lowest_band_offset():
    # the ray basis carries the eps kappa^2/4 diagonal shift while the exact
    # operator's order-eps average vanishes; the lowest bands differ by just
    # that constant up to O(eps^2)
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=0.05)
    ks = [-0.4, -0.2, 0.0, 0.2, 0.4]
    full, _ = continuum_levels(spec, ks, 2)
    pert = perturbed_levels(spec, ks, 2)
    diff = pert[:, 0] - full[:, 0]
    shift = spec.epsilon * spec.kappa**2 / 4
    print(f"lowest-band offset: max {np.max(np.abs(diff)):.6e}, shift {shift:.6e}")
    assert np.max(np.abs(diff - shift)) <= 3 * spec.epsilon * shift


@pytest.mark.xfail(
    reason="the offset equals the diagonal shift eps*kappa^2/4 times (1 + O(eps)),"
    " which lands a few percent above 5 eps^2 at eps = 0.05; see the"
    " companion test for the measured decomposition",
)
def test_full_vs_perturbed_lowest_band_as_stated():
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=0.05)
    ks = [-0.4, -0.2, 0.0, 0.2, 0.4]
    full, _ = continuum_levels(spec, ks, 2)
    pert = perturbed_levels(spec, ks, 2)
    diff = np.max(np.abs(full[:, 0] - pert[:, 0]))
    assert diff <= 5 * spec.epsilon**2


def test_variational_ground_state_below_cylinder():
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=0.05)
    e0 = screw_eigenvalues(spec, BlochVector(0.0, 0), 32, 32, 1)[0]
    straight = HelixSpec(kappa=0.0, tau=1.0, rho0=0.05)
    cyl = cylinder_levels(straight, 1)[0]
    assert e0 < cyl


def test_first_order_u_oracle_eigenvector_component():
    # mixing coefficient vs the ray-matrix ground eigenvector at an interior
    # k: the residual mismatch stays bounded by O(eps^2)
    from helitube.bloch import first_order_u

    rho0, kv = 0.1, (0.2, 0.0)
    for eps in (0.04, 0.02):
        spec = HelixSpec(kappa=eps / rho0, tau=1.0, rho0=rho0)
        w, v = np.linalg.eigh(assemble_perturbed(spec, kv))
        vec = v[:, 0]
        mid = oracle_module._n_modes(spec)  # j = 0 entry of the ray basis
        ratio = vec[mid + 1] / vec[mid]
        u = first_order_u(spec, kv, w[0])
        err = abs(ratio - u)
        print(f"eps={eps}: |mixing - u| = {err:.3e}, u = {abs(u):.3e}")
        assert abs(u) > 0
        assert err <= eps**2

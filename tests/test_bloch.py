"""Ray vector, ray couplings, two-band roots, gap, mass, cylinder."""

import numpy as np
import pytest

from helitube.bloch import (
    BlochVector,
    NearResonance,
    OutOfValidity,
    SingularMass,
    cylinder_levels,
    effective_mass,
    first_order_u,
    k_components,
    near_boundary_expansion,
    origin_fit,
    ray_amplitude,
    ray_vector,
    two_band_energies,
    two_band_gap,
    two_band_hessian,
    zone_boundary_k,
    _invert_hessian,
)
from helitube.geometry import HelixSpec, grid_nodes
from helitube.operators import spectral_offset, v1_apply

FIG3 = HelixSpec(kappa=1.0, tau=1.0, rho0=0.1)


# ------------------------------------------------------------- lattice types


def test_ray_vector_components():
    np.testing.assert_allclose(ray_vector(FIG3), [1.0, -10.0])
    spec = HelixSpec(kappa=0.7, tau=-1.3, rho0=0.3)
    K = ray_vector(spec)
    assert K.tolist() == [-1.3, -1.0 / 0.3]
    # the zone boundary is exactly half of it, with the sign flipped
    assert (-2.0 * zone_boundary_k(spec)).tolist() == K.tolist()
    np.testing.assert_allclose(
        k_components(FIG3, BlochVector(0.25, 2)), [0.25, 20.0]
    )
    with pytest.raises(ValueError, match="BlochVector or a pair"):
        k_components(FIG3, (1.0, 2.0, 3.0))


def test_zone_boundary_is_half_reciprocal_vector():
    kb = zone_boundary_k(FIG3)
    np.testing.assert_allclose(kb, [-0.5, 5.0])


# ---------------------------------------------------------------- couplings


def test_coupling_table_zero_curvature():
    spec = HelixSpec(kappa=0.0, tau=1.0, rho0=0.1)
    assert all(ray_amplitude(spec, j, q_s=0.7) == 0.0 for j in range(-3, 4))


@pytest.mark.parametrize("q_s", [-1.3, 0.0, 0.5, 2.0])
def test_coupling_table_fixed_harmonics(q_s):
    def amplitude(j):
        return ray_amplitude(FIG3, j, q_s)

    eps, k2 = FIG3.epsilon, FIG3.kappa**2
    assert amplitude(0) == pytest.approx(eps * k2 / 4, rel=1e-15)
    assert amplitude(3) == pytest.approx(-eps * k2 / 16, rel=1e-15)
    assert amplitude(-3) == pytest.approx(-eps * k2 / 16, rel=1e-15)
    assert amplitude(2) == pytest.approx(eps * k2 / 8, rel=1e-15)
    assert amplitude(-2) == pytest.approx(eps * k2 / 8, rel=1e-15)
    assert amplitude(5) == 0.0
    # the j = 0 harmonic is the constant shift the two-band model adds
    assert amplitude(0) == FIG3.epsilon * FIG3.kappa**2 / 4


def test_coupling_table_linear_in_eps():
    s1, s2 = HelixSpec(1.0, 1.0, 0.02), HelixSpec(1.0, 1.0, 0.04)
    for j in (-3, -2, -1, 0, 1, 2, 3):
        a1, a2 = ray_amplitude(s1, j, 0.4), ray_amplitude(s2, j, 0.4)
        assert a2 == pytest.approx(2 * a1, rel=1e-14)


def test_coupling_table_against_fourier_transform_of_v1():
    # independent route: apply the first-order operator to a plane wave and
    # project its output onto the ray harmonics (discrete Fourier analysis
    # with the grid phases written out)
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=0.05)
    n = 32
    S, P = grid_nodes(spec, n, n)
    for m_src, n_src in ((0, 0), (2, 0), (-1, 1)):
        q_s = m_src * spec.tau
        src = np.exp(1j * (q_s * S + n_src * P))
        out = v1_apply(spec, src)
        for j in (-3, -2, -1, 0, 1, 2, 3):
            harm = src * np.exp(1j * j * (spec.tau * S - P))
            got = np.vdot(harm, out) / np.vdot(harm, harm)
            want = ray_amplitude(spec, j, q_s)
            assert abs(got - want) <= 1e-10 * max(abs(want), 1e-6)


def test_coupling_symmetry_makes_u2_nonnegative():
    # V~_{-j}(q + j tau) = V~_j(q), so the two-band product is a square
    rng = np.random.default_rng(21)
    for _ in range(20):
        spec = HelixSpec(
            kappa=rng.uniform(0.2, 2.0), tau=rng.uniform(-2, 2), rho0=0.1
        )
        q = rng.uniform(-3, 3)
        for j in (1, -1, 2, -2, 3, -3):
            a1 = ray_amplitude(spec, j, q)
            a2 = ray_amplitude(spec, -j, q + j * spec.tau)
            assert a2 == pytest.approx(np.conj(a1), rel=1e-12, abs=1e-15)
            u2 = (a1 * a2).real
            assert u2 >= -1e-30


# ------------------------------------------------------------ first order u


def test_first_order_u_zero_curvature():
    spec = HelixSpec(kappa=0.0, tau=1.0, rho0=0.1)
    k = BlochVector(0.0, 0)
    e_free = -spectral_offset(spec)
    assert first_order_u(spec, k, e_free) == 0.0


def test_first_order_u_zone_center_magnitude():
    # |u| = eps*kappa^2/16 / K1^2 for the unperturbed zone-center state
    spec = FIG3
    a = spectral_offset(spec)
    k = BlochVector(0.0, 0)
    u = first_order_u(spec, k, -a)
    K2 = spec.tau**2 + 1.0 / spec.rho0**2
    expect = -(spec.epsilon * spec.kappa**2 / 16) / K2
    assert u == pytest.approx(expect, rel=1e-12)
    assert abs(u) < spec.epsilon


def test_first_order_u_near_resonance():
    spec = FIG3
    a = spectral_offset(spec)
    kb = zone_boundary_k(spec)
    e_free = float(kb @ kb) - a
    with pytest.raises(NearResonance):
        first_order_u(spec, tuple(kb), e_free)


# ----------------------------------------------------------------- two band


def test_two_band_free_limit_exact():
    spec = HelixSpec(kappa=0.0, tau=1.0, rho0=0.1)
    a = spectral_offset(spec)
    for kv in ((0.0, 0.0), (0.3, 10.0), (-0.5, 5.0)):
        e1, e2 = two_band_energies(spec, kv)
        kv = np.asarray(kv)
        K = ray_vector(spec)
        free = sorted([float(kv @ kv) - a, float((kv + K) @ (kv + K)) - a])
        assert e1 == pytest.approx(free[0], rel=1e-13, abs=1e-13)
        assert e2 == pytest.approx(free[1], rel=1e-13, abs=1e-13)


def test_two_band_free_boundary_degenerate():
    spec = HelixSpec(kappa=0.0, tau=1.0, rho0=0.1)
    kb = zone_boundary_k(spec)
    e1, e2 = two_band_energies(spec, tuple(kb))
    assert e1 == pytest.approx(e2, abs=1e-12)


def test_two_band_boundary_gap_value():
    # |U| at the boundary is eps(kappa^2/16 + tau^2/8) for kappa = tau
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=0.05)
    gap = two_band_gap(spec)
    expect = 2 * spec.epsilon * (1.0 / 16 + 1.0 / 8)
    assert gap == pytest.approx(expect, rel=1e-12)
    e1, e2 = two_band_energies(spec, tuple(zone_boundary_k(spec)))
    assert e2 - e1 == pytest.approx(gap, rel=1e-12)


def test_two_band_vs_first_order_away_from_boundary():
    # lower root approaches free + U^2/(Q - P) once K^2 G^2 >> U^2
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=0.05)
    a = spectral_offset(spec)
    v0 = spec.epsilon * spec.kappa**2 / 4
    K = ray_vector(spec)
    kv = -0.3 * K
    Q = float(kv @ kv) - a
    P = float((kv + K) @ (kv + K)) - a
    t1 = ray_amplitude(spec, 1, kv[0])
    t2 = ray_amplitude(spec, -1, kv[0] + spec.tau)
    u2 = (t1 * t2).real
    K2G2 = float(K @ K) * float((kv - zone_boundary_k(spec)) @ (kv - zone_boundary_k(spec)))
    assert K2G2 > 10 * u2
    e1, _ = two_band_energies(spec, tuple(kv))
    correction = u2 / (Q - P)
    assert (e1 - v0 - Q) == pytest.approx(correction, rel=0.05)


def test_two_band_continuous_and_bloch_inputs_agree():
    spec = FIG3
    kv = (0.2, 10.0)  # n = 1 transverse
    via_tuple = two_band_energies(spec, kv)
    via_bloch = two_band_energies(spec, BlochVector(0.2, 1))
    assert via_tuple == pytest.approx(via_bloch, rel=1e-15)


# ------------------------------------------------------------ near boundary


def test_near_boundary_gap_at_zero_detuning():
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=0.05)
    e1, e2 = near_boundary_expansion(spec, 0.0)
    tb1, tb2 = two_band_energies(spec, tuple(zone_boundary_k(spec)))
    assert e2 - e1 == pytest.approx(2 * spec.epsilon * (1.0 / 16 + 1.0 / 8), rel=1e-12)
    assert e1 == pytest.approx(tb1, rel=1e-12)
    assert e2 == pytest.approx(tb2, rel=1e-12)


def test_near_boundary_matches_two_band_within_bound():
    # validity window demands K^2 G^2 < 0.1 U^2, which needs tau << kappa
    spec = HelixSpec(kappa=1.0, tau=0.004, rho0=0.05)
    G = 0.01 * spec.tau
    K = ray_vector(spec)
    K2 = float(K @ K)
    t1 = ray_amplitude(spec, 1, -spec.tau / 2)
    t2 = ray_amplitude(spec, -1, spec.tau / 2)
    u2 = (t1 * t2).real
    assert K2 * G**2 < 0.1 * u2
    nb = near_boundary_expansion(spec, G)
    khat = K / np.linalg.norm(K)
    kv = zone_boundary_k(spec) + G * khat
    tb = two_band_energies(spec, tuple(kv))
    bound = K2 * G**2 / u2
    for e_nb, e_tb in zip(nb, tb):
        assert abs(e_nb - e_tb) <= bound * abs(e_tb)


def test_near_boundary_out_of_validity():
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=0.05)
    with pytest.raises(OutOfValidity):
        near_boundary_expansion(spec, 0.5 * spec.tau)
    straight = HelixSpec(kappa=0.0, tau=1.0, rho0=0.05)
    with pytest.raises(OutOfValidity):
        near_boundary_expansion(straight, 0.01)


# ------------------------------------------------------------- gap scaling


def _gap_fit(specs):
    """The two-band gaps and their origin_fit against eps kappa^2/4."""
    gaps = np.array([two_band_gap(s) for s in specs])
    x = [s.epsilon * s.kappa**2 / 4 for s in specs]
    return gaps, origin_fit(x, gaps)


def test_gap_scaling_two_band_family():
    eps_values = [0.01, 0.02, 0.03, 0.04, 0.05]
    specs = [HelixSpec(kappa=1.0, tau=1.0, rho0=e) for e in eps_values]
    gaps, (slope, r_squared) = _gap_fit(specs)
    # gap = 3 eps/8 while x = eps/4: slope exactly 3/2
    assert slope == pytest.approx(1.5, rel=1e-12)
    assert r_squared >= 0.999
    assert 0.5 <= slope <= 2.0
    np.testing.assert_allclose(gaps, 0.375 * np.asarray(eps_values), rtol=1e-12)
    # doubling eps doubles the gap
    assert gaps[3] == pytest.approx(2 * gaps[1], rel=0.02)
    assert gaps[4] == pytest.approx(0.375 * 0.05, rel=1e-12)


def test_gap_scaling_all_zero():
    specs = [HelixSpec(kappa=0.0, tau=1.0, rho0=0.1)] * 4
    gaps, (slope, _) = _gap_fit(specs)
    assert slope == 0.0
    assert all(g == 0.0 for g in gaps)


# ---------------------------------------------------------- effective mass


def test_effective_mass_free_particle_identity():
    spec = HelixSpec(kappa=0.0, tau=1.0, rho0=0.5)
    for band in (0, 1):
        m = effective_mass(spec, (0.1, 0.3), band)
        np.testing.assert_allclose(m, np.eye(2), atol=1e-6)


def test_effective_mass_fd_matches_analytic(fd_hessian):
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=0.05)
    rng = np.random.default_rng(31)
    points = [tuple(zone_boundary_k(spec))]
    # k_varphi window stays of order tau: the difference step is fixed in
    # absolute units, so keeping |E| moderate keeps the stencil above roundoff
    for _ in range(10):
        points.append(
            (rng.uniform(-0.5, 0.5) * spec.tau, rng.uniform(-2.0, 2.0) * abs(spec.tau))
        )
    for kv in points:
        for band in (0, 1):
            h_fd = fd_hessian(spec, kv, band)
            h_an = two_band_hessian(spec, kv, band)
            err = np.linalg.norm(h_fd - h_an) / np.linalg.norm(h_an)
            assert err <= 1e-4
            h_mass = np.linalg.inv(effective_mass(spec, kv, band)) * 2.0
            err = np.linalg.norm(h_fd - h_mass) / np.linalg.norm(h_mass)
            assert err <= 1e-4


def test_effective_mass_boundary_anisotropic():
    # gap flattens the band along the ray: mass component along K1 exceeds mu
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=0.05)
    m = effective_mass(spec, tuple(zone_boundary_k(spec)), 1)
    K = ray_vector(spec)
    khat = K / np.linalg.norm(K)
    along = float(khat @ m @ khat)
    assert 0.0 < along < 1.0  # upper band curves upward more steeply
    # off-diagonal magnitude is reported, not asserted: record it
    print(f"mass off-diagonal at boundary: {m[0, 1]:.6e}")


def test_singular_hessian_raises():
    with pytest.raises(SingularMass):
        _invert_hessian(np.array([[1e-9, 0.0], [0.0, 1e-9]]), 1.0)
    # the free bands touch at the zone boundary: f = 0 has no Hessian
    free = HelixSpec(kappa=0.0, tau=1.0, rho0=0.1)
    with pytest.raises(SingularMass, match="bands touch"):
        two_band_hessian(free, zone_boundary_k(free), 0)


def test_two_band_hessian_has_two_bands():
    with pytest.raises(ValueError, match="band must be 0"):
        two_band_hessian(FIG3, (0.1, 0.0), 2)


# ------------------------------------------------------------ cylinder limit


def test_cylinder_limit_values():
    # n^2 - 1/4 + m^2 at rho0 = tau = 1: (0, 0), then (+-1, 0) and (0, +-1),
    # then two of the four (+-1, +-1), each (n, m) once
    spec = HelixSpec(kappa=0.0, tau=1.0, rho0=1.0)
    got = cylinder_levels(spec, 7).tolist()
    assert got == [-0.25, 0.75, 0.75, 0.75, 0.75, 1.75, 1.75]


def test_cylinder_limit_preconditions():
    with pytest.raises(ValueError, match="kappa = 0"):
        cylinder_levels(FIG3, 1)

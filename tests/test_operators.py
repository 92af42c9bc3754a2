"""Gauge transformation, effective potentials, first-order operator."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helitube import verify
from helitube.cli import RunConfig
from helitube.geometry import (
    grid_nodes,
    helical_phase,
    metric_h,
    principal_curvatures,
    v_curv,
)
from helitube.operators import (
    apply_laplace_beltrami,
    apply_transformed_operator,
    normalize,
    spectral_derivative,
    spectral_offset,
    v1_apply,
    v1_multiplicative,
    v_eff,
    v_kin,
    wavefield_norm,
)
from helitube.spec import HelixSpec

FIG3 = HelixSpec(kappa=1.0, tau=1.0, rho0=0.1)


def l2(values):
    return float(np.linalg.norm(values.ravel()))


# ------------------------------------------------------------------- params


def test_effective_params():
    # the offset a is the one effective parameter left; eps is spec.epsilon
    a = spectral_offset(HelixSpec(kappa=1.0, tau=1.0, rho0=0.1))
    assert type(a) is float
    assert a == (100.0 + 1.0) / 4.0
    cyl = spectral_offset(HelixSpec(kappa=0.0, tau=1.0, rho0=2.0))
    assert cyl == pytest.approx(1.0 / 16.0)


# ------------------------------------------------------------------- fields


def test_norm_and_normalize_refusals(random_band_limited):
    spec = FIG3
    phi = random_band_limited(spec, 16, 16, np.random.default_rng(0))
    assert wavefield_norm(spec, phi) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="at least 2 dimensions"):
        normalize(spec, np.zeros(4))
    with pytest.raises(ValueError, match="zero field"):
        normalize(spec, np.zeros((4, 4)))


@pytest.mark.parametrize(
    "spec", [FIG3, HelixSpec(kappa=9.0, tau=1.0, rho0=0.1)], ids=["fig3", "eps0.9"]
)
def test_weighted_norm_is_the_flat_norm_of_root_h_psi(spec, random_band_limited):
    # ||Psi||_h, the h-weighted quadrature written out node by node, is the
    # flat norm of Phi = sqrt(h) Psi
    n_s, n_phi = 24, 20
    S, P = grid_nodes(spec, n_s, n_phi)
    h = metric_h(spec, S, P)
    psi = 3.0 * random_band_limited(spec, n_s, n_phi, np.random.default_rng(11))
    area = spec.s_period * spec.varphi_period
    weighted = math.sqrt(
        math.fsum((abs(p) ** 2 * w).item() for p, w in zip(psi.flat, h.flat))
        * area / (n_s * n_phi)
    )
    assert wavefield_norm(spec, np.sqrt(h) * psi) == pytest.approx(
        weighted, rel=1e-12, abs=0.0
    )
    # negative control: the flat norm of Psi itself misses the h weight
    assert abs(wavefield_norm(spec, psi) / weighted - 1.0) > 1e-3


def test_operators_take_real_arrays_and_refuse_one_dimension():
    # collocation_levels hands the operator the real unit fields np.eye(n^2):
    # a real array acts exactly as its complex cast
    spec = HelixSpec(kappa=2.0, tau=-1.3, rho0=0.3)
    unit = np.eye(25).reshape(25, 5, 5)
    noise = np.random.default_rng(3).standard_normal((2, 9, 8))
    ops = (apply_laplace_beltrami, apply_transformed_operator,
           functools.partial(apply_transformed_operator, k_s=0.4), v1_apply)
    for op in ops:
        for real in (unit, noise):
            got = op(spec, real)
            assert got.dtype == complex
            assert got.tobytes() == op(spec, real.astype(complex)).tobytes()
        with pytest.raises(ValueError, match="at least 2 dimensions"):
            op(spec, np.ones(4))
    with pytest.raises(ValueError, match="at least 2 dimensions"):
        wavefield_norm(spec, np.ones(4))


def test_spectral_derivative_exact_on_modes():
    n, period = 32, 2 * math.pi
    x = np.arange(n) * (period / n)
    f = np.exp(1j * 3 * x)[:, None] * np.ones((1, 4))
    df = spectral_derivative(f, 0, period)
    np.testing.assert_allclose(df, 3j * f, atol=1e-12)
    d2 = spectral_derivative(f, 0, period, 2)
    np.testing.assert_allclose(d2, -9.0 * f, atol=1e-11)


# -------------------------------------------------------- Laplace-Beltrami


def test_laplacian_constant_straight_tube():
    spec = HelixSpec(kappa=0.0, tau=1.0, rho0=1.0)
    out = apply_laplace_beltrami(spec, np.ones((8, 8), dtype=complex))
    np.testing.assert_allclose(out, 0.0, atol=1e-13)


def test_laplacian_cylinder_eigenfunction():
    spec = HelixSpec(kappa=0.0, tau=1.0, rho0=0.5)
    n_s, n_phi = 8, 16
    _, P = grid_nodes(spec, n_s, n_phi)
    for n in (1, 2, -3):
        vals = np.exp(1j * n * P)
        out = apply_laplace_beltrami(spec, vals)
        np.testing.assert_allclose(out, (n / spec.rho0) ** 2 * vals, atol=1e-10)


def test_laplacian_metric_vs_expanded_form(
    laplace_beltrami_expanded, random_band_limited
):
    spec = FIG3
    rng = np.random.default_rng(42)
    root_h = np.sqrt(metric_h(spec, *grid_nodes(spec, 64, 64)))
    for _ in range(5):
        psi = random_band_limited(spec, 64, 64, rng) / root_h
        a = apply_laplace_beltrami(spec, psi)
        b = laplace_beltrami_expanded(spec, psi)
        assert l2(a - b) <= 1e-8 * l2(psi)


# -------------------------------------------------------------------- v_kin


def test_v_kin_straight_tube_zero():
    spec = HelixSpec(kappa=0.0, tau=2.0, rho0=0.3)
    s = np.linspace(0, 3, 7)
    assert np.all(v_kin(spec, s, 0.7) == 0.0)


def test_v_kin_against_finite_differences_of_h():
    # independent route: numerical h-derivatives in the same closed formula
    spec = FIG3
    d = 1e-4  # balances FD truncation against roundoff in the 2nd differences
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = rng.uniform(0, 2 * math.pi)
        phi = rng.uniform(-math.pi, math.pi)

        def h(ss, pp):
            return metric_h(spec, ss, pp)

        h0 = h(s, phi)
        h_s = (h(s + d, phi) - h(s - d, phi)) / (2 * d)
        h_ss = (h(s + d, phi) - 2 * h0 + h(s - d, phi)) / d**2
        # varphi derivative = (1/rho0) * phi derivative
        h_v = (h(s, phi + d) - h(s, phi - d)) / (2 * d * spec.rho0)
        h_vv = (h(s, phi + d) - 2 * h0 + h(s, phi - d)) / (d * spec.rho0) ** 2
        expect = (
            0.5 * h_vv / h0
            - 0.25 * h_v**2 / h0**2
            + 0.5 * h_ss / h0**3
            - 1.25 * h_s**2 / h0**4
        )
        assert v_kin(spec, s, phi) == pytest.approx(expect, abs=1e-6, rel=1e-6)


def test_gauge_identity_on_random_fields(random_band_limited):
    # sqrt(h)*(-Lap)(Phi/sqrt(h)) == -d_s(h^-2 d_s Phi) - Phi_vv + V_kin Phi
    spec = FIG3
    rng = np.random.default_rng(123)
    n = 64
    S, P = grid_nodes(spec, n, n)
    h = metric_h(spec, S, P)
    vk = v_kin(spec, S, P)
    for _ in range(20):
        phi = random_band_limited(spec, n, n, rng)
        lhs = np.sqrt(h) * apply_laplace_beltrami(spec, phi / np.sqrt(h))
        ds = lambda v, o=1: spectral_derivative(v, 0, spec.s_period, o)
        flux = -ds(ds(phi) / h**2)
        vv = spectral_derivative(phi, 1, spec.varphi_period, 2)
        rhs = flux - vv + vk * phi
        assert l2(lhs - rhs) <= 1e-8 * l2(phi)


def test_operators_act_on_each_field_of_a_stack(
    laplace_beltrami_expanded, random_band_limited
):
    spec = HelixSpec(kappa=2.0, tau=-1.3, rho0=0.3)
    rng = np.random.default_rng(5)
    single = [random_band_limited(spec, 24, 20, rng) for _ in range(3)]
    for op in (apply_laplace_beltrami, laplace_beltrami_expanded,
               apply_transformed_operator, v1_apply):
        stacked = op(spec, np.stack(single))
        for f, got in zip(single, stacked):
            np.testing.assert_allclose(got, op(spec, f), rtol=0, atol=1e-12)


# verify's check on helices where a fixed 64x64 grid aliased the products
# with powers of h (eps >= 0.4), or an error measured against |Phi| grew
# as tau^2 (|tau| >= 300)
_IDENTITY_HELICES = {
    "eps0.4": dict(kappa=2.0, rho0=0.2),
    "eps0.5": dict(kappa=5.0, rho0=0.1),
    "eps0.9": dict(kappa=9.0, rho0=0.1),
    "tau300": dict(tau=300.0),
    "tau1000": dict(tau=1000.0),
}


@pytest.mark.parametrize("helix", _IDENTITY_HELICES.values(), ids=_IDENTITY_HELICES)
def test_operator_identity_check_passes_on_the_operator(helix):
    check = verify.check_operator_identity(RunConfig(**helix))
    assert check["passed"] is True, check


@pytest.mark.parametrize("helix", _IDENTITY_HELICES.values(), ids=_IDENTITY_HELICES)
def test_operator_identity_check_catches_a_gauge_offset(helix):
    check = verify.check_operator_identity(RunConfig(vkin_offset=0.5, **helix))
    assert check["passed"] is False, check


@pytest.mark.parametrize("scaled", [None, "d_s flux", "d_varphi^2"])
def test_operator_identity_check_catches_a_derivative_error(monkeypatch, scaled):
    # apply_transformed_operator written out term by term, with one
    # derivative term off by 1e-9 relative: the probe fields exercise each
    # term, so either fault fails the check; with none scaled it passes
    def faulty(spec, f):
        S, P = grid_nodes(spec, *f.shape[-2:])
        h = metric_h(spec, S, P)
        ds = lambda v: spectral_derivative(v, -2, spec.s_period)
        flux = -ds(ds(f) / h**2)
        f_vv = spectral_derivative(f, -1, spec.varphi_period, 2)
        if scaled == "d_s flux":
            flux = flux * (1.0 + 1e-9)
        elif scaled == "d_varphi^2":
            f_vv = f_vv * (1.0 + 1e-9)
        return flux - f_vv + v_eff(spec, S, P) * f

    monkeypatch.setattr(verify, "apply_transformed_operator", faulty)
    check = verify.check_operator_identity(RunConfig())
    assert check["passed"] is (scaled is None), check


# -------------------------------------------------------------------- v_eff


def test_v_eff_cylinder():
    spec = HelixSpec(kappa=0.0, tau=1.0, rho0=1.0)
    vals = v_eff(spec, np.linspace(0, 5, 7), 0.4)
    np.testing.assert_allclose(vals, -0.25, atol=1e-15)


def test_v_eff_outer_inner_inequality_sweep():
    # v_eff(0, 0) < v_eff(0, pi) across the eps sweep, kappa = tau = 1
    for j in range(1, 18):
        eps = 0.05 * j
        spec = HelixSpec(kappa=1.0, tau=1.0, rho0=eps)
        assert v_eff(spec, 0.0, 0.0) < v_eff(spec, 0.0, math.pi)


def test_v_eff_ridge_minimum_torsion_dominated():
    # unit-cell argmin sits on theta(s) + phi = 0 for every s row
    spec = HelixSpec(kappa=0.1, tau=1.0, rho0=1.0)
    n = 32
    f = v_eff(spec, *grid_nodes(spec, n, n))
    for i in range(n):
        jmin = int(np.argmin(f[i]))
        # theta + phi = 0 at varphi_j = tau*s_i (rho0 = 1): j = (i + n/2) mod n
        assert jmin == (i + n // 2) % n


# ---------------------------------------------------------- screw symmetry

_SCREW_FUNCTIONS = {
    "h": metric_h,
    "kappa2": lambda spec, s, phi: principal_curvatures(spec, s, phi)[1],
    "v_curv": v_curv,
    "v_kin": v_kin,
    "v_eff": v_eff,
    "v1": v1_multiplicative,
}


def _screw_change(spec, s, shift, twist):
    """Largest change of each pointwise coefficient under (s, phi) ->
    (s + shift, phi + twist), over one turn of phi, relative to its size."""
    phi = np.linspace(-math.pi, math.pi, 9)
    out = {}
    for name, fn in _SCREW_FUNCTIONS.items():
        a = fn(spec, s, phi)
        b = fn(spec, s + shift, phi + twist)
        scale = np.max(np.abs(a))
        out[name] = float(np.max(np.abs(b - a)) / scale) if scale > 0 else 0.0
    return out


@settings(max_examples=200, deadline=None)
@given(
    rho0=st.floats(0.05, 1.5),
    eps=st.floats(0.0, 0.9, exclude_max=True),
    tau=st.floats(0.05, 3.0),
    sign=st.sampled_from((1.0, -1.0)),
    s=st.floats(-10.0, 10.0),
    shift=st.floats(-10.0, 10.0),
)
def test_pointwise_coefficients_are_screw_invariant(rho0, eps, tau, sign, s, shift):
    # every coefficient depends on (s, phi) only through theta(s) + phi
    spec = HelixSpec(kappa=eps / rho0, tau=sign * tau, rho0=rho0)
    change = _screw_change(spec, s, shift, spec.tau * shift)
    assert max(change.values()) <= 1e-11, change


def test_screw_shift_with_wrong_twist_sign_changes_every_coefficient():
    # negative control: phi + tau d undoes the shift s + d, phi - tau d does not
    spec = HelixSpec(kappa=1.0, tau=-1.3, rho0=0.3)
    assert max(_screw_change(spec, 0.8, 0.7, spec.tau * 0.7).values()) <= 1e-11
    wrong = _screw_change(spec, 0.8, 0.7, -spec.tau * 0.7)
    assert min(wrong.values()) > 1e-3, wrong


def _reflection_change(fn, spec, s, phi):
    """Largest change of fn under (s, phi) -> (-s, -phi), relative to its size."""
    a = fn(spec, s, phi)
    return float(np.max(np.abs(fn(spec, -s, -phi) - a)) / np.max(np.abs(a)))


@settings(max_examples=200, deadline=None)
@given(
    rho0=st.floats(0.05, 1.5),
    eps=st.floats(0.0, 0.99),
    log_tau=st.floats(-2.0, 2.0),
    sign=st.sampled_from((1.0, -1.0)),
    s0=st.floats(-10.0, 10.0),
)
def test_v_eff_is_even_about_the_frame_origin(rho0, eps, log_tau, sign, s0):
    # v_eff(-s, -phi) reads cos and sin^2 of exactly -xi: equal to the last bit
    spec = HelixSpec(kappa=eps / rho0, tau=sign * 10.0**log_tau, rho0=rho0)
    s = s0 + np.linspace(-2.0, 2.0, 16)[:, None]
    phi = np.linspace(-math.pi, math.pi, 16)[None, :]
    assert np.array_equal(v_eff(spec, -s, -phi), v_eff(spec, s, phi))


def test_v_eff_evenness_catches_an_odd_term():
    # negative control: a term odd in s of 1e-9 |v| moves it by 2.0e-9
    def odd(spec, s, phi):
        v = v_eff(spec, s, phi)
        return v + 1e-9 * np.abs(v) * np.sin(s)

    s = np.linspace(-2.0, 2.0, 32)[:, None]
    phi = np.linspace(-math.pi, math.pi, 32)[None, :]
    assert _reflection_change(v_eff, FIG3, s, phi) == 0.0
    assert _reflection_change(odd, FIG3, s, phi) > 1e-9


# ------------------------------------------------- transformed operator


def test_transformed_operator_cylinder_closed_form():
    spec = HelixSpec(kappa=0.0, tau=1.0, rho0=0.5)
    n_s, n_phi = 16, 16
    S, P = grid_nodes(spec, n_s, n_phi)
    for n, m in ((0, 0), (1, 2), (-2, 1)):
        k = m * spec.tau  # on-grid longitudinal mode
        vals = np.exp(1j * n * P + 1j * k * S)
        out = apply_transformed_operator(spec, vals)
        expect = (k**2 + (n / spec.rho0) ** 2 - 0.25 / spec.rho0**2) * vals
        np.testing.assert_allclose(out, expect, atol=1e-10)


def test_transformed_operator_hermitian_flat(random_band_limited):
    spec = FIG3
    rng = np.random.default_rng(9)
    for _ in range(5):
        f1 = random_band_limited(spec, 48, 48, rng)
        f2 = random_band_limited(spec, 48, 48, rng)
        o1 = apply_transformed_operator(spec, f1)
        o2 = apply_transformed_operator(spec, f2)
        lhs = np.vdot(f1, o2)
        rhs = np.vdot(o1, f2)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-10


def test_gauge_equivalence_of_operators(random_band_limited):
    # O_PHI(sqrt(h) Psi) = sqrt(h) ( -Lap Psi + V_curv Psi )
    spec = FIG3
    rng = np.random.default_rng(77)
    n = 64
    S, P = grid_nodes(spec, n, n)
    h = metric_h(spec, S, P)
    vc = v_curv(spec, S, P)
    for _ in range(5):
        psi = random_band_limited(spec, n, n, rng) / np.sqrt(h)
        phi = np.sqrt(h) * psi
        lhs = apply_transformed_operator(spec, phi)
        rhs = np.sqrt(h) * (apply_laplace_beltrami(spec, psi) + vc * psi)
        assert l2(lhs - rhs) <= 1e-8 * l2(phi)


# ------------------------------------------------------------ first order


def test_v1_zero_curvature_vanishes(random_band_limited):
    spec = HelixSpec(kappa=0.0, tau=1.0, rho0=0.2)
    rng = np.random.default_rng(1)
    fld = random_band_limited(spec, 16, 16, rng)
    out = v1_apply(spec, fld)
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_v1_constant_field_is_pure_multiplication():
    spec = FIG3
    n = 32
    out = v1_apply(spec, np.ones((n, n), dtype=complex))
    S, P = grid_nodes(spec, n, n)
    expect = v1_multiplicative(spec, S, P)
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_v1_multiplicative_supported_on_single_ray():
    # 2-d Fourier coefficients vanish off the (j, -j) ray
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=0.05)
    n = 32
    S, P = grid_nodes(spec, n, n)
    vals = v1_multiplicative(spec, S, P)
    coef = np.fft.fft2(vals) / vals.size
    ms = np.fft.fftfreq(n, 1.0 / n).astype(int)
    bound = 1e-12 * spec.epsilon * spec.kappa**2
    on_ray_power = 0.0
    for i, mi in enumerate(ms):
        for j, mj in enumerate(ms):
            # x = tau s - varphi/rho0 has grid signature (m_s, m_phi) = (m, -m)
            if mi == -mj:
                on_ray_power += abs(coef[i, j]) ** 2
            else:
                assert abs(coef[i, j]) <= bound
    assert on_ray_power > 0.0


def test_ray_selection_check_catches_an_off_ray_mode(monkeypatch):
    # cos(tau s) is grid mode (1, 0), off the ray; at 1e-9 eps kappa^2 its
    # coefficient is 500 times the tolerance
    cfg = RunConfig()
    assert verify.check_ray_selection(cfg)["passed"] is True
    right = verify.v1_multiplicative

    def off_ray(spec, s, phi):
        extra = 1e-9 * spec.epsilon * spec.kappa**2 * np.cos(spec.tau * s)
        return right(spec, s, phi) + extra

    monkeypatch.setattr(verify, "v1_multiplicative", off_ray)
    check = verify.check_ray_selection(cfg)
    assert check["passed"] is False
    assert check["measured"] >= 100 * check["tolerance"]


def _v1_true_action(spec, values):
    """Measured O(eps) expansion of the full flat-gauge operator.

    eps [ (kappa^2 - tau^2)/2 cos(xb) + 2 cos(xb) d_s^2 + 2 tau sin(xb) d_s ]
    with xb = theta(s) + phi; used as the order-2 reference below.
    """
    xb = helical_phase(spec, *grid_nodes(spec, *values.shape))
    f_s = spectral_derivative(values, 0, spec.s_period)
    f_ss = spectral_derivative(values, 0, spec.s_period, 2)
    return spec.epsilon * (
        0.5 * (spec.kappa**2 - spec.tau**2) * np.cos(xb) * values
        + 2.0 * np.cos(xb) * f_ss
        + 2.0 * spec.tau * np.sin(xb) * f_s
    )


def _first_order_residual(v1_fn, eps, values):
    """L2 norm of (full operator - flat Laplacian + a) Phi - v1_fn(Phi)."""
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=eps)
    a = spectral_offset(spec)
    full = apply_transformed_operator(spec, values)
    flat = (
        -spectral_derivative(values, 0, spec.s_period, 2)
        - spectral_derivative(values, 1, spec.varphi_period, 2)
    )
    first = v1_fn(spec, values)
    return l2(full - flat + a * values - first) / l2(values)


def _band_limited_values(n, seed):
    rng = np.random.default_rng(seed)
    coef = np.zeros((n, n), dtype=complex)
    m = np.fft.fftfreq(n, 1.0 / n).astype(int)
    keep = (np.abs(m)[:, None] <= 3) & (np.abs(m)[None, :] <= 3)
    amp = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    coef[keep] = amp[keep]
    v = np.fft.ifft2(coef)
    return v / np.linalg.norm(v)


@pytest.mark.xfail(
    reason="stated first-order form leaves an O(eps) remainder; see the"
    " companion test for the measured expansion",
)
def test_v1_expansion_order_as_stated():
    values = _band_limited_values(32, 2024)
    err = {
        eps: _first_order_residual(v1_apply, eps, values)
        for eps in (0.02, 0.04)
    }
    order = math.log2(err[0.04] / err[0.02])
    assert order >= 1.8


def test_v1_expansion_order_measured_form():
    values = _band_limited_values(32, 2024)
    err = {
        eps: _first_order_residual(_v1_true_action, eps, values)
        for eps in (0.02, 0.04)
    }
    order = math.log2(err[0.04] / err[0.02])
    assert order >= 1.8
    # and the remainder really is small at eps = 0.02
    assert err[0.02] < 0.05


def test_v1_linear_in_eps():
    n = 24
    values = _band_limited_values(n, 7)
    outs = {}
    for eps in (0.02, 0.04):
        spec = HelixSpec(kappa=1.0, tau=1.0, rho0=eps)
        outs[eps] = v1_apply(spec, values)
    np.testing.assert_allclose(outs[0.04], 2.0 * outs[0.02], rtol=1e-12)

"""Surface embedding and its frame, metric factor, curvatures."""

import copy
import math
import pickle
from typing import NamedTuple

import numpy as np
import pytest

from helitube import spec as spec_module
from helitube.geometry import (
    grid_nodes,
    helical_phase,
    metric_h,
    principal_curvatures,
    rotation_angle,
    surface_point,
    v_curv,
)
from helitube.cli import main
from helitube.operators import v_eff
from helitube.spec import (
    DegenerateCurve,
    DegeneratePeriod,
    EmbeddingViolation,
    HelixSpec,
)

FIG3 = HelixSpec(kappa=1.0, tau=1.0, rho0=0.1)


# ---------------------------------------------------------------- spec object


def test_spec_validation():
    with pytest.raises(ValueError):
        HelixSpec(kappa=1.0, tau=1.0, rho0=0.0)
    with pytest.raises(ValueError):
        HelixSpec(kappa=-1.0, tau=1.0, rho0=0.1)
    with pytest.raises(ValueError):
        HelixSpec(kappa=math.inf, tau=1.0, rho0=0.1)
    with pytest.raises(EmbeddingViolation):
        HelixSpec(kappa=1.0, tau=1.0, rho0=1.0)
    with pytest.raises(EmbeddingViolation):
        HelixSpec(kappa=2.0, tau=0.0, rho0=0.7)


# HelixSpec is the one judge of a computable helix: a scale whose fourth
# power (a squared energy) overflows, or a nonzero tau whose squared period
# does, is refused with the text the command line prints
@pytest.mark.parametrize("kappa, tau, rho0, start", [
    (0.0, 1.2e77, 1.0, "tau = 1.2e+77 is too large"),
    (0.0, 1.0, 1e-78, "1/rho0 = 1e+78 is too large"),
    (1.2e77, 1.0, 1e-78, "kappa = 1.2e+77 is too large"),
    (0.0, 1e-160, 0.1, "tau = 1e-160 is too small"),
], ids=["tau", "inverse-rho0", "kappa", "period"])
def test_spec_refuses_overflowing_scales(tmp_path, capsys, kappa, tau, rho0, start):
    with pytest.raises(ValueError) as exc:
        HelixSpec(kappa=kappa, tau=tau, rho0=rho0)
    assert str(exc.value).startswith(start)
    argv = ["geometry", "--kappa", repr(kappa), "--tau", repr(tau),
            "--rho0", repr(rho0), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"configuration error: {exc.value}\n"


def test_spec_builds_one_notch_inside_its_limits():
    for tau, rho0 in [(1e77, 1.0), (1.0, 1e-77), (1e-150, 0.1)]:
        HelixSpec(kappa=0.0, tau=tau, rho0=rho0)
    # the straight tube stays a helix of the library, with no period
    with pytest.raises(DegeneratePeriod):
        HelixSpec(kappa=0.0, tau=0.0, rho0=1.0).s_period


def _assert_value_contract(cls):
    """cls keeps HelixSpec's contract: an immutable value that only the
    constructor, with its checks, can make."""
    spec = cls(1.0, 1.0, 0.1)
    same = cls(kappa=1.0, tau=1.0, rho0=0.1)
    assert spec == same and hash(spec) == hash(same)
    assert spec != cls(1.0, 1.0, 0.2)
    assert {spec: "fig3"}[same] == "fig3"
    assert repr(same) == "HelixSpec(kappa=1.0, tau=1.0, rho0=0.1)"
    with pytest.raises(AttributeError):
        spec.kappa = 2
    with pytest.raises(AttributeError):
        del spec.kappa
    assert (spec.kappa, spec.tau, spec.rho0) == (1.0, 1.0, 0.1)
    # a route to a new spec that skips the checks is no route at all
    with pytest.raises((AttributeError, ValueError)):
        spec._replace(rho0=5.0)
    assert copy.copy(spec) == spec == copy.deepcopy(spec)


def test_spec_is_an_immutable_checked_value():
    _assert_value_contract(HelixSpec)
    assert pickle.loads(pickle.dumps(FIG3)) == FIG3
    # a value of its own kind, equal to no tuple of its fields
    assert (HelixSpec(1.0, 1.0, 0.1) == (1.0, 1.0, 0.1)) is False


def test_value_contract_refuses_a_namedtuple_spec():
    # negative control: a NamedTuple subclass that checks in __new__ passes
    # every other clause, but its _replace builds eps = 5 unchecked
    class Fields(NamedTuple):
        kappa: float
        tau: float
        rho0: float

    class HelixSpec(Fields):  # noqa: F811 (a scratch stand-in; repr reads the name)
        __slots__ = ()

        def __new__(cls, kappa, tau, rho0):
            spec_module.HelixSpec(kappa, tau, rho0)
            return super().__new__(cls, kappa, tau, rho0)

    assert HelixSpec(1.0, 1.0, 0.1)._replace(rho0=5.0).rho0 == 5.0
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        _assert_value_contract(HelixSpec)


def test_spec_derived_parameters():
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=0.1)
    assert spec.epsilon == pytest.approx(0.1)
    assert spec.helix_radius == pytest.approx(0.5)
    assert spec.pitch == pytest.approx(0.5)
    # R, p invert back to kappa, tau
    R, p = spec.helix_radius, spec.pitch
    assert R / (R**2 + p**2) == pytest.approx(spec.kappa, rel=1e-14)
    assert p / (R**2 + p**2) == pytest.approx(spec.tau, rel=1e-14)
    assert spec.s_period == pytest.approx(2 * math.pi)
    assert spec.varphi_period == pytest.approx(0.2 * math.pi)


def test_straight_tube_allowed_but_has_no_frame():
    spec = HelixSpec(kappa=0.0, tau=0.0, rho0=1.0)
    assert spec.epsilon == 0.0
    with pytest.raises(DegenerateCurve):
        surface_point(spec, 0.0, 0.0)
    with pytest.raises(DegeneratePeriod):
        _ = spec.s_period


# ------------------------------------------------------------ rotation angle


def test_rotation_angle_values():
    assert rotation_angle(HelixSpec(1.0, 1.0, 0.1), math.pi) == pytest.approx(-math.pi)
    assert rotation_angle(HelixSpec(1.0, 0.0, 0.1), 5.0) == 0.0
    assert rotation_angle(HelixSpec(1.0, 2.0, 0.1), 3.0) == pytest.approx(-6.0)


# -------------------------------------------------------- frame, embedded
# The frames are internal to surface_point; these tests read them back from
# the embedding.  The base curve is the mean of X over uniform phi nodes.


def _base_curve(spec, s):
    phi = np.arange(8) * (2 * math.pi / 8)
    return surface_point(spec, np.asarray(s, dtype=float)[..., None], phi).mean(axis=-2)


def test_unit_circle_frame():
    # kappa = 1, tau = 0 at s = 0: x = (1, 0, 0), n = (-1, 0, 0), b = (0, 0, 1)
    spec = HelixSpec(kappa=1.0, tau=0.0, rho0=0.1)
    np.testing.assert_allclose(surface_point(spec, 0.0, 0.0), [1.1, 0.0, 0.0],
                               atol=1e-15)
    np.testing.assert_allclose(surface_point(spec, 0.0, math.pi / 2),
                               [1.0, 0.0, -0.1], atol=1e-15)
    np.testing.assert_allclose(surface_point(spec, 0.0, math.pi), [0.9, 0.0, 0.0],
                               atol=1e-15)


@pytest.mark.parametrize(
    "kappa,tau", [(1.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.0, 2.0), (2.0, -1.0)]
)
def test_frame_orthonormal_and_right_handed(kappa, tau):
    # (t, nu, e_varphi): the base curve's tangent, the unit normal
    # (X - x)/rho0 and dX/dvarphi form a right-handed orthonormal frame
    spec = HelixSpec(kappa=kappa, tau=tau, rho0=0.1)
    d = 1e-5
    for s in np.linspace(-3.0, 7.0, 11):
        t = (_base_curve(spec, s + d) - _base_curve(spec, s - d)) / (2 * d)
        for phi in (-2.0, 0.3, 1.9):
            nu = (surface_point(spec, s, phi) - _base_curve(spec, s)) / spec.rho0
            e_v = (surface_point(spec, s, phi + d) - surface_point(spec, s, phi - d)) / (
                2 * d * spec.rho0
            )
            assert abs(np.linalg.norm(nu) - 1.0) < 1e-12
            assert abs(np.linalg.norm(e_v) - 1.0) < 1e-8
            assert abs(np.dot(t, nu)) < 1e-8
            np.testing.assert_allclose(np.cross(t, nu), e_v, atol=1e-8)


@pytest.mark.parametrize("kappa,tau", [
    (1.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.0, 1.5), (0.0, 2.0), (2.0, -1.0), (0.5, -0.8),
])
def test_frenet_odes_by_central_differences(kappa, tau):
    # the base curve has unit speed, curvature kappa and torsion tau (the
    # Frenet equations' coefficients), sign included; worst 2.2e-6 at d = 1e-3
    spec = HelixSpec(kappa=kappa, tau=tau, rho0=0.1)
    d = 1e-3
    for s in (0.0, 1.3, 2 * math.pi):
        c = _base_curve(spec, s + d * np.arange(-2, 3))
        c1 = (c[3] - c[1]) / (2 * d)
        c2 = (c[3] - 2 * c[2] + c[1]) / d**2
        c3 = (c[4] - 2 * c[3] + 2 * c[1] - c[0]) / (2 * d**3)
        cross = np.cross(c1, c2)
        assert abs(np.linalg.norm(c1) - 1.0) < 1e-5
        assert abs(np.linalg.norm(cross) - kappa) < 1e-5
        if kappa > 0:
            assert abs(np.dot(cross, c3) / np.dot(cross, cross) - tau) < 1e-5


def test_rotated_frame_reference_point_and_half_turn():
    # theta(0) = 0 puts phi = 0 on the outside of the bend, at -rho0 n(0);
    # theta(pi) = -pi turns it to the inside, theta(2 pi) back out, with
    # n(s) = (-cos(alpha s), -sin(alpha s), 0) the helix's principal normal
    spec = FIG3
    for s, side in ((0.0, -1.0), (math.pi, 1.0), (2 * math.pi, -1.0)):
        a = spec.alpha * s
        n = np.array([-math.cos(a), -math.sin(a), 0.0])
        np.testing.assert_allclose(
            surface_point(spec, s, 0.0) - _base_curve(spec, s),
            side * spec.rho0 * n, atol=1e-14,
        )


def test_rotated_frame_zero_torsion_never_rotates():
    # tau = 0: every cross-section is the s = 0 one carried round the z axis
    spec = HelixSpec(kappa=1.0, tau=0.0, rho0=0.1)
    phi = np.linspace(-math.pi, math.pi, 9)
    X0 = surface_point(spec, 0.0, phi)
    for s in (2.0, -5.0):
        c, sn = math.cos(s), math.sin(s)
        rot = np.array([[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(surface_point(spec, s, phi), X0 @ rot.T, atol=1e-15)


# ------------------------------------------------------------------- surface


def test_surface_point_at_reference():
    # FIG3 at s = 0: t = x'(0) = (0, 1, 1)/sqrt 2, n = x''(0)/kappa = (-1, 0, 0)
    # and b = t x n; N = n and B = b, as theta(0) = 0
    t = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
    n = np.array([-1.0, 0.0, 0.0])
    b = np.cross(t, n)
    base = np.array([0.5, 0.0, 0.0])
    np.testing.assert_allclose(surface_point(FIG3, 0.0, 0.0), base - 0.1 * n, atol=1e-15)
    # phi = pi/2 picks out -rho0 b
    np.testing.assert_allclose(
        surface_point(FIG3, 0.0, math.pi / 2), base - 0.1 * b, atol=1e-15
    )


def test_torus_bounding_annulus():
    # tau = 0, kappa = 1: tube around the unit circle; axis distance in [0.9, 1.1]
    spec = HelixSpec(kappa=1.0, tau=0.0, rho0=0.1)
    s = np.linspace(0.0, 2 * math.pi, 40)[:, None]
    phi = np.linspace(-math.pi, math.pi, 41)[None, :]
    X = surface_point(spec, s, phi)
    rho_axis = np.hypot(X[..., 0], X[..., 1])
    assert rho_axis.min() >= 0.9 - 1e-12
    assert rho_axis.max() <= 1.1 + 1e-12
    # torus is flat in z within the tube radius
    assert np.max(np.abs(X[..., 2])) <= 0.1 + 1e-12


def test_first_fundamental_form():
    # |dX/dvarphi| = 1, |dX/ds| = h, and the two are orthogonal: X_s . X_varphi
    # = 0 is the frame's no-twist condition, and |X_s| = h pins theta = -tau s
    d = 1e-6
    rng = np.random.default_rng(7)
    for spec in (
        FIG3,
        HelixSpec(kappa=0.5, tau=-0.8, rho0=0.1),
        HelixSpec(kappa=0.0, tau=2.0, rho0=0.1),
        HelixSpec(kappa=1.0, tau=0.0, rho0=0.1),
    ):
        for _ in range(8):
            s = rng.uniform(0, 2 * math.pi)
            phi = rng.uniform(-math.pi, math.pi)
            Xs = (surface_point(spec, s + d, phi) - surface_point(spec, s - d, phi)) / (
                2 * d
            )
            # varphi = rho0*phi, so d/dvarphi = (1/rho0) d/dphi
            Xv = (surface_point(spec, s, phi + d) - surface_point(spec, s, phi - d)) / (
                2 * d * spec.rho0
            )
            h = metric_h(spec, s, phi)
            assert abs(np.linalg.norm(Xv) - 1.0) < 1e-8
            assert abs(np.linalg.norm(Xs) - h) < 1e-8
            assert abs(np.dot(Xs, Xv)) < 1e-8


def _rotated_normals(spec, s):
    """(N, B) read back from the embedding: X(s, phi) = x(s) - rho0 (sin(phi) B
    + cos(phi) N), so opposite points of a cross-section differ by 2 rho0 N or
    2 rho0 B."""
    X = surface_point(spec, s, np.array([0.0, math.pi, math.pi / 2, -math.pi / 2]))
    return (X[1] - X[0]) / (2 * spec.rho0), (X[3] - X[2]) / (2 * spec.rho0)


@pytest.mark.parametrize("kappa,tau", [(1.0, 1.0), (0.5, -0.8), (0.0, 2.0)])
def test_rotated_frame_has_no_tangential_twist(kappa, tau):
    # (dN/ds).B must vanish: the rotated frame does not spin about t
    spec = HelixSpec(kappa=kappa, tau=tau, rho0=0.1)
    ds = 1e-5
    for s in (0.0, 0.7, 3.1):
        Np, _ = _rotated_normals(spec, s + ds)
        Nm, _ = _rotated_normals(spec, s - ds)
        N0, B0 = _rotated_normals(spec, s)
        dN = (Np - Nm) / (2 * ds)
        assert abs(np.dot(dN, B0)) < 1e-8
        # and dN/ds stays parallel to t
        assert abs(np.dot(dN, N0)) < 1e-8


# -------------------------------------------------------------------- metric


def test_metric_h_values():
    spec = FIG3
    assert metric_h(spec, 0.0, 0.0) == pytest.approx(1.1, abs=1e-15)
    assert metric_h(spec, 0.0, math.pi) == pytest.approx(0.9, abs=1e-15)
    straight = HelixSpec(kappa=0.0, tau=1.0, rho0=0.5)
    assert np.all(metric_h(straight, np.linspace(0, 5, 9), 0.3) == 1.0)


def test_metric_h_positive_and_stretched_outside():
    for eps in (0.1, 0.5, 0.9):
        spec = HelixSpec(kappa=1.0, tau=1.0, rho0=eps)
        s = np.linspace(0, spec.s_period, 64, endpoint=False)
        phi = np.linspace(-math.pi, math.pi, 65)
        h = metric_h(spec, s[:, None], phi[None, :])
        assert h.min() > 0.0
        # outside of the bend (phi=0 at s=0) is stretched, inside compressed
        assert metric_h(spec, 0.0, 0.0) > metric_h(spec, 0.0, math.pi)


# ---------------------------------------------------------------- curvatures


def test_weingarten_values(weingarten):
    W = weingarten(FIG3, 0.0, 0.0)
    assert W[0, 1] == 0.0 and W[1, 0] == 0.0
    assert W[0, 0] == pytest.approx(10.0, rel=1e-15)
    assert W[1, 1] == pytest.approx(1.0 / 1.1, rel=1e-14)
    cyl = HelixSpec(kappa=0.0, tau=1.0, rho0=0.25)
    np.testing.assert_allclose(weingarten(cyl, 1.0, 2.0), [[4.0, 0.0], [0.0, 0.0]])


def test_weingarten_eigenvalues_match_principal_curvatures(weingarten):
    rng = np.random.default_rng(11)
    wrong = []
    for _ in range(6):
        spec = HelixSpec(
            kappa=rng.uniform(0.1, 2.0), tau=rng.uniform(-2.0, 2.0), rho0=0.1
        )
        s = rng.uniform(-3, 3)
        phi = rng.uniform(-math.pi, math.pi)
        W = weingarten(spec, s, phi)
        k1, k2, M, K = principal_curvatures(spec, s, phi)
        assert abs(W[0, 0] - k1) < 1e-12
        assert abs(W[1, 1] - k2) < 1e-12
        assert M == pytest.approx((k1 + k2) / 2, rel=1e-15)
        assert K == pytest.approx(np.trace(W @ W - W * np.trace(W)) * -0.5, rel=1e-12)
        assert K == pytest.approx(np.linalg.det(W), rel=1e-12)
        # negative control: kappa2 without its 1/h (misses by up to 0.30)
        eig = np.sort(np.linalg.eigvalsh(W))
        bare = spec.kappa * math.cos(helical_phase(spec, s, phi))
        wrong.append(np.max(np.abs(eig - np.sort([k1, bare]))))
    assert max(wrong) > 1e-12


def test_principal_curvature_inner_edge():
    k1, k2, M, K = principal_curvatures(FIG3, 0.0, math.pi)
    assert k1 == pytest.approx(10.0)
    assert k2 == pytest.approx(-1.0 / 0.9, rel=1e-14)


def test_torus_total_gauss_curvature_vanishes():
    # integral of K over the closed torus is zero (genus one)
    spec = HelixSpec(kappa=1.0, tau=0.0, rho0=0.1)
    n_s, n_phi = 64, 64
    s = np.arange(n_s) * (2 * math.pi / n_s)
    phi = -math.pi + np.arange(n_phi) * (2 * math.pi / n_phi)
    S, PHI = np.meshgrid(s, phi, indexing="ij")
    _, _, _, K = principal_curvatures(spec, S, PHI)
    h = metric_h(spec, S, PHI)
    # area element h ds * rho0 dphi; midpoint rule is exact for trig polynomials
    total = np.sum(K * h) * (2 * math.pi / n_s) * (2 * math.pi / n_phi) * spec.rho0
    assert abs(total) < 1e-8


# ------------------------------------------------------------------- v_curv


def test_v_curv_values():
    cyl = HelixSpec(kappa=0.0, tau=1.0, rho0=1.0)
    assert v_curv(cyl, 0.3, 1.7) == pytest.approx(-0.25, abs=1e-15)
    assert v_curv(FIG3, 0.0, 0.0) == pytest.approx(-1.0 / (4 * 0.01 * 1.21), rel=1e-12)
    assert v_curv(FIG3, 0.0, 0.0) == pytest.approx(-20.661157024793386, rel=1e-12)


def test_v_curv_identity_and_negativity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        spec = HelixSpec(
            kappa=rng.uniform(0.0, 2.0), tau=rng.uniform(-2.0, 2.0), rho0=0.3
        )
        s = rng.uniform(-5, 5)
        phi = rng.uniform(-math.pi, math.pi)
        k1, k2, M, K = principal_curvatures(spec, s, phi)
        v = v_curv(spec, s, phi)
        assert v < 0.0
        assert v == pytest.approx(-(M**2 - K), rel=1e-12)
        assert v == pytest.approx(-((k1 - k2) ** 2) / 4, rel=1e-12)


def test_surface_sample_bundle():
    # every pointwise quantity at the cell node (s, phi) = (0, 0)
    S, P = grid_nodes(FIG3, 8, 8)
    s, phi = S[0, 4], P[0, 4]
    assert s == 0.0 and FIG3.rho0 * phi == pytest.approx(0.0, abs=1e-15)
    kappa1, kappa2, M, K = principal_curvatures(FIG3, s, phi)
    assert metric_h(FIG3, s, phi) == pytest.approx(1.1)
    assert kappa1 == pytest.approx(10.0)
    assert M == pytest.approx((kappa1 + kappa2) / 2)
    assert K == pytest.approx(kappa1 * kappa2)
    assert surface_point(FIG3, s, phi).shape == (3,)


# ------------------------------------------------------------- field sampling


def test_sample_field_h_straight_tube_is_one():
    spec = HelixSpec(kappa=0.0, tau=1.0, rho0=0.5)
    h = metric_h(spec, *grid_nodes(spec, 8, 8))
    assert h.shape == (8, 8)
    assert np.all(h == 1.0)


def test_sample_field_nodes_and_reflection_symmetry():
    S, P = grid_nodes(FIG3, 16, 12)
    assert S.shape == P.shape == (16, 12)
    # s-major mesh: s varies along axis 0 only, phi along axis 1 only
    assert np.all(S == S[:, :1]) and np.all(P == P[:1])
    assert S[0, 0] == 0.0
    assert FIG3.rho0 * P[0, 0] == pytest.approx(-math.pi * 0.1)
    assert S[1, 0] - S[0, 0] == pytest.approx(FIG3.s_period / 16)
    # h(s, phi) = h(-s, -phi): index map (i, j) -> (-i mod n, -j mod n)
    v = metric_h(FIG3, S, P)
    i = np.arange(16)[:, None]
    j = np.arange(12)[None, :]
    refl = v[(-i) % 16, (-j) % 12]
    # exact up to floating-point roundoff in the cos argument
    np.testing.assert_allclose(v, refl, rtol=0.0, atol=1e-14)


def test_sample_field_values_match_pointwise_ops():
    # the whole-mesh call equals scalar calls at the nodes written out
    grid = v_curv(FIG3, *grid_nodes(FIG3, 8, 10))
    L, c = FIG3.s_period, FIG3.varphi_period
    direct = [
        [v_curv(FIG3, i * (L / 8), (-math.pi * FIG3.rho0 + j * (c / 10)) / FIG3.rho0)
         for j in range(10)]
        for i in range(8)
    ]
    np.testing.assert_allclose(grid, direct, rtol=1e-15)


def test_sample_field_degenerate_period():
    torus = HelixSpec(kappa=1.0, tau=0.0, rho0=0.1)
    with pytest.raises(DegeneratePeriod):
        grid_nodes(torus, 8, 8)


def test_sample_field_veff_argmin_on_outside():
    # effective potential at s=0 is deepest at phi=0 (outer edge) in the
    # torsion-dominated regime tau^2*rho0^2 > eps^2
    spec = HelixSpec(kappa=0.1, tau=1.0, rho0=1.0)
    S, P = grid_nodes(spec, 16, 64)
    row = v_eff(spec, S, P)[0]
    jmin = int(np.argmin(row))
    assert abs(spec.rho0 * P[0, jmin]) < 1e-12

"""Acceptance gate: one check per release criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured
values next to their required bounds.
"""

import json
import math
import time

import numpy as np

from helitube.geometry import (
    grid_nodes,
    metric_h,
    principal_curvatures,
    surface_point,
)
from helitube.operators import (
    apply_laplace_beltrami,
    spectral_derivative,
    v_eff,
    v_kin,
    v1_multiplicative,
)
from helitube.bloch import (
    effective_mass,
    near_boundary_expansion,
    ray_amplitude,
    ray_vector,
    two_band_energies,
    two_band_gap,
    zone_boundary_k,
)
from helitube.oracle import (
    gap_perturbed,
    screw_eigenvalues,
)
from helitube.bloch import BlochVector
from helitube.cli import main as cli_main
from helitube.spec import HelixSpec

FIG3 = HelixSpec(kappa=1.0, tau=1.0, rho0=0.1)


def verdict(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok


def l2(v):
    return float(np.linalg.norm(v))


def test_criterion_01_cylinder_limit():
    t0 = time.monotonic()
    spec = HelixSpec(kappa=0.0, tau=5.0, rho0=1.0)
    exact = np.sort([n * n - 0.25 for n in range(-3, 4)])
    grids = (16, 32, 48, 64)
    levels = {
        g: screw_eigenvalues(spec, BlochVector(0.0, 0), g, g, 7) for g in grids
    }
    # the error is polynomial in dv^2, so Lagrange-extrapolate to dv = 0
    xs = np.array([(2 * math.pi / g) ** 2 for g in grids])
    extrap = np.zeros(7)
    for i, g in enumerate(grids):
        w = 1.0
        for j in range(len(grids)):
            if j != i:
                w *= (0.0 - xs[j]) / (xs[i] - xs[j])
        extrap += w * levels[g]
    rel = float(np.max(np.abs(extrap - exact) / np.abs(exact)))
    elapsed = time.monotonic() - t0
    ok = rel <= 1e-6 and elapsed < 30.0
    verdict(
        1, ok,
        f"extrapolated rel err {rel:.3e} (<= 1e-06) in {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_potential_inequality():
    eps_values = [0.05 * j for j in range(1, 19)]
    holds = []
    for eps in eps_values:
        spec = HelixSpec(kappa=1.0, tau=1.0, rho0=eps)
        holds.append(
            v_eff(spec, 0.0, 0.0) < v_eff(spec, 0.0, math.pi)
        )
    ok = all(holds)
    verdict(
        2, ok,
        f"v_eff(0,0) < v_eff(0,pi) holds for {sum(holds)}/18 eps values "
        "(exact predicate)",
    )


def test_criterion_03_operator_identity(random_band_limited):
    spec = FIG3
    n = 64
    rng = np.random.default_rng(123)
    S, P = grid_nodes(spec, n, n)
    h = metric_h(spec, S, P)
    vk = v_kin(spec, S, P)
    worst = 0.0
    for _ in range(20):
        phi = random_band_limited(spec, n, n, rng)
        lhs = np.sqrt(h) * apply_laplace_beltrami(spec, phi / np.sqrt(h))
        d_s = spectral_derivative(phi, 0, spec.s_period)
        flux = -spectral_derivative(d_s / h**2, 0, spec.s_period)
        vv = spectral_derivative(phi, 1, spec.varphi_period, 2)
        rhs = flux - vv + vk * phi
        worst = max(worst, l2(lhs - rhs) / l2(phi))
    ok = worst <= 1e-8
    verdict(3, ok, f"worst relative L2 residual {worst:.3e} (<= 1e-08)")


def test_criterion_04_ray_selection():
    spec = FIG3
    n = 64
    coef = np.fft.fft2(v1_multiplicative(spec, *grid_nodes(spec, n, n))) / n**2
    ms = np.fft.fftfreq(n, 1.0 / n).astype(int)
    on_ray = ms[None, :] == -ms[:, None]
    off = float(np.max(np.abs(np.where(on_ray, 0.0, coef))))
    tol = 1e-12 * spec.epsilon * spec.kappa**2
    ok = off <= tol
    verdict(4, ok, f"max off-ray Fourier magnitude {off:.3e} (<= {tol:.1e})")


def test_criterion_05_gap_existence_and_scaling():
    t0 = time.monotonic()
    eps_values = [0.01, 0.02, 0.03, 0.04, 0.05]
    specs = {e: HelixSpec(kappa=1.0, tau=1.0, rho0=e) for e in eps_values}
    tb = {e: two_band_gap(specs[e]) for e in eps_values}
    orc = {e: gap_perturbed(specs[e]) for e in eps_values}
    positive = all(tb[e] > 0 and orc[e] > 0 for e in eps_values)
    xs = np.array(eps_values)
    gs = np.array([orc[e] for e in eps_values])
    slope = float(xs @ gs) / float(xs @ xs)
    ss_res = float(np.sum((gs - slope * xs) ** 2))
    ss_tot = float(np.sum((gs - gs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    slope_ratio = slope / 0.25  # kappa^2/4 = 0.25
    rel = {}
    for e in (0.05, 0.025, 0.0125):
        spec_e = HelixSpec(kappa=1.0, tau=1.0, rho0=e)
        g_t, g_o = two_band_gap(spec_e), gap_perturbed(spec_e)
        rel[e] = abs(g_t - g_o) / g_o
    shrinking = rel[0.05] > rel[0.025] > rel[0.0125]
    elapsed = time.monotonic() - t0
    ok = (
        positive
        and r2 >= 0.999
        and 0.5 <= slope_ratio <= 2.0
        and rel[0.05] <= 0.10
        and shrinking
        and elapsed < 120.0
    )
    verdict(
        5, ok,
        f"gaps positive, R^2 {r2:.6f} (>= 0.999), slope/(k^2/4) "
        f"{slope_ratio:.3f} (in [0.5, 2]), rel diff at 0.05 {rel[0.05]:.2e} "
        f"(<= 0.10) shrinking {rel[0.05]:.2e} > {rel[0.025]:.2e} > "
        f"{rel[0.0125]:.2e}, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_06_curvature_energy_advantage():
    helix = HelixSpec(kappa=1.0, tau=1.0, rho0=0.05)  # epsilon = 0.05
    ground = screw_eigenvalues(helix, BlochVector(0.0, 0), 64, 64, 1)[0]
    cylinder = -0.25 / helix.rho0**2
    deficit = cylinder - ground
    dev = abs(deficit - 0.25) / 0.25
    ok = ground < cylinder and dev <= 0.25
    verdict(
        6, ok,
        f"helix ground {ground:.4f} < cylinder {cylinder:.4f}, deficit "
        f"{deficit:.4f} vs kappa^2/4 = 0.25 (dev {dev:.2%} <= 25%)",
    )


def test_criterion_07_two_band_consistency():
    free = HelixSpec(kappa=0.0, tau=1.0, rho0=0.1)
    a = (1.0 / free.rho0**2) / 4.0
    worst = 0.0
    for k_s in (-0.5, -0.3, 0.0, 0.2):
        kv = np.array([k_s, 0.0])
        kk = kv + ray_vector(free)
        want = np.sort([kv @ kv - a, kk @ kk - a])
        got = np.asarray(two_band_energies(free, tuple(kv)))
        worst = max(worst, float(np.max(np.abs(got - want))))
    # near-boundary expansion against the closed roots, inside its window
    spec = HelixSpec(kappa=1.0, tau=0.004, rho0=0.05)
    G = 0.01 * spec.tau
    K = ray_vector(spec)
    K2 = float(K @ K)
    t1 = ray_amplitude(spec, 1, -spec.tau / 2)
    t2 = ray_amplitude(spec, -1, spec.tau / 2)
    u2 = (t1 * t2).real
    bound = K2 * G**2 / u2
    nb = near_boundary_expansion(spec, G)
    kv = zone_boundary_k(spec) + G * K / np.linalg.norm(K)
    tbv = two_band_energies(spec, tuple(kv))
    nb_ok = all(
        abs(e_nb - e_tb) <= bound * abs(e_tb) for e_nb, e_tb in zip(nb, tbv)
    )
    ok = worst <= 1e-12 and nb_ok
    verdict(
        7, ok,
        f"free-root max dev {worst:.3e} (<= 1e-12, roundoff), boundary "
        f"expansion within K^2 G^2/U^2 = {bound:.2e} of the closed roots",
    )


def test_criterion_08_effective_mass(fd_hessian):
    spec = HelixSpec(kappa=1.0, tau=1.0, rho0=0.05)
    rng = np.random.default_rng(31)
    worst = 0.0
    # fixed-step differences lose accuracy when |E| is large, so keep the
    # random transverse component of order tau (away from resonance too)
    for _ in range(10):
        kv = (
            rng.uniform(-0.5, 0.5) * spec.tau,
            rng.uniform(-2.0, 2.0) * abs(spec.tau),
        )
        for band in (0, 1):
            h_fd = fd_hessian(spec, kv, band)
            h_an = np.linalg.inv(effective_mass(spec, kv, band)) * 2.0
            worst = max(
                worst, l2(h_fd - h_an) / l2(h_an)
            )
    ok = worst <= 1e-4
    verdict(8, ok, f"worst Hessian rel dev {worst:.3e} (<= 1e-04)")


def test_criterion_09_geometry_suite(weingarten):
    spec = FIG3
    rng = np.random.default_rng(5)
    # shape operator eigenvalues against the closed principal curvatures
    w_dev = 0.0
    for _ in range(16):
        s = rng.uniform(0.0, spec.s_period)
        phi = rng.uniform(-math.pi, math.pi)
        eig = np.sort(np.linalg.eigvalsh(weingarten(spec, s, phi)))
        k1, k2, _, _ = principal_curvatures(spec, s, phi)
        w_dev = max(w_dev, float(np.max(np.abs(eig - np.sort([k1, k2])))))
    # first fundamental form from finite differences of the embedding
    d = 1e-6
    f_dev = 0.0
    for _ in range(8):
        s = rng.uniform(0.0, spec.s_period)
        phi = rng.uniform(-math.pi, math.pi)
        Xs = (
            surface_point(spec, s + d, phi) - surface_point(spec, s - d, phi)
        ) / (2 * d)
        Xv = (
            surface_point(spec, s, phi + d) - surface_point(spec, s, phi - d)
        ) / (2 * d * spec.rho0)
        h = metric_h(spec, s, phi)
        f_dev = max(
            f_dev,
            abs(np.linalg.norm(Xv) - 1.0),
            abs(np.linalg.norm(Xs) - h),
            abs(float(np.dot(Xs, Xv))),
        )
    # reflection symmetry of the metric factor
    ds = np.linspace(0.0, spec.s_period, 33)
    phis = np.linspace(-math.pi, math.pi, 29)
    refl = float(
        np.max(
            np.abs(
                metric_h(spec, ds[:, None], phis[None, :])
                - metric_h(spec, -ds[:, None], -phis[None, :])
            )
        )
    )
    # total Gauss curvature of the closed torus
    torus = HelixSpec(kappa=1.0, tau=0.0, rho0=0.1)
    n = 64
    s = np.arange(n) * (2 * math.pi / n)
    phi = -math.pi + np.arange(n) * (2 * math.pi / n)
    S, P = np.meshgrid(s, phi, indexing="ij")
    _, _, _, gauss = principal_curvatures(torus, S, P)
    h = metric_h(torus, S, P)
    total = float(
        np.sum(gauss * h) * (2 * math.pi / n) ** 2 * torus.rho0
    )
    ok = (
        w_dev <= 1e-12
        and f_dev <= 1e-8
        and refl <= 1e-14
        and abs(total) <= 1e-8
    )
    verdict(
        9, ok,
        f"Weingarten dev {w_dev:.1e} (<= 1e-12), fundamental-form dev "
        f"{f_dev:.1e} (<= 1e-08), reflection dev {refl:.1e} (roundoff), "
        f"torus total curvature {abs(total):.1e} (<= 1e-08)",
    )


def test_criterion_10_determinism(tmp_path):
    args = [
        "bands", "--grid", "16x12", "--kpath", "0:-0.5:5",
    ]
    assert cli_main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1" / "bands.csv").read_bytes()
    b2 = (tmp_path / "r2" / "bands.csv").read_bytes()
    s1 = json.loads((tmp_path / "r1" / "summary.json").read_text())
    ok = b1 == b2 and s1["a"] == 25.25
    verdict(
        10, ok,
        f"consecutive runs byte-identical ({len(b1)} bytes), summary a = "
        f"{s1['a']}",
    )

"""End-to-end checks of the command-line artifacts and exit codes."""

import importlib.util
import json
import math
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import helitube
from helitube import cli, geometry
from helitube.cli import ConfigError, RunConfig, build_config, fmt, main
from helitube.geometry import (
    grid_nodes,
    metric_h,
    principal_curvatures,
    surface_point,
    v_curv,
)
from helitube.operators import v_eff, v_kin
from helitube.oracle import assemble_perturbed, cylinder_levels
from helitube.spec import CapExceeded, ConvergenceFailure, HelixSpec

HBAR = 1.054571817e-34


def _fresh_python(code):
    """Run code in a new interpreter that imports this helitube, where a
    numpy RuntimeWarning is an error, as pyproject.toml's filterwarnings
    makes it in this one."""
    src = str(Path(helitube.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning"}
    return subprocess.run([sys.executable, "-c", code], check=True, text=True,
                          capture_output=True, env=env)


def test_fresh_python_makes_a_numpy_runtime_warning_an_error():
    # negative control: the probes fail on an overflow, as in-process runs do
    with pytest.raises(subprocess.CalledProcessError) as exc:
        _fresh_python("import numpy as np; np.float64(1e308) * 10")
    assert "RuntimeWarning: overflow" in exc.value.stderr


def test_pytest_makes_a_numpy_runtime_warning_an_error():
    # negative control: pyproject.toml's filterwarnings reaches every test
    with pytest.raises(RuntimeWarning, match="overflow"):
        np.float64(1e308) * 10


def test_pytest_makes_every_xfail_strict(pytestconfig):
    # pyproject.toml's xfail_strict: an xfail that starts passing fails
    assert pytestconfig.getini("xfail_strict") is True


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    body = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, body


def col(path, name):
    header, body = read_csv(path)
    return body[:, header.index(name)]


# ------------------------------------------------------------------ geometry


def test_geometry_straight_tube_h_column(tmp_path):
    rc = main(
        ["geometry", "--kappa", "0", "--grid", "8x6", "--out", str(tmp_path)]
    )
    assert rc == 0
    np.testing.assert_array_equal(col(tmp_path / "geometry.csv", "h"), 1.0)


def test_geometry_default_params_kappa1_and_row_count(tmp_path):
    rc = main(["geometry", "--grid", "8x6", "--out", str(tmp_path)])
    assert rc == 0
    header, body = read_csv(tmp_path / "geometry.csv")
    assert header == ["s", "phi", "x", "y", "z", "h", "kappa1", "kappa2", "M", "K"]
    assert body.shape[0] == 8 * 6
    np.testing.assert_array_equal(body[:, header.index("kappa1")], 10.0)


# ----------------------------------------------------------------- potential


def test_potential_straight_wide_tube_constant(tmp_path):
    rc = main(
        [
            "potential", "--kappa", "0", "--rho0", "1", "--grid", "8x6",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    np.testing.assert_allclose(
        col(tmp_path / "potential.csv", "v_eff"), -0.25, atol=1e-15
    )


def test_potential_outer_inner_inequality_and_reflection(tmp_path):
    n_s, n_phi = 16, 12
    rc = main(["potential", "--grid", f"{n_s}x{n_phi}", "--out", str(tmp_path)])
    assert rc == 0
    v = col(tmp_path / "potential.csv", "v_eff").reshape(n_s, n_phi)
    # s = 0 row: the outer side phi = 0 (node n_phi/2) undercuts the inner
    # side phi = pi (node 0), but the row minimum sits at the +-pi/2 pair
    # where the metric-squared well and the torsion term trade off
    assert v[0, n_phi // 2] < v[0, 0]
    assert int(np.argmin(v[0])) in (n_phi // 4, 3 * n_phi // 4)
    # (s, phi) -> (-s, -phi) maps node (i, j) to (-i mod n_s, -j mod n_phi)
    mirrored = np.roll(v[::-1, ::-1], (1, 1), axis=(0, 1))
    np.testing.assert_allclose(v, mirrored, rtol=1e-12)


@pytest.mark.xfail(
    reason="at kappa = tau = 1, rho0 = 0.1 the s = 0 row minimum of v_eff sits"
    " near |phi| = pi/2, not at phi = 0; only the phi = 0 vs phi = pi"
    " inequality holds",
)
def test_potential_row_argmin_at_phi_zero_as_stated(tmp_path):
    n_s, n_phi = 16, 12
    main(["potential", "--grid", f"{n_s}x{n_phi}", "--out", str(tmp_path)])
    v = col(tmp_path / "potential.csv", "v_eff").reshape(n_s, n_phi)
    assert int(np.argmin(v[0])) == n_phi // 2


def test_potential_physical_units_scale(tmp_path):
    args = ["potential", "--grid", "8x6"]
    main(args + ["--out", str(tmp_path / "nat")])
    mu = 9.109e-31
    main(args + ["--units", f"physical:{mu}", "--out", str(tmp_path / "phys")])
    nat = col(tmp_path / "nat" / "potential.csv", "v_eff")
    phys = col(tmp_path / "phys" / "potential.csv", "v_eff")
    np.testing.assert_allclose(phys, nat * HBAR**2 / (2 * mu), rtol=1e-12)


def _check_rows_pointwise(tmp_path):
    # the tables are written from whole-grid arrays; each row must equal,
    # as text, the scalar library calls at its own node, so a transposed or
    # reordered grid fails (the grid is not square, and each row prints its
    # own s and phi)
    spec = HelixSpec(kappa=1.7, tau=-1.3, rho0=0.07)
    n_s, n_phi = 10, 6
    for cmd in ("geometry", "potential"):
        rc = main([cmd, "--kappa", "1.7", "--tau", "-1.3", "--rho0", "0.07",
                   "--grid", f"{n_s}x{n_phi}", "--out", str(tmp_path)])
        assert rc == 0
    geo = (tmp_path / "geometry.csv").read_text().splitlines()[1:]
    pot = (tmp_path / "potential.csv").read_text().splitlines()[1:]
    assert len(geo) == len(pot) == n_s * n_phi
    S, P = grid_nodes(spec, n_s, n_phi)
    for i, j in ((0, 0), (0, n_phi - 1), (1, 0), (3, 2), (7, 5), (n_s - 1, 1)):
        s, phi = S[i, j], P[i, j]
        want = [s, phi, *surface_point(spec, s, phi), metric_h(spec, s, phi),
                *principal_curvatures(spec, s, phi)]
        assert geo[i * n_phi + j] == ",".join(map(fmt, want))
        want = [s, phi, v_curv(spec, s, phi), v_kin(spec, s, phi),
                v_eff(spec, s, phi)]
        assert pot[i * n_phi + j] == ",".join(map(fmt, want))


def test_rows_match_pointwise_library_calls(tmp_path):
    _check_rows_pointwise(tmp_path)


@pytest.mark.parametrize("reorder", [
    lambda S, P: (S[::-1], P[::-1]),                      # s-rows reversed
    lambda S, P: (np.roll(S, 1, 1), np.roll(P, 1, 1)),    # phi rolled
    lambda S, P: (S.T.reshape(S.shape), P.T.reshape(P.shape)),  # phi-major
], ids=["reversed-s", "rolled-phi", "phi-major"])
def test_rows_check_catches_a_reordered_grid(tmp_path, monkeypatch, reorder):
    # negative control: the tables written on a reordered grid fail the check
    # cli takes grid_nodes from its module when a subcommand runs
    right = geometry.grid_nodes
    monkeypatch.setattr(geometry, "grid_nodes", lambda *a: reorder(*right(*a)))
    with pytest.raises(AssertionError):
        _check_rows_pointwise(tmp_path)


def _pointwise_rows(*columns):
    return [tuple(map(fmt, vals)) for vals in zip(*(c.ravel().tolist() for c in columns))]


def _value_keyed_rows(*columns):
    """_node_rows keyed by float value instead of bits (a negative control)."""
    for start in range(0, len(columns[0]), cli._BLOCK_ROWS):
        text = []
        for c in columns:
            keys, inverse = np.unique(c[start:start + cli._BLOCK_ROWS],
                                      return_inverse=True)
            distinct = [fmt(v) for v in keys.tolist()]
            text.append([distinct[i] for i in inverse.ravel()])
        yield from zip(*text)


# few values per column, so they repeat; both zeros, subnormals, infinities
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, math.inf, -math.inf, 1.0]


@st.composite
def node_columns(draw):
    n_s = draw(st.integers(1, 3 * cli._BLOCK_ROWS + 3))
    n_phi = draw(st.integers(4, 9))
    pool = _SPECIAL + draw(st.lists(st.floats(allow_nan=False), max_size=6))
    column = hnp.arrays(np.float64, (n_s, n_phi), elements=st.sampled_from(pool))
    return draw(st.lists(column, min_size=1, max_size=4))


def _signed_zero_columns(n_s):
    # -0.0 and +0.0 in one column, and each alone in a column of its own
    mixed = np.where(np.arange(n_s * 5).reshape(n_s, 5) % 3, 0.0, -0.0)
    return [mixed, np.full((n_s, 5), 0.0), np.full((n_s, 5), -0.0)]


def _writes_pointwise(writer):
    """The property: a writer gives exactly fmt of each node, node by node."""
    @settings(max_examples=60, deadline=None, database=None)
    @given(node_columns())
    @example(_signed_zero_columns(3))                      # fewer rows than a block
    @example(_signed_zero_columns(cli._BLOCK_ROWS + 5))    # not a multiple of it
    def check(columns):
        assert [tuple(r) for r in writer(*columns)] == _pointwise_rows(*columns)
    return check


def test_node_rows_match_fmt_node_by_node():
    _writes_pointwise(cli._node_rows)()


def test_value_keyed_dedup_fails_the_node_rows_property():
    # -0.0 == 0.0, so keying by value prints one zero for both
    with pytest.raises(AssertionError):
        _writes_pointwise(_value_keyed_rows)()


@pytest.mark.parametrize("cmd, n_columns, share", [("potential", 5, 8),
                                                   ("geometry", 10, 2)])
def test_tables_format_each_distinct_value_once(tmp_path, monkeypatch, cmd,
                                                n_columns, share):
    # at FIG3 and 64x64 a node-by-node writer calls fmt 64*64*n_columns times
    calls = []
    monkeypatch.setattr(cli, "fmt", lambda x: calls.append(x) or fmt(x))
    assert main([cmd, "--grid", "64x64", "--out", str(tmp_path)]) == 0
    assert len(calls) <= 64 * 64 * n_columns // share


# --------------------------------------------------------------------- bands


BANDS_SMALL = ["bands", "--grid", "16x12", "--kpath", "0:-0.5:5"]


def test_bands_free_columns_and_summary(tmp_path):
    rc = main(["bands", "--kappa", "0", "--grid", "16x12", "--kpath", "0:-0.5:5",
               "--out", str(tmp_path)])
    assert rc == 0
    header, body = read_csv(tmp_path / "bands.csv")
    assert header == [
        "k_s", "n", "E_twoband_1", "E_twoband_2",
        "E_oracle_pert_1", "E_oracle_pert_2",
        "E_oracle_full_1", "E_oracle_full_2",
    ]
    ks = body[:, 0]
    a = 25.0  # (1/rho0^2 + kappa^2)/4 at rho0 = 0.1, kappa = 0
    np.testing.assert_allclose(body[:, 2], ks**2 - a, atol=1e-12)
    np.testing.assert_allclose(body[:, 3], (ks + 1) ** 2 + 100 - a, atol=1e-12)
    np.testing.assert_allclose(body[:, 4], body[:, 2], atol=1e-9)
    np.testing.assert_allclose(body[:, 5], body[:, 3], atol=1e-9)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["gap_twoband"] == 0.0
    assert "u_squared_negative_on_path" not in summary


def test_bands_summary_a_and_positive_gaps(tmp_path):
    rc = main(BANDS_SMALL + ["--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    # (1/0.1^2 + 1)/4 is exact in binary floating point
    assert summary["a"] == 25.25
    assert summary["epsilon"] == pytest.approx(0.1)
    assert summary["gap_twoband"] > 0
    assert summary["gap_oracle_pert"] > 0
    assert set(summary["agreement"]) == {
        "max_abs_diff_twoband_vs_pert",
        "max_abs_diff_pert_vs_full_lowest_band",
        "mean_offset_pert_minus_full_lowest_band",
    }


def test_bands_summary_names_the_screw_blocks(tmp_path):
    # the blocks of the continuum screw symmetry are the helical momentum
    # sectors; bands reads no grid, so --grid changes no byte
    for grid in ("16x12", "67x64"):
        argv = ["bands", "--grid", grid, "--kpath", "0:-0.5:5"]
        assert main(argv + ["--out", str(tmp_path / grid)]) == 0
    summary = json.loads((tmp_path / "16x12" / "summary.json").read_text())
    assert "grid" not in summary
    full = summary["oracle_full"]
    assert full["n_modes"] == 8  # the floor: eps = 0.1 converges sooner
    assert "n_harmonics" not in summary  # it repeated oracle_full's n_modes
    assert full["sectors_per_kpoint"] == [3, 3]  # p = k_s and the pair M = +-1
    assert "helical momentum" in full["oracle"]
    for name in ("bands.csv", "summary.json"):
        b1 = (tmp_path / "16x12" / name).read_bytes()
        assert b1 == (tmp_path / "67x64" / name).read_bytes()


def test_bands_oversized_grid_is_config_error(tmp_path):
    # the grid oracle's cap belongs to verify's fixed grids; the per-node
    # tables take any grid up to 2**20 nodes
    assert main(["geometry", "--grid", "67x64", "--out", str(tmp_path)]) == 0
    assert main(["potential", "--grid", "67x64", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("cmd", ["geometry", "potential"])
def test_node_cap_is_config_error(tmp_path, capsys, cmd):
    # 1025x1024 is one row of nodes over 2**20; refused before any allocation
    assert main([cmd, "--grid", "1025x1024", "--out", str(tmp_path)]) == 2
    assert "nodes" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main([cmd, "--grid", "128x128", "--out", str(tmp_path)]) == 0
    RunConfig(n_s=1024, n_phi=1024).validate()  # exactly at the cap
    with pytest.raises(ConfigError, match="nodes"):
        RunConfig(n_s=2**20, n_phi=2**20).validate()


def test_transverse_n_flag_and_key_are_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bands", "--transverse-n", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("transverse_n = 1\n")
    assert main(["bands", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
    assert "transverse_n" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]
    # the table keeps the n column, always 0; the summary has no such key
    rc = main(["bands", "--grid", "8x8", "--kpath", "0:-0.5:2", "--out", str(tmp_path)])
    assert rc == 0
    np.testing.assert_array_equal(col(tmp_path / "bands.csv", "n"), 0.0)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "transverse_n" not in summary["kpath"]


def test_s0_key_is_gone(tmp_path, capsys):
    # the frame's origin is fixed at s = 0; a config file cannot move it
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("s0 = 0.7\n")
    assert main(["bands", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
    assert "'s0'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]
    assert not hasattr(RunConfig(), "s0")


def test_bands_loads_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call; bands has no use for it
    probe = (
        "import sys; from helitube.cli import main; "
        f"main(['bands', '--kpath', '0:-0.5:3', '--out', {str(tmp_path)!r}]); "
        "print('numpy.ma' in sys.modules)"
    )
    assert _fresh_python(probe).stdout.split()[-1] == "False"


def test_numpy_ma_probe_sees_np_unique():
    # negative control: the probe above does see the import it guards against
    probe = ("import sys, numpy as np; np.unique([-1, 1]); "
             "print('numpy.ma' in sys.modules)")
    assert _fresh_python(probe).stdout.split()[-1] == "True"


def test_verify_loads_no_numpy_random(tmp_path):
    # the operator identity draws its probe from the stdlib's random;
    # numpy.random alone would add about 6 MB to verify's peak memory
    probe = (
        "import sys; from helitube.cli import main; "
        f"main(['verify', '--out', {str(tmp_path)!r}]); "
        "print('numpy.random' in sys.modules)"
    )
    assert _fresh_python(probe).stdout.split()[-1] == "False"


ALL_MODULES = ["bloch", "cli", "geometry", "operators", "oracle", "spec", "verify"]


# the helitube modules each subcommand loads: the ones it runs, and numpy
# only when it computes
@pytest.mark.parametrize("argv, rc, loaded, numpy", [
    (["geometry", "--grid", "8x8"], 0, ["cli", "geometry", "spec"], True),
    (["potential", "--grid", "8x8"], 0, ["cli", "geometry", "operators", "spec"], True),
    (["bands", "--kpath", "0:-0.5:3"], 0,
     ["bloch", "cli", "geometry", "operators", "oracle", "spec"], True),
    (["gap-scan", "--eps-sweep", "0.1"], 0,
     ["bloch", "cli", "geometry", "operators", "oracle", "spec"], True),
    (["cylinder-check"], 0, ALL_MODULES, True),
    # control: the probe sees every module a run loads, numpy included
    (["verify"], 0, ALL_MODULES, True),
    # a refused configuration ends before anything computes
    (["bands", "--tau", "0"], 2, ["cli", "spec"], False),
    (["geometry", "--grid", "2x2"], 2, ["cli", "spec"], False),
    (["gap-scan", "--kappa", "0", "--eps-sweep", "0.1"], 2, ["cli", "spec"], False),
    (["gap-scan", "--kappa", "5e-324"], 2, ["cli", "spec"], False),
], ids=["geometry", "potential", "bands", "gap-scan", "cylinder-check", "verify",
        "refused-tau", "refused-grid", "refused-sweep-kappa", "refused-sweep-radius"])
def test_subcommand_loads_only_what_it_runs(tmp_path, argv, rc, loaded, numpy):
    probe = (
        "import json, sys; from helitube.cli import main; "
        f"rc = main({argv + ['--out', str(tmp_path)]!r}); "
        "print(json.dumps([rc, sorted(m.split('.')[1] for m in sys.modules "
        "if m.startswith('helitube.')), 'numpy' in sys.modules, "
        "'numpy.polynomial' in sys.modules]))"
    )
    result = json.loads(_fresh_python(probe).stdout.splitlines()[-1])
    assert result == [rc, loaded, numpy, False]


def test_validating_every_subcommand_loads_no_numpy():
    # every check of a configuration that passes, as perfbench's setup_s
    # times it: parse the flags, build and validate the RunConfig
    probe = (
        "import sys; from helitube import cli; "
        "[cli.build_config(cli._build_parser().parse_args([c])) for c in cli._COMMANDS]; "
        "print(len(cli._COMMANDS), 'numpy' in sys.modules)"
    )
    assert _fresh_python(probe).stdout.split()[-2:] == ["6", "False"]


def _perfbench_argvs(workdir):
    """The argv of every invocation of every perfbench workload, at seed 1."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        return [inv.argv for make in module.WORKLOADS.values()
                for inv in make(1, workdir).invocations]
    finally:
        del sys.modules[spec.name]


# parsing and validating load no numpy, and none of the stdlib modules a
# run only needs to compute or write: dataclasses imports inspect (11-13 ms)
@pytest.mark.parametrize("run, rc, loaded", [
    ([], None, []),
    # a refused run ends before it needs any of them
    (["bands", "--tau", "0"], 2, []),
    # control: after a run that computes, the probe sees what it loaded
    (["bands", "--kpath", "0:-0.5:3"], 0, ["dataclasses", "inspect", "json", "numpy"]),
], ids=["validate-only", "after-refused-bands", "after-bands"])
def test_validating_loads_no_numpy_inspect_dataclasses_or_json(tmp_path, run, rc,
                                                               loaded):
    argvs = [[c] for c in cli._COMMANDS] + _perfbench_argvs(tmp_path)
    assert len(argvs) > len(cli._COMMANDS)
    call = f"rc = cli.main({run + ['--out', str(tmp_path)]!r}); " if run else "rc = None; "
    probe = (
        "import sys; from helitube import cli; " + call +
        f"[cli.build_config(cli._build_parser().parse_args(a)) for a in {argvs!r}]; "
        "print([rc, [m for m in ('dataclasses', 'inspect', 'json', 'numpy') "
        "if m in sys.modules]])"
    )
    assert _fresh_python(probe).stdout.splitlines()[-1] == repr([rc, loaded])


_NINE_FLAGS = ["--kappa", "0.5", "--tau", "-2", "--rho0", "0.2", "--grid", "8x6",
               "--kpath", "0:0.5:7", "--eps-sweep", "0.1,0.3", "--units",
               "physical:2.0"]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_one_parser_takes_every_flag_before_or_after_the_subcommand(tmp_path,
                                                                    command):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("vkin_offset = 0.25\nkappa = 0.9\n")
    flags = [*_NINE_FLAGS, "--config", str(cfgfile), "--out", str(tmp_path)]
    want = RunConfig(
        kappa=0.0 if command == "cylinder-check" else 0.5, tau=-2.0, rho0=0.2,
        n_s=8, n_phi=6, kpath_start=0.0, kpath_end=0.5, kpath_count=7,
        eps_sweep=(0.1, 0.3), out_dir=str(tmp_path), units="physical:2.0",
        vkin_offset=0.25)
    parser = cli._build_parser()
    for argv in ([command, *flags], [*flags, command], [*flags[:4], command, *flags[4:]]):
        args = parser.parse_args(argv)
        assert args.command == command
        assert build_config(args) == want


@pytest.mark.parametrize("argv", [
    [], ["--tau", "1"], ["band"], ["bands", "geometry"], ["bands", "--nope", "1"],
    ["--nope", "bands"],
], ids=["none", "flags-only", "unknown", "two", "unknown-flag", "unknown-flag-first"])
def test_parser_refuses_a_missing_or_unknown_subcommand_or_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "helitube: error: " in capsys.readouterr().err


def test_run_config_is_immutable():
    cfg = RunConfig()
    with pytest.raises(AttributeError):
        cfg.kappa = 2.0
    assert cfg.kappa == 1.0 and cfg._replace(kappa=2.0).kappa == 2.0


def test_import_helitube_loads_no_submodule():
    # names resolve on first use, then stay in the package namespace
    probe = (
        "import json, sys, helitube; "
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('helitube')); "
        "before = loaded(); helitube.BlochVector; "
        "print(json.dumps([before, loaded(), 'BlochVector' in vars(helitube)]))"
    )
    before, after, cached = json.loads(_fresh_python(probe).stdout.splitlines()[-1])
    assert before == ["helitube"]
    assert after == ["helitube", "helitube.bloch", "helitube.geometry",
                     "helitube.operators", "helitube.spec"]
    assert cached


def test_strong_helix_verify_peaks_under_110_mb(tmp_path):
    # eps = 0.96 sizes the operator identity's grid at 484x484, the largest
    # under its node cap; taken one field at a time the run peaks near 81 MB.
    # VmHWM is the probe's own peak: ru_maxrss survives fork and exec, so it
    # would read this pytest process's peak whenever that is higher
    probe = (
        "from helitube.cli import main; "
        f"main(['verify', '--kappa', '9.6', '--rho0', '0.1', '--out', {str(tmp_path)!r}]); "
        "print(next(line.split()[1] for line in open('/proc/self/status') "
        "if line.startswith('VmHWM:')))"
    )
    peak_mb = int(_fresh_python(probe).stdout.split()[-1]) / 1024  # kB
    checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
    identity = next(c for c in checks if c["name"] == "operator_identity")
    assert identity["passed"] and identity["grid"] == [484, 484]
    assert peak_mb <= 110


def test_numpy_random_probe_sees_default_rng():
    # negative control: the probe above does see the import it guards against
    probe = ("import sys, numpy as np; np.random.default_rng(0); "
             "print('numpy.random' in sys.modules)")
    assert _fresh_python(probe).stdout.split()[-1] == "True"


def test_bands_huge_kpath_count_is_config_error(tmp_path, capsys):
    # refused before the path is built: linspace would ask for 72.8 TiB
    rc = main(["bands", "--kpath", "0:-0.5:10000000000000", "--out", str(tmp_path)])
    assert rc == 2
    assert "k-path count" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    RunConfig(kpath_count=2**16).validate()  # exactly at the cap
    with pytest.raises(ConfigError, match="k-path count"):
        RunConfig(kpath_count=2**16 + 1).validate()


def test_bands_oracle_storage_cap_is_config_error(tmp_path, capsys):
    # eps = 0.999999 needs more transverse modes than the 4096^2 cap holds
    rc = main(["bands", "--kappa", "0.999999", "--rho0", "1", "--kpath", "0:-0.5:2",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "cap" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", ["--kpath 0:nan:3", "--kpath nan:-0.5:3",
                                    "kpath_end = nan"])
def test_nan_kpath_endpoint_is_config_error(tmp_path, capsys, source):
    if source.startswith("--"):
        argv = ["bands", *source.split()]
    else:
        (tmp_path / "run.cfg").write_text(source + "\n")
        argv = ["bands", "--config", str(tmp_path / "run.cfg")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "k-path endpoint nan" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bands_sector_cap_is_config_error(tmp_path, capsys):
    # tau = 1e-7 would take about 2.6 million sector pairs per k-point
    rc = main(["bands", "--tau", "1e-7", "--kpath", "0:-1e-8:2", "--out", str(tmp_path)])
    assert rc == 2
    assert "sector pairs" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_identity_grid_cap_is_config_error(tmp_path, capsys):
    # eps = 0.97 needs a 560x560 grid to resolve the products with h
    rc = main(["verify", "--kappa", "9.7", "--rho0", "0.1", "--out", str(tmp_path)])
    assert rc == 2
    assert "operator identity" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["verify", "--tau", "1e-160"],
                                  ["cylinder-check", "--tau", "1e-300"]],
                         ids=["verify", "cylinder-check"])
def test_tau_with_overflowing_period_is_config_error(tmp_path, capsys, argv):
    # (2 pi/|tau|)^2 overflows: refused before any grid is built
    assert main(argv + ["--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "too small" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []
    RunConfig(tau=1e-150).validate()


@pytest.mark.parametrize("argv", [
    "bands --tau 1e200", "bands --kappa 1e200 --rho0 1e-300",
    "bands --rho0 1e-160 --kappa 0", "geometry --kappa 1e200 --rho0 1e-300",
    "potential --tau 1e200", "verify --tau 1e200", "cylinder-check --tau 1e200",
    "gap-scan --tau 1e200",
    # the square is finite, the fourth power (a squared energy) is not
    "bands --tau 1e150 --kpath 0:-1:3", "bands --tau 1e154",
    "bands --rho0 1e-154 --kappa 0 --kpath 0:-0.5:3", "verify --tau 1e150",
    "gap-scan --tau 1e150",
])
def test_overflowing_scale_is_config_error(tmp_path, capsys, argv):
    # tau^4, kappa^4 or (1/rho0)^4 overflows: refused before anything is written
    assert main(argv.split() + ["--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "too large" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    "potential --units physical:1e-300 --rho0 1e-70 --kappa 0 --grid 4x4",
    "bands --units physical:5e-324 --rho0 1e-30 --tau 1e30 --kappa 0 "
    "--kpath 0:-5e29:3",
    "gap-scan --units physical:5e-324 --tau 1e30",
], ids=["potential", "bands", "gap-scan"])
def test_overflowing_unit_scale_is_config_error(tmp_path, capsys, argv):
    # energy * hbar^2/(2 mu) overflows: one stderr line, no table with an inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv.split() + ["--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: units ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, names", [
    (BANDS_SMALL, ("bands.csv", "summary.json")),
    (["verify"], ("verify.json",)),
    (["gap-scan"], ("gapscan.csv", "gapscan.json")),
    (["geometry", "--grid", "37x5"], ("geometry.csv",)),
    (["potential", "--grid", "37x5"], ("potential.csv",)),
], ids=["bands", "verify", "gap-scan", "geometry", "potential"])
def test_byte_identical_reruns(tmp_path, argv, names):
    assert main(argv + ["--out", str(tmp_path / "r1")]) == 0
    assert main(argv + ["--out", str(tmp_path / "r2")]) == 0
    for name in names:
        b1 = (tmp_path / "r1" / name).read_bytes()
        b2 = (tmp_path / "r2" / name).read_bytes()
        assert b1 == b2


def test_bands_solver_failure_exit_code(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise ConvergenceFailure("synthetic failure")

    # cmd_bands imports continuum_levels from the oracle when it runs
    monkeypatch.setattr("helitube.oracle.continuum_levels", boom)
    rc = main(BANDS_SMALL + ["--out", str(tmp_path)])
    assert rc == 3


# ------------------------------------------------------------------ gap scan


def test_gap_scan_zero_epsilon_row(tmp_path):
    rc = main(["gap-scan", "--eps-sweep", "0", "--out", str(tmp_path)])
    assert rc == 0
    header, body = read_csv(tmp_path / "gapscan.csv")
    assert header == [
        "epsilon", "gap_twoband", "gap_oracle", "ratio_to_eps_kappa2_over_4"
    ]
    assert body.shape == (1, 4)
    assert body[0, 1] == 0.0
    assert abs(body[0, 2]) <= 1e-12
    assert body[0, 3] == 0.0


def test_gap_scan_default_sweep_fit_and_ratio(tmp_path):
    rc = main(["gap-scan", "--out", str(tmp_path)])
    assert rc == 0
    _, body = read_csv(tmp_path / "gapscan.csv")
    assert body.shape[0] == 5
    assert np.all(body[:, 1] > 0) and np.all(body[:, 2] > 0)
    assert np.all((0.5 <= body[:, 3]) & (body[:, 3] <= 2.0))
    fit = json.loads((tmp_path / "gapscan.json").read_text())
    assert fit["r_squared_twoband"] >= 0.999
    assert fit["r_squared_oracle"] >= 0.999
    # exact two-band slope vs eps at kappa = tau = 1 is 3/8
    assert fit["slope_twoband"] == pytest.approx(0.375, rel=1e-12)


def test_harmonics_flag_and_key_are_gone(tmp_path, capsys):
    # the ray window follows the spec, as the exact oracle's does
    with pytest.raises(SystemExit) as exc:
        main(["gap-scan", "--harmonics", "2048", "--out", str(tmp_path)])
    assert exc.value.code == 2
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n_harmonics = 7\n")
    assert main(["gap-scan", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
    assert "n_harmonics" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_artifacts_keep_the_umask(tmp_path):
    # mkstemp creates the temporary file 0600; the artifact gets the mode a
    # plain open() would give under the caller's umask, and the same bytes
    out = tmp_path / "u027"
    _fresh_python("import os; os.umask(0o027); from helitube.cli import main; "
                  f"raise SystemExit(main(['gap-scan', '--out', {str(out)!r}]))")
    assert main(["gap-scan", "--out", str(tmp_path / "ref")]) == 0
    for name in ("gapscan.csv", "gapscan.json"):
        assert stat.S_IMODE((out / name).stat().st_mode) == 0o640
        assert (out / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def test_gap_scan_cap_exceeded_exit_code(tmp_path, monkeypatch, capsys):
    def over_cap(*args, **kwargs):
        raise CapExceeded("synthetic cap")

    # main maps the oracle's errors without importing them up front
    monkeypatch.setattr("helitube.oracle.gap_perturbed", over_cap)
    rc = main(["gap-scan", "--out", str(tmp_path)])
    assert rc == 2
    assert "synthetic cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", ["--kappa 5e-324", "--eps-sweep 5e-324,0.1"],
                         ids=["rho0-inf", "inverse-rho0-inf"])
def test_gap_scan_overflowing_sweep_radius_is_config_error(tmp_path, capsys, argv):
    # rho0 = eps/kappa of a swept helix gets the checks of the configured one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gap-scan", *argv.split(), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: sweep epsilon ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert list(tmp_path.iterdir()) == []
    # only gap-scan reads the sweep: the same kappa is fine elsewhere
    argv = ["geometry", "--kappa", "5e-324", "--grid", "4x4", "--out", str(tmp_path)]
    assert main(argv) == 0


def test_gap_scan_window_storage_cap_is_config_error(tmp_path, capsys):
    # eps = 0.99999 needs a ray window of 2*4377 + 1 rows, over the 4096 cap
    rc = main(["gap-scan", "--eps-sweep", "0.99999", "--out", str(tmp_path)])
    assert rc == 2
    assert "cap" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------ cylinder check


def test_cylinder_check_prints_error(tmp_path, capsys):
    rc = main(["cylinder-check", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    err = float(out.split("max relative error")[1].split()[0])
    assert err <= 1e-12


def test_cylinder_check_error_is_relative_to_the_largest_level(tmp_path, capsys):
    # at tau = 1/(2 rho0) the closed-form level (n, m) = (0, 1) is exactly 0,
    # where an error over the level's own |level| means nothing
    spec0 = HelixSpec(kappa=0.0, tau=5.0, rho0=0.1)
    assert cylinder_levels(spec0, 7)[1] == 0.0
    assert main(["cylinder-check", "--tau", "5", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert float(out.split("max relative error")[1].split()[0]) <= 1e-12


def test_cylinder_check_reads_no_grid(tmp_path, capsys):
    # the exact oracle needs no grid: an odd one changes no byte
    assert main(["cylinder-check", "--out", str(tmp_path)]) == 0
    plain = capsys.readouterr().out
    assert main(["cylinder-check", "--grid", "9x8", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == plain


def test_cylinder_check_validates_the_straight_tube_it_solves(tmp_path, capsys):
    # rho0 = 2 embeds no tube at the configured kappa = 1, but the command
    # solves kappa = 0, where any radius does
    argv = ["cylinder-check", "--rho0", "2", "--out", str(tmp_path)]
    assert main(argv + ["--kappa", "0"]) == 0
    straight = capsys.readouterr()
    assert "max relative error 0.000e+00" in straight.out
    assert main(argv) == 0
    assert capsys.readouterr() == straight


@pytest.mark.parametrize("argv", [
    "cylinder-check --kappa -1", "cylinder-check --kappa nan", "bands --rho0 2",
])
def test_a_kappa_that_is_no_curvature_or_no_tube_is_config_error(
        tmp_path, capsys, argv):
    # cylinder-check still refuses a malformed kappa; the other commands
    # still need the configured tube embedded
    assert main([*argv.split(), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ") and "kappa" in captured.err
    assert list(tmp_path.iterdir()) == []


# -------------------------------------------------------------------- verify


def test_verify_defaults_pass(tmp_path):
    rc = main(["verify", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "operator_identity", "continuum_oracle", "ray_selection", "cylinder_limit",
    ]
    for c in report["checks"]:
        assert c["passed"] is True
        assert {"name", "kind", "tolerance", "measured", "passed"} <= set(c)
    # the ray window is derived from the spec, so the config no longer has
    # one: 8 harmonics each side at the default helix
    assert "n_harmonics" not in report["config"]
    assert assemble_perturbed(RunConfig().spec(), (0.21, 0.0)).shape == (17, 17)
    identity = next(c for c in report["checks"] if c["name"] == "operator_identity")
    assert identity["grid"] == [48, 48]  # sized from eps (fourier_decay_rate)
    # the exact oracle is held to the 13x13 collocation matrix
    oracle = next(c for c in report["checks"] if c["name"] == "continuum_oracle")
    assert oracle["grid"] == [13, 13]


@pytest.mark.parametrize("helix, grid", [
    ("--kappa 9 --rho0 0.1 --tau 1000", 296), ("--kappa 9 --rho0 0.1 --tau -1000", 296),
    ("--kappa 9 --rho0 0.1", 296), ("--tau 300", 48),
], ids=["1000", "-1000", "eps0.9", "tau300"])
def test_verify_passes_a_strong_helix_at_large_tau(tmp_path, helix, grid):
    # eps = 0.9, or |tau| = 300 or 1000, where the phases tau*s are large:
    # a correct build passes every check
    assert main(["verify", *helix.split(), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["passed"] is True
    assert "s0" not in report["config"]
    identity = next(c for c in report["checks"] if c["name"] == "operator_identity")
    assert identity["grid"] == [grid, grid]  # sized from eps, whatever tau is


def test_verify_corrupted_gauge_potential_fails(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("vkin_offset = 1e-3\n")
    rc = main(["verify", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 1
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["passed"] is False
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["operator_identity"]["passed"] is False


# ------------------------------------------------------- config and exit codes


def test_config_file_comments_defaults_and_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# comment line\n"
        "\n"
        "n_s = 8   # trailing comment\n"
        "n_phi = 6\n"
        "kappa = 0.5\n"
    )
    rc = main(
        ["geometry", "--config", str(cfgfile), "--grid", "4x10",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    _, body = read_csv(tmp_path / "geometry.csv")
    assert body.shape[0] == 4 * 10  # flag wins over file


def test_config_error_exit_codes(tmp_path):
    assert main(["bands", "--rho0", "-1", "--out", str(tmp_path)]) == 2
    assert main(["bands", "--kpath", "0:-3:5", "--out", str(tmp_path)]) == 2
    assert main(["bands", "--tau", "0", "--out", str(tmp_path)]) == 2
    assert main(["potential", "--units", "imperial", "--out", str(tmp_path)]) == 2
    assert main(["gap-scan", "--kappa", "0", "--eps-sweep", "0.1",
                 "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("warp_factor = 9\n")
    assert main(["geometry", "--config", str(bad), "--out", str(tmp_path)]) == 2
    missing = tmp_path / "nope.cfg"
    assert main(["geometry", "--config", str(missing), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("kpath, ks", [
    ("0.5:0.5:1", [0.5]),  # the zone's edge +|tau|/2, inside the refusal's interval
    ("-0.5:0:3", [-0.5, -0.25, 0.0]),
], ids=["upper-edge", "negative-start"])
def test_kpath_runs_in_the_equals_form_to_either_zone_edge(tmp_path, kpath, ks):
    # argparse reads "--kpath -0.5:0:3" as two flags; "--kpath=" keeps the value
    argv = ["bands", "--tau", "-1", f"--kpath={kpath}", "--out", str(tmp_path)]
    assert main(argv) == 0
    _, body = read_csv(tmp_path / "bands.csv")
    assert body[:, 0].tolist() == ks


def test_undecodable_config_file_is_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_bytes(b"kappa = 1.0\n\xff\n")
    assert main(["bands", "--config", str(cfgfile),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read config file {cfgfile}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "under-file"])
def test_uncreatable_output_is_exit_code_2(tmp_path, capsys, below):
    # --out names a regular file, or a path under one: one stderr line, exit 2
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    out = blocker.joinpath(*below)
    assert main(["gap-scan", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ")
    assert err.count("\n") == 1
    assert blocker.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]


def test_build_config_validation_direct():
    cfg = RunConfig(eps_sweep=(0.5, 0.9))
    cfg.validate()
    parser = cli._build_parser()
    with pytest.raises(ConfigError):
        build_config(parser.parse_args(["gap-scan", "--eps-sweep", "1.5"]))
    argv = ["bands", "--kappa", "0.7", "--grid", "8x6", "--eps-sweep", "0.5,0.9"]
    assert build_config(parser.parse_args(argv)) == RunConfig(
        kappa=0.7, n_s=8, n_phi=6, eps_sweep=(0.5, 0.9))
    with pytest.raises(ConfigError):
        RunConfig(eps_sweep=(1.5,)).validate()
    for bad in (dict(units="physical:-3"), dict(units="physical:inf"),
                dict(units="physical:nan"), dict(vkin_offset=math.nan),
                dict(vkin_offset=math.inf)):
        with pytest.raises(ConfigError):
            RunConfig(**bad).validate()
    scale = RunConfig(units="physical:2.0").energy_scale()
    assert scale == pytest.approx(HBAR**2 / 4.0, rel=1e-15)


_MALFORMED_INPUT = [
    ("--grid 3x3", None, "grid must be at least 4x4"),
    ("--grid 8", None, "--grid expects NxM, got '8'"),
    ("--grid 8x8x8", None, "--grid expects NxM, got '8x8x8'"),
    ("--kpath 0:-0.5", None, "--kpath expects start:end:count, got '0:-0.5'"),
    ("--kpath 0:-0.5:2.5", None, "--kpath expects start:end:count, got '0:-0.5:2.5'"),
    ("--kpath=0:0.6:3", None, "k-path endpoint 0.6 lies outside the zone [-0.5, 0.5]"),
    ("--eps-sweep ,", None, "bad --eps-sweep value: empty epsilon sweep"),
    ("--eps-sweep a", None,
     "bad --eps-sweep value: could not convert string to float: 'a'"),
    ("--units physical:abc", None, "bad mass in units value 'physical:abc'"),
    ("", "kappa\n", "{path}:1: expected 'key = value'"),
    ("", "kappa = abc\n",
     "{path}:1: bad value for kappa: could not convert string to float: 'abc'"),
]


@pytest.mark.parametrize("flags, config, message", _MALFORMED_INPUT,
                         ids=[flags or f"config {config!r}"
                              for flags, config, _ in _MALFORMED_INPUT])
def test_malformed_input_is_refused_in_one_line(tmp_path, capsys, flags, config,
                                                message):
    argv = ["bands", *flags.split(), "--out", str(tmp_path / "out")]
    cfgfile = tmp_path / "run.cfg"
    if config is not None:
        cfgfile.write_text(config)
        argv += ["--config", str(cfgfile)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {message.format(path=cfgfile)}\n")
    assert not (tmp_path / "out").exists()


def test_gap_scan_refuses_an_empty_sweep(tmp_path):
    # the parser refuses an empty sweep first; a library caller meets this
    with pytest.raises(ConfigError, match="^gap-scan needs a non-empty epsilon sweep$"):
        cli.cmd_gap_scan(RunConfig(eps_sweep=(), out_dir=str(tmp_path / "out")))
    assert not (tmp_path / "out").exists()


def test_a_write_that_fails_midway_keeps_the_previous_artifact(tmp_path):
    path = tmp_path / "table.csv"
    cli.write_csv(path, "a,b", [["1", "2"]])
    before = path.read_bytes()

    def rows():
        yield ["3", "4"]
        raise RuntimeError("row generator failed")

    with pytest.raises(RuntimeError, match="row generator failed"):
        cli.write_csv(path, "a,b", rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


# ------------------------------------------------------------- extreme input

_EXTREME_FLAGS = ["--kappa 5e-324", "--kappa 9.99", "--tau 1e150", "--rho0 1e-70",
                  "--rho0 1e70", "--units physical:5e-324",
                  "--units physical:1e300", "--eps-sweep 5e-324,0.1"]
_EXTREME_RUNS = [
    (cmd, flags)
    for cmd in ("geometry", "potential", "bands", "gap-scan", "cylinder-check")
    for flags in _EXTREME_FLAGS
    # eps = 0.999 needs a plane-wave basis that bands solves for minutes
    if (cmd, flags) != ("bands", "--kappa 9.99")
]


@pytest.mark.parametrize("cmd, flags", _EXTREME_RUNS,
                         ids=[f"{cmd} {flags}" for cmd, flags in _EXTREME_RUNS])
def test_extreme_parseable_input_ends_cleanly(tmp_path, capsys, cmd, flags):
    # exit 0 or 2, one stderr line on a refusal and only finite numbers
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([cmd, *flags.split(), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc in (0, 2) and err.count("\n") == (1 if rc == 2 else 0)
    for table in tmp_path.glob("*.csv"):
        assert np.isfinite(read_csv(table)[1]).all(), table.name


# ---------------------------------------------------------------- CI workflow


def _ci_steps(job):
    """The steps of a job in the CI workflow, in order, each as its "name:"
    (or, unnamed, its "uses:") line; read as text, as the test extra
    installs no YAML parser."""
    path = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    lines = path.read_text().splitlines()
    steps = []
    for line in lines[lines.index(f"  {job}:") + 1:]:
        if line.strip() and not line.startswith("   "):
            break  # the next job, or a comment before it
        if line.startswith("      - "):
            steps.append(line[8:])
        elif line.startswith("        name: "):
            steps[-1] = line[8:]
    return steps


def test_benchmark_self_tests_are_the_last_ci_step():
    # GitHub skips every step after a failing one, and the benchmark
    # self-tests fail until the benchmark is mended: a step after them
    # would not run
    steps = _ci_steps("tests")
    assert steps[-1] == "name: Benchmark self-tests"
    assert steps.count("name: Benchmark self-tests") == 1
    assert "name: Installed console script" in steps

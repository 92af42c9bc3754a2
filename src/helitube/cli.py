"""Deterministic command-line front end.

Subcommands compute geometry tables, potential grids, band structures,
gap scans, the straight-tube cross-check (the exact oracle against the
closed form), and the self-verification suite, writing CSV/JSON
artifacts into an output directory.  Only ``geometry`` and ``potential``
read the grid.

Configuration is a flat ``key = value`` file with ``#`` comments; every
key is a ``RunConfig`` field whose default's type converts its values,
and command-line flags override file values.  All numbers are written in
lower-case scientific notation with 17 significant digits, files are
written atomically (temp file + rename), and repeated runs with the same
configuration produce byte-identical output.  ``write_csv`` writes every
table from numpy columns, a block of lines at a time, and formats each
distinct value of a column once per block: the node tables depend on
``(s, phi)`` through the helical phase, so most of their columns repeat
a few hundred values.

One parser reads the subcommand and the nine flags, before or after it.
Parsing and validating are scalar arithmetic and load ``spec`` but no
numpy, dataclasses, inspect or json, so ``--help`` and a refused
configuration end before those load.  Each subcommand imports what it
runs: ``geometry`` adds ``geometry``, ``potential`` adds ``operators`` too,
``bands`` and ``gap-scan`` add ``bloch`` and ``oracle``, and ``verify``
and ``cylinder-check`` add ``verify``.

Exit codes: 0 success, 1 verification failure, 2 configuration error
(a request over one of the oracle's desk-scale caps included, a helix
that ``HelixSpec`` refuses, configured or swept by gap-scan: its limits,
such as a ``tau``, ``kappa`` or ``1/rho0`` whose fourth power overflows,
are its own and hold for library callers too; an energy that overflows
in physical units, and an output directory or file that cannot be
created or written), 3 eigensolver failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from .spec import CapExceeded, ConvergenceFailure, HelixSpec

HBAR = 1.054571817e-34  # J s

_DEFAULT_EPS_SWEEP = (0.01, 0.02, 0.03, 0.04, 0.05)

# geometry/potential hold a few arrays per node and write the lines as they go
_MAX_NODES = 2**20
# write_csv formats 16 leading rows at a time, or 2,048 lines if that is
# more: 16 s-rows keep the dedupe across s-rows at 1024x1024, and 2,048
# lines write a 65,536-point bands.csv in 32 blocks
_BLOCK_ROWS, _BLOCK_LINES = 16, 2048
# bands holds a few arrays per k-point and writes the lines as they go
_MAX_KPOINTS = 2**16


class ConfigError(ValueError):
    """Invalid configuration file, flag value, or parameter combination."""


class RunConfig(NamedTuple):
    """Validated run parameters shared by every subcommand; immutable."""

    kappa: float = 1.0
    tau: float = 1.0
    rho0: float = 0.1
    n_s: int = 64
    n_phi: int = 64
    kpath_start: float = 0.0
    kpath_end: float | None = None  # None = zone boundary -|tau|/2
    kpath_count: int = 101
    eps_sweep: tuple = _DEFAULT_EPS_SWEEP
    out_dir: str = "out"
    units: str = "natural"
    vkin_offset: float = 0.0

    def validate(self) -> None:
        self.energy_scale()  # parses the units string
        if self.n_s < 4 or self.n_phi < 4:
            raise ConfigError("grid must be at least 4x4")
        if self.n_s * self.n_phi > _MAX_NODES:
            raise ConfigError(
                f"grid {self.n_s}x{self.n_phi} has more than {_MAX_NODES} nodes"
            )
        if not 1 <= self.kpath_count <= _MAX_KPOINTS:
            raise ConfigError(f"k-path count must be in [1, {_MAX_KPOINTS}]")
        if self.tau == 0.0:
            raise ConfigError(
                "tau = 0 has no longitudinal period; the command-line "
                "workflows require tau != 0"
            )
        try:
            self.spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        half = abs(self.tau) / 2 * (1 + 1e-12)
        for k in (self.kpath_start, self.resolved_kpath_end()):
            if not abs(k) <= half:  # also a NaN endpoint
                raise ConfigError(
                    f"k-path endpoint {k} lies outside the zone "
                    f"[-{abs(self.tau) / 2}, {abs(self.tau) / 2}]"
                )
        for eps in self.eps_sweep:
            if not 0.0 <= eps < 1.0:
                raise ConfigError(f"sweep epsilon {eps} outside [0, 1)")
        if not math.isfinite(self.vkin_offset):
            raise ConfigError("vkin_offset must be finite")

    def spec(self) -> HelixSpec:
        return HelixSpec(kappa=self.kappa, tau=self.tau, rho0=self.rho0)

    def resolved_kpath_end(self) -> float:
        if self.kpath_end is None:
            return -abs(self.tau) / 2
        return self.kpath_end

    def energy_scale(self) -> float:
        """1 in natural units; hbar^2/(2 mu) when units = physical:<mu>."""
        u = self.units.strip().lower()
        if u == "natural":
            return 1.0
        if u.startswith("physical:"):
            try:
                mu = float(u.split(":", 1)[1])
            except ValueError as exc:
                raise ConfigError(f"bad mass in units value {self.units!r}") from exc
            if not (mu > 0 and math.isfinite(mu)):
                raise ConfigError("physical units need a positive finite mass")
            return HBAR**2 / (2.0 * mu)
        raise ConfigError(
            f"units must be 'natural' or 'physical:<mu>', got {self.units!r}"
        )


def _in_units(cfg: RunConfig, energies) -> np.ndarray:
    """Energies in natural units converted to cfg's units; ConfigError if a
    converted value overflows, so no table is written with an infinity."""
    import numpy as np

    with np.errstate(over="ignore"):
        out = cfg.energy_scale() * np.asarray(energies, dtype=float)
    if not np.isfinite(out).all():
        raise ConfigError(
            f"units {cfg.units!r}: an energy times hbar^2/(2 mu) overflows"
        )
    return out


# --------------------------------------------------------------------------
# configuration sources


def _parse_eps_list(v: str) -> tuple:
    items = [p.strip() for p in v.split(",") if p.strip()]
    if not items:
        raise ValueError("empty epsilon sweep")
    return tuple(float(p) for p in items)


# each key converts as its default's type, but for the two defaults that
# are not a value of their key: kpath_end's None and eps_sweep's tuple
_CONVERTERS = {key: type(default) for key, default in RunConfig._field_defaults.items()}
_CONVERTERS.update(kpath_end=float, eps_sweep=_parse_eps_list)


def parse_config_file(path: str) -> dict:
    """Flat key = value lines, # comments, unknown keys rejected."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not sep or not key or not val:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _CONVERTERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONVERTERS[key](val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _parse_flag(v: str, sep: str, usage: str, *keys) -> dict:
    """Split a compound flag value into its keys, converted as file values."""
    parts = v.lower().split(sep)
    try:
        if len(parts) == len(keys):
            return {key: _CONVERTERS[key](part) for key, part in zip(keys, parts)}
    except ValueError:
        pass
    raise ConfigError(f"{usage}, got {v!r}")


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config file values, then flag overrides."""
    cfg = RunConfig()
    if args.config is not None:
        cfg = cfg._replace(**parse_config_file(args.config))
    updates = {key: value for key in ("kappa", "tau", "rho0", "out_dir", "units")
               if (value := getattr(args, key)) is not None}
    if args.grid is not None:
        updates |= _parse_flag(args.grid, "x", "--grid expects NxM", "n_s", "n_phi")
    if args.kpath is not None:
        updates |= _parse_flag(args.kpath, ":", "--kpath expects start:end:count",
                               "kpath_start", "kpath_end", "kpath_count")
    if args.eps_sweep is not None:
        try:
            updates["eps_sweep"] = _parse_eps_list(args.eps_sweep)
        except ValueError as exc:
            raise ConfigError(f"bad --eps-sweep value: {exc}") from exc
    cfg = cfg._replace(**updates)
    if args.command == "cylinder-check":
        # it solves the straight tube, so kappa need only be a curvature
        if not 0.0 <= cfg.kappa < math.inf:
            raise ConfigError(f"kappa must be finite and >= 0, got {cfg.kappa!r}")
        cfg = cfg._replace(kappa=0.0)
    cfg.validate()
    return cfg


# --------------------------------------------------------------------------
# deterministic output


def _atomic_write(path: Path, lines) -> None:
    """Write the lines, as they come, to a temporary file, then rename it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as f:
            f.writelines(lines)
        os.umask(umask := os.umask(0))
        os.chmod(tmp, 0o666 & ~umask)  # as open() would, not mkstemp's 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _formatted(pattern: str, values: list) -> list[str]:
    """pattern % v for each of the values, in one % call."""
    return (",".join([pattern] * len(values)) % tuple(values)).split(",")


def write_csv(path: Path, header: str, *columns) -> None:
    """Header, then a line per element of the numpy columns (one shape), a
    block of leading rows at a time: only a block is held as text.  In a
    block each column's distinct values are formatted once, ``%.16e`` for
    floats and ``%d`` for integers, keyed by their bits (``-0.0`` equals
    ``0.0`` but prints differently, and the tables hold both).
    """
    import numpy as np

    shape = columns[0].shape
    step = max(_BLOCK_ROWS, -(-_BLOCK_LINES // math.prod(shape[1:])))

    def blocks():
        yield header + "\n"
        for start in range(0, shape[0], step):
            text = []
            for c in columns:
                block = c[start:start + step]
                keys, inverse = np.unique(block.view(np.int64), return_inverse=True)
                pattern = "%d" if block.dtype.kind == "i" else "%.16e"
                distinct = _formatted(pattern, keys.view(block.dtype).tolist())
                text.append(np.array(distinct, dtype=object)[inverse.ravel()].tolist())
            yield "".join([",".join(line) + "\n" for line in zip(*text, strict=True)])

    _atomic_write(path, blocks())


def write_json(path: Path, obj) -> None:
    import json

    _atomic_write(path, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])


# --------------------------------------------------------------------------
# subcommands


def cmd_geometry(cfg: RunConfig) -> int:
    from .geometry import grid_nodes, metric_h, principal_curvatures, surface_point

    spec = cfg.spec()
    out = Path(cfg.out_dir)
    S, P = grid_nodes(spec, cfg.n_s, cfg.n_phi)
    x = surface_point(spec, S, P)
    k1, k2, m, gauss = principal_curvatures(spec, S, P)
    write_csv(
        out / "geometry.csv", "s,phi,x,y,z,h,kappa1,kappa2,M,K",
        S, P, x[..., 0], x[..., 1], x[..., 2], metric_h(spec, S, P),
        k1, k2, m, gauss,
    )
    print(f"wrote {out / 'geometry.csv'} ({S.size} rows)")
    return 0


def cmd_potential(cfg: RunConfig) -> int:
    from .geometry import grid_nodes, v_curv
    from .operators import v_kin

    spec = cfg.spec()
    out = Path(cfg.out_dir)
    S, P = grid_nodes(spec, cfg.n_s, cfg.n_phi)
    vc, vk = v_curv(spec, S, P), v_kin(spec, S, P)
    # v_eff is v_kin + v_curv, in that order (operators.v_eff)
    write_csv(
        out / "potential.csv", "s,phi,v_curv,v_kin,v_eff",
        S, P, *_in_units(cfg, [vc, vk, vk + vc]),
    )
    print(f"wrote {out / 'potential.csv'} ({S.size} rows)")
    return 0


def cmd_bands(cfg: RunConfig) -> int:
    import numpy as np

    from .operators import spectral_offset
    from .bloch import two_band_energies, two_band_gap
    from .oracle import continuum_levels, gap_perturbed, perturbed_levels

    spec = cfg.spec()
    out = Path(cfg.out_dir)
    ks = np.linspace(cfg.kpath_start, cfg.resolved_kpath_end(), cfg.kpath_count)
    full, detail = continuum_levels(spec, ks, 2)
    tb = np.array([two_band_energies(spec, (k_s, 0.0)) for k_s in ks])
    pert = perturbed_levels(spec, ks, 2)
    energies = _in_units(cfg, np.hstack([tb, pert, full]))
    gap_tb, gap_pert, diff_tb_pert, diff_pert_full, offset = _in_units(cfg, [
        two_band_gap(spec), gap_perturbed(spec), np.max(np.abs(tb - pert)),
        np.max(np.abs(pert[:, 0] - full[:, 0])), np.mean(pert[:, 0] - full[:, 0]),
    ]).tolist()
    write_csv(
        out / "bands.csv",
        "k_s,n,E_twoband_1,E_twoband_2,E_oracle_pert_1,E_oracle_pert_2,"
        "E_oracle_full_1,E_oracle_full_2",
        ks, np.zeros(len(ks), np.int64), *energies.T,
    )
    summary = {
        "a": spectral_offset(spec),
        "epsilon": spec.epsilon,
        "units": cfg.units,
        "oracle_full": {
            "oracle": "plane waves in helical momentum sectors p = k_s + M*tau",
            **detail,
        },
        "kpath": {
            "start": cfg.kpath_start,
            "end": cfg.resolved_kpath_end(),
            "count": cfg.kpath_count,
        },
        "gap_twoband": gap_tb,
        "gap_oracle_pert": gap_pert,
        "agreement": {
            "max_abs_diff_twoband_vs_pert": diff_tb_pert,
            "max_abs_diff_pert_vs_full_lowest_band": diff_pert_full,
            "mean_offset_pert_minus_full_lowest_band": offset,
        },
    }
    write_json(out / "summary.json", summary)
    print(f"wrote {out / 'bands.csv'} ({len(ks)} rows) and {out / 'summary.json'}")
    return 0


def cmd_gap_scan(cfg: RunConfig) -> int:
    if not cfg.eps_sweep:
        raise ConfigError("gap-scan needs a non-empty epsilon sweep")
    if any(eps > 0 for eps in cfg.eps_sweep) and cfg.kappa <= 0.0:
        raise ConfigError("a positive sweep epsilon requires kappa > 0")
    # epsilon = rho0*kappa: sweep the tube radius at fixed curve shape
    specs = []
    for eps in cfg.eps_sweep:
        try:
            specs.append(HelixSpec(0.0, cfg.tau, cfg.rho0) if eps == 0.0
                         else HelixSpec(cfg.kappa, cfg.tau, eps / cfg.kappa))
        except ValueError as exc:
            raise ConfigError(f"sweep epsilon {eps!r}: {exc}") from exc
    import numpy as np

    from .bloch import origin_fit, two_band_gap
    from .oracle import gap_perturbed

    out = Path(cfg.out_dir)
    xs = np.asarray(cfg.eps_sweep, dtype=float)
    gaps_tb = [two_band_gap(spec_e) for spec_e in specs]
    gaps_or = [gap_perturbed(spec_e) for spec_e in specs]
    denoms = (eps * cfg.kappa**2 / 4 for eps in cfg.eps_sweep)
    ratios = np.array([go / d if d > 0 else 0.0 for go, d in zip(gaps_or, denoms)])
    slope_tb, r2_tb = origin_fit(xs, gaps_tb)
    slope_or, r2_or = origin_fit(xs, gaps_or)
    gaps = _in_units(cfg, [gaps_tb, gaps_or])
    slopes = _in_units(cfg, [slope_tb, slope_or]).tolist()
    write_csv(
        out / "gapscan.csv",
        "epsilon,gap_twoband,gap_oracle,ratio_to_eps_kappa2_over_4",
        xs, *gaps, ratios,
    )
    write_json(
        out / "gapscan.json",
        {
            "slope_twoband": slopes[0],
            "slope_oracle": slopes[1],
            "r_squared_twoband": r2_tb,
            "r_squared_oracle": r2_or,
            "eps": list(xs),
            "units": cfg.units,
        },
    )
    print(
        f"wrote {out / 'gapscan.csv'} ({len(xs)} rows) and {out / 'gapscan.json'}"
    )
    return 0


def cmd_cylinder_check(cfg: RunConfig) -> int:
    """Straight-tube exact oracle vs the closed form cylinder_levels."""
    from .verify import cylinder_error

    n_lowest = 7
    err = cylinder_error(cfg.spec(), n_lowest)
    print(
        f"cylinder check: max relative error {err:.3e} over {n_lowest} levels "
        f"(exact helical-momentum oracle at k_s = 0)"
    )
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    from .verify import run_verification

    report = run_verification(cfg)
    write_json(Path(cfg.out_dir) / "verify.json", report)
    for check in report["checks"]:
        status = "ok  " if check["passed"] else "FAIL"
        print(
            f"{status} {check['name']}: measured {check['measured']:.3e} "
            f"({check['kind']} {check['tolerance']:.3e})"
        )
    if report["passed"]:
        print("verification passed")
        return 0
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    print(f"verification FAILED: {', '.join(failing)}", file=sys.stderr)
    return 1


_COMMANDS = {
    "geometry": cmd_geometry,
    "potential": cmd_potential,
    "bands": cmd_bands,
    "gap-scan": cmd_gap_scan,
    "cylinder-check": cmd_cylinder_check,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helitube",
        description="Band structure of a particle on a helical tube surface.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--kappa", type=float, default=None)
    parser.add_argument("--tau", type=float, default=None)
    parser.add_argument("--rho0", type=float, default=None)
    parser.add_argument("--grid", default=None, metavar="NxM")
    parser.add_argument("--kpath", default=None, metavar="a:b:n",
                        help="a negative start needs the form --kpath=a:b:n")
    parser.add_argument("--eps-sweep", default=None, dest="eps_sweep",
                        metavar="v1,v2,...")
    parser.add_argument("--out", default=None, dest="out_dir", metavar="DIR")
    parser.add_argument("--units", default=None, metavar="natural|physical:<mu>")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](build_config(args))
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, CapExceeded) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceFailure as exc:
        print(f"eigensolver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

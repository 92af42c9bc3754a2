"""Advertised names resolve, and removed names stay removed."""

import ast
import importlib.util
import math
import re
import sys
from pathlib import Path

import pytest

import helitube
from helitube import bloch, geometry, operators, oracle, spec

README = Path(__file__).resolve().parents[1] / "README.md"
MAKE_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "make_reference.py"


@pytest.mark.parametrize("module", [helitube], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


# removed name -> the module that used to define it
_REMOVED = {
    "CouplingTable": bloch,
    "coupling_coefficients": bloch,
    "sample_field": geometry,
    "surface_sample": geometry,
    "ScalarField2D": geometry,
    "SurfaceSample": geometry,
    "screw_blocks": oracle,
    "thread_count": oracle,
    "ReciprocalVector": bloch,
    "K1": bloch,
    "wave_field": operators,
    "EffectiveParams": operators,
    "effective_params": operators,
    "PLANE_WAVE_RAY": oracle,
    "_decay_rate": oracle,
    "u_squared": bloch,
    "GapScaling": bloch,
    "gap_scaling": bloch,
    "bloch_vector": bloch,
    "FrameSample": geometry,
    "frenet_frame": geometry,
    "rotated_frame": geometry,
    "band_sweep": oracle,
    "BandStructure": bloch,
    "SOURCE_TAGS": bloch,
    "laplace_beltrami_expanded": operators,
    "random_band_limited": operators,
    "weingarten": geometry,
    "cylinder_limit_energies": bloch,
    "GRID_2D": oracle,
    "DiscretizedHamiltonian": oracle,
    "WaveField": operators,
    "PSI": operators,
    "PHI": operators,
    "GaugeMismatch": operators,
}


@pytest.mark.parametrize("name", list(_REMOVED))
def test_removed_names_are_gone(name):
    assert name not in helitube.__all__
    assert not hasattr(helitube, name)
    assert not hasattr(_REMOVED[name], name)


def test_modules_import_no_private_names_from_each_other():
    # the modules use each other through public, documented names only
    private = [
        (path.name, alias.name)
        for path in sorted(Path(helitube.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []


def test_the_package_declares_the_api_once():
    # helitube._EXPORTS is the one list: no submodule has an __all__ of its own
    declared = [
        path.name
        for path in sorted(Path(helitube.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id == "__all__"
    ]
    assert declared == ["__init__.py"]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from helitube import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(helitube.__all__)
    assert set(helitube.__all__) <= set(dir(helitube))
    from helitube import BlochVector, HelixSpec, assemble_full, eigensolve

    assert (BlochVector, HelixSpec, assemble_full, eigensolve) == (
        bloch.BlochVector, spec.HelixSpec, oracle.assemble_full,
        oracle.eigensolve)


def test_the_benchmark_reference_script_solves_on_this_api(monkeypatch):
    # perfbench/make_reference.py builds its table from the exported
    # assemble_full and eigensolve: load it by path (its main does not run,
    # and no bytecode is cached beside it) and take one of its solves
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    found = importlib.util.spec_from_file_location("make_reference", MAKE_REFERENCE)
    script = importlib.util.module_from_spec(found)
    found.loader.exec_module(script)
    got = script.lowest_pair(-0.3, 8)
    want = oracle.screw_eigenvalues(script.FIG3, bloch.BlochVector(-0.3, 0), 8, 8, 2)
    assert len(got) == len(want) == 2
    assert all(math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0) for a, b in zip(got, want))


def test_readme_library_example_prints_what_it_says(capsys):
    # the README's one python block: each print's trailing comment is its output
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    want = [line.split("# ", 1)[1] for line in block.splitlines()
            if line.startswith("print(")]
    exec(block, {})
    assert want and capsys.readouterr().out.splitlines() == want

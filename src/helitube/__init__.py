"""Quantum mechanics of a particle bound to a helical tube surface.

Modules
-------
geometry   tube embedding, metric factor, curvatures
operators  surface Laplacian, gauge transform, effective potential
bloch      folded zone, ray couplings, two-band model, effective mass
oracle     plane-wave lattice eigensolvers at fixed helical momentum
           (exact and paper-stated), the spectral collocation reference,
           and the finite-difference grid reference
cli        deterministic CSV/JSON artifact generation
verify     self-check suite behind `helitube verify`

``_EXPORTS`` is the one list of the public API; no submodule declares
``__all__``.  Every name in ``__all__`` resolves on first use: ``import
helitube`` loads no submodule, and ``helitube.X`` (or ``from helitube
import X``) imports X's home module then, and keeps X in the package
namespace.
"""

from importlib import import_module

# home module -> the names the package exports from it
_EXPORTS = {
    "geometry": (
        "DegenerateCurve", "DegeneratePeriod", "EmbeddingViolation",
        "HelixSpec", "grid_nodes", "helical_phase", "metric_h",
        "principal_curvatures", "rotation_angle", "surface_point", "v_curv",
    ),
    "operators": (
        "apply_laplace_beltrami", "apply_transformed_operator", "band_limited",
        "normalize", "spectral_derivative", "spectral_offset", "v1_apply",
        "v1_multiplicative", "v_eff", "v_kin", "wavefield_norm",
    ),
    "bloch": (
        "BlochVector", "NearResonance", "OutOfValidity", "SingularMass",
        "cylinder_levels", "effective_mass",
        "first_order_energies", "first_order_u", "k_components",
        "near_boundary_expansion", "origin_fit", "ray_amplitude", "ray_vector",
        "stated_table", "two_band_energies", "two_band_gap", "two_band_hessian",
        "zone_boundary_k",
    ),
    "oracle": (
        "CapExceeded", "ConvergenceFailure", "SpectrumResult", "assemble_full",
        "assemble_perturbed", "collocation_levels", "continuum_levels",
        "eigensolve", "fourier_decay_rate", "gap_perturbed", "perturbed_levels",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

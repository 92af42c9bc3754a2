"""Quantum mechanics of a particle bound to a helical tube surface.

Modules
-------
geometry   tube embedding, metric factor, curvatures
operators  surface Laplacian, gauge transform, effective potential
bloch      folded zone, ray couplings, two-band model, effective mass
oracle     plane-wave lattice eigensolvers at fixed helical momentum
           (exact and paper-stated), and the finite-difference grid reference
cli        deterministic CSV/JSON artifact generation
verify     self-check suite behind `helitube verify`
"""

from .geometry import (
    DegenerateCurve,
    DegeneratePeriod,
    EmbeddingViolation,
    HelixSpec,
    grid_nodes,
    helical_phase,
    metric_h,
    principal_curvatures,
    rotation_angle,
    surface_point,
    v_curv,
    weingarten,
)
from .operators import (
    PHI,
    PSI,
    GaugeMismatch,
    WaveField,
    apply_laplace_beltrami,
    apply_transformed_operator,
    band_limited,
    laplace_beltrami_expanded,
    normalize,
    random_band_limited,
    spectral_derivative,
    spectral_offset,
    v1_apply,
    v1_multiplicative,
    v_eff,
    v_kin,
    wavefield_norm,
)
from .bloch import (
    SOURCE_TAGS,
    BandStructure,
    BlochVector,
    NearResonance,
    OutOfValidity,
    SingularMass,
    cylinder_limit_energies,
    effective_mass,
    first_order_energies,
    first_order_u,
    k_components,
    near_boundary_expansion,
    origin_fit,
    ray_amplitude,
    ray_vector,
    stated_table,
    two_band_energies,
    two_band_gap,
    two_band_hessian,
    zone_boundary_k,
)
from .oracle import (
    GRID_2D,
    CapExceeded,
    ConvergenceFailure,
    DiscretizedHamiltonian,
    SpectrumResult,
    assemble_full,
    assemble_perturbed,
    band_sweep,
    continuum_levels,
    eigensolve,
    fourier_decay_rate,
    gap_perturbed,
    screw_eigenvalues,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateCurve", "DegeneratePeriod", "EmbeddingViolation",
    "HelixSpec", "grid_nodes", "helical_phase", "metric_h",
    "principal_curvatures", "rotation_angle", "surface_point", "v_curv",
    "weingarten",
    "PHI", "PSI", "GaugeMismatch", "WaveField",
    "apply_laplace_beltrami", "apply_transformed_operator", "band_limited",
    "laplace_beltrami_expanded", "normalize", "random_band_limited",
    "spectral_derivative", "spectral_offset", "v1_apply",
    "v1_multiplicative", "v_eff", "v_kin", "wavefield_norm",
    "SOURCE_TAGS", "BandStructure", "BlochVector",
    "NearResonance", "OutOfValidity", "SingularMass",
    "cylinder_limit_energies", "effective_mass",
    "first_order_energies", "first_order_u", "k_components",
    "near_boundary_expansion", "origin_fit", "ray_amplitude", "ray_vector",
    "stated_table", "two_band_energies", "two_band_gap", "two_band_hessian",
    "zone_boundary_k",
    "GRID_2D", "CapExceeded", "ConvergenceFailure",
    "DiscretizedHamiltonian", "SpectrumResult", "assemble_full",
    "assemble_perturbed", "band_sweep", "continuum_levels", "eigensolve",
    "fourier_decay_rate", "gap_perturbed", "screw_eigenvalues",
    "__version__",
]

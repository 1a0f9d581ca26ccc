"""Numerical laboratory for deformed Laplacian spectra on model manifolds.

The package builds exact Fourier-Galerkin complexes on the circle and
the flat torus, deforms them by a Morse potential, tracks the
exponentially decaying eigenvalue branches back to the undeformed
operator, and compares the resulting spectral data with the
combinatorial complex of gradient-flow cells, down to the torsion and
volume identities that tie the two sides together.
"""

__version__ = "0.1.0"

from .branches import (
    EigenBranch,
    LABEL_LARGE,
    LABEL_VS,
    LABEL_ZERO,
    PackageDegree,
    SpectralPackage,
    assign_to_critical_points,
    classify,
    match_step,
    track_branches,
)
from .config import ExperimentConfig, PRESETS, Tolerances, preset
from .derham import (
    DeRhamComplex,
    LaplacianFamily,
    build_circle_complex,
    build_torus_complex,
    check_duality_identities,
    laplacian_family,
)
from .errors import (
    ConfigError,
    DegenerateCriticalPointError,
    GapNotFoundError,
    NumericalError,
    TrackingError,
    WittenLabError,
    ZeroCountError,
)
from .experiments import (
    run_duality,
    run_morse,
    run_package,
    run_spectrum,
    run_torsion,
    run_verify_anomaly,
)
from .integrals import CellMoments, det_log
from .morse import (
    CriticalPoint,
    FlowComplex,
    UnstableCell,
    find_critical_points,
    flow_complex,
)
from .torsion import (
    ComplexMorphism,
    FiniteComplex,
    TorsionReport,
    check_anomaly,
    cohomology_volumes,
    det_prime,
    evaluate_theorem,
    harmonic_volumes,
    torsion_T,
    vol_of_iso,
)
from .trigpoly import TrigPoly, circle_sin2, torus_sin2_product

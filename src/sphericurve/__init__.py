"""Reconstruction of unit-speed spherical curves from prescribed curvature laws.

A unit-speed curve on the unit sphere whose geodesic curvature is a given
function of height, kappa = kappa(z), is determined up to a rotation around
the z-axis by three quadratures: an antiderivative K(z) of kappa(z) (the
spherical angular momentum), the arc-length integral
s(z) = int dz / sqrt(1 - z^2 - K(z)^2), and the longitude integral
lambda(s) = int K / (z^2 - 1) ds.  This package implements that pipeline,
an analytic catalog of closed-form reference curves, an independent
Frenet-frame ODE integrator for cross-checking, and residual diagnostics.
"""

from .specfun import (
    EllipticModulus,
    JacobiTriple,
    complete_K,
    incomplete_E,
    incomplete_F,
    jacobi,
)
from .laws import (
    AdmissibleInterval,
    CurvatureLaw,
    MomentumLaw,
    OPEN_BOUNDARY,
    POLE_PASSAGE,
    TURNING_POINT,
    admissible_intervals,
    antiderivative,
    catenary_law,
    clelia_law,
    constant_law,
    custom_law,
    linear_elastica_law,
    loxo_one_law,
    loxo_super_law,
    loxodrome_law,
    momentum_from_trace,
    sn_family_law,
    viviani_law,
)
from .reconstruct import (
    CurveTrace,
    ReconstructionConfig,
    arc_length_of_z,
    reconstruct,
    z_of_s,
)
from .families import (
    ClosedFormCurve,
    ElasticaParams,
    closed_form,
    el_residual,
    energy_residual,
    family_law,
    family_names,
)
from .oracle import (
    FrenetState,
    curvature_from_trace,
    frenet_integrate,
    initial_state,
)
from .verify import DiagnosticsReport, Thresholds, compare_traces, verify_trace

__version__ = "0.1.0"

__all__ = [
    "AdmissibleInterval",
    "ClosedFormCurve",
    "CurvatureLaw",
    "CurveTrace",
    "DiagnosticsReport",
    "ElasticaParams",
    "EllipticModulus",
    "FrenetState",
    "JacobiTriple",
    "MomentumLaw",
    "OPEN_BOUNDARY",
    "POLE_PASSAGE",
    "ReconstructionConfig",
    "Thresholds",
    "TURNING_POINT",
    "admissible_intervals",
    "antiderivative",
    "arc_length_of_z",
    "catenary_law",
    "clelia_law",
    "closed_form",
    "compare_traces",
    "complete_K",
    "constant_law",
    "curvature_from_trace",
    "custom_law",
    "el_residual",
    "energy_residual",
    "family_law",
    "family_names",
    "frenet_integrate",
    "incomplete_E",
    "incomplete_F",
    "initial_state",
    "jacobi",
    "linear_elastica_law",
    "loxo_one_law",
    "loxo_super_law",
    "loxodrome_law",
    "momentum_from_trace",
    "reconstruct",
    "sn_family_law",
    "verify_trace",
    "viviani_law",
    "z_of_s",
]

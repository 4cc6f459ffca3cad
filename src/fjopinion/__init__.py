"""Friedkin-Johnsen opinion dynamics with heterogeneous per-node stubbornness.

Sparse-graph library and CLI: simulation, equilibrium solving, spectral
convergence analysis, a spanning-forest oracle for the fundamental matrix,
and exact / certified-approximate conflict, disagreement, and polarization
metrics.
"""

from fjopinion.errors import GraphInputError, NumericalError, SizeGuardError
from fjopinion.graph import (
    Graph,
    SpectralBounds,
    StubbornnessVector,
    build_graph,
    eigen_bounds,
    laplacian_apply,
    load_edge_list,
)
from fjopinion.dynamics import (
    OpinionState,
    SpectralEstimate,
    center_opinions,
    convergence_bound,
    equilibrium,
    fundamental_matrix,
    simulate_until,
    spectral_radius,
    step,
)
from fjopinion.solver import Certificate, SolverResult, energy_norm_certificate, solve
from fjopinion.metrics import (
    DeltaBudget,
    MetricsReport,
    approxim,
    conservation_check,
    delta_budget,
    metrics_exact,
)
from fjopinion.forest import MappedDigraph, enumerate_forests, forest_matrix

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "StubbornnessVector",
    "SpectralBounds",
    "build_graph",
    "load_edge_list",
    "laplacian_apply",
    "eigen_bounds",
    "OpinionState",
    "SpectralEstimate",
    "step",
    "equilibrium",
    "fundamental_matrix",
    "center_opinions",
    "spectral_radius",
    "convergence_bound",
    "simulate_until",
    "Certificate",
    "SolverResult",
    "energy_norm_certificate",
    "solve",
    "MetricsReport",
    "DeltaBudget",
    "metrics_exact",
    "delta_budget",
    "approxim",
    "conservation_check",
    "MappedDigraph",
    "enumerate_forests",
    "forest_matrix",
    "GraphInputError",
    "SizeGuardError",
    "NumericalError",
]

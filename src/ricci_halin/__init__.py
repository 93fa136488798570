"""Exact Lin-Lu-Yau curvature on graphs and the exhaustive classification
of positively curved generalized Halin graphs."""

from .canonical import are_isomorphic, canonical_form
from .curvature import (
    CurvatureError,
    OracleInfeasibleError,
    c3c4_upper_bound,
    check_coupling_certificate,
    check_lipschitz_certificate,
    coupling_certificate,
    curvature_report,
    kappa_alpha,
    kappa_lly,
    kappa_lly_dual,
    lipschitz_certificate,
)
from .enumeration import (
    ClassificationResult,
    VerificationReport,
    enumerate_halin,
    verify_theorem,
)
from .formats import (
    from_graph6,
    parse_edge_list,
    to_dot,
    to_graph6,
    write_edge_list,
)
from .graph import Graph, GraphError
from .halin import HalinError, PlaneTree, build_halin, wheel
from .transport import TransportError, wasserstein

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "kappa_lly",
    "kappa_lly_dual",
    "curvature_report",
    "kappa_alpha",
    "wasserstein",
    "c3c4_upper_bound",
    "lipschitz_certificate",
    "coupling_certificate",
    "check_lipschitz_certificate",
    "check_coupling_certificate",
    "enumerate_halin",
    "ClassificationResult",
    "verify_theorem",
    "VerificationReport",
    "canonical_form",
    "are_isomorphic",
    "to_graph6",
    "from_graph6",
    "parse_edge_list",
    "write_edge_list",
    "to_dot",
    "PlaneTree",
    "build_halin",
    "wheel",
    "GraphError",
    "HalinError",
    "TransportError",
    "CurvatureError",
    "OracleInfeasibleError",
]

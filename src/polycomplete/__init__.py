"""Completeness of partial vertex-facet incidence matrices of polytopes.

Given the dimension d and a 0/1 minor of a polytope's vertex-facet
incidence matrix, `decide` answers whether the minor is the complete
matrix, by testing whether the reduced (d-1)-st Z2 homology of the
crosscut complex vanishes.  `find_certificate` / `verify_certificate`
produce and check polynomial-time-verifiable witnesses for the
incomplete case, built on the pulling complex.  The geometry module
extracts trustworthy incidence data from exact-rational coordinates.
"""

from .crosscut import (
    CompletenessReport,
    FaceLayer,
    analyze,
    boundary_matrix,
    decide,
    enumerate_faces,
)
from .geometry import (
    GeometricInstance,
    GeometryFormatError,
    Halfspace,
    ValidationIssue,
    ValidationReport,
    extract_incidence,
    parse_geometry,
    serialize_geometry,
    validate_instance,
)
from .gf2 import Gf2Matrix
from .incidence import (
    IncidenceFormatError,
    IncidenceMinor,
    SizeStats,
    parse_incidence,
    serialize_incidence,
    size_stats,
    transpose,
)
from .pulling import (
    CertificateFormatError,
    CertificateKind,
    PullingCertificate,
    find_certificate,
    find_pulling_facet,
    is_pulling_facet,
    parse_certificate,
    ridge_cofacet_count,
    serialize_certificate,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "analyze",
    "boundary_matrix",
    "CompletenessReport",
    "decide",
    "enumerate_faces",
    "extract_incidence",
    "FaceLayer",
    "find_certificate",
    "find_pulling_facet",
    "GeometricInstance",
    "GeometryFormatError",
    "Gf2Matrix",
    "Halfspace",
    "IncidenceFormatError",
    "IncidenceMinor",
    "is_pulling_facet",
    "parse_certificate",
    "parse_geometry",
    "parse_incidence",
    "PullingCertificate",
    "CertificateFormatError",
    "CertificateKind",
    "ridge_cofacet_count",
    "serialize_certificate",
    "serialize_geometry",
    "serialize_incidence",
    "size_stats",
    "SizeStats",
    "transpose",
    "validate_instance",
    "ValidationIssue",
    "ValidationReport",
    "verify_certificate",
]

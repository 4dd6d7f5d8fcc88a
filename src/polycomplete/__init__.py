"""Completeness of partial vertex-facet incidence matrices of polytopes.

Given the dimension d and a 0/1 minor of a polytope's vertex-facet
incidence matrix, `decide` answers whether the minor is the complete
matrix, by testing whether the reduced (d-1)-st Z2 homology of the
crosscut complex is nonzero.  `find_certificate` / `verify_certificate`
produce and check polynomial-time-verifiable witnesses for the
incomplete case, built on the pulling complex.  The geometry module
extracts trustworthy incidence data from exact-rational coordinates.
"""

from .crosscut import analyze, decide
from .pulling import find_certificate, verify_certificate

__version__ = "0.1.0"

__all__ = ["analyze", "decide", "find_certificate", "verify_certificate", "__version__"]

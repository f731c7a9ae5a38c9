"""Exact lattice-point machinery for Rees cones of monomial ideals.

Everything is exact integer arithmetic; no floats are used anywhere.
Elements and coordinates are 1-indexed in all reports and wire formats.
"""

from .errors import (
    CapExceeded,
    DegenerateCone,
    IntegrityError,
    InvalidInstance,
    MethodDisagreement,
    ParseError,
    PreconditionFailed,
    ReesKitError,
)
from .matroid import (
    Matroid,
    MonomialIdeal,
    basis_monomial_ideal,
    check_basis_exchange,
    enumerate_matroids,
    graphic_matroid,
    uniform_matroid,
)
from .polymatroid import (
    PolymatroidBases,
    check_polymatroid_bases,
    divide_by_variable,
    veronese_bases,
)
from .reescone import (
    ConeClassification,
    FacetSystem,
    ReesCone,
    Verdict,
    basis_rees_cone,
    classify,
    facet_normals,
    facet_normals_oracle,
    rees_generators,
    verify_basis_facet_shape,
)
from .semigroup import (
    EqualityReport,
    HilbertBasisResult,
    IdealSession,
    NormalityCertificate,
    hilbert_basis,
)

__version__ = "0.1.0"

# every name imported above from the package's modules: the API is listed once
__all__ = sorted(k for k, v in globals().items()
                 if getattr(v, "__module__", "").startswith("reeskit."))

"""Exact-arithmetic enumeration of two-sided divisorial link candidates
on weak Fano threefolds of Picard rank two.

The public surface: the candidate model, ``record`` (a family tuple's
unaudited candidate) and ``build_candidate`` (its 64-bit audit), the
check registry, the primary enumerators plus the independent brute-force
oracle, golden table loading/diffing, and renderers.
"""

from .catalog import hodge_h12, is_valid_fano_degree
from .checks import DEFAULT_CHECKS, REGISTRY, CheckReport, admitted, run_checks
from .golden import (
    DiffReport,
    GoldenDataError,
    diff,
    golden_for_family,
    load_golden,
)
from .model import (
    ContractionType,
    ExistenceStatus,
    FlopCoefficients,
    IntersectionConstants,
    LinkCandidate,
    SideData,
    intersection_constants,
)
from .search import (
    FAMILY_IDS,
    brute_force_oracle,
    build_candidate,
    enumerate_e1e1,
    enumerate_e1estar,
    enumerate_family,
    enumerate_symmetric,
    mirror_candidate,
    record,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "ContractionType",
    "DEFAULT_CHECKS",
    "DiffReport",
    "ExistenceStatus",
    "FAMILY_IDS",
    "FlopCoefficients",
    "GoldenDataError",
    "IntersectionConstants",
    "LinkCandidate",
    "REGISTRY",
    "SideData",
    "admitted",
    "brute_force_oracle",
    "build_candidate",
    "diff",
    "enumerate_e1e1",
    "enumerate_e1estar",
    "enumerate_family",
    "enumerate_symmetric",
    "golden_for_family",
    "hodge_h12",
    "intersection_constants",
    "is_valid_fano_degree",
    "load_golden",
    "mirror_candidate",
    "record",
    "run_checks",
    "__version__",
]

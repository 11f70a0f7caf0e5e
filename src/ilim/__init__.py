"""Computational toolkit for unimodal interval dynamics and their inverse limits.

The package covers four layers of machinery:

* interval maps (tent and quadratic families) with preimage enumeration,
* lap-count growth and topological entropy estimation,
* backward-orbit points of the inverse limit, folding patterns and salient
  points along arcs, interval chain covers with refinement,
* separated-set entropy for shift-composed dynamics, renormalization
  cascades of quadratic maps, and the admissible entropy spectrum of a
  renormalization tower.
"""

from .bowen import (
    PointCloud,
    SeparationCurve,
    entropy_bowen,
    estimate_from_curves,
    itinerary_upper_bound,
    partition_blocks,
    sample_points,
    separated_count,
    separation_curves,
)
from .chains import (
    AlignmentReport,
    IntervalChain,
    adjacency_ok,
    build_chain,
    limit_diameter,
    limit_mesh,
    link_of,
    mandatory_ok,
    refines,
    verify_plevel_alignment,
)
from .errors import (
    DepthError,
    DomainError,
    PartitionError,
    ResourceCapError,
    TowerError,
)
from .inverse_limit import (
    BackwardPoint,
    FoldingPattern,
    PPointRecord,
    arc_records,
    arc_to_salient,
    folding_pattern_prefix,
    metric,
    p_level,
    projection,
    salient_positions,
    shift,
    truncate,
    unshift,
    validate,
)
from .lap_entropy import (
    EntropyEstimate,
    LapTable,
    deep_branch_count,
    entropy_lap,
    lap_count,
    lap_table,
    tent_slope_of_quadratic,
)
from .maps import (
    QuadraticMap,
    TentMap,
    UnimodalMap,
    core_interval,
    critical_orbit,
    itinerary,
)
from .renorm import (
    BlockModel,
    MembershipResult,
    RenormTower,
    block_model_entropy,
    detect_renormalization,
    entropy_spectrum,
    spectrum_membership,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentReport",
    "BackwardPoint",
    "BlockModel",
    "DepthError",
    "DomainError",
    "EntropyEstimate",
    "FoldingPattern",
    "IntervalChain",
    "LapTable",
    "MembershipResult",
    "PPointRecord",
    "PartitionError",
    "PointCloud",
    "QuadraticMap",
    "RenormTower",
    "ResourceCapError",
    "SeparationCurve",
    "TentMap",
    "TowerError",
    "UnimodalMap",
    "adjacency_ok",
    "arc_records",
    "arc_to_salient",
    "block_model_entropy",
    "build_chain",
    "core_interval",
    "critical_orbit",
    "deep_branch_count",
    "detect_renormalization",
    "entropy_bowen",
    "entropy_lap",
    "entropy_spectrum",
    "estimate_from_curves",
    "folding_pattern_prefix",
    "itinerary",
    "itinerary_upper_bound",
    "lap_count",
    "lap_table",
    "limit_diameter",
    "limit_mesh",
    "link_of",
    "mandatory_ok",
    "metric",
    "p_level",
    "partition_blocks",
    "projection",
    "refines",
    "salient_positions",
    "sample_points",
    "separated_count",
    "separation_curves",
    "shift",
    "spectrum_membership",
    "tent_slope_of_quadratic",
    "truncate",
    "unshift",
    "validate",
    "verify_plevel_alignment",
]

"""Simulation and verification laboratory for scale-invariant planar stick soups.

Exact truncated-soup sampling on disk windows, closed-form hit-measure
oracles, an interface-tracing exploration walk on boxes, and seeded Monte
Carlo estimators for crossing, arm and annulus-traversal events.
"""

__version__ = "0.1.0"

from .geometry import (
    Annulus,
    Box,
    GeometryError,
    Point,
    Polyline,
    Segment,
    Stick,
    clip_segment_to_box,
    segment_circle_intersections,
    segment_intersection,
    stick_to_segment,
)
from .soup import (
    Configuration,
    DiskWindow,
    InfiniteMeasureError,
    SoupParams,
    apply_homothety,
    expected_count_band_convex,
    expected_hit_count_disk,
    restrict_configuration,
    sample_configuration,
)
from .measures import (
    BallShape,
    RadiusAtLeast,
    RadiusBelow,
    SegmentShape,
    annulus_crossing_bounds,
    decorrelation_bound,
    lr1_measure,
    mu_double_circle,
    mu_hit,
)
from .events import (
    ClusterPartition,
    InvasionRecord,
    arm_event,
    covered_components,
    double_intersection_count,
    invasion_sequence,
    lr1_event,
    y_statistic,
)
from .exploration import (
    Arrangement,
    DegeneracyError,
    ExplorationResult,
    TraceError,
    box_dimension,
    build_arrangement,
    count_traversals,
    hits_all_balls,
    last_left_subpath,
    polyline_crosses_segment,
    trace_exploration,
)
from .estimators import (
    arm_decay_scan,
    correlation_estimate,
    estimate_probability,
    h1_scan,
    parker_cowan_check,
    property_void_scan,
)
from .reports import DecayReport, EstimateReport, FitError, wilson_interval

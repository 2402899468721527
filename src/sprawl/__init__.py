"""Exact comparison-based similarity search over region-labeled hypergraph indexes."""

from .ambit import Ambit, HamacherMap, LinearMap, MetaballMap, PowerMap, table1_region
from .comparison import (
    TOL,
    AmbitQuery,
    Ball,
    ComparisonSpace,
    CostSession,
    EuclideanSpace,
    ExplicitSetQuery,
    FeatureVector,
    MatrixSpace,
    ProjectionSpace,
    StringSpace,
    Workload,
    build_hardness_gadget,
    feature_map,
)
from .engine import (
    EMPTY,
    UNIVERSE,
    Edge,
    ExplicitRegion,
    Fans,
    ResponsibilityAssignment,
    SearchResult,
    Sprawl,
    brute_force_sprawl,
    build_classic,
    build_dnf_gadget,
    check_correct_small,
    check_responsibility,
    emulate_from_traces,
    linear_scan,
    parse_dnf,
    reduce_to_signed,
    search,
    sprawl_trace_oracle,
)
from .hypergraph import (
    Heuristic,
    HyperEdge,
    SignedHyperdigraph,
    check_traversal_axioms,
    enumerate_repertoire,
    traverse,
)
from .lp import LpProblem, LpResult, solve_lp
from .optimize import (
    FacetSolution,
    TrainingSet,
    alpha_search,
    build_training_set,
    cluster_facets,
    hull_ambit,
    min_radius,
    optimal_facet,
    runoff_foci,
    two_approx_foci,
)

__version__ = "0.1.0"

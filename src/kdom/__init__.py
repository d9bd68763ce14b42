"""Distance-k domination numbers: exact solvers, bounds, and constructions.

A set S of vertices k-dominates a graph when every vertex lies within hop
distance k of S; gamma_k is the least size of such a set. The package
computes gamma_k exactly at desk scale with verifiable certificates, checks
it against closed-form lower and upper bounds, and builds the structures the
bounds are tight on (paths, cycles, clique-expanded paths, direct products,
domination-preserving spanning trees).
"""

from .bounds import (
    BoundsReport,
    ProductBoundReport,
    bounds_report,
    lb_diameter,
    lb_girth,
    lb_radius,
    product_bound_check,
    ub_henning_lichiardopol,
    ub_meir_moon,
    ub_tian_xu,
)
from .constructions import (
    CycleWitness,
    SpanningTreeResult,
    clique_expanded_path,
    cycle,
    cycle_outsider_witness,
    direct_product,
    path,
    preserving_spanning_tree,
    project,
)
from .errors import (
    BudgetExceeded,
    CountMismatch,
    DisconnectedInput,
    EmptyFactor,
    IndexOutOfRange,
    InfiniteDiameter,
    InfiniteRadius,
    InvalidOrder,
    KdomError,
    ParseError,
    PreconditionViolated,
    SimplenessViolation,
    TooLarge,
)
from .fuzz import FuzzReport, fuzz, random_connected_graph
from .graph import INF, Graph, Metrics
from .io import from_edge_list, parse_edge_list, serialize_edge_list
from .solver import (
    Certificate,
    gamma_k_exact,
    gamma_k_oracle,
    gamma_path_cycle,
    is_k_dominating,
    packing_lower,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "BudgetExceeded",
    "Certificate",
    "CountMismatch",
    "CycleWitness",
    "DisconnectedInput",
    "EmptyFactor",
    "FuzzReport",
    "Graph",
    "INF",
    "IndexOutOfRange",
    "InfiniteDiameter",
    "InfiniteRadius",
    "InvalidOrder",
    "KdomError",
    "Metrics",
    "ParseError",
    "PreconditionViolated",
    "ProductBoundReport",
    "SimplenessViolation",
    "SpanningTreeResult",
    "TooLarge",
    "bounds_report",
    "clique_expanded_path",
    "cycle",
    "cycle_outsider_witness",
    "direct_product",
    "from_edge_list",
    "fuzz",
    "gamma_k_exact",
    "gamma_k_oracle",
    "gamma_path_cycle",
    "is_k_dominating",
    "lb_diameter",
    "lb_girth",
    "lb_radius",
    "packing_lower",
    "parse_edge_list",
    "path",
    "preserving_spanning_tree",
    "product_bound_check",
    "project",
    "random_connected_graph",
    "serialize_edge_list",
    "ub_henning_lichiardopol",
    "ub_meir_moon",
    "ub_tian_xu",
]

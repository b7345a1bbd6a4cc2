"""Locally decodable linear index codes over prime fields.

Construct broadcast codes whose receivers read only part of the
codeword, verify decodability with explicit witnesses, account localities
in exact rationals, and reproduce rate-locality trade-offs with
brute-force converse oracles.
"""

from .bounds import (
    BudgetExceededError,
    CheckResult,
    ConverseReport,
    ParetoPoint,
    converse_checks,
    cycle_tradeoff,
    exhaustive_scalar_search,
    exhaustive_vector_search,
    kernel_backend,
    min_message_length,
    minrank_bruteforce,
    optimal_cycle_locality_for_m,
    pareto_frontier,
    scalar_bounds_minrank_deficit,
)
from .codes import (
    DecodingFailure,
    DecodingPlan,
    FittingMatrix,
    IndexCode,
    LocalityProfile,
    QueryPartition,
    UndecodableError,
    decode_receiver,
    encode,
    fitting_matrix_from_plan,
    load_code,
    locality_profile,
    normalize_unique_columns,
    prune_queries,
    query_partition,
    require_plan,
    save_code,
    verify_decodable,
)
from .constructions import (
    cycle_scalar_code,
    cycle_vector_code,
    minrank_deficit_code,
    plan_rotation_schedule,
    time_share,
    uncoded,
)
from .graphs import (
    GraphParseError,
    SideInformationGraph,
    directed_cycle,
    graph_from_side_info,
    induced_subgraph,
    parse_graph,
    receiver_rows,
    shortest_directed_cycle,
)
from .linalg import FqMatrix, null_space_basis, rank

__version__ = "0.1.0"

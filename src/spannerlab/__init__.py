"""spannerlab: light spanners in weighted graphs with exact rational arithmetic.

Construction (greedy scan, iterative pruning, weight-range scaling wrapper),
verification (exact stretch), exact optima by branch and bound, benchmark
instance generators, and a SAT-to-spanner threshold reduction.

The package root holds the user-facing API. The pruning internals (walk
tables, hanging sets, single passes and rounds) live in `spannerlab.prune`.
"""
from .graphs import (
    INF,
    WeightedGraph,
    apsp,
    format_graph,
    parse_graph,
    read_graph,
    stretch,
    write_graph,
)
from .greedy import greedy_spanner
from .hardness import (
    Clause,
    ReductionOutput,
    SatInstance,
    assignment_to_spanner,
    parse_sat,
    reduce_sat,
    spanner_to_assignment,
)
from .instances import gen_greedy_hard, gen_ladder, gen_multiladder
from .oracle import OracleCapError, OracleResult, exact_opt_spanner, is_spanner, sat_brute_force
from .prune import CellCapError, iterate_prune, prune_with_scaling

__version__ = "0.1.0"

"""Grid MAPF toolkit.

Three pillars: a polynomial-time solver for individually optimal
flowtime solutions when agents move only down and right, a compiler
lowering monotone nested formulas to grid MAPF decision instances whose
answer encodes satisfiability, and exhaustive desk-scale oracles that
machine-check both.
"""

from .core import (
    AgentTask,
    ALL_CONFLICTS,
    Cell,
    Conflict,
    ConflictModel,
    ConflictReport,
    Direction,
    DirectionSet,
    DOWN_RIGHT,
    FOUR_DIRECTIONS,
    GridMap,
    Instance,
    Solution,
    THREE_DIRECTIONS,
    TimedPath,
    UP_RIGHT,
    VERTEX_EDGE,
    is_individually_optimal,
    lower_bound_cost,
    validate_solution,
)
from .formula import (
    Clause,
    EmbeddingError,
    FormulaError,
    MonotoneFormula,
    NestingForest,
    Side,
    brute_force_sat,
    evaluate,
    format_formula,
    parse_formula,
    validate_planar_monotone,
)
from .oracle import (
    BudgetExceededError,
    NoSolutionError,
    SearchBudget,
    Witness,
    assignment_minimal_lower_bound,
    delta,
    enumerate_individually_optimal,
    exists_individually_optimal,
    exists_makespan_at_most,
    optimal_flowtime,
    two_colored_decide,
)
from .reduction import (
    ChannelSpec,
    ConstructionReport,
    LadderSpec,
    LayoutError,
    ReductionMetadata,
    compile_formula,
    extract_assignment,
    makespan_variant,
    realize_solution,
    two_colored_variant,
    verify_construction,
)
from .twodir import (
    SolverStats,
    check_two_directional,
    diagonal_key,
    partition_diagonals,
    solve_two_dir,
)

__version__ = "0.1.0"

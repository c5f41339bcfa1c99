"""Exact solvers for bounded and approximate strong satisfiability of
constrained compositional workflows with release points.

The pipeline: eliminate xor branchings, enumerate execution arrangements
(equivalence classes of execution sequences), and run one solve per
decomposition grouping (arrangements that split every constraint's scope
steps into the same groups at its release points share it) by a
pruned partition scan plus min-cost matching.  A deliberately
independent brute-force oracle backs every derived value.
"""

from .arrangements import (
    Arrangement,
    XorFreeInstance,
    arrangement_of,
    count_sequences,
    eliminate_xor,
    enumerate_arrangements,
)
from .decisions import (
    Analysis,
    ArrangementRecord,
    analyze,
    check_approx,
    check_bounded_cost,
    check_expected_cost,
    check_strong_sat,
    min_budget_bounded,
    min_budget_expected,
)
from .io import export_dot, load_schema, parse_ccws, save_schema, write_ccws
from .model import (
    CompositionNode,
    Par,
    Plan,
    Poset,
    ReleaseLeaf,
    Schema,
    Seq,
    StepLeaf,
    WeightedConstraint,
    Xor,
    compile_poset,
    exclusive_pairs,
    par,
    release,
    seq,
    step,
    validate_schema,
    xor,
)
from .sequences import (
    between,
    concat,
    count_linear_extensions,
    equivalent,
    gen_sequences,
    interleave,
    left,
    right,
)
from .solver import (
    ClassicalConstraint,
    CostedPlan,
    Partition,
    SolveCache,
    cost_signature,
    decompose_constraint,
    min_auth_weight,
    min_cost_arrangement,
    pattern_constraint_weight,
    solve_vwsp,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "Arrangement",
    "ArrangementRecord",
    "ClassicalConstraint",
    "CompositionNode",
    "CostedPlan",
    "Par",
    "Partition",
    "Plan",
    "Poset",
    "ReleaseLeaf",
    "Schema",
    "Seq",
    "SolveCache",
    "StepLeaf",
    "WeightedConstraint",
    "Xor",
    "XorFreeInstance",
    "analyze",
    "arrangement_of",
    "between",
    "check_approx",
    "check_bounded_cost",
    "check_expected_cost",
    "check_strong_sat",
    "compile_poset",
    "concat",
    "cost_signature",
    "count_linear_extensions",
    "count_sequences",
    "decompose_constraint",
    "eliminate_xor",
    "enumerate_arrangements",
    "equivalent",
    "exclusive_pairs",
    "export_dot",
    "gen_sequences",
    "interleave",
    "left",
    "load_schema",
    "min_auth_weight",
    "min_budget_bounded",
    "min_budget_expected",
    "min_cost_arrangement",
    "parse_ccws",
    "par",
    "pattern_constraint_weight",
    "release",
    "right",
    "save_schema",
    "seq",
    "solve_vwsp",
    "step",
    "validate_schema",
    "write_ccws",
    "xor",
]

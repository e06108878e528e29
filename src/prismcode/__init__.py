"""Identifying codes in complementary prisms of cycles.

Library layout: graphs (bitset graphs and prism constructions), idcode
(definitional verification and the hitting-set reduction), cycleprism
(the position-condition system, the periodic pattern, bounds, the
closed-form condition floor and lex-min pair, and the local exchange),
sweep (vectorized whole-space cross-checks), solver (exact
optimization), layout (class-count doubling on layout trees), cli (the
prismcode command).  The column transfer DP that the closed forms were
read from lives in the tests as their reference.
"""

from .cycleprism import (
    CodePair,
    ConditionReport,
    ExchangeResult,
    check_conditions,
    condition_floor,
    exchange,
    lower_bound,
    pattern_code,
    upper_bound,
    verify_code,
)
from .graphs import (
    Graph,
    PrismIndexing,
    ball_table,
    closed_twins,
    complement,
    complementary_prism,
    cycle,
    format_graph,
    parse_graph,
    random_graph,
)
from .idcode import (
    HittingInstance,
    VerificationReport,
    greedy_code,
    hitting_instance,
    is_identifying_code,
)
from .layout import (
    ClassCountProfile,
    LayoutTree,
    balanced_layout_tree,
    check_doubling,
    class_profile,
    format_layout,
    parse_layout,
    prism_layout,
    random_layout_tree,
)
from .solver import (
    SolverOptions,
    SolverResult,
    format_hitting_instance,
    ic_table,
    solve_min_idcode,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

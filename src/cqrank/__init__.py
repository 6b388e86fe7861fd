"""cqrank: ranked direct access to conjunctive query answers.

Simulates the sorted array of answers for lexicographic and sum orders:
quasilinear preprocessing, logarithmic access, O(1) counting where the
(query, order) pair is tractable; linear-time single access (selection)
for one-off ranks; baseline strategies and SQL encodings for comparison.
"""

from .analysis import (
    TractabilityReport,
    analyze,
    check_free_connex,
    complete_order,
    effective_order,
    find_disruptive_trio,
    gyo_join_tree,
)
from .baseline import (
    emit_sql,
    materialize_and_sort,
    sort_before_join_access,
    stream_answers,
    topk_heap_access,
)
from .bench import GenConfig, generate_instance, run_benchmark
from .engine import (
    AccessIndex,
    build_index,
    build_reduced_db,
    preprocess_lex,  # imported for perfbench/worker.py, outside __all__
)
from .errors import (
    CqError,
    NotApplicable,
    NotRouted,
    OutOfRange,
    ResultTooLarge,
)
from .model import (
    AnswerTuple,
    Atom,
    Instance,
    OrderSpec,
    Query,
    Relation,
    format_order,
    format_query,
    load_instance,
    load_relation,
    parse_order,
    parse_query,
    validate_instance,
)
from .selection import (
    conditional_value_counts,
    select,
    select_lex,  # imported for perfbench/worker.py, outside __all__
    weighted_select,
)

__version__ = "0.1.0"

__all__ = [
    "AccessIndex",
    "AnswerTuple",
    "Atom",
    "CqError",
    "GenConfig",
    "Instance",
    "NotApplicable",
    "NotRouted",
    "OrderSpec",
    "OutOfRange",
    "Query",
    "Relation",
    "ResultTooLarge",
    "TractabilityReport",
    "analyze",
    "build_index",
    "build_reduced_db",
    "check_free_connex",
    "complete_order",
    "conditional_value_counts",
    "effective_order",
    "emit_sql",
    "find_disruptive_trio",
    "format_order",
    "format_query",
    "generate_instance",
    "gyo_join_tree",
    "load_instance",
    "load_relation",
    "materialize_and_sort",
    "parse_order",
    "parse_query",
    "run_benchmark",
    "select",
    "sort_before_join_access",
    "stream_answers",
    "topk_heap_access",
    "validate_instance",
    "weighted_select",
]

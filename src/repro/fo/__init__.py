"""First-order logic substrate: syntax, parser, reference semantics,
normal forms, and structure-assisted Gaifman localization."""

from typing import Union

from repro.errors import QueryError
from repro.fo.parser import parse
from repro.fo.semantics import (
    evaluate,
    free_tuple,
    naive_answers,
    naive_count,
    naive_enumerate,
    naive_test,
)
from repro.fo.syntax import (
    And,
    CountCmp,
    DistAtom,
    Eq,
    Exists,
    ExistsNear,
    FALSE,
    FalseF,
    Forall,
    ForallNear,
    Formula,
    Not,
    Or,
    RelAtom,
    TotalCount,
    TRUE,
    TrueF,
    Var,
    and_,
    atom,
    eq,
    exists,
    forall,
    not_,
    or_,
)

def coerce_formula(query: Union[Formula, str]) -> Formula:
    """The one place query input is normalized: text or :class:`Formula`.

    Every public entry point — ``Database.query``, ``DynamicQuery``,
    the pipeline cache — accepts
    ``str | Formula`` through this helper, so parsing behavior and the
    error message are identical everywhere.
    """
    if isinstance(query, str):
        return parse(query)
    if not isinstance(query, Formula):
        raise QueryError(
            f"expected a Formula or query text, got {type(query).__name__}"
        )
    return query


__all__ = [
    "And",
    "CountCmp",
    "DistAtom",
    "Eq",
    "Exists",
    "ExistsNear",
    "FALSE",
    "FalseF",
    "Forall",
    "ForallNear",
    "Formula",
    "Not",
    "Or",
    "RelAtom",
    "TRUE",
    "TotalCount",
    "TrueF",
    "Var",
    "and_",
    "atom",
    "coerce_formula",
    "eq",
    "evaluate",
    "exists",
    "forall",
    "free_tuple",
    "naive_answers",
    "naive_count",
    "naive_enumerate",
    "naive_test",
    "not_",
    "or_",
    "parse",
]

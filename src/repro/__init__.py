"""repro — constant-delay enumeration of FO query answers over databases
of low degree.

Reproduction of Durand, Schweikardt, Segoufin, *Enumerating answers to
first-order queries over databases of low degree* (PODS 2014 / LMCS 2022).

Quickstart::

    from repro import Database, Signature, Structure

    db = Structure(Signature.of(E=2, B=1, R=1), range(4))
    db.add_fact("B", 0); db.add_fact("R", 2); db.add_fact("E", 0, 1)
    with Database(db) as session:
        query = session.query("B(x) & R(y) & ~E(x,y)")
        query.count()                     # Theorem 2.5
        query.test((0, 2))                # Theorem 2.6
        list(query.answers())             # Theorem 2.7, constant delay
        session.insert_fact("E", 0, 2)    # plans maintained in place
        query.count()                     # reflects the update
"""

from repro.errors import (
    CancelledResultError,
    EngineError,
    EvaluationError,
    FrozenStructureError,
    ParseError,
    QueryError,
    ReproError,
    SignatureError,
    StaleResultError,
    TransactionError,
    UnsupportedQueryError,
)
from repro.fo import Var, coerce_formula, parse
from repro.fo.builder import Q
from repro.qlang import CompiledQuery, SelectQuery, parse_select
from repro.structures import Signature, Structure

__version__ = "1.1.0"

__all__ = [
    "Answers",
    "CancelledResultError",
    "Changeset",
    "CommitResult",
    "CompiledQuery",
    "Database",
    "DynamicQuery",
    "EngineError",
    "EvaluationError",
    "FrozenStructureError",
    "ParseError",
    "Q",
    "Query",
    "QueryError",
    "QueryPlan",
    "ReproError",
    "SelectQuery",
    "Signature",
    "SignatureError",
    "Snapshot",
    "StaleResultError",
    "Structure",
    "Transaction",
    "TransactionError",
    "UnsupportedQueryError",
    "Var",
    "coerce_formula",
    "model_check",
    "parse",
    "parse_select",
    "__version__",
]


def model_check(sentence, structure, **kwargs):
    """Decide ``A |= sentence`` in pseudo-linear time (Theorem 2.4)."""
    from repro.core.model_checking import model_check as _model_check

    return _model_check(coerce_formula(sentence), structure, **kwargs)


# Heavy (or deprecated) surface, resolved lazily so ``import repro``
# stays light and the ``DynamicQuery`` deprecation fires at use, not
# import.
_LAZY_EXPORTS = {
    "Answers": ("repro.session", "Answers"),
    "Changeset": ("repro.session", "Changeset"),
    "CommitResult": ("repro.session", "CommitResult"),
    "Database": ("repro.session", "Database"),
    "Query": ("repro.session", "Query"),
    "QueryPlan": ("repro.session", "QueryPlan"),
    "Snapshot": ("repro.session", "Snapshot"),
    "Transaction": ("repro.session", "Transaction"),
    "DynamicQuery": ("repro.core.dynamic", "DynamicQuery"),
}


def __getattr__(name):
    target = _LAZY_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    module_name, attribute = target
    return getattr(importlib.import_module(module_name), attribute)

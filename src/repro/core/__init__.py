"""The paper's algorithms: quantifier elimination (Proposition 3.4),
counting (Theorem 2.5), testing (Theorem 2.6), constant-delay enumeration
(Theorem 2.7), model checking (Theorem 2.4), connected conjunctive queries
(Lemma 3.2), and the naive baselines."""

from repro.core.baselines import ListJoinBaseline, product_count, product_enumerate
from repro.core.ccq import count_ccq, evaluate_ccq, parse_ccq
from repro.core.counting import count_answers
from repro.core.enumeration import (
    BranchEnumerator,
    SkipList,
    arm_enumerators,
    enumerate_answers,
)
from repro.core.model_checking import model_check
from repro.core.pipeline import Pipeline
from repro.core.testing import AnswerTester, test_answer

__all__ = [
    "AnswerTester",
    "BranchEnumerator",
    "ListJoinBaseline",
    "Pipeline",
    "SkipList",
    "arm_enumerators",
    "count_answers",
    "count_ccq",
    "enumerate_answers",
    "evaluate_ccq",
    "model_check",
    "parse_ccq",
    "product_count",
    "product_enumerate",
    "test_answer",
]

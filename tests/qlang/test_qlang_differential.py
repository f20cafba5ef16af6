"""Differential suite: compiled qlang output vs a naive Python oracle.

The oracle enumerates the WHERE formula *unfused* — full answer set,
no projection pushdown, no row budget, no counting fast path — and
composes every stage in plain Python: project by position, group with a
dict in first-seen order, sort with the same stable multi-pass rule,
slice the limit.  The compiled path must be byte-identical on the
serial AND process backends (the merge contract extends through every
qlang stage).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.qlang import compile_select, parse_select
from repro.session import Database
from repro.structures.random_gen import random_colored_graph

from tests.strategies import (
    rejecting_unsupported,
    supported_inputs,
)

BACKENDS = ["serial", "process"]


def oracle_rows(db, select):
    """Compose the statement naively over the full answer set."""
    free_names = sorted(var.name for var in select.where.free)
    if select.count and not select.columns:
        rows = [
            (db.query(select.where, order=free_names or None, backend="serial")
             .answers().all().__len__(),)
        ]
        return rows[: select.limit] if select.limit is not None else rows
    # Mirror the compiler's carried-prefix order so un-sorted output
    # order is comparable; the *stages* below are all plain Python.
    if select.group_by:
        carried = list(dict.fromkeys(select.group_by))
    else:
        carried = list(
            dict.fromkeys(
                list(select.columns)
                + [key.column for key in select.order_by]
            )
        )
    order = carried + [n for n in free_names if n not in carried]
    full = db.query(select.where, order=order, backend="serial").answers().all()
    rows = [tuple(row[: len(carried)]) for row in full]
    if select.group_by:
        counts = {}
        for row in rows:
            counts[row] = counts.get(row, 0) + 1
        positions = [carried.index(c) for c in select.columns]
        if select.count:
            rows = [
                tuple(key[p] for p in positions) + (n,)
                for key, n in counts.items()
            ]
        else:
            rows = [tuple(key[p] for p in positions) for key in counts]
        columns = list(select.output_columns)
    else:
        columns = carried
    for key in reversed(select.order_by):
        index = columns.index(key.column)
        rows.sort(key=lambda row: row[index], reverse=key.descending)
    if select.limit is not None:
        rows = rows[: select.limit]
    if not select.group_by:
        positions = [carried.index(c) for c in select.columns]
        rows = [tuple(row[p] for p in positions) for row in rows]
    return rows


@pytest.fixture(scope="module")
def graph():
    return random_colored_graph(40, max_degree=4, seed=11)


STATEMENTS = [
    "SELECT x, y WHERE B(x) & R(y) & ~E(x,y)",
    "SELECT y, x WHERE B(x) & R(y) & ~E(x,y)",
    "SELECT y WHERE B(x) & R(y) & ~E(x,y) LIMIT 7",
    "SELECT x, y WHERE B(x) & R(y) & ~E(x,y) LIMIT 0",
    "SELECT COUNT(*) WHERE B(x) & R(y) & ~E(x,y)",
    "SELECT x, COUNT(*) WHERE B(x) & R(y) & ~E(x,y) GROUP BY x",
    "SELECT x WHERE B(x) & R(y) GROUP BY x",
    "SELECT x, COUNT(*) WHERE E(x,y) GROUP BY x ORDER BY count DESC, x LIMIT 5",
    "SELECT x, y WHERE B(x) & R(y) & ~E(x,y) ORDER BY y DESC, x LIMIT 6",
    "SELECT y WHERE B(x) & R(y) & ~E(x,y) ORDER BY x DESC",
    "SELECT x WHERE B(x) & exists z. (E(x,z) & R(z))",
    "SELECT x, y WHERE E(x,y) & exists z. (E(y,z) & ~E(x,z)) LIMIT 9",
]


class TestFixedCorpus:
    @pytest.mark.parametrize("text", STATEMENTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_matches_oracle(self, graph, text, backend):
        with Database(graph, workers=2) as db:
            select = parse_select(text)
            compiled = compile_select(select, db, backend=backend)
            assert compiled.all() == oracle_rows(db, select)

    @pytest.mark.parametrize("text", STATEMENTS)
    def test_count_matches_oracle_cardinality(self, graph, text):
        with Database(graph) as db:
            select = parse_select(text)
            compiled = compile_select(select, db)
            rows = oracle_rows(db, select)
            if select.count and not select.columns:
                assert compiled.count() == (rows[0][0] if rows else 0)
            else:
                assert compiled.count() == len(rows)


class TestTernary:
    def test_ternary_statement_all_backends(self):
        from repro.structures.random_gen import random_structure

        from tests.strategies import TERNARY_SIGNATURE

        db_struct = random_structure(
            TERNARY_SIGNATURE, 12, max_degree=3, seed=23
        )
        text = "SELECT x, y WHERE T(x, y, y) | (B(x) & R(y)) LIMIT 8"
        with Database(db_struct, workers=2) as db:
            select = parse_select(text)
            expected = None
            for backend in BACKENDS:
                with rejecting_unsupported():
                    compiled = compile_select(select, db, backend=backend)
                rows = compiled.all()
                assert rows == oracle_rows(db, select)
                if expected is None:
                    expected = rows
                assert rows == expected


def select_variants(free_names):
    """Grammar-valid, compiler-valid statement variants over columns."""
    return st.one_of(
        st.just({"columns": list(free_names)}),
        st.just({"columns": list(reversed(free_names))}),
        st.just({"columns": free_names[:1], "limit": 5}),
        st.just({"columns": [], "count": True}),
        st.just(
            {"columns": free_names[:1], "count": True,
             "group_by": free_names[:1]}
        ),
        st.just(
            {"columns": list(free_names),
             "order_by": [(free_names[-1], True)], "limit": 4}
        ),
    )


class TestHypothesisDifferential:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.filter_too_much,
        ],
    )
    @given(
        pair=supported_inputs(
            free_count=2, max_depth=2, max_quantifiers=2, max_n=9
        ),
        data=st.data(),
    )
    def test_random_statements_match_oracle(self, pair, data):
        from repro.qlang.ast import OrderKey, SelectQuery

        structure, formula = pair
        free_names = sorted(var.name for var in formula.free)
        if not free_names:
            variant = {"columns": [], "count": True}
        else:
            variant = data.draw(select_variants(free_names))
        select = SelectQuery(
            columns=tuple(variant.get("columns", ())),
            where=formula,
            count=variant.get("count", False),
            group_by=tuple(variant.get("group_by", ())),
            order_by=tuple(
                OrderKey(name, desc)
                for name, desc in variant.get("order_by", ())
            ),
            limit=variant.get("limit"),
        )
        with Database(structure) as db:
            with rejecting_unsupported():
                compiled = compile_select(select, db, backend="serial")
                rows = compiled.all()
            assert rows == oracle_rows(db, select)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.filter_too_much,
        ],
    )
    @given(
        pair=supported_inputs(
            free_count=2,
            max_depth=2,
            max_quantifiers=2,
            ternary=True,
            max_n=8,
        )
    )
    def test_ternary_nested_quantifiers_match_oracle(self, pair):
        from repro.qlang.ast import SelectQuery

        structure, formula = pair
        free_names = sorted(var.name for var in formula.free)
        select = SelectQuery(
            columns=tuple(free_names),
            where=formula,
            count=not free_names,
            limit=20,
        )
        with Database(structure) as db:
            with rejecting_unsupported():
                compiled = compile_select(select, db, backend="serial")
                rows = compiled.all()
            assert rows == oracle_rows(db, select)
